"""Commutative multivariate polynomials over F_p.

Used for the center coordinates x_1..x_2n (family "x") and the inverse
Frobenius coordinates t_1..t_2n with t_i^p = x_i (family "t").  Exponent
dicts keep no zero coefficients; arithmetic is exact.
"""

from __future__ import annotations

from .errors import InvalidFormError, InternalInconsistencyError

NEG_INF = float("-inf")


def format_terms(terms, names, prefix: str) -> str:
    """c*v1^e1*v2*... summed in graded-lex order; variable i is names[i], or
    prefix followed by i + 1 when names is None."""
    if not terms:
        return "0"
    parts = []
    for m in sorted(terms, key=lambda m: (sum(m), m)):
        c = terms[m]
        factors = []
        for i, e in enumerate(m):
            if not e:
                continue
            nm = names[i] if names else f"{prefix}{i + 1}"
            factors.append(nm if e == 1 else f"{nm}^{e}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(f"{c}*" + "*".join(factors))
    return " + ".join(parts)


class CommPoly:
    __slots__ = ("terms", "p", "nvars", "family")

    def __init__(self, terms, p, nvars, family="x"):
        self.p = p
        self.nvars = nvars
        self.family = family
        out = {}
        for m, c in terms.items():
            if len(m) != nvars or any(e < 0 for e in m):
                raise InvalidFormError(f"bad exponent vector {m}")
            c %= p
            if c:
                out[m] = c
        self.terms = out

    @classmethod
    def zero(cls, p, nvars, family="x"):
        return cls({}, p, nvars, family)

    @classmethod
    def const(cls, c, p, nvars, family="x"):
        return cls({(0,) * nvars: c}, p, nvars, family)

    @classmethod
    def var(cls, i, p, nvars, family="x", power=1):
        m = [0] * nvars
        m[i] = power
        return cls({tuple(m): 1}, p, nvars, family)

    def is_zero(self):
        return not self.terms

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(m) for m in self.terms)

    def _like(self, terms):
        return CommPoly(terms, self.p, self.nvars, self.family)

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return self._like(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return self._like(out)

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like({m: c * other for m, c in self.terms.items()})
        p = self.p
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(a + b for a, b in zip(ma, mb))
                v = out.get(m, 0) + ca * cb
                out[m] = v % p
        return self._like(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, CommPoly)
            and self.p == other.p
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.p, self.nvars, frozenset(self.terms.items())))

    def leading_form(self):
        """Homogeneous component of top total degree."""
        if not self.terms:
            return self
        d = self.degree()
        return self._like({m: c for m, c in self.terms.items() if sum(m) == d})

    def substitute_frobenius(self, power=1):
        """Replace each variable by its p^power-th power (x_i -> t_i^{p^power})
        and retag to the t-family."""
        q = self.p**power
        return CommPoly(
            {tuple(e * q for e in m): c for m, c in self.terms.items()},
            self.p,
            self.nvars,
            family="t",
        )

    def format(self, names=None):
        return format_terms(self.terms, names, self.family)

    def __repr__(self):
        return f"CommPoly({self.format()!r}, p={self.p})"


def exact_div(f: CommPoly, g: CommPoly) -> CommPoly:
    """Exact quotient f / g; raises if g does not divide f."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    pk = Packing(f.nvars, max(f.degree(), g.degree()))
    return pk.unpack(pk.divide(pk.pack(f), pk.pack(g), f.p), f.p, f.family)


# -- the packed kernel ---------------------------------------------------------


class Packing:
    """Monomials in `nvars` variables of total degree <= `degree`, each packed
    into one int, and polynomials as dicts {packed monomial: coefficient}.

    The top field holds the total degree and the fields below it hold
    m_1..m_n, each `width` bits wide with a guard bit on top.  Int order is
    then the graded-lex order (sum(m), m) and a monomial product is an int
    addition.  No field of a monomial of degree <= `degree` reaches its guard
    bit, so m divides m' iff m' - m is non-negative with every guard bit clear:
    a field that borrows sets its own guard bit, and the top one turns the
    difference negative.
    """

    __slots__ = ("nvars", "width", "guard")

    def __init__(self, nvars: int, degree: int):
        self.nvars = nvars
        self.width = max(degree, 0).bit_length() + 1
        top = 1 << (self.width - 1)
        self.guard = sum(top << (self.width * i) for i in range(nvars + 1))

    def pack(self, f: CommPoly) -> dict[int, int]:
        w = self.width
        out = {}
        for m, c in f.terms.items():
            key = sum(m)
            for e in m:
                key = key << w | e
            out[key] = c
        return out

    def unpack(self, terms: dict[int, int], p: int, family: str) -> CommPoly:
        w, nv = self.width, self.nvars
        mask = (1 << w) - 1
        shifts = [w * (nv - 1 - i) for i in range(nv)]
        return CommPoly(
            {tuple(key >> s & mask for s in shifts): c for key, c in terms.items()},
            p,
            nv,
            family,
        )

    def divide(self, f: dict[int, int], g: dict[int, int], p: int) -> dict[int, int]:
        """Exact quotient of packed f by non-zero packed g over F_p.

        Single-divisor division in graded-lex order: if g | f it ends with zero
        remainder and the true quotient.  A monomial g divides term by term.
        """
        guard = self.guard
        gm = max(g)
        inv = pow(g[gm], -1, p)
        if len(g) == 1:
            out = {}
            for m, c in f.items():
                q = m - gm
                if q < 0 or q & guard:
                    raise InternalInconsistencyError("exact division failed")
                out[q] = c * inv % p
            return out
        tail = [(m, p - c) for m, c in g.items() if m != gm]
        rem = dict(f)
        quot = {}
        while rem:
            m = max(rem)
            q = m - gm
            if q < 0 or q & guard:
                raise InternalInconsistencyError("exact division failed")
            qc = rem.pop(m) * inv % p
            quot[q] = qc
            for mg, cg in tail:
                mm = q + mg
                v = (rem.get(mm, 0) + qc * cg) % p
                if v:
                    rem[mm] = v
                else:
                    rem.pop(mm, None)
        return quot


def mul_sub(a, b, c, d, p: int) -> dict[int, int]:
    """a*b - c*d over F_p on packed polynomials; a product with a factor of
    None (zero) is skipped."""
    acc: dict[int, int] = {}
    get = acc.get
    if a is not None and b is not None:
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = ma + mb
                acc[m] = get(m, 0) + ca * cb
    if c is not None and d is not None:
        for mc, cc in c.items():
            for md, cd in d.items():
                m = mc + md
                acc[m] = get(m, 0) - cc * cd
    out = {}
    for m, v in acc.items():
        v %= p
        if v:
            out[m] = v
    return out
