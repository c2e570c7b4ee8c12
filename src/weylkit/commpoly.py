"""Commutative multivariate polynomials over F_p.

Used for the center coordinates x_1..x_2n (family "x") and the inverse
Frobenius coordinates t_1..t_2n with t_i^p = x_i (family "t").  Exponent
dicts keep no zero coefficients; arithmetic is exact.
"""

from __future__ import annotations

import itertools
import random

from .errors import InvalidFormError, InternalInconsistencyError

NEG_INF = float("-inf")


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

    def __pow__(self, e):
        out = CommPoly.const(1, self.p, self.nvars, self.family)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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

    def leading_term(self):
        """(monomial, coeff) maximal in graded-lex order."""
        m = max(self.terms, key=lambda m: (sum(m), m))
        return m, self.terms[m]

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

    def nth_root_frobenius(self, power=1):
        """Unique p^power-th root when all exponents divide; coefficients are
        fixed by Frobenius on the prime field."""
        q = self.p**power
        out = {}
        for m, c in self.terms.items():
            if any(e % q for e in m):
                raise InternalInconsistencyError(
                    f"polynomial is not a p^{power}-th power"
                )
            out[tuple(e // q for e in m)] = c
        return self._like(out)

    def evaluate(self, point, field=None):
        """Evaluate at a tuple of scalars; `field` supplies GF(p^m) arithmetic."""
        if field is None:
            total = 0
            for m, c in self.terms.items():
                v = c
                for x, e in zip(point, m):
                    v = v * pow(x, e, self.p) % self.p
                total = (total + v) % self.p
            return total
        total = field.zero
        for m, c in self.terms.items():
            v = field.embed(c)
            for x, e in zip(point, m):
                v = field.mul(v, field.pow(x, e))
            total = field.add(total, v)
        return total

    def format(self, names=None):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m)):
            c = self.terms[m]
            factors = []
            for i, e in enumerate(m):
                if not e:
                    continue
                nm = names[i] if names else f"{self.family}{i + 1}"
                factors.append(nm if e == 1 else f"{nm}^{e}")
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"CommPoly({self.format()!r}, p={self.p})"


def exact_div(f: CommPoly, g: CommPoly) -> CommPoly:
    """Exact quotient f / g; raises if g does not divide f.

    Single-divisor division in graded-lex order: if g | f the division
    algorithm terminates with zero remainder and the true quotient.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    p = f.p
    gm, gc = g.leading_term()
    gc_inv = pow(gc, -1, p)
    rem = dict(f.terms)
    quot: dict[tuple, int] = {}
    while rem:
        m = max(rem, key=lambda m: (sum(m), m))
        c = rem[m]
        q = tuple(a - b for a, b in zip(m, gm))
        if any(e < 0 for e in q):
            raise InternalInconsistencyError("exact division failed")
        qc = c * gc_inv % p
        quot[q] = (quot.get(q, 0) + qc) % p
        for mg, cg in g.terms.items():
            mm = tuple(a + b for a, b in zip(q, mg))
            v = (rem.get(mm, 0) - qc * cg) % p
            if v:
                rem[mm] = v
            else:
                rem.pop(mm, None)
    return CommPoly(quot, p, f.nvars, f.family)


# -- small extension fields GF(p^m), used for interpolation cross-checks -----


class GFExt:
    """GF(p^m) with elements as coefficient tuples mod an irreducible poly."""

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.modulus = self._find_irreducible(p, m)
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)

    @staticmethod
    def _find_irreducible(p, m):
        # brute force over monic degree-m polynomials; fine for small p, m
        for tail in itertools.product(range(p), repeat=m):
            coeffs = list(tail) + [1]  # low-to-high
            if GFExt._is_irreducible(coeffs, p):
                return tuple(coeffs)
        raise InternalInconsistencyError("no irreducible polynomial found")

    @staticmethod
    def _poly_mod(a, mod, p):
        a = list(a)
        dm = len(mod) - 1
        while len(a) > dm:
            lead = a[-1] % p
            if lead:
                shift = len(a) - 1 - dm
                for i, c in enumerate(mod):
                    a[shift + i] = (a[shift + i] - lead * c) % p
            a.pop()
        while len(a) < dm:
            a.append(0)
        return [c % p for c in a]

    @staticmethod
    def _is_irreducible(coeffs, p):
        # trial division by every monic polynomial of degree <= m/2
        m = len(coeffs) - 1
        if m == 1:
            return True
        for d in range(1, m // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                div = list(tail) + [1]
                if GFExt._poly_rem_is_zero(list(coeffs), div, p):
                    return False
        return True

    @staticmethod
    def _poly_rem_is_zero(a, b, p):
        while len(a) >= len(b):
            lead = a[-1] % p
            if lead:
                shift = len(a) - len(b)
                for i, c in enumerate(b):
                    a[shift + i] = (a[shift + i] - lead * c) % p
            a.pop()
        return all(c % p == 0 for c in a)

    @staticmethod
    def _mul_mod(a, b, mod, p):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
        return GFExt._poly_mod(out, mod, p)

    def embed(self, c: int):
        return (c % self.p,) + (0,) * (self.m - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return tuple(self._mul_mod(list(a), list(b), self.modulus, self.p))

    def pow(self, a, e):
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        # a^(p^m - 2)
        if a == self.zero:
            raise ZeroDivisionError
        return self.pow(a, self.p**self.m - 2)

    def random_element(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.m))

    def det(self, mat):
        """Determinant over GF(p^m) by Gaussian elimination."""
        m = [row[:] for row in mat]
        size = len(m)
        det = self.one
        for c in range(size):
            piv = next((r for r in range(c, size) if m[r][c] != self.zero), None)
            if piv is None:
                return self.zero
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = self.mul(det, self.embed(-1))
            det = self.mul(det, m[c][c])
            inv = self.inv(m[c][c])
            for r in range(c + 1, size):
                if m[r][c] == self.zero:
                    continue
                f = self.mul(m[r][c], inv)
                for cc in range(c, size):
                    m[r][cc] = self.sub(m[r][cc], self.mul(f, m[c][cc]))
        return det
