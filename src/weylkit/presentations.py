"""Exact noncommutative polynomial arithmetic for commutation-type presentations.

An algebra is presented by an ordered list of generators ``g_0 < g_1 < ...``
over the prime field F_p, together with a relation table ``c[(j, i)]`` (for
``j > i``) meaning

    g_j * g_i = g_i * g_j + c[(j, i)]        (i.e. c_ji = [g_j, g_i]).

Elements are kept in PBW normal form: every monomial is an exponent vector,
read as the product of generators in increasing index order.  At most one
generator may be marked invertible, in which case its exponent may be
negative.

Products run on one of three engines, chosen once from the relation
table.  When every c_ji is a scalar (the Weyl algebra and its
localization), the product of two monomials is Wick's closed form
(``Presentation._wick_mul``).  When the table is exactly the boundary
chart's ([g1, g0] = g0^3, [g_j, g1] = -g0^2 g_j and [g_j, g_i] =
kappa_ji g0^2 for i, j >= 2), it is the chart's closed form
(``Presentation._chart_mul``): ad_v on powers of u, then Wick's sum on the
gb block.  Any other table is rewritten by one-step reductions
g_j g_i -> g_i g_j + c_ji, one generator at a time.  ``normal_form_word``
always takes the one-step route at its top level (the relation products it
calls for take the table's engine), and its g_k g_i^{-1} and g_k^{-1} g_i
rules need the commutators with the invertible generator to be scalar.
``check_confluence`` takes one-step reductions throughout, since the closed
forms presume the associativity the check is there to establish.

Both closed forms are table-driven.  Wick's sum splits into the connected
blocks of the pair graph (generators joined where c_ji != 0) and is the
tensor product of their sums.  A block of one pair (every block of the
standard h, of its localization and of the chart's gb block at n = 2)
reads its terms C(x, k) (y)_k c^k mod p from a table indexed by x mod p
and y mod p, built once per (p, c).  The chart's sums for v^y past u^z read
rows indexed by (y, z mod p), filled per presentation on first use.

All values are immutable after construction, so polynomials and
presentations may be shared freely.  A ``Presentation`` holds only its
relations, two rewrite caches and the chart's rule-1 rows, and its
operations are pure: no result depends on the caches or on earlier calls.
Each top-level call (``multiply``, ``normal_form_word``, one confluence
overlap) and each of a commutator's two products has its own ``Steps``
counter of ``REWRITE_BUDGET`` rewrite steps and raises ``TooLargeError``
naming its stage when the counter runs out.  Cached products cost no steps,
so only whether a call runs out can depend on earlier calls.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

from .commpoly import format_terms
from .errors import (
    FiltrationError,
    MalformedPresentationError,
    TooLargeError,
    UnsupportedError,
)

Monomial = tuple[int, ...]

NEG_INF = float("-inf")

# Rewrite steps allowed to one top-level call.
REWRITE_BUDGET = 2_000_000


class Steps:
    """One call's budget of ``REWRITE_BUDGET`` rewrite steps: ``take(n)``
    charges n steps with one subtraction and one compare, and the charge
    that passes the budget raises ``TooLargeError`` naming ``stage``."""

    __slots__ = ("left", "stage")

    def __init__(self, stage: str):
        self.left, self.stage = REWRITE_BUDGET, stage

    def take(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise TooLargeError(f"{self.stage}: rewriting budget of {REWRITE_BUDGET} steps exceeded")


# The non-zero terms (monomial, coefficient mod p) of a monomial product.
Terms = tuple[tuple[Monomial, int], ...]
# The non-zero terms (index, coefficient mod p) of a closed-form sum.
Row = tuple[tuple[int, int], ...]
# One block of the pair graph: its generators (ascending), its pairs (j, i, c)
# in those local coordinates, and c itself when the block is one pair.
Block = tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], int | None]


@functools.lru_cache(maxsize=256)
def _pair_blocks(pairs: tuple[tuple[int, int, int], ...]) -> tuple[Block, ...]:
    """Split the pairs (j, i, c) of a Wick sum into the connected blocks of
    the pair graph, generators joined where c_ji != 0.  Cached, since the
    CLI builds its presentations afresh for each command."""
    comps: list[set[int]] = []
    for j, i, _ in pairs:
        joined = {j, i}
        for comp in [comp for comp in comps if comp & joined]:
            joined |= comp
            comps.remove(comp)
        comps.append(joined)
    blocks = []
    for comp in sorted(comps, key=min):
        coords = tuple(sorted(comp))
        local = tuple((coords.index(j), coords.index(i), c)
                      for j, i, c in pairs if j in comp)
        blocks.append((coords, local, local[0][2] if len(local) == 1 else None))
    return tuple(blocks)


@functools.lru_cache(maxsize=None)
def _contraction_table(p: int, c: int) -> tuple[tuple[Row, ...], ...]:
    """The one-pair Wick sums mod p: for the residues 0 <= x, y < p of the
    pair's exponents, entry [x][y] lists (k, C(x, k) (y)_k c^k mod p) for
    0 <= k <= min(x, y), which are the k with a non-zero weight."""
    return tuple(
        tuple(tuple((k, math.comb(x, k) * math.perm(y, k) * c**k % p)
                    for k in range(min(x, y) + 1))
              for y in range(p))
        for x in range(p)
    )


def _walk(p: int, pairs: tuple[tuple[int, int, int], ...], a: Monomial, b: Monomial,
          steps: Steps) -> list[tuple[Monomial, int]]:
    """Wick's sum for g^a * g^b over one block of several ``pairs`` (see
    ``Presentation._contract``), walking the states (free exponents of a,
    free exponents of b) pair by pair and merging the states that meet:
    the free monomials with their non-zero weights mod p, the plain product
    first.  Each non-zero term the walk forms costs one rewrite step."""
    states = {(a, b): 1}
    for j, i, c in pairs:
        if not a[j] or not b[i]:
            continue
        grown = dict(states)
        for (fa, fb), t in states.items():
            x, y = fa[j], fb[i]
            for k in range(1, p):
                t = t * (x - k + 1) * (y - k + 1) * c * pow(k, -1, p) % p
                if not t:
                    break
                steps.take()
                key = (fa[:j] + (x - k,) + fa[j + 1:], fb[:i] + (y - k,) + fb[i + 1:])
                grown[key] = grown.get(key, 0) + t
        states = grown
    out: dict[Monomial, int] = {}
    for (fa, fb), t in states.items():
        m = tuple(map(operator.add, fa, fb))
        out[m] = out.get(m, 0) + t
    return [(m, t % p) for m, t in out.items() if t % p]


def _rule1_row(p: int, y: int, z: int) -> Row:
    """(l, C(y, l) prod_{t<l} (z + 2t) mod p) for the l <= y with a non-zero
    value; the product is zero from its first zero factor on."""
    row, prod = [], 1
    for l in range(y + 1):
        if l:
            prod = prod * (z + 2 * (l - 1)) % p
            if not prod:
                break
        coef = math.comb(y, l) * prod % p
        if coef:
            row.append((l, coef))
    return tuple(row)


class NCPoly:
    """A linear combination of PBW monomials with coefficients in F_p."""

    __slots__ = ("terms", "p")

    def __init__(self, terms: dict[Monomial, int], p: int):
        self.terms = out = {}
        for m, c in terms.items():
            c %= p
            if c:
                out[m] = c
        self.p = p

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, weights: tuple[int, ...] | None = None):
        """Total (weighted) degree; the zero polynomial has degree -inf."""
        if not self.terms:
            return NEG_INF
        if weights is None:
            return max(sum(m) for m in self.terms)
        return max(sum(w * e for w, e in zip(weights, m)) for m in self.terms)

    def __add__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return NCPoly(out, self.p)

    def __sub__(self, other: "NCPoly") -> "NCPoly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) - c
        return NCPoly(out, self.p)

    def __neg__(self) -> "NCPoly":
        return NCPoly({m: -c for m, c in self.terms.items()}, self.p)

    def scale(self, c: int) -> "NCPoly":
        return NCPoly({m: c * v for m, v in self.terms.items()}, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, NCPoly) and self.p == other.p and self.terms == other.terms

    def __hash__(self):
        return hash((self.p, frozenset(self.terms.items())))

    def __repr__(self):
        return f"NCPoly({self.format()!r}, p={self.p})"

    def format(self, names: tuple[str, ...] | None = None) -> str:
        return format_terms(self.terms, names, "g")


# A word is a product of generator powers in written (not normal) order.
Word = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WeightFiltration:
    """One nonnegative weight per generator; at least one must be positive."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if any(w < 0 for w in self.weights):
            raise FiltrationError("weights must be nonnegative")
        if not any(w > 0 for w in self.weights):
            raise FiltrationError("at least one weight must be positive")


class Presentation:
    """Generators, relation table and rewrite caches for one algebra."""

    def __init__(
        self,
        names: tuple[str, ...],
        p: int,
        relations: dict[tuple[int, int], NCPoly],
        weights: tuple[int, ...] | None = None,
        invertible: int | None = None,
    ):
        if p < 2 or any(p % q == 0 for q in range(2, p)):
            raise UnsupportedError(f"p={p} is not prime")
        self.names = tuple(names)
        self.p = p
        self.ngens = len(self.names)
        self.weights = tuple(weights) if weights else (1,) * self.ngens
        if len(self.weights) != self.ngens:
            raise MalformedPresentationError("weight vector length mismatch")
        self.invertible = invertible
        rel = {}
        for (j, i), c in relations.items():
            if not (0 <= i < j < self.ngens):
                raise MalformedPresentationError(f"bad relation pair ({j}, {i})")
            if c.p != p:
                raise MalformedPresentationError("relation modulus mismatch")
            if c.is_zero():
                continue
            bound = self.weights[i] + self.weights[j]
            if c.degree(self.weights) > bound:
                raise MalformedPresentationError(
                    f"relation [{self.names[j]},{self.names[i]}] exceeds the "
                    f"weighted degree guard ({c.degree(self.weights)} > {bound})"
                )
            rel[(j, i)] = c
        self.relations = rel
        # The blocks of the pairs (j, i, c_ji) when every commutator is a
        # scalar, else of the chart's gb block when the table is the chart's:
        # products then take that closed form.  With both None they take
        # one-step reductions.
        zero = (0,) * self.ngens
        self._wick: tuple[Block, ...] | None = None
        self._chart: tuple[Block, ...] | None = None
        if all(set(c.terms) == {zero} for c in rel.values()):
            pairs = tuple((j, i, c.terms[zero]) for (j, i), c in sorted(rel.items()))
            self._wick = _pair_blocks(pairs)
        else:
            kappa = self._chart_table()
            if kappa is not None:
                self._chart = _pair_blocks(kappa)
        self._mono_gen_cache: dict[tuple[Monomial, int, int], NCPoly] = {}
        self._mono_mul_cache: dict[tuple[Monomial, Monomial], Terms] = {}
        self._rule1_rows: dict[int, tuple[Row, ...]] = {}

    def _chart_table(self) -> tuple[tuple[int, int, int], ...] | None:
        """(j - 2, i - 2, kappa_ji) for 2 <= i < j when the table is exactly
        the boundary chart's: c_10 = g0^3, c_j0 = 0 and c_j1 = -g0^2 g_j for
        j >= 2, and c_ji = kappa_ji g0^2 among the rest; None otherwise.

        Other coefficients in c_10 or c_j1 are not accepted: with
        [g1, g0] = l g0^3 and [g_j, g1] = m_j g0^2 g_j the Jacobi identity
        asks kappa_ji (m_i + m_j + 2l) = 0, so a table that passed under
        them could still be non-associative.
        """
        rel = self.relations
        if self.invertible is not None or (1, 0) not in rel:
            return None
        u2 = (2,) + (0,) * (self.ngens - 1)
        want = {(1, 0): {(3,) + u2[1:]: 1}}
        for j in range(2, self.ngens):
            want[(j, 1)] = {u2[:j] + (1,) + u2[j + 1:]: self.p - 1}
        if not want.keys() <= rel.keys():
            return None
        kappa = []
        for (j, i), c in sorted(rel.items()):
            if i >= 2 and set(c.terms) == {u2}:
                kappa.append((j - 2, i - 2, c.terms[u2]))
            elif c.terms != want.get((j, i)):
                return None
        return tuple(kappa)

    # -- basic constructors -------------------------------------------------

    def zero(self) -> NCPoly:
        return NCPoly({}, self.p)

    def one(self) -> NCPoly:
        return NCPoly({(0,) * self.ngens: 1}, self.p)

    def scalar(self, c: int) -> NCPoly:
        return NCPoly({(0,) * self.ngens: c}, self.p)

    def gen(self, i: int, power: int = 1) -> NCPoly:
        if power < 0 and i != self.invertible:
            raise UnsupportedError(f"generator {self.names[i]} is not invertible")
        m = [0] * self.ngens
        m[i] = power
        return NCPoly({tuple(m): 1}, self.p)

    def poly(self, terms: dict[Monomial, int]) -> NCPoly:
        for m in terms:
            self._check_monomial(m)
        return NCPoly(terms, self.p)

    def _check_monomial(self, m: Monomial):
        if len(m) != self.ngens:
            raise MalformedPresentationError("monomial length mismatch")
        for i, e in enumerate(m):
            if e < 0 and i != self.invertible:
                raise MalformedPresentationError(
                    f"negative exponent on non-invertible generator {self.names[i]}"
                )

    def commutator_rel(self, j: int, i: int) -> NCPoly:
        """The stored c_ji = [g_j, g_i] for j > i (zero if commuting)."""
        return self.relations.get((j, i), self.zero())

    # -- core rewriting -----------------------------------------------------

    def _inverse_rule_scalar(self, k: int, i: int) -> int:
        """The scalar c_ki that an inverse rule between g_k and g_i needs;
        a non-scalar c_ki raises ``UnsupportedError``."""
        c = self.relations.get((k, i))
        if c is None:
            return 0
        if any(any(mm) for mm in c.terms):
            raise UnsupportedError(
                "inverse rules require scalar commutators with the invertible generator"
            )
        return c.terms[(0,) * self.ngens]

    def _mono_times_gen(self, m: Monomial, i: int, sign: int, steps: Steps) -> NCPoly:
        """Normal form of (monomial m) * g_i**sign with sign in {+1, -1}."""
        key = (m, i, sign)
        cached = self._mono_gen_cache.get(key)
        if cached is not None:
            return cached
        steps.take()
        k = None
        for t in range(self.ngens - 1, i, -1):
            if m[t] != 0:
                k = t
                break
        if k is None:
            out = list(m)
            out[i] += sign
            result = NCPoly({tuple(out): 1}, self.p)
        elif sign == 1 and m[k] > 0:
            # m = m' * g_k with k > i;  g_k g_i = g_i g_k + c_ki
            mp = list(m)
            mp[k] -= 1
            mp = tuple(mp)
            below = self._mono_times_gen(mp, i, 1, steps)
            result = self._poly_times_gen(below, k, 1, steps)
            c = self.relations.get((k, i))
            if c is not None:
                result = result + self._multiply(NCPoly({mp: 1}, self.p), c, steps)
        elif sign == 1:
            # m = m' * g_k^{-1} with g_k invertible, k > i, and nothing above
            # g_k in m;  g_k^{-1} g_i = g_i g_k^{-1} - c g_k^{-2} for scalar c = c_ki
            cval = self._inverse_rule_scalar(k, i)
            mp = list(m)
            mp[k] += 1
            below = self._mono_times_gen(tuple(mp), i, 1, steps)
            result = self._poly_times_gen(below, k, -1, steps)
            if cval:
                mp[k] -= 2
                result = result + NCPoly({tuple(mp): -cval}, self.p)
        else:
            # g_k g_i^{-1} = g_i^{-1} g_k - c g_i^{-2} for scalar c = c_ki
            cval = self._inverse_rule_scalar(k, i)
            mp = list(m)
            mp[k] -= 1
            mp = tuple(mp)
            below = self._mono_times_gen(mp, i, -1, steps)
            base = self._poly_times_gen(below, k, 1, steps)
            if cval:
                corr = self._poly_times_gen(below, i, -1, steps).scale(-cval)
                base = base + corr
            result = base
        self._mono_gen_cache[key] = result
        return result

    def _poly_times_gen(self, x: NCPoly, i: int, sign: int, steps: Steps) -> NCPoly:
        out: dict[Monomial, int] = {}
        for m, c in x.terms.items():
            for mm, cc in self._mono_times_gen(m, i, sign, steps).terms.items():
                out[mm] = out.get(mm, 0) + c * cc
        return NCPoly(out, self.p)

    def _contract(
        self, blocks: tuple[Block, ...], a: Monomial, b: Monomial, steps: Steps
    ) -> list[tuple[Monomial, int]]:
        """Wick's sum for g^a * g^b over the pairs of ``blocks`` (see
        ``_pair_blocks``), each pair (j, i, c) a commutator c_ji = c times
        something central in the generators it pairs: the free monomials
        g^(a - r + b - s) with their weights mod p, the central factors left
        to the caller.  The plain product g^(a + b) comes first.

        Each term contracts k_ji of a's g_j with k_ji of b's g_i (j > i),
        leaving g^(a - r) and g^(b - s) free, with r_j = sum_i k_ji and
        s_i = sum_j k_ji.  Taking the pairs in turn, a pair with x of a's
        g_j and y of b's g_i still free contributes C(x, k) (y)_k c_ji^k,
        where (y)_k is the falling factorial.  (y)_k is divisible by k!, so
        only k < p survives mod p; then C(x, k) = (x)_k / k! in F_p, and
        both factors are polynomials in x and y, so they depend only on
        x mod p and y mod p (a negative exponent on the invertible
        generator included).  The product stops at its first zero factor.

        Generators in different blocks of the pair graph commute, so the
        sum is the tensor product of one sum per block: each block rewrites
        the exponents of its own generators in every term so far.  A block
        of one pair reads its terms from ``_contraction_table`` by
        (c, x mod p, y mod p), and one whose row is the plain term alone
        leaves the terms as they are.  A block of several pairs takes its
        terms pair by pair (``_walk``).  Each non-zero term past the plain
        product costs one rewrite step: a block's own terms as the block
        forms them (a walk also pays for terms that later merge), and each
        term that combines the terms of two or more blocks as the tensor
        product forms it.
        """
        p = self.p
        terms = [(tuple(map(operator.add, a, b)), 1)]
        for coords, pairs, c in blocks:
            if c is not None:
                i, j = coords
                row = _contraction_table(p, c)[a[j] % p][b[i] % p]
                if len(row) == 1:
                    continue
                steps.take(len(terms) * (len(row) - 1))
                si, sj = a[i] + b[i], a[j] + b[j]
                grown = []
                for m, t in terms:
                    grown.append((m, t))
                    m = list(m)
                    for k, w in row[1:]:
                        m[i], m[j] = si - k, sj - k
                        grown.append((tuple(m), t * w % p))
            else:
                local = _walk(p, pairs, tuple(a[g] for g in coords),
                              tuple(b[g] for g in coords), steps)
                steps.take((len(terms) - 1) * (len(local) - 1))
                grown = []
                for m, t in terms:
                    grown.append((m, t))
                    m = list(m)
                    for s, w in local[1:]:
                        for g, e in zip(coords, s):
                            m[g] = e
                        grown.append((tuple(m), t * w % p))
            terms = grown
        return terms

    def _wick_mul(self, a: Monomial, b: Monomial, steps: Steps) -> Terms:
        """g^a * g^b by Wick's theorem when every c_ji is a scalar: the
        terms of ``_contract``, each monomial read as it stands."""
        return tuple(self._contract(self._wick, a, b, steps))

    def _rule1(self, y: int) -> tuple[Row, ...]:
        """The rows of rule 1 for v^y, indexed by z mod p: row z lists the
        non-zero (l, C(y, l) prod_{t<l} (z + 2t) mod p) of
        v^y u^z = sum_l C(y, l) prod_{t<l} (z + 2t) u^(z+2l) v^(y-l) on the
        chart, which depend on z only mod p.  Filled for each y on first use."""
        rows = self._rule1_rows.get(y)
        if rows is None:
            rows = self._rule1_rows[y] = tuple(_rule1_row(self.p, y, z) for z in range(self.p))
        return rows

    def _chart_mul(self, a: Monomial, b: Monomial, steps: Steps) -> Terms:
        """g^a * g^b in closed form on the boundary chart's table, with
        u = g0, v = g1 and gb = (g2, ...): [v, u] = u^3, [gb_j, v] = -u^2 gb_j
        and [gb_j, gb_i] = kappa_ji u^2.

        Write a = (a0, a1, A), b = (b0, b1, B) and s = |A|.  Three rules
        bring u^a0 v^a1 gb^A u^b0 v^b1 gb^B to normal order:

        1. ad_v(u^z) = z u^(z+2), so
           v^y u^z = sum_l C(y, l) prod_{t<l} (z + 2t) u^(z+2l) v^(y-l)
           (``_rule1``).
        2. gb^A commutes with u, and gb^A v = (v - s u^2) gb^A.
        3. gb^A gb^B is Wick's sum (``_contract``) with c_ji = kappa_ji u^2;
           u^2 commutes with every gb, so a term with c contractions,
           c = (|A| + |B| - |gb|) / 2, carries u^(2c).

        Since (v - s u^2) u^2 = u^2 (v - (s - 2) u^2), the factor
        (v - s u^2)^b1 u^(2c) is u^(2c) (v - s' u^2)^b1 with s' = s - 2c,
        and (v - s' u^2)^b1 = sum_k C(b1, k) prod_{t<k} (2t - s') u^(2k)
        v^(b1-k) is rule 1 conjugated by u^s', that is rule 1 at z = -s'.
        Each of its terms then folds v^a1 past u^(b0 + 2c + 2k) by rule 1.
        Each non-zero term past the plain product costs one rewrite step.
        """
        p = self.p
        a0, a1, A = a[0], a[1], a[2:]
        b0, b1, B = b[0], b[1], b[2:]
        s = sum(A)
        total = s + sum(B)
        rows_a, rows_b = self._rule1(a1), self._rule1(b1)
        out = []
        for gb, w in self._contract(self._chart, A, B, steps):
            c = (total - sum(gb)) // 2
            z0 = b0 + 2 * c
            # the term (k, m) lands on u^(a0 + z0 + 2(k + m)) v^(a1 + b1 - k - m)
            acc = [0] * (a1 + b1 + 1)
            fresh = -1
            for k, beta in rows_b[(2 * c - s) % p]:
                row = rows_a[(z0 + 2 * k) % p]
                fresh += len(row)
                wb = w * beta
                for m, alpha in row:
                    acc[k + m] += wb * alpha
            steps.take(fresh)
            for l, t in enumerate(acc):
                if t % p:
                    out.append(((a0 + z0 + 2 * l, a1 + b1 - l) + gb, t % p))
        return tuple(out)

    def _mono_mul(self, a: Monomial, b: Monomial, steps: Steps) -> Terms:
        """The non-zero terms of g^a * g^b, formed on a cache miss and cached."""
        if self._wick is not None:
            result = self._wick_mul(a, b, steps)
        elif self._chart is not None:
            result = self._chart_mul(a, b, steps)
        else:
            x = NCPoly({a: 1}, self.p)
            for i, e in enumerate(b):
                sign = 1 if e >= 0 else -1
                for _ in range(abs(e)):
                    x = self._poly_times_gen(x, i, sign, steps)
            result = tuple(x.terms.items())
        self._mono_mul_cache[(a, b)] = result
        return result

    def _multiply(self, a: NCPoly, b: NCPoly, steps: Steps,
                  out: dict[Monomial, int] | None = None, sign: int = 1) -> NCPoly | None:
        """a * b in normal form; given ``out``, sign * a * b added into it
        unreduced instead.  Operands over another F_p raise, and so does a
        malformed monomial, all of a's and b's checked at the first miss."""
        if not a.p == b.p == self.p:
            raise MalformedPresentationError(
                f"operands over F_{a.p} and F_{b.p} for a presentation over F_{self.p}"
            )
        cache = self._mono_mul_cache
        acc = {} if out is None else out
        checked = False
        for ma, ca in a.terms.items():
            for mb, cb in b.terms.items():
                terms = cache.get((ma, mb))
                if terms is None:
                    if not checked:
                        for m in (*a.terms, *b.terms):
                            self._check_monomial(m)
                        checked = True
                    terms = self._mono_mul(ma, mb, steps)
                c = sign * ca * cb
                for m, t in terms:
                    acc[m] = acc.get(m, 0) + c * t
        return NCPoly(acc, self.p) if out is None else None

    def multiply(self, a: NCPoly, b: NCPoly) -> NCPoly:
        """a * b in normal form.  Operands over another F_p, or with a monomial
        that is not a PBW monomial here (checked when some product is not
        cached), raise ``MalformedPresentationError``."""
        return self._multiply(a, b, Steps("multiply"))

    def commutator(self, a: NCPoly, b: NCPoly) -> NCPoly:
        """a * b - b * a in one pass: both products add into one dict, reduced
        once.  Each has its own ``multiply`` budget; operands as for ``multiply``."""
        out: dict[Monomial, int] = {}
        self._multiply(a, b, Steps("multiply"), out)
        self._multiply(b, a, Steps("multiply"), out, -1)
        return NCPoly(out, self.p)

    def power(self, a: NCPoly, e: int) -> NCPoly:
        out = self.one()
        for _ in range(e):
            out = self.multiply(out, a)
        return out

    def normal_form_word(self, word: Word, coeff: int = 1) -> NCPoly:
        """Normal form of a product of generator powers in written order."""
        steps = Steps("normal_form_word")
        result = self.one().scale(coeff)
        for g, e in word:
            sign = 1 if e >= 0 else -1
            if sign < 0 and g != self.invertible:
                raise UnsupportedError(f"generator {self.names[g]} is not invertible")
            for _ in range(abs(e)):
                result = self._poly_times_gen(result, g, sign, steps)
        return result


# -- module-level operation surface -----------------------------------------


def normal_form(x, P: Presentation) -> NCPoly:
    """Normal form of ``x`` relative to ``P``.

    ``x`` may be an NCPoly (whose exponent-vector monomials are intrinsically
    ordered; coefficients are re-reduced) or a single word.
    """
    if isinstance(x, NCPoly):
        return P.poly(x.terms)
    return P.normal_form_word(tuple(x))


def multiply(a: NCPoly, b: NCPoly, P: Presentation) -> NCPoly:
    return P.multiply(a, b)


def commutator(a: NCPoly, b: NCPoly, P: Presentation) -> NCPoly:
    return P.commutator(a, b)


def hilbert_function(P: Presentation, d: int) -> int:
    """Number of PBW monomials of total degree exactly d."""
    if P.invertible is not None:
        raise UnsupportedError("hilbert_function does not support localizations")
    if d < 0:
        raise UnsupportedError("degree must be nonnegative")
    return math.comb(d + P.ngens - 1, P.ngens - 1)


# -- diamond-lemma confluence check -----------------------------------------


@dataclass
class ConfluenceReport:
    passed: bool
    overlaps_checked: int
    discrepancies: list[tuple[tuple[int, int, int], NCPoly]] = field(default_factory=list)


def check_confluence(P: Presentation) -> ConfluenceReport:
    """Resolve every overlap word g_k g_j g_i (k > j > i) both ways.

    Route a rewrites g_k g_j first and continues from
    (g_j g_k + c_kj)·g_i; route b rewrites g_j g_i first and continues from
    g_k·(g_i g_j + c_ji).  Both are finished by the PBW product, and every
    product it forms is a chain of one-step reductions g_b g_a ->
    g_a g_b + c_ba, so a zero discrepancy a - b resolves the overlap.  By
    the diamond lemma (Bergman 1978), if every overlap resolves, the system
    is confluent and any choice of reductions meets.  A discrepancy
    polynomial is reported rather than raised.

    The products run on a cold copy of ``P`` so that the check neither
    reads nor writes ``P``'s caches; both routes of one overlap share its
    step budget.  The copy takes one-step reductions even where ``P``
    takes Wick's closed form: that form presumes the associativity the
    check establishes, so with it every scalar presentation would pass
    unexamined.
    """
    Q = Presentation(P.names, P.p, P.relations, P.weights, P.invertible)
    Q._wick = Q._chart = None
    discrepancies = []
    checked = 0
    for k, j, i in itertools.combinations(range(Q.ngens - 1, -1, -1), 3):
        checked += 1
        steps = Steps(f"confluence overlap {(k, j, i)}")
        gk, gj, gi = Q.gen(k), Q.gen(j), Q.gen(i)
        kj = Q._multiply(gj, gk, steps) + Q.commutator_rel(k, j)
        ji = Q._multiply(gi, gj, steps) + Q.commutator_rel(j, i)
        diff = Q._multiply(kj, gi, steps) - Q._multiply(gk, ji, steps)
        if not diff.is_zero():
            discrepancies.append(((k, j, i), diff))
    return ConfluenceReport(not discrepancies, checked, discrepancies)


# -- associated graded ------------------------------------------------------


def associated_graded(P: Presentation, W: WeightFiltration) -> Presentation:
    """Associated graded presentation for the filtration with weights W.

    Each relation keeps exactly its weight-(w_i + w_j) homogeneous component.
    Higher-weight components vanish in the graded algebra and are discarded;
    so do weight-0 scalar components (they land in the degree-0 piece).  Any
    other lower-weight component is incompatible with the filtration.
    """
    if len(W.weights) != P.ngens:
        raise FiltrationError("weight vector length mismatch")
    new_rel: dict[tuple[int, int], NCPoly] = {}
    for (j, i), c in P.relations.items():
        target = W.weights[i] + W.weights[j]
        kept: dict[Monomial, int] = {}
        for m, cc in c.terms.items():
            w = sum(wt * e for wt, e in zip(W.weights, m))
            if w == target:
                kept[m] = cc
            elif w > target:
                continue
            elif not any(m):
                continue  # scalar component, weight 0 < target
            else:
                raise FiltrationError(
                    f"relation [{P.names[j]},{P.names[i]}] has a component of "
                    f"weight {w} below the filtration target {target}"
                )
        if kept:
            new_rel[(j, i)] = NCPoly(kept, P.p)
    # pick a guard weight vector that keeps the graded relations admissible
    for guard in (tuple(w if w > 0 else 1 for w in W.weights), (1,) * P.ngens, P.weights):
        ok = all(
            c.degree(guard) <= guard[i] + guard[j] for (j, i), c in new_rel.items()
        )
        if ok:
            return Presentation(
                P.names, P.p, new_rel, weights=guard, invertible=P.invertible
            )
    raise FiltrationError("no admissible termination guard for the graded relations")
