"""Reduced norm, valuation at infinity, Serre twists, and the symbol map.

The Weyl algebra is a free module of rank p^{2n} over its center
Z = F_p[x_1..x_2n] on the PBW basis {gamma^a : 0 <= a_i < p}.  The reduced
norm is defined by det(L_s) = N(s)^{p^n}, where L_s is left multiplication
on that basis; in characteristic p the p^n-th root is unique, so this pins
N down completely.

ord_{H^dagger} is the divisorial valuation at the hyperplane at infinity of
the inverse Frobenius pullback; on central polynomials it equals -p times
the total x-degree (u^p cuts out H and x_1 = u^{-p} on the boundary chart).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .commpoly import CommPoly, Packing, mul_sub
from .errors import IncompleteSearchError, InternalInconsistencyError
from .presentations import NCPoly
from .weylalg import WeylAlgebra, pbw_monomials

INF = math.inf


def _basis(A: WeylAlgebra):
    return pbw_monomials(A.ngens, A.p)


def left_mult_matrix(s: NCPoly, A: WeylAlgebra) -> list[list[CommPoly]]:
    """Matrix of left multiplication by s on the basis {gamma^a, 0<=a_i<p},
    with entries in the center written in the x-coordinates.  Zero entries
    share one instance."""
    p = A.p
    nv = A.ngens
    basis = _basis(A)
    index = {m: k for k, m in enumerate(basis)}
    size = len(basis)
    cells: dict[tuple[int, int], dict] = {}
    P = A.presentation
    for col, b in enumerate(basis):
        prod = P.multiply(s, NCPoly({b: 1}, p))
        for m, c in prod.terms.items():
            row = index[tuple(e % p for e in m)]
            # gamma^m = x^(m // p) * gamma^(m % p): distinct terms of prod give
            # distinct (cell, x-monomial) pairs, so no coefficients add up.
            cells.setdefault((row, col), {})[tuple(e // p for e in m)] = c
    zero = CommPoly.zero(p, nv, "x")
    M = [[zero] * size for _ in range(size)]
    for (row, col), terms in cells.items():
        M[row][col] = CommPoly(terms, p, nv, "x")
    return M


def det_poly(M: list[list[CommPoly]]) -> CommPoly:
    """Exact determinant by fraction-free Bareiss elimination.

    Rows are sparse dicts {column: packed polynomial} with zero entries left
    out.  Every Bareiss entry is a minor of M, so its degree is at most the
    sum over rows of the row's largest entry degree, and a numerator's at
    most twice that; the packing is sized for the numerators.

    A row with a zero in the pivot column k would only be rescaled by
    a_k / a_(k-1), a_k the k-th pivot.  Those factors telescope, so a row is
    left as it is and keeps the pivot of its last update as its divisor
    `den`: its Bareiss row is row * prev / den, and update k divides by den
    in place of prev.

    The pivot for column k is the entry with the fewest terms among the rows
    not yet used, then the one in the shortest row.  Any row order gives
    minors of M, so the bound holds; the first non-zero row instead lets a
    few (5,1) determinants swell to 129-term numerators.
    """
    if not M:
        raise InternalInconsistencyError("empty matrix")
    proto = M[0][0]
    p, nv, fam = proto.p, proto.nvars, proto.family
    size = len(M)
    bound = sum(max((e.degree() for e in row if e.terms), default=0) for row in M)
    pk = Packing(nv, 2 * bound)
    rows = [{j: pk.pack(e) for j, e in enumerate(row) if e.terms} for row in M]
    prev = {0: 1}
    dens = [prev] * size
    sign = 1

    def current(i):
        if dens[i] == prev:
            return rows[i]
        return {j: pk.divide(mul_sub(prev, e, None, None, p), dens[i], p)
                for j, e in rows[i].items()}

    for k in range(size - 1):
        piv, best = None, None
        for r in range(k, size):
            e = rows[r].get(k)
            if e is None:
                continue
            key = (len(e), len(rows[r]))
            if best is None or key < best:
                piv, best = r, key
        if piv is None:
            return CommPoly.zero(p, nv, fam)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            dens[k], dens[piv] = dens[piv], dens[k]
            sign = -sign
        top = current(k)
        a = top[k]
        for i in range(k + 1, size):
            row = rows[i]
            c = row.pop(k, None)
            if c is None:
                continue
            new = {}
            for j in row.keys() | top.keys():
                if j > k:
                    num = mul_sub(a, row.get(j), c, top.get(j), p)
                    if num:
                        new[j] = pk.divide(num, dens[i], p)
            rows[i], dens[i] = new, a
        prev = a
    det = current(size - 1).get(size - 1, {})
    return pk.unpack({m: sign * c for m, c in det.items()}, p, fam)


def reduced_norm(s: NCPoly, A: WeylAlgebra) -> CommPoly:
    """N(s): the unique p^n-th root of det(L_s) over the center."""
    det = det_poly(left_mult_matrix(s, A))
    return det.nth_root_frobenius(A.n)


# -- principal symbol --------------------------------------------------------


@dataclass(frozen=True)
class GradedSymbol:
    """A homogeneous degree and a degree-d form in the t-coordinates.

    The zero symbol carries degree None as a sentinel.
    """

    degree: int | None
    poly: CommPoly

    def is_zero(self):
        return self.poly.is_zero()


def principal_symbol(s: NCPoly, A: WeylAlgebra) -> GradedSymbol:
    """Top-degree form of s, read in t-coordinates (t_i the p-th root of x_i),
    restricted to the boundary divisor."""
    if s.is_zero():
        return GradedSymbol(None, CommPoly.zero(A.p, A.ngens, "t"))
    d = int(s.degree())
    terms = {m: c for m, c in s.terms.items() if sum(m) == d}
    return GradedSymbol(d, CommPoly(terms, A.p, A.ngens, "t"))


def check_norm_symbol_diagram(s: NCPoly, A: WeylAlgebra) -> bool:
    """Commutativity of the square: symbol then p^n-th power equals norm then
    restriction to the boundary (leading form, lifted through t_i^p = x_i)."""
    if s.is_zero():
        return True
    rho = principal_symbol(s, A)
    lhs = rho.poly.substitute_frobenius(A.n)  # (sum c t^m)^(p^n) over F_p
    norm = reduced_norm(s, A)
    rhs = norm.leading_form().substitute_frobenius()
    return lhs == rhs


# -- valuation and twists ----------------------------------------------------


def ord_at_H_dagger(f: CommPoly):
    """Valuation along H^dagger of a central polynomial: -p * deg, +inf at 0."""
    if f.is_zero():
        return INF
    return -f.p * int(f.degree())


def twist_membership(s: NCPoly, k: int, A: WeylAlgebra) -> bool:
    """s lies in the Serre twist of level k iff ord(N(s)) >= -k p^n."""
    if s.is_zero():
        return True
    return ord_at_H_dagger(reduced_norm(s, A)) >= -k * A.p**A.n


def global_twist_sections(k: int, degree_bound: int, A: WeylAlgebra) -> list[NCPoly]:
    """Basis of the global sections of the twist of level k among elements of
    degree <= degree_bound: the monomials of degree <= k, in graded-lex order.

    The degree law deg N(s) = deg(s) * p^(n-1) gives ord(N(s)) = -deg(s) p^n,
    so s lies in the level-k twist iff deg s <= k, and a bound >= k sees the
    whole twist; no norm is computed.  A bound below k raises
    IncompleteSearchError.
    """
    if degree_bound < k:
        raise IncompleteSearchError(
            f"degree_bound {degree_bound} cannot certify completeness for k={k}"
        )
    monos = [m for m in itertools.product(range(k + 1), repeat=A.ngens) if sum(m) <= k]
    monos.sort(key=lambda m: (sum(m), m))
    return [NCPoly({m: 1}, A.p) for m in monos]
