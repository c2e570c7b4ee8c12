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
import random
from dataclasses import dataclass

from .commpoly import CommPoly, GFExt, exact_div
from .errors import IncompleteSearchError, InternalInconsistencyError
from .presentations import NCPoly
from .weylalg import WeylAlgebra, pbw_monomials

INF = math.inf


def _basis(A: WeylAlgebra):
    return pbw_monomials(A.ngens, A.p)


def left_mult_matrix(s: NCPoly, A: WeylAlgebra) -> list[list[CommPoly]]:
    """Matrix of left multiplication by s on the basis {gamma^a, 0<=a_i<p},
    with entries in the center written in the x-coordinates."""
    p = A.p
    nv = A.ngens
    basis = _basis(A)
    index = {m: k for k, m in enumerate(basis)}
    size = len(basis)
    zero = CommPoly.zero(p, nv, "x")
    M = [[zero for _ in range(size)] for _ in range(size)]
    P = A.presentation
    for col, b in enumerate(basis):
        prod = P.multiply(s, NCPoly({b: 1}, p))
        for m, c in prod.terms.items():
            q = tuple(e // p for e in m)
            r = tuple(e % p for e in m)
            row = index[r]
            M[row][col] = M[row][col] + CommPoly({q: c}, p, nv, "x")
    return M


def det_poly(M: list[list[CommPoly]]) -> CommPoly:
    """Exact determinant by fraction-free Bareiss elimination."""
    if not M:
        raise InternalInconsistencyError("empty matrix")
    proto = M[0][0]
    p, nv, fam = proto.p, proto.nvars, proto.family
    size = len(M)
    m = [row[:] for row in M]
    sign = 1
    prev = CommPoly.const(1, p, nv, fam)
    for k in range(size - 1):
        if m[k][k].is_zero():
            piv = next((r for r in range(k + 1, size) if not m[r][k].is_zero()), None)
            if piv is None:
                return CommPoly.zero(p, nv, fam)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, size):
            if m[i][k].is_zero():
                # row already eliminated in this column; still rescale
                for j in range(k + 1, size):
                    if not m[i][j].is_zero():
                        m[i][j] = exact_div(m[k][k] * m[i][j], prev)
                    else:
                        m[i][j] = CommPoly.zero(p, nv, fam)
                continue
            for j in range(k + 1, size):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = (
                    exact_div(num, prev) if not num.is_zero() else CommPoly.zero(p, nv, fam)
                )
            m[i][k] = CommPoly.zero(p, nv, fam)
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return det if sign == 1 else -det


def det_cross_check(
    M, det: CommPoly, trials: int = 3, seed: int = 0
) -> bool:
    """Probe the symbolic determinant at random points of GF(p^m) with
    p^m > 2 * size * max entry degree."""
    proto = M[0][0]
    p = proto.p
    size = len(M)
    maxdeg = max((0 if e.is_zero() else int(e.degree()) for row in M for e in row), default=0)
    target = 2 * size * max(maxdeg, 1) + 1
    m = 1
    while p**m < target:
        m += 1
    field = GFExt(p, m)
    rng = random.Random(seed)
    for _ in range(trials):
        point = [field.random_element(rng) for _ in range(proto.nvars)]
        numeric = field.det([[e.evaluate(point, field) for e in row] for row in M])
        if numeric != det.evaluate(point, field):
            return False
    return True


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
    lhs = rho.poly ** (A.p**A.n)
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


def global_twist_sections(
    k: int, degree_bound: int, A: WeylAlgebra, span_budget: int = 4096, seed: int = 0
) -> list[NCPoly]:
    """Basis of the global sections of the twist of level k among elements of
    degree <= degree_bound.

    Monomials are tested through the norm; when the full coefficient space is
    small it is enumerated outright, otherwise the span structure is probed on
    random combinations.
    """
    if degree_bound < k * A.p ** (A.n - 1):
        raise IncompleteSearchError(
            f"degree_bound {degree_bound} cannot certify completeness for k={k}"
        )
    p = A.p
    monos = [
        m
        for m in itertools.product(range(degree_bound + 1), repeat=A.ngens)
        if sum(m) <= degree_bound
    ]
    monos.sort(key=lambda m: (sum(m), m))
    member = []
    non_member = []
    for m in monos:
        s = NCPoly({m: 1}, p)
        (member if twist_membership(s, k, A) else non_member).append(m)

    if p ** len(monos) <= span_budget:
        # exhaustive span search: membership must match the monomial span
        members = set()
        for coeffs in itertools.product(range(p), repeat=len(monos)):
            s = NCPoly(dict(zip(monos, coeffs)), p)
            if twist_membership(s, k, A):
                members.add(frozenset(s.terms.items()))
        span_ok = all(
            set(dict(t)) <= set(member) for t in members
        )
        if not span_ok:
            raise InternalInconsistencyError(
                "twist sections are not spanned by monomials"
            )
    else:
        rng = random.Random(seed)
        for _ in range(20):
            combo = {m: rng.randrange(p) for m in member}
            if not twist_membership(NCPoly(combo, p), k, A):
                raise InternalInconsistencyError("member span closure failed")
        for m in non_member[: min(8, len(non_member))]:
            combo = {mm: rng.randrange(p) for mm in member}
            combo[m] = 1 + rng.randrange(p - 1) if p > 2 else 1
            if twist_membership(NCPoly(combo, p), k, A):
                raise InternalInconsistencyError(
                    "non-member monomial entered the twist through a span"
                )
    return [NCPoly({m: 1}, p) for m in member]
