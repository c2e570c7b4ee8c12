"""Reduced norm, valuation at infinity, Serre twists, and the symbol map.

The Weyl algebra is a free module of rank p^{2n} over its center
Z = F_p[x_1..x_2n], x_i = gamma_i^p, on the PBW basis {gamma^a : 0 <= a_i < p}.
The reduced norm is defined by det(L_s) = N(s)^{p^n}, where L_s is left
multiplication on that basis; in characteristic p the p^n-th root is unique,
so this pins N down completely.

N is computed from a splitting instead (``reduced_norm``).  A_n(F_p) is
Azumaya over Z (Revoy 1973), and for the standard h the commutative ring
C = Z[gamma_1, gamma_3, ..] = F_p[gamma_1, x_2, gamma_3, x_4, ..] of rank p^n
over Z splits it: A is a free left C-module on e_b = gamma_2^b1 gamma_4^b2 ..
(0 <= b_i < p), right multiplication R_s is C-linear, and N(s) = det_C(R_s),
one p^n x p^n determinant.  Any other h goes to the standard one through a
Darboux change of generators.

ord_{H^dagger} is the divisorial valuation at the hyperplane at infinity of
the inverse Frobenius pullback; on central polynomials it equals -p times
the total x-degree (u^p cuts out H and x_1 = u^{-p} on the boundary chart).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .commpoly import CommPoly, Packing, mul_sub
from .errors import IncompleteSearchError, InternalInconsistencyError, TooLargeError
from .presentations import NCPoly
from .weylalg import (
    WeylAlgebra,
    center_coordinates,
    darboux_basis,
    pbw_monomials,
    standard_h,
    weyl_presentation,
)

INF = math.inf
NORM_BUDGET = 10_000_000  # term products (mul_sub and Packing.divide) of one determinant
SECTIONS_BUDGET = 1 << 16  # monomials of degree <= k that one sections call lists


def left_mult_matrix(s: NCPoly, A: WeylAlgebra) -> list[list[CommPoly]]:
    """Matrix of left multiplication by s on the basis {gamma^a, 0<=a_i<p},
    with entries in the center written in the x-coordinates.  Zero entries
    share one instance.

    This p^{2n} x p^{2n} matrix is the definition of the norm,
    det(L_s) = N(s)^{p^n}, and the tests use it as the oracle for
    ``reduced_norm``, which never builds it.  It stays here because the
    benchmark's tracer wraps it by name."""
    p = A.p
    nv = A.ngens
    basis = pbw_monomials(nv, p)
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

    The work is charged against NORM_BUDGET once per row update: |a| |b| +
    |c| |d| term products for each a*b - c*d and |den| |q| for each quotient
    q.  Past the budget it raises TooLargeError naming the column reached.
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
    spent = 0

    def charge(products, k):
        nonlocal spent
        spent += products
        if spent > NORM_BUDGET:
            raise TooLargeError(
                f"determinant: budget of NORM_BUDGET = {NORM_BUDGET} term products "
                f"exceeded at column {k} of a {size} x {size} matrix"
            )

    def current(i, k):
        if dens[i] == prev:
            return rows[i]
        row = {j: pk.divide(mul_sub(prev, e, None, None, p), dens[i], p)
               for j, e in rows[i].items()}
        charge(len(prev) * _terms(rows[i]) + len(dens[i]) * _terms(row), k)
        return row

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
        top = current(k, k)
        a = top[k]
        rest = _terms(top) - len(a)  # the terms of top beyond column k
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
            charge(len(a) * _terms(row) + len(c) * rest + len(dens[i]) * _terms(new), k)
            rows[i], dens[i] = new, a
        prev = a
    det = current(size - 1, size - 1).get(size - 1, {})
    return pk.unpack({m: sign * c for m, c in det.items()}, p, fam)


def _terms(row: dict) -> int:
    return sum(map(len, row.values()))


def reduced_norm(s: NCPoly, A: WeylAlgebra) -> CommPoly:
    """N(s) = det_C(R_s), the norm of the splitting C = Z[gamma_1, gamma_3, ..].

    For an h other than ``standard_h`` the Darboux basis g'_j = sum_i B_ji g_i
    of h (``darboux_basis``) satisfies the standard relations, so s maps into
    the standard algebra by g_i -> sum_j (B^-1)_ij gamma_j, and the norm there,
    in x'_j = gamma_j^p, comes back through x'_j = (sum_i B_ji g_i)^p, a
    central element of A (with a constant at p = 2).
    """
    if A.h == standard_h(A.p, A.n):
        return _split_norm(s, A)
    std, images, coords = _darboux_change(A)
    P = std.presentation
    t = NCPoly(_evaluate(s, images, P.one(), P.multiply), A.p)
    norm = _split_norm(t, std)
    one = CommPoly.const(1, A.p, A.ngens)
    return CommPoly(_evaluate(norm, coords, one, CommPoly.__mul__), A.p, A.ngens)


def _evaluate(f, images, one, mul) -> dict:
    """The terms of f with its variable i replaced by images[i]: the sum of
    c_m prod_i images[i]^(m_i), with the factors multiplied by mul in index
    order and each power formed once."""
    powers = {}

    def power(i, e):
        if (i, e) not in powers:
            powers[i, e] = images[i] if e == 1 else mul(power(i, e - 1), images[i])
        return powers[i, e]

    out: dict[tuple[int, ...], int] = {}
    for m, c in f.terms.items():
        term = one
        for i, e in enumerate(m):
            if e:
                term = mul(term, power(i, e))
        for mm, cc in term.terms.items():
            out[mm] = out.get(mm, 0) + c * cc
    return out


def _darboux_change(A: WeylAlgebra):
    """The standard algebra, the images of g_i in it, and x'_j in the
    x-coordinates of A.  B^-1 = h B^T J^T, since B h B^T = J and J J^T = 1."""
    p, nv = A.p, A.ngens
    h, J = A.h, standard_h(p, A.n)
    B = darboux_basis(h, p)
    hBt = [[sum(h[i][k] * B[j][k] for k in range(nv)) for j in range(nv)] for i in range(nv)]
    inv = [[sum(hBt[i][k] * J[j][k] for k in range(nv)) % p for j in range(nv)] for i in range(nv)]
    std = weyl_presentation(p, A.n)
    unit = [tuple(int(i == j) for j in range(nv)) for i in range(nv)]
    images = [NCPoly({unit[j]: inv[i][j] for j in range(nv)}, p) for i in range(nv)]
    P = A.presentation
    coords = []
    for row in B:
        g = NCPoly({unit[i]: row[i] for i in range(nv)}, p)
        q = g
        for _ in range(p - 1):
            q = P.multiply(q, g)
        coords.append(center_coordinates(q, A))
    return std, images, coords


def _split_norm(s: NCPoly, A: WeylAlgebra) -> CommPoly:
    """det_C(R_s) for the standard h.  Column b is e_b s: its term g^m is
    g1^m1 x2^(m2 // p) g3^m3 x4^(m4 // p) .. e_(m2 % p, m4 % p, ..), since
    (g1, g2) commutes with (g3, g4).  The determinant lies in Z, so every
    g1, g3 exponent is a multiple of p and divides into an x1, x3 exponent."""
    p, nv = A.p, A.ngens
    P = A.presentation
    size = p**A.n
    cells: dict[tuple[int, int], dict] = {}
    for col, b in enumerate(itertools.product(range(p), repeat=A.n)):
        e_b = NCPoly({tuple(e for bi in b for e in (0, bi)): 1}, p)
        for m, c in P.multiply(e_b, s).terms.items():
            row = 0
            for e in m[1::2]:
                row = row * p + e % p
            key = tuple(e if i % 2 == 0 else e // p for i, e in enumerate(m))
            cells.setdefault((row, col), {})[key] = c
    zero = CommPoly.zero(p, nv)
    M = [[zero] * size for _ in range(size)]
    for (row, col), terms in cells.items():
        M[row][col] = CommPoly(terms, p, nv)
    out = {}
    for m, c in det_poly(M).terms.items():
        if any(e % p for e in m[::2]):
            raise InternalInconsistencyError(
                f"det_C(R_s) is not central: term {m} has a g1, g3 exponent not divisible by p"
            )
        out[tuple(e // p if i % 2 == 0 else e for i, e in enumerate(m))] = c
    return CommPoly(out, p, nv)


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
    IncompleteSearchError, and more than SECTIONS_BUDGET monomials,
    C(k + 2n, 2n), raise TooLargeError before any is listed.
    """
    if degree_bound < k:
        raise IncompleteSearchError(
            f"degree_bound {degree_bound} cannot certify completeness for k={k}"
        )
    count = math.comb(k + A.ngens, A.ngens) if k >= 0 else 0
    if count > SECTIONS_BUDGET:
        raise TooLargeError(
            f"sections: C(k + 2n, 2n) = C({k + A.ngens}, {A.ngens}) = {count} monomials "
            f"exceed the budget SECTIONS_BUDGET = {SECTIONS_BUDGET}"
        )
    return [NCPoly({m: 1}, A.p) for d in range(k + 1) for m in _compositions(d, A.ngens)]


def _compositions(d: int, parts: int):
    """Exponent vectors of `parts` entries summing to d, in lex order."""
    if parts == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _compositions(d - first, parts - 1):
            yield (first,) + rest
