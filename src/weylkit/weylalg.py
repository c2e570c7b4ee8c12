"""Weyl algebras A_n(F_p), their boundary chart at infinity, and the center.

Generators gamma_1 .. gamma_2n satisfy [gamma_i, gamma_j] = h_ij with h a
skew-symmetric nondegenerate matrix over F_p.  The center is the polynomial
ring on gamma_i^p, giving linear coordinates x_i <-> gamma_i^p used throughout
the norm machinery.

Sign convention: ``standard_h`` pairs (gamma_{2k-1}, gamma_{2k}) with
h_{2k-1,2k} = +1.  The chart relations ([v,u] = u^3 etc.) hold verbatim in
the localization for the *opposite* orientation -h; ``chart_embedding_check``
verifies both orientations and reports which one succeeds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .commpoly import CommPoly
from .errors import InvalidFormError, UnsupportedError
from .presentations import NCPoly, Presentation

SUPPORTED_P = (2, 3, 5, 7)
SUPPORTED_N = (1, 2)


def standard_h(p: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Block-diagonal symplectic matrix with h_{2k-1,2k} = 1."""
    size = 2 * n
    h = [[0] * size for _ in range(size)]
    for k in range(n):
        h[2 * k][2 * k + 1] = 1
        h[2 * k + 1][2 * k] = (-1) % p
    return tuple(tuple(r) for r in h)


def validate_symplectic(h, p: int) -> tuple[tuple[int, ...], ...]:
    h = tuple(tuple(v % p for v in row) for row in h)
    size = len(h)
    if any(len(row) != size for row in h):
        raise InvalidFormError("h must be square")
    for i in range(size):
        if h[i][i] % p:
            raise InvalidFormError("h must have zero diagonal")
        for j in range(size):
            if (h[i][j] + h[j][i]) % p:
                raise InvalidFormError("h must be skew-symmetric")
    darboux_basis(h, p)  # raises when h is degenerate
    return h


def darboux_basis(h, p: int) -> tuple[tuple[int, ...], ...]:
    """Rows B_j of a symplectic basis g'_j = sum_i B_ji g_i of the form h:
    B h B^T = standard_h, by symplectic Gram-Schmidt over F_p.

    With omega(u, v) = u h v^T, each step takes the first remaining vector
    e and a remaining f with omega(e, f) != 0, scaled to omega(e, f) = 1,
    and moves every other remaining w to w - omega(w, f) e + omega(w, e) f,
    which is omega-orthogonal to both.  When no such f exists, e is
    orthogonal to everything and h is degenerate.  For ``standard_h`` no
    vector moves and B is the identity.
    """
    size = len(h)

    def omega(u, v):
        return sum(u[i] * h[i][j] * v[j] for i in range(size) for j in range(size)) % p

    rest = [tuple(int(i == j) for j in range(size)) for i in range(size)]
    rows = []
    while rest:
        e = rest.pop(0)
        k = next((k for k, f in enumerate(rest) if omega(e, f)), None)
        if k is None:
            raise InvalidFormError("h is degenerate")
        f = rest.pop(k)
        inv = pow(omega(e, f), -1, p)
        f = tuple(v * inv % p for v in f)
        rest = [tuple((w_i - omega(w, f) * e_i + omega(w, e) * f_i) % p
                      for w_i, e_i, f_i in zip(w, e, f)) for w in rest]
        rows += [e, f]
    return tuple(rows)


def _validated_h(p: int, n: int, h) -> tuple[tuple[int, ...], ...]:
    """Check (p, n) and return h validated as a 2n x 2n symplectic form,
    standard_h(p, n) when h is None."""
    if p not in SUPPORTED_P:
        raise UnsupportedError(f"p must be one of {SUPPORTED_P}")
    if n not in SUPPORTED_N:
        raise UnsupportedError(f"n must be one of {SUPPORTED_N}")
    h = standard_h(p, n) if h is None else validate_symplectic(h, p)
    if len(h) != 2 * n:
        raise InvalidFormError("h size must be 2n")
    return h


@dataclass(frozen=True)
class WeylAlgebra:
    p: int
    n: int
    h: tuple[tuple[int, ...], ...]
    presentation: Presentation = field(compare=False)

    @property
    def ngens(self) -> int:
        return 2 * self.n


def weyl_presentation(p: int, n: int, h=None) -> WeylAlgebra:
    """Weyl algebra on gamma_1..gamma_2n with [gamma_i, gamma_j] = h_ij."""
    h = _validated_h(p, n, h)
    names = tuple(f"g{i + 1}" for i in range(2 * n))
    relations = {}
    zero_mono = (0,) * (2 * n)
    for j in range(2 * n):
        for i in range(j):
            c = h[j][i] % p  # c_ji = [g_j, g_i] = h_ji
            if c:
                relations[(j, i)] = NCPoly({zero_mono: c}, p)
    # No confluence check here: with scalar commutators both routes of the
    # overlap g_k g_j g_i reduce to g_i g_j g_k + c_ji g_k + c_ki g_j + c_kj g_i
    # for every h (the confluence command and the tests still run the check).
    return WeylAlgebra(p, n, h, Presentation(names, p, relations))


def chart_h_normal_form_check(h, p: int, n: int):
    """The chart proposition assumes h pairs (g1, g2) and leaves g3.. among
    themselves; reject anything else."""
    if abs(h[0][1] % p) == 0 or any(h[0][j] % p or h[1][j] % p for j in range(2, 2 * n)):
        raise InvalidFormError("h is not in the chart normal form")


@dataclass(frozen=True)
class ChartAlgebra:
    p: int
    n: int
    h: tuple[tuple[int, ...], ...]
    presentation: Presentation = field(compare=False)


def boundary_chart_presentation(p: int, n: int, h=None) -> ChartAlgebra:
    """Chart algebra k<u, v, gb3..gb2n> at the hyperplane at infinity.

    Relations: [v,u] = u^3, [u,gb_i] = 0, [v,gb_i] = u^2 gb_i,
    [gb_i,gb_j] = h_ij u^2.  For n = 1 this degenerates to {u, v} with the
    single relation [v,u] = u^3.

    For every h in chart normal form the algebra is the iterated Ore
    extension F_p[u][v; d][gb3; s][gb4; s, d'] with d(u) = u^3,
    s(v) = v - u^2 and d'(gb3) = kappa u^2 (s respects [v, u] = u^3, and d'
    is an s-derivation on gb3 v = (v - u^2) gb3; ``Presentation._chart_table``'s
    Jacobi condition holds with l = 1, m = -1).  So the PBW monomials are a
    basis and the build runs no confluence check; the confluence command and
    the tests do.  It multiplies in closed form (``Presentation._chart_mul``):
    v^b u^a through ad_v(u^z) = z u^(z+2), gb^A v = (v - |A| u^2) gb^A, and
    the gb block by Wick's sum with h_ji u^2 as its commutators.
    """
    h = _validated_h(p, n, h)
    chart_h_normal_form_check(h, p, n)
    ngens = 2 * n
    names = ("u", "v") + tuple(f"gb{i + 1}" for i in range(2, ngens))
    weights = (1, 2) + (1,) * (ngens - 2)

    def mono(**exps) -> tuple[int, ...]:
        m = [0] * ngens
        for nm, e in exps.items():
            m[names.index(nm)] = e
        return tuple(m)

    relations: dict[tuple[int, int], NCPoly] = {}
    # v u = u v + u^3  (c_{v,u} = [v,u] = u^3)
    relations[(1, 0)] = NCPoly({mono(u=3): 1}, p)
    for j in range(2, ngens):
        # [gb_j, u] = 0; [gb_j, v] = -u^2 gb_j
        relations[(j, 1)] = NCPoly({mono(u=2, **{names[j]: 1}): (-1) % p}, p)
        for i in range(2, j):
            c = h[j][i] % p
            if c:
                relations[(j, i)] = NCPoly({mono(u=2): c}, p)
    P = Presentation(names, p, relations, weights=weights)
    return ChartAlgebra(p, n, h, P)


def localized_weyl(p: int, n: int, h=None) -> Presentation:
    """Weyl presentation with gamma_1 marked invertible (A[gamma_1^{-1}])."""
    A = weyl_presentation(p, n, h)
    P = A.presentation
    return Presentation(P.names, p, dict(P.relations), weights=P.weights, invertible=0)


@dataclass
class ChartCheckReport:
    passed: bool
    orientation: int | None  # sign e such that e*h satisfies the chart relations
    details: dict[int, list[tuple[str, bool]]]


def _chart_relations_hold(P: Presentation, h, p: int, n: int) -> list[tuple[str, bool]]:
    """Verify the chart relations for u=g1^-1, v=-g2 g1^-1, gb_i=g_i g1^-1."""
    ngens = 2 * n
    u = P.gen(0, -1)
    v = P.multiply(P.gen(1), P.gen(0, -1)).scale(-1)
    gb = {i: P.multiply(P.gen(i), P.gen(0, -1)) for i in range(2, ngens)}
    u2 = P.multiply(u, u)
    u3 = P.multiply(u2, u)
    out = [("[v,u]=u^3", P.commutator(v, u) == u3)]
    for i in range(2, ngens):
        out.append((f"[u,gb{i + 1}]=0", P.commutator(u, gb[i]).is_zero()))
        out.append(
            (
                f"[v,gb{i + 1}]=u^2*gb{i + 1}",
                P.commutator(v, gb[i]) == P.multiply(u2, gb[i]),
            )
        )
        for j in range(2, i):
            target = u2.scale(h[j][i] % p)  # [gb_j, gb_i] = h_ji u^2
            out.append(
                (f"[gb{j + 1},gb{i + 1}]=h*u^2", P.commutator(gb[j], gb[i]) == target)
            )
    return out


def chart_embedding_check(p: int, n: int, h=None) -> ChartCheckReport:
    """Expand the chart coordinates inside A[gamma_1^{-1}] and test the chart
    relations for both orientations of h, reporting which sign succeeds."""
    h = _validated_h(p, n, h)
    details = {}
    orientation = None
    for sign in (1, -1):
        hs = tuple(tuple((sign * v) % p for v in row) for row in h)
        P = localized_weyl(p, n, hs)
        checks = _chart_relations_hold(P, hs, p, n)
        details[sign] = checks
        if all(ok for _, ok in checks) and orientation is None:
            orientation = sign
    return ChartCheckReport(orientation is not None, orientation, details)


# -- center ------------------------------------------------------------------


def center_membership(s: NCPoly, A: WeylAlgebra) -> bool:
    """True iff every PBW exponent of s is divisible by p: for every
    non-degenerate h the center is F_p[gamma_1^p, .., gamma_2n^p] (Revoy
    1973), spanned by the PBW monomials gamma^(p b)."""
    return all(e % A.p == 0 for m in s.terms for e in m)


def center_coordinates(s: NCPoly, A: WeylAlgebra) -> CommPoly:
    """Express a central element as a polynomial in x_i = gamma_i^p: the PBW
    term gamma^(p b) is the monomial x^b."""
    if not center_membership(s, A):
        raise InvalidFormError("element is not central")
    terms = {tuple(e // A.p for e in m): c for m, c in s.terms.items()}
    return CommPoly(terms, A.p, A.ngens, family="x")


def pbw_monomials(ngens: int, max_exp: int):
    """All exponent vectors with entries in [0, max_exp)."""
    return [tuple(e) for e in itertools.product(range(max_exp), repeat=ngens)]

