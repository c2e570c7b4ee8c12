"""Local-ring taxonomy for finite-dimensional structure-constant algebras.

Classification follows the demi / NAK / quasi hierarchy: one maximal
two-sided ideal; Nakayama's lemma (m = rad); simple Artinian quotient.  For
finite-dimensional algebras the three collapse (every maximal ideal contains
the nilpotent radical), so the classifier returns either "not_demi" or
"quasi".
"""

from __future__ import annotations

import numpy as np

from .errors import TooLargeError, InternalInconsistencyError
from .findim import FinDimAlgebra
from .linalg_fp import Subspace, nullspace


CROSS_CHECK_BUDGET = 1 << 10  # p^d ceiling of the maximal-left-ideal enumeration
FIBER_K_MAX = 6  # powers of the ideal intersection probed by fiber_decomposability


def _trace_functional(A: FinDimAlgebra, b, i: int) -> np.ndarray:
    """g_i(b e_k) for every basis vector e_k, where g_i(a) is
    (Tr(L~_a^{p^i}) mod p^{i+1}) / p^i and L~_a is the left-regular matrix of
    a with entries lifted to [0, p)."""
    p, q = A.p, A.p ** (i + 1)
    prods = (b @ A.table.reshape(A.dim, -1)).reshape(A.dim, A.dim) % p  # row k: b e_k
    base = np.einsum("mi,ijk->mkj", prods, A.table) % p
    # entries stay below q <= p * dim, so int64 products cannot overflow
    power, e = np.broadcast_to(np.eye(A.dim, dtype=np.int64), base.shape), p**i
    while e:
        if e & 1:
            power = power @ base % q
        base, e = base @ base % q, e >> 1
    traces = np.trace(power, axis1=1, axis2=2) % q
    if np.any(traces % p**i):
        raise InternalInconsistencyError(f"trace not divisible by p^{i}")
    return traces // p**i


def jacobson_radical(A: FinDimAlgebra) -> Subspace:
    """rad(A) by Ronyai's trace-functional filtration (Ronyai, JSC 1990;
    Cohen-Ivanyos-Wales, JPAA 1997): starting from I = A, for each i with
    p^i <= dim A keep the a in I with g_i(a e_k) = 0 for every basis vector
    e_k.  Each g_i is linear on the previous I, so each step is one
    nullspace.  Computed once per algebra and stored on it.
    """
    if A._radical is not None:
        return A._radical
    rad = Subspace(np.eye(A.dim, dtype=np.int64), A.dim, A.p)
    i = 0
    while A.p**i <= A.dim and rad.dim:
        G = np.array([_trace_functional(A, b, i) for b in rad.basis])
        rad = Subspace(nullspace(G.T, A.p) @ rad.basis % A.p, A.dim, A.p)
        i += 1
    # Hopkins: rad^d = 0
    if not A.is_nilpotent_subspace(rad):
        raise InternalInconsistencyError("computed radical is not nilpotent")
    A._radical = rad
    return rad


def maximal_left_ideals_brute(A: FinDimAlgebra) -> list[Subspace]:
    """All maximal left ideals by enumerating left submodules of A; feasible
    only for tiny algebras (p^d <= CROSS_CHECK_BUDGET)."""
    if A.p**A.dim > CROSS_CHECK_BUDGET:
        raise TooLargeError("left-ideal enumeration budget exceeded")
    # A x is spanned by the e_i x (the columns of R_x), as A is unital; and
    # A (u x) = A x whenever A u = A, so the u x of the u found so far are skipped
    cyclic, seen, units = {}, set(), [np.eye(A.dim, dtype=np.int64)]
    for x in A.elements():
        if not np.any(x) or x.tobytes() in seen:
            continue
        ideal = Subspace(A.right_mult(x).T, A.dim, A.p)
        cyclic[ideal.key()] = ideal
        if ideal.dim == A.dim:
            units.append(A.left_mult(x))
        seen.update(y.tobytes() for y in np.array(units) @ x % A.p)
    # close under sums; the zero ideal is the one maximal left ideal of a field
    zero = Subspace([], A.dim, A.p)
    ideals = {zero.key(): zero, **cyclic}
    frontier = list(cyclic.values())
    while frontier:
        nxt = []
        for I in frontier:
            for J in cyclic.values():
                s = I.add(J)
                if s.key() not in ideals:
                    ideals[s.key()] = s
                    nxt.append(s)
        frontier = nxt
    proper = [I for I in ideals.values() if I.dim < A.dim]
    return [I for I in proper if not any(J.dim > I.dim and J.contains_space(I) for J in proper)]


def radical_cross_check(A: FinDimAlgebra) -> bool:
    """rad(A) equals the intersection of all maximal left ideals."""
    rad = jacobson_radical(A)
    maxima = maximal_left_ideals_brute(A)
    inter = Subspace(np.eye(A.dim, dtype=np.int64), A.dim, A.p)
    for I in maxima:
        inter = inter.intersect(I)
    return inter == rad


def primitive_central_idempotents(Abar: FinDimAlgebra):
    """The minimal nonzero central idempotents of a semisimple algebra, by
    splitting its center (Ronyai, JSC 1990; Eberly-Giesbrecht, JSC 2000).
    Computed once per algebra and stored on it.

    The center Z is a product of finite fields, and z |-> z^p is F_p-linear
    on it, so B = {z in Z : z^p = z} is one nullspace: the F_p-span of the
    primitive central idempotents e_k.  For b = sum_k c_k e_k in B and c in
    F_p, 1 - (b - c)^(p-1) is the sum of the e_k with c_k = c, so refining
    [1] by these idempotents over a basis of B leaves exactly the e_k.
    """
    if Abar._idempotents is not None:
        return Abar._idempotents
    p, d, unit = Abar.p, Abar.dim, Abar.unit

    def products(X, Y):  # row a: X[a] * Y[a]
        return np.einsum("ai,aj,ijk->ak", X, Y, Abar.table) % p

    commutators = (Abar.mult_ops("left") - Abar.mult_ops("right")).reshape(d, -1)
    center = nullspace(commutators.T, p)  # rows: a basis of Z
    powers = center
    for _ in range(p - 1):
        powers = products(powers, center)
    B = nullspace((powers - center).T, p) @ center % p
    idems = unit[None, :]
    for b in B:
        shifted = (b - np.outer(range(p), unit)) % p  # row c: b - c
        powers = np.tile(unit, (p, 1))
        for _ in range(p - 1):
            powers = products(powers, shifted)
        splits = (unit - powers) % p  # row c: 1 - (b - c)^(p-1)
        refined = np.einsum("ei,cj,ijk->eck", idems, splits, Abar.table).reshape(-1, d) % p
        idems = refined[np.any(refined, axis=1)]
    if len(idems) != len(B):
        raise InternalInconsistencyError(
            f"center splitting found {len(idems)} idempotents, dim B = {len(B)}"
        )
    # a fixed order, lexicographic in the coordinates on Z's nullspace basis:
    # its row k is 1 at the k-th free column and 0 after it, so e has
    # coordinates e[free]
    free = [np.flatnonzero(z)[-1] for z in center]
    Abar._idempotents = sorted(idems, key=lambda e: tuple(e[free]))
    return Abar._idempotents


def semisimple_quotient(A: FinDimAlgebra):
    """(A/rad, projection, lift), computed once per algebra and stored on it
    beside the radical."""
    if A._top is None:
        A._top = A.quotient(jacobson_radical(A))
    return A._top


def maximal_two_sided_ideals(A: FinDimAlgebra) -> list[Subspace]:
    """Preimages of the block complements of the semisimple quotient A/rad."""
    rad = jacobson_radical(A)
    Abar, _, lift = semisimple_quotient(A)
    ideals = []
    for e in primitive_central_idempotents(Abar):
        # (1 - e) Abar, pulled back and summed with rad
        up = Abar.left_mult(Abar.unit - e).T @ lift % A.p
        ideals.append(rad.extend(up))
    return ideals


def classify_local(A: FinDimAlgebra) -> str:
    """Return "quasi" if A has exactly one maximal two-sided ideal, else
    "not_demi".

    The maximal ideals are rad + (1 - e) A for the primitive central
    idempotents e of A/rad.  With only one of them, e = 1 in A/rad, so that
    ideal is rad itself (NAK) and A/rad is simple Artinian (quasi): the
    demi and NAK labels never occur on their own."""
    return "quasi" if len(maximal_two_sided_ideals(A)) == 1 else "not_demi"


def idempotent_ideal_check(I: Subspace, A: FinDimAlgebra) -> bool:
    """True iff I * I = I as subspaces."""
    return A.subspace_product(I, I) == I


def extend_to_algebra_ideal(A: FinDimAlgebra, mR: Subspace) -> Subspace:
    """The ideal m_R A spanned by r*a for r in m_R and a in A."""
    return A.subspace_product(mR, Subspace(np.eye(A.dim, dtype=np.int64), A.dim, A.p))


def adic_comparison(A: FinDimAlgebra, m: Subspace, mR: Subspace):
    """Least k0 with m^{k0} contained in m_R A, or None if the powers
    stabilize without inclusion."""
    J = extend_to_algebra_ideal(A, mR)
    power = m
    for k in range(1, A.dim + 3):
        if J.contains_space(power):
            return k
        nxt = A.subspace_product(power, m)
        if nxt == power:
            return None
        power = nxt
    return None


def ideals_over(A: FinDimAlgebra, R_basis, mR: Subspace) -> list[Subspace]:
    """Maximal two-sided ideals M of A with M cap R = m_R."""
    Rspace = Subspace(R_basis, A.dim, A.p)
    out = []
    for M in maximal_two_sided_ideals(A):
        inter = M.intersect(Rspace)
        if inter == mR:
            out.append(M)
    return out


def fiber_decomposability(A: FinDimAlgebra, R_basis, mR: Subspace):
    """Probe the formally-completely-decomposable-fiber condition
    (stabilized intersection of M_i^N inside (cap M_i)^k) up to FIBER_K_MAX.

    Returns "indecomposable" (a single ideal over m_R), "decomposable", or
    ("fails_at", k).  The finite FIBER_K_MAX makes this a probe, not a proof.
    """
    maxima = ideals_over(A, R_basis, mR)
    if not maxima:
        raise InternalInconsistencyError("no maximal ideal lies over m_R")
    if len(maxima) == 1:
        return "indecomposable"
    # stabilize each M_i^N and intersect
    stabilized = []
    for M in maxima:
        power = M
        while True:
            nxt = A.subspace_product(power, M)
            if nxt == power:
                break
            power = nxt
        stabilized.append(power)
    inter_stab = stabilized[0]
    for S in stabilized[1:]:
        inter_stab = inter_stab.intersect(S)
    D = maxima[0]
    for M in maxima[1:]:
        D = D.intersect(M)
    Dk = D
    for k in range(1, FIBER_K_MAX + 1):
        if k > 1:
            Dk = A.subspace_product(Dk, D)
        if not Dk.contains_space(inter_stab):
            return ("fails_at", k)
    return "decomposable"
