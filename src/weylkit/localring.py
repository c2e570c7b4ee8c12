"""Local-ring taxonomy for finite-dimensional structure-constant algebras.

Classification follows the demi / NAK / quasi hierarchy: one maximal
two-sided ideal; Nakayama's lemma (m = rad); simple Artinian quotient.  For
finite-dimensional algebras the three collapse (every maximal ideal contains
the nilpotent radical), so the classifier returns either "not_demi" or
"quasi"; the intermediate labels are still computed branch by branch.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import TooLargeError, InternalInconsistencyError
from .findim import ENUM_BUDGET, FinDimAlgebra
from .linalg_fp import Subspace


CROSS_CHECK_BUDGET = 1 << 10  # p^d ceiling of the maximal-left-ideal enumeration


def jacobson_radical(A: FinDimAlgebra) -> Subspace:
    """The largest nilpotent two-sided ideal, as the sum of all nilpotent
    principal ideals (rad itself is nilpotent by Hopkins, so this exhausts it).
    Computed once per algebra and stored on it.
    """
    if A._radical is not None:
        return A._radical
    if A.p**A.dim > ENUM_BUDGET:
        raise TooLargeError("radical enumeration budget exceeded")
    rad = Subspace([], A.dim, A.p)
    for x in A.elements():
        if not np.any(x):
            continue
        if rad.contains(x):
            continue
        if not A.is_nilpotent_element(x):
            continue
        ideal = A.two_sided_ideal([x])
        if A.is_nilpotent_subspace(ideal):
            rad = rad.add(ideal)
    # Hopkins: rad^d = 0
    power = rad
    for _ in range(A.dim):
        power = A.subspace_product(power, rad)
    if not power.is_zero():
        raise InternalInconsistencyError("computed radical is not nilpotent")
    A._radical = rad
    return rad


def maximal_left_ideals_brute(A: FinDimAlgebra) -> list[Subspace]:
    """All maximal left ideals by enumerating left submodules of A; feasible
    only for tiny algebras (p^d <= CROSS_CHECK_BUDGET)."""
    if A.p**A.dim > CROSS_CHECK_BUDGET:
        raise TooLargeError("left-ideal enumeration budget exceeded")
    left = A.mult_ops("left")
    cyclic = {}
    for x in A.elements():
        if not np.any(x):
            continue
        ideal = Subspace([x], A.dim, A.p).closure(left)
        cyclic[ideal.key()] = ideal
    # close under sums
    ideals = dict(cyclic)
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
    maximal = [
        I
        for I in proper
        if not any(J.dim > I.dim and J.contains_space(I) for J in proper)
    ]
    return maximal


def radical_cross_check(A: FinDimAlgebra) -> bool:
    """rad(A) equals the intersection of all maximal left ideals."""
    rad = jacobson_radical(A)
    maxima = maximal_left_ideals_brute(A)
    inter = Subspace(np.eye(A.dim, dtype=np.int64), A.dim, A.p)
    for I in maxima:
        inter = inter.intersect(I)
    return inter == rad


def _central_idempotents(Abar: FinDimAlgebra):
    """All central idempotents of a (semisimple) algebra, by exhausting the
    center."""
    p = Abar.p
    d = Abar.dim
    # constraint matrix: z central <=> z e_j - e_j z = 0 for every basis e_j
    cons = []
    for j in range(d):
        # (z e_j)_k = sum_i z_i table[i, j, k]; (e_j z)_k = sum_i z_i table[j, i, k]
        block = (Abar.table[:, j, :] - Abar.table[j, :, :]) % p  # i x k
        cons.append(block.T)  # k x i
    M = np.vstack(cons) % p
    from .linalg_fp import nullspace

    center = nullspace(M, p)  # rows: central elements basis
    cdim = center.shape[0]
    if p**cdim > ENUM_BUDGET:
        raise TooLargeError("center enumeration budget exceeded")
    idems = []
    for coeffs in itertools.product(range(p), repeat=cdim):
        z = (np.array(coeffs, dtype=np.int64) @ center) % p
        if not np.any(z):
            continue
        if np.all(Abar.mul(z, z) == z % p):
            idems.append(z % p)
    return idems


def primitive_central_idempotents(Abar: FinDimAlgebra):
    idems = _central_idempotents(Abar)

    def leq(e, f):
        return np.all(Abar.mul(e, f) == e) and np.all(Abar.mul(f, e) == e)

    prims = []
    for e in idems:
        strictly_below = [f for f in idems if leq(f, e) and not np.all(f == e)]
        if not strictly_below:
            prims.append(e)
    return prims


def maximal_two_sided_ideals(A: FinDimAlgebra) -> list[Subspace]:
    """Preimages of the block complements of the semisimple quotient A/rad."""
    rad = jacobson_radical(A)
    Abar, proj, lift = A.quotient(rad)
    prims = primitive_central_idempotents(Abar)
    ideals = []
    for e in prims:
        # (1 - e) Abar, pulled back and summed with rad
        one_minus = (Abar.unit - e) % A.p
        vecs = [Abar.mul(one_minus, v) for v in np.eye(Abar.dim, dtype=np.int64)]
        up = [(np.array(v) @ lift) % A.p for v in vecs]
        ideals.append(Subspace(list(rad.basis) + up, A.dim, A.p))
    return ideals


def classify_local(A: FinDimAlgebra) -> str:
    """Return one of not_demi / demi / NAK / quasi."""
    maxima = maximal_two_sided_ideals(A)
    if len(maxima) != 1:
        return "not_demi"
    m = maxima[0]
    rad = jacobson_radical(A)
    if m != rad:
        return "demi"
    Abar, _, _ = A.quotient(rad)
    blocks = primitive_central_idempotents(Abar)
    if len(blocks) != 1:
        return "NAK"
    return "quasi"


def idempotent_ideal_check(I: Subspace, A: FinDimAlgebra) -> bool:
    """True iff I * I = I as subspaces."""
    return A.subspace_product(I, I) == I


def extend_to_algebra_ideal(A: FinDimAlgebra, R_basis, mR: Subspace) -> Subspace:
    """The ideal m_R A spanned by r*a for r in m_R and a in A."""
    vecs = []
    for r in mR.basis:
        for j in range(A.dim):
            vecs.append(A.mul(r, np.eye(A.dim, dtype=np.int64)[j]))
    return Subspace(vecs, A.dim, A.p)


def adic_comparison(A: FinDimAlgebra, m: Subspace, R_basis, mR: Subspace):
    """Least k0 with m^{k0} contained in m_R A, or None if the powers
    stabilize without inclusion."""
    J = extend_to_algebra_ideal(A, R_basis, mR)
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


def fiber_decomposability(
    A: FinDimAlgebra, R_basis, mR: Subspace, k_max: int = 6
):
    """Probe the formally-completely-decomposable-fiber condition
    (stabilized intersection of M_i^N inside (cap M_i)^k) up to k_max.

    Returns "indecomposable" (a single ideal over m_R), "decomposable", or
    ("fails_at", k).  Finite k_max makes this a probe, not a proof.
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
    for k in range(1, k_max + 1):
        if k > 1:
            Dk = A.subspace_product(Dk, D)
        if not Dk.contains_space(inter_stab):
            return ("fails_at", k)
    return "decomposable"
