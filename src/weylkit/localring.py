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
from . import findim
from .findim import FinDimAlgebra
from .linalg_fp import Subspace, nonsingular_span, nullspace


CROSS_CHECK_BUDGET = 1 << 10  # p^d ceiling of the unit table of radical_cross_check
WITNESS_BLOCK = 1 << 13  # entries of the products a x held at once by the witness search
FIBER_K_MAX = 6  # powers of the ideal intersection probed by fiber_decomposability


def _trace_functionals(A: FinDimAlgebra, basis: np.ndarray, i: int) -> np.ndarray:
    """G[b, k] = g_i(b e_k) for each row b of basis and every basis vector
    e_k, where g_i(a) is (Tr(L~_a^{p^i}) mod p^{i+1}) / p^i and L~_a is the
    left-regular matrix of a with entries lifted to [0, p).

    The matrices of all b e_k are raised to the p^i-th power as one stack,
    by square and multiply, in chunks of rows b whose live stacks (the
    matrices, their power and one product) hold at most CHECK_BLOCK array
    elements together, at least one b per chunk."""
    p, q, d = A.p, A.p ** (i + 1), A.dim
    flat = A.table.reshape(d, -1)

    def mulmod(X, Y):  # reduced in place, so that no fourth stack is live
        Z = X @ Y
        Z %= q
        return Z

    def traces(rows):  # row (b, k): Tr(L~_{b e_k}^{p^i}) mod q
        prods = (rows @ flat % p).reshape(-1, d)  # row (b, k): b e_k
        # block (b, k) has rows (b e_k) e_j: the transposed left-regular
        # matrix of b e_k, which has the same trace of every power
        base = (prods @ flat).reshape(-1, d, d)
        base %= p
        # entries stay below q <= p * dim, so int64 products cannot overflow
        power, e = None, p**i
        while e:
            if e & 1:
                power = base if power is None else mulmod(power, base)
            e >>= 1
            if e:
                base = mulmod(base, base)
        return np.trace(power, axis1=1, axis2=2).reshape(-1, d) % q

    step = max(1, findim.CHECK_BLOCK // (3 * d**3))
    G = np.concatenate([traces(basis[s : s + step]) for s in range(0, len(basis), step)])
    if np.any(G % p**i):
        raise InternalInconsistencyError(f"trace not divisible by p^{i}")
    return G // p**i


def jacobson_radical(A: FinDimAlgebra) -> Subspace:
    """rad(A) by Ronyai's trace-functional filtration (Ronyai, JSC 1990;
    Cohen-Ivanyos-Wales, JPAA 1997): starting from I = A, for each i with
    p^i <= dim A keep the a in I with g_i(a e_k) = 0 for every basis vector
    e_k.  Each g_i is linear on the previous I, so each step is one
    nullspace of the functional matrix G of I's basis, built in one stacked
    pass.  Computed once per algebra and stored on it.
    """
    if A._radical is not None:
        return A._radical
    rad = Subspace(np.eye(A.dim, dtype=np.int64), A.dim, A.p)
    i = 0
    while A.p**i <= A.dim and rad.dim:
        G = _trace_functionals(A, rad.basis, i)
        rad = Subspace(nullspace(G.T, A.p) @ rad.basis % A.p, A.dim, A.p)
        i += 1
    # Hopkins: rad^d = 0
    if not A.is_nilpotent_subspace(rad):
        raise InternalInconsistencyError("computed radical is not nilpotent")
    A._radical = rad
    return rad


def _combinations(basis: np.ndarray, p: int, codes: np.ndarray) -> np.ndarray:
    """The elements c @ basis whose coefficient vectors c have the base-p
    codes `codes`, digit k of a code being c_k."""
    return codes[:, None] // p ** np.arange(len(basis)) % p @ basis % p


def radical_cross_check(A: FinDimAlgebra, rad: Subspace | None = None) -> bool:
    """Whether rad (default: jacobson_radical(A)) is the Jacobson radical
    J = {x : 1 - a x is a unit for every a} (Lam, A First Course in
    Noncommutative Rings, Lemma 4.1), using nothing of how rad was computed.

    1. rad <= J: rad is a left ideal and 1 - y is a unit for each y in rad.
    2. J <= rad: each non-zero x in C, the span of the coordinate vectors
       off rad's pivots, has a witness a in C with 1 - a x not a unit, so x
       is not in J; as A = rad + C and rad <= J, J = rad + (J cap C) = rad.
    3. If rad = J, a witness lies in C: for a = c + r with r in J, were
       u = 1 - c x a unit, so would be 1 - a x = u (1 - u^-1 r x).
    So the answer is True exactly when rad = J.  Units (non-singular
    left-regular matrices) come from a table of all p^d elements by base-p
    code, built by linearity from the left-regular matrices of the basis and
    eliminated in one stacked pass (``nonsingular_span``); the a are tried
    WITNESS_BLOCK product entries (or one a) at a time, and x leaves at its
    witness.
    """
    p, d = A.p, A.dim
    if p**d > CROSS_CHECK_BUDGET:
        raise TooLargeError("unit-table budget of the radical cross-check exceeded")
    rad = jacobson_radical(A) if rad is None else rad
    eye, place = np.eye(d, dtype=np.int64), p ** np.arange(d)

    def left(a):  # row [k, j]: a_k e_j, the transposed left-regular matrix of a_k
        return (a @ A.table.reshape(d, -1)).reshape(-1, d, d) % p

    units = nonsingular_span(A.table, p)  # table[i] is left(e_i)
    ys = _combinations(rad.basis, p, np.arange(p**rad.dim))
    if not rad.contains_space(rad.closure(A.mult_ops("left"))) or not units[(A.unit - ys) % p @ place].all():
        return False
    C = _combinations(eye[[c for c in range(d) if c not in rad.pivots]], p, np.arange(p ** (d - rad.dim)))
    xs, start = C[1:], 0
    while len(xs) and start < len(C):
        chunk = max(1, WITNESS_BLOCK // (len(xs) * d))
        xs = xs[units[(A.unit - xs @ left(C[start : start + chunk])) % p @ place].all(axis=0)]
        start += chunk
    return not len(xs)


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


def adic_comparison(A: FinDimAlgebra, m: Subspace, mR: Subspace):
    """Least k0 with m^{k0} contained in m_R A, or None if the powers
    stabilize without inclusion."""
    mRA = mR.closure(A.mult_ops("right"))
    return next((k for k, P in enumerate(A.powers(m), 1) if mRA.contains_space(P)), None)


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
    # M_i^N is the last power of M_i: the powers of an ideal settle
    stabilized = [list(A.powers(M))[-1] for M in maxima]
    inter_stab = stabilized[0]
    for S in stabilized[1:]:
        inter_stab = inter_stab.intersect(S)
    D = maxima[0]
    for M in maxima[1:]:
        D = D.intersect(M)
    # once D fixes D^k, every later power equals it and answers alike
    for k, Dk in zip(range(1, FIBER_K_MAX + 1), A.powers(D)):
        if not Dk.contains_space(inter_stab):
            return ("fails_at", k)
    return "decomposable"
