"""Exact Ext computations over finite-dimensional F_p-algebras.

Resolutions are built from free covers on minimal generating sets (lifted
from the semisimple top via Nakayama); any projective resolution computes
Ext, so the values below do not depend on minimality.  Grade beyond the
resolution budget is reported as a lower bound, never a value: a finite
computation cannot certify inf(empty) = +infinity except for the zero
module.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidFormError, TooLargeError
from .findim import ENUM_BUDGET, FinDimAlgebra, check_representation
from .linalg_fp import Subspace, nullspace, rank, rref
from .localring import jacobson_radical


class FDModule:
    """A left module given by one action matrix per algebra basis element;
    matrices act on column vectors and compose like the algebra.  A right
    module is a left module over the opposite algebra."""

    def __init__(self, A: FinDimAlgebra, action):
        self.A = A
        self.p = A.p
        self.action = np.array(action, dtype=np.int64) % A.p
        if self.action.ndim != 3 or self.action.shape[0] != A.dim:
            raise InvalidFormError("need one action matrix per basis element")
        self.dim = self.action.shape[1]
        check_representation(
            self.action, A.table, A.unit, A.p,
            "action does not respect the product", "unit does not act as identity",
        )

    def is_zero(self):
        return self.dim == 0

    @classmethod
    def regular(cls, A: FinDimAlgebra) -> "FDModule":
        return cls(A, A.mult_ops("left"))

    @classmethod
    def zero(cls, A: FinDimAlgebra) -> "FDModule":
        return cls(A, np.zeros((A.dim, 0, 0), dtype=np.int64))


def _block_action(A: FinDimAlgebra, r: int, side: str = "left") -> np.ndarray:
    """Left (or right) multiplication by each basis element on A^r, as
    block-diagonal matrices on F_p^{r*d}."""
    d = A.dim
    blocks = np.zeros((d, r, d, r, d), dtype=np.int64)
    blocks[:, range(r), :, range(r), :] = A.mult_ops(side)  # the diagonal blocks
    return blocks.reshape(d, r * d, r * d)


def _cover_map(action: np.ndarray, gens: np.ndarray, p: int) -> np.ndarray:
    """The map A^r -> F_p^n sending e_i in copy t to action[i] @ gens[t], as
    an n x (r*d) matrix."""
    images = action @ np.asarray(gens, dtype=np.int64).T % p  # d x n x r
    return images.transpose(1, 2, 0).reshape(action.shape[1], -1)


def _restricted_action(action: np.ndarray, basis: np.ndarray, p: int) -> np.ndarray:
    """The matrices of action on the span of the independent rows of basis,
    in the coordinates of those rows."""
    k, n = basis.shape
    echelon, pivots = rref(np.hstack([basis, np.eye(k, dtype=np.int64)]), p)
    R, T = echelon[:, :n], echelon[:, n:]  # R = T @ basis is its RREF
    images = action @ basis.T % p  # column b of images[i] is action[i] @ basis[b]
    coords = images[:, pivots, :]  # coordinates against the rows of R
    if np.any((images - R.T @ coords) % p):
        raise InvalidFormError("the action does not preserve the span")
    return T.T @ coords % p


@functools.lru_cache
def _candidate_pool(p: int, dim: int) -> np.ndarray:
    """The generator candidates in F_p^dim, as read-only rows: the all-ones
    vector, the coordinate vectors and 16 random vectors seeded by 0."""
    rng = random.Random(0)
    randoms = [[rng.randrange(p) for _ in range(dim)] for _ in range(16)]
    pool = np.vstack([np.ones(dim), np.eye(dim), randoms]).astype(np.int64)
    pool.flags.writeable = False
    return pool


def _minimal_generators(M: FDModule, rad: Subspace) -> list[np.ndarray]:
    """Greedy generating set: add vectors outside N + rad*M until N = M.

    Each step picks the first candidate whose cyclic closure covers the most
    of M (coordinate vectors alone can miss e.g. the unit of a regular
    module, so the pool also holds the all-ones vector and a few seeded
    random ones; it is built once per (p, dim M), and the generators are
    copies of its rows).  N + A*v has dimension at most min(dim M, dim N + dim A),
    so the scan stops at the first closure that reaches that bound: no
    later candidate can exceed it, and only a strictly larger closure
    displaces the best, so the choice is the one the full scan makes.
    """
    p = M.p
    # rad*M is spanned by the columns of the actions of the radical's basis
    cols = np.einsum("ri,iab->rba", rad.basis, M.action).reshape(-1, M.dim)
    radM = Subspace(cols, M.dim, p)
    candidates = _candidate_pool(p, M.dim)
    # images[c] spans A*v for the candidate v = candidates[c]
    images = np.einsum("iab,cb->cia", M.action, candidates) % p
    gens: list[np.ndarray] = []
    N = Subspace([], M.dim, p)
    while True:
        cover = N.add(radM)
        if cover.dim == M.dim:
            return gens
        bound = min(M.dim, N.dim + M.A.dim)
        best = best_closure = None
        for c in np.flatnonzero(np.any(cover._residues(candidates), axis=1)):
            # N is a submodule, so N + A*v is the submodule that N and v generate
            closure = N.extend(images[c])
            if best is None or closure.dim > best_closure.dim:
                best, best_closure = candidates[c], closure
                if closure.dim == bound:
                    break
        gens.append(best.copy())
        N = best_closure


@dataclass
class Resolution:
    """... -> A^{r2} -> A^{r1} -> A^{r0} -> M -> 0 (free covers)."""

    A: FinDimAlgebra
    M: FDModule
    ranks: list[int]
    eps: np.ndarray  # dim M x (r0 * d)
    diffs: list[np.ndarray] = field(default_factory=list)
    # diffs[i] is the F_p matrix of P_{i+1} -> P_i  ((r_i d) x (r_{i+1} d));
    # generators[i] holds the chosen kernel generators as rows in F_p^{r_i d}
    generators: list[np.ndarray] = field(default_factory=list)

    def check(self) -> bool:
        """d^2 = 0 and exactness at every computed stage, by rank counts."""
        p = self.A.p
        mats = [self.eps] + self.diffs
        ranks = [rank(m.T, p) for m in mats]
        for a, b, rank_a, rank_b in zip(mats, mats[1:], ranks, ranks[1:]):
            if a.size and b.size and np.any(a @ b % p):
                return False
            if a.shape[1] - rank_a != rank_b:  # dim ker a = dim im b
                return False
        return True


def _stages(M: FDModule, A: FinDimAlgebra):
    """Yield M's free resolution on minimal generating sets, one stage at a
    time: the same Resolution grown by one stage before each yield, first
    the cover P_0 -> M alone.  It stops when a kernel vanishes, and runs
    without end otherwise, so callers read only the stages they need.

    A resolution of a finite-dimensional module is often periodic, so each
    kernel module K is keyed by its action matrices.  When the kernel at
    stage i equals the one at an earlier stage j, stage i takes the
    generators found at stage j, and every later stage copies stages
    j + 1, ..., i in turn instead of resolving again.  This is exact:
    _minimal_generators depends only on K.action and the radical, so K gets
    the same generators g.  Stage i's cover map is D_i = ker_i^T D_K, where
    D_K is the cover of K by g in K's own coordinates and the rows of ker_i
    are independent; so nullspace(D_i) = nullspace(D_K) = nullspace(D_j),
    the null space being a canonical RREF.  Hence ker_{i+1} = ker_{j+1} in
    the same free module A^{r_i} = A^{r_j}, and every later stage repeats
    exactly.  Copied stages share their arrays with the stages they repeat.
    """
    p = A.p
    res = Resolution(A, M, [], np.zeros((0, 0), dtype=np.int64))
    if M.is_zero():
        yield res
        return
    rad = jacobson_radical(A)
    gens = _minimal_generators(M, rad)
    res.ranks.append(len(gens))
    res.eps = _cover_map(M.action, gens, p)
    yield res
    seen = {}  # kernel key -> (index in res.generators, generators in K's coordinates)
    repeat = None  # once a kernel recurs, the indices of the stages to copy
    while True:
        if repeat:
            t = next(repeat)
            kg, D = res.generators[t], res.diffs[t]
        else:
            ker = nullspace(res.diffs[-1] if res.diffs else res.eps, p)
            if ker.shape[0] == 0:
                return
            free_act = _block_action(A, res.ranks[-1])
            K = FDModule(A, _restricted_action(free_act, ker, p))
            key = (K.action.shape, K.action.tobytes())
            if key in seen:
                repeat = itertools.cycle(range(seen[key][0] + 1, len(res.generators) + 1))
            else:
                seen[key] = (len(res.generators), np.array(_minimal_generators(K, rad), dtype=np.int64))
            # K's generators live in the coordinates of ker; send them back
            kg = seen[key][1] @ ker % p
            D = _cover_map(free_act, kg, p)
        res.ranks.append(kg.shape[0])
        res.diffs.append(D)
        res.generators.append(kg)
        yield res


def minimal_projective_resolution(M: FDModule, A: FinDimAlgebra, length: int) -> Resolution:
    """Free resolution on minimal generating sets, extended to the requested
    length (it stops early if a kernel vanishes).  The stages come from
    _stages, so a periodic resolution resolves each distinct kernel once
    and copies the stages that repeat."""
    for res in itertools.islice(_stages(M, A), max(length, 0) + 1):
        pass
    return res


def hom_module_dimension(M: FDModule, A: FinDimAlgebra) -> int:
    """dim Hom_A(M, A) by solving the intertwining system directly
    (independent oracle for Ext^0)."""
    p = A.p
    d = A.dim
    m = M.dim
    if m == 0:
        return 0
    # unknown F: d x m with F @ act_M(e_i) = L_{e_i} @ F for all i
    rows = []
    eye = np.eye(d, dtype=np.int64)
    for i in range(d):
        L = A.left_mult(eye[i])
        # vec(F @ R - L @ F) = (R^T (x) I - I (x) L) vec(F)
        R = M.action[i]
        rows.append(np.kron(R.T, eye) - np.kron(np.eye(m, dtype=np.int64), L))
    sys = np.vstack(rows) % p
    return (d * m) - rank(sys, p)


@dataclass
class ExtResult:
    degree: int
    dim: int
    # right-module structure: matrices composing like the opposite algebra,
    # acting on column vectors in the quotient coordinates
    action: np.ndarray
    reps: np.ndarray  # rows: cocycle representatives in F_p^{r_i * d}


def _dual_matrix(A: FinDimAlgebra, gens: np.ndarray, r_prev: int) -> np.ndarray:
    """Hom(P_{i}, A) -> Hom(P_{i+1}, A):  c |-> (sum_j g_{t,j} * c_j)_t, so
    block (t, j) is the left multiplication by g_{t,j}."""
    d = A.dim
    r_next = gens.shape[0]
    g = gens.reshape(r_next, r_prev, d)
    blocks = np.einsum("tji,ikl->tkjl", g, A.mult_ops("left"))
    return blocks.reshape(r_next * d, r_prev * d) % A.p


def ext_groups(M: FDModule, A: FinDimAlgebra, i: int, resolution: Resolution | None = None) -> ExtResult:
    """Ext^i_A(M, A) with its right-module structure, as the cohomology of
    the dualized free resolution."""
    if i < 0:
        raise InvalidFormError(f"Ext^{i} is undefined: i must be >= 0")
    p = A.p
    d = A.dim
    res = resolution or minimal_projective_resolution(M, A, i + 1)
    stop = len(res.generators)  # the last stage P_stop the resolution reaches
    # the cocycles at stage i are ker delta_{i+1}, so stage i + 1 must be
    # there too, unless the kernel at stage stop vanishes (P_{stop+1} = 0)
    if res.ranks and i >= stop and nullspace(res.diffs[-1] if stop else res.eps, p).shape[0]:
        raise InvalidFormError(
            f"Ext^{i} needs the resolution to stage {i + 1}, but it has length {stop} "
            f"and a non-zero kernel at stage {stop}"
        )
    r_i = res.ranks[i] if i < len(res.ranks) else 0
    if r_i == 0:
        return ExtResult(i, 0, np.zeros((d, 0, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64))
    # delta_{i+1}: Hom(P_i, A) -> Hom(P_{i+1}, A)
    if i < stop:
        delta_next = _dual_matrix(A, res.generators[i], r_i)
        ker = nullspace(delta_next, p)
    else:  # the resolution ends at P_i, so every cochain is a cocycle
        ker = np.eye(r_i * d, dtype=np.int64)
    if i == 0:
        img = np.zeros((0, r_i * d), dtype=np.int64)
    else:
        delta_i = _dual_matrix(A, res.generators[i - 1], res.ranks[i - 1])
        img = rref(delta_i.T, p)[0]  # rows spanning the image
    # quotient representatives: the kernel vectors that extend the image,
    # taken in order, are the pivot columns past img of [img; ker]^T (the
    # rows of img are independent, so each of its columns is a pivot)
    n_img = img.shape[0]
    pivots = rref(np.vstack([img, ker]).T, p)[1]
    reps = ker[[c - n_img for c in pivots[n_img:]]]
    q = reps.shape[0]
    action = np.zeros((d, q, q), dtype=np.int64)
    if q:
        # the right action on ker / img, in the coordinates of reps
        span = np.vstack([img, reps])
        blocks = _block_action(A, r_i, "right")
        action = _restricted_action(blocks, span, p)[:, n_img:, n_img:]
    return ExtResult(i, q, action, reps)


@dataclass(frozen=True)
class GradeBound:
    """grade(M) exceeds the probed budget; only a lower bound is certified."""

    exceeds: int

    def __ge__(self, other: int):
        return self.exceeds + 1 >= other

    def __repr__(self):
        return f"> {self.exceeds}"


def grade(M: FDModule, A: FinDimAlgebra, budget: int = 4):
    """j(M) = least i with Ext^i(M, A) != 0; +inf for the zero module,
    GradeBound(budget) when every probed Ext vanishes.  Ext^i needs the
    resolution to stage i + 1, so the stages are read from _stages only up
    to the first non-zero Ext: a module of grade 0 costs one stage."""
    if M.is_zero():
        return math.inf
    stages = _stages(M, A)
    res = next(stages)
    for i in range(budget + 1):
        res = next(stages, res)  # to stage i + 1, unless a kernel vanished
        if ext_groups(M, A, i, res).dim:
            return i
    return GradeBound(budget)


def _cyclic_right_submodules(E: ExtResult, A: FinDimAlgebra):
    """Distinct cyclic submodules of the Ext right module."""
    p = A.p
    q = E.dim
    if p**q > ENUM_BUDGET:
        raise TooLargeError(
            f"cyclic submodule enumeration: p^q = {p}**{q} exceeds the budget {ENUM_BUDGET}"
        )
    seen = {}
    for coeffs in itertools.product(range(p), repeat=q):
        v = np.array(coeffs, dtype=np.int64)
        if not np.any(v):
            continue
        span = Subspace(E.action @ v % p, q, p)  # v*A, which contains v = v*1
        seen[span.key()] = span
    return list(seen.values())


@dataclass
class AuslanderReport:
    passed: bool
    depth: int
    checks: list[tuple[int, int, object, bool]]  # (i, dim N, grade, ok)
    note: str = (
        "cyclic right submodules probed up to the stated depth; "
        "a probe, not a proof"
    )


def auslander_probe(A: FinDimAlgebra, M: FDModule, depth: int = 3) -> AuslanderReport:
    """For each i <= depth and each cyclic right submodule N of Ext^i(M, A),
    check grade(N) >= i over the opposite algebra."""
    res = minimal_projective_resolution(M, A, depth + 1)
    Aop = A.opposite()
    checks = []
    for i in range(depth + 1):
        E = ext_groups(M, A, i, res)
        for N in _cyclic_right_submodules(E, A):
            if i == 0:
                # Ext^0 = ker delta_1 lies in the free right module A^{r_0}
                # (nothing to quotient by), so a coordinate projection is a
                # non-zero map N -> A: grade N = 0
                j = 0
            else:
                # the Ext action restricted to N, over the opposite algebra
                Nmod = FDModule(Aop, _restricted_action(E.action, N.basis, A.p))
                j = grade(Nmod, Aop, budget=max(depth, i))
            checks.append((i, N.dim, j, j >= i))
    return AuslanderReport(all(ok for *_, ok in checks), depth, checks)
