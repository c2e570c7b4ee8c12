"""Resolutions, Ext, grade, and Auslander-condition probes."""

import math
import random
import tracemalloc

import numpy as np
import pytest

import weylkit.homology
import weylkit.linalg_fp
from weylkit.cli import findim_preset, module_preset
from weylkit.errors import InvalidFormError
from weylkit.findim import (
    ENUM_BUDGET,
    cyclic_group_algebra,
    full_matrix_algebra,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from weylkit.homology import (
    FDModule,
    GradeBound,
    Resolution,
    _block_action,
    _candidate_pool,
    _cover_map,
    _cyclic_right_submodules,
    _dual_matrix,
    _minimal_generators,
    _restricted_action,
    auslander_probe,
    ext_groups,
    grade,
    hom_module_dimension,
    minimal_projective_resolution,
)
from weylkit.linalg_fp import Subspace, nullspace, rref
from weylkit.localring import jacobson_radical


def trivial_module(A):
    """F_p with the unit acting as 1 and the radical acting as 0 (for the
    local algebras in the zoo whose quotient by the radical is F_p)."""
    from weylkit.localring import jacobson_radical

    rad = jacobson_radical(A)
    Abar, proj, lift = A.quotient(rad)
    assert Abar.dim == 1
    mats = [
        proj @ A.left_mult(e) @ lift.T % A.p for e in np.eye(A.dim, dtype=np.int64)
    ]
    return FDModule(A, mats)


def matrix_simple():
    A = full_matrix_algebra(2, 2)
    act = []
    for r in range(2):
        for c in range(2):
            m = np.zeros((2, 2), dtype=np.int64)
            m[r, c] = 1
            act.append(m)
    return A, FDModule(A, act)


def t2_simples():
    A = upper_triangular_algebra(2, 2)
    S1 = FDModule(A, [[[1]], [[0]], [[0]]])  # a_11 acts
    S2 = FDModule(A, [[[0]], [[0]], [[1]]])  # a_22 acts
    return A, S1, S2


def direct_sum(A, M, N):
    mats = []
    for i in range(A.dim):
        top = np.hstack([M.action[i], np.zeros((M.dim, N.dim), dtype=np.int64)])
        bot = np.hstack([np.zeros((N.dim, M.dim), dtype=np.int64), N.action[i]])
        mats.append(np.vstack([top, bot]))
    return FDModule(A, mats)


# -- FDModule validation ------------------------------------------------------


def test_module_validation():
    A = truncated_polynomial_algebra(2, 2)
    FDModule(A, [[[1]], [[0]]])  # valid
    with pytest.raises(InvalidFormError):
        FDModule(A, [[[1]], [[1]]])  # x acting as 1 breaks x^2 = 0
    with pytest.raises(InvalidFormError):
        FDModule(A, [[[0]], [[0]]])  # unit must act as identity


def test_representation_checks_fit_in_32_mib():
    """The exact product-law check runs in blocks over the basis, so M_7(F_2)
    (d = 49) and its regular module validate without a d^4 array."""
    tracemalloc.start()
    try:
        A = full_matrix_algebra(7, 2)
        algebra_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        FDModule.regular(A)
        module_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert algebra_peak < 32 * 2**20
    assert module_peak < 32 * 2**20


# -- resolutions --------------------------------------------------------------


def test_resolution_of_projective_has_length_zero():
    for A in (
        upper_triangular_algebra(2, 2),
        full_matrix_algebra(2, 2),
        truncated_polynomial_algebra(2, 3),
        cyclic_group_algebra(2, 4),
    ):
        res = minimal_projective_resolution(FDModule.regular(A), A, 4)
        assert res.ranks == [1]
        assert not res.diffs
        assert res.check()


def test_resolution_zero_module_empty():
    A = truncated_polynomial_algebra(2, 2)
    res = minimal_projective_resolution(FDModule.zero(A), A, 3)
    assert res.ranks == [] and not res.diffs


def test_resolution_poly2_period_one():
    # ... ->x A ->x A -> F_2 -> 0
    A = truncated_polynomial_algebra(2, 2)
    M = trivial_module(A)
    res = minimal_projective_resolution(M, A, 4)
    assert res.ranks == [1, 1, 1, 1, 1]
    assert res.check()
    # every differential is multiplication by x
    x = np.eye(2, dtype=np.int64)[1]
    for gens in res.generators:
        assert np.array_equal(gens, x.reshape(1, 2))


def test_resolution_feeds_rref_only_residues(monkeypatch):
    # T3 at p = 2, top module, to length 5: row-reducing all of [N; A*v] for every
    # candidate fed rref 680 rows; extending N by residues, with the scan
    # stopped at its bound, feeds 163 (the radical is stored on A beforehand)
    A = findim_preset("T3", 2)
    M = module_preset("top", A)
    rows = []
    rref_ = weylkit.linalg_fp.rref

    def counting(mat, p):
        rows.append(np.shape(mat)[0])
        return rref_(mat, p)

    for module in (weylkit.linalg_fp, weylkit.homology):
        monkeypatch.setattr(module, "rref", counting)
    res = minimal_projective_resolution(M, A, 5)
    assert res.ranks == [1] * 6 and res.check()
    assert sum(rows) <= 340


def test_resolution_exactness_zoo():
    A, S1, S2 = t2_simples()
    for M in (S1, S2, direct_sum(A, S1, S2)):
        assert minimal_projective_resolution(M, A, 4).check()
    B, S = matrix_simple()
    assert minimal_projective_resolution(S, B, 3).check()


# -- Ext ----------------------------------------------------------------------


def test_ext_vanishes_over_semisimple():
    A, S = matrix_simple()
    for i in (1, 2, 3):
        assert ext_groups(S, A, i).dim == 0


def test_ext0_regular_is_whole_algebra():
    for A in (
        truncated_polynomial_algebra(2, 2),
        upper_triangular_algebra(2, 2),
        full_matrix_algebra(2, 2),
    ):
        M = FDModule.regular(A)
        assert ext_groups(M, A, 0).dim == A.dim


def test_ext0_poly2_socle():
    A = truncated_polynomial_algebra(2, 2)
    M = trivial_module(A)
    E = ext_groups(M, A, 0)
    assert E.dim == 1
    # the cocycle representative is a map A -> A landing in the socle (x)
    assert np.array_equal(E.reps, np.array([[0, 1]]))


def test_ext0_matches_hom_oracle():
    A, S1, S2 = t2_simples()
    B, S = matrix_simple()
    C = truncated_polynomial_algebra(2, 3)
    cases = [
        (A, S1),
        (A, S2),
        (A, direct_sum(A, S1, S2)),
        (A, FDModule.regular(A)),
        (B, S),
        (C, trivial_module(C)),
    ]
    for alg, mod in cases:
        assert ext_groups(mod, alg, 0).dim == hom_module_dimension(mod, alg)


def test_ext_rejects_a_negative_degree():
    A, S1, _ = t2_simples()
    with pytest.raises(InvalidFormError, match="Ext\\^-1 is undefined"):
        ext_groups(S1, A, -1)


def test_ext_rejects_a_resolution_short_of_stage_i():
    # S2 over T2 has Ext^1 = 1; a length-0 resolution stops at P_0 with a
    # non-zero kernel, and once read Ext^1 = 0
    A, S1, S2 = t2_simples()
    for i in (1, 2):
        with pytest.raises(InvalidFormError, match=f"Ext\\^{i} .* length 0"):
            ext_groups(S2, A, i, minimal_projective_resolution(S2, A, 0))
    assert ext_groups(S2, A, 1, minimal_projective_resolution(S2, A, 2)).dim == 1
    # poly:2 at p = 2 with its top module: a length-1 resolution gives Ext^0
    B = findim_preset("poly:2", 2)
    M = module_preset("top", B)
    assert ext_groups(M, B, 0, minimal_projective_resolution(M, B, 1)).dim == 1
    # and a length-0 one, which once read all of Hom(P_0, A): dim Ext^0 = 2
    with pytest.raises(InvalidFormError, match="Ext\\^0 .* length 0"):
        ext_groups(M, B, 0, minimal_projective_resolution(M, B, 0))
    # a resolution that stops because its kernel vanished is complete
    R = FDModule.regular(B)
    assert [ext_groups(R, B, i, minimal_projective_resolution(R, B, 0)).dim
            for i in range(3)] == [B.dim, 0, 0]


def test_ext_t2_simples_derived_values():
    A, S1, S2 = t2_simples()
    assert [ext_groups(S1, A, i).dim for i in range(4)] == [2, 0, 0, 0]
    assert [ext_groups(S2, A, i).dim for i in range(4)] == [0, 1, 0, 0]


def test_self_injective_group_algebras():
    # group algebras of cyclic p-groups: injective dimension 0,
    # so Ext^i(M, A) = 0 for all i >= 1
    for p, order in ((2, 2), (2, 4), (3, 3)):
        A = cyclic_group_algebra(p, order)
        modules = [trivial_module(A), FDModule.regular(A)]
        if order == 4:
            g = np.array([[1, 1], [0, 1]], dtype=np.int64)
            acts = [np.linalg.matrix_power(g, k) % 2 for k in range(4)]
            modules.append(FDModule(A, acts))
        for M in modules:
            for i in (1, 2, 3):
                assert ext_groups(M, A, i).dim == 0


# -- grade --------------------------------------------------------------------


def test_grade_zero_module_infinite():
    A = truncated_polynomial_algebra(2, 2)
    assert grade(FDModule.zero(A), A) == math.inf


def test_grade_semisimple_zero():
    A, S = matrix_simple()
    assert grade(S, A) == 0


def test_grade_poly2_trivial_zero():
    A = truncated_polynomial_algebra(2, 2)
    assert grade(trivial_module(A), A) == 0


def test_grade_t2_values():
    A, S1, S2 = t2_simples()
    assert grade(S1, A) == 0
    assert grade(S2, A) == 1


def test_grade_direct_sum_is_min():
    A, S1, S2 = t2_simples()
    assert grade(direct_sum(A, S1, S2), A) == min(grade(S1, A), grade(S2, A))
    assert grade(direct_sum(A, S2, S2), A) == grade(S2, A)


def test_grade_budget_reports_lower_bound():
    # a module with all probed Ext zero in degrees 0..budget: the zero part
    # is exact; force it with a projective module and budget over a module
    # whose Ext vanish: use S over M_2 at budget 2 shifted scenario instead
    A, S = matrix_simple()
    j = grade(S, A, budget=2)
    assert j == 0  # semisimple: never a bound
    b = GradeBound(3)
    assert repr(b) == "> 3" and (b >= 2) and (b >= 4)


# -- auslander probe ----------------------------------------------------------


def test_auslander_semisimple_vacuous():
    A, S = matrix_simple()
    rep = auslander_probe(A, S, 2)
    assert rep.passed
    assert all(i == 0 for i, _, _, _ in rep.checks)


def test_auslander_poly2_passes():
    A = truncated_polynomial_algebra(2, 2)
    rep = auslander_probe(A, trivial_module(A), 3)
    assert rep.passed


def test_auslander_t2_golden():
    # derived verdicts, frozen: both simples satisfy the probe; S1 yields two
    # cyclic submodules of Ext^0 (grade 0), S2 one submodule of Ext^1 (grade 1)
    A, S1, S2 = t2_simples()
    rep1 = auslander_probe(A, S1, 3)
    assert rep1.passed
    assert [(i, d, g) for i, d, g, _ in rep1.checks] == [(0, 1, 0), (0, 2, 0)]
    rep2 = auslander_probe(A, S2, 3)
    assert rep2.passed
    assert [(i, d, g) for i, d, g, _ in rep2.checks] == [(1, 1, 1)]


# -- the facts behind ext_groups and the probe, against the loops they replaced


ORACLE_PRESETS = ["T2", "T3", "M2", "FxF", "poly:2", "poly:4", "poly:8",
                  "cyclic:2", "cyclic:4", "cyclic:6", "cyclic:10"]


def incremental_reps(img, ker, p):
    """Oracle: the greedy quotient representatives, keeping each kernel vector
    outside the span of the image and the vectors kept so far (one Subspace
    rebuild per vector kept)."""
    n = ker.shape[1]
    reps, cur = [], Subspace(img, n, p)
    for v in ker:
        if not cur.contains(v):
            reps.append(v % p)
            cur = cur.add(Subspace([v], n, p))
    return np.array(reps, dtype=np.int64).reshape(-1, n)


def cocycles_and_coboundaries(A, res, i):
    """ker delta_{i+1} and an echelon basis of im delta_i in Hom(P_i, A)."""
    p, n = A.p, res.ranks[i] * A.dim
    if i < len(res.generators):
        ker = nullspace(_dual_matrix(A, res.generators[i], res.ranks[i]), p)
    else:
        ker = np.eye(n, dtype=np.int64)
    if i == 0:
        return np.zeros((0, n), dtype=np.int64), ker
    return rref(_dual_matrix(A, res.generators[i - 1], res.ranks[i - 1]).T, p)[0], ker


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("preset", ORACLE_PRESETS)
def test_ext_reps_match_incremental_loop(preset, p):
    A = findim_preset(preset, p)
    for mod in ("top", "regular"):
        M = module_preset(mod, A)
        # one stage past the degrees checked, so Ext^3 has its cocycles
        res = minimal_projective_resolution(M, A, 4)
        for i in range(min(len(res.ranks), 4)):
            img, ker = cocycles_and_coboundaries(A, res, i)
            reps = ext_groups(M, A, i, res).reps
            assert np.array_equal(reps, incremental_reps(img, ker, p)), (mod, i)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("preset", ORACLE_PRESETS)
def test_auslander_ext0_checks_match_grade(preset, p):
    """Every i = 0 check of the probe equals grade() of its cyclic submodule,
    computed over A^op from N's own module and resolution."""
    A = findim_preset(preset, p)
    Aop = A.opposite()
    for mod in ("top", "regular", "zero"):
        M = module_preset(mod, A)
        E = ext_groups(M, A, 0)
        if p**E.dim > ENUM_BUDGET:
            continue
        expected = []
        for N in _cyclic_right_submodules(E, A):
            j = grade(FDModule(Aop, _restricted_action(E.action, N.basis, p)), Aop, budget=0)
            expected.append((0, N.dim, j, j >= 0))
        assert auslander_probe(A, M, 0).checks == expected, mod


def exhaustive_generators(M, rad):
    """Oracle: the greedy generator search with one Subspace built per
    candidate at every step, and no early stop."""
    p = M.p
    cols = np.einsum("ri,iab->rba", rad.basis, M.action).reshape(-1, M.dim)
    radM = Subspace(cols, M.dim, p)
    rng = random.Random(0)
    candidates = [np.ones(M.dim, dtype=np.int64)] + list(np.eye(M.dim, dtype=np.int64))
    for _ in range(16):
        candidates.append(np.array([rng.randrange(p) for _ in range(M.dim)], dtype=np.int64))
    gens, N = [], Subspace([], M.dim, p)
    while True:
        cover = Subspace(np.vstack([N.basis, radM.basis]), M.dim, p)
        if cover.dim == M.dim:
            return gens
        best = best_closure = None
        for v in candidates:
            if cover.contains(v):
                continue
            closure = Subspace(np.vstack([N.basis, M.action @ v % p]), M.dim, p)
            if best is None or closure.dim > best_closure.dim:
                best, best_closure = v % p, closure
        gens.append(best)
        N = best_closure


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("preset", ORACLE_PRESETS)
def test_generator_search_matches_exhaustive_scan(preset, p):
    """The same generators as the full scan, for each module and for the
    kernel module at every stage of its resolution."""
    A = findim_preset(preset, p)
    rad = jacobson_radical(A)
    for mod in ("top", "regular"):
        M = module_preset(mod, A)
        res = minimal_projective_resolution(M, A, 3)
        assert np.array_equal(np.array(_minimal_generators(M, rad)), np.array(exhaustive_generators(M, rad))), mod
        for t, (r, D) in enumerate(zip(res.ranks, [res.eps] + res.diffs)):
            ker = nullspace(D, p)
            if not ker.shape[0]:
                continue
            K = FDModule(A, _restricted_action(_block_action(A, r), ker, p))
            expected = exhaustive_generators(K, rad)
            assert np.array_equal(np.array(_minimal_generators(K, rad)), np.array(expected)), (mod, t)
            if t < len(res.generators):
                assert np.array_equal(res.generators[t], np.array(expected) @ ker % p), (mod, t)


def seeded_pool(p, dim):
    """Oracle: the candidates as the generator search drew them on every
    call before the pool was cached."""
    rng = random.Random(0)
    candidates = [np.ones(dim, dtype=np.int64)] + list(np.eye(dim, dtype=np.int64))
    for _ in range(16):
        candidates.append(np.array([rng.randrange(p) for _ in range(dim)], dtype=np.int64))
    return np.array(candidates)


@pytest.mark.parametrize("p,dim", [(2, 1), (2, 7), (3, 4), (5, 12), (7, 3), (3, 30)])
def test_candidate_pool_is_the_seeded_pool(p, dim):
    pool = _candidate_pool(p, dim)
    assert pool.dtype == np.int64 and np.array_equal(pool, seeded_pool(p, dim))
    assert _candidate_pool(p, dim) is pool  # built once per (p, dim)
    assert not pool.flags.writeable
    with pytest.raises(ValueError):
        pool[0, 0] = 0


@pytest.mark.parametrize("preset,p", [("T3", 2), ("cyclic:4", 3), ("M2", 2)])
def test_generators_are_copies_of_the_pool(preset, p):
    A = findim_preset(preset, p)
    rad = jacobson_radical(A)
    M = module_preset("regular", A)
    first = _minimal_generators(M, rad)
    expected = [g.copy() for g in first]
    for g in first:
        assert g.flags.writeable
        g += 1
    assert np.array_equal(np.array(_minimal_generators(M, rad)), np.array(expected))
    assert np.array_equal(_candidate_pool(p, M.dim), seeded_pool(p, M.dim))


# -- the periodic copy and grade's early stop, against the eager stage loop


def stagewise_resolution(M, A, length):
    """Oracle: the stage loop with one generator search per stage and no
    periodic copy."""
    p = A.p
    if M.is_zero():
        return Resolution(A, M, [], np.zeros((0, 0), dtype=np.int64))
    rad = jacobson_radical(A)
    gens = _minimal_generators(M, rad)
    res = Resolution(A, M, [len(gens)], _cover_map(M.action, gens, p))
    prev_map, prev_rank = res.eps, len(gens)
    for _ in range(length):
        ker = nullspace(prev_map, p)
        if ker.shape[0] == 0:
            break
        free_act = _block_action(A, prev_rank)
        K = FDModule(A, _restricted_action(free_act, ker, p))
        kg = np.array(_minimal_generators(K, rad), dtype=np.int64) @ ker % p
        D = _cover_map(free_act, kg, p)
        res.ranks.append(kg.shape[0])
        res.diffs.append(D)
        res.generators.append(kg)
        prev_map, prev_rank = D, kg.shape[0]
    return res


def eager_grade(M, A, budget):
    """Oracle: resolve to stage budget + 1, then scan the Ext groups."""
    if M.is_zero():
        return math.inf
    res = stagewise_resolution(M, A, budget + 1)
    for i in range(budget + 1):
        if ext_groups(M, A, i, res).dim:
            return i
    return GradeBound(budget)


def count_generator_searches(monkeypatch):
    calls = []
    search = weylkit.homology._minimal_generators

    def counting(M, rad):
        calls.append(M.dim)
        return search(M, rad)

    monkeypatch.setattr(weylkit.homology, "_minimal_generators", counting)
    return calls


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("preset", ORACLE_PRESETS)
def test_periodic_copy_matches_stage_loop(preset, p):
    A = findim_preset(preset, p)
    for mod in ("top", "regular"):
        M = module_preset(mod, A)
        expected = stagewise_resolution(M, A, 8)
        for length in range(9):
            res = minimal_projective_resolution(M, A, length)
            stop = len(res.generators)
            assert stop == min(length, len(expected.generators)), (mod, length)
            assert res.ranks == expected.ranks[:stop + 1], (mod, length)
            assert np.array_equal(res.eps, expected.eps), (mod, length)
            for t in range(stop):
                assert np.array_equal(res.diffs[t], expected.diffs[t]), (mod, length, t)
                assert np.array_equal(res.generators[t], expected.generators[t]), (mod, length, t)
        assert res.check()


def test_periodic_resolution_resolves_each_kernel_once(monkeypatch):
    # T2 at p = 2, top module: the cover and two distinct kernels, after
    # which the kernel at stage 3 repeats an earlier one (the eager loop
    # searched once per stage, 7 times)
    A = findim_preset("T2", 2)
    M = module_preset("top", A)
    calls = count_generator_searches(monkeypatch)
    res = minimal_projective_resolution(M, A, 6)
    assert len(res.generators) == 6 and res.check()
    assert len(calls) == 3


def test_grade_resolves_only_to_its_first_nonzero_ext(monkeypatch):
    # T3 at p = 2, top module, grade 0: Ext^0 needs the cover and stage 1
    # only (the eager loop resolved to stage budget + 1 = 5: 6 searches)
    A = findim_preset("T3", 2)
    M = module_preset("top", A)
    calls = count_generator_searches(monkeypatch)
    assert grade(M, A, 4) == 0
    assert len(calls) == 2


def test_grade_matches_eager_oracle():
    A, S1, S2 = t2_simples()
    assert grade(S2, A) == eager_grade(S2, A, 4) == 1
    assert grade(S2, A, 0) == eager_grade(S2, A, 0) == GradeBound(0)
    for budget in range(4):
        for M in (S1, S2, direct_sum(A, S1, S2)):
            assert grade(M, A, budget) == eager_grade(M, A, budget), budget
    for preset in ORACLE_PRESETS:
        for p in (2, 3):
            A = findim_preset(preset, p)
            for mod in ("top", "regular", "zero"):
                M = module_preset(mod, A)
                assert grade(M, A, 3) == eager_grade(M, A, 3), (preset, p, mod)
