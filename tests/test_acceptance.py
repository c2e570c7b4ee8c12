"""Acceptance suite: one criterion per test, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All arithmetic is exact; every comparison is exact equality.  Each criterion
also enforces its runtime cap.
"""

import itertools
import json
import math
import random
import time

import numpy as np

from child_process import run_weylkit
from weylkit.commpoly import CommPoly
from weylkit.findim import (
    full_matrix_algebra,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from weylkit.homology import (
    FDModule,
    auslander_probe,
    ext_groups,
    grade,
    hom_module_dimension,
    minimal_projective_resolution,
)
from weylkit.linalg_fp import Subspace
from weylkit.localring import (
    classify_local,
    fiber_decomposability,
    idempotent_ideal_check,
    jacobson_radical,
    maximal_two_sided_ideals,
)
from weylkit.norm import (
    check_norm_symbol_diagram,
    global_twist_sections,
    reduced_norm,
    twist_membership,
)
from weylkit.presentations import (
    NCPoly,
    Presentation,
    WeightFiltration,
    associated_graded,
    check_confluence,
    hilbert_function,
)
from weylkit.weylalg import (
    boundary_chart_presentation,
    chart_embedding_check,
    weyl_presentation,
)


def verdict(number: int, name: str, passed: bool, started: float, cap: float):
    elapsed = time.monotonic() - started
    line = f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'} ({elapsed:.1f}s)"
    print(line, flush=True)
    assert passed, line
    assert elapsed < cap, f"{line} exceeded the {cap}s cap"


def random_element(P, rng, max_degree=2, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        m = [0] * P.ngens
        for _ in range(rng.randrange(0, max_degree + 1)):
            m[rng.randrange(P.ngens)] += 1
        terms[tuple(m)] = rng.randrange(1, P.p)
    x = NCPoly(terms, P.p)
    return x if not x.is_zero() else P.one()


def test_criterion_1_confluence():
    t0 = time.monotonic()
    ok = True
    for p, n in itertools.product((2, 3, 5, 7), (1, 2)):
        ok &= check_confluence(weyl_presentation(p, n).presentation).passed
        ok &= check_confluence(boundary_chart_presentation(p, n).presentation).passed
    bad = Presentation(
        ("g1", "g2", "g3"),
        2,
        {(1, 0): NCPoly({(0, 0, 1): 1}, 2), (2, 1): NCPoly({(0, 1, 0): 1}, 2)},
    )
    report = check_confluence(bad)
    g3 = NCPoly({(0, 0, 1): 1}, 2)
    ok &= (not report.passed) and report.discrepancies[0][1] in (g3, -g3)
    verdict(1, "confluence", ok, t0, 10)


def test_criterion_2_chart_embedding():
    t0 = time.monotonic()
    ok = True
    for p, n in itertools.product((2, 3), (1, 2)):
        report = chart_embedding_check(p, n)
        ok &= report.passed
        # every chart relation holds verbatim for the reported orientation
        ok &= all(r for _, r in report.details[report.orientation])
    verdict(2, "chart embedding", ok, t0, 30)


def test_criterion_3_norm():
    t0 = time.monotonic()
    ok = True
    for p, n in ((2, 1), (3, 1), (2, 2)):
        A = weyl_presentation(p, n)
        P = A.presentation
        # N(g_i) = x_i^{p^{n-1}}: the unique value forced by det(L_s) = N^{p^n}
        # (for n = 1 this is x_i on the nose)
        for i in range(2 * n):
            want = CommPoly.var(i, p, 2 * n, power=p ** (n - 1))
            ok &= reduced_norm(P.gen(i), A) == want
        rng = random.Random(2024)
        for _ in range(100):
            a, b = random_element(P, rng), random_element(P, rng)
            ok &= reduced_norm(P.multiply(a, b), A) == reduced_norm(a, A) * reduced_norm(b, A)
    # non-additivity witness among degree-one elements
    A = weyl_presentation(2, 1)
    P = A.presentation
    witness = any(
        reduced_norm(a + b, A) != reduced_norm(a, A) + reduced_norm(b, A)
        for a, b in itertools.product([P.one(), P.gen(0), P.gen(1)], repeat=2)
    )
    ok &= witness
    verdict(3, "reduced norm", ok, t0, 600)


def test_criterion_4_diagram():
    t0 = time.monotonic()
    ok = True
    for p, n, trials in ((2, 1, 50), (3, 1, 50), (2, 2, 20)):
        A = weyl_presentation(p, n)
        rng = random.Random(4)
        for _ in range(trials):
            ok &= check_norm_symbol_diagram(
                random_element(A.presentation, rng, max_degree=4), A
            )
    verdict(4, "norm-symbol diagram", ok, t0, 300)


def test_criterion_5_twists_sections():
    t0 = time.monotonic()
    ok = True
    for p, n in ((2, 1), (3, 1), (2, 2)):
        A = weyl_presentation(p, n)
        basis = global_twist_sections(1, p ** (n - 1), A)
        monos = sorted(m for b in basis for m in b.terms)
        gens = [
            tuple(1 if j == i else 0 for j in range(2 * n)) for i in range(2 * n)
        ]
        ok &= monos == sorted([(0,) * (2 * n)] + gens)
        zero = global_twist_sections(0, 1, A)
        ok &= [sorted(b.terms) for b in zero] == [[(0,) * (2 * n)]]
    # filtration law on 200 random pairs (100 per prime, n = 1)
    for p in (2, 3):
        A = weyl_presentation(p, 1)
        P = A.presentation
        rng = random.Random(55)
        for _ in range(100):
            a, b = random_element(P, rng), random_element(P, rng)
            j = int(reduced_norm(a, A).degree())
            k = int(reduced_norm(b, A).degree())
            ok &= twist_membership(a, j, A) and twist_membership(b, k, A)
            ok &= twist_membership(P.multiply(a, b), j + k, A)
    verdict(5, "twists and sections", ok, t0, 300)


def test_criterion_6_associated_graded():
    t0 = time.monotonic()
    ok = True
    C = boundary_chart_presentation(2, 2).presentation
    G = associated_graded(C, WeightFiltration((1, 1, 1, 1)))
    ok &= G.commutator_rel(1, 0).is_zero()  # [v~, u~] = 0
    ok &= G.commutator_rel(2, 0).is_zero() and G.commutator_rel(3, 0).is_zero()
    ok &= G.commutator_rel(2, 1).is_zero() and G.commutator_rel(3, 1).is_zero()
    ok &= G.commutator_rel(3, 2) == NCPoly({(2, 0, 0, 0): 1}, 2)  # h u~^2
    G2 = associated_graded(G, WeightFiltration((1, 0, 0, 0)))
    ok &= not G2.relations
    for d in range(7):
        ok &= hilbert_function(G, d) == math.comb(d + 3, 3)
    verdict(6, "associated graded", ok, t0, 5)


def test_criterion_7_local_rings():
    t0 = time.monotonic()
    ok = True
    for size in (2, 3):
        T = upper_triangular_algebra(size, 2)
        maxima = maximal_two_sided_ideals(T)
        ok &= len(maxima) == size
        pairs = [(r, c) for r in range(size) for c in range(r, size)]
        for k in range(size):
            vecs = [
                np.eye(T.dim, dtype=np.int64)[t]
                for t, rc in enumerate(pairs)
                if rc != (k, k)
            ]
            Mk = Subspace(vecs, T.dim, 2)
            ok &= any(M == Mk for M in maxima)
        ok &= all(idempotent_ideal_check(M, T) for M in maxima)
        ok &= T.is_nilpotent_subspace(jacobson_radical(T))
        ok &= classify_local(T) == "not_demi"
        fiber = fiber_decomposability(T, [T.unit], Subspace([], T.dim, 2))
        ok &= isinstance(fiber, tuple) and fiber[0] == "fails_at"
    ok &= classify_local(full_matrix_algebra(2, 2)) == "quasi"
    for k in (2, 3, 4):
        ok &= classify_local(truncated_polynomial_algebra(2, k)) == "quasi"
    # adic comparison against the brute-force subspace oracle on F_2[x]/(x^4)
    from weylkit.localring import adic_comparison

    A = truncated_polynomial_algebra(2, 4)
    e = np.eye(4, dtype=np.int64)
    mR = Subspace([e[2]], 4, 2)
    m = maximal_two_sided_ideals(A)[0]
    # oracle: m^k = (x^k), m_R A = (x^2, x^3); least k with inclusion is 2
    mRA = Subspace([e[2], e[3]], 4, 2)
    oracle = next(
        k
        for k in range(1, 5)
        if mRA.contains_space(Subspace([e[j] for j in range(k, 4)], 4, 2))
    )
    ok &= adic_comparison(A, m, mR) == oracle == 2
    verdict(7, "local rings", ok, t0, 30)


def test_criterion_8_homlab():
    t0 = time.monotonic()
    ok = True
    P2 = truncated_polynomial_algebra(2, 2)
    triv = FDModule(P2, [[[1]], [[0]]])
    M2 = full_matrix_algebra(2, 2)
    simple_acts = []
    for r in range(2):
        for c in range(2):
            mm = np.zeros((2, 2), dtype=np.int64)
            mm[r, c] = 1
            simple_acts.append(mm)
    S = FDModule(M2, simple_acts)
    ok &= grade(FDModule.zero(P2), P2) == math.inf
    ok &= grade(S, M2) == 0
    ok &= grade(triv, P2) == 0
    for alg, mod in ((P2, triv), (M2, S), (P2, FDModule.regular(P2))):
        res = minimal_projective_resolution(mod, alg, 3)
        ok &= res.check()  # d^2 = 0 and exactness by rank counts
        ok &= ext_groups(mod, alg, 0, res).dim == hom_module_dimension(mod, alg)
    # auslander goldens: poly2 trivial and both T_2(F_2) simples pass the probe
    T2 = upper_triangular_algebra(2, 2)
    S1 = FDModule(T2, [[[1]], [[0]], [[0]]])
    S2 = FDModule(T2, [[[0]], [[0]], [[1]]])
    ok &= auslander_probe(P2, triv, 3).passed
    rep1 = auslander_probe(T2, S1, 3)
    rep2 = auslander_probe(T2, S2, 3)
    ok &= rep1.passed and [(i, d, g) for i, d, g, _ in rep1.checks] == [
        (0, 1, 0),
        (0, 2, 0),
    ]
    ok &= rep2.passed and [(i, d, g) for i, d, g, _ in rep2.checks] == [(1, 1, 1)]
    verdict(8, "homological probes", ok, t0, 60)


def test_criterion_9_reproducibility():
    t0 = time.monotonic()
    config = json.dumps(
        {"p": 2, "n": 1, "command": "report-all", "seed": 7, "output": "json"}
    )
    outs = []
    for _ in range(2):
        proc = run_weylkit(config)
        outs.append((proc.returncode, proc.stdout))
    ok = outs[0] == outs[1] and outs[0][0] == 0 and outs[0][1].strip()
    verdict(9, "reproducibility", bool(ok), t0, 120)
