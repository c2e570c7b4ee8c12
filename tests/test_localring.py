"""Radicals, maximal ideals, local-ring taxonomy, adic and fiber probes."""

import itertools
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg_fp import unstack

from weylkit import findim
from weylkit.cli import findim_preset
from weylkit.errors import InvalidFormError, TooLargeError
from weylkit.findim import (
    FinDimAlgebra,
    cyclic_group_algebra,
    full_matrix_algebra,
    product_algebra,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from weylkit.linalg_fp import Subspace, _span_stack, nonsingular_span, nullspace, rank, rref
from weylkit.localring import (
    CROSS_CHECK_BUDGET,
    FIBER_K_MAX,
    _combinations,
    _trace_functionals,
    adic_comparison,
    classify_local,
    fiber_decomposability,
    idempotent_ideal_check,
    ideals_over,
    jacobson_radical,
    maximal_two_sided_ideals,
    primitive_central_idempotents,
    radical_cross_check,
    semisimple_quotient,
)


def unit_vec(d, i):
    return np.eye(d, dtype=np.int64)[i]


def test_algebra_axioms_checked():
    good = upper_triangular_algebra(2, 2)
    bad = good.table.copy()
    bad[1, 1, 1] ^= 1  # corrupt e12 * e12
    with pytest.raises(InvalidFormError):
        FinDimAlgebra(bad, good.unit, 2)


def band_table(d, keep):
    """e_i e_j = e_j (keep "right") or e_i (keep "left"): associative, with
    every e_i a one-sided identity only."""
    table = np.zeros((d, d, d), dtype=np.int64)
    for i, j in itertools.product(range(d), repeat=2):
        table[i, j, j if keep == "right" else i] = 1
    return table


def test_unit_laws_checked():
    unit = unit_vec(2, 0)
    # e_0 x = x for every x, but x e_0 = e_0: only the right unit law fails
    with pytest.raises(InvalidFormError, match="unit laws fail"):
        FinDimAlgebra(band_table(2, "right"), unit, 3)
    # x e_0 = x, but e_0 x = e_0: the left unit law fails
    with pytest.raises(InvalidFormError, match="unit laws fail"):
        FinDimAlgebra(band_table(2, "left"), unit, 3)
    T2 = upper_triangular_algebra(2, 2)
    with pytest.raises(InvalidFormError, match="unit laws fail"):
        FinDimAlgebra(T2.table, unit_vec(3, 0), 2)  # e11 alone is no unit


# -- radical ------------------------------------------------------------------


def test_radical_examples():
    M2 = full_matrix_algebra(2, 2)
    assert jacobson_radical(M2).is_zero()

    T2 = upper_triangular_algebra(2, 2)
    rad = jacobson_radical(T2)
    # basis order e11, e12, e22: rad = span(e12)
    assert rad.dim == 1 and rad.contains(unit_vec(3, 1))
    assert T2.subspace_product(rad, rad).is_zero()

    P2 = truncated_polynomial_algebra(2, 2)
    rad2 = jacobson_radical(P2)
    assert rad2.dim == 1 and rad2.contains(unit_vec(2, 1))


def is_nilpotent_element(A, v) -> bool:
    x = np.array(v, dtype=np.int64) % A.p
    for _ in range(A.dim + 1):
        if not np.any(x):
            return True
        x = A.mul(x, v)
    return False


def radical_by_enumeration(A):
    """Oracle: the sum of the nilpotent principal two-sided ideals, found by
    enumerating all p^d elements (rad itself is nilpotent by Hopkins, so
    this exhausts it)."""
    rad = Subspace([], A.dim, A.p)
    for x in A.elements():
        if not np.any(x) or rad.contains(x) or not is_nilpotent_element(A, x):
            continue
        ideal = A.two_sided_ideal([x])
        if A.is_nilpotent_subspace(ideal):
            rad = rad.add(ideal)
    return rad


PRESETS = ["T2", "T3", "M2", "FxF"] + [f"poly:{k}" for k in range(2, 9)] + [
    f"cyclic:{k}" for k in range(2, 11)
]


def _oracle_cases():
    for p in (2, 3, 5, 7):
        for name in PRESETS:
            A = findim_preset(name, p)
            if p**A.dim <= 4096:
                yield pytest.param(A, id=f"{name}@{p}")
    for (a, b), p in itertools.product((("T2", "poly:2"), ("M2", "cyclic:2"), ("FxF", "T2")), (2, 3)):
        yield pytest.param(product_algebra(findim_preset(a, p), findim_preset(b, p)), id=f"{a}x{b}@{p}")
    for name, p in (("T3", 2), ("T3", 3), ("poly:4", 2)):
        yield pytest.param(findim_preset(name, p).opposite(), id=f"{name}^op@{p}")
    T2xM2 = product_algebra(upper_triangular_algebra(2, 2), full_matrix_algebra(2, 2))
    yield pytest.param(T2xM2.opposite(), id="(T2xM2)^op@2")


@pytest.mark.parametrize("A", _oracle_cases())
def test_radical_matches_enumeration(A):
    assert jacobson_radical(A) == radical_by_enumeration(A)


def change_of_basis(A, rng):
    """A on the basis f_a = sum_i P[a, i] e_i for a random invertible P, and
    Q = P^{-1}, which takes e-coordinates (rows) to f-coordinates."""
    d, p = A.dim, A.p
    while True:
        P = rng.integers(0, p, size=(d, d))
        r, pivots = rref(np.hstack([P, np.eye(d, dtype=np.int64)]), p)
        if pivots[-1] < d:  # the left block has full rank
            break
    Q = r[:, d:]
    table = np.einsum("ai,bj,ijk,kl->abl", P, P, A.table, Q)
    return FinDimAlgebra(table, A.unit @ Q, p), Q


@pytest.mark.parametrize(
    "name,p", [("T3", 3), ("M2", 3), ("poly:5", 2), ("cyclic:6", 2), ("cyclic:6", 3), ("T3", 7)]
)
def test_radical_invariant_under_change_of_basis(name, p):
    rng = np.random.default_rng(20)
    A = findim_preset(name, p)
    rad = jacobson_radical(A)
    for _ in range(3):
        B, Q = change_of_basis(A, rng)
        assert jacobson_radical(B) == Subspace(rad.basis @ Q % p, A.dim, p)


def trace_functional_by_vector(A, b, i):
    """Oracle: g_i(b e_k) for every basis vector e_k, for one vector b, with
    the untransposed left-regular matrices of the b e_k and an identity
    start to the square and multiply."""
    p, q = A.p, A.p ** (i + 1)
    prods = (b @ A.table.reshape(A.dim, -1)).reshape(A.dim, A.dim) % p  # row k: b e_k
    base = np.einsum("mi,ijk->mkj", prods, A.table) % p
    power, e = np.broadcast_to(np.eye(A.dim, dtype=np.int64), base.shape), p**i
    while e:
        if e & 1:
            power = power @ base % q
        base, e = base @ base % q, e >> 1
    traces = np.trace(power, axis1=1, axis2=2) % q
    assert not np.any(traces % p**i)
    return traces // p**i


def filtration_by_vector(A):
    """Oracle: the levels (i, basis of I, G) of Ronyai's filtration with G
    built one basis vector at a time, and the radical the filtration ends at."""
    rad, levels, i = Subspace(np.eye(A.dim, dtype=np.int64), A.dim, A.p), [], 0
    while A.p**i <= A.dim and rad.dim:
        G = np.array([trace_functional_by_vector(A, b, i) for b in rad.basis])
        levels.append((i, rad.basis, G))
        rad = Subspace(nullspace(G.T, A.p) @ rad.basis % A.p, A.dim, A.p)
        i += 1
    return levels, rad


@pytest.mark.parametrize("block", [None, 9000, 1], ids=["default", "ragged", "one-per-chunk"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_stacked_trace_functionals_match_the_per_vector_oracle(p, block, monkeypatch):
    # block 9000 splits d = 8..10 into chunks of 3..5 vectors with a shorter
    # last one; block 1 leaves one vector per chunk
    if block is not None:
        monkeypatch.setattr(findim, "CHECK_BLOCK", block)
    rng = np.random.default_rng(p)
    for name in PRESETS:
        A = findim_preset(name, p)
        for B in [A, *(change_of_basis(A, rng)[0] for _ in range(2))]:
            levels, rad = filtration_by_vector(B)
            for i, basis, G in levels:
                assert np.array_equal(_trace_functionals(B, basis, i), G), (name, i)
            assert jacobson_radical(B) == rad, name


def test_stacked_trace_functionals_memory():
    # the live stacks of one chunk stay within CHECK_BLOCK int64 entries
    A = findim_preset("poly:30", 2)
    basis = np.eye(30, dtype=np.int64)
    tracemalloc.start()
    try:
        _trace_functionals(A, basis, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * findim.CHECK_BLOCK


def test_table_budget(monkeypatch):
    tracemalloc.start()
    try:
        for build in (truncated_polynomial_algebra, cyclic_group_algebra):
            with pytest.raises(TooLargeError, match="TABLE_BUDGET"):
                build(2, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16  # refused before the 8 * 2000^3-byte table
    monkeypatch.setattr(findim, "TABLE_BUDGET", 5**3)
    for build in (truncated_polynomial_algebra, cyclic_group_algebra):
        assert build(3, 5).dim == 5
        with pytest.raises(TooLargeError, match="TABLE_BUDGET"):
            build(3, 6)


def maximal_left_ideals_brute(A: FinDimAlgebra) -> list[Subspace]:
    """Oracle: all maximal left ideals by enumerating left submodules of A;
    feasible only for tiny algebras (p^d <= CROSS_CHECK_BUDGET)."""
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


def maximal_left_ideals_by_closure(A):
    """Oracle: the keys of the maximal left ideals, from every cyclic left
    ideal found as the closure of span{x} under left multiplication."""
    left = A.mult_ops("left")
    cyclic = {}
    for x in A.elements():
        if np.any(x):
            ideal = Subspace([x], A.dim, A.p).closure(left)
            cyclic[ideal.key()] = ideal
    ideals, frontier = dict(cyclic), list(cyclic.values())
    while frontier:
        sums = [I.add(J) for I in frontier for J in cyclic.values()]
        frontier = [S for S in sums if S.key() not in ideals]
        ideals.update((S.key(), S) for S in frontier)
    proper = [I for I in ideals.values() if I.dim < A.dim]
    return {I.key() for I in proper if not any(J.dim > I.dim and J.contains_space(I) for J in proper)}


@pytest.mark.parametrize(
    "name,p",
    [("T2", 2), ("T3", 2), ("M2", 2), ("M2", 3), ("FxF", 3), ("poly:4", 3), ("cyclic:6", 2),
     ("cyclic:6", 3), ("cyclic:10", 2)],
)
def test_maximal_left_ideals_match_closure_enumeration(name, p):
    A = findim_preset(name, p)
    assert {I.key() for I in maximal_left_ideals_brute(A)} == maximal_left_ideals_by_closure(A)


def test_radical_cross_check_small():
    for A in (
        full_matrix_algebra(2, 2),
        upper_triangular_algebra(2, 2),
        truncated_polynomial_algebra(2, 3),
        truncated_polynomial_algebra(3, 2),
        cyclic_group_algebra(2, 2),
        cyclic_group_algebra(3, 6),
    ):
        assert radical_cross_check(A)


def _cross_check_cases():
    """Every algebra of the four families (the M2 and T3 presets among
    them), and FxF, with p^d within CROSS_CHECK_BUDGET at p in {2, 3, 5, 7}."""
    families = {
        "poly": lambda k, p: truncated_polynomial_algebra(p, k),
        "cyclic": lambda k, p: cyclic_group_algebra(p, k),
        "M": full_matrix_algebra,
        "T": upper_triangular_algebra,
    }
    for p in (2, 3, 5, 7):
        for name, family in families.items():
            k = 1
            while p ** family(k, p).dim <= CROSS_CHECK_BUDGET:
                yield pytest.param(family(k, p), id=f"{name}{k}@{p}")
                k += 1
        yield pytest.param(findim_preset("FxF", p), id=f"FxF@{p}")


@pytest.mark.parametrize("A", _cross_check_cases())
def test_radical_cross_check_matches_intersection_of_maximal_left_ideals(A):
    inter = Subspace(np.eye(A.dim, dtype=np.int64), A.dim, A.p)
    for I in maximal_left_ideals_brute(A):
        inter = inter.intersect(I)
    assert inter == jacobson_radical(A)
    assert radical_cross_check(A)


@pytest.mark.parametrize("A", _cross_check_cases())
def test_radical_cross_check_rejects_other_subspaces(A):
    rad, eye = jacobson_radical(A), np.eye(A.dim, dtype=np.int64)
    for i in range(rad.dim):  # rad less one basis vector
        assert not radical_cross_check(A, Subspace(np.delete(rad.basis, i, axis=0), A.dim, A.p))
    for c in range(A.dim):  # rad plus one complement vector
        if c not in rad.pivots:
            assert not radical_cross_check(A, rad.extend(eye[[c]]))
    if rad.dim:
        assert not radical_cross_check(A, Subspace([], A.dim, A.p))
    assert not radical_cross_check(A, Subspace(eye, A.dim, A.p))


def int64_unit_table(A):
    """Every element by base-p code, and its transposed left-regular matrix,
    as the cross-check built them in int64 before the stacked lanes."""
    p, d = A.p, A.dim
    elements = _combinations(np.eye(d, dtype=np.int64), p, np.arange(p**d))
    return elements, (elements @ A.table.reshape(d, -1) % p).reshape(-1, d, d)


@pytest.mark.parametrize("A", _cross_check_cases())
def test_unit_table_matches_the_int64_table(A):
    elements, table = int64_unit_table(A)
    assert np.array_equal(unstack(_span_stack(A.table, A.p), A.dim, A.p), table)
    units = [rank(A.left_mult(a), A.p) == A.dim for a in elements]
    assert list(nonsingular_span(A.table, A.p)) == units


def test_radical_cross_check_budget():
    with pytest.raises(TooLargeError, match="unit-table budget"):
        radical_cross_check(findim_preset("T3", 5))  # 5^6 > CROSS_CHECK_BUDGET


@pytest.mark.parametrize("name,p", [("cyclic:10", 2), ("M2", 5)])
def test_radical_cross_check_memory(name, p):
    # the unit table is one packed stack of p^d <= CROSS_CHECK_BUDGET
    # matrices, and the witness products are built in bounded blocks
    A = findim_preset(name, p)
    jacobson_radical(A)
    tracemalloc.start()
    try:
        assert radical_cross_check(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_radical_nilpotent():
    for A in (
        upper_triangular_algebra(3, 2),
        truncated_polynomial_algebra(2, 4),
        cyclic_group_algebra(2, 4),
    ):
        rad = jacobson_radical(A)
        power = rad
        for _ in range(A.dim):
            power = A.subspace_product(power, rad)
        assert power.is_zero()


# -- maximal two-sided ideals -------------------------------------------------


def test_maximal_ideals_T2():
    T2 = upper_triangular_algebra(2, 2)
    maxima = maximal_two_sided_ideals(T2)
    assert len(maxima) == 2
    # M_k = {a_kk = 0}; basis order e11, e12, e22
    M1 = Subspace([unit_vec(3, 1), unit_vec(3, 2)], 3, 2)  # a_11 = 0
    M2 = Subspace([unit_vec(3, 0), unit_vec(3, 1)], 3, 2)  # a_22 = 0
    assert set(M.key() for M in maxima) == {M1.key(), M2.key()}


def test_maximal_ideals_T3():
    T3 = upper_triangular_algebra(3, 2)
    maxima = maximal_two_sided_ideals(T3)
    assert len(maxima) == 3
    # pairs (r, c) with r <= c in order; M_k kills the (k,k) diagonal slot
    pairs = [(r, c) for r in range(3) for c in range(r, 3)]
    for k in range(3):
        vecs = [unit_vec(6, t) for t, rc in enumerate(pairs) if rc != (k, k)]
        Mk = Subspace(vecs, 6, 2)
        assert any(M == Mk for M in maxima)


def test_maximal_ideals_simple_and_product():
    M2 = full_matrix_algebra(2, 2)
    maxima = maximal_two_sided_ideals(M2)
    assert len(maxima) == 1 and maxima[0].is_zero()
    FF = product_algebra(
        truncated_polynomial_algebra(2, 1), truncated_polynomial_algebra(2, 1)
    )
    assert len(maximal_two_sided_ideals(FF)) == 2


# -- A/rad and its primitive central idempotents ------------------------------


def center_basis(A):
    """Rows spanning the center: z e_j - e_j z = 0 for every basis vector e_j."""
    cons = [((A.table[:, j, :] - A.table[j, :, :]) % A.p).T for j in range(A.dim)]
    return nullspace(np.vstack(cons), A.p)


def central_idempotents_by_enumeration(A):
    """Oracle: the minimal nonzero central idempotents, found by enumerating
    the center in the order of the coordinates on its nullspace basis."""
    center = center_basis(A)
    idems = []
    for coeffs in itertools.product(range(A.p), repeat=center.shape[0]):
        z = np.array(coeffs, dtype=np.int64) @ center % A.p
        if np.any(z) and np.all(A.mul(z, z) == z):
            idems.append(z)

    def below(f, e):
        return np.all(A.mul(e, f) == f) and np.all(A.mul(f, e) == f) and np.any(f != e)

    return [e for e in idems if not any(below(f, e) for f in idems)]


def _center_cases():
    for p in (2, 3, 5, 7):
        for name in ["poly:1", "cyclic:1"] + PRESETS + ["cyclic:11", "cyclic:12"]:
            A = findim_preset(name, p)
            if p ** center_basis(semisimple_quotient(A)[0]).shape[0] <= 4096:
                yield pytest.param(A, id=f"{name}@{p}")
    for (a, b), p in itertools.product((("T2", "poly:2"), ("M2", "cyclic:2"), ("FxF", "T2")), (2, 3, 5)):
        yield pytest.param(product_algebra(findim_preset(a, p), findim_preset(b, p)), id=f"{a}x{b}@{p}")
    for name, p in (("T3", 2), ("T3", 5), ("cyclic:6", 3), ("FxF", 7)):
        yield pytest.param(findim_preset(name, p).opposite(), id=f"{name}^op@{p}")


@pytest.mark.parametrize("A", _center_cases())
def test_central_idempotents_match_enumeration(A):
    Abar = semisimple_quotient(A)[0]
    got = primitive_central_idempotents(Abar)
    want = central_idempotents_by_enumeration(Abar)
    assert len(got) == len(want)
    assert all(np.array_equal(e, f) for e, f in zip(got, want))


@pytest.mark.parametrize("name,p", [("cyclic:8", 5), ("cyclic:12", 5), ("cyclic:6", 7), ("cyclic:12", 7)])
def test_central_idempotents_beyond_enumeration(name, p):
    # p^(dim center) > 2^16: orthogonal central idempotents summing to 1
    Abar = semisimple_quotient(findim_preset(name, p))[0]
    idems = primitive_central_idempotents(Abar)
    assert np.array_equal(sum(idems) % p, Abar.unit)
    for e, f in itertools.product(idems, repeat=2):
        assert np.array_equal(Abar.mul(e, f), e if e is f else 0 * e)
    commutators = Abar.mult_ops("left") - Abar.mult_ops("right")
    assert not np.any(np.tensordot(np.array(idems), commutators, 1) % p)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["T2", "T3", "M2", "FxF", "poly:4", "cyclic:4", "cyclic:6"]),
    p=st.sampled_from([2, 3, 5, 7]),
    data=st.data(),
)
def test_quotient_projection_laws(name, p, data):
    A = findim_preset(name, p)
    vector = st.lists(st.integers(0, p - 1), min_size=A.dim, max_size=A.dim).map(np.array)
    a, b = data.draw(vector), data.draw(vector)
    for I in [jacobson_radical(A)] + maximal_two_sided_ideals(A):
        Q, proj, lift = A.quotient(I)
        assert np.array_equal(proj @ lift.T % p, np.eye(Q.dim, dtype=np.int64))
        assert not np.any(proj @ I.basis.T % p)
        assert np.array_equal(proj @ A.mul(a, b) % p, Q.mul(proj @ a, proj @ b))


# -- classification -----------------------------------------------------------


def test_classify_examples():
    assert classify_local(truncated_polynomial_algebra(2, 3)) == "quasi"
    assert classify_local(upper_triangular_algebra(2, 2)) == "not_demi"
    assert classify_local(full_matrix_algebra(2, 2)) == "quasi"
    assert classify_local(upper_triangular_algebra(3, 2)) == "not_demi"
    assert classify_local(cyclic_group_algebra(2, 4)) == "quasi"


def test_idempotent_ideal_checks():
    T2 = upper_triangular_algebra(2, 2)
    for M in maximal_two_sided_ideals(T2):
        assert idempotent_ideal_check(M, T2)
    rad = jacobson_radical(T2)
    assert not idempotent_ideal_check(rad, T2)
    assert idempotent_ideal_check(Subspace([], 3, 2), T2)


def test_nak_equivalence_for_quasi_local():
    # for a unique maximal two-sided ideal: m = rad iff every maximal left
    # ideal contains m (both sides computed independently)
    for A in (
        truncated_polynomial_algebra(2, 3),
        full_matrix_algebra(2, 2),
        cyclic_group_algebra(2, 2),
    ):
        maxima = maximal_two_sided_ideals(A)
        assert len(maxima) == 1
        m = maxima[0]
        lhs = m == jacobson_radical(A)
        rhs = all(L.contains_space(m) for L in maximal_left_ideals_brute(A))
        assert lhs == rhs


# -- adic comparison ----------------------------------------------------------


def poly4_with_square_subring():
    A = truncated_polynomial_algebra(2, 4)
    R_basis = [unit_vec(4, 0), unit_vec(4, 2)]  # 1, x^2
    mR = Subspace([unit_vec(4, 2)], 4, 2)  # (x^2) inside R
    return A, R_basis, mR


def test_adic_comparison_poly4():
    A, _, mR = poly4_with_square_subring()
    m = maximal_two_sided_ideals(A)[0]
    assert adic_comparison(A, m, mR) == 2


def test_adic_comparison_zero_maximal_ideal():
    A = full_matrix_algebra(2, 2)
    m = maximal_two_sided_ideals(A)[0]  # zero ideal
    mR = Subspace([], A.dim, 2)
    assert adic_comparison(A, m, mR) == 1


def test_adic_comparison_idempotent_ideal_never_included():
    # M_1 in T_2 satisfies M_1^2 = M_1 and never enters m_R A = 0
    T2 = upper_triangular_algebra(2, 2)
    M1 = next(
        M for M in maximal_two_sided_ideals(T2) if idempotent_ideal_check(M, T2)
    )
    mR = Subspace([], 3, 2)
    assert adic_comparison(T2, M1, mR) is None


def test_quasi_implies_adic_success():
    A4, _, mR4 = poly4_with_square_subring()
    for A, mR in ((A4, mR4), (truncated_polynomial_algebra(2, 3), Subspace([], 3, 2))):
        if classify_local(A) == "quasi":
            m = maximal_two_sided_ideals(A)[0]
            assert adic_comparison(A, m, mR) is not None


# -- fiber decomposability ----------------------------------------------------


def test_fiber_T2_fails_at_2():
    T2 = upper_triangular_algebra(2, 2)
    R_basis = [T2.unit]
    mR = Subspace([], 3, 2)
    assert ideals_over(T2, R_basis, mR) == maximal_two_sided_ideals(T2)
    assert fiber_decomposability(T2, R_basis, mR) == ("fails_at", 2)


def test_fiber_product_decomposable():
    FF = product_algebra(
        truncated_polynomial_algebra(2, 1), truncated_polynomial_algebra(2, 1)
    )
    R_basis = [FF.unit]
    mR = Subspace([], 2, 2)
    assert fiber_decomposability(FF, R_basis, mR) == "decomposable"


def test_fiber_quasi_local_indecomposable():
    A = truncated_polynomial_algebra(2, 3)
    R_basis = [A.unit]
    mR = Subspace([], 3, 2)
    assert fiber_decomposability(A, R_basis, mR) == "indecomposable"


# -- one power chain and one subspace product ---------------------------------
# The per-pair product and the loops below are the ideal arithmetic as it was
# written before FinDimAlgebra.subspace_product became one product and every
# chain of powers went through FinDimAlgebra.powers; they are the oracles,
# with the four-index einsum that subspace_product was before its two int64
# products.


def product_by_pairs(A, U, V):
    return Subspace([A.mul(u, v) for u in U.basis for v in V.basis], A.dim, A.p)


def product_by_einsum(A, U, V):
    prods = np.einsum("ui,vj,ijk->uvk", U.basis, V.basis, A.table) % A.p
    return Subspace(prods.reshape(-1, A.dim), A.dim, A.p)


def is_nilpotent_by_loop(A, I):
    cur = I
    for _ in range(A.dim + 1):
        if cur.is_zero():
            return True
        nxt = product_by_pairs(A, cur, I)
        if nxt == cur:
            return False
        cur = nxt
    return cur.is_zero()


def adic_comparison_by_loop(A, m, mR):
    J = product_by_pairs(A, mR, Subspace(np.eye(A.dim, dtype=np.int64), A.dim, A.p))
    power = m
    for k in range(1, A.dim + 3):
        if J.contains_space(power):
            return k
        nxt = product_by_pairs(A, power, m)
        if nxt == power:
            return None
        power = nxt
    return None


def fiber_decomposability_by_loops(A, R_basis, mR):
    maxima = ideals_over(A, R_basis, mR)
    if len(maxima) == 1:
        return "indecomposable"
    stabilized = []
    for M in maxima:
        power = M
        while True:
            nxt = product_by_pairs(A, power, M)
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
            Dk = product_by_pairs(A, Dk, D)
        if not Dk.contains_space(inter_stab):
            return ("fails_at", k)
    return "decomposable"


def non_ideal_subspaces(A, rng, count):
    """Up to count random subspaces, from 100 draws, that are not two-sided
    ideals."""
    found = []
    for _ in range(100):
        S = Subspace(rng.integers(0, A.p, (rng.integers(1, A.dim + 1), A.dim)), A.dim, A.p)
        if A.two_sided_ideal(S.basis) != S:
            found.append(S)
            if len(found) == count:
                break
    return found


IDEAL_BATTERY = [f"poly:{k}" for k in (1, 2, 3, 4, 6)] + [f"cyclic:{k}" for k in (2, 3, 4, 6)] + [
    "T2", "T3", "M2", "M3", "FxF", "poly:2xT2"
]


def battery_algebra(name, p):
    if name == "M3":
        return full_matrix_algebra(3, p)
    if name == "poly:2xT2":
        return product_algebra(findim_preset("poly:2", p), findim_preset("T2", p))
    return findim_preset(name, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("name", IDEAL_BATTERY)
def test_ideal_arithmetic_matches_the_pairwise_loops(name, p):
    A = battery_algebra(name, p)
    rng = np.random.default_rng([p, zlib.crc32(name.encode())])
    zero = Subspace([], A.dim, p)
    rad, maxima = jacobson_radical(A), maximal_two_sided_ideals(A)
    others = non_ideal_subspaces(A, rng, 6)
    assert len(others) == (0 if A.dim == 1 else 6)
    spaces = [zero, Subspace(np.eye(A.dim, dtype=np.int64), A.dim, p), rad, *maxima, *others]
    for U, V in itertools.product(spaces, repeat=2):
        assert A.subspace_product(U, V) == product_by_pairs(A, U, V) == product_by_einsum(A, U, V)
    for S in spaces:
        assert A.is_nilpotent_subspace(S) == is_nilpotent_by_loop(A, S)
        assert idempotent_ideal_check(S, A) == (product_by_pairs(A, S, S) == S)
        for mR in spaces:
            assert adic_comparison(A, S, mR) == adic_comparison_by_loop(A, S, mR)
    assert fiber_decomposability(A, [A.unit], zero) == fiber_decomposability_by_loops(A, [A.unit], zero)


@pytest.mark.parametrize("name", ["T3", "M2", "cyclic:6", "poly:8"])
def test_subspace_product_at_a_large_prime(name):
    # random subspaces at p = 65521, where products of entries pass 2^31
    p = 65521
    A = findim_preset(name, p)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(5):
        U, V = (Subspace(rng.integers(0, p, (rng.integers(1, A.dim + 1), A.dim)), A.dim, p) for _ in "UV")
        assert A.subspace_product(U, V) == product_by_einsum(A, U, V)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_powers_of_a_chain_that_never_settles(p):
    # in F_p[C_3], span(e_1)^k = span(e_{k mod 3}): no power is fixed by
    # span(e_1), so only the bound of dim + 2 powers ends the chain
    A = cyclic_group_algebra(p, 3)
    V = Subspace([unit_vec(3, 1)], 3, p)
    assert list(A.powers(V)) == [Subspace([unit_vec(3, k % 3)], 3, p) for k in range(1, 6)]
    assert not A.is_nilpotent_subspace(V)


def test_powers_stop_at_the_first_fixed_power():
    A = truncated_polynomial_algebra(2, 4)
    x = Subspace([unit_vec(4, 1)], 4, 2)
    assert [P.dim for P in A.powers(x)] == [1, 1, 1, 0]  # x, x^2, x^3, 0
    T2 = upper_triangular_algebra(2, 2)
    M = Subspace([unit_vec(3, 0), unit_vec(3, 1)], 3, 2)  # M^2 = M
    assert list(T2.powers(M)) == [M]
