"""The F_p echelon-and-closure kernel: Subspace.contains, Subspace.closure,
and the restricted action built on them.

The packed echelon kernel behind rref, rank, nullspace and Subspace is
checked against row_loop_rref, a Gaussian elimination on numpy rows that
shares no code with it, at primes whose lanes span every width the kernel
uses (8 to 128 bits); the lane reduction itself is checked value by value.
The stacked elimination, on the same lanes in uint64 words, is checked
against rank per matrix at every lane width up to 64 bits.

closure takes one pass (the images of the basis under the stack, then one
rref), which is the whole closure when the stack is the basis action of a
unital algebra.  Its oracle is the fixed-point loop naive_closure, run on
every kind of stack the library closes under: left and right regular
actions, the two-sided closure, the action on each kernel of a free
resolution and the right action on each Ext group."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylkit.cli import findim_preset, module_preset
from weylkit.errors import InvalidFormError, UnsupportedError
from weylkit.findim import upper_triangular_algebra
from weylkit.homology import (
    FDModule,
    _block_action,
    _restricted_action,
    ext_groups,
    minimal_projective_resolution,
)
from weylkit.linalg_fp import (
    Subspace,
    _lanes,
    _pack,
    _span_stack,
    _stack,
    _unpack,
    nonsingular,
    nonsingular_span,
    nullspace,
    rank,
    rref,
)

PRESETS = ["T2", "T3", "M2", "poly:4", "cyclic:6"]


def solve(mat, rhs, p):
    """One solution x of mat @ x = rhs over F_p, or None (the oracle)."""
    mat = np.atleast_2d(np.array(mat, dtype=np.int64)) % p
    rhs = np.array(rhs, dtype=np.int64) % p
    aug = np.hstack([mat, rhs.reshape(-1, 1)])
    r, pivots = rref(aug, p)
    cols = mat.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, cols]
    return x


@st.composite
def rows_and_vector(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(1, 6))
    k = draw(st.integers(0, 5))
    entry = st.integers(-p, 2 * p)
    rows = draw(st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=k, max_size=k))
    # a combination of the rows, perturbed or not, so both answers occur
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k))
    shift = draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=dim, max_size=dim))
    B = np.array(rows, dtype=np.int64).reshape(k, dim)
    v = (np.array(coeffs, dtype=np.int64) @ B + np.array(shift)) if k else np.array(shift)
    return p, dim, B, v


@settings(max_examples=300, deadline=None)
@given(rows_and_vector())
def test_contains_agrees_with_rank(case):
    p, dim, B, v = case
    S = Subspace(B, dim, p)
    expected = rank(np.vstack([B, v]), p) == rank(B, p)
    assert S.contains(v) == expected
    assert S.contains_space(Subspace([v], dim, p)) == expected


@st.composite
def subspace_and_rows(draw):
    """A subspace (possibly zero) and rows to extend it by: random rows, zero
    rows, combinations of its basis and coordinate vectors, so that results
    in the span, strictly larger and of full rank all occur."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(1, 6))
    vector = st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim)
    S = Subspace(np.array(draw(st.lists(vector, max_size=5)), dtype=np.int64).reshape(-1, dim), dim, p)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "span", "unit"]), max_size=6)):
        if kind == "random":
            rows.append(draw(vector))
        elif kind == "zero":
            rows.append([0] * dim)
        elif kind == "span":
            coeffs = draw(st.lists(st.integers(0, p - 1), min_size=S.dim, max_size=S.dim))
            rows.append(np.array(coeffs, dtype=np.int64) @ S.basis % p)
        else:
            rows.append(np.eye(dim, dtype=np.int64)[draw(st.integers(0, dim - 1))])
    return S, np.array(rows, dtype=np.int64).reshape(-1, dim)


@settings(max_examples=300, deadline=None)
@given(subspace_and_rows())
@example((Subspace([], 3, 2), np.array([[1, 0, 1], [1, 1, 0]])))  # from zero
@example((Subspace([[1, 2, 0]], 3, 3), np.zeros((2, 3), dtype=np.int64)))  # zero rows
@example((Subspace([[1, 2, 0], [0, 1, 4]], 3, 5), np.array([[2, 4, 0], [1, 3, 4]])))  # in the span
@example((Subspace([[0, 1, 3]], 3, 7), np.eye(3, dtype=np.int64)))  # full rank
def test_extend_matches_echelon_of_the_stack(case):
    S, rows = case
    expected = Subspace(np.vstack([S.basis, rows]), S.ambient_dim, S.p)
    extended = S.extend(rows)
    assert extended == expected and extended.pivots == expected.pivots
    if expected.dim == S.dim:
        assert extended is S


# primes whose stacked lanes span every width (8, 16, 32 and 64 bits)
STACK_PRIMES = [2, 3, 5, 7, 13, 251, 65521]


@st.composite
def square_stacks(draw):
    """A stack of d x d matrices over F_p, possibly empty: random ones, and
    zero, identity and rank-deficient ones (the last row a combination of
    the others), with entries outside [0, p) too.  d runs up to 12 at p = 2,
    where rows of more than 8 lanes take two words."""
    p = draw(st.sampled_from(STACK_PRIMES))
    d = draw(st.integers(1, 12 if p == 2 else 6))
    entries = st.lists(st.integers(-p, 2 * p), min_size=d * d, max_size=d * d)
    stack = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "identity", "deficient"]), max_size=8)):
        m = np.array(draw(entries), dtype=np.int64).reshape(d, d)
        if kind == "zero":
            m[:] = 0
        elif kind == "identity":
            m = np.eye(d, dtype=np.int64)
        elif kind == "deficient":
            coeffs = draw(st.lists(st.integers(0, p - 1), min_size=d - 1, max_size=d - 1))
            m[-1] = np.array(coeffs, dtype=np.int64) @ m[:-1]
        stack.append(m)
    return p, d, np.array(stack, dtype=np.int64).reshape(-1, d, d)


@settings(max_examples=300, deadline=None)
@given(square_stacks())
@example((2, 1, np.array([[[0]], [[1]], [[3]]])))  # d = 1
@example((3, 2, np.array([[[1, 2], [2, 1]], [[1, 2], [2, 4]], [[0, 1], [1, 0]]])))  # singular, swap
@example((7, 3, np.array([np.eye(3, dtype=np.int64), np.zeros((3, 3), dtype=np.int64)])))
@example((2, 12, np.array([np.eye(12, dtype=np.int64)[::-1], np.eye(12, dtype=np.int64)[[0] * 12]])))  # two words
@example((65521, 2, np.array([[[65520, 1], [1, 65520]], [[2, 3], [65519, 65518]]])))  # singular, then invertible
@example((13, 3, np.zeros((0, 3, 3), dtype=np.int64)))  # no matrices
def test_nonsingular_agrees_with_rank(case):
    p, d, stack = case
    assert list(nonsingular(stack, p)) == [rank(m, p) == d for m in stack]


def unstack(words, n, p):
    """A stack of rows of n entries from its uint64 words, each row read as
    one little-endian int and unpacked as a packed row."""
    rows = [int.from_bytes(row.tobytes(), "little") for row in words.reshape(-1, words.shape[-1])]
    return _unpack(rows, n, p).reshape(*words.shape[:-1], n)


@pytest.mark.parametrize("p", STACK_PRIMES)
def test_stacked_rows_are_packed_rows(p):
    rng = np.random.default_rng(p)
    for n in (1, 4, 8, 9, 12):
        mats = rng.integers(0, p, (3, 5, n))
        words = _stack(mats, p)
        for mat, rows in zip(mats, words):
            assert [int.from_bytes(row.tobytes(), "little") for row in rows] == _pack(mat, p)
        assert np.array_equal(unstack(words, n, p), mats)


def test_stacked_lanes_fit_one_word():
    # 65537 is the least prime whose lane (128 bits) is wider than a word
    assert _lanes(65521, 0)[0] == 64
    with pytest.raises(UnsupportedError, match="64-bit word"):
        nonsingular(np.eye(2, dtype=np.int64)[None], 65537)


@st.composite
def matrix_spans(draw):
    """k square matrices over F_p, with p^k <= 343 combinations."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(0, {2: 8, 3: 5, 5: 3, 7: 3}[p]))
    r = draw(st.integers(1, 10 if p == 2 else 5))
    entries = st.lists(st.integers(-p, 2 * p), min_size=k * r * r, max_size=k * r * r)
    return p, np.array(draw(entries), dtype=np.int64).reshape(k, r, r)


@settings(max_examples=100, deadline=None)
@given(matrix_spans())
def test_span_stack_is_every_combination(case):
    # entry c of the table is sum_i c_i mats[i] for the base-p digits c_i of c
    p, mats = case
    k, r = mats.shape[:2]
    digits = np.arange(p**k)[:, None] // p ** np.arange(k) % p
    combos = np.einsum("ci,irs->crs", digits, mats) % p
    assert np.array_equal(unstack(_span_stack(mats, p), r, p), combos)
    assert list(nonsingular_span(mats, p)) == [rank(m, p) == r for m in combos]


def naive_closure(vectors, images, dim, p):
    """Reference fixed-point loop: add the images of every basis vector
    until the dimension stops growing."""
    span = Subspace(vectors, dim, p)
    while True:
        new = list(span.basis) + [w % p for v in span.basis for w in images(v)]
        grown = Subspace(new, dim, p)
        if grown.dim == span.dim:
            return grown
        span = grown


def start_vectors(A):
    rng = np.random.default_rng(A.dim * A.p)
    yield from np.eye(A.dim, dtype=np.int64)
    yield from rng.integers(0, A.p, size=(3, A.dim))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("preset", PRESETS)
def test_closure_matches_naive_loop(preset, p):
    A = findim_preset(preset, p)
    basis = np.eye(A.dim, dtype=np.int64)
    left = lambda v: [A.mul(e, v) for e in basis]
    two_sided = lambda v: left(v) + [A.mul(v, e) for e in basis]
    for v in start_vectors(A):
        assert Subspace([v], A.dim, p).closure(A.mult_ops("left")) == naive_closure(
            [v], left, A.dim, p
        )
        assert A.two_sided_ideal([v]) == naive_closure([v], two_sided, A.dim, p)
        for side in ("left", "right"):
            ops = A.mult_ops(side)
            acts = lambda w: [X @ w for X in ops]
            assert Subspace([v], A.dim, p).closure(ops) == naive_closure([v], acts, A.dim, p)


def module_stacks(A, M):
    """The actions on the kernels of M's free resolution (submodules of free
    modules) and the right actions on the non-zero Ext^i(M, A)."""
    p = A.p
    # stages 0..2, from a resolution one stage longer so Ext^2 has its cocycles
    res = minimal_projective_resolution(M, A, 3)
    ranks = res.ranks[:3]
    kernels = [nullspace(D, p) for D in [res.eps] + res.diffs]
    exts = [ext_groups(M, A, i, res) for i in range(len(ranks))]
    kernel_actions = [
        _restricted_action(_block_action(A, r), K, p)
        for r, K in zip(ranks, kernels)
        if K.shape[0]
    ]
    return kernel_actions, [E.action for E in exts if E.dim]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("preset", PRESETS)
def test_closure_matches_naive_loop_on_kernel_and_ext_actions(preset, p):
    A = findim_preset(preset, p)
    rng = np.random.default_rng(A.dim * p)
    kernel_stacks, ext_stacks = [], []
    for mod in ("top", "regular"):
        kernels, exts = module_stacks(A, module_preset(mod, A))
        kernel_stacks += kernels
        ext_stacks += exts
    # M2 is semisimple, so its modules are projective and have no kernels
    assert bool(kernel_stacks) == (preset != "M2") and ext_stacks
    for ops in kernel_stacks + ext_stacks:
        m = ops.shape[1]
        acts = lambda w: [X @ w for X in ops]
        starts = [[v] for v in np.eye(m, dtype=np.int64)]
        starts += [list(rng.integers(0, p, size=(k, m))) for k in (1, 2)]
        for vs in starts:
            assert Subspace(vs, m, p).closure(ops) == naive_closure(vs, acts, m, p)


def test_closure_of_zero_and_whole_space():
    A = findim_preset("T3", 3)
    ops = A.mult_ops("left")
    assert Subspace([], A.dim, 3).closure(ops).is_zero()
    assert A.two_sided_ideal([A.unit]).dim == A.dim


def test_restricted_action_matches_solve():
    A = upper_triangular_algebra(3, 3)
    M = FDModule.regular(A)
    # the left ideal A e_{13} + A e_{23} (columns 3), in a non-echelon basis
    cols = Subspace(np.eye(A.dim, dtype=np.int64)[[2, 4, 5]], A.dim, 3).closure(M.action)
    basis = np.array([[1, 2], [1, 1]]) @ cols.basis[:2] % 3
    basis = np.vstack([basis, cols.basis[2:]])
    mats = _restricted_action(M.action, basis, 3)
    for i, b in itertools.product(range(A.dim), range(basis.shape[0])):
        image = M.action[i] @ basis[b] % 3
        assert np.array_equal(mats[i, :, b], solve(basis.T, image, 3))


def test_restricted_action_rejects_unstable_span():
    A = upper_triangular_algebra(2, 2)  # basis e11, e12, e22
    M = FDModule.regular(A)
    e22 = np.array([[0, 0, 1]], dtype=np.int64)  # e12 * e22 = e12 leaves F e22
    with pytest.raises(InvalidFormError):
        _restricted_action(M.action, e22, 2)
    e11 = np.array([[1, 0, 0]], dtype=np.int64)  # A e11 = F e11
    assert _restricted_action(M.action, e11, 2).shape == (A.dim, 1, 1)


# -- the packed echelon kernel against a numpy row loop -----------------------

# every lane width: 8 bits (2, 3), 16 (5..13), 64 (257, 65521), 128 (2^31 - 1)
PRIMES = [2, 3, 5, 7, 11, 13, 257, 65521, 2**31 - 1]


def row_loop_rref(mat, p):
    """Oracle: reduced row echelon form mod p by a row loop on numpy arrays;
    returns (rref, pivot columns).  Entries stay below p < 2^31, so every
    product fits in int64."""
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        piv = next((rr for rr in range(r, rows) if m[rr, c]), None)
        if piv is None:
            continue
        m[[r, piv]] = m[[piv, r]]
        m[r] = m[r] * pow(int(m[r, c]), -1, p) % p
        for rr in range(rows):
            if rr != r and m[rr, c]:
                m[rr] = (m[rr] - m[rr, c] * m[r]) % p
        pivots.append(c)
        r += 1
    return m[: len(pivots)], pivots


def row_loop_nullspace(mat, p):
    """Oracle: the nullspace basis with one row per free column f of the
    RREF, 1 at f and minus the RREF's column f at the pivot columns."""
    r, pivots = row_loop_rref(mat, p)
    cols = np.shape(mat)[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -r[:, free].T % p
    return basis


@st.composite
def matrices(draw, p=None, cols=None):
    """A k x cols matrix over F_p with entries outside [0, p) too, possibly
    with no rows, zero rows and rows that combine earlier ones."""
    p = draw(st.sampled_from(PRIMES)) if p is None else p
    cols = draw(st.integers(1, 8)) if cols is None else cols
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "random", "zero", "combination"]), max_size=7)):
        if kind == "random" or not rows:
            rows.append(draw(st.lists(st.integers(-p, 2 * p), min_size=cols, max_size=cols)))
        elif kind == "zero":
            rows.append([0] * cols)
        else:
            coeffs = draw(st.lists(st.integers(0, p - 1), min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(cols)])
    return p, np.array(rows, dtype=np.int64).reshape(len(rows), cols)


@settings(max_examples=400, deadline=None)
@given(matrices())
@example((3, np.zeros((0, 4), dtype=np.int64)))  # 0 x k
@example((65521, np.array([[0], [65521], [-2], [5]])))  # k x 1
@example((2**31 - 1, np.array([[2**31 - 2, 1, 0], [-1, 2**32, 7]])))
def test_rref_rank_nullspace_match_the_row_loop(case):
    p, mat = case
    expected, pivots = row_loop_rref(mat, p)
    echelon, got = rref(mat, p)
    assert got == pivots and echelon.shape == expected.shape and np.array_equal(echelon, expected)
    assert rank(mat, p) == len(pivots)
    if len(mat):
        assert np.array_equal(nullspace(mat, p), row_loop_nullspace(mat, p))


@st.composite
def subspace_pairs(draw):
    """Two spans in one F_p^dim: unrelated, equal in another basis, or the
    second inside the first."""
    p, A = draw(matrices())
    dim = A.shape[1]
    kind = draw(st.sampled_from(["other", "same", "inside"]))
    if kind == "other":
        B = draw(matrices(p, dim))[1]
    else:
        coeffs = np.array(draw(st.lists(st.integers(0, p - 1), min_size=len(A) * len(A), max_size=len(A) * len(A))))
        B = (coeffs.reshape(len(A), len(A)).astype(object) @ A.astype(object)) % p  # no int64 overflow at 2^31 - 1
        B = np.vstack([B.astype(np.int64), A]) if kind == "same" else B.astype(np.int64).reshape(-1, dim)
    return p, dim, A, B


@settings(max_examples=400, deadline=None)
@given(subspace_pairs())
@example((2, 3, np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3), dtype=np.int64)))
@example((7, 1, np.array([[3]]), np.array([[0], [6]])))
def test_subspace_matches_the_row_loop(case):
    p, dim, A, B = case
    S, T = Subspace(A, dim, p), Subspace(B, dim, p)
    (EA, PA), (EB, PB) = row_loop_rref(A, p), row_loop_rref(B, p)
    assert np.array_equal(S.basis, EA) and S.pivots == PA and S.dim == len(PA)
    same = PA == PB and np.array_equal(EA, EB)
    assert (S == T) == same and (S.key() == T.key()) == same
    if same:
        assert hash(S) == hash(T)
    both, pivots = row_loop_rref(np.vstack([A, B]), p)
    extended = S.extend(B)
    assert np.array_equal(extended.basis, both) and extended.pivots == pivots
    assert (extended is S) == (len(pivots) == S.dim)
    assert S.add(T) == extended
    assert S.contains_space(T) == (len(pivots) == S.dim)
    assert all(S.contains(v) == (len(row_loop_rref(np.vstack([A, v]), p)[1]) == S.dim) for v in B)


def low_rank(rng, p, size, r):
    """A seeded size x size matrix of rank at most r."""
    return rng.integers(0, p, size=(size, r)) @ rng.integers(0, p, size=(r, size)) % p


@pytest.mark.parametrize("p,size,r", [(2, 100, 70), (3, 81, 60), (5, 64, 64), (7, 49, 30), (7, 100, 90)])
def test_large_matrices_match_the_row_loop(p, size, r):
    rng = np.random.default_rng(p * size)
    mat = low_rank(rng, p, size, r)
    expected, pivots = row_loop_rref(mat, p)
    echelon, got = rref(mat, p)
    assert got == pivots and np.array_equal(echelon, expected)
    assert np.array_equal(nullspace(mat, p), row_loop_nullspace(mat, p))
    half = Subspace(mat[: size // 2], size, p)
    whole = half.extend(mat[size // 2 :])
    assert np.array_equal(whole.basis, expected) and whole == Subspace(mat, size, p)
    assert whole.contains_space(half) and half.contains_space(whole) == (half.dim == whole.dim)


@pytest.mark.parametrize("p", [q for q in PRIMES if q > 2])
def test_lane_reduction_is_exact(p):
    """Every lane value the kernel forms reduces to x mod p, and x*m fits in
    its lane.  A row update x + (p - f)*b leaves lanes <= (p - 1) + (p - 1)^2
    = p^2 - p, and a scaling <= (p - 1)^2, so X = p^2 - p is the largest.

    With m*p = 2^s + e, floor(x*m / 2^s) = floor(x / p) exactly when
    x mod p + x*e / 2^s < p; for one residue this grows with x, so the
    largest x of each residue is the hardest case, and X*e < 2^s settles
    every x <= X at once.  The values are put through the kernel's own
    reduction, n to a packed row: every x <= X for p <= 257, and the
    largest x of each residue at p = 65521 (65,521 values); at 2^31 - 1,
    where that is 2^31 values, the 4,096 largest and smallest."""
    n = 64
    W, s, m, Q, lane = _lanes(p, n)
    X = p * p - p
    e = m * p - (1 << s)
    assert p**3 <= 1 << s and 0 <= e < p and X * e < 1 << s and X * m < 1 << W
    if p <= 257:
        xs = list(range(X + 1))
    elif p == 65521:
        xs = list(range(X - p + 1, X + 1))
    else:
        xs = list(range(4096)) + list(range(X - 4095, X + 1))
    xs += [0] * (-len(xs) % n)
    for i in range(0, len(xs), n):
        chunk = xs[i : i + n]
        x = sum(v << j * W for j, v in enumerate(chunk))
        assert x * m < 1 << n * W
        reduced = x - (x * m >> s & Q) * p
        assert _unpack([reduced], n, p)[0].tolist() == [v % p for v in chunk]
