"""Reduced norm, symbol map, valuation, and Serre twist membership."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylkit.norm
from weylkit.commpoly import CommPoly, Packing, exact_div
from weylkit.errors import (
    IncompleteSearchError,
    InternalInconsistencyError,
    InvalidFormError,
    TooLargeError,
)
from weylkit.norm import (
    SECTIONS_BUDGET,
    check_norm_symbol_diagram,
    det_poly,
    global_twist_sections,
    left_mult_matrix,
    ord_at_H_dagger,
    principal_symbol,
    reduced_norm,
    twist_membership,
)
from weylkit.presentations import NCPoly
from weylkit.weylalg import pbw_monomials, validate_symplectic, weyl_presentation


# -- determinant oracles --------------------------------------------------------


def _det_cofactor(M) -> CommPoly:
    """Oracle: the determinant by expansion along the first row."""
    size = len(M)
    proto = M[0][0]
    if size == 1:
        return M[0][0]
    total = CommPoly.zero(proto.p, proto.nvars, proto.family)
    for j in range(size):
        if M[0][j].is_zero():
            continue
        minor = [[M[r][c] for c in range(size) if c != j] for r in range(1, size)]
        term = M[0][j] * _det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _exact_div_tuples(f: CommPoly, g: CommPoly) -> CommPoly:
    """Oracle: exact division on exponent tuples, leading term by max()."""
    p = f.p
    gm = max(g.terms, key=lambda m: (sum(m), m))
    gc_inv = pow(g.terms[gm], -1, p)
    rem = dict(f.terms)
    quot = {}
    while rem:
        m = max(rem, key=lambda m: (sum(m), m))
        q = tuple(a - b for a, b in zip(m, gm))
        if any(e < 0 for e in q):
            raise InternalInconsistencyError("exact division failed")
        qc = rem[m] * gc_inv % p
        quot[q] = (quot.get(q, 0) + qc) % p
        for mg, cg in g.terms.items():
            mm = tuple(a + b for a, b in zip(q, mg))
            v = (rem.get(mm, 0) - qc * cg) % p
            if v:
                rem[mm] = v
            else:
                rem.pop(mm, None)
    return CommPoly(quot, p, f.nvars, f.family)


def _det_bareiss_tuples(M) -> CommPoly:
    """Oracle: dense Bareiss over CommPoly entries, every row rescaled at
    every step, with the tuple-keyed division above."""
    proto = M[0][0]
    p, nv, fam = proto.p, proto.nvars, proto.family
    size = len(M)
    m = [row[:] for row in M]
    sign = 1
    prev = CommPoly.const(1, p, nv, fam)
    for k in range(size - 1):
        if m[k][k].is_zero():
            piv = next((r for r in range(k + 1, size) if not m[r][k].is_zero()), None)
            if piv is None:
                return CommPoly.zero(p, nv, fam)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = _exact_div_tuples(num, prev)
            m[i][k] = CommPoly.zero(p, nv, fam)
        prev = m[k][k]
    det = m[size - 1][size - 1]
    return det if sign == 1 else -det


class GFExt:
    """GF(p^m) with elements as coefficient tuples mod an irreducible poly."""

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.modulus = self._find_irreducible(p, m)
        self.zero = (0,) * m
        self.one = (1,) + (0,) * (m - 1)

    @staticmethod
    def _find_irreducible(p, m):
        # brute force over monic degree-m polynomials; fine for small p, m
        for tail in itertools.product(range(p), repeat=m):
            coeffs = list(tail) + [1]  # low-to-high
            if GFExt._is_irreducible(coeffs, p):
                return tuple(coeffs)
        raise InternalInconsistencyError("no irreducible polynomial found")

    @staticmethod
    def _poly_mod(a, mod, p):
        a = list(a)
        dm = len(mod) - 1
        while len(a) > dm:
            lead = a[-1] % p
            if lead:
                shift = len(a) - 1 - dm
                for i, c in enumerate(mod):
                    a[shift + i] = (a[shift + i] - lead * c) % p
            a.pop()
        while len(a) < dm:
            a.append(0)
        return [c % p for c in a]

    @staticmethod
    def _is_irreducible(coeffs, p):
        # trial division by every monic polynomial of degree <= m/2
        m = len(coeffs) - 1
        if m == 1:
            return True
        for d in range(1, m // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                div = list(tail) + [1]
                if GFExt._poly_rem_is_zero(list(coeffs), div, p):
                    return False
        return True

    @staticmethod
    def _poly_rem_is_zero(a, b, p):
        while len(a) >= len(b):
            lead = a[-1] % p
            if lead:
                shift = len(a) - len(b)
                for i, c in enumerate(b):
                    a[shift + i] = (a[shift + i] - lead * c) % p
            a.pop()
        return all(c % p == 0 for c in a)

    @staticmethod
    def _mul_mod(a, b, mod, p):
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
        return GFExt._poly_mod(out, mod, p)

    def embed(self, c: int):
        return (c % self.p,) + (0,) * (self.m - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return tuple(self._mul_mod(list(a), list(b), self.modulus, self.p))

    def pow(self, a, e):
        out = self.one
        base = a
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def inv(self, a):
        # a^(p^m - 2)
        if a == self.zero:
            raise ZeroDivisionError
        return self.pow(a, self.p**self.m - 2)

    def random_element(self, rng: random.Random):
        return tuple(rng.randrange(self.p) for _ in range(self.m))

    def evaluate(self, f: CommPoly, point):
        """f at a point of GF(p^m)^nvars."""
        total = self.zero
        for m, c in f.terms.items():
            v = self.embed(c)
            for x, e in zip(point, m):
                v = self.mul(v, self.pow(x, e))
            total = self.add(total, v)
        return total

    def det(self, mat):
        """Determinant over GF(p^m) by Gaussian elimination."""
        m = [row[:] for row in mat]
        size = len(m)
        det = self.one
        for c in range(size):
            piv = next((r for r in range(c, size) if m[r][c] != self.zero), None)
            if piv is None:
                return self.zero
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = self.mul(det, self.embed(-1))
            det = self.mul(det, m[c][c])
            inv = self.inv(m[c][c])
            for r in range(c + 1, size):
                if m[r][c] == self.zero:
                    continue
                f = self.mul(m[r][c], inv)
                for cc in range(c, size):
                    m[r][cc] = self.sub(m[r][cc], self.mul(f, m[c][cc]))
        return det


def det_cross_check(M, det: CommPoly, trials: int = 3, seed: int = 0) -> bool:
    """Oracle: probe a symbolic determinant at random points of GF(p^m) with
    p^m > 2 * size * max entry degree."""
    proto = M[0][0]
    p = proto.p
    size = len(M)
    maxdeg = max((0 if e.is_zero() else int(e.degree()) for row in M for e in row), default=0)
    target = 2 * size * max(maxdeg, 1) + 1
    m = 1
    while p**m < target:
        m += 1
    field = GFExt(p, m)
    rng = random.Random(seed)
    for _ in range(trials):
        point = [field.random_element(rng) for _ in range(proto.nvars)]
        numeric = field.det([[field.evaluate(e, point) for e in row] for row in M])
        if numeric != field.evaluate(det, point):
            return False
    return True


def weyl(p, n):
    return weyl_presentation(p, n)


def random_element(A, rng, max_degree=2, max_terms=3):
    P = A.presentation
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        m = [0] * P.ngens
        for _ in range(rng.randrange(0, max_degree + 1)):
            m[rng.randrange(P.ngens)] += 1
        terms[tuple(m)] = rng.randrange(1, P.p)
    x = NCPoly(terms, P.p)
    return x if not x.is_zero() else P.one()


def random_h(p, n, rng):
    """A random non-degenerate skew-symmetric 2n x 2n matrix over F_p."""
    while True:
        h = [[0] * (2 * n) for _ in range(2 * n)]
        for i, j in itertools.combinations(range(2 * n), 2):
            h[i][j] = rng.randrange(p)
            h[j][i] = -h[i][j] % p
        try:
            return validate_symplectic(h, p)
        except InvalidFormError:
            continue


# -- left_mult_matrix ---------------------------------------------------------


def test_left_mult_identity():
    A = weyl(2, 1)
    M = left_mult_matrix(A.presentation.one(), A)
    one = CommPoly.const(1, 2, 2)
    zero = CommPoly.zero(2, 2)
    for i in range(4):
        for j in range(4):
            assert M[i][j] == (one if i == j else zero)


def test_left_mult_central_scalar():
    for p, n in ((2, 1), (3, 1)):
        A = weyl(p, n)
        M = left_mult_matrix(A.presentation.gen(0, p), A)
        x1 = CommPoly.var(0, p, 2 * n)
        size = p ** (2 * n)
        for i in range(size):
            for j in range(size):
                expect = x1 if i == j else CommPoly.zero(p, 2 * n)
                assert M[i][j] == expect


def test_left_mult_gamma1_p2n1_oracle():
    # basis order (0,0),(0,1),(1,0),(1,1); g1*g^a expanded by hand:
    # g1*1 = g1; g1*g2 = g1 g2; g1*g1 = x1; g1*(g1 g2) = x1 g2
    A = weyl(2, 1)
    M = left_mult_matrix(A.presentation.gen(0), A)
    basis = pbw_monomials(2, 2)
    assert basis == [(0, 0), (0, 1), (1, 0), (1, 1)]
    x1 = CommPoly.var(0, 2, 2)
    one = CommPoly.const(1, 2, 2)
    zero = CommPoly.zero(2, 2)
    want = [
        [zero, zero, x1, zero],
        [zero, zero, zero, x1],
        [one, zero, zero, zero],
        [zero, one, zero, zero],
    ]
    assert M == want


# -- determinants -------------------------------------------------------------


def test_det_small_examples():
    one = CommPoly.const(1, 2, 2)
    zero = CommPoly.zero(2, 2)
    x1 = CommPoly.var(0, 2, 2)
    assert det_poly([[one, zero], [zero, one]]) == one
    assert det_poly([[x1, zero], [zero, x1]]) == x1 * x1
    A = weyl(2, 1)
    M = left_mult_matrix(A.presentation.gen(0), A)
    assert det_poly(M) == x1 * x1
    assert _det_cofactor(M) == x1 * x1


def _random_sparse_matrix(rng, p, nv, size):
    """Sparse multi-term entries; some matrices get a zero leading column
    entry (a row swap) or a repeated row (singular)."""
    def entry():
        if rng.random() < 0.4:
            return CommPoly.zero(p, nv)
        terms = {
            tuple(rng.randrange(3) for _ in range(nv)): rng.randrange(1, p)
            for _ in range(rng.randrange(1, 4))
        }
        return CommPoly(terms, p, nv)

    M = [[entry() for _ in range(size)] for _ in range(size)]
    shape = rng.randrange(3)
    if shape == 1 and size > 1:
        M[0][0] = CommPoly.zero(p, nv)
    elif shape == 2 and size > 1:
        M[-1] = M[0][:]
    return M


def test_bareiss_matches_cofactor_random():
    rng = random.Random(9)
    seen = {"swap": 0, "singular": 0}
    for p, nv, size in itertools.product((2, 3, 5, 7), (1, 2, 3, 4), range(1, 7)):
        for _ in range(3 if size < 6 else 1):
            M = _random_sparse_matrix(rng, p, nv, size)
            det = det_poly(M)
            assert det == _det_cofactor(M)
            seen["swap"] += size > 1 and M[0][0].is_zero() and any(
                not M[r][0].is_zero() for r in range(size))
            seen["singular"] += det.is_zero()
    assert seen["swap"] > 20 and seen["singular"] > 20


@pytest.mark.parametrize("p,n,count", [(2, 1, 12), (3, 1, 12), (5, 1, 6), (7, 1, 3), (2, 2, 6)])
@pytest.mark.parametrize("h", ["standard", "random"])
def test_det_poly_matches_tuple_bareiss(p, n, count, h):
    rng = random.Random(100 * p + n)
    A = weyl_presentation(p, n, None if h == "standard" else random_h(p, n, rng))
    for _ in range(count):
        M = left_mult_matrix(random_element(A, rng), A)
        assert det_poly(M) == _det_bareiss_tuples(M)


def test_det_poly_pivots_on_the_fewest_terms(monkeypatch):
    # 4·g1² + 2·g1 + 4·g2² at (5,1): pivoting on the first non-zero row swells
    # the minors to 129-term numerators and about 198,000 term products; the
    # fewest-term pivot needs about 15,000 for the same 4-term determinant.
    products = []
    mul_sub = weylkit.norm.mul_sub

    def counting(a, b, c, d, p):
        products.append(len(a or ()) * len(b or ()) + len(c or ()) * len(d or ()))
        return mul_sub(a, b, c, d, p)

    monkeypatch.setattr(weylkit.norm, "mul_sub", counting)
    A = weyl(5, 1)
    s = NCPoly({(2, 0): 4, (1, 0): 2, (0, 2): 4}, 5)
    M = left_mult_matrix(s, A)
    det = det_poly(M)
    assert sum(products) < 40_000
    assert det == _det_bareiss_tuples(M)
    assert reduced_norm(s, A).format() == "4 + 2*x1 + 4*x2^2 + 4*x1^2"


def test_det_interpolation_cross_check():
    A = weyl(2, 1)
    for s in (A.presentation.gen(0), A.presentation.gen(1)):
        M = left_mult_matrix(s, A)
        assert det_cross_check(M, det_poly(M), trials=4, seed=1)


# -- the packed kernel -----------------------------------------------------------


@st.composite
def quotient_and_divisor(draw):
    p = draw(st.sampled_from((2, 3, 5, 7)))
    nv = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 3)] * nv)

    def poly(min_size):
        terms = draw(st.dictionaries(mono, st.integers(1, p - 1), min_size=min_size, max_size=5))
        return CommPoly(terms, p, nv)

    return poly(0), poly(1)


@settings(max_examples=200, deadline=None)
@given(quotient_and_divisor())
def test_exact_div_inverts_mul(qg):
    q, g = qg
    assert exact_div(q * g, g) == q


@settings(max_examples=200, deadline=None)
@given(quotient_and_divisor(), st.integers(1, 6))
def test_exact_div_rejects_non_multiple(qg, c):
    # g of degree >= 1 cannot divide q*g + c for a constant c != 0
    q, g = qg
    if g.degree() < 1:
        g = g * CommPoly.var(0, g.p, g.nvars)
    f = q * g + CommPoly.const(1 + c % (g.p - 1), g.p, g.nvars)
    with pytest.raises(InternalInconsistencyError, match="exact division failed"):
        exact_div(f, g)


@st.composite
def monomials_at_bound(draw):
    """A degree bound and two monomials under it, the second of degree
    exactly the bound."""
    nv = draw(st.integers(1, 4))
    degree = draw(st.integers(0, 70))

    def mono():
        m = []
        for e in draw(st.lists(st.integers(0, degree), min_size=nv, max_size=nv)):
            m.append(min(e, degree - sum(m)))
        return tuple(m)

    a, b = mono(), mono()
    return degree, a, b[:-1] + (degree - sum(b[:-1]),)


def _key(pk, m):
    (key,) = pk.pack(CommPoly({m: 1}, 2, len(m)))
    return key


@settings(max_examples=300, deadline=None)
@given(monomials_at_bound())
def test_packing_order_round_trip_and_division(dab):
    degree, a, b = dab
    pk = Packing(len(a), degree)
    ka, kb = _key(pk, a), _key(pk, b)
    assert (ka < kb) == ((sum(a), a) < (sum(b), b))
    assert (ka == kb) == (a == b)
    for m, key in ((a, ka), (b, kb)):
        assert pk.unpack({key: 1}, 2, "x") == CommPoly({m: 1}, 2, len(m))
    for num, den in ((b, a), (a, b)):
        if all(x >= y for x, y in zip(num, den)):
            quot = tuple(x - y for x, y in zip(num, den))
            assert pk.divide({_key(pk, num): 1}, {_key(pk, den): 1}, 2) == {_key(pk, quot): 1}
            assert _key(pk, quot) + _key(pk, den) == _key(pk, num)
        else:
            with pytest.raises(InternalInconsistencyError):
                pk.divide({_key(pk, num): 1}, {_key(pk, den): 1}, 2)


# -- reduced norm -------------------------------------------------------------


def nth_root_frobenius(f: CommPoly, power: int) -> CommPoly:
    """The unique p^power-th root of f when every exponent is divisible by
    p^power; Frobenius fixes the coefficients, which lie in F_p."""
    q = f.p**power
    assert all(e % q == 0 for m in f.terms for e in m), f"{f} is not a p^{power}-th power"
    return CommPoly({tuple(e // q for e in m): c for m, c in f.terms.items()}, f.p, f.nvars)


def norm_by_definition(s, A) -> CommPoly:
    """Oracle: N(s) from its definition det(L_s) = N(s)^(p^n), on the
    p^(2n) x p^(2n) matrix of left multiplication over the center."""
    return nth_root_frobenius(det_poly(left_mult_matrix(s, A)), A.n)


# (h, p, n, elements, max_degree): every (p, n) where the p^(2n) oracle
# finishes; at (3, 2) a random h takes the oracle up to 20 s at degree 2
SPLIT_CASES = [
    (h, p, n, count, 2) for h in ("standard", "random")
    for p, n, count in ((2, 1, 30), (3, 1, 30), (5, 1, 20), (7, 1, 12), (2, 2, 20))
] + [("standard", 3, 2, 12, 2), ("random", 3, 2, 12, 1)]


@pytest.mark.parametrize("h,p,n,count,max_degree", SPLIT_CASES)
def test_split_norm_matches_definition(monkeypatch, h, p, n, count, max_degree):
    # the oracle's determinants are p^n times larger than the norm's budget
    # is set for; the split norm runs under the default budget
    rng = random.Random(1000 * p + n)
    for _ in range(count):
        A = weyl_presentation(p, n, None if h == "standard" else random_h(p, n, rng))
        s = random_element(A, rng, max_degree=max_degree)
        got = reduced_norm(s, A)
        with monkeypatch.context() as m:
            m.setattr(weylkit.norm, "NORM_BUDGET", 10**12)
            assert got == norm_by_definition(s, A), (s, A.h)


def test_darboux_change_carries_the_p2_constant(monkeypatch):
    # g1 + g3 + g4 is a Darboux generator of this h at p = 2, so its norm is
    # x'^2 with x' = (g1 + g3 + g4)^2 = x1 + x3 + x4 + h13 + h14 + h34, where
    # the constant h13 + h14 + h34 = 1 comes from Jacobson's formula
    h = ((0, 0, 1, 1), (0, 0, 0, 1), (1, 0, 0, 1), (1, 1, 1, 0))
    A = weyl_presentation(2, 2, h)
    P = A.presentation
    s = P.gen(0) + P.gen(2) + P.gen(3)
    assert reduced_norm(s, A).format() == "1 + x4^2 + x3^2 + x1^2"
    monkeypatch.setattr(weylkit.norm, "NORM_BUDGET", 10**12)
    rng = random.Random(2)
    for t in [s] + [random_element(A, rng) for _ in range(8)]:
        assert reduced_norm(t, A) == norm_by_definition(t, A), t


def test_reduced_norm_builds_no_left_mult_matrix(monkeypatch):
    def left_mult(s, A):
        raise AssertionError("reduced_norm built the p^(2n) matrix")

    monkeypatch.setattr(weylkit.norm, "left_mult_matrix", left_mult)
    rng = random.Random(6)
    for p, n in ((2, 1), (7, 1), (2, 2), (3, 2), (5, 2)):
        for h in (None, random_h(p, n, rng)):
            A = weyl_presentation(p, n, h)
            s = random_element(A, rng)
            # the degree law deg N(s) = deg(s) p^(n-1), and the square
            assert reduced_norm(s, A).degree() == s.degree() * p ** (n - 1)
            assert check_norm_symbol_diagram(s, A)


@pytest.mark.parametrize("p,n,variable", [(3, 1, 0), (2, 2, 0), (3, 2, 2)])
def test_split_norm_checks_its_exponents(monkeypatch, p, n, variable):
    # det_C(R_s) lies in the center, so its g1, g3 exponents are multiples of
    # p; a g1 or g3 factor slipped into the determinant must be reported
    det = weylkit.norm.det_poly

    def off_center(M):
        return det(M) * CommPoly.var(variable, p, 2 * n)

    monkeypatch.setattr(weylkit.norm, "det_poly", off_center)
    A = weyl(p, n)
    with pytest.raises(InternalInconsistencyError, match="not divisible by p"):
        reduced_norm(A.presentation.gen(1), A)


def test_det_poly_budget(monkeypatch):
    # det_poly charges once per row update; count the same term products
    # call by call: |a||b| + |c||d| per mul_sub, |g||q| per quotient q
    products = []
    mul_sub, divide = weylkit.norm.mul_sub, Packing.divide

    def counting_mul_sub(a, b, c, d, p):
        products.append(len(a or ()) * len(b or ()) + len(c or ()) * len(d or ()))
        return mul_sub(a, b, c, d, p)

    def counting_divide(self, f, g, p):
        q = divide(self, f, g, p)
        products.append(len(g) * len(q))
        return q

    monkeypatch.setattr(weylkit.norm, "mul_sub", counting_mul_sub)
    monkeypatch.setattr(Packing, "divide", counting_divide)
    M = left_mult_matrix(NCPoly({(2, 0): 4, (1, 0): 2, (0, 2): 4}, 5), weyl(5, 1))
    want = det_poly(M)
    spent = sum(products)
    assert spent > 10_000
    monkeypatch.setattr(weylkit.norm, "NORM_BUDGET", spent - 1)
    with pytest.raises(TooLargeError, match=rf"^determinant: budget of NORM_BUDGET = {spent - 1} "
                                            r"term products exceeded at column \d+ of a 25 x 25 matrix$"):
        det_poly(M)
    monkeypatch.setattr(weylkit.norm, "NORM_BUDGET", spent)
    assert det_poly(M) == want


def test_norm_of_one_and_scalars():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        A = weyl(p, n)
        P = A.presentation
        assert reduced_norm(P.one(), A) == CommPoly.const(1, p, 2 * n)
        for c in range(1, p):
            want = CommPoly.const(pow(c, p**n, p), p, 2 * n)
            assert reduced_norm(P.scalar(c), A) == want


def test_norm_of_generators():
    # N(g_i) = x_i^{p^{n-1}}: x_i for n = 1, x_i^2 for (p, n) = (2, 2)
    for p, n in ((2, 1), (3, 1), (2, 2)):
        A = weyl(p, n)
        for i in range(2 * n):
            want = CommPoly.var(i, p, 2 * n, power=p ** (n - 1))
            assert reduced_norm(A.presentation.gen(i), A) == want


@pytest.mark.parametrize("p,n,pairs", [(2, 1, 100), (3, 1, 100), (2, 2, 100)])
def test_norm_multiplicative(p, n, pairs):
    A = weyl(p, n)
    P = A.presentation
    rng = random.Random(1234)
    for _ in range(pairs):
        a = random_element(A, rng)
        b = random_element(A, rng)
        assert reduced_norm(P.multiply(a, b), A) == reduced_norm(a, A) * reduced_norm(b, A)


def test_norm_not_additive_witness():
    found = False
    for p, n in ((2, 1), (3, 1)):
        A = weyl(p, n)
        P = A.presentation
        degree_one = [P.one(), P.gen(0), P.gen(1)]
        for a, b in itertools.product(degree_one, repeat=2):
            lhs = reduced_norm(a + b, A)
            rhs = reduced_norm(a, A) + reduced_norm(b, A)
            if lhs != rhs:
                found = True
        assert found


# -- principal symbol ---------------------------------------------------------


def test_symbol_examples():
    A = weyl(2, 1)
    P = A.presentation
    s = principal_symbol(P.gen(0), A)
    assert (s.degree, s.poly.terms) == (1, {(1, 0): 1})
    s2 = principal_symbol(NCPoly({(1, 1): 1, (1, 0): 1}, 2), A)
    assert (s2.degree, s2.poly.terms) == (2, {(1, 1): 1})
    # g2*g1 normalizes to g1 g2 + 1; the constant drops out of the symbol
    s3 = principal_symbol(P.multiply(P.gen(1), P.gen(0)), A)
    assert (s3.degree, s3.poly.terms) == (2, {(1, 1): 1})
    z = principal_symbol(P.zero(), A)
    assert z.degree is None and z.is_zero()


def test_symbol_multiplicative():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        A = weyl(p, n)
        P = A.presentation
        rng = random.Random(42)
        for _ in range(30):
            a, b = random_element(A, rng), random_element(A, rng)
            sa, sb = principal_symbol(a, A), principal_symbol(b, A)
            sab = principal_symbol(P.multiply(a, b), A)
            assert sab.degree == sa.degree + sb.degree
            assert sab.poly == sa.poly * sb.poly


def test_symbol_kernel_trivial():
    A = weyl(3, 1)
    rng = random.Random(5)
    for _ in range(50):
        s = random_element(A, rng)
        assert not principal_symbol(s, A).is_zero()


# -- diagram ------------------------------------------------------------------


@pytest.mark.parametrize("p,n,trials,max_degree", [(2, 1, 50, 4), (3, 1, 50, 4), (2, 2, 20, 4)])
def test_norm_symbol_diagram(p, n, trials, max_degree):
    A = weyl(p, n)
    rng = random.Random(77)
    for _ in range(trials):
        s = random_element(A, rng, max_degree=max_degree)
        assert check_norm_symbol_diagram(s, A)


def test_diagram_explicit():
    A = weyl(2, 1)
    assert check_norm_symbol_diagram(A.presentation.gen(0), A)
    assert check_norm_symbol_diagram(A.presentation.one(), A)


# -- ord and twists -----------------------------------------------------------


def test_ord_examples():
    p = 3
    assert ord_at_H_dagger(CommPoly.const(1, p, 2)) == 0
    assert ord_at_H_dagger(CommPoly.var(0, p, 2)) == -p
    f = CommPoly({(1, 1): 1, (1, 0): 1}, p, 2)
    assert ord_at_H_dagger(f) == -2 * p
    assert ord_at_H_dagger(CommPoly.zero(p, 2)) == math.inf


def test_ord_valuation_law():
    rng = random.Random(8)
    p = 2
    for _ in range(50):
        f = CommPoly({(rng.randrange(3), rng.randrange(3)): 1}, p, 2)
        g = CommPoly({(rng.randrange(3), rng.randrange(3)): 1}, p, 2)
        assert ord_at_H_dagger(f * g) == ord_at_H_dagger(f) + ord_at_H_dagger(g)


def test_twist_membership_examples():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        A = weyl(p, n)
        P = A.presentation
        assert twist_membership(P.gen(0), 1, A)
        assert twist_membership(P.scalar(1), 0, A)
        assert not twist_membership(P.gen(0), -1, A)


@pytest.mark.parametrize("p", [2, 3])
def test_twist_filtration_law(p):
    A = weyl(p, 1)
    P = A.presentation
    rng = random.Random(99)
    for _ in range(100):
        a = random_element(A, rng)
        b = random_element(A, rng)
        ja = int(reduced_norm(a, A).degree())
        kb = int(reduced_norm(b, A).degree())
        # a in twist(ja), b in twist(kb) by construction (n = 1)
        assert twist_membership(a, ja, A)
        assert twist_membership(b, kb, A)
        assert twist_membership(P.multiply(a, b), ja + kb, A)


def test_twist_minus_p_identity():
    # twist(-p) has no nonzero bounded-degree sections; multiplying by a
    # degree-1 central element shifts membership by exactly -p
    p = 2
    A = weyl(p, 1)
    P = A.presentation
    for m in itertools.product(range(3), repeat=2):
        s = NCPoly({m: 1}, p)
        assert not twist_membership(s, -p, A) or s.is_zero()
    x1_central = P.gen(0, p)  # central of x-degree 1
    rng = random.Random(13)
    for _ in range(20):
        a = random_element(A, rng)
        k = int(reduced_norm(a, A).degree())
        shifted = P.multiply(x1_central, a)
        assert twist_membership(shifted, k + p, A)
        assert not twist_membership(shifted, k + p - 1, A)


# -- global sections ----------------------------------------------------------


def _monomials(nv, degree):
    """Exponent vectors of degree <= `degree` in graded-lex order."""
    monos = [m for m in itertools.product(range(degree + 1), repeat=nv) if sum(m) <= degree]
    return sorted(monos, key=lambda m: (sum(m), m))


def _sections_by_span(k, degree_bound, A):
    """Oracle: test every F_p-combination of the monomials of degree <=
    degree_bound, check that the members form the span of the member
    monomials, and return those monomials."""
    p = A.p
    monos = _monomials(A.ngens, degree_bound)
    members = set()
    for coeffs in itertools.product(range(p), repeat=len(monos)):
        s = NCPoly(dict(zip(monos, coeffs)), p)
        if twist_membership(s, k, A):
            members.add(frozenset(s.terms.items()))
    support = sorted({m for t in members for m, _ in t}, key=lambda m: (sum(m), m))
    assert len(members) == p ** len(support)
    return support


@pytest.mark.parametrize(
    "p,n,k", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2), (5, 1, 1), (2, 2, 1)]
)
def test_sections_match_span_enumeration(p, n, k):
    # bound k: at (2, 2) the default k * p^(n-1) = 2 has 2^15 combinations
    A = weyl(p, n)
    basis = global_twist_sections(k, k, A)
    assert [next(iter(b.terms)) for b in basis] == _sections_by_span(k, k, A)


def test_sections_k1_n1():
    for p in (2, 3):
        A = weyl(p, 1)
        basis = global_twist_sections(1, 1, A)
        monos = sorted(m for b in basis for m in b.terms)
        assert monos == [(0, 0), (0, 1), (1, 0)]


def test_sections_k0_and_negative():
    for p, n in ((2, 1), (3, 1), (2, 2)):
        A = weyl(p, n)
        zero_twist = global_twist_sections(0, 1, A)
        assert [sorted(b.terms) for b in zero_twist] == [[(0,) * 2 * n]]
        assert global_twist_sections(-1, 0, A) == []


def test_sections_k1_n2():
    A = weyl(2, 2)
    gens = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    # bound 1 is below k * p^(n-1) = 2 but not below k, so it is complete
    for bound in (2, 1):
        basis = global_twist_sections(1, bound, A)
        monos = sorted(m for b in basis for m in b.terms)
        assert monos == sorted([(0, 0, 0, 0)] + gens)


def test_sections_degree_bound_guard():
    # incomplete exactly when degree_bound < k
    A = weyl(3, 1)
    for k in (-1, 0, 1, 2):
        with pytest.raises(IncompleteSearchError):
            global_twist_sections(k, k - 1, A)
        assert len(global_twist_sections(k, k, A)) == len(_monomials(2, k))


def test_sections_list_the_degree_law_monomials():
    for n in (1, 2):
        for k in range(8):
            basis = global_twist_sections(k, k, weyl(2, n))
            assert [next(iter(b.terms)) for b in basis] == _monomials(2 * n, k)


@pytest.mark.parametrize("n,k", [(1, 360), (2, 32)])
def test_sections_budget(monkeypatch, n, k):
    # k is the largest level whose C(k + 2n, 2n) monomials fit the budget
    A = weyl(2, n)
    count = math.comb(k + 2 * n, 2 * n)
    assert count <= SECTIONS_BUDGET < math.comb(k + 1 + 2 * n, 2 * n)
    assert len(global_twist_sections(k, k, A)) == count
    with pytest.raises(TooLargeError, match=r"^sections: C\(k \+ 2n, 2n\) = "):
        global_twist_sections(k + 1, k + 1, A)
    # the exact budget lists, one less raises before listing
    monkeypatch.setattr(weylkit.norm, "SECTIONS_BUDGET", count - 1)
    exceeded = rf"= {count} monomials exceed the budget SECTIONS_BUDGET = {count - 1}$"
    with pytest.raises(TooLargeError, match=exceeded):
        global_twist_sections(k, k, A)
    monkeypatch.setattr(weylkit.norm, "SECTIONS_BUDGET", count)
    assert len(global_twist_sections(k, k, A)) == count


def test_sections_compute_no_norm(monkeypatch):
    # the degree law drives the sections; test_sections_match_span_enumeration
    # checks it against the norm
    def norm(s, A):
        raise AssertionError("sections computed a norm")

    monkeypatch.setattr(weylkit.norm, "reduced_norm", norm)
    basis = global_twist_sections(2, 2, weyl(7, 2))
    assert [next(iter(b.terms)) for b in basis] == _monomials(4, 2)
    assert len(basis) == 15
