"""Reduced norm, symbol map, valuation, and Serre twist membership."""

import itertools
import math
import random

import pytest

from weylkit.commpoly import CommPoly
from weylkit.errors import IncompleteSearchError
from weylkit.norm import (
    check_norm_symbol_diagram,
    det_cross_check,
    det_poly,
    global_twist_sections,
    left_mult_matrix,
    ord_at_H_dagger,
    principal_symbol,
    reduced_norm,
    twist_membership,
)
from weylkit.presentations import NCPoly
from weylkit.weylalg import pbw_monomials, weyl_presentation


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


def test_bareiss_matches_cofactor_random():
    rng = random.Random(9)
    for p, size in itertools.product((2, 3, 5), range(1, 6)):
        for _ in range(6):
            M = [
                [
                    CommPoly(
                        {
                            (rng.randrange(2), rng.randrange(2)): rng.randrange(p)
                        },
                        p,
                        2,
                    )
                    for _ in range(size)
                ]
                for _ in range(size)
            ]
            assert det_poly(M) == _det_cofactor(M)


def test_det_interpolation_cross_check():
    A = weyl(2, 1)
    for s in (A.presentation.gen(0), A.presentation.gen(1)):
        M = left_mult_matrix(s, A)
        assert det_cross_check(M, det_poly(M), trials=4, seed=1)


# -- reduced norm -------------------------------------------------------------


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
    basis = global_twist_sections(1, 2, A)
    monos = sorted(m for b in basis for m in b.terms)
    gens = [tuple(1 if j == i else 0 for j in range(4)) for i in range(4)]
    assert monos == sorted([(0, 0, 0, 0)] + gens)


def test_sections_degree_bound_guard():
    A = weyl(3, 1)
    with pytest.raises(IncompleteSearchError):
        global_twist_sections(2, 1, A)
