"""Weyl algebra constructors, localization, boundary chart, center."""

import itertools
import math
import random

import numpy as np
import pytest

from test_normnbe import random_h
from weylkit.linalg_fp import rank
from weylkit.errors import InvalidFormError
from weylkit.presentations import NCPoly, Presentation
from weylkit.weylalg import (
    boundary_chart_presentation,
    center_coordinates,
    center_membership,
    chart_embedding_check,
    darboux_basis,
    localized_weyl,
    standard_h,
    validate_symplectic,
    weyl_presentation,
)


def monomials_of_degree(ngens: int, d: int):
    """All exponent vectors of total degree exactly d."""
    if ngens == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in monomials_of_degree(ngens - 1, d - first):
            out.append((first,) + rest)
    return out


def test_standard_h_is_symplectic():
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            h = standard_h(p, n)
            assert validate_symplectic(h, p) == h
            assert h[0][1] == 1


def test_degenerate_h_rejected():
    with pytest.raises(InvalidFormError):
        weyl_presentation(2, 1, ((0, 0), (0, 0)))
    with pytest.raises(InvalidFormError):
        validate_symplectic(((1, 1), (1, 1)), 3)
    # skew with zero diagonal, but of rank 2: only h_12 = -h_21 = 1
    h = [[0] * 4 for _ in range(4)]
    h[0][1], h[1][0] = 1, -1
    for p in (2, 3, 7):
        with pytest.raises(InvalidFormError, match="degenerate"):
            validate_symplectic(h, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_darboux_basis_against_rank(p):
    # a skew form with zero diagonal has a Darboux basis iff it has full
    # rank; B h B^T = standard_h, and B = 1 for the standard h itself
    rng = random.Random(p)
    seen = {True: 0, False: 0}
    for n in (1, 2):
        size = 2 * n
        assert darboux_basis(standard_h(p, n), p) == tuple(
            tuple(int(i == j) for j in range(size)) for i in range(size))
        for _ in range(40):
            h = [[0] * size for _ in range(size)]
            for i, j in itertools.combinations(range(size), 2):
                h[i][j] = rng.randrange(p)
                h[j][i] = -h[i][j] % p
            regular = rank(np.array(h, dtype=np.int64), p) == size
            seen[regular] += 1
            if not regular:
                with pytest.raises(InvalidFormError, match="degenerate"):
                    darboux_basis(h, p)
                continue
            B = darboux_basis(h, p)
            gram = [[sum(B[j][i] * h[i][l] * B[k][l] for i in range(size) for l in range(size)) % p
                     for k in range(size)] for j in range(size)]
            assert tuple(map(tuple, gram)) == standard_h(p, n)
    assert seen[True] > 20 and seen[False] > 5


@pytest.mark.parametrize("build", [weyl_presentation, boundary_chart_presentation, chart_embedding_check])
def test_h_size_must_be_2n(build):
    for n, other in ((1, 2), (2, 1)):
        with pytest.raises(InvalidFormError, match="h size must be 2n"):
            build(3, n, standard_h(3, other))


def test_weyl_relation_examples():
    A = weyl_presentation(2, 1, ((0, 1), (1, 0)))
    P = A.presentation
    # g2*g1 = g1*g2 + 1 mod 2
    assert P.multiply(P.gen(1), P.gen(0)) == NCPoly({(1, 1): 1, (0, 0): 1}, 2)
    B = weyl_presentation(3, 1)
    Q = B.presentation
    assert Q.multiply(Q.gen(1), Q.gen(0)) == NCPoly({(1, 1): 1, (0, 0): 2}, 3)


def test_chart_relation_count():
    C = boundary_chart_presentation(2, 2)
    assert C.presentation.names == ("u", "v", "gb3", "gb4")
    # [v,u], [gb3,v], [gb4,v], [gb4,gb3] nonzero; [gb,u] absent (zero)
    assert set(C.presentation.relations) == {(1, 0), (2, 1), (3, 1), (3, 2)}
    D = boundary_chart_presentation(3, 1)
    assert D.presentation.names == ("u", "v")
    assert set(D.presentation.relations) == {(1, 0)}


def test_chart_u_commutes_with_gb():
    C = boundary_chart_presentation(5, 2).presentation
    assert C.commutator(C.gen(0), C.gen(2)).is_zero()
    assert C.commutator(C.gen(0), C.gen(3)).is_zero()


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_chart_embedding(p, n):
    report = chart_embedding_check(p, n)
    assert report.passed
    # mod 2 both orientations work; odd p picks out exactly one sign
    if p == 2:
        assert report.orientation == 1
    else:
        assert report.orientation == -1
        assert not all(ok for _, ok in report.details[-report.orientation])


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1)])
def test_chart_embedding_larger_p(p, n):
    assert chart_embedding_check(p, n).passed


def test_localized_inverse_round_trip():
    P = localized_weyl(3, 2)
    g1 = P.gen(0)
    inv = P.gen(0, -1)
    for i in range(4):
        x = P.multiply(P.gen(i), inv)
        assert P.multiply(x, g1) == P.gen(i)


# -- center -------------------------------------------------------------------


def test_center_membership_examples():
    for p in (2, 3):
        A = weyl_presentation(p, 1)
        P = A.presentation
        assert center_membership(P.gen(0, p), A)
        assert not center_membership(P.gen(0), A)
        assert center_membership(P.one(), A)


def test_center_membership_exhaustive_p_multiples():
    # every monomial with all exponents = 0 mod p is central, degree <= 2p
    for p, n in ((2, 1), (3, 1), (2, 2)):
        A = weyl_presentation(p, n)
        for d in range(0, 3):
            for m in itertools.product(range(0, 2 * p + 1, p), repeat=2 * n):
                if sum(m) > 2 * p:
                    continue
                assert center_membership(NCPoly({m: 1}, p), A)


def commutes_with_generators(s, A):
    """The definition of the center: s commutes with every generator (the
    generators generate A).  The oracle for the exponent test."""
    P = A.presentation
    return all(P.commutator(s, P.gen(i)).is_zero() for i in range(A.ngens))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_center_membership_matches_commutators(p, n):
    rng = random.Random(10 * p + n)
    for h in (None, random_h(p, n, rng), random_h(p, n, rng)):
        A = weyl_presentation(p, n, h)
        verdicts = set()
        for _ in range(20):
            central = rng.random() < 0.5
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                m = [p * rng.randrange(3) for _ in range(2 * n)]
                if not central:
                    m[rng.randrange(2 * n)] += rng.randrange(p)
                terms[tuple(m)] = rng.randrange(1, p)
            s = NCPoly(terms, p)
            member = center_membership(s, A)
            assert member == commutes_with_generators(s, A), (p, n, h, s)
            verdicts.add(member)
        assert verdicts == {True, False}


def test_center_takes_no_product(monkeypatch):
    def product(self, *args):
        raise AssertionError("the center test formed a product")

    monkeypatch.setattr(Presentation, "_multiply", product)
    A = weyl_presentation(3, 2)
    s = NCPoly({(3, 0, 6, 0): 2, (0, 0, 0, 0): 1}, 3)
    assert center_membership(s, A)
    assert not center_membership(s + A.presentation.gen(1), A)
    assert center_coordinates(s, A).terms == {(1, 0, 2, 0): 2, (0, 0, 0, 0): 1}


def test_center_coordinates_examples():
    A = weyl_presentation(3, 1)
    P = A.presentation
    f = center_coordinates(P.gen(0, 3), A)
    assert f.terms == {(1, 0): 1}
    one = center_coordinates(P.one(), A)
    assert one.terms == {(0, 0): 1}
    s = NCPoly({(3, 3): 1, (3, 0): 1}, 3)
    g = center_coordinates(s, A)
    assert g.terms == {(1, 1): 1, (1, 0): 1}


def test_center_coordinates_rejects_noncentral():
    A = weyl_presentation(2, 1)
    with pytest.raises(InvalidFormError):
        center_coordinates(A.presentation.gen(0), A)


def test_rank_over_center_dimension_count():
    # monomials of total degree d biject with pairs (central monomial gamma^{p q},
    # basis monomial gamma^r with 0 <= r_i < p): dimension count for d <= 2p
    for p, n in ((2, 1), (3, 1), (2, 2)):
        g = 2 * n
        for d in range(2 * p + 1):
            total = len(monomials_of_degree(g, d))
            split = sum(
                1
                for q in itertools.product(range(d // p + 1), repeat=g)
                for r in itertools.product(range(p), repeat=g)
                if sum(p * qi + ri for qi, ri in zip(q, r)) == d
            )
            assert split == total == math.comb(d + g - 1, g - 1)
