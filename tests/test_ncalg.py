"""Normal forms, confluence, Hilbert functions, associated graded."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_normnbe import random_h
from weylkit import presentations
from weylkit.cli import parse_config, run
from weylkit.errors import (
    FiltrationError,
    MalformedPresentationError,
    TooLargeError,
    UnsupportedError,
)
from weylkit.presentations import (
    NCPoly,
    Presentation,
    WeightFiltration,
    associated_graded,
    check_confluence,
    commutator,
    hilbert_function,
    multiply,
    normal_form,
)
from weylkit.weylalg import (
    boundary_chart_presentation,
    localized_weyl,
    weyl_presentation,
)


def weyl(p, n=1):
    return weyl_presentation(p, n).presentation


def chart(p, n=2):
    return boundary_chart_presentation(p, n).presentation


def random_poly(P, rng, max_degree=3, max_terms=3):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        m = [0] * P.ngens
        for _ in range(rng.randrange(0, max_degree + 1)):
            m[rng.randrange(P.ngens)] += 1
        terms[tuple(m)] = rng.randrange(P.p)
    return NCPoly(terms, P.p)


# -- normal_form --------------------------------------------------------------


def test_normal_form_single_relation():
    # g2*g1 -> g1*g2 - h12 with h12 = 1
    for p in (2, 3, 5):
        P = weyl(p)
        got = normal_form(((1, 1), (0, 1)), P)
        want = NCPoly({(1, 1): 1, (0, 0): (-1) % p}, p)
        assert got == want


def test_normal_form_already_normal():
    P = weyl(3)
    g1 = P.gen(0)
    assert normal_form(g1, P) == g1


def test_normal_form_chart_vu():
    # v*u = u*v + u^3
    P = chart(2)
    got = P.normal_form_word(((1, 1), (0, 1)))
    want = NCPoly({(1, 1, 0, 0): 1, (3, 0, 0, 0): 1}, 2)
    assert got == want


def test_normal_form_idempotent_random():
    rng = random.Random(11)
    for P in (weyl(2), weyl(3), chart(2)):
        for _ in range(200):
            x = random_poly(P, rng)
            nf = normal_form(x, P)
            assert normal_form(nf, P) == nf


# -- multiply -----------------------------------------------------------------


def test_multiply_unit_law():
    P = weyl(5)
    rng = random.Random(3)
    for _ in range(20):
        b = random_poly(P, rng)
        assert multiply(P.one(), b, P) == b
        assert multiply(b, P.one(), P) == b


def test_multiply_weyl_p2():
    P = weyl(2)
    assert multiply(P.gen(1), P.gen(0), P) == NCPoly({(1, 1): 1, (0, 0): 1}, 2)


def test_multiply_chart_u_squared():
    P = chart(3)
    u = P.gen(0)
    assert multiply(u, u, P) == NCPoly({(2, 0, 0, 0): 1}, 3)


@pytest.mark.parametrize("maker", [lambda: weyl(2), lambda: weyl(3), lambda: chart(2)])
def test_multiply_associative_random(maker):
    P = maker()
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (random_poly(P, rng, max_degree=2) for _ in range(3))
        assert multiply(multiply(a, b, P), c, P) == multiply(a, multiply(b, c, P), P)


def test_multiply_bilinear():
    P = weyl(3)
    rng = random.Random(5)
    for _ in range(50):
        a, b, c = (random_poly(P, rng) for _ in range(3))
        assert multiply(a + b, c, P) == multiply(a, c, P) + multiply(b, c, P)
        assert multiply(a, b + c, P) == multiply(a, b, P) + multiply(a, c, P)


# operands that are not elements of weyl(3, 1), with the error each must raise
FOREIGN_OPERANDS = {
    "length-3 monomial": (NCPoly({(1, 1, 0): 1}, 3), "monomial length mismatch"),
    "operand over F_5": (NCPoly({(1, 1): 1}, 5), r"over F_\d and F_\d for a presentation over F_3"),
    "g1^-1": (NCPoly({(-1, 0): 1}, 3), "negative exponent on non-invertible generator g1"),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_OPERANDS))
def test_multiply_rejects_foreign_operands(case):
    P = weyl(3)
    x, message = FOREIGN_OPERANDS[case]
    for a, b in ((x, P.gen(1)), (P.gen(1), x)):
        with pytest.raises(MalformedPresentationError, match=message):
            P.multiply(a, b)
        with pytest.raises(MalformedPresentationError, match=message):
            P.commutator(a, b)
    assert not P._mono_mul_cache


def test_multiply_checks_monomials_only_when_not_cached(monkeypatch):
    P = weyl(3)
    a, b = P.poly({(2, 1): 1, (0, 3): 2}), P.poly({(1, 2): 1})
    want = P.multiply(a, b)

    def check(self, m):
        raise AssertionError("a cached product checked its monomials")

    monkeypatch.setattr(Presentation, "_check_monomial", check)
    assert P.multiply(a, b) == want
    with pytest.raises(AssertionError):
        P.multiply(a, P.gen(0))


# -- the closed-form products against one-step reductions ----------------------


def one_step_engine(P):
    """A cold copy of P whose products run on one-step reductions."""
    Q = Presentation(P.names, P.p, P.relations, P.weights, P.invertible)
    Q._wick = Q._chart = None
    return Q


def random_wick_factor(P, rng):
    """Two or three monomials with exponents up to p + 1, so that
    contractions of order >= p and vanishing binomials occur; on the
    localization g1 also takes exponents down to -(p + 1)."""
    terms = {}
    for _ in range(rng.randrange(2, 4)):
        m = [rng.randrange(P.p + 2) for _ in range(P.ngens)]
        if P.invertible is not None:
            m[0] = rng.randrange(-P.p - 1, P.p + 2)
        terms[tuple(m)] = rng.randrange(1, P.p)
    return NCPoly(terms, P.p)


def block_h(p, n, kind, rng):
    """h of one block kind: "standard", "joined" (a random h whose pair graph
    is one block, of several pairs at n = 2) or "permuted" (the blocks
    (g1, g4) and (g2, g3), each with a random non-zero entry)."""
    if kind == "standard":
        return None
    if kind == "permuted" and n == 2:
        x, y = rng.randrange(1, p), rng.randrange(1, p)
        return ((0, 0, 0, x), (0, 0, y, 0), (0, -y % p, 0, 0), (-x % p, 0, 0, 0))
    while True:
        h = random_h(p, n, rng)
        if all(h[i][j] for i in range(2 * n) for j in range(2 * n) if i != j):
            return h


def block_shapes(P):
    """The generators of each block of P's Wick sum and its number of pairs."""
    return [(coords, len(pairs)) for coords, pairs, _ in P._wick]


def wide_factor(P, rng):
    """A monomial with exponents up to 3p, so that each residue mod p occurs
    with several quotients; on the localization g1 also takes exponents down
    to -3p."""
    m = [rng.randrange(3 * P.p + 1) for _ in range(P.ngens)]
    if P.invertible is not None:
        m[0] = rng.randrange(-3 * P.p, 3 * P.p + 1)
    return NCPoly({tuple(m): rng.randrange(1, P.p)}, P.p)


# each kind of h with the blocks (generators, number of pairs) it must give
BLOCK_KINDS = {
    1: [("standard", [((0, 1), 1)]), ("joined", [((0, 1), 1)])],
    2: [("standard", [((0, 1), 1), ((2, 3), 1)]), ("joined", [((0, 1, 2, 3), 6)]),
        ("permuted", [((0, 3), 1), ((1, 2), 1)])],
}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_wick_product_matches_one_step_engine(p, n):
    rng = random.Random(100 * p + n)
    for kind, shapes in BLOCK_KINDS[n]:
        h = block_h(p, n, kind, rng)
        for P in (weyl_presentation(p, n, h).presentation, localized_weyl(p, n, h)):
            assert block_shapes(P) == shapes
            Q = one_step_engine(P)
            for factor in (random_wick_factor,) * 4 + (wide_factor,) * 3:
                a, b = factor(P, rng), factor(P, rng)
                assert P.multiply(a, b) == Q.multiply(a, b), (p, n, h, a, b)
            assert not P._mono_gen_cache  # the closed form served every product


def test_wick_multiply_budget(monkeypatch):
    # g^a g^a with a = (5, 5, 5, 5) on the (3, 2) Weyl algebra: each of the
    # pairs (g2, g1) and (g4, g3) contracts 0, 1 or 2 times (k = 3 vanishes
    # mod 3), so 8 contraction terms besides the plain product
    P = weyl(3, 2)
    a = P.poly({(5, 5, 5, 5): 1})
    want = one_step_engine(P).multiply(a, a)
    assert len(want.terms) == 9
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 7)
    with pytest.raises(TooLargeError, match="multiply"):
        P.multiply(a, a)
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 8)
    assert P.multiply(a, a) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_contraction_table_entries(p):
    for c in range(1, p):
        table = presentations._contraction_table(p, c)
        for x, y in itertools.product(range(p), repeat=2):
            want = [(k, math.comb(x, k) * math.perm(y, k) * c**k % p) for k in range(p)]
            assert table[x][y] == tuple((k, w) for k, w in want if w), (p, c, x, y)


@pytest.mark.parametrize("localized", [False, True], ids=["weyl", "localized"])
def test_wick_blocks_cost_their_tensor_product(monkeypatch, localized):
    # at (7, 2) the pair (g2, g1) sees x = 10 = 3 and y = 9 = -5 = 2 mod 7, so
    # e1 = 2 non-zero terms past k = 0; the pair (g4, g3) sees 11 = 4 and
    # 12 = 5 mod 7, so e2 = 4: (1 + 2)(1 + 4) - 1 = 14 steps
    P = localized_weyl(7, 2) if localized else weyl(7, 2)
    a = P.poly({(1, 10, 0, 11): 1})
    b = P.poly({(-5 if localized else 9, 0, 12, 0): 1})
    want = one_step_engine(P).multiply(a, b)
    assert len(want.terms) == 15
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 13)
    with pytest.raises(TooLargeError, match="multiply"):
        P.multiply(a, b)
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 14)
    assert P.multiply(a, b) == want


def test_wick_walk_block_beside_a_one_pair_block(monkeypatch):
    # [g2, g1] = 1 makes a block of one pair, and [g4, g3] = [g5, g3] = 1
    # join g3, g4, g5 into one block of two pairs.  For g2 g4 g5 * g1 g3 the
    # pair (g2, g1) forms 1 term, the walk 2 (g4 or g5 contracted with g3),
    # and the contracted (g2, g1) term meets those 2: 5 steps for 6 terms
    P = Presentation(tuple(f"g{i + 1}" for i in range(5)), 5, {
        (j, i): NCPoly({(0,) * 5: 1}, 5) for j, i in ((1, 0), (3, 2), (4, 2))
    })
    assert block_shapes(P) == [((0, 1), 1), ((2, 3, 4), 2)]
    a, b = P.poly({(0, 1, 0, 1, 1): 1}), P.poly({(1, 0, 1, 0, 0): 1})
    want = one_step_engine(P).multiply(a, b)
    assert len(want.terms) == 6
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 4)
    with pytest.raises(TooLargeError, match="multiply"):
        P.multiply(a, b)
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 5)
    assert P.multiply(a, b) == want


def test_building_presentations_builds_no_table(monkeypatch):
    def table(*args):
        raise AssertionError("a presentation build filled a product table")

    monkeypatch.setattr(presentations, "_contraction_table", table)
    monkeypatch.setattr(presentations, "_rule1_row", table)
    assert weyl_presentation(7, 2).presentation._wick is not None
    assert localized_weyl(7, 2)._wick is not None
    assert boundary_chart_presentation(7, 2).presentation._chart is not None


def random_chart_h(p, rng):
    """A random h in the chart normal form at n = 2: (g1, g2) and (g3, g4)
    each paired with random non-zero entries."""
    x, y = rng.randrange(1, p), rng.randrange(1, p)
    return ((0, x, 0, 0), (-x % p, 0, 0, 0), (0, 0, 0, y), (0, 0, -y % p, 0))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_chart_product_matches_one_step_engine(p, n):
    """Exponents up to p + 2, so that C(y, l) vanishes by Lucas, the
    products prod (z + 2t) reach a zero, and at p = 2 their parity decides
    everything."""
    rng = random.Random(100 * p + n)
    for h in (None,) if n == 1 else (None, random_chart_h(p, rng)):
        P = boundary_chart_presentation(p, n, h).presentation
        assert P._chart is not None and P._wick is None
        Q = one_step_engine(P)
        for _ in range(8):
            a, b = (
                NCPoly({tuple(rng.randrange(p + 3) for _ in range(P.ngens)): rng.randrange(1, p)
                        for _ in range(rng.randrange(2, 4))}, p)
                for _ in "ab"
            )
            assert P.multiply(a, b) == Q.multiply(a, b), (p, n, h, a, b)
        assert not P._mono_gen_cache  # the closed form served every product
        # only the chart's own table selects the closed form
        assert associated_graded(P, WeightFiltration((1,) * P.ngens))._chart is None
        assert associated_graded(P, WeightFiltration(P.weights))._chart is not None
    assert jacobi_violating_presentation(p)._chart is None
    # nor does [v, u] = 2 u^3 (at n = 2 the Jacobi identity then fails)
    P = chart(p, n)
    relations = {**P.relations, (1, 0): P.relations[(1, 0)].scale(2)}
    assert Presentation(P.names, p, relations, P.weights)._chart is None


def test_chart_multiply_budget(monkeypatch):
    # v^2 gb4^2 * u^2 v^2 gb3^2 on the (3, 2) chart forms 12 non-zero terms
    # besides the plain product (2 contractions of gb4 with gb3, 10 from
    # moving gb past v and v past u), and they merge into 5 monomials
    P = chart(3)
    a, b = P.poly({(0, 2, 0, 2): 1}), P.poly({(2, 2, 2, 0): 1})
    want = one_step_engine(P).multiply(a, b)
    assert len(want.terms) == 5
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 11)
    with pytest.raises(TooLargeError, match="multiply"):
        P.multiply(a, b)
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 12)
    assert P.multiply(a, b) == want


@pytest.mark.parametrize("n", [1, 2])
def test_chart_rule1_runs_full_length_at_p2(n):
    """At p = 2 every z + 2t has the parity of z, so for odd z the products
    prod (z + 2t) never vanish and rule 1 keeps every l with C(y, l) odd:
    the sums run to full length, with a1 and b1 up to 3p."""
    for y in range(7):
        assert presentations._rule1_row(2, y, 1) == tuple(
            (l, 1) for l in range(y + 1) if math.comb(y, l) % 2)
        assert presentations._rule1_row(2, y, 0) == ((0, 1),)
    P = chart(2, n)
    Q = one_step_engine(P)
    rng = random.Random(20 + n)
    for a1, b1 in itertools.product(range(7), repeat=2):
        a = [rng.randrange(7) for _ in range(P.ngens)]
        b = [rng.randrange(7) for _ in range(P.ngens)]
        a[1], b[1] = a1, b1
        a, b = P.poly({tuple(a): 1}), P.poly({tuple(b): 1})
        assert P.multiply(a, b) == Q.multiply(a, b), (a, b)
    assert set(P._rule1_rows) == set(range(7))


# -- commutator ---------------------------------------------------------------


def test_commutator_antisymmetry_and_relations():
    for P in (weyl(2), weyl(3), chart(2), chart(3)):
        for i in range(P.ngens):
            assert commutator(P.gen(i), P.gen(i), P).is_zero()
        for (j, i), c in P.relations.items():
            assert commutator(P.gen(j), P.gen(i), P) == c


def test_commutator_weyl_h12():
    for p in (2, 3, 7):
        P = weyl(p)
        assert commutator(P.gen(0), P.gen(1), P) == P.scalar(1)


def test_commutator_chart_v_gb3():
    P = chart(2)
    v, gb3 = P.gen(1), P.gen(2)
    want = NCPoly({(2, 0, 1, 0): 1}, 2)  # u^2 * gb3
    assert commutator(v, gb3, P) == want


def commutator_engines(p, n, rng):
    """Presentations at (p, n) on each engine, with a factor maker for each:
    Wick's form (standard and random h, and the localization), the chart's
    form, and one-step reductions on random_presentation's tables."""
    h = random_h(p, n, rng)
    yield weyl_presentation(p, n).presentation, random_wick_factor
    yield weyl_presentation(p, n, h).presentation, random_wick_factor
    yield localized_weyl(p, n), random_wick_factor
    yield localized_weyl(p, n, h), random_wick_factor
    yield chart(p, n), random_wick_factor
    for _ in range(n):
        yield random_presentation(rng, p), lambda P, rng: random_poly(P, rng, 4)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_commutator_matches_two_products(p, n):
    """The one-pass commutator against a * b - b * a formed by multiply on a
    fresh presentation of the same relations."""
    rng = random.Random(1000 * p + n)
    for P, factor in commutator_engines(p, n, rng):
        Q = Presentation(P.names, P.p, P.relations, P.weights, P.invertible)
        assert (P._wick is None, P._chart is None) == (Q._wick is None, Q._chart is None)
        for _ in range(4):
            a, b = factor(P, rng), factor(P, rng)
            assert P.commutator(a, b) == Q.multiply(a, b) - Q.multiply(b, a), (p, n, a, b)
            assert P.commutator(a, a).is_zero()


def test_commutator_forms_no_difference(monkeypatch):
    P = weyl(3, 2)
    a, b = P.poly({(2, 1, 0, 3): 1, (1, 0, 2, 1): 2}), P.poly({(0, 3, 1, 1): 1, (1, 1, 1, 0): 1})
    want = P.commutator(a, b)

    def difference(self, other):
        raise AssertionError("the commutator subtracted two products")

    monkeypatch.setattr(NCPoly, "__sub__", difference)
    assert weyl(3, 2).commutator(a, b) == want
    assert P.commutator(a, b) == want


def test_commutator_budget_per_product(monkeypatch):
    # on the (3, 2) Weyl algebra a * b takes 8 steps ((1 + 2)(1 + 2) - 1,
    # as in test_wick_multiply_budget) and b * a takes 5 ((1 + 2)(1 + 1) - 1,
    # since b's g4^4 leaves a residue of 1): each fits a budget of 8, both
    # together would need 13
    a, b = NCPoly({(5, 5, 5, 5): 1}, 3), NCPoly({(5, 5, 5, 4): 1}, 3)
    Q = one_step_engine(weyl(3, 2))
    want = Q.multiply(a, b) - Q.multiply(b, a)
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 7)
    with pytest.raises(TooLargeError, match="multiply"):
        weyl(3, 2).commutator(a, b)
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 8)
    assert weyl(3, 2).commutator(a, b) == want


@pytest.mark.parametrize("call", ["multiply", "commutator"])
def test_malformed_monomial_beside_cached_pairs(call):
    # with the first pair of each product cached, the malformed monomial's
    # pair is the first miss, and the check there must still reject it;
    # on a cold presentation its pair is the second miss, and the check at
    # the first miss must already have rejected it
    good, bad = (1, 1), (-1, 0)
    for cached in (True, False):
        P = weyl(3)
        x = P.gen(1)
        if cached:
            P.commutator(NCPoly({good: 1}, 3), x)
        with pytest.raises(MalformedPresentationError, match="negative exponent"):
            getattr(P, call)(NCPoly({good: 1, bad: 1}, 3), x)
        assert not any(bad in key for key in P._mono_mul_cache)


# -- the flat-word reducer: the oracle for check_confluence --------------------

# A flat word is a product of single generators in written order.
FlatWord = tuple[int, ...]


def _flatten_monomial(m) -> FlatWord:
    return tuple(i for i, e in enumerate(m) for _ in range(e))


def _rewrite_at(P, w: FlatWord, t: int) -> dict[FlatWord, int]:
    """One application of g_j g_i -> g_i g_j + c_ji at position t (w[t] > w[t+1])."""
    j, i = w[t], w[t + 1]
    out = {w[:t] + (i, j) + w[t + 2:]: 1}
    for m, cc in P.commutator_rel(j, i).terms.items():
        nw = w[:t] + _flatten_monomial(m) + w[t + 2:]
        out[nw] = out.get(nw, 0) + cc
    return out


def _reduce_word_poly(P, terms, rng=None) -> dict[FlatWord, int]:
    """Fully rewrite a word polynomial to sorted words.

    The canonical strategy rewrites the leftmost inversion; passing an ``rng``
    picks a random inversion instead.
    """
    pending = dict(terms)
    done: dict[FlatWord, int] = {}
    while pending:
        w, c = pending.popitem()
        c %= P.p
        if not c:
            continue
        positions = [t for t in range(len(w) - 1) if w[t] > w[t + 1]]
        if not positions:
            done[w] = (done.get(w, 0) + c) % P.p
            continue
        t = positions[0] if rng is None else rng.choice(positions)
        for nw, cc in _rewrite_at(P, w, t).items():
            pending[nw] = (pending.get(nw, 0) + c * cc) % P.p
    return {w: c for w, c in done.items() if c}


def _word_poly_to_ncpoly(P, terms: dict[FlatWord, int]) -> NCPoly:
    out = {}
    for w, c in terms.items():
        m = tuple(w.count(g) for g in range(P.ngens))
        out[m] = out.get(m, 0) + c
    return NCPoly(out, P.p)


def flat_confluence(P):
    """Overlaps resolved by the flat reducer: (passed, checked, discrepancies)."""
    discrepancies = []
    overlaps = list(itertools.combinations(range(P.ngens - 1, -1, -1), 3))
    for w in overlaps:
        route_a = _reduce_word_poly(P, _rewrite_at(P, w, 0))
        route_b = _reduce_word_poly(P, _rewrite_at(P, w, 1))
        diff = _word_poly_to_ncpoly(P, route_a) - _word_poly_to_ncpoly(P, route_b)
        if not diff.is_zero():
            discrepancies.append((w, diff))
    return not discrepancies, len(overlaps), discrepancies


def fuzz_reduction_order(P, word: FlatWord, trials: int, seed: int = 0) -> bool:
    """Spot-check that random reduction orders agree with the canonical one
    and with the PBW engine's normal form of the same word."""
    canonical = _reduce_word_poly(P, {word: 1})
    if _word_poly_to_ncpoly(P, canonical) != P.normal_form_word(tuple((g, 1) for g in word)):
        return False
    for t in range(trials):
        rng = random.Random(seed * 1_000_003 + t)
        if _reduce_word_poly(P, {word: 1}, rng) != canonical:
            return False
    return True


def assert_confluence_matches_oracle(P):
    report = check_confluence(P)
    assert (report.passed, report.overlaps_checked, report.discrepancies) == flat_confluence(P)
    return report


def random_presentation(rng, p=None):
    """3 or 4 generators over F_p (p drawn when not given); each relation
    is zero, a scalar or linear."""
    p = p or rng.choice((2, 3, 5, 7))
    ngens = rng.choice((3, 4))
    zero = (0,) * ngens
    linear = [zero] + [tuple(int(t == g) for t in range(ngens)) for g in range(ngens)]
    relations = {}
    for j in range(ngens):
        for i in range(j):
            kind = rng.choice(("zero", "scalar", "linear"))
            if kind == "scalar":
                relations[(j, i)] = NCPoly({zero: rng.randrange(1, p)}, p)
            elif kind == "linear":
                relations[(j, i)] = NCPoly({m: rng.randrange(p) for m in linear}, p)
    names = tuple(f"g{g + 1}" for g in range(ngens))
    return Presentation(names, p, relations)


# -- confluence ---------------------------------------------------------------


def test_confluence_weyl_all_supported():
    """weyl_presentation runs no confluence check of its own: scalar
    commutators resolve every overlap for every h.  This is its oracle, on
    the standard h and on random non-degenerate h at every (p, n)."""
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            for h in [None] + [random_h(p, n, rng) for _ in range(6)]:
                P = weyl_presentation(p, n, h).presentation
                report = check_confluence(P)
                assert report.passed and not report.discrepancies, (p, n, h)
                assert report.overlaps_checked == math.comb(2 * n, 3)
                assert (report.passed, report.overlaps_checked, report.discrepancies) == flat_confluence(P)


def test_confluence_chart_all_supported():
    """boundary_chart_presentation runs no confluence check of its own: the
    chart is an iterated Ore extension for every h in chart normal form.
    This is its oracle, on the standard h and on random chart h at n = 2."""
    rng = random.Random(6)
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            for h in [None] + ([random_chart_h(p, rng) for _ in range(6)] if n == 2 else []):
                P = boundary_chart_presentation(p, n, h).presentation
                report = check_confluence(P)
                assert report.passed and not report.discrepancies, (p, n, h)
                assert report.overlaps_checked == math.comb(2 * n, 3)
                assert (report.passed, report.overlaps_checked, report.discrepancies) == flat_confluence(P)


def test_chart_build_takes_no_reduction(monkeypatch):
    def one_step(self, m, i, sign, steps):
        raise AssertionError("the chart build rewrote by one-step reductions")

    monkeypatch.setattr(Presentation, "_mono_times_gen", one_step)
    rng = random.Random(7)
    for p in (2, 3, 5, 7):
        for n in (1, 2):
            for h in (None,) if n == 1 else (None, random_chart_h(p, rng)):
                assert boundary_chart_presentation(p, n, h).presentation._chart is not None


def jacobi_violating_presentation(p=2):
    # [g2,g1] = g3, [g3,g1] = 0, [g3,g2] = g2: the Jacobi identity fails
    return Presentation(
        ("g1", "g2", "g3"),
        p,
        {
            (1, 0): NCPoly({(0, 0, 1): 1}, p),
            (2, 1): NCPoly({(0, 1, 0): 1}, p),
        },
    )


def test_confluence_detects_jacobi_failure():
    P = jacobi_violating_presentation()
    report = check_confluence(P)
    assert not report.passed
    assert len(report.discrepancies) == 1
    overlap, diff = report.discrepancies[0]
    assert overlap == (2, 1, 0)
    g3 = NCPoly({(0, 0, 1): 1}, 2)
    assert diff in (g3, -g3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("n", [1, 2])
def test_confluence_matches_flat_reducer_weyl_chart(p, n):
    assert assert_confluence_matches_oracle(weyl(p, n)).passed
    assert assert_confluence_matches_oracle(chart(p, n)).passed


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_confluence_jacobi_failure_matches_flat_reducer(p):
    report = assert_confluence_matches_oracle(jacobi_violating_presentation(p))
    assert report.discrepancies == [((2, 1, 0), NCPoly({(0, 0, 1): 1}, p))]


def test_confluence_matches_flat_reducer_random():
    rng = random.Random(2024)
    verdicts = set()
    for _ in range(240):
        verdicts.add(assert_confluence_matches_oracle(random_presentation(rng)).passed)
    assert verdicts == {True, False}


def test_confluence_leaves_caches_cold():
    for P in (weyl(3, 2), chart(3), jacobi_violating_presentation(5)):
        check_confluence(P)
        assert not P._mono_gen_cache and not P._mono_mul_cache


def test_confluence_takes_one_step_reductions(monkeypatch):
    """The closed-form products presume associativity, so a check that
    resolved overlaps through them would pass every scalar presentation,
    and every chart table, without looking; the check must rewrite one
    generator at a time."""
    W, C = weyl(3, 2), chart(3, 2)
    assert W._wick is not None and C._chart is not None
    misses = []
    one_step = Presentation._mono_times_gen

    def counting(self, m, i, sign, steps):
        if (m, i, sign) not in self._mono_gen_cache:
            misses.append((m, i, sign))
        return one_step(self, m, i, sign, steps)

    def closed_form(self, a, b, steps):
        raise AssertionError("check_confluence used the closed-form product")

    monkeypatch.setattr(Presentation, "_mono_times_gen", counting)
    monkeypatch.setattr(Presentation, "_wick_mul", closed_form)
    monkeypatch.setattr(Presentation, "_chart_mul", closed_form)
    for P in (W, C):
        misses.clear()
        report = check_confluence(P)
        assert report.passed and report.overlaps_checked == 4
        assert misses


def test_reduction_order_fuzz():
    P = weyl(3, 2)
    assert fuzz_reduction_order(P, (3, 2, 1, 0, 2, 1), trials=10, seed=4)
    C = chart(2)
    assert fuzz_reduction_order(C, (1, 1, 0, 2, 3), trials=10, seed=4)


# -- hilbert_function ---------------------------------------------------------


def test_hilbert_function_values():
    assert hilbert_function(weyl(2, 1), 3) == 4
    assert hilbert_function(weyl(2, 2), 0) == 1
    assert hilbert_function(weyl(2, 2), 2) == 10


def test_hilbert_function_counts_normal_monomials():
    # independent count: exponent vectors of total degree d
    import itertools

    P = weyl(3, 2)
    for d in range(7):
        count = sum(
            1
            for m in itertools.product(range(d + 1), repeat=4)
            if sum(m) == d
        )
        assert hilbert_function(P, d) == count


def test_hilbert_function_rejects_localization():
    P = localized_weyl(2, 1)
    with pytest.raises(UnsupportedError):
        hilbert_function(P, 2)


# -- localization rules -------------------------------------------------------


def test_inverse_cancels():
    P = localized_weyl(2, 1)
    one = P.multiply(P.gen(0, -1), P.gen(0))
    assert one == P.one()
    assert P.multiply(P.gen(0), P.gen(0, -1)) == P.one()


def test_inverse_powers_accumulate():
    P = localized_weyl(3, 1)
    got = P.multiply(P.gen(0, -1), P.gen(0, -1))
    assert got == NCPoly({(-2, 0): 1}, 3)


def test_inverse_commutation_oracle():
    # [g1^{-1}, g2] = -g1^{-1} [g1, g2] g1^{-1} = -h12 g1^{-2}
    for p in (2, 3, 5):
        P = localized_weyl(p, 1)
        inv, g2 = P.gen(0, -1), P.gen(1)
        lhs = P.commutator(inv, g2)
        want = NCPoly({(-2, 0): (-1) % p}, p)
        assert lhs == want
        # sanity: multiply back, g1 * (g1^{-1} g2) == g2
        assert P.multiply(P.gen(0), P.multiply(inv, g2)) == g2


def test_inverse_rules_on_a_later_generator():
    # with g2 invertible, g2^-1 g1 = g1 g2^-1 - c_21 g2^-2 and c_21 = -1
    W = weyl(3)
    P = Presentation(W.names, 3, W.relations, invertible=1)
    want = P.poly({(1, -1): 1, (0, -2): 1})
    assert P.multiply(P.gen(1, -1), P.gen(0)) == want
    assert P.normal_form_word(((1, -1), (0, 1))) == want
    assert P.multiply(P.gen(1), want) == P.gen(0)
    # the rule needs a scalar c_21
    Q = Presentation(("g1", "g2"), 3, {(1, 0): NCPoly({(1, 0): 1}, 3)}, invertible=1)
    with pytest.raises(UnsupportedError, match="scalar commutators"):
        Q.normal_form_word(((1, -1), (0, 1)))


def test_negative_exponent_requires_invertible():
    P = weyl(2)
    with pytest.raises(UnsupportedError):
        P.gen(0, -1)


# -- associated graded --------------------------------------------------------


def test_gr_chart_all_ones():
    C = chart(2)
    G = associated_graded(C, WeightFiltration((1, 1, 1, 1)))
    # [v,u], [u,gb], [v,gb] all die; [gb4,gb3] keeps h u^2
    assert G.commutator_rel(1, 0).is_zero()
    assert G.commutator_rel(2, 1).is_zero()
    assert G.commutator_rel(3, 1).is_zero()
    assert G.commutator_rel(3, 2) == NCPoly({(2, 0, 0, 0): 1}, 2)


def test_gr_chart_then_u_adic_is_commutative():
    C = chart(3)
    G = associated_graded(C, WeightFiltration((1, 1, 1, 1)))
    G2 = associated_graded(G, WeightFiltration((1, 0, 0, 0)))
    assert not G2.relations


def test_gr_weyl_all_ones_commutative():
    for p in (2, 3):
        G = associated_graded(weyl(p, 2), WeightFiltration((1, 1, 1, 1)))
        assert not G.relations


def test_gr_rejects_lower_weight_component():
    p = 3
    P = Presentation(
        ("a", "b"), p, {(1, 0): NCPoly({(1, 0): 1}, p)}
    )  # [b,a] = a
    with pytest.raises(FiltrationError):
        associated_graded(P, WeightFiltration((1, 1)))


def test_gr_hilbert_matches_commutative_ring():
    C = chart(2)
    G = associated_graded(C, WeightFiltration((1, 1, 1, 1)))
    import math

    for d in range(7):
        assert hilbert_function(G, d) == math.comb(d + 3, 3)


# -- presentation guards ------------------------------------------------------


def test_termination_guard_rejects_heavy_relation():
    p = 2
    with pytest.raises(MalformedPresentationError):
        # [b,a] = b^3 with unit weights exceeds the guard
        Presentation(("a", "b"), p, {(1, 0): NCPoly({(0, 3): 1}, p)})


def test_chart_relation_needs_weighted_guard():
    # [v,u] = u^3 is fine with weights (1,2) but not with (1,1)
    p = 2
    Presentation(("u", "v"), p, {(1, 0): NCPoly({(3, 0): 1}, p)}, weights=(1, 2))
    with pytest.raises(MalformedPresentationError):
        Presentation(("u", "v"), p, {(1, 0): NCPoly({(3, 0): 1}, p)}, weights=(1, 1))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
       st.sampled_from([2, 3, 5]))
def test_degree_law_hypothesis(monos, p):
    terms = {m: 1 for m in monos}
    x = NCPoly(terms, p)
    if x.is_zero():
        assert x.degree() == float("-inf")
    else:
        assert x.degree() == max(sum(m) for m in x.terms)


# -- rewriting budget ---------------------------------------------------------


# on the chart: the word gb4^4 gb3^4 v^4 u^4, and the monomial u^4 v^4 gb3^4
GB4_GB3_V_U = ((3, 4), (2, 4), (1, 4), (0, 4))
U_V_GB3 = (4, 4, 4, 0)


def test_normal_form_word_budget(monkeypatch):
    C = chart(3)
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 100)
    with pytest.raises(TooLargeError, match="normal_form_word"):
        C.normal_form_word(GB4_GB3_V_U)
    assert C.commutator(C.gen(1), C.gen(0)) == C.gen(0, 3)


def test_multiply_budget(monkeypatch):
    C = one_step_engine(chart(3))
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 100)
    with pytest.raises(TooLargeError, match="multiply"):
        C.multiply(C.gen(3, 4), C.poly({U_V_GB3: 1}))
    assert C.commutator(C.gen(1), C.gen(0)) == C.gen(0, 3)


@pytest.mark.parametrize("call,steps", [
    (lambda C: C.normal_form_word(GB4_GB3_V_U), 766),
    (lambda C: C.multiply(C.gen(3, 4), C.poly({U_V_GB3: 1})), 487),
], ids=["normal_form_word", "multiply"])
def test_budget_charges_nested_products(monkeypatch, call, steps):
    # hundreds of these steps are taken inside the relation products that
    # rewriting calls for; the call that caused them pays for all of them
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", steps - 1)
    with pytest.raises(TooLargeError):
        call(one_step_engine(chart(3)))
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", steps)
    call(one_step_engine(chart(3)))


def test_confluence_budget_names_overlap(monkeypatch):
    C = chart(3)
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 1)
    with pytest.raises(TooLargeError, match=r"confluence overlap \(3, 2, 1\)"):
        check_confluence(C)


def test_cli_budget_exits_3(monkeypatch):
    config = parse_config(json.dumps(
        {"p": 3, "n": 2, "command": "nf", "params": {"element": "g4^4*g3^4*g2^4*g1^4"}}
    ))
    rep, code = run(config)
    assert code == 0
    monkeypatch.setattr(presentations, "REWRITE_BUDGET", 100)
    rep, code = run(config)
    assert code == 3
    [check] = rep.checks
    assert check["name"] == "budget" and "normal_form_word" in check["detail"]
