"""The four benchmark workloads: their inputs, their ops and the checks on
every op's output.

A workload runs in rounds.  Each round is a fixed mix of op kinds, the same
for every seed; the seed picks the inputs inside each kind.  Inputs come
from finite pools indexed by (case, index), so that the output of every op a
run can make has a reference digest recorded in ``digests.json``.  The pools
are large next to what one run draws, so different seeds see different
inputs.

An op is a single call into a public entry point (``cli.run`` for
CLI-shaped ops, a library function otherwise).  Its ``check`` turns the
result into the canonical output text that is digested, and raises
``CheckFailed`` when an independent law does not hold.

weylkit is imported inside ``setup`` only, so that the set-up time the
benchmark reports includes the import.
"""

from __future__ import annotations

import json
import random


class CheckFailed(Exception):
    pass


class Op:
    __slots__ = ("kind", "key", "call", "check")

    def __init__(self, kind, key, call, check):
        self.kind = kind  # op class, for the per-kind breakdown
        self.key = key  # names the input; reference digests are keyed by it
        self.call = call  # () -> result; this is what gets timed
        self.check = check  # result -> canonical output text


def random_terms(rng, ngens, p, max_degree, max_terms):
    """Random element as in tier-1's ``random_element``: up to ``max_terms``
    monomials of degree <= ``max_degree``, nonzero coefficients."""
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        m = [0] * ngens
        for _ in range(rng.randrange(0, max_degree + 1)):
            m[rng.randrange(ngens)] += 1
        terms[tuple(m)] = rng.randrange(1, p)
    return terms


def pool_rng(*parts):
    return random.Random(":".join(str(x) for x in parts))


def format_monomial(m):
    factors = [f"g{i + 1}" if e == 1 else f"g{i + 1}^{e}" for i, e in enumerate(m) if e]
    return "*".join(factors) or "1"


def format_terms(terms):
    out = []
    for m in sorted(terms, key=lambda m: (sum(m), m)):
        c, mono = terms[m], format_monomial(m)
        out.append(mono if c == 1 else (str(c) if mono == "1" else f"{c}*{mono}"))
    return " + ".join(out)


class Workload:
    name = ""
    warmup_ops = 0  # untimed ops run before the timed pass

    def setup(self, seed):
        """Import weylkit and generate the inputs this run reuses."""
        raise NotImplementedError

    def round(self, r):
        """The ops of round r, as an iterable; the same (seed, r) gives the
        same ops."""
        raise NotImplementedError

    def universe(self):
        """Every op whose input a run can draw, for recording digests."""
        raise NotImplementedError

    def _rng(self, r):
        return random.Random(f"{self.name}:{self.seed}:{r}")


def cli_op(kind, key, config, law=None):
    """One CLI invocation: ``cli.run(parse_config(...))`` on a JSON config.

    The report must pass all its checks and exit 0; ``law`` may check the
    result further."""
    from weylkit import cli

    text = json.dumps(dict(config, output="json"), sort_keys=True)

    def call():
        return cli.run(cli.parse_config(text))

    def check(result):
        rep, code = result
        if code != 0 or not rep.all_passed:
            bad = [c["name"] for c in rep.checks if not c["passed"]]
            raise CheckFailed(f"exit {code}, failed checks {bad}")
        if law is not None:
            law(rep.result)
        return rep.render()

    return Op(kind, key, call, check)


# -- norm-mult ---------------------------------------------------------------


class NormMult(Workload):
    """N(ab) = N(a) N(b) on seeded pairs, on presentations built once.

    Per case: (p, n, max_degree, max_terms, ops per block).  Pairs follow
    tier-1's generator, with single-term elements where multi-term ones
    have costs so heavy-tailed that ten runs cannot agree (one pair at
    (7, 1) with degree <= 2 took 34 s); (7, 1) also needs degree <= 1.
    (2, 2) runs three ops per block so that the median op falls inside one
    case instead of between two.
    """

    name = "norm-mult"
    warmup_ops = 21  # three blocks: the rewrite caches fill in the first few
    blocks = 80  # one op per case (three at (2,2)) per block; ~15 s a round
    cases = [
        (2, 1, 2, 3, 1),
        (3, 1, 2, 3, 1),
        (5, 1, 2, 1, 1),
        (7, 1, 1, 1, 1),
        (2, 2, 2, 1, 3),
    ]
    pool = 256

    def setup(self, seed):
        from weylkit import NCPoly, weyl_presentation

        self.seed = seed
        self.NCPoly = NCPoly
        self.algebras = {(p, n): weyl_presentation(p, n) for p, n, *_ in self.cases}

    def _op(self, case, j):
        from weylkit import reduced_norm

        p, n, deg, nterms, _ = case
        A = self.algebras[(p, n)]
        rng = pool_rng(self.name, p, n, j)
        a = self.NCPoly(random_terms(rng, 2 * n, p, deg, nterms), p)
        b = self.NCPoly(random_terms(rng, 2 * n, p, deg, nterms), p)

        def call():
            ab = A.presentation.multiply(a, b)
            return reduced_norm(a, A), reduced_norm(b, A), reduced_norm(ab, A)

        def check(result):
            na, nb, nab = result
            if nab != na * nb:
                raise CheckFailed("N(ab) != N(a) N(b)")
            return " | ".join(f.format() for f in result)

        return Op(f"norm {p},{n}", f"{p},{n}:{j}", call, check)

    def round(self, r):
        rng = self._rng(r)
        return [
            self._op(case, rng.randrange(self.pool))
            for _ in range(self.blocks)
            for case in self.cases
            for _ in range(case[-1])
        ]

    def universe(self):
        for case in self.cases:
            for j in range(self.pool):
                yield self._op(case, j)


# -- twist-sections ----------------------------------------------------------


class TwistSections(Workload):
    """CLI ``sections``, ``twist`` and ``diagram-check``; every op rebuilds
    its presentation, as one CLI invocation does.

    Every round runs all seven ``sections`` inputs and the whole ``twist``
    pool, in a seeded order, plus one ``diagram-check`` per case with a
    seeded config seed.  The twist pool is run whole rather than sampled
    because the tail latency is the 11th-largest op of about 340: a sample
    of the pool moves it from run to run by more than any bound worth
    having.  The pool is smaller at (5,1) and (2,2), whose twists cost 10x
    more, so that the median op lies inside the (3,1) twists instead of on
    the edge between cheap and dear ones.  Twist elements
    have degree <= k + 1 (at most 3), so members and non-members both
    occur.  ``sections`` uses config seed 0; its exhaustive span search
    does not depend on the seed.
    """

    name = "twist-sections"
    sections = [(2, 1, 1), (2, 1, 2), (2, 1, 3), (3, 1, 1), (3, 1, 2), (5, 1, 1), (2, 2, 1)]
    twist_cases = [(2, 1, 36), (3, 1, 36), (5, 1, 24), (2, 2, 12)]  # (p, n, pool per k)
    twist_ks = (1, 2, 3)
    diagram_pool = 16
    diagram_trials = 8

    def setup(self, seed):
        import weylkit  # noqa: F401  (the import is part of set-up)

        self.seed = seed

    def _sections(self, p, n, k):
        def law(result):
            # The degree law: the sections are the monomials of degree <= k.
            if result["basis"] != [format_monomial(m) for m in _monomials(2 * n, k)]:
                raise CheckFailed(f"basis {result['basis']} is not the degree <= {k} monomials")

        config = {"p": p, "n": n, "command": "sections", "params": {"k": k}, "seed": 0}
        return cli_op("sections", f"sections {p},{n},{k}", config, law)

    def _twist(self, p, n, k, j):
        rng = pool_rng(self.name, "twist", p, n, k, j)
        terms = random_terms(rng, 2 * n, p, min(k + 1, 3), 2)
        degree = max(sum(m) for m in terms)

        def law(result):
            # The degree law: s lies in the level-k twist iff deg s <= k.
            if result["member"] != (degree <= k):
                raise CheckFailed(f"member={result['member']} but degree {degree}, k={k}")

        config = {
            "p": p, "n": n, "command": "twist",
            "params": {"k": k, "element": format_terms(terms)},
        }
        return cli_op("twist", f"twist {p},{n},{k}:{j}", config, law)

    def _diagram(self, p, n, j):
        config = {
            "p": p, "n": n, "command": "diagram-check", "seed": j,
            "params": {"trials": self.diagram_trials, "max_degree": 2},
        }
        return cli_op("diagram-check", f"diagram {p},{n}:{j}", config)

    def _fixed(self):
        yield from (self._sections(*s) for s in self.sections)
        for p, n, size in self.twist_cases:
            for k in self.twist_ks:
                yield from (self._twist(p, n, k, j) for j in range(size))

    def round(self, r):
        rng = self._rng(r)
        ops = list(self._fixed())
        ops += [self._diagram(p, n, rng.randrange(self.diagram_pool))
                for p, n, _ in self.twist_cases]
        rng.shuffle(ops)
        return ops

    def universe(self):
        yield from self._fixed()
        for p, n, _ in self.twist_cases:
            yield from (self._diagram(p, n, j) for j in range(self.diagram_pool))


def _monomials(ngens, k):
    """Exponent vectors of degree <= k, in the order the sections are listed."""
    import itertools

    monos = [m for m in itertools.product(range(k + 1), repeat=ngens) if sum(m) <= k]
    return sorted(monos, key=lambda m: (sum(m), m))


# -- pbw-rewrite -------------------------------------------------------------


class PbwRewrite(Workload):
    """Build each of the 24 presentations (confluence check included), take
    commutators of seeded degree-~20 elements on the fresh presentation
    (cold: the rewrite caches fill), repeat the same commutators twice (warm:
    the caches serve them), and run ``chart_embedding_check`` once per
    (p, n).  Every round rebuilds the presentations, so every round pays the
    cold pass again.  Two warm repeats put the median op inside the warm
    latencies rather than on the edge between warm and cold; three builds
    per presentation give the tail, which sits among the first commutators
    on a fresh presentation, three times the samples.
    """

    name = "pbw-rewrite"
    params = [(p, n) for p in (2, 3, 5, 7) for n in (1, 2)]
    kinds = ("weyl", "localized", "chart")
    blocks = 3  # fresh builds per presentation and round
    per_block = 5  # distinct commutators per build
    warm_repeats = 2
    pool = 64
    # Chart elements are kept to degree 14: at degree 20 the first
    # commutator on each n = 2 chart costs 3-4x any other op, and those few
    # ops alone would decide the tail.
    degree = {"weyl": 20, "localized": 20, "chart": 14}
    nterms = 12

    def setup(self, seed):
        from weylkit import NCPoly

        self.seed = seed
        self.NCPoly = NCPoly

    def _build(self, p, n, kind, slot):
        from weylkit import boundary_chart_presentation, localized_weyl, weyl_presentation

        def call():
            if kind == "weyl":
                P = weyl_presentation(p, n).presentation
            elif kind == "localized":
                P = localized_weyl(p, n)
            else:
                P = boundary_chart_presentation(p, n).presentation
            slot["P"] = P
            return P

        def check(P):
            rels = [f"[{P.names[j]},{P.names[i]}]={c.format(P.names)}"
                    for (j, i), c in sorted(P.relations.items())]
            return f"{P.names} inv={P.invertible} " + "; ".join(rels)

        return Op("build", f"build {p},{n},{kind}", call, check)

    def _element(self, rng, p, n, kind, degree, nterms):
        """``nterms`` draws of a term of degree in [degree/2, degree]; on the
        localization each term also gets g1^-e with 0 <= e <= 3."""
        terms = {}
        for _ in range(nterms):
            m = [0] * (2 * n)
            for _ in range(rng.randrange(degree // 2, degree + 1)):
                m[rng.randrange(2 * n)] += 1
            if kind == "localized":
                m[0] -= rng.randrange(0, 4)
            terms[tuple(m)] = rng.randrange(1, p)
        return self.NCPoly(terms, p)

    def _commutator(self, p, n, kind, j, slot, phase, triple=False):
        rng = pool_rng(self.name, p, n, kind, j)
        a, b = (self._element(rng, p, n, kind, self.degree[kind], self.nterms) for _ in "ab")

        def call():
            return slot["P"].commutator(a, b)

        def check(result):
            P = slot["P"]
            if phase == "warm" and result != slot["cold", j]:
                raise CheckFailed("warm commutator differs from the cold one")
            slot["cold", j] = result
            if triple:
                x, y, z = (self._element(rng, p, n, kind, 8, 4) for _ in "xyz")
                if P.multiply(P.multiply(x, y), z) != P.multiply(x, P.multiply(y, z)):
                    raise CheckFailed("(xy)z != x(yz)")
            return result.format(P.names)

        return Op(f"commutator {phase}", f"commutator {p},{n},{kind}:{j}", call, check)

    def _chart_check(self, p, n):
        from weylkit import chart_embedding_check

        def check(report):
            if not report.passed:
                raise CheckFailed("chart relations fail for both orientations")
            return json.dumps(
                {"orientation": report.orientation,
                 "details": {str(s): d for s, d in sorted(report.details.items())}},
                sort_keys=True,
            )

        return Op("chart-check", f"chart-check {p},{n}",
                  lambda: chart_embedding_check(p, n), check)

    def round(self, r):
        # A generator, so that each presentation and its caches can be freed
        # once its ops have run: peak memory then follows the largest
        # presentation, not the sum over the round.
        rng = self._rng(r)
        for p, n in self.params:
            for kind in self.kinds:
                for _ in range(self.blocks):
                    slot = {}
                    picks = rng.sample(range(self.pool), self.per_block)
                    yield self._build(p, n, kind, slot)
                    yield from (self._commutator(p, n, kind, j, slot, "cold") for j in picks)
                    for rep in range(self.warm_repeats):
                        last = rep == self.warm_repeats - 1
                        yield from (self._commutator(p, n, kind, j, slot, "warm",
                                                     triple=last and j == picks[-1])
                                    for j in picks)
            yield self._chart_check(p, n)

    def universe(self):
        for p, n in self.params:
            for kind in self.kinds:
                slot = {}
                yield self._build(p, n, kind, slot)
                for j in range(self.pool):
                    yield self._commutator(p, n, kind, j, slot, "cold")
            yield self._chart_check(p, n)


# -- findim-homology ---------------------------------------------------------


class FindimHomology(Workload):
    """CLI ``radical``, ``localring``, ``ext``, ``grade`` and ``auslander``
    on finite-dimensional presets at p in {2, 3, 5}.

    The inputs are a fixed battery, since the presets are a finite list and
    each op's cost is fixed by its input; every round runs all of it in a
    seeded order.  Radical-bound: ``radical`` on cyclic:10@2, T3@5 and
    poly:8@3.  Resolution-bound: ``auslander`` on T3@2 with the regular
    module at depth 3, and Ext up to i = 5.  Five ops cost more than 0.7 s
    and about fifteen 0.15-0.55 s, so that the tail (the 11th-largest op)
    falls among several ops of like cost instead of on one op's latency.
    """

    name = "findim-homology"
    radical = [("T2", 2), ("T3", 2), ("M2", 3), ("poly:4", 3), ("cyclic:6", 3),
               ("cyclic:10", 2), ("T3", 5), ("poly:8", 3), ("M2", 5), ("poly:4", 5),
               ("poly:8", 2)]
    localring = [("T2", 3), ("T3", 2), ("M2", 2), ("FxF", 5), ("poly:4", 5),
                 ("cyclic:6", 2), ("poly:8", 2), ("T3", 3), ("M2", 5), ("cyclic:6", 3)]
    homological = [("T2", 2), ("T3", 2), ("M2", 2), ("poly:3", 3), ("cyclic:4", 3),
                   ("T2", 5), ("M2", 3), ("cyclic:4", 2), ("T3", 3)]
    ext_degrees = (3, 4, 5)
    grade_budgets = (3, 4)
    modules = ("top", "regular")
    auslander = [("T3", 2, "regular", 3), ("T2", 3, "top", 2), ("M2", 2, "top", 2)]

    def setup(self, seed):
        import weylkit  # noqa: F401  (the import is part of set-up)

        self.seed = seed

    def _op(self, command, preset, p, **params):
        config = {"p": p, "n": 1, "command": command, "params": dict(params, preset=preset)}
        extra = "".join(f",{k}={v}" for k, v in sorted(params.items()))
        return cli_op(command, f"{command} {preset}@{p}{extra}", config)

    def round(self, r):
        ops = list(self.universe())
        self._rng(r).shuffle(ops)
        return ops

    def universe(self):
        for preset, p in self.radical:
            yield self._op("radical", preset, p)
        for preset, p in self.localring:
            yield self._op("localring", preset, p)
        for preset, p in self.homological:
            for mod in self.modules:
                for i in self.ext_degrees:
                    yield self._op("ext", preset, p, module=mod, i=i)
                for b in self.grade_budgets:
                    yield self._op("grade", preset, p, module=mod, budget=b)
        for preset, p, mod, depth in self.auslander:
            yield self._op("auslander", preset, p, module=mod, depth=depth)


WORKLOADS = {w.name: w for w in (NormMult, TwistSections, PbwRewrite, FindimHomology)}
