"""Configuration-driven command-line driver.

Reads a JSON config ``{p, n, h?, command, params?, seed?, output?}``, builds
the requested algebra, runs the command, and emits a text or JSON report.
JSON reports contain no timing and are byte-identical for identical
(config, seed) pairs; timing is shown only in text output.

Exit codes: 0 all checks pass, 1 check failure, 2 config error, 3 budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

import numpy as np

from . import __version__
from .elements import format_element, parse_element
from .errors import (
    IncompleteSearchError,
    TooLargeError,
    WeylkitError,
)
from .findim import (
    FinDimAlgebra,
    cyclic_group_algebra,
    full_matrix_algebra,
    product_algebra,
    truncated_polynomial_algebra,
    upper_triangular_algebra,
)
from .homology import (
    FDModule,
    GradeBound,
    auslander_probe,
    ext_groups,
    grade,
    hom_module_dimension,
    minimal_projective_resolution,
)
from .linalg_fp import Subspace
from .localring import (
    CROSS_CHECK_BUDGET,
    adic_comparison,
    classify_local,
    fiber_decomposability,
    idempotent_ideal_check,
    jacobson_radical,
    maximal_two_sided_ideals,
    radical_cross_check,
    semisimple_quotient,
)
from .norm import (
    check_norm_symbol_diagram,
    global_twist_sections,
    ord_at_H_dagger,
    principal_symbol,
    reduced_norm,
    twist_membership,
)
from .presentations import (
    NCPoly,
    Presentation,
    WeightFiltration,
    associated_graded,
    check_confluence,
)
from .weylalg import (
    SUPPORTED_N,
    SUPPORTED_P,
    boundary_chart_presentation,
    center_coordinates,
    chart_embedding_check,
    validate_symplectic,
    weyl_presentation,
)

AUSLANDER_NOTE = (
    "finite-dimensional probe; does not decide regularity of the "
    "infinite-dimensional algebras themselves"
)


class ConfigError(Exception):
    pass


def _integer(value, field: str, least: int | None = None) -> int:
    """int(value), or a ConfigError naming the config field when value is not
    an integer or is below least.  JSON booleans and floats with a fractional
    part are not integers here, although int(True) is 1 and int(1.7) is 1."""
    fractional = isinstance(value, float) and not value.is_integer()
    try:
        n = None if isinstance(value, bool) or fractional else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or (least is not None and n < least):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"field {field!r}: {value!r} is not an integer{bound}")
    return n


def _required(config: JobConfig, field: str):
    """The command parameter field, or a ConfigError naming it when absent."""
    if field not in config.params:
        raise ConfigError(f"field {field!r}: missing")
    return config.params[field]


class JobConfig:
    def __init__(self, p, n, h, command, params, seed, output):
        self.p = p
        self.n = n
        self.h = h
        self.command = command
        self.params = params
        self.seed = seed
        self.output = output


def parse_config(text: str) -> JobConfig:
    """Validate the JSON config and return a JobConfig."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"invalid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    allowed = {"p", "n", "h", "command", "params", "seed", "output", "element"}
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown field {key!r}")
    p = data.get("p")
    n = data.get("n")
    if p not in SUPPORTED_P:
        raise ConfigError(f"field 'p': p must be prime <= 7 (one of {SUPPORTED_P})")
    if n not in SUPPORTED_N:
        raise ConfigError(f"field 'n': n must be one of {SUPPORTED_N}")
    command = data.get("command")
    if command not in _DISPATCH:
        raise ConfigError(f"field 'command': unknown command {command!r}")
    h = data.get("h", "standard")
    if h != "standard":
        try:
            h = validate_symplectic(h, p)
        except (WeylkitError, TypeError) as e:
            raise ConfigError(f"field 'h': {e}") from e
        if len(h) != 2 * n:
            raise ConfigError("field 'h': size must be 2n")
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("field 'params': must be an object")
    params = dict(params)
    if "element" in data:
        params.setdefault("element", data["element"])
    seed = data.get("seed", 0)
    if not isinstance(seed, int) or not (0 <= seed < 2**64):
        raise ConfigError("field 'seed': must be a 64-bit nonnegative integer")
    output = data.get("output", "text")
    if output not in ("text", "json"):
        raise ConfigError("field 'output': must be 'text' or 'json'")
    return JobConfig(p, n, h, command, params, seed, output)


class Report:
    def __init__(self, config: JobConfig):
        self.config = config
        self.checks: list[dict] = []
        self.result: dict = {}
        self.elapsed = 0.0

    def add_check(self, name: str, passed: bool, detail: str = ""):
        self.checks.append({"name": name, "passed": bool(passed), "detail": detail})

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "command": self.config.command,
            "p": self.config.p,
            "n": self.config.n,
            "seed": self.config.seed,
            "version": __version__,
            "checks": sorted(self.checks, key=lambda c: c["name"]),
            "result": self.result,
        }

    def render(self) -> str:
        if self.config.output == "json":
            return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"
        lines = [f"weylkit {__version__}  command={self.config.command}  "
                 f"p={self.config.p} n={self.config.n} seed={self.config.seed}"]
        for key in sorted(self.result):
            lines.append(f"  {key}: {self.result[key]}")
        for c in sorted(self.checks, key=lambda c: c["name"]):
            mark = "PASS" if c["passed"] else "FAIL"
            detail = f"  ({c['detail']})" if c["detail"] else ""
            lines.append(f"  [{mark}] {c['name']}{detail}")
        lines.append(f"  elapsed: {self.elapsed:.3f}s")
        return "\n".join(lines) + "\n"


# -- algebra and module presets ----------------------------------------------


def _weyl(config: JobConfig):
    h = None if config.h == "standard" else config.h
    return weyl_presentation(config.p, config.n, h)


def _chart(config: JobConfig):
    h = None if config.h == "standard" else config.h
    return boundary_chart_presentation(config.p, config.n, h)


def _jacobi_fail_presentation(p: int) -> Presentation:
    """[g2,g1]=g3, [g3,g1]=0, [g3,g2]=g2: fails the Jacobi identity."""
    return Presentation(
        ("g1", "g2", "g3"),
        p,
        {
            (1, 0): NCPoly({(0, 0, 1): 1}, p),
            (2, 1): NCPoly({(0, 1, 0): 1}, p),
        },
    )


def findim_preset(name: str, p: int) -> FinDimAlgebra:
    """The preset T2, T3, M2, FxF, poly:<k> (F_p[x]/(x^k)) or cyclic:<k>
    (F_p[C_k]), k >= 1 in decimal digits and nothing after them."""
    if name == "T2":
        return upper_triangular_algebra(2, p)
    if name == "T3":
        return upper_triangular_algebra(3, p)
    if name == "M2":
        return full_matrix_algebra(2, p)
    if name == "FxF":
        one = truncated_polynomial_algebra(p, 1)
        return product_algebra(one, one)
    if isinstance(name, str) and name.startswith(("poly:", "cyclic:")):
        kind, _, k = name.partition(":")
        if not k.isdecimal():  # int() would also take "3 ", " 3" and "1_0"
            raise ConfigError(f"field 'preset': {name!r} is not {kind}:<k> with k a decimal integer")
        build = truncated_polynomial_algebra if kind == "poly" else cyclic_group_algebra
        return build(p, _integer(k, "preset", 1))
    raise ConfigError(f"field 'preset': unknown algebra preset {name!r}")


def module_preset(name: str, A: FinDimAlgebra) -> FDModule:
    if name == "regular":
        return FDModule.regular(A)
    if name == "zero":
        return FDModule.zero(A)
    if name == "top":
        _, proj, lift = semisimple_quotient(A)
        return FDModule(A, proj @ A.mult_ops("left") @ lift.T % A.p)
    raise ConfigError(f"unknown module preset {name!r}")


# -- command handlers ---------------------------------------------------------


def _cmd_nf(config: JobConfig, rep: Report):
    A = _weyl(config)
    x = parse_element(_required(config, "element"), A.presentation)
    rep.result["normal_form"] = format_element(x, A.presentation)
    rep.add_check("normal_form_computed", True)


def _cmd_mul(config: JobConfig, rep: Report):
    A = _weyl(config)
    P = A.presentation
    a = parse_element(_required(config, "a"), P)
    b = parse_element(_required(config, "b"), P)
    rep.result["product"] = format_element(P.multiply(a, b), P)
    rep.add_check("product_computed", True)


def _cmd_norm(config: JobConfig, rep: Report):
    A = _weyl(config)
    s = parse_element(_required(config, "element"), A.presentation)
    rep.result["norm"] = reduced_norm(s, A).format()
    rep.add_check("norm_computed", True)


def _cmd_symbol(config: JobConfig, rep: Report):
    A = _weyl(config)
    s = parse_element(_required(config, "element"), A.presentation)
    sym = principal_symbol(s, A)
    rep.result["degree"] = sym.degree
    rep.result["symbol"] = sym.poly.format()
    rep.add_check("symbol_computed", True)


def _random_element(P: Presentation, rng: random.Random, max_degree: int) -> NCPoly:
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        m = [0] * P.ngens
        for _ in range(rng.randrange(0, max_degree + 1)):
            m[rng.randrange(P.ngens)] += 1
        if sum(m) > max_degree:
            continue
        terms[tuple(m)] = rng.randrange(1, P.p)
    return NCPoly(terms, P.p) if terms else P.one()


def _cmd_diagram_check(config: JobConfig, rep: Report):
    A = _weyl(config)
    trials = _integer(config.params.get("trials", 50), "trials", 0)
    max_degree = _integer(config.params.get("max_degree", 4), "max_degree", 0)
    rng = random.Random(config.seed)
    passed = 0
    for _ in range(trials):
        s = _random_element(A.presentation, rng, max_degree)
        if s.is_zero():
            s = A.presentation.one()
        if check_norm_symbol_diagram(s, A):
            passed += 1
    rep.result["trials"] = trials
    rep.add_check("diagram_commutes", passed == trials, f"{passed}/{trials}")


def _cmd_ord(config: JobConfig, rep: Report):
    A = _weyl(config)
    s = parse_element(_required(config, "element"), A.presentation)
    f = center_coordinates(s, A)
    v = ord_at_H_dagger(f)
    rep.result["ord"] = "inf" if v == float("inf") else int(v)
    rep.add_check("ord_computed", True)


def _cmd_twist(config: JobConfig, rep: Report):
    A = _weyl(config)
    s = parse_element(_required(config, "element"), A.presentation)
    k = _integer(_required(config, "k"), "k")
    member = twist_membership(s, k, A)
    rep.result["member"] = member
    rep.add_check("twist_membership_computed", True, f"member={member}")


def _cmd_sections(config: JobConfig, rep: Report):
    A = _weyl(config)
    k = _integer(_required(config, "k"), "k")
    bound = _integer(config.params.get("degree_bound", max(k, 0)), "degree_bound")
    basis = global_twist_sections(k, bound, A)
    rep.result["basis"] = [format_element(b, A.presentation) for b in basis]
    rep.result["dimension"] = len(basis)
    rep.add_check("sections_computed", True, f"dim={len(basis)}")


def _cmd_confluence(config: JobConfig, rep: Report):
    target = config.params.get("algebra", "weyl")
    if target in ("weyl", "chart"):
        build = _weyl if target == "weyl" else _chart
        report = check_confluence(build(config).presentation)
        rep.add_check("confluence_passes", report.passed,
                      f"overlaps={report.overlaps_checked}")
    elif target == "jacobi-fail":
        P = _jacobi_fail_presentation(config.p)
        report = check_confluence(P)
        g3 = NCPoly({(0, 0, 1): 1}, config.p)
        expected = (
            not report.passed
            and len(report.discrepancies) == 1
            and report.discrepancies[0][1] in (g3, -g3)
        )
        rep.add_check("expected_failure_with_g3_discrepancy", expected)
        rep.result["discrepancies"] = [
            {"overlap": list(o), "poly": d.format(P.names)}
            for o, d in report.discrepancies
        ]
    else:
        raise ConfigError(f"unknown confluence target {target!r}")
    rep.result["passed"] = report.passed


def _format_relations(P: Presentation) -> list[str]:
    out = []
    for j in range(P.ngens):
        for i in range(j):
            c = P.commutator_rel(j, i)
            out.append(f"[{P.names[j]},{P.names[i]}] = {c.format(P.names)}")
    return out


def _cmd_gr(config: JobConfig, rep: Report):
    target = config.params.get("algebra", "chart")
    if target == "weyl":
        P = _weyl(config).presentation
    elif target == "chart":
        P = _chart(config).presentation
    elif target == "chart-gr":
        P = associated_graded(
            _chart(config).presentation,
            WeightFiltration((1,) * (2 * config.n)),
        )
    else:
        raise ConfigError(f"unknown gr target {target!r}")
    weights = config.params.get("weights", [1] * P.ngens)
    if weights == "u-adic":
        weights = [1] + [0] * (P.ngens - 1)
    if not isinstance(weights, list) or not all(isinstance(w, int) for w in weights):
        raise ConfigError("field 'weights': must be \"u-adic\" or a list of integers")
    if len(weights) != P.ngens:
        raise ConfigError(f"field 'weights': need {P.ngens} weights, one per generator, not {len(weights)}")
    G = associated_graded(P, WeightFiltration(tuple(weights)))
    rep.result["relations"] = _format_relations(G)
    rep.result["commutative"] = not G.relations
    rep.add_check("gr_computed", True)


def _cmd_chart_check(config: JobConfig, rep: Report):
    h = None if config.h == "standard" else config.h
    report = chart_embedding_check(config.p, config.n, h)
    rep.result["orientation"] = report.orientation
    for sign, checks in sorted(report.details.items()):
        rep.result[f"relations_sign_{'+' if sign > 0 else '-'}"] = [
            f"{name}: {'ok' if ok else 'FAIL'}" for name, ok in checks
        ]
    rep.add_check("chart_relations_hold_for_some_orientation", report.passed)


def _central_subring(A: FinDimAlgebra, name: str, preset: str):
    if name == "prime-field":
        R_basis = [A.unit]
        mR = Subspace([], A.dim, A.p)
        return R_basis, mR
    if name == "squares":
        # the subring generated by x^2, central only in F_p[x]/(x^k)
        if not preset.startswith("poly:"):
            raise ConfigError(f"field 'subring': 'squares' needs a poly:<k> preset, not {preset!r}")
        R_basis = [np.eye(A.dim, dtype=np.int64)[i] for i in range(0, A.dim, 2)]
        mR = Subspace(R_basis[1:], A.dim, A.p)
        return R_basis, mR
    raise ConfigError(f"unknown subring preset {name!r}")


def _cmd_localring(config: JobConfig, rep: Report):
    preset = config.params.get("preset", "T2")
    A = findim_preset(preset, config.p)
    R_basis, mR = _central_subring(A, config.params.get("subring", "prime-field"), preset)
    rad = jacobson_radical(A)
    maxima = maximal_two_sided_ideals(A)
    cls = classify_local(A)
    rep.result["algebra"] = A.name
    rep.result["classification"] = cls
    rep.result["radical_dim"] = rad.dim
    rep.result["num_maximal_ideals"] = len(maxima)
    rep.result["maximal_ideal_dims"] = sorted(M.dim for M in maxima)
    rep.result["idempotent_maximal_ideals"] = [
        idempotent_ideal_check(M, A) for M in maxima
    ]
    rep.add_check("radical_nilpotent", A.is_nilpotent_subspace(rad))
    fiber = fiber_decomposability(A, R_basis, mR)
    rep.result["fiber"] = (
        f"fails_at {fiber[1]}" if isinstance(fiber, tuple) else fiber
    )
    if len(maxima) == 1:
        k0 = adic_comparison(A, maxima[0], mR)
        rep.result["adic_k0"] = k0
    rep.add_check("localring_computed", True, cls)


def _cmd_radical(config: JobConfig, rep: Report):
    A = findim_preset(config.params.get("preset", "T2"), config.p)
    rad = jacobson_radical(A)
    rep.result["algebra"] = A.name
    rep.result["radical_dim"] = rad.dim
    if A.p**A.dim <= CROSS_CHECK_BUDGET:
        rep.add_check("radical_cross_check", radical_cross_check(A))
    rep.add_check("radical_nilpotent", A.is_nilpotent_subspace(rad))


def _homlab_setup(config: JobConfig):
    A = findim_preset(config.params.get("preset", "poly:2"), config.p)
    M = module_preset(config.params.get("module", "top"), A)
    return A, M


def _cmd_ext(config: JobConfig, rep: Report):
    A, M = _homlab_setup(config)
    i = _integer(config.params.get("i", 0), "i", 0)
    res = minimal_projective_resolution(M, A, i + 1)
    E = ext_groups(M, A, i, res)
    rep.result["algebra"] = A.name
    rep.result["ext_dim"] = E.dim
    rep.add_check("resolution_exact", res.check())
    if i == 0:
        rep.add_check(
            "ext0_matches_hom", E.dim == hom_module_dimension(M, A)
        )


def _cmd_grade(config: JobConfig, rep: Report):
    A, M = _homlab_setup(config)
    budget = _integer(config.params.get("budget", 4), "budget", 0)
    j = grade(M, A, budget)
    if j == float("inf"):
        rep.result["grade"] = "inf"
    elif isinstance(j, GradeBound):
        rep.result["grade"] = f"> {j.exceeds}"
    else:
        rep.result["grade"] = j
    rep.add_check("grade_computed", True, str(rep.result["grade"]))


def _cmd_auslander(config: JobConfig, rep: Report):
    A, M = _homlab_setup(config)
    depth = _integer(config.params.get("depth", 3), "depth", 0)
    report = auslander_probe(A, M, depth)
    rep.result["algebra"] = A.name
    rep.result["depth"] = depth
    rep.result["checks_run"] = len(report.checks)
    rep.result["note"] = AUSLANDER_NOTE
    rep.result["witnesses"] = [
        {"i": i, "submodule_dim": d, "grade": str(g)}
        for i, d, g, ok in report.checks
        if not ok
    ]
    rep.add_check("auslander_condition_probe", report.passed)


def _cmd_report_all(config: JobConfig, rep: Report):
    """A fixed battery of checks across all modules, names sorted."""

    def sub(command, params, p=None, n=None):
        c = JobConfig(
            p or config.p,
            n or config.n,
            "standard",
            command,
            params,
            config.seed,
            config.output,
        )
        r = Report(c)
        _DISPATCH[command](c, r)
        for chk in r.checks:
            rep.add_check(f"{command}.{chk['name']}", chk["passed"], chk["detail"])
        return r.result

    rep.result["nf"] = sub("nf", {"element": "g2*g1"})
    rep.result["confluence_weyl"] = sub("confluence", {"algebra": "weyl"})
    rep.result["confluence_chart"] = sub("confluence", {"algebra": "chart"})
    rep.result["confluence_jacobi"] = sub("confluence", {"algebra": "jacobi-fail"})
    rep.result["chart_check"] = sub("chart-check", {})
    rep.result["norm_g1"] = sub("norm", {"element": "g1"})
    rep.result["sections_k1"] = sub("sections", {"k": 1})
    rep.result["diagram"] = sub("diagram-check", {"trials": 10})
    rep.result["gr_chart"] = sub("gr", {"algebra": "chart"})
    rep.result["localring_T2"] = sub("localring", {"preset": "T2"}, p=2)
    rep.result["radical_poly2"] = sub("radical", {"preset": "poly:2"}, p=2)
    rep.result["ext_poly2"] = sub(
        "ext", {"preset": "poly:2", "module": "top", "i": 0}, p=2
    )
    rep.result["grade_poly2"] = sub(
        "grade", {"preset": "poly:2", "module": "top"}, p=2
    )
    rep.result["auslander_poly2"] = sub(
        "auslander", {"preset": "poly:2", "module": "top", "depth": 2}, p=2
    )
    rep.result["note"] = AUSLANDER_NOTE


_DISPATCH = {
    "nf": _cmd_nf,
    "mul": _cmd_mul,
    "norm": _cmd_norm,
    "symbol": _cmd_symbol,
    "diagram-check": _cmd_diagram_check,
    "ord": _cmd_ord,
    "twist": _cmd_twist,
    "sections": _cmd_sections,
    "confluence": _cmd_confluence,
    "gr": _cmd_gr,
    "chart-check": _cmd_chart_check,
    "localring": _cmd_localring,
    "radical": _cmd_radical,
    "ext": _cmd_ext,
    "grade": _cmd_grade,
    "auslander": _cmd_auslander,
    "report-all": _cmd_report_all,
}


def run(config: JobConfig) -> tuple[Report, int]:
    rep = Report(config)
    start = time.monotonic()
    try:
        _DISPATCH[config.command](config, rep)
    except (TooLargeError, IncompleteSearchError) as e:
        rep.add_check("budget", False, str(e))
        rep.elapsed = time.monotonic() - start
        return rep, 3
    except WeylkitError as e:
        rep.add_check("error", False, str(e))
        rep.elapsed = time.monotonic() - start
        return rep, 1
    rep.elapsed = time.monotonic() - start
    return rep, 0 if rep.all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="weylkit", description="Weyl algebra verification toolkit"
    )
    parser.add_argument("config", help="path to a JSON config file, or '-' for stdin")
    parser.add_argument("--output", choices=("text", "json"), default=None,
                        help="override the config's output format")
    args = parser.parse_args(argv)
    try:
        text = sys.stdin.read() if args.config == "-" else open(args.config).read()
    except OSError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        if args.output:
            config.output = args.output
        rep, code = run(config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    sys.stdout.write(rep.render())
    return code


if __name__ == "__main__":
    sys.exit(main())
