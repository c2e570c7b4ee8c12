"""Configuration-driven command-line driver.

Reads a JSON config ``{p, n, h?, command, params?, seed?, output?}``, builds
the requested algebra, runs the command, and emits a text or JSON report.
JSON reports contain no timing and are byte-identical for identical
(config, seed) pairs; timing is shown only in text output.

Every command's params are declared once, in ``COMMANDS``: their kind and
default.  ``parse_config`` checks a config's params against that table and
fills in the defaults, so that a handler reads typed values only.

Exit codes: 0 all checks pass, 1 check failure, 2 config error, 3 budget
exceeded.

The finite-dimensional modules (findim, homology, linalg_fp, localring) and
with them numpy are imported only by the commands and presets that use
them, so the Weyl-algebra commands start without numpy.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__
from .elements import format_element, parse_element
from .errors import IncompleteSearchError, TooLargeError, WeylkitError
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

if TYPE_CHECKING:
    from .findim import FinDimAlgebra
    from .homology import FDModule

AUSLANDER_NOTE = (
    "finite-dimensional probe; does not decide regularity of the "
    "infinite-dimensional algebras themselves"
)


class ConfigError(Exception):
    pass


def _integer(value, field: str, least: int | None = None, most: int | None = None) -> int:
    """int(value), or a ConfigError naming the config field when value is not
    an integer or lies outside [least, most].  Booleans, fractional floats
    and strings other than decimal digits after an optional "-" (the preset
    rule for k) are not integers here, although int() takes True, 1.7,
    " 1_0 " and "+1"."""
    fractional = isinstance(value, float) and not value.is_integer()
    spelt = isinstance(value, str) and not value.removeprefix("-").isdecimal()
    try:
        n = None if isinstance(value, bool) or fractional or spelt else int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or (least is not None and n < least) or (most is not None and n > most):
        bound = " and".join(f" {op} {v}" for op, v in ((">=", least), ("<=", most)) if v is not None)
        raise ConfigError(f"field {field!r}: {value!r} is not an integer{bound}")
    return n


class Param(NamedTuple):
    """One command param.  kind is "string", "integer" (>= least and
    <= most, each if given), "choice" (one of choices), "preset" (a findim
    preset name) or "weights"; default is a value, a function of the params
    checked so far and n, or None for a required param."""

    kind: str
    default: object = None
    least: int | None = None
    most: int | None = None
    choices: tuple[str, ...] = ()


def _preset_parts(name: str, field: str = "preset") -> tuple[str, int]:
    """(name, 0) for T2, T3, M2 and FxF, (kind, k) for poly:<k> and
    cyclic:<k> with k >= 1 in decimal digits and nothing after them.  Only
    string work, so that checking a config loads no numpy."""
    if name in ("T2", "T3", "M2", "FxF"):
        return name, 0
    kind, _, k = name.partition(":")
    if kind not in ("poly", "cyclic"):
        raise ConfigError(f"field {field!r}: unknown algebra preset {name!r}")
    if not k.isdecimal():  # int() would also take "3 ", " 3" and "1_0"
        raise ConfigError(f"field {field!r}: {name!r} is not {kind}:<k> with k a decimal integer")
    return kind, _integer(k, field, 1)


def _check_param(param: Param, value, field: str, n: int):
    """value as the handler reads it, or a ConfigError naming field."""
    if param.kind == "integer":
        return _integer(value, field, param.least, param.most)
    if param.kind == "weights":
        if value == "u-adic":
            return [1] + [0] * (2 * n - 1)
        if not isinstance(value, list) or not all(type(w) is int and w >= 0 for w in value):
            raise ConfigError(f"field {field!r}: must be \"u-adic\" or a list of integers >= 0")
        if len(value) != 2 * n:
            raise ConfigError(f"field {field!r}: need {2 * n} weights, one per generator, not {len(value)}")
        return value
    if not isinstance(value, str):
        raise ConfigError(f"field {field!r}: {value!r} is not a string")
    if param.kind == "choice" and value not in param.choices:
        raise ConfigError(f"field {field!r}: {value!r} is not one of {', '.join(param.choices)}")
    if param.kind == "preset":
        _preset_parts(value, field)
    return value


def check_params(command: str, params: dict, n: int) -> dict:
    """params checked against the command's schema, defaults filled in."""
    schema = COMMANDS[command].params
    for key in params:
        if key not in schema:
            raise ConfigError(f"field {key!r}: not a param of {command} "
                              f"(its params: {', '.join(schema) or 'none'})")
    checked = {}
    for field, param in schema.items():
        if field in params:
            checked[field] = _check_param(param, params[field], field, n)
        elif param.default is None:
            raise ConfigError(f"field {field!r}: missing")
        else:
            checked[field] = param.default(checked, n) if callable(param.default) else param.default
    return checked


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
    p, n = data.get("p"), data.get("n")
    if p not in SUPPORTED_P:
        raise ConfigError(f"field 'p': p must be prime <= 7 (one of {SUPPORTED_P})")
    if n not in SUPPORTED_N:
        raise ConfigError(f"field 'n': n must be one of {SUPPORTED_N}")
    command = data.get("command")
    if command not in COMMANDS:
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
    if "element" in data:
        params = {"element": data["element"], **params}
    params = check_params(command, params, n)
    seed = data.get("seed", 0)
    if type(seed) is not int or not (0 <= seed < 2**64):
        raise ConfigError("field 'seed': must be a 64-bit nonnegative integer")
    output = data.get("output", "text")
    if output not in ("text", "json"):
        raise ConfigError("field 'output': must be 'text' or 'json'")
    return JobConfig(p, n, h, command, params, seed, output)


def _json_text(x, pad: str = "") -> str:
    """json.dumps(x, sort_keys=True, indent=2), the leaves by the C encoder:
    json's indenting encoder is pure Python and leaves a reference cycle per
    call, so a report per command set off full garbage collections."""
    if not (x and isinstance(x, (dict, list, tuple))):
        return json.dumps(x)
    inner = pad + "  "
    if isinstance(x, dict):
        items, ends = [f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: "
                       f"{_json_text(v, inner)}" for k, v in sorted(x.items())], "{}"
    else:
        items, ends = [_json_text(v, inner) for v in x], "[]"
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


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
            return _json_text(self.as_dict()) + "\n"
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
    relations = {(1, 0): NCPoly({(0, 0, 1): 1}, p), (2, 1): NCPoly({(0, 1, 0): 1}, p)}
    return Presentation(("g1", "g2", "g3"), p, relations)


def findim_preset(name: str, p: int) -> FinDimAlgebra:
    """The preset T2, T3, M2, FxF, poly:<k> (F_p[x]/(x^k)) or cyclic:<k>
    (F_p[C_k]), k >= 1 in decimal digits and nothing after them."""
    from .findim import (
        cyclic_group_algebra,
        full_matrix_algebra,
        product_algebra,
        truncated_polynomial_algebra,
        upper_triangular_algebra,
    )

    kind, k = _preset_parts(name)
    if kind in ("T2", "T3"):
        return upper_triangular_algebra(int(kind[1]), p)
    if kind == "M2":
        return full_matrix_algebra(2, p)
    if kind == "FxF":
        one = truncated_polynomial_algebra(p, 1)
        return product_algebra(one, one)
    build = truncated_polynomial_algebra if kind == "poly" else cyclic_group_algebra
    return build(p, k)


def module_preset(name: str, A: FinDimAlgebra) -> FDModule:
    """The module preset regular, zero or top (A / rad A) over A."""
    from .homology import FDModule
    from .localring import semisimple_quotient

    if name == "regular":
        return FDModule.regular(A)
    if name == "zero":
        return FDModule.zero(A)
    if name == "top":
        _, proj, lift = semisimple_quotient(A)
        return FDModule(A, proj @ A.mult_ops("left") @ lift.T % A.p)
    raise ValueError(f"unknown module preset {name!r}")


# -- command handlers ---------------------------------------------------------


def _cmd_nf(config: JobConfig, rep: Report):
    A = _weyl(config)
    x = parse_element(config.params["element"], A.presentation)
    rep.result["normal_form"] = format_element(x, A.presentation)
    rep.add_check("normal_form_computed", True)


def _cmd_mul(config: JobConfig, rep: Report):
    A = _weyl(config)
    P = A.presentation
    a = parse_element(config.params["a"], P)
    b = parse_element(config.params["b"], P)
    rep.result["product"] = format_element(P.multiply(a, b), P)
    rep.add_check("product_computed", True)


def _cmd_norm(config: JobConfig, rep: Report):
    A = _weyl(config)
    s = parse_element(config.params["element"], A.presentation)
    rep.result["norm"] = reduced_norm(s, A).format()
    rep.add_check("norm_computed", True)


def _cmd_symbol(config: JobConfig, rep: Report):
    A = _weyl(config)
    s = parse_element(config.params["element"], A.presentation)
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
        terms[tuple(m)] = rng.randrange(1, P.p)
    return NCPoly(terms, P.p) if terms else P.one()


def _cmd_diagram_check(config: JobConfig, rep: Report):
    A = _weyl(config)
    trials, max_degree = config.params["trials"], config.params["max_degree"]
    rng = random.Random(config.seed)
    passed = 0
    for _ in range(trials):
        if check_norm_symbol_diagram(_random_element(A.presentation, rng, max_degree), A):
            passed += 1
    rep.result["trials"] = trials
    rep.add_check("diagram_commutes", passed == trials, f"{passed}/{trials}")


def _cmd_ord(config: JobConfig, rep: Report):
    A = _weyl(config)
    s = parse_element(config.params["element"], A.presentation)
    v = ord_at_H_dagger(center_coordinates(s, A))
    rep.result["ord"] = "inf" if v == float("inf") else int(v)
    rep.add_check("ord_computed", True)


def _cmd_twist(config: JobConfig, rep: Report):
    A = _weyl(config)
    s = parse_element(config.params["element"], A.presentation)
    member = twist_membership(s, config.params["k"], A)
    rep.result["member"] = member
    rep.add_check("twist_membership_computed", True, f"member={member}")


def _cmd_sections(config: JobConfig, rep: Report):
    A = _weyl(config)
    basis = global_twist_sections(config.params["k"], config.params["degree_bound"], A)
    rep.result["basis"] = [format_element(b, A.presentation) for b in basis]
    rep.result["dimension"] = len(basis)
    rep.add_check("sections_computed", True, f"dim={len(basis)}")


def _cmd_confluence(config: JobConfig, rep: Report):
    target = config.params["algebra"]
    if target in ("weyl", "chart"):
        build = _weyl if target == "weyl" else _chart
        report = check_confluence(build(config).presentation)
        rep.add_check("confluence_passes", report.passed,
                      f"overlaps={report.overlaps_checked}")
    else:  # jacobi-fail
        P = _jacobi_fail_presentation(config.p)
        report = check_confluence(P)
        g3 = NCPoly({(0, 0, 1): 1}, config.p)
        expected = (not report.passed and len(report.discrepancies) == 1
                    and report.discrepancies[0][1] in (g3, -g3))
        rep.add_check("expected_failure_with_g3_discrepancy", expected)
        rep.result["discrepancies"] = [{"overlap": list(o), "poly": d.format(P.names)}
                                       for o, d in report.discrepancies]
    rep.result["passed"] = report.passed


def _format_relations(P: Presentation) -> list[str]:
    return [f"[{P.names[j]},{P.names[i]}] = {P.commutator_rel(j, i).format(P.names)}"
            for j in range(P.ngens) for i in range(j)]


def _cmd_gr(config: JobConfig, rep: Report):
    target = config.params["algebra"]
    P = (_weyl if target == "weyl" else _chart)(config).presentation
    if target == "chart-gr":
        P = associated_graded(P, WeightFiltration((1,) * (2 * config.n)))
    G = associated_graded(P, WeightFiltration(tuple(config.params["weights"])))
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
    import numpy as np

    from .linalg_fp import Subspace

    if name == "prime-field":
        return [A.unit], Subspace([], A.dim, A.p)
    # squares: the subring generated by x^2, central only in F_p[x]/(x^k)
    if not preset.startswith("poly:"):
        raise ConfigError(f"field 'subring': 'squares' needs a poly:<k> preset, not {preset!r}")
    R_basis = [np.eye(A.dim, dtype=np.int64)[i] for i in range(0, A.dim, 2)]
    return R_basis, Subspace(R_basis[1:], A.dim, A.p)


def _cmd_localring(config: JobConfig, rep: Report):
    from .localring import (adic_comparison, classify_local, fiber_decomposability,
                            idempotent_ideal_check, jacobson_radical, maximal_two_sided_ideals)

    preset = config.params["preset"]
    A = findim_preset(preset, config.p)
    R_basis, mR = _central_subring(A, config.params["subring"], preset)
    rad = jacobson_radical(A)
    maxima = maximal_two_sided_ideals(A)
    cls = classify_local(A)
    rep.result["algebra"] = A.name
    rep.result["classification"] = cls
    rep.result["radical_dim"] = rad.dim
    rep.result["num_maximal_ideals"] = len(maxima)
    rep.result["maximal_ideal_dims"] = sorted(M.dim for M in maxima)
    rep.result["idempotent_maximal_ideals"] = [idempotent_ideal_check(M, A) for M in maxima]
    rep.add_check("radical_nilpotent", A.is_nilpotent_subspace(rad))
    fiber = fiber_decomposability(A, R_basis, mR)
    rep.result["fiber"] = f"fails_at {fiber[1]}" if isinstance(fiber, tuple) else fiber
    if len(maxima) == 1:
        k0 = adic_comparison(A, maxima[0], mR)
        rep.result["adic_k0"] = k0
    rep.add_check("localring_computed", True, cls)


def _cmd_radical(config: JobConfig, rep: Report):
    from .localring import CROSS_CHECK_BUDGET, jacobson_radical, radical_cross_check

    A = findim_preset(config.params["preset"], config.p)
    rad = jacobson_radical(A)
    rep.result["algebra"] = A.name
    rep.result["radical_dim"] = rad.dim
    if A.p**A.dim <= CROSS_CHECK_BUDGET:
        rep.add_check("radical_cross_check", radical_cross_check(A))
    rep.add_check("radical_nilpotent", A.is_nilpotent_subspace(rad))


def _homlab_setup(config: JobConfig):
    A = findim_preset(config.params["preset"], config.p)
    M = module_preset(config.params["module"], A)
    return A, M


def _cmd_ext(config: JobConfig, rep: Report):
    from .homology import ext_groups, hom_module_dimension, minimal_projective_resolution

    A, M = _homlab_setup(config)
    i = config.params["i"]
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
    from .homology import GradeBound, grade

    A, M = _homlab_setup(config)
    j = grade(M, A, config.params["budget"])
    if j == float("inf"):
        rep.result["grade"] = "inf"
    elif isinstance(j, GradeBound):
        rep.result["grade"] = f"> {j.exceeds}"
    else:
        rep.result["grade"] = j
    rep.add_check("grade_computed", True, str(rep.result["grade"]))


def _cmd_auslander(config: JobConfig, rep: Report):
    from .homology import auslander_probe

    A, M = _homlab_setup(config)
    depth = config.params["depth"]
    report = auslander_probe(A, M, depth)
    rep.result["algebra"] = A.name
    rep.result["depth"] = depth
    rep.result["checks_run"] = len(report.checks)
    rep.result["note"] = AUSLANDER_NOTE
    rep.result["witnesses"] = [{"i": i, "submodule_dim": d, "grade": str(g)}
                               for i, d, g, ok in report.checks if not ok]
    rep.add_check("auslander_condition_probe", report.passed)


def _cmd_report_all(config: JobConfig, rep: Report):
    """A fixed battery of checks across all modules, names sorted."""

    def sub(command, params, p=None):
        params = check_params(command, params, config.n)
        c = JobConfig(p or config.p, config.n, "standard", command, params,
                      config.seed, config.output)
        r = Report(c)
        COMMANDS[command].handler(c, r)
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
    rep.result["ext_poly2"] = sub("ext", {"preset": "poly:2", "module": "top", "i": 0}, p=2)
    rep.result["grade_poly2"] = sub("grade", {"preset": "poly:2", "module": "top"}, p=2)
    rep.result["auslander_poly2"] = sub(
        "auslander", {"preset": "poly:2", "module": "top", "depth": 2}, p=2)
    rep.result["note"] = AUSLANDER_NOTE


class Command(NamedTuple):
    handler: Callable[[JobConfig, Report], None]
    params: dict[str, Param]


ELEMENT = Param("string")
HOMLAB = {"preset": Param("preset", "poly:2"),
          "module": Param("choice", "top", choices=("regular", "zero", "top"))}

COMMANDS = {
    "nf": Command(_cmd_nf, {"element": ELEMENT}),
    "mul": Command(_cmd_mul, {"a": ELEMENT, "b": ELEMENT}),
    "norm": Command(_cmd_norm, {"element": ELEMENT}),
    "symbol": Command(_cmd_symbol, {"element": ELEMENT}),
    "diagram-check": Command(_cmd_diagram_check, {"trials": Param("integer", 50, least=0, most=1000),
                                                  "max_degree": Param("integer", 4, least=0, most=16)}),
    "ord": Command(_cmd_ord, {"element": ELEMENT}),
    "twist": Command(_cmd_twist, {"element": ELEMENT, "k": Param("integer")}),
    "sections": Command(_cmd_sections, {
        "k": Param("integer"),
        "degree_bound": Param("integer", lambda params, n: max(params["k"], 0))}),
    "confluence": Command(_cmd_confluence, {
        "algebra": Param("choice", "weyl", choices=("weyl", "chart", "jacobi-fail"))}),
    "gr": Command(_cmd_gr, {
        "algebra": Param("choice", "chart", choices=("weyl", "chart", "chart-gr")),
        "weights": Param("weights", lambda params, n: [1] * (2 * n))}),
    "chart-check": Command(_cmd_chart_check, {}),
    "localring": Command(_cmd_localring, {
        "preset": Param("preset", "T2"),
        "subring": Param("choice", "prime-field", choices=("prime-field", "squares"))}),
    "radical": Command(_cmd_radical, {"preset": Param("preset", "T2")}),
    "ext": Command(_cmd_ext, {**HOMLAB, "i": Param("integer", 0, least=0)}),
    "grade": Command(_cmd_grade, {**HOMLAB, "budget": Param("integer", 4, least=0)}),
    "auslander": Command(_cmd_auslander, {**HOMLAB, "depth": Param("integer", 3, least=0)}),
    "report-all": Command(_cmd_report_all, {}),
}
"""Each command's handler and its params, in the order they are checked."""


def run(config: JobConfig) -> tuple[Report, int]:
    rep = Report(config)
    start = time.monotonic()
    try:
        COMMANDS[config.command].handler(config, rep)
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
