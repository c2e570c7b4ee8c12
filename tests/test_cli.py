"""Config parsing, subcommand dispatch, exit codes, reproducibility."""

import gc
import io
import itertools
import json
import pathlib
import time

import pytest

from child_process import run_python, run_weylkit
from weylkit import cli, norm
from weylkit.cli import ConfigError, findim_preset, parse_config, run
from weylkit.elements import format_element, parse_element
from weylkit.errors import InvalidFormError
from weylkit.findim import ENUM_BUDGET, TABLE_BUDGET
from weylkit.localring import CROSS_CHECK_BUDGET
from weylkit.presentations import NCPoly
from weylkit.weylalg import localized_weyl, weyl_presentation

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(config: dict):
    return run_weylkit(json.dumps(config))


# -- element parser -----------------------------------------------------------


def test_parse_element_basic():
    P = weyl_presentation(3, 1).presentation
    assert parse_element("g1", P) == P.gen(0)
    assert parse_element("2*g1^2*g2 + 1", P) == NCPoly({(2, 1): 2, (0, 0): 1}, 3)
    assert parse_element("g2*g1", P) == P.multiply(P.gen(1), P.gen(0))
    assert parse_element("g1 - g2", P) == P.gen(0) - P.gen(1)


def test_parse_element_inverse_power():
    P = localized_weyl(2, 1)
    assert parse_element("g1^-1*g1", P) == P.one()


def test_parse_element_unspaced_minus():
    P = weyl_presentation(3, 1).presentation
    for unspaced, spaced in (("g1-2*g2", "g1 - 2*g2"), ("g2^2-1", "g2^2 - 1"), ("3-1", "3 - 1"),
                             ("g1--g2", "g1 + g2"), ("2*-g1", "-2*g1"), ("g2*g1-g1*g2", "g2*g1 - g1*g2")):
        assert parse_element(unspaced, P) == parse_element(spaced, P), unspaced
    assert parse_element("3-1", P) == P.one().scale(2)
    assert parse_element("g2*g1-g1*g2", P) == P.one().scale(-1)  # [g2, g1] = -1
    L = localized_weyl(3, 1)
    assert parse_element("g1^-1-g1^-1*g1", L) == parse_element("g1^-1 - 1", L)
    assert parse_element("g1^ -2*g1^2", L) == L.one()


def test_parse_element_errors():
    P = weyl_presentation(2, 1).presentation
    for bad in ("", "g3", "g1 *", "^2", "g1 g2", "2 +", "g1 -", "g1^-", "g1^-g2", "2*-"):
        with pytest.raises(InvalidFormError):
            parse_element(bad, P)
    for bad in ("(g1+g2)*g1", "g1*(g2)"):
        with pytest.raises(InvalidFormError, match="parentheses are not supported"):
            parse_element(bad, P)


# -- parse_config -------------------------------------------------------------


def test_parse_config_minimal():
    c = parse_config('{"p": 2, "n": 1, "command": "norm", "element": "g1"}')
    assert (c.p, c.n, c.command, c.h) == (2, 1, "norm", "standard")
    assert c.params["element"] == "g1"


def test_parse_config_rejects_bad_p():
    with pytest.raises(ConfigError, match="prime"):
        parse_config('{"p": 4, "n": 1, "command": "norm"}')


def test_parse_config_rejects_unknown_field():
    with pytest.raises(ConfigError, match="unknown field"):
        parse_config('{"p": 2, "n": 1, "command": "nf", "frobenius": 1}')


def test_parse_config_rejects_malformed_h():
    with pytest.raises(ConfigError, match="'h'"):
        parse_config(
            '{"p": 3, "n": 1, "command": "nf", "h": [[0, 0], [0, 0]]}'
        )


def test_parse_config_standard_h_default():
    c = parse_config('{"p": 3, "n": 2, "command": "chart-check"}')
    assert c.h == "standard"


# -- subcommands through run() ------------------------------------------------


def cfg(command, p=2, n=1, params=None, seed=0):
    return parse_config(
        json.dumps(
            {"p": p, "n": n, "command": command, "params": params or {}, "seed": seed}
        )
    )


def test_run_nf_and_mul():
    rep, code = run(cfg("nf", params={"element": "g2*g1"}))
    assert code == 0 and rep.result["normal_form"] == "1 + g1*g2"
    rep, code = run(cfg("mul", params={"a": "g2", "b": "g1"}))
    assert code == 0 and rep.result["product"] == "1 + g1*g2"


def test_run_norm_symbol_ord_twist():
    rep, code = run(cfg("norm", params={"element": "g1"}))
    assert code == 0 and rep.result["norm"] == "x1"
    rep, code = run(cfg("symbol", params={"element": "g1*g2 + g1"}))
    assert code == 0 and rep.result == {"degree": 2, "symbol": "t1*t2"}
    rep, code = run(cfg("ord", params={"element": "g1^2"}, p=2))
    assert code == 0 and rep.result["ord"] == -2
    rep, code = run(cfg("twist", params={"element": "g1", "k": 1}))
    assert code == 0 and rep.result["member"] is True


def test_run_sections():
    rep, code = run(cfg("sections", params={"k": 1}))
    assert code == 0
    assert sorted(rep.result["basis"]) == ["1", "g1", "g2"]


@pytest.mark.parametrize("p,n,k", [(7, 1, 1), (2, 2, 2), (5, 2, 1), (7, 2, 2), (5, 2, 3)])
def test_run_sections_degree_law(p, n, k):
    # the basis is the monomials of degree <= k, in graded-lex order; no
    # norm is computed, so even (7, 2) takes well under the cap
    start = time.perf_counter()
    rep, code = run(cfg("sections", p=p, n=n, params={"k": k}))
    assert time.perf_counter() - start < 3.0
    P = weyl_presentation(p, n).presentation
    monos = [m for m in itertools.product(range(k + 1), repeat=2 * n) if sum(m) <= k]
    monos.sort(key=lambda m: (sum(m), m))
    assert code == 0
    assert rep.result["basis"] == [format_element(NCPoly({m: 1}, p), P) for m in monos]


def test_run_confluence_targets():
    for target in ("weyl", "chart"):
        rep, code = run(cfg("confluence", n=2, params={"algebra": target}))
        assert code == 0 and rep.result["passed"]
    rep, code = run(cfg("confluence", params={"algebra": "jacobi-fail"}))
    assert code == 0  # the expected failure is itself the passing check
    assert not rep.result["passed"]
    assert rep.result["discrepancies"][0]["poly"] == "g3"


def test_run_gr_and_chart_check():
    rep, code = run(cfg("gr", n=2, params={"algebra": "chart"}))
    assert code == 0 and not rep.result["commutative"]
    rep, code = run(cfg("gr", n=2, params={"algebra": "chart-gr", "weights": "u-adic"}))
    assert code == 0 and rep.result["commutative"]
    rep, code = run(cfg("chart-check", p=3))
    assert code == 0 and rep.result["orientation"] == -1


def test_run_localring_and_radical():
    rep, code = run(cfg("localring", params={"preset": "T2"}))
    assert code == 0
    assert rep.result["classification"] == "not_demi"
    assert rep.result["idempotent_maximal_ideals"] == [True, True]
    assert rep.result["fiber"] == "fails_at 2"
    rep, code = run(cfg("radical", params={"preset": "poly:3"}))
    assert code == 0 and rep.result["radical_dim"] == 2


def test_radical_beyond_enumeration_range():
    # 7^6 elements: the radical needs no enumeration
    rep, code = run(cfg("radical", p=7, params={"preset": "T3"}))
    assert code == 0 and rep.result["radical_dim"] == 3
    # the top module needs A/rad but no enumeration of its 7^6 central elements
    rep, code = run(cfg("grade", p=7, params={"preset": "cyclic:6", "module": "top"}))
    assert code == 0


@pytest.mark.parametrize("preset", ["poly:1", "cyclic:1"])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_radical_of_a_field(preset, p):
    # F_p is a field: its one maximal left ideal is zero, and so is its radical
    rep, code = run(cfg("radical", p=p, params={"preset": preset}))
    assert code == 0 and rep.result["radical_dim"] == 0
    assert {c["name"]: c["passed"] for c in rep.checks}["radical_cross_check"]


# the radical ops of the findim-homology benchmark battery, and the fields
RADICAL_REPORTS = [("T2", 2), ("T3", 2), ("M2", 3), ("poly:4", 3), ("cyclic:6", 3), ("cyclic:10", 2),
                   ("T3", 5), ("poly:8", 3), ("M2", 5), ("poly:4", 5), ("poly:8", 2)] + [
    (field, p) for field in ("poly:1", "cyclic:1") for p in (2, 3, 5, 7)]


@pytest.mark.parametrize("preset,p", RADICAL_REPORTS)
def test_radical_cross_check_within_its_budget(preset, p):
    # reports carry the cross-check exactly when p^d <= CROSS_CHECK_BUDGET
    rep, code = run(cfg("radical", p=p, params={"preset": preset}))
    checks = {c["name"]: c["passed"] for c in rep.checks}
    assert code == 0
    assert ("radical_cross_check" in checks) == (p ** findim_preset(preset, p).dim <= CROSS_CHECK_BUDGET)
    assert all(checks.values())


@pytest.mark.parametrize(
    "preset,p,count", [("cyclic:8", 5, 6), ("cyclic:12", 5, 8), ("cyclic:6", 7, 6), ("cyclic:10", 7, 4)]
)
def test_localring_large_center(preset, p, count):
    # F_p[C_k] / rad is F_p[x]/(x^k' - 1) for the p-free part k' of k, so its
    # maximal ideals are the irreducible factors of x^k' - 1 over F_p; the
    # center of A/rad is too large to enumerate (p^(dim center) > 2^16)
    rep, code = run(cfg("localring", p=p, params={"preset": preset}))
    assert code == 0 and rep.result["num_maximal_ideals"] == count


def test_run_homlab_commands():
    rep, code = run(cfg("ext", params={"preset": "poly:2", "module": "top", "i": 0}))
    assert code == 0 and rep.result["ext_dim"] == 1
    rep, code = run(cfg("grade", params={"preset": "poly:2", "module": "zero"}))
    assert code == 0 and rep.result["grade"] == "inf"
    rep, code = run(cfg("auslander", params={"preset": "poly:2", "module": "top"}))
    assert code == 0 and rep.result["witnesses"] == []


# -- exit codes end to end ----------------------------------------------------


def test_exit_code_0():
    proc = run_cli({"p": 2, "n": 1, "command": "norm", "element": "g1"})
    assert proc.returncode == 0
    assert "norm: x1" in proc.stdout


def test_exit_code_2_config_error():
    proc = run_cli({"p": 4, "n": 1, "command": "norm", "element": "g1"})
    assert proc.returncode == 2
    assert "config error" in proc.stderr
    proc = run_cli({"p": 2, "n": 1, "command": "bogus"})
    assert proc.returncode == 2


# cases the schema cannot generate: preset syntax, weights and the one rule
# that spans two fields (squares needs a poly:<k> preset)
HAND_WRITTEN_MALFORMED = [
    ("radical", {"preset": "poly:abc"}, "preset"),
    ("radical", {"preset": "poly:0"}, "preset"),
    ("radical", {"preset": "cyclic:-1"}, "preset"),
    ("radical", {"preset": "poly:2:3"}, "preset"),
    ("radical", {"preset": "cyclic:4:"}, "preset"),
    ("radical", {"preset": "poly:3 "}, "preset"),
    ("radical", {"preset": "poly: 3"}, "preset"),
    ("radical", {"preset": "poly:1_0"}, "preset"),
    ("gr", {"weights": "x"}, "weights"),
    ("gr", {"weights": [1, 1, 1, 1]}, "weights"),
    ("gr", {"weights": [1]}, "weights"),
    ("gr", {"weights": [True, 1]}, "weights"),
    ("gr", {"weights": [-1, 1]}, "weights"),
    ("gr", {"weights": [1.0, 1]}, "weights"),
    ("localring", {"preset": "M2", "subring": "squares"}, "subring"),
    ("localring", {"preset": "cyclic:4", "subring": "squares"}, "subring"),
    ("localring", {"preset": "T2", "subring": "squares"}, "subring"),
    ("localring", {"preset": "FxF", "subring": "squares"}, "subring"),
]

# a valid value for each kind of required param
REQUIRED_VALUE = {"string": "g1", "integer": 1}


def generated_malformed():
    """Per command and field of cli.COMMANDS: each integer field given
    non-integers (strings that int() reads among them) and values outside
    its bounds, each string-valued field given a non-string, each required
    field left out, and one unknown key."""
    for command, (_, schema) in cli.COMMANDS.items():
        base = {field: REQUIRED_VALUE[param.kind] for field, param in schema.items() if param.default is None}
        for field, param in schema.items():
            if param.kind == "integer":
                bad = ["abc", True, 2.5, " 1_0 ", "1 ", "+1"]
                bad += [] if param.least is None else [param.least - 1]
                bad += [] if param.most is None else [param.most + 1, 10**9, 1e300]
            else:
                bad = [5, None, [1]] if param.kind in ("string", "choice", "preset") else []
            yield from ((command, {**base, field: value}, field) for value in bad)
            if param.default is None:
                yield command, {key: v for key, v in base.items() if key != field}, field
        yield command, {**base, "trails": 3}, "trails"


MALFORMED_PARAMS = HAND_WRITTEN_MALFORMED + list(generated_malformed())


@pytest.mark.parametrize("command,params,field", MALFORMED_PARAMS, ids=[
    f"{command}-" + ",".join(f"{k}={v}" for k, v in params.items()) for command, params, _ in MALFORMED_PARAMS
])
def test_malformed_params_exit_2(command, params, field, monkeypatch, capsys):
    # in process, through the same main() as the entry point: ~130 child
    # interpreters would add half a minute to the suite
    config = {"p": 2, "n": 1, "command": command, "params": params}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(config)))
    assert cli.main(["-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"config error: field {field!r}" in err
    assert "Traceback" not in err


def test_malformed_params_cover_every_field():
    named = {(command, field) for command, _, field in MALFORMED_PARAMS}
    assert {(command, field) for command, (_, schema) in cli.COMMANDS.items() for field in schema} <= named


@pytest.mark.parametrize("config,field", [
    ({"command": "diagram-check", "params": {"trails": 3}}, "trails"),
    ({"command": "norm", "params": {"element": 5}}, "element"),
    ({"command": "norm", "params": {"element": "g1"}, "seed": True}, "seed"),
], ids=["misspelt-key", "non-string-element", "boolean-seed"])
def test_config_errors_exit_2_end_to_end(config, field):
    proc = run_cli({"p": 2, "n": 1, **config})
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"config error: field {field!r}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_boolean_seed_is_a_config_error():
    # isinstance(True, int) holds, and the report would echo "seed": true
    for seed in (True, False):
        with pytest.raises(ConfigError, match="field 'seed'"):
            parse_config(json.dumps({"p": 2, "n": 1, "command": "nf", "element": "g1", "seed": seed}))


def test_parse_config_fills_in_the_defaults():
    assert cfg("diagram-check").params == {"trials": 50, "max_degree": 4}
    assert cfg("sections", params={"k": 3}).params == {"k": 3, "degree_bound": 3}
    assert cfg("sections", params={"k": -2}).params == {"k": -2, "degree_bound": 0}
    assert cfg("gr", n=2).params == {"algebra": "chart", "weights": [1, 1, 1, 1]}
    assert cfg("gr", n=2, params={"weights": "u-adic"}).params["weights"] == [1, 0, 0, 0]
    assert cfg("grade").params == {"preset": "poly:2", "module": "top", "budget": 4}
    assert cfg("ext", params={"i": "2"}).params["i"] == 2


def test_diagram_check_bounds_admit_their_edges():
    params = {"trials": 1000, "max_degree": 16}
    assert cfg("diagram-check", params=params).params == params
    assert cfg("diagram-check", params={"trials": 1000.0, "max_degree": "16"}).params == params


def test_all_zero_weights_still_fail_the_filtration():
    rep, code = run(cfg("gr", params={"weights": [0, 0]}))
    assert code == 1
    assert rep.checks == [{"name": "error", "passed": False, "detail": "at least one weight must be positive"}]


def readme_param_rows():
    """{(command, param): (kind, default, bound, required)} from README's
    CLI params table."""
    rows = {}
    for line in (GOLDEN.parent.parent / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 6 and cells[0].startswith("`"):
            rows[cells[0].strip("`"), cells[1].strip("`")] = tuple(cells[2:])
    return rows


def test_readme_lists_the_param_schema():
    rows = readme_param_rows()
    schema = {(command, field): param for command, (_, params) in cli.COMMANDS.items()
              for field, param in params.items()}
    assert rows.keys() == schema.keys()
    for key, param in schema.items():
        kind, default, bound, required = rows[key]
        choices = ", ".join(f"`{c}`" for c in param.choices)
        assert kind == (f"one of {choices}" if param.kind == "choice" else param.kind), key
        assert bound == " and ".join(f"{op} {v}" for op, v in ((">=", param.least), ("<=", param.most))
                                     if v is not None), key
        assert required == ("yes" if param.default is None else "no"), key
        if not callable(param.default):  # a computed default is described in words
            assert default == ("" if param.default is None else f"`{param.default}`"), key


def test_integral_floats_and_integer_strings_are_integers():
    want, code = run(cfg("ext", params={"i": 1}))
    assert code == 0
    for i in (1.0, "1"):
        rep, code = run(cfg("ext", params={"i": i}))
        assert code == 0 and rep.result == want.result


def test_internal_key_error_is_not_a_config_error(monkeypatch):
    def broken(s, A):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "reduced_norm", broken)
    with pytest.raises(KeyError, match="internal"):
        run(cfg("norm", params={"element": "g1"}))


def test_squares_subring_on_poly():
    # the subring F_2[x^2] of F_2[x]/(x^4): m^2 = (x^2) lies in m_R A
    rep, code = run(cfg("localring", params={"preset": "poly:4", "subring": "squares"}))
    assert code == 0 and rep.result["adic_k0"] == 2


def test_exit_code_1_module_error():
    # ord of a non-central element propagates as a failed report entry
    proc = run_cli({"p": 2, "n": 1, "command": "ord", "element": "g1"})
    assert proc.returncode == 1
    assert "[FAIL]" in proc.stdout


def test_exit_code_3_budget():
    # sections with a degree bound below the completeness guard
    proc = run_cli(
        {
            "p": 3,
            "n": 1,
            "command": "sections",
            "params": {"k": 5, "degree_bound": 1},
        }
    )
    assert proc.returncode == 3


def test_norm_budget_exits_3(monkeypatch):
    monkeypatch.setattr(norm, "NORM_BUDGET", 10)
    rep, code = run(cfg("norm", p=5, n=2, params={"element": "g1 + g2"}))
    assert code == 3
    [check] = rep.checks
    assert check["name"] == "budget" and not check["passed"]
    assert check["detail"].startswith(
        "determinant: budget of NORM_BUDGET = 10 term products exceeded at column ")
    assert check["detail"].endswith(" of a 25 x 25 matrix")


@pytest.mark.parametrize("command,params", [
    ("diagram-check", {"trials": 10}), ("diagram-check", {"trials": 50}), ("report-all", {}),
], ids=["diagram-10", "diagram-50", "report-all"])
@pytest.mark.parametrize("p", [3, 5])
def test_norm_commands_finish_at_n2(p, command, params):
    # with the p^(2n) determinant these ran past 60 s at (3, 2) and (5, 2);
    # the split norm takes at most 0.5 s
    start = time.perf_counter()
    rep, code = run(cfg(command, p=p, n=2, params=params))
    assert time.perf_counter() - start < 10.0
    assert code == 0 and rep.all_passed


def test_norm_budget_stops_diagram_check_at_7_2():
    # one of the first ten seed-0 elements at (7, 2) needs about 45 million
    # term products; the budget stops it with exit 3 instead of a 20 s run
    start = time.perf_counter()
    rep, code = run(cfg("diagram-check", p=7, n=2, params={"trials": 10}))
    assert time.perf_counter() - start < 30.0
    assert code == 3
    [check] = rep.checks
    assert check["name"] == "budget"
    assert check["detail"].startswith("determinant: budget of NORM_BUDGET = ")
    assert check["detail"].endswith("exceeded at column 43 of a 49 x 49 matrix")


def test_sections_budget_exits_3_before_listing():
    # k = 60 at (2, 2) has C(64, 4) = 635,376 monomials (8 s to print them)
    start = time.perf_counter()
    rep, code = run(cfg("sections", p=2, n=2, params={"k": 60}))
    assert time.perf_counter() - start < 1.0
    assert code == 3
    [check] = rep.checks
    assert check["name"] == "budget"
    assert check["detail"] == ("sections: C(k + 2n, 2n) = C(64, 4) = 635376 monomials "
                               f"exceed the budget SECTIONS_BUDGET = {norm.SECTIONS_BUDGET}")


NUMPY_FREE = """
import json, sys
from weylkit import cli
commands = [
    ("nf", {"element": "g2*g1"}), ("mul", {"a": "g2", "b": "g1"}),
    ("norm", {"element": "g1 + g2*g3"}), ("symbol", {"element": "g1*g2"}),
    ("ord", {"element": "g1^3"}), ("twist", {"element": "g1", "k": 1}),
    ("sections", {"k": 2}), ("diagram-check", {"trials": 5}),
]
for command, params in commands:
    config = {"p": 3, "n": 2, "command": command, "params": params}
    rep, code = cli.run(cli.parse_config(json.dumps(config)))
    assert code == 0, (command, rep.checks)
print(sorted(m for m in sys.modules if m.split(".")[0] == "numpy"))
"""


def test_norm_commands_do_not_import_numpy():
    proc = run_python(["-c", NUMPY_FREE])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_weylkit_defers_numpy_to_the_findim_names():
    proc = run_python(["-c", "import sys, weylkit; print('numpy' in sys.modules); "
                             "print(weylkit.FinDimAlgebra.__name__, 'numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nFinDimAlgebra True\n"


def test_table_budget_exits_3():
    # cyclic:2000 has a 2000^3-entry table (59.6 GiB of int64)
    proc = run_cli({"p": 2, "n": 1, "command": "radical", "params": {"preset": "cyclic:2000"}})
    assert proc.returncode == 3
    assert f"exceed the table budget TABLE_BUDGET = {TABLE_BUDGET}" in proc.stdout
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("module", ["top", "regular"])
def test_auslander_enumeration_budget_exits_3_fast(module):
    # Ext^0 of cyclic:10 at p = 3 has dimension 10, and 3^10 > ENUM_BUDGET
    config = parse_config(json.dumps({
        "p": 3, "n": 1, "command": "auslander",
        "params": {"preset": "cyclic:10", "module": module},
    }))
    start = time.perf_counter()
    rep, code = run(config)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    [check] = rep.checks
    assert check["name"] == "budget" and not check["passed"]
    assert check["detail"] == (
        f"cyclic submodule enumeration: p^q = 3**10 exceeds the budget {ENUM_BUDGET}"
    )


# -- reproducibility ----------------------------------------------------------


def test_report_all_byte_identical():
    config = {"p": 2, "n": 1, "command": "report-all", "seed": 7, "output": "json"}
    a = run_cli(config)
    b = run_cli(config)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_report_all_matches_golden():
    config = {"p": 2, "n": 1, "command": "report-all", "seed": 7, "output": "json"}
    got = run_cli(config).stdout
    want = (GOLDEN / "report_all_p2n1_seed7.json").read_text()
    assert got == want


@pytest.mark.parametrize("value", [
    {}, [], (), "", 0, -1.5, float("inf"), None, True,
    {"b": [1, (2.5, None)], "a": {"z": [], "y": {}}, "é\n\"": "☃"},
    {2: "two", 10: [False]}, {0.5: 1, 0.25: 2}, {True: [[{}]], False: ()},
    [[], [[]], {"k": [{"k": 1}]}],
])
def test_json_text_is_json_dumps_sorted_and_indented(value):
    assert cli._json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_render_leaves_no_cyclic_garbage():
    config = parse_config(json.dumps({"p": 2, "n": 1, "command": "report-all", "seed": 7,
                                      "output": "json"}))
    rep, _ = run(config)
    gc.disable()
    try:
        gc.collect()
        texts = [rep.render() for _ in range(20)]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert texts[0] == json.dumps(rep.as_dict(), sort_keys=True, indent=2) + "\n"
