"""The benchmark's CLI configs pass the CLI's param schema.

perfbench/workloads.py builds its CLI ops as JSON configs; a schema change
that rejected one would turn that op into a failure in every benchmark run,
so each config goes through ``cli.parse_config`` here.  The workloads file
is loaded, not changed: only its ``cli_op`` is replaced, on the loaded
module, by a recorder."""

import importlib.util
import json
import pathlib

import pytest

from weylkit import cli
from weylkit.weylalg import SUPPORTED_N

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["twist-sections", "findim-homology"])
def test_workload_cli_configs_pass_the_schema(workload):
    module = load_workloads()
    texts = []
    # the text cli_op hands to parse_config
    module.cli_op = lambda kind, key, config, law=None: texts.append(
        json.dumps(dict(config, output="json"), sort_keys=True))
    list(module.WORKLOADS[workload]().universe())
    assert len(texts) > 100
    for text in texts:
        cli.parse_config(text)  # raises ConfigError on a rejected config


@pytest.mark.parametrize("n", SUPPORTED_N)
def test_report_all_sub_runs_pass_the_schema(n, monkeypatch):
    # every handler but report-all's is stubbed, so that only its sub-runs'
    # param checks run
    ran = []
    stubs = {name: cli.Command(lambda config, rep: ran.append(config.command), command.params)
             for name, command in cli.COMMANDS.items() if name != "report-all"}
    monkeypatch.setattr(cli, "COMMANDS", {**cli.COMMANDS, **stubs})
    rep, code = cli.run(cli.parse_config(json.dumps({"p": 3, "n": n, "command": "report-all"})))
    assert code == 0
    assert ran == ["nf", "confluence", "confluence", "confluence", "chart-check", "norm", "sections",
                   "diagram-check", "gr", "localring", "radical", "ext", "grade", "auslander"]
