"""Run Python in a child process that imports this checkout's ``src/``,
whether or not the package is installed or on PYTHONPATH."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_python(args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run ``python ARGS`` with ``src/`` first on the child's PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def run_weylkit(config: str) -> subprocess.CompletedProcess:
    """Run the CLI on the JSON config text, read from stdin."""
    return run_python(["-m", "weylkit", "-"], config)
