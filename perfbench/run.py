"""weylkit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a closed loop (one client, one op in flight) in the
current process, from the checkout that holds this file.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` also replays the same ops with
spans around weylkit's public functions and prints the per-layer metrics.
Op times are read at the machine's nominal speed (see speed.py).
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import speed
from workloads import WORKLOADS  # imports no weylkit yet

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

OP_CAP_S = 20.0  # wall-time cap on one op; an op that hits it fails
PASS_LIMIT_S = 45.0  # no new op starts after this long in one pass
SETUP_REPEATS = 5

_clock = time.perf_counter


class OpTimeout(BaseException):
    """Raised into an op that ran past OP_CAP_S.  A BaseException, so that
    no ``except Exception`` inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(op, cap, probe=None):
    """Time one op under the hang guard; returns (latency, result, error).
    ``probe`` may sample the machine's speed inside the timed interval."""
    signal.setitimer(signal.ITIMER_REAL, cap)
    t0 = _clock()
    if probe is not None:
        probe.start_op()
    try:
        result = op.call()
        error = None
    except OpTimeout:
        result, error = None, f"hit the {cap:g} s cap"
    except Exception as e:  # any failure of the program counts against it
        result, error = None, f"{type(e).__name__}: {e}"
    finally:
        if probe is not None:
            probe.stop_op()
        latency = _clock() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    return latency, result, error


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def verify(op, result, digests):
    """Check an op's output; returns an error string or None."""
    try:
        text = op.check(result)
    except Exception as e:  # a check that cannot even read the output fails it too
        return f"check failed: {type(e).__name__}: {e}"
    expected = digests.get(op.key)
    if expected is None:
        return "no reference digest for this input"
    if digest(text) != expected:
        return "output differs from the reference digest"
    return None


def run_pass(workload, rounds, seconds, digests, tracer=None):
    """Run rounds of ops until their op time reaches ``seconds`` (whole
    rounds), or replay exactly ``rounds`` rounds when given.

    Returns a list of (round, kind, latency, error, scaled) per op, where
    ``scaled`` is the latency read at the machine's nominal speed."""
    # No kernel samples inside ops while tracing: they would land in spans.
    probe = speed.SpeedProbe(inside_ops=tracer is None)
    records = []
    busy = 0.0
    start = _clock()

    def late():
        return _clock() - start > PASS_LIMIT_S

    r = 0
    while ((r < rounds) if rounds is not None else (busy < seconds)) and not late():
        for op in workload.round(r):
            if late():
                break
            latency, result, error = run_op(op, OP_CAP_S, probe)
            latency, marks = probe.after_op(latency)
            busy += latency
            if error is None:
                error = verify(op, result, digests)
            if tracer is not None:
                tracer.end_op()
            if error is not None:
                print(f"FAILED {op.key}: {error}", file=sys.stderr)
            records.append((r, op.kind, latency, error, marks))
        r += 1
    return [(r, kind, lat, err, lat * probe.factor_at(marks))
            for r, kind, lat, err, marks in records]


def speed_factor(records):
    """The pass's op time at nominal speed over its measured op time."""
    return sum(rec[4] for rec in records) / sum(rec[2] for rec in records)


def tail(latencies):
    """Latency at the highest percentile with >= 10 samples beyond it:
    returns (value, percentile, samples beyond)."""
    s = sorted(latencies)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s) - 1 - i


def setup_probe(name, seed):
    """Set up once in a fresh interpreter and return the seconds it took, at
    nominal speed."""
    factor = speed.factor_now()
    out = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__)), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=25, check=True, cwd=ROOT,
    )
    return float(out.stdout.split()[-1]) * factor


def src_lines():
    return sum(len(f.read_text().splitlines()) for f in sorted((SRC / "weylkit").rglob("*.py")))


def context(seed):
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
    }


def end_to_end(records, setups):
    """The end-to-end metrics, from op times read at nominal speed."""
    raw = [rec[2] for rec in records]
    latencies = [rec[4] for rec in records]
    failed = sum(1 for rec in records if rec[3] is not None)
    value, pct, beyond = tail(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((len(records) - failed) / sum(latencies), "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (value * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    notes = {
        "setup_s": "median of %d set-ups: %s" % (len(setups), ", ".join(f"{s:.4f}" for s in setups)),
        "ops_per_s": f"{len(records) - failed} correct ops in {sum(latencies):.3f} s of op time; "
                     f"unscaled {(len(records) - failed) / sum(raw):.4f}",
        "op_p50_ms": f"unscaled {statistics.median(raw) * 1e3:.4f}",
        "op_tail_ms": f"p{pct:.1f} of {len(latencies)} ops, {beyond} beyond; "
                      f"unscaled {tail(raw)[0] * 1e3:.4f}",
    }
    return metrics, notes, failed


def per_layer(tracer, traced, untraced):
    """Per-layer metrics from the traced replay of the untraced pass, with
    span times scaled by the replay's speed factor."""
    n = len(traced)  # the replay may stop early; compare like with like
    traced_factor = speed_factor(traced)
    traced_s = sum(rec[4] for rec in traced)
    untraced_s = sum(rec[4] for rec in untraced[:n])
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    multiply_calls = calls["presentations.multiply_cold"] + calls["presentations.multiply_warm"]
    metrics = {}
    for name in ("norm.det_poly", "commpoly.exact_div", "commpoly.mul", "norm.left_mult_matrix",
                 "presentations.multiply_cold", "presentations.multiply_warm",
                 "presentations.check_confluence", "weylalg.build",
                 "localring.jacobson_radical", "findim.two_sided_ideal", "linalg_fp.rref",
                 "homology.resolution", "homology.ext_groups", "homology.auslander_probe",
                 "cli.run"):
        metrics[name + "_s"] = (s[name] * traced_factor, "s")
    for name in ("norm.det_poly", "commpoly.exact_div", "commpoly.mul",
                 "norm.twist_membership", "weylalg.build", "localring.jacobson_radical",
                 "linalg_fp.rref"):
        metrics[name + "_calls"] = (calls[name], "count")
    metrics["presentations.multiply_calls"] = (multiply_calls, "count")
    for name in ("norm.det_matrix_dim_sum", "commpoly.norm_terms", "presentations.cache_entries",
                 "findim.elements_enumerated", "homology.resolution_rank_sum"):
        metrics[name] = (counts[name], "count")
    metrics["norm.det_poly_share"] = (
        tracer.incl_s["norm.det_poly"] * traced_factor / traced_s, "ratio")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return metrics


def by_kind(records):
    kinds = {}
    for rec in records:
        kinds.setdefault(rec[1], []).append(rec[4])
    return {k: (len(v), statistics.median(v) * 1e3, sum(v)) for k, v in sorted(kinds.items())}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "weylkit" / "__init__.py").is_file():
        print(f"error: no weylkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    if args.setup_probe:
        t0 = _clock()
        workload.setup(args.seed)
        print(_clock() - t0)
        return 0

    setups = [setup_probe(args.workload, args.seed) for _ in range(SETUP_REPEATS)]
    workload.setup(args.seed)
    digests = json.loads((HERE / "digests.json").read_text())[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    for op in itertools.islice(workload.round(-1), workload.warmup_ops):
        run_op(op, OP_CAP_S)

    records = run_pass(workload, None, args.seconds, digests)
    metrics, notes, failed = end_to_end(records, setups)
    rounds = records[-1][0] + 1
    attempted = len(records)

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  ops {len(records)}  "
          f"speed factor {speed_factor(records):.4f}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<12} {value:12.4f} {unit}{note}")
    print(f"  {'fail_ratio':<12} {failed / len(records):12.4f}  "
          f"({failed} failed / {len(records)} attempted)")
    for kind, (count, p50, total) in by_kind(records).items():
        print(f"    {kind:<18} {count:5d} ops  p50 {p50:10.3f} ms  total {total:8.3f} s")

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, rounds, None, digests, tracer)
        finally:
            tracer.uninstall()
        failed += sum(1 for rec in traced if rec[3] is not None)
        attempted += len(traced)
        metrics = per_layer(tracer, traced, records)
        print(f"traced replay: {len(traced)} of {len(records)} ops")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<36} {value:16.6f} {unit}")

    print("context " + json.dumps(context(args.seed), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
