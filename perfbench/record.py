"""Record the reference digests of every op a benchmark run can make.

    python3 perfbench/record.py [WORKLOAD ...]

Runs each workload's whole input pool once, checks every output with the
same checks a benchmark run applies, and writes the first 16 hex digits of
the SHA-256 of each canonical output to ``perfbench/digests.json``.  The
outputs must stay byte-identical, so a change that alters one is a
correctness failure in the benchmark, not a reason to re-record.
"""

from __future__ import annotations

import json
import sys
import time

from run import HERE, SRC, digest
from workloads import WORKLOADS


def main(names):
    sys.path.insert(0, str(SRC))
    path = HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        workload.setup(0)
        table = {}
        t0 = time.perf_counter()
        for op in workload.universe():
            table[op.key] = digest(op.check(op.call()))
        digests[name] = dict(sorted(table.items()))
        print(f"{name}: {len(table)} outputs in {time.perf_counter() - t0:.1f} s", flush=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
