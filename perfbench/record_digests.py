"""Write digests.json: the report digest of every verdict the benchmark can run.

    python3 perfbench/record_digests.py

Runs every rigid T of each sweep and every ladder rung once, so it takes
about as long as the full sweeps (roughly 10 minutes on a 2-core VM).  Run it
only when a change is meant to alter reports; a speed-up must leave the file
as it is.  Every verdict must be "pass", the paper's answer, or nothing is
written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    digests = {}
    work = os.path.join(run.OUT, f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for name in run.WORKLOADS:
            wl = run.workload(name)
            inputs = wl.setup(work)
            problem = wl.check_setup(inputs)
            if problem:
                print(f"error: {name}: {problem}", file=sys.stderr)
                return 1
            digests[name] = {}
            for item in wl.population(inputs):
                label = wl.label(inputs, item)
                report = wl.verdict(inputs, item)
                if report["overall"] != "pass":
                    print(f"error: {name} {label}: overall {report['overall']}", file=sys.stderr)
                    return 1
                digests[name][label] = run.digest(report)
                print(name, label, digests[name][label][:16], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
