"""Quick self-test of the benchmark (about a minute on a 2-core VM).

    python3 perfbench/selftest.py

Runs every workload at minimal size (one verdict, or the A_3 rung of the
ladder), untraced and traced, and checks that:
- each run prints every metric of BENCHMARK.json with its unit, and its
  result object carries exactly those metrics;
- every verdict matches the paper and the stored report digest, and the
  known-negative probe passes (the result is "correct");
- the traced run leaves no wrapper behind and its span file agrees with the
  call counts it reported;
- without the library sources the command fails and prints no result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run
import tracer


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = []

    def check(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for name in run.WORKLOADS:
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            lines = []
            result = run.measure(name, seed=1, seconds=0, trace=trace, limit=1, log=lines.append)
            tag = f"{name} trace={int(trace)}"
            want = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{tag}: result carries exactly the declared metrics and units")
            printed = {ln.split()[1]: ln.split()[3] for ln in lines if ln.startswith("metric ")}
            check(printed == want, f"{tag}: every metric printed by name with its unit")
            check(result["correct"] and result["failed"] == 0,
                  f"{tag}: verdicts, digests and probe correct")
            if not result["correct"]:
                print("\n".join(ln for ln in lines if ln.startswith(("check", "problem"))))
            if trace:
                check(tracer.leftover_wrappers() == [], f"{tag}: no wrapper left on quotcat")
                header, cols = tracer.read_spans(os.path.join(run.OUT, f"spans-{name}.bin"))
                compose_id = header["layers"].index("fincat.compose")
                spans = sum(1 for lid in cols["layer"] if lid == compose_id)
                check(len(cols["start"]) == header["spans"]
                      and spans == result["metrics"]["fincat.compose_calls"]["value"],
                      f"{tag}: span file agrees with the reported call counts")

    bare = os.path.join(run.OUT, "nosrc")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-a3-q", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ the command exits non-zero and prints no result")
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
