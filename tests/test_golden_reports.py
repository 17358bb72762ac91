"""Byte-identical verification reports on a fixed corpus.

The reports in golden/reports_a3.json were recorded before the duality
refactor; any change to a verdict, a count or a failure detail shows up
here.  Only `timing_s` is dropped, because it is the one non-deterministic
section.  Regenerate the file on purpose with

    PYTHONPATH=src python tests/test_golden_reports.py --record
"""

import json
import pathlib
import sys

from quotcat.clustergen import build_cluster_category
from quotcat.linalg import GF
from quotcat.preabelian import Budget
from quotcat.verify import run_verification

GOLDEN = pathlib.Path(__file__).parent / "golden" / "reports_a3.json"


def corpus_reports() -> dict:
    """Reports keyed by case name, as the JSON text they are compared by."""
    a3 = build_cluster_category(3)
    a3p = build_cluster_category(3, field=GF(101))
    capped = Budget(scan_pairs_cap=120)
    cases = {
        "A3/Q T=P2": (a3, {"t_spec": a3.obj({"P2": 1})}),
        "A3/Q T=P1+P3": (a3, {"t_spec": a3.obj({"P1": 1, "P3": 1})}),
        "A3/Q T=S2+I2": (a3, {"t_spec": a3.obj({"S2": 1, "I2": 1})}),
        "A3/F101 T=P1+P3": (a3p, {"t_spec": a3p.obj({"P1": 1, "P3": 1})}),
        "A3/Q subcat=P1+P2+S2": (a3, {"subcat": {a3.index(s) for s in ("P1", "P2", "S2")}}),
    }
    out = {}
    for name, (P, kw) in cases.items():
        rep = run_verification(P, budget=capped, **kw)
        rep.pop("timing_s")
        out[name] = json.dumps(rep, indent=1, sort_keys=True)
    return out


def test_reports_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    fresh = corpus_reports()
    assert sorted(fresh) == sorted(golden)
    for name, text in fresh.items():
        assert text == golden[name], name


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    GOLDEN.write_text(json.dumps(corpus_reports(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
