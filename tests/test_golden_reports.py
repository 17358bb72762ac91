"""Byte-identical verification reports on a fixed corpus.

The reports in golden/reports_a3.json were recorded before the duality
refactor, those in golden/reports_a4.json (C(A_4) with the non-linear
orientation "><>" over GF(101), whose 14 objects give multi-copy blocks)
before the compiled Hom layout, golden/reports_a4_q.json (C(A_4) over Q at
the default budget, scan_pairs_cap=400) before integral rationals became
ints, golden/reports_fail.json (failing and budget-exhausted verdicts of
C(A_3) over Q, each at its own budget) before the scan became the one place
that computes the bounded clauses, except the out-of-budget T = P2 report,
re-recorded when integrality became a decision that needs no leg search, and golden/reports_a5_q.json (C(A_5) over
Q, T = P1+...+P5, at the default budget) before the equivalence verifier's
regular-leg searches were pruned by shape, and golden/reports_a7_q.json (C(A_7)
over Q, T = P1+...+P7, at the default budget, whose quotient is the largest
any golden file validates) before associativity was checked on generating
words, and golden/reports_a8_q_odd.json (C(A_8) over Q, T = P1+P3+P5+P7, at
the default budget, whose FULL clause realises 90 fractions with a
non-identity denominator) before the pullback stopped keeping exchanged
squares; any change to a verdict, a count or a failure detail shows up here.  Only `timing_s` is dropped, because it is the
one non-deterministic section.  golden/categories.json holds the sha256 of
the saved form of 22 generated categories (C(A_1)..C(A_7), every orientation
of C(A_4), C(A_3, "><") over Q, C(A_4, "><>") over GF(101), C(A_3) over GF(2)
and GF(3)), recorded before the generator wrote each dual construction once,
and of C(A_5, "<><>") over GF(5), C(A_4, "<><") over GF(2) and C(A_5, "><><")
over GF(3), recorded with C(A_7) before the generator's map arithmetic went
through linalg: small characteristic and non-linear orientations, where the
normalising inverses and the coefficient divisions matter.  Any change to a
generated Hom basis, composition table, name or labelling shows up there.
golden/subcategories.json holds one sha256 per field over the reports of the
510 proper subcategory quotients of C(A_3), over Q and over GF(2), at
scan_pairs_cap=120, recorded before the scan decided its sides ahead of the
morphism family: most of these quotients are undecided on some side or fail
a clause, so they pin the paths the rigid-T corpora never take.
golden/demos/ holds the stdout of each script in demos/, which
tests/test_demos.py compares byte for byte.
Regenerate the files on purpose with

    PYTHONPATH=src python tests/test_golden_reports.py --record
"""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

from quotcat.catfile import presentation_to_dict
from quotcat.clustergen import build_cluster_category
from quotcat.linalg import GF, QQ
from quotcat.preabelian import Budget
from quotcat.verify import run_verification

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
ROOT = GOLDEN_DIR.parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _cases_a3() -> dict:
    a3 = build_cluster_category(3)
    a3p = build_cluster_category(3, field=GF(101))
    return {
        "A3/Q T=P2": (a3, {"t_spec": a3.obj({"P2": 1})}),
        "A3/Q T=P1+P3": (a3, {"t_spec": a3.obj({"P1": 1, "P3": 1})}),
        "A3/Q T=S2+I2": (a3, {"t_spec": a3.obj({"S2": 1, "I2": 1})}),
        "A3/F101 T=P1+P3": (a3p, {"t_spec": a3p.obj({"P1": 1, "P3": 1})}),
        "A3/Q subcat=P1+P2+S2": (a3, {"subcat": {a3.index(s) for s in ("P1", "P2", "S2")}}),
    }


def _cases_a4() -> dict:
    a4 = build_cluster_category(4, "><>", GF(101))
    return {
        "A4(><>)/F101 T=I1+P1": (a4, {"t_spec": a4.obj({"I1": 1, "P1": 1})}),
        "A4(><>)/F101 T=I1+P1+I2+M[1,4]": (
            a4,
            {"t_spec": a4.obj({"I1": 1, "P1": 1, "I2": 1, "M[1,4]": 1})},
        ),
    }


def _cases_a4_q() -> dict:
    a4 = build_cluster_category(4, field=QQ)
    return {"A4/Q T=P1+P2+P3+P4": (a4, {"t_spec": a4.obj({f"P{i}": 1 for i in range(1, 5)})})}


def _cases_a5_q() -> dict:
    a5 = build_cluster_category(5, field=QQ)
    return {"A5/Q T=P1+...+P5": (a5, {"t_spec": a5.obj({f"P{i}": 1 for i in range(1, 6)})})}


def _cases_a7_q() -> dict:
    a7 = build_cluster_category(7, field=QQ)
    return {"A7/Q T=P1+...+P7": (a7, {"t_spec": a7.obj({f"P{i}": 1 for i in range(1, 8)})})}


def _cases_a8_q_odd() -> dict:
    a8 = build_cluster_category(8, field=QQ)
    return {"A8/Q T=P1+P3+P5+P7": (a8, {"t_spec": a8.obj({f"P{i}": 1 for i in (1, 3, 5, 7)})})}


def _cases_fail() -> dict:
    # integral and rf_axioms fail with leg details; then both run out of
    # budget in their leg clauses; then the preabelian clause itself does
    a3 = build_cluster_category(3)
    return {
        "A3/Q subcat=P1+P2+I2": (a3, {"subcat": {a3.index(s) for s in ("P1", "P2", "I2")}}),
        "A3/Q T=P2 retries=1 grid_cap=1": (
            a3,
            {"t_spec": a3.obj({"P2": 1}), "budget": Budget(retries=1, grid_cap=1)},
        ),
        "A3/Q T=P1+P2 retries=0 grid_cap=1": (
            a3,
            {"t_spec": a3.obj({"P1": 1, "P2": 1}), "budget": Budget(retries=0, grid_cap=1)},
        ),
    }


CAPPED = Budget(scan_pairs_cap=120)
CORPORA = {  # each file with the budget of the cases that name none
    "reports_a3.json": (_cases_a3, CAPPED),
    "reports_a4.json": (_cases_a4, CAPPED),
    "reports_a4_q.json": (_cases_a4_q, Budget()),
    "reports_fail.json": (_cases_fail, CAPPED),
    "reports_a5_q.json": (_cases_a5_q, Budget()),
    "reports_a7_q.json": (_cases_a7_q, Budget()),
    "reports_a8_q_odd.json": (_cases_a8_q_odd, Budget()),
}


def corpus_reports(filename) -> dict:
    """Reports keyed by case name, as the JSON text they are compared by."""
    cases, budget = CORPORA[filename]
    out = {}
    for name, (P, kw) in cases().items():
        rep = run_verification(P, **{"budget": budget, **kw})
        rep.pop("timing_s")
        out[name] = json.dumps(rep, indent=1, sort_keys=True)
    return out


def _check(filename):
    golden = json.loads((GOLDEN_DIR / filename).read_text(encoding="utf-8"))
    fresh = corpus_reports(filename)
    assert sorted(fresh) == sorted(golden)
    for name, text in fresh.items():
        assert text == golden[name], name


def test_reports_match_golden():
    _check("reports_a3.json")


def test_a4_f101_reports_match_golden():
    _check("reports_a4.json")


def test_a4_q_default_budget_reports_match_golden():
    _check("reports_a4_q.json")


def test_failing_and_exhausted_reports_match_golden():
    _check("reports_fail.json")


def test_a5_q_default_budget_reports_match_golden():
    _check("reports_a5_q.json")


def test_a7_q_default_budget_reports_match_golden():
    _check("reports_a7_q.json")


def test_a8_q_odd_projectives_reports_match_golden():
    _check("reports_a8_q_odd.json")


GENERATED = (  # (n, orientation, field) of each category in categories.json
    [(n, None, QQ) for n in range(1, 7)]
    + [(4, "".join(o), QQ) for o in itertools.product("<>", repeat=3)]
    + [(3, "><", QQ), (4, "><>", GF(101)), (3, None, GF(2)), (3, None, GF(3))]
    + [(7, None, QQ), (5, "<><>", GF(5)), (4, "<><", GF(2)), (5, "><><", GF(3))]
)


def category_digests() -> dict:
    """sha256 of each generated category's saved form, keyed by its name."""
    out = {}
    for n, orientation, field in GENERATED:
        P = build_cluster_category(n, orientation, field)
        text = json.dumps(presentation_to_dict(P), indent=1, sort_keys=True)
        name = f"A{n}" + (f"({orientation})" if orientation is not None else "") + f"/{field!r}"
        out[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


SUBCATEGORY_FIELDS = {"A3/Q": QQ, "A3/GF(2)": GF(2)}


def subcategory_digests() -> dict:
    """One sha256 per field of SUBCATEGORY_FIELDS, over the reports of every
    proper subcategory quotient of C(A_3) at CAPPED.

    The quotients come in itertools.combinations order, by size; each
    report, without timing_s, is one line of canonical JSON (sorted keys,
    no spaces), and the digest is of those lines in that order.
    """
    out = {}
    for name, field in SUBCATEGORY_FIELDS.items():
        A3 = build_cluster_category(3, None, field)
        digest = hashlib.sha256()
        for k in range(1, A3.n):
            for S in itertools.combinations(range(A3.n), k):
                rep = run_verification(A3, subcat=set(S), budget=CAPPED)
                rep.pop("timing_s")
                digest.update(json.dumps(rep, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n")
        out[name] = digest.hexdigest()
    return out


def test_subcategory_quotients_match_golden():
    golden = json.loads((GOLDEN_DIR / "subcategories.json").read_text(encoding="utf-8"))
    assert subcategory_digests() == golden


def test_generated_categories_match_golden():
    golden = json.loads((GOLDEN_DIR / "categories.json").read_text(encoding="utf-8"))
    assert category_digests() == golden


def demo_stdout(demo) -> str:
    """The stdout of one demo script, run with src/ first on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(demo)],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=300,
    )
    if run.returncode:
        raise RuntimeError(f"{demo.name} exited {run.returncode}: {run.stderr}")
    return run.stdout


def demo_golden(demo) -> pathlib.Path:
    return GOLDEN_DIR / "demos" / f"{demo.stem}.txt"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    for filename in CORPORA:
        text = json.dumps(corpus_reports(filename), indent=1, sort_keys=True) + "\n"
        (GOLDEN_DIR / filename).write_text(text, encoding="utf-8")
    text = json.dumps(category_digests(), indent=1, sort_keys=True) + "\n"
    (GOLDEN_DIR / "categories.json").write_text(text, encoding="utf-8")
    text = json.dumps(subcategory_digests(), indent=1, sort_keys=True) + "\n"
    (GOLDEN_DIR / "subcategories.json").write_text(text, encoding="utf-8")
    for demo in DEMOS:
        demo_golden(demo).parent.mkdir(exist_ok=True)
        demo_golden(demo).write_text(demo_stdout(demo), encoding="utf-8", newline="\n")
