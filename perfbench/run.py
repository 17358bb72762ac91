"""Benchmark of record for quotcat: time to a verdict on the paper's claim.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-a3-q --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: the next verdict starts only after the
previous one returned.  With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it runs a fixed set of verdicts twice, untraced and then traced,
and reports per-layer metrics and the tracing overhead.  Every verdict is
checked against the paper's answer and against the report digests stored in
digests.json.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)

import quotcat  # noqa: E402

if not os.path.abspath(quotcat.__file__).startswith(SRC + os.sep):
    sys.exit(f"error: quotcat was imported from {quotcat.__file__}, not from {SRC}")

# Modules, not names: the tracer patches module attributes, and the benchmark
# must call through them to be traced as well.
from quotcat import (  # noqa: E402
    catfile,
    cli,
    clustergen,
    fincat,
    linalg,
    localization,
    modcat,
    preabelian,
    quotient,
    verify,
)

import speed  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("ladder-q", "sweep-a3-q", "sweep-a4-f101")
# The acceptance budget of the test suite; the ladder uses the CLI default.
SWEEP_BUDGET = preabelian.Budget(scan_pairs_cap=120)
LADDER_RUNGS = (3, 4, 5)
SETUP_REPEATS = 3
# A sweep run checks a fixed number of T: --seconds / VERDICT_S, the seed
# code's mean verdict in reference seconds, but at least 11, which
# verdict_s_tail needs.  A fixed count keeps the tail's percentile the same
# across commits.
VERDICT_S = 2.2
MIN_VERDICTS = 11
# Verdicts a traced sweep runs (twice: untraced, then traced).
TRACE_VERDICTS = 6
DIGESTS = os.path.join(HERE, "digests.json")
PROBE_NONRIGID = 3
# Checks a run makes besides its verdicts: the set-up check, the two Section 6
# negatives and the non-rigid T (a traced run adds the leftover-wrapper check).
EXTRA_CHECKS = 3 + PROBE_NONRIGID


# -- inputs -------------------------------------------------------------------


def crosses(d, e) -> bool:
    """Diagonals of a polygon cross in their interiors (the crossing model)."""
    (a, b), (c, d2) = sorted(d), sorted(e)
    return a < c < b < d2 or c < a < d2 < b


def diagonals(P) -> dict:
    """Object name -> its polygon diagonal, from the generator's labelling."""
    return {name: tuple(d) for name, d in P.metadata["labelling"].items()}


def crossing_rigid_sets(P, max_size: int) -> set[frozenset]:
    """Sets of object names whose diagonals pairwise do not cross.

    In the cluster category of type A_n, Ext^1(X, Y) != 0 exactly when the
    diagonals of X and Y cross, so these are the rigid T.  The answer comes
    from the polygon, not from the code under test.
    """
    lab = diagonals(P)
    names = sorted(lab)
    out = set()

    def extend(prefix, start):
        if prefix:
            out.add(frozenset(prefix))
        if len(prefix) == max_size:
            return
        for i in range(start, len(names)):
            if not any(crosses(lab[names[i]], lab[p]) for p in prefix):
                extend(prefix + [names[i]], i + 1)

    extend([], 0)
    return out


class Sweep:
    """run_verification over every rigid T of one generated category."""

    def __init__(self, name, n, orientation, field):
        self.name, self.n, self.orientation, self.field = name, n, orientation, field

    def setup(self, work: str):
        """Generate, save, load, enumerate the rigid T: everything but verdicts."""
        P0 = clustergen.build_cluster_category(self.n, self.orientation, self.field)
        path = os.path.join(work, f"{self.name}.json")
        catfile.save_category(P0, path)
        P = catfile.load_category(path)
        supports = fincat.all_rigid_supports(P, self.n)
        return P, supports

    def check_setup(self, inputs) -> str:
        P, supports = inputs
        got = {frozenset(P.objects[i] for i in s) for s in supports}
        if got != crossing_rigid_sets(P, self.n) or len(got) != len(supports):
            return f"rigid T enumeration differs from the crossing model ({len(supports)} found)"
        return ""

    def population(self, inputs) -> list:
        return inputs[1]

    def order(self, inputs, seed: int) -> list:
        """Seeded order, stratified by the number of summands of T.

        Each stratum is shuffled and spread evenly over the order, so every
        prefix has about the population's mix of small and large quotients.
        """
        rng = random.Random(f"perfbench:{self.name}:{seed}")
        strata = {}
        for s in inputs[1]:
            strata.setdefault(len(s), []).append(s)
        keyed = []
        for k in sorted(strata):
            members = strata[k]
            rng.shuffle(members)
            offset = rng.random()
            keyed += [((i + offset) / len(members), rng.random(), s) for i, s in enumerate(members)]
        keyed.sort()
        return [s for _, _, s in keyed]

    def label(self, inputs, item) -> str:
        P = inputs[0]
        return "+".join(P.objects[i] for i in item)

    def verdict(self, inputs, item) -> dict:
        P = inputs[0]
        T = P.obj({P.objects[i]: 1 for i in item})
        return verify.run_verification(P, t_spec=T, budget=SWEEP_BUDGET)


class Ladder:
    """`quotcat verify FILE --T P1+...+Pn` in-process, for n = 3, 4, 5."""

    name = "ladder-q"

    def __init__(self, rungs=LADDER_RUNGS):
        self.rungs = tuple(rungs)

    def setup(self, work: str):
        paths = {}
        for n in self.rungs:
            P0 = clustergen.build_cluster_category(n)
            paths[n] = os.path.join(work, f"a{n}.json")
            catfile.save_category(P0, paths[n])
            catfile.load_category(paths[n])
        return paths

    def check_setup(self, inputs) -> str:
        for n, path in inputs.items():
            P = catfile.load_category(path)
            lab = diagonals(P)
            ps = [f"P{i}" for i in range(1, n + 1)]
            if any(crosses(lab[a], lab[b]) for a in ps for b in ps if a < b):
                return f"P1+...+P{n} is not rigid in the crossing model"
        return ""

    def population(self, inputs) -> list:
        return list(self.rungs)

    def order(self, inputs, seed: int) -> list:
        rungs = list(self.rungs)
        random.Random(f"perfbench:{self.name}:{seed}").shuffle(rungs)
        return rungs

    def label(self, inputs, n) -> str:
        return f"a{n}"

    def verdict(self, inputs, n) -> dict:
        spec = "+".join(f"P{i}" for i in range(1, n + 1))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["verify", inputs[n], "--T", spec])
        report = json.loads(buf.getvalue())
        if (code == 0) != (report["overall"] == "pass"):
            raise RuntimeError(f"exit code {code} disagrees with overall {report['overall']!r}")
        return report


def workload(name: str, limit: int | None = None):
    """The workload object; `limit` shrinks it for the self-test."""
    if name == "ladder-q":
        return Ladder(LADDER_RUNGS[:limit] if limit else LADDER_RUNGS)
    if name == "sweep-a3-q":
        return Sweep(name, 3, None, linalg.QQ)
    if name == "sweep-a4-f101":
        return Sweep(name, 4, "><>", linalg.GF(101))
    raise ValueError(f"unknown workload {name!r}")


# -- checking -----------------------------------------------------------------


def digest(report: dict) -> str:
    """sha256 of the report without its timing section."""
    body = {k: v for k, v in report.items() if k != "timing_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


class Outcome:
    """Verdicts attempted, and which were wrong (not the paper's answer) or drifted."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.intervals: list[tuple[float, float]] = []
        self.labels: list[str] = []
        self.reports: list[dict | None] = []
        self.wrong = 0
        self.drift = 0
        self.bad = 0
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.intervals)

    def run(self, wl, inputs, item, tr: tracer.Tracer | None = None, vid: int = 0) -> None:
        """One verdict, timed; under tr it runs as traced verdict `vid`."""
        label = wl.label(inputs, item)
        report = None
        t0 = time.perf_counter()
        try:
            report = tr.verdict(vid, wl.verdict, inputs, item) if tr else wl.verdict(inputs, item)
        except Exception:  # a crash is a wrong verdict, and the run goes on
            self.errors.append(f"{label}: {traceback.format_exc(limit=3)}")
        self.intervals.append((t0, time.perf_counter()))
        self.labels.append(label)
        wrong = report is None or report["overall"] != "pass"
        drift = report is not None and digest(report) != self.reference.get(label)
        self.reports.append(report)
        if report is not None:
            if wrong:
                self.errors.append(f"{label}: overall {report['overall']} (the paper says pass)")
            if drift:
                self.errors.append(f"{label}: report digest differs from digests.json")
        self.wrong += wrong
        self.drift += drift
        self.bad += wrong or drift


def probe(P3, P) -> list[str]:
    """Known negatives; returns the checks that did not give the known answer.

    P3 is C(A_3) over Q; P is the workload's category (for non-rigid T).
    """
    problems = []
    # Section 6: C(A_3)/add{P1, P2, S2} is not preabelian; P3 -> I2 has no cokernel.
    sub = {P3.index(x) for x in ("P1", "P2", "S2")}
    rep = verify.run_verification(P3, subcat=sub, budget=SWEEP_BUDGET)
    if rep["clauses"]["preabelian"]["status"] != "fail" or rep["overall"] != "fail":
        problems.append("section 6 quotient was not reported as failing preabelian")
    q6 = quotient.build_quotient(P3, subcat={"P1", "P2", "S2"})
    f = q6.project(P3.basis_morphism(P3.index("P3"), P3.index("I2"), 0))
    if f.is_zero() or preabelian.cokernel(q6.presentation, f, SWEEP_BUDGET) is not None:
        problems.append("cokernel of P3 -> I2 in the section 6 quotient was not certified absent")
    # Non-rigid T (two crossing diagonals) must fail the rigidity clause.
    lab = diagonals(P)
    names = sorted(lab)
    pairs = [(a, b) for a in names for b in names if a < b and crosses(lab[a], lab[b])]
    rng = random.Random(f"perfbench:probe:{P.metadata.get('name')}")
    for a, b in rng.sample(pairs, PROBE_NONRIGID):
        rep = verify.run_verification(P, t_spec=P.obj({a: 1, b: 1}), budget=SWEEP_BUDGET)
        if rep["clauses"]["rigidity"]["status"] != "fail" or rep["overall"] != "fail":
            problems.append(f"non-rigid T = {a}+{b} was not reported as failing rigidity")
    return problems


# -- metrics ------------------------------------------------------------------


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples above it.

    With 10 samples or fewer no percentile qualifies; the slowest is reported
    as p100.
    """
    s = sorted(times)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n
    return s[-1], 100.0


def end_to_end(wl, inputs, sp: speed.SpeedProbe, setups: list, out: Outcome) -> tuple[dict, list[str]]:
    """Every end-to-end metric, in reference seconds; raw wall times as info rows."""
    setup_times = [sp.normalise(a, b) for a, b in setups]
    times = [sp.normalise(a, b) for a, b in out.intervals]
    raw = [b - a for a, b in out.intervals]
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "sweep_s": (statistics.fmean(times) * len(wl.population(inputs)), "s"),
        "verdict_s_p50": (statistics.median(times), "s"),
        "verdict_s_tail": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"verdict_s_tail": f"p{pct:.1f} of n={len(times)}", "verdict_s_p50": f"n={len(times)}",
             "sweep_s": f"mean verdict x {len(wl.population(inputs))} verdicts in the full set"}
    rows = [f"metric {k} {v:.6f} {u}" + (f" ({notes[k]})" if k in notes else "") for k, (v, u) in metrics.items()]
    if isinstance(wl, Ladder):
        by_rung = {}
        for lab, t in zip(out.labels, times):
            by_rung.setdefault(lab, []).append(t)
        rows += [f"info verdict_s.{lab} {statistics.median(ts):.6f} s (n={len(ts)})" for lab, ts in sorted(by_rung.items())]
    rows.append(f"info wall-clock setup_s {statistics.median(b - a for a, b in setups):.6f} s, "
                f"verdict_s_p50 {statistics.median(raw):.6f} s, verdicts {sum(raw):.3f} s; "
                f"host speed {speed.REF_SPIN_S / statistics.fmean(sp.spins):.3f} of reference "
                f"({len(sp.spins)} samples)")
    return metrics, rows


def make_tracer() -> tracer.Tracer:
    """The traced layers; three hooks keep the counts that are not span counts."""
    distinct: set = set()

    def rref(args, out):
        if args[0].ncols <= 3:
            tr.count("rref_le3cols")

    def cokernel(args, out):
        # The stored morphism keeps its Q alive, so id(Q) cannot be reused.
        key = (id(args[0]), args[1])
        if key not in distinct:
            distinct.add(key)
            tr.count("cokernel_distinct")

    def search(args, out):
        tr.count("search_found" if out.status == preabelian.SearchResult.FOUND else "search_empty")

    L = tracer.Layer
    tr = tracer.Tracer([
        L("clustergen.build", [(clustergen, "build_cluster_category")]),
        L("catfile.save", [(catfile, "save_category")]),
        L("catfile.load", [(catfile, "load_category")]),
        L("fincat.validate", [(fincat, "validate_category")]),
        L("fincat.rigid_supports", [(fincat, "all_rigid_supports")]),
        L("fincat.compose", [(fincat, "compose")]),
        L("fincat.precompose", [(fincat, "precompose_matrix")]),
        L("fincat.postcompose", [(fincat, "postcompose_matrix")]),
        L("linalg.rref", [(linalg.Matrix, "rref")], rref),
        L("linalg.kernel_basis", [(linalg.Matrix, "kernel_basis")]),
        L("linalg.solve", [(linalg.Matrix, "solve")]),
        L("quotient.build", [(quotient, "build_quotient")]),
        L("quotient.project", [(quotient.QuotientCategory, "project")]),
        L("quotient.lift", [(quotient.QuotientCategory, "lift")]),
        L("preabelian.scan", [(preabelian, "scan_properties")]),
        L("preabelian.cokernel", [(preabelian, "cokernel")], cokernel),
        L("preabelian.kernel", [(preabelian, "kernel")]),
        L("preabelian.search", [(preabelian, "search_open_conditions")], search),
        L("preabelian.candidates", [(preabelian.RankCondition, "holds")]),
        L("preabelian.limit", [(preabelian, "pullback"), (preabelian, "pushout")]),
        L("preabelian.epi_mono", [(preabelian, "is_epi"), (preabelian, "is_mono")]),
        L("localization.rf", [(localization, "verify_rf_axioms")]),
        L("localization.abelian", [(localization, "check_abelian")]),
        L("localization.compose_fractions", [(localization, "compose_fractions")]),
        L("localization.fractions_equal", [(localization, "fractions_equal")]),
        L("modcat.equivalence", [(modcat, "verify_equivalence")]),
        L("modcat.realize", [(modcat, "realize_module_map")]),
        L("modcat.module_hom_space", [(modcat, "module_hom_space")]),
    ])  # the hooks above see this tr through their closure
    return tr


CLAUSES = ("quotient", "property_scan", "rf_axioms", "abelian", "equivalence")


def per_layer(tr: tracer.Tracer, reports: list[dict], untraced_reports: list[dict],
              untraced_s: float, traced_s: float) -> dict:
    agg = tr.per_layer()
    c = tr.counters

    def calls(layer):
        return agg[layer][0]

    def self_s(layer):
        return agg[layer][1]

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for layer in ("clustergen.build", "catfile.save", "catfile.load", "fincat.validate",
                  "fincat.rigid_supports", "fincat.compose", "fincat.precompose", "fincat.postcompose",
                  "linalg.rref", "quotient.build", "preabelian.scan", "preabelian.cokernel",
                  "preabelian.search", "preabelian.limit", "preabelian.epi_mono", "localization.rf", "localization.abelian",
                  "modcat.equivalence", "modcat.realize"):
        m[f"{layer}_s"] = (self_s(layer), "s")
    for layer in ("fincat.compose", "fincat.precompose", "linalg.rref", "linalg.kernel_basis",
                  "linalg.solve", "quotient.build", "quotient.project", "quotient.lift",
                  "preabelian.cokernel", "preabelian.kernel", "preabelian.search",
                  "preabelian.epi_mono", "localization.compose_fractions",
                  "localization.fractions_equal", "modcat.realize", "modcat.module_hom_space"):
        m[f"{layer}_calls"] = (calls(layer), "count")
    searches = calls("preabelian.search")
    found, empty = c.get("search_found", 0), c.get("search_empty", 0)
    m["linalg.rref_le3cols_share"] = (share(c.get("rref_le3cols", 0), calls("linalg.rref")), "share")
    m["preabelian.cokernel_distinct_share"] = (share(c.get("cokernel_distinct", 0), calls("preabelian.cokernel")), "share")
    m["preabelian.search_found"] = (found, "count")
    m["preabelian.search_empty"] = (empty, "count")
    m["preabelian.search_exceeded"] = (searches - found - empty, "count")
    m["preabelian.candidates_tried"] = (calls("preabelian.candidates"), "count")
    m["preabelian.found_per_candidate"] = (share(found, calls("preabelian.candidates")), "share")
    m["verify.checked_total"] = (sum(checked_total(r) for r in reports if r), "count")
    for clause in CLAUSES:
        m[f"verify.clause_s.{clause}"] = (sum(r["timing_s"].get(clause, 0.0) for r in untraced_reports if r), "s")
    m["verify.untraced_self_s"] = (self_s(tracer.VERDICT), "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    m["trace.overhead_share"] = (share(traced_s - untraced_s, untraced_s), "share")
    return m


def checked_total(report: dict) -> int:
    total = 0
    for clause in report["clauses"].values():
        checked = clause.get("checked", 0)
        total += sum(checked.values()) if isinstance(checked, dict) else checked
    return total


# -- environment --------------------------------------------------------------


def commit() -> str:
    """HEAD of the enclosing git checkout, read from .git; 'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over src/quotcat/*.py, which names the code even outside git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "quotcat")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


# -- one run ------------------------------------------------------------------


def measure(name: str, seed: int, seconds: float, trace: bool, limit: int | None = None,
            log=print) -> dict:
    """One run of one workload; logs its rows and returns the result object.

    `limit` caps the verdicts (sweeps) or rungs (ladder): the self-test uses it.
    """
    wl = workload(name, limit)
    env = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
           "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
           "src_sha256": src_digest(), "loadavg_start": list(os.getloadavg())}
    out = Outcome(load_digests().get(name, {}))
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        with speed.SpeedProbe() as sp:
            setups = []
            for _ in range(1 if trace else SETUP_REPEATS):
                t0 = time.perf_counter()
                inputs = wl.setup(work)
                setups.append((t0, time.perf_counter()))
            order = wl.order(inputs, seed)[:limit or max(MIN_VERDICTS, round(seconds / VERDICT_S))]
            if not trace:
                for item in order:
                    out.run(wl, inputs, item)
            else:
                tr = traced_run(wl, order, inputs, work, out)
        problem = wl.check_setup(inputs)
        problems = [problem] if problem else []
        if not trace:
            metrics, rows = end_to_end(wl, inputs, sp, setups, out)
        else:
            metrics, rows = traced_metrics(wl, tr, sp, out)
            left = tracer.leftover_wrappers()
            if left:
                problems.append(f"wrappers left after the traced run: {left}")
        P3 = clustergen.build_cluster_category(3)
        problems += probe(P3, inputs[0] if isinstance(wl, Sweep) else P3)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())
    log(f"workload {name} seed {seed} trace {int(trace)}")
    log("env " + json.dumps(env, sort_keys=True))
    for row in rows:
        log(row)
    log(f"check wrong_verdict_ratio {out.wrong / out.attempted:.6f} share ({out.wrong}/{out.attempted})")
    log(f"check report_drift {out.drift} count")
    log(f"check probe {'FAIL' if problems else 'pass'} ({len(problems)} problems)")
    for line in problems + out.errors:
        log("problem " + line.strip())
    failed = out.bad + len(problems)
    return {
        "correct": failed == 0,
        "attempted": out.attempted + EXTRA_CHECKS + int(trace),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_run(wl, order, inputs, work, out: Outcome) -> tracer.Tracer:
    """The same verdicts untraced, then traced on fresh inputs; returns the tracer."""
    if isinstance(wl, Sweep):
        order = order[:TRACE_VERDICTS]
    for item in order:
        out.run(wl, inputs, item)
    tr = make_tracer()
    tr.install()
    try:
        traced_inputs = wl.setup(work)
        for vid, item in enumerate(order):
            out.run(wl, traced_inputs, item, tr, vid)
    finally:
        tr.uninstall()
    return tr


def traced_metrics(wl, tr: tracer.Tracer, sp: speed.SpeedProbe, out: Outcome) -> tuple[dict, list[str]]:
    """Per-layer metrics; the first half of `out` is untraced, the second traced."""
    k = out.attempted // 2
    times = [sp.normalise(a, b) for a, b in out.intervals]
    metrics = per_layer(tr, out.reports[k:], out.reports[:k], sum(times[:k]), sum(times[k:]))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{wl.name}.bin")
    tr.write(path)
    rows = [f"metric {key} {v:.6f} {u}" if isinstance(v, float) else f"metric {key} {v} {u}"
            for key, (v, u) in metrics.items()]
    rows.append(f"info {len(tr.start)} spans written to {os.path.relpath(path, ROOT)}")
    return metrics, rows


def run_all(args) -> int:
    """Each workload in its own child process, in turn; a combined summary."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"results-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"info results written to {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
