"""The epi, search and square tables last one verdict.

`is_epi` keeps its answers on the presentation, keyed by the map, and
`cokernel` keeps each candidate search there, keyed by the search's domain,
codomain, subspace and the budget fields it reads.  `pullback`'s limit
squares are kept there too.  `kernel`, `pushout`, `is_mono` and
`is_regular` reach them through Q or Q^op.  The rule: when
`run_verification` returns, nothing it built is in a reference cycle.  It
empties the tables of Q and Q^op, each kept map dropping its twin in the
other, and unlinks Q and Q^op; a verdict fills no epi, search or square
table of its input P and builds no P^op.  These tests pin that a repeated
call reads the kept searches, that a hit is the cold answer, that running
out of budget is never kept, that a verdict searches each key once, that no
table outlives its verdict, that a verdict leaves no reference cycle, and
that a report does not depend on the verdicts run before it in the same
process.
"""

import collections
import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

from quotcat import preabelian, verify
from quotcat.clustergen import build_cluster_category
from quotcat.errors import BoundsExceeded
from quotcat.fincat import Morphism, all_rigid_supports, basis_morphisms, opposite, stack_cols
from quotcat.linalg import GF, QQ
from quotcat.preabelian import Budget, cokernel, kernel
from quotcat.quotient import build_quotient
from quotcat.verify import run_verification
from test_integral_decision import _two_reject_category

CAPPED = Budget(scan_pairs_cap=120)
TIGHT = Budget(retries=0, grid_cap=1)  # any certification grid is over the cap

# name -> (n, orientation, p or None for Q, two rigid T)
CATEGORIES = {
    "A3/Q": (3, None, None, ["P1+P3", "P2"]),
    "A4(><>)/F101": (4, "><>", 101, ["I1+P1", "I1+P1+I2+M[1,4]"]),
}


def _category(n, orientation, p):
    return build_cluster_category(n, orientation, QQ if p is None else GF(p))


@pytest.fixture(scope="module", params=sorted(CATEGORIES))
def case(request):
    return request.param, _category(*CATEGORIES[request.param][:3])


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


def _quotient(P, spec):
    return build_quotient(P, P.obj({s: 1 for s in spec.split("+")})).presentation


def _tables(P):
    return [(C._epis, C._searches, C._squares) for C in (P, P._opposite) if C is not None]


def _report(P, spec):
    rep = run_verification(P, P.obj({s: 1 for s in spec.split("+")}), budget=CAPPED)
    rep.pop("timing_s")
    return json.dumps(rep, sort_keys=True)


# -- a hit is the cold answer -------------------------------------------------------


def test_a_hit_is_the_cold_search(case):
    name, P = case
    spec = CATEGORIES[name][3][0]
    warm = _quotient(P, spec)
    for search in (cokernel, kernel):
        for _, _, _, f in basis_morphisms(warm):
            first = search(warm, f)
            again = search(warm, f)
            cold_Q = _quotient(P, spec)  # built afresh: empty tables
            cold = search(cold_Q, Morphism.from_vector(cold_Q, f.source, f.target, f.to_vector()))
            assert first is not None and cold is not None
            assert (again[0], again[1].to_vector()) == (first[0], first[1].to_vector())
            assert (again[0], again[1].to_vector()) == (cold[0], cold[1].to_vector())
    assert warm._searches and opposite(warm)._searches


def _count_searches(monkeypatch):
    """The arguments of each candidate search run from now on."""
    searched = []

    def counted(*args, **kwargs):
        searched.append(args)
        return run_search(*args, **kwargs)

    run_search = preabelian.search_open_conditions
    monkeypatch.setattr(preabelian, "search_open_conditions", counted)
    return searched


def test_a_repeated_call_reads_the_kept_searches(case, monkeypatch):
    # every candidate search of the first call is kept, so the repeat makes
    # no search and returns the same M and the same witness object; an epi
    # (for a kernel, a mono) has M = 0 and no search, and each call builds
    # its zero map afresh
    name, P = case
    Q = _quotient(P, CATEGORIES[name][3][0])
    searched = _count_searches(monkeypatch)
    zeros = 0
    for search in (cokernel, kernel):
        for _, _, _, f in basis_morphisms(Q):
            first = search(Q, f)
            del searched[:]
            again = search(Q, f)
            assert not searched
            assert again[0] == first[0]
            if first[0].is_zero():
                zeros += 1
                assert again[1] == first[1] and again[1].is_zero()
            else:
                assert again[1] is first[1]
    assert zeros


def test_running_out_of_budget_is_not_kept(A3, monkeypatch):
    Q, probe = _quotient(A3, "P1+P3"), _quotient(A3, "P1+P3")
    for _, _, _, f in basis_morphisms(Q):
        try:
            cokernel(probe, Morphism.from_vector(probe, f.source, f.target, f.to_vector()), TIGHT)
        except BoundsExceeded:
            break
    else:
        pytest.fail("no basis morphism runs out of the tight budget")
    searched = _count_searches(monkeypatch)
    with pytest.raises(BoundsExceeded):
        cokernel(Q, f, TIGHT)
    # the searches decided before the raising one are kept, the raising one is not
    kept = dict(Q._searches)
    assert len(kept) == len(searched) - 1
    del searched[:]
    with pytest.raises(BoundsExceeded):
        cokernel(Q, f, TIGHT)
    # the repeat searches again: it reads the decided searches and runs the raising one
    assert len(searched) == 1 and Q._searches == kept
    assert cokernel(Q, f) is not None
    with pytest.raises(BoundsExceeded):
        cokernel(Q, f, TIGHT)
    # the tight budget's kept searches are still only the decided ones
    tight = (TIGHT.seed, TIGHT.retries, TIGHT.coeff_base, TIGHT.grid_cap)
    assert {key: res for key, res in Q._searches.items() if key[3:] == tight} == kept
    # and every other kept search is the default budget's
    assert {key[3:] for key in Q._searches if key not in kept} == {(1797, 10, 4, 500_000)}


# -- one search per key within a verdict -----------------------------------------


@pytest.mark.parametrize("spec", ["P1+P3", "P2"])
def test_a_verdict_searches_each_key_once(A3, monkeypatch, spec):
    searching = []  # (presentation, map, budget key) of the running cokernel call
    searches = collections.Counter()
    calls = []  # the maps hold their presentations alive, so no two share an id

    def counted_cokernel(Q, f, budget=preabelian.DEFAULT_BUDGET):
        calls.append(f)
        searching.append((id(Q), f, (budget.seed, budget.retries, budget.coeff_base, budget.grid_cap)))
        try:
            return run_cokernel(Q, f, budget)
        finally:
            searching.pop()

    def counted_search(Q, X, Y, *args, **kwargs):
        # one search per candidate target Y of one cokernel key
        searches[(*searching[-1], Y)] += 1
        return run_search(Q, X, Y, *args, **kwargs)

    run_cokernel, run_search = preabelian.cokernel, preabelian.search_open_conditions
    monkeypatch.setattr(preabelian, "cokernel", counted_cokernel)
    monkeypatch.setattr(preabelian, "search_open_conditions", counted_search)
    rep = run_verification(A3, A3.obj({s: 1 for s in spec.split("+")}), budget=CAPPED)
    assert rep["overall"] == "pass"
    assert searches and set(searches.values()) == {1}
    # the tables serve repeats: fewer distinct keys than cokernel calls
    assert len({key[:3] for key in searches}) < len(calls)


# -- no table outlives its verdict -------------------------------------------------


def _watch(monkeypatch):
    """The quotients run_verification builds, the table sizes at the start
    of the abelian clause, and each quotient's opposite as it is then."""
    built, sizes, opposites = [], [], []

    def quotient(*args, **kwargs):
        qc = build(*args, **kwargs)
        built.append(qc.presentation)
        return qc

    def abelian(Q, budget):
        sizes.append(sum(len(t) for pair in _tables(Q) for t in pair))
        opposites.append(Q._opposite)
        return check(Q, budget)

    build, check = verify.build_quotient, verify.check_abelian
    monkeypatch.setattr(verify, "build_quotient", quotient)
    monkeypatch.setattr(verify, "check_abelian", abelian)
    return built, sizes, opposites


def _all_empty(presentations):
    return all(not t for C in presentations for pair in _tables(C) for t in pair)


def test_tables_are_empty_after_the_verdict(A3, monkeypatch):
    # the verdict built Q^op; when it returns, the tables of both are empty
    # and neither points at the other
    built, sizes, opposites = _watch(monkeypatch)
    assert run_verification(A3, A3.obj({"P1": 1, "P3": 1}), budget=CAPPED)["overall"] == "pass"
    (Q,), (op,) = built, opposites
    assert op is not None and sizes[0] > 0
    assert Q._opposite is None and op._opposite is None
    assert not (Q._maps or op._maps)
    assert _all_empty((Q, op, A3))


def _break_the_equivalence_clause(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("equivalence clause broke")

    monkeypatch.setattr(verify, "verify_equivalence", broken)


def test_tables_are_empty_when_a_clause_raises(A3, monkeypatch):
    built, _, opposites = _watch(monkeypatch)
    _break_the_equivalence_clause(monkeypatch)
    with pytest.raises(RuntimeError):
        run_verification(A3, A3.obj({"P2": 1}), budget=CAPPED)
    (Q,), (op,) = built, opposites
    assert Q._opposite is None and op._opposite is None
    assert _all_empty((Q, op, A3))


def test_tables_are_empty_after_a_sweep(A3, monkeypatch):
    # the verdict path fills only the quotients' tables; a search asked of
    # the long-lived category itself is its caller's, and no verdict
    # empties it
    built, sizes, opposites = _watch(monkeypatch)
    # a mono's kernel is 0 without a search; [1 | 1]: P1 + P1 -> P1 is not
    # mono, and its kernel is searched
    one = A3.identity(A3.single("P1"))
    assert kernel(A3, stack_cols(A3, [one, one])) is not None and opposite(A3)._searches
    callers = [dict(t) for pair in _tables(A3) for t in pair]
    for support in all_rigid_supports(A3, 3)[:14]:
        T = A3.obj([int(i in support) for i in range(A3.n)])
        assert run_verification(A3, T, budget=CAPPED)["overall"] == "pass"
    assert len(built) == 14 and min(sizes) > 0 and None not in opposites
    assert _all_empty(built + opposites)
    assert [dict(t) for pair in _tables(A3) for t in pair] == callers
    A3.clear_verdict_tables()


def _t(spec, budget=CAPPED):
    return lambda P: [{"t_spec": P.obj({s: 1 for s in spec.split("+")}), "budget": budget}]


def _subcat(spec):
    return lambda P: [{"subcat": {P.index(s) for s in spec.split("+") if s}, "budget": CAPPED}]


def _every_7th_rigid_t(P):
    return [
        {"t_spec": P.obj([int(i in support) for i in range(P.n)]), "budget": CAPPED}
        for support in all_rigid_supports(P, P.n)[::7]
    ]


def _a3():
    return _category(3, None, None)


# name -> (the category, the run_verification arguments of its verdicts)
VERDICT_KINDS = {
    "A3/Q T=P1+P3": (_a3, _t("P1+P3")),
    "A3/Q subcat=P1+P2+I2": (_a3, _subcat("P1+P2+I2")),
    "A3/Q subcat=P1+P2+S2": (_a3, _subcat("P1+P2+S2")),
    "A3/Q T=P2 retries=1 grid_cap=1": (_a3, _t("P2", Budget(retries=1, grid_cap=1))),
    "A3/Q T=P1+P2 retries=0 grid_cap=1": (_a3, _t("P1+P2", TIGHT)),
    "two-reject subcat={}": (_two_reject_category, _subcat("")),
    "A3/Q T=P2 equivalence raises": (_a3, _t("P2")),
    "A4(><>)/F101 every 7th rigid T": (lambda: _category(4, "><>", 101), _every_7th_rigid_t),
}


@pytest.mark.parametrize("kind", list(VERDICT_KINDS))
def test_a_verdict_leaves_no_reference_cycle(kind, monkeypatch):
    # once the tables are empty, the twins dropped and Q and Q^op unlinked,
    # reference counting frees everything the verdict built: with the
    # collector paused, a collection after each verdict finds nothing
    build, verdicts = VERDICT_KINDS[kind]
    P = build()
    raises = kind.endswith("raises")
    if raises:
        _break_the_equivalence_clause(monkeypatch)

    def run(kwargs):
        if raises:
            with pytest.raises(RuntimeError):
                run_verification(P, **kwargs)
        else:
            run_verification(P, **kwargs)

    calls = verdicts(P)
    run(calls[0])  # warm the category
    for kwargs in calls:
        gc.collect()
        gc.disable()
        try:
            run(kwargs)
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_a_verdict_fills_no_table_of_its_input(name):
    # a verdict works in the quotient Q and Q^op alone: it leaves the
    # parent's epi, search and square tables empty and builds no parent
    # opposite, so run_verification has only Q's tables to empty
    n, orientation, p, specs = CATEGORIES[name]
    P = _category(n, orientation, p)
    assert run_verification(P, P.obj({s: 1 for s in specs[0].split("+")}), budget=CAPPED)["overall"] == "pass"
    assert not (P._epis or P._searches or P._squares) and P._opposite is None


# -- a report does not depend on the verdicts before it ---------------------------------

_FRESH_SCRIPT = """
import json, sys
from quotcat.clustergen import build_cluster_category
from quotcat.linalg import GF, QQ
from quotcat.preabelian import Budget
from quotcat.verify import run_verification

n, orientation, p, spec = json.loads(sys.argv[1])
P = build_cluster_category(n, orientation, QQ if p is None else GF(p))
rep = run_verification(P, P.obj({s: 1 for s in spec.split("+")}), budget=Budget(scan_pairs_cap=120))
rep.pop("timing_s")
print(json.dumps(rep, sort_keys=True))
"""


def test_reports_do_not_depend_on_the_verdicts_before_them(case):
    name, P = case
    n, orientation, p, specs = CATEGORIES[name]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    fresh = {}
    for spec in specs:
        run = subprocess.run(
            [sys.executable, "-c", _FRESH_SCRIPT, json.dumps([n, orientation, p, spec])],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert run.returncode == 0, run.stderr
        fresh[spec] = run.stdout.strip()
    # both orders in this process, on one long-lived category
    for order in (specs, specs[::-1]):
        for spec in order:
            assert _report(P, spec) == fresh[spec]
