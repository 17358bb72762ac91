"""The property scan builds each limit square and tests each leg once.

The eight leg clauses of `scan_properties` share (given, other) pairs, so
the scan keeps one table of legs and one of epi/mono answers for the length
of one call.  These tests pin that each square is built once, and that the
tables are transparent: every clause result equals the one computed by the
plain per-clause loop below, which builds a square for every pair it meets.
"""

import collections
import itertools

import pytest

from quotcat import preabelian
from quotcat.clustergen import build_cluster_category
from quotcat.errors import NoCokernel, NoKernel
from quotcat.linalg import GF
from quotcat.preabelian import Budget, is_epi, is_mono, is_regular, pullback, pushout, run_clause, scan_properties
from quotcat.quotient import build_quotient

CAPPED = Budget(scan_pairs_cap=120)


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


@pytest.fixture(scope="module")
def A4():
    return build_cluster_category(4, "><>", GF(101))


# -- the per-clause loop, one square per pair met ---------------------------------


def _pullback_legs(Q, given, others, budget):
    for d in given:
        for c in others:
            if c.target == d.target:
                yield d, c, pullback(Q, c, d, budget).a


def _pushout_legs(Q, given, others, budget):
    for a in given:
        for b in others:
            if b.source == a.source:
                yield a, b, pushout(Q, a, b, budget).d


def _plain_leg_clause(legs, ok, budget):
    try:
        for x, y, leg in itertools.islice(legs, budget.scan_pairs_cap):
            yield
            P = leg.P
            if not ok(P, leg):
                prop = ok.__name__.removeprefix("is_")
                return (
                    f"leg not {prop} for {P.obj_name(x.source)} -> {P.obj_name(x.target)}"
                    f" with {P.obj_name(y.source)} -> {P.obj_name(y.target)}"
                )
    except (NoKernel, NoCokernel) as e:
        return f"no limit square: {e}"


def _plain_leg_clauses(Q, fam, budget) -> dict:
    return {
        name: run_clause(_plain_leg_clause(legs, ok, budget))
        for name, legs, ok in (
            ("pullback_cokernel_leg", _pullback_legs(Q, fam.cokernel_maps, fam.all, budget), is_epi),
            ("pullback_epi_leg", _pullback_legs(Q, fam.epis, fam.all, budget), is_epi),
            ("pullback_mono_leg", _pullback_legs(Q, fam.monos, fam.all, budget), is_mono),
            ("pullback_regular_leg", _pullback_legs(Q, fam.regulars, fam.all, budget), is_regular),
            ("pushout_kernel_leg", _pushout_legs(Q, fam.kernel_maps, fam.all, budget), is_mono),
            ("pushout_mono_leg", _pushout_legs(Q, fam.monos, fam.all, budget), is_mono),
            ("pushout_epi_leg", _pushout_legs(Q, fam.epis, fam.all, budget), is_epi),
            ("pushout_regular_leg", _pushout_legs(Q, fam.regulars, fam.all, budget), is_regular),
        )
    }


# -- tests -----------------------------------------------------------------------


@pytest.mark.parametrize("t", [("P1", "P3"), ("P2",)])
def test_scan_builds_each_limit_square_once(A3, monkeypatch, t):
    # a pushout is a pullback in Q^op, so counting pullback counts both
    Q = build_quotient(A3, A3.obj({s: 1 for s in t}), validate=False).presentation
    squares = collections.Counter()
    tests = collections.Counter()
    family_built = []

    def counted(fn, name):
        def wrapper(P, *args, **kwargs):
            if name == "pullback":
                squares[(id(P),) + args[:2]] += 1
            elif P is Q and family_built:
                tests[(name, args[0])] += 1
            return fn(P, *args, **kwargs)

        return wrapper

    def family(*args):
        fam = build_family(*args)
        family_built.append(True)
        return fam

    build_family = preabelian.build_morphism_family
    monkeypatch.setattr(preabelian, "build_morphism_family", family)
    for name in ("pullback", "is_epi", "is_mono"):
        monkeypatch.setattr(preabelian, name, counted(getattr(preabelian, name), name))
    rep = preabelian.scan_properties(Q, CAPPED)
    assert all(c.status == "pass" for c in rep.clauses.values())
    assert squares and set(squares.values()) == {1}
    # after the family is classified, every epi or mono test is a leg's
    assert tests and set(tests.values()) == {1}


@pytest.mark.parametrize(
    "case",
    [
        "A3/Q T=P1+P3",
        "A3/Q T=P2",
        "A3/Q T=S2+I2",
        "A3/Q subcat=P1+P2+I2",
        "A3/Q T=P2 retries=1 grid_cap=1",
        "A4(><>)/F101 T=I1+P1",
        "A4(><>)/F101 T=I1+P1+I2+M[1,4]",
    ],
)
def test_scan_tables_are_transparent(A3, A4, case):
    cat, spec = case.split(" ", 1)
    P = A4 if cat.startswith("A4") else A3
    budget = CAPPED
    if spec.endswith("retries=1 grid_cap=1"):
        spec, budget = spec.split(" ")[0], Budget(retries=1, grid_cap=1)
    kind, names = spec.split("=")
    names = names.split("+")
    if kind == "subcat":
        qc = build_quotient(P, subcat={P.index(s) for s in names})
    else:
        qc = build_quotient(P, P.obj({s: 1 for s in names}), validate=False)
    Q = qc.presentation
    rep = scan_properties(Q, budget)
    assert rep.clauses["preabelian"].status == "pass"
    legs = {k: v for k, v in rep.clauses.items() if k != "preabelian"}
    assert legs == _plain_leg_clauses(Q, rep.family, budget)
    statuses = collections.Counter(c.status for c in legs.values())
    if "grid_cap" in case:
        # squares shared by clauses run out of budget: each clause says so
        assert statuses["bounds-exceeded"] >= 2
    if kind == "subcat":
        assert statuses["fail"] >= 2
