"""A decided verdict runs none of the fallback paths.

The benchmark's verdicts are every rigid T of C(A_3)/Q, the rigid T of
C(A_4,"><>")/GF(101) and T = P1+...+Pn of C(A_n)/Q for n = 3, 4, 5.  On
each, `scan_properties` decides both sides, so no pair of a leg clause is
asked (`preabelian._leg_answers`), no square is built
(`preabelian.pullback`, which `pushout` calls in Q^op), no middle map is
factorised (`localization._middle_map_loop`), and a regular-roof try meets
the one socle condition instead of is_epi's Yoneda conditions in Q and in
Q^op (`modcat.epi_conditions`, which only `modcat._regular_conditions`
calls).  A change that sends these verdicts down a fallback shows here
before it shows in a timing.
"""

import collections

import pytest

from quotcat import localization, modcat, preabelian, verify
from quotcat.clustergen import build_cluster_category
from quotcat.fincat import opposite
from quotcat.linalg import GF, QQ
from quotcat.preabelian import DEFAULT_BUDGET

from test_socle_rank import CAPPED, _rigid_verdicts

FALLBACKS = [
    (preabelian, "_leg_answers"),
    (preabelian, "pullback"),
    (localization, "_middle_map_loop"),
    (modcat, "epi_conditions"),
]


def _ladder():
    for n in (3, 4, 5):
        P = build_cluster_category(n)
        yield P, {"t_spec": P.obj({f"P{i}": 1 for i in range(1, n + 1)})}


# name -> (verdicts, budget, how many)
CORPORA = {
    "A3/Q every rigid T": (lambda: _rigid_verdicts(3, None, QQ, 1), CAPPED, 44),
    "A4(><>)/F101 every 7th rigid T": (lambda: _rigid_verdicts(4, "><>", GF(101), 7), CAPPED, 28),
    "ladder P1+...+Pn, n = 3, 4, 5": (_ladder, DEFAULT_BUDGET, 3),
}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_a_decided_verdict_runs_no_fallback(corpus, monkeypatch):
    verdicts, budget, expected = CORPORA[corpus]
    calls = collections.Counter()
    for module, name in FALLBACKS:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, real=real, name=name, **k: calls.update([name]) or real(*a, **k))
    decided = []
    scan = verify.scan_properties

    def scan_and_note_the_sides(Q, scan_budget):
        report = scan(Q, scan_budget)
        decided.append((Q._socle is not None, opposite(Q)._socle is not None))
        return report

    monkeypatch.setattr(verify, "scan_properties", scan_and_note_the_sides)
    overall = collections.Counter()
    for P, kw in verdicts():
        overall[verify.run_verification(P, **kw, budget=budget)["overall"]] += 1
    assert overall == {"pass": expected}
    assert decided == [(True, True)] * expected
    assert calls == {}
