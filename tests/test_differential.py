"""Differential tests: the verdict does not depend on the field.

Every clause of a C(A_3) verdict is a statement about dimensions and ranks
of integer structure constants that reduce well mod 101, so its status and
its count of checked cases must agree between Q and GF(101).  Witness
coordinates may differ and are not compared.
"""

import pytest
from hypothesis import given, settings, strategies as st

from quotcat.clustergen import build_cluster_category
from quotcat.fincat import all_rigid_supports
from quotcat.linalg import GF
from quotcat.preabelian import Budget
from quotcat.verify import run_verification

CAPPED = Budget(scan_pairs_cap=120)


@pytest.fixture(scope="module")
def A3_pair():
    return build_cluster_category(3), build_cluster_category(3, field=GF(101))


def _clauses(P, supp):
    rep = run_verification(P, P.obj({P.objects[i]: 1 for i in supp}), budget=CAPPED)
    return {name: (c["status"], c.get("checked")) for name, c in rep["clauses"].items()}


@settings(max_examples=8)
@given(data=st.data())
def test_every_clause_agrees_over_q_and_f101(A3_pair, data):
    P, F = A3_pair
    supp = data.draw(st.sampled_from(all_rigid_supports(P, 3)))
    assert all_rigid_supports(F, 3) == all_rigid_supports(P, 3)
    assert _clauses(F, supp) == _clauses(P, supp)
