"""Each demo script runs to the end and prints exactly its recorded
output, golden/demos/<name>.txt (test_golden_reports.py --record)."""

import pytest

from test_golden_reports import DEMOS, demo_golden, demo_stdout


def test_there_are_demos():
    assert DEMOS
    assert sorted(p.name for p in demo_golden(DEMOS[0]).parent.iterdir()) == sorted(f"{p.stem}.txt" for p in DEMOS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    assert demo_stdout(demo) == demo_golden(demo).read_text(encoding="utf-8")
