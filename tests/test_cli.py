import json
import os
import pathlib
import subprocess
import sys

import pytest

from quotcat import cli
from quotcat.catfile import load_category, save_category
from quotcat.cli import main
from quotcat.clustergen import build_cluster_category
from quotcat.errors import (
    BoundsExceeded,
    GenerationError,
    InternalInconsistency,
    MissingSuspension,
    NoCokernel,
    NoKernel,
    NotRegular,
    NotRigid,
    ShapeError,
)
from quotcat.verify import run_verification

from test_integral_decision import _two_reject_category


@pytest.fixture(scope="module")
def a3_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cats") / "a3.json"
    save_category(build_cluster_category(3), str(path))
    return str(path)


def test_generate_counts(tmp_path, capsys):
    for n, count in ((2, 5), (3, 9), (4, 14)):
        out = tmp_path / f"a{n}.json"
        assert main(["generate", str(n), str(out)]) == 0
        P = load_category(str(out))
        assert P.n == count


def test_generate_invalid_n(tmp_path, capsys):
    assert main(["generate", "0", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("orientation", ["<", "ab"])
def test_generate_invalid_orientation(tmp_path, capsys, orientation):
    assert main(["generate", "3", str(tmp_path / "x.json"), "--orientation", orientation]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_verify_invalid_category_is_one_line(a3_path, tmp_path, capsys):
    # id_P1 = 2 breaks both unit laws on every basis element out of and into P1
    doc = json.loads(open(a3_path).read())
    doc["identities"][doc["indecomposables"].index("P1")] = ["2"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad), "--T", "P1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_generate_refuses_a_field_with_non_ascii_digits(tmp_path, capsys):
    # F followed by Arabic-Indic 101 once built GF(101)
    assert main(["generate", "3", str(tmp_path / "x.json"), "--field", "F\u0661\u0660\u0661"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown field") and err.count("\n") == 1, err
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("arg", ["n", "--seed", "--retries", "--grid-cap", "--scan-pairs-cap"])
def test_an_int_argument_with_non_ascii_digits_exits_2_through_argparse(a3_path, tmp_path, capsys, arg):
    # int() reads Arabic-Indic 3 as 3
    if arg == "n":
        argv = ["generate", "\u0663", str(tmp_path / "x.json")]
    else:
        argv = ["verify", a3_path, "--T", "P2", arg, "\u0663"]
    with pytest.raises(SystemExit) as exit:
        main(argv)
    assert exit.value.code == 2
    assert "invalid int value: '\u0663'" in capsys.readouterr().err


def test_generate_orientation_and_field(tmp_path):
    out = tmp_path / "a3r.json"
    assert main(["generate", "3", str(out), "--orientation", ">>", "--field", "F101"]) == 0
    P = load_category(str(out))
    assert P.n == 9


def test_verify_cluster_tilting_all_pass(a3_path, tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(
        ["verify", a3_path, "--T", "P1+P2+P3", "--scan-pairs-cap", "60", "--out", str(out)]
    )
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["overall"] == "pass"
    assert rep["clauses"]["cluster_tilting"]["all_regular_invertible"] is True
    assert rep["clauses"]["cluster_tilting"]["xt_equals_sigma_t"] is True
    capsys.readouterr()


def test_verify_two_summand_rigid(a3_path, tmp_path, capsys):
    out = tmp_path / "rep2.json"
    code = main(["verify", a3_path, "--T", "P1+P3", "--scan-pairs-cap", "60", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["overall"] == "pass"
    ct = rep["clauses"]["cluster_tilting"]
    assert ct["is_cluster_tilting"] is False
    assert ct["all_regular_invertible"] is False
    assert "regular_noninvertible_witness" in ct
    capsys.readouterr()


def test_verify_not_rigid_distinct_status(a3_path, tmp_path, capsys):
    out = tmp_path / "rep3.json"
    code = main(["verify", a3_path, "--T", "P1+S2", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["clauses"]["rigidity"]["status"] == "fail"
    capsys.readouterr()


def test_verify_budget_exhaustion_still_reports(a3_path, capsys):
    code = main(["verify", a3_path, "--T", "P2", "--retries", "1", "--grid-cap", "1"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 3
    assert rep["overall"] == "bounds-exceeded"
    statuses = {name: c["status"] for name, c in rep["clauses"].items()}
    assert "bounds-exceeded" in statuses.values(), statuses
    assert "fail" not in statuses.values(), statuses


def test_verify_reports_budget_exhaustion_of_later_clauses(a3_path, tmp_path, capsys, monkeypatch):
    import quotcat.localization
    import quotcat.modcat
    from quotcat.errors import BoundsExceeded

    def exhausted(*args, **kwargs):
        raise BoundsExceeded("grid exceeds the cap")

    # inside the clauses, where a search runs out of budget
    monkeypatch.setattr(quotcat.localization, "coim_im_factorise", exhausted)
    monkeypatch.setattr(quotcat.modcat, "realize_module_map", exhausted)
    assert main(["verify", a3_path, "--T", "P1+P2+P3", "--scan-pairs-cap", "40"]) == 3
    clauses = json.loads(capsys.readouterr().out)["clauses"]
    # every socle injective of this quotient is representable, so the
    # abelian clause passes by proof, one case per basis morphism of the
    # quotient, and factorises nothing
    assert clauses["abelian_localisation"] == {"status": "pass", "checked": 15}
    assert clauses["equivalence"] == {"status": "bounds-exceeded", "detail": "{'full': 'grid exceeds the cap'}"}
    # killing z of the two-reject category leaves a socle injective of Q
    # that is not representable, so the clause factorises, and runs out
    path = str(tmp_path / "two_reject.json")
    save_category(_two_reject_category(), path)
    assert main(["verify", path, "--subcat", "z", "--scan-pairs-cap", "40"]) == 3
    clauses = json.loads(capsys.readouterr().out)["clauses"]
    assert clauses["abelian_localisation"] == {"status": "bounds-exceeded", "detail": "grid exceeds the cap"}


def test_verify_section6_subcat_fails_preabelian(a3_path, tmp_path, capsys):
    out = tmp_path / "rep6.json"
    code = main(
        ["verify", a3_path, "--subcat", "P1+P2+S2", "--scan-pairs-cap", "40", "--out", str(out)]
    )
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["clauses"]["preabelian"]["status"] == "fail"
    assert "P3 -> I2" in rep["clauses"]["preabelian"]["detail"]
    capsys.readouterr()


def test_verify_usage_errors(a3_path, capsys):
    assert main(["verify", a3_path]) == 2
    assert main(["verify", a3_path, "--T", "P1", "--subcat", "P2"]) == 2
    assert main(["verify", "/nonexistent.json", "--T", "P1"]) == 2
    capsys.readouterr()


def test_run_verification_needs_exactly_one_of_t_spec_and_subcat():
    # neither once raised a TypeError from iterating None; both once ran T
    # and dropped subcat without a word
    P = build_cluster_category(2)
    for kw in ({}, {"t_spec": P.single("P1"), "subcat": {P.index("P1")}}):
        with pytest.raises(ValueError, match="^pass exactly one of t_spec or subcat$"):
            run_verification(P, **kw)


# exception class -> the stderr line and exit code of the CLI's failure map
# for the exception raised with the message "boom"; a MemoryError's line is
# fixed, as its message says nothing worth printing
FAILURES = {
    BoundsExceeded: ("bounds exceeded: boom", 3),
    GenerationError: ("error: boom", 2),
    ShapeError: ("error: boom", 2),
    MissingSuspension: ("error: boom", 2),
    OSError: ("error: boom", 2),
    ValueError: ("error: boom", 2),
    MemoryError: ("error: out of memory: the input is too large to build", 2),
    NotRigid: ("error: boom", 1),
    NotRegular: ("error: boom", 1),
    NoKernel: ("error: boom", 1),
    NoCokernel: ("error: boom", 1),
    InternalInconsistency: ("error: boom", 1),
}


@pytest.mark.parametrize("exc", list(FAILURES), ids=lambda exc: exc.__name__)
@pytest.mark.parametrize("caller", ["main", "fraction"])
def test_one_failure_map(a3_path, monkeypatch, capsys, caller, exc):
    # main catches what a command raises; fraction catches per expression the
    # errors it can go on after, and main the rest
    def fail(*args):
        raise exc("boom")

    if caller == "main":
        monkeypatch.setattr(cli, "run_cotorsion", fail)
        argv = ["cotorsion", a3_path, "P2+P3+SP3"]
    else:
        monkeypatch.setattr(cli, "evaluate_fraction_expression", fail)
        argv = ["fraction", a3_path, "P1+P3", "[id, P1:P2:0]"]
    line, code = FAILURES[exc]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert not out and err.splitlines() == [line]


def test_report_deterministic(a3_path, tmp_path, capsys):
    reports = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        main(["verify", a3_path, "--T", "P2+SP1", "--scan-pairs-cap", "40", "--seed", "5", "--out", str(out)])
        rep = json.loads(out.read_text())
        rep.pop("timing_s")
        reports.append(rep)
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_cotorsion_section6(a3_path, capsys):
    code = main(["cotorsion", a3_path, "P2+P3+SP3"])
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert code == 0
    assert rep["V"] == ["P1", "P2", "S2"]
    assert rep["clauses"]["c_triangle_condition"]["status"] == "skipped"


def test_cotorsion_whole_category_against_zero(a3_path, capsys):
    # (C, 0) is a cotorsion pair
    code = main(["cotorsion", a3_path, "+".join(load_category(a3_path).objects), "--V", ""])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0 and rep["overall"] == "pass"


def test_cotorsion_explicit_empty_v(a3_path, capsys):
    # --V "" is the empty V, not an omitted one: U-perp is [P1, P2, S2]
    code = main(["cotorsion", a3_path, "P2+P3+SP3", "--V", ""])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["V"] == []
    assert rep["clauses"]["a_U_perp_equals_V"]["status"] == "fail"


def test_cotorsion_non_closed_fails(a3_path, capsys):
    # a non-rigid U is never the perp of its perp
    code = main(["cotorsion", a3_path, "P1+S2"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["clauses"]["b_V_perp_equals_U"]["status"] == "fail"
    # an explicitly wrong V breaks clause (a)
    code = main(["cotorsion", a3_path, "P2+P3+SP3", "--V", "P1"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["clauses"]["a_U_perp_equals_V"]["status"] == "fail"


def test_fraction_expressions(a3_path, capsys):
    code = main(
        [
            "fraction",
            a3_path,
            "P1+P3",
            "equal? [id, P1:P2:0] [id, P1:P2:0]",
            "compose [id, P2:P3:0] [id, P1:P2:0]",
            "invert id:P1",
        ]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "true"
    assert "P1" in out[1] and "P3" in out[1]


def test_fraction_parse_error_position(a3_path, capsys):
    code = main(["fraction", a3_path, "P1+P3", "equal? [id, WAT:P2:0]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize("index", ["x", "0_0", "+0"])
def test_fraction_basis_index_is_ascii_digits(a3_path, capsys, index):
    # int() would raise a bare ValueError on "x" and read "0_0" and "+0" as 0
    code = main(["fraction", a3_path, "P1+P3", f"[id, P1:P2:{index}]", "[id, P1:P2:0]"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.splitlines() == [f"error: at position 5: basis index '{index}' is not a non-negative integer"]
    assert out.splitlines() == ["[P1 <= P1 => P2; denom (P1 -> P1: [1]), num (P1 -> P2: [1])]"]


@pytest.mark.parametrize(
    "expr, token, position",
    [
        ("kernel [id:P2, P2:P3:0] extra", "extra", 24),
        ("compose [id, P2:P3:0] [id, P1:P2:0] ]", "]", 36),
        ("equal? [id, P1:P2:0] [id, P1:P2:0] [id, P1:P2:0]", "[", 35),
        ("invert id:P1 id:P1", "id:P1", 13),
        ("[id, P1:P2:0],", ",", 13),
    ],
)
def test_fraction_refuses_tokens_after_a_complete_expression(a3_path, capsys, monkeypatch, expr, token, position):
    # refused before anything is computed; the next expression still runs
    monkeypatch.setattr(cli, "localised_kernel", None)
    code = main(["fraction", a3_path, "P1+P3", expr, "invert id:P1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.splitlines() == [f"error: unexpected {token!r} at position {position} after a complete expression"]
    assert out.splitlines() == ["[P1 <= P1 => P1; denom (P1 -> P1: [1]), num (P1 -> P1: [1])]"]


def test_fraction_not_regular_denominator(a3_path, capsys):
    code = main(["fraction", a3_path, "P1+P3", "[zero:P1:P1, id:P1]"])
    err = capsys.readouterr().err
    assert code == 1
    assert "regular" in err


# over the cap with no random tries: the kernel's certification grid raises.
# P3 -> I2 is neither mono nor zero, and its left form is read off a pushout
# along an identity, so the expression reaches its kernel's search.
OUT_OF_BUDGET = ["--retries", "0", "--grid-cap", "1", "kernel [id, P3:I2:0]"]


def test_fraction_out_of_budget_goes_on_with_the_next_expression(a3_path, capsys):
    code = main(["fraction", a3_path, "P1+P3", *OUT_OF_BUDGET, "[id, P1:P2:0]"])
    out, err = capsys.readouterr()
    assert code == 3
    assert err.splitlines() == ["bounds exceeded: certification grid 2^1 exceeds the cap"]
    assert out.splitlines() == ["[P1 <= P1 => P2; denom (P1 -> P1: [1]), num (P1 -> P2: [1])]"]


@pytest.mark.parametrize(
    "exprs, want",
    [
        (["[id, P1:P9:0]", "invert P3:I2:0"], 2),
        (["invert P3:I2:0", "[id, P1:P9:0]"], 2),
        (["invert P3:I2:0", "kernel [id, P3:I2:0]"], 1),
        (["kernel [id, P3:I2:0]", "invert P3:I2:0"], 1),
        (["kernel [id, P3:I2:0]", "[id, P1:P2:0]"], 3),
        (["[id, P1:P2:0]", "kernel [id, P3:I2:0]"], 3),
    ],
)
def test_fraction_exits_with_the_worst_status_in_any_order(a3_path, capsys, exprs, want):
    # a usage error over a failure over running out of budget over success
    code = main(["fraction", a3_path, "P1+P3", *OUT_OF_BUDGET[:4], *exprs])
    out, err = capsys.readouterr()
    assert code == want
    assert len(out.splitlines()) + len(err.splitlines()) == 2


def test_fraction_with_a_non_rigid_t_exits_1(a3_path, capsys):
    code = main(["fraction", a3_path, "P1+I2", "[id, P1:P2:0]"])
    out, err = capsys.readouterr()
    assert code == 1
    assert not out
    assert err.splitlines() == ["error: object P1+I2 is not rigid"]


def test_budget_config_file(a3_path, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "scan_pairs_cap": 30}))
    monkeypatch.setenv("QUOTCAT_CONFIG", str(cfg))
    out = tmp_path / "rep.json"
    assert main(["verify", a3_path, "--T", "P1+P2+P3", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["budgets"]["seed"] == 9
    assert rep["budgets"]["scan_pairs_cap"] == 30
    capsys.readouterr()


def test_budget_config_sets_keys_that_have_no_flag(tmp_path, monkeypatch):
    from argparse import Namespace

    from quotcat.cli import _load_budget

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 9, "scan_random_per_pair": 1}))
    monkeypatch.setenv("QUOTCAT_CONFIG", str(cfg))
    budget = _load_budget(Namespace(seed=5))
    assert (budget.seed, budget.scan_random_per_pair) == (5, 1)


def test_fraction_kernel_and_cokernel_expressions(a3_path, capsys):
    code = main(
        [
            "fraction",
            a3_path,
            "P1+P3",
            "kernel [id, P2:P3:0]",
            "cokernel [id, P2:P3:0]",
        ]
    )
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(out) == 2 and all(line.startswith("[") for line in out)


# C(A_3), T = P1+P3, in one command: the quotient and its square table are
# shared by the expressions.  P1 -> P2 and I2 -> I3 are regular there.  With
# r = P1 -> P2 and i2 the identity of P2, the second expression builds the
# square of (r, i2) and the fourth reads it; the third builds the square of
# the exchanged pair (i2, r) and the fifth reads it.  Both squares are along
# an identity, so pullback builds them without a kernel: (P1, 1, r) and
# (P1, r, 1), and the compositions print the roof with identity legs.
FRACTION_OUTPUT = [
    ("equal? [P1:P2:0, id:P1] [P1:P2:0, id:P1]", "true"),
    ("compose [id, P2:P3:0] [id, P1:P2:0]", "[P1 <= P1 => P3; denom (P1 -> P1: [1]), num (P1 -> P3: [1])]"),
    ("compose [P1:P2:0, P1:P3:0] [id, id:P2]", "[P2 <= P1 => P3; denom (P1 -> P2: [1]), num (P1 -> P3: [1])]"),
    ("equal? [P1:P2:0, P1:P3:0] [id, P2:P3:0]", "true"),
    ("equal? [id, P2:P3:0] [P1:P2:0, P1:P3:0]", "true"),
    ("invert P1:P2:0", "[P2 <= P1 => P1; denom (P1 -> P2: [1]), num (P1 -> P1: [1])]"),
    ("invert I2:I3:0", "[I3 <= I2 => I2; denom (I2 -> I3: [1]), num (I2 -> I2: [1])]"),
    ("compose [P1:P2:0, id:P1] [id, P1:P2:0]", "[P1 <= P1 => P1; denom (P1 -> P1: [1]), num (P1 -> P1: [1])]"),
    ("compose [id, P1:P2:0] [P1:P2:0, id:P1]", "[P2 <= P1 => P2; denom (P1 -> P2: [1]), num (P1 -> P2: [1])]"),
    ("kernel [id, P2:P3:0]", "[0 <= 0 => P2; denom (0 -> 0: []), num (0 -> P2: [])]"),
    ("cokernel [id, P2:P3:0]", "[P3 <= P3 => I2; denom (P3 -> P3: [1]), num (P3 -> I2: [3])]"),
    ("kernel [P1:P2:0, P1:P3:0]", "[0 <= 0 => P2; denom (0 -> 0: []), num (0 -> P2: [])]"),
    ("cokernel [P1:P2:0, P1:P3:0]", "[P3 <= P3 => I2; denom (P3 -> P3: [1]), num (P3 -> I2: [3])]"),
    ("kernel [id, P3:I2:0]", "[P2 <= P2 => P3; denom (P2 -> P2: [1]), num (P2 -> P3: [2])]"),
    ("cokernel [id, P1:P3:0]", "[P3 <= P3 => I2; denom (P3 -> P3: [1]), num (P3 -> I2: [3])]"),
    ("[P1:P2:0, P1:P3:0]", "[P2 <= P1 => P3; denom (P1 -> P2: [1]), num (P1 -> P3: [1])]"),
]


class _Misses(dict):
    """A square table that logs the map pair of each key it misses."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def get(self, key, default=None):
        sq = super().get(key, default)
        if sq is None:
            self.log.append(key[:2])
        return sq


def test_fraction_output_is_pinned(a3_path, capsys, monkeypatch):
    built, misses = [], []

    def quotient(*args, **kwargs):
        qc = build(*args, **kwargs)
        qc.presentation._squares = _Misses(misses)
        built.append(qc.presentation)
        return qc

    build = cli.build_quotient
    monkeypatch.setattr(cli, "build_quotient", quotient)
    code = main(["fraction", a3_path, "P1+P3", *(expr for expr, _ in FRACTION_OUTPUT)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [line for _, line in FRACTION_OUTPUT]
    (Q,) = built
    r, i2 = Q.basis_morphism(Q.index("P1"), Q.index("P2"), 0), Q.identity(Q.single(Q.index("P2")))
    # each ordered pair's square is built at most once, under the pair asked
    assert len(misses) == len(set(misses))
    assert misses.count((r, i2)) == misses.count((i2, r)) == 1
    i1 = Q.identity(r.source)
    squares = {key[:2]: sq for key, sq in Q._squares.items()}
    assert (squares[(r, i2)].a, squares[(r, i2)].b) == (i1, r)
    assert (squares[(i2, r)].a, squares[(i2, r)].b) == (r, i1)


def _corrupt(entry, **changes):
    def apply(doc):
        doc[entry[0]][entry[1]].update(changes)

    return apply


def _short_identities(doc):
    doc["identities"].pop()


def _repeat(key, **changes):
    """Insert a changed copy of the first entry of doc[key] before it."""

    def apply(doc):
        doc[key].insert(0, {**doc[key][0], **changes})

    return apply


# Each is one hand corruption of the committed C(A_2) file.
MALFORMED = {
    "unknown object in hom": _corrupt(("hom", 0), src="nope"),
    "unknown object in comp": _corrupt(("comp", 0), j="nope"),
    "non-name src": _corrupt(("hom", 0), src=3),
    "comp index 99": _corrupt(("comp", 0), c=99),
    "negative comp index": _corrupt(("comp", 0), a=-1),
    "short identities list": _short_identities,
    "non-int dim": _corrupt(("hom", 0), dim="1"),
    "fractional dim": _corrupt(("hom", 0), dim=1.5),
    "unparsable coefficient": _corrupt(("comp", 0), coeff="x/y"),
    "zero denominator": _corrupt(("comp", 0), coeff="1/0"),
    "repeated hom entry": _repeat("hom", dim=2),
    "repeated comp entry": _repeat("comp", coeff="5"),
    "non-ASCII digit coefficient": _corrupt(("comp", 0), coeff="\u0663"),
    "non-canonical coefficient": _corrupt(("comp", 0), coeff="1.0"),
    "JSON number coefficient": _corrupt(("comp", 0), coeff=1),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_category_file_exits_2(name, tmp_path, capsys):
    import pathlib

    doc = json.loads((pathlib.Path(__file__).parent / "golden" / "a2.json").read_text())
    MALFORMED[name](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--T", "P1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("aliases", [["Q1"], {"Q1": 3}, "Q1"], ids=["list", "non-name value", "string"])
@pytest.mark.parametrize("spec", ["Q1", "P1+P2+P3"])
def test_malformed_aliases_exit_2(a3_path, tmp_path, capsys, aliases, spec):
    # a list once reached resolve_object_name (TypeError) and the quotient
    # (AttributeError) as a traceback with exit 1
    doc = json.loads(open(a3_path).read())
    doc["metadata"]["aliases"] = aliases
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--T", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "aliases" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--retries", "-1"],
        ["--grid-cap", "0"],
        ["--grid-cap", "-5"],
        ["--scan-pairs-cap", "0"],
    ],
)
def test_nonsense_budget_flags_exit_2(a3_path, flags, capsys):
    assert main(["verify", a3_path, "--T", "P2", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: budget ") and err.count("\n") == 1, err


@pytest.mark.parametrize(
    "config",
    [{"seed": 1.5}, {"retries": 2.9}, {"seed": True}, {"scan_pairs_cap": False}, {"grid_cap": "2.5"}, {"retries": "\u0663"}],
    ids=["fractional seed", "fractional retries", "true seed", "false cap", "fractional string", "non-ASCII digit"],
)
def test_non_integral_budget_config_exits_2(a3_path, tmp_path, monkeypatch, capsys, config):
    # truncating would run, and report, a budget the config did not ask for
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    monkeypatch.setenv("QUOTCAT_CONFIG", str(cfg))
    assert main(["verify", a3_path, "--T", "P2"]) == 2
    err = capsys.readouterr().err
    (key,) = config
    assert err.startswith(f"error: budget {key} must be an integer") and err.count("\n") == 1, err


def test_integral_budget_values_are_read():
    from quotcat.preabelian import Budget

    budget = Budget.from_dict({"seed": "12", "retries": 3, "grid_cap": 1000.0})
    assert (budget.seed, budget.retries, budget.grid_cap) == (12, 3, 1000)


@pytest.mark.parametrize("spec", ["P1^-1", "P1^x", "P1^0", "P1^\u0663"])
def test_bad_power_in_object_spec_exits_2(a3_path, spec, capsys):
    assert main(["verify", a3_path, "--T", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(spec) in err and "positive integer" in err


EMPTY_SPEC_ARGV = {
    "verify": ["verify", "{path}", "--T", "{spec}"],
    "fraction": ["fraction", "{path}", "{spec}", "P1"],
    "verify --subcat": ["verify", "{path}", "--subcat", "{spec}"],
    "cotorsion U": ["cotorsion", "{path}", "{spec}"],
    "cotorsion --V": ["cotorsion", "{path}", "P2+P3+SP3", "--V", "{spec}"],
}


@pytest.mark.parametrize(
    "command,spec",
    # --V "" is V = 0, as test_cotorsion_explicit_empty_v checks
    [(c, s) for c in EMPTY_SPEC_ARGV for s in ("", "+", " , ") if (c, s) != ("cotorsion --V", "")],
)
def test_empty_object_spec_exits_2(a3_path, command, spec, capsys):
    # a spec naming no summand is not T = 0 or the empty subcategory, either
    # of which would verify vacuously
    assert main([a.format(path=a3_path, spec=spec) for a in EMPTY_SPEC_ARGV[command]]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert repr(spec) in err and "names no summand" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{path}", "--subcat", "P1+nope"],
        ["cotorsion", "{path}", "P2+nope"],
        ["cotorsion", "{path}", "P2+P3+SP3", "--V", "P1,nope"],
    ],
    ids=["verify --subcat", "cotorsion U", "cotorsion --V"],
)
def test_unknown_name_in_object_set_exits_2(a3_path, argv, capsys):
    assert main([a.format(path=a3_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "'nope'" in err


@pytest.mark.parametrize("where", ["--field", "field tag"])
def test_a_modulus_past_the_bound_exits_2_at_once(a3_path, tmp_path, where):
    # the bound p <= 2^31 is checked before trial division, which would run
    # for minutes on a modulus near 10^17; in a subprocess, so a hang fails
    # on the timeout instead of stalling the suite
    p = 100000000000000003
    if where == "--field":
        argv = ["generate", "3", str(tmp_path / "x.json"), "--field", f"F{p}"]
    else:
        doc = json.loads(open(a3_path).read())
        doc["field"] = {"Fp": p}
        big = tmp_path / "big.json"
        big.write_text(json.dumps(doc))
        argv = ["verify", str(big), "--T", "P1"]
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "quotcat.cli", *argv], env=env, capture_output=True, text=True, timeout=10
    )
    assert run.returncode == 2 and not run.stdout
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
    assert f"{p} is larger than 2^31" in run.stderr


@pytest.mark.parametrize("where", ["power in --T", "hom dim in the file"])
def test_an_input_too_large_for_memory_exits_2_with_one_line(a3_path, tmp_path, where):
    # a power of 10^9 copies, or a Hom space of dimension 10^9, cannot be
    # built in 1 GiB of address space; the subprocess runs under that limit,
    # so the MemoryError comes at once and the machine's memory is not used
    resource = pytest.importorskip("resource")
    if where == "power in --T":
        path, spec = a3_path, "P1^1000000000"
    else:
        doc = json.loads(open(a3_path).read())
        next(e for e in doc["hom"] if (e["src"], e["dst"]) == ("P1", "P2"))["dim"] = 10**9
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps(doc))
        path, spec = str(huge), "P1+P2+P3"
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    run = subprocess.run(
        [sys.executable, "-m", "quotcat.cli", "verify", path, "--T", spec],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit,
    )
    assert run.returncode == 2 and not run.stdout
    assert run.stderr == "error: out of memory: the input is too large to build\n", run.stderr
