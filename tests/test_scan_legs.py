"""The property scan builds one limit square per class of pairs and tests
each leg once.

The eight leg clauses of `scan_properties` share (given, other) pairs.
The scan answers pullback pairs only: it runs each pushout clause as the
pullback clause of Q^op on the twins of its maps, and asks `pushout` for
no square.  `pullback` keeps each square it builds in the presentation's
`_squares` for one verdict, under the ordered pair asked, so a pushout's
square is kept in Q^op, as `pushout` keeps it; the fraction calculus reads
the same table.  `is_epi` keeps each answer, in
Q and in Q^op (where `is_mono` asks), for one verdict.  A square's answers
also serve every pair that differs from its own by nonzero rescaling of the
two maps or by their exchange, so the scan asks for the square of the pair's
unit representatives, the one with the smaller key first, and builds one
square per class: the unordered pair of unit-normalised maps.  A clause
asks a pair one of two questions in the presentation it runs in (Q for a
pullback, Q^op for a pushout): is the leg opposite x epi, asked of an epi
x, or does the square exist, asked of a mono x, whose leg is then mono.
Three rules prove a pair holds without any square.  Existence holds where
the sink maps prove that every kernel exists there; that needs every
indecomposable to have a one-dimensional End and no two to be isomorphic.
When y factors through x (y = x s for a pullback, y = s x for a pushout),
the leg opposite x is split; the square exists exactly when the kernel
(cokernel) of x does.  When y is split (split epi for a pullback, split
mono for a pushout), the leg is epi exactly when x is; that needs
idempotents to split, so it applies only where every indecomposable has a
one-dimensional End, and elsewhere only to an invertible y.  These tests
pin that each class is built once (one miss of the square table) and
that the sharing pays on C(A_3)/Q, that the
invariance the sharing rests on holds on random pairs, that the rules agree
with a freshly built square and leave no such square in the tables, that
the split rule is off on a presentation with a two-dimensional End while
the factoring rule is not, that the mono rule is off there and where two
indecomposables are isomorphic, and that the tables are transparent: every
clause result equals the one computed by the plain per-clause loop below,
which decides the split and factoring rules by its own solves and builds a
square for every other pair it meets, pushouts in Q by `pushout`.  Only
where that loop's square search runs out of budget may a mono-leg clause,
answered by the mono rule, read otherwise: it passes.

All of this is the path a side takes where `_pullbacks_of_epis_are_epi`
does not decide it, so the tests that count squares or rules run the scan
with both sides undecided.  Where a side is decided, its clauses ask no
pair: each passes with the plain loop's count, and where that loop ran out
of budget it still passes (tests/test_integral_decision.py checks the
decision itself).
"""

import collections
import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quotcat import preabelian
from quotcat.clustergen import build_cluster_category
from quotcat.errors import NoCokernel, NoKernel
from quotcat.fincat import CategoryPresentation, Morphism, op_morphism, opposite, postcompose_matrix, validate_category
from quotcat.linalg import GF, QQ, Matrix
from quotcat.preabelian import (
    Budget,
    build_morphism_family,
    cokernel,
    factors_through_map,
    is_epi,
    is_mono,
    is_regular,
    kernel,
    lifts_through_epi,
    pullback,
    pushout,
    run_clause,
    scan_properties,
)
from quotcat.quotient import build_quotient

from conftest import solve_two_sided_inverse

CAPPED = Budget(scan_pairs_cap=120)


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


@pytest.fixture(scope="module")
def A4():
    return build_cluster_category(4, "><>", GF(101))


@pytest.fixture(scope="module")
def A4Q():
    return build_cluster_category(4)


@pytest.fixture
def undecided(monkeypatch):
    """Both sides undecided, so scan_properties asks every leg clause's
    pairs: the path it takes on a side where _pullbacks_of_epis_are_epi
    proves nothing (the gate off, a sink-map search out of budget, or a
    socle injective that is not representable)."""
    monkeypatch.setattr(preabelian, "_pullbacks_of_epis_are_epi", lambda P, budget: None)


def _unit(f):
    """f scaled so that its first nonzero coordinate is one."""
    fld = f.P.field
    lead = next((c for c in f.to_vector() if c), fld.one)
    return f.scale(fld.inv(lead))


def _square_legs(Q, limit, x, y, budget):
    """(leg opposite x, leg opposite y) of the square of x and y."""
    if limit == "pullback":
        sq = pullback(Q, y, x, budget)
        return sq.a, sq.b
    sq = pushout(Q, x, y, budget)
    return sq.d, sq.c


def _twin(Q, limit):
    """(P, twin): the presentation a leg clause of limit runs in, Q for a
    pullback and Q^op for a pushout, and the map carrying Q's maps there."""
    if limit == "pullback":
        return Q, lambda f: f
    op = opposite(Q)
    return op, functools.partial(op_morphism, op)


def _asked(Q, P, has):
    """has as the leg clause asks it in P: epi and mono exchange in Q^op."""
    return has if P is Q else {is_epi: is_mono, is_mono: is_epi}.get(has, has)


def _questions(Q, P, x):
    """The questions a leg clause in P asks of Q's map x: epi (True) when x
    is epi in P, existence (False) when x is mono in P; a map of neither
    class is in no clause's given list."""
    return [epi for epi, has in ((True, is_epi), (False, is_mono)) if _asked(Q, P, has)(Q, x)]


def _fresh_answer(Q, P, limit, x, y, epi):
    """The answer to a question read off a freshly built square: whether its
    leg opposite x is epi in P, or whether the square exists."""
    try:
        leg = _fresh_legs(Q, limit, x, y, CAPPED)[0]
    except (NoKernel, NoCokernel):
        return False
    return not epi or _asked(Q, P, is_epi)(Q, leg)


def _clear_squares(P):
    for R in (P, opposite(P)):
        R._squares.clear()


def _kept_squares(P):
    return len(P._squares) + len(opposite(P)._squares)


def _fresh_legs(Q, limit, x, y, budget):
    """_square_legs with the square built afresh, not read from a table."""
    _clear_squares(Q)
    return _square_legs(Q, limit, x, y, budget)


# -- the per-clause loop, one square per pair met ---------------------------------
#
# A pair that the split or the factoring rule answers builds no square, as in
# the scan; a mono-leg pair builds its square, so the mono rule meets its
# oracle.  Building
# its square instead would spend budget the scan does not spend, so a clause
# that runs out of budget would stop at another pair.  Here split is decided
# by rank, a split mono as a map with a section in Q^op, and factoring by one
# solve per pair, not by the scan's image table.


def _has_section(P, f):
    """Whether f o s = id for some s: id is in the span of f o - on Hom(target, source)."""
    m = postcompose_matrix(P, f, f.target)
    ident = P.identity(f.target).to_vector()
    return m.rank() == Matrix(P.field, m.nrows, m.ncols + 1, [r + [v] for r, v in zip(m.data, ident)]).rank()


def _is_split(Q, f, limit):
    """Split epi for a pullback, split mono (split epi in Q^op) for a pushout."""
    if limit == "pullback":
        return _has_section(Q, f)
    op = opposite(Q)
    return _has_section(op, op_morphism(op, f))


def _factors(Q, x, y, limit):
    """Whether y = x s (pullback) or y = s x (pushout) for some s."""
    if limit == "pullback":
        return lifts_through_epi(Q, y, x) is not None
    return factors_through_map(Q, y, x) is not None


def _invertible(Q, maps):
    return {f for f in maps if solve_two_sided_inverse(Q, f) is not None}


def _split_test(Q, fam):
    """split(y, limit) for the plain loop: y is an invertible regular of fam
    or, where every indecomposable of Q has a one-dimensional End, split."""
    inv = _invertible(Q, fam.regulars)
    scalar_ends = all(Q.hom_dim(i, i) == 1 for i in range(Q.n))

    @functools.cache
    def split(f, limit):
        return f in inv or (scalar_ends and _is_split(Q, f, limit))

    return split


def _no_square(limit):
    what, error = ("kernel", NoKernel) if limit == "pullback" else ("cokernel", NoCokernel)
    return error(f"difference map has no {what}: presentation is not preabelian here")


def _plain_legs(Q, limit, given, others, split, budget):
    """(x, y, holds) for each pair met, x in given and y in others, in the
    scan's order; holds(ok) is whether the leg opposite x passes ok."""
    meet = "target" if limit == "pullback" else "source"
    # opposite a y that factors through x the leg is split epi (split mono):
    # always epi (mono), and mono (epi) exactly when x is
    always, like_x, search = (is_epi, is_mono, kernel) if limit == "pullback" else (is_mono, is_epi, cokernel)
    for x in given:
        for y in others:
            if getattr(y, meet) != getattr(x, meet):
                continue
            if split(y, limit):
                yield x, y, lambda ok, x=x: ok(Q, x)
            elif _factors(Q, x, y, limit):
                if not like_x(Q, x) and search(Q, x, budget) is None:
                    raise _no_square(limit)
                yield x, y, lambda ok, x=x: ok is always or like_x(Q, x)
            else:
                leg = _fresh_legs(Q, limit, x, y, budget)[0]
                yield x, y, lambda ok, leg=leg: ok(Q, leg)


def _plain_leg_clause(legs, ok, budget):
    try:
        for x, y, holds in itertools.islice(legs, budget.scan_pairs_cap):
            yield
            P = x.P
            if not holds(ok):
                prop = ok.__name__.removeprefix("is_")
                return (
                    f"leg not {prop} for {P.obj_name(x.source)} -> {P.obj_name(x.target)}"
                    f" with {P.obj_name(y.source)} -> {P.obj_name(y.target)}"
                )
    except (NoKernel, NoCokernel) as e:
        return f"no limit square: {e}"


_MONO_LEGS = ("pullback_mono_leg", "pushout_epi_leg")  # the clauses that ask mono in Q or in Q^op


def _assert_as_plain(got, plain, exhausted):
    """got, clause name -> result, equals the plain loop's clauses; where
    the budget runs out (exhausted), each mono-leg clause passes instead,
    answered by x with no search, where the plain loop's square search says
    bounds-exceeded, and never reads anything else."""
    if not exhausted:
        assert got == plain
        return
    for name, result in plain.items():
        if name in _MONO_LEGS:
            assert got[name].status == "pass" and (got[name] == result or result.status == "bounds-exceeded"), name
        else:
            assert got[name] == result, name
    assert any(plain[name].status == "bounds-exceeded" for name in _MONO_LEGS if name in plain)


def _plain_leg_clauses(Q, fam, budget) -> dict:
    split = _split_test(Q, fam)
    return {
        name: run_clause(_plain_leg_clause(_plain_legs(Q, limit, given, fam.all, split, budget), ok, budget))
        for name, limit, given, ok in (
            ("pullback_cokernel_leg", "pullback", fam.cokernel_maps, is_epi),
            ("pullback_epi_leg", "pullback", fam.epis, is_epi),
            ("pullback_mono_leg", "pullback", fam.monos, is_mono),
            ("pullback_regular_leg", "pullback", fam.regulars, is_regular),
            ("pushout_kernel_leg", "pushout", fam.kernel_maps, is_mono),
            ("pushout_mono_leg", "pushout", fam.monos, is_mono),
            ("pushout_epi_leg", "pushout", fam.epis, is_epi),
            ("pushout_regular_leg", "pushout", fam.regulars, is_regular),
        )
    }


# -- tests -----------------------------------------------------------------------


class _Decisions(dict):
    """An is_epi table that counts, per presentation and map, each answer
    decided (stored) after the morphism family is built."""

    def __init__(self, P, log, family_built):
        super().__init__()
        self.P, self.log, self.family_built = P, log, family_built

    def __setitem__(self, f, answer):
        if self.family_built:
            self.log[(id(self.P), f)] += 1
        super().__setitem__(f, answer)


class _Squares(dict):
    """A square table that counts, per presentation and class of pairs, each
    miss: pullback builds the square on a miss."""

    def __init__(self, P, log):
        super().__init__()
        self.P, self.log = P, log

    def get(self, key, default=None):
        sq = super().get(key, default)
        if sq is None:
            self.log[(id(self.P), frozenset(_unit(m) for m in key[:2]))] += 1
        return sq


@pytest.mark.parametrize("t", [("P1", "P3"), ("P2",)])
def test_scan_builds_each_limit_square_once(A3, monkeypatch, undecided, t):
    # a pushout clause builds its squares as pullbacks in Q^op, so counting
    # the misses of both tables counts both; a class is the unordered pair
    # of unit-normalised maps
    Q = build_quotient(A3, A3.obj({s: 1 for s in t})).presentation
    squares = collections.Counter()
    decided = collections.Counter()
    asked = set()
    family_built = []
    for P in (Q, opposite(Q)):  # is_mono decides, and pushout builds, in Q^op
        P._epis = _Decisions(P, decided, family_built)
        P._squares = _Squares(P, squares)

    def family(*args):
        fam = build_family(*args)
        family_built.append(True)
        return fam

    def leg_pairs(given, others):
        for x, y in build_leg_pairs(given, others):
            asked.add((x, y))  # a map of Q^op never equals one of Q
            yield x, y

    build_family, build_leg_pairs = preabelian.build_morphism_family, preabelian._leg_pairs
    monkeypatch.setattr(preabelian, "build_morphism_family", family)
    monkeypatch.setattr(preabelian, "_leg_pairs", leg_pairs)
    rep = preabelian.scan_properties(Q, CAPPED)
    assert all(c.status == "pass" for c in rep.clauses.values())
    assert squares and set(squares.values()) == {1}
    if t == ("P2",):
        # rescaling and exchange leave fewer squares than ordered value pairs
        assert sum(squares.values()) < len(asked)
    # after the family is classified, each map's epi or mono answer is
    # decided once, in Q or in Q^op, however many clauses ask for it
    assert decided and set(decided.values()) == {1}


@functools.cache
def _eligible_pairs(case):
    """The (limit, x, y) pairs a scan of case meets, x from any given list,
    and the family's invertible maps."""
    cat, t = case.split(" T=")
    P = build_cluster_category(4, "><>", GF(101)) if cat.startswith("A4") else build_cluster_category(3)
    Q = build_quotient(P, P.obj({s: 1 for s in t.split("+")})).presentation
    fam = scan_properties(Q, CAPPED).family
    givens = fam.all + fam.cokernel_maps + fam.kernel_maps
    pairs = [
        (limit, x, y)
        for limit, meet in (("pullback", "target"), ("pushout", "source"))
        for x in givens
        for y in fam.all
        if getattr(x, meet) == getattr(y, meet)
    ]
    return Q, pairs, _invertible(Q, fam.regulars)


def _answers(Q, *maps):
    return [(is_epi(Q, m), is_mono(Q, m)) for m in maps]


_NONZERO = st.builds(
    lambda n, d, neg: Fraction(-n if neg else n, d),
    st.integers(1, 100),
    st.integers(1, 7),
    st.booleans(),
)  # never 0 in Q or in GF(101)


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
@settings(max_examples=30)
@given(data=st.data(), s=_NONZERO, t=_NONZERO)
def test_square_answers_survive_rescaling_and_exchange(case, data, s, t):
    Q, pairs, _ = _eligible_pairs(case)
    limit, x, y = data.draw(st.sampled_from(pairs))
    legs = _fresh_legs(Q, limit, x, y, CAPPED)
    # the square of (y, x) is its own, built from its own kernel; its legs
    # answer as those of (x, y), exchanged
    exchanged = _fresh_legs(Q, limit, y, x, CAPPED)
    assert _answers(Q, *exchanged) == _answers(Q, *legs[::-1])
    assert _answers(Q, *_fresh_legs(Q, limit, x.scale(s), y.scale(t), CAPPED)) == _answers(Q, *legs)


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
@settings(max_examples=30)
@given(data=st.data(), s=_NONZERO, t=_NONZERO)
def test_pairs_meeting_an_isomorphism_answer_as_x(case, data, s, t):
    # the scan answers such a pair by x itself; the leg opposite x of a
    # freshly built square must answer the same, before and after rescaling
    Q, pairs, inv = _eligible_pairs(case)
    limit, x, y = data.draw(st.sampled_from([p for p in pairs if p[1] in inv or p[2] in inv]))
    x_iso = x in inv
    for x, y in ((x, y), (x.scale(s), y.scale(t))):
        leg = _fresh_legs(Q, limit, x, y, CAPPED)[0]
        assert _answers(Q, leg) == _answers(Q, x)
        # the leg opposite an isomorphism is one
        assert not x_iso or solve_two_sided_inverse(Q, leg) is not None


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
@settings(max_examples=30)
@given(data=st.data())
def test_mono_rule_answers_as_a_fresh_square(case, data):
    # where P has every kernel, the scan answers the existence question in P,
    # which a clause asks of a mono x in P (mono for a pullback, epi for a
    # pushout, as Q sees them), with no square; a freshly built square must
    # exist
    Q, pairs, _ = _eligible_pairs(case)
    limit, x, y = data.draw(st.sampled_from([p for p in pairs if False in _questions(Q, _twin(Q, p[0])[0], p[1])]))
    P, twin = _twin(Q, limit)
    _clear_squares(Q)
    got = preabelian._leg_answers(P, CAPPED)(twin(x), twin(y), False)
    assert _kept_squares(Q) == 0
    assert got is True and _fresh_answer(Q, P, limit, x, y, False)


@functools.cache
def _split_pairs(case, which):
    """The eligible pairs whose x (which = 1) or y (which = 2) is split and
    not invertible; pairs that meet an invertible map are tested above."""
    Q, pairs, inv = _eligible_pairs(case)
    return [p for p in pairs if p[which] not in inv and _is_split(Q, p[which], p[0])]


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
@pytest.mark.parametrize("which", [1, 2], ids=["x-split", "y-split"])
@settings(max_examples=30)
@given(data=st.data(), s=_NONZERO, t=_NONZERO)
def test_pairs_meeting_a_split_map_answer_as_x(case, which, data, s, t):
    # the scan answers such a pair by x itself; the leg opposite x of a
    # freshly built square must answer the same, before and after rescaling
    Q, _, _ = _eligible_pairs(case)
    pairs = _split_pairs(case, which)
    assert {p[0] for p in pairs} == {"pullback", "pushout"}
    limit, x, y = data.draw(st.sampled_from(pairs))
    for x, y in ((x, y), (x.scale(s), y.scale(t))):
        leg = _fresh_legs(Q, limit, x, y, CAPPED)[0]
        assert _answers(Q, leg) == _answers(Q, x)
        # opposite a split epi (a split mono for a pushout) the leg is one
        assert which == 2 or _is_split(Q, leg, limit)


@functools.cache
def _factor_pairs(case):
    """The eligible pairs whose y factors through x and is not split, so
    that the factoring rule, not the split rule, answers them."""
    Q, pairs, _ = _eligible_pairs(case)
    split = functools.partial(_is_split, Q)
    return [(limit, x, y) for limit, x, y in pairs if not split(y, limit) and _factors(Q, x, y, limit)]


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
@settings(max_examples=30)
@given(data=st.data(), s=_NONZERO, t=_NONZERO)
def test_pairs_where_y_factors_through_x_answer_by_the_rule(case, data, s, t):
    # the scan's rule answers such a pair without a square, for each question
    # a clause asks of x; a freshly built square must answer the same, before
    # and after rescaling
    Q, _, _ = _eligible_pairs(case)
    pairs = [p for p in _factor_pairs(case) if _questions(Q, _twin(Q, p[0])[0], p[1])]
    assert {p[0] for p in pairs} == {"pullback", "pushout"}
    limit, x, y = data.draw(st.sampled_from(pairs))
    P, twin = _twin(Q, limit)
    for x, y in ((x, y), (x.scale(s), y.scale(t))):
        _clear_squares(Q)
        answer = preabelian._leg_answers(P, CAPPED)
        asked = _questions(Q, P, x)
        got = [answer(twin(x), twin(y), epi) for epi in asked]
        assert _kept_squares(Q) == 0  # the rule answered, not a square
        assert got == [_fresh_answer(Q, P, limit, x, y, epi) for epi in asked] and all(got)
        # opposite such an x the leg is split epi (split mono for a pushout)
        assert _is_split(Q, _fresh_legs(Q, limit, x, y, CAPPED)[0], limit)


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
def test_rules_answer_exactly_the_pairs_the_solves_find(case):
    # over every eligible pair whose x some clause takes, sums of
    # indecomposables included, asked each question a clause asks of x, the
    # scan decides a pair without a square exactly when it asks existence
    # and P has every kernel, or when y is split or factors through x by the
    # plain loop's own rank test and solve; a pair whose class (units of x
    # and y, limit, question) was answered before reads that answer and
    # builds no square either.  A pushout pair is asked of the answers of
    # Q^op, on the twins of its maps.  Both sides have every kernel here
    Q, pairs, _ = _eligible_pairs(case)
    split = _split_test(Q, scan_properties(Q, CAPPED).family)
    sides = {limit: _twin(Q, limit) for limit in ("pullback", "pushout")}
    answers = {limit: preabelian._leg_answers(P, CAPPED) for limit, (P, _) in sides.items()}
    assert all(preabelian._has_every_kernel(P, CAPPED) for P, _ in sides.values())
    asked_epi = ruled = repeats = 0
    classes = set()
    for limit, x, y in pairs:
        P, twin = sides[limit]
        for epi in _questions(Q, P, x):
            _clear_squares(Q)
            answers[limit](twin(x), twin(y), epi)
            solved = split(y, limit) or _factors(Q, x, y, limit)
            rule = not epi or solved
            cls = (limit, _unit(x), _unit(y), epi)
            repeat = cls in classes
            classes.add(cls)
            assert (_kept_squares(Q) == 0) == (rule or repeat), (limit, x, y, epi)
            asked_epi += epi
            ruled += solved and epi
            repeats += repeat and not rule
    assert 0 < ruled < asked_epi and repeats


_TRANSPARENT_CASES = [
    "A3/Q T=P1+P3",
    "A3/Q T=P2",
    "A3/Q T=S2+I2",
    "A3/Q subcat=P1+P2+I2",
    "A3/Q T=P2 retries=1 grid_cap=1",
    "A4(><>)/F101 T=I1+P1",
    "A4(><>)/F101 T=I1+P1+I2+M[1,4]",
    "A4/Q T=P1+P2+P3+P4",
]


def _case_quotient(categories, case):
    """(Q, budget, kind) of a case: a quotient by T or by an explicit
    subcategory, at CAPPED or at the budget the case names."""
    cat, spec = case.split(" ", 1)
    P = categories[cat]
    budget = CAPPED
    if spec.endswith("retries=1 grid_cap=1"):
        spec, budget = spec.split(" ")[0], Budget(retries=1, grid_cap=1)
    kind, names = spec.split("=")
    names = names.split("+")
    if kind == "subcat":
        qc = build_quotient(P, subcat={P.index(s) for s in names})
        assert validate_category(qc.presentation).ok
    else:
        qc = build_quotient(P, P.obj({s: 1 for s in names}))
    return qc.presentation, budget, kind


def _assert_decided_as_plain(Q, budget, got, plain):
    """got, clause name -> result of the scan, equals the plain loop's
    clauses on each undecided side; on each side that
    _pullbacks_of_epis_are_epi decides, every clause passes, and its checked
    count is the plain loop's wherever that loop stayed in budget."""
    decided = {limit: bool(preabelian._pullbacks_of_epis_are_epi(_twin(Q, limit)[0], budget)) for limit in ("pullback", "pushout")}
    for name, result in plain.items():
        if decided[name.split("_")[0]] and result.status == "bounds-exceeded":
            assert got[name].status == "pass" and got[name].checked >= result.checked, name
        else:
            assert got[name] == result, name
    return decided


@pytest.mark.parametrize("case", _TRANSPARENT_CASES)
def test_scan_tables_are_transparent(A3, A4, A4Q, case, monkeypatch):
    # the scan's leg clauses, asked pair by pair on both sides, and then
    # with each side decided where _pullbacks_of_epis_are_epi proves it
    Q, budget, kind = _case_quotient({"A3/Q": A3, "A4/Q": A4Q, "A4(><>)/F101": A4}, case)
    with monkeypatch.context() as m:
        m.setattr(preabelian, "_pullbacks_of_epis_are_epi", lambda P, budget: None)
        rep = scan_properties(Q, budget)
    assert rep.clauses["preabelian"].status == "pass"
    legs = {k: v for k, v in rep.clauses.items() if k != "preabelian"}
    plain = _plain_leg_clauses(Q, rep.family, budget)
    _assert_as_plain(legs, plain, "grid_cap" in case)
    decided = _assert_decided_as_plain(Q, budget, scan_properties(Q, budget).clauses, plain)
    # every rigid T here is decided on both sides; the subcategory quotient
    # has a failing pair on each side, so neither is decided
    assert decided == {"pullback": kind == "T", "pushout": kind == "T"}
    statuses = collections.Counter(c.status for c in plain.values())
    if "grid_cap" in case:
        # squares shared by clauses run out of budget: each plain clause says
        # so, and each scan clause but the mono legs
        assert statuses["bounds-exceeded"] >= 2
        assert any(c.status == "bounds-exceeded" for c in legs.values())
    if kind == "subcat":
        assert statuses["fail"] >= 2


@pytest.mark.parametrize("case", _TRANSPARENT_CASES)
def test_pushout_clauses_are_pullback_clauses_in_the_opposite(A3, A4, A4Q, case):
    # each pushout clause, run by itself as the pullback clause of Q^op on
    # the twins of its maps, with the dual property and fresh tables, is the
    # plain loop's clause, which builds its squares with pushout in Q
    Q, budget, _ = _case_quotient({"A3/Q": A3, "A4/Q": A4Q, "A4(><>)/F101": A4}, case)
    fam = scan_properties(Q, budget).family
    plain = _plain_leg_clauses(Q, fam, budget)
    op, twin = _twin(Q, "pushout")
    got = {}
    for name, given, prop in (
        ("pushout_kernel_leg", fam.kernel_maps, "mono"),
        ("pushout_mono_leg", fam.monos, "mono"),
        ("pushout_epi_leg", fam.epis, "epi"),
        ("pushout_regular_leg", fam.regulars, "regular"),
    ):
        Q.clear_verdict_tables()
        answer = preabelian._leg_answers(op, budget)
        body = preabelian._leg_clause(Q, op, answer, list(map(twin, given)), list(map(twin, fam.all)), prop, budget)
        got[name] = run_clause(body)
    _assert_as_plain(got, {name: plain[name] for name in got}, "grid_cap" in case)


def test_scan_builds_no_square_for_a_pair_meeting_an_isomorphism(A3, undecided):
    # T = I3+SP2 has a regular map that is not invertible, SP2 -> P1
    Q = build_quotient(A3, A3.obj({"I3": 1, "SP2": 1})).presentation
    fam = scan_properties(Q, CAPPED).family
    inv = _invertible(Q, fam.regulars)
    assert {Q.identity(Q.single(i)) for i in range(Q.n)} <= inv
    witness = next(r for r in fam.regulars if r not in inv)
    assert (Q.obj_name(witness.source), Q.obj_name(witness.target)) == ("SP2", "P1")
    # pushout keeps its squares in Q^op, under the maps' opposite twins
    for P in (Q, opposite(Q)):
        assert P._squares
        for c, d, *_ in P._squares:
            assert solve_two_sided_inverse(P, c) is None and solve_two_sided_inverse(P, d) is None


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
def test_scan_builds_no_square_for_a_pair_meeting_a_split_map(case, undecided):
    Q, _, _ = _eligible_pairs(case)
    # the scan meets split maps that are not invertible, so the rule is tried
    assert _split_pairs(case, 1) and _split_pairs(case, 2)
    Q.clear_verdict_tables()  # Q is shared with the tests that build squares afresh
    scan_properties(Q, CAPPED)
    # pushout keeps its squares in Q^op, where a split mono has a section
    for P in (Q, opposite(Q)):
        assert P._squares
        for c, d, *_ in P._squares:
            assert not _has_section(P, c) and not _has_section(P, d)


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
def test_scan_builds_no_square_for_a_pair_the_rule_answers(case, monkeypatch, undecided):
    # every pair that reaches pullback from a leg clause is one that neither
    # rule answers, by the plain loop's own solves; and the factoring rule
    # answers some pair that the split rule does not.  A pushout clause
    # meets the twins of Q's maps in Q^op, and no leg clause asks pushout
    Q, _, _ = _eligible_pairs(case)
    Q.clear_verdict_tables()  # Q is shared with the tests that build squares afresh
    asked, squared, current, pushouts = set(), set(), [], []

    def leg_pairs(given, others):
        for x, y in build_leg_pairs(given, others):
            if x.P is Q:
                current[:] = [("pullback", x, y)]
            else:
                current[:] = [("pushout", op_morphism(Q, x), op_morphism(Q, y))]
            asked.update(current)
            yield x, y

    def recorded(*args):
        squared.update(current)
        return build_pullback(*args)

    build_leg_pairs, build_pullback = preabelian._leg_pairs, preabelian.pullback
    monkeypatch.setattr(preabelian, "_leg_pairs", leg_pairs)
    monkeypatch.setattr(preabelian, "pullback", recorded)
    monkeypatch.setattr(preabelian, "pushout", lambda *args: pushouts.append(args))
    split = _split_test(Q, scan_properties(Q, CAPPED).family)
    assert squared and Q._squares and opposite(Q)._squares and not pushouts
    assert {limit for limit, _, _ in squared} == {"pullback", "pushout"}
    for limit, x, y in squared:
        assert not split(y, limit) and not _factors(Q, x, y, limit)
    assert any(not split(y, limit) and _factors(Q, x, y, limit) for limit, x, y in asked - squared)


def _scan_clause(Q, limit, given, others, prop):
    """The leg clause's result over given and others, with fresh scan
    tables; a pushout clause runs as the pullback clause of Q^op."""
    P, twin = _twin(Q, limit)
    answer = preabelian._leg_answers(P, CAPPED)
    body = preabelian._leg_clause(Q, P, answer, list(map(twin, given)), list(map(twin, others)), prop, CAPPED)
    return run_clause(body)


def _two_idempotents():
    """One object X with End(X) = Q x Q: basis e1, e2 of orthogonal
    idempotents, and id = e1 + e2.  e1 does not split: X is the only
    indecomposable."""
    comp = {(0, 0, 0): [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
    return CategoryPresentation(QQ, ["X"], {(0, 0): 2}, comp, [[1, 1]])


def _e_map(E, m, n, rows):
    """The map X^m -> X^n of E whose component from copy s to copy t is
    rows[t][s] times the identity."""
    return Morphism(E, E.obj([m]), E.obj([n]), [[[c, c] for c in row] for row in rows])


def test_split_rule_is_off_without_one_dimensional_ends():
    # End(X) is two-dimensional, so a split y answers a pair only when it is
    # invertible.  Every epi and every mono of E splits, so each y meeting
    # an epi x factors through it: only the existence question, asked of a
    # mono x, meets a split y that neither is invertible nor factors
    # through x.  Such a pair builds its square, as the plain loop does
    E = _two_idempotents()
    assert validate_category(E).ok
    fam = build_morphism_family(E, CAPPED)
    assert all(_is_split(E, f, "pullback") for f in fam.epis) and all(_is_split(E, f, "pushout") for f in fam.monos)
    plain = _split_test(E, fam)
    # x mono (epi for a pushout) against a split epi X^3 -> X^2 (split mono
    # X^2 -> X^3 for a pushout) and against the identity of X^2
    cases = (
        ("pullback", "mono", _e_map(E, 1, 2, [[1], [0]]), _e_map(E, 3, 2, [[1, 0, 0], [0, 1, 0]])),
        ("pushout", "epi", _e_map(E, 2, 1, [[1, 0]]), _e_map(E, 2, 3, [[1, 0], [0, 1], [0, 0]])),
    )
    for limit, prop, x, y in cases:
        ok = {"epi": is_epi, "mono": is_mono}[prop]
        assert ok(E, x) and _is_split(E, y, limit) and solve_two_sided_inverse(E, y) is None
        assert not plain(y, limit) and not _factors(E, x, y, limit)
        # an invertible y that meets x still answers, and builds nothing
        one = E.identity(y.target if limit == "pullback" else y.source)
        for y in (y, one):
            _clear_squares(E)
            got = _scan_clause(E, limit, [x], [y], prop)
            assert got.checked == 1 and _kept_squares(E) == (y is not one)
            legs = _plain_legs(E, limit, [x], [y], plain, CAPPED)
            assert got == run_clause(_plain_leg_clause(legs, ok, CAPPED))


def test_factoring_rule_needs_no_one_dimensional_ends():
    # e1 = e1 e1 factors through e1 on either side, with no gate.  e1 has
    # neither a kernel nor a cokernel, so the square of (e1, e1) is missing
    # as well, and the clause fails as building it would.  Through 1_X,
    # which is mono and epi, every y factors, and its leg is regular
    E = _two_idempotents()
    e1 = E.hom_basis(E.single(0), E.single(0))[0]
    one = E.identity(E.single(0))
    for limit, build in (("pullback", pullback), ("pushout", pushout)):
        assert _factors(E, e1, e1, limit) and _factors(E, one, e1, limit)
        _clear_squares(E)
        got = _scan_clause(E, limit, [e1], [e1], "mono")
        assert _kept_squares(E) == 0
        with pytest.raises((NoKernel, NoCokernel)) as missing:
            build(E, e1, e1, CAPPED)
        assert (got.status, got.checked, got.detail) == ("fail", 0, f"no limit square: {missing.value}")
        what = "kernel" if limit == "pullback" else "cokernel"
        assert got.detail.startswith(f"no limit square: difference map has no {what}: ")
        for prop in ("epi", "mono", "regular"):
            got = _scan_clause(E, limit, [one], [e1], prop)
            assert (got.status, got.checked) == ("pass", 1) and _kept_squares(E) == 0


def _with_a_copy(P, name):
    """P with one more indecomposable, name', a copy of name: the same Hom
    spaces and structure constants, so name' is isomorphic to name."""
    c = list(range(P.n)) + [P.index(name)]
    n = len(c)
    dims = {(i, j): P.hom_dim(c[i], c[j]) for i, j in itertools.product(range(n), repeat=2) if P.hom_dim(c[i], c[j])}
    comp = {
        (i, j, k): P.comp[(c[i], c[j], c[k])]
        for i, j, k in itertools.product(range(n), repeat=3)
        if (c[i], c[j], c[k]) in P.comp
    }
    return CategoryPresentation(P.field, P.objects + [name + "'"], dims, comp, [P.identities[i] for i in c])


def _mono_leg_clauses(Q, fam):
    """(limit, given, ok, prop) of pullback_mono_leg and pushout_epi_leg."""
    return (("pullback", fam.monos, is_mono, "mono"), ("pushout", fam.epis, is_epi, "epi"))


@pytest.mark.parametrize("which", ["two-dimensional End", "isomorphic indecomposables"])
def test_mono_rule_is_off_without_the_gate(A3, which):
    # the sink maps alone would say that Q has every kernel: E has no map
    # between two indecomposables, and a copy of SP2 hides the irreducible
    # maps out of SP2 (each factors through the copy), so the sink maps of
    # C(A_3)/add{P1, P2, S2}, which has a map with no kernel, then all have
    # kernels.  The gate turns the mono rule off, and the mono-leg clauses
    # build squares, as the plain loop does
    if which == "two-dimensional End":
        P = _two_idempotents()
    else:
        Q6 = build_quotient(A3, subcat={"P1", "P2", "S2"}).presentation
        assert not preabelian._every_sink_map_has_a_kernel(Q6, CAPPED)
        P = _with_a_copy(Q6, "SP2")
    assert validate_category(P).ok
    assert preabelian._every_sink_map_has_a_kernel(P, CAPPED)
    assert not any(preabelian._has_every_kernel(R, CAPPED) for R in (P, opposite(P)))
    fam = build_morphism_family(P, CAPPED)
    split = _split_test(P, fam)
    for limit, given, ok, prop in _mono_leg_clauses(P, fam):
        _clear_squares(P)
        got = _scan_clause(P, limit, given, fam.all, prop)
        assert _kept_squares(P), limit
        assert got == run_clause(_plain_leg_clause(_plain_legs(P, limit, given, fam.all, split, CAPPED), ok, CAPPED))


@pytest.mark.parametrize("case", ["A3/Q T=P1+P3", "A4(><>)/F101 T=I1+P1"])
def test_mono_leg_clauses_build_no_square(case, monkeypatch):
    # Q and Q^op have every kernel, so pullback_mono_leg and pushout_epi_leg,
    # which ask mono in Q and in Q^op, pass without a square, where the
    # plain loop builds squares for the same pairs.  A scan decides whether
    # P has every kernel once, on Q: Q's True holds for Q^op as well
    Q, _, _ = _eligible_pairs(case)
    fam = build_morphism_family(Q, CAPPED)
    split = _split_test(Q, fam)
    for limit, given, ok, prop in _mono_leg_clauses(Q, fam):
        Q.clear_verdict_tables()  # Q is shared with the tests that build squares afresh
        got = _scan_clause(Q, limit, given, fam.all, prop)
        assert (got.status, _kept_squares(Q)) == ("pass", 0), limit
        assert got == run_clause(_plain_leg_clause(_plain_legs(Q, limit, given, fam.all, split, CAPPED), ok, CAPPED))
        assert _kept_squares(Q), limit
    decided = []
    has_every_kernel = preabelian._has_every_kernel
    monkeypatch.setattr(preabelian, "_has_every_kernel", lambda P, budget: decided.append(P) or has_every_kernel(P, budget))
    Q.clear_verdict_tables()
    assert scan_properties(Q, CAPPED).ok
    assert decided == [Q]
    assert opposite(Q)._every_kernel[CAPPED.search_fields] is True


def test_leg_pairs_keep_the_filtered_order(A4):
    # the pairs a leg clause meets, from an index of others by target, are
    # those of the filter over every (x, y), in the same order; a pushout
    # clause meets the twins in Q^op, which op_morphism keeps on each map
    Q = build_quotient(A4, A4.obj({"I1": 1, "P1": 1})).presentation
    fam = scan_properties(Q, CAPPED).family
    givens = [fam.all, fam.epis, fam.monos, fam.regulars, fam.cokernel_maps, fam.kernel_maps]
    assert all(givens)
    for limit, meet in (("pullback", "target"), ("pushout", "source")):
        for given in givens:
            filtered = [(x, y) for x in given for y in fam.all if getattr(y, meet) == getattr(x, meet)]
            _, twin = _twin(Q, limit)
            indexed = list(preabelian._leg_pairs(list(map(twin, given)), list(map(twin, fam.all))))
            assert len(indexed) == len(filtered) and all(
                a[0] is twin(b[0]) and a[1] is twin(b[1]) for a, b in zip(indexed, filtered)
            )
