import itertools

import pytest

from quotcat import preabelian
from quotcat.clustergen import build_cluster_category
from quotcat.errors import BoundsExceeded, NoCokernel, NoKernel, NotRegular, ShapeError
from quotcat.fincat import all_rigid_supports, compose
from quotcat.fincat import basis_morphisms as indexed_basis_morphisms
from quotcat.linalg import GF
from quotcat.localization import (
    check_abelian,
    compose_fractions,
    fractions_equal,
    from_morphism,
    identity_fraction,
    invert_regular,
    localised_cokernel,
    localised_kernel,
    to_left_fraction,
    verify_rf_axioms,
    Fraction,
)
from quotcat.preabelian import (
    Budget,
    DEFAULT_BUDGET,
    build_morphism_family,
    coim_im_factorise,
    cokernel,
    is_epi,
    is_mono,
    is_regular,
    pullback,
    run_clause,
    scan_properties,
    socle_is_right_exact,
)
from quotcat.quotient import build_quotient

from conftest import solve_two_sided_inverse
from test_integral_decision import _two_reject_category


@pytest.fixture(scope="module")
def A2Q():
    A2 = build_cluster_category(2)
    qc = build_quotient(A2, A2.obj({"P1": 1, "P2": 1}))
    return qc.presentation


@pytest.fixture(scope="module")
def A3():
    return build_cluster_category(3)


@pytest.fixture(scope="module")
def Q13(A3):
    return build_quotient(A3, A3.obj({"P1": 1, "P3": 1})).presentation


def basis_morphisms(Q):
    for i in range(Q.n):
        for j in range(Q.n):
            for a in range(Q.hom_dim(i, j)):
                yield Q.basis_morphism(i, j, a)


def test_identity_fraction_roundtrip(A2Q):
    Q = A2Q
    X = Q.single(0)
    F = from_morphism(Q, Q.identity(X))
    assert fractions_equal(Q, F, identity_fraction(Q, X))


def test_invert_identity(A2Q):
    Q = A2Q
    X = Q.single(0)
    assert fractions_equal(Q, invert_regular(Q, Q.identity(X)), identity_fraction(Q, X))


def test_invert_requires_regular(A2Q):
    Q = A2Q
    z = Q.zero_morphism(Q.single(0), Q.single(1))
    with pytest.raises(NotRegular):
        invert_regular(Q, z)
    with pytest.raises(NotRegular):
        Fraction(Q, z, z)


def test_inverse_composes_to_identity(Q13):
    Q = Q13
    fam = build_morphism_family(Q)
    # pick a regular non-invertible witness if one exists, else any regular
    r = next((m for m in fam.regulars if m.source != m.target), fam.regulars[0])
    F, R = from_morphism(Q, r), invert_regular(Q, r)
    assert fractions_equal(Q, compose_fractions(Q, R, F), identity_fraction(Q, r.source))
    assert fractions_equal(Q, compose_fractions(Q, F, R), identity_fraction(Q, r.target))


def test_compose_with_identity(A2Q):
    Q = A2Q
    for f in basis_morphisms(Q):
        F = from_morphism(Q, f)
        left = compose_fractions(Q, identity_fraction(Q, f.target), F)
        right = compose_fractions(Q, F, identity_fraction(Q, f.source))
        assert fractions_equal(Q, left, F)
        assert fractions_equal(Q, right, F)


def test_localisation_functoriality(A2Q):
    Q = A2Q
    for f in basis_morphisms(Q):
        for g in basis_morphisms(Q):
            if f.target != g.source:
                continue
            lhs = compose_fractions(Q, from_morphism(Q, g), from_morphism(Q, f))
            rhs = from_morphism(Q, compose(Q, g, f))
            assert fractions_equal(Q, lhs, rhs)


def test_associativity_small_triples(A2Q):
    Q = A2Q
    triples = []
    bs = list(basis_morphisms(Q))
    for f, g, h in itertools.product(bs, repeat=3):
        if f.target == g.source and g.target == h.source:
            triples.append((f, g, h))
    assert triples
    for f, g, h in triples:
        F, G, H = (from_morphism(Q, m) for m in (f, g, h))
        lhs = compose_fractions(Q, H, compose_fractions(Q, G, F))
        rhs = compose_fractions(Q, compose_fractions(Q, H, G), F)
        assert fractions_equal(Q, lhs, rhs)


def test_faithfulness_on_plain_morphisms(A2Q):
    # [id, f] = [id, f'] iff f = f'
    Q = A2Q
    bs = list(basis_morphisms(Q))
    for f in bs:
        for g in bs:
            if f.source != g.source or f.target != g.target:
                continue
            eq = fractions_equal(Q, from_morphism(Q, f), from_morphism(Q, g))
            assert eq == (f == g)


def test_amplification(Q13):
    # [r, f o r] = [id, f]
    Q = Q13
    fam = build_morphism_family(Q)
    checked = 0
    for r in fam.regulars:
        for f in basis_morphisms(Q):
            if f.source != r.target:
                continue
            amplified = Fraction(Q, r, compose(Q, f, r))
            assert fractions_equal(Q, amplified, from_morphism(Q, f))
            checked += 1
            if checked > 25:
                return
    assert checked


def test_equality_is_equivalence_and_congruence(Q13):
    Q = Q13
    fam = build_morphism_family(Q)
    regs = [m for m in fam.regulars][:3]
    fracs = []
    for r in regs:
        for f in basis_morphisms(Q):
            if f.source == r.source:
                fracs.append(Fraction(Q, r, f))
    fracs = fracs[:8]
    for F in fracs:
        assert fractions_equal(Q, F, F)
    for F in fracs:
        for G in fracs:
            if F.source == G.source and F.target == G.target:
                assert fractions_equal(Q, F, G) == fractions_equal(Q, G, F)
    # transitivity on the equal pairs found
    for F, G, H in itertools.permutations(fracs, 3):
        if not (F.source == G.source == H.source and F.target == G.target == H.target):
            continue
        if fractions_equal(Q, F, G) and fractions_equal(Q, G, H):
            assert fractions_equal(Q, F, H)


def test_parallel_check(A2Q):
    Q = A2Q
    F = identity_fraction(Q, Q.single(0))
    G = identity_fraction(Q, Q.single(1))
    with pytest.raises(ShapeError):
        fractions_equal(Q, F, G)


def _fraction_add(Q, F, G):
    """Sum over the common denominator given by the denominator pullback."""
    sq = pullback(Q, F.denom, G.denom)
    return Fraction(Q, compose(Q, F.denom, sq.a), compose(Q, F.num, sq.a) + compose(Q, G.num, sq.b))


def test_additivity(A2Q):
    Q = A2Q
    for f in basis_morphisms(Q):
        g = f.scale(3)
        lhs = from_morphism(Q, f + g)
        rhs = _fraction_add(Q, from_morphism(Q, f), from_morphism(Q, g))
        assert fractions_equal(Q, lhs, rhs)


def test_rf_axioms_cluster_tilting(A2Q):
    rep = verify_rf_axioms(A2Q, scan_properties(A2Q))
    assert rep.ok, rep.clauses


def test_rf_axioms_two_summand(Q13):
    rep = verify_rf_axioms(Q13, scan_properties(Q13))
    assert rep.ok, rep.clauses


def test_rf_axioms_negative_control(A3):
    # quotient by add{P1, P2, I2}: preabelian but not integral, so the
    # square-completion axiom fails with a concrete witness
    q = build_quotient(A3, subcat={"P1", "P2", "I2"})
    rep = verify_rf_axioms(q.presentation, scan_properties(q.presentation))
    assert not rep.ok
    assert rep.clauses["RF2_square_completion"].status == "fail"
    assert "not regular" in rep.clauses["RF2_square_completion"].detail


def test_square_completion_is_the_scan_clause(Q13):
    scan = scan_properties(Q13, Budget(scan_pairs_cap=120))
    rep = verify_rf_axioms(Q13, scan, Budget(scan_pairs_cap=120))
    assert list(rep.clauses) == [
        "RF1_identities_and_closure",
        "RF2_square_completion",
        "RF3_left_cancellation",
        "LF2_square_completion",
        "LF3_right_cancellation",
    ]
    assert rep.clauses["RF2_square_completion"] is scan.clauses["pullback_regular_leg"]
    assert rep.clauses["LF2_square_completion"] is scan.clauses["pushout_regular_leg"]


def test_localised_cokernel_of_identity(A2Q):
    Q = A2Q
    F = identity_fraction(Q, Q.single(0))
    C = localised_cokernel(Q, F)
    assert C.target.is_zero()


def test_localised_cokernel_matches_plain(A2Q):
    Q = A2Q
    for f in basis_morphisms(Q):
        F = from_morphism(Q, f)
        C = localised_cokernel(Q, F)
        _, c = cokernel(Q, f)
        assert fractions_equal(Q, C, from_morphism(Q, c))
        # weak cokernel property at fraction level: C o F is the zero fraction
        zero = from_morphism(Q, Q.zero_morphism(F.source, C.target))
        assert fractions_equal(Q, compose_fractions(Q, C, F), zero)


def test_localised_kernel(Q13):
    Q = Q13
    for f in list(basis_morphisms(Q))[:8]:
        F = from_morphism(Q, f)
        K = localised_kernel(Q, F)
        zero = from_morphism(Q, Q.zero_morphism(K.source, F.target))
        assert fractions_equal(Q, compose_fractions(Q, F, K), zero)


def test_left_fraction_conversion_identity(Q13):
    # s o f = g o r with s regular: the conversion criterion holds exactly
    Q = Q13
    fam = build_morphism_family(Q)
    r = fam.regulars[0]
    for f in basis_morphisms(Q):
        if f.source != r.source:
            continue
        F = Fraction(Q, r, f)
        s, g = to_left_fraction(Q, F)
        assert compose(Q, s, f) == compose(Q, g, r)
        assert is_regular(Q, s)
        break


def test_check_abelian(A2Q, Q13):
    for Q in (A2Q, Q13):
        rep = check_abelian(Q)
        assert rep.ok, rep.clauses


def test_check_abelian_out_of_budget_is_a_status(monkeypatch):
    # the two-reject category's side is decided, but two of its socle
    # injectives are not representable, so the clause factorises each basis
    # morphism, and the first factorisation runs out of budget
    import quotcat.localization

    def exhausted(*args, **kwargs):
        raise BoundsExceeded("grid exceeds the cap")

    E = _two_reject_category()
    scan_properties(E)
    assert E._socle is not None and not socle_is_right_exact(E)
    monkeypatch.setattr(quotcat.localization, "coim_im_factorise", exhausted)
    cl = check_abelian(E).clauses["abelian_middle_maps"]
    assert (cl.status, cl.checked, cl.detail) == ("bounds-exceeded", 0, "grid exceeds the cap")


def test_regular_into_projective_is_iso(A3, Q13):
    # regular maps into add T are already invertible in the quotient
    Q = Q13
    fam = build_morphism_family(Q)
    tnames = {"P1", "P3"}
    checked = 0
    for r in fam.regulars:
        support = {Q.objects[i] for i in r.target.support()}
        if support and support <= tnames:
            assert solve_two_sided_inverse(Q, r) is not None
            checked += 1
    assert checked


def test_epi_transfer(Q13):
    # f epi downstairs iff [f] epi upstairs, tested on cancellation instances
    Q = Q13
    fam = build_morphism_family(Q)
    epis = [m for m in fam.epis if m.source != m.target][:2]
    for f in epis:
        F = from_morphism(Q, f)
        regs = [r for r in fam.regulars if r.source == f.target][:2]
        for r in regs:
            for g in basis_morphisms(Q):
                if g.source != r.source:
                    continue
                G = Fraction(Q, r, g)
                GF = compose_fractions(Q, G, F)
                zero_gf = from_morphism(Q, Q.zero_morphism(F.source, G.target))
                zero_g = from_morphism(Q, Q.zero_morphism(G.source, G.target))
                if fractions_equal(Q, GF, zero_gf):
                    assert fractions_equal(Q, G, zero_g)
    # converse: a non-epi f admits nonzero p with p o f = 0, so [f] is not epi
    non_epis = [m for m in fam.all if not is_epi(Q, m) and not m.is_zero()][:3]
    for f in non_epis:
        found = False
        for z in range(Q.n):
            for p in Q.hom_basis(f.target, Q.single(z)):
                if compose(Q, p, f).is_zero() and not p.is_zero():
                    P = from_morphism(Q, p)
                    zero = from_morphism(Q, Q.zero_morphism(p.source, p.target))
                    assert not fractions_equal(Q, P, zero)
                    found = True
                    break
            if found:
                break
        assert found


def test_localised_kernel_universal_property(Q13):
    # the fraction kernel is mono at fraction level and weakly universal on
    # identity-denominator test fractions
    Q = Q13
    from quotcat.preabelian import kernel

    for f in list(basis_morphisms(Q))[:6]:
        F = from_morphism(Q, f)
        K = localised_kernel(Q, F)
        # for identity-denominator fractions the kernel object agrees with
        # the plain kernel of the morphism (isomorphism invariant: equal
        # multiplicity vectors)
        plain = kernel(Q, f)
        assert plain is not None
        assert K.source.mult == plain[0].mult
        # weak kernel property: any basis g with F o [g] = 0 factors through
        # the kernel fraction at the level of the underlying quotient
        for z in range(Q.n):
            for g in Q.hom_basis(Q.single(z), f.source):
                if compose(Q, f, g).is_zero() and not g.is_zero():
                    from quotcat.preabelian import lifts_through_epi

                    # g factors through the plain kernel inclusion
                    assert lifts_through_epi(Q, g, plain[1]) is not None


def test_fraction_scalar_action(A2Q):
    # the scalar action [r, f] -> [r, c f] matches scaling before localising
    Q = A2Q
    for f in basis_morphisms(Q):
        lhs = from_morphism(Q, f.scale(5))
        F = from_morphism(Q, f)
        rhs = Fraction(Q, F.denom, F.num.scale(5))
        assert fractions_equal(Q, lhs, rhs)


# -- the proved clauses against the loops they replace ------------------------------


def is_identity_fraction(Q, F, budget=DEFAULT_BUDGET):
    if F.source != F.target:
        return False
    return fractions_equal(Q, F, identity_fraction(Q, F.source), budget)


def fraction_two_sided_inverse(Q, F, G, budget=DEFAULT_BUDGET):
    """True when G o F and F o G are both identity fractions."""
    return is_identity_fraction(Q, compose_fractions(Q, G, F, budget), budget) and is_identity_fraction(
        Q, compose_fractions(Q, F, G, budget), budget
    )


def _rf1_clause(Q, regulars, budget):
    """Clause body: identities are regular and the class is composition closed."""
    for i in range(Q.n):
        if not is_regular(Q, Q.identity(Q.single(i))):
            return f"identity of {Q.objects[i]} is not regular"
    pairs = ((r, s) for r in regulars for s in regulars if r.target == s.source)
    for r, s in itertools.islice(pairs, budget.scan_pairs_cap):
        yield
        if not is_regular(Q, compose(Q, s, r)):
            return "regulars are not closed under composition"


def _cancellation_clause(Q, regulars, cancels, kind):
    """Clause body: every regular morphism is mono (epi)."""
    for r in regulars:
        yield
        if not cancels(Q, r):
            return f"a regular morphism is not {kind}"


def _plain_rf_axioms(Q, scan, budget):
    regulars = scan.family.regulars
    return {
        "RF1_identities_and_closure": run_clause(_rf1_clause(Q, regulars, budget)),
        "RF2_square_completion": scan.clauses["pullback_regular_leg"],
        "RF3_left_cancellation": run_clause(_cancellation_clause(Q, regulars, is_mono, "mono")),
        "LF2_square_completion": scan.clauses["pushout_regular_leg"],
        "LF3_right_cancellation": run_clause(_cancellation_clause(Q, regulars, is_epi, "epi")),
    }


def _plain_abelian_clause(Q, budget):
    """Clause body: every basis morphism's middle map is regular, and its
    fraction is two-sided invertible by the equality decider."""
    for i, j, a, f in indexed_basis_morphisms(Q):
        try:
            fac = coim_im_factorise(Q, f, budget)
        except (NoKernel, NoCokernel) as e:
            return f"factorisation failed at ({i},{j},{a}): {e}"
        yield
        if not is_regular(Q, fac.ftilde):
            return f"middle map not regular at ({i},{j},{a})"
        if not fraction_two_sided_inverse(Q, from_morphism(Q, fac.ftilde), invert_regular(Q, fac.ftilde), budget):
            return f"middle map not invertible at ({i},{j},{a})"


def _rigid_quotients(P, step, budget):
    for s in all_rigid_supports(P, P.n)[::step]:
        T = P.obj({P.objects[i]: 1 for i in s})
        yield P.obj_name(T), build_quotient(P, T).presentation, budget


def _a3_every_rigid_t():
    return _rigid_quotients(build_cluster_category(3), 1, Budget(scan_pairs_cap=120))


def _a4_f101_every_7th_rigid_t():
    return _rigid_quotients(build_cluster_category(4, "><>", GF(101)), 7, Budget(scan_pairs_cap=120))


def _a3_not_integral():
    A3 = build_cluster_category(3)
    yield "subcat=P1+P2+I2", build_quotient(A3, subcat={"P1", "P2", "I2"}).presentation, DEFAULT_BUDGET


def _a3_out_of_budget():
    A3 = build_cluster_category(3)
    yield "T=P2", build_quotient(A3, A3.obj({"P2": 1})).presentation, Budget(retries=1, grid_cap=1)


PROOF_FAMILIES = {
    "A3/Q every rigid T": (_a3_every_rigid_t, 44),
    "A4><>/F101 every 7th rigid T": (_a4_f101_every_7th_rigid_t, 28),
    "A3/Q subcat=P1+P2+I2": (_a3_not_integral, 1),
    "A3/Q T=P2 retries=1 grid_cap=1": (_a3_out_of_budget, 1),
}


def _results(clauses):
    return [(name, cl.status, cl.checked, cl.detail) for name, cl in clauses.items()]


@pytest.mark.parametrize("family", list(PROOF_FAMILIES))
def test_proved_clauses_equal_the_plain_loops(family, monkeypatch):
    # RF1, RF3/LF3 and the middle map's inverse are proofs in localization;
    # the loops they replace must give the same status, checked and detail,
    # and every regular r must have [r, 1] as the two-sided inverse of [1, r]
    cases, expected = PROOF_FAMILIES[family]
    if "grid_cap" in family:
        # decided, RF2/LF2 pass; undecided, the scan's square searches run
        # out of budget, the case this family pins
        monkeypatch.setattr(preabelian, "_pullbacks_of_epis_are_epi", lambda P, budget: None)
    statuses = set()
    rf1_counts = []
    for label, Q, budget in cases():
        scan = scan_properties(Q, budget)
        proved = verify_rf_axioms(Q, scan, budget).clauses
        abelian = check_abelian(Q, budget).clauses
        assert _results(proved) == _results(_plain_rf_axioms(Q, scan, budget)), label
        plain_abelian = {"abelian_middle_maps": run_clause(_plain_abelian_clause(Q, budget))}
        assert _results(abelian) == _results(plain_abelian), label
        for r in scan.family.regulars:
            F, R = from_morphism(Q, r), invert_regular(Q, r)
            assert is_identity_fraction(Q, compose_fractions(Q, R, F, budget), budget), (label, r)
            assert is_identity_fraction(Q, compose_fractions(Q, F, R, budget), budget), (label, r)
        statuses |= {(name, cl.status) for name, cl in proved.items()}
        rf1_counts.append(proved["RF1_identities_and_closure"].checked)
    assert len(rf1_counts) == expected
    # each family shows the case it was chosen for: at cap 120, RF1's pairs
    # exceed the cap for some T of C(A_3) and not for others
    if family == "A3/Q every rigid T":
        assert 120 in rf1_counts and min(rf1_counts) < 120
    if family == "A3/Q subcat=P1+P2+I2":
        assert ("RF2_square_completion", "fail") in statuses
    if family == "A3/Q T=P2 retries=1 grid_cap=1":
        assert ("LF2_square_completion", "bounds-exceeded") in statuses
