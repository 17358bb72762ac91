"""Localising a quotient at its regular morphisms via a fraction calculus.

Checks the right/left fraction axioms on C(A_3)/X_T, inverts a regular
morphism formally, composes roofs through pullback completions, and
certifies that every coimage-to-image middle map becomes invertible, i.e.
the localisation is abelian.
"""

from quotcat import build_cluster_category, build_quotient
from quotcat.localization import (
    Fraction,
    check_abelian,
    compose_fractions,
    fractions_equal,
    from_morphism,
    invert_regular,
    verify_rf_axioms,
)
from quotcat.preabelian import coim_im_factorise, is_regular, scan_properties

P = build_cluster_category(3)
T = P.obj({"P1": 1, "P3": 1})
Q = build_quotient(P, T).presentation

print("=" * 70)
print("Fraction calculus on C(A_3)/X_T for T = P1 + P3")
print("=" * 70)

scan = scan_properties(Q)  # RF2/LF2 are its square-completion clauses
rep = verify_rf_axioms(Q, scan)
print("\naxiom scan:")
for name, clause in rep.clauses.items():
    print(f"  {name}: {clause.status} ({clause.checked} instances)")

fam = scan.family
# a regular map is invertible exactly when its ends have the same Hom dimensions
r = next(m for m in fam.regulars if Q.hom_layout(m.source)[1] != Q.hom_layout(m.target)[1])
print(
    f"\na regular but non-invertible morphism: {Q.obj_name(r.source)} -> {Q.obj_name(r.target)}"
)
F = from_morphism(Q, r)
R = invert_regular(Q, r)
print("its formal inverse is a genuine two-sided inverse in the localisation:")
print("  r^-1 o r = id:", fractions_equal(Q, compose_fractions(Q, R, F), from_morphism(Q, Q.identity(r.source))))
print("  r o r^-1 = id:", fractions_equal(Q, compose_fractions(Q, F, R), from_morphism(Q, Q.identity(r.target))))

print("\namplification invariance [r, f o r] = [id, f]:")
f = next(m for m in fam.all if m.source == r.target and not m.is_zero())
from quotcat.fincat import compose

amplified = Fraction(Q, r, compose(Q, f, r))
print("  ", fractions_equal(Q, amplified, from_morphism(Q, f)))

print("\nabelianness of the localisation (middle maps of all factorisations):")
ab = check_abelian(Q)
clause = ab.clauses["abelian_middle_maps"]
print(f"  {clause.status} over {clause.checked} basis morphisms")

fac = coim_im_factorise(Q, f)
print(
    f"\nexample factorisation of {Q.obj_name(f.source)} -> {Q.obj_name(f.target)}: "
    f"coim = {Q.obj_name(fac.coim)}, im = {Q.obj_name(fac.im)}, "
    f"middle map regular: {is_regular(Q, fac.ftilde)}"
)
