"""Quotients by the kernel of Hom(T, -), and their preabelian structure.

Takes a rigid object T in C(A_3), forms C/X_T, finds kernels and cokernels
of every basis morphism by the complete bounded search, and then reproduces
the counterexample where a quotient by a perpendicular subcategory fails to
be preabelian: a nonzero map P3 -> I2 with certified no cokernel.
"""

from quotcat import build_cluster_category, build_quotient, x_t_objects
from quotcat.fincat import compose, is_rigid
from quotcat.preabelian import cokernel, is_epi, is_mono, kernel, scan_properties

P = build_cluster_category(3)

print("=" * 70)
print("Quotient by a rigid object")
print("=" * 70)
T = P.obj({"P1": 1, "P3": 1})
print(f"\nT = {P.obj_name(T)}, rigid: {is_rigid(P, T)}")
xt = x_t_objects(P, T)
print(f"X_T (objects killed by Hom(T,-)): {sorted(P.objects[i] for i in xt)}")

qc = build_quotient(P, T)
Q = qc.presentation
print(f"quotient keeps: {', '.join(Q.objects)}")
print("quotient Hom dimensions:")
for i in range(Q.n):
    for j in range(Q.n):
        d = Q.hom_dim(i, j)
        if d and i != j:
            print(f"  dim Hom({Q.objects[i]}, {Q.objects[j]}) = {d}")

print("\nkernels and cokernels of every basis morphism:")
for i in range(Q.n):
    for j in range(Q.n):
        for a in range(Q.hom_dim(i, j)):
            f = Q.basis_morphism(i, j, a)
            M, c = cokernel(Q, f)
            K, k = kernel(Q, f)
            assert compose(Q, c, f).is_zero() and is_epi(Q, c)
            assert compose(Q, f, k).is_zero() and is_mono(Q, k)
            print(
                f"  {Q.objects[i]:>4} -> {Q.objects[j]:<4}  "
                f"ker = {Q.obj_name(K):<8} coker = {Q.obj_name(M)}"
            )

rep = scan_properties(Q)
print("\nproperty scan clauses:")
for name, clause in rep.clauses.items():
    print(f"  {name}: {clause.status} ({clause.checked} checked)")

print()
print("=" * 70)
print("The counterexample: C / U-perp is not preabelian")
print("=" * 70)
q6 = build_quotient(P, subcat={"P1", "P2", "S2"})
Q6 = q6.presentation
f = q6.project(P.basis_morphism(P.index("P3"), P.index("I2"), 0))
print(f"\nquotient by add(P1 + P2 + S2); the map P3 -> I2 is nonzero there: {not f.is_zero()}")
res = cokernel(Q6, f)
print(f"cokernel search result: {res}")
print("None means the bounded search excluded every candidate: a certified negative.")
