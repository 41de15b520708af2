"""Tour of the finite-group layer: tables, homs, quotients, coordinates.

Run:  python demos/01_finite_groups.py
"""

from rrbgroups import (
    AbelianPresentation,
    automorphism_group,
    cyclic_group,
    direct_product,
    find_isomorphism,
    hom_kernel_image_quotient,
    quotient_group,
    subgroup_closure,
    FinAbHom,
    FiniteGroup,
)
from rrbgroups.groups import group_from_permutations

# Groups live on {0..n-1} with element 0 the identity; the constructor
# checks the whole axiom list and names the first violation.
Z4 = FiniteGroup([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
                 name="Z4")
print("validated", Z4, "abelian:", Z4.is_abelian)

# Permutation generators are closed into a table; S3 from a transposition
# and an adjacent swap.
S3 = group_from_permutations(3, [[1, 0, 2], [0, 2, 1]], name="S3")
print(S3, "element orders:", [S3.element_order(x) for x in S3.elements()])

# Automorphisms come back as a sorted duplicate-free list, closed under
# composition.  Z4 has two: identity and negation.
print("Aut(Z4):", [a.image.tolist() for a in automorphism_group(Z4)])
V4 = direct_product(cyclic_group(2), cyclic_group(2)).group
print("|Aut(Z2 x Z2)| =", len(automorphism_group(V4)))

# Subgroups close generators; quotients index cosets by minimum member, so
# the section is normalized and deterministic.
rot = next(x for x in S3.elements() if S3.element_order(x) == 3)
A3 = subgroup_closure(S3, [rot])
q = quotient_group(S3, A3)
print("S3 /", A3, "has order", q.group.order, "section:", q.section.tolist())

# The product of Z2 and Z3 is cyclic; a brute-force search finds the witness.
P = direct_product(cyclic_group(2), cyclic_group(3)).group
iso = find_isomorphism(P, cyclic_group(6))
print("Z2 x Z3 ~ Z6 via", iso.image.tolist())

# Abelian groups get invariant-factor coordinates for exact linear algebra.
pres = AbelianPresentation(P)
print("invariant factors of Z2 x Z3:", pres.factors)
p4 = AbelianPresentation(Z4)
doubling = FinAbHom(p4, p4, [[2]])
parts = hom_kernel_image_quotient(doubling)
print("x2 on Z/4: kernel", parts.kernel_factors, "image", parts.image_factors,
      "cokernel", parts.cokernel_factors)
