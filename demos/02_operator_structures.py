"""Operator groups (H, G, phi, R): validation, enumeration, quotients.

Run:  python demos/02_operator_structures.py
"""

from rrbgroups import (
    RRBGroup,
    RRBIdeal,
    center,
    cyclic_group,
    descended_operation,
    enumerate_rrb_operators,
    is_bijective,
    is_ideal,
    is_trivial,
    quotient_rrb,
    rrb_automorphism_group,
    trivial_rrb,
)

Z2, Z3, Z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)

# The defining axiom ties the operator R: H -> G to the action phi:
#   R(h1) R(h2) = R(h1 * phi_{R(h1)}(h2)).
# With a trivial action that just says R is a homomorphism.
r_id = trivial_rrb(Z2, Z2, R=[0, 1], name="identity-operator")
print(r_id, "trivial action:", is_trivial(r_id), "bijective:", is_bijective(r_id))

# Z2 acting on Z3 by inversion admits only the zero operator; the search
# prunes with R(0) = 0 and incremental axiom checks.
inversion = [[0, 1, 2], [0, 2, 1]]
ops = enumerate_rrb_operators(Z3, Z2, inversion)
print("operators for (Z3, Z2, inversion):", [o.tolist() for o in ops])

# Z2 acting on Z4 by negation admits the parity operator.
phi = [[0, 1, 2, 3], [0, 3, 2, 1]]
ops = enumerate_rrb_operators(Z4, Z2, phi)
print("operators for (Z4, Z2, negation):", [o.tolist() for o in ops])
parity = RRBGroup(Z4, Z2, phi, [0, 1, 0, 1], name="parity")

# Every structure descends to a second group on H, with R a homomorphism
# from it.  Here the descended group is Klein's.
desc = descended_operation(parity)
print("descended table of the parity structure:")
for row in desc.table.tolist():
    print("   ", row)

# Centers are ideals; quotients rebuild the induced action and operator and
# re-validate everything.
c = center(parity)
print("center:", c, "is ideal:", is_ideal(parity, c.K_elements, c.L_elements)[0])
q = quotient_rrb(parity, c)
print("quotient by the center has |H| =", q.rrb.H.order, " |G| =", q.rrb.G.order)

# Automorphism pairs (psi on H, eta on G) compatible with phi and R.
auts = rrb_automorphism_group(parity)
print("automorphism pairs of the parity structure:",
      [(a.psi.image.tolist(), a.eta.image.tolist()) for a in auts])
