"""The cochain complex of a module: derivations through second cohomology.

Run:  python demos/04_cohomology.py
"""

from rrbgroups import (
    OneCochain,
    RRBGroup,
    RRBModule,
    classical_h2_check,
    cochain_complex,
    cyclic_group,
    trivial_action,
    trivial_rrb,
)

# The smallest interesting module: every ingredient is Z2 and every action
# is trivial.  The four cochain blocks contribute one bit each.
Z2 = cyclic_group(2)
quot = trivial_rrb(Z2, Z2)
kern = trivial_rrb(Z2, Z2)
module = RRBModule(quot, kern, trivial_action(quot, kern))
trivial_cx = cochain_complex(module)
print("derivations:", trivial_cx.z1.order)
print("cocycles:", trivial_cx.z2.order,
      " coboundaries:", trivial_cx.b2.order,
      " H2 factors:", trivial_cx.h2.factors)

# Coboundaries are the defect quadruples of one-cochains; over this module
# every defect vanishes, so the sixteen cocycles split into sixteen classes.
kappa = OneCochain([0, 1], [0, 1])
print("defect of kappa:", trivial_cx.coboundary(kappa))

# A quotient with a twisted product: Z2 negates Z4 and the operator reads
# parity, so the circle product on the quotient is non-cyclic and the fifth
# cocycle condition cuts the candidate space from 2^16 down to 32.
Z4 = cyclic_group(4)
parity = RRBGroup(Z4, Z2, [[0, 1, 2, 3], [0, 3, 2, 1]], [0, 1, 0, 1])
kern_id = trivial_rrb(Z2, Z2, R=[0, 1])
twisted = RRBModule(parity, kern_id, trivial_action(parity, kern_id))
cx = cochain_complex(twisted)
print("twisted module: |C2| = 2^16, cocycles:", cx.z2.order,
      " coboundaries:", cx.b2.order, " H2:", cx.h2.factors)

# Membership tests name the first violated condition with its tuple.
bad = cx.fs_from_coords([1] + [0] * (cx.c2_dim - 1))
ok, witness = cx.z2_contains(bad)
print("single nonzero tau1 entry a cocycle?", ok, "- first violation:", witness)

# Over a one-point (B, L) only the tau1 block survives, and it reproduces
# classical group cohomology.
Z3 = cyclic_group(3)
print("H2(Z2, Z2) =", classical_h2_check(Z2, Z2, [[0, 1], [0, 1]]))
print("H2(Z3, Z3) =", classical_h2_check(Z3, Z3, [[0, 1, 2]] * 3))
