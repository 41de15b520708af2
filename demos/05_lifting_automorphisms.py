"""Which automorphism pairs of quotient and kernel lift to the total?

Run:  python demos/05_lifting_automorphisms.py
"""

from rrbgroups import (
    Extension,
    RRBIdeal,
    cyclic_group,
    inducible_by_module_criterion,
    is_inducible,
    quotient_rrb,
    restrict,
    subgroup_closure,
    trivial_rrb,
    verify_wells_exactness,
    wells_map,
)
from rrbgroups.wells import WellsContext

# Z9 over Z3 by Z3 again: inversion can be lifted on both sides at once,
# but not on one side alone.
Z9 = cyclic_group(9)
total = trivial_rrb(Z9, cyclic_group(1), name="Z9")
K = subgroup_closure(Z9, [3])
kernel, incl = restrict(total, K, [0])
quot = quotient_rrb(total, RRBIdeal(tuple(K), (0,)))
ext = Extension(kernel, total, quot.rrb, incl, quot.projection)

ctx = WellsContext(ext)
print("compatible pairs:", len(ctx.compatible),
      "of", len(ctx.all_pairs), "automorphism pairs")

for pair in ctx.all_pairs:
    omega = wells_map(ctx, pair)
    ok, witness = is_inducible(ctx, pair)
    both = inducible_by_module_criterion(ctx, pair)
    label = (pair.psi.psi.image.tolist(), pair.theta.psi.image.tolist())
    print(f"  pair {label}: obstruction {omega.coords} "
          f"liftable={ok} (module criterion agrees: {both == ok})")
    if ok:
        print("    witness on the total group:", witness.psi.image.tolist())

# The full audit: the derivation group embeds as the stabilizing
# automorphisms, the restriction map hits exactly the obstruction kernel,
# and the obstruction map obeys the twisted additivity law.
report = verify_wells_exactness(ext)
print("exactness:", report.exactness)
print("obstruction map happens to be additive here:", report.omega_is_homomorphism)

# A vanishing obstruction group lifts everything: the symmetric group S3
# over Z2 by Z3 has trivial second cohomology, so both compatible pairs
# come from automorphisms of S3.
from rrbgroups.groups import group_from_permutations

S3 = group_from_permutations(3, [[1, 0, 2], [0, 2, 1]], name="S3")
tot3 = trivial_rrb(S3, cyclic_group(1), name="S3-structure")
rot = next(x for x in S3.elements() if S3.element_order(x) == 3)
A3 = subgroup_closure(S3, [rot])
k3, i3 = restrict(tot3, A3, [0])
q3 = quotient_rrb(tot3, RRBIdeal(tuple(A3), (0,)))
ext3 = Extension(k3, tot3, q3.rrb, i3, q3.projection)
ctx3 = WellsContext(ext3)
print("S3 extension: H2 order", ctx3.complex.h2.order)
for pair in ctx3.compatible:
    ok, witness = is_inducible(ctx3, pair)
    print("  kernel map", pair.theta.psi.image.tolist(), "lifts:", ok,
          "witness:", witness.psi.image.tolist())
