#!/usr/bin/env python3
"""Regenerate the JSON fixtures shipped with the package.

Run from the repository root:  python tools/gen_fixtures.py
Output is deterministic; files land in src/rrbgroups/fixtures/.
"""

from __future__ import annotations

import json
from pathlib import Path

from rrbgroups import (
    Extension,
    FactorSystem,
    RRBGroup,
    RRBIdeal,
    RRBModule,
    build_extension,
    cochain_complex,
    cyclic_group,
    product_extension,
    quotient_rrb,
    restrict,
    subgroup_closure,
    trivial_action,
    trivial_rrb,
)
from rrbgroups.groups import group_from_permutations
from rrbgroups.serialize import (
    extension_to_json,
    group_to_json,
    module_to_json,
    pairs_to_json,
    rrb_to_json,
)
from rrbgroups.wells import WellsContext

OUT = Path(__file__).resolve().parent.parent / "src" / "rrbgroups" / "fixtures"


def dump(name: str, obj) -> None:
    path = OUT / name
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    Z2, Z3, Z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)

    dump("group_z2.json", group_to_json(Z2))
    dump("group_z3.json", group_to_json(Z3))
    dump("group_z4.json", group_to_json(Z4))
    dump("group_klein_perm.json",
         {"name": "V4", "degree": 4, "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]})
    dump("group_s3_perm.json",
         {"name": "S3", "degree": 3, "generators": [[1, 0, 2], [0, 2, 1]]})
    dump("group_bad_table.json", {"order": 2, "table": [[0, 1], [1, 1]]})

    # Trivial action on Z2 with the identity operator; H referenced by path.
    rrb_id = rrb_to_json(trivial_rrb(Z2, Z2, R=[0, 1], name="z2-id"))
    rrb_id["H"] = "group_z2.json"
    dump("rrb_z2_trivial_id.json", rrb_id)

    inversion3 = [[0, 1, 2], [0, 2, 1]]
    dump("rrb_z3_z2_inversion.json",
         rrb_to_json(RRBGroup(Z3, Z2, inversion3, [0, 0, 0], name="z3-z2-inv")))
    bad = rrb_to_json(RRBGroup(Z3, Z2, inversion3, [0, 0, 0]))
    bad["R"] = [0, 1, 1]
    dump("rrb_bad_axiom.json", bad)

    inv_parity = RRBGroup(Z4, Z2, [[0, 1, 2, 3], [0, 3, 2, 1]], [0, 1, 0, 1],
                          name="z4-z2-parity")
    dump("rrb_z4_z2_inv_parity.json", rrb_to_json(inv_parity))

    # All-trivial module on four copies of Z2.
    quot2 = trivial_rrb(Z2, Z2, name="quot-z2")
    kern2 = trivial_rrb(Z2, Z2, name="kern-z2")
    mod2 = RRBModule(quot2, kern2, trivial_action(quot2, kern2))
    dump("module_trivial_z2.json", module_to_json(mod2))

    # Twisted-quotient module: quotient (Z4, Z2, inv, parity), kernel with an
    # identified operator K -> L.
    kern_p = trivial_rrb(Z2, Z2, R=[0, 1], name="kern-id")
    mod_p = RRBModule(inv_parity, kern_p, trivial_action(inv_parity, kern_p))
    dump("module_z4_parity.json", module_to_json(mod_p))

    dump("ext_product_z2.json", extension_to_json(product_extension(quot2, kern2)))

    # Degenerate quotient: every cochain group is trivial.
    from rrbgroups import one_point_rrb
    one = one_point_rrb()
    mod_one = RRBModule(one, kern2, trivial_action(one, kern2))
    dump("module_one_point.json", module_to_json(mod_one))

    # Nontrivial class over the all-trivial Z2 module: every block nonzero.
    cx2 = cochain_complex(mod2)
    fs = cx2.fs_from_coords((1, 1, 1, 1))
    dump("ext_built_nontrivial_z2.json",
         extension_to_json(build_extension(quot2, kern2, mod2.action, fs)))

    # Z4 total over Z2, kernel {0, 2}: carries a nonzero tau1 and rho.
    tot1 = RRBGroup(Z4, Z2, [[0, 1, 2, 3], [0, 3, 2, 1]], [0, 0, 0, 0], name="z4-inv")
    k1, incl1 = restrict(tot1, [0, 2], [0])
    q1 = quotient_rrb(tot1, RRBIdeal((0, 2), (0,)))
    dump("ext_z4_carry.json",
         extension_to_json(Extension(k1, tot1, q1.rrb, incl1, q1.projection)))

    # Z9 total over Z3 by Z3: the classical carry cocycle.
    Z9 = cyclic_group(9)
    tot5 = trivial_rrb(Z9, cyclic_group(1), name="z9")
    K5 = subgroup_closure(Z9, [3])
    k5, incl5 = restrict(tot5, K5, [0])
    q5 = quotient_rrb(tot5, RRBIdeal(tuple(K5), (0,)))
    ext9 = Extension(k5, tot5, q5.rrb, incl5, q5.projection)
    dump("ext_z9.json", extension_to_json(ext9))

    # S3 over Z2 by Z3: nontrivial conjugation action, trivial cohomology.
    S3 = group_from_permutations(3, [[1, 0, 2], [0, 2, 1]], name="S3")
    tot3 = trivial_rrb(S3, cyclic_group(1), name="s3")
    A3 = subgroup_closure(S3, [next(x for x in S3.elements() if S3.element_order(x) == 3)])
    k3, incl3 = restrict(tot3, A3, [0])
    q3 = quotient_rrb(tot3, RRBIdeal(tuple(A3), (0,)))
    dump("ext_s3.json",
         extension_to_json(Extension(k3, tot3, q3.rrb, incl3, q3.projection)))

    # Identity operator on Z4 over the diagonal kernel {0,2} x {0,2}.
    tot8 = trivial_rrb(Z4, Z4, R=[0, 1, 2, 3], name="z4-id")
    k8, incl8 = restrict(tot8, [0, 2], [0, 2])
    q8 = quotient_rrb(tot8, RRBIdeal((0, 2), (0, 2)))
    dump("ext_z4_z4.json",
         extension_to_json(Extension(k8, tot8, q8.rrb, incl8, q8.projection)))

    # Multiply-by-4 action of Z3 on Z9: nonzero bridging map f(l, a) = l*a.
    times4 = [(4 * x) % 9 for x in range(9)]
    times7 = [(7 * x) % 9 for x in range(9)]
    tot_f = RRBGroup(Z9, Z3, [list(range(9)), times4, times7], [0] * 9,
                     name="z9-mul4")
    kf, inclf = restrict(tot_f, [0, 3, 6], [0, 1, 2])
    qf = quotient_rrb(tot_f, RRBIdeal((0, 3, 6), (0, 1, 2)))
    dump("ext_z9_mul4.json",
         extension_to_json(Extension(kf, tot_f, qf.rrb, inclf, qf.projection)))

    # Automorphism pairs for the Z9 extension, named by their maps on H (G is trivial).
    pairs = pairs_to_json(WellsContext(ext9).pair_group.all)
    for name, psi, theta in (("identity", [0, 1, 2], [0, 1, 2]), ("twist", [0, 1, 2], [0, 2, 1]),
                             ("both", [0, 2, 1], [0, 2, 1])):
        dump(f"pair_z9_{name}.json",
             next(p for p in pairs if (p["psi"]["psi"], p["theta"]["psi"]) == (psi, theta)))

if __name__ == "__main__":
    main()
