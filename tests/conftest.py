"""Shared fixture corpus: small groups, structures, modules, extensions."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rrbgroups import (
    Extension,
    RRBGroup,
    RRBIdeal,
    direct_product,
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

FIXTURE_DIR = Path(__file__).parent.parent / "src" / "rrbgroups" / "fixtures"


@pytest.fixture(scope="session")
def groups():
    s3 = group_from_permutations(3, [[1, 0, 2], [0, 2, 1]], name="S3")
    return {
        "z2": cyclic_group(2), "z3": cyclic_group(3), "z4": cyclic_group(4),
        "z6": cyclic_group(6), "z9": cyclic_group(9), "one": cyclic_group(1),
        "s3": s3,
    }


def _ideal_extension(total, K_elems, L_elems):
    kernel, incl = restrict(total, K_elems, L_elems)
    quot = quotient_rrb(total, RRBIdeal(tuple(K_elems), tuple(L_elems)))
    return Extension(kernel, total, quot.rrb, incl, quot.projection)


@pytest.fixture(scope="session")
def ext_corpus(groups):
    """Named abelian extensions exercising every feature combination.

    product_z2        direct product, everything trivial
    built_z2          all four cochain blocks nonzero over the trivial module
    z4_carry          nonzero tau1 and rho from an inverting action
    z9                the classical carry cocycle, nontrivial obstructions
    s3                nontrivial conjugation action, vanishing cohomology
    z3_z4_twist       nontrivial nu and tau2 (kernel on the operator side)
    z2_z4_image       trivial K, nonzero chi
    z2_z4_kernel      identified operator K -> L, nonzero tau2
    z4_z4_diag        nonzero tau1, tau2 coupled through the operator
    parity_zero       split total over the twisted-product quotient
    parity_twisted    nonzero class over the twisted-product quotient
    z3_triv           nonzero class over the all-trivial Z3 module
    """
    z2, z3, z4, z9, one = (groups["z2"], groups["z3"], groups["z4"],
                           groups["z9"], groups["one"])
    out = {}

    quot2 = trivial_rrb(z2, z2, name="quot-z2")
    kern2 = trivial_rrb(z2, z2, name="kern-z2")
    mod2 = RRBModule(quot2, kern2, trivial_action(quot2, kern2))
    out["product_z2"] = product_extension(quot2, kern2)
    cx2 = cochain_complex(mod2)
    out["built_z2"] = build_extension(quot2, kern2, mod2.action,
                                      cx2.fs_from_coords((1, 1, 1, 1)))

    inv4 = [0, 3, 2, 1]
    tot_c = RRBGroup(z4, z2, [[0, 1, 2, 3], inv4], [0, 0, 0, 0], name="z4-inv")
    out["z4_carry"] = _ideal_extension(tot_c, [0, 2], [0])

    tot9 = trivial_rrb(z9, one, name="z9")
    out["z9"] = _ideal_extension(tot9, subgroup_closure(z9, [3]), [0])

    s3 = groups["s3"]
    tot3 = trivial_rrb(s3, one, name="s3")
    rot = next(x for x in s3.elements() if s3.element_order(x) == 3)
    out["s3"] = _ideal_extension(tot3, subgroup_closure(s3, [rot]), [0])

    inv3 = [0, 2, 1]
    tot_t = RRBGroup(z3, z4, [[0, 1, 2], inv3, [0, 1, 2], inv3],
                     [0, 0, 0], name="z3-z4")
    out["z3_z4_twist"] = _ideal_extension(tot_t, [0, 1, 2], [0, 2])

    tot_i = trivial_rrb(z2, z4, R=[0, 2], name="z2-z4")
    out["z2_z4_image"] = _ideal_extension(tot_i, [0], [0, 2])
    out["z2_z4_kernel"] = _ideal_extension(tot_i, [0, 1], [0, 2])

    tot_d = trivial_rrb(z4, z4, R=[0, 1, 2, 3], name="z4-id")
    out["z4_z4_diag"] = _ideal_extension(tot_d, [0, 2], [0, 2])

    parity = RRBGroup(z4, z2, [[0, 1, 2, 3], inv4], [0, 1, 0, 1], name="parity")
    kern_p = trivial_rrb(z2, z2, R=[0, 1], name="kern-id")
    mod_p = RRBModule(parity, kern_p, trivial_action(parity, kern_p))
    cxp = cochain_complex(mod_p)
    out["parity_zero"] = build_extension(parity, kern_p, mod_p.action,
                                         cxp.fs_from_coords((0,) * cxp.c2_dim))
    nonzero = next(cls for cls in cxp.h2_classes() if not cls.is_zero())
    out["parity_twisted"] = build_extension(parity, kern_p, mod_p.action,
                                            cxp.class_representative(nonzero))

    quot3 = trivial_rrb(z3, z3, name="quot-z3")
    kern3 = trivial_rrb(z3, z3, name="kern-z3")
    mod3 = RRBModule(quot3, kern3, trivial_action(quot3, kern3))
    cx3 = cochain_complex(mod3)
    nonzero3 = next(cls for cls in cx3.h2_classes() if not cls.is_zero())
    out["z3_triv"] = build_extension(quot3, kern3, mod3.action,
                                     cx3.class_representative(nonzero3))

    # Multiply-by-4 action of Z3 on Z9: the kernel {0,3,6} sees a nontrivial
    # bridging map f(l, a) = l*a.
    times4 = [(4 * x) % 9 for x in range(9)]
    times7 = [(7 * x) % 9 for x in range(9)]
    tot_f = RRBGroup(z9, z3, [list(range(9)), times4, times7],
                     [0] * 9, name="z9-mul4")
    out["z9_mul4"] = _ideal_extension(tot_f, [0, 3, 6], [0, 1, 2])

    # Klein operator side acting on Z4 through its second coordinate: f is
    # nonzero with a nontrivial quotient on the operator side, so the
    # bridging map couples into the cocycle conditions.
    v4 = direct_product(z2, z2).group
    inv4 = [0, 3, 2, 1]
    phi_v4 = [[0, 1, 2, 3], inv4, [0, 1, 2, 3], inv4]  # phi_(x,y) = inversion^y
    tot_k = RRBGroup(z4, v4, phi_v4, [0] * 4, name="z4-klein")
    out["z4_klein_f"] = _ideal_extension(tot_k, [0, 2], [0, 1])
    return out


@pytest.fixture(scope="session")
def module_corpus(ext_corpus, groups):
    """Named modules; extraction-based entries share data with ext_corpus."""
    from rrbgroups.extensions import extract_module

    z2, z3 = groups["z2"], groups["z3"]
    quot2 = trivial_rrb(z2, z2)
    kern2 = trivial_rrb(z2, z2)
    quot3 = trivial_rrb(z3, z3)
    kern3 = trivial_rrb(z3, z3)
    out = {
        "trivial_z2": RRBModule(quot2, kern2, trivial_action(quot2, kern2)),
        "trivial_z3": RRBModule(quot3, kern3, trivial_action(quot3, kern3)),
    }
    for name in ("z4_carry", "z9", "s3", "z3_z4_twist", "z2_z4_image",
                 "z2_z4_kernel", "z4_z4_diag", "parity_zero", "z9_mul4",
                 "z4_klein_f"):
        out["from_" + name] = extract_module(ext_corpus[name])
    return out
