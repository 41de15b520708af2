"""Finite computational toolkit for operator groups, their abelian
extensions, second cohomology, and the automorphism-lifting sequence."""

from .groups import (
    FiniteGroup,
    GroupError,
    GroupHom,
    all_isomorphisms,
    automorphism_group,
    cyclic_group,
    direct_product,
    find_isomorphism,
    group_from_permutations,
    identity_hom,
    is_homomorphism,
    is_normal,
    is_subgroup,
    isomorphism_images,
    quotient_group,
    subgroup_closure,
    trivial_group,
)
from .abelian import (
    AbelianPresentation,
    FinAbHom,
    hom_kernel_image_quotient,
)
from .rrb import (
    RRBError,
    RRBGroup,
    RRBIdeal,
    RRBMorphism,
    center,
    descended_operation,
    direct_product_rrb,
    enumerate_rrb_operators,
    identity_morphism,
    is_bijective,
    is_ideal,
    is_subrrb,
    is_trivial,
    morphism_image,
    morphism_kernel,
    one_point_rrb,
    quotient_rrb,
    restrict,
    rrb_automorphism_group,
    rrb_automorphism_images,
    trivial_rrb,
    validate_morphism,
)
from .modules import (
    ActionQuadruple,
    FactorSystem,
    OneCochain,
    RRBModule,
    trivial_action,
    twisted_action,
    validate_module,
    zero_factor_system,
)
from .extensions import (
    Chart,
    Extension,
    Section,
    are_equivalent,
    build_extension,
    canonical_section,
    chart,
    extract_actions,
    extract_factor_system,
    extract_module,
    product_extension,
)
from .cohomology import (
    CochainComplex,
    CohomologyClass,
    classical_h2_check,
    cochain_complex,
)
from .wells import (
    CompatiblePair,
    WellsContext,
    WellsReport,
    act_on_class,
    act_on_factor_system,
    aut_AK_H,
    aut_K_H,
    compatible_pairs,
    inducible_by_module_criterion,
    is_inducible,
    pair_is_compatible,
    restrict_and_induce,
    twisted_module,
    verify_wells_exactness,
    wells_map,
    z1_to_aut,
    aut_to_z1,
)

# The constructors validate; these two names remain only because
# perfbench/make_catalogue.py imports them.
validate_rrb = RRBGroup
validate_extension = Extension

__version__ = "0.1.0"
