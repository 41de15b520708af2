"""Acceptance criteria, one test per criterion, each printing a verdict line.

All comparisons are exact: these are finite algebraic identities, so there
are no tolerances to tune.  Criterion 1 re-derives the cocycle and
coboundary groups by exhaustive enumeration with direct group arithmetic and
demands set equality with the Howell-form computation.
"""

import json
import subprocess
import sys

from rrbgroups import (
    are_equivalent,
    build_extension,
    classical_h2_check,
    cochain_complex,
    cyclic_group,
    extract_actions,
    extract_factor_system,
    extract_module,
    is_inducible,
    inducible_by_module_criterion,
    restrict_and_induce,
    validate_module,
    verify_wells_exactness,
    wells_map,
    zero_factor_system,
)
from rrbgroups.wells import WellsContext, aut_AK_H, aut_to_z1, z1_to_aut
from conftest import FIXTURE_DIR
from oracles import (
    _morphism_key,
    _pair_key,
    c2_size,
    cocycle_violations,
    exhaustive_b2_keys,
    exhaustive_z2_keys,
    find_equivalence_morphism,
    fs_key,
)

ABELIAN_EXTS = ("product_z2", "built_z2", "z4_carry", "z9", "s3", "z3_z4_twist",
                "z2_z4_image", "z2_z4_kernel", "z4_z4_diag", "parity_zero",
                "parity_twisted", "z3_triv", "z9_mul4", "z4_klein_f")

ORACLE_MODULES = ("trivial_z2", "trivial_z3", "from_z4_carry", "from_z9",
                  "from_s3", "from_z3_z4_twist", "from_z2_z4_image",
                  "from_z2_z4_kernel", "from_z4_z4_diag", "from_parity_zero",
                  "from_z9_mul4", "from_z4_klein_f")

BUILD_ALL_BOUND = 64


def verdict(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_01_cohomology_matches_exhaustive_enumeration(module_corpus):
    checked = 0
    for name in ORACLE_MODULES:
        module = module_corpus[name]
        if c2_size(module) > 2 ** 20:
            continue  # the criterion bounds the exhaustive sweep
        cx = cochain_complex(module)
        oracle_z2 = exhaustive_z2_keys(module)
        lib_z2 = {fs_key(module, fs) for fs in cx.z2_elements()}
        assert lib_z2 == oracle_z2, name
        oracle_b2 = exhaustive_b2_keys(module)
        lib_b2 = {fs_key(module, cx.fs_from_coords(v)) for v in cx.b2.elements()}
        assert lib_b2 == oracle_b2, name
        assert cx.z2.order == len(oracle_z2)
        assert cx.b2.order == len(oracle_b2)
        assert cx.h2.order == len(oracle_z2) // len(oracle_b2)
        checked += 1
    # Pinned instance: the all-trivial module on four copies of Z2.
    cx = cochain_complex(module_corpus["trivial_z2"])
    assert cx.z2.order == 16 and cx.b2.order == 1
    assert cx.h2.factors == (2, 2, 2, 2)
    eligible = sum(1 for name in ORACLE_MODULES
                   if c2_size(module_corpus[name]) <= 2 ** 20)
    verdict(1, checked == eligible and checked >= 10,
            f"Howell-form cocycle/coboundary groups match exhaustive enumeration "
            f"on {checked} modules; |Z2|=16, |B2|=1, H2=(Z/2)^4 confirmed")


def test_criterion_02_extension_class_bijection(module_corpus):
    audited = 0
    for name in ORACLE_MODULES:
        module = module_corpus[name]
        cx = cochain_complex(module)
        if cx.z2.order > BUILD_ALL_BOUND:
            continue
        exts, classes = [], []
        for fs in cx.z2_elements():
            exts.append(build_extension(module.quotient, module.kernel,
                                        module.action, fs))
            classes.append(cx.class_of(fs))
        for i, e1 in enumerate(exts):
            for j in range(i, len(exts)):
                same_class = classes[i] == classes[j]
                assert are_equivalent(e1, exts[j]) == same_class
                found = find_equivalence_morphism(e1, exts[j]) is not None
                assert found == same_class, (name, i, j)
        distinct = len({cls.coords for cls in classes})
        assert distinct == cx.h2.order, name
        audited += 1
    verdict(2, audited >= 8,
            f"equivalence <=> equal class (search-verified) and "
            f"#classes == |H2| on {audited} modules, all cocycles built")


def test_criterion_03_extraction_soundness(ext_corpus):
    for name in ABELIAN_EXTS:
        ext = ext_corpus[name]
        module = extract_module(ext)
        fs = extract_factor_system(ext)
        assert cocycle_violations(module, fs) == [], name
        ok, why = validate_module(ext.quotient, ext.kernel, extract_actions(ext))
        assert ok, (name, why)
    verdict(3, True,
            f"every extracted factor system satisfies all five conditions and "
            f"every extracted action is a valid module ({len(ABELIAN_EXTS)} fixtures)")


def test_criterion_04_roundtrip_identities(ext_corpus, module_corpus):
    rebuilt = 0
    for name in ORACLE_MODULES:
        module = module_corpus[name]
        cx = cochain_complex(module)
        if cx.z2.order > BUILD_ALL_BOUND:
            continue
        for fs in cx.z2_elements():
            ext = build_extension(module.quotient, module.kernel, module.action, fs)
            assert extract_factor_system(ext) == fs
            assert extract_actions(ext) == module.action
            rebuilt += 1
    for name in ABELIAN_EXTS:
        ext = ext_corpus[name]
        module = extract_module(ext)
        again = build_extension(module.quotient, module.kernel, module.action,
                                extract_factor_system(ext))
        assert are_equivalent(again, ext)
        assert find_equivalence_morphism(again, ext) is not None
    verdict(4, rebuilt > 0,
            f"extract(build) is the identity on {rebuilt} (action, cocycle) pairs; "
            f"build(extract) is equivalent on {len(ABELIAN_EXTS)} fixtures")


def test_criterion_05_obstruction_derivation_law(ext_corpus):
    from rrbgroups import act_on_class

    total_pairs = 0
    for name in ABELIAN_EXTS:
        ctx = WellsContext(ext_corpus[name])
        C = ctx.compatible
        omega = {_pair_key(c): wells_map(ctx, c) for c in C}
        for c1 in C:
            for c2 in C:
                lhs = omega[_pair_key(c1.compose(c2))]
                rhs = act_on_class(c2, omega[_pair_key(c1)]) + omega[_pair_key(c2)]
                assert lhs == rhs, name
                total_pairs += 1
    verdict(5, total_pairs > 0,
            f"derivation law holds for all {total_pairs} compatible-pair products")


def test_criterion_06_exact_sequence(ext_corpus):
    for name in ABELIAN_EXTS:
        ext = ext_corpus[name]
        report = verify_wells_exactness(ext)
        assert all(report.exactness.values()), (name, report.exactness)
        ctx = WellsContext(ext)
        z1 = list(ctx.complex.z1_elements())
        stable = aut_AK_H(ctx)
        assert len(stable) == len(z1), name
        for kappa in z1:
            assert aut_to_z1(ctx, z1_to_aut(ctx, kappa)) == kappa
        for gamma in stable:
            back = z1_to_aut(ctx, aut_to_z1(ctx, gamma))
            assert _morphism_key(back) == _morphism_key(gamma)
    verdict(6, True,
            f"kernel/image equalities, |stable autos| == |Z1|, and the two "
            f"derivation maps invert each other on {len(ABELIAN_EXTS)} fixtures")


def test_criterion_07_decider_agreement_and_witnesses(ext_corpus):
    agreements = 0
    positives = 0
    for name in ABELIAN_EXTS:
        ctx = WellsContext(ext_corpus[name])
        for pair in ctx.all_pairs:
            direct, witness = is_inducible(ctx, pair)
            module_route = inducible_by_module_criterion(ctx, pair)
            assert direct == module_route, name
            agreements += 1
            if direct:
                positives += 1
                assert witness.is_bijective()
                K_img = set(ctx.ext.incl.psi.image_elements())
                L_img = set(ctx.ext.incl.eta.image_elements())
                assert all(int(witness.psi(h)) in K_img for h in K_img)
                assert all(int(witness.eta(g)) in L_img for g in L_img)
                induced = restrict_and_induce(ctx, witness)
                assert _pair_key(induced) == _pair_key(pair)
    verdict(7, agreements > 0,
            f"both deciders agree on {agreements} (extension, pair) inputs; "
            f"all {positives} positive verdicts carry validated lifting witnesses")


def test_criterion_08_trivial_obstruction_group_lifts_everything(ext_corpus):
    ctx = WellsContext(ext_corpus["s3"])
    assert ctx.complex.h2.order == 1
    C = ctx.compatible
    assert len(C) >= 2
    for pair in C:
        ok, witness = is_inducible(ctx, pair)
        assert ok and witness is not None
    verdict(8, True,
            f"vanishing obstruction group: all {len(C)} compatible pairs lift "
            f"(kernel Z3 inside the order-6 total)")


def test_criterion_09_classical_regression():
    Z2, Z3 = cyclic_group(2), cyclic_group(3)
    got2 = classical_h2_check(Z2, Z2, [[0, 1], [0, 1]])
    got3 = classical_h2_check(Z3, Z3, [[0, 1, 2]] * 3)
    verdict(9, got2 == (2,) and got3 == (3,),
            f"first-block machinery reproduces H2(Z2,Z2)={got2} and H2(Z3,Z3)={got3}")


def test_criterion_10_cli_determinism(tmp_path):
    phi = tmp_path / "phi.json"
    phi.write_text(json.dumps([[0, 1, 2], [0, 2, 1]]))
    commands = [
        ("validate", FIXTURE_DIR / "ext_z9.json"),
        ("validate", FIXTURE_DIR / "rrb_z4_z2_inv_parity.json"),
        ("enumerate", FIXTURE_DIR / "group_z3.json", FIXTURE_DIR / "group_z2.json", phi),
        ("cohomology", FIXTURE_DIR / "module_trivial_z2.json", "--reps"),
        ("cohomology", FIXTURE_DIR / "module_z4_parity.json"),
        ("wells", FIXTURE_DIR / "ext_z9.json"),
        ("wells", FIXTURE_DIR / "ext_s3.json"),
        ("inducible", FIXTURE_DIR / "ext_z9.json", FIXTURE_DIR / "pair_z9_twist.json"),
    ]
    runs = 0
    for cmd in commands:
        for fmt in ("text", "json"):
            args = [sys.executable, "-m", "rrbgroups", *map(str, cmd), "--format", fmt]
            first = subprocess.run(args, capture_output=True, text=True)
            second = subprocess.run(args, capture_output=True, text=True)
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout, cmd
            assert first.stderr == second.stderr
            runs += 1
    verdict(10, runs == 16,
            f"{runs} repeated command invocations produced byte-identical output")
