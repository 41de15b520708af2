"""Automorphism lifting: compatible pairs, obstruction map, exactness."""

import json
from pathlib import Path

import numpy as np
import pytest

import rrbgroups.wells as wells_mod
from rrbgroups import (
    RRBError,
    WellsContext,
    act_on_class,
    act_on_factor_system,
    aut_AK_H,
    aut_K_H,
    aut_to_z1,
    cochain_complex,
    compatible_pairs,
    extract_factor_system,
    extract_module,
    inducible_by_module_criterion,
    is_inducible,
    pair_is_compatible,
    restrict_and_induce,
    twisted_module,
    verify_wells_exactness,
    wells_map,
    z1_to_aut,
    zero_factor_system,
)
from rrbgroups.serialize import load_extension
from rrbgroups.wells import CompatiblePair
from oracles import (_morphism_key, _pair_key, act_direct, cocycle_violations, fs_from_key,
                     fs_key, fs_positions, identity_pair, reference_wells_report)

TESTS_DIR = Path(__file__).parent
EXT_FILES = sorted([*(TESTS_DIR.parent / "src" / "rrbgroups" / "fixtures").glob("ext_*.json"),
                    *(TESTS_DIR / "inputs").glob("ext_*.json")])

LIFTING_CATALOGUE = TESTS_DIR.parent / "perfbench" / "catalogue" / "lifting.json"
with open(LIFTING_CATALOGUE, encoding="utf-8") as _fh:
    # The benchmark's extensions: their H2 actions are not symmetric matrices.
    CATALOGUE_EXTS = {case["name"]: case["extension"] for case in json.load(_fh)["extensions"]}

WELLS_EXTS = ("product_z2", "built_z2", "z4_carry", "z9", "s3", "z3_z4_twist",
              "z2_z4_image", "z2_z4_kernel", "z4_z4_diag", "parity_zero",
              "parity_twisted", "z3_triv", "z9_mul4", "z4_klein_f")


def _named_extension(name, ext_corpus):
    """A corpus, catalogue or file extension by name."""
    if name in ext_corpus:
        return ext_corpus[name]
    if name in CATALOGUE_EXTS:
        return load_extension(CATALOGUE_EXTS[name])
    return load_extension(str(next(p for p in EXT_FILES if p.stem == name)))


@pytest.fixture(scope="module")
def contexts(ext_corpus):
    return {name: WellsContext(ext_corpus[name]) for name in WELLS_EXTS}


class TestContext:
    def test_one_chart_per_context(self, ext_corpus, monkeypatch):
        # The module's actions and the factor system are read off ctx.chart.
        import rrbgroups.extensions as extensions_mod
        real, calls = extensions_mod.chart, []

        def counted(ext, section=None):
            calls.append(section)
            return real(ext, section)

        monkeypatch.setattr(extensions_mod, "chart", counted)
        monkeypatch.setattr(wells_mod, "chart", counted)
        for name in WELLS_EXTS:
            calls.clear()
            WellsContext(ext_corpus[name])
            assert len(calls) == 1, name


class TestCompatiblePairs:
    def test_trivial_module_admits_every_pair(self, contexts):
        ctx = contexts["z3_triv"]
        assert len(ctx.compatible) == len(ctx.all_pairs) == 16

    def test_identity_always_compatible(self, contexts):
        for ctx in contexts.values():
            ident = identity_pair(ctx.module)
            assert pair_is_compatible(ctx.module, ident)
            assert _pair_key(ident) in {_pair_key(c) for c in ctx.compatible}

    def test_nontrivial_action_filters_pairs(self, contexts):
        # The bridging map f(l, a) = l*a forces theta1 = theta2 * psi1, so
        # only half of the automorphism pairs are compatible.
        ctx = contexts["z9_mul4"]
        assert len(ctx.compatible) == 4
        assert len(ctx.all_pairs) == 8
        module = ctx.module
        nu, mu, sigma, f = (module.action.nu, module.action.mu,
                            module.action.sigma, module.action.f)
        for pair in ctx.all_pairs:
            psi1, psi2 = pair.psi.psi.image, pair.psi.eta.image
            th1, th2 = pair.theta.psi.image, pair.theta.eta.image
            ok = True
            for b in module.B.elements():
                for k in module.K.elements():
                    if int(th1[nu[b, k]]) != int(nu[psi2[b], th1[k]]):
                        ok = False
                for l in module.L.elements():
                    if int(th2[sigma[b, l]]) != int(sigma[psi2[b], th2[l]]):
                        ok = False
            for a in module.A.elements():
                for k in module.K.elements():
                    if int(th1[mu[a, k]]) != int(mu[psi1[a], th1[k]]):
                        ok = False
                for l in module.L.elements():
                    if int(th1[f[l, a]]) != int(f[th2[l], psi1[a]]):
                        ok = False
            assert pair_is_compatible(module, pair) == ok

    @pytest.mark.parametrize("path", EXT_FILES, ids=lambda p: p.stem)
    def test_pair_table_matches_compose_and_inverse(self, path):
        # C * S against compose; the inverses from a full C x C product,
        # which the small fixtures afford.
        ctx = WellsContext(load_extension(str(path)))
        pg, C = ctx.pair_group, ctx.compatible
        keys = [_pair_key(c) for c in C]
        for i, p in enumerate(C):
            for j, s in enumerate(pg.generators.tolist()):
                assert keys[pg.by_generators[i, j]] == _pair_key(p.compose(C[s]))
        every = np.arange(len(C))
        products = pg.product(every[:, None], every[None])
        ident = keys.index(_pair_key(identity_pair(ctx.module)))
        for i, p in enumerate(C):
            # The inverse is the j with p after j = 1.
            j = int(np.flatnonzero(products[i] == ident)[0])
            assert keys[j] == _pair_key(p.inverse())

    @pytest.mark.parametrize("name", [*WELLS_EXTS, *(p.stem for p in EXT_FILES), *CATALOGUE_EXTS])
    def test_generators_generate_c_irredundantly(self, name, ext_corpus):
        # Each generator lies outside the subgroup the earlier ones generate,
        # and all of them generate C; closures by compose, one pair at a time.
        ctx = WellsContext(_named_extension(name, ext_corpus))
        C = ctx.compatible
        gens = [C[s] for s in ctx.pair_group.generators.tolist()]
        reached = {_pair_key(identity_pair(ctx.module)): identity_pair(ctx.module)}
        for k, g in enumerate(gens):
            assert _pair_key(g) not in reached, (name, k)
            frontier = list(reached.values())
            while frontier:
                new = {_pair_key(p.compose(h)): p.compose(h) for p in frontier for h in gens[:k + 1]}
                frontier = [p for key, p in new.items() if key not in reached]
                reached.update(new)
        assert set(reached) == {_pair_key(c) for c in C}, name

    def test_kernel_equal_to_the_total_reaches_every_pair(self):
        # K = L = G on the trivial Z2^3 x Z2^3 total: C = GL(3, 2)^2.  The
        # walk takes one column of |C| products per generator, each |C| * 18
        # cells, and those columns are C * S.
        from rrbgroups import cyclic_group, direct_product, product_extension, trivial_rrb

        z2 = cyclic_group(2)
        cube = direct_product(direct_product(z2, z2).group, z2).group
        one = trivial_rrb(cyclic_group(1), cyclic_group(1))
        ctx = WellsContext(product_extension(one, trivial_rrb(cube, cube)))
        pg = ctx.pair_group
        n, S = len(pg.C), pg.generators
        assert n == 28224 and pg.by_generators.shape == (n, len(S))
        for column in pg.by_generators.T:
            assert np.array_equal(np.sort(column), np.arange(n))
        rows = np.random.default_rng(25).choice(n, size=40, replace=False)
        assert np.array_equal(pg.by_generators[rows], pg.product(rows[:, None], S[None]))
        # Eight of them against compose, with one object stack for all.
        rows = rows[:8]
        objs = pg.objects(ctx.module, pg.C[np.concatenate([rows, S, *pg.by_generators[rows]])])
        pairs, gens, products = objs[:8], objs[8:8 + len(S)], objs[8 + len(S):]
        assert [_pair_key(q) for q in products] == \
            [_pair_key(p.compose(s)) for p in pairs for s in gens]

    def test_group_structure(self, contexts):
        for name in ("z9", "z3_triv", "parity_zero"):
            C = contexts[name].compatible
            keys = {_pair_key(c) for c in C}
            for c in C:
                assert _pair_key(c.inverse()) in keys
                for d in C:
                    assert _pair_key(c.compose(d)) in keys


class TestCochainAction:
    def test_identity_fixes_everything(self, contexts):
        for ctx in contexts.values():
            ident = identity_pair(ctx.module)
            assert act_on_factor_system(ident, ctx.fs, ctx.module) == ctx.fs

    def test_zero_goes_to_zero(self, contexts):
        for ctx in contexts.values():
            zero = zero_factor_system(ctx.module)
            for pair in ctx.compatible:
                assert act_on_factor_system(pair, zero, ctx.module) == zero

    def test_matches_direct_loops(self, contexts):
        # The action is defined on every normalized cochain; random ones reach
        # entries that the corpus cocycles leave at zero.
        rng = np.random.default_rng(6)
        for ctx in contexts.values():
            positions = fs_positions(ctx.module)
            for _ in range(4):
                fs = fs_from_key(ctx.module, [rng.integers(size) for *_, size in positions])
                for pair in ctx.compatible:
                    assert act_on_factor_system(pair, fs, ctx.module) == act_direct(pair, fs)

    def test_incompatible_pair_rejected(self, contexts):
        ctx = contexts["z9_mul4"]
        bad = next(p for p in ctx.all_pairs
                   if not pair_is_compatible(ctx.module, p))
        with pytest.raises(RRBError) as err:
            act_on_factor_system(bad, ctx.fs, ctx.module)
        assert err.value.code == "PairNotCompatible"

    def test_preserves_cocycles_and_coboundaries(self, contexts):
        for name in ("z9", "z4_z4_diag", "parity_twisted", "z3_triv", "z9_mul4", "z4_klein_f"):
            ctx = contexts[name]
            cx = ctx.complex
            import itertools
            for pair in ctx.compatible:
                for fs in itertools.islice(cx.z2_elements(), 10):
                    moved = act_on_factor_system(pair, fs, ctx.module)
                    assert cocycle_violations(ctx.module, moved) == []
                for vec in itertools.islice(cx.b2.elements(), 10):
                    fs = cx.fs_from_coords(vec)
                    moved = act_on_factor_system(pair, fs, ctx.module)
                    assert cx.b2.contains(cx.fs_to_coords(moved))

    def test_action_on_classes_is_well_defined(self, contexts):
        ctx = contexts["z9"]
        cx = ctx.complex
        for pair in ctx.compatible:
            for cls in cx.h2_classes():
                rep = cx.class_representative(cls)
                got1 = cx.class_of(act_on_factor_system(pair, rep, ctx.module))
                assert act_on_class(pair, cls) == got1

    def test_semidirect_compatibility_law(self, contexts):
        # ([E]^h)^c == ([E]^c)^(h^c)
        for name in ("z9", "z3_triv"):
            ctx = contexts[name]
            cx = ctx.complex
            for c in ctx.compatible:
                for h in cx.h2_classes():
                    lhs = act_on_class(c, ctx.base_class + h)
                    rhs = act_on_class(c, ctx.base_class) + act_on_class(c, h)
                    assert lhs == rhs


class TestWellsMap:
    def test_identity_pair_maps_to_zero(self, contexts):
        for ctx in contexts.values():
            assert wells_map(ctx, identity_pair(ctx.module)).is_zero()

    def test_split_extension_has_zero_obstruction(self, contexts):
        for name in ("product_z2", "parity_zero"):
            ctx = contexts[name]
            assert fs_key(ctx.module, ctx.fs) == fs_key(ctx.module,
                                                        zero_factor_system(ctx.module))
            for pair in ctx.compatible:
                assert wells_map(ctx, pair).is_zero()

    def test_derivation_law(self, contexts):
        for ctx in contexts.values():
            C = ctx.compatible
            omega = {_pair_key(c): wells_map(ctx, c) for c in C}
            for c1 in C:
                for c2 in C:
                    lhs = omega[_pair_key(c1.compose(c2))]
                    rhs = act_on_class(c2, omega[_pair_key(c1)]) + omega[_pair_key(c2)]
                    assert lhs == rhs


class TestRestrictionAndDerivations:
    def test_identity_automorphism_restricts_to_identity_pair(self, contexts):
        from rrbgroups import identity_morphism

        for ctx in contexts.values():
            pair = restrict_and_induce(ctx, identity_morphism(ctx.ext.total))
            assert _pair_key(pair) == _pair_key(identity_pair(ctx.module))

    def test_induced_pair_independent_of_section(self, ext_corpus):
        from test_extensions import perturbed_section

        for name in ("z9", "z4_z4_diag", "parity_twisted"):
            ext = ext_corpus[name]
            ctx = WellsContext(ext)
            sec2 = perturbed_section(ext)
            for gamma in aut_K_H(ctx):
                pair = restrict_and_induce(ctx, gamma)
                psi1 = [ext.proj.psi(gamma.psi(int(sec2.s_H[a])))
                        for a in ext.quotient.H.elements()]
                psi2 = [ext.proj.eta(gamma.eta(int(sec2.s_G[b])))
                        for b in ext.quotient.G.elements()]
                assert pair.psi.psi.image.tolist() == psi1
                assert pair.psi.eta.image.tolist() == psi2

    def test_image_of_restriction_inside_obstruction_kernel(self, contexts):
        for ctx in contexts.values():
            for gamma in aut_K_H(ctx):
                pair = restrict_and_induce(ctx, gamma)
                assert wells_map(ctx, pair).is_zero()

    def test_derivations_biject_with_stable_automorphisms(self, contexts):
        for ctx in contexts.values():
            z1 = list(ctx.complex.z1_elements())
            autAK = aut_AK_H(ctx)
            assert len(z1) == len(autAK)
            for kappa in z1:
                gamma = z1_to_aut(ctx, kappa)
                assert aut_to_z1(ctx, gamma) == kappa
            for gamma in autAK:
                kappa = aut_to_z1(ctx, gamma)
                assert _morphism_key(z1_to_aut(ctx, kappa)) == _morphism_key(gamma)

    def test_non_stable_automorphism_rejected(self, contexts):
        ctx = contexts["z9"]
        ident = _pair_key(identity_pair(ctx.module))
        gamma = next(g for g in aut_K_H(ctx) if _pair_key(restrict_and_induce(ctx, g)) != ident)
        with pytest.raises(RRBError) as err:
            aut_to_z1(ctx, gamma)
        assert err.value.code == "NotInAutAK"

    def test_automorphism_moving_the_kernel_rejected(self, groups):
        # On the trivial product Z2 x Z2 every pair of automorphisms of the
        # total is one of the structure; swapping the two factors moves K
        # (on H) or L (on G) off itself.
        from rrbgroups import product_extension, trivial_rrb, validate_morphism

        z2 = groups["z2"]
        ext = product_extension(trivial_rrb(z2, z2), trivial_rrb(z2, z2))
        ctx = WellsContext(ext)
        swap, ident = [0, 2, 1, 3], [0, 1, 2, 3]
        for psi, eta in ((swap, ident), (ident, swap)):
            gamma = validate_morphism(ext.total, ext.total, psi, eta)
            for reader in (restrict_and_induce, aut_to_z1):
                with pytest.raises(RRBError) as err:
                    reader(ctx, gamma)
                assert err.value.code == "ImageKernelMismatch"
                assert "element 2 is not in the kernel image" in str(err.value)

    def test_pair_stack_is_checked_before_it_is_built(self):
        # Aut of (Z2^3, Z2^3) and of (Z2^2, Z2^2) each pass the cap, 28,224 and
        # 36 pairs, but their product is 1,016,064 pairs of 24 cells.
        from rrbgroups import RRBModule, cyclic_group, direct_product, trivial_action, trivial_rrb
        from rrbgroups.groups import GroupError

        z2 = cyclic_group(2)
        v4 = direct_product(z2, z2).group
        cube = direct_product(v4, z2).group
        quotient, kernel = trivial_rrb(cube, cube), trivial_rrb(v4, v4)
        module = RRBModule(quotient, kernel, trivial_action(quotient, kernel))
        with pytest.raises(GroupError) as err:
            compatible_pairs(module)
        assert err.value.code == "OrderTooLarge"
        assert "a stack of 1016064 automorphism pairs needs 24385536 cells" in str(err.value)

    def test_zero_derivation_is_identity(self, contexts):
        from rrbgroups import OneCochain

        ctx = contexts["z9"]
        zero = OneCochain([0] * ctx.module.A.order, [0] * ctx.module.B.order)
        gamma = z1_to_aut(ctx, zero)
        assert _morphism_key(gamma) == (tuple(ctx.ext.total.H.elements()),
                                        tuple(ctx.ext.total.G.elements()))

    def test_non_derivation_rejected(self, contexts):
        from rrbgroups import OneCochain

        ctx = contexts["z9"]
        kappa = OneCochain([0, 1, 0], [0])  # kappa(2) != 2 kappa(1)
        assert not ctx.complex.z1_contains(kappa)[0]
        with pytest.raises(RRBError) as err:
            z1_to_aut(ctx, kappa)
        assert err.value.code == "NotInZ1"


class TestInducibility:
    def test_identity_inducible_with_identity_witness(self, contexts):
        for ctx in contexts.values():
            ok, witness = is_inducible(ctx, identity_pair(ctx.module))
            assert ok
            assert _morphism_key(witness) == (tuple(ctx.ext.total.H.elements()),
                                              tuple(ctx.ext.total.G.elements()))

    def test_incompatible_pair_not_inducible(self, contexts):
        ctx = contexts["z9_mul4"]
        bad = next(p for p in ctx.all_pairs
                   if not pair_is_compatible(ctx.module, p))
        ok, witness = is_inducible(ctx, bad)
        assert not ok and witness is None

    def test_non_bijective_compatible_pair(self, contexts):
        # The zero map on the kernel with the identity on the quotient meets
        # the stabilizer conditions, but it is no automorphism: the pair is
        # not compatible, acts on nothing and lifts to nothing.
        from rrbgroups import identity_morphism, validate_morphism

        for name, ctx in contexts.items():
            kernel = ctx.module.kernel
            zero = validate_morphism(kernel, kernel, [0] * kernel.H.order, [0] * kernel.G.order)
            pair = CompatiblePair(identity_morphism(ctx.module.quotient), zero)
            assert wells_mod._compatible(ctx.module, wells_mod._stack_of(pair))[0], name
            assert not pair_is_compatible(ctx.module, pair), name
            assert is_inducible(ctx, pair) == (False, None), name
            assert inducible_by_module_criterion(ctx, pair) is False, name
            for act in (lambda: wells_map(ctx, pair),
                        lambda: act_on_factor_system(pair, ctx.fs, ctx.module)):
                with pytest.raises(RRBError) as err:
                    act()
                assert err.value.code == "PairNotCompatible", name

    def test_z9_obstructed_pairs(self, contexts):
        ctx = contexts["z9"]
        verdicts = {}
        for pair in ctx.all_pairs:
            ok, _ = is_inducible(ctx, pair)
            verdicts[(tuple(pair.psi.psi.image.tolist()),
                      tuple(pair.theta.psi.image.tolist()))] = ok
        assert verdicts == {
            ((0, 1, 2), (0, 1, 2)): True,
            ((0, 1, 2), (0, 2, 1)): False,
            ((0, 2, 1), (0, 1, 2)): False,
            ((0, 2, 1), (0, 2, 1)): True,
        }

    def test_witnesses_are_lifts(self, contexts):
        for ctx in contexts.values():
            for pair in ctx.all_pairs:
                ok, witness = is_inducible(ctx, pair)
                if not ok:
                    assert witness is None
                    continue
                assert witness.is_bijective()
                K_img = set(ctx.ext.incl.psi.image_elements())
                assert all(int(witness.psi(h)) in K_img for h in K_img)
                induced = restrict_and_induce(ctx, witness)
                assert _pair_key(induced) == _pair_key(pair)

    def test_trivial_obstruction_group_makes_everything_inducible(self, contexts):
        ctx = contexts["s3"]
        assert ctx.complex.h2.order == 1
        C = ctx.compatible
        assert len(C) == 2
        for pair in C:
            ok, witness = is_inducible(ctx, pair)
            assert ok and witness is not None

    def test_module_criterion_agrees_everywhere(self, contexts):
        for ctx in contexts.values():
            for pair in ctx.all_pairs:
                direct, _ = is_inducible(ctx, pair)
                assert inducible_by_module_criterion(ctx, pair) == direct


class TestTwistedModule:
    def test_identity_twist_is_identity(self, contexts):
        for ctx in contexts.values():
            twisted = twisted_module(ctx.module, identity_pair(ctx.module).psi)
            assert twisted.action == ctx.module.action

    def test_twisted_module_validates(self, contexts):
        for name in ("z9", "parity_twisted", "z3_triv", "z9_mul4", "z4_klein_f"):
            ctx = contexts[name]
            for pair in ctx.compatible:
                twisted = twisted_module(ctx.module, pair.psi)
                assert twisted.quotient == ctx.module.quotient

    def test_rejects_non_automorphism(self, contexts):
        # The kernel's identity morphism is not a quotient automorphism here.
        ctx = contexts["parity_twisted"]
        with pytest.raises(RRBError) as err:
            twisted_module(ctx.module, identity_pair(ctx.module).theta)
        assert err.value.code == "PsiNotAutomorphism"


class TestExactnessReport:
    def test_product_extension_all_checks_pass(self, ext_corpus):
        report = verify_wells_exactness(ext_corpus["product_z2"])
        assert all(report.exactness.values())
        assert (report.position >= 0).all() and report.inducible.all()

    def test_whole_corpus_passes(self, ext_corpus):
        for name in WELLS_EXTS:
            report = verify_wells_exactness(ext_corpus[name])
            assert all(report.exactness.values()), (name, report.exactness,
                                                    report.witnesses)
            n = int((report.position >= 0).sum())
            assert len(report.omega) == len(report.inducible) == n, name
            assert all(len(x) == report.inducible.sum() for x in report.lifts), name

    @pytest.mark.parametrize("name", [*WELLS_EXTS, *(p.stem for p in EXT_FILES), *CATALOGUE_EXTS])
    def test_report_matches_object_loops(self, name, ext_corpus):
        ext = _named_extension(name, ext_corpus)
        report = verify_wells_exactness(ext)
        records, exactness, witnesses, homomorphism = reference_wells_report(ext)
        # Read each pair's record off the stacks: its key, in_C, omega,
        # verdict and lift, the lifts taken in C order.
        keys = zip(*(map(tuple, x.tolist()) for x in report.pairs))
        omega, inducible = report.omega.tolist(), report.inducible.tolist()
        lifts = zip(*(map(tuple, x.tolist()) for x in report.lifts))
        got = [(key, c >= 0, tuple(omega[c]) if c >= 0 else None, c >= 0 and inducible[c],
                next(lifts) if c >= 0 and inducible[c] else None)
               for key, c in zip(keys, report.position.tolist())]
        assert got == records
        assert next(lifts, None) is None
        assert report.exactness == exactness
        assert report.witnesses == witnesses
        assert report.omega_is_homomorphism == homomorphism

    @pytest.mark.parametrize("name", [*CATALOGUE_EXTS, "z2^2 kernel"])
    def test_audit_builds_no_per_pair_objects(self, name, monkeypatch):
        # The audit answers with stacks: no morphism, homomorphism or pair
        # object is constructed between the extension and the report.
        from rrbgroups import cyclic_group, direct_product, product_extension, trivial_rrb
        from rrbgroups.groups import GroupHom
        from rrbgroups.rrb import RRBMorphism

        if name == "z2^2 kernel":
            z2 = cyclic_group(2)
            v4 = direct_product(z2, z2).group
            ext = product_extension(trivial_rrb(z2, cyclic_group(1)),
                                    trivial_rrb(v4, direct_product(v4, z2).group))
        else:
            ext = load_extension(CATALOGUE_EXTS[name])
        built = []
        for cls in (RRBMorphism, GroupHom, CompatiblePair):
            def counted(self, *args, _real=cls.__init__, _name=cls.__name__, **kwargs):
                built.append(_name)
                if _real is not object.__init__:
                    _real(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        report = verify_wells_exactness(ext)
        assert all(report.exactness.values()), name
        assert built == [], name
        if name == "z2^2 kernel":
            assert len(report.position) == 1008 and (report.position >= 0).all()
        # The counters see a pair object when one is built.
        identity_pair(WellsContext(ext).module)
        assert {"RRBMorphism", "GroupHom", "CompatiblePair"} <= set(built), name

    @pytest.mark.parametrize("name", [*WELLS_EXTS, *(p.stem for p in EXT_FILES), "z2^4xz2"])
    def test_order_identity(self, name, ext_corpus):
        # ker rho = Z1 and im rho = ker omega, so |Aut_K(E)| = |Z1| |ker omega|.
        if name == "z2^4xz2":
            from conftest import _ideal_extension
            from rrbgroups import cyclic_group, direct_product, trivial_rrb

            z2 = cyclic_group(2)
            v4 = direct_product(z2, z2).group
            ext = _ideal_extension(trivial_rrb(direct_product(v4, v4).group, z2),
                                   [0, 1, 2, 3], [0, 1])
        else:
            ext = _named_extension(name, ext_corpus)
        ctx = WellsContext(ext)
        report = verify_wells_exactness(ext)
        ker_omega = int((~report.omega.any(axis=1)).sum())
        assert len(aut_K_H(ctx)) == ctx.complex.z1.order * ker_omega

    def test_fault_injection_breaks_eta_law(self, ext_corpus, monkeypatch):
        # Swap the automorphisms of the first two derivations: eta stays
        # injective with the same image, but eta(0) is no identity, so the
        # law on generators fails, and aut_to_z1 no longer inverts eta.
        real = wells_mod._z1_to_aut

        def swapped(ctx, kappa1, kappa2):
            return tuple(x[[1, 0, *range(2, len(x))]] for x in real(ctx, kappa1, kappa2))

        monkeypatch.setattr(wells_mod, "_z1_to_aut", swapped)
        for name in WELLS_EXTS:
            report = wells_mod.verify_wells_exactness(ext_corpus[name])
            assert report.exactness["eta_injective"] is False, name
            assert report.witnesses["eta_injective"].startswith("eta not multiplicative at "), name
            assert report.exactness["ker_rho_eq_im_eta"] is False, name

    def test_fault_injection_breaks_round_trip(self, ext_corpus, monkeypatch):
        # aut_to_z1 reads each automorphism back as its neighbour's cochain.
        real = wells_mod._aut_to_z1

        def skewed(ctx, on_H, on_G):
            return tuple(np.roll(x, 1, axis=0) for x in real(ctx, on_H, on_G))

        monkeypatch.setattr(wells_mod, "_aut_to_z1", skewed)
        for name in WELLS_EXTS:
            report = wells_mod.verify_wells_exactness(ext_corpus[name])
            assert report.exactness["eta_injective"] is True, name
            assert report.exactness["ker_rho_eq_im_eta"] is False, name
            assert report.witnesses["ker_rho_eq_im_eta"] == "aut_to_z1 does not invert eta", name

    def test_fault_injection_breaks_kernel_of_restriction(self, ext_corpus, monkeypatch):
        # The automorphism search loses its last automorphism that induces
        # the identity (row 0, the identity, stays): eta's image leaves the
        # kernel of restriction.
        search = wells_mod.WellsContext.aut_K.func

        def lossy(ctx):
            on_H, on_G = search(ctx)
            stable = wells_mod._identity_rows(wells_mod._restrict(ctx, on_H, on_G))
            keep = np.arange(len(on_H)) != np.flatnonzero(stable)[-1]
            return on_H[keep], on_G[keep]

        monkeypatch.setattr(wells_mod.WellsContext, "aut_K", property(lossy))
        for name in WELLS_EXTS:
            report = wells_mod.verify_wells_exactness(ext_corpus[name])
            assert report.exactness["ker_rho_eq_im_eta"] is False, name
            assert report.witnesses["ker_rho_eq_im_eta"] == (
                "kernel of restriction differs from derivation image"), name

    @pytest.mark.parametrize("name", [*WELLS_EXTS, *(p.stem for p in EXT_FILES), *CATALOGUE_EXTS])
    def test_eta_law_on_generators_matches_full_law(self, name, ext_corpus, monkeypatch):
        # The audit checks eta's law against 0 and the unit vectors only.  It
        # must fail exactly when the law fails somewhere on Z1 x Z1: on eta,
        # on eta with its first two rows swapped (eta(0) is then no
        # identity), on eta after a shear of Z1 and with its rows shuffled.
        # Reordered rows stay injective and keep their image, so the flag
        # reads the law alone.
        ext = _named_extension(name, ext_corpus)
        ctx = WellsContext(ext)
        factors = ctx.complex.z1.factors
        z1, kappa1, kappa2 = ctx.complex.z1_stack()
        eta_H, eta_G = wells_mod._z1_to_aut(ctx, kappa1, kappa2)
        index = {tuple(v): i for i, v in enumerate(z1.tolist())}
        at_sum = {(i, j): index[tuple((x + y) % f for x, y, f in zip(u, v, factors))]
                  for i, u in enumerate(z1.tolist()) for j, v in enumerate(z1.tolist())}
        rng, n = np.random.default_rng(0), len(z1)
        cases = [(range(n), True), ([1, 0, *range(2, n)] if n > 1 else [0], n == 1)]
        if len(factors) > 1 and factors[-1] > 2:
            # k -> k + [k_last = 1] e_first keeps the law at 0 and at every
            # unit vector but the last, and breaks it at the last.
            sheared = z1.copy()
            sheared[:, 0] = (z1[:, 0] + (z1[:, -1] == 1)) % factors[0]
            cases.append(([index[tuple(v)] for v in sheared.tolist()], False))
        for order, expected in cases + [(rng.permutation(n), None) for _ in range(3)]:
            order = np.array(order)
            on_H, on_G = eta_H[order], eta_G[order]
            full = all(np.array_equal(on[s], on[i][on[j]])
                       for on in (on_H, on_G) for (i, j), s in at_sum.items())
            monkeypatch.setattr(wells_mod, "_z1_to_aut", lambda *_: (on_H, on_G))
            assert wells_mod.verify_wells_exactness(ext).exactness["eta_injective"] == full, name
            assert expected in (None, full), name

    @pytest.mark.parametrize("name", [*WELLS_EXTS, *(p.stem for p in EXT_FILES), *CATALOGUE_EXTS])
    def test_omega_laws_on_generators_match_full_scan(self, name, ext_corpus):
        # Both laws of omega, checked by the audit on C x S, against the
        # C x C scan they replaced: omega(c1 c2) against omega(c1)^c2 +
        # omega(c2) and omega(c1) + omega(c2), with C's full product table.
        ext = _named_extension(name, ext_corpus)
        ctx = WellsContext(ext)
        pg, h2 = ctx.pair_group, np.array(ctx.complex.h2.factors, dtype=np.int64)
        omega = wells_mod._omega(ctx, wells_mod._twisted(ctx, pg.pairs))
        every = np.arange(len(pg.C))
        lhs = omega[pg.product(every[:, None], every[None])]
        acted = np.einsum("jab,ib->ija", wells_mod._action_matrices(ctx, pg.pairs), omega)
        derivation = bool(((acted + omega[None]) % h2 == lhs).all())
        homomorphism = bool(((omega[:, None] + omega[None]) % h2 == lhs).all())
        report = verify_wells_exactness(ext)
        assert report.exactness["omega_derivation"] == derivation, name
        assert report.omega_is_homomorphism == homomorphism, name
        if name in ("ext_z9", "ext_z9_mul4"):
            assert not homomorphism, name

    def test_fault_injection_breaks_derivation_law(self, ext_corpus, monkeypatch):
        # Every generator acts on H2 as zero: omega(c s) = omega(s) fails
        # where omega is not constant, and the witness is a pair (c, s) with
        # s a generator of C.
        monkeypatch.setattr(wells_mod, "_action_matrices",
                            lambda ctx, P: np.zeros((len(P.psi1),) + (len(ctx.complex.h2.factors),) * 2,
                                                    dtype=np.int64))
        ext = load_extension(str(next(p for p in EXT_FILES if p.stem == "ext_z9")))
        report = wells_mod.verify_wells_exactness(ext)
        assert report.exactness["omega_derivation"] is False
        ctx = WellsContext(ext)
        keys = [_pair_key(c) for c in ctx.compatible]
        named = {f"law fails at {c}, {keys[s]}" for c in keys for s in ctx.pair_group.generators}
        assert report.witnesses["omega_derivation"] in named

    def test_fault_injection_breaks_kernel_image_check(self, ext_corpus, monkeypatch):
        # Shift the obstruction of every pair by a fixed nonzero class: the
        # identity pair leaves the restriction image but lands outside the
        # reported kernel, so the ker/im comparison must fail.
        # The audit reads omega of all of C from one stacked map, so the
        # shift goes in there.
        ext = ext_corpus["z9"]
        real = wells_mod._omega

        def skewed(ctx, twisted):
            return (real(ctx, twisted) + 1) % np.array(ctx.complex.h2.factors)

        monkeypatch.setattr(wells_mod, "_omega", skewed)
        report = wells_mod.verify_wells_exactness(ext)
        assert report.exactness["ker_omega_eq_im_rho"] is False
        assert "ker_omega_eq_im_rho" in report.witnesses
