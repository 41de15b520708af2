"""Abelian extensions: sections, extraction, construction, equivalence."""

import functools
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrbgroups import (
    ActionQuadruple,
    GroupError,
    RRBError,
    RRBGroup,
    RRBModule,
    Section,
    are_equivalent,
    automorphism_group,
    build_extension,
    canonical_section,
    chart,
    cochain_complex,
    cyclic_group,
    extract_actions,
    extract_factor_system,
    extract_module,
    is_homomorphism,
    one_point_rrb,
    product_extension,
    trivial_action,
    trivial_rrb,
    validate_extension,
    validate_module,
    zero_factor_system,
)
from rrbgroups.modules import module_defect
from rrbgroups.serialize import load_module, load_rrb
from oracles import (build_total_direct, cocycle_violations, find_equivalence_morphism,
                     module_violation, rrb_violation)

CATALOGUE = Path(__file__).parent.parent / "perfbench" / "catalogue"
COHOMOLOGY_CATALOGUE = CATALOGUE / "cohomology.json"
OPERATORS_CATALOGUE = CATALOGUE / "operators.json"

ABELIAN = ("product_z2", "built_z2", "z4_carry", "z9", "s3", "z3_z4_twist",
           "z2_z4_image", "z2_z4_kernel", "z4_z4_diag", "parity_zero",
           "parity_twisted", "z3_triv", "z9_mul4", "z4_klein_f")


def perturbed_section(ext) -> Section:
    """A normalized section differing from the canonical one where possible."""
    sec = canonical_section(ext)
    s_H = sec.s_H.copy()
    s_G = sec.s_G.copy()
    K_img = ext.incl.psi.image_elements()
    L_img = ext.incl.eta.image_elements()
    for a in range(1, ext.quotient.H.order):
        shift = K_img[a % len(K_img)]
        s_H[a] = ext.total.H.mul(int(s_H[a]), shift)
    for b in range(1, ext.quotient.G.order):
        shift = L_img[b % len(L_img)]
        s_G[b] = ext.total.G.mul(int(s_G[b]), shift)
    return Section(s_H, s_G)


class TestValidateExtension:
    def test_direct_product_is_valid_and_abelian(self, groups):
        quot = trivial_rrb(groups["z4"], groups["z2"])
        kern = trivial_rrb(groups["z2"], groups["z2"], R=[0, 1])
        ext = product_extension(quot, kern)
        assert ext.is_abelian

    def test_one_point_kernel(self, groups):
        quot = trivial_rrb(groups["z2"], groups["z2"])
        ext = product_extension(quot, one_point_rrb())
        assert ext.total.H.order == 2
        assert ext.is_abelian
        sec = canonical_section(ext)
        assert sec.s_H.tolist() == [0, 1]
        module = extract_module(ext)
        assert extract_factor_system(ext) == zero_factor_system(module)

    def test_nonabelian_kernel_flag(self, groups):
        # Direct product with a nonabelian kernel group is a valid extension
        # but not an abelian one.
        quot = trivial_rrb(groups["z2"], groups["z2"])
        kern = trivial_rrb(groups["s3"], groups["z2"])
        ext = product_extension(quot, kern)
        assert not ext.is_abelian
        with pytest.raises(RRBError) as err:
            extract_actions(ext)
        assert err.value.code == "NotAbelianExtension"

    def test_built_extension_revalidates(self, ext_corpus):
        ext = ext_corpus["built_z2"]
        again = validate_extension(ext.kernel, ext.total, ext.quotient,
                                   ext.incl, ext.proj)
        assert again.is_abelian

    def test_image_kernel_mismatch_detected(self, groups):
        quot = trivial_rrb(groups["z2"], groups["z2"])
        kern = trivial_rrb(groups["z2"], groups["z2"])
        ext = product_extension(quot, kern)
        from rrbgroups import validate_morphism
        bad_proj = validate_morphism(ext.total, quot,
                                     [0, 0, 0, 0], ext.proj.eta.image)
        with pytest.raises(RRBError) as err:
            validate_extension(kern, ext.total, quot, ext.incl, bad_proj)
        assert err.value.code in ("NotSurjective", "ImageKernelMismatch")


class TestSections:
    def test_product_section_hits_first_component(self, ext_corpus):
        ext = ext_corpus["product_z2"]
        sec = canonical_section(ext)
        nK = ext.kernel.H.order
        assert sec.s_H.tolist() == [a * nK for a in range(ext.quotient.H.order)]

    def test_one_point_kernel_section_is_identity(self, groups):
        quot = trivial_rrb(groups["z4"], groups["z2"])
        ext = product_extension(quot, one_point_rrb())
        sec = canonical_section(ext)
        assert sec.s_H.tolist() == list(groups["z4"].elements())

    def test_projection_of_section_is_identity(self, ext_corpus):
        for ext in ext_corpus.values():
            sec = canonical_section(ext)
            for a in ext.quotient.H.elements():
                assert ext.proj.psi(int(sec.s_H[a])) == a
            for b in ext.quotient.G.elements():
                assert ext.proj.eta(int(sec.s_G[b])) == b
            assert sec.s_H[0] == 0 and sec.s_G[0] == 0

    def test_chart_splits_every_total_element(self, ext_corpus):
        for ext in ext_corpus.values():
            for sec in (canonical_section(ext), perturbed_section(ext)):
                ch = chart(ext, sec)
                H, G = ext.total.H, ext.total.G
                for h in H.elements():
                    assert H.mul(int(sec.s_H[ch.a[h]]), ext.incl.psi(int(ch.k[h]))) == h
                for g in G.elements():
                    assert G.mul(int(sec.s_G[ch.b[g]]), ext.incl.eta(int(ch.l[g]))) == g

    def test_unnormalized_section_rejected(self, ext_corpus):
        ext = ext_corpus["z9"]
        sec = canonical_section(ext)
        bad = Section(sec.s_H.copy(), sec.s_G.copy())
        bad.s_H[0] = 3
        with pytest.raises(RRBError) as err:
            extract_factor_system(ext, bad)
        assert err.value.code == "SectionNotNormalized"
        bad = Section(sec.s_H.copy(), sec.s_G.copy())
        bad.s_H[2] = sec.s_H[1]
        with pytest.raises(RRBError) as err:
            chart(ext, bad)
        assert str(err.value) == "SectionNotNormalized: s_H(2) is in the wrong coset"


class TestExtraction:
    def test_product_extracts_trivial_data(self, ext_corpus, module_corpus):
        ext = ext_corpus["product_z2"]
        assert extract_actions(ext) == module_corpus["trivial_z2"].action
        assert extract_factor_system(ext) == zero_factor_system(module_corpus["trivial_z2"])

    def test_actions_independent_of_section(self, ext_corpus):
        for name in ABELIAN:
            ext = ext_corpus[name]
            assert extract_actions(ext) == extract_actions(ext, perturbed_section(ext))

    def test_factor_system_section_change_stays_in_class(self, ext_corpus):
        for name in ABELIAN:
            ext = ext_corpus[name]
            module = extract_module(ext)
            cx = cochain_complex(module)
            fs1 = extract_factor_system(ext)
            fs2 = extract_factor_system(ext, perturbed_section(ext))
            assert cx.class_of(fs1) == cx.class_of(fs2)

    def test_semidirect_roundtrip_returns_input_action(self, ext_corpus):
        # parity_zero was built from a zero factor system over a module with
        # nontrivial quotient structure; extraction returns that module.
        ext = ext_corpus["parity_zero"]
        module = extract_module(ext)
        fs = extract_factor_system(ext)
        assert fs == zero_factor_system(module)

    def test_twisted_kernel_action_extracts_nontrivial_nu(self, ext_corpus):
        act = extract_actions(ext_corpus["z3_z4_twist"])
        assert act.nu[1].tolist() == [0, 2, 1]

    def test_extracted_f_laws(self, ext_corpus):
        # f is additive in the first slot, a twisted derivation in the second.
        for name in ABELIAN:
            module = extract_module(ext_corpus[name])
            A, K, L = module.A, module.K, module.L
            f, mu = module.action.f, module.action.mu
            for a in A.elements():
                for l1 in L.elements():
                    for l2 in L.elements():
                        assert int(f[L.mul(l1, l2), a]) == K.mul(int(f[l1, a]), int(f[l2, a]))
            for l in L.elements():
                for a1 in A.elements():
                    for a2 in A.elements():
                        want = K.mul(int(mu[a2, f[l, a1]]), int(f[l, a2]))
                        assert int(f[l, A.mul(a1, a2)]) == want

    def test_extracted_action_morphism_laws(self, ext_corpus):
        for name in ABELIAN:
            module = extract_module(ext_corpus[name])
            A, B = module.A, module.B
            nu, mu, sigma = module.action.nu, module.action.mu, module.action.sigma
            for b1 in B.elements():
                for b2 in B.elements():
                    assert np.array_equal(nu[B.mul(b1, b2)], nu[b1][nu[b2]])
                    assert np.array_equal(sigma[B.mul(b1, b2)], sigma[b2][sigma[b1]])
            for a1 in A.elements():
                for a2 in A.elements():
                    assert np.array_equal(mu[A.mul(a1, a2)], mu[a2][mu[a1]])

    def test_decomposition_formulas_reproduce_the_total(self, ext_corpus):
        # Extracted data must reconstruct the action and operator of the
        # total structure on every decomposed element:
        #   phi_{s_G(b) l}(s_H(a) k) = s_H(beta_b(a)) rho(a,b) nu_b(f(l,a) k)
        #   R(s_H(a) k) = s_G(T(a)) chi(a) S(nu^-1_{T(a)}(k))
        for name in ABELIAN:
            ext = ext_corpus[name]
            module = extract_module(ext)
            fs = extract_factor_system(ext)
            sec = canonical_section(ext)
            H, G = ext.total.H, ext.total.G
            act = module.action
            inc_h, inc_g = ext.incl.psi, ext.incl.eta
            for a in module.A.elements():
                for k in module.K.elements():
                    h = H.mul(int(sec.s_H[a]), inc_h(k))
                    for b in module.B.elements():
                        for l in module.L.elements():
                            g = G.mul(int(sec.s_G[b]), inc_g(l))
                            got = ext.total.act(g, h)
                            kpart = module.K.mul(int(fs.rho[a, b]),
                                                 int(act.nu[b, module.K.mul(int(act.f[l, a]), k)]))
                            want = H.mul(int(sec.s_H[module.beta(b, a)]), inc_h(kpart))
                            assert got == want
                    got_r = int(ext.total.R[h])
                    ta = int(module.T[a])
                    lpart = module.L.mul(int(fs.chi[a]),
                                         int(module.S[act.nu_inv(ta)[k]]))
                    want_r = G.mul(int(sec.s_G[ta]), inc_g(lpart))
                    assert got_r == want_r

    def test_extracted_factor_systems_are_cocycles(self, ext_corpus):
        for name in ABELIAN:
            module = extract_module(ext_corpus[name])
            fs = extract_factor_system(ext_corpus[name])
            assert cocycle_violations(module, fs) == []


class TestValidateModule:
    def test_all_trivial_is_valid(self, groups):
        quot = trivial_rrb(groups["z2"], groups["z2"])
        kern = trivial_rrb(groups["z2"], groups["z2"])
        ok, why = validate_module(quot, kern, trivial_action(quot, kern))
        assert ok, why

    def test_extracted_modules_are_valid(self, ext_corpus):
        for name in ABELIAN:
            ext = ext_corpus[name]
            ok, why = validate_module(ext.quotient, ext.kernel, extract_actions(ext))
            assert ok, why

    def test_corrupted_nu_reported(self, groups):
        quot = trivial_rrb(groups["z3"], groups["z3"])
        kern = trivial_rrb(groups["z3"], groups["z3"])
        act = trivial_action(quot, kern)
        nu = act.nu.copy()
        nu[1] = [0, 2, 1]  # no longer a homomorphism B -> Aut(K)
        ok, why = validate_module(quot, kern, ActionQuadruple(nu, act.mu, act.sigma, act.f))
        assert not ok and "nu" in why

    def test_nonabelian_kernel_rejected(self, groups):
        quot = trivial_rrb(groups["z2"], groups["z2"])
        kern = trivial_rrb(groups["s3"], groups["z2"])
        ok, why = validate_module(quot, kern, trivial_action(quot, kern))
        assert not ok and "abelian" in why


@functools.lru_cache(maxsize=None)
def _catalogue_modules() -> dict:
    with open(COHOMOLOGY_CATALOGUE, encoding="utf-8") as fh:
        return {"catalogue/" + case["name"]: load_module(case["module"])
                for case in json.load(fh)["cases"]}


@functools.lru_cache(maxsize=None)
def _homs(L, K) -> list:
    """Every homomorphism L -> K, as image arrays."""
    return [np.array(img) for img in itertools.product(range(K.order), repeat=L.order)
            if is_homomorphism(img, L, K)]


@functools.lru_cache(maxsize=None)
def _actions(G, K, anti: bool = False) -> list:
    """Every (anti-)homomorphism G -> Aut(K), as stacks of rows."""
    auts = [a.image for a in automorphism_group(K)]
    out = []
    for choice in itertools.product(range(len(auts)), repeat=G.order - 1):
        rows = np.stack([np.arange(K.order)] + [auts[i] for i in choice])
        law = all(np.array_equal(rows[G.mul(g1, g2)],
                                 rows[g2][rows[g1]] if anti else rows[g1][rows[g2]])
                  for g1 in G.elements() for g2 in G.elements())
        if law:
            out.append(rows)
    return out


def _outcome(check, *args):
    """What a check does: its return value, or the error it raises."""
    try:
        return "returns", check(*args)
    except (GroupError, RRBError) as exc:
        return "raises", type(exc).__name__, str(exc)


def _structure_outcome(H, G, phi, R):
    try:
        RRBGroup(H, G, phi, R)
    except RRBError as exc:
        return exc.code, str(exc), exc.witness
    return None


class TestModuleChecksMatchLoops:
    """validate_module's gathers and RRBGroup's against the element loops."""

    def test_corpus_and_catalogue_modules(self, module_corpus):
        modules = {**module_corpus, **_catalogue_modules()}
        assert len(modules) == len(module_corpus) + 23
        for name, m in modules.items():
            args = (m.quotient, m.kernel, m.action)
            assert validate_module(*args) == module_violation(*args) == (True, None), name
        with open(OPERATORS_CATALOGUE, encoding="utf-8") as fh:
            payloads = [case["payload"] for case in json.load(fh)["validate"]
                        if case["kind"] == "module"]
        verdicts = []
        for obj in payloads:
            args = (load_rrb(obj["quotient"]), load_rrb(obj["kernel"]),
                    ActionQuadruple(*(obj[key] for key in ("nu", "mu", "sigma", "f"))))
            verdicts.append(validate_module(*args)[0])
            assert validate_module(*args) == module_violation(*args)
        assert verdicts == [True, False]

    def test_whole_map_replacements(self, module_corpus):
        # Every pair of an action of B and an anti-action of A on K in place
        # of (nu, mu), every anti-action of B on L in place of sigma, and f
        # from random homomorphism columns: the maps pass the row
        # checks, so the laws, the operator compatibility and the
        # interchange decide.
        modules = {**module_corpus, **_catalogue_modules()}
        rng = np.random.default_rng(5)
        reached = set()
        for m in modules.values():
            act = m.action
            parts = {key: getattr(act, key) for key in ("nu", "mu", "sigma", "f")}
            candidates = [{"nu": nu, "mu": mu} for nu in _actions(m.B, m.K)
                          for mu in _actions(m.A, m.K, anti=True)]
            candidates += [{"sigma": rows} for rows in _actions(m.B, m.L, anti=True)]
            homs = _homs(m.L, m.K)
            candidates += [{"f": np.stack([homs[i] for i in rng.integers(len(homs), size=m.A.order)],
                                          axis=1)} for _ in range(8)]
            for swap in candidates:
                args = (m.quotient, m.kernel, ActionQuadruple(**{**parts, **swap}))
                got = _outcome(validate_module, *args)
                assert got == _outcome(module_violation, *args)
                reached.add(str(got[1][1]).split(" at ")[0])
        assert {"operator compatibility fails", "action interchange fails",
                "f(l,-) derivation fails"} <= reached

    def test_f_entry_outside_k_is_named(self, module_corpus):
        # Columns are checked in order, so column 1's entry comes first; the
        # module constructor raises the same message with the (l, a) witness.
        m = module_corpus["trivial_z3"]
        f = np.array(m.action.f)
        f[2, 1], f[1, 2] = -1, 3
        action = ActionQuadruple(m.action.nu, m.action.mu, m.action.sigma, f)
        args = (m.quotient, m.kernel, action)
        assert module_defect(*args) == ("f(2, 1) = -1 is outside K", (2, 1))
        assert validate_module(*args) == module_violation(*args) == (
            False, "f(2, 1) = -1 is outside K")
        with pytest.raises(RRBError) as err:
            RRBModule(*args)
        assert err.value.code == "ModuleInvalid" and err.value.witness == (2, 1)
        assert all(type(x) is int for x in err.value.witness)

    # Each part with the order of the group its entries lie in.
    PARTS = {"nu": "K", "mu": "K", "sigma": "L", "f": "K",
             "quotient.phi": "A", "quotient.R": "B", "kernel.phi": "K", "kernel.R": "L"}

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_single_entry_corruptions(self, module_corpus, data):
        # Entries -1 and |K| would index from the end or past it, so a range
        # check that comes after a gather shows up here.
        modules = {**module_corpus, **_catalogue_modules()}
        m = modules[data.draw(st.sampled_from(sorted(modules)))]
        part = data.draw(st.sampled_from(sorted(self.PARTS)))
        n = getattr(m, self.PARTS[part]).order
        owner, _, attr = part.rpartition(".")
        source = getattr(m.action if not owner else getattr(m, owner), attr)
        arr = np.array(source)
        at = tuple(data.draw(st.integers(0, size - 1)) for size in arr.shape)
        if owner or data.draw(st.booleans()):
            arr[at] = data.draw(st.integers(-1, n))
        elif part == "f":
            # A column that stays a homomorphism L -> K, so the derivation
            # law and the operator compatibility are what can fail.
            arr[:, at[1]] = data.draw(st.sampled_from(_homs(m.L, m.K)))
        else:
            # A row that stays an automorphism, so the action laws, the
            # identity and the interchange are what can fail.
            group = m.K if part in ("nu", "mu") else m.L
            arr[at[0]] = data.draw(st.sampled_from(automorphism_group(group))).image
        if owner:
            rrb = getattr(m, owner)
            phi, R = (arr, rrb.R) if attr == "phi" else (rrb.phi, arr)
            expected = rrb_violation(rrb.H, rrb.G, phi, R)
            if expected is not None:
                code, message, witness = expected
                expected = (code, f"{code}: {message}", witness)
            assert _structure_outcome(rrb.H, rrb.G, phi, R) == expected
        else:
            act = m.action
            parts = {key: getattr(act, key) for key in ("nu", "mu", "sigma", "f")}
            action = ActionQuadruple(**{**parts, part: arr})
            args = (m.quotient, m.kernel, action)
            assert _outcome(validate_module, *args) == _outcome(module_violation, *args)


class TestBuildExtension:
    def test_zero_cocycle_trivial_action_gives_direct_product(self, groups, module_corpus):
        module = module_corpus["trivial_z2"]
        ext = build_extension(module.quotient, module.kernel, module.action,
                              zero_factor_system(module))
        prod = product_extension(module.quotient, module.kernel)
        assert ext.total == prod.total
        assert are_equivalent(ext, prod)

    def test_zero_cocycle_nontrivial_action_validates(self, ext_corpus):
        module = extract_module(ext_corpus["z3_z4_twist"])
        ext = build_extension(module.quotient, module.kernel, module.action,
                              zero_factor_system(module))
        assert ext.is_abelian
        # extraction hands back exactly the nontrivial action that went in
        got = extract_actions(ext)
        assert np.array_equal(got.nu, module.action.nu)
        assert got == module.action

    def test_non_cocycle_rejected_with_condition_name(self, ext_corpus):
        module = extract_module(ext_corpus["z9"])
        fs = zero_factor_system(module)
        tau1 = fs.tau1.copy()
        tau1[1, 1] = 1
        from rrbgroups import FactorSystem
        bad = FactorSystem(tau1, fs.tau2, fs.rho, fs.chi)
        with pytest.raises(RRBError) as err:
            build_extension(module.quotient, module.kernel, module.action, bad)
        assert err.value.code == "NotACocycle"
        assert err.value.witness[0] == "cocycle1"

    def test_invalid_module_rejected(self, groups):
        quot = trivial_rrb(groups["z3"], groups["z3"])
        kern = trivial_rrb(groups["z3"], groups["z3"])
        act = trivial_action(quot, kern)
        nu = act.nu.copy()
        nu[1] = [0, 2, 1]
        bad_action = ActionQuadruple(nu, act.mu, act.sigma, act.f)
        module = RRBModule(quot, kern, act)
        with pytest.raises(RRBError) as err:
            build_extension(quot, kern, bad_action, zero_factor_system(module))
        assert err.value.code == "ModuleInvalid"

    def test_roundtrip_extract_of_build_is_identity(self, module_corpus):
        for name in ("trivial_z2", "from_z9", "from_z4_z4_diag", "from_parity_zero"):
            module = module_corpus[name]
            cx = cochain_complex(module)
            count = 0
            for fs in cx.z2_elements():
                ext = build_extension(module.quotient, module.kernel, module.action, fs)
                assert extract_factor_system(ext) == fs
                assert extract_actions(ext) == module.action
                count += 1
                if count >= 12:
                    break

    def test_matches_direct_loops(self, groups, module_corpus):
        # Z3 acting on Z7 by doubling, with S = id and T = id: nu_1 has order
        # 3, so R reads nu^-1 where nu would give another total.
        z3, z7 = groups["z3"], cyclic_group(7)
        quot = trivial_rrb(z3, z3, R=[0, 1, 2])
        kern = trivial_rrb(z7, z7, R=list(range(7)))
        double = [[pow(2, b) * k % 7 for k in range(7)] for b in range(3)]
        halve = [[pow(4, b) * k % 7 for k in range(7)] for b in range(3)]
        order3 = RRBModule(quot, kern, ActionQuadruple(double, [list(range(7))] * 3,
                                                       halve, [[0] * 3] * 7))
        for module in [*module_corpus.values(), order3]:
            for fs in itertools.islice(cochain_complex(module).z2_elements(), 12):
                ext = build_extension(module.quotient, module.kernel, module.action, fs)
                tableH, tableG, phi, R = build_total_direct(module, fs)
                assert np.array_equal(ext.total.H.table, tableH)
                assert np.array_equal(ext.total.G.table, tableG)
                assert np.array_equal(ext.total.phi, phi)
                assert np.array_equal(ext.total.R, R)

    def test_build_of_extract_is_equivalent(self, ext_corpus):
        for name in ABELIAN:
            ext = ext_corpus[name]
            module = extract_module(ext)
            rebuilt = build_extension(module.quotient, module.kernel, module.action,
                                      extract_factor_system(ext))
            assert find_equivalence_morphism(rebuilt, ext) is not None


class TestEquivalence:
    def test_reflexive(self, ext_corpus):
        for name in ABELIAN:
            assert are_equivalent(ext_corpus[name], ext_corpus[name])

    def test_coboundary_shift_is_equivalent_to_product(self, module_corpus):
        module = module_corpus["from_z9"]
        cx = cochain_complex(module)
        from rrbgroups import OneCochain
        kappa = OneCochain([0, 1, 2], [0])
        fs = cx.coboundary(kappa)
        built = build_extension(module.quotient, module.kernel, module.action, fs)
        prod = product_extension(module.quotient, module.kernel)
        assert are_equivalent(built, prod)
        assert find_equivalence_morphism(built, prod) is not None

    def test_distinct_classes_not_equivalent(self, module_corpus):
        module = module_corpus["from_z9"]
        cx = cochain_complex(module)
        classes = list(cx.h2_classes())
        e0 = build_extension(module.quotient, module.kernel, module.action,
                             cx.class_representative(classes[0]))
        e1 = build_extension(module.quotient, module.kernel, module.action,
                             cx.class_representative(classes[1]))
        assert not are_equivalent(e0, e1)
        assert find_equivalence_morphism(e0, e1) is None

    def test_action_mismatch_raises(self, ext_corpus):
        with pytest.raises(RRBError) as err:
            are_equivalent(ext_corpus["product_z2"], ext_corpus["z9"])
        assert err.value.code == "ActionMismatch"
