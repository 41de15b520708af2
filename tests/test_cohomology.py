"""Cochain complex: derivations, cocycles, coboundaries, quotient groups."""

import gc
import itertools
import json
import random
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrbgroups import (
    ActionQuadruple,
    CochainComplex,
    OneCochain,
    RRBError,
    RRBGroup,
    RRBModule,
    classical_h2_check,
    cochain_complex,
    cyclic_group,
    direct_product,
    group_from_permutations,
    one_point_rrb,
    trivial_action,
    trivial_rrb,
    zero_factor_system,
)
from rrbgroups.extensions import extract_factor_system, extract_module
from oracles import (
    ReferenceAssembly,
    c2_size,
    coboundary_direct,
    cocycle_defects,
    cocycle_violations,
    derivation_defects,
    exhaustive_b2_keys,
    exhaustive_z1,
    exhaustive_z2_keys,
    fs_from_key,
    fs_key,
    fs_positions,
    iter_one_cochains,
    relabel_module,
    sub_fs,
)

LADDER_ANSWERS = Path(__file__).resolve().parent.parent / "perfbench" / "catalogue" / "ladder.json"

ALL_MODULES = ("trivial_z2", "trivial_z3", "from_z4_carry", "from_z9", "from_s3",
               "from_z3_z4_twist", "from_z2_z4_image", "from_z2_z4_kernel",
               "from_z4_z4_diag", "from_parity_zero", "from_z9_mul4", "from_z4_klein_f")


def random_factor_system(module, rng):
    key = [rng.randrange(size) for *_, size in fs_positions(module)]
    return fs_from_key(module, key)


def random_cochain(module, rng):
    k1 = [0] + [rng.randrange(module.K.order) for _ in range(module.A.order - 1)]
    k2 = [0] + [rng.randrange(module.L.order) for _ in range(module.B.order - 1)]
    return OneCochain(k1, k2)


class TestZ1:
    def test_trivial_z2_module_by_enumeration(self, module_corpus):
        module = module_corpus["trivial_z2"]
        oracle = exhaustive_z1(module)
        assert len(oracle) == 4
        assert cochain_complex(module).z1.order == 4

    def test_zero_cochain_is_member(self, module_corpus):
        for module in module_corpus.values():
            cx = cochain_complex(module)
            zero = OneCochain([0] * module.A.order, [0] * module.B.order)
            ok, _ = cx.z1_contains(zero)
            assert ok

    def test_matches_exhaustive_filter(self, module_corpus):
        for name in ALL_MODULES:
            module = module_corpus[name]
            cx = cochain_complex(module)
            oracle = exhaustive_z1(module)
            assert cx.z1.order == len(oracle)
            member_keys = {(tuple(k.kappa1.tolist()), tuple(k.kappa2.tolist()))
                           for k in oracle}
            lib_keys = {(tuple(k.kappa1.tolist()), tuple(k.kappa2.tolist()))
                        for k in cx.z1_elements()}
            assert lib_keys == member_keys
            for kappa in iter_one_cochains(module):
                direct = not any(derivation_defects(module, kappa).values())
                assert cx.z1_contains(kappa)[0] == direct


class TestZ2:
    def test_zero_is_cocycle(self, module_corpus):
        for module in module_corpus.values():
            ok, _ = cochain_complex(module).z2_contains(zero_factor_system(module))
            assert ok

    def test_trivial_z2_module_counts(self, module_corpus):
        module = module_corpus["trivial_z2"]
        assert cochain_complex(module).z2.order == 16
        assert len(exhaustive_z2_keys(module)) == 16

    def test_extracted_factor_systems_are_members(self, ext_corpus):
        for name in ("z4_carry", "z9", "z4_z4_diag", "parity_twisted", "z3_triv"):
            ext = ext_corpus[name]
            module = extract_module(ext)
            ok, witness = cochain_complex(module).z2_contains(extract_factor_system(ext))
            assert ok, witness

    def test_membership_witness_names_condition(self, module_corpus):
        module = module_corpus["from_z9"]
        fs = zero_factor_system(module)
        tau1 = fs.tau1.copy()
        tau1[1, 1] = 1
        from rrbgroups import FactorSystem
        bad = FactorSystem(tau1, fs.tau2, fs.rho, fs.chi)
        ok, witness = cochain_complex(module).z2_contains(bad)
        assert not ok and witness[0] == "cocycle1"
        assert cocycle_violations(module, bad)[0][0] == "cocycle1"


class TestCoboundaries:
    def test_zero_cochain_maps_to_zero(self, module_corpus):
        for module in module_corpus.values():
            zero = OneCochain([0] * module.A.order, [0] * module.B.order)
            assert cochain_complex(module).coboundary(zero) == zero_factor_system(module)

    def test_trivial_z2_module_all_coboundaries_vanish(self, module_corpus):
        module = module_corpus["trivial_z2"]
        cx = cochain_complex(module)
        for kappa in iter_one_cochains(module):
            assert cx.coboundary(kappa) == zero_factor_system(module)

    def test_matches_direct_formulas_and_lands_in_z2(self, module_corpus):
        for name in ALL_MODULES:
            module = module_corpus[name]
            cx = cochain_complex(module)
            for kappa in itertools.islice(iter_one_cochains(module), 40):
                fs = cx.coboundary(kappa)
                assert fs == coboundary_direct(module, kappa)
                assert cocycle_violations(module, fs) == []

    def test_b2_orders(self, module_corpus):
        assert cochain_complex(module_corpus["trivial_z2"]).b2.order == 1
        # Trivial kernel group forces trivial coboundaries.
        assert cochain_complex(module_corpus["from_z2_z4_image"]).b2.order == 1
        assert cochain_complex(module_corpus["from_z9"]).b2.order == 3

    def test_b2_contained_in_z2(self, module_corpus):
        for name in ALL_MODULES:
            module = module_corpus[name]
            cx = cochain_complex(module)
            z2 = cx.z2
            for vec in itertools.islice(cx.b2.elements(), 50):
                assert z2.contains(vec)


class TestH2:
    def test_trivial_z2_module_is_rank_four_exponent_two(self, module_corpus):
        h2 = cochain_complex(module_corpus["trivial_z2"]).h2
        assert h2.factors == (2, 2, 2, 2)

    def test_one_point_quotient_trivial(self, groups):
        quot = one_point_rrb()
        kern = trivial_rrb(groups["z2"], groups["z2"])
        module = RRBModule(quot, kern, trivial_action(quot, kern))
        assert cochain_complex(module).h2.order == 1

    def test_zero_class_is_identity(self, module_corpus):
        for name in ALL_MODULES:
            module = module_corpus[name]
            cx = cochain_complex(module)
            assert cx.class_of(zero_factor_system(module)).is_zero()

    def test_orders_multiply(self, module_corpus):
        for name in ALL_MODULES:
            module = module_corpus[name]
            cx = cochain_complex(module)
            assert cx.z2.order == cx.b2.order * cx.h2.order

    def test_representative_roundtrip(self, module_corpus):
        for name in ("trivial_z2", "from_z9", "from_parity_zero"):
            module = module_corpus[name]
            cx = cochain_complex(module)
            for cls in cx.h2_classes():
                rep = cx.class_representative(cls)
                assert cocycle_violations(module, rep) == []
                assert cx.class_of(rep) == cls


    def test_dropped_complex_is_collected(self, module_corpus):
        # The cached groups live on the complex, so they do not pin it.
        cx = CochainComplex(module_corpus["from_z9"])
        assert cx.z1.order * cx.h2.order > 0
        ref = weakref.ref(cx)
        del cx
        gc.collect()
        assert ref() is None

    def test_cache_does_not_pin_modules(self, groups):
        # While a complex is held, equal modules share it; once it is
        # dropped, its module can be collected.
        def fresh_module():
            quot = trivial_rrb(groups["z3"], groups["z2"])
            kern = trivial_rrb(groups["z2"], groups["z2"])
            return RRBModule(quot, kern, trivial_action(quot, kern))

        module = fresh_module()
        cx = cochain_complex(module)
        assert cochain_complex(fresh_module()) is cx
        ref = weakref.ref(module)
        del cx, module
        gc.collect()
        assert ref() is None


def ladder_module(n):
    quot = trivial_rrb(cyclic_group(n), cyclic_group(n))
    kern = trivial_rrb(cyclic_group(2), cyclic_group(2))
    return RRBModule(quot, kern, trivial_action(quot, kern))


class TestLadder:
    """The benchmark's h2 ladder: A = B = Z_n, K = L = Z2, everything trivial."""

    ANSWERS = json.loads(LADDER_ANSWERS.read_text())["answers"]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_rung(self, n):
        cx = CochainComplex(ladder_module(n))
        groups = {"z1": cx.z1, "z2": cx.z2, "b2": cx.b2, "h2": cx.h2}
        orders = {name: g.order for name, g in groups.items()}
        if str(n) in self.ANSWERS:
            want = self.ANSWERS[str(n)]
            assert {name: list(g.factors) for name, g in groups.items()} == \
                {name: want[name] for name in groups}
            assert orders == want["orders"]
        # The one-cochains form (Z2)^(2(n-1)), and B2 is their image in Z2.
        assert orders["z1"] * orders["b2"] == 4 ** (n - 1)
        assert orders["h2"] * orders["b2"] == orders["z2"]


def twisted_mu_module(operator):
    """A = Z4 acting on K = Z3 through its parity (mu nontrivial) and B = Z2
    by inversion (nu = sigma), L = Z3 with S = id and f(l, a) = l - mu_a(l);
    the quotient is Z4 -> Z2 with the given operator and beta_1 the
    inversion, so every term of (c1)-(c5) has a nontrivial map."""
    z4, z3, z2 = cyclic_group(4), cyclic_group(3), cyclic_group(2)
    quot = RRBGroup(z4, z2, [[0, 1, 2, 3], [0, 3, 2, 1]], operator)
    inversion = [[0, 1, 2], [0, 2, 1]]
    mu = inversion * 2
    f = [[(l - mu[a][l]) % 3 for a in range(4)] for l in range(3)]
    action = ActionQuadruple(inversion, mu, inversion, f)
    return RRBModule(quot, trivial_rrb(z3, z3, R=[0, 1, 2]), action)


TWISTED_MU = {"twisted_mu_zero": [0, 0, 0, 0], "twisted_mu_parity": [0, 1, 0, 1]}


def assert_same_assembly(cx, ref):
    assert cx.c1_moduli == ref.c1_moduli
    assert cx.c2_moduli == ref.c2_moduli
    assert cx.constraint_moduli == ref.constraint_moduli
    for mine, theirs in ((cx.coboundary_matrix, ref.coboundary_matrix),
                         (cx.constraint_matrix, ref.constraint_matrix)):
        assert mine.dtype == np.int64
        assert mine.shape == theirs.shape
        assert np.array_equal(mine, theirs)


class TestLayout:
    """The array assembly and packing against the per-tuple reference."""

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_matrices_match_reference(self, module_corpus, name):
        module = module_corpus[name]
        assert_same_assembly(cochain_complex(module), ReferenceAssembly(module))

    @pytest.mark.parametrize("name", TWISTED_MU)
    def test_twisted_mu_matrices_match_reference(self, name):
        rng = random.Random(name)
        for module in (twisted_mu_module(TWISTED_MU[name]),
                       relabel_module(twisted_mu_module(TWISTED_MU[name]), rng)):
            cx, ref = CochainComplex(module), ReferenceAssembly(module)
            assert_same_assembly(cx, ref)
            for _ in range(12):
                fs = random_factor_system(module, rng)
                assert cx.z2_contains(fs) == ref.z2_contains(fs)
                assert cx.fs_from_coords(cx.fs_to_coords(fs)) == fs

    @pytest.mark.parametrize("n", range(2, 9))
    def test_ladder_matrices_match_reference(self, n):
        module = ladder_module(n)
        assert_same_assembly(CochainComplex(module), ReferenceAssembly(module))

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_relabeled_matrices_and_witnesses_match_reference(self, module_corpus, name):
        rng = random.Random(name)
        module = relabel_module(module_corpus[name], rng)
        cx, ref = CochainComplex(module), ReferenceAssembly(module)
        assert_same_assembly(cx, ref)
        for _ in range(12):
            fs = random_factor_system(module, rng)
            assert cx.z2_contains(fs) == ref.z2_contains(fs)
            kappa = random_cochain(module, rng)
            assert cx.z1_contains(kappa) == ref.z1_contains(kappa)
        # One nonzero value, in each position in turn: the first failing
        # condition then lies anywhere in the row order, not just in cocycle1.
        for kind, idx, size in fs_positions(module):
            if size == 1:
                continue
            fs = fs_from_key(module, [rng.randrange(1, size) if (k, i) == (kind, idx) else 0
                                      for k, i, _ in fs_positions(module)])
            assert cx.z2_contains(fs) == ref.z2_contains(fs)
        for a in range(1, module.A.order):
            k1 = [0] * module.A.order
            k1[a] = rng.randrange(module.K.order)
            kappa = OneCochain(k1, [0] * module.B.order)
            assert cx.z1_contains(kappa) == ref.z1_contains(kappa)

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_fs_to_coords_follows_fs_key_order(self, module_corpus, name):
        module = module_corpus[name]
        cx = cochain_complex(module)
        rng = random.Random(7)
        for _ in range(10):
            fs = random_factor_system(module, rng)
            want = []
            for (kind, _, _), value in zip(fs_positions(module), fs_key(module, fs)):
                pres = cx.Kp if kind in ("tau1", "rho") else cx.Lp
                want.extend(pres.vec(value))
            assert cx.fs_to_coords(fs).tolist() == want

    @pytest.mark.parametrize("name", ALL_MODULES)
    def test_round_trips(self, module_corpus, name):
        module = module_corpus[name]
        cx = cochain_complex(module)
        rng = random.Random(11)
        for _ in range(10):
            fs = random_factor_system(module, rng)
            assert cx.fs_from_coords(cx.fs_to_coords(fs)) == fs
            kappa = random_cochain(module, rng)
            assert cx.kappa_from_coords(cx.kappa_to_coords(kappa)) == kappa
            # Coordinates anywhere in int64 come back reduced.
            coords = [rng.randrange(-2 ** 63, 2 ** 63) for m in cx.c2_moduli]
            reduced = [c % m for c, m in zip(coords, cx.c2_moduli)]
            assert cx.fs_to_coords(cx.fs_from_coords(coords)).tolist() == reduced
            coords = [rng.randrange(-2 ** 63, 2 ** 63) for m in cx.c1_moduli]
            reduced = [c % m for c, m in zip(coords, cx.c1_moduli)]
            assert cx.kappa_to_coords(cx.kappa_from_coords(coords)).tolist() == reduced

    @pytest.mark.parametrize("name, trivial", [
        ("from_z4_carry", "L"), ("from_z9", "L"), ("from_s3", "L"), ("from_z3_z4_twist", "A")])
    def test_components_of_order_one(self, module_corpus, name, trivial):
        # The tests above run these modules with a component of order 1:
        # its blocks have rank 0 (L) or no nondegenerate tuple (A).
        module = module_corpus[name]
        cx = cochain_complex(module)
        assert getattr(module, trivial).order == 1
        nA, nB, kK, kL = module.A.order - 1, module.B.order - 1, cx.Kp.rank, cx.Lp.rank
        assert (kL == 0) if trivial == "L" else (nA == 0)
        assert len(cx.c1_moduli) == kK * nA + kL * nB
        assert cx.c2_dim == kK * (nA * nA + nA * nB) + kL * (nB * nB + nA)
        assert len(cx.constraint_moduli) == (kK * (nA ** 3 + nA * nB * nB + nA * nA * nB)
                                             + kL * (nB ** 3 + nA * nA))
        assert cx.coboundary_matrix.shape == (cx.c2_dim, len(cx.c1_moduli))
        assert cx.constraint_matrix.shape == (len(cx.constraint_moduli), cx.c2_dim)


class TestClassicalRegression:
    def test_h2_z2_z2(self):
        Z2 = cyclic_group(2)
        assert classical_h2_check(Z2, Z2, [[0, 1], [0, 1]]) == (2,)

    def test_h2_of_trivial_group(self):
        one = cyclic_group(1)
        K = cyclic_group(4)
        assert classical_h2_check(one, K, [[0, 1, 2, 3]]) == ()

    def test_h2_z3_z3(self):
        Z3 = cyclic_group(3)
        assert classical_h2_check(Z3, Z3, [[0, 1, 2]] * 3) == (3,)

    @pytest.mark.parametrize("name, expected", [
        ("z2_on_z3_inverting", ()),
        ("z2_on_z4_inverting", (2,)),
        ("z4_on_z2", (2,)),
        ("klein_on_z2", (2, 2, 2)),
        ("s3_on_z3_by_sign", (3,)),
    ])
    def test_known_values(self, name, expected):
        Z2, Z3, Z4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
        S3 = group_from_permutations(3, [[1, 0, 2], [1, 2, 0]])
        # The sign of S3 is -1 exactly on its elements of order 2.
        sign_on_z3 = [[0, 2, 1] if S3.element_order(a) == 2 else [0, 1, 2]
                      for a in S3.elements()]
        A, K, mu = {
            "z2_on_z3_inverting": (Z2, Z3, [[0, 1, 2], [0, 2, 1]]),
            "z2_on_z4_inverting": (Z2, Z4, [[0, 1, 2, 3], [0, 3, 2, 1]]),
            "z4_on_z2": (Z4, Z2, [[0, 1]] * 4),
            "klein_on_z2": (direct_product(Z2, Z2).group, Z2, [[0, 1]] * 4),
            "s3_on_z3_by_sign": (S3, Z3, sign_on_z3),
        }[name]
        assert classical_h2_check(A, K, mu) == expected

    def test_rejects_a_non_action(self):
        Z2, Z3 = cyclic_group(2), cyclic_group(3)
        with pytest.raises(RRBError) as info:
            classical_h2_check(Z2, Z3, [[0, 1, 2], [0, 1, 1]])
        assert info.value.code == "ModuleInvalid"

    def test_h2_z2_z2_exhaustive_oracle(self):
        # Normalized 2-cochains Z2 x Z2 -> Z2: one free value; every one is a
        # cocycle and only zero is a coboundary.
        Z2 = cyclic_group(2)
        cocycles = []
        for t in range(2):
            tau = {(a1, a2): t if a1 == a2 == 1 else 0 for a1 in range(2) for a2 in range(2)}
            ok = all((tau[a2, a3] + tau[a1, (a2 + a3) % 2]
                      - tau[(a1 + a2) % 2, a3] - tau[a1, a2]) % 2 == 0
                     for a1 in range(2) for a2 in range(2) for a3 in range(2))
            if ok:
                cocycles.append(t)
        coboundaries = set()
        for k in range(2):
            kap = [0, k]
            coboundaries.add(tuple((kap[a2] + kap[a1] - kap[(a1 + a2) % 2]) % 2
                                   for a1 in range(2) for a2 in range(2)))
        assert len(cocycles) == 2 and len(coboundaries) == 1


class TestLinearityAudit:
    def test_defects_are_additive(self, module_corpus):
        rng = random.Random(0)
        for name in ("trivial_z2", "trivial_z3", "from_z4_z4_diag", "from_parity_zero", "from_z9_mul4", "from_z4_klein_f"):
            module = module_corpus[name]
            K, L = module.K, module.L
            for _ in range(6):
                x = random_factor_system(module, rng)
                y = random_factor_system(module, rng)
                from oracles import add_fs
                dx = cocycle_defects(module, x)
                dy = cocycle_defects(module, y)
                dxy = cocycle_defects(module, add_fs(module, x, y))
                for key, defect in dxy.items():
                    grp = K if key[0] in ("cocycle1", "cocycle3", "cocycle4") else L
                    assert defect == grp.mul(dx[key], dy[key])

    def test_linear_membership_agrees_with_direct(self, module_corpus):
        rng = random.Random(1)
        for name in ALL_MODULES:
            module = module_corpus[name]
            cx = cochain_complex(module)
            for _ in range(8):
                fs = random_factor_system(module, rng)
                assert cx.z2_contains(fs)[0] == (cocycle_violations(module, fs) == [])

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=15, deadline=None)
    def test_difference_of_cocycles_is_cocycle(self, seed):
        rng = random.Random(seed)
        z2g, z4 = cyclic_group(2), cyclic_group(4)
        parity = RRBGroup(z4, z2g, [[0, 1, 2, 3], [0, 3, 2, 1]], [0, 1, 0, 1])
        kern = trivial_rrb(z2g, z2g, R=[0, 1])
        module = RRBModule(parity, kern, trivial_action(parity, kern))
        cx = cochain_complex(module)
        z2 = list(itertools.islice(cx.z2_elements(), 16))
        x, y = rng.choice(z2), rng.choice(z2)
        assert cocycle_violations(module, sub_fs(module, x, y)) == []
