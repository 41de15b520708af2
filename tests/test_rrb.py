"""Operator-group structures: validation, quotients, centers, enumeration."""

import functools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrbgroups import (
    GroupError,
    GroupHom,
    RRBError,
    RRBGroup,
    RRBIdeal,
    RRBMorphism,
    all_isomorphisms,
    automorphism_group,
    center,
    cyclic_group,
    descended_operation,
    direct_product,
    direct_product_rrb,
    enumerate_rrb_operators,
    identity_hom,
    identity_morphism,
    is_bijective,
    is_homomorphism,
    is_ideal,
    is_subrrb,
    is_trivial,
    morphism_image,
    morphism_kernel,
    one_point_rrb,
    quotient_rrb,
    restrict,
    rrb_automorphism_group,
    trivial_rrb,
    validate_morphism,
)
from rrbgroups.groups import FiniteGroup, group_from_permutations, subgroup_closure
from rrbgroups.rrb import check_automorphisms, descended_table, rrb_automorphism_images
from rrbgroups.serialize import load_extension, load_rrb
from oracles import (automorphism_pairs, center_loop, descended_loop, direct_product_rrb_loop,
                     ideal_loop, morphism_violation, naive_operators, quotient_loop,
                     quotient_rrb_loop, restrict_loop, rrb_violation, subrrb_loop)

INV3 = [[0, 1, 2], [0, 2, 1]]
FIXTURE_DIR = Path(__file__).parent.parent / "src" / "rrbgroups" / "fixtures"
OPERATORS_CATALOGUE = Path(__file__).parent.parent / "perfbench" / "catalogue" / "operators.json"


def _structure_fixtures() -> dict:
    """Every valid structure shipped as a fixture: the rrb files and the
    kernel, total and quotient of each extension file."""
    out = {path.stem: load_rrb(str(path)) for path in sorted(FIXTURE_DIR.glob("rrb_*.json"))
           if path.stem != "rrb_bad_axiom"}
    for path in sorted(FIXTURE_DIR.glob("ext_*.json")):
        ext = load_extension(str(path))
        for part in ("kernel", "total", "quotient"):
            out[f"{path.stem}.{part}"] = getattr(ext, part)
    return out


def _d4_conjugation() -> RRBGroup:
    """D4 acting on itself by conjugation, with R(h) = h^-1."""
    d4 = group_from_permutations(4, [[1, 2, 3, 0], [0, 3, 2, 1]], name="D4")
    phi = [[d4.mul(d4.mul(g, h), d4.inv(g)) for h in d4.elements()] for g in d4.elements()]
    return RRBGroup(d4, d4, phi, [d4.inv(h) for h in d4.elements()])


def _z2_cubed_trivial() -> RRBGroup:
    z2 = cyclic_group(2)
    cube = direct_product(direct_product(z2, z2).group, z2).group
    return trivial_rrb(cube, cube)


STRUCTURES = _structure_fixtures()
SEARCH_CASES = {**STRUCTURES, "d4_conjugation": _d4_conjugation(),
                "z2_cubed_trivial": _z2_cubed_trivial()}


def _operators_catalogue() -> dict:
    with open(OPERATORS_CATALOGUE, encoding="utf-8") as fh:
        return json.load(fh)


def _relabel(H, G, phi, R, p, q):
    """(H, G, phi, R) with h renamed p[h] and g renamed q[g]."""
    def table(K, perm):
        out = np.empty((K.order, K.order), dtype=np.int64)
        out[np.ix_(perm, perm)] = perm[K.table]
        return FiniteGroup(out)
    p, q = np.asarray(p), np.asarray(q)
    new_phi = np.empty((G.order, H.order), dtype=np.int64)
    new_phi[np.ix_(q, p)] = p[np.asarray(phi)]
    new_R = np.empty(H.order, dtype=np.int64)
    new_R[p] = q[np.asarray(R)]
    return table(H, p), table(G, q), new_phi.tolist(), new_R.tolist()


def _relabel_draw(data, H, G, phi, R):
    """A random relabeling that keeps each identity at 0."""
    p = [0, *data.draw(st.permutations(range(1, H.order)))] if H.order > 1 else [0]
    q = [0, *data.draw(st.permutations(range(1, G.order)))] if G.order > 1 else [0]
    return _relabel(H, G, phi, R, p, q)


# Small enough for the unrestricted search over every map H -> G.
NAIVE_CASES = {
    **{name: (r.H, r.G, r.phi.tolist()) for name, r in SEARCH_CASES.items()},
    **{e["name"]: (FiniteGroup(e["H"]["table"]), FiniteGroup(e["G"]["table"]), e["phi"])
       for e in _operators_catalogue()["enumerate"]},
}
NAIVE_CASES = {name: case for name, case in NAIVE_CASES.items()
               if case[1].order ** case[0].order <= 20_000}


@functools.lru_cache(maxsize=None)
def _auts(G: FiniteGroup):
    return automorphism_group(G)


def rrb_isomorphic(r1: RRBGroup, r2: RRBGroup) -> bool:
    """Brute-force isomorphism search between two small structures."""
    if r1.H.order != r2.H.order or r1.G.order != r2.G.order:
        return False
    for psi in all_isomorphisms(r1.H, r2.H):
        for eta in all_isomorphisms(r1.G, r2.G):
            try:
                validate_morphism(r1, r2, psi.image, eta.image)
                return True
            except RRBError:
                continue
    return False


class TestValidate:
    def test_trivial_action_identity_operator(self, groups):
        r = trivial_rrb(groups["z2"], groups["z2"], R=[0, 1])
        assert is_trivial(r) and is_bijective(r)

    def test_zero_operator_always_works(self, groups):
        inv4 = [0, 3, 2, 1]
        r = RRBGroup(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4], [0, 0, 0, 0])
        assert not is_bijective(r)

    def test_z3_z2_inversion_candidate_rejected(self, groups):
        with pytest.raises(RRBError) as err:
            RRBGroup(groups["z3"], groups["z2"], INV3, [0, 1, 1])
        assert err.value.code == "RRBAxiomFails"
        # The full valid set over all nine maps, by brute force.
        assert naive_operators(groups["z3"], groups["z2"], INV3) == [[0, 0, 0]]

    def test_operator_identity_forced(self, groups):
        for phi, R in [([[0, 1], [0, 1]], [1, 0]), ([[0, 1], [0, 1]], [1, 1])]:
            with pytest.raises(RRBError):
                RRBGroup(groups["z2"], groups["z2"], phi, R)

    def test_phi_must_be_action(self, groups):
        inv4 = [0, 3, 2, 1]
        with pytest.raises(RRBError) as err:
            # phi[1] has order 2 but phi[1*1] = phi[0] would need phi[1]^2.
            RRBGroup(groups["z4"], groups["z4"],
                     [[0, 1, 2, 3], inv4, inv4, inv4], [0, 0, 0, 0])
        assert err.value.code == "PhiNotAction"

    def test_phi_rows_must_be_automorphisms(self, groups):
        with pytest.raises(RRBError) as err:
            RRBGroup(groups["z3"], groups["z2"], [[0, 1, 2], [0, 0, 0]], [0, 0, 0])
        assert err.value.code == "PhiNotAutomorphism"

    def test_operator_fixes_identity_on_corpus(self, ext_corpus):
        for ext in ext_corpus.values():
            for rrb in (ext.kernel, ext.total, ext.quotient):
                assert rrb.R[0] == 0


def _check_structure_against_loops(H, G, phi, R):
    """RRBGroup raises the oracle's first (code, message, witness), or accepts."""
    expected = rrb_violation(H, G, phi, R)
    if expected is None:
        RRBGroup(H, G, phi, R)
        return
    with pytest.raises(RRBError) as err:
        RRBGroup(H, G, phi, R)
    code, message, witness = expected
    assert (err.value.code, str(err.value), err.value.witness) == (
        code, f"{code}: {message}", witness)
    assert all(type(x) is int for x in err.value.witness)


class TestStructureChecksMatchLoops:
    """The gathered action law and operator axiom against the element loops."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_corrupted_structures(self, data):
        rrb = SEARCH_CASES[data.draw(st.sampled_from(sorted(SEARCH_CASES)))]
        phi, R = rrb.phi.tolist(), rrb.R.tolist()
        nH, nG = rrb.H.order, rrb.G.order
        kind = data.draw(st.sampled_from(["none", "phi_entries", "phi_row", "R_entry",
                                          "R_swap"]))
        if kind == "phi_entries":
            g, a, b = (data.draw(st.integers(0, n - 1)) for n in (nG, nH, nH))
            phi[g][a], phi[g][b] = phi[g][b], phi[g][a]
        elif kind == "phi_row":
            # Every row stays an automorphism, so the action law is what fails.
            g = data.draw(st.integers(0, nG - 1))
            phi[g] = data.draw(st.sampled_from(_auts(rrb.H))).image.tolist()
        elif kind == "R_entry":
            R[data.draw(st.integers(0, nH - 1))] = data.draw(st.integers(0, nG - 1))
        elif kind == "R_swap":
            a, b = (data.draw(st.integers(0, nH - 1)) for _ in range(2))
            R[a], R[b] = R[b], R[a]
        _check_structure_against_loops(*_relabel_draw(data, rrb.H, rrb.G, phi, R))

    @pytest.mark.parametrize("name", [
        "structure_Z4xZ4_inv", "structure_Z2^6_parity", "structure_D16",
        "structure_Z2^5_Z2", "structure_Z4xZ4_broken_R", "structure_Z2^6_broken_phi"])
    def test_catalogue_structure_payloads(self, name):
        entry = next(e for e in _operators_catalogue()["validate"] if e["name"] == name)
        payload = entry["payload"]
        H, G = FiniteGroup(payload["H"]["table"]), FiniteGroup(payload["G"]["table"])
        expected = rrb_violation(H, G, payload["phi"], payload["R"])
        assert (expected[0] if expected else None) == entry["code"]
        _check_structure_against_loops(H, G, payload["phi"], payload["R"])


class TestDescendedOperation:
    def test_trivial_action_keeps_multiplication(self, groups):
        r = trivial_rrb(groups["z4"], groups["z2"], R=[0, 0, 0, 0])
        assert descended_operation(r) == groups["z4"]

    def test_zero_operator_keeps_multiplication(self, groups):
        inv4 = [0, 3, 2, 1]
        r = RRBGroup(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4], [0, 0, 0, 0])
        assert descended_operation(r) == groups["z4"]

    def test_parity_operator_by_direct_evaluation(self, groups):
        Z4, Z2 = groups["z4"], groups["z2"]
        inv4 = [0, 3, 2, 1]
        phi = np.asarray([[0, 1, 2, 3], inv4])
        r = RRBGroup(Z4, Z2, phi, [0, 1, 0, 1])
        desc = descended_operation(r)
        for h1 in Z4.elements():
            for h2 in Z4.elements():
                assert desc.mul(h1, h2) == Z4.mul(h1, int(phi[r.R[h1], h2]))
        assert is_homomorphism(r.R, desc, Z2)

    def test_descended_is_group_on_corpus(self, ext_corpus):
        for ext in ext_corpus.values():
            for rrb in (ext.kernel, ext.total, ext.quotient):
                desc = descended_operation(rrb)
                assert is_homomorphism(rrb.R, desc, rrb.G)

    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_table_matches_loops(self, name):
        rrb = SEARCH_CASES[name]
        assert descended_table(rrb).tolist() == descended_loop(rrb)


class TestMorphisms:
    def test_identity_pair(self, ext_corpus):
        for ext in ext_corpus.values():
            m = identity_morphism(ext.total)
            assert m.is_bijective()

    def test_zero_into_one_point(self, groups):
        r = trivial_rrb(groups["z2"], groups["z2"])
        target = one_point_rrb()
        m = validate_morphism(r, target, [0, 0], [0, 0])
        assert morphism_kernel(m) == RRBIdeal((0, 1), (0, 1))

    def test_pairs_between_trivial_structures(self, groups):
        # Between trivial structures, validity is exactly eta R = R' psi.
        Z2 = groups["z2"]
        r1 = trivial_rrb(Z2, Z2, R=[0, 1])
        r2 = trivial_rrb(Z2, Z2, R=[0, 0])
        homs = [[0, 0], [0, 1]]
        valid = []
        for psi in homs:
            for eta in homs:
                expected = all(eta[r1.R[h]] == r2.R[psi[h]] for h in Z2.elements())
                try:
                    validate_morphism(r1, r2, psi, eta)
                    got = True
                except RRBError:
                    got = False
                assert got == expected
                if got:
                    valid.append((tuple(psi), tuple(eta)))
        assert ((0, 0), (0, 0)) in valid

    def test_kernel_of_quotient_projection_is_the_ideal(self, groups):
        inv4 = [0, 3, 2, 1]
        r = RRBGroup(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4], [0, 0, 0, 0])
        ideal = RRBIdeal((0, 2), (0,))
        q = quotient_rrb(r, ideal)
        assert morphism_kernel(q.projection) == ideal

    def test_image_of_identity(self, ext_corpus):
        ext = ext_corpus["z9"]
        img = morphism_image(identity_morphism(ext.total))
        assert img == (tuple(ext.total.H.elements()), tuple(ext.total.G.elements()))

    def test_image_of_inclusion_is_subrrb(self, ext_corpus):
        for ext in ext_corpus.values():
            K_img, L_img = morphism_image(ext.incl)
            ok, _ = is_subrrb(ext.total, K_img, L_img)
            assert ok


def _check_against_loops(dom: RRBGroup, cod: RRBGroup, psi: GroupHom, eta: GroupHom):
    """The constructor raises the oracle's first (code, witness), or accepts."""
    expected = morphism_violation(dom, cod, psi.image, eta.image)
    if expected is None:
        RRBMorphism(dom, cod, psi, eta)
        return
    with pytest.raises(RRBError) as err:
        RRBMorphism(dom, cod, psi, eta)
    assert (err.value.code, err.value.witness) == expected


class TestMorphismChecks:
    """The array checks of RRBMorphism against the element loops."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_automorphism_pairs_match_element_loops(self, data):
        rrb = SEARCH_CASES[data.draw(st.sampled_from(sorted(SEARCH_CASES)))]
        psi = data.draw(st.sampled_from(_auts(rrb.H)))
        eta = data.draw(st.sampled_from(_auts(rrb.G)))
        _check_against_loops(rrb, rrb, psi, eta)

    def test_stack_names_the_first_pair_that_breaks_multiplication(self):
        # On H, the identity, squaring and the identity with 1 and 2 swapped;
        # the identity on G.  The witness is the first (x, y), in row-major
        # order, of the first row that breaks image[x*y] == image[x]*image[y].
        raised = 0
        for rrb in SEARCH_CASES.values():
            H, n = rrb.H, rrb.H.order
            swap = list(range(n))
            if n > 2:
                swap[1], swap[2] = 2, 1
            psi = np.array([list(range(n)), [H.mul(x, x) for x in range(n)], swap])
            eta = np.array([list(range(rrb.G.order))] * 3)
            failing = [(x, y) for img in psi.tolist() for x in range(n) for y in range(n)
                       if img[H.mul(x, y)] != H.mul(img[x], img[y])]
            if not failing:
                continue
            raised += 1
            with pytest.raises(GroupError) as err:
                check_automorphisms(rrb, psi, eta)
            assert err.value.code == "NotHomomorphism" and err.value.witness == failing[0]
            assert str(err.value).endswith(f"at (x, y) = {failing[0]}")
        assert raised >= 5

    def test_stack_names_the_failing_map_and_row(self):
        # Row 0 is the identity pair; row 1 breaks one map of the pair.
        z3 = cyclic_group(3)
        rrb = trivial_rrb(z3, z3)
        ident, inv, bad, zero = [0, 1, 2], [0, 2, 1], [0, 1, 1], [0, 0, 0]
        cases = [
            ([ident, bad], [ident, ident], "NotHomomorphism", (1, 1),
             "psi on H, row 1, does not respect multiplication at (x, y) = (1, 1)"),
            ([ident, inv], [ident, bad], "NotHomomorphism", (1, 1),
             "eta on G, row 1, does not respect multiplication at (x, y) = (1, 1)"),
            ([ident, zero], [ident, inv], "NotInjective", (1,),
             "psi on H, row 1: entry 1 = 0 repeats an earlier entry"),
            ([ident, inv], [ident, zero], "NotInjective", (1,),
             "eta on G, row 1: entry 1 = 0 repeats an earlier entry"),
        ]
        for psi, eta, code, witness, message in cases:
            with pytest.raises(GroupError) as err:
                check_automorphisms(rrb, np.array(psi), np.array(eta))
            assert (err.value.code, err.value.witness) == (code, witness)
            assert str(err.value) == f"{code}: {message}"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_arbitrary_maps_match_element_loops(self, data):
        # Maps that need not be homomorphisms fail at many places at once,
        # so this pins which witness comes first.
        names = sorted(SEARCH_CASES)
        dom = SEARCH_CASES[data.draw(st.sampled_from(names))]
        cod = SEARCH_CASES[data.draw(st.sampled_from(names))]
        psi = data.draw(st.lists(st.integers(0, cod.H.order - 1),
                                 min_size=dom.H.order, max_size=dom.H.order))
        eta = data.draw(st.lists(st.integers(0, cod.G.order - 1),
                                 min_size=dom.G.order, max_size=dom.G.order))
        _check_against_loops(dom, cod, GroupHom(dom.H, cod.H, psi, check=False),
                             GroupHom(dom.G, cod.G, eta, check=False))

    @pytest.mark.parametrize("dom,cod,psi,eta,witness", [
        ("ext_z9_mul4.total", "ext_z9_mul4.quotient",
         [1, 0, 2, 1, 0, 0, 0, 1, 0], [0, 0, 0], (1, 2)),
        ("d4_conjugation", "ext_s3.kernel",
         [2, 2, 0, 2, 0, 2, 0, 0], [0] * 8, (1, 3)),
    ])
    def test_equivariance_witness_is_first_in_row_major_order(self, dom, cod, psi, eta,
                                                               witness):
        # R-compatible maps whose first failing (g, h) differs when scanned
        # with h outermost, which random draws rarely produce.
        dom, cod = SEARCH_CASES[dom], SEARCH_CASES[cod]
        assert morphism_violation(dom, cod, psi, eta) == ("EquivarianceFails", witness)
        _check_against_loops(dom, cod, GroupHom(dom.H, cod.H, psi, check=False),
                             GroupHom(dom.G, cod.G, eta, check=False))

    def test_length_mismatch(self, groups):
        z2, z3, z4 = groups["z2"], groups["z3"], groups["z4"]
        r22, r24, r32 = trivial_rrb(z2, z2), trivial_rrb(z2, z4), trivial_rrb(z3, z2)
        cases = [
            (r22, r32, identity_hom(z2), identity_hom(z2), "psi"),  # psi codomain
            (r32, r22, identity_hom(z2), identity_hom(z2), "psi"),  # psi domain
            (r22, r24, identity_hom(z2), identity_hom(z2), "eta"),  # eta codomain
            (r24, r22, identity_hom(z2), identity_hom(z2), "eta"),  # eta domain
        ]
        for dom, cod, psi, eta, part in cases:
            with pytest.raises(RRBError) as err:
                RRBMorphism(dom, cod, psi, eta)
            assert err.value.code == "LengthMismatch"
            assert str(err.value).startswith(f"LengthMismatch: {part} ")

    def test_equal_groups_need_not_be_the_same_object(self, groups):
        z2 = groups["z2"]
        copy = FiniteGroup(z2.table.tolist())
        m = RRBMorphism(trivial_rrb(z2, z2), trivial_rrb(copy, copy),
                        identity_hom(z2), identity_hom(z2))
        assert m.is_bijective()


class TestIdealsAndQuotients:
    def test_trivial_and_full_ideals(self, ext_corpus):
        for ext in ext_corpus.values():
            rrb = ext.total
            ok, _ = is_ideal(rrb, (0,), (0,))
            assert ok
            ok, _ = is_ideal(rrb, tuple(rrb.H.elements()), tuple(rrb.G.elements()))
            assert ok

    def test_center_is_ideal_everywhere(self, ext_corpus):
        for ext in ext_corpus.values():
            for rrb in (ext.kernel, ext.total, ext.quotient):
                c = center(rrb)
                ok, why = is_ideal(rrb, c.K_elements, c.L_elements)
                assert ok, why

    def test_center_trivial_action_abelian(self, groups):
        r = trivial_rrb(groups["z4"], groups["z2"])
        assert center(r) == RRBIdeal((0, 1, 2, 3), (0, 1))

    def test_center_faithful_action_centerless_base(self, groups):
        # Conjugation by a transposition on S3: faithful, trivial center.
        S3, Z2 = groups["s3"], groups["z2"]
        t = next(x for x in S3.elements() if S3.element_order(x) == 2)
        conj = [S3.conj(h, t) for h in S3.elements()]
        r = RRBGroup(S3, Z2, [list(S3.elements()), conj], [0] * 6)
        assert center(r) == RRBIdeal((0,), (0,))

    def test_center_membership_elementwise(self, groups):
        inv4 = [0, 3, 2, 1]
        r = RRBGroup(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4], [0, 1, 0, 1])
        c = center(r)
        for h in r.H.elements():
            central = all(r.H.mul(h, x) == r.H.mul(x, h) for x in r.H.elements())
            fixed = all(r.act(g, h) == h for g in r.G.elements())
            acts_triv = all(r.act(int(r.R[h]), x) == x for x in r.H.elements())
            assert (h in c.K_elements) == (central and fixed and acts_triv)

    def test_quotient_by_trivial_ideal_is_isomorphic(self, groups):
        inv4 = [0, 3, 2, 1]
        r = RRBGroup(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4], [0, 1, 0, 1])
        q = quotient_rrb(r, RRBIdeal((0,), (0,)))
        assert rrb_isomorphic(q.rrb, r)

    def test_quotient_by_everything_is_one_point(self, groups):
        r = trivial_rrb(groups["z4"], groups["z2"])
        q = quotient_rrb(r, RRBIdeal((0, 1, 2, 3), (0, 1)))
        assert q.rrb.H.order == 1 and q.rrb.G.order == 1

    def test_quotient_by_center_revalidates(self, groups):
        inv4 = [0, 3, 2, 1]
        r = RRBGroup(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4], [0, 1, 0, 1])
        q = quotient_rrb(r, center(r))
        assert isinstance(q.rrb, RRBGroup)

    def test_not_ideal_rejected(self, groups):
        S3 = groups["s3"]
        r = trivial_rrb(S3, groups["z2"])
        t = next(x for x in S3.elements() if S3.element_order(x) == 2)
        with pytest.raises(RRBError) as err:
            quotient_rrb(r, RRBIdeal((0, t), (0,)))
        assert err.value.code == "NotIdeal"

    def test_first_isomorphism_on_corpus(self, ext_corpus):
        for name in ("z4_carry", "z9", "s3", "z4_z4_diag", "z2_z4_kernel"):
            ext = ext_corpus[name]
            m = ext.proj
            q = quotient_rrb(ext.total, morphism_kernel(m))
            K_img, L_img = morphism_image(m)
            image_rrb, _ = restrict(m.codomain, K_img, L_img)
            assert rrb_isomorphic(q.rrb, image_rrb)


def _outcome(check, *args):
    try:
        return "returns", check(*args)
    except RRBError as exc:
        return "raises", exc.code, str(exc)


def _subgroups(G: FiniteGroup) -> list:
    """The subgroups generated by one or two elements."""
    return sorted({tuple(subgroup_closure(G, [a, b]))
                   for a in G.elements() for b in G.elements() if a <= b})


class TestSubStructuresMatchLoops:
    """Sub-structure, ideal, center and quotient checks against the element
    loops, subsets scanned in ascending order."""

    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_subrrb_and_ideal(self, name):
        rrb = SEARCH_CASES[name]
        rng = np.random.default_rng(len(name))
        Ks, Ls = _subgroups(rrb.H), _subgroups(rrb.G)
        pairs = [(K, L) for K in Ks for L in Ls]
        # Subsets that are not subgroups raise NotSubgroup on either side.
        pairs += [((0, int(rng.integers(rrb.H.order)), int(rng.integers(rrb.H.order))), Ls[-1]),
                  (Ks[-1], (0, int(rng.integers(rrb.G.order)), rrb.G.order))]
        verdicts = set()
        for K, L in pairs:
            assert _outcome(is_subrrb, rrb, K, L) == _outcome(subrrb_loop, rrb, K, L)
            got = _outcome(is_ideal, rrb, K, L)
            assert got == _outcome(ideal_loop, rrb, K, L)
            verdicts.add(got[1][0] if got[0] == "returns" else got[1])
        assert True in verdicts

    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_restrictions(self, name):
        rrb = SEARCH_CASES[name]
        for K in _subgroups(rrb.H):
            for L in _subgroups(rrb.G):
                if not is_subrrb(rrb, K, L)[0]:
                    continue
                sub, incl = restrict(rrb, K, L)
                assert (sub.H.table.tolist(), sub.G.table.tolist(), sub.phi.tolist(),
                        sub.R.tolist()) == restrict_loop(rrb, K, L)
                assert (incl.psi.image.tolist(), incl.eta.image.tolist()) == (list(K), list(L))

    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_center_and_quotients(self, name):
        rrb = SEARCH_CASES[name]
        assert center(rrb) == RRBIdeal(*center_loop(rrb))
        ideals = {center(rrb), RRBIdeal((0,), (0,)),
                  RRBIdeal(tuple(rrb.H.elements()), tuple(rrb.G.elements()))}
        ideals |= {RRBIdeal(K, L) for K in _subgroups(rrb.H) for L in _subgroups(rrb.G)
                   if is_ideal(rrb, K, L)[0]}
        for ideal in ideals:
            q = quotient_rrb(rrb, ideal)
            projH, sectionH, tableH = quotient_loop(rrb.H, ideal.K_elements)
            projG, sectionG, tableG = quotient_loop(rrb.G, ideal.L_elements)
            assert (q.quotient_H.group.table.tolist(), q.quotient_G.group.table.tolist()) == (
                tableH, tableG)
            phi_bar, R_bar, ill_defined = quotient_rrb_loop(rrb, projH, sectionH, projG, sectionG)
            assert ill_defined is None
            assert (q.rrb.phi.tolist(), q.rrb.R.tolist()) == (phi_bar, R_bar)


class TestProducts:
    @pytest.mark.parametrize("first", sorted(STRUCTURES))
    def test_product_matches_the_loop(self, first):
        rrb1 = STRUCTURES[first]
        for rrb2 in STRUCTURES.values():
            p = direct_product_rrb(rrb1, rrb2)
            assert (p.H, p.G) == (direct_product(rrb1.H, rrb2.H).group,
                                  direct_product(rrb1.G, rrb2.G).group)
            assert (p.phi.tolist(), p.R.tolist()) == direct_product_rrb_loop(rrb1, rrb2)

    def test_trivial_times_trivial(self, groups):
        p = direct_product_rrb(trivial_rrb(groups["z2"], groups["z2"]),
                               trivial_rrb(groups["z2"], groups["z2"]))
        assert is_trivial(p)

    def test_product_with_one_point(self, groups):
        inv4 = [0, 3, 2, 1]
        r = RRBGroup(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4], [0, 1, 0, 1])
        p = direct_product_rrb(r, one_point_rrb())
        assert rrb_isomorphic(p, r)

    def test_product_of_distinct_structures_validates(self, groups):
        inv4 = [0, 3, 2, 1]
        r1 = RRBGroup(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4], [0, 1, 0, 1])
        r2 = trivial_rrb(groups["z2"], groups["z2"], R=[0, 1])
        p = direct_product_rrb(r1, r2)
        assert p.H.order == 8 and p.G.order == 4


class TestAutomorphismGroups:
    def test_trivial_z2_structure(self, groups):
        r = trivial_rrb(groups["z2"], groups["z2"])
        auts = rrb_automorphism_group(r)
        assert len(auts) == 1

    def test_identity_always_present(self, ext_corpus):
        for ext in ext_corpus.values():
            auts = rrb_automorphism_group(ext.quotient)
            keys = {(tuple(a.psi.image.tolist()), tuple(a.eta.image.tolist())) for a in auts}
            assert (tuple(ext.quotient.H.elements()), tuple(ext.quotient.G.elements())) in keys

    def test_z3_z2_inversion_filter(self, groups):
        r = RRBGroup(groups["z3"], groups["z2"], INV3, [0, 0, 0])
        auts = rrb_automorphism_group(r)
        # Oracle: filter the two candidate pairs by equivariance directly.
        expected = []
        for psi in ([0, 1, 2], [0, 2, 1]):
            ok = all(psi[r.act(g, h)] == r.act(g, psi[h])
                     for g in groups["z2"].elements() for h in groups["z3"].elements())
            if ok:
                expected.append(psi)
        assert len(auts) == len(expected) == 2

    @pytest.mark.parametrize("name", sorted(SEARCH_CASES))
    def test_matches_filtered_product(self, name):
        rrb = SEARCH_CASES[name]
        got = [(tuple(m.psi.image.tolist()), tuple(m.eta.image.tolist()))
               for m in rrb_automorphism_group(rrb)]
        assert got == automorphism_pairs(rrb)

    def test_candidate_pair_cap(self):
        # (Z2^3, Z2^3) checks 168^2 candidate pairs, 451,584 cells of rows,
        # though its (g, h) gather grid has 1,806,336; (Z2^4, Z2^4), with
        # 20,160^2, is refused before the check of any pair is built.
        psi, eta = rrb_automorphism_images(SEARCH_CASES["z2_cubed_trivial"])
        assert len(psi) == len(eta) == 28224
        z2 = cyclic_group(2)
        v4 = direct_product(z2, z2).group
        z2_4 = direct_product(v4, v4).group
        with pytest.raises(GroupError) as err:
            rrb_automorphism_images(trivial_rrb(z2_4, z2_4))
        assert err.value.code == "OrderTooLarge"
        assert "a stack of 406425600 candidate automorphism pairs" in str(err.value)

    def test_closed_under_composition_and_inverse(self, groups):
        inv4 = [0, 3, 2, 1]
        r = RRBGroup(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4], [0, 1, 0, 1])
        auts = rrb_automorphism_group(r)
        keys = {(tuple(a.psi.image.tolist()), tuple(a.eta.image.tolist())) for a in auts}
        for a in auts:
            inv = a.inverse()
            assert (tuple(inv.psi.image.tolist()), tuple(inv.eta.image.tolist())) in keys
            for b in auts:
                c = a.compose(b)
                assert (tuple(c.psi.image.tolist()), tuple(c.eta.image.tolist())) in keys


class TestOperatorEnumeration:
    def test_trivial_z2_gives_homomorphisms(self, groups):
        ops = enumerate_rrb_operators(groups["z2"], groups["z2"], [[0, 1], [0, 1]])
        assert [o.tolist() for o in ops] == [[0, 0], [0, 1]]

    def test_zero_operator_always_found(self, groups):
        inv4 = [0, 3, 2, 1]
        ops = enumerate_rrb_operators(groups["z4"], groups["z2"], [[0, 1, 2, 3], inv4])
        assert [0, 0, 0, 0] in [o.tolist() for o in ops]
        assert [0, 1, 0, 1] in [o.tolist() for o in ops]

    @pytest.mark.parametrize("H_name,G_name,phi", [
        ("z3", "z2", INV3),
        ("z2", "z2", [[0, 1], [0, 1]]),
        ("z4", "z2", [[0, 1, 2, 3], [0, 3, 2, 1]]),
        ("z2", "z4", [[0, 1]] * 4),
        ("z3", "z3", [[0, 1, 2]] * 3),
    ])
    def test_matches_unpruned_bruteforce(self, groups, H_name, G_name, phi):
        H, G = groups[H_name], groups[G_name]
        got = [o.tolist() for o in enumerate_rrb_operators(H, G, phi)]
        assert got == naive_operators(H, G, phi)

    def test_sweep_every_action_of_small_pairs(self, groups):
        # For each (H, G) pair, enumerate every action homomorphism by brute
        # force and compare the pruned operator search against the naive one.
        from rrbgroups import automorphism_group
        from rrbgroups.groups import direct_product
        import itertools as it

        v4 = direct_product(groups["z2"], groups["z2"]).group
        pairs = [(groups["z2"], groups["z2"]), (groups["z3"], groups["z2"]),
                 (groups["z4"], groups["z2"]), (v4, groups["z2"]),
                 (groups["z2"], groups["z3"]), (groups["z3"], groups["z3"]),
                 (groups["z2"], groups["z4"])]
        total_actions = 0
        for H, G in pairs:
            auts = automorphism_group(H)
            ident = tuple(range(H.order))
            for choice in it.product(range(len(auts)), repeat=G.order - 1):
                images = [ident] + [tuple(auts[i].image.tolist()) for i in choice]
                table = {tuple(a.image.tolist()): i for i, a in enumerate(auts)}
                ok = True
                for g1 in G.elements():
                    for g2 in G.elements():
                        comp = tuple(images[g1][x] for x in images[g2])
                        if comp != images[G.mul(g1, g2)]:
                            ok = False
                if not ok:
                    continue
                phi = [list(row) for row in images]
                got = [o.tolist() for o in enumerate_rrb_operators(H, G, phi)]
                assert got == naive_operators(H, G, phi), (H.name, G.name, phi)
                total_actions += 1
        assert total_actions >= 12

    def test_budget_exceeded(self, groups):
        with pytest.raises(RRBError) as err:
            enumerate_rrb_operators(groups["z4"], groups["z4"],
                                    [[0, 1, 2, 3]] * 4, budget=3)
        assert err.value.code == "BudgetExceeded"

    def test_budget_counts_closure_products(self, groups):
        # Each of the four branches R(1) = g closes {(h, hg)} in 4 + 6 + 8
        # products: 72 in all, so a budget of 71 is too small.
        z4, phi = groups["z4"], [[0, 1, 2, 3]] * 4
        assert len(enumerate_rrb_operators(z4, z4, phi, budget=72)) == 4
        with pytest.raises(RRBError) as err:
            enumerate_rrb_operators(z4, z4, phi, budget=71)
        assert err.value.code == "BudgetExceeded"

    def test_catalogue_operator_lists(self):
        entries = _operators_catalogue()["enumerate"]
        assert len(entries) == 13
        for e in entries:
            H, G = FiniteGroup(e["H"]["table"]), FiniteGroup(e["G"]["table"])
            got = [o.tolist() for o in enumerate_rrb_operators(H, G, e["phi"])]
            assert got == e["operators"], e["name"]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_relabeled_corpus_matches_naive(self, data):
        # The search order follows the labels, so relabeling changes which
        # values are branched on and which are forced.
        H, G, phi = NAIVE_CASES[data.draw(st.sampled_from(sorted(NAIVE_CASES)))]
        H, G, phi, _ = _relabel_draw(data, H, G, phi, [0] * H.order)
        got = [o.tolist() for o in enumerate_rrb_operators(H, G, phi)]
        assert got == naive_operators(H, G, phi)
