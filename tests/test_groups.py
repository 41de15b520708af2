"""Cayley-table groups: validation, homs, automorphisms, quotients, products."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrbgroups import (
    FiniteGroup,
    GroupError,
    GroupHom,
    all_isomorphisms,
    automorphism_group,
    cyclic_group,
    direct_product,
    find_isomorphism,
    identity_hom,
    is_homomorphism,
    is_normal,
    is_subgroup,
    isomorphism_images,
    quotient_group,
    subgroup_closure,
    trivial_group,
)
from rrbgroups.groups import _levels, group_from_permutations, row_index
from conftest import FIXTURE_DIR
from oracles import (closure_loop, direct_product_loop, group_table_violation, normal_loop,
                     permutation_closure_loop, quotient_loop, saturation_isomorphisms,
                     subgroup_loop)

OPERATORS_CATALOGUE = Path(__file__).parent.parent / "perfbench" / "catalogue" / "operators.json"
LIFTING_CATALOGUE = OPERATORS_CATALOGUE.with_name("lifting.json")


def _permutation_corpus() -> list:
    """(degree, generators) of every permutation group the package's
    fixtures, tests, demos and benchmark catalogues close, then 60 seeded
    random sets of degree at most 6 (one generator at degree 6, so that the
    reference loop stays quick)."""
    corpus = [(3, [[1, 0, 2], [0, 2, 1]]), (3, [[1, 0, 2], [1, 2, 0]]),
              (4, [[1, 2, 3, 0], [0, 3, 2, 1]]), (4, [[1, 2, 0, 3], [0, 2, 3, 1]]),
              (4, [[1, 0, 3, 2], [2, 3, 0, 1]]), (4, [[1, 2, 0, 3], [1, 0, 3, 2]]),
              (4, [[1, 2, 3, 0], [1, 0, 2, 3]]), (6, [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]]),
              (8, [[1, 2, 3, 0, 5, 6, 7, 4], [4, 7, 6, 5, 2, 1, 0, 3]]),
              *((n, [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]])
                for n in (8, 16, 18, 20, 22)),
              (5, [[0, 1, 2, 3, 4]]), (0, [[]]), (1, [[0]])]
    for path in sorted(FIXTURE_DIR.glob("group_*_perm.json")):
        obj = json.loads(path.read_text())
        corpus.append((obj["degree"], obj["generators"]))
    rng = np.random.default_rng(15)
    for i in range(60):
        degree = 1 + i % 6
        count = 1 if degree == 6 else int(rng.integers(1, 4))
        corpus.append((degree, [rng.permutation(degree).tolist() for _ in range(count)]))
    return corpus


def _cycle(points: list, degree: int) -> list:
    """The permutation of 0..degree-1 sending each of ``points`` to the next,
    the last to the first, and fixing every other point."""
    perm = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        perm[a] = b
    return perm


def _table_corpus() -> dict:
    z2 = cyclic_group(2)
    v4 = direct_product(z2, z2).group
    return {
        **{f"z{n}": cyclic_group(n).table.tolist() for n in (1, 2, 3, 4, 5, 6, 8)},
        "z2^3": direct_product(v4, z2).group.table.tolist(),
        "z2xz4": direct_product(z2, cyclic_group(4)).group.table.tolist(),
        "s3": group_from_permutations(3, [[1, 0, 2], [0, 2, 1]]).table.tolist(),
        "d4": group_from_permutations(4, [[1, 2, 3, 0], [0, 3, 2, 1]]).table.tolist(),
        "a4": group_from_permutations(4, [[1, 2, 0, 3], [0, 2, 3, 1]]).table.tolist(),
    }


TABLES = _table_corpus()


def _relabel(table, perm):
    """The table of the same operation with element x renamed perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def _check_against_loops(table):
    """FiniteGroup raises the oracle's first (code, message, witness), or
    accepts with the least two-sided inverses."""
    expected = group_table_violation(table)
    if expected is None:
        G = FiniteGroup(table)
        n = len(table)
        assert G.inverses.tolist() == [
            min(b for b in range(n) if table[a][b] == 0 and table[b][a] == 0)
            for a in range(n)]
        return
    with pytest.raises(GroupError) as err:
        FiniteGroup(table)
    code, message, witness = expected
    assert (err.value.code, str(err.value), err.value.witness) == (
        code, f"{code}: {message}", witness)
    assert all(type(x) is int for x in err.value.witness)


class TestValidateGroup:
    def test_z4_table(self):
        G = FiniteGroup([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
        assert G.order == 4 and G.is_abelian

    def test_no_inverse(self):
        with pytest.raises(GroupError) as err:
            FiniteGroup([[0, 1], [1, 1]])
        assert err.value.code == "NoInverse" and err.value.witness == (1,)

    def test_s3_from_composed_permutations(self):
        # Oracle: compose the six permutations of {0,1,2} by hand and compare.
        perms = sorted(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]
        oracle = FiniteGroup(table)
        built = group_from_permutations(3, [[1, 0, 2], [0, 2, 1]], name="S3")
        assert oracle.order == 6 and built == oracle

    @pytest.mark.parametrize("degree,generators", _permutation_corpus(),
                             ids=lambda x: str(x).replace(" ", ""))
    def test_permutation_closure_matches_the_loop(self, degree, generators):
        table = group_from_permutations(degree, generators).table.tolist()
        assert table == permutation_closure_loop(degree, generators)

    @pytest.mark.parametrize("degree,generators", [
        (64, [_cycle(list(range(64)), 64)]),
        (200, [_cycle(list(range(200)), 200)]),
        # Six moved points among 1,000 fixed ones, out of order.
        (1006, [_cycle([1000, 3, 517, 42, 1005, 250], 1006)]),
        (100_000, [_cycle([0, 1], 100_000)]),
    ], ids=["64-cycle", "200-cycle", "padded-6-cycle", "transposition-100000"])
    def test_long_closures_match_the_loop(self, degree, generators):
        table = group_from_permutations(degree, generators).table.tolist()
        assert table == permutation_closure_loop(degree, generators)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_drawn_closures_match_the_loop(self, data):
        # One generator at degree 6, so that the reference loop stays quick.
        degree = data.draw(st.integers(1, 6))
        count = 1 if degree == 6 else data.draw(st.integers(1, 3))
        generators = [data.draw(st.permutations(range(degree))) for _ in range(count)]
        table = group_from_permutations(degree, generators).table.tolist()
        assert table == permutation_closure_loop(degree, generators)

    def test_permutation_closure_is_capped_as_it_grows(self):
        # S7 (5,040 elements) would need 25.4 million table cells; it is
        # refused once the closure passes 1,024 elements, before any table.
        with pytest.raises(GroupError) as err:
            group_from_permutations(7, [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]])
        assert err.value.code == "OrderTooLarge"
        assert str(err.value).startswith(
            "OrderTooLarge: the table of a closure of 1025 permutations needs 1050625 cells")

    def test_stored_permutations_are_capped(self):
        # An 8,192-cycle stores 8,192 cells per element, so the 129th passes
        # 2^20 cells long before the table (129^2 cells) would.
        with pytest.raises(GroupError) as err:
            group_from_permutations(8192, [_cycle(list(range(8192)), 8192)])
        assert err.value.code == "OrderTooLarge"
        assert str(err.value).startswith("OrderTooLarge: a closure of 129 permutations "
                                         "on 8192 moved points needs 1056768 cells")

    @pytest.mark.parametrize("degree,generators,message,witness", [
        (10 ** 6, [[1, 0]], "generator 0 has 2 entries, not the degree 1000000", (0, 2)),
        (3, [[1, 0, 2], [0, 1, 2, 0]], "generator 1 has 4 entries, not the degree 3", (1, 3)),
        (3, [[0, 1, 1]], "generator 0: entry 2 = 1 repeats an earlier entry", (0, 2)),
        (3, [[1, 0, 2], [0, 3, 1]], "generator 1: entry 1 = 3 is outside 0..2", (1, 1)),
        (3, [[0, -1, -1]], "generator 0: entry 1 = -1 is outside 0..2", (0, 1)),
        # Lengths are checked before entries, as a table's shape is.
        (3, [[2, 2, 0], [0, 1]], "generator 1 has 2 entries, not the degree 3", (1, 2)),
    ])
    def test_bad_generator_names_its_first_bad_entry(self, degree, generators, message, witness):
        with pytest.raises(GroupError) as err:
            group_from_permutations(degree, generators)
        assert (str(err.value), err.value.witness) == (f"NotClosed: {message}", witness)
        assert all(type(x) is int for x in err.value.witness)

    def test_bad_entry_of_a_long_generator_is_named_briefly(self):
        gen = list(range(100_000))
        gen[70_000] = 5
        with pytest.raises(GroupError) as err:
            group_from_permutations(100_000, [list(range(100_000)), gen])
        assert str(err.value) == "NotClosed: generator 1: entry 70000 = 5 repeats an earlier entry"
        assert err.value.witness == (1, 70_000)

    def test_permutation_degree_checks(self):
        # No generators: the trivial group, whatever the degree.
        assert group_from_permutations(10 ** 6, []).order == 1
        for degree, gens in ((-1, []), (10 ** 6, [[1, 0]]), (3, [[0, 1, 1]])):
            with pytest.raises(GroupError) as err:
                group_from_permutations(degree, gens)
            assert err.value.code == "NotClosed"

    def test_identity_not_at_zero(self):
        with pytest.raises(GroupError) as err:
            FiniteGroup([[1, 0], [0, 1]])
        assert err.value.code == "NoIdentityAtZero"

    def test_out_of_range(self):
        with pytest.raises(GroupError) as err:
            FiniteGroup([[0, 1], [1, 7]])
        assert err.value.code == "NotClosed"
        assert err.value.witness == (1, 1)
        assert all(type(x) is int for x in err.value.witness)

    def test_not_associative(self):
        # A unital magma with two-sided inverses that fails associativity:
        # 5-element loop (row/column latin square, identity at 0).
        table = [[0, 1, 2, 3, 4],
                 [1, 0, 3, 4, 2],
                 [2, 4, 0, 1, 3],
                 [3, 2, 4, 0, 1],
                 [4, 3, 1, 2, 0]]
        with pytest.raises(GroupError) as err:
            FiniteGroup(table)
        assert err.value.code == "NotAssociative"

    def test_cancellation_rows_and_columns(self, groups):
        for G in groups.values():
            for i in G.elements():
                assert sorted(G.table[i].tolist()) == list(G.elements())
                assert sorted(G.table[:, i].tolist()) == list(G.elements())


class TestTableChecksMatchLoops:
    """The row gathers of FiniteGroup against the element loops."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_corrupted_tables(self, data):
        table = TABLES[data.draw(st.sampled_from(sorted(TABLES)))]
        n = len(table)
        rest = data.draw(st.permutations(range(1, n))) if n > 1 else []
        table = _relabel(table, [0, *rest])
        kind = data.draw(st.sampled_from(["none", "swap", "entry", "monoid"]))
        if kind == "swap":
            # Rows stay permutations, so associativity or inverses fail.
            i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            table[i][j], table[i][k] = table[i][k], table[i][j]
        elif kind == "entry":
            i, j, x = (data.draw(st.integers(0, n - 1)) for _ in range(3))
            table[i][j] = x
        elif kind == "monoid":
            # G x {1, z} with z*z = z: associative with an identity, and
            # every (g, z) lacks an inverse.
            table = [[2 * table[a // 2][b // 2] + (a % 2 | b % 2) for b in range(2 * n)]
                     for a in range(2 * n)]
        _check_against_loops(table)

    @pytest.mark.parametrize("name", ["group_Z4^3_broken", "group_D16_broken"])
    def test_catalogue_non_associative_payloads(self, name):
        with open(OPERATORS_CATALOGUE, encoding="utf-8") as fh:
            entries = json.load(fh)["validate"]
        table = next(e["payload"]["table"] for e in entries if e["name"] == name)
        assert group_table_violation(table)[0] == "NotAssociative"
        _check_against_loops(table)


class TestHomomorphisms:
    def test_identity_is_hom(self, groups):
        Z4 = groups["z4"]
        assert is_homomorphism(list(range(4)), Z4, Z4)

    def test_constant_zero_is_hom(self, groups):
        assert is_homomorphism([0, 0, 0, 0], groups["z4"], groups["z2"])

    def test_mod_two_into_z4_is_not_hom(self, groups):
        Z4 = groups["z4"]
        mapping = [x % 2 for x in range(4)]
        # Hand oracle over all 16 pairs.
        expected = all(mapping[Z4.mul(x, y)] == Z4.mul(mapping[x], mapping[y])
                       for x in range(4) for y in range(4))
        assert expected is False
        assert is_homomorphism(mapping, Z4, Z4) is False

    def test_length_mismatch(self, groups):
        with pytest.raises(GroupError) as err:
            is_homomorphism([0, 1], groups["z4"], groups["z4"])
        assert err.value.code == "LengthMismatch"

    @pytest.mark.parametrize("image,index", [([0, 1, 4, 3], 2), ([0, -1, 9, 1], 1)])
    def test_out_of_range_entry_is_not_closed(self, groups, image, index):
        # The code and witness of an out-of-range table entry, not a length error.
        with pytest.raises(GroupError) as err:
            is_homomorphism(image, groups["z4"], groups["z4"])
        assert err.value.code == "NotClosed" and err.value.witness == (index,)
        assert str(err.value) == (f"NotClosed: image[{index}] = {image[index]} "
                                  f"is outside the codomain of order 4")

    @pytest.mark.parametrize("image", [[x % 2 for x in range(4)], [0, 2, 2, 0], [0, 3, 3, 1]])
    def test_not_homomorphism_names_the_first_failing_pair(self, groups, image):
        # The witness is the first (x, y), in row-major order, where
        # image[x*y] != image[x]*image[y], as the element loop meets it.
        Z4 = groups["z4"]
        first = next((x, y) for x in range(4) for y in range(4)
                     if image[Z4.mul(x, y)] != Z4.mul(image[x], image[y]))
        with pytest.raises(GroupError) as err:
            GroupHom(Z4, Z4, image)
        assert err.value.witness == first
        assert str(err.value) == (f"NotHomomorphism: map does not respect multiplication "
                                  f"at (x, y) = {first}")

    def test_compose_and_inverse(self, groups):
        Z4 = groups["z4"]
        neg = GroupHom(Z4, Z4, [0, 3, 2, 1])
        assert neg.compose(neg) == identity_hom(Z4)
        assert neg.inverse() == neg


class TestAutomorphisms:
    def test_z2_single(self, groups):
        assert len(automorphism_group(groups["z2"])) == 1

    def test_z4_two(self, groups):
        auts = automorphism_group(groups["z4"])
        assert [a.image.tolist() for a in auts] == [[0, 1, 2, 3], [0, 3, 2, 1]]

    def test_klein_six_versus_bijection_oracle(self, groups):
        V = direct_product(groups["z2"], groups["z2"]).group
        brute = []
        for perm in itertools.permutations(range(4)):
            img = np.asarray(perm)
            if img[0] == 0 and np.array_equal(img[V.table], V.table[img[:, None], img[None, :]]):
                brute.append(tuple(perm))
        auts = automorphism_group(V)
        assert len(auts) == 6
        assert sorted(brute) == [tuple(a.image.tolist()) for a in auts]

    def test_closure_and_identity(self, groups):
        for name in ("z4", "z6", "s3"):
            G = groups[name]
            auts = automorphism_group(G)
            keys = {tuple(a.image.tolist()) for a in auts}
            assert tuple(range(G.order)) in keys
            for a in auts:
                assert tuple(a.inverse().image.tolist()) in keys
                for b in auts:
                    assert tuple(a.compose(b).image.tolist()) in keys

    def test_backtracking_matches_bruteforce_at_order_nine(self):
        Z9 = cyclic_group(9)
        auts = automorphism_group(Z9)
        units = [x for x in range(1, 9) if all((x * k) % 9 != 0 for k in range(1, 9))]
        assert len(auts) == len(units) == 6

    def test_backtracking_known_counts(self):
        # Orders above eight go through the generator-image search; compare
        # against textbook automorphism counts.
        z12 = cyclic_group(12)
        assert len(automorphism_group(z12)) == 4  # units mod 12
        z3sq = direct_product(cyclic_group(3), cyclic_group(3)).group
        assert len(automorphism_group(z3sq)) == 48  # |GL(2,3)|
        d6 = group_from_permutations(
            6, [[1, 2, 3, 4, 5, 0], [0, 5, 4, 3, 2, 1]], name="D6")
        assert d6.order == 12
        assert len(automorphism_group(d6)) == 12  # hexagon symmetries
        assert len(automorphism_group(cyclic_group(16))) == 8  # units mod 16

    def test_brute_force_dihedral_count(self):
        d4 = group_from_permutations(4, [[1, 2, 3, 0], [0, 3, 2, 1]], name="D4")
        assert d4.order == 8
        assert len(automorphism_group(d4)) == 8

    def test_group_order_is_not_a_bound(self):
        # Only the search's cells bound it: Z128 has 64 automorphisms, one
        # generator and 8,192 cells at its one level.
        assert len(automorphism_group(cyclic_group(128))) == 64


def _quaternion() -> FiniteGroup:
    """Q8 on 4 * sign + unit, the units 1, i, j, k."""
    # unit u times unit v is (sign, unit); i j = k, j k = i, k i = j.
    cyc = {(1, 2): 3, (2, 3): 1, (3, 1): 2}

    def unit_mul(u, v):
        if not u or not v:
            return 0, u + v
        if u == v:
            return 1, 0
        if (u, v) in cyc:
            return 0, cyc[u, v]
        return 1, cyc[v, u]

    table = []
    for x in range(8):
        row = []
        for y in range(8):
            sign, unit = unit_mul(x % 4, y % 4)
            row.append(4 * ((x // 4 + y // 4 + sign) % 2) + unit)
        table.append(row)
    return FiniteGroup(table, name="Q8")


def _small_groups() -> dict:
    """The 14 groups of order at most 8, one of each isomorphism type."""
    z2 = cyclic_group(2)
    v4 = direct_product(z2, z2).group
    return {
        **{f"z{n}": cyclic_group(n) for n in range(1, 9)},
        "v4": v4,
        "s3": group_from_permutations(3, [[1, 0, 2], [0, 2, 1]]),
        "z4xz2": direct_product(cyclic_group(4), z2).group,
        "z2^3": direct_product(v4, z2).group,
        "d4": group_from_permutations(4, [[1, 2, 3, 0], [0, 3, 2, 1]]),
        "q8": _quaternion(),
    }


def _order_16_groups() -> dict:
    """Every group of order 16 the tests build: Z16, Z2^4 (the lifting
    audit's largest total) and the operators catalogue's."""
    z2 = cyclic_group(2)
    v4 = direct_product(z2, z2).group
    out = {"z16": cyclic_group(16), "z2^4": direct_product(v4, v4).group}
    with open(OPERATORS_CATALOGUE, encoding="utf-8") as fh:
        for case in json.load(fh)["enumerate"]:
            G = FiniteGroup(case["H"]["table"])
            if G.order == 16 and G not in out.values():
                out[case["H"]["name"]] = G
    return out


SMALL_GROUPS = _small_groups()
ORDER_16_GROUPS = _order_16_groups()


class TestDirectProduct:
    @pytest.mark.parametrize("first", sorted(SMALL_GROUPS))
    def test_product_matches_the_loop(self, first):
        G = SMALL_GROUPS[first]
        for H in SMALL_GROUPS.values():
            P = direct_product(G, H)
            assert P.group.table.tolist() == direct_product_loop(G, H)
            m = H.order
            assert P.inj1.image.tolist() == [g * m for g in range(G.order)]
            assert P.inj2.image.tolist() == list(range(m))
            assert P.proj1.image.tolist() == [x // m for x in range(G.order * m)]
            assert P.proj2.image.tolist() == [x % m for x in range(G.order * m)]


class TestImageSearch:
    """The generator-image search against the dict-saturation search."""

    @pytest.mark.parametrize("name", [*SMALL_GROUPS, *ORDER_16_GROUPS])
    def test_automorphisms_match_saturation_search(self, name):
        G = {**SMALL_GROUPS, **ORDER_16_GROUPS}[name]
        got = [tuple(a.image.tolist()) for a in automorphism_group(G)]
        assert got == saturation_isomorphisms(G, G)

    def test_isomorphisms_match_saturation_search(self):
        rng = np.random.default_rng(12)
        for name, G in SMALL_GROUPS.items():
            perm = [0, *(rng.permutation(G.order - 1) + 1)]
            H = FiniteGroup(_relabel(G.table.tolist(), perm))
            expected = saturation_isomorphisms(G, H)
            assert [tuple(f.image.tolist()) for f in all_isomorphisms(G, H)] == expected, name
            assert tuple(find_isomorphism(G, H).image.tolist()) == expected[0]
        for a, b in (("z4", "v4"), ("z6", "s3"), ("z8", "q8"), ("d4", "q8"), ("z2^3", "z4xz2")):
            G, H = SMALL_GROUPS[a], SMALL_GROUPS[b]
            assert saturation_isomorphisms(G, H) == []
            assert all_isomorphisms(G, H) == [] and find_isomorphism(G, H) is None

    @pytest.mark.parametrize("name", ["z8", "z4xz2", "d4", "q8", "z2^3", "z6"])
    def test_stabilizer_search_is_the_filtered_group(self, name):
        G = SMALL_GROUPS[name]
        for g in G.elements():
            N = subgroup_closure(G, [g])
            expected = [a for a in saturation_isomorphisms(G, G) if {a[x] for x in N} == set(N)]
            assert [tuple(r) for r in isomorphism_images(G, G, N).tolist()] == expected

    def test_cap_stops_the_search_before_the_level_is_built(self):
        # Z2^5 (order 32) is inside the default order bound, but its fourth
        # level would hold 807,240 maps of 32 cells, some 206 MB of int64.
        import tracemalloc

        from rrbgroups.groups import CELL_CAP

        z2 = cyclic_group(2)
        v4 = direct_product(z2, z2).group
        z2_5 = direct_product(direct_product(v4, v4).group, z2).group
        tracemalloc.start()
        try:
            with pytest.raises(GroupError) as err:
                automorphism_group(z2_5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.code == "OrderTooLarge"
        assert peak < 8 * CELL_CAP * 8


def test_row_index_is_one_lookup_for_any_query_shape():
    rows = np.array([[0, 1], [1, 0], [2, 2]])
    find = row_index(rows)
    assert find(rows).tolist() == [0, 1, 2]
    assert find(np.array([[[1, 0], [0, 0]], [[2, 2], [0, 1]]])).tolist() == [[1, -1], [2, 0]]
    assert find(np.zeros((0, 2), dtype=np.int64)).shape == (0,)


def _check_walk(G: FiniteGroup, levels) -> None:
    """The generator walk's levels against G's table: each level's column j
    is x * gen_j over all x, for its generators so far, each wave element is parent * gen with the parent known
    before the wave, every element but 0 and the generators is reached in
    exactly one wave, and each level completes the subgroup its generators
    so far generate."""
    gens = [level.gen for level in levels]
    known = {0}
    reached = []
    for i, level in enumerate(levels):
        assert level.columns.tolist() == G.table[:, gens[:i + 1]].tolist()
        known.add(level.gen)
        for elems, parents, via in level.waves:
            assert set(parents.tolist()) <= known
            assert set(via.tolist()) <= set(gens[:i + 1])
            assert elems.tolist() == G.table[parents, via].tolist()
            known |= set(elems.tolist())
            reached += elems.tolist()
        expected = closure_loop(G, gens[:i + 1])
        assert level.subgroup.tolist() == expected == subgroup_closure(G, gens[:i + 1])
    assert len(reached) == len(set(reached))
    assert set(reached) == (set(levels[-1].subgroup.tolist()) if levels else {0}) - {0, *gens}


class TestGeneratorWalk:
    """``_levels`` on the corpus groups, with one pool and with a stabilized
    subgroup's pool first, and on a lifting-catalogue pair group."""

    @pytest.mark.parametrize("name", [*SMALL_GROUPS, *ORDER_16_GROUPS])
    def test_walk_on_corpus_groups(self, name):
        G = {**SMALL_GROUPS, **ORDER_16_GROUPS}[name]
        everything = np.arange(G.order)
        levels = _levels(G.order, lambda g: G.table[:, g], [everything])
        _check_walk(G, levels)
        assert not levels or levels[-1].subgroup.tolist() == everything.tolist()
        for g in G.elements():
            sub = np.array(subgroup_closure(G, [g]), dtype=np.int64)
            levels = _levels(G.order, lambda g: G.table[:, g], [sub, everything])
            _check_walk(G, levels)
            first = [level for level in levels if level.pool == 0]
            assert [level.pool for level in levels] == sorted(level.pool for level in levels)
            assert set(sub.tolist()) <= set(first[-1].subgroup.tolist() if first else [0])
            assert all(level.gen in sub for level in first)

    def test_walk_on_a_catalogue_pair_group(self):
        from rrbgroups.serialize import load_extension
        from rrbgroups.wells import WellsContext

        with open(LIFTING_CATALOGUE, encoding="utf-8") as fh:
            case = json.load(fh)["extensions"][1]
        pg = WellsContext(load_extension(case["extension"])).pair_group
        every = np.arange(len(pg.C))
        C = FiniteGroup(pg.product(every[:, None], every[None]))
        levels = _levels(len(every), lambda g: pg.product(every, g), [every])
        _check_walk(C, levels)
        assert len(every) == 36 and len(levels) == 4
        assert [level.gen for level in levels] == pg.generators.tolist()
        assert pg.by_generators.tolist() == C.table[:, pg.generators].tolist()
        assert pg.find(pg.pairs).tolist() == every.tolist()


class TestSubgroupsAndQuotients:
    def test_closure_identity_only(self, groups):
        for G in groups.values():
            assert subgroup_closure(G, [0]) == [0]

    def test_closure_in_z4(self, groups):
        Z4 = groups["z4"]
        assert subgroup_closure(Z4, [2]) == [0, 2]
        assert is_normal(Z4, [0, 2])

    def test_transposition_subgroup_not_normal(self, groups):
        S3 = groups["s3"]
        t = next(x for x in S3.elements() if S3.element_order(x) == 2)
        sub = subgroup_closure(S3, [t])
        assert len(sub) == 2
        # Oracle: conjugating by a 3-cycle moves the involution out.
        c = next(x for x in S3.elements() if S3.element_order(x) == 3)
        assert S3.conj(t, c) not in sub
        assert is_normal(S3, sub) is False

    def test_quotient_z4_by_half(self, groups):
        q = quotient_group(groups["z4"], [0, 2])
        assert q.group.order == 2
        assert q.section.tolist() == [0, 1]

    def test_quotient_by_trivial(self, groups):
        for name in ("z4", "s3"):
            G = groups[name]
            q = quotient_group(G, [0])
            assert q.group == G
            assert q.projection.image.tolist() == list(G.elements())

    def test_s3_mod_a3(self, groups):
        S3 = groups["s3"]
        c = next(x for x in S3.elements() if S3.element_order(x) == 3)
        a3 = subgroup_closure(S3, [c])
        q = quotient_group(S3, a3)
        assert q.group == cyclic_group(2)

    def test_not_normal_rejected(self, groups):
        S3 = groups["s3"]
        t = next(x for x in S3.elements() if S3.element_order(x) == 2)
        with pytest.raises(GroupError) as err:
            quotient_group(S3, subgroup_closure(S3, [t]))
        assert err.value.code == "NotNormal"

    def test_section_properties(self, groups):
        S3 = groups["s3"]
        c = next(x for x in S3.elements() if S3.element_order(x) == 3)
        q = quotient_group(S3, subgroup_closure(S3, [c]))
        assert q.section[0] == 0
        for i in q.group.elements():
            assert q.projection(int(q.section[i])) == i
        assert set(q.projection.image.tolist()) == set(q.group.elements())


def _relabeled(G: FiniteGroup, rng) -> FiniteGroup:
    """G with its non-identity elements renamed at random."""
    perm = np.array([0, *(rng.permutation(G.order - 1) + 1)])
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return FiniteGroup(table)


class TestSubsetPredicatesMatchLoops:
    """Closures, subgroup and normality checks and quotients against the
    element loops they replaced, on every small group and a relabeling."""

    CASES = {**SMALL_GROUPS, **ORDER_16_GROUPS,
             **{name + "'": _relabeled(G, np.random.default_rng(3))
                for name, G in SMALL_GROUPS.items()}}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_closures(self, name):
        G = self.CASES[name]
        rng = np.random.default_rng(len(name))
        draws = [[], [0], *([int(g)] for g in G.elements())]
        draws += [rng.integers(G.order, size=rng.integers(1, 4)).tolist() for _ in range(20)]
        for gens in draws:
            assert subgroup_closure(G, gens) == closure_loop(G, gens)
        for bad in (-1, G.order):
            with pytest.raises(GroupError) as err:
                subgroup_closure(G, [0, bad])
            assert str(err.value) == f"NotClosed: generator {bad} out of range"

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_subgroups_normality_and_quotients(self, name):
        G = self.CASES[name]
        rng = np.random.default_rng(len(name))
        subsets = [closure_loop(G, [int(a), int(b)]) for a in G.elements() for b in (0, G.order - 1)]
        subsets += [sorted({0, *rng.integers(G.order, size=rng.integers(1, 5)).tolist()})
                    for _ in range(20)]
        subsets += [[0, -1], [0, G.order], list(G.elements())[1:]]
        for S in subsets:
            sub = subgroup_loop(G, S)
            assert is_subgroup(G, S) is sub
            if not sub:
                with pytest.raises(GroupError, match="NotSubgroup"):
                    is_normal(G, S)
                continue
            normal = normal_loop(G, S)
            assert is_normal(G, S) is normal
            if normal:
                q = quotient_group(G, S)
                proj, section, table = quotient_loop(G, S)
                assert q.projection.image.tolist() == proj
                assert q.section.tolist() == section
                assert q.group.table.tolist() == table


class TestDirectProduct:
    def test_klein_has_exponent_two(self, groups):
        V = direct_product(groups["z2"], groups["z2"]).group
        assert all(V.mul(x, x) == 0 for x in V.elements())

    def test_product_with_trivial(self, groups):
        for name in ("z4", "s3"):
            G = groups[name]
            P = direct_product(G, trivial_group())
            assert P.group == G

    def test_z2_x_z3_isomorphic_to_z6(self, groups):
        P = direct_product(groups["z2"], groups["z3"]).group
        # Brute force over bijections fixing 0.
        found = None
        Z6 = groups["z6"]
        for perm in itertools.permutations(range(1, 6)):
            img = np.asarray((0,) + perm)
            if np.array_equal(img[P.table], Z6.table[img[:, None], img[None, :]]):
                found = img
                break
        assert found is not None
        assert find_isomorphism(P, Z6) is not None

    def test_injections_and_projections(self, groups):
        prod = direct_product(groups["z2"], groups["z3"])
        assert prod.proj1.compose(prod.inj1) == identity_hom(groups["z2"])
        assert prod.proj2.compose(prod.inj2) == identity_hom(groups["z3"])
        assert prod.group.order == 6


class TestIsomorphismSearch:
    def test_nonisomorphic(self, groups):
        Z4 = groups["z4"]
        V = direct_product(groups["z2"], groups["z2"]).group
        assert find_isomorphism(Z4, V) is None

    def test_all_isomorphisms_count(self, groups):
        # The isomorphisms Z3 -> Z3 are exactly its automorphisms.
        assert len(all_isomorphisms(groups["z3"], groups["z3"])) == 2
