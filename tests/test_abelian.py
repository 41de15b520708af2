"""Invariant factors, coordinate isomorphisms, and exact linear algebra."""

import itertools
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrbgroups import (
    AbelianPresentation,
    FinAbHom,
    GroupError,
    cochain_complex,
    cyclic_group,
    direct_product,
    hom_kernel_image_quotient,
)
from rrbgroups.abelian import (
    SubgroupPresentation,
    SubquotientPresentation,
    _stack_moduli,
    kernel_mod,
    present_quotient,
)
from rrbgroups.groups import FiniteGroup
from rrbgroups.intlinalg import as_int_matrix, howell
from rrbgroups.serialize import load_extension, load_group, load_module
from oracles import walk_presentation

CATALOGUE = Path(__file__).parent.parent / "perfbench" / "catalogue"


def invariant_factors_oracle(orders):
    """Elementary-divisor merge, independent of any matrix algebra."""
    primes = {}
    for n in orders:
        m, p = n, 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                primes.setdefault(p, []).append(p ** e)
            p += 1
    for p in primes:
        primes[p].sort()
    k = max((len(v) for v in primes.values()), default=0)
    factors = []
    for i in range(k):
        d = 1
        for p, powers in primes.items():
            idx = len(powers) - k + i
            if idx >= 0:
                d *= powers[idx]
        factors.append(d)
    return tuple(f for f in factors if f > 1)


def smith_by_cell_scans(rows):
    """Reference Smith form U A V = D over the integers: the pivot (first
    entry of least absolute value, row-major) and the divisibility witness
    (first row holding a non-multiple) are found by cell-by-cell loops, in
    Python ints."""
    A = np.array([[int(x) for x in r] for r in rows], dtype=object)
    n, m = A.shape
    U, Uinv, V = np.eye(n, dtype=object), np.eye(n, dtype=object), np.eye(m, dtype=object)

    def row_swap(i, j):
        A[[i, j], :], U[[i, j], :] = A[[j, i], :], U[[j, i], :]
        Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def col_swap(i, j):
        A[:, [i, j]], V[:, [i, j]] = A[:, [j, i]], V[:, [j, i]]

    def row_addmul(i, j, c):
        A[i, :] += c * A[j, :]
        U[i, :] += c * U[j, :]
        Uinv[:, j] -= c * Uinv[:, i]

    def col_addmul(i, j, c):
        A[:, i] += c * A[:, j]
        V[:, i] += c * V[:, j]

    for t in range(min(n, m)):
        cells = [(i, j) for i in range(t, n) for j in range(t, m) if A[i, j] != 0]
        if not cells:
            break
        best = cells[0]
        for i, j in cells:
            if abs(A[i, j]) < abs(A[best]):
                best = (i, j)
        row_swap(t, best[0])
        col_swap(t, best[1])
        while True:
            # Clear the pivot column, then its row; a remainder becomes the
            # new pivot and the clearing starts over.
            remainder = None
            for i in range(t + 1, n):
                if A[i, t]:
                    row_addmul(i, t, -(A[i, t] // A[t, t]))
                    if A[i, t]:
                        remainder = i
                        break
            if remainder is not None:
                row_swap(t, remainder)
                continue
            for j in range(t + 1, m):
                if A[t, j]:
                    col_addmul(j, t, -(A[t, j] // A[t, t]))
                    if A[t, j]:
                        remainder = j
                        break
            if remainder is not None:
                col_swap(t, remainder)
                continue
            witness = next((i for i in range(t + 1, n) for j in range(t + 1, m)
                            if A[i, j] % A[t, t]), None)
            if witness is None:
                break
            row_addmul(t, witness, 1)
        if A[t, t] < 0:
            A[t, :], U[t, :], Uinv[:, t] = -A[t, :], -U[t, :], -Uinv[:, t]
    return A, U, V, Uinv


def reference_diagonal(cols):
    """The reference's diagonal of a matrix, zeros included."""
    D = smith_by_cell_scans(np.asarray(cols, dtype=object).tolist())[0]
    return [D[i, i] for i in range(min(D.shape))]


def reference_solve(cols, rhs):
    """One integer x with cols @ x == rhs, from the reference, or None."""
    D, U, V, _ = smith_by_cell_scans(np.asarray(cols, dtype=object).tolist())
    c = U @ np.asarray(rhs, dtype=object)
    y = np.zeros(D.shape[1], dtype=object)
    for i in range(D.shape[0]):
        d = D[i, i] if i < min(D.shape) else 0
        if (c[i] % d if d else c[i]) != 0:
            return None
        if d:
            y[i] = c[i] // d
    return V @ y


def lattice_index(cols):
    """Index in Z^r of the lattice spanned by the columns; 0 if not full rank."""
    diag = reference_diagonal(cols)
    if len(diag) < cols.shape[0] or 0 in diag:
        return 0
    return math.prod(diag)


def generated_subgroup(gens, moduli):
    """The subgroup of prod Z/moduli generated by gens, by closure."""
    seen = {tuple(0 for _ in moduli)}
    frontier = list(seen)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % q for a, b, q in zip(x, g, moduli))
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def same_lattice(cols, other):
    """Mutual containment of two full-rank column lattices, and equal index."""
    for a, b in ((cols, other), (other, cols)):
        if any(reference_solve(a, col) is None for col in b.T):
            return False
    return lattice_index(cols) == lattice_index(other) != 0


def reference_quotient_factors(relation_cols):
    """Invariant factors (those above 1) of Z^n modulo a full-rank lattice."""
    return tuple(int(d) for d in reference_diagonal(relation_cols) if d != 1)


def reference_subgroup_factors(gens, moduli):
    """Invariant factors of the subgroup of prod Z/moduli the columns of
    gens generate: Z^r modulo the relations, read off the reference's
    kernel of [gens | diag(moduli)]."""
    r = gens.shape[1]
    if not r:
        return ()
    D, _, V, _ = smith_by_cell_scans(_stack_moduli(gens, moduli).tolist())
    rank = sum(1 for i in range(min(D.shape)) if D[i, i])
    return reference_quotient_factors(V[:r, rank:])


def is_member(gens, moduli, vec):
    return reference_solve(_stack_moduli(gens, moduli), vec) is not None


def assert_valid_coefficients(gens, moduli, vec, coeffs):
    """coeffs is int64, reduced into [0, lcm(moduli)), and gens @ coeffs ==
    vec, checked in Python ints."""
    assert coeffs.dtype == np.int64
    assert all(0 <= x < math.lcm(*moduli) for x in coeffs)
    got = gens.astype(object) @ coeffs.astype(object)
    assert not any((x - v) % m for x, v, m in zip(got, vec, moduli))


MODULI = [1, 2, 3, 4, 6, 8, 9, 12, 36]

matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1, max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


# Enough moduli for any matrix drawn here; each test takes one per row.
moduli_lists = st.lists(st.sampled_from(MODULI), min_size=8, max_size=8)


def assert_subgroup_matches_reference(gens, moduli, rng):
    """Factors and order against the reference, and membership with
    coefficients for members and for random vectors."""
    sub = SubgroupPresentation(moduli, gens)
    want = reference_subgroup_factors(gens, moduli)
    assert sub.factors == want and sub.order == math.prod(want)
    for _ in range(4):
        member = gens @ np.array([rng.randrange(-3, 4) for _ in range(gens.shape[1])], dtype=object)
        other = np.array([rng.randrange(m) for m in moduli], dtype=object)
        coeffs, members = sub.membership_coefficients(np.stack([member, other]))
        for vec, c, m in zip((member, other), coeffs, members):
            assert m == is_member(gens, moduli, vec) == sub.contains(vec)
            if m:
                assert_valid_coefficients(gens, moduli, vec, c)


class TestSmithNormalForm:
    """present_quotient and SubgroupPresentation against the reference."""

    def test_classic_example(self):
        A = as_int_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert present_quotient(A, 156).factors == (2, 2, 156)

    @given(matrices, moduli_lists)
    @settings(max_examples=60, deadline=None)
    def test_decomposition_properties(self, rows, moduli):
        # Z^n modulo [A | diag(moduli)]: the coordinates kill every relation,
        # lift is a section of them, the order is the lattice's index, so
        # the coordinate map is an isomorphism; every entry is reduced.
        A = as_int_matrix(rows)
        moduli = moduli[:A.shape[0]]
        E = math.lcm(*moduli)
        stacked = _stack_moduli(A, moduli)
        pres = present_quotient(stacked, E)
        factors = np.array(pres.factors, dtype=object).reshape(-1, 1)
        assert all(d >= 2 for d in pres.factors)
        assert all(b % a == 0 for a, b in zip(pres.factors, pres.factors[1:]))
        assert not ((pres.to_coords @ stacked) % factors).any()
        k = len(pres.factors)
        assert not ((pres.to_coords @ pres.lift - np.eye(k, dtype=object)) % factors).any()
        assert pres.order == lattice_index(stacked)
        assert pres.to_coords.dtype == pres.lift.dtype == np.int64
        assert ((0 <= pres.to_coords) & (pres.to_coords < factors)).all()
        assert ((0 <= pres.lift) & (pres.lift < E)).all()

    @given(matrices, moduli_lists)
    @example([[2, 0, 0], [0, 3, 0], [0, 0, 5]], [36] * 8)
    @settings(max_examples=100, deadline=None)
    def test_matches_cell_scan_reference(self, rows, moduli):
        A = as_int_matrix(rows)
        moduli = moduli[:A.shape[0]]
        stacked = _stack_moduli(A, moduli)
        assert present_quotient(stacked, math.lcm(*moduli)).factors \
            == reference_quotient_factors(stacked)
        assert_subgroup_matches_reference(A, moduli, random.Random(str(rows)))

    @given(matrices, moduli_lists)
    @settings(max_examples=60, deadline=None)
    def test_kernel_annihilates(self, rows, moduli):
        # kernel_mod spans exactly {x : A x == 0 mod moduli}: every column is
        # a solution, and the spanned lattice has the kernel's index, which
        # is the order of the subgroup the columns of A generate modulo the
        # moduli.  Moduli with k > 1 and with mixed primes are included.
        A = as_int_matrix(rows)
        n, m = A.shape
        moduli = moduli[:n]
        ker = kernel_mod(A, moduli)
        assert ker.shape[0] == m
        assert not any(x % q for row, q in zip(A @ ker, moduli) for x in row)
        assert lattice_index(ker) == len(generated_subgroup(A.T.tolist(), moduli))

    def test_kernel_of_row(self):
        A = as_int_matrix([[1, 2, 3]])
        ker = kernel_mod(A, [5])
        assert ker.shape[0] == 3
        assert not (A @ ker % 5).any()
        assert lattice_index(ker) == 5

    def test_lattice_past_the_bound_is_refused(self):
        # Modulo 2**31 - 1 in width 3, E**2 * width passes 2**62: every way
        # a lattice enters refuses it before any elimination.
        A, moduli = as_int_matrix([[1, 2, 3]]), [2 ** 31 - 1]
        for enter in (lambda: kernel_mod(A, moduli),
                      lambda: SubgroupPresentation(moduli * 3, A.T),
                      lambda: present_quotient(_stack_moduli(A.T, moduli * 3), moduli[0])):
            with pytest.raises(ValueError, match=r"E\*\*2 \* width must stay below 2\*\*62"):
                enter()

    def test_entry_past_int64_is_refused(self):
        with pytest.raises(ValueError, match="outside int64"):
            as_int_matrix([[2 ** 70 + 1, 2], [3, 2 ** 65]])

    def test_kernel_just_inside_the_bound(self):
        # The largest prime below 2**30: E**2 * 3 is just under 2**62.
        q = 2 ** 30 - 35
        A = as_int_matrix([[1, 2, 3]])
        ker = kernel_mod(A, [q])
        assert ker.dtype == np.int64
        assert not any(x % q for x in (A.astype(object) @ ker.astype(object)).flat)
        assert lattice_index(ker) == q

    def test_solve(self):
        gens = as_int_matrix([[2, 0], [0, 3]])
        sub = SubgroupPresentation([4, 9], gens)
        vecs = np.array([[2, 3], [1, 0]], dtype=object)
        coeffs, member = sub.membership_coefficients(vecs)
        assert member.tolist() == [True, False]
        assert_valid_coefficients(gens, [4, 9], vecs[0], coeffs[0])

    @given(matrices, st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
           moduli_lists)
    @settings(max_examples=40, deadline=None)
    def test_solve_consistent_system(self, rows, xs, moduli):
        A = as_int_matrix(rows)
        moduli = moduli[:A.shape[0]]
        x = np.array((xs * 4)[: A.shape[1]], dtype=object)
        b = A @ x
        coeffs, member = SubgroupPresentation(moduli, A).membership_coefficients(b[None])
        assert member[0]
        assert_valid_coefficients(A, moduli, b, coeffs[0])


# Entries up to 2**40: the generators are reduced modulo each prime power
# before any elimination.
wide_matrices = st.tuples(st.integers(1, 6), st.integers(1, 6),
                          st.sampled_from([9, 2 ** 30, 2 ** 40])).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-shape[2], shape[2]), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


class TestSmithPromotion:
    """Wide entries are reduced before any elimination, and a lattice just
    inside the int64 bound matches the reference."""

    @given(wide_matrices, moduli_lists)
    @settings(max_examples=40, deadline=None)
    def test_wide_entries_match_reference(self, rows, moduli):
        A = as_int_matrix(rows)
        assert_subgroup_matches_reference(A, moduli[:A.shape[0]], random.Random(str(rows)))

    def test_entries_just_inside_the_bound(self):
        # Modulo 2**30 in width 3, E**2 * width is 3 * 2**60; the reference
        # agrees on factors and membership.
        rows = [[1, 2 ** 29, 3], [2 ** 29, 1, 5], [7, 11, 2 ** 29 - 1]]
        moduli = [2 ** 30, 2 ** 30, 2 ** 29]
        A = as_int_matrix(rows)
        assert max(SubgroupPresentation(moduli, A).factors) == 2 ** 30
        assert_subgroup_matches_reference(A, moduli, random.Random(0))


def test_lattice_arrays_are_int64(ext_corpus, module_corpus):
    # Every array the lattice layer returns on the corpora is int64.
    arrays = []
    for module in module_corpus.values():
        cx = cochain_complex(module)
        arrays.append(kernel_mod(cx.constraint_matrix, cx.constraint_moduli))
        pres = present_quotient(_stack_moduli(cx.coboundary_matrix, cx.c2_moduli),
                                math.lcm(*cx.c2_moduli))
        arrays += [pres.to_coords, pres.lift]
        for sub in (cx.z1, cx.z2, cx.b2):
            arrays += [sub.generators, sub.relations, sub.embedding]
        cocycles = cx.z2.generators.T
        arrays += [cx.b2.membership_coefficients(cocycles)[0], cx.h2.class_coords(cocycles)[0],
                   cx.h2.embedding]
    for G in _corpus_abelian_groups(ext_corpus, module_corpus).values():
        P = AbelianPresentation(G)
        h = FinAbHom(P, P, 2 * np.eye(P.rank, dtype=np.int64))
        kic = hom_kernel_image_quotient(h)
        arrays += [h.matrix, kic.kernel_embedding, kic.image_embedding,
                   kic.cokernel_class_of(P.coord_table)]
    assert [a.dtype for a in arrays] == [np.dtype(np.int64)] * len(arrays)


class TestSmithReplay:
    """Lazily read lattices, and the cochain complexes, against the reference."""

    @given(matrices, st.permutations(["relations", "generators", "embedding", "factors"]),
           moduli_lists)
    @settings(max_examples=40, deadline=None)
    def test_read_order_does_not_matter(self, rows, order, moduli):
        A = as_int_matrix(rows)
        moduli = moduli[:A.shape[0]]
        first = SubgroupPresentation(moduli, A)
        for name in order:
            getattr(first, name)
        fresh = SubgroupPresentation(moduli, A)
        for name in order:
            got, want = getattr(first, name), getattr(fresh, name)
            assert np.array_equal(np.asarray(got), np.asarray(want))

    def test_kernel_heads_on_cochain_complexes(self, module_corpus):
        # The modular kernel spans the lattice of the cell-scan reference's
        # kernel head: each contains the other and both have one index.
        for module in module_corpus.values():
            cx = cochain_complex(module)
            stacked = _stack_moduli(cx.constraint_matrix, cx.constraint_moduli)
            D, _, V, _ = smith_by_cell_scans(stacked.tolist())
            rank = sum(1 for i in range(min(D.shape)) if D[i, i])
            r = cx.constraint_matrix.shape[1]
            ker = kernel_mod(cx.constraint_matrix, cx.constraint_moduli)
            assert same_lattice(ker, V[:r, rank:])

    def test_solutions_on_cochain_complexes(self, module_corpus):
        # On the lattices of every complex: subgroup and quotient factors
        # equal the reference's, membership agrees with it, and every
        # coefficient vector returned solves its system.
        rng = random.Random(0)
        for module in module_corpus.values():
            cx = cochain_complex(module)
            lattices = [(cx.coboundary_matrix, cx.c2_moduli),
                        (kernel_mod(cx.constraint_matrix, cx.constraint_moduli), cx.c2_moduli),
                        (cx.b2.relations, cx.c1_moduli)]
            for gens, moduli in lattices:
                assert_subgroup_matches_reference(gens, moduli, rng)
                stacked = _stack_moduli(gens, moduli)
                assert present_quotient(stacked, math.lcm(*moduli)).factors \
                    == reference_quotient_factors(stacked)


def every_vector(moduli):
    return np.array(list(itertools.product(*(range(m) for m in moduli))), dtype=np.int64)


# Moduli dividing one E of at most 12, so that (Z/E)^4 can be listed.
small_moduli_lists = st.sampled_from([2, 3, 4, 8, 9, 12]).flatmap(
    lambda E: st.lists(st.sampled_from([d for d in range(1, E + 1) if E % d == 0]),
                       min_size=4, max_size=4))


class TestKernels:
    """Kernels are read off the rows an elimination clears; checked against
    every vector of the space."""

    @given(matrices, st.sampled_from([(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)]), st.booleans())
    @example([[2, 0], [0, 0]], (2, 2), True)
    @example([[2, 4], [6, 2], [4, 4]], (2, 3), True)
    @example([[3, 6], [0, 3]], (3, 2), True)
    @settings(max_examples=100, deadline=None)
    def test_howell_kernel_is_the_left_kernel(self, rows, prime_power, carried):
        p, k = prime_power
        q, A = p ** k, as_int_matrix(rows)
        s = A.shape[0]
        if not carried:
            assert howell(A, p, k).kernel.shape == (0, 0)
            return
        form = howell(A, p, k, carry=np.eye(s, dtype=np.int64))
        assert np.array_equal(form.rows, howell(A, p, k).rows)
        every = every_vector([q] * s)
        want = {tuple(y) for y in every[~(every @ A % q).any(axis=1)].tolist()}
        assert generated_subgroup(form.kernel.tolist(), [q] * s) == want

    @given(matrices, small_moduli_lists)
    @example([[2, 1], [1, 1]], [4, 2, 1, 1])
    @example([[2], [1]], [4, 2, 1, 1])
    @settings(max_examples=60, deadline=None)
    def test_relations_are_the_coefficients_of_zero(self, rows, moduli):
        # Z/2 sits in Z/4 scaled by 2: the relations of (2, 1) in Z4 x Z2 are 2Z.
        gens = as_int_matrix(rows)
        moduli = moduli[:gens.shape[0]]
        E, r = math.lcm(*moduli), gens.shape[1]
        rel = SubgroupPresentation(moduli, gens).relations
        every = every_vector([E] * r)
        want = {tuple(c) for c in every[~(every @ gens.T % moduli).any(axis=1)].tolist()}
        assert generated_subgroup(rel.T.tolist(), [E] * r) == want


def permuted_generators(gens, moduli, rng):
    """The same lattice from other generators: the columns shuffled, some
    repeated, each multiplied by a unit modulo lcm(moduli)."""
    E = math.lcm(*moduli)
    units = [u for u in range(1, max(E, 2)) if math.gcd(u, E) == 1]
    picks = list(range(gens.shape[1])) + [rng.randrange(gens.shape[1]) for _ in range(3)]
    rng.shuffle(picks)
    return np.stack([gens[:, j] * rng.choice(units) for j in picks], axis=1)


class TestCanonicalForms:
    """Howell forms, and everything read off them, depend on the lattice only."""

    @given(matrices, st.sampled_from([(2, 1), (2, 3), (3, 2)]))
    @settings(max_examples=60, deadline=None)
    def test_howell_form_of_the_same_span(self, rows, prime_power):
        p, k = prime_power
        moduli = [p ** k] * len(rows[0])
        gens = as_int_matrix(rows).T
        other = permuted_generators(gens, moduli, random.Random(str(rows)))
        form = howell(gens.T, p, k)
        assert np.array_equal(form.rows, howell(other.T, p, k).rows)
        # The form's rows span exactly the generators' span.
        assert form.solve(gens.T)[1].all()
        assert all(is_member(gens, moduli, row) for row in form.rows)

    def test_subquotient_from_other_generators(self, module_corpus):
        # H2 from Z2's kernel generators and D, and from shuffled, repeated
        # and unit-scaled copies of both: the same factors, class
        # coordinates and representatives.
        rng = random.Random(1)
        for name, module in module_corpus.items():
            cx = cochain_complex(module)
            gens = kernel_mod(cx.constraint_matrix, cx.constraint_moduli)
            D, moduli = cx.coboundary_matrix.astype(object), cx.c2_moduli
            first = SubquotientPresentation(SubgroupPresentation(moduli, gens), D)
            second = SubquotientPresentation(
                SubgroupPresentation(moduli, permuted_generators(gens, moduli, rng)),
                permuted_generators(D, moduli, rng))
            assert first.factors == second.factors, name
            classes = [cls.coords for cls in cx.h2_classes()]
            classes = np.array(classes, dtype=np.int64).reshape(len(classes), len(first.factors))
            reps = first.representative(classes)
            assert np.array_equal(reps, second.representative(classes)), name
            for sq in (first, second):
                got, member = sq.class_coords(reps)
                assert member.all() and np.array_equal(got, classes), name
            cocycles = np.stack([gens @ np.array([rng.randrange(6) for _ in range(gens.shape[1])],
                                                 dtype=object) for _ in range(5)])
            (got, member), (want, _) = first.class_coords(cocycles), second.class_coords(cocycles)
            assert member.all() and np.array_equal(got, want), name


def _corpus_abelian_groups(ext_corpus, module_corpus) -> dict:
    """Every abelian group of the extension and module corpora and of the
    benchmark catalogues, once per table."""
    found = []
    for ext in ext_corpus.values():
        found += [part for rrb in (ext.kernel, ext.total, ext.quotient) for part in (rrb.H, rrb.G)]
    for m in module_corpus.values():
        found += [m.A, m.B, m.K, m.L]
    with open(CATALOGUE / "cohomology.json", encoding="utf-8") as fh:
        for case in json.load(fh)["cases"]:
            m = load_module(case["module"])
            found += [m.A, m.B, m.K, m.L]
    with open(CATALOGUE / "lifting.json", encoding="utf-8") as fh:
        for case in json.load(fh)["extensions"]:
            ext = load_extension(case["extension"])
            found += [part for rrb in (ext.kernel, ext.total, ext.quotient)
                      for part in (rrb.H, rrb.G)]
    with open(CATALOGUE / "operators.json", encoding="utf-8") as fh:
        operators = json.load(fh)
    for case in operators["enumerate"]:
        found += [load_group(case["H"]), load_group(case["G"])]
    for case in operators["validate"]:
        if case["kind"] == "group" and case["valid"]:
            found.append(load_group(case["payload"]))
    return {G.table.tobytes(): G for G in found if G.is_abelian}


class TestAbelianPresentation:
    def test_walk_matches_reference_on_corpora(self, ext_corpus, module_corpus):
        # The generator walk and the element-by-element walk take the same
        # greedy generators, so the presentations agree entry for entry.
        rng = np.random.default_rng(13)
        groups = _corpus_abelian_groups(ext_corpus, module_corpus)
        assert len(groups) >= 15
        for G in groups.values():
            for relabel in range(4):
                if relabel:
                    perm = np.array([0, *(rng.permutation(G.order - 1) + 1)])
                    table = np.empty_like(G.table)
                    table[np.ix_(perm, perm)] = perm[G.table]
                    G = FiniteGroup(table)
                P = AbelianPresentation(G)
                factors, coords = walk_presentation(G)
                assert P.factors == factors
                assert np.array_equal(P.coord_table, coords)

    def test_z4(self):
        assert AbelianPresentation(cyclic_group(4)).factors == (4,)

    def test_klein(self):
        V = direct_product(cyclic_group(2), cyclic_group(2)).group
        assert AbelianPresentation(V).factors == (2, 2)

    def test_z6_canonicalized_from_z2_x_z3(self):
        P = direct_product(cyclic_group(2), cyclic_group(3)).group
        assert AbelianPresentation(P).factors == (6,)
        assert AbelianPresentation(cyclic_group(6)).factors == (6,)

    def test_trivial(self):
        assert AbelianPresentation(cyclic_group(1)).factors == ()

    def test_rejects_nonabelian(self, groups):
        with pytest.raises(GroupError) as err:
            AbelianPresentation(groups["s3"])
        assert err.value.code == "NotAbelian"

    def test_coordinates_bijective_and_additive(self, groups):
        for name in ("z2", "z4", "z6", "z9"):
            G = groups[name]
            pres = AbelianPresentation(G)
            seen = set()
            for x in G.elements():
                v = pres.vec(x)
                assert pres.elem(v) == x
                seen.add(v)
                for y in G.elements():
                    s = tuple((a + b) % f for a, b, f in zip(v, pres.vec(y), pres.factors))
                    assert pres.elem(s) == G.mul(x, y)
            assert len(seen) == G.order

    def test_elem_refuses_rows_of_another_width(self):
        pres = AbelianPresentation(direct_product(cyclic_group(2), cyclic_group(4)).group)
        assert pres.factors == (2, 4)
        with pytest.raises(ValueError, match="need width 2, not 3"):
            pres.elem((1, 3, 7))

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_random_cyclic_products(self, orders):
        if math.prod(orders) > 36:
            orders = orders[:2]
        G = cyclic_group(orders[0])
        for n in orders[1:]:
            G = direct_product(G, cyclic_group(n)).group
        pres = AbelianPresentation(G)
        assert pres.factors == invariant_factors_oracle(orders)
        for i in range(len(pres.factors) - 1):
            assert pres.factors[i + 1] % pres.factors[i] == 0


class TestFinAbHom:
    def test_rejects_order_breaking_matrix(self):
        p2 = AbelianPresentation(cyclic_group(2))
        p4 = AbelianPresentation(cyclic_group(4))
        with pytest.raises(ValueError):
            FinAbHom(p2, p4, [[1]])  # 2 * 1 != 0 in Z/4

    def test_zero_map_on_z2(self):
        p2 = AbelianPresentation(cyclic_group(2))
        kic = hom_kernel_image_quotient(FinAbHom(p2, p2, [[0]]))
        assert kic.kernel_factors == (2,)
        assert kic.image_factors == ()
        assert kic.cokernel_factors == (2,)

    def test_identity_on_z4(self):
        p4 = AbelianPresentation(cyclic_group(4))
        kic = hom_kernel_image_quotient(FinAbHom(p4, p4, [[1]]))
        assert kic.kernel_factors == ()
        assert kic.cokernel_factors == ()
        assert kic.image_factors == (4,)

    def test_times_two_on_z4_with_enumeration_oracle(self):
        Z4 = cyclic_group(4)
        p4 = AbelianPresentation(Z4)
        h = FinAbHom(p4, p4, [[2]])
        # Oracle: walk all four elements.
        images = {h.apply_vec(p4.vec(x)) for x in Z4.elements()}
        kernel = [x for x in Z4.elements() if not any(h.apply_vec(p4.vec(x)))]
        assert len(kernel) == 2 and len(images) == 2
        kic = hom_kernel_image_quotient(h)
        assert kic.kernel_factors == (2,)
        assert kic.image_factors == (2,)
        assert kic.cokernel_factors == (2,)

    def test_order_identities_and_class_map(self, groups):
        cases = [
            (cyclic_group(4), cyclic_group(4), [[2]]),
            (cyclic_group(6), cyclic_group(6), [[3]]),
            (cyclic_group(2), cyclic_group(6), [[3]]),
            (cyclic_group(6), cyclic_group(2), [[1]]),
        ]
        for dom_g, cod_g, mat in cases:
            dom, cod = AbelianPresentation(dom_g), AbelianPresentation(cod_g)
            h = FinAbHom(dom, cod, mat)
            kic = hom_kernel_image_quotient(h)
            kernel, image, cokernel = map(math.prod, (kic.kernel_factors, kic.image_factors,
                                                     kic.cokernel_factors))
            assert kernel * image == dom_g.order
            assert image * cokernel == cod_g.order
            images = np.array([h.apply_vec(dom.vec(x)) for x in dom_g.elements()])
            assert not kic.cokernel_class_of(images).any()
            for emb, pres in ((kic.kernel_embedding, dom), (kic.image_embedding, cod)):
                bound = np.array(pres.factors, dtype=object).reshape(-1, 1)
                assert ((0 <= emb) & (emb < bound)).all()

    def test_entries_reduced_before_the_order_check(self):
        # 2**62 + 2 is 2 modulo 4; times the generator order 4, unreduced,
        # it would leave int64.
        p4 = AbelianPresentation(cyclic_group(4))
        h, double = FinAbHom(p4, p4, [[2 ** 62 + 2]]), FinAbHom(p4, p4, [[2]])
        assert h.matrix.tolist() == double.matrix.tolist() == [[2]]
        assert [h.apply_vec([x]) for x in range(4)] == [double.apply_vec([x]) for x in range(4)]

    def test_unreduced_vectors_are_reduced_first(self):
        # (2**62 + 1) * 2 leaves int64; reduced first it is 2 * 2 modulo 3.
        p3 = AbelianPresentation(cyclic_group(3))
        assert FinAbHom(p3, p3, [[2]]).apply_vec([2 ** 62 + 1]) == ((2 ** 63 + 2) % 3,)
        sub = SubgroupPresentation([9], as_int_matrix([[3]]))
        assert sub.representative([[2 ** 62 + 1]]).tolist() == [[(2 ** 62 + 1) * 3 % 9]]

    def test_zero_map_to_trivial_group(self):
        # The kernel of Z4 -> 1 is all of Z4, embedded by the reduced
        # coordinate 1: an unreduced -1 would name a wrong element.
        p4, one = AbelianPresentation(cyclic_group(4)), AbelianPresentation(cyclic_group(1))
        kic = hom_kernel_image_quotient(FinAbHom(p4, one, []))
        assert kic.kernel_factors == (4,) and kic.kernel_embedding.tolist() == [[1]]
        assert kic.image_factors == kic.cokernel_factors == ()

    def test_embeddings_land_in_subobjects(self):
        p4 = AbelianPresentation(cyclic_group(4))
        h = FinAbHom(p4, p4, [[2]])
        kic = hom_kernel_image_quotient(h)
        # kernel embedding columns are genuine kernel elements
        for j in range(kic.kernel_embedding.shape[1]):
            col = kic.kernel_embedding[:, j]
            img = h.apply_vec(col)
            assert not any(img)
