"""Invariant factors, coordinate isomorphisms, and exact linear algebra."""

import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrbgroups import (
    FinAbHom,
    GroupError,
    abelian_presentation,
    cochain_complex,
    cyclic_group,
    direct_product,
    hom_kernel_image_quotient,
)
from rrbgroups.abelian import SubgroupPresentation, _stack_moduli, kernel_mod
from rrbgroups.intlinalg import (
    as_int_matrix,
    exact_matmul,
    identity_matrix,
    smith_normal_form,
    solve_with_snf,
)


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


def bareiss_det(mat):
    """Exact determinant of a square matrix by fraction-free elimination."""
    M = [list(row) for row in mat]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if M[i][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1] if n else 1


def lattice_index(cols):
    """Index in Z^r of the lattice spanned by the columns; 0 if not full rank."""
    snf = smith_normal_form(cols)
    if snf.rank < cols.shape[0]:
        return 0
    return math.prod(snf.diagonal[: snf.rank])


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
        snf = smith_normal_form(a)
        if any(solve_with_snf(snf, col) is None for col in b.T):
            return False
    return lattice_index(cols) == lattice_index(other) != 0


def smith_by_cell_scans(rows):
    """Reference Smith form: the same elimination, with the pivot (first entry
    of least absolute value, row-major) and the divisibility witness (first
    row holding a non-multiple) found by cell-by-cell loops."""
    A = as_int_matrix(rows)
    n, m = A.shape
    U, Uinv, V = identity_matrix(n), identity_matrix(n), identity_matrix(m)

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


matrices = st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
    min_size=1, max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestSmithNormalForm:
    def test_classic_example(self):
        A = as_int_matrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        snf = smith_normal_form(A)
        assert snf.diagonal == [2, 2, 156]

    @given(matrices)
    @settings(max_examples=60, deadline=None)
    def test_decomposition_properties(self, rows):
        A = as_int_matrix(rows)
        snf = smith_normal_form(A)
        n, m = A.shape
        assert (snf.U @ A @ snf.V == snf.D).all()
        assert (snf.U @ snf.Uinv == identity_matrix(n)).all()
        assert abs(bareiss_det(snf.V)) == 1
        assert all(type(x) is int for f in snf for x in f.flat)
        diag = snf.diagonal
        for i in range(len(diag) - 1):
            assert diag[i] >= 0
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
        off = snf.D * (1 - np.eye(*snf.D.shape, dtype=object))
        assert not off.any()

    @given(matrices)
    @example([[2, 0, 0], [0, 3, 0], [0, 0, 5]])  # two rows hold a witness
    @settings(max_examples=100, deadline=None)
    def test_matches_cell_scan_reference(self, rows):
        snf = smith_normal_form(as_int_matrix(rows))
        for got, want in zip(snf, smith_by_cell_scans(rows)):
            assert got.shape == want.shape and (got == want).all()

    @given(matrices, st.data())
    @settings(max_examples=60, deadline=None)
    def test_kernel_annihilates(self, rows, data):
        # kernel_mod spans exactly {x : A x == 0 mod moduli}: every column is
        # a solution, and the spanned lattice has the kernel's index, which
        # is the order of the subgroup the columns of A generate modulo the
        # moduli.  Moduli with k > 1 and with mixed primes are included.
        A = as_int_matrix(rows)
        n, m = A.shape
        moduli = data.draw(st.lists(st.sampled_from([1, 2, 3, 4, 8, 9, 6, 12]),
                                    min_size=n, max_size=n))
        ker = kernel_mod(A, moduli)
        assert ker.shape[0] == m
        assert not any(x % q for row, q in zip(A @ ker, moduli) for x in row)
        assert lattice_index(ker) == len(generated_subgroup(A.T.tolist(), moduli))

    def test_kernel_of_row(self):
        ker = kernel_mod(as_int_matrix([[1, 2, 3]]), [5])
        assert ker.shape == (3, 3)
        assert lattice_index(ker) == 5

    @pytest.mark.parametrize("rows, moduli, index", [
        ([[1, 2, 3]], [2 ** 31 - 1], 2 ** 31 - 1),       # q * q * m past int64
        ([[2 ** 70 + 1, 2], [3, 2 ** 65]], [4, 9], 36),  # entries past int64
    ])
    def test_kernel_past_int64(self, rows, moduli, index):
        A = as_int_matrix(rows)
        ker = kernel_mod(A, moduli)
        assert all(type(x) is int for x in ker.flat)
        assert not any(x % q for row, q in zip(A @ ker, moduli) for x in row)
        assert lattice_index(ker) == index

    def test_solve(self):
        snf = smith_normal_form(as_int_matrix([[2, 0], [0, 3]]))
        assert solve_with_snf(snf, np.array([4, 9], dtype=object)).tolist() == [2, 3]
        assert solve_with_snf(snf, np.array([1, 0], dtype=object)) is None

    @given(matrices, st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_solve_consistent_system(self, rows, xs):
        A = as_int_matrix(rows)
        x = np.array((xs * 4)[: A.shape[1]], dtype=object)
        b = A @ x
        sol = solve_with_snf(smith_normal_form(A), b)
        assert sol is not None
        assert (A @ sol == b).all()


def assert_matches_reference(rows):
    """All four transforms equal the cell-scan reference and hold Python ints."""
    snf = smith_normal_form(as_int_matrix(rows))
    for got, want in zip(snf, smith_by_cell_scans(rows)):
        assert got.shape == want.shape and (got == want).all()
        assert all(type(x) is int for x in got.flat)


# Whole matrices below 2**31 start in int64 and mostly cross the bound during
# elimination; matrices with larger entries run on Python ints throughout.
wide_matrices = st.tuples(st.integers(1, 8), st.integers(1, 8),
                          st.sampled_from([9, 2 ** 30, 2 ** 40])).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-shape[2], shape[2]), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0]))


class TestSmithPromotion:
    @given(wide_matrices)
    @settings(max_examples=60, deadline=None)
    def test_wide_entries_match_reference(self, rows):
        assert_matches_reference(rows)

    def test_exact_matmul_past_int64(self):
        a = as_int_matrix([[2 ** 40, 1], [3, 2 ** 62]])
        b = as_int_matrix([[2 ** 40], [5]])
        got = exact_matmul(a, b)
        assert got.tolist() == [[2 ** 80 + 5], [3 * 2 ** 40 + 5 * 2 ** 62]]
        assert all(type(x) is int for x in got.flat)

    def test_entries_crossing_the_int64_bound(self):
        # Every entry starts below 2**31; clearing the first column writes
        # 1 - 2**60, past the range the int64 elimination keeps.
        rows = [[1, 2 ** 30, 3], [2 ** 30, 1, 5], [7, 11, 2 ** 30 - 1]]
        assert max(smith_normal_form(as_int_matrix(rows)).diagonal) > 2 ** 62
        assert_matches_reference(rows)


class TestSmithReplay:
    @given(matrices, st.permutations(["U", "V", "Uinv"]))
    @settings(max_examples=40, deadline=None)
    def test_read_order_does_not_matter(self, rows, order):
        A = as_int_matrix(rows)
        first = smith_normal_form(A)
        for name in order:
            getattr(first, name)
        for got, want in zip(first, smith_normal_form(A)):
            assert (got == want).all()

    @given(matrices)
    @settings(max_examples=40, deadline=None)
    def test_v_head_is_the_leading_rows_of_v(self, rows):
        snf = smith_normal_form(as_int_matrix(rows))
        V = smith_by_cell_scans(rows)[2]
        for r in range(V.shape[0] + 1):
            head = snf.v_head(r)
            assert head.shape == (r, V.shape[1]) and (head == V[:r]).all()
            assert all(type(x) is int for x in head.flat)

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
        # The solver gives the same solutions from the replayed transforms
        # as from the cell-scan reference's.
        rng = random.Random(0)
        for module in module_corpus.values():
            cx = cochain_complex(module)
            lattices = [(cx.coboundary_matrix, cx.c2_moduli),
                        (kernel_mod(cx.constraint_matrix, cx.constraint_moduli), cx.c2_moduli),
                        (cx.b2.relations, cx.c1_moduli)]
            for gens, moduli in lattices:
                stacked = _stack_moduli(gens, moduli)
                D, U, V, _ = smith_by_cell_scans(stacked.tolist())
                reference = SimpleNamespace(D=D, U=U, V=V)
                snf = smith_normal_form(stacked)
                sub = SubgroupPresentation(moduli, gens)
                r = gens.shape[1]
                for _ in range(6):
                    coeffs = np.array([rng.randrange(-3, 4) for _ in range(r)], dtype=object)
                    member = gens @ coeffs
                    other = np.array([rng.randrange(m) for m in moduli], dtype=object)
                    for vec in (member, other):
                        want = solve_with_snf(reference, vec)
                        got = solve_with_snf(snf, vec)
                        coeffs_got = sub.membership_coefficients(vec)
                        if want is None:
                            assert got is None and coeffs_got is None
                        else:
                            assert (got == want).all() and (coeffs_got == want[:r]).all()


class TestAbelianPresentation:
    def test_z4(self):
        assert abelian_presentation(cyclic_group(4)).factors == (4,)

    def test_klein(self):
        V = direct_product(cyclic_group(2), cyclic_group(2)).group
        assert abelian_presentation(V).factors == (2, 2)

    def test_z6_canonicalized_from_z2_x_z3(self):
        P = direct_product(cyclic_group(2), cyclic_group(3)).group
        assert abelian_presentation(P).factors == (6,)
        assert abelian_presentation(cyclic_group(6)).factors == (6,)

    def test_trivial(self):
        assert abelian_presentation(cyclic_group(1)).factors == ()

    def test_rejects_nonabelian(self, groups):
        with pytest.raises(GroupError) as err:
            abelian_presentation(groups["s3"])
        assert err.value.code == "NotAbelian"

    def test_coordinates_bijective_and_additive(self, groups):
        for name in ("z2", "z4", "z6", "z9"):
            G = groups[name]
            pres = abelian_presentation(G)
            seen = set()
            for x in G.elements():
                v = pres.vec(x)
                assert pres.elem(v) == x
                seen.add(v)
                for y in G.elements():
                    s = tuple((a + b) % f for a, b, f in zip(v, pres.vec(y), pres.factors))
                    assert pres.elem(s) == G.mul(x, y)
            assert len(seen) == G.order

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_random_cyclic_products(self, orders):
        if math.prod(orders) > 36:
            orders = orders[:2]
        G = cyclic_group(orders[0])
        for n in orders[1:]:
            G = direct_product(G, cyclic_group(n)).group
        pres = abelian_presentation(G)
        assert pres.factors == invariant_factors_oracle(orders)
        for i in range(len(pres.factors) - 1):
            assert pres.factors[i + 1] % pres.factors[i] == 0


class TestFinAbHom:
    def test_rejects_order_breaking_matrix(self):
        p2 = abelian_presentation(cyclic_group(2))
        p4 = abelian_presentation(cyclic_group(4))
        with pytest.raises(ValueError):
            FinAbHom(p2, p4, [[1]])  # 2 * 1 != 0 in Z/4

    def test_zero_map_on_z2(self):
        p2 = abelian_presentation(cyclic_group(2))
        kic = hom_kernel_image_quotient(FinAbHom(p2, p2, [[0]]))
        assert kic.kernel_factors == (2,)
        assert kic.image_factors == ()
        assert kic.cokernel_factors == (2,)

    def test_identity_on_z4(self):
        p4 = abelian_presentation(cyclic_group(4))
        kic = hom_kernel_image_quotient(FinAbHom(p4, p4, [[1]]))
        assert kic.kernel_factors == ()
        assert kic.cokernel_factors == ()
        assert kic.image_factors == (4,)

    def test_times_two_on_z4_with_enumeration_oracle(self):
        Z4 = cyclic_group(4)
        p4 = abelian_presentation(Z4)
        h = FinAbHom(p4, p4, [[2]])
        # Oracle: walk all four elements.
        images = {h.apply_elem(x) for x in Z4.elements()}
        kernel = [x for x in Z4.elements() if h.apply_elem(x) == 0]
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
            dom, cod = abelian_presentation(dom_g), abelian_presentation(cod_g)
            h = FinAbHom(dom, cod, mat)
            kic = hom_kernel_image_quotient(h)
            assert kic.kernel_order * kic.image_order == dom_g.order
            assert kic.image_order * kic.cokernel_order == cod_g.order
            for x in dom_g.elements():
                cls = kic.cokernel_class_of(cod.vec(h.apply_elem(x)))
                assert not any(cls)

    def test_embeddings_land_in_subobjects(self):
        p4 = abelian_presentation(cyclic_group(4))
        h = FinAbHom(p4, p4, [[2]])
        kic = hom_kernel_image_quotient(h)
        # kernel embedding columns are genuine kernel elements
        for j in range(kic.kernel_embedding.shape[1]):
            col = kic.kernel_embedding[:, j]
            img = h.apply_vec(col)
            assert not any(img)
