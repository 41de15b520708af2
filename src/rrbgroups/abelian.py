"""Finite abelian groups in invariant-factor coordinates.

The bridge between Cayley-table groups and exact linear algebra: every
abelian group gets a coordinate isomorphism onto ``Z/d_1 + ... + Z/d_k``
(written additively), and subgroups / quotients of coordinate spaces are
presented through Smith normal form.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup, GroupError
from .intlinalg import (
    SmithForm,
    as_int_matrix,
    exact_matmul,
    identity_matrix,
    kernel_mod_prime_power,
    smith_normal_form,
    solve_with_snf,
    zeros_matrix,
)


def reduce_vec(vec: Sequence[int], moduli: Sequence[int]) -> Tuple[int, ...]:
    return tuple(int(v) % int(m) for v, m in zip(vec, moduli))


def space_order(moduli: Sequence[int]) -> int:
    out = 1
    for m in moduli:
        out *= int(m)
    return out


def iter_vectors(moduli: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    yield from itertools.product(*(range(int(m)) for m in moduli))


class QuotientPresentation(NamedTuple):
    """Z^n modulo the column span of a relation matrix, canonicalized.

    factors: invariant factors (each >= 2, divisibility chain).
    to_coords: k x n matrix mapping an ambient vector to class coordinates
        (reduce mod factors after applying).
    lift: n x k matrix sending a class coordinate vector to an ambient
        representative.
    """

    factors: Tuple[int, ...]
    to_coords: np.ndarray
    lift: np.ndarray

    def coords(self, vec: Sequence[int]) -> Tuple[int, ...]:
        return reduce_vec(self.to_coords @ np.asarray(vec, dtype=object), self.factors)

    @property
    def order(self) -> int:
        return space_order(self.factors)


def present_quotient(n: int, relation_cols: np.ndarray) -> QuotientPresentation:
    """Present ``Z^n / colspan(relation_cols)`` (must be finite)."""
    return _quotient_of_snf(n, smith_normal_form(relation_cols))


def _quotient_of_snf(n: int, snf: SmithForm) -> QuotientPresentation:
    """``Z^n`` modulo the column span of a matrix with n rows, from its Smith form."""
    diag = snf.diagonal + [0] * (n - len(snf.diagonal))
    keep = [i for i in range(n) if diag[i] != 1]
    if any(diag[i] == 0 for i in keep):
        raise ValueError("quotient is infinite; relation matrix has deficient rank")
    factors = tuple(int(diag[i]) for i in keep)
    to_coords = snf.U[keep, :] if keep else zeros_matrix(0, n)
    lift = snf.Uinv[:, keep] if keep else zeros_matrix(n, 0)
    return QuotientPresentation(factors, to_coords, lift)


def _stack_moduli(cols: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """``[cols | diag(moduli)]``: its column span is the lattice of cols plus
    every vector that vanishes modulo the moduli."""
    diag = zeros_matrix(len(moduli), len(moduli))
    for i, m in enumerate(moduli):
        diag[i, i] = int(m)
    return np.concatenate([cols, diag], axis=1)


def _kernel_head(snf: SmithForm, r: int) -> np.ndarray:
    """First r coordinates of a kernel basis of the factored matrix."""
    return snf.v_head(r)[:, snf.rank:]


def _prime_powers(n: int) -> List[Tuple[int, int]]:
    """(p, k) for each prime power p**k exactly dividing n."""
    out, p = [], 2
    while n > 1:
        if p * p > n:
            p = n
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    return out


def kernel_mod(matrix: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Generators (columns) of {x : matrix @ x == 0 modulo moduli}.

    The lattice contains E Z^m for E = lcm(moduli).  It is solved modulo
    each prime power q = p**k exactly dividing E, and by CRT it is the sum
    over q of E/q times the m-column basis for q; so a prime-power E gives
    exactly m columns, and E = 1 the identity.
    """
    m = matrix.shape[1]
    E = math.lcm(*(int(x) for x in moduli))
    parts = [kernel_mod_prime_power(matrix, moduli, p, k) * (E // p ** k)
             for p, k in _prime_powers(E)]
    return np.concatenate(parts, axis=1) if parts else identity_matrix(m)


class SubgroupPresentation:
    """A subgroup of ``prod Z/moduli`` generated by given coordinate vectors.

    ``relations`` holds, as columns, generators of the coefficient vectors c
    with ``generator_cols @ c == 0`` in the ambient group.  The relation
    lattice is presented (one more Smith form) only when ``factors``,
    ``order``, ``coords``, ``embedding`` or ``elements`` is first read, so a
    caller that only tests membership never pays for it.
    """

    def __init__(self, moduli: Sequence[int], generator_cols: np.ndarray):
        self.ambient_moduli = tuple(int(m) for m in moduli)
        self._gens = generator_cols
        # The one factorization of this lattice: membership, relations and
        # (through SubquotientPresentation) the class map all read it.
        self._member_snf = smith_normal_form(_stack_moduli(generator_cols, self.ambient_moduli))
        self.relations = _kernel_head(self._member_snf, generator_cols.shape[1])

    @functools.cached_property
    def _pres(self) -> QuotientPresentation:
        return present_quotient(self._gens.shape[1], self.relations)

    @property
    def factors(self) -> Tuple[int, ...]:
        return self._pres.factors

    @property
    def order(self) -> int:
        return self._pres.order

    @functools.cached_property
    def embedding(self) -> np.ndarray:
        """Images in ambient coordinates of the presentation's generators."""
        return self._gens @ self._pres.lift

    def membership_coefficients(self, vec: Sequence[int]) -> Optional[np.ndarray]:
        """Generator coefficients expressing vec, or None if not a member."""
        sol = solve_with_snf(self._member_snf, np.asarray(vec, dtype=object))
        if sol is None:
            return None
        return sol[: self._gens.shape[1]]

    def contains(self, vec: Sequence[int]) -> bool:
        return self.membership_coefficients(vec) is not None

    def coords(self, vec: Sequence[int]) -> Optional[Tuple[int, ...]]:
        c = self.membership_coefficients(vec)
        if c is None:
            return None
        return self._pres.coords(c)

    def element_from_coords(self, coords: Sequence[int]) -> Tuple[int, ...]:
        vec = self.embedding @ np.asarray(coords, dtype=object)
        return reduce_vec(vec, self.ambient_moduli)

    def elements(self) -> Iterator[Tuple[int, ...]]:
        """All members as ambient coordinate vectors (desk scale only)."""
        for c in iter_vectors(self.factors):
            yield self.element_from_coords(c)


class SubquotientPresentation:
    """Quotient of a presented subgroup by a smaller one, with class map.

    The numerator lattice, spanned by S = [generators | diag(moduli)], is
    read off the numerator's own Smith form U S V = D: it has the basis
    ``Uinv diag(d)``, so the coordinates of v in that basis are
    ``(U v)_i / d_i``.  The denominator is given by generator columns.
    """

    def __init__(self, numerator: SubgroupPresentation, small_cols: np.ndarray):
        self.ambient_moduli = numerator.ambient_moduli
        n = len(self.ambient_moduli)
        snf = numerator._member_snf
        if snf.rank != n:
            raise ValueError("numerator lattice is not full rank")
        self._U = snf.U
        self._d = snf.diagonal
        self._basis = snf.Uinv * np.asarray(self._d, dtype=object)
        # Coordinates in that basis of the columns of [small_cols | diag(moduli)]:
        # U @ small_cols, and U @ diag(moduli) is U with its columns scaled.
        d = np.asarray(self._d, dtype=object).reshape(-1, 1)
        coords = np.concatenate([exact_matmul(self._U, small_cols),
                                 self._U * np.asarray(self.ambient_moduli, dtype=object)], axis=1)
        if (coords % d).any():
            raise ValueError("denominator lattice not contained in numerator")
        self._pres = present_quotient(n, coords // d)
        self.factors = self._pres.factors
        self.order = self._pres.order

    def _basis_coords(self, vec: Sequence[int]) -> Optional[List[int]]:
        """Coordinates of vec in the numerator basis; None outside the lattice."""
        c = self._U @ np.asarray(vec, dtype=object)
        if any(x % d for x, d in zip(c, self._d)):
            return None
        return [x // d for x, d in zip(c, self._d)]

    def class_coords(self, vec: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """Class of an ambient vector; None if it is not in the numerator."""
        c = self._basis_coords(vec)
        if c is None:
            return None
        return self._pres.coords(c)

    def representative(self, coords: Sequence[int]) -> Tuple[int, ...]:
        vec = self._basis @ (self._pres.lift @ np.asarray(coords, dtype=object))
        return reduce_vec(vec, self.ambient_moduli)


class AbelianPresentation:
    """Invariant-factor coordinates for an abelian FiniteGroup.

    ``factors`` is the canonical chain d_1 | d_2 | ... (each >= 2, empty for
    the trivial group); ``vec(x)`` and ``elem(v)`` convert between element
    indices and coordinate tuples.
    """

    def __init__(self, group: FiniteGroup):
        if not group.is_abelian:
            raise GroupError("NotAbelian", "invariant factors need an abelian group")
        n = group.order
        # Greedy generating set, with a word vector per element from the
        # Cayley-graph walk.  Relations: every edge g --gen_i--> g*gen_i gives
        # word(g) + e_i - word(g*gen_i) = 0, which presents the group.
        gens: List[int] = []
        words: dict = {0: ()}
        while len(words) < n:
            gens.append(min(x for x in range(n) if x not in words))
            k = len(gens)
            words = {0: (0,) * k}
            frontier = [0]
            while frontier:
                fresh = []
                for g in frontier:
                    for i, gen in enumerate(gens):
                        h = group.mul(g, gen)
                        if h not in words:
                            w = list(words[g])
                            w[i] += 1
                            words[h] = tuple(w)
                            fresh.append(h)
                frontier = fresh
        k = len(gens)
        cols: List[List[int]] = []
        for g in range(n):
            for i, gen in enumerate(gens):
                col = [a - b for a, b in zip(words[g], words[group.mul(g, gen)])]
                col[i] += 1
                cols.append(col)
        rel = as_int_matrix(cols, ncols=k).T
        pres = present_quotient(k, rel)
        self.group = group
        self.factors = pres.factors
        # coord_table[x] is the coordinate vector of x; elem_index[i] is the
        # element whose coordinates have mixed-radix index i over the factor
        # product (last coordinate fastest).
        self.coord_table = np.array([pres.coords(words[x]) for x in range(n)],
                                    dtype=np.int64).reshape(n, len(self.factors))
        self._strides = np.array([math.prod(self.factors[j + 1:])
                                  for j in range(len(self.factors))], dtype=np.int64)
        flat = self.coord_table @ self._strides
        if len(set(flat.tolist())) != n:
            raise AssertionError("coordinate map is not injective")
        if n != space_order(self.factors):
            raise AssertionError("coordinate map is not onto the factor product")
        self.elem_index = np.empty(n, dtype=np.int64)
        self.elem_index[flat] = np.arange(n)
        for arr in (self.coord_table, self.elem_index):
            arr.setflags(write=False)
        # Elements realizing the unit coordinate vectors.
        self.generators = [int(x) for x in self.elem_index[self._strides]]

    @property
    def rank(self) -> int:
        return len(self.factors)

    def vec(self, x: int) -> Tuple[int, ...]:
        return tuple(self.coord_table[x].tolist())

    def elem(self, vec: Sequence[int]) -> int:
        return int(self.elems(reduce_vec(vec, self.factors)))

    def elems(self, coords: np.ndarray) -> np.ndarray:
        """Elements of reduced coordinate vectors, along the last axis."""
        return self.elem_index[np.asarray(coords, dtype=np.int64) @ self._strides]

    def perm_matrix(self, perm: np.ndarray) -> np.ndarray:
        """Matrix of an automorphism given as an element permutation."""
        return self.hom_matrix(self, perm)

    def hom_matrix(self, codomain: "AbelianPresentation", mapping: np.ndarray) -> np.ndarray:
        """Matrix (codomain.rank x rank) of a homomorphism given elementwise;
        for a stack of mappings along leading axes, the stack of matrices.

        Its entries are coordinates below the codomain's factors, so it is
        int64."""
        images = np.asarray(mapping, dtype=np.int64)[..., self.generators]
        return np.swapaxes(codomain.coord_table[images], -1, -2)

    def __repr__(self):
        return f"AbelianPresentation(factors={list(self.factors)})"


def abelian_presentation(G: FiniteGroup) -> AbelianPresentation:
    """Invariant-factor decomposition with explicit coordinate isomorphism."""
    return AbelianPresentation(G)


class FinAbHom:
    """Homomorphism between presented finite abelian groups, as a matrix."""

    def __init__(self, domain: AbelianPresentation, codomain: AbelianPresentation,
                 matrix: Sequence[Sequence[int]]):
        M = as_int_matrix(matrix, ncols=domain.rank)
        if M.shape != (codomain.rank, domain.rank):
            raise ValueError(f"matrix shape {M.shape} does not match "
                             f"({codomain.rank}, {domain.rank})")
        # d_i times the i-th column must vanish in the codomain.
        for j, d in enumerate(domain.factors):
            col = reduce_vec(M[:, j] * d, codomain.factors)
            if any(col):
                raise ValueError(f"column {j} does not respect generator order {d}")
        for i in range(codomain.rank):
            for j in range(domain.rank):
                M[i, j] %= codomain.factors[i]
        self.domain = domain
        self.codomain = codomain
        self.matrix = M

    def apply_vec(self, vec: Sequence[int]) -> Tuple[int, ...]:
        return reduce_vec(self.matrix @ np.asarray(vec, dtype=object), self.codomain.factors)

    def apply_elem(self, x: int) -> int:
        return self.codomain.elem(self.apply_vec(self.domain.vec(x)))


class KernelImageCokernel(NamedTuple):
    kernel_factors: Tuple[int, ...]
    kernel_embedding: np.ndarray
    image_factors: Tuple[int, ...]
    image_embedding: np.ndarray
    cokernel_factors: Tuple[int, ...]
    cokernel_class_of: Callable[[Sequence[int]], Tuple[int, ...]]

    @property
    def kernel_order(self) -> int:
        return space_order(self.kernel_factors)

    @property
    def image_order(self) -> int:
        return space_order(self.image_factors)

    @property
    def cokernel_order(self) -> int:
        return space_order(self.cokernel_factors)


def hom_kernel_image_quotient(h: FinAbHom) -> KernelImageCokernel:
    """Kernel, image, and cokernel of a FinAbHom via Smith normal form.

    Kernel and image come as canonical factor lists plus embedding matrices
    (columns are generator images in domain / codomain coordinates); the
    cokernel comes with a class-of map on codomain coordinate vectors.
    """
    dom, cod = h.domain, h.codomain
    # The image lattice [M | diag(cod)] is factored once.  The relations
    # among the columns of M are the kernel (x with M@x = 0 in the codomain),
    # and the same Smith form presents the cokernel.
    image_sub = SubgroupPresentation(cod.factors, h.matrix)
    kernel_sub = SubgroupPresentation(dom.factors, image_sub.relations)
    coker = _quotient_of_snf(cod.rank, image_sub._member_snf)
    return KernelImageCokernel(
        kernel_sub.factors, kernel_sub.embedding,
        image_sub.factors, image_sub.embedding,
        coker.factors, coker.coords,
    )
