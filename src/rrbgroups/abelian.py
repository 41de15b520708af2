"""Finite abelian groups in invariant-factor coordinates.

The bridge between Cayley-table groups and exact linear algebra: every
abelian group gets a coordinate isomorphism onto ``Z/d_1 + ... + Z/d_k``
(written additively), and subgroups, quotients and subquotients of
coordinate spaces are presented prime by prime.  Each lattice met here
contains E Z^n for a known E, so it is the sum of its p-parts for the prime
powers p^k exactly dividing E; each p-part is put in reduced Howell form
over Z/p^k (``intlinalg.howell``), and the parts are merged by CRT into one
chain of invariant factors.  Every basis, coordinate map and representative
is read off the Howell forms, so it depends on the lattices only, not on
the generators that span them, and every returned array is reduced and
int64 (see ``intlinalg`` for the one bound that keeps it there).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup, GroupError, _levels
from .intlinalg import (
    as_int_matrix,
    howell,
    kernel_mod_prime_power,
    present_mod_prime_power,
    prime_power_scale,
    prime_powers,
    scale_rows,
)


def reduce_vec(vec: Sequence[int], moduli: Sequence[int]) -> Tuple[int, ...]:
    return tuple(int(v) % int(m) for v, m in zip(vec, moduli))


def iter_vectors(moduli: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    yield from itertools.product(*(range(int(m)) for m in moduli))


class QuotientPresentation(NamedTuple):
    """Z^n modulo a lattice containing E Z^n, canonicalized.

    factors: invariant factors (each >= 2, divisibility chain).
    to_coords: k x n matrix mapping an ambient vector to class coordinates
        (reduce mod factors after applying); row i is reduced mod factor i.
    lift: n x k matrix sending a class coordinate vector to an ambient
        representative; reduced mod E.
    """

    factors: Tuple[int, ...]
    to_coords: np.ndarray
    lift: np.ndarray

    def coords(self, vecs: Sequence[int]):
        """Class coordinates of a vector, or of each row of a stack."""
        stack = np.asarray(vecs, dtype=np.int64)
        if stack.ndim == 1:
            return reduce_vec(self.to_coords @ stack, self.factors)
        return stack @ self.to_coords.T % np.array(self.factors, dtype=np.int64)

    @property
    def order(self) -> int:
        return math.prod(self.factors)


def _idempotent(n: int, q: int) -> int:
    """The element of Z/n that is 1 modulo q and 0 modulo n / q, for q a
    prime power exactly dividing n."""
    return n // q * pow(n // q, -1, q)


def _merge(parts, size: int, E: int) -> QuotientPresentation:
    """One presentation over Z^size from its p-parts ``(p, k, offset, exps,
    to, lift)``, one for each prime power p**k exactly dividing E: a part is
    ``present_mod_prime_power`` output over the coordinates from ``offset``.

    The i-th largest cyclic factors of all parts make one invariant factor
    d.  Its coordinate is the CRT combination of theirs: each part's row
    times the idempotent of Z/d that is 1 on its p-power and 0 on the rest.
    A part's lift is added as given, so parts that share coordinates must
    clear what their lifts hold in the other parts.
    """
    count = max((len(part[3]) for part in parts), default=0)
    factors = np.ones(count, dtype=np.int64)
    for p, _, _, exps, _, _ in parts:
        factors[count - len(exps):] *= np.array([p ** int(e) for e in exps], dtype=np.int64)
    to_coords = np.zeros((count, size), dtype=np.int64)
    lift = np.zeros((size, count), dtype=np.int64)
    for p, k, offset, exps, to, lf in parts:
        at = np.arange(count - len(exps), count)
        cols = slice(offset, offset + to.shape[1])
        for row, i, e in zip(to, at, exps):
            to_coords[i, cols] += _idempotent(int(factors[i]), p ** int(e)) * row
        lift[cols, at] += lf
    return QuotientPresentation(tuple(int(d) for d in factors),
                                to_coords % factors[:, None], lift % E)


def present_quotient(relation_cols: np.ndarray, E: int) -> QuotientPresentation:
    """Present ``Z^n / colspan(relation_cols)``, where E Z^n lies in the span.

    The parts share the coordinates, so each part's lift is taken by the
    idempotent of Z/E that is 1 modulo p**k and 0 modulo E / p**k."""
    n = relation_cols.shape[0]
    parts = []
    for p, k in prime_powers(E, n):
        exps, to, lift = present_mod_prime_power(relation_cols.T, p, k)
        parts.append((p, k, 0, exps, to, lift * _idempotent(E, p ** k)))
    return _merge(parts, n, E)


def _stack_moduli(cols: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """``[cols | diag(moduli)]``: its column span is the lattice of cols plus
    every vector that vanishes modulo the moduli."""
    return np.concatenate([cols, np.diag(np.array(moduli, dtype=np.int64))], axis=1)


def kernel_mod(matrix: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Generators (columns) of {x : matrix @ x == 0 modulo moduli}.

    The lattice contains E Z^m for E = lcm(moduli).  It is solved modulo
    each prime power q = p**k exactly dividing E, and by CRT it is the sum
    over q of E/q times the m-column basis for q; so a prime-power E gives
    exactly m columns, and E = 1 the identity.  Entries lie in [0, E).
    """
    m = matrix.shape[1]
    E = math.lcm(*(int(x) for x in moduli))
    parts = [kernel_mod_prime_power(matrix, moduli, p, k) * (E // p ** k)
             for p, k in prime_powers(E, m)]
    return np.concatenate(parts, axis=1) if parts else np.eye(m, dtype=np.int64)


class SubgroupPresentation:
    """A subgroup of ``prod Z/moduli`` generated by given coordinate vectors.

    For each prime power q = p**k exactly dividing E = lcm(moduli), the
    p-part of the ambient group embeds in (Z/q)^n by scaling coordinate i by
    q / gcd(moduli[i], q), and the subgroup's p-part is the span of the
    scaled generators, put in reduced Howell form once (tracking each row's
    coefficients over the given generators).  The rows of the forms, scaled
    back and taken by the CRT idempotents of E, are the columns of
    ``generators``, a generating set that depends on the subgroup only.
    Elements and subquotients are read over them.
    ``relations`` holds, as columns, generators of the coefficient vectors c
    with ``generator_cols @ c == 0`` in the ambient group; it is solved only
    when first read.
    """

    def __init__(self, moduli: Sequence[int], generator_cols: np.ndarray):
        self.ambient_moduli = tuple(int(m) for m in moduli)
        self._gens = generator_cols
        self._E = math.lcm(*self.ambient_moduli)
        r = generator_cols.shape[1]
        # Per prime power: the scaling into (Z/q)^n, and the Howell form.
        self._forms = []
        for p, k in prime_powers(self._E, len(self.ambient_moduli)):
            scale = prime_power_scale(self.ambient_moduli, p ** k)
            form = howell(scale_rows(generator_cols, scale, p ** k).T, p, k,
                          carry=np.eye(r, dtype=np.int64))
            self._forms.append((scale, form))

    @functools.cached_property
    def relations(self) -> np.ndarray:
        return kernel_mod(self._gens, self.ambient_moduli)

    @functools.cached_property
    def generators(self) -> np.ndarray:
        cols = [(form.rows // scale).T * _idempotent(self._E, form.p ** form.k)
                for scale, form in self._forms]
        moduli = np.array(self.ambient_moduli, dtype=np.int64).reshape(-1, 1)
        return np.concatenate([np.zeros((len(moduli), 0), dtype=np.int64), *cols], axis=1) % moduli

    def _solve(self, vecs: np.ndarray) -> Tuple[List[np.ndarray], np.ndarray]:
        """Per prime power, the coefficients of each row of vecs over the
        form's rows, and a mask of the rows in the subgroup (the others'
        coefficients are meaningless)."""
        out, member = [], np.ones(len(vecs), dtype=bool)
        for scale, form in self._forms:
            q = form.p ** form.k
            y, ok = form.solve((vecs % q * scale % q).astype(np.int64, copy=False))
            out.append(y)
            member &= ok
        return out, member

    def _coefficients(self, vecs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Coefficients of each row of vecs over ``generators``, and the mask
        of members."""
        parts, member = self._solve(vecs)
        return np.concatenate([np.zeros((len(vecs), 0), dtype=np.int64), *parts], axis=1), member

    def _present(self, denominator_cols: Optional[np.ndarray] = None) -> QuotientPresentation:
        """This subgroup, modulo the one ``denominator_cols`` generate, over
        the coefficients of ``generators``: per prime power, the relations
        among the form's rows plus the coefficients of the denominator."""
        parts, offset = [], 0
        for scale, form in self._forms:
            p, k = form.p, form.k
            rel = form.relations()
            if denominator_cols is not None:
                Y, member = form.solve(scale_rows(denominator_cols, scale, p ** k).T)
                if not member.all():
                    raise ValueError("denominator lattice not contained in numerator")
                rel = np.concatenate([rel, Y])
            parts.append((p, k, offset, *present_mod_prime_power(rel, p, k)))
            offset += len(form.rows)
        return _merge(parts, offset, self._E)

    @functools.cached_property
    def _pres(self) -> QuotientPresentation:
        return self._present()

    @property
    def factors(self) -> Tuple[int, ...]:
        return self._pres.factors

    @property
    def order(self) -> int:
        return self._pres.order

    def _images(self, pres: QuotientPresentation) -> np.ndarray:
        """Ambient images of the unit coordinates of ``pres``, a presentation
        over the coefficients of ``generators``."""
        return self.generators @ pres.lift % np.array(self.ambient_moduli, dtype=np.int64)[:, None]

    @functools.cached_property
    def embedding(self) -> np.ndarray:
        """Images in ambient coordinates of the presentation's generators."""
        return self._images(self._pres)

    def membership_coefficients(self, vecs: Sequence[int]):
        """Coefficients (in [0, E)) over the given generator columns that
        express a vector, or None if it is not a member.  For a stack of
        vectors as rows: the coefficient rows and a mask of the members."""
        stack = np.asarray(vecs)
        parts, member = self._solve(np.atleast_2d(stack))
        if stack.ndim == 1 and not member[0]:
            return None
        out = np.zeros((len(member), self._gens.shape[1]), dtype=np.int64)
        for (_, form), y in zip(self._forms, parts):
            q = form.p ** form.k
            out += _idempotent(self._E, q) * (y @ form.carry % q)
        out %= self._E
        if stack.ndim == 2:
            return out, member
        return out[0] if member[0] else None

    def contains(self, vec: Sequence[int]) -> bool:
        return bool(self._solve(np.asarray(vec)[None])[1][0])

    def element_from_coords(self, coords: Sequence[int]) -> Tuple[int, ...]:
        vec = self.embedding @ np.array(reduce_vec(coords, self.factors), dtype=np.int64)
        return reduce_vec(vec, self.ambient_moduli)

    def elements(self) -> Iterator[Tuple[int, ...]]:
        """All members as ambient coordinate vectors (desk scale only)."""
        for c in iter_vectors(self.factors):
            yield self.element_from_coords(c)


class SubquotientPresentation:
    """Quotient of a presented subgroup by a smaller one, with class map.

    Presented over the numerator's ``generators``: their coefficients
    modulo the numerator's relations and the coefficients of the
    denominator's columns, prime by prime.  Both lattices enter only
    through their Howell forms, so the class coordinates and
    representatives depend on the two lattices only.
    """

    def __init__(self, numerator: SubgroupPresentation, small_cols: np.ndarray):
        self.ambient_moduli = numerator.ambient_moduli
        self._numerator = numerator
        self._pres = numerator._present(small_cols)
        self.factors = self._pres.factors
        self.order = self._pres.order

    def class_coords(self, vecs: Sequence[int]):
        """Class of an ambient vector, or None if it is not in the numerator.
        For a stack of vectors as rows: the class rows (int64) and a mask of
        the rows in the numerator."""
        stack = np.asarray(vecs)
        c, member = self._numerator._coefficients(np.atleast_2d(stack))
        if stack.ndim == 2:
            return self._pres.coords(c), member
        return self._pres.coords(c[0]) if member[0] else None

    @functools.cached_property
    def _embedding(self) -> np.ndarray:
        return self._numerator._images(self._pres)

    def representative(self, coords: Sequence[int]) -> Tuple[int, ...]:
        vec = self._embedding @ np.array(reduce_vec(coords, self.factors), dtype=np.int64)
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
        # The greedy generators of the group's generator walk, and a word
        # vector per element: e_i for gen_i, and word(parent) + e_j for each
        # element the walk reaches as parent * gen_j.  Relations: every edge
        # g --gen_i--> g*gen_i gives word(g) + e_i - word(g*gen_i) = 0, which
        # presents the group.
        levels = _levels(group, [np.arange(n)])
        gens = np.array([level.gen for level in levels], dtype=np.int64)
        k = len(gens)
        words = np.zeros((n, k), dtype=np.int64)
        for i, level in enumerate(levels):
            words[level.gen, i] = 1
            for elems, parents, via in level.waves:
                words[elems] = words[parents]
                words[elems, np.searchsorted(gens, via)] += 1
        edges = words[:, None, :] + np.eye(k, dtype=np.int64) - words[group.table[:, gens]]
        pres = present_quotient(edges.reshape(n * k, k).T, n)
        self.group = group
        self.factors = pres.factors
        # coord_table[x] is the coordinate vector of x; elem_index[i] is the
        # element whose coordinates have mixed-radix index i over the factor
        # product (last coordinate fastest).
        self.coord_table = pres.coords(words).reshape(n, len(self.factors))
        self._strides = np.array([math.prod(self.factors[j + 1:])
                                  for j in range(len(self.factors))], dtype=np.int64)
        flat = self.coord_table @ self._strides
        if len(set(flat.tolist())) != n:
            raise AssertionError("coordinate map is not injective")
        if n != math.prod(self.factors):
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


class FinAbHom:
    """Homomorphism between presented finite abelian groups, as a matrix."""

    def __init__(self, domain: AbelianPresentation, codomain: AbelianPresentation,
                 matrix: Sequence[Sequence[int]]):
        M = as_int_matrix(matrix, ncols=domain.rank)
        if M.shape != (codomain.rank, domain.rank):
            raise ValueError(f"matrix shape {M.shape} does not match "
                             f"({codomain.rank}, {domain.rank})")
        # Row i is reduced modulo codomain factor i first, so that d_j times
        # column j, which must vanish in the codomain, stays in int64.
        cod = np.array(codomain.factors, dtype=np.int64).reshape(-1, 1)
        M %= cod
        bad = (M * np.array(domain.factors, dtype=np.int64) % cod).any(axis=0)
        if bad.any():
            j = int(bad.argmax())
            raise ValueError(f"column {j} does not respect generator order {domain.factors[j]}")
        self.domain = domain
        self.codomain = codomain
        self.matrix = M

    def apply_vec(self, vec: Sequence[int]) -> Tuple[int, ...]:
        vec = np.array(reduce_vec(vec, self.domain.factors), dtype=np.int64)
        return reduce_vec(self.matrix @ vec, self.codomain.factors)

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
        return math.prod(self.kernel_factors)

    @property
    def image_order(self) -> int:
        return math.prod(self.image_factors)

    @property
    def cokernel_order(self) -> int:
        return math.prod(self.cokernel_factors)


def hom_kernel_image_quotient(h: FinAbHom) -> KernelImageCokernel:
    """Kernel, image, and cokernel of a FinAbHom.

    Kernel and image come as canonical factor lists plus embedding matrices
    (columns are generator images in domain / codomain coordinates); the
    cokernel comes with a class-of map on codomain coordinate vectors.
    """
    dom, cod = h.domain, h.codomain
    # The relations among the columns of M are the kernel (x with M@x = 0
    # in the codomain); the cokernel is Z^n modulo [M | diag(cod)], which
    # holds the codomain's exponent times Z^n.
    image_sub = SubgroupPresentation(cod.factors, h.matrix)
    kernel_sub = SubgroupPresentation(dom.factors, image_sub.relations)
    coker = present_quotient(_stack_moduli(h.matrix, cod.factors), math.lcm(*cod.factors))
    return KernelImageCokernel(
        kernel_sub.factors, kernel_sub.embedding,
        image_sub.factors, image_sub.embedding,
        coker.factors, coker.coords,
    )
