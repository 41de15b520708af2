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
import math
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .groups import FiniteGroup, GroupError, _levels
from .intlinalg import (
    as_int_matrix,
    howell,
    identity,
    present_mod_prime_power,
    prime_power_scale,
    prime_powers,
    scale_rows,
)


def check_width(coords, width: int):
    """coords, whose rows must have ``width`` entries (ValueError otherwise)."""
    given = np.asarray(coords).shape[-1:] or ("a scalar",)
    if given != (width,):
        raise ValueError(f"coordinate rows need width {width}, not {given[0]}")
    return coords


def reduce_vec(vec: Sequence[int], moduli: Sequence[int]) -> Tuple[int, ...]:
    return tuple(int(v) % int(m) for v, m in zip(check_width(vec, len(moduli)), moduli))


def vectors(moduli: Sequence[int]) -> np.ndarray:
    """Every vector of prod Z/moduli as the rows of one int64 array, last
    coordinate fastest: the mixed-radix digits of 0, 1, ..., prod - 1."""
    shape = [int(m) for m in moduli]
    strides = np.array([math.prod(shape[j + 1:]) for j in range(len(shape))], dtype=np.int64)
    return np.arange(math.prod(shape))[:, None] // strides % np.array(shape, dtype=np.int64)


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

    def coords(self, vecs: np.ndarray) -> np.ndarray:
        """Class coordinates of each row of a stack of ambient vectors."""
        return vecs @ self.to_coords.T % np.array(self.factors, dtype=np.int64)

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
    factors = np.zeros(count, dtype=np.int64) + 1
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
    return np.concatenate([cols, identity(len(moduli)) * np.array(moduli, dtype=np.int64)], axis=1)


def _crt_kernel(forms, width: int, E: int) -> np.ndarray:
    """The lattice of x in Z^width lying, modulo each prime power q of E, in
    the span of the kernel rows of the form for q: as columns, E/q times
    those rows for each q, then E I."""
    cols = [form.kernel.T * (E // form.p ** form.k) for form in forms]
    return np.concatenate([*cols, E * identity(width)], axis=1)


def kernel_mod(matrix: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """Generators (columns, entries in [0, E]) of {x : matrix @ x == 0
    modulo moduli}, a lattice containing E Z^m for E = lcm(moduli).

    Modulo each prime power q = p**k exactly dividing E, x solves the rows
    scaled by ``prime_power_scale``, so it solves their reduced Howell form,
    at most m rows: it is the left kernel of that form's transpose.  The
    kernels are merged by CRT.
    """
    m = matrix.shape[1]
    E = math.lcm(*(int(x) for x in moduli))
    forms = []
    for p, k in prime_powers(E, m):
        q = p ** k
        h = howell(scale_rows(matrix, prime_power_scale(moduli, q), q), p, k)
        forms.append(howell(h.rows.T, p, k, carry=identity(m)))
    return _crt_kernel(forms, m, E)


class _Presented:
    """A group presented over invariant ``factors``, embedded in the ambient
    group ``prod Z/ambient_moduli`` by the columns of ``embedding``."""

    def representative(self, coords: np.ndarray) -> np.ndarray:
        """The ambient vector of each row of a stack of coordinates: a class
        representative of a subquotient, a member of a subgroup."""
        coords = np.asarray(check_width(coords, len(self.factors)), dtype=np.int64)
        reduced = coords % np.array(self.factors, dtype=np.int64)
        return reduced @ self.embedding.T % np.array(self.ambient_moduli, dtype=np.int64)


class SubgroupPresentation(_Presented):
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
    with ``generator_cols @ c == 0`` in the ambient group, read off the
    forms: each one's ``kernel``, merged by CRT as in ``kernel_mod``.
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
                          carry=identity(r))
            self._forms.append((scale, form))

    @functools.cached_property
    def relations(self) -> np.ndarray:
        return _crt_kernel([form for _, form in self._forms], self._gens.shape[1], self._E)

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
        out, member = [], ~np.zeros(len(vecs), dtype=bool)
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

    def membership_coefficients(self, vecs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """For a stack of vectors as rows: coefficient rows (in [0, E)) over
        the given generator columns that express them, and the mask of the
        members (the other rows' coefficients are meaningless)."""
        parts, member = self._solve(vecs)
        out = np.zeros((len(member), self._gens.shape[1]), dtype=np.int64)
        for (_, form), y in zip(self._forms, parts):
            q = form.p ** form.k
            out += _idempotent(self._E, q) * (y @ form.carry % q)
        return out % self._E, member

    def contains(self, vec: Sequence[int]) -> bool:
        return bool(self._solve(np.asarray(vec)[None])[1][0])

    def elements(self) -> Iterator[Tuple[int, ...]]:
        """All members as ambient coordinate vectors (desk scale only)."""
        for v in self.representative(vectors(self.factors)).tolist():
            yield tuple(v)


class SubquotientPresentation(_Presented):
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

    def class_coords(self, vecs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """For a stack of ambient vectors as rows: the class rows and the mask
        of the rows in the numerator (the other rows' classes are
        meaningless)."""
        c, member = self._numerator._coefficients(vecs)
        return self._pres.coords(c), member

    @functools.cached_property
    def embedding(self) -> np.ndarray:
        """Ambient representatives of the classes of the unit coordinates."""
        return self._numerator._images(self._pres)


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
        levels = _levels(n, lambda g: group.table[:, g], [np.arange(n)])
        gens = np.array([level.gen for level in levels], dtype=np.int64)
        k = len(gens)
        words = np.zeros((n, k), dtype=np.int64)
        for i, level in enumerate(levels):
            words[level.gen, i] = 1
            for elems, parents, via in level.waves:
                words[elems] = words[parents]
                words[elems, gens.searchsorted(via)] += 1
        by_gens = levels[-1].columns if levels else np.zeros((n, 0), dtype=np.int64)
        edges = words[:, None, :] + identity(k) - words[by_gens]
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
        return codomain.coord_table[images].swapaxes(-1, -2)

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


class KernelImageCokernel(NamedTuple):
    kernel_factors: Tuple[int, ...]
    kernel_embedding: np.ndarray
    image_factors: Tuple[int, ...]
    image_embedding: np.ndarray
    cokernel_factors: Tuple[int, ...]
    cokernel_class_of: Callable[[np.ndarray], np.ndarray]


def hom_kernel_image_quotient(h: FinAbHom) -> KernelImageCokernel:
    """Kernel, image, and cokernel of a FinAbHom.

    Kernel and image come as canonical factor lists plus embedding matrices
    (columns are generator images in domain / codomain coordinates); the
    cokernel comes with a class-of map on stacks of codomain coordinate rows.
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
