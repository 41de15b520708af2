"""The two-term cochain complex of a module and its cohomology.

Degree-one cochains are pairs (kappa1: A -> K, kappa2: B -> L); degree-two
cochains are quadruples (tau1, tau2, rho, chi) as in
:class:`rrbgroups.modules.FactorSystem`.  Everything vanishing on degenerate
tuples is encoded in invariant-factor coordinates, one block per
nondegenerate tuple, and the five cocycle conditions plus the coboundary map
become integer matrices between those coordinate spaces.  The cocycles are
solved modulo each prime power of the moduli (``kernel_mod``), and every
group and quotient is read off the reduced Howell forms of its lattices
(``abelian``), so the H2 basis depends on Z2 and B2 only.

Additive transcriptions used throughout (K, L abelian, written additively;
``o`` is the twisted product a1 o a2 = a1 * beta_{T(a1)}(a2)):

  (z1) tau1-defect:  kappa1(a2) + mu_{a2} kappa1(a1) - kappa1(a1 a2)
  (z2) tau2-defect:  kappa2(b2) + sigma_{b2} kappa2(b1) - kappa2(b1 b2)
  (z3) rho-defect:   nu_b(f(kappa2(b), a) + kappa1(a)) - kappa1(beta_b(a))
  (z4) chi-defect:   S(nu^-1_{T(a)} kappa1(a)) - kappa2(T(a))

  (c1) tau1(a2,a3) + tau1(a1, a2 a3) - tau1(a1 a2, a3) - mu_{a3} tau1(a1,a2)
  (c2) tau2(b2,b3) + tau2(b1, b2 b3) - tau2(b1 b2, b3) - sigma_{b3} tau2(b1,b2)
  (c3) rho(beta_{b2}(a), b1) + nu_{b1} rho(a, b2)
         - rho(a, b1 b2) - nu_{b1 b2} f(tau2(b1,b2), a)
  (c4) rho(a1 a2, b) + nu_b tau1(a1,a2)
         - mu_{beta_b(a2)} rho(a1,b) - rho(a2,b) - tau1(beta_b(a1), beta_b(a2))
  (c5) tau2(T(a1),T(a2)) + chi(a2) - chi(a1 o a2) + sigma_{T(a2)} chi(a1)
         - S nu^-1_{T(a1 o a2)} ( rho(a2, T(a1)) + tau1(a1, beta_{T(a1)}(a2))
                                   + nu_{T(a1)} f(chi(a1), a2) )

A one-cochain lies in the derivation group when all four defects vanish; its
defect quadruple is exactly the coboundary landing in the cocycle group.
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .abelian import (
    AbelianPresentation,
    SubgroupPresentation,
    SubquotientPresentation,
    iter_vectors,
    kernel_mod,
    reduce_vec,
)
from .groups import FiniteGroup, trivial_group
from .modules import ActionQuadruple, FactorSystem, OneCochain, RRBModule
from .rrb import RRBError, descended_table, trivial_rrb


class CohomologyClass:
    """A coset of the coboundary group, identified by canonical coordinates."""

    def __init__(self, complex_: "CochainComplex", coords: Tuple[int, ...]):
        self.complex = complex_
        self.coords = tuple(int(c) for c in coords)

    @property
    def factors(self) -> Tuple[int, ...]:
        return self.complex.h2.factors

    def is_zero(self) -> bool:
        return not any(self.coords)

    def _require_same(self, other: "CohomologyClass"):
        if self.complex is not other.complex:
            raise RRBError("ModuleMismatch", "classes live over different modules")

    def __add__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._require_same(other)
        vec = [x + y for x, y in zip(self.coords, other.coords)]
        return CohomologyClass(self.complex, reduce_vec(vec, self.factors))

    def __sub__(self, other: "CohomologyClass") -> "CohomologyClass":
        self._require_same(other)
        vec = [x - y for x, y in zip(self.coords, other.coords)]
        return CohomologyClass(self.complex, reduce_vec(vec, self.factors))

    def __eq__(self, other) -> bool:
        return (isinstance(other, CohomologyClass)
                and self.complex is other.complex and self.coords == other.coords)

    def __hash__(self):
        return hash((id(self.complex), self.coords))

    def __repr__(self):
        return f"CohomologyClass{self.coords}"


class _Block(NamedTuple):
    """One kind of cochain or condition: a coordinate block of ``pres`` per
    nondegenerate tuple of element indices, the tuples in row-major order
    over ``orders`` with each index running over 1..n-1 (``grid``)."""

    name: str
    pres: AbelianPresentation
    orders: Tuple[int, ...]
    grid: Tuple[int, ...]
    offset: int
    size: int

    def axes(self) -> Tuple[np.ndarray, ...]:
        """The nondegenerate element indices along each axis, as an open grid."""
        return np.ix_(*(np.arange(1, n) for n in self.orders))


class _Layout:
    """Coordinates of a direct sum of blocks, laid out one after another."""

    def __init__(self, spec: Sequence[Tuple[str, AbelianPresentation, Tuple[int, ...]]]):
        self.block = {}
        self.dim = 0
        moduli: List[int] = []
        for name, pres, orders in spec:
            grid = tuple(n - 1 for n in orders)
            self.block[name] = _Block(name, pres, orders, grid, self.dim,
                                      math.prod(grid) * pres.rank)
            self.dim += self.block[name].size
            moduli.extend(pres.factors * math.prod(grid))
        self.moduli = tuple(moduli)
        self._moduli = np.array(moduli, dtype=np.int64)
        # Where the coordinates of each tuple start.  Degenerate tuples point
        # past the end, at spare columns that _assemble cuts off.
        self.start = {}
        for b in self.block.values():
            start = self.start[b.name] = np.full(b.orders, self.dim, dtype=np.int64)
            start[(slice(1, None),) * len(b.orders)] = \
                b.offset + b.pres.rank * np.arange(math.prod(b.grid)).reshape(b.grid)

    def pack(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Coordinates of element arrays over full tuples, one per block.
        Leading axes beyond a block's tuple axes are a stack, kept in front."""
        parts = []
        for b, arr in zip(self.block.values(), arrays):
            lead = arr.shape[:arr.ndim - len(b.orders)]
            cells = arr[(Ellipsis,) + (slice(1, None),) * len(b.orders)]
            parts.append(b.pres.coord_table[cells].reshape(lead + (b.size,)))
        return np.concatenate(parts, axis=-1)

    def unpack(self, coords: Sequence[int]) -> List[np.ndarray]:
        """Element arrays over full tuples (zero on degenerate ones), one per
        block; the leading axes of a stack of coordinate rows are kept."""
        vec = self.reduce(coords)
        lead = vec.shape[:-1]
        out = []
        for b in self.block.values():
            arr = np.zeros(lead + b.orders, dtype=np.int64)
            chunk = vec[..., b.offset:b.offset + b.size].reshape(lead + b.grid + (b.pres.rank,))
            arr[(Ellipsis,) + (slice(1, None),) * len(b.orders)] = b.pres.elems(chunk)
            out.append(arr)
        return out

    def reduce(self, coords: Sequence[int]) -> np.ndarray:
        """coords modulo the moduli."""
        return np.asarray(coords, dtype=np.int64) % self._moduli

    def first_nonzero(self, coords: Sequence[int]) -> Optional[Tuple[str, tuple]]:
        """(block name, tuple) of the first coordinate not zero modulo its
        modulus, or None."""
        bad = np.flatnonzero(self.reduce(coords))
        if not bad.size:
            return None
        pos = int(bad[0])
        b = next(b for b in self.block.values() if pos < b.offset + b.size)
        at = np.unravel_index((pos - b.offset) // b.pres.rank, b.grid)
        return b.name, tuple(int(i) + 1 for i in at)


def _assemble(rows: _Layout, cols: _Layout, conditions) -> np.ndarray:
    """The matrix of linear conditions from ``cols`` to ``rows``.

    ``conditions`` lists, per row block, a function of the block's axes
    returning its terms ``(sign, coefficient, column block, index arrays)``
    over the block's instance grid; it is called only for blocks with rows.
    The coefficient is one matrix or a stack broadcasting to the grid, and the
    index arrays (broadcasting to the grid) name the column tuple of each
    instance.  Instances whose column tuple is degenerate add nothing (the
    cochain vanishes there).  Every instance owns its rows, so no position
    repeats within a term and each term is one scatter.
    """
    spare = max(b.pres.rank for b in cols.block.values())
    M = np.zeros((rows.dim, cols.dim + spare), dtype=np.int64)
    for name, terms in conditions:
        block = rows.block[name]
        if not block.size:
            continue  # no rows: no tuple, or a component of rank 0
        row = block.offset + np.arange(block.size).reshape(block.grid + (block.pres.rank, 1))
        for sign, coeff, target, idx in terms(*block.axes()):
            col = cols.start[target][idx][..., None, None] + np.arange(cols.block[target].pres.rank)
            M[row, col] += sign * coeff
    return M[:, :cols.dim]


class CochainComplex:
    """Coordinates, coboundary, and cocycle conditions for one module."""

    def __init__(self, module: RRBModule):
        self.module = module
        self.Kp = AbelianPresentation(module.K)
        self.Lp = AbelianPresentation(module.L)
        Kp, Lp = self.Kp, self.Lp
        nA, nB = module.A.order, module.B.order
        self._c1 = _Layout([("kappa1", Kp, (nA,)), ("kappa2", Lp, (nB,))])
        self._c2 = _Layout([("tau1", Kp, (nA, nA)), ("tau2", Lp, (nB, nB)),
                            ("rho", Kp, (nA, nB)), ("chi", Lp, (nA,))])
        self._con = _Layout([("cocycle1", Kp, (nA, nA, nA)), ("cocycle2", Lp, (nB, nB, nB)),
                             ("cocycle3", Kp, (nA, nB, nB)), ("cocycle4", Kp, (nA, nA, nB)),
                             ("cocycle5", Lp, (nA, nA))])
        self.c1_moduli = self._c1.moduli
        self.c2_moduli = self._c2.moduli
        self.constraint_moduli = self._con.moduli

        # The cocycle conditions rely on T(a1 o a2) = T(a1) T(a2) for the
        # descended product a1 o a2 = a1 beta_{T(a1)}(a2).
        self._circ = descended_table(module.quotient)

        coboundary, constraints = self._formulas()
        self.coboundary_matrix = _assemble(self._c2, self._c1, coboundary)
        self.constraint_matrix = _assemble(self._con, self._c2, constraints)
        self._assert_linearization()

    def _formulas(self):
        """The defects (z1)-(z4) of a one-cochain and the cocycle conditions
        (c1)-(c5), as functions of their instance grids returning term
        lists, for ``_assemble``.

        The structure maps are stacks of coordinate matrices over element
        indices.  Their entries are coordinates below the group orders, so
        the integer matrices built from them are int64 with small entries.
        """
        m, Kp, Lp = self.module, self.Kp, self.Lp
        act = m.action
        NU, MU = Kp.perm_matrix(act.nu), Kp.perm_matrix(act.mu)
        NU_INV = Kp.perm_matrix(act.nu_inv(np.arange(m.B.order)))
        SIGMA, F, S = Lp.perm_matrix(act.sigma), Lp.hom_matrix(Kp, act.f.T), Kp.hom_matrix(Lp, m.S)
        IK, IL = np.eye(Kp.rank, dtype=np.int64), np.eye(Lp.rank, dtype=np.int64)
        At, Bt, beta, T = m.A.table, m.B.table, m.quotient.phi, m.T

        # Each block's terms are a function of its instance grid, built
        # only for blocks that have rows.
        def cocycle5(a1, a2):
            circ, T1, T2 = self._circ[a1, a2], T[a1], T[a2]
            lift = S @ NU_INV[T[circ]]
            return [(+1, IL, "tau2", (T1, T2)),
                    (+1, IL, "chi", (a2,)),
                    (-1, IL, "chi", (circ,)),
                    (+1, SIGMA[T2], "chi", (a1,)),
                    (-1, lift, "rho", (a2, T1)),
                    (-1, lift, "tau1", (a1, beta[T1, a2])),
                    (-1, lift @ NU[T1] @ F[a2], "chi", (a1,))]

        D = [("tau1", lambda a1, a2: [(+1, IK, "kappa1", (a2,)),
                                      (+1, MU[a2], "kappa1", (a1,)),
                                      (-1, IK, "kappa1", (At[a1, a2],))]),
             ("tau2", lambda b1, b2: [(+1, IL, "kappa2", (b2,)),
                                      (+1, SIGMA[b2], "kappa2", (b1,)),
                                      (-1, IL, "kappa2", (Bt[b1, b2],))]),
             ("rho", lambda a, b: [(+1, NU[b] @ F[a], "kappa2", (b,)),
                                   (+1, NU[b], "kappa1", (a,)),
                                   (-1, IK, "kappa1", (beta[b, a],))]),
             ("chi", lambda a: [(+1, S @ NU_INV[T[a]], "kappa1", (a,)),
                                (-1, IL, "kappa2", (T[a],))])]
        C = [("cocycle1", lambda a1, a2, a3: [(+1, IK, "tau1", (a2, a3)),
                                              (+1, IK, "tau1", (a1, At[a2, a3])),
                                              (-1, IK, "tau1", (At[a1, a2], a3)),
                                              (-1, MU[a3], "tau1", (a1, a2))]),
             ("cocycle2", lambda b1, b2, b3: [(+1, IL, "tau2", (b2, b3)),
                                              (+1, IL, "tau2", (b1, Bt[b2, b3])),
                                              (-1, IL, "tau2", (Bt[b1, b2], b3)),
                                              (-1, SIGMA[b3], "tau2", (b1, b2))]),
             ("cocycle3", lambda a, b1, b2: [(+1, IK, "rho", (beta[b2, a], b1)),
                                             (+1, NU[b1], "rho", (a, b2)),
                                             (-1, IK, "rho", (a, Bt[b1, b2])),
                                             (-1, NU[Bt[b1, b2]] @ F[a], "tau2", (b1, b2))]),
             ("cocycle4", lambda a1, a2, b: [(+1, IK, "rho", (At[a1, a2], b)),
                                             (+1, NU[b], "tau1", (a1, a2)),
                                             (-1, MU[beta[b, a2]], "rho", (a1, b)),
                                             (-1, IK, "rho", (a2, b)),
                                             (-1, IK, "tau1", (beta[b, a1], beta[b, a2]))]),
             ("cocycle5", cocycle5)]
        return D, C

    def _assert_linearization(self):
        # Multiplying a column by its source modulus must vanish against the
        # target moduli; anything else means a condition failed to linearize.
        # Entry (i, j) times modulus j vanishes modulo modulus i exactly when
        # the entry is a multiple of modulus i / gcd(modulus i, modulus j).
        c1, c2, con = (np.array(m, dtype=np.int64).reshape(-1, 1) for m in
                       (self.c1_moduli, self.c2_moduli, self.constraint_moduli))
        D, C = self.coboundary_matrix, self.constraint_matrix
        if (D % (c2 // np.gcd(c2, c1.T))).any():
            raise AssertionError("coboundary column breaks generator order")
        if (C % (con // np.gcd(con, c2.T))).any():
            raise AssertionError("constraint column breaks generator order")
        if ((C @ D) % con).any():
            raise AssertionError("coboundary image violates a cocycle condition")

    # -- coordinate packing ------------------------------------------------

    @property
    def c2_dim(self) -> int:
        return len(self.c2_moduli)

    def fs_to_coords(self, fs: FactorSystem) -> np.ndarray:
        if fs.shapes != (self.module.A.order, self.module.B.order):
            raise ValueError("factor system shape does not match the module")
        return self._c2.pack((fs.tau1, fs.tau2, fs.rho, fs.chi))

    def fs_from_coords(self, coords: Sequence[int]) -> FactorSystem:
        return FactorSystem(*self._c2.unpack(coords))

    def kappa_to_coords(self, kappa: OneCochain) -> np.ndarray:
        if (kappa.kappa1.shape != (self.module.A.order,)
                or kappa.kappa2.shape != (self.module.B.order,)):
            raise ValueError("one-cochain shape does not match the module")
        return self._c1.pack((kappa.kappa1, kappa.kappa2))

    def kappa_from_coords(self, coords: Sequence[int]) -> OneCochain:
        return OneCochain(*self._c1.unpack(coords))

    def c2_coords(self, arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Coordinates of 2-cochains given as arrays (tau1, tau2, rho, chi)
        with leading stack axes, one coordinate row per cochain."""
        return self._c2.pack(arrays)

    def kappas_from_coords(self, coords: np.ndarray) -> List[np.ndarray]:
        """(kappa1, kappa2) stacks of a stack of 1-cochain coordinate rows."""
        return self._c1.unpack(coords)

    # -- membership and evaluation ------------------------------------------

    def z2_contains(self, fs: FactorSystem) -> Tuple[bool, Optional[Tuple[str, tuple]]]:
        """Membership, with the first failing condition (label, tuple) in row order."""
        bad = self._con.first_nonzero(self.constraint_matrix @ self.fs_to_coords(fs))
        return bad is None, bad

    def z1_contains(self, kappa: OneCochain) -> Tuple[bool, Optional[Tuple[str, tuple]]]:
        """Membership, with the first nonzero defect (block, tuple) in row order."""
        bad = self._c2.first_nonzero(self.coboundary_matrix @ self.kappa_to_coords(kappa))
        return bad is None, bad

    def z1_failures(self, kappa1: np.ndarray, kappa2: np.ndarray) -> np.ndarray:
        """Which 1-cochains of the stacks (kappa1, kappa2) are not derivations."""
        defects = self._c1.pack((kappa1, kappa2)) @ self.coboundary_matrix.T
        return self._c2.reduce(defects).any(axis=1)

    def coboundary(self, kappa: OneCochain) -> FactorSystem:
        """The defect quadruple of a one-cochain; always a cocycle."""
        vec = self.coboundary_matrix @ self.kappa_to_coords(kappa)
        return self.fs_from_coords(vec)

    def solve_coboundary(self, fs: FactorSystem) -> Optional[OneCochain]:
        """A one-cochain whose coboundary is fs, or None."""
        sol = self.b2.membership_coefficients(self.fs_to_coords(fs))
        if sol is None:
            return None
        return self.kappa_from_coords(sol)

    # -- the four groups -----------------------------------------------------
    # Each lattice is factored once.  The relations of b2 among the columns
    # of D are the derivations, so z1 takes them as its generators; h2 reads
    # the factorization of z2.

    @functools.cached_property
    def z1(self) -> SubgroupPresentation:
        return SubgroupPresentation(self.c1_moduli, self.b2.relations)

    @functools.cached_property
    def z2(self) -> SubgroupPresentation:
        gens = kernel_mod(self.constraint_matrix, self.constraint_moduli)
        return SubgroupPresentation(self.c2_moduli, gens)

    @functools.cached_property
    def b2(self) -> SubgroupPresentation:
        return SubgroupPresentation(self.c2_moduli, self.coboundary_matrix)

    @functools.cached_property
    def h2(self) -> SubquotientPresentation:
        return SubquotientPresentation(self.z2, self.coboundary_matrix)

    def class_of(self, fs: FactorSystem) -> CohomologyClass:
        coords = self.h2.class_coords(self.fs_to_coords(fs))
        if coords is None:
            member, witness = self.z2_contains(fs)
            raise RRBError("NotACocycle",
                           f"not a cocycle: condition {witness[0]} fails at {witness[1]}"
                           if not member else "lattice membership failed")
        return CohomologyClass(self, coords)

    def class_representative(self, cls: CohomologyClass) -> FactorSystem:
        return self.fs_from_coords(self.h2.representative(cls.coords))

    def h2_classes(self) -> Iterator[CohomologyClass]:
        for v in iter_vectors(self.h2.factors):
            yield CohomologyClass(self, v)

    def z2_elements(self) -> Iterator[FactorSystem]:
        """All cocycles (desk scale only)."""
        for vec in self.z2.elements():
            yield self.fs_from_coords(vec)

    def z1_stack(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every derivation: its coordinates over Z1's invariant factors (all
        vectors, last coordinate fastest) and the stacks kappa1, kappa2."""
        coords = np.array(list(iter_vectors(self.z1.factors)), dtype=np.int64)
        coords = coords.reshape(len(coords), len(self.z1.factors))
        return coords, *self._c1.unpack(coords @ self.z1.embedding.T)

    def z1_elements(self) -> Iterator[OneCochain]:
        _, kappa1, kappa2 = self.z1_stack()
        for k1, k2 in zip(kappa1, kappa2):
            yield OneCochain(k1, k2)


# One complex per module (modules compare by value) while anything holds it.
# The values are weak: a complex holds its module, so the entry goes once the
# complex is dropped, and the cache pins neither.
_complexes: "weakref.WeakValueDictionary[RRBModule, CochainComplex]" = weakref.WeakValueDictionary()


def cochain_complex(module: RRBModule) -> CochainComplex:
    cx = _complexes.get(module)
    if cx is None:
        cx = _complexes[module] = CochainComplex(module)
    return cx


# -- spec-level operations ---------------------------------------------------

def classical_h2_check(A_group: FiniteGroup, K_group: FiniteGroup,
                       mu: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """Second cohomology of a plain group pair, as a module over one-point (B, L).

    ``mu`` acts on the right: mu_{a1 a2} = mu_{a2} o mu_{a1}.  With B and L
    trivial only the tau1 block survives, so this returns the invariant
    factors of cocycles-mod-coboundaries for the single condition

        tau(a2,a3) + tau(a1, a2 a3) = tau(a1 a2, a3) + mu_{a3} tau(a1,a2).
    """
    one = trivial_group()
    quotient = trivial_rrb(A_group, one)
    kernel = trivial_rrb(K_group, one)
    action = ActionQuadruple([list(range(K_group.order))], mu, [[0]], [[0] * A_group.order])
    return CochainComplex(RRBModule(quotient, kernel, action)).h2.factors
