"""The two-term cochain complex of a module and its cohomology.

Degree-one cochains are pairs (kappa1: A -> K, kappa2: B -> L); degree-two
cochains are quadruples (tau1, tau2, rho, chi) as in
:class:`rrbgroups.modules.FactorSystem`.  Everything vanishing on degenerate
tuples is encoded in invariant-factor coordinates, one block per
nondegenerate tuple, and the five cocycle conditions plus the coboundary map
become integer matrices between those coordinate spaces.  The cocycles are
solved modulo each prime power of the moduli (``kernel_mod``); images and
quotients come from Smith normal form.

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
import weakref
from typing import Iterator, List, Optional, Sequence, Tuple

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
from .intlinalg import exact_matmul
from .modules import ActionQuadruple, FactorSystem, OneCochain, RRBModule
from .rrb import RRBError, descended_operation, trivial_rrb


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


class CochainComplex:
    """Coordinates, coboundary, and cocycle conditions for one module."""

    def __init__(self, module: RRBModule):
        self.module = module
        self.Kp = AbelianPresentation(module.K)
        self.Lp = AbelianPresentation(module.L)
        A, B = module.A, module.B
        kK, kL = self.Kp.rank, self.Lp.rank

        self._c1_blocks: List[Tuple[str, tuple]] = []
        self._c1_blocks += [("kappa1", (a,)) for a in range(1, A.order)]
        self._c1_blocks += [("kappa2", (b,)) for b in range(1, B.order)]
        self._c2_blocks: List[Tuple[str, tuple]] = []
        self._c2_blocks += [("tau1", (a1, a2))
                            for a1 in range(1, A.order) for a2 in range(1, A.order)]
        self._c2_blocks += [("tau2", (b1, b2))
                            for b1 in range(1, B.order) for b2 in range(1, B.order)]
        self._c2_blocks += [("rho", (a, b))
                            for a in range(1, A.order) for b in range(1, B.order)]
        self._c2_blocks += [("chi", (a,)) for a in range(1, A.order)]

        def widths(blocks):
            offsets, moduli, pos = {}, [], 0
            for kind, idx in blocks:
                pres = self.Kp if kind in ("tau1", "rho", "kappa1") else self.Lp
                offsets[(kind, idx)] = pos
                moduli.extend(pres.factors)
                pos += pres.rank
            return offsets, tuple(moduli)

        self._c1_offset, self.c1_moduli = widths(self._c1_blocks)
        self._c2_offset, self.c2_moduli = widths(self._c2_blocks)
        self._kK, self._kL = kK, kL

        # Matrices of the structure maps in coordinates.  Their entries are
        # coordinates below the group orders, so the integer matrices built
        # from them are int64 with small entries.
        act = module.action
        self._nu = [self.Kp.perm_matrix(act.nu[b]) for b in B.elements()]
        self._nu_inv = [self.Kp.perm_matrix(act.nu_inv(b)) for b in B.elements()]
        self._mu = [self.Kp.perm_matrix(act.mu[a]) for a in A.elements()]
        self._sigma = [self.Lp.perm_matrix(act.sigma[b]) for b in B.elements()]
        self._f = [self.Lp.hom_matrix(self.Kp, act.f[:, a]) for a in A.elements()]
        self._S = self.Kp.hom_matrix(self.Lp, module.S)
        self._IK = np.eye(kK, dtype=np.int64)
        self._IL = np.eye(kL, dtype=np.int64)

        # The twisted product must descend T to a homomorphism; the cocycle
        # conditions rely on T(a1 o a2) = T(a1) T(a2).
        descended_operation(module.quotient)
        for a1 in A.elements():
            for a2 in A.elements():
                circ = module.circ(a1, a2)
                if int(module.T[circ]) != B.mul(int(module.T[a1]), int(module.T[a2])):
                    raise RRBError("InternalError", "operator is not a twisted-product hom")

        self.coboundary_matrix = self._build_coboundary()
        self.constraint_matrix, self._con_blocks, self.constraint_moduli = \
            self._build_constraints()
        self._assert_linearization()

    # -- coordinate packing ------------------------------------------------

    @property
    def c1_dim(self) -> int:
        return len(self.c1_moduli)

    @property
    def c2_dim(self) -> int:
        return len(self.c2_moduli)

    def fs_to_coords(self, fs: FactorSystem) -> np.ndarray:
        if fs.shapes != (self.module.A.order, self.module.B.order):
            raise ValueError("factor system shape does not match the module")
        out: List[int] = []
        arrays = {"tau1": fs.tau1, "tau2": fs.tau2, "rho": fs.rho, "chi": fs.chi}
        for kind, idx in self._c2_blocks:
            pres = self.Kp if kind in ("tau1", "rho") else self.Lp
            value = arrays[kind][idx] if len(idx) == 2 else arrays[kind][idx[0]]
            out.extend(pres.vec(int(value)))
        return np.asarray(out, dtype=object)

    def fs_from_coords(self, coords: Sequence[int]) -> FactorSystem:
        coords = reduce_vec(coords, self.c2_moduli)
        A, B = self.module.A, self.module.B
        tau1 = np.zeros((A.order, A.order), dtype=np.int64)
        tau2 = np.zeros((B.order, B.order), dtype=np.int64)
        rho = np.zeros((A.order, B.order), dtype=np.int64)
        chi = np.zeros(A.order, dtype=np.int64)
        target = {"tau1": tau1, "tau2": tau2, "rho": rho, "chi": chi}
        for kind, idx in self._c2_blocks:
            pres = self.Kp if kind in ("tau1", "rho") else self.Lp
            off = self._c2_offset[(kind, idx)]
            value = pres.elem(coords[off:off + pres.rank])
            if len(idx) == 2:
                target[kind][idx] = value
            else:
                target[kind][idx[0]] = value
        return FactorSystem(tau1, tau2, rho, chi)

    def kappa_to_coords(self, kappa: OneCochain) -> np.ndarray:
        if (kappa.kappa1.shape != (self.module.A.order,)
                or kappa.kappa2.shape != (self.module.B.order,)):
            raise ValueError("one-cochain shape does not match the module")
        out: List[int] = []
        for kind, idx in self._c1_blocks:
            if kind == "kappa1":
                out.extend(self.Kp.vec(int(kappa.kappa1[idx[0]])))
            else:
                out.extend(self.Lp.vec(int(kappa.kappa2[idx[0]])))
        return np.asarray(out, dtype=object)

    def kappa_from_coords(self, coords: Sequence[int]) -> OneCochain:
        coords = reduce_vec(coords, self.c1_moduli)
        kappa1 = np.zeros(self.module.A.order, dtype=np.int64)
        kappa2 = np.zeros(self.module.B.order, dtype=np.int64)
        for kind, idx in self._c1_blocks:
            off = self._c1_offset[(kind, idx)]
            if kind == "kappa1":
                kappa1[idx[0]] = self.Kp.elem(coords[off:off + self._kK])
            else:
                kappa2[idx[0]] = self.Lp.elem(coords[off:off + self._kL])
        return OneCochain(kappa1, kappa2)

    # -- matrix assembly ---------------------------------------------------

    def _add_term(self, matrix: np.ndarray, row: int, sign: int,
                  coeff: np.ndarray, kind: str, idx: tuple, offsets: dict):
        if any(i == 0 for i in idx):
            return  # the cochain vanishes there; no coordinates exist
        off = offsets[(kind, idx)]
        h, w = coeff.shape
        matrix[row:row + h, off:off + w] += sign * coeff

    def _build_coboundary(self) -> np.ndarray:
        m = self.module
        A, B = m.A, m.B
        D = np.zeros((self.c2_dim, self.c1_dim), dtype=np.int64)
        for kind, idx in self._c2_blocks:
            row = self._c2_offset[(kind, idx)]
            add = functools.partial(self._add_term, D, row,
                                    offsets=self._c1_offset)
            if kind == "tau1":
                a1, a2 = idx
                add(+1, self._IK, "kappa1", (a2,))
                add(+1, self._mu[a2], "kappa1", (a1,))
                add(-1, self._IK, "kappa1", (A.mul(a1, a2),))
            elif kind == "tau2":
                b1, b2 = idx
                add(+1, self._IL, "kappa2", (b2,))
                add(+1, self._sigma[b2], "kappa2", (b1,))
                add(-1, self._IL, "kappa2", (B.mul(b1, b2),))
            elif kind == "rho":
                a, b = idx
                add(+1, self._nu[b] @ self._f[a], "kappa2", (b,))
                add(+1, self._nu[b], "kappa1", (a,))
                add(-1, self._IK, "kappa1", (m.beta(b, a),))
            else:  # chi
                a = idx[0]
                Ta = int(m.T[a])
                add(+1, self._S @ self._nu_inv[Ta], "kappa1", (a,))
                add(-1, self._IL, "kappa2", (Ta,))
        return D

    def _build_constraints(self) -> Tuple[np.ndarray, list, tuple]:
        m = self.module
        A, B = m.A, m.B
        instances: List[Tuple[str, tuple, AbelianPresentation]] = []
        nd_a = range(1, A.order)
        nd_b = range(1, B.order)
        instances += [("cocycle1", (a1, a2, a3), self.Kp)
                      for a1 in nd_a for a2 in nd_a for a3 in nd_a]
        instances += [("cocycle2", (b1, b2, b3), self.Lp)
                      for b1 in nd_b for b2 in nd_b for b3 in nd_b]
        instances += [("cocycle3", (a, b1, b2), self.Kp)
                      for a in nd_a for b1 in nd_b for b2 in nd_b]
        instances += [("cocycle4", (a1, a2, b), self.Kp)
                      for a1 in nd_a for a2 in nd_a for b in nd_b]
        instances += [("cocycle5", (a1, a2), self.Lp) for a1 in nd_a for a2 in nd_a]

        total_rows = sum(p.rank for _, _, p in instances)
        C = np.zeros((total_rows, self.c2_dim), dtype=np.int64)
        blocks = []
        moduli: List[int] = []
        row = 0
        for label, idx, pres in instances:
            add = functools.partial(self._add_term, C, row, offsets=self._c2_offset)
            if label == "cocycle1":
                a1, a2, a3 = idx
                add(+1, self._IK, "tau1", (a2, a3))
                add(+1, self._IK, "tau1", (a1, A.mul(a2, a3)))
                add(-1, self._IK, "tau1", (A.mul(a1, a2), a3))
                add(-1, self._mu[a3], "tau1", (a1, a2))
            elif label == "cocycle2":
                b1, b2, b3 = idx
                add(+1, self._IL, "tau2", (b2, b3))
                add(+1, self._IL, "tau2", (b1, B.mul(b2, b3)))
                add(-1, self._IL, "tau2", (B.mul(b1, b2), b3))
                add(-1, self._sigma[b3], "tau2", (b1, b2))
            elif label == "cocycle3":
                a, b1, b2 = idx
                add(+1, self._IK, "rho", (m.beta(b2, a), b1))
                add(+1, self._nu[b1], "rho", (a, b2))
                add(-1, self._IK, "rho", (a, B.mul(b1, b2)))
                add(-1, self._nu[B.mul(b1, b2)] @ self._f[a], "tau2", (b1, b2))
            elif label == "cocycle4":
                a1, a2, b = idx
                add(+1, self._IK, "rho", (A.mul(a1, a2), b))
                add(+1, self._nu[b], "tau1", (a1, a2))
                add(-1, self._mu[m.beta(b, a2)], "rho", (a1, b))
                add(-1, self._IK, "rho", (a2, b))
                add(-1, self._IK, "tau1", (m.beta(b, a1), m.beta(b, a2)))
            else:  # cocycle5
                a1, a2 = idx
                circ = m.circ(a1, a2)
                T1, T2 = int(m.T[a1]), int(m.T[a2])
                lift = self._S @ self._nu_inv[int(m.T[circ])]
                add(+1, self._IL, "tau2", (T1, T2))
                add(+1, self._IL, "chi", (a2,))
                add(-1, self._IL, "chi", (circ,))
                add(+1, self._sigma[T2], "chi", (a1,))
                add(-1, lift, "rho", (a2, T1))
                add(-1, lift, "tau1", (a1, m.beta(T1, a2)))
                add(-1, lift @ self._nu[T1] @ self._f[a2], "chi", (a1,))
            blocks.append((label, idx, row, pres.rank, pres.factors))
            moduli.extend(pres.factors)
            row += pres.rank
        return C, blocks, tuple(moduli)

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
        if (exact_matmul(C, D) % con).any():
            raise AssertionError("coboundary image violates a cocycle condition")

    # -- membership and evaluation ------------------------------------------

    def z2_violations(self, fs: FactorSystem) -> List[Tuple[str, tuple]]:
        vec = exact_matmul(self.constraint_matrix, self.fs_to_coords(fs))
        vec = reduce_vec(vec, self.constraint_moduli)
        out = []
        for label, idx, row, width, _ in self._con_blocks:
            if any(vec[row:row + width]):
                out.append((label, idx))
        return out

    def z2_contains(self, fs: FactorSystem) -> Tuple[bool, Optional[Tuple[str, tuple]]]:
        bad = self.z2_violations(fs)
        return (False, bad[0]) if bad else (True, None)

    def z1_contains(self, kappa: OneCochain) -> Tuple[bool, Optional[Tuple[str, tuple]]]:
        vec = exact_matmul(self.coboundary_matrix, self.kappa_to_coords(kappa))
        vec = reduce_vec(vec, self.c2_moduli)
        for kind, idx in self._c2_blocks:
            off = self._c2_offset[(kind, idx)]
            width = self._kK if kind in ("tau1", "rho") else self._kL
            if any(vec[off:off + width]):
                return False, (kind, idx)
        return True, None

    def coboundary(self, kappa: OneCochain) -> FactorSystem:
        """The defect quadruple of a one-cochain; always a cocycle."""
        vec = exact_matmul(self.coboundary_matrix, self.kappa_to_coords(kappa))
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

    def zero_class(self) -> CohomologyClass:
        return CohomologyClass(self, tuple(0 for _ in self.h2.factors))

    def class_representative(self, cls: CohomologyClass) -> FactorSystem:
        return self.fs_from_coords(self.h2.representative(cls.coords))

    def h2_classes(self) -> Iterator[CohomologyClass]:
        for v in iter_vectors(self.h2.factors):
            yield CohomologyClass(self, v)

    def z2_elements(self) -> Iterator[FactorSystem]:
        """All cocycles (desk scale only)."""
        for vec in self.z2.elements():
            yield self.fs_from_coords(vec)

    def z1_elements(self) -> Iterator[OneCochain]:
        for vec in self.z1.elements():
            yield self.kappa_from_coords(vec)


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
