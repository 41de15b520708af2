"""Automorphism lifting for abelian extensions.

Given an abelian extension E with kernel datum (K, L) and quotient datum
(A, B), automorphism pairs of quotient and kernel act on factor systems by

    tau1 -> theta1^-1 o tau1 o (psi1 x psi1),   rho -> theta1^-1 o rho o (psi1 x psi2),
    tau2 -> theta2^-1 o tau2 o (psi2 x psi2),   chi -> theta2^-1 o chi o psi1.

The obstruction map sends a compatible pair c to [fs^c] - [fs]; its kernel is
exactly the set of pairs induced by automorphisms of the total structure that
normalize the kernel.  The sign convention follows from the faithful
translation action: [E(fs)]^c = [E(fs^c)] and [E(fs)]^[t] = [E(fs + t)].

Pairs, automorphisms, lifts and classes are handled as stacks of image rows,
so the exactness audit is a fixed number of array passes per extension; the
single-pair functions are the one-row case of the same code.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .cohomology import CohomologyClass, cochain_complex
from .extensions import Extension, _chart_actions, _chart_factor_system, chart
from .groups import _inverse_perm, _levels, check_cells, row_index
from .modules import FactorSystem, OneCochain, RRBModule, twisted_action
from .rrb import (
    RRBError,
    RRBMorphism,
    automorphism_objects,
    check_automorphisms,
    rrb_automorphism_images,
)


class CompatiblePair(NamedTuple):
    """(psi, theta): automorphisms of the quotient and kernel data."""

    psi: RRBMorphism
    theta: RRBMorphism

    def compose(self, other: "CompatiblePair") -> "CompatiblePair":
        """self after other; matches the right action on factor systems."""
        return CompatiblePair(self.psi.compose(other.psi),
                              self.theta.compose(other.theta))

    def inverse(self) -> "CompatiblePair":
        return CompatiblePair(self.psi.inverse(), self.theta.inverse())


class _Pairs(NamedTuple):
    """A stack of pairs as image rows: psi1 on A, psi2 on B, theta1 on K,
    theta2 on L, one row per pair."""

    psi1: np.ndarray
    psi2: np.ndarray
    theta1: np.ndarray
    theta2: np.ndarray

    def take(self, which) -> "_Pairs":
        return _Pairs(*(x[which] for x in self))


def _stack_of(pair: CompatiblePair) -> _Pairs:
    return _Pairs(pair.psi.psi.image[None], pair.psi.eta.image[None],
                  pair.theta.psi.image[None], pair.theta.eta.image[None])


def _identity_rows(P: _Pairs) -> np.ndarray:
    return np.logical_and.reduce([(x == np.arange(x.shape[1])).all(axis=1) for x in P])


def _compatible(module: RRBModule, P: _Pairs) -> np.ndarray:
    """Which pairs satisfy the four stabilizer conditions tying (psi, theta)
    to (nu, mu, sigma, f), each one gather over the stack."""
    act = module.action
    th1, th2, psi1, psi2 = P.theta1, P.theta2, P.psi1, P.psi2
    conditions = ((th1[:, act.nu], act.nu[psi2[:, :, None], th1[:, None, :]]),
                  (th2[:, act.sigma], act.sigma[psi2[:, :, None], th2[:, None, :]]),
                  (th1[:, act.mu], act.mu[psi1[:, :, None], th1[:, None, :]]),
                  (th1[:, act.f], act.f[th2[:, :, None], psi1[:, None, :]]))
    return np.logical_and.reduce([(lhs == rhs).all(axis=(1, 2)) for lhs, rhs in conditions])


def pair_is_compatible(module: RRBModule, pair: CompatiblePair) -> bool:
    """Both maps bijective, and the four stabilizer conditions tying (psi,
    theta) to (nu, mu, sigma, f)."""
    return (pair.psi.is_bijective() and pair.theta.is_bijective()
            and bool(_compatible(module, _stack_of(pair))[0]))


class _PairGroup:
    """Aut(quotient) x Aut(kernel) of a module as image stacks, psi-major,
    the compatible pairs C among them, the generators S of C's generator
    walk and the products C * S, the walk's columns.

    Both automorphism stacks are sorted, so the pairs are sorted by their
    image rows and so is C; the identity, the least image array, is row 0
    of each.  Every product C * s the walk takes must lie in C, and the
    walk reaches all of C through them, so C is a subgroup.
    """

    def __init__(self, module: RRBModule):
        self.quotient = rrb_automorphism_images(module.quotient)
        self.kernel = rrb_automorphism_images(module.kernel)
        nq, nk = len(self.quotient[0]), len(self.kernel[0])
        self.nk = nk
        width = sum(x.shape[1] for x in (*self.quotient, *self.kernel))
        check_cells(nq * nk * width, f"a stack of {nq * nk} automorphism pairs")
        self.all = _Pairs(*(np.repeat(x, nk, axis=0) for x in self.quotient),
                          *(np.tile(x, (nq, 1)) for x in self.kernel))
        self.C = np.flatnonzero(_compatible(module, self.all))
        # position[p] is the index in C of pair p, or -1.
        self.position = np.full(nq * nk, -1, dtype=np.int64)
        self.position[self.C] = np.arange(len(self.C))
        self.pairs = self.all.take(self.C)
        # C's image rows, each map shifted past those before it: x after y is rows[x, rows[y]].
        widths = [x.shape[1] for x in self.pairs]
        self.shift = np.repeat(np.cumsum([0, *widths[:-1]]), widths)
        self.rows = np.concatenate(self.pairs, axis=1) + self.shift
        self.index = row_index(self.rows)
        every = np.arange(len(self.C))
        levels = _levels(len(self.C), lambda g: self.product(every, g), [every])
        self.generators = np.array([level.gen for level in levels], dtype=np.int64)
        # by_generators[i, j] is the index in C of pair i after generator j.
        self.by_generators = levels[-1].columns if levels else np.zeros((len(every), 0), np.int64)

    def product(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The index in C of pair x after pair y, for broadcast index arrays
        into C: one composition gather of C's image rows and one row lookup."""
        n = np.broadcast(x, y).size
        check_cells(n * self.rows.shape[1], f"a gather of {n} products of compatible pairs")
        found = self.index(self.rows[x[..., None], self.rows[y]])
        if (found < 0).any():  # pragma: no cover - theorem
            raise RRBError("InternalError", "compatible pairs not closed under product")
        return found

    def find(self, P: _Pairs) -> np.ndarray:
        """The index in C of each pair of a stack, or -1."""
        return self.index(np.concatenate(P, axis=1) + self.shift)

    def objects(self, module: RRBModule, which: np.ndarray) -> List[CompatiblePair]:
        """The pairs at the given indices, as objects sharing their components."""
        q, k = np.divmod(which, self.nk)
        psis = automorphism_objects(module.quotient, *self.quotient)
        thetas = automorphism_objects(module.kernel, *self.kernel)
        return [CompatiblePair(psis[i], thetas[j]) for i, j in zip(q.tolist(), k.tolist())]


def compatible_pairs(module: RRBModule) -> List[CompatiblePair]:
    """All compatible pairs, sorted; checked to be closed under products."""
    pairs = _PairGroup(module)
    return pairs.objects(module, pairs.C)


def _act(psi1: np.ndarray, psi2: np.ndarray, th1inv: np.ndarray, th2inv: np.ndarray,
         fs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """fs^(psi, theta) for every row of the stacks (psi1, psi2, theta1^-1,
    theta2^-1) and every 2-cochain of a stack fs = (tau1, tau2, rho, chi)
    with one leading axis, as the four arrays with axes (pair, cochain, ...):

        tau1 -> theta1^-1 o tau1 o (psi1 x psi1),  tau2 likewise,
        rho -> theta1^-1 o rho o (psi1 x psi2),    chi -> theta2^-1 o chi o psi1.
    """
    tau1, tau2, rho, chi = fs
    c = np.arange(len(psi1))[:, None, None, None]
    s = np.arange(len(tau1))[None, :, None, None]
    a1, a2 = psi1[:, None, :, None], psi1[:, None, None, :]
    b1, b2 = psi2[:, None, :, None], psi2[:, None, None, :]
    return [th1inv[c, tau1[s, a1, a2]], th2inv[c, tau2[s, b1, b2]], th1inv[c, rho[s, a1, b2]],
            th2inv[c[..., 0], chi[s[..., 0], a1[..., 0]]]]


def _arrays(fs: FactorSystem) -> List[np.ndarray]:
    return [fs.tau1, fs.tau2, fs.rho, fs.chi]


def _twist(P: _Pairs, fs: Sequence[np.ndarray]) -> List[np.ndarray]:
    """_act for pairs of automorphisms, theta inverted by a scatter."""
    return _act(P.psi1, P.psi2, _inverse_perm(P.theta1), _inverse_perm(P.theta2), fs)


def act_on_factor_system(pair: CompatiblePair, fs: FactorSystem,
                         module: RRBModule) -> FactorSystem:
    """Twisted factor system fs^(psi, theta)."""
    if not pair_is_compatible(module, pair):
        raise RRBError("PairNotCompatible", "pair is no compatible pair of automorphisms")
    moved = _twist(_stack_of(pair), [x[None] for x in _arrays(fs)])
    return FactorSystem(*(x[0, 0] for x in moved))


def act_on_class(pair: CompatiblePair, cls: CohomologyClass) -> CohomologyClass:
    """[fs]^pair = [fs^pair]; independent of the representative."""
    cx = cls.complex
    rep = cx.class_representative(cls)
    return cx.class_of(act_on_factor_system(pair, rep, cx.module))


class WellsContext:
    """Cached per-extension data for the lifting computations."""

    def __init__(self, ext: Extension):
        if not ext.is_abelian:
            raise RRBError("NotAbelianExtension", "lifting theory needs an abelian kernel datum")
        self.ext = ext
        self.chart = chart(ext)
        self.module = RRBModule(ext.quotient, ext.kernel, _chart_actions(ext, self.chart))
        self.complex = cochain_complex(self.module)
        self.fs = _chart_factor_system(ext, self.chart)
        self.base_class = self.complex.class_of(self.fs)

    @functools.cached_property
    def pair_group(self) -> _PairGroup:
        return _PairGroup(self.module)

    @functools.cached_property
    def all_pairs(self) -> List[CompatiblePair]:
        """Aut(quotient) x Aut(kernel), psi-major."""
        return self.pair_group.objects(self.module, np.arange(len(self.pair_group.position)))

    @functools.cached_property
    def compatible(self) -> List[CompatiblePair]:
        """C, sorted, in the order of ``pair_group``'s indices into it."""
        return [self.all_pairs[p] for p in self.pair_group.C]

    @functools.cached_property
    def aut_K(self) -> Tuple[np.ndarray, np.ndarray]:
        """Automorphisms of the total structure carrying the kernel onto
        itself, as sorted image stacks, from one stabilizer search a side."""
        incl = self.ext.incl
        return rrb_automorphism_images(self.ext.total,
                                       stabilizing=(incl.psi.image, incl.eta.image))


# A lift is stored as three pairs of images: psi on (A, B), kappa on (A, B)
# and theta on (K, L).  It is the automorphism of the total structure with
#     gamma(s(a) k) = s(psi1(a)) kappa1(a) theta1(k),
# and likewise on G with (psi2, kappa2, theta2).  Lifts and their inverse
# readings run on stacks: one row per automorphism or pair.

def _sides(ctx: WellsContext) -> tuple:
    """Per component: total group, kernel group, inclusion image, section
    and the chart's two coordinate arrays."""
    ext, ch = ctx.ext, ctx.chart
    return ((ext.total.H, ext.kernel.H, ext.incl.psi.image, ch.section.s_H, ch.a, ch.k),
            (ext.total.G, ext.kernel.G, ext.incl.eta.image, ch.section.s_G, ch.b, ch.l))


def _lift(ctx: WellsContext, psi, kappa, theta) -> Tuple[np.ndarray, np.ndarray]:
    """Image stacks of the lifts, checked as automorphisms of the total."""
    on_H, on_G = (group.table[s[p[:, outer]], incl[kernel.table[kap[:, outer], th[:, inner]]]]
                  for (group, kernel, incl, s, outer, inner), p, kap, th
                  in zip(_sides(ctx), psi, kappa, theta))
    check_automorphisms(ctx.ext.total, on_H, on_G)
    return on_H, on_G


def _unlift(ctx: WellsContext, on_H: np.ndarray, on_G: np.ndarray) -> tuple:
    """(psi, kappa, theta) stacks of automorphisms carrying the kernel into
    itself; ImageKernelMismatch names, in the first row that has one, the
    first kernel element's image outside it."""
    parts = []
    for (_, _, incl, s, outer, inner), img in zip(_sides(ctx), (on_H, on_G)):
        moved = img[:, incl]
        off = outer[moved] != 0
        if off.any():
            row = int(np.argmax(off.any(axis=1)))
            raise RRBError("ImageKernelMismatch", f"element {int(moved[row, np.argmax(off[row])])} "
                                                  "is not in the kernel image")
        parts.append((outer[img[:, s]], inner[img[:, s]], inner[moved]))
    return tuple(zip(*parts))


def _restrict(ctx: WellsContext, on_H: np.ndarray, on_G: np.ndarray) -> _Pairs:
    """(induced automorphism of the quotient, restriction to the kernel) of
    each automorphism of a stack, checked as automorphisms of the kernel
    and of the quotient."""
    (psi1, psi2), _, (theta1, theta2) = _unlift(ctx, on_H, on_G)
    m = ctx.module
    check_automorphisms(m.kernel, theta1, theta2)
    check_automorphisms(m.quotient, psi1, psi2)
    P = _Pairs(psi1, psi2, theta1, theta2)
    if not _compatible(m, P).all():  # pragma: no cover - theorem
        raise RRBError("InternalError", "induced pair fails the stabilizer conditions")
    return P


def _z1_to_aut(ctx: WellsContext, kappa1: np.ndarray,
               kappa2: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked z1_to_aut: NotInZ1 for the first cochain that is not a derivation."""
    _, witness = ctx.complex.z1_defects(kappa1, kappa2)
    if witness is not None:
        raise RRBError("NotInZ1", f"defect {witness[0]} at {witness[1]} is nonzero")
    m, n = ctx.module, len(kappa1)
    ident = [np.broadcast_to(np.arange(g.order), (n, g.order)) for g in (m.A, m.B, m.K, m.L)]
    return _lift(ctx, ident[:2], (kappa1, kappa2), ident[2:])


def _aut_to_z1(ctx: WellsContext, on_H: np.ndarray,
               on_G: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked aut_to_z1: NotInAutAK for the first automorphism that does
    not induce the identity on kernel and quotient."""
    psi, kappa, theta = _unlift(ctx, on_H, on_G)
    if not _identity_rows(_Pairs(*psi, *theta)).all():
        raise RRBError("NotInAutAK", "gamma does not induce the identity on kernel and quotient")
    _, witness = ctx.complex.z1_defects(*kappa)
    if witness is not None:  # pragma: no cover - theorem for gamma in Aut^{A,K}
        raise RRBError("NotInZ1", f"extracted cochain fails {witness[0]} at {witness[1]}")
    return kappa


def _twisted(ctx: WellsContext, P: _Pairs) -> List[np.ndarray]:
    """fs^c for each pair c of a stack, as the stacks (tau1, tau2, rho, chi)."""
    return [x[:, 0] for x in _twist(P, [x[None] for x in _arrays(ctx.fs)])]


def _omega(ctx: WellsContext, twisted: Sequence[np.ndarray]) -> np.ndarray:
    """Rows of [fs^c] - [fs] for the twists fs^c of a stack of compatible pairs c."""
    cx, base = ctx.complex, ctx.base_class
    moved = cx.classes(cx.c2_coords(twisted)) - np.array(base.coords, dtype=np.int64)
    return moved % np.array(base.factors, dtype=np.int64)


def _action_matrices(ctx: WellsContext, P: _Pairs) -> np.ndarray:
    """For each compatible pair c, the matrix of its action on H2: column i
    is the class of c acting on the representative of the unit class e_i.
    The action is additive, so it sends a class x to M x modulo the factors."""
    cx = ctx.complex
    r = len(cx.h2.factors)
    if not r:
        return np.zeros((len(P.psi1), 0, 0), dtype=np.int64)
    moved = _twist(P, cx.class_representatives(np.eye(r, dtype=np.int64)))
    flat = [x.reshape((-1,) + x.shape[2:]) for x in moved]
    return cx.classes(cx.c2_coords(flat)).reshape(len(P.psi1), r, r).transpose(0, 2, 1)


def wells_map(ctx: WellsContext, pair: CompatiblePair) -> CohomologyClass:
    """Obstruction class [fs^pair] - [fs] of a compatible pair."""
    if not pair_is_compatible(ctx.module, pair):
        raise RRBError("PairNotCompatible", "pair is no compatible pair of automorphisms")
    return CohomologyClass(ctx.complex, _omega(ctx, _twisted(ctx, _stack_of(pair)))[0])


def aut_K_H(ctx: WellsContext) -> List[RRBMorphism]:
    """Automorphisms of the total structure carrying the kernel into itself."""
    return automorphism_objects(ctx.ext.total, *ctx.aut_K)


def restrict_and_induce(ctx: WellsContext, gamma: RRBMorphism) -> CompatiblePair:
    """(induced automorphism of the quotient, restriction to the kernel)."""
    P = _restrict(ctx, gamma.psi.image[None], gamma.eta.image[None])
    m = ctx.module
    return CompatiblePair(automorphism_objects(m.quotient, P.psi1, P.psi2)[0],
                          automorphism_objects(m.kernel, P.theta1, P.theta2)[0])


def aut_AK_H(ctx: WellsContext) -> List[RRBMorphism]:
    """Automorphisms inducing the identity on both kernel and quotient."""
    on_H, on_G = ctx.aut_K
    identity = _identity_rows(_restrict(ctx, on_H, on_G))
    return automorphism_objects(ctx.ext.total, on_H[identity], on_G[identity])


def z1_to_aut(ctx: WellsContext, kappa: OneCochain) -> RRBMorphism:
    """gamma with gamma(s(a) k) = s(a) kappa1(a) k, and likewise on G."""
    on_H, on_G = _z1_to_aut(ctx, kappa.kappa1[None], kappa.kappa2[None])
    return automorphism_objects(ctx.ext.total, on_H, on_G)[0]


def aut_to_z1(ctx: WellsContext, gamma: RRBMorphism) -> OneCochain:
    """kappa1(a) = s(a)^-1 gamma(s(a)); the inverse of z1_to_aut on Aut^{A,K}."""
    kappa1, kappa2 = _aut_to_z1(ctx, gamma.psi.image[None], gamma.eta.image[None])
    return OneCochain(kappa1[0], kappa2[0])


def _inducible(ctx: WellsContext, P: _Pairs, twisted: Sequence[np.ndarray]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a stack of compatible pairs and their twists fs^pair: which lift,
    and the lifts of those.

    One coboundary solve for all the differences fs^pair - fs; a solution
    lambda gives the lift gamma(s(a) k) = s(psi1(a)) kappa1(a) theta1(k)
    with kappa = -lambda pushed through theta, and every lift must induce
    its pair back.
    """
    m, cx, fs = ctx.module, ctx.complex, _arrays(ctx.fs)
    diff = [group.table[moved, group.inverses[base]]
            for moved, base, group in zip(twisted, fs, (m.K, m.L, m.K, m.L))]
    solution, member = cx.b2.membership_coefficients(cx.c2_coords(diff))
    lam1, lam2 = cx.kappa_from_coords(solution[member])
    Q = P.take(member)
    rows = np.arange(len(Q.psi1))[:, None]
    kappa = (Q.theta1[rows, m.K.inverses[lam1]], Q.theta2[rows, m.L.inverses[lam2]])
    on_H, on_G = _lift(ctx, (Q.psi1, Q.psi2), kappa, (Q.theta1, Q.theta2))
    # Each lift must induce its own pair; that pair is already checked, so
    # the induced one needs no checks of its own.
    psi, _, theta = _unlift(ctx, on_H, on_G)
    if not all(np.array_equal(x, y) for x, y in zip((*psi, *theta), Q)):  # pragma: no cover
        raise RRBError("InternalError", "witness does not induce the requested pair")
    return member, on_H, on_G


def is_inducible(ctx: WellsContext, pair: CompatiblePair
                 ) -> Tuple[bool, Optional[RRBMorphism]]:
    """Decide liftability of the pair; on success return a lifting witness.

    The witness is gamma(s(a) k) = s(psi1(a)) kappa1(a) theta1(k) where kappa
    solves the coboundary equation for fs^pair - fs, pushed through theta.
    """
    if not pair_is_compatible(ctx.module, pair):
        return False, None
    P = _stack_of(pair)
    member, on_H, on_G = _inducible(ctx, P, _twisted(ctx, P))
    if not member[0]:
        return False, None
    return True, automorphism_objects(ctx.ext.total, on_H, on_G)[0]


def twisted_module(module: RRBModule, psi: RRBMorphism) -> RRBModule:
    """The same kernel datum with the action precomposed by psi."""
    if not (psi.domain == module.quotient and psi.codomain == module.quotient
            and psi.is_bijective()):
        raise RRBError("PsiNotAutomorphism", "psi must be an automorphism of the quotient")
    action = twisted_action(module, psi.psi.image, psi.eta.image)
    return RRBModule(module.quotient, module.kernel, action)


def inducible_by_module_criterion(ctx: WellsContext, pair: CompatiblePair) -> bool:
    """Module-theoretic decision: theta must identify the kernel module with
    its psi-twist, and the twist of the class by psi alone must match the
    twist by theta alone inside the twisted module's cohomology."""
    module = ctx.module
    if not (pair.psi.domain == module.quotient and pair.psi.is_bijective()):
        raise RRBError("PsiNotAutomorphism", "pair does not start with a quotient automorphism")
    # (1) theta: module -> twisted module is an isomorphism of modules; these
    # are the stabilizer conditions of the pair.
    if not pair_is_compatible(module, pair):
        return False
    # (2) psi^*[fs] == theta^*[fs] in the twisted module's cohomology: the
    # rows fs^(psi, id) and fs^(id, theta^-1), whose inverted theta is theta.
    cx_t = cochain_complex(twisted_module(module, pair.psi))
    psi1, psi2, th1, th2 = (np.concatenate([x, np.arange(x.shape[1])[None]])
                            for x in _stack_of(pair))
    moved = _act(psi1, psi2, th1[::-1], th2[::-1], [x[None] for x in _arrays(ctx.fs)])
    psi_star, theta_star = cx_t.classes(cx_t.c2_coords([x[:, 0] for x in moved]))
    return bool((psi_star == theta_star).all())


class WellsReport(NamedTuple):
    """The audit's answer as stacks: every automorphism pair, psi-major, the
    index in C of each (or -1), C's obstruction rows, the mask over C of the
    pairs that lift and the (on H, on G) image stacks of their lifts, in C order."""

    pairs: _Pairs
    position: np.ndarray
    omega: np.ndarray
    inducible: np.ndarray
    lifts: Tuple[np.ndarray, np.ndarray]
    exactness: Dict[str, bool]
    witnesses: Dict[str, str]
    omega_is_homomorphism: bool


def verify_wells_exactness(ext: Extension) -> WellsReport:
    """Exactness audit of the lifting sequence for one extension.

    Checks: the derivation group embeds in the total automorphisms; its image
    is exactly the automorphisms inducing the identity on kernel and
    quotient; the restriction map hits exactly the obstruction kernel; the
    obstruction map satisfies the derivation law.  Each check is a fixed
    number of passes over stacks: of derivations, of automorphisms of the
    total, of compatible pairs and of their products with a generating set
    S of C; the factor system is twisted once by all of C.

    Both laws of omega, omega(c s) = omega(c)^s + omega(s) (derivation) and
    omega(c s) = omega(c) + omega(s), are checked on C x S only: the s at
    which a law holds against every c in C include 1 (omega(1) = 0 and 1
    acts trivially), include S and are closed under products, by the law at
    (c s, t), (c, s) and (s, t), so they are all of C.  The derivation law
    needs the cochain action to be a right action, (fs^c1)^c2 = fs^(c1 c2),
    which holds by construction: both sides are the same composed gathers.
    """
    ctx = WellsContext(ext)
    cx = ctx.complex
    exactness: Dict[str, bool] = {}
    witnesses: Dict[str, str] = {}

    z1, kappa1, kappa2 = cx.z1_stack()
    eta_H, eta_G = _z1_to_aut(ctx, kappa1, kappa2)
    eta_rows = np.concatenate([eta_H, eta_G], axis=1)
    injective = bool((row_index(eta_rows)(eta_rows) == np.arange(len(eta_rows))).all())
    # One stabilizer search of Aut(total); each automorphism is restricted once.
    aut_H, aut_G = ctx.aut_K
    induced = _restrict(ctx, aut_H, aut_G)
    stable = _identity_rows(induced)
    ak_H, ak_G = aut_H[stable], aut_G[stable]
    ak_rows = np.concatenate([ak_H, ak_G], axis=1)
    lands = bool((row_index(ak_rows)(eta_rows) >= 0).all())
    # The stack lists Z1 by its coordinates, last one fastest, so eta(k + g)
    # is the row at the mixed-radix index of the sum.  The law is checked for
    # g = 0 and the unit vectors: the g for which it holds against all of Z1
    # are closed under sums, and g = 0 makes eta(0) the identity.
    factors = cx.z1.factors
    strides = np.array([math.prod(factors[j + 1:]) for j in range(len(factors))], dtype=np.int64)
    gens = np.concatenate([[0], strides])
    check_cells(len(z1) * len(gens) * eta_rows.shape[1],
                "the products of the derivation automorphisms")
    at_sum = (z1[:, None] + z1[gens][None]) % np.array(factors, dtype=np.int64) @ strides
    first = np.arange(len(z1))[:, None, None]
    defects = ((eta_H[at_sum] != eta_H[first, eta_H[gens][None]]).any(axis=2)
               | (eta_G[at_sum] != eta_G[first, eta_G[gens][None]]).any(axis=2))
    if defects.any():
        i, j = np.argwhere(defects)[-1]
        witnesses["eta_injective"] = (f"eta not multiplicative at {OneCochain(kappa1[i], kappa2[i])}, "
                                      f"{OneCochain(kappa1[gens[j]], kappa2[gens[j]])}")
    exactness["eta_injective"] = injective and lands and not defects.any()
    if not injective:
        witnesses["eta_injective"] = "distinct derivations with equal automorphisms"

    back = _aut_to_z1(ctx, eta_H, eta_G)
    # aut_to_z1 o eta = id makes eta injective; with eta(Z1) = Aut^{A,K} it
    # gives eta o aut_to_z1 = id and |Aut^{A,K}| = |Z1|, so neither is checked.
    roundtrip = np.array_equal(back[0], kappa1) and np.array_equal(back[1], kappa2)
    same = lands and bool((row_index(eta_rows)(ak_rows) >= 0).all())
    exactness["ker_rho_eq_im_eta"] = same and roundtrip
    if not same:
        witnesses["ker_rho_eq_im_eta"] = "kernel of restriction differs from derivation image"
    elif not roundtrip:
        witnesses["ker_rho_eq_im_eta"] = "aut_to_z1 does not invert eta"

    pg = ctx.pair_group
    C = pg.pairs
    twisted = _twisted(ctx, C)
    omega = _omega(ctx, twisted)
    im_rho, ker_omega = np.zeros(len(pg.C), dtype=bool), ~omega.any(axis=1)
    induced_at = pg.find(induced)
    if (induced_at < 0).any():  # pragma: no cover - theorem
        raise RRBError("InternalError", "an induced pair is not a compatible pair")
    im_rho[induced_at] = True
    exactness["ker_omega_eq_im_rho"] = bool(np.array_equal(im_rho, ker_omega))
    if not exactness["ker_omega_eq_im_rho"]:
        witnesses["ker_omega_eq_im_rho"] = (
            f"im(rho) has {im_rho.sum()} pairs, ker(omega) has {ker_omega.sum()}")

    # Both laws of omega on C x S, the action through each generator's matrix.
    h2, S = np.array(cx.h2.factors, dtype=np.int64), pg.generators
    check_cells(len(omega) * len(S) * len(h2), "the obstruction laws on the generators")
    lhs = omega[pg.by_generators]
    acted = np.einsum("jab,ib->ija", _action_matrices(ctx, C.take(S)), omega)
    derivation = ((acted + omega[S][None]) % h2 == lhs).all(axis=2)
    exactness["omega_derivation"] = bool(derivation.all())
    if not derivation.all():
        i, j = np.argwhere(~derivation)[-1]
        c, s = (tuple(tuple(x[k].tolist()) for x in C) for k in (i, S[j]))
        witnesses["omega_derivation"] = f"law fails at {c}, {s}"
    homomorphism = bool(((omega[:, None] + omega[S][None]) % h2 == lhs).all())

    inducible, lift_H, lift_G = _inducible(ctx, C, twisted)
    return WellsReport(pg.all, pg.position, omega, inducible, (lift_H, lift_G),
                       exactness, witnesses, homomorphism)
