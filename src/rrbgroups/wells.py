"""Automorphism lifting for abelian extensions.

Given an abelian extension E with kernel datum (K, L) and quotient datum
(A, B), automorphism pairs of quotient and kernel act on factor systems by

    tau1 -> theta1^-1 o tau1 o (psi1 x psi1),   rho -> theta1^-1 o rho o (psi1 x psi2),
    tau2 -> theta2^-1 o tau2 o (psi2 x psi2),   chi -> theta2^-1 o chi o psi1.

The obstruction map sends a compatible pair c to [fs^c] - [fs]; its kernel is
exactly the set of pairs induced by automorphisms of the total structure that
normalize the kernel.  The sign convention follows from the faithful
translation action: [E(fs)]^c = [E(fs^c)] and [E(fs)]^[t] = [E(fs + t)].
"""

from __future__ import annotations

import functools
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .abelian import reduce_vec
from .cohomology import CohomologyClass, cochain_complex
from .extensions import Extension, chart, extract_actions, extract_factor_system
from .groups import DEFAULT_MAX_ORDER, GroupHom
from .modules import (
    FactorSystem,
    OneCochain,
    RRBModule,
    add_factor_systems,
    negate_factor_system,
    twisted_action,
)
from .rrb import RRBError, RRBMorphism, rrb_automorphism_group


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

    def is_identity(self) -> bool:
        return (np.array_equal(self.psi.psi.image, np.arange(len(self.psi.psi.image)))
                and np.array_equal(self.psi.eta.image, np.arange(len(self.psi.eta.image)))
                and np.array_equal(self.theta.psi.image, np.arange(len(self.theta.psi.image)))
                and np.array_equal(self.theta.eta.image, np.arange(len(self.theta.eta.image))))


def identity_pair(module: RRBModule) -> CompatiblePair:
    from .rrb import identity_morphism

    return CompatiblePair(identity_morphism(module.quotient),
                          identity_morphism(module.kernel))


def pair_is_compatible(module: RRBModule, pair: CompatiblePair) -> bool:
    """The four stabilizer conditions tying (psi, theta) to (nu, mu, sigma, f)."""
    psi1, psi2 = pair.psi.psi.image, pair.psi.eta.image
    th1, th2 = pair.theta.psi.image, pair.theta.eta.image
    act = module.action
    return (np.array_equal(th1[act.nu], act.nu[psi2][:, th1])
            and np.array_equal(th2[act.sigma], act.sigma[psi2][:, th2])
            and np.array_equal(th1[act.mu], act.mu[psi1][:, th1])
            and np.array_equal(th1[act.f], act.f[th2][:, psi1]))


def compatible_pairs(module: RRBModule,
                     max_order: int = DEFAULT_MAX_ORDER) -> List[CompatiblePair]:
    """All compatible pairs, sorted; checked to be closed under the group ops."""
    return _compatible_among(module, _all_pairs(module, max_order))[0]


def _all_pairs(module: RRBModule, max_order: int) -> List[CompatiblePair]:
    """Aut(quotient) x Aut(kernel), from one automorphism search of each."""
    thetas = rrb_automorphism_group(module.kernel, max_order)
    return [CompatiblePair(psi, theta)
            for psi in rrb_automorphism_group(module.quotient, max_order)
            for theta in thetas]


def _compatible_among(module: RRBModule, candidates: List[CompatiblePair]
                      ) -> Tuple[List[CompatiblePair], np.ndarray]:
    """The compatible candidates, sorted, with their product table."""
    pairs = sorted((pair for pair in candidates if pair_is_compatible(module, pair)),
                   key=_pair_key)
    return pairs, _pair_table(pairs)


def _pair_table(pairs: List[CompatiblePair]) -> np.ndarray:
    """products[i, j] is the index of pairs[i] after pairs[j]; raises
    InternalError if a product or an inverse leaves the list.

    A pair acts as one permutation of the disjoint union A + B + K + L, so a
    product is a gather of two such rows and an inverse is a scatter.
    """
    images = [(p.psi.psi.image, p.psi.eta.image, p.theta.psi.image, p.theta.eta.image)
              for p in pairs]
    offsets = np.cumsum([0] + [len(img) for img in images[0][:-1]])
    rows = np.stack([np.concatenate([img + off for img, off in zip(imgs, offsets)])
                     for imgs in images])
    index = {row.tobytes(): i for i, row in enumerate(rows)}

    def lookup(row: np.ndarray, closed_under: str) -> int:
        i = index.get(row.tobytes())
        if i is None:  # pragma: no cover - theorem
            raise RRBError("InternalError", f"compatible pairs not closed under {closed_under}")
        return i

    # A scatter rather than np.argsort, which would page numpy's sort
    # kernels into the memory of every job that audits C.
    inverse_rows = np.empty_like(rows)
    np.put_along_axis(inverse_rows, rows, np.arange(rows.shape[1]), axis=1)
    for row in inverse_rows:
        lookup(row, "inverse")
    return np.array([[lookup(prod, "product") for prod in row[rows]] for row in rows])


def _morphism_key(m: RRBMorphism) -> tuple:
    return (tuple(m.psi.image.tolist()), tuple(m.eta.image.tolist()))


def _pair_key(pair: CompatiblePair) -> tuple:
    return _morphism_key(pair.psi) + _morphism_key(pair.theta)


def act_on_factor_system(pair: CompatiblePair, fs: FactorSystem,
                         module: RRBModule, check: bool = True) -> FactorSystem:
    """Twisted factor system fs^(psi, theta)."""
    if check and not pair_is_compatible(module, pair):
        raise RRBError("PairNotCompatible", "pair does not stabilize the action")
    psi1, psi2 = pair.psi.psi.image, pair.psi.eta.image
    th1inv = pair.theta.psi.inverse().image
    th2inv = pair.theta.eta.inverse().image
    return FactorSystem(th1inv[fs.tau1[psi1][:, psi1]], th2inv[fs.tau2[psi2][:, psi2]],
                        th1inv[fs.rho[psi1][:, psi2]], th2inv[fs.chi[psi1]])


def act_on_class(pair: CompatiblePair, cls: CohomologyClass) -> CohomologyClass:
    """[fs]^pair = [fs^pair]; independent of the representative."""
    cx = cls.complex
    rep = cx.class_representative(cls)
    return cx.class_of(act_on_factor_system(pair, rep, cx.module))


class WellsContext:
    """Cached per-extension data for the lifting computations."""

    def __init__(self, ext: Extension, max_order: int = DEFAULT_MAX_ORDER):
        if not ext.is_abelian:
            raise RRBError("NotAbelianExtension", "lifting theory needs an abelian kernel datum")
        self.ext = ext
        self.chart = chart(ext)
        self.module = RRBModule(ext.quotient, ext.kernel,
                                extract_actions(ext, self.chart.section))
        self.complex = cochain_complex(self.module)
        self.fs = extract_factor_system(ext, self.chart.section)
        self.base_class = self.complex.class_of(self.fs)
        self.max_order = max_order

    @functools.cached_property
    def all_pairs(self) -> List[CompatiblePair]:
        return _all_pairs(self.module, self.max_order)

    @functools.cached_property
    def compatible_table(self) -> Tuple[List[CompatiblePair], np.ndarray]:
        """C, sorted, with products[i, j] the index of C[i] after C[j]."""
        return _compatible_among(self.module, self.all_pairs)

    @property
    def compatible(self) -> List[CompatiblePair]:
        return self.compatible_table[0]


# A lift is stored as three pairs of images: psi on (A, B), kappa on (A, B)
# and theta on (K, L).  It is the automorphism of the total structure with
#     gamma(s(a) k) = s(psi1(a)) kappa1(a) theta1(k),
# and likewise on G with (psi2, kappa2, theta2).

def _sides(ctx: WellsContext) -> tuple:
    """Per component: total group, kernel group, inclusion image, section
    and the chart's two coordinate arrays."""
    ext, ch = ctx.ext, ctx.chart
    return ((ext.total.H, ext.kernel.H, ext.incl.psi.image, ch.section.s_H, ch.a, ch.k),
            (ext.total.G, ext.kernel.G, ext.incl.eta.image, ch.section.s_G, ch.b, ch.l))


def _lift(ctx: WellsContext, psi, kappa, theta) -> RRBMorphism:
    homs = []
    for (group, kernel, incl, s, outer, inner), p, kap, th in zip(
            _sides(ctx), psi, kappa, theta):
        img = group.table[s[p[outer]], incl[kernel.table[kap[outer], th[inner]]]]
        homs.append(GroupHom(group, group, img))
    gamma = RRBMorphism(ctx.ext.total, ctx.ext.total, *homs)
    if not gamma.is_bijective():  # pragma: no cover - theorem
        raise RRBError("InternalError", "lift is not bijective")
    return gamma


def _unlift(ctx: WellsContext, gamma: RRBMorphism) -> tuple:
    """(psi, kappa, theta) of an automorphism carrying the kernel into itself;
    ImageKernelMismatch names the first kernel element's image outside it."""
    parts = []
    for (_, _, incl, s, outer, inner), hom in zip(_sides(ctx), (gamma.psi, gamma.eta)):
        moved = hom.image[incl]
        off = outer[moved] != 0
        if off.any():
            raise RRBError("ImageKernelMismatch",
                           f"element {int(moved[np.argmax(off)])} is not in the kernel image")
        parts.append((outer[hom.image[s]], inner[hom.image[s]], inner[moved]))
    return tuple(zip(*parts))


def wells_map(ctx: WellsContext, pair: CompatiblePair) -> CohomologyClass:
    """Obstruction class [fs^pair] - [fs] of a compatible pair."""
    if not pair_is_compatible(ctx.module, pair):
        raise RRBError("PairNotCompatible", "pair does not stabilize the action")
    twisted = act_on_factor_system(pair, ctx.fs, ctx.module, check=False)
    return ctx.complex.class_of(twisted) - ctx.base_class


def aut_K_H(ctx: WellsContext) -> List[RRBMorphism]:
    """Automorphisms of the total structure carrying the kernel into itself."""
    ext = ctx.ext
    K_img = np.asarray(ext.incl.psi.image_elements())
    L_img = np.asarray(ext.incl.eta.image_elements())
    auts = rrb_automorphism_group(ext.total, ctx.max_order)
    on_H = np.stack([gamma.psi.image for gamma in auts])
    on_G = np.stack([gamma.eta.image for gamma in auts])
    stable = np.isin(on_H[:, K_img], K_img).all(1) & np.isin(on_G[:, L_img], L_img).all(1)
    return [gamma for gamma, ok in zip(auts, stable) if ok]


def restrict_and_induce(ctx: WellsContext, gamma: RRBMorphism) -> CompatiblePair:
    """(induced automorphism of the quotient, restriction to the kernel)."""
    (psi1, psi2), _, (theta1, theta2) = _unlift(ctx, gamma)
    kernel, quotient = ctx.ext.kernel, ctx.ext.quotient
    theta = RRBMorphism(kernel, kernel,
                        GroupHom(kernel.H, kernel.H, theta1),
                        GroupHom(kernel.G, kernel.G, theta2))
    psi = RRBMorphism(quotient, quotient,
                      GroupHom(quotient.H, quotient.H, psi1),
                      GroupHom(quotient.G, quotient.G, psi2))
    pair = CompatiblePair(psi, theta)
    if not (psi.is_bijective() and theta.is_bijective()):  # pragma: no cover
        raise RRBError("InternalError", "induced pair is not bijective")
    if not pair_is_compatible(ctx.module, pair):  # pragma: no cover - theorem
        raise RRBError("InternalError", "induced pair fails the stabilizer conditions")
    return pair


def aut_AK_H(ctx: WellsContext) -> List[RRBMorphism]:
    """Automorphisms inducing the identity on both kernel and quotient."""
    return [gamma for gamma in aut_K_H(ctx) if restrict_and_induce(ctx, gamma).is_identity()]


def z1_to_aut(ctx: WellsContext, kappa: OneCochain) -> RRBMorphism:
    """gamma with gamma(s(a) k) = s(a) kappa1(a) k, and likewise on G."""
    ok, witness = ctx.complex.z1_contains(kappa)
    if not ok:
        raise RRBError("NotInZ1", f"defect {witness[0]} at {witness[1]} is nonzero")
    m = ctx.module
    return _lift(ctx, (np.arange(m.A.order), np.arange(m.B.order)),
                 (kappa.kappa1, kappa.kappa2), (np.arange(m.K.order), np.arange(m.L.order)))


def aut_to_z1(ctx: WellsContext, gamma: RRBMorphism) -> OneCochain:
    """kappa1(a) = s(a)^-1 gamma(s(a)); the inverse of z1_to_aut on Aut^{A,K}."""
    psi, kappa, theta = _unlift(ctx, gamma)
    if not all(np.array_equal(img, np.arange(len(img))) for img in (*psi, *theta)):
        raise RRBError("NotInAutAK", "gamma does not induce the identity on kernel and quotient")
    kappa = OneCochain(*kappa)
    ok, witness = ctx.complex.z1_contains(kappa)
    if not ok:  # pragma: no cover - theorem for gamma in Aut^{A,K}
        raise RRBError("NotInZ1", f"extracted cochain fails {witness[0]} at {witness[1]}")
    return kappa


def is_inducible(ctx: WellsContext, pair: CompatiblePair
                 ) -> Tuple[bool, Optional[RRBMorphism]]:
    """Decide liftability of the pair; on success return a lifting witness.

    The witness is gamma(s(a) k) = s(psi1(a)) kappa1(a) theta1(k) where kappa
    solves the coboundary equation for fs^pair - fs, pushed through theta.
    """
    if not pair_is_compatible(ctx.module, pair):
        return False, None
    twisted = act_on_factor_system(pair, ctx.fs, ctx.module, check=False)
    diff = add_factor_systems(ctx.module, twisted, negate_factor_system(ctx.module, ctx.fs))
    lam = ctx.complex.solve_coboundary(diff)
    if lam is None:
        return False, None
    th1, th2 = pair.theta.psi.image, pair.theta.eta.image
    kappa1 = th1[ctx.module.K.inverses[lam.kappa1]]
    kappa2 = th2[ctx.module.L.inverses[lam.kappa2]]
    gamma = _lift(ctx, (pair.psi.psi.image, pair.psi.eta.image), (kappa1, kappa2), (th1, th2))
    if _pair_key(restrict_and_induce(ctx, gamma)) != _pair_key(pair):  # pragma: no cover
        raise RRBError("InternalError", "witness does not induce the requested pair")
    return True, gamma


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
    # (2) psi^*[fs] == theta^*[fs] in the twisted module's cohomology.
    cx_t = cochain_complex(twisted_module(module, pair.psi))
    ident = identity_pair(module)
    psi_star = act_on_factor_system(CompatiblePair(pair.psi, ident.theta),
                                    ctx.fs, module, check=False)
    theta_star = act_on_factor_system(CompatiblePair(ident.psi, pair.theta.inverse()),
                                      ctx.fs, module, check=False)
    return cx_t.class_of(psi_star) == cx_t.class_of(theta_star)


class PairRecord(NamedTuple):
    pair: CompatiblePair
    in_C: bool
    omega: Optional[Tuple[int, ...]]
    inducible: bool
    witness: Optional[RRBMorphism]


class WellsReport(NamedTuple):
    pairs: List[PairRecord]
    exactness: Dict[str, bool]
    witnesses: Dict[str, str]
    omega_is_homomorphism: bool


def verify_wells_exactness(ext: Extension,
                           max_order: int = DEFAULT_MAX_ORDER) -> WellsReport:
    """Exactness audit of the lifting sequence for one extension.

    Checks: the derivation group embeds in the total automorphisms; its image
    is exactly the automorphisms inducing the identity on kernel and
    quotient; the restriction map hits exactly the obstruction kernel; the
    obstruction map satisfies the derivation law.
    """
    ctx = WellsContext(ext, max_order)
    exactness: Dict[str, bool] = {}
    witnesses: Dict[str, str] = {}

    z1_list = list(ctx.complex.z1_elements())
    eta_images = [z1_to_aut(ctx, kappa) for kappa in z1_list]
    keys = [_morphism_key(g) for g in eta_images]
    injective = len(set(keys)) == len(keys)
    # One search of Aut(total); each automorphism is restricted once.
    autK = aut_K_H(ctx)
    induced = [restrict_and_induce(ctx, g) for g in autK]
    autAK = [g for g, pair in zip(autK, induced) if pair.is_identity()]
    lands = set(keys) <= {_morphism_key(g) for g in autAK}
    # eta(k1 + k2) is looked up among the images already built, by the
    # reduced coordinates of the sum, and compared with eta(k1) eta(k2)
    # composed on the image arrays; each image is a validated morphism.
    cx = ctx.complex
    coords = [cx.kappa_to_coords(kappa) for kappa in z1_list]
    z1_index = {reduce_vec(c, cx.c1_moduli): i for i, c in enumerate(coords)}
    additive = True
    for k1, c1, g1 in zip(z1_list, coords, eta_images):
        for k2, c2, g2 in zip(z1_list, coords, eta_images):
            s = z1_index.get(reduce_vec(c1 + c2, cx.c1_moduli))
            if s is None:
                additive = False
                witnesses["eta_injective"] = f"{k1} + {k2} is not in Z1"
            elif keys[s] != (tuple(g1.psi.image[g2.psi.image].tolist()),
                             tuple(g1.eta.image[g2.eta.image].tolist())):
                additive = False
                witnesses["eta_injective"] = f"eta not multiplicative at {k1}, {k2}"
    exactness["eta_injective"] = injective and lands and additive
    if not injective:
        witnesses["eta_injective"] = "distinct derivations with equal automorphisms"

    roundtrip = all(
        aut_to_z1(ctx, z1_to_aut(ctx, kappa)) == kappa for kappa in z1_list
    ) and all(
        _morphism_key(z1_to_aut(ctx, aut_to_z1(ctx, g))) == _morphism_key(g)
        for g in autAK
    )
    ker_rho = {_morphism_key(g) for g in autAK}
    im_eta = set(keys)
    exactness["ker_rho_eq_im_eta"] = (ker_rho == im_eta and roundtrip
                                      and len(autAK) == len(z1_list))
    if ker_rho != im_eta:
        witnesses["ker_rho_eq_im_eta"] = "kernel of restriction differs from derivation image"

    C, products = ctx.compatible_table
    c_index = {_pair_key(c): i for i, c in enumerate(C)}
    im_rho = {_pair_key(pair) for pair in induced}
    omega = [wells_map(ctx, c) for c in C]
    ker_omega = {k for k, i in c_index.items() if omega[i].is_zero()}
    exactness["ker_omega_eq_im_rho"] = im_rho == ker_omega
    if im_rho != ker_omega:
        witnesses["ker_omega_eq_im_rho"] = (
            f"im(rho) has {len(im_rho)} pairs, ker(omega) has {len(ker_omega)}")

    derivation = True
    homomorphism = True
    # omega takes few distinct values, so each (c2, omega(c1)) is acted on once.
    acted: Dict[tuple, CohomologyClass] = {}
    for i, c1 in enumerate(C):
        for j, c2 in enumerate(C):
            lhs = omega[products[i, j]]
            if (j, omega[i]) not in acted:
                acted[j, omega[i]] = act_on_class(c2, omega[i])
            if lhs != acted[j, omega[i]] + omega[j]:
                derivation = False
                witnesses["omega_derivation"] = f"law fails at {_pair_key(c1)}, {_pair_key(c2)}"
            if lhs != omega[i] + omega[j]:
                homomorphism = False
    exactness["omega_derivation"] = derivation

    records = []
    for pair in ctx.all_pairs:
        key = _pair_key(pair)
        in_c = key in c_index
        om = omega[c_index[key]].coords if in_c else None
        ok, witness = is_inducible(ctx, pair)
        records.append(PairRecord(pair, in_c, om, ok, witness))
    return WellsReport(records, exactness, witnesses, homomorphism)
