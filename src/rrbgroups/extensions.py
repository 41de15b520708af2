"""Extensions of one structure by another, and the abelian-kernel calculus.

An extension is a short exact pair of sequences

    1 -> (K, L, alpha, S) -> (H, G, phi, R) -> (A, B, beta, T) -> 1

with componentwise injections/projections.  When the kernel datum is trivial
with abelian K and L, a normalized section turns the extension into a module
action plus a factor system; conversely a factor system in the cocycle group
rebuilds the total structure on pairs.

Sign/ordering conventions (K and L written additively):

    s(a1) k1 s(a2) k2 = s(a1 a2) tau1(a1,a2) mu_{a2}(k1) k2
    tau1(a1, a2) = s(a1 a2)^-1 s(a1) s(a2)
    rho(a, b)    = s(beta_b(a))^-1 phi_{s_G(b)}(s(a))
    chi(a)       = s_G(T(a))^-1 R(s(a))
    f(l, a)      = s(a)^-1 phi_l(s(a))
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from .groups import FiniteGroup
from .modules import (
    ActionQuadruple,
    FactorSystem,
    RRBModule,
)
from .rrb import (
    RRBError,
    RRBGroup,
    RRBMorphism,
    direct_product_rrb,
    is_trivial,
    validate_morphism,
)


class Section(NamedTuple):
    """Set-theoretic section (s_H: A -> H, s_G: B -> G) of the projections."""

    s_H: np.ndarray
    s_G: np.ndarray


class Extension:
    """Validated extension with inclusion and projection morphisms."""

    def __init__(self, kernel: RRBGroup, total: RRBGroup, quotient: RRBGroup,
                 incl: RRBMorphism, proj: RRBMorphism):
        if incl.domain != kernel or incl.codomain != total:
            raise RRBError("ImageKernelMismatch", "inclusion endpoints are wrong")
        if proj.domain != total or proj.codomain != quotient:
            raise RRBError("ImageKernelMismatch", "projection endpoints are wrong")
        if not (incl.psi.is_injective() and incl.eta.is_injective()):
            raise RRBError("NotInjective", "inclusion is not an embedding")
        if not (proj.psi.is_surjective() and proj.eta.is_surjective()):
            raise RRBError("NotSurjective", "projection is not onto")
        if set(incl.psi.image_elements()) != set(proj.psi.kernel_elements()):
            raise RRBError("ImageKernelMismatch", "im(incl) != ker(proj) in H")
        if set(incl.eta.image_elements()) != set(proj.eta.kernel_elements()):
            raise RRBError("ImageKernelMismatch", "im(incl) != ker(proj) in G")
        self.kernel = kernel
        self.total = total
        self.quotient = quotient
        self.incl = incl
        self.proj = proj
        self.is_abelian = (is_trivial(kernel)
                           and kernel.H.is_abelian and kernel.G.is_abelian)
        self._k_of_h = {int(incl.psi(k)): k for k in kernel.H.elements()}
        self._l_of_g = {int(incl.eta(l)): l for l in kernel.G.elements()}

    def k_index(self, h: int) -> int:
        """Kernel index of a total element lying in the embedded K."""
        idx = self._k_of_h.get(int(h))
        if idx is None:
            raise RRBError("ImageKernelMismatch", f"element {h} is not in the kernel image")
        return idx

    def l_index(self, g: int) -> int:
        idx = self._l_of_g.get(int(g))
        if idx is None:
            raise RRBError("ImageKernelMismatch", f"element {g} is not in the kernel image")
        return idx

    def decompose_h(self, section: Section, h: int) -> Tuple[int, int]:
        """(a, k) with h = s_H(a) * incl(k)."""
        a = self.proj.psi(h)
        rem = self.total.H.mul(self.total.H.inv(int(section.s_H[a])), h)
        return a, self.k_index(rem)

    def decompose_g(self, section: Section, g: int) -> Tuple[int, int]:
        b = self.proj.eta(g)
        rem = self.total.G.mul(self.total.G.inv(int(section.s_G[b])), g)
        return b, self.l_index(rem)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Extension)
                and self.kernel == other.kernel
                and self.total == other.total
                and self.quotient == other.quotient
                and self.incl == other.incl
                and self.proj == other.proj)

    def __hash__(self):
        return hash((self.kernel, self.total, self.quotient, self.incl, self.proj))

    def __repr__(self):
        return (f"Extension(|K|={self.kernel.H.order},|L|={self.kernel.G.order} -> "
                f"|H|={self.total.H.order},|G|={self.total.G.order} -> "
                f"|A|={self.quotient.H.order},|B|={self.quotient.G.order})")


def validate_extension(kernel: RRBGroup, total: RRBGroup, quotient: RRBGroup,
                       incl: RRBMorphism, proj: RRBMorphism) -> Extension:
    return Extension(kernel, total, quotient, incl, proj)


def product_extension(quotient: RRBGroup, kernel: RRBGroup) -> Extension:
    """The direct product as an extension, pairs encoded quotient-first."""
    total = direct_product_rrb(quotient, kernel)
    nK, nL = kernel.H.order, kernel.G.order
    incl = validate_morphism(kernel, total,
                             list(range(nK)), list(range(nL)))
    proj = validate_morphism(total, quotient,
                             [x // nK for x in range(total.H.order)],
                             [x // nL for x in range(total.G.order)])
    return Extension(kernel, total, quotient, incl, proj)


def canonical_section(ext: Extension) -> Section:
    """Minimum-index coset representatives; normalized by construction."""
    s_H = np.full(ext.quotient.H.order, -1, dtype=np.int64)
    for h in ext.total.H.elements():
        a = ext.proj.psi(h)
        if s_H[a] < 0:
            s_H[a] = h
    s_G = np.full(ext.quotient.G.order, -1, dtype=np.int64)
    for g in ext.total.G.elements():
        b = ext.proj.eta(g)
        if s_G[b] < 0:
            s_G[b] = g
    return Section(s_H, s_G)


def _check_section(ext: Extension, section: Optional[Section]) -> Section:
    if section is None:
        return canonical_section(ext)
    s_H = np.asarray(section.s_H, dtype=np.int64)
    s_G = np.asarray(section.s_G, dtype=np.int64)
    if s_H.shape != (ext.quotient.H.order,) or s_G.shape != (ext.quotient.G.order,):
        raise RRBError("SectionNotNormalized", "section has the wrong shape")
    if s_H[0] != 0 or s_G[0] != 0:
        raise RRBError("SectionNotNormalized", "section does not preserve the identity")
    for a in ext.quotient.H.elements():
        if ext.proj.psi(int(s_H[a])) != a:
            raise RRBError("SectionNotNormalized", f"s_H({a}) is in the wrong coset")
    for b in ext.quotient.G.elements():
        if ext.proj.eta(int(s_G[b])) != b:
            raise RRBError("SectionNotNormalized", f"s_G({b}) is in the wrong coset")
    return Section(s_H, s_G)


def extract_actions(ext: Extension, section: Optional[Section] = None) -> ActionQuadruple:
    """The induced (nu, mu, sigma, f) of an abelian extension.

    nu_b = phi_{s_G(b)} restricted to K, mu_a and sigma_b are conjugation by
    the section, f(l, a) = s(a)^-1 phi_l(s(a)).  The result does not depend
    on the section.
    """
    if not ext.is_abelian:
        raise RRBError("NotAbelianExtension", "action extraction needs an abelian kernel datum")
    sec = _check_section(ext, section)
    H, G = ext.total.H, ext.total.G
    A, B = ext.quotient.H, ext.quotient.G
    K, L = ext.kernel.H, ext.kernel.G
    inc_h, inc_g = ext.incl.psi, ext.incl.eta
    nu = [[ext.k_index(ext.total.act(int(sec.s_G[b]), inc_h(k))) for k in K.elements()]
          for b in B.elements()]
    mu = [[ext.k_index(H.conj(inc_h(k), int(sec.s_H[a]))) for k in K.elements()]
          for a in A.elements()]
    sigma = [[ext.l_index(G.conj(inc_g(l), int(sec.s_G[b]))) for l in L.elements()]
             for b in B.elements()]
    f = [[ext.k_index(H.mul(H.inv(int(sec.s_H[a])),
                            ext.total.act(inc_g(l), int(sec.s_H[a]))))
          for a in A.elements()] for l in L.elements()]
    return ActionQuadruple(nu, mu, sigma, f)


def extract_module(ext: Extension, section: Optional[Section] = None) -> RRBModule:
    """Quotient datum, kernel datum, and extracted action, validated."""
    return RRBModule(ext.quotient, ext.kernel, extract_actions(ext, section))


def extract_factor_system(ext: Extension, section: Optional[Section] = None) -> FactorSystem:
    """The factor system of a normalized section of an abelian extension."""
    if not ext.is_abelian:
        raise RRBError("NotAbelianExtension", "factor systems need an abelian kernel datum")
    sec = _check_section(ext, section)
    H, G = ext.total.H, ext.total.G
    A, B = ext.quotient.H, ext.quotient.G
    tau1 = [[ext.k_index(H.mul(H.inv(int(sec.s_H[A.mul(a1, a2)])),
                               H.mul(int(sec.s_H[a1]), int(sec.s_H[a2]))))
             for a2 in A.elements()] for a1 in A.elements()]
    tau2 = [[ext.l_index(G.mul(G.inv(int(sec.s_G[B.mul(b1, b2)])),
                               G.mul(int(sec.s_G[b1]), int(sec.s_G[b2]))))
             for b2 in B.elements()] for b1 in B.elements()]
    rho = [[ext.k_index(H.mul(H.inv(int(sec.s_H[ext.quotient.act(b, a)])),
                              ext.total.act(int(sec.s_G[b]), int(sec.s_H[a]))))
            for b in B.elements()] for a in A.elements()]
    chi = [ext.l_index(G.mul(G.inv(int(sec.s_G[int(ext.quotient.R[a])])),
                             int(ext.total.R[int(sec.s_H[a])])))
           for a in A.elements()]
    return FactorSystem(tau1, tau2, rho, chi)


def build_extension(quotient: RRBGroup, kernel: RRBGroup,
                    action: ActionQuadruple, fs: FactorSystem) -> Extension:
    """Total structure on pairs (a, k) and (b, l) from a cocycle.

        (a1,k1)(a2,k2)   = (a1 a2, tau1(a1,a2) + mu_{a2}(k1) + k2)
        (b1,l1)(b2,l2)   = (b1 b2, tau2(b1,b2) + sigma_{b2}(l1) + l2)
        phi_{(b,l)}(a,k) = (beta_b(a), rho(a,b) + nu_b(f(l,a) + k))
        R(a,k)           = (T(a), chi(a) + S(nu^-1_{T(a)}(k)))
    """
    module = RRBModule(quotient, kernel, action)
    if fs.shapes != (module.A.order, module.B.order):
        raise RRBError("NotACocycle", "factor system shape mismatch")
    from .cohomology import cochain_complex  # local import; cohomology builds on modules

    member, witness = cochain_complex(module).z2_contains(fs)
    if not member:
        raise RRBError("NotACocycle", f"cocycle condition {witness[0]} fails at {witness[1]}",
                       witness)

    A, B, K, L = module.A, module.B, module.K, module.L
    nu, mu, sigma, f = action.nu, action.mu, action.sigma, action.f
    nA, nB, nK, nL = A.order, B.order, K.order, L.order

    tableH = np.zeros((nA * nK, nA * nK), dtype=np.int64)
    for a1 in range(nA):
        for k1 in range(nK):
            for a2 in range(nA):
                base = int(fs.tau1[a1, a2])
                moved = int(mu[a2, k1])
                for k2 in range(nK):
                    val = K.mul(K.mul(base, moved), k2)
                    tableH[a1 * nK + k1, a2 * nK + k2] = A.mul(a1, a2) * nK + val
    tableG = np.zeros((nB * nL, nB * nL), dtype=np.int64)
    for b1 in range(nB):
        for l1 in range(nL):
            for b2 in range(nB):
                base = int(fs.tau2[b1, b2])
                moved = int(sigma[b2, l1])
                for l2 in range(nL):
                    val = L.mul(L.mul(base, moved), l2)
                    tableG[b1 * nL + l1, b2 * nL + l2] = B.mul(b1, b2) * nL + val
    try:
        totH = FiniteGroup(tableH)
        totG = FiniteGroup(tableG)
    except Exception as exc:  # pragma: no cover - blocked by the cocycle check
        raise RRBError("InternalError", f"built table is not a group: {exc}")

    phi = np.zeros((nB * nL, nA * nK), dtype=np.int64)
    for b in range(nB):
        for l in range(nL):
            for a in range(nA):
                ba = module.beta(b, a)
                r = int(fs.rho[a, b])
                fla = int(f[l, a])
                for k in range(nK):
                    val = K.mul(r, int(nu[b, K.mul(fla, k)]))
                    phi[b * nL + l, a * nK + k] = ba * nK + val
    R = np.zeros(nA * nK, dtype=np.int64)
    S, T = module.S, module.T
    for a in range(nA):
        ninv = action.nu_inv(int(T[a]))
        for k in range(nK):
            val = L.mul(int(fs.chi[a]), int(S[ninv[k]]))
            R[a * nK + k] = int(T[a]) * nL + val
    try:
        total = RRBGroup(totH, totG, phi, R)
    except RRBError as exc:  # pragma: no cover - blocked by the cocycle check
        raise RRBError("InternalError", f"built structure fails validation: {exc}")

    incl = validate_morphism(kernel, total, list(range(nK)), list(range(nL)))
    proj = validate_morphism(total, quotient,
                             [x // nK for x in range(nA * nK)],
                             [x // nL for x in range(nB * nL)])
    return Extension(kernel, total, quotient, incl, proj)


def are_equivalent(ext1: Extension, ext2: Extension) -> bool:
    """Equivalence of abelian extensions with the same kernel, quotient, and
    induced action, decided by comparing cohomology classes."""
    if ext1.kernel != ext2.kernel or ext1.quotient != ext2.quotient:
        raise RRBError("ActionMismatch", "extensions have different kernel or quotient data")
    act1 = extract_actions(ext1)
    act2 = extract_actions(ext2)
    if act1 != act2:
        raise RRBError("ActionMismatch", "extensions induce different actions")
    from .cohomology import cochain_complex

    cx = cochain_complex(RRBModule(ext1.quotient, ext1.kernel, act1))
    cls1 = cx.class_of(extract_factor_system(ext1))
    cls2 = cx.class_of(extract_factor_system(ext2))
    return cls1 == cls2
