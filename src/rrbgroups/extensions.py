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


def product_extension(quotient: RRBGroup, kernel: RRBGroup) -> Extension:
    """The direct product as an extension, pairs encoded quotient-first."""
    total = direct_product_rrb(quotient, kernel)
    nK, nL = kernel.H.order, kernel.G.order
    incl = validate_morphism(kernel, total, np.arange(nK), np.arange(nL))
    proj = validate_morphism(total, quotient, np.arange(total.H.order) // nK,
                             np.arange(total.G.order) // nL)
    return Extension(kernel, total, quotient, incl, proj)


def canonical_section(ext: Extension) -> Section:
    """Minimum-index coset representatives; normalized by construction."""
    nA, nB = ext.quotient.H.order, ext.quotient.G.order
    return Section(np.argmax(ext.proj.psi.image == np.arange(nA)[:, None], axis=1),
                   np.argmax(ext.proj.eta.image == np.arange(nB)[:, None], axis=1))


class Chart(NamedTuple):
    """A section with every total element split once in its coordinates:
    h == s_H[a[h]] * incl(k[h]) for each h in H, g == s_G[b[g]] * incl(l[g])."""

    section: Section
    a: np.ndarray
    k: np.ndarray
    b: np.ndarray
    l: np.ndarray


def _split(table: np.ndarray, s: np.ndarray, incl: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Coordinates of the products s[a] * incl[k], scattered over the total;
    they cover it once when s meets every coset of the image."""
    cells = table[s[:, None], incl]
    outer = np.empty(len(table), dtype=np.int64)
    inner = np.empty(len(table), dtype=np.int64)
    outer[cells] = np.arange(len(s))[:, None]
    inner[cells] = np.arange(len(incl))
    return outer, inner


def chart(ext: Extension, section: Optional[Section] = None) -> Chart:
    """The chart of a normalized section, the canonical one by default.

    A given section is checked first: SectionNotNormalized if it has the
    wrong shape, misses the identity or puts a representative in the wrong
    coset."""
    if section is None:
        section = canonical_section(ext)
    else:
        s_H = np.asarray(section.s_H, dtype=np.int64)
        s_G = np.asarray(section.s_G, dtype=np.int64)
        if s_H.shape != (ext.quotient.H.order,) or s_G.shape != (ext.quotient.G.order,):
            raise RRBError("SectionNotNormalized", "section has the wrong shape")
        if s_H[0] != 0 or s_G[0] != 0:
            raise RRBError("SectionNotNormalized", "section does not preserve the identity")
        for side, s, proj in (("H", s_H, ext.proj.psi), ("G", s_G, ext.proj.eta)):
            wrong = proj.image[s] != np.arange(len(s))
            if wrong.any():
                raise RRBError("SectionNotNormalized",
                               f"s_{side}({int(np.argmax(wrong))}) is in the wrong coset")
        section = Section(s_H, s_G)
    a, k = _split(ext.total.H.table, section.s_H, ext.incl.psi.image)
    b, l = _split(ext.total.G.table, section.s_G, ext.incl.eta.image)
    return Chart(section, a, k, b, l)


def extract_actions(ext: Extension, section: Optional[Section] = None) -> ActionQuadruple:
    """The induced (nu, mu, sigma, f) of an abelian extension.

    nu_b = phi_{s_G(b)} restricted to K, mu_a and sigma_b are conjugation by
    the section, f(l, a) = s(a)^-1 phi_l(s(a)).  The result does not depend
    on the section.
    """
    if not ext.is_abelian:
        raise RRBError("NotAbelianExtension", "action extraction needs an abelian kernel datum")
    return _chart_actions(ext, chart(ext, section))


def _chart_actions(ext: Extension, ch: Chart) -> ActionQuadruple:
    """extract_actions read off a given chart."""
    s_H, s_G = ch.section
    iK, iL = ext.incl.psi.image, ext.incl.eta.image
    phi = ext.total.phi
    # incl(k) s(a) = s(a) mu_a(k), phi_l(s(a)) = s(a) f(l, a), and the same for sigma.
    return ActionQuadruple(ch.k[phi[s_G][:, iK]], ch.k[ext.total.H.table[iK][:, s_H]].T,
                           ch.l[ext.total.G.table[iL][:, s_G]].T, ch.k[phi[iL][:, s_H]])


def extract_module(ext: Extension, section: Optional[Section] = None) -> RRBModule:
    """Quotient datum, kernel datum, and extracted action, validated."""
    return RRBModule(ext.quotient, ext.kernel, extract_actions(ext, section))


def extract_factor_system(ext: Extension, section: Optional[Section] = None) -> FactorSystem:
    """The factor system of a normalized section of an abelian extension."""
    if not ext.is_abelian:
        raise RRBError("NotAbelianExtension", "factor systems need an abelian kernel datum")
    return _chart_factor_system(ext, chart(ext, section))


def _chart_factor_system(ext: Extension, ch: Chart) -> FactorSystem:
    """extract_factor_system read off a given chart."""
    s_H, s_G = ch.section
    # s(a1) s(a2) = s(a1 a2) tau1(a1, a2), and likewise for tau2, rho and chi.
    return FactorSystem(ch.k[ext.total.H.table[s_H][:, s_H]],
                        ch.l[ext.total.G.table[s_G][:, s_G]],
                        ch.k[ext.total.phi[s_G][:, s_H]].T, ch.l[ext.total.R[s_H]])


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

    K, L = module.K.table, module.L.table
    nu, mu, sigma, f = action.nu, action.mu, action.sigma, action.f
    nA, nB, nK, nL = module.A.order, module.B.order, module.K.order, module.L.order
    # Index grids over the encodings a * nK + k and b * nL + l: [a1, k1, a2, k2].
    a1, k1, a2, k2 = np.ix_(*map(np.arange, (nA, nK, nA, nK)))
    b1, l1, b2, l2 = np.ix_(*map(np.arange, (nB, nL, nB, nL)))
    b, l, a, k = np.ix_(*map(np.arange, (nB, nL, nA, nK)))
    tableH = module.A.table[a1, a2] * nK + K[K[fs.tau1[a1, a2], mu[a2, k1]], k2]
    tableG = module.B.table[b1, b2] * nL + L[L[fs.tau2[b1, b2], sigma[b2, l1]], l2]
    phi = quotient.phi[b, a] * nK + K[fs.rho[a, b], nu[b, K[f[l, a], k]]]
    T = module.T
    R = T[:, None] * nL + L[fs.chi[:, None], module.S[action.nu_inv(T)]]
    try:
        totH = FiniteGroup(tableH.reshape(nA * nK, -1))
        totG = FiniteGroup(tableG.reshape(nB * nL, -1))
    except Exception as exc:  # pragma: no cover - blocked by the cocycle check
        raise RRBError("InternalError", f"built table is not a group: {exc}")
    try:
        total = RRBGroup(totH, totG, phi.reshape(nB * nL, -1), R.reshape(-1))
    except RRBError as exc:  # pragma: no cover - blocked by the cocycle check
        raise RRBError("InternalError", f"built structure fails validation: {exc}")

    incl = validate_morphism(kernel, total, np.arange(nK), np.arange(nL))
    proj = validate_morphism(total, quotient,
                             np.arange(nA * nK) // nK, np.arange(nB * nL) // nL)
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
