"""Modules over a quotient structure and the factor systems they classify.

A module datum is a trivial-action structure (K, L, alpha, S) with abelian K
and L, acted on by (A, B, beta, T) through four maps:

    nu:    B -> Aut(K)   homomorphism
    mu:    A -> Aut(K)   anti-homomorphism
    sigma: B -> Aut(L)   anti-homomorphism
    f:     L x A -> K    additive in L, a twisted derivation in A.

Anti-homomorphism convention throughout: mu_{a1*a2} = mu_{a2} o mu_{a1}
(and the same for sigma), matching conjugation by a section from the right.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from .groups import (
    FiniteGroup,
    _inverse_perm,
    action_law_defects,
    automorphism_rows,
    first_true,
    homomorphism_rows,
)
from .rrb import RRBError, RRBGroup, is_trivial


class ActionQuadruple:
    """The maps (nu, mu, sigma, f), stored densely over element indices."""

    def __init__(self, nu: Sequence[Sequence[int]], mu: Sequence[Sequence[int]],
                 sigma: Sequence[Sequence[int]], f: Sequence[Sequence[int]]):
        self.nu = np.asarray(nu, dtype=np.int64)
        self.mu = np.asarray(mu, dtype=np.int64)
        self.sigma = np.asarray(sigma, dtype=np.int64)
        self.f = np.asarray(f, dtype=np.int64)
        for arr in (self.nu, self.mu, self.sigma, self.f):
            arr.setflags(write=False)

    def nu_inv(self, b) -> np.ndarray:
        """nu_b^-1, for one b or along an array of them."""
        return _inverse_perm(self.nu[b])

    def __eq__(self, other) -> bool:
        return (isinstance(other, ActionQuadruple)
                and np.array_equal(self.nu, other.nu)
                and np.array_equal(self.mu, other.mu)
                and np.array_equal(self.sigma, other.sigma)
                and np.array_equal(self.f, other.f))

    def __hash__(self):
        return hash((self.nu.tobytes(), self.mu.tobytes(),
                     self.sigma.tobytes(), self.f.tobytes()))


def trivial_action(quotient: RRBGroup, kernel: RRBGroup) -> ActionQuadruple:
    nA, nB, nK, nL = quotient.H.order, quotient.G.order, kernel.H.order, kernel.G.order
    return ActionQuadruple(np.tile(np.arange(nK), (nB, 1)), np.tile(np.arange(nK), (nA, 1)),
                           np.tile(np.arange(nL), (nB, 1)), np.zeros((nL, nA), dtype=np.int64))


class RRBModule:
    """A validated module: quotient datum, kernel datum, action quadruple."""

    def __init__(self, quotient: RRBGroup, kernel: RRBGroup, action: ActionQuadruple):
        defect = module_defect(quotient, kernel, action)
        if defect is not None:
            raise RRBError("ModuleInvalid", *defect)
        self.quotient = quotient
        self.kernel = kernel
        self.action = action

    # Shorthands for the six underlying objects.
    @property
    def A(self) -> FiniteGroup:
        return self.quotient.H

    @property
    def B(self) -> FiniteGroup:
        return self.quotient.G

    @property
    def K(self) -> FiniteGroup:
        return self.kernel.H

    @property
    def L(self) -> FiniteGroup:
        return self.kernel.G

    @property
    def T(self) -> np.ndarray:
        return self.quotient.R

    @property
    def S(self) -> np.ndarray:
        return self.kernel.R

    def beta(self, b: int, a: int) -> int:
        return self.quotient.act(b, a)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RRBModule)
                and self.quotient == other.quotient
                and self.kernel == other.kernel
                and self.action == other.action)

    def __hash__(self):
        return hash((self.quotient, self.kernel, self.action))


def validate_module(quotient: RRBGroup, kernel: RRBGroup,
                    action: ActionQuadruple) -> Tuple[bool, Optional[str]]:
    """Check the module conditions: (True, None), or (False, the message of
    the first counterexample)."""
    defect = module_defect(quotient, kernel, action)
    return (True, None) if defect is None else (False, defect[0])


def module_defect(quotient: RRBGroup, kernel: RRBGroup,
                  action: ActionQuadruple) -> Optional[Tuple[str, Tuple[int, ...]]]:
    """The first failed module condition as (message, witness), or None.

    The witness holds the indices the message names, () when it names none.
    """
    A, B = quotient.H, quotient.G
    K, L = kernel.H, kernel.G
    if not (K.is_abelian and L.is_abelian):
        return "kernel components must be abelian", ()
    if not is_trivial(kernel):
        return "kernel action must be trivial", ()
    nu, mu, sigma, f = action.nu, action.mu, action.sigma, action.f
    if nu.shape != (B.order, K.order) or mu.shape != (A.order, K.order):
        return "nu/mu shape mismatch", ()
    if sigma.shape != (B.order, L.order) or f.shape != (L.order, A.order):
        return "sigma/f shape mismatch", ()

    for name, rows, group, label in (("nu", nu, K, "K"), ("mu", mu, K, "K"),
                                     ("sigma", sigma, L, "L")):
        at = first_true(~automorphism_rows(rows, group))
        if at is not None:
            return f"{name}[{at[0]}] is not an automorphism of {label}", at

    ident_K = np.arange(K.order)
    ident_L = np.arange(L.order)
    if not (np.array_equal(nu[0], ident_K) and np.array_equal(mu[0], ident_K)
            and np.array_equal(sigma[0], ident_L)):
        return "actions at the identity are not the identity map", ()
    # nu is a homomorphism, mu and sigma are anti-homomorphisms; nu and sigma
    # are checked together over (b1, b2).
    nu_bad, sigma_bad = action_law_defects(nu, B), action_law_defects(sigma, B, anti=True)
    at = first_true(nu_bad | sigma_bad)
    if at is not None:
        law = "nu not a homomorphism" if nu_bad[at] else "sigma not an anti-homomorphism"
        return "{} at ({},{})".format(law, *at), at
    at = first_true(action_law_defects(mu, A, anti=True))
    if at is not None:
        return "mu not an anti-homomorphism at ({},{})".format(*at), at

    # f: column by column, its entries inside K, then additive in L.
    inside = (f >= 0) & (f < K.order)
    bad_col = ~inside.all(axis=0)
    at = first_true(bad_col | ~homomorphism_rows(np.where(inside, f, 0).T, L, K))
    if at is not None:
        if bad_col[at]:
            at = (int(np.argmax(~inside[:, at[0]])), at[0])
            return f"f({at[0]}, {at[1]}) = {f[at]} is outside K", at
        return f"f(-, {at[0]}) is not a homomorphism L -> K", at
    # f(l, a1*a2) = mu_{a2}(f(l,a1)) + f(l,a2), over (l, a1, a2).
    a2 = np.arange(A.order)
    at = first_true(f[:, A.table] != K.table[mu[a2, f[:, :, None]], f[:, None, :]])
    if at is not None:
        return "f(l,-) derivation fails at (l,a1,a2)=({},{},{})".format(*at), at

    # S(nu^-1_{T(a)}(mu_a(k)) + nu^-1_{T(a)}(f(S(k), a))) = sigma_{T(a)}(S(k)),
    # over (a, k).
    S, T = kernel.R, quotient.R
    a = np.arange(A.order)[:, None]
    nu_inv = action.nu_inv(T)
    arg = K.table[nu_inv[a, mu], nu_inv[a, f[S[None, :], a]]]
    at = first_true(S[arg] != sigma[T[:, None], S[None, :]])
    if at is not None:
        return "operator compatibility fails at (a,k)=({},{})".format(*at), at

    # nu_b(mu_a(k)) = mu_{beta_b(a)}(nu_b(k)), over (a, b, k).
    b = np.arange(B.order)[None, :, None]
    at = first_true(nu[b, mu[:, None, :]] != mu[quotient.phi.T[:, :, None], nu[None, :, :]])
    if at is not None:
        return "action interchange fails at (a,b,k)=({},{},{})".format(*at), at
    return None


def check_normalized(tau1: np.ndarray, tau2: np.ndarray, rho: np.ndarray,
                     chi: np.ndarray) -> None:
    """That every 2-cochain of the stacks (tau1, tau2, rho, chi), one cochain
    per index of the leading axis, vanishes whenever an argument is the
    identity; raises ValueError otherwise."""
    if (tau1[:, 0].any() or tau1[:, :, 0].any() or tau2[:, 0].any() or tau2[:, :, 0].any()
            or rho[:, 0].any() or rho[:, :, 0].any() or chi[:, 0].any()):
        raise ValueError("factor system does not vanish on degenerate tuples")


class FactorSystem:
    """Candidate 2-cochain (tau1, tau2, rho, chi) over element indices.

    tau1: A x A -> K, tau2: B x B -> L, rho: A x B -> K, chi: A -> L.
    All four must vanish whenever an argument is the identity.
    """

    def __init__(self, tau1: Sequence[Sequence[int]], tau2: Sequence[Sequence[int]],
                 rho: Sequence[Sequence[int]], chi: Sequence[int]):
        self.tau1 = np.asarray(tau1, dtype=np.int64)
        self.tau2 = np.asarray(tau2, dtype=np.int64)
        self.rho = np.asarray(rho, dtype=np.int64)
        self.chi = np.asarray(chi, dtype=np.int64)
        if self.tau1.ndim != 2 or self.tau1.shape[0] != self.tau1.shape[1]:
            raise ValueError("tau1 must be square")
        if self.tau2.ndim != 2 or self.tau2.shape[0] != self.tau2.shape[1]:
            raise ValueError("tau2 must be square")
        nA, nB = self.tau1.shape[0], self.tau2.shape[0]
        if self.rho.shape != (nA, nB) or self.chi.shape != (nA,):
            raise ValueError("rho/chi shapes inconsistent with tau1/tau2")
        check_normalized(self.tau1[None], self.tau2[None], self.rho[None], self.chi[None])
        for arr in (self.tau1, self.tau2, self.rho, self.chi):
            arr.setflags(write=False)

    @property
    def shapes(self) -> Tuple[int, int]:
        return (self.tau1.shape[0], self.tau2.shape[0])

    def __eq__(self, other) -> bool:
        return (isinstance(other, FactorSystem)
                and np.array_equal(self.tau1, other.tau1)
                and np.array_equal(self.tau2, other.tau2)
                and np.array_equal(self.rho, other.rho)
                and np.array_equal(self.chi, other.chi))

    def __hash__(self):
        return hash((self.tau1.tobytes(), self.tau2.tobytes(),
                     self.rho.tobytes(), self.chi.tobytes()))

    def __repr__(self):
        return (f"FactorSystem(tau1={self.tau1.tolist()}, tau2={self.tau2.tolist()}, "
                f"rho={self.rho.tolist()}, chi={self.chi.tolist()})")


def zero_factor_system(module: RRBModule) -> FactorSystem:
    nA, nB = module.A.order, module.B.order
    return FactorSystem(np.zeros((nA, nA), dtype=np.int64),
                        np.zeros((nB, nB), dtype=np.int64),
                        np.zeros((nA, nB), dtype=np.int64),
                        np.zeros(nA, dtype=np.int64))


class OneCochain:
    """A pair (kappa1: A -> K, kappa2: B -> L) vanishing at the identity."""

    def __init__(self, kappa1: Sequence[int], kappa2: Sequence[int]):
        self.kappa1 = np.asarray(kappa1, dtype=np.int64)
        self.kappa2 = np.asarray(kappa2, dtype=np.int64)
        if self.kappa1[0] or self.kappa2[0]:
            raise ValueError("one-cochain does not vanish at the identity")
        self.kappa1.setflags(write=False)
        self.kappa2.setflags(write=False)

    def __eq__(self, other) -> bool:
        return (isinstance(other, OneCochain)
                and np.array_equal(self.kappa1, other.kappa1)
                and np.array_equal(self.kappa2, other.kappa2))

    def __hash__(self):
        return hash((self.kappa1.tobytes(), self.kappa2.tobytes()))

    def __repr__(self):
        return f"OneCochain(kappa1={self.kappa1.tolist()}, kappa2={self.kappa2.tolist()})"


def twisted_action(module: RRBModule, psi1: Sequence[int], psi2: Sequence[int]) -> ActionQuadruple:
    """Precompose the action with an automorphism (psi1, psi2) of the quotient:
    (nu o psi2, mu o psi1, sigma o psi2, f(-, psi1(-)))."""
    psi1 = np.asarray(psi1, dtype=np.int64)
    psi2 = np.asarray(psi2, dtype=np.int64)
    act = module.action
    return ActionQuadruple(act.nu[psi2], act.mu[psi1], act.sigma[psi2], act.f[:, psi1])
