"""Independent reference implementations used to cross-check the library.

Everything here works directly on Cayley tables and action arrays with
elementwise group arithmetic: no coordinate systems, no matrices, no Smith
normal form.  The exhaustive enumerators are vectorized over candidates with
plain numpy gathers so that spaces up to ~2^20 stay cheap.  Two exceptions:
``ReferenceAssembly`` builds the cochain complex's coordinate matrices one
tuple at a time, as the entry-for-entry reference for their assembly, and
``reference_wells_report`` takes single class maps and coboundary solves from
the library's complex (checked against exhaustive enumeration elsewhere) and
does everything else one object at a time.  The element loops that the
library's table predicates replaced (module validation, closures and the
generator walk, permutation closures, sub-structure checks, quotient maps,
direct products and restrictions) are kept here as the references those
predicates are compared with.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from rrbgroups import (ActionQuadruple, CompatiblePair, FactorSystem, FiniteGroup, GroupError,
                       OneCochain, RRBGroup, RRBModule, RRBMorphism, identity_morphism)
from rrbgroups.abelian import AbelianPresentation, present_quotient
from rrbgroups.extensions import Extension


def _inv_array(G) -> np.ndarray:
    return np.asarray([G.inv(x) for x in G.elements()], dtype=np.int64)


def _circ(module: RRBModule, a1: int, a2: int) -> int:
    """The descended product a1 o a2 = a1 * beta_{T(a1)}(a2) on A."""
    return module.A.mul(a1, module.beta(int(module.T[a1]), a2))


def cocycle_defects(module: RRBModule, fs: FactorSystem) -> Dict[Tuple[str, tuple], int]:
    """All condition defects (lhs - rhs as a group element), on every tuple."""
    A, B, K, L = module.A, module.B, module.K, module.L
    nu, mu, sigma, f = (module.action.nu, module.action.mu,
                        module.action.sigma, module.action.f)
    S, T = module.S, module.T
    out: Dict[Tuple[str, tuple], int] = {}
    for a1 in A.elements():
        for a2 in A.elements():
            for a3 in A.elements():
                lhs = K.mul(int(fs.tau1[a2, a3]), int(fs.tau1[a1, A.mul(a2, a3)]))
                rhs = K.mul(int(fs.tau1[A.mul(a1, a2), a3]),
                            int(mu[a3, fs.tau1[a1, a2]]))
                out[("cocycle1", (a1, a2, a3))] = K.mul(lhs, K.inv(rhs))
    for b1 in B.elements():
        for b2 in B.elements():
            for b3 in B.elements():
                lhs = L.mul(int(fs.tau2[b2, b3]), int(fs.tau2[b1, B.mul(b2, b3)]))
                rhs = L.mul(int(fs.tau2[B.mul(b1, b2), b3]),
                            int(sigma[b3, fs.tau2[b1, b2]]))
                out[("cocycle2", (b1, b2, b3))] = L.mul(lhs, L.inv(rhs))
    for a in A.elements():
        for b1 in B.elements():
            for b2 in B.elements():
                lhs = K.mul(int(fs.rho[module.beta(b2, a), b1]),
                            int(nu[b1, fs.rho[a, b2]]))
                rhs = K.mul(int(fs.rho[a, B.mul(b1, b2)]),
                            int(nu[B.mul(b1, b2), f[fs.tau2[b1, b2], a]]))
                out[("cocycle3", (a, b1, b2))] = K.mul(lhs, K.inv(rhs))
    for a1 in A.elements():
        for a2 in A.elements():
            for b in B.elements():
                lhs = K.mul(int(fs.rho[A.mul(a1, a2), b]), int(nu[b, fs.tau1[a1, a2]]))
                rhs = K.mul(K.mul(int(mu[module.beta(b, a2), fs.rho[a1, b]]),
                                  int(fs.rho[a2, b])),
                            int(fs.tau1[module.beta(b, a1), module.beta(b, a2)]))
                out[("cocycle4", (a1, a2, b))] = K.mul(lhs, K.inv(rhs))
    for a1 in A.elements():
        for a2 in A.elements():
            circ = _circ(module, a1, a2)
            T1, T2 = int(T[a1]), int(T[a2])
            delta = L.mul(L.mul(int(fs.chi[a2]), L.inv(int(fs.chi[circ]))),
                          int(sigma[T2, fs.chi[a1]]))
            lhs = L.mul(int(fs.tau2[T1, T2]), delta)
            inner = K.mul(K.mul(int(fs.rho[a2, T1]),
                                int(fs.tau1[a1, module.beta(T1, a2)])),
                          int(nu[T1, f[fs.chi[a1], a2]]))
            rhs = int(S[module.action.nu_inv(int(T[circ]))[inner]])
            out[("cocycle5", (a1, a2))] = L.mul(lhs, L.inv(rhs))
    return out


def cocycle_violations(module: RRBModule, fs: FactorSystem) -> List[Tuple[str, tuple]]:
    return sorted(key for key, defect in cocycle_defects(module, fs).items() if defect)


def derivation_defects(module: RRBModule, kappa: OneCochain) -> Dict[Tuple[str, tuple], int]:
    """Defects of the four derivation conditions; all zero iff kappa is one."""
    fs = coboundary_direct(module, kappa)
    A, B = module.A, module.B
    out: Dict[Tuple[str, tuple], int] = {}
    for a1 in A.elements():
        for a2 in A.elements():
            out[("der1", (a1, a2))] = int(fs.tau1[a1, a2])
    for b1 in B.elements():
        for b2 in B.elements():
            out[("der2", (b1, b2))] = int(fs.tau2[b1, b2])
    for a in A.elements():
        for b in B.elements():
            out[("der3", (a, b))] = int(fs.rho[a, b])
    for a in A.elements():
        out[("der4", (a,))] = int(fs.chi[a])
    return out


def coboundary_direct(module: RRBModule, kappa: OneCochain) -> FactorSystem:
    """Defect quadruple of a one-cochain, evaluated elementwise."""
    A, B, K, L = module.A, module.B, module.K, module.L
    nu, mu, sigma, f = (module.action.nu, module.action.mu,
                        module.action.sigma, module.action.f)
    S, T = module.S, module.T
    k1, k2 = kappa.kappa1, kappa.kappa2
    tau1 = [[K.mul(K.mul(int(k1[a2]), int(mu[a2, k1[a1]])), K.inv(int(k1[A.mul(a1, a2)])))
             for a2 in A.elements()] for a1 in A.elements()]
    tau2 = [[L.mul(L.mul(int(k2[b2]), int(sigma[b2, k2[b1]])), L.inv(int(k2[B.mul(b1, b2)])))
             for b2 in B.elements()] for b1 in B.elements()]
    rho = [[K.mul(int(nu[b, K.mul(int(f[k2[b], a]), int(k1[a]))]),
                  K.inv(int(k1[module.beta(b, a)])))
            for b in B.elements()] for a in A.elements()]
    chi = [L.mul(int(S[module.action.nu_inv(int(T[a]))[k1[a]]]),
                 L.inv(int(k2[T[a]])))
           for a in A.elements()]
    return FactorSystem(tau1, tau2, rho, chi)


def act_direct(pair, fs: FactorSystem) -> FactorSystem:
    """fs^(psi, theta), one entry at a time: the preimage under theta of fs
    at the psi-images of the arguments."""
    return act_images((pair.psi.psi.image, pair.psi.eta.image,
                       pair.theta.psi.image, pair.theta.eta.image), fs)


def act_images(pair: Sequence[Sequence[int]], fs: FactorSystem) -> FactorSystem:
    """act_direct for a pair given as its images (psi1, psi2, theta1, theta2)."""
    psi1, psi2 = list(pair[0]), list(pair[1])
    th1, th2 = list(pair[2]), list(pair[3])
    nA, nB = len(psi1), len(psi2)
    tau1 = [[th1.index(fs.tau1[psi1[a1], psi1[a2]]) for a2 in range(nA)] for a1 in range(nA)]
    tau2 = [[th2.index(fs.tau2[psi2[b1], psi2[b2]]) for b2 in range(nB)] for b1 in range(nB)]
    rho = [[th1.index(fs.rho[psi1[a], psi2[b]]) for b in range(nB)] for a in range(nA)]
    chi = [th2.index(fs.chi[psi1[a]]) for a in range(nA)]
    return FactorSystem(tau1, tau2, rho, chi)


def add_fs(module: RRBModule, x: FactorSystem, y: FactorSystem) -> FactorSystem:
    K, L = module.K, module.L
    return FactorSystem(K.table[x.tau1, y.tau1], L.table[x.tau2, y.tau2],
                        K.table[x.rho, y.rho], L.table[x.chi, y.chi])


def sub_fs(module: RRBModule, x: FactorSystem, y: FactorSystem) -> FactorSystem:
    K, L = module.K, module.L
    kinv, linv = _inv_array(K), _inv_array(L)
    return FactorSystem(K.table[x.tau1, kinv[y.tau1]], L.table[x.tau2, linv[y.tau2]],
                        K.table[x.rho, kinv[y.rho]], L.table[x.chi, linv[y.chi]])


# -- exhaustive enumeration ---------------------------------------------------

def fs_positions(module: RRBModule) -> List[Tuple[str, tuple, int]]:
    """Nondegenerate cochain positions with their value-set sizes."""
    nA, nB = module.A.order, module.B.order
    nK, nL = module.K.order, module.L.order
    pos: List[Tuple[str, tuple, int]] = []
    pos += [("tau1", (a1, a2), nK) for a1 in range(1, nA) for a2 in range(1, nA)]
    pos += [("tau2", (b1, b2), nL) for b1 in range(1, nB) for b2 in range(1, nB)]
    pos += [("rho", (a, b), nK) for a in range(1, nA) for b in range(1, nB)]
    pos += [("chi", (a,), nL) for a in range(1, nA)]
    return pos


def c2_size(module: RRBModule) -> int:
    out = 1
    for *_, size in fs_positions(module):
        out *= size
    return out


def fs_key(module: RRBModule, fs: FactorSystem) -> Tuple[int, ...]:
    arrays = {"tau1": fs.tau1, "tau2": fs.tau2, "rho": fs.rho, "chi": fs.chi}
    out = []
    for kind, idx, _ in fs_positions(module):
        arr = arrays[kind]
        out.append(int(arr[idx] if len(idx) == 2 else arr[idx[0]]))
    return tuple(out)


def fs_from_key(module: RRBModule, key: Sequence[int]) -> FactorSystem:
    nA, nB = module.A.order, module.B.order
    tau1 = np.zeros((nA, nA), dtype=np.int64)
    tau2 = np.zeros((nB, nB), dtype=np.int64)
    rho = np.zeros((nA, nB), dtype=np.int64)
    chi = np.zeros(nA, dtype=np.int64)
    arrays = {"tau1": tau1, "tau2": tau2, "rho": rho, "chi": chi}
    for value, (kind, idx, _) in zip(key, fs_positions(module)):
        if len(idx) == 2:
            arrays[kind][idx] = value
        else:
            arrays[kind][idx[0]] = value
    return FactorSystem(tau1, tau2, rho, chi)


def exhaustive_z2_keys(module: RRBModule) -> set:
    """Keys of every candidate passing all five conditions, by brute filter."""
    positions = fs_positions(module)
    sizes = [size for *_, size in positions]
    grid = np.asarray(list(itertools.product(*(range(s) for s in sizes))),
                      dtype=np.int64).reshape(-1, len(sizes))
    n = grid.shape[0]
    col = {(kind, idx): j for j, (kind, idx, _) in enumerate(positions)}
    zeros = np.zeros(n, dtype=np.int64)

    def get(kind: str, idx: tuple) -> np.ndarray:
        if any(i == 0 for i in idx):
            return zeros
        return grid[:, col[(kind, idx)]]

    A, B, K, L = module.A, module.B, module.K, module.L
    Kt, Lt = K.table, L.table
    Kinv, Linv = _inv_array(K), _inv_array(L)
    nu, mu, sigma, f = (module.action.nu, module.action.mu,
                        module.action.sigma, module.action.f)
    S, T = np.asarray(module.S), np.asarray(module.T)
    ok = np.ones(n, dtype=bool)

    for a1 in A.elements():
        for a2 in A.elements():
            for a3 in A.elements():
                lhs = Kt[get("tau1", (a2, a3)), get("tau1", (a1, A.mul(a2, a3)))]
                rhs = Kt[get("tau1", (A.mul(a1, a2), a3)), mu[a3][get("tau1", (a1, a2))]]
                ok &= lhs == rhs
    for b1 in B.elements():
        for b2 in B.elements():
            for b3 in B.elements():
                lhs = Lt[get("tau2", (b2, b3)), get("tau2", (b1, B.mul(b2, b3)))]
                rhs = Lt[get("tau2", (B.mul(b1, b2), b3)), sigma[b3][get("tau2", (b1, b2))]]
                ok &= lhs == rhs
    for a in A.elements():
        for b1 in B.elements():
            for b2 in B.elements():
                lhs = Kt[get("rho", (module.beta(b2, a), b1)), nu[b1][get("rho", (a, b2))]]
                rhs = Kt[get("rho", (a, B.mul(b1, b2))),
                         nu[B.mul(b1, b2)][f[get("tau2", (b1, b2)), a]]]
                ok &= lhs == rhs
    for a1 in A.elements():
        for a2 in A.elements():
            for b in B.elements():
                lhs = Kt[get("rho", (A.mul(a1, a2), b)), nu[b][get("tau1", (a1, a2))]]
                rhs = Kt[Kt[mu[module.beta(b, a2)][get("rho", (a1, b))],
                            get("rho", (a2, b))],
                         get("tau1", (module.beta(b, a1), module.beta(b, a2)))]
                ok &= lhs == rhs
    for a1 in A.elements():
        for a2 in A.elements():
            circ = _circ(module, a1, a2)
            T1, T2 = int(T[a1]), int(T[a2])
            delta = Lt[Lt[get("chi", (a2,)), Linv[get("chi", (circ,))]],
                       sigma[T2][get("chi", (a1,))]]
            lhs = Lt[get("tau2", (T1, T2)), delta]
            inner = Kt[Kt[get("rho", (a2, T1)),
                          get("tau1", (a1, module.beta(T1, a2)))],
                       nu[T1][f[get("chi", (a1,)), a2]]]
            rhs = S[module.action.nu_inv(int(T[circ]))[inner]]
            ok &= lhs == rhs
    return {tuple(int(v) for v in row) for row in grid[ok]}


def iter_one_cochains(module: RRBModule) -> Iterator[OneCochain]:
    nA, nB = module.A.order, module.B.order
    nK, nL = module.K.order, module.L.order
    for k1_tail in itertools.product(range(nK), repeat=nA - 1):
        for k2_tail in itertools.product(range(nL), repeat=nB - 1):
            yield OneCochain((0,) + k1_tail, (0,) + k2_tail)


def exhaustive_b2_keys(module: RRBModule) -> set:
    return {fs_key(module, coboundary_direct(module, kappa))
            for kappa in iter_one_cochains(module)}


def exhaustive_z1(module: RRBModule) -> List[OneCochain]:
    return [kappa for kappa in iter_one_cochains(module)
            if not any(derivation_defects(module, kappa).values())]


# -- closed forms ------------------------------------------------------------

def prime_power_parts(orders: Sequence[int]) -> List[int]:
    """The prime-power cyclic factors of a direct sum of cyclic groups of
    the given orders, sorted; a cyclic group is the sum of its Sylow parts."""
    parts = []
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n, q = n // p, q * p
            if q > 1:
                parts.append(q)
            p += 1
    return sorted(parts)


def trivial_module_closed_form(A: Sequence[int], B: Sequence[int], K: Sequence[int],
                               L: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(H2, Z1) of the module with every action trivial and T = S = f = 0,
    for A, B, K, L the direct sums of cyclic groups of the given orders, as
    lists of cyclic orders (some may be 1).

    The cocycle conditions decouple: tau1 and tau2 are classical 2-cocycles,
    rho is bilinear and chi a homomorphism, and the coboundaries are B2(A, K)
    + B2(B, L).  So H2 = H2(A, K) + H2(B, L) + Bil(A x B, K) + Hom(A, L)
    and Z1 = Hom(A, K) + Hom(B, L), where by universal coefficients
    H2(A, K) = Ext(A, K) + Hom(Lambda^2 A, K) (Brown, Cohomology of Groups):
    Hom and Ext of Z_a and Z_k are Z_gcd(a, k), Lambda^2 of A has a
    Z_gcd(a_i, a_i') for each i < i', and Bil has a Z_gcd(a, b, k) for each
    triple of factors.
    """
    def h2(X, M):
        return ([math.gcd(x, m) for x in X for m in M]
                + [math.gcd(X[i], X[j], m) for i in range(len(X))
                   for j in range(i + 1, len(X)) for m in M])

    bil = [math.gcd(a, b, k) for a in A for b in B for k in K]
    hom_a_l = [math.gcd(a, m) for a in A for m in L]
    z1 = [math.gcd(a, k) for a in A for k in K] + [math.gcd(b, m) for b in B for m in L]
    return h2(A, K) + h2(B, L) + bil + hom_a_l, z1


def _norms(n: int, M, sigma: Sequence[int]) -> List[int]:
    """N(m) = m + sigma(m) + ... + sigma^(n-1)(m) for every element m of M."""
    out = []
    for m in M.elements():
        total, power = 0, m
        for _ in range(n):
            total, power = M.mul(total, power), sigma[power]
        out.append(total)
    return out


def cyclic_h2(n: int, M, sigma: Sequence[int]) -> List[int]:
    """H2(Z_n, M) = M^sigma / N M for an automorphism sigma of the abelian
    group M with sigma^n = 1, acting as the generator of Z_n, and N the norm
    1 + sigma + ... + sigma^(n-1) (the periodic resolution of Z_n; Brown,
    Cohomology of Groups, III.1).  Returned as the sorted prime-power orders
    of its cyclic factors, found by listing M: the elements of the quotient
    killed by p^k number p^(sum of min(e, k)) over its factors Z_(p^e)."""
    fixed = [m for m in M.elements() if sigma[m] == m]
    image = set(_norms(n, M, sigma))
    order = len(fixed) // len(image)

    def killed(x: int, q: int) -> bool:
        total = 0
        for _ in range(q):
            total = M.mul(total, x)
        return total in image

    parts = []
    for p in range(2, order + 1):
        if order % p or not all(p % q for q in range(2, p)):
            continue
        counts = [1]  # counts[k]: the elements of the quotient killed by p^k
        while len(counts) < 2 or counts[-1] != counts[-2]:
            counts.append(sum(killed(x, p ** len(counts)) for x in fixed) // len(image))
        # at_least[k - 1]: the factors of order p^k or more, log_p of a ratio.
        at_least = [next(r for r in range(order) if p ** r == b // a)
                    for a, b in zip(counts, counts[1:])]
        for e in range(1, len(at_least)):
            parts += [p ** e] * (at_least[e - 1] - at_least[e])
    return sorted(parts)


def cyclic_z1_order(n: int, M, sigma: Sequence[int]) -> int:
    """|Z1(Z_n, M)| = |ker N|: a crossed homomorphism is fixed by its value
    m at the generator, and it closes up at Z_n's order exactly when N(m) = 0."""
    return sum(x == 0 for x in _norms(n, M, sigma))


# -- tables and structures ---------------------------------------------------

def group_table_violation(table) -> Optional[Tuple[str, str, tuple]]:
    """The first failure of a square table as (code, message, witness), by
    element loops in the order FiniteGroup checks: entries in range, the
    identity at 0, associativity over (a, b, c), then a two-sided inverse of
    each element.  None for a group table."""
    tab = [[int(x) for x in row] for row in table]
    n = len(tab)
    for a in range(n):
        for b in range(n):
            if not 0 <= tab[a][b] < n:
                return "NotClosed", f"entry at {(a, b)} out of range", (a, b)
    if tab[0] != list(range(n)) or [row[0] for row in tab] != list(range(n)):
        return "NoIdentityAtZero", "element 0 is not a two-sided identity", ()
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if tab[tab[a][b]][c] != tab[a][tab[b][c]]:
                    return ("NotAssociative",
                            f"(a*b)*c != a*(b*c) at (a,b,c)=({a},{b},{c})", (a, b, c))
    for a in range(n):
        if not any(tab[a][b] == 0 and tab[b][a] == 0 for b in range(n)):
            return "NoInverse", f"element {a} has no two-sided inverse", (a,)
    return None


def rrb_violation(H, G, phi, R) -> Optional[Tuple[str, str, tuple]]:
    """The first failure of (phi, R) over groups H and G as (code, message,
    witness), by element loops in the order RRBGroup checks: each phi[g] an
    automorphism, phi[0] the identity, the action law over (g1, g2), the
    operator axiom over (h1, h2), R(0) = 0.  Shapes and the range of R are
    taken as checked.  None for a structure."""
    phi = [[int(x) for x in row] for row in phi]
    R = [int(x) for x in R]
    hs, gs = list(H.elements()), list(G.elements())
    if not all(0 <= r < G.order for r in R):
        return "RRBAxiomFails", "R entry out of range", ()
    for g in gs:
        row = phi[g]
        if sorted(row) != hs or any(row[H.mul(a, b)] != H.mul(row[a], row[b])
                                    for a in hs for b in hs):
            return "PhiNotAutomorphism", f"phi[{g}] is not an automorphism of H", (g,)
    if phi[0] != hs:
        return "PhiNotAction", "phi[identity] is not the identity map", (0, 0)
    for g1 in gs:
        for g2 in gs:
            if phi[G.mul(g1, g2)] != [phi[g1][x] for x in phi[g2]]:
                return ("PhiNotAction", f"phi[{g1}*{g2}] != phi[{g1}] o phi[{g2}]",
                        (g1, g2))
    for h1 in hs:
        for h2 in hs:
            if G.mul(R[h1], R[h2]) != R[H.mul(h1, phi[R[h1]][h2])]:
                return ("RRBAxiomFails", f"operator axiom fails at (h1,h2)=({h1},{h2})",
                        (h1, h2))
    if R[0] != 0:
        return "RRBAxiomFails", "R(identity) != identity", (0, 0)
    return None


def _is_automorphism(row: Sequence[int], G) -> bool:
    row = [int(x) for x in row]
    return sorted(row) == list(G.elements()) and all(
        row[G.mul(a, b)] == G.mul(row[a], row[b]) for a in G.elements() for b in G.elements())


def module_violation(quotient: RRBGroup, kernel: RRBGroup,
                     action: ActionQuadruple) -> Tuple[bool, Optional[str]]:
    """validate_module as element loops: the first counterexample as (False,
    message), or (True, None)."""
    A, B = quotient.H, quotient.G
    K, L = kernel.H, kernel.G
    if not (K.is_abelian and L.is_abelian):
        return False, "kernel components must be abelian"
    if any(kernel.act(g, h) != h for g in L.elements() for h in K.elements()):
        return False, "kernel action must be trivial"
    nu, mu, sigma, f = (a.tolist() for a in (action.nu, action.mu, action.sigma, action.f))
    if action.nu.shape != (B.order, K.order) or action.mu.shape != (A.order, K.order):
        return False, "nu/mu shape mismatch"
    if action.sigma.shape != (B.order, L.order) or action.f.shape != (L.order, A.order):
        return False, "sigma/f shape mismatch"
    for name, rows, group, label in (("nu", nu, K, "K"), ("mu", mu, K, "K"),
                                     ("sigma", sigma, L, "L")):
        for x, row in enumerate(rows):
            if not _is_automorphism(row, group):
                return False, f"{name}[{x}] is not an automorphism of {label}"
    ident_K, ident_L = list(K.elements()), list(L.elements())
    if nu[0] != ident_K or mu[0] != ident_K or sigma[0] != ident_L:
        return False, "actions at the identity are not the identity map"
    for b1 in B.elements():
        for b2 in B.elements():
            if nu[B.mul(b1, b2)] != [nu[b1][x] for x in nu[b2]]:
                return False, f"nu not a homomorphism at ({b1},{b2})"
            if sigma[B.mul(b1, b2)] != [sigma[b2][x] for x in sigma[b1]]:
                return False, f"sigma not an anti-homomorphism at ({b1},{b2})"
    for a1 in A.elements():
        for a2 in A.elements():
            if mu[A.mul(a1, a2)] != [mu[a2][x] for x in mu[a1]]:
                return False, f"mu not an anti-homomorphism at ({a1},{a2})"
    for a in A.elements():
        col = [f[l][a] for l in L.elements()]
        for l, x in enumerate(col):
            if not 0 <= x < K.order:
                return False, f"f({l}, {a}) = {x} is outside K"
        if any(col[L.mul(x, y)] != K.mul(col[x], col[y])
               for x in L.elements() for y in L.elements()):
            return False, f"f(-, {a}) is not a homomorphism L -> K"
    for l in L.elements():
        for a1 in A.elements():
            for a2 in A.elements():
                if f[l][A.mul(a1, a2)] != K.mul(mu[a2][f[l][a1]], f[l][a2]):
                    return False, f"f(l,-) derivation fails at (l,a1,a2)=({l},{a1},{a2})"
    S, T = kernel.R.tolist(), quotient.R.tolist()
    for a in A.elements():
        nu_inv = [0] * K.order
        for k, image in enumerate(nu[T[a]]):
            nu_inv[image] = k
        for k in K.elements():
            arg = K.mul(nu_inv[mu[a][k]], nu_inv[f[S[k]][a]])
            if S[arg] != sigma[T[a]][S[k]]:
                return False, f"operator compatibility fails at (a,k)=({a},{k})"
    for a in A.elements():
        for b in B.elements():
            ba = quotient.act(b, a)
            for k in K.elements():
                if nu[b][mu[a][k]] != mu[ba][nu[b][k]]:
                    return False, f"action interchange fails at (a,b,k)=({a},{b},{k})"
    return True, None


# -- closures, sub-structures and quotients -----------------------------------

def closure_loop(G, generators: Sequence[int]) -> List[int]:
    """The subgroup the generators generate, by saturating products and
    inverses of an element set; generators are taken as in range."""
    elems = {0}
    frontier = []
    for g in generators:
        if int(g) not in elems:
            elems.add(int(g))
            frontier.append(int(g))
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(elems):
                for c in (G.mul(a, b), G.mul(b, a), G.inv(a)):
                    if c not in elems:
                        elems.add(c)
                        fresh.append(c)
        frontier = fresh
    return sorted(elems)


def permutation_closure_loop(degree: int, generators: Sequence[Sequence[int]]) -> list:
    """The table of the group the permutations generate, elements sorted
    lexicographically and ``(p*q)(x) = p(q(x))``, by saturating products of
    tuples in both orders; generators are taken as permutations."""
    perms = {tuple(int(x) for x in gen) for gen in generators} | {tuple(range(degree))}
    frontier = list(perms)
    while frontier:
        fresh = []
        for p in frontier:
            for q in list(perms):
                for r in (tuple(p[q[x]] for x in range(degree)),
                          tuple(q[p[x]] for x in range(degree))):
                    if r not in perms:
                        perms.add(r)
                        fresh.append(r)
        frontier = fresh
    ordered = sorted(perms)
    index = {p: i for i, p in enumerate(ordered)}
    return [[index[tuple(p[q[x]] for x in range(degree))] for q in ordered] for p in ordered]


def direct_product_loop(G, H) -> list:
    """The table of G x H on pairs ``g * |H| + h``, one row per (g1, h1)."""
    n, m = G.order, H.order
    table = np.zeros((n * m, n * m), dtype=np.int64)
    for g1 in range(n):
        for h1 in range(m):
            row = G.table[g1][:, None] * m + H.table[h1][None, :]
            table[g1 * m + h1] = row.reshape(-1)
    return table.tolist()


def direct_product_rrb_loop(rrb1: RRBGroup, rrb2: RRBGroup) -> Tuple[list, list]:
    """(phi, R) of the componentwise product structure, one row of phi per
    (g1, g2) and one entry of R per (h1, h2)."""
    m2 = rrb2.H.order
    phi = np.zeros((rrb1.G.order * rrb2.G.order, rrb1.H.order * m2), dtype=np.int64)
    for g1 in rrb1.G.elements():
        for g2 in rrb2.G.elements():
            row = rrb1.phi[g1][:, None] * m2 + rrb2.phi[g2][None, :]
            phi[g1 * rrb2.G.order + g2] = row.reshape(-1)
    R = np.zeros(rrb1.H.order * m2, dtype=np.int64)
    for h1 in rrb1.H.elements():
        for h2 in rrb2.H.elements():
            R[h1 * m2 + h2] = rrb1.R[h1] * rrb2.G.order + rrb2.R[h2]
    return phi.tolist(), R.tolist()


def restrict_loop(rrb: RRBGroup, K_set, L_set) -> Tuple[list, list, list, list]:
    """(H table, G table, phi, R) of the sub-structure on (K, L), elements
    renumbered by their position in the sorted sets, one entry at a time."""
    K = sorted(set(int(x) for x in K_set))
    L = sorted(set(int(x) for x in L_set))
    k_index = {x: i for i, x in enumerate(K)}
    l_index = {x: i for i, x in enumerate(L)}
    return ([[k_index[rrb.H.mul(a, b)] for b in K] for a in K],
            [[l_index[rrb.G.mul(a, b)] for b in L] for a in L],
            [[k_index[rrb.act(l, k)] for k in K] for l in L],
            [l_index[int(rrb.R[k])] for k in K])


def walk_presentation(group) -> Tuple[Tuple[int, ...], np.ndarray]:
    """(factors, coord_table) of an abelian group from greedy generators and
    words from a breadth-first walk of the Cayley graph, one element at a
    time, presented by its edge relations."""
    n = group.order
    gens: List[int] = []
    words: dict = {0: ()}
    while len(words) < n:
        gens.append(min(x for x in range(n) if x not in words))
        words = {0: (0,) * len(gens)}
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
    cols = np.zeros((k, n * k), dtype=object)
    for g in range(n):
        for i, gen in enumerate(gens):
            col = [a - b for a, b in zip(words[g], words[group.mul(g, gen)])]
            col[i] += 1
            cols[:, g * k + i] = col
    pres = present_quotient(cols, n)
    return pres.factors, pres.coords(np.array([words[x] for x in range(n)],
                                              dtype=np.int64).reshape(n, k))


def subgroup_loop(G, elements: Sequence[int]) -> bool:
    elems = {int(x) for x in elements}
    if 0 not in elems or not all(0 <= x < G.order for x in elems):
        return False
    return all(G.mul(a, b) in elems for a in elems for b in elems)


def normal_loop(G, elements: Sequence[int]) -> bool:
    """Raises GroupError NotSubgroup as is_normal does."""
    elems = {int(x) for x in elements}
    if not subgroup_loop(G, elems):
        raise GroupError("NotSubgroup", "element set is not a subgroup")
    return all(G.conj(k, g) in elems for g in G.elements() for k in elems)


def subrrb_loop(rrb: RRBGroup, K_set, L_set) -> Tuple[bool, Optional[str]]:
    """is_subrrb with both subsets scanned in ascending order."""
    from rrbgroups import RRBError

    K, L = sorted({int(x) for x in K_set}), sorted({int(x) for x in L_set})
    if not subgroup_loop(rrb.H, K):
        raise RRBError("NotSubgroup", "K is not a subgroup of H")
    if not subgroup_loop(rrb.G, L):
        raise RRBError("NotSubgroup", "L is not a subgroup of G")
    for l in L:
        for k in K:
            if rrb.act(l, k) not in K:
                return False, f"phi_{l}({k}) leaves K"
    for k in K:
        if int(rrb.R[k]) not in L:
            return False, f"R({k}) leaves L"
    return True, None


def ideal_loop(rrb: RRBGroup, K_set, L_set) -> Tuple[bool, Optional[str]]:
    """is_ideal with both subsets scanned in ascending order."""
    ok, why = subrrb_loop(rrb, K_set, L_set)
    if not ok:
        return ok, why
    K, L = sorted({int(x) for x in K_set}), sorted({int(x) for x in L_set})
    if not normal_loop(rrb.H, K):
        return False, "K is not normal in H"
    if not normal_loop(rrb.G, L):
        return False, "L is not normal in G"
    for g in rrb.G.elements():
        for k in K:
            if rrb.act(g, k) not in K:
                return False, f"phi_{g}({k}) leaves K"
    for l in L:
        for h in rrb.H.elements():
            if rrb.H.mul(rrb.act(l, h), rrb.H.inv(h)) not in K:
                return False, f"phi_{l}({h}) * {h}^-1 not in K"
    return True, None


def center_loop(rrb: RRBGroup) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(K, L) of the center, element by element."""
    H, G = rrb.H, rrb.G
    ident = list(H.elements())
    L = tuple(g for g in G.elements() if rrb.phi[g].tolist() == ident)
    K = tuple(h for h in H.elements()
              if all(H.mul(h, x) == H.mul(x, h) for x in H.elements())
              and all(rrb.act(g, h) == h for g in G.elements())
              and rrb.phi[int(rrb.R[h])].tolist() == ident)
    return K, L


def quotient_loop(G, normal_elements: Sequence[int]) -> Tuple[List[int], List[int], list]:
    """(projection, section, table) of G/N, cosets numbered by their least
    element in ascending order, one coset at a time."""
    N = sorted({int(x) for x in normal_elements})
    coset_min = [-1] * G.order
    for g in G.elements():
        if coset_min[g] < 0:
            members = sorted(G.mul(g, x) for x in N)
            for m in members:
                coset_min[m] = members[0]
    reps = sorted(set(coset_min))
    proj = [reps.index(coset_min[g]) for g in G.elements()]
    table = [[proj[G.mul(a, b)] for b in reps] for a in reps]
    return proj, reps, table


def quotient_rrb_loop(rrb: RRBGroup, projH: Sequence[int], sectionH: Sequence[int],
                      projG: Sequence[int], sectionG: Sequence[int]):
    """(phi_bar, R_bar) of the quotient structure, entry by entry, and the
    first (g, h) (g coset by coset) or (h,) at which they depend on the
    representatives, or None."""
    phi_bar = [[projH[rrb.act(gq, hq)] for hq in sectionH] for gq in sectionG]
    R_bar = [projG[int(rrb.R[hq])] for hq in sectionH]
    for gq in range(len(sectionG)):
        for g in rrb.G.elements():
            if projG[g] == gq:
                for h in rrb.H.elements():
                    if phi_bar[gq][projH[h]] != projH[rrb.act(g, h)]:
                        return phi_bar, R_bar, (g, h)
    for h in rrb.H.elements():
        if R_bar[projH[h]] != projG[int(rrb.R[h])]:
            return phi_bar, R_bar, (h,)
    return phi_bar, R_bar, None


def descended_loop(rrb: RRBGroup) -> List[List[int]]:
    """h1 o h2 = h1 * phi_{R(h1)}(h2), entry by entry."""
    H = rrb.H
    return [[H.mul(h1, rrb.act(int(rrb.R[h1]), h2)) for h2 in H.elements()]
            for h1 in H.elements()]


# -- morphisms ----------------------------------------------------------------

def morphism_violation(dom: RRBGroup, cod: RRBGroup, psi: Sequence[int],
                       eta: Sequence[int]) -> Optional[Tuple[str, tuple]]:
    """The first failing (code, witness) of the maps psi: H -> H', eta: G -> G'.

    R-compatibility is checked over h, then equivariance over (g, h) with g
    outermost; None when both hold.
    """
    psi = [int(x) for x in psi]
    eta = [int(x) for x in eta]
    R1, R2 = dom.R.tolist(), cod.R.tolist()
    phi1, phi2 = dom.phi.tolist(), cod.phi.tolist()
    for h in dom.H.elements():
        if eta[R1[h]] != R2[psi[h]]:
            return "EtaRNeqSPsi", (h,)
    for g in dom.G.elements():
        for h in dom.H.elements():
            if psi[phi1[g][h]] != phi2[eta[g]][psi[h]]:
                return "EquivarianceFails", (g, h)
    return None


def automorphism_pairs(rrb: RRBGroup) -> List[Tuple[tuple, tuple]]:
    """Sorted (psi, eta) images of the pairs in Aut(H) x Aut(G) that pass
    morphism_violation: the full product, filtered pair by pair."""
    auts_H = saturation_isomorphisms(rrb.H, rrb.H)
    auts_G = saturation_isomorphisms(rrb.G, rrb.G)
    return sorted((psi, eta) for psi in auts_H for eta in auts_G
                  if morphism_violation(rrb, rrb, psi, eta) is None)


# -- automorphism search by saturation ---------------------------------------

def _saturate(G, H, partial: dict) -> Optional[dict]:
    """Extend a partial map multiplicatively; None on conflict or collision."""
    known = dict(partial)
    used = set(known.values())
    if len(used) != len(known):
        return None
    frontier = list(known)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(known):
                for x, y in ((a, b), (b, a)):
                    g = G.mul(x, y)
                    img = H.mul(known[x], known[y])
                    old = known.get(g)
                    if old is None:
                        if img in used:
                            return None
                        known[g] = img
                        used.add(img)
                        fresh.append(g)
                    elif old != img:
                        return None
        frontier = fresh
    return known


def saturation_isomorphisms(G, H) -> List[tuple]:
    """Every isomorphism G -> H as a sorted list of image tuples, by
    backtracking over generator images with each partial map saturated
    multiplicatively in dicts: the library's search before its image stacks."""
    if G.order != H.order:
        return []
    by_order: dict = {}
    for y in H.elements():
        by_order.setdefault(H.element_order(y), []).append(y)
    gens, have = [], {0}
    while len(have) < G.order:
        gens.append(min(x for x in G.elements() if x not in have))
        have = set(closure_loop(G, gens))
    found = []

    def recurse(i: int, partial: dict):
        if i == len(gens):
            if len(partial) == G.order:
                found.append(tuple(partial[g] for g in G.elements()))
            return
        for y in by_order.get(G.element_order(gens[i]), []):
            ext = _saturate(G, H, {**partial, gens[i]: y})
            if ext is not None:
                recurse(i + 1, ext)

    recurse(0, {0: 0})
    return sorted(found)


# -- the lifting audit, one object at a time ----------------------------------

def _morphism_key(m: RRBMorphism) -> tuple:
    """A morphism as its (psi, eta) image tuples."""
    return (tuple(m.psi.image.tolist()), tuple(m.eta.image.tolist()))


def _pair_key(pair: CompatiblePair) -> tuple:
    """A pair as its image tuples (psi1, psi2, theta1, theta2)."""
    return _morphism_key(pair.psi) + _morphism_key(pair.theta)


def identity_pair(module: RRBModule) -> CompatiblePair:
    """The identities of the module's quotient and kernel data, as a pair."""
    return CompatiblePair(identity_morphism(module.quotient), identity_morphism(module.kernel))


def reference_wells_report(ext: Extension):
    """The exactness audit of the lifting sequence as per-object loops: the
    automorphism groups by saturation, the pair conditions, restrictions,
    lifts and the action on classes entry by entry, one class map and one
    coboundary solve per pair, and the derivation law pair by pair.

    Returns (records, exactness, witnesses, omega_is_homomorphism); a record
    is (pair, in_C, omega, inducible, witness) with the pair as its images
    (psi1, psi2, theta1, theta2) and the witness as (psi, eta) images.
    Witness messages are compared only when every check passes (empty).
    """
    from rrbgroups.wells import WellsContext

    ctx = WellsContext(ext)
    module, cx, fs = ctx.module, ctx.complex, ctx.fs
    A, B, K, L = module.A, module.B, module.K, module.L
    H, G = ext.total.H, ext.total.G
    iK, iL = ext.incl.psi.image.tolist(), ext.incl.eta.image.tolist()
    sH, sG = ctx.chart.section.s_H.tolist(), ctx.chart.section.s_G.tolist()
    # Every total element as s(a) incl(k), found by multiplying out.
    split_H = {H.mul(sH[a], iK[k]): (a, k) for a in A.elements() for k in K.elements()}
    split_G = {G.mul(sG[b], iL[l]): (b, l) for b in B.elements() for l in L.elements()}
    sides = ((H, K, iK, sH, split_H), (G, L, iL, sG, split_G))

    def lift(psi, kappa, theta) -> tuple:
        out = []
        for (group, kern, incl, s, split), p, kap, th in zip(sides, psi, kappa, theta):
            out.append(tuple(group.mul(s[p[split[x][0]]],
                                       incl[kern.mul(kap[split[x][0]], th[split[x][1]])])
                             for x in group.elements()))
        return tuple(out)

    def unlift(gamma) -> tuple:
        """(psi, kappa, theta) of an automorphism carrying the kernel into itself."""
        parts = []
        for (group, kern, incl, s, split), img in zip(sides, gamma):
            outer = [split[img[x]] for x in s]
            assert all(split[img[incl[k]]][0] == 0 for k in kern.elements())
            parts.append((tuple(a for a, _ in outer), tuple(k for _, k in outer),
                          tuple(split[img[incl[k]]][1] for k in kern.elements())))
        return tuple(zip(*parts))

    def restrict(gamma) -> tuple:
        psi, _, theta = unlift(gamma)
        return psi + theta

    nu, mu, sigma, f = (module.action.nu, module.action.mu,
                        module.action.sigma, module.action.f)

    def compatible(pair) -> bool:
        psi1, psi2, th1, th2 = pair
        return (all(th1[nu[b, k]] == nu[psi2[b], th1[k]] for b in B.elements() for k in K.elements())
                and all(th2[sigma[b, l]] == sigma[psi2[b], th2[l]]
                        for b in B.elements() for l in L.elements())
                and all(th1[mu[a, k]] == mu[psi1[a], th1[k]] for a in A.elements() for k in K.elements())
                and all(th1[f[l, a]] == f[th2[l], psi1[a]] for l in L.elements() for a in A.elements()))

    def compose(p, q) -> tuple:
        return tuple(tuple(x[y] for y in z) for x, z in zip(p, q))

    identity = tuple(tuple(range(g.order)) for g in (A, B, K, L))
    all_pairs = [q + k for q in automorphism_pairs(ext.quotient)
                 for k in automorphism_pairs(ext.kernel)]
    C = [pair for pair in all_pairs if compatible(pair)]
    omega = {c: cx.class_of(act_images(c, fs)) - ctx.base_class for c in C}
    exactness: Dict[str, bool] = {}
    witnesses: Dict[str, str] = {}

    K_set, L_set = set(iK), set(iL)
    autK = [g for g in automorphism_pairs(ext.total)
            if {g[0][k] for k in K_set} == K_set and {g[1][l] for l in L_set} == L_set]
    induced = {g: restrict(g) for g in autK}
    autAK = {g for g in autK if induced[g] == identity}
    z1 = [(tuple(k.kappa1.tolist()), tuple(k.kappa2.tolist())) for k in exhaustive_z1(module)]
    ident_psi, ident_theta = identity[:2], identity[2:]
    eta = {kappa: lift(ident_psi, kappa, ident_theta) for kappa in z1}
    keys = list(eta.values())
    additive = all(
        eta.get((tuple(K.mul(x, y) for x, y in zip(k1[0], k2[0])),
                 tuple(L.mul(x, y) for x, y in zip(k1[1], k2[1])))) == compose(eta[k1], eta[k2])
        for k1 in z1 for k2 in z1)
    exactness["eta_injective"] = len(set(keys)) == len(keys) and set(keys) <= autAK and additive
    roundtrip = (all(unlift(eta[k]) == (ident_psi, k, ident_theta) for k in z1)
                 and all(lift(*unlift(g)) == g for g in autAK))
    exactness["ker_rho_eq_im_eta"] = autAK == set(keys) and roundtrip and len(autAK) == len(z1)
    exactness["ker_omega_eq_im_rho"] = set(induced.values()) == {c for c in C if omega[c].is_zero()}

    derivation = homomorphism = True
    for c1 in C:
        for c2 in C:
            lhs = omega[compose(c1, c2)]
            rep = cx.class_representative(omega[c1])
            if lhs != cx.class_of(act_images(c2, rep)) + omega[c2]:
                derivation = False
            if lhs != omega[c1] + omega[c2]:
                homomorphism = False
    exactness["omega_derivation"] = derivation

    records = []
    for pair in all_pairs:
        witness = None
        if pair in omega:
            lam = cx.solve_coboundary(sub_fs(module, act_images(pair, fs), fs))
            if lam is not None:
                kappa = (tuple(pair[2][K.inv(int(x))] for x in lam.kappa1),
                         tuple(pair[3][L.inv(int(x))] for x in lam.kappa2))
                witness = lift(pair[:2], kappa, pair[2:])
                assert restrict(witness) == pair
        records.append((pair, pair in omega, omega[pair].coords if pair in omega else None,
                        witness is not None, witness))
    return records, exactness, witnesses, homomorphism


# -- operators and equivalences ----------------------------------------------

def naive_operators(H, G, phi) -> List[List[int]]:
    """Every map H -> G satisfying the operator axiom, unrestricted search."""
    phi = np.asarray(phi, dtype=np.int64)
    out = []
    for R in itertools.product(range(G.order), repeat=H.order):
        ok = all(G.mul(R[h1], R[h2]) == R[H.mul(h1, int(phi[R[h1], h2]))]
                 for h1 in H.elements() for h2 in H.elements())
        if ok:
            out.append(list(R))
    return sorted(out)


def build_total_direct(module: RRBModule, fs: FactorSystem
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tables of H and G, phi and R of the total built from a cocycle, one
    encoded pair at a time (a * |K| + k, b * |L| + l):

        (a1,k1)(a2,k2)   = (a1 a2, tau1(a1,a2) + mu_{a2}(k1) + k2)
        (b1,l1)(b2,l2)   = (b1 b2, tau2(b1,b2) + sigma_{b2}(l1) + l2)
        phi_{(b,l)}(a,k) = (beta_b(a), rho(a,b) + nu_b(f(l,a) + k))
        R(a,k)           = (T(a), chi(a) + S(nu^-1_{T(a)}(k)))
    """
    A, B, K, L = module.A, module.B, module.K, module.L
    act = module.action
    nu, mu, sigma, f = act.nu, act.mu, act.sigma, act.f
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
        ninv = [next(x for x in K.elements() if nu[int(T[a]), x] == k) for k in K.elements()]
        for k in range(nK):
            val = L.mul(int(fs.chi[a]), int(S[ninv[k]]))
            R[a * nK + k] = int(T[a]) * nL + val
    return tableH, tableG, phi, R


def _split_element(group, proj, incl, s, x) -> Tuple[int, int]:
    """(a, k) with x = s(a) * incl(k), found by search over the kernel."""
    a = proj(x)
    rem = group.mul(group.inv(int(s[a])), x)
    return a, next(k for k in incl.domain.elements() if incl(k) == rem)


def find_equivalence_morphism(e1: Extension, e2: Extension) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Brute-force search for an equivalence between two extensions.

    An equivalence restricts to the identity on the kernel and induces the
    identity on the quotient, so it is determined by shift maps
    lam: A -> K and kap: B -> L applied next to a section.  Returns the
    total-level image arrays (on H and on G) or None.
    """
    A, B = e1.quotient.H, e1.quotient.G
    K, L = e1.kernel.H, e1.kernel.G
    H1, G1 = e1.total.H, e1.total.G
    H2, G2 = e2.total.H, e2.total.G
    from rrbgroups.extensions import canonical_section

    s1 = canonical_section(e1)
    s2 = canonical_section(e2)

    def build_h(lam) -> Optional[np.ndarray]:
        img = np.zeros(H1.order, dtype=np.int64)
        for h in H1.elements():
            a, k = _split_element(H1, e1.proj.psi, e1.incl.psi, s1.s_H, h)
            val = H2.mul(int(s2.s_H[a]), e2.incl.psi(int(lam[a])))
            img[h] = H2.mul(val, e2.incl.psi(k))
        good = np.array_equal(img[H1.table], H2.table[img[:, None], img[None, :]])
        return img if good and len(set(img.tolist())) == H1.order else None

    def build_g(kap) -> Optional[np.ndarray]:
        img = np.zeros(G1.order, dtype=np.int64)
        for g in G1.elements():
            b, l = _split_element(G1, e1.proj.eta, e1.incl.eta, s1.s_G, g)
            val = G2.mul(int(s2.s_G[b]), e2.incl.eta(int(kap[b])))
            img[g] = G2.mul(val, e2.incl.eta(l))
        good = np.array_equal(img[G1.table], G2.table[img[:, None], img[None, :]])
        return img if good and len(set(img.tolist())) == G1.order else None

    h_cands = []
    for lam_tail in itertools.product(range(K.order), repeat=A.order - 1):
        img = build_h((0,) + lam_tail)
        if img is not None:
            h_cands.append(img)
    g_cands = []
    for kap_tail in itertools.product(range(L.order), repeat=B.order - 1):
        img = build_g((0,) + kap_tail)
        if img is not None:
            g_cands.append(img)
    for img_h in h_cands:
        for img_g in g_cands:
            ok = all(int(img_g[e1.total.R[h]]) == int(e2.total.R[img_h[h]])
                     for h in H1.elements())
            if not ok:
                continue
            ok = all(int(img_h[e1.total.act(g, h)]) == int(e2.total.act(int(img_g[g]), int(img_h[h])))
                     for g in G1.elements() for h in H1.elements())
            if ok:
                return img_h, img_g
    return None


# -- reference cochain layout and assembly --------------------------------------

class ReferenceAssembly:
    """The coordinate blocks and the coboundary and constraint matrices of a
    module, built one tuple at a time.

    One block of invariant-factor coordinates per nondegenerate tuple, in
    the order of ``fs_positions`` (kappa1 then kappa2 for one-cochains, the
    five conditions in order for the constraint rows), and one small matrix
    added per term of each formula.  The cochain complex builds the same
    matrices as array scatters; this is the entry-for-entry reference.
    """

    def __init__(self, module: RRBModule):
        self.module = module
        A, B = module.A, module.B
        Kp, Lp = AbelianPresentation(module.K), AbelianPresentation(module.L)
        self.pres = {"kappa1": Kp, "tau1": Kp, "rho": Kp, "cocycle1": Kp, "cocycle3": Kp,
                     "cocycle4": Kp, "kappa2": Lp, "tau2": Lp, "chi": Lp, "cocycle2": Lp,
                     "cocycle5": Lp}
        nd_a, nd_b = range(1, A.order), range(1, B.order)
        self.c1_blocks = ([("kappa1", (a,)) for a in nd_a]
                          + [("kappa2", (b,)) for b in nd_b])
        self.c2_blocks = [(kind, idx) for kind, idx, _ in fs_positions(module)]
        self.con_blocks = ([("cocycle1", t) for t in itertools.product(nd_a, nd_a, nd_a)]
                           + [("cocycle2", t) for t in itertools.product(nd_b, nd_b, nd_b)]
                           + [("cocycle3", t) for t in itertools.product(nd_a, nd_b, nd_b)]
                           + [("cocycle4", t) for t in itertools.product(nd_a, nd_a, nd_b)]
                           + [("cocycle5", t) for t in itertools.product(nd_a, nd_a)])
        self.c1_offset, self.c1_moduli = self._widths(self.c1_blocks)
        self.c2_offset, self.c2_moduli = self._widths(self.c2_blocks)
        self.con_offset, self.constraint_moduli = self._widths(self.con_blocks)

        act = module.action
        nu_inv = [_inverse_map(act.nu[b]) for b in B.elements()]
        self.nu = [_hom(Kp, Kp, act.nu[b]) for b in B.elements()]
        self.nu_inv = [_hom(Kp, Kp, nu_inv[b]) for b in B.elements()]
        self.mu = [_hom(Kp, Kp, act.mu[a]) for a in A.elements()]
        self.sigma = [_hom(Lp, Lp, act.sigma[b]) for b in B.elements()]
        self.f = [_hom(Lp, Kp, act.f[:, a]) for a in A.elements()]
        self.S = _hom(Kp, Lp, module.S)
        self.IK = np.eye(Kp.rank, dtype=np.int64)
        self.IL = np.eye(Lp.rank, dtype=np.int64)
        self.coboundary_matrix = self._coboundary()
        self.constraint_matrix = self._constraints()

    def _widths(self, blocks):
        offsets, moduli, pos = {}, [], 0
        for kind, idx in blocks:
            pres = self.pres[kind]
            offsets[(kind, idx)] = pos
            moduli.extend(pres.factors)
            pos += pres.rank
        return offsets, tuple(moduli)

    @staticmethod
    def _add(matrix, row, offsets, sign, coeff, kind, idx):
        if any(i == 0 for i in idx):
            return  # the cochain vanishes there; no coordinates exist
        off = offsets[(kind, idx)]
        h, w = coeff.shape
        matrix[row:row + h, off:off + w] += sign * coeff

    def _coboundary(self) -> np.ndarray:
        m = self.module
        A, B = m.A, m.B
        D = np.zeros((len(self.c2_moduli), len(self.c1_moduli)), dtype=np.int64)
        for kind, idx in self.c2_blocks:
            def add(sign, coeff, target, tidx):
                self._add(D, self.c2_offset[(kind, idx)], self.c1_offset,
                          sign, coeff, target, tidx)
            if kind == "tau1":
                a1, a2 = idx
                add(+1, self.IK, "kappa1", (a2,))
                add(+1, self.mu[a2], "kappa1", (a1,))
                add(-1, self.IK, "kappa1", (A.mul(a1, a2),))
            elif kind == "tau2":
                b1, b2 = idx
                add(+1, self.IL, "kappa2", (b2,))
                add(+1, self.sigma[b2], "kappa2", (b1,))
                add(-1, self.IL, "kappa2", (B.mul(b1, b2),))
            elif kind == "rho":
                a, b = idx
                add(+1, self.nu[b] @ self.f[a], "kappa2", (b,))
                add(+1, self.nu[b], "kappa1", (a,))
                add(-1, self.IK, "kappa1", (m.beta(b, a),))
            else:  # chi
                a = idx[0]
                Ta = int(m.T[a])
                add(+1, self.S @ self.nu_inv[Ta], "kappa1", (a,))
                add(-1, self.IL, "kappa2", (Ta,))
        return D

    def _constraints(self) -> np.ndarray:
        m = self.module
        A, B = m.A, m.B
        C = np.zeros((len(self.constraint_moduli), len(self.c2_moduli)), dtype=np.int64)
        for label, idx in self.con_blocks:
            def add(sign, coeff, target, tidx):
                self._add(C, self.con_offset[(label, idx)], self.c2_offset,
                          sign, coeff, target, tidx)
            if label == "cocycle1":
                a1, a2, a3 = idx
                add(+1, self.IK, "tau1", (a2, a3))
                add(+1, self.IK, "tau1", (a1, A.mul(a2, a3)))
                add(-1, self.IK, "tau1", (A.mul(a1, a2), a3))
                add(-1, self.mu[a3], "tau1", (a1, a2))
            elif label == "cocycle2":
                b1, b2, b3 = idx
                add(+1, self.IL, "tau2", (b2, b3))
                add(+1, self.IL, "tau2", (b1, B.mul(b2, b3)))
                add(-1, self.IL, "tau2", (B.mul(b1, b2), b3))
                add(-1, self.sigma[b3], "tau2", (b1, b2))
            elif label == "cocycle3":
                a, b1, b2 = idx
                add(+1, self.IK, "rho", (m.beta(b2, a), b1))
                add(+1, self.nu[b1], "rho", (a, b2))
                add(-1, self.IK, "rho", (a, B.mul(b1, b2)))
                add(-1, self.nu[B.mul(b1, b2)] @ self.f[a], "tau2", (b1, b2))
            elif label == "cocycle4":
                a1, a2, b = idx
                add(+1, self.IK, "rho", (A.mul(a1, a2), b))
                add(+1, self.nu[b], "tau1", (a1, a2))
                add(-1, self.mu[m.beta(b, a2)], "rho", (a1, b))
                add(-1, self.IK, "rho", (a2, b))
                add(-1, self.IK, "tau1", (m.beta(b, a1), m.beta(b, a2)))
            else:  # cocycle5
                a1, a2 = idx
                circ = _circ(m, a1, a2)
                T1, T2 = int(m.T[a1]), int(m.T[a2])
                lift = self.S @ self.nu_inv[int(m.T[circ])]
                add(+1, self.IL, "tau2", (T1, T2))
                add(+1, self.IL, "chi", (a2,))
                add(-1, self.IL, "chi", (circ,))
                add(+1, self.sigma[T2], "chi", (a1,))
                add(-1, lift, "rho", (a2, T1))
                add(-1, lift, "tau1", (a1, m.beta(T1, a2)))
                add(-1, lift @ self.nu[T1] @ self.f[a2], "chi", (a1,))
        return C

    def fs_to_coords(self, fs: FactorSystem) -> List[int]:
        arrays = {"tau1": fs.tau1, "tau2": fs.tau2, "rho": fs.rho, "chi": fs.chi}
        out: List[int] = []
        for kind, idx in self.c2_blocks:
            out.extend(self.pres[kind].vec(int(arrays[kind][idx])))
        return out

    def kappa_to_coords(self, kappa: OneCochain) -> List[int]:
        arrays = {"kappa1": kappa.kappa1, "kappa2": kappa.kappa2}
        out: List[int] = []
        for kind, idx in self.c1_blocks:
            out.extend(self.pres[kind].vec(int(arrays[kind][idx])))
        return out

    @staticmethod
    def _first_witness(matrix, vec, blocks, offsets, moduli, pres):
        values = [int(x) % m for x, m in zip(matrix.astype(object) @ np.asarray(vec, dtype=object),
                                             moduli)]
        for kind, idx in blocks:
            off = offsets[(kind, idx)]
            if any(values[off:off + pres[kind].rank]):
                return False, (kind, idx)
        return True, None

    def z2_contains(self, fs: FactorSystem):
        return self._first_witness(self.constraint_matrix, self.fs_to_coords(fs),
                                   self.con_blocks, self.con_offset,
                                   self.constraint_moduli, self.pres)

    def z1_contains(self, kappa: OneCochain):
        return self._first_witness(self.coboundary_matrix, self.kappa_to_coords(kappa),
                                   self.c2_blocks, self.c2_offset, self.c2_moduli, self.pres)


def _inverse_map(perm: Sequence[int]) -> List[int]:
    out = [0] * len(perm)
    for x, y in enumerate(perm):
        out[int(y)] = x
    return out


def _hom(dom, cod, mapping) -> np.ndarray:
    """Coordinate matrix of a homomorphism, one generator image per column."""
    M = np.zeros((cod.rank, dom.rank), dtype=np.int64)
    for j, g in enumerate(dom.generators):
        M[:, j] = cod.vec(int(mapping[g]))
    return M


def relabel_module(module: RRBModule, rng) -> RRBModule:
    """An isomorphic module with the non-identity elements of A, B, K and L
    renamed at random (each identity stays at 0)."""
    def perm(n):
        rest = list(range(1, n))
        rng.shuffle(rest)
        return np.array([0] + rest, dtype=np.int64)

    def push(table, p_row, p_col, p_val):
        out = np.zeros_like(table)
        out[np.ix_(p_row, p_col)] = p_val[table]
        return out

    pA, pB, pK, pL = (perm(G.order) for G in (module.A, module.B, module.K, module.L))

    def structure(rrb, pH, pG):
        H = FiniteGroup(push(rrb.H.table, pH, pH, pH))
        G = FiniteGroup(push(rrb.G.table, pG, pG, pG))
        R = np.zeros_like(rrb.R)
        R[pH] = pG[rrb.R]
        return RRBGroup(H, G, push(rrb.phi, pG, pH, pH), R)

    act = module.action
    action = ActionQuadruple(push(act.nu, pB, pK, pK), push(act.mu, pA, pK, pK),
                             push(act.sigma, pB, pL, pL), push(act.f, pL, pA, pK))
    return RRBModule(structure(module.quotient, pA, pB),
                     structure(module.kernel, pK, pL), action)
