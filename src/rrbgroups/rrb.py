"""Relative Rota-Baxter groups on finite groups.

A structure (H, G, phi, R): phi is an action homomorphism G -> Aut(H) stored
as one permutation of H per element of G, and R: H -> G satisfies

    R(h1) * R(h2) == R(h1 * phi_{R(h1)}(h2))   for all h1, h2.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .groups import (
    FiniteGroup,
    GroupError,
    GroupHom,
    Quotient,
    action_law_defects,
    automorphism_rows,
    check_cells,
    direct_product,
    first_escape,
    first_repeat,
    first_true,
    homomorphism_defects,
    is_normal,
    is_subgroup,
    isomorphism_images,
    quotient_group,
    subset_mask,
)


# Closure products an operator search may spend before it is refused.
DEFAULT_BUDGET = 10 ** 6


class RRBError(GroupError):
    """A GroupError raised by a structure, module, extension or lifting check."""


class RRBGroup:
    """Validated quadruple (H, G, phi, R)."""

    def __init__(self, H: FiniteGroup, G: FiniteGroup,
                 phi: Sequence[Sequence[int]], R: Sequence[int],
                 name: Optional[str] = None):
        phi_arr = np.asarray(phi, dtype=np.int64)
        R_arr = np.asarray(R, dtype=np.int64)
        if phi_arr.shape != (G.order, H.order):
            raise RRBError("PhiNotAction",
                           f"phi has shape {phi_arr.shape}, expected {(G.order, H.order)}")
        if R_arr.shape != (H.order,):
            raise RRBError("RRBAxiomFails", f"R has length {R_arr.shape}, expected {H.order}")
        if R_arr.min() < 0 or R_arr.max() >= G.order:
            raise RRBError("RRBAxiomFails", "R entry out of range")
        bad = ~automorphism_rows(phi_arr, H)
        if bad.any():
            g = int(np.argmax(bad))
            raise RRBError("PhiNotAutomorphism", f"phi[{g}] is not an automorphism of H", (g,))
        if not np.array_equal(phi_arr[0], np.arange(H.order)):
            raise RRBError("PhiNotAction", "phi[identity] is not the identity map", (0, 0))
        at = first_true(action_law_defects(phi_arr, G))
        if at is not None:
            g1, g2 = at
            raise RRBError("PhiNotAction", f"phi[{g1}*{g2}] != phi[{g1}] o phi[{g2}]", at)
        at = first_true(_descended(H, G, phi_arr, R_arr)[1])
        if at is not None:
            h1, h2 = at
            raise RRBError("RRBAxiomFails",
                           f"operator axiom fails at (h1,h2)=({h1},{h2})", at)
        if R_arr[0] != 0:
            # Forced by the axiom at (0, 0); reaching this means H or G is broken.
            raise RRBError("RRBAxiomFails", "R(identity) != identity", (0, 0))
        self.H = H
        self.G = G
        self.phi = phi_arr
        self.phi.setflags(write=False)
        self.R = R_arr
        self.R.setflags(write=False)
        self.name = name

    def act(self, g: int, h: int) -> int:
        return int(self.phi[g, h])

    def __eq__(self, other) -> bool:
        return (isinstance(other, RRBGroup)
                and self.H == other.H and self.G == other.G
                and np.array_equal(self.phi, other.phi)
                and np.array_equal(self.R, other.R))

    def __hash__(self):
        return hash((self.H, self.G, self.phi.tobytes(), self.R.tobytes()))

    def __repr__(self):
        label = self.name or f"|H|={self.H.order},|G|={self.G.order}"
        return f"RRBGroup({label})"


def trivial_rrb(H: FiniteGroup, G: FiniteGroup, R: Optional[Sequence[int]] = None,
                name: Optional[str] = None) -> RRBGroup:
    """Trivial action; R defaults to the zero map and must be a homomorphism."""
    R = np.zeros(H.order, dtype=np.int64) if R is None else R
    return RRBGroup(H, G, np.tile(np.arange(H.order), (G.order, 1)), R, name=name)


def one_point_rrb() -> RRBGroup:
    return trivial_rrb(FiniteGroup([[0]]), FiniteGroup([[0]]), name="1")


def is_trivial(rrb: RRBGroup) -> bool:
    """True iff the action homomorphism is trivial."""
    return bool((rrb.phi == np.arange(rrb.H.order)).all())


def is_bijective(rrb: RRBGroup) -> bool:
    """True iff the operator R is a bijection H -> G."""
    return (rrb.H.order == rrb.G.order
            and len(set(rrb.R.tolist())) == rrb.H.order)


def _descended(H: FiniteGroup, G: FiniteGroup, phi: np.ndarray,
               R: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The table of h1 o h2 = h1 * phi_{R(h1)}(h2), one gather, and the mask
    of (h1, h2) where R(h1) R(h2) != R(h1 o h2): the operator axiom, which
    says R is a homomorphism from it."""
    table = H.table[np.arange(H.order)[:, None], phi[R]]
    return table, G.table[R[:, None], R[None, :]] != R[table]


def descended_table(rrb: RRBGroup) -> np.ndarray:
    """The table of the descended operation h1 o h2 = h1 * phi_{R(h1)}(h2)."""
    table, bad = _descended(rrb.H, rrb.G, rrb.phi, rrb.R)
    if bad.any():  # pragma: no cover - the axiom, checked on construction
        raise RRBError("InternalError", "R is not a homomorphism from the descended group")
    return table


def descended_operation(rrb: RRBGroup) -> FiniteGroup:
    """The group H with h1 o h2 = h1 * phi_{R(h1)}(h2); R is a hom from it."""
    H = rrb.H
    try:
        return FiniteGroup(descended_table(rrb), name=f"{H.name}^o" if H.name else None)
    except GroupError as exc:  # pragma: no cover - indicates an upstream bug
        raise RRBError("InternalError", f"descended operation is not a group: {exc}")


class RRBMorphism:
    """Pair of group homs (psi: H1->H2, eta: G1->G2) compatible with R and phi.

    ``check=False`` skips the checks, for pairs already checked as a stack."""

    def __init__(self, domain: RRBGroup, codomain: RRBGroup,
                 psi: GroupHom, eta: GroupHom, check: bool = True):
        if check:
            if psi.domain != domain.H or psi.codomain != codomain.H:
                raise RRBError("LengthMismatch", "psi does not map H1 -> H2")
            if eta.domain != domain.G or eta.codomain != codomain.G:
                raise RRBError("LengthMismatch", "eta does not map G1 -> G2")
            check_morphisms(domain, codomain, psi.image[None], eta.image[None])
        self.domain = domain
        self.codomain = codomain
        self.psi = psi
        self.eta = eta

    def is_bijective(self) -> bool:
        return self.psi.is_bijective() and self.eta.is_bijective()

    def compose(self, other: "RRBMorphism") -> "RRBMorphism":
        """self after other."""
        return RRBMorphism(other.domain, self.codomain,
                           self.psi.compose(other.psi), self.eta.compose(other.eta))

    def inverse(self) -> "RRBMorphism":
        return RRBMorphism(self.codomain, self.domain,
                           self.psi.inverse(), self.eta.inverse())

    def __eq__(self, other) -> bool:
        return (isinstance(other, RRBMorphism)
                and self.domain == other.domain and self.codomain == other.codomain
                and self.psi == other.psi and self.eta == other.eta)

    def __hash__(self):
        return hash((self.psi, self.eta))

    def __repr__(self):
        return f"RRBMorphism(psi={list(self.psi.image)}, eta={list(self.eta.image)})"


def validate_morphism(rrb1: RRBGroup, rrb2: RRBGroup,
                      psi: Sequence[int], eta: Sequence[int]) -> RRBMorphism:
    return RRBMorphism(rrb1, rrb2,
                       GroupHom(rrb1.H, rrb2.H, psi), GroupHom(rrb1.G, rrb2.G, eta))


def morphism_defects(domain: RRBGroup, codomain: RRBGroup, psi: np.ndarray,
                     eta: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where stacks of maps (psi: H1 -> H2 along the last axis, eta: G1 -> G2
    likewise, leading axes broadcasting) break R-compatibility, over h, and
    equivariance, over (g, h)."""
    bad_R = eta[..., domain.R] != codomain.R[psi]
    bad_eq = psi[..., domain.phi] != codomain.phi[eta[..., :, None], psi[..., None, :]]
    return bad_R, bad_eq


def check_morphisms(domain: RRBGroup, codomain: RRBGroup,
                    psi: np.ndarray, eta: np.ndarray) -> None:
    """The constructor's check on stacks of maps (n x |H1|, n x |G1|): the
    first failing pair raises, with the first failure in element order, as
    a loop over h (and g, h) would find it."""
    bad_R, bad_eq = morphism_defects(domain, codomain, psi, eta)
    failing = bad_R.any(axis=1) | bad_eq.any(axis=(1, 2))
    if not failing.any():
        return
    row = int(np.argmax(failing))
    if bad_R[row].any():
        h = int(np.argmax(bad_R[row]))
        raise RRBError("EtaRNeqSPsi", f"eta(R(h)) != R'(psi(h)) at h={h}", (h,))
    g, h = (int(x) for x in np.argwhere(bad_eq[row])[0])
    raise RRBError("EquivarianceFails",
                   f"psi(phi_g(h)) != phi'_{{eta(g)}}(psi(h)) at (g,h)=({g},{h})", (g, h))


def check_automorphisms(rrb: RRBGroup, psi: np.ndarray, eta: np.ndarray) -> None:
    """That each row pair of the stacks (psi on H, eta on G) is an automorphism,
    checked as the constructors check one pair, then bijective.  A map that
    is no homomorphism, or repeats an entry, is named with its row."""
    maps = (("psi on H", psi, rrb.H), ("eta on G", eta, rrb.G))
    for name, images, group in maps:
        at = first_true(homomorphism_defects(images, group, group))
        if at is not None:
            raise RRBError("NotHomomorphism", f"{name}, row {at[0]}, does not respect "
                           f"multiplication at (x, y) = {at[1:]}", at[1:])
    check_morphisms(rrb, rrb, psi, eta)
    for name, images, _ in maps:
        at = first_repeat(images)
        if at is not None:
            raise RRBError("NotInjective", f"{name}, row {at[0]}: entry {at[1]} = {images[at]} "
                           "repeats an earlier entry", at[1:])


def automorphism_objects(rrb: RRBGroup, psi: np.ndarray, eta: np.ndarray) -> List[RRBMorphism]:
    """The automorphisms of the structure with image stacks (psi on H, eta
    on G), already checked as stacks, as objects."""
    return [RRBMorphism(rrb, rrb, GroupHom(rrb.H, rrb.H, p, check=False),
                        GroupHom(rrb.G, rrb.G, e, check=False), check=False)
            for p, e in zip(psi, eta)]


def identity_morphism(rrb: RRBGroup) -> RRBMorphism:
    return validate_morphism(rrb, rrb, list(range(rrb.H.order)), list(range(rrb.G.order)))


class RRBIdeal(NamedTuple):
    K_elements: Tuple[int, ...]
    L_elements: Tuple[int, ...]


def is_subrrb(rrb: RRBGroup, K_set: Sequence[int], L_set: Sequence[int]) -> Tuple[bool, Optional[str]]:
    """Sub-structure check: phi_l(K) <= K for l in L, and R(K) <= L.  The
    message names the least failing l, then k."""
    if not is_subgroup(rrb.H, K_set):
        raise RRBError("NotSubgroup", "K is not a subgroup of H")
    if not is_subgroup(rrb.G, L_set):
        raise RRBError("NotSubgroup", "L is not a subgroup of G")
    K, L = subset_mask(rrb.H, K_set), subset_mask(rrb.G, L_set)
    Ks, Ls = np.flatnonzero(K), np.flatnonzero(L)
    at = first_escape(rrb.phi[Ls], Ks, K)
    if at is not None:
        return False, f"phi_{Ls[at[0]]}({at[1]}) leaves K"
    at = first_escape(rrb.R[None], Ks, L)
    if at is not None:
        return False, f"R({at[1]}) leaves L"
    return True, None


def is_ideal(rrb: RRBGroup, K_set: Sequence[int], L_set: Sequence[int]) -> Tuple[bool, Optional[str]]:
    """Sub-structure with both parts normal, K stable under all of phi, and
    phi_l(h) * h^-1 in K for every h in H, l in L."""
    ok, why = is_subrrb(rrb, K_set, L_set)
    if not ok:
        return ok, why
    if not is_normal(rrb.H, K_set):
        return False, "K is not normal in H"
    if not is_normal(rrb.G, L_set):
        return False, "L is not normal in G"
    H, K = rrb.H, subset_mask(rrb.H, K_set)
    at = first_escape(rrb.phi, np.flatnonzero(K), K)
    if at is not None:
        return False, f"phi_{at[0]}({at[1]}) leaves K"
    Ls = np.flatnonzero(subset_mask(rrb.G, L_set))
    at = first_escape(H.table[rrb.phi[Ls], H.inverses], np.arange(H.order), K)
    if at is not None:
        return False, f"phi_{Ls[at[0]]}({at[1]}) * {at[1]}^-1 not in K"
    return True, None


def morphism_kernel(m: RRBMorphism) -> RRBIdeal:
    ideal = RRBIdeal(tuple(m.psi.kernel_elements()), tuple(m.eta.kernel_elements()))
    ok, why = is_ideal(m.domain, ideal.K_elements, ideal.L_elements)
    if not ok:  # pragma: no cover - theorem
        raise RRBError("InternalError", f"morphism kernel is not an ideal: {why}")
    return ideal


def morphism_image(m: RRBMorphism) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    img = (tuple(m.psi.image_elements()), tuple(m.eta.image_elements()))
    ok, why = is_subrrb(m.codomain, img[0], img[1])
    if not ok:  # pragma: no cover - theorem
        raise RRBError("InternalError", f"morphism image is not a sub-structure: {why}")
    return img


class Restriction(NamedTuple):
    rrb: RRBGroup
    inclusion: RRBMorphism


def restrict(rrb: RRBGroup, K_set: Sequence[int], L_set: Sequence[int],
             name: Optional[str] = None) -> Restriction:
    """The sub-structure on (K, L) reindexed to its own element numbering."""
    ok, why = is_subrrb(rrb, K_set, L_set)
    if not ok:
        raise RRBError("NotSubRRB", why or "not a sub-structure")
    in_K, in_L = subset_mask(rrb.H, K_set), subset_mask(rrb.G, L_set)
    K, L = np.flatnonzero(in_K), np.flatnonzero(in_L)
    # The position of each member of K (of L) in it: every table is one gather.
    k_index, l_index = np.cumsum(in_K) - 1, np.cumsum(in_L) - 1
    KH = FiniteGroup(k_index[rrb.H.table[np.ix_(K, K)]])
    LG = FiniteGroup(l_index[rrb.G.table[np.ix_(L, L)]])
    sub = RRBGroup(KH, LG, k_index[rrb.phi[np.ix_(L, K)]], l_index[rrb.R[K]], name=name)
    incl = validate_morphism(sub, rrb, K, L)
    return Restriction(sub, incl)


class RRBQuotient(NamedTuple):
    rrb: RRBGroup
    projection: RRBMorphism
    quotient_H: Quotient
    quotient_G: Quotient


def quotient_rrb(rrb: RRBGroup, ideal: RRBIdeal) -> RRBQuotient:
    """Quotient structure on (H/K, G/L) with induced action and operator."""
    ok, why = is_ideal(rrb, ideal.K_elements, ideal.L_elements)
    if not ok:
        raise RRBError("NotIdeal", why or "not an ideal")
    qH = quotient_group(rrb.H, ideal.K_elements)
    qG = quotient_group(rrb.G, ideal.L_elements)
    pH, pG = qH.projection.image, qG.projection.image
    phi_bar = pH[rrb.phi[np.ix_(qG.section, qH.section)]]
    R_bar = pG[rrb.R[qH.section]]
    # Induced maps must not depend on coset representatives.  The action's
    # witness is the first (g, h) with g taken coset by coset.
    by_coset = np.argsort(pG, kind="stable")
    at = first_true((phi_bar[pG[:, None], pH[None, :]] != pH[rrb.phi])[by_coset])
    if at is not None:
        g, h = int(by_coset[at[0]]), at[1]
        raise RRBError("WellDefinednessFailure",
                       f"induced action ill-defined at ({g},{h})", (g, h))
    at = first_true(R_bar[pH] != pG[rrb.R])
    if at is not None:
        raise RRBError("WellDefinednessFailure", f"induced operator ill-defined at {at[0]}", at)
    quot = RRBGroup(qH.group, qG.group, phi_bar, R_bar)
    proj = RRBMorphism(rrb, quot, qH.projection, qG.projection)
    return RRBQuotient(quot, proj, qH, qG)


def center(rrb: RRBGroup) -> RRBIdeal:
    """Central ideal: commuting, action-fixed elements whose operator value
    acts trivially, paired with the kernel of the action homomorphism."""
    moved = rrb.phi != np.arange(rrb.H.order)
    trivial = ~moved.any(axis=1)
    central = (rrb.H.table == rrb.H.table.T).all(axis=1)
    K = np.flatnonzero(central & ~moved.any(axis=0) & trivial[rrb.R])
    ideal = RRBIdeal(tuple(K.tolist()), tuple(np.flatnonzero(trivial).tolist()))
    ok, why = is_ideal(rrb, ideal.K_elements, ideal.L_elements)
    if not ok:  # pragma: no cover - theorem
        raise RRBError("InternalError", f"center is not an ideal: {why}")
    return ideal


def direct_product_rrb(rrb1: RRBGroup, rrb2: RRBGroup,
                       name: Optional[str] = None) -> RRBGroup:
    """Componentwise action and operator on H1 x H2 and G1 x G2, each one
    broadcast of the two factors'."""
    P, Q = direct_product(rrb1.H, rrb2.H).group, direct_product(rrb1.G, rrb2.G).group
    phi = rrb1.phi[:, None, :, None] * rrb2.H.order + rrb2.phi[None, :, None, :]
    R = rrb1.R[:, None] * rrb2.G.order + rrb2.R[None, :]
    return RRBGroup(P, Q, phi.reshape(Q.order, P.order), R.reshape(-1), name=name)


def rrb_automorphism_images(rrb: RRBGroup,
                            stabilizing: Optional[Tuple[Sequence[int], Sequence[int]]] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """The automorphisms of the structure as two stacks of image rows (psi
    on H, eta on G), sorted by (psi, eta).

    Aut(H) x Aut(G) is filtered psi-major with one check of all pairs at
    once, its stack of candidate pairs checked against the cell cap first.
    With ``stabilizing`` = (K, L) only the automorphisms carrying K and L
    onto themselves, from stabilizer searches on H and G."""
    K, L = stabilizing if stabilizing is not None else (None, None)
    auts_H = isomorphism_images(rrb.H, rrb.H, K)
    auts_G = isomorphism_images(rrb.G, rrb.G, L)
    pairs = len(auts_H) * len(auts_G)
    check_cells(pairs * (rrb.H.order + rrb.G.order),
                f"a stack of {pairs} candidate automorphism pairs")
    bad_R, bad_eq = morphism_defects(rrb, rrb, auts_H[:, None], auts_G[None])
    i, j = np.nonzero(~(bad_R.any(axis=2) | bad_eq.any(axis=(2, 3))))
    return auts_H[i], auts_G[j]


def rrb_automorphism_group(rrb: RRBGroup) -> List[RRBMorphism]:
    """All pairs in Aut(H) x Aut(G) compatible with phi and R, sorted."""
    return automorphism_objects(rrb, *rrb_automorphism_images(rrb))


def enumerate_rrb_operators(H: FiniteGroup, G: FiniteGroup,
                            phi: Sequence[Sequence[int]],
                            budget: int = DEFAULT_BUDGET) -> List[np.ndarray]:
    """All operators R for the given action, as closed graphs in H x_phi G.

    R is an operator exactly when its graph {(h, R(h))} is closed under
    (h1, g1)(h2, g2) = (h1 phi_{g1}(h2), g1 g2): closure of two graph points
    is the axiom at (h1, h2).  The search keeps the assigned points closed:
    each new point is multiplied with itself and every earlier point, in
    both orders; a product on an unassigned h forces R(h), and one on an
    assigned h with another value prunes.  It branches only on the least
    unassigned h, so its leaves are exactly the operators, and in
    lexicographic order: two leaves part at a branch on some h, where every
    h' < h is assigned, and the branch tries g in ascending order.  The
    budget caps closure products.
    """
    phi_arr = np.asarray(phi, dtype=np.int64)
    probe = RRBGroup(H, G, phi_arr, [0] * H.order)  # validates phi, R=0 always works
    del probe
    n = H.order
    htab, gtab, act = H.table.tolist(), G.table.tolist(), phi_arr.tolist()
    R = [-1] * n
    R[0] = 0
    points = [0]  # assigned h in assignment order, the graph points (h, R[h])
    results: List[np.ndarray] = []
    spent = 0

    def close(i: int) -> bool:
        """Multiply out points[i:], which grows as values are forced."""
        nonlocal spent
        while i < len(points):
            h1 = points[i]
            g1 = R[h1]
            row, act1, grow = htab[h1], act[g1], gtab[g1]
            ok = True
            for j in range(i + 1):
                h2 = points[j]
                g2 = R[h2]
                for h, g in ((row[act1[h2]], grow[g2]),
                             (htab[h2][act[g2][h1]], gtab[g2][g1])):
                    if R[h] < 0:
                        R[h] = g
                        points.append(h)
                    elif R[h] != g:
                        ok = False
                if not ok:
                    break
            spent += 2 * (j + 1)
            if spent > budget:
                raise RRBError("BudgetExceeded",
                               f"operator search exceeded budget {budget}")
            if not ok:
                return False
            i += 1
        return True

    def branch(h: int):
        while h < n and R[h] >= 0:
            h += 1
        if h == n:
            results.append(np.asarray(R, dtype=np.int64))
            return
        mark = len(points)
        for g in G.elements():
            R[h] = g
            points.append(h)
            if close(mark):
                branch(h + 1)
            for x in points[mark:]:
                R[x] = -1
            del points[mark:]

    branch(1)
    return results
