"""Finite groups on {0..n-1} given by Cayley tables, with homs and quotients.

Element 0 is always the identity.  Tables are numpy int arrays with
``table[i, j] == i * j``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


class GroupError(ValueError):
    """Structured validation failure with a short code and a witness."""

    def __init__(self, code: str, message: str, witness: tuple = ()):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.witness = witness


class FiniteGroup:
    """A finite group given by its multiplication table.

    The constructor validates the table in this order: square shape, entries
    in range, identity at 0, associativity, two-sided inverses.  Rows and
    columns being permutations follows, so it is not checked on its own.
    """

    def __init__(self, table: Sequence[Sequence[int]], name: Optional[str] = None):
        tab = np.asarray(table, dtype=np.int64)
        if tab.ndim != 2 or tab.shape[0] != tab.shape[1]:
            raise GroupError("NotClosed", f"table must be square, got shape {tab.shape}")
        n = tab.shape[0]
        if n == 0:
            raise GroupError("NotClosed", "empty table")
        if tab.min() < 0 or tab.max() >= n:
            bad = first_true((tab < 0) | (tab >= n))
            raise GroupError("NotClosed", f"entry at {bad} out of range", bad)
        if not (arrays_equal(tab[0], np.arange(n)) and arrays_equal(tab[:, 0], np.arange(n))):
            raise GroupError("NoIdentityAtZero", "element 0 is not a two-sided identity")
        # table[table[i, j], k] == table[i, table[j, k]], one (j, k) plane per i.
        for i in range(n):
            bad = tab[tab[i]] != tab[i][tab]
            if bad.any():
                j, k = first_true(bad)
                raise GroupError(
                    "NotAssociative", f"(a*b)*c != a*(b*c) at (a,b,c)=({i},{j},{k})", (i, j, k)
                )
        # inv[i] is the least j with i*j == j*i == 0.
        two_sided = (tab == 0) & (tab.T == 0)
        missing = ~two_sided.any(axis=1)
        if missing.any():
            i = int(missing.argmax())
            raise GroupError("NoInverse", f"element {i} has no two-sided inverse", (i,))
        inv = two_sided.argmax(axis=1).astype(np.int64)
        self.table = tab
        self.table.setflags(write=False)
        self.order = n
        self.name = name
        self.inverses = inv
        self.inverses.setflags(write=False)
        self._abelian: Optional[bool] = None

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def conj(self, a: int, g: int) -> int:
        """g^-1 * a * g"""
        return self.mul(self.mul(self.inv(g), a), g)

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = arrays_equal(self.table, self.table.T)
        return self._abelian

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, FiniteGroup)
                                 and arrays_equal(self.table, other.table))

    def __hash__(self):
        return hash(self.table.tobytes())

    def __repr__(self):
        label = self.name or f"order {self.order}"
        return f"FiniteGroup({label})"


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup((np.arange(n)[:, None] + np.arange(n)) % n, name=f"Z{n}")


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], name="1")


class ProductGroup(NamedTuple):
    group: FiniteGroup
    inj1: "GroupHom"
    inj2: "GroupHom"
    proj1: "GroupHom"
    proj2: "GroupHom"


def direct_product(G: FiniteGroup, H: FiniteGroup) -> ProductGroup:
    """Direct product on pairs encoded as ``g * |H| + h``, its table one broadcast."""
    n, m = G.order, H.order
    table = G.table[:, None, :, None] * m + H.table[None, :, None, :]
    name = None
    if G.name and H.name:
        name = f"{G.name}x{H.name}"
    P = FiniteGroup(table.reshape(n * m, n * m), name=name)
    inj1 = GroupHom(G, P, np.arange(n) * m)
    inj2 = GroupHom(H, P, np.arange(m))
    proj1 = GroupHom(P, G, np.arange(n * m) // m)
    proj2 = GroupHom(P, H, np.arange(n * m) % m)
    return ProductGroup(P, inj1, inj2, proj1, proj2)


def group_from_permutations(degree: int, generators: Sequence[Sequence[int]],
                            name: Optional[str] = None) -> FiniteGroup:
    """Close permutation generators under composition and build the table.

    Elements are the closure's permutations sorted lexicographically, which
    puts the identity at index 0.  Product convention: ``(p*q)(x) = p(q(x))``.
    A generator that is not a permutation raises NotClosed at its first bad
    entry, witness (generator, entry).  Only the points some generator moves
    are kept: they form an invariant set, and fixed points tie in the order.
    The closure walks its element list as it grows, ``right[i, j]`` being
    element i times generator j, and finds each product in one dict from
    bytes to index.  Each element after the identity is parent * gen at its
    first appearance in ``right``, so its table column is a gather of its
    parent's.  Before each new element, the stored permutations and the
    table are checked against the cell cap.
    """
    if degree < 0:
        raise GroupError("NotClosed", f"degree {degree} is negative")
    # Lengths first, and nothing of size degree without generators: a huge
    # degree costs nothing until a generator of that length is given.
    for i, gen in enumerate(generators):
        if len(gen) != degree:
            raise GroupError("NotClosed", f"generator {i} has {len(gen)} entries, not the "
                             f"degree {degree}", (i, min(len(gen), degree)))
    gens = np.array(generators, dtype=np.int64).reshape(len(generators), degree)
    outside = (gens < 0) | (gens >= degree)
    at = min(filter(None, (first_true(outside), first_repeat(gens))), default=None)
    if at is not None:
        what = f"is outside 0..{degree - 1}" if outside[at] else "repeats an earlier entry"
        raise GroupError("NotClosed", f"generator {at[0]}: entry {at[1]} = {gens[at]} {what}", at)
    moved = (gens != np.arange(degree)).any(axis=0).nonzero()[0] if len(gens) else ()
    if len(moved) == 0:
        return FiniteGroup([[0]], name=name)
    gens, width = moved.searchsorted(gens[:, moved]), len(moved)
    keys = [np.arange(width).tobytes()]
    index, right, first = {keys[0]: 0}, [], [0]
    for key in keys:  # keys grows as the walk goes
        for q in np.frombuffer(key, dtype=np.int64)[gens]:
            product = q.tobytes()
            at = index.setdefault(product, len(keys))
            if at == len(keys):
                check_cells((at + 1) * width,
                            f"a closure of {at + 1} permutations on {width} moved points")
                check_cells((at + 1) ** 2, f"the table of a closure of {at + 1} permutations")
                keys.append(product)
                first.append(len(right))
            right.append(at)
    n, k = len(keys), len(gens)
    right = np.array(right, dtype=np.int64).reshape(n, k)
    table = np.zeros((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for x in range(1, n):
        table[:, x] = right[table[:, first[x] // k], first[x] % k]
    perms = np.frombuffer(b"".join(keys), dtype=np.int64).reshape(n, width).tolist()
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=perms.__getitem__)] = np.arange(n)
    table[rank[:, None], rank] = rank[table]
    return FiniteGroup(table, name=name)


class GroupHom:
    """A homomorphism stored as ``image[x]`` over the domain's elements."""

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup,
                 image: Sequence[int], check: bool = True):
        img = np.asarray(image, dtype=np.int64)
        if img.shape != (domain.order,):
            raise GroupError("LengthMismatch",
                             f"map has length {img.shape}, domain order {domain.order}")
        if check:
            _check_range(img, codomain)
            check_homomorphisms(img[None], domain, codomain)
        self.domain = domain
        self.codomain = codomain
        self.image = img
        self.image.setflags(write=False)

    def __call__(self, x: int) -> int:
        return int(self.image[x])

    def is_injective(self) -> bool:
        return len(set(self.image.tolist())) == self.domain.order

    def is_surjective(self) -> bool:
        return len(set(self.image.tolist())) == self.codomain.order

    def is_bijective(self) -> bool:
        return self.domain.order == self.codomain.order and self.is_injective()

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        if other.codomain.order != self.domain.order:
            raise GroupError("LengthMismatch", "composition domains do not match")
        return GroupHom(other.domain, self.codomain, self.image[other.image], check=False)

    def inverse(self) -> "GroupHom":
        if not self.is_bijective():
            raise GroupError("NotInjective", "only bijective homs invert")
        return GroupHom(self.codomain, self.domain, _inverse_perm(self.image), check=False)

    def kernel_elements(self) -> List[int]:
        return [x for x in self.domain.elements() if self.image[x] == 0]

    def image_elements(self) -> List[int]:
        return sorted(set(self.image.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, GroupHom)
                and arrays_equal(self.image, other.image)
                and self.domain == other.domain
                and self.codomain == other.codomain)

    def __hash__(self):
        return hash(self.image.tobytes())

    def __repr__(self):
        return f"GroupHom({list(self.image)})"


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, list(range(G.order)), check=False)


def _check_range(img: np.ndarray, H: FiniteGroup) -> None:
    """That every entry of a map is an element of its codomain H."""
    outside = ((img < 0) | (img >= H.order)).nonzero()[0]
    if outside.size:
        i = int(outside[0])
        raise GroupError("NotClosed", f"image[{i}] = {img[i]} is outside the codomain "
                         f"of order {H.order}", (i,))


def is_homomorphism(image: Sequence[int], G: FiniteGroup, H: FiniteGroup) -> bool:
    """True iff image[x*y] == image[x]*image[y] for all pairs."""
    img = np.asarray(image, dtype=np.int64)
    if img.shape != (G.order,):
        raise GroupError("LengthMismatch", f"map has length {img.shape}, expected {G.order}")
    _check_range(img, H)
    return bool(homomorphism_rows(img[None], G, H)[0])


def homomorphism_defects(images: np.ndarray, G: FiniteGroup, H: FiniteGroup) -> np.ndarray:
    """Where each row of a stack of image arrays breaks the law: mask[i, x, y]
    is images[i, x*y] != images[i, x] * images[i, y]."""
    return images[:, G.table] != H.table[images[:, :, None], images[:, None, :]]


def homomorphism_rows(images: np.ndarray, G: FiniteGroup, H: FiniteGroup) -> np.ndarray:
    """is_homomorphism for each row of a stack of image arrays."""
    return ~homomorphism_defects(images, G, H).any(axis=(1, 2))


def check_homomorphisms(images: np.ndarray, G: FiniteGroup, H: FiniteGroup) -> None:
    """That each row of a stack of image arrays is a homomorphism G -> H.  The
    first row that is not raises NotHomomorphism with its first (x, y), in
    row-major order, where image[x*y] != image[x]*image[y] as the witness."""
    at = first_true(homomorphism_defects(images, G, H))
    if at is not None:
        x, y = at[1:]
        raise GroupError("NotHomomorphism",
                         f"map does not respect multiplication at (x, y) = ({x}, {y})", (x, y))


def automorphism_rows(rows: np.ndarray, G: FiniteGroup) -> np.ndarray:
    """Which rows of a stack of maps on G's elements are automorphisms of G.
    A row with an entry outside range(|G|) fails before any gather."""
    ok = ((rows >= 0) & (rows < G.order)).all(axis=1)
    inside = rows[ok]
    ok[ok] = injective_rows(inside, G.order) & homomorphism_rows(inside, G, G)
    return ok


def action_law_defects(rows: np.ndarray, G: FiniteGroup, anti: bool = False) -> np.ndarray:
    """Where a stack of maps indexed by G's elements, entries in range of
    its own width, breaks the action law: mask[g1, g2] is
    rows[g1*g2] != rows[g1] o rows[g2], or rows[g2] o rows[g1] if ``anti``."""
    composed = rows[np.arange(G.order)[:, None, None], rows[None]]
    return (rows[G.table] != (composed.swapaxes(0, 1) if anti else composed)).any(axis=2)


def _inverse_perm(perm: np.ndarray) -> np.ndarray:
    """Inverse of each permutation along the last axis, as a scatter."""
    rows = perm.reshape(-1, perm.shape[-1])
    out = np.empty(rows.shape, dtype=np.int64)
    out[np.arange(len(rows))[:, None], rows] = np.arange(rows.shape[1])
    return out.reshape(perm.shape)


def injective_rows(images: np.ndarray, n: int) -> np.ndarray:
    """Which rows of a stack of arrays with entries in range(n) repeat no
    entry: each row is scattered into a row of n flags, and counts as many
    as it has entries when none repeats."""
    seen = np.zeros((len(images), n), dtype=bool)
    seen[np.arange(len(images))[:, None], images] = True
    return seen.sum(axis=1) == images.shape[1]


def first_repeat(images: np.ndarray) -> Optional[Tuple[int, int]]:
    """(row, index) of the first entry, in row-major order, of a stack of
    arrays that repeats an earlier entry of its row, or None.  A stable sort
    puts each repeat right after an equal entry of lower index."""
    rows = np.arange(len(images))[:, None]
    order = images.argsort(axis=1, kind="stable")
    ranked = images[rows, order]
    same = ranked[:, 1:] == ranked[:, :-1]
    if not same.any():
        return None
    repeats = np.zeros(images.shape, dtype=bool)
    repeats[rows, order[:, 1:]] = same
    return first_true(repeats)


def row_index(rows: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The lookup of each query (along the last axis) among ``rows``, giving
    its position or -1; exact, through one dict over the bytes of the rows."""
    def keys(a: np.ndarray) -> list:
        a = np.ascontiguousarray(a, dtype=np.int64).reshape(-1, a.shape[-1])
        return a.view(f"V{8 * a.shape[1]}").ravel().tolist()

    where = dict(zip(keys(rows), range(len(rows))))
    return lambda queries: np.array([where.get(key, -1) for key in keys(queries)],
                                    dtype=np.int64).reshape(queries.shape[:-1])


def first_true(mask: np.ndarray) -> Optional[Tuple[int, ...]]:
    """The first True index of a mask in row-major order, or None."""
    if not mask.any():
        return None
    return tuple(int(i) for i in np.unravel_index(int(mask.argmax()), mask.shape))


def arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have the same shape and entries."""
    return a.shape == b.shape and bool((a == b).all())


def subset_mask(G: FiniteGroup, elements: Iterable[int]) -> Optional[np.ndarray]:
    """The member mask of a set of elements of G, or None if one is not an
    element of G."""
    elems = [int(x) for x in elements]
    if not all(0 <= x < G.order for x in elems):
        return None
    mask = np.zeros(G.order, dtype=bool)
    mask[elems] = True
    return mask


def first_escape(maps: np.ndarray, points: np.ndarray,
                 into: np.ndarray) -> Optional[Tuple[int, int]]:
    """The first (row, point), rows outermost and points in their order, at
    which a stack of maps sends a point outside the member mask ``into``;
    None when the subset ``points`` is carried into it by every map."""
    at = first_true(~into[maps[:, points]])
    return None if at is None else (at[0], int(points[at[1]]))


def subgroup_closure(G: FiniteGroup, generators: Iterable[int]) -> List[int]:
    """Smallest subgroup containing the generators, as a sorted element list."""
    gens = [int(g) for g in generators]
    for g in gens:
        if not 0 <= g < G.order:
            raise GroupError("NotClosed", f"generator {g} out of range")
    levels = _levels(G.order, lambda g: G.table[:, g],
                     [np.array(sorted(set(gens)), dtype=np.int64)])
    return levels[-1].subgroup.tolist() if levels else [0]


def is_subgroup(G: FiniteGroup, elements: Sequence[int]) -> bool:
    members = subset_mask(G, elements)
    if members is None or not members[0]:
        return False
    S = members.nonzero()[0]
    return first_escape(G.table[S], S, members) is None


def is_normal(G: FiniteGroup, elements: Sequence[int]) -> bool:
    """Check g^-1*k*g stays in the subgroup for all g, k."""
    if not is_subgroup(G, elements):
        raise GroupError("NotSubgroup", "element set is not a subgroup")
    members = subset_mask(G, elements)
    conjugations = G.table[G.table[G.inverses], np.arange(G.order)[:, None]]
    return first_escape(conjugations, members.nonzero()[0], members) is None


class Quotient(NamedTuple):
    group: FiniteGroup
    projection: GroupHom
    section: np.ndarray


def quotient_group(G: FiniteGroup, normal_elements: Sequence[int]) -> Quotient:
    """Quotient by a normal subgroup.

    Each coset gN is one row of the gather ``G.table[:, N]``.  Cosets are
    indexed by their minimum element, sorted ascending, so the identity
    coset lands at index 0 and the section is normalized.  The minima are
    the elements that are the minimum of their own coset.
    """
    N = sorted(set(int(x) for x in normal_elements))
    if not is_normal(G, N):
        raise GroupError("NotNormal", "subgroup is not normal")
    coset_min = G.table[:, N].min(axis=1)
    reps = (coset_min == np.arange(G.order)).nonzero()[0]
    proj = reps.searchsorted(coset_min)
    Q = FiniteGroup(proj[G.table[reps[:, None], reps]], name=f"{G.name}/N" if G.name else None)
    return Quotient(Q, GroupHom(G, Q, proj), reps)


def _element_orders(G: FiniteGroup) -> np.ndarray:
    """order[x] for every element, from one power walk over all of them."""
    order = np.zeros(G.order, dtype=np.int64)
    power, k = np.arange(G.order), 1
    while not order.all():
        order[(power == 0) & (order == 0)] = k
        power = G.table[power, np.arange(G.order)]
        k += 1
    return order


# Cells one stacked pass over automorphisms may hold, checked before it is
# built: a level of the generator-image search holds candidate maps times
# group order.  Aut(Z2^4) needs 604,800 at its last level; Z2^5 would need
# 25.8 million at its fourth, and |GL(5,2)| rows at its fifth.
CELL_CAP = 1 << 20


def check_cells(cells: int, what: str) -> None:
    if cells > CELL_CAP:
        raise GroupError("OrderTooLarge", f"{what} needs {cells} cells, over the cap of {CELL_CAP}")


class _Level(NamedTuple):
    """One generator of a search and the subgroup it completes: ``columns``
    holds x * gen_j for every x and each generator so far, and each new element
    is parent * gen_j, parents in earlier waves, one (elements, parents, gens) triple per wave."""

    gen: int
    pool: int
    columns: np.ndarray
    waves: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    subgroup: np.ndarray


def _levels(order: int, column: Callable[[int], np.ndarray],
            pools: Sequence[np.ndarray]) -> List[_Level]:
    """Generators taken greedily, for each ascending pool in turn the least
    of its elements outside the subgroup generated so far, until the pool is
    inside it; each new element is written once as a word, parent * gen_i,
    in waves gathered from ``column(gen)``, x * gen for every x, one each."""
    known = np.zeros(order, dtype=bool)
    known[0] = True
    levels: List[_Level] = []
    # Each generator at least doubles the subgroup: at most log2(order) columns.
    stack = np.zeros((order, max(order.bit_length() - 1, 0)), dtype=np.int64)
    for p, pool in enumerate(pools):
        while not known[pool].all():
            g = int(pool[known[pool].argmin()])
            gens = [level.gen for level in levels] + [g]
            stack[:, len(levels)] = column(g)
            known[g] = True
            waves = []
            frontier = known.nonzero()[0]
            while frontier.size:
                prod = stack[frontier, :len(gens)]
                wave: List[Tuple[int, int, int]] = []
                for f, j in zip(*(~known[prod]).nonzero()):
                    x = int(prod[f, j])
                    if not known[x]:
                        known[x] = True
                        wave.append((x, int(frontier[f]), gens[j]))
                if wave:
                    waves.append(tuple(np.array(col, dtype=np.int64) for col in zip(*wave)))
                frontier = np.array([x for x, _, _ in wave], dtype=np.int64)
            levels.append(_Level(g, p, stack[:, :len(gens)], waves, known.nonzero()[0]))
    return levels


def _image_search(G: FiniteGroup, H: FiniteGroup, levels: List[_Level],
                  targets: Sequence[np.ndarray]) -> np.ndarray:
    """Every injective homomorphism G -> H sending each generator to an
    element of its order in ``targets[level.pool]``, as rows of images.

    The rows grow one generator at a time: each row is repeated once per
    candidate image of the next generator, the new elements are filled in
    along their words, and rows that are not injective (a flag scatter)
    or break the law on the subgroup reached so far are dropped.  The law is
    checked on the edges x -> x * gen_j, which holds it on all products.
    Rows come out in the lexicographic order of the generator images.
    """
    orders_G, orders_H = _element_orders(G), _element_orders(H)
    img = np.zeros((1, G.order), dtype=np.int64)
    gens: List[int] = []
    for level in levels:
        target = targets[level.pool]
        cands = target[orders_H[target] == orders_G[level.gen]]
        check_cells(len(img) * len(cands) * G.order,
                    f"a level of {len(img) * len(cands)} maps on order {G.order}")
        rows = len(img)
        img = img.repeat(len(cands), axis=0)
        img[:, level.gen] = cands[None].repeat(rows, axis=0).ravel()
        gens.append(level.gen)
        for elems, parents, via in level.waves:
            img[:, elems] = H.table[img[:, parents], img[:, via]]
        S = level.subgroup
        img = img[injective_rows(img[:, S], H.order)]
        lhs = img[:, level.columns[S]]
        rhs = H.table[img[:, S][:, :, None], img[:, gens][:, None, :]]
        img = img[(lhs == rhs).all(axis=(1, 2))]
    return img


def isomorphism_images(G: FiniteGroup, H: FiniteGroup,
                       stabilizing: Optional[Sequence[int]] = None) -> np.ndarray:
    """The image arrays of every isomorphism G -> H, one sorted row each.

    With ``stabilizing`` (a subgroup, for G == H) only the automorphisms
    carrying it onto itself: its generators come first and are sent into it.
    Otherwise the generators are the least elements outside the subgroup
    generated so far, so every element before gen_i lies in that subgroup,
    and the lexicographic order of generator images is that of the rows.
    """
    if G.order != H.order:
        return np.zeros((0, G.order), dtype=np.int64)
    everything, column = np.arange(G.order), lambda g: G.table[:, g]
    if stabilizing is None:
        return _image_search(G, H, _levels(G.order, column, [everything]), [everything])
    sub = np.array(sorted(set(int(x) for x in stabilizing)), dtype=np.int64)
    img = _image_search(G, H, _levels(G.order, column, [sub, everything]), [sub, everything])
    return img[sorted(range(len(img)), key=img.tolist().__getitem__)]


def automorphism_group(G: FiniteGroup) -> List[GroupHom]:
    """All automorphisms, sorted by image array (see isomorphism_images)."""
    return all_isomorphisms(G, G)


def find_isomorphism(G: FiniteGroup, H: FiniteGroup) -> Optional[GroupHom]:
    """Some isomorphism G -> H (the least by image array), or None."""
    found = all_isomorphisms(G, H)
    return found[0] if found else None


def all_isomorphisms(G: FiniteGroup, H: FiniteGroup) -> List[GroupHom]:
    return [GroupHom(G, H, img, check=False) for img in isomorphism_images(G, H)]
