"""Exact integer linear algebra: Smith normal form, the solver that reads it,
and kernels modulo a prime power.

Every matrix returned is a numpy array with ``dtype=object`` holding Python
ints, so results never overflow; matrices taken may also be int64.  Vectors
are 1-d arrays, matrices act on column vectors from the left.

``smith_normal_form`` eliminates in exact int64 while every entry stays below
2**31 in absolute value, and moves to Python ints (``astype(object)``) once an
entry reaches that bound; there is no floating point anywhere.  It logs its
row and column operations and replays the transforms U, U^-1 and V from the
log only when they are first read, and a kernel head replays only the rows of
V it needs.  ``kernel_mod_prime_power`` solves a system over Z/p^k by row
operations on entries below p^k, with no Smith form.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

import numpy as np


def as_int_matrix(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> np.ndarray:
    """Copy ``rows`` into an exact (object dtype) matrix.

    ``ncols`` is required when ``rows`` is empty, since the column count
    cannot be inferred from data.
    """
    rows = [list(map(int, r)) for r in rows]
    if not rows:
        if ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        return np.zeros((0, ncols), dtype=object)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in integer matrix")
    out = np.zeros((len(rows), width), dtype=object)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            out[i, j] = x
    return out


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=object)


def zeros_matrix(n: int, m: int) -> np.ndarray:
    return np.zeros((n, m), dtype=object)


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in Python ints; computed in int64 when no sum can leave it."""
    try:
        a64, b64 = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    except OverflowError:
        a64 = None
    if a64 is not None:
        bound = max(-int(a64.min(initial=0)), int(a64.max(initial=0))) \
            * max(-int(b64.min(initial=0)), int(b64.max(initial=0))) * a64.shape[-1]
        if bound < 2 ** 63:
            return (a64 @ b64).astype(object)
    return np.asarray(a, dtype=object) @ np.asarray(b, dtype=object)


_SWAP, _ADD, _NEGATE = range(3)

# With every entry below 2**31 in absolute value, a multiplier c = -(x // p)
# has |c| < 2**31, so each x + c*y of the elimination stays inside int64.
_INT64_EXACT = 2 ** 31


class SmithForm:
    """Decomposition U @ A @ V == D with U, V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... | d_r followed by
    zeros.  Uinv is the exact inverse of U.  A is taken and all four are
    returned as object-dtype matrices of Python ints, and a SmithForm unpacks
    as ``D, U, V, Uinv``.  The elimination behind it works in int64 while
    every entry stays below 2**31 in absolute value and in Python ints from
    the first entry that reaches it.  D comes out of the elimination; U,
    Uinv and V are replayed from its log of row and column operations when
    first read, and ``v_head(r)`` replays only the first r rows of V, which
    is all a kernel head reads.
    """

    def __init__(self, D: np.ndarray, row_ops: list, col_ops: list):
        self.D = D
        self._row_ops = row_ops
        self._col_ops = col_ops

    def __iter__(self):
        return iter((self.D, self.U, self.V, self.Uinv))

    @property
    def diagonal(self) -> list:
        n, m = self.D.shape
        return [self.D[i, i] for i in range(min(n, m))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    @functools.cached_property
    def U(self) -> np.ndarray:
        return _replay(self._row_ops, np.eye(self.D.shape[0], dtype=np.int64))

    @functools.cached_property
    def Uinv(self) -> np.ndarray:
        # Each row operation on U is undone by a column operation on Uinv,
        # that is by a row operation on its transpose.
        eye = np.eye(self.D.shape[0], dtype=np.int64)
        return _replay(self._row_ops, eye, inverse=True).T

    @functools.cached_property
    def V(self) -> np.ndarray:
        return self.v_head(self.D.shape[1])

    def v_head(self, r: int) -> np.ndarray:
        """The first r rows of V; column operations act on each row alone."""
        return _replay(self._col_ops, np.eye(self.D.shape[1], r, dtype=np.int64)).T


def _replay(ops: list, M: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Apply logged row operations to the rows of M, or (``inverse``) the
    transposed inverse of each, and return the result in Python ints.

    Works in int64 like the elimination, and in Python ints from the first
    multiplier or entry that reaches 2**31, or the first combination whose
    sum could leave int64.
    """
    for kind, i, j, c in ops:
        if kind == _SWAP:
            M[[i, j]] = M[[j, i]]
            continue
        if kind == _NEGATE:
            M[i] = -M[i]
            continue
        # With entries below 2**31, the inverse's sum of len(c) products stays
        # below 2**62 while max|c| * len(c) < 2**31.
        if M.dtype != object and (c.dtype == object or inverse
                                  and int(np.abs(c).max()) * len(c) >= _INT64_EXACT):
            M = M.astype(object)
        if inverse:
            M[j] -= c @ M[i]
            changed = M[j]
        else:
            M[i] += c[:, None] * M[j]
            changed = M[i]
        if M.dtype != object and np.abs(changed).max(initial=0) >= _INT64_EXACT:
            M = M.astype(object)
    return M.astype(object)


def _working_copy(mat: np.ndarray) -> np.ndarray:
    """An int64 copy of mat if every entry is below 2**31 in absolute value,
    else a copy in Python ints.  The conversion itself is the range check:
    it raises for entries beyond int64, and min and max bound the rest."""
    A = np.asarray(mat, dtype=object)
    try:
        small = A.astype(np.int64)
    except OverflowError:
        return A.copy()
    if small.size and (small.min() <= -_INT64_EXACT or small.max() >= _INT64_EXACT):
        return A.copy()
    return small


def smith_normal_form(mat: np.ndarray) -> SmithForm:
    """Smith normal form over the integers; transforms replayed on first read.

    Step t works on the active block A[t:, t:] only: every entry of rows and
    columns below t outside it is already zero.  The pivot is the first entry
    of least absolute value in row-major order.  Its column, then its row, is
    cleared in index order, and the first entry the pivot does not divide
    leaves a remainder that becomes the new pivot; once both are clear, the
    first row holding a non-multiple of the pivot is added to the pivot row,
    so the diagonal comes out in a divisibility chain.
    """
    A = _working_copy(mat)
    n, m = A.shape
    row_ops: list = []
    col_ops: list = []
    # Row summaries over the active block, so that neither the pivot nor the
    # divisibility witness needs a scan of the block.  S[i, 0] is 0 exactly
    # when row i is zero, else at most its least nonzero absolute value, and
    # equal to it unless the row is stale; S[i, 1] divides the gcd of the
    # row's entries.  Column swaps keep both.  A stale row is summarized
    # again only when its bound could decide the pivot, and a row whose gcd
    # bound the pivot does not divide only when it could be the witness.
    S = np.zeros((n, 2), dtype=A.dtype)
    stale = np.zeros(n, dtype=bool)

    def summarize(rows):
        if not rows.size:
            return
        block = A[rows, t:]
        nonzero = block != 0
        counts = nonzero.sum(axis=1)
        live = counts > 0
        S[rows] = 0
        if live.any():
            mag = np.abs(block[nonzero])
            seg = (np.cumsum(counts) - counts)[live]
            S[rows[live], 0] = np.minimum.reduceat(mag, seg)
            S[rows[live], 1] = np.gcd.reduceat(mag, seg)
        stale[rows] = False

    def loosen(rows, mag):
        # Nonzero rows had some entries changed to magnitudes ``mag``.  The
        # new bound min(old bound, least nonzero of mag) is exact when one of
        # the new entries attains it.
        old = S[rows]
        low = np.minimum(old[:, 0], np.where(mag == 0, old[:, :1], mag).min(axis=1))
        S[rows] = np.stack([low, np.gcd(old[:, 1], np.gcd.reduce(mag, axis=1))], axis=1)
        stale[rows] = (mag != low[:, None]).all(axis=1)

    def row_swap(i):
        if i != t:
            A[[t, i], t:] = A[[i, t], t:]
            S[[t, i]] = S[[i, t]]
            stale[[t, i]] = stale[[i, t]]
            row_ops.append((_SWAP, t, i, None))

    def col_swap(j):
        if j != t:
            A[t:, [t, j]] = A[t:, [j, t]]
            col_ops.append((_SWAP, t, j, None))

    def row_add(rows, src, c):
        # rows += c * row src in one update over the source row's support:
        # the source row is read unchanged and the targets are distinct, so
        # the ops commute.
        nonlocal A, S
        grid = rows[:, None], t + A[src, t:].nonzero()[0]
        new = A[grid] + c[:, None] * A[src, grid[1]]
        A[grid] = new
        row_ops.append((_ADD, rows, src, c))
        mag = np.abs(new)
        if A.dtype != object and mag.max() >= _INT64_EXACT:
            A, S, mag = A.astype(object), S.astype(object), mag.astype(object)
        loosen(rows, mag)

    def reductions(line):
        """Clearing ops for ``line`` (the rest of the pivot's column or row):
        the indices up to and including the first entry the pivot does not
        divide, their nonzero multipliers, and that entry's index or None."""
        idx = line.nonzero()[0]
        q = line[idx] // A[t, t]
        left = (line[idx] % A[t, t]).nonzero()[0]
        if left.size:
            idx, q = idx[:left[0] + 1], q[:left[0] + 1]
        idx = t + 1 + idx
        keep = q != 0
        return idx[keep], -q[keep], int(idx[-1]) if left.size else None

    def pivot():
        # The first row at the least bound holds the pivot once it is exact:
        # no row has a smaller entry and no earlier row one as small.  Stale
        # rows at that bound ahead of the first exact one are summarized
        # again until the first is exact.  The pivot is then the row's first
        # entry of that value (argmax keeps the first of equal maxima).
        while True:
            live = t + S[t:, 0].nonzero()[0]
            if not live.size:
                return None
            bounds = S[live, 0]
            least = live[bounds == bounds.min()]
            exact = (~stale[least]).nonzero()[0]
            loose = least[:exact[0]] if exact.size else least
            if not loose.size:
                break
            summarize(loose)
        i = int(least[0])
        return i, t + int((np.abs(A[i, t:]) == S[i, 0]).argmax())

    t = 0
    if A.size:
        summarize(np.arange(n))
    while t < min(n, m):
        pos = pivot()
        if pos is None:
            break
        row_swap(pos[0])
        col_swap(pos[1])
        while True:
            rows, c, i = reductions(A[t + 1:, t])
            if rows.size:
                row_add(rows, t, c)
            if i is not None:
                row_swap(i)
                continue
            cols, c, j = reductions(A[t, t + 1:])
            if cols.size:
                # Column t is clear below the pivot, so these column ops
                # change row t only, to remainders smaller than the pivot.
                A[t, cols] += c * A[t, t]
                col_ops.append((_ADD, cols, t, c))
                # Row t is read again only if a remainder swaps it down: a
                # bound of 1 and a divisor of 1 hold for any nonzero row.
                S[t], stale[t] = 1, True
            if j is not None:
                col_swap(j)
                continue
            if abs(A[t, t]) == 1:
                break
            # A row whose gcd bound the pivot divides holds only multiples.
            suspects = t + 1 + (S[t + 1:, 1] % A[t, t]).nonzero()[0]
            summarize(suspects)
            witness = suspects[S[suspects, 1] % A[t, t] != 0]
            if not witness.size:
                break
            row_add(np.array([t]), int(witness[0]), np.ones(1, dtype=np.int64))
        if A[t, t] < 0:
            A[t, t] = -A[t, t]
            row_ops.append((_NEGATE, t, None, None))
        t += 1

    D = np.zeros((n, m), dtype=object)
    diag = np.arange(min(n, m))
    D[diag, diag] = A[diag, diag]
    return SmithForm(D, row_ops, col_ops)


def kernel_mod_prime_power(matrix: np.ndarray, moduli: Sequence[int], p: int, k: int) -> np.ndarray:
    """A basis (m columns) of {x in Z^m : matrix @ x == 0 mod p-parts of moduli}.

    With q = p**k, row i holds modulo gcd(moduli[i], q) exactly when row i
    scaled by q / gcd(moduli[i], q) holds modulo q, so the scaled rows are
    solved over Z/q.  Row operations there do not change the solutions.
    Each column in turn takes as pivot an active row holding a unit, then,
    once no column has one, an entry of the lowest valuation v; every
    active entry is then a multiple of p**v, so the pivot clears its column
    on the rows nonzero there, and its row leaves the active set.  With the
    pivot columns first, pivot t asks x_t == -u_t^-1 (its row beyond the
    pivot, over p**v_t) modulo p**(k - v_t), and the other columns are
    free.  The basis is upper triangular in that order, with p**(k - v_t)
    or 1 on the diagonal and every entry below q.

    Works in int64 when q*q*m fits, else in Python ints; returned in
    Python ints.
    """
    q = p ** k
    m = matrix.shape[1]
    scale = np.array([q // math.gcd(int(mi), q) for mi in moduli], dtype=object)
    W = np.asarray(matrix).T
    if q * q * max(m, 1) < 2 ** 62:
        try:
            W = W.astype(np.int64)
        except OverflowError:
            W = (W % q).astype(np.int64)
        scale = scale.astype(np.int64)
    else:
        W = W.astype(object)
    # W[j] is column j of the scaled matrix: one contiguous row per column.
    W = np.ascontiguousarray(W % q * scale % q)
    pivots = []
    free = np.ones(m, dtype=bool)
    for v in range(k):
        pv = p ** v
        found = True
        while found:
            found = False
            for c in np.flatnonzero(free):
                rows = W[c].nonzero()[0]
                units = rows[W[c, rows] // pv % p != 0]
                if not units.size:
                    continue
                row = units[0]
                support = W[:, row].nonzero()[0]
                entries = W[support, row]
                inv = pow(int(W[c, row] // pv), -1, q // pv)
                rows = rows[rows != row]
                mult = W[c, rows] // pv * inv % (q // pv)
                grid = np.ix_(support, rows)
                W[grid] = (W[grid] - entries[:, None] * mult) % q
                W[support, row] = 0
                free[c] = False
                pivots.append((c, pv, inv, support, entries))
                found = True
    order = [c for c, *_ in pivots] + np.flatnonzero(free).tolist()
    at = np.empty(m, dtype=np.int64)
    at[order] = np.arange(m)
    B = np.eye(m, dtype=W.dtype)
    for t in range(len(pivots) - 1, -1, -1):
        c, pv, inv, support, entries = pivots[t]
        d = q // pv
        beyond = support != c
        B[t] = -(entries[beyond] // pv @ B[at[support[beyond]]] % d) * inv % d
        B[t, t] = d
    X = np.empty_like(B)
    X[order] = B
    return X.astype(object)


def solve_with_snf(snf: SmithForm, rhs: np.ndarray) -> Optional[np.ndarray]:
    """One integer solution x of ``A @ x == rhs`` from the Smith form of A, or None."""
    n, m = snf.D.shape
    c = snf.U @ np.asarray(rhs, dtype=object)
    y = np.zeros(m, dtype=object)
    for i in range(n):
        d = snf.D[i, i] if i < min(n, m) else 0
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    return snf.V @ y
