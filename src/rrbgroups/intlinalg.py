"""Exact linear algebra over Z/p^k: one eliminator for every lattice.

Every lattice the package meets contains E Z^n for some E, so it is known
from its images modulo the prime powers q = p^k exactly dividing E, and each
image is a submodule of (Z/q)^n.  ``howell`` puts a generating set of such a
submodule into its reduced Howell form (Howell, "Spans in the module
(Z_m)^s", 1986; Storjohann and Mulders, "Fast algorithms for linear algebra
modulo N", 1998), which depends on the submodule only.  Over Z/p^k a pivot
is an entry of least valuation in its column, so it divides every entry it
clears: elimination needs no gcd steps, no remainders and no entry past q.
The elimination also gives the left kernel of its input, as the carried
coefficients of the rows it clears (``Howell.kernel``); the form gives
membership with coefficients (``Howell.solve``), the relations among its
rows (``Howell.relations``) and presentations of quotients
(``present_mod_prime_power``).

Matrices are int64 numpy arrays; there is no other integer type and no
floating point.  A lattice enters through ``prime_powers(E, width)``, which
refuses it (ValueError) when E**2 * width >= 2**62, before any elimination.
Entries are reduced into [0, q) or [0, E) before they are multiplied, with
q <= E, so that one bound keeps every sum of products below 2**62:

- Howell elimination and solves multiply two entries below q and sum at
  most width such products (a form has at most width rows): below
  width * q**2 <= width * E**2.
- The CRT merge multiplies an idempotent below E by an entry below q, and
  sums over the prime powers q of E, whose sum is at most E: below E**2.
- Class coordinates take coefficients (below q on the at most width
  generators of each prime power q) against coordinate rows below an
  invariant factor d <= E: below width * d * E.  Embeddings take generator
  columns below E against lifts below q, the same sum.

Every modulus a group table gives divides the group's exponent, so E is at
most the order n and the bound fails only for widths past 2**62 / n**2.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np


def prime_powers(E: int, width: int) -> List[Tuple[int, int]]:
    """(p, k) for each prime power p**k exactly dividing E, for a lattice in
    Z^width containing E Z^width, after the int64 bound is checked."""
    if E * E * max(width, 1) >= 2 ** 62:
        raise ValueError(f"lattice modulo {E} in width {width} is past the int64 bound: "
                         f"E**2 * width must stay below 2**62")
    out, p = [], 2
    while E > 1:
        if p * p > E:
            p = E
        k = 0
        while E % p == 0:
            E //= p
            k += 1
        if k:
            out.append((p, k))
        p += 1
    return out


def as_int_matrix(rows: Sequence[Sequence[int]], ncols: Optional[int] = None) -> np.ndarray:
    """Copy ``rows`` into an int64 matrix; an entry outside int64 is a
    ValueError.

    ``ncols`` is required when ``rows`` is empty, since the column count
    cannot be inferred from data.
    """
    rows = [list(r) for r in rows]
    if not rows:
        if ncols is None:
            raise ValueError("ncols is required for a matrix with no rows")
        return np.zeros((0, ncols), dtype=np.int64)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError("ragged rows in integer matrix")
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), width)
    except OverflowError:
        raise ValueError("integer matrix entry outside int64") from None


def _valuation(x: np.ndarray, p: int, k: int) -> np.ndarray:
    """The p-adic valuation of each entry of x, capped at k - 1 (k for 0 is
    left to the caller)."""
    v = np.zeros(x.shape, dtype=np.int64)
    for j in range(1, k):
        v += x % p ** j == 0
    return v


def prime_power_scale(moduli: Sequence[int], q: int) -> np.ndarray:
    """q / gcd(m, q) for each modulus m: multiplying by it embeds the p-part
    Z/gcd(m, q) of Z/m in Z/q, and a congruence holds modulo gcd(m, q)
    exactly when its multiple by it holds modulo q."""
    return np.array([q // math.gcd(int(m), q) for m in moduli], dtype=np.int64)


def scale_rows(matrix: np.ndarray, scale: np.ndarray, q: int) -> np.ndarray:
    """Row i of matrix, reduced modulo q and multiplied by scale[i] modulo q."""
    return np.asarray(matrix, dtype=np.int64) % q * scale[:, None] % q


class Howell(NamedTuple):
    """The reduced Howell form over Z/p^k of the span of some rows.

    ``rows`` (r x n) are nonzero and in echelon form: row i is zero before
    column ``cols[i]`` and holds p**vals[i] there, later rows hold zero in
    that column and earlier rows an entry below p**vals[i].  The Howell
    property holds: p**(k - vals[i]) * rows[i] lies in the span of the later
    rows.  So membership is decided by reducing against the rows in order,
    and ``rows`` depends on the span only.  ``carry`` (r x t) holds extra
    columns that took every row operation but held no pivot, and ``kernel``
    holds the nonzero carry parts of the rows the elimination cleared (no
    rows when t is 0).
    """

    rows: np.ndarray
    carry: np.ndarray
    kernel: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    p: int
    k: int

    def solve(self, vecs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Coefficients Y with Y @ rows == vecs modulo q, one row of Y per
        row of vecs (reduced modulo q), and a mask of the vectors that lie
        in the span; the rows of Y outside the span are meaningless."""
        q = self.p ** self.k
        # A unit pivot is the only nonzero entry of its column, so its
        # coefficient is the vector's entry there.
        Y = vecs[:, self.cols] * (self.vals == 0)
        R = (vecs - Y @ self.rows) % q
        for i in np.flatnonzero(self.vals):
            Y[:, i] = R[:, self.cols[i]] // self.p ** int(self.vals[i])
            R = (R - Y[:, i:i + 1] * self.rows[i]) % q
        return Y, ~R.any(axis=1)

    def relations(self) -> np.ndarray:
        """Rows generating {y : y @ rows == 0 modulo q}, besides q Z^r: for
        each row whose pivot is not a unit, p**(k - vals[i]) e_i minus the
        coefficients of p**(k - vals[i]) * rows[i] over the later rows."""
        q = self.p ** self.k
        i = np.flatnonzero(self.vals)
        mult = np.array([self.p ** (self.k - int(v)) for v in self.vals[i]], dtype=np.int64)
        Y, _ = self.solve(self.rows[i] * mult[:, None] % q)
        Y = -Y % q
        Y[np.arange(len(i)), i] = mult
        return Y


def howell(matrix: np.ndarray, p: int, k: int, carry: Optional[np.ndarray] = None) -> Howell:
    """The reduced Howell form of the row span of ``matrix`` over Z/p^k.

    Columns are taken in order.  The pivot of a column is its first active
    row of least valuation v, scaled by a unit to hold p**v; it clears the
    column on the other active rows nonzero there and leaves the active set,
    and for v > 0 its multiple by p**(k - v), zero in this column, joins the
    active set (Howell's closure).  Last, each pivot reduces its column in
    the earlier pivot rows into [0, p**v).  ``carry`` takes the same row
    operations.

    The rows left over are zero in ``matrix``; with ``carry`` the identity,
    their carry parts span {y : y @ matrix == 0 modulo p**k}.  In a sum of
    pivot and leftover rows that is zero in ``matrix``, the first pivot used,
    p**v in its column, has a coefficient divisible by p**(k - v), so that
    term is a multiple of its closure row: a leftover row plus later pivots.
    """
    q = p ** k
    s, n = matrix.shape
    t = 0 if carry is None else carry.shape[1]
    # W[j] is column j over all rows: one contiguous row per column.  Slots
    # past s hold closure rows, at most one per pivot.
    W = np.zeros((n + t, s + (n if k > 1 else 0)), dtype=np.int64)
    W[:n, :s] = matrix.T % q
    if t:
        W[n:, :s] = carry.T % q
    spare = s
    pivots, cols, vals = [], [], []
    for c in range(n):
        active = W[c].nonzero()[0]
        if not active.size:
            continue
        val = _valuation(W[c, active], p, k)
        at = int(val.argmin())
        row, v = active[at], int(val[at])
        pv = p ** v
        support = W[:, row].nonzero()[0]
        piv = W[support, row] * pow(int(W[c, row]) // pv, -1, q) % q
        others = active[active != row]
        if others.size:
            grid = support[:, None], others
            W[grid] = (W[grid] - piv[:, None] * (W[c, others] // pv)) % q
        W[support, row] = 0
        full = np.zeros(n + t, dtype=np.int64)
        full[support] = piv
        pivots.append(full)
        cols.append(c)
        vals.append(v)
        if v:
            W[support, spare] = piv * p ** (k - v) % q
            spare += 1
    left = W[n:, :spare].T
    H = np.array(pivots, dtype=np.int64).reshape(len(pivots), n + t)
    for i in range(1, len(H)):
        f = H[:i, cols[i]] // p ** vals[i]
        hit = f.nonzero()[0]
        if hit.size:
            H[hit] = (H[hit] - f[hit, None] * H[i]) % q
    return Howell(H[:, :n], H[:, n:], left[left.any(axis=1)], np.array(cols, dtype=np.int64),
                  np.array(vals, dtype=np.int64), p, k)


def _local_smith(A: np.ndarray, p: int, k: int):
    """Diagonalize A over Z/p^k by row operations and tracked column ones.

    The pivot is the first entry of least valuation in the active block, so
    it divides its row and column.  Returns the exponent of each diagonal
    entry in order (k past the last pivot), the column transform V and its
    inverse: the span of the rows of A @ V is that of the diagonal.
    """
    q = p ** k
    A = A.copy()
    r, n = A.shape
    V, Vinv = np.eye(n, dtype=A.dtype), np.eye(n, dtype=A.dtype)
    exps = np.full(n, k, dtype=np.int64)
    for t in range(min(r, n)):
        block = A[t:, t:]
        val = np.where(block != 0, _valuation(block, p, k), k)
        i, j = divmod(int(val.argmin()), n - t)
        v = int(val[i, j])
        if v == k:
            break
        i, j, pv = i + t, j + t, p ** v
        A[[t, i]] = A[[i, t]]
        A[:, [t, j]] = A[:, [j, t]]
        V[:, [t, j]] = V[:, [j, t]]
        Vinv[[t, j]] = Vinv[[j, t]]
        A[t] = A[t] * pow(int(A[t, t]) // pv, -1, q) % q
        A[t + 1:] = (A[t + 1:] - (A[t + 1:, t] // pv)[:, None] * A[t]) % q
        # Column t is clear below the pivot, so clearing row t changes
        # nothing else in A.
        f = A[t, t + 1:] // pv
        A[t, t + 1:] = 0
        V[:, t + 1:] = (V[:, t + 1:] - V[:, t:t + 1] * f) % q
        Vinv[t] = (Vinv[t] + f @ Vinv[t + 1:]) % q
        exps[t] = v
    return exps, V, Vinv


def present_mod_prime_power(rows: np.ndarray, p: int, k: int):
    """(Z/q)^n modulo the span of ``rows``, q = p**k, read off its reduced
    Howell form.

    Returns (exps, to, lift): the quotient is the sum of Z/p**e over
    ``exps`` (ascending, each > 0); coordinate j of a vector x is
    ``to[j] @ x`` modulo p**exps[j], and column j of ``lift`` represents the
    j-th unit coordinate vector.  A unit pivot's row solves for its column,
    so x is congruent to x minus x_c times that row, which vanishes on every
    unit pivot column.  On the remaining columns, at most log_p of the
    quotient's order of them, the rest of the form is diagonalized by
    ``_local_smith``.
    """
    q = p ** k
    n = rows.shape[1]
    h = howell(rows, p, k)
    unit = h.vals == 0
    # The other columns, by a mask: np.setdiff1d imports numpy.ma on its
    # first call, some 15 ms of every fresh job.
    rest = np.ones(n, dtype=bool)
    rest[h.cols[unit]] = False
    rest = np.flatnonzero(rest)
    exps, V, Vinv = _local_smith(h.rows[~unit][:, rest], p, k)
    keep = exps > 0
    to = np.zeros((int(keep.sum()), n), dtype=np.int64)
    to[:, rest] = V[:, keep].T
    to[:, h.cols[unit]] = -(V[:, keep].T @ h.rows[unit][:, rest].T) % q
    lift = np.zeros((n, len(to)), dtype=np.int64)
    lift[rest] = Vinv[keep].T
    return exps[keep], to, lift
