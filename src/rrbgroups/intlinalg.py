"""Exact integer linear algebra: Smith normal form and the solver that reads it.

All matrices are numpy arrays with ``dtype=object`` holding Python ints, so
arithmetic never overflows.  Vectors are 1-d arrays, matrices act on column
vectors from the left.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

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
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


def zeros_matrix(n: int, m: int) -> np.ndarray:
    return np.zeros((n, m), dtype=object)


class SmithForm(NamedTuple):
    """Decomposition U @ A @ V == D with U, V unimodular.

    D is diagonal with nonnegative entries d_1 | d_2 | ... | d_r followed by
    zeros.  Uinv is the exact inverse of U.
    """

    D: np.ndarray
    U: np.ndarray
    V: np.ndarray
    Uinv: np.ndarray

    @property
    def diagonal(self) -> list:
        n, m = self.D.shape
        return [self.D[i, i] for i in range(min(n, m))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def smith_normal_form(mat: np.ndarray) -> SmithForm:
    """Smith normal form over the integers with transformation matrices."""
    A = np.array(mat, dtype=object)
    n, m = A.shape
    U, Uinv = identity_matrix(n), identity_matrix(n)
    V = identity_matrix(m)

    def row_swap(i, j):
        if i == j:
            return
        A[[i, j], :] = A[[j, i], :]
        U[[i, j], :] = U[[j, i], :]
        Uinv[:, [i, j]] = Uinv[:, [j, i]]

    def col_swap(i, j):
        if i == j:
            return
        A[:, [i, j]] = A[:, [j, i]]
        V[:, [i, j]] = V[:, [j, i]]

    def row_addmul(i, j, c):
        # row_i += c * row_j
        if c == 0:
            return
        A[i, :] += c * A[j, :]
        U[i, :] += c * U[j, :]
        Uinv[:, j] -= c * Uinv[:, i]

    def col_addmul(i, j, c):
        # col_i += c * col_j
        if c == 0:
            return
        A[:, i] += c * A[:, j]
        V[:, i] += c * V[:, j]

    def row_negate(i):
        A[i, :] = -A[i, :]
        U[i, :] = -U[i, :]
        Uinv[:, i] = -Uinv[:, i]

    def smallest_nonzero(t):
        # np.argmin returns the first of equal minima: the pivot is the first
        # entry of least absolute value in row-major order.
        block = np.abs(A[t:, t:]).ravel()
        nonzero = np.flatnonzero(block)
        if not nonzero.size:
            return None
        i, j = divmod(int(nonzero[np.argmin(block[nonzero])]), m - t)
        return t + i, t + j

    t = 0
    while t < min(n, m):
        pos = smallest_nonzero(t)
        if pos is None:
            break
        row_swap(t, pos[0])
        col_swap(t, pos[1])
        while True:
            # Reduce the pivot column, restarting with a smaller pivot when a
            # division leaves a remainder.
            restart = False
            for i in range(t + 1, n):
                if A[i, t] == 0:
                    continue
                q = A[i, t] // A[t, t]
                row_addmul(i, t, -q)
                if A[i, t] != 0:
                    row_swap(t, i)
                    restart = True
                    break
            if restart:
                continue
            for j in range(t + 1, m):
                if A[t, j] == 0:
                    continue
                q = A[t, j] // A[t, t]
                col_addmul(j, t, -q)
                if A[t, j] != 0:
                    col_swap(t, j)
                    restart = True
                    break
            if restart:
                continue
            # Pivot now clears its row and column; force it to divide the
            # rest of the block so the diagonal comes out in a chain.
            witness = np.flatnonzero((A[t + 1:, t + 1:] % A[t, t] != 0).any(axis=1))
            if not witness.size:
                break
            row_addmul(t, t + 1 + int(witness[0]), 1)
        if A[t, t] < 0:
            row_negate(t)
        t += 1

    return SmithForm(A, U, V, Uinv)


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
