"""Hermitian tridiagonal minimum-eigenvalue solver.

Sturm-sequence multisection, batched over a stack of matrices: each sweep
counts the negative pivots of T - x I for a fan of shifts x in every matrix's
bracket at once, and keeps the bracket between the last shift below the
smallest eigenvalue and the first above it. A phase similarity reduces the
Hermitian problem to real symmetric form, so only the off-diagonal magnitudes
enter.
"""

from __future__ import annotations

import numpy as np

SHIFTS = 31        # interior shifts per sweep; a sweep cuts a bracket 32-fold
MAX_SWEEPS = 32    # cap on sweeps: 160 bits of bracket reduction


def bidiagonal_gram(sub, scale):
    """Diagonal and superdiagonal of C diag(1/scale) C^*, where C is unit lower
    bidiagonal with subdiagonal sub. The last axis runs along the matrix;
    leading axes stack matrices."""
    diag = 1.0 / scale
    diag[..., 1:] += np.abs(sub) ** 2 / scale[..., :-1]
    return diag, np.conj(sub) / scale[..., :-1]


def gershgorin_min(diag, off):
    """Smallest Gershgorin disc edge of each Hermitian tridiagonal matrix in a
    stack (last axis along the matrix): a lower bound on its eigenvalues."""
    b = np.abs(off)
    radius = np.zeros(np.shape(diag))
    radius[..., :-1] += b
    radius[..., 1:] += b
    return np.min(diag - radius, axis=-1)


def tridiag_min_eig(diag, off):
    """Smallest eigenvalue of the Hermitian tridiagonal matrix with the given
    diagonal and first superdiagonal; for a stack of diagonals (M, n) and
    off-diagonals (M, n - 1), the M smallest eigenvalues."""
    d = np.asarray(diag)
    if d.ndim not in (1, 2) or d.size == 0:
        raise ValueError("diagonal must be a nonempty 1-d array or a stack of them")
    if np.iscomplexobj(d):
        if np.max(np.abs(d.imag)) > 1e-12 * max(1.0, np.max(np.abs(d))):
            raise ValueError("Hermitian matrix needs a real diagonal")
        d = d.real
    b = np.abs(np.asarray(off, dtype=complex))
    if b.shape != d.shape[:-1] + (d.shape[-1] - 1,):
        raise ValueError("off-diagonal length must be n - 1")
    d2 = np.atleast_2d(d).astype(float)
    b = b.reshape(d2.shape[0], -1)
    # b^2 floored at the smallest normal number, as in LAPACK's dlaneg: a
    # zero pivot gives b^2/0 = +inf and the next pivot -inf, never 0/0
    b2 = np.maximum(b * b, np.finfo(float).tiny)
    lo = gershgorin_min(d2, b)
    # Rayleigh quotients of unit vectors and of the constant vector, the
    # latter taken for the similar matrix with off-diagonals -|b|
    hi = np.minimum(np.min(d2, axis=1),
                    (d2.sum(axis=1) - 2.0 * b.sum(axis=1)) / d2.shape[1])
    # one column per matrix row, so each step of the recurrence is one slice
    dcol = list(np.ascontiguousarray(d2.T)[:, :, None])
    bcol = list(np.ascontiguousarray(b2.T)[:, :, None])
    fan = np.arange(SHIFTS + 2) / (SHIFTS + 1)
    with np.errstate(over="ignore", divide="ignore"):
        for _ in range(MAX_SWEEPS):
            # the fan spans the bracket, ends included
            x = lo[:, None] + (hi - lo)[:, None] * fan
            x[:, 0], x[:, -1] = lo, hi
            if not np.any((x > lo[:, None]) & (x < hi[:, None])):
                break    # every bracket is at rounding level: none can shrink
            # pivots q_i = d_i - x - b_{i-1}^2 / q_{i-1}, in two rolling buffers
            q = dcol[0] - x
            qmin = q.copy()
            ratio = np.empty_like(q)
            for i in range(1, d2.shape[1]):
                np.divide(bcol[i - 1], q, out=ratio)
                np.subtract(dcol[i], x, out=q)
                np.subtract(q, ratio, out=q)
                np.minimum(qmin, q, out=qmin)
            # a shift with a negative pivot lies above the smallest eigenvalue;
            # keep the bracket between the first such shift and the one below
            neg = qmin < 0.0
            neg[:, -1] = True
            j = 1 + np.argmax(neg[:, 1:], axis=1)[:, None]
            lo, hi = np.take_along_axis(x, np.hstack([j - 1, j]), axis=1).T
    mid = 0.5 * (lo + hi)
    return float(mid[0]) if d.ndim == 1 else mid
