"""Hermitian tridiagonal minimum-eigenvalue solver.

Bisection on the Sturm sequence; a phase similarity reduces the Hermitian
problem to real symmetric form, so only the off-diagonal magnitudes enter.
"""

from __future__ import annotations

import numpy as np

BISECT_ITERS = 120


def _min_eig(d, b2, lo, hi, iters):
    """Smallest eigenvalue of the real symmetric tridiagonal matrix with
    diagonal d and squared off-diagonal b2, by bisection on the Sturm
    sequence count over [lo, hi]."""
    n = len(d)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        q = d[0] - mid
        cnt = 1 if q < 0.0 else 0
        for i in range(1, n):
            if q == 0.0:
                q = 1e-300
            q = d[i] - mid - b2[i - 1] / q
            if q < 0.0:
                cnt += 1
        if cnt >= 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def tridiag_min_eig(diag, off) -> float:
    """Smallest eigenvalue of the Hermitian tridiagonal matrix with the given
    diagonal and first superdiagonal."""
    d = np.asarray(diag)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("diagonal must be a nonempty 1-d array")
    if np.iscomplexobj(d):
        if np.max(np.abs(d.imag)) > 1e-12 * max(1.0, np.max(np.abs(d))):
            raise ValueError("Hermitian matrix needs a real diagonal")
        d = d.real
    d = np.ascontiguousarray(d, dtype=float)
    b = np.abs(np.asarray(off, dtype=complex))
    if b.shape != (d.size - 1,):
        raise ValueError("off-diagonal length must be n - 1")
    if d.size == 1:
        return float(d[0])
    r = np.zeros_like(d)
    r[:-1] += b
    r[1:] += b
    lo = float(np.min(d - r))
    hi = float(np.max(d + r))
    b2 = np.ascontiguousarray(b * b, dtype=float)
    return float(_min_eig(d, b2, lo, hi, BISECT_ITERS))
