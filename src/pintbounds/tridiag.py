"""Hermitian tridiagonal minimum-eigenvalue solvers.

tridiag_min_eig is a Sturm-sequence multisection, batched over a stack of
matrices: each sweep tests T - x I for a negative pivot at a fan of shifts x
in every matrix's bracket at once, and keeps the bracket between the last
shift below the smallest eigenvalue and the first above it. The pivots are
those of a twisted factorization at the middle row, as in LAPACK's dlaneg:
the top-down and bottom-up recurrences run side by side, so a sweep takes
about n/2 sequential steps, done over contiguous blocks of rows. A phase
similarity reduces the Hermitian problem to real symmetric form, so only the
off-diagonal magnitudes enter.

tridiag_stack_min resolves only the smallest eigenvalue over the stack, for
timedep_exact_norm, with the same test, start brackets and bracket rule.
Before each sweep it drops every matrix whose bracket lies wholly above
another's, and spreads a fixed budget of LANES shifts over the matrices
left, so a stack whose minima separate soon sweeps one matrix with a wide
fan. tridiag_min_eig, which resolves every matrix with a fan of SHIFTS, is
its reference.

relaxed_toeplitz_min is the closed form for the one family with constant
entries, the per-mode Gram matrices of a normal pair: the root of a secular
equation in one angle, for every matrix of a batch at once.
"""

from __future__ import annotations

import math

import numpy as np

SHIFTS = 7         # interior shifts per sweep; a sweep cuts a bracket 8-fold
# cap on sweeps: 160 bits of bracket reduction whatever the fan
MAX_SWEEPS = math.ceil(160 / math.log2(SHIFTS + 1))
BLOCK = 32         # pivot steps per block of rows
LANES = 64         # shifts per sweep of tridiag_stack_min, over all matrices
NEWTON_STEPS = 64  # cap on safeguarded Newton steps of the secular equation
G_ROUNDING = 16    # rounding bound of the secular function, in units of eps
RUNGS = (2.0 ** -44, 2.0 ** -36, 2.0 ** -28, 2.0 ** -20)  # its bracket's half-widths


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


class TwistedSturm:
    """Negative-pivot test of T - x I for a stack of real symmetric
    tridiagonal matrices with diagonals d (M, n) and squared off-diagonals
    b2 (M, n - 1), twisted at the middle row r = n // 2.

    The top-down pivots q+_i = d_i - x - b2_{i-1} / q+_{i-1} of rows
    0 ... r - 1 and the bottom-up pivots q-_i = d_i - x - b2_i / q-_{i+1}
    of rows n - 1 ... r + 1 advance together, half 0 and half 1 of one
    (2, M, S) array per step, and the twist pivot
    g_r = d_r - x - b2_{r-1} / q+_{r-1} - b2_r / q-_{r+1} closes the
    factorization T - x I = N diag(q+, g_r, q-) N^T with N unit twisted
    triangular. By Sylvester's law of inertia T - x I has as many negative
    eigenvalues as these pivots (Dhillon and Parlett, LAA 387, 2004). For
    even n the bottom half is one row short; it starts from a pad pivot of
    +inf, which couples to the next row by b2 / inf = 0.

    A zero pivot makes the next ratio infinite; with b2 floored above zero
    it is never 0/0, and the pivot after it is -inf. The twist pivot is
    inf - inf = NaN only when its two neighbours are zero or nearly so, with
    opposite signs: one of them stands for a negative pivot, so a NaN twist
    counts as negative."""

    def __init__(self, d, b2):
        m, n = d.shape
        r = n // 2
        pad = 2 * r + 1 - n
        self.steps = r
        # row values in step order, (steps, 2, M): d, and the b2 that
        # couples each step to the one before (none into the first)
        self.d = np.empty((r, 2, m))
        self.d[:, 0] = d[:, :r].T
        self.d[pad:, 1] = d[:, :r:-1].T
        self.d[:pad, 1] = np.inf
        self.b2 = np.zeros((r, 2, m))
        self.b2[1:, 0] = b2[:, :r - 1].T
        self.b2[pad + 1:, 1] = b2[:, n - 2:r:-1].T
        self.mid = d[:, r, None]
        self.twist = np.zeros((2, m, 1))
        if r > 0:
            self.twist[0, :, 0] = b2[:, r - 1]
        if r < n - 1:
            self.twist[1, :, 0] = b2[:, r]

    def keep(self, rows):
        """Restrict the test to the matrices that rows (a boolean mask or
        index array over the stack) selects."""
        self.d = self.d[:, :, rows]
        self.b2 = self.b2[:, :, rows]
        self.mid = self.mid[rows]
        self.twist = self.twist[:, rows]

    def below(self, x):
        """Boolean (M, S): whether matrix m has an eigenvalue below x[m, s]."""
        shape = (2,) + x.shape
        # row 0 carries the last pivot of the block before; the ratios are
        # laid out at the pivots' shape, so each step is one divide and one
        # subtract of same-shape contiguous arrays
        piv = np.empty((min(BLOCK, self.steps) + 1,) + shape)
        ratio = np.empty((min(BLOCK, self.steps),) + shape)
        rows = list(zip(ratio, piv[:-1], piv[1:]))
        low = np.full(shape, np.inf)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for start in range(0, self.steps, BLOCK):
                size = min(BLOCK, self.steps - start)
                np.subtract(self.d[start:start + size, :, :, None], x,
                            out=piv[1:size + 1])
                np.copyto(ratio[:size], self.b2[start:start + size, :, :, None])
                for rat, before, after in rows[start == 0:size]:
                    np.divide(rat, before, out=rat)
                    np.subtract(after, rat, out=after)
                np.minimum(low, piv[1:size + 1].min(axis=0), out=low)
                piv[0] = piv[size]
            twist = self.mid - x
            if self.steps:
                ratio = self.twist / piv[0]
                twist -= ratio[0]
                twist -= ratio[1]
        return (low < 0.0).any(axis=0) | ~(twist >= 0.0)


def _real_stack(diag, off):
    """(d, d2, b): the validated diagonal, the stack of real diagonals
    (M, n) and the off-diagonal magnitudes (M, n - 1) of one Hermitian
    tridiagonal matrix or a stack of them."""
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
    return d, d2, b.reshape(d2.shape[0], -1)


def _start(d2, b):
    """(sturm, lo, hi): the negative-pivot test of the stack and a proven
    bracket on each matrix's smallest eigenvalue."""
    # b^2 floored at the smallest normal number, as in LAPACK's dlaneg: a
    # zero pivot gives b^2/0 = +inf and the next pivot -inf, never 0/0
    sturm = TwistedSturm(d2, np.maximum(b * b, np.finfo(float).tiny))
    lo = gershgorin_min(d2, b)
    # Rayleigh quotients of unit vectors and of the constant vector, the
    # latter taken for the similar matrix with off-diagonals -|b|
    hi = np.minimum(np.min(d2, axis=1),
                    (d2.sum(axis=1) - 2.0 * b.sum(axis=1)) / d2.shape[1])
    return sturm, lo, hi


def _sweep(sturm, lo, hi, shifts: int):
    """The brackets (lo, hi) after one sweep of the given number of interior
    shifts, or None when every bracket is at rounding level and none can
    shrink."""
    # the fan spans the bracket, ends included
    fan = np.arange(shifts + 2) / (shifts + 1)
    x = lo[:, None] + (hi - lo)[:, None] * fan
    x[:, 0], x[:, -1] = lo, hi
    if not np.any((x > lo[:, None]) & (x < hi[:, None])):
        return None
    # a shift with an eigenvalue below it lies above the smallest one; keep
    # the bracket between the first such shift and the one below
    neg = np.ones(x.shape, dtype=bool)
    neg[:, 1:-1] = sturm.below(x[:, 1:-1])
    j = 1 + np.argmax(neg[:, 1:], axis=1)[:, None]
    return np.take_along_axis(x, np.hstack([j - 1, j]), axis=1).T


def tridiag_min_eig(diag, off):
    """Smallest eigenvalue of the Hermitian tridiagonal matrix with the given
    diagonal and first superdiagonal; for a stack of diagonals (M, n) and
    off-diagonals (M, n - 1), the M smallest eigenvalues."""
    d, d2, b = _real_stack(diag, off)
    sturm, lo, hi = _start(d2, b)
    with np.errstate(over="ignore"):
        for _ in range(MAX_SWEEPS):
            bracket = _sweep(sturm, lo, hi, SHIFTS)
            if bracket is None:
                break
            lo, hi = bracket
    mid = 0.5 * (lo + hi)
    return float(mid[0]) if d.ndim == 1 else mid


def tridiag_stack_min(diag, off) -> float:
    """Smallest eigenvalue over a stack of Hermitian tridiagonal matrices
    (diagonals (M, n), off-diagonals (M, n - 1)), or of one matrix: the
    minimum of tridiag_min_eig's M values, from the same start brackets,
    bracket rule and stop rule.

    Before each sweep a matrix whose bracket lies wholly above another's is
    dropped: lambda_min(T_m) >= lo_m > hi_j >= lambda_min(T_j), so it cannot
    hold the minimum. (A bracket whose ends crossed in rounding stands for
    its own upper end by lo, so the stack never empties.) The sweep spreads
    LANES shifts over the matrices left, at least SHIFTS each, so once one
    matrix is left a sweep cuts its bracket (LANES + 1)-fold where
    tridiag_min_eig cuts each 8-fold."""
    _, d2, b = _real_stack(diag, off)
    sturm, lo, hi = _start(d2, b)
    with np.errstate(over="ignore"):
        for _ in range(MAX_SWEEPS):
            live = ~(lo > np.min(np.maximum(lo, hi)))
            if not live.all():
                sturm.keep(live)
                lo, hi = lo[live], hi[live]
            bracket = _sweep(sturm, lo, hi, max(SHIFTS, LANES // lo.size))
            if bracket is None:
                break
            lo, hi = bracket
    return float(np.min(0.5 * (lo + hi)))


def _secular(theta, m, n: int):
    """g(theta) = sin((n + 1) theta) - m sin(n theta), written as
    2 sin(theta/2) cos((2n + 1) theta/2) + (1 - m) sin(n theta), which keeps
    its rounding error near the root small when m is near 1."""
    half = 0.5 * theta
    return (2.0 * np.sin(half) * np.cos((2 * n + 1) * half)
            + (1.0 - m) * np.sin(n * theta))


def _lam(theta, m):
    """(1 - m)^2 + 4 m sin^2(theta/2): 1 + m^2 - 2 m cos(theta) without its
    cancellation at m near 1."""
    return (1.0 - m) ** 2 + 4.0 * m * np.sin(0.5 * theta) ** 2


def relaxed_toeplitz_min(mu, n: int):
    """(lam, lam_low, theta, certified) for the smallest eigenvalue of
    T = C C^*, C unit lower bidiagonal of order n with subdiagonal -mu, for
    every mu of a 1-d array with |mu| < 1 at once. T is tridiagonal Toeplitz
    with diagonal 1 + m^2, off-diagonal -conj(mu), m = |mu|, and first
    diagonal entry relaxed to 1.

    The similarity D = diag(e^{i j arg mu}) makes the off-diagonal -m. With
    lam = 1 + m^2 - 2 m cos(theta), the interior rows hold for
    v_j = sin((n + 1 - j) theta), j = 1 ... n, and the last one because
    v_{n+1} = 0; the relaxed first row holds exactly when
    g(theta) = sin((n + 1) theta) - m sin(n theta) = 0 (Kulkarni, Schmidt
    and Tsui, LAA 297, 1999; Yueh, AMEN 5, 2005). The eigenvector of T is
    D v, and v_n = sin(theta) is not zero.

    Why the root in (0, pi/(n + 1)) gives the smallest eigenvalue: T is the
    unrelaxed Toeplitz matrix, whose smallest eigenvalue is lam at
    theta = pi/(n + 1), less m^2 e_1 e_1^*, so by interlacing at most one
    eigenvalue of T lies below that one. lam rises with theta on (0, pi),
    so a root in the interval gives an eigenvalue below it: the smallest.
    The root exists and is the only one below pi/n: g > 0 on
    (0, pi/(2n + 1)], where both terms of
    g = 2 sin(theta/2) cos((2n + 1) theta/2) + (1 - m) sin(n theta) are
    nonnegative and the second is positive as m < 1, and g < 0 on
    [pi/(n + 1), pi/n) for m > 0, where sin((n + 1) theta) <= 0 <
    m sin(n theta). (For m = 0, T = I and lam = 1 for every theta.) Every
    eigenvalue is at least (1 - m)^2, as ||C - I|| = m, so none lies on a
    hyperbolic branch; make_pair makes a pair normal only when every
    |mu| < 1.

    Newton steps safeguarded by bisection find the root inside the proven
    bracket [lo, hi], lo just below pi/(2n + 1) and hi midway between
    pi/(n + 1) and pi/n. It is certified by the bracket theta (1 -+ d),
    clipped to [lo, hi], for the smallest d of RUNGS at which each end is a
    proven end or a point where the evaluated g has the end's sign and
    exceeds G_ROUNDING eps (2 sin(theta/2) + 1 - m) in size. That bounds
    the rounding error of g: its arguments round by at most eps pi/2, each
    sine and cosine by at most 4 ulps, and the products and the sum by a
    unit each. lam_low is lam at the bracket's low end, lowered by 16 eps
    for the rounding of the formula, so no eigenvalue of T lies below it.
    Where no rung holds, certified is False and lam_low comes from lo. lam
    is computed as (1 - m)^2 + 4 m sin^2(theta/2), which does not cancel at
    m near 1."""
    m = np.abs(np.asarray(mu, dtype=complex))
    if m.ndim != 1 or n < 1:
        raise ValueError("need a 1-d array of mu and n >= 1")
    if not np.all(m < 1.0):
        raise ValueError("need |mu| < 1")
    eps = np.finfo(float).eps
    lo0 = np.pi / (2 * n + 1) * (1.0 - 2.0 * eps)
    hi0 = np.pi * (2 * n + 1) / (2 * n * (n + 1))    # between the two ends
    lo, hi = np.full(m.shape, lo0), np.full(m.shape, hi0)
    theta = 0.5 * (lo + hi)
    for _ in range(NEWTON_STEPS):
        g = _secular(theta, m, n)
        slope = (n + 1) * np.cos((n + 1) * theta) - m * n * np.cos(n * theta)
        up = g > 0.0
        np.copyto(lo, theta, where=up)
        np.copyto(hi, theta, where=~up)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = theta - g / slope
        inside = (step >= lo) & (step <= hi)
        new = np.where(inside, step, 0.5 * (lo + hi))
        done = np.all(np.abs(new - theta) <= 2.0 * eps * theta)
        theta = new
        if done:
            break
    # certified bracket: the narrowest rung whose ends carry proven signs
    rungs = np.array(RUNGS)[:, None]
    a = np.maximum(theta * (1.0 - rungs), lo0)
    b = np.minimum(theta * (1.0 + rungs), hi0)

    def err(t):
        return G_ROUNDING * eps * (2.0 * np.sin(0.5 * t) + 1.0 - m)

    holds = (((_secular(a, m, n) > err(a)) | (a == lo0))
             & ((_secular(b, m, n) < -err(b)) | (b == hi0)))
    certified = holds.any(axis=0)
    rung = np.argmax(holds, axis=0)
    low = np.where(certified, a[rung, np.arange(m.size)], lo0)
    return (_lam(theta, m), _lam(low, m) * (1.0 - 16.0 * eps), theta,
            certified)
