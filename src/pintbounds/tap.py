"""Temporal approximation constants.

Computes the phase-minimized norms min_x ||(I - e^{ix} Psi)^p v|| and the
approximation constants that bound two-level convergence: the vector form
(sup over v, evaluated as a phase sweep of largest singular values), its
inverse form, and the eigenvalue form for simultaneously diagonalizable
pairs, for F- and FCF-relaxation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import StepperPair, ill_conditioned, matrix_power

PHASE_GRID = 1024      # uniform phases sampled before refinement
FAN = 33               # phases per refinement fan; 32 cells, two are kept
REFINE_ROUNDS = 8      # each round narrows every interval 16-fold
STACK_ENTRIES = 2**18  # most matrix entries one stacked evaluation holds


@dataclass(frozen=True)
class TapResult:
    value: float
    maximizer: object   # attaining vector, or eigenvalue index
    phase: float
    method: str
    certified: bool


def _as_matrix(psi) -> np.ndarray:
    return psi.matrix if hasattr(psi, "matrix") else np.asarray(psi, dtype=complex)


def _check_relaxation(relaxation: str):
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")


def _evaluate(fun, xs: np.ndarray, dim: int, skip) -> np.ndarray:
    """fun at the phases xs, passed in chunks whose dim x dim stacks hold at
    most STACK_ENTRIES entries; NaN at the phases skip masks, which fun never
    sees."""
    vals = np.full(xs.shape, np.nan)
    keep = np.arange(xs.size) if skip is None else np.flatnonzero(~skip(xs))
    chunk = max(1, STACK_ENTRIES // dim**2)
    for start in range(0, keep.size, chunk):
        idx = keep[start:start + chunk]
        vals[idx] = fun(xs[idx])
    return vals


def _extremum_over_phases(fun, dim: int, minimize=False, skip=None):
    """(phase, value) of the extremum of a smooth 2*pi-periodic function.

    fun maps an array of phases to an array of values, through stacks of
    dim x dim matrices; skip, if given, maps phases to a mask of those not to
    evaluate. A uniform grid is refined at all its local extrema at once:
    each round evaluates a fan across every candidate's interval and narrows
    the interval to the two cells around the fan's best phase."""
    sign = 1.0 if minimize else -1.0
    xs = np.linspace(0.0, 2.0 * np.pi, PHASE_GRID, endpoint=False)
    sv = sign * _evaluate(fun, xs, dim, skip)
    if np.all(np.isnan(sv)):
        raise ValueError("no admissible phase samples")
    sv = np.where(np.isnan(sv), np.inf, sv)
    best = int(np.argmin(sv))
    best_x, best_v = xs[best], sv[best]
    left, right = np.roll(sv, 1), np.roll(sv, -1)
    # a point of a flat stretch is no extremum to refine
    centers = xs[np.isfinite(sv) & (sv <= np.minimum(left, right))
                 & (sv < np.maximum(left, right))]
    half = 2.0 * np.pi / PHASE_GRID
    offsets = np.linspace(-1.0, 1.0, FAN)
    rows = np.arange(centers.size)
    for _ in range(REFINE_ROUNDS if centers.size else 0):
        fan = centers[:, None] + half * offsets
        vals = sign * _evaluate(fun, fan.ravel(), dim, skip).reshape(fan.shape)
        vals = np.where(np.isnan(vals), np.inf, vals)
        j = np.argmin(vals, axis=1)
        centers, tops = fan[rows, j], vals[rows, j]
        i = int(np.argmin(tops))
        if tops[i] < best_v:
            best_x, best_v = centers[i], tops[i]
        half *= 2.0 / (FAN - 1)     # one fan cell either side
    return float(best_x % (2.0 * np.pi)), float(sign * best_v)


def _phase_poly_coeffs(psi: np.ndarray, v: np.ndarray, p: int):
    """Coefficient vectors c_m of (I - e^{ix} psi)^p v = sum_m e^{imx} c_m."""
    coeffs = [np.asarray(v, dtype=complex)]
    for _ in range(p):
        nxt = [coeffs[0]]
        for m in range(1, len(coeffs)):
            nxt.append(coeffs[m] - psi @ coeffs[m - 1])
        nxt.append(-psi @ coeffs[-1])
        coeffs = nxt
    return np.array(coeffs)


def min_phase_norm(psi, v: np.ndarray, p: int = 1):
    """min over x of ||(I - e^{ix} Psi)^p v|| and the minimizing phase.

    For p = 1 the closed form sqrt(||v||^2 + ||Psi v||^2 - 2 |<Psi v, v>|)
    holds, attained at x = -arg <Psi v, v>; higher powers are swept.
    """
    m = _as_matrix(psi)
    v = np.asarray(v, dtype=complex)
    nv = np.linalg.norm(v)
    if nv == 0:
        raise ValueError("zero vector")
    if p == 1:
        mv = m @ v
        inner = np.vdot(v, mv)   # <Psi v, v>, conjugation on v
        val = math.sqrt(max(0.0, nv**2 + np.linalg.norm(mv)**2 - 2.0 * abs(inner)))
        x = float((-np.angle(inner)) % (2.0 * np.pi)) if inner != 0 else 0.0
        return val, x
    coeffs = _phase_poly_coeffs(m, v, p)
    powers = np.arange(p + 1)

    def fun(xs):
        return np.linalg.norm(np.exp(1j * np.outer(xs, powers)) @ coeffs, axis=1)

    x, val = _extremum_over_phases(fun, m.shape[0], minimize=True)
    return val, x


def _psi_poles(pair: StepperPair):
    """Mask of the phases x at which I - e^{ix} Psi is within 1e-8 of
    singular, or None when no eigenvalue of Psi lies that near the unit
    circle."""
    eigs = np.linalg.eigvals(pair.coarse.matrix)
    on_circle = eigs[np.abs(np.abs(eigs) - 1.0) < 1e-8]
    if on_circle.size == 0:
        return None

    def skip(xs):
        z = np.exp(1j * xs)[:, None]
        return np.any(np.abs(1.0 - z * on_circle) < 1e-8, axis=1)

    return skip


def _den_inverse(pair: StepperPair, relaxation: str, p: int,
                 xs: np.ndarray) -> np.ndarray:
    """Stack of denominator(x)^{-p} over the phases xs: (I - e^{ix} Psi)^{-1},
    times Phi^k for FCF, to the p-th power."""
    psi = pair.coarse.matrix
    z = np.exp(1j * xs)[:, None, None]
    base = np.linalg.inv(np.eye(psi.shape[0]) - z * psi)
    if relaxation == "FCF":
        base = base @ pair.fine_power
    return np.linalg.matrix_power(base, p)


def _gsv_sweep(pair: StepperPair, relaxation: str, p: int):
    """max over x of the largest generalized singular value of the pair
    {(Psi - Phi^k)^p, denominator(x)^p}."""
    num = matrix_power(pair.coarse_defect, p)

    def fun(xs):
        m = num @ _den_inverse(pair, relaxation, p, xs)
        return np.linalg.svd(m, compute_uv=False)[:, 0]

    x, val = _extremum_over_phases(fun, pair.dim, skip=_psi_poles(pair))
    return x, val, num


def tap_constant(pair: StepperPair, relaxation: str = "F",
                 p: int = 1) -> TapResult:
    """sup over v of ||(Psi - Phi^k)^p v|| / min_x ||denominator(x)^p v||.

    The two maxima swap, so away from the poles of Psi this is
    max_x sigma_max((Psi - Phi^k)^p denominator(x)^{-p}). Certified through
    the eigenvalue path for normal shared-eigendecomposition pairs; otherwise
    that phase sweep, whose maximizer is the top right singular vector at the
    best phase mapped through denominator(x)^{-p}.
    """
    _check_relaxation(relaxation)
    if p < 1:
        raise ValueError("power must be >= 1")
    if relaxation == "FCF" and ill_conditioned(pair.fine_power_sv):
        raise ValueError("fine-propagator power is singular; FCF constant undefined")
    if pair.normal:
        res = teap_constant(pair, relaxation)
        return TapResult(res.value ** p, res.maximizer, res.phase,
                         "eigenvalue", True)

    x_hat, sweep, num = _gsv_sweep(pair, relaxation, p)
    di = _den_inverse(pair, relaxation, p, np.array([x_hat]))[0]
    _, _, vh = np.linalg.svd(num @ di)
    v = di @ vh[0].conj()
    v /= np.linalg.norm(v)
    return TapResult(float(sweep), v, float(x_hat), "phase-sweep", False)


def itap_constant(pair: StepperPair, relaxation: str = "F") -> TapResult:
    """max_x sigma_max((I - e^{ix} Psi)^{-1} (Psi - Phi^k) [Phi^k])."""
    _check_relaxation(relaxation)
    if _psi_poles(pair) is not None:
        raise ValueError("phase singularity: coarse stepper has a unit-circle eigenvalue")
    if relaxation == "FCF" and ill_conditioned(pair.fine_power_sv):
        raise ValueError("fine-propagator power is singular; FCF constant undefined")
    psi = pair.coarse.matrix
    eye = np.eye(psi.shape[0])
    tail = pair.coarse_defect
    if relaxation == "FCF":
        tail = tail @ pair.fine_power

    def fun(xs):
        den = eye - np.exp(1j * xs)[:, None, None] * psi
        return np.linalg.svd(np.linalg.solve(den, tail),
                             compute_uv=False)[:, 0]

    # a sampled sweep, so not a proven maximum
    x, val = _extremum_over_phases(fun, pair.dim)
    return TapResult(float(val), None, float(x), "phase-sweep", False)


def teap_constant(pair: StepperPair, relaxation: str = "F") -> TapResult:
    """max_i |mu_i - lambda_i^k| (|lambda_i^k| for FCF) / (1 - |mu_i|)."""
    _check_relaxation(relaxation)
    e = pair.shared_eig
    if e is None:
        raise ValueError("eigenvalue constant needs a shared eigendecomposition")
    mu_abs = np.abs(e.coarse_values)
    if np.any(mu_abs >= 1.0):
        raise ValueError("coarse eigenvalue magnitude >= 1")
    lam_k = e.fine_values ** pair.k
    vals = np.abs(e.coarse_values - lam_k) / (1.0 - mu_abs)
    if relaxation == "FCF":
        vals = vals * np.abs(lam_k)
    idx = int(np.argmax(vals))
    phase = float(np.angle(e.coarse_values[idx]) % (2.0 * np.pi))
    return TapResult(float(vals[idx]), idx, phase, "eigenvalue", True)


def stability_decay(pair: StepperPair, grid) -> tuple[float, float | None]:
    """Amplification factors ||Psi^{N_c}|| and ||Phi^{-k} Psi^{N_c} Phi^k||;
    the second is None when Phi^k is singular."""
    psi_nc = matrix_power(pair.coarse.matrix, grid.n_coarse)
    first = float(np.linalg.svd(psi_nc, compute_uv=False)[0])
    if ill_conditioned(pair.fine_power_sv):
        return first, None
    phik = pair.fine_power
    second = float(np.linalg.svd(np.linalg.solve(phik, psi_nc @ phik),
                                 compute_uv=False)[0])
    return first, second
