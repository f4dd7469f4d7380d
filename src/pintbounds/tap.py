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

from .operators import StepperPair, matrix_power

PHASE_GRID = 1024
GOLDEN_ITERS = 80
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class TapQuery:
    pair: StepperPair
    relaxation: str = "F"
    p: int = 1
    variant: str = "TAP"
    phase_grid: int = PHASE_GRID

    def __post_init__(self):
        if self.relaxation not in ("F", "FCF"):
            raise ValueError(f"unknown relaxation {self.relaxation!r}")
        if self.p < 1:
            raise ValueError("power must be >= 1")
        if self.variant not in ("TAP", "ITAP", "TEAP"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "ITAP" and self.p != 1:
            raise ValueError("inverse constant is defined only for p = 1")
        if self.variant == "TEAP" and self.pair.shared_eig is None:
            raise ValueError("eigenvalue constant needs a shared eigendecomposition")


@dataclass(frozen=True)
class TapResult:
    value: float
    maximizer: object   # attaining vector, or eigenvalue index
    phase: float
    method: str
    certified: bool


def _as_matrix(psi) -> np.ndarray:
    return psi.matrix if hasattr(psi, "matrix") else np.asarray(psi, dtype=complex)


def _refine_extremum(fun, x_left, x_right, minimize=False, iters=GOLDEN_ITERS):
    """Golden-section refinement of an extremum inside [x_left, x_right]."""
    sign = 1.0 if minimize else -1.0
    a, b = x_left, x_right
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = sign * fun(c), sign * fun(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = sign * fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = sign * fun(d)
    x = c if fc < fd else d
    return x, fun(x)


def _extremum_over_phases(fun, phase_grid=PHASE_GRID, minimize=False, skip=None):
    """Extremum of a smooth 2*pi-periodic function: uniform grid, then
    golden-section refinement around every local extremum."""
    xs = np.linspace(0.0, 2.0 * np.pi, phase_grid, endpoint=False)
    vals = np.full(phase_grid, np.nan)
    for i, x in enumerate(xs):
        if skip is not None and skip(x):
            continue
        vals[i] = fun(x)
    if np.all(np.isnan(vals)):
        raise ValueError("no admissible phase samples")
    sign = 1.0 if minimize else -1.0
    sv = np.where(np.isnan(vals), np.inf, sign * vals)
    best_x = xs[int(np.argmin(sv))]
    best_v = float(np.min(sv))
    h = 2.0 * np.pi / phase_grid
    for i in range(phase_grid):
        left, right = sv[i - 1], sv[(i + 1) % phase_grid]
        # a point of a flat stretch is no extremum to refine
        if (np.isfinite(sv[i]) and sv[i] <= min(left, right)
                and sv[i] < max(left, right)):
            x, v = _refine_extremum(fun, xs[i] - h, xs[i] + h, minimize=minimize)
            if sign * v < best_v:
                best_x, best_v = x, sign * v
    return float(best_x % (2.0 * np.pi)), sign * best_v


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


def _min_phase_poly(coeffs: np.ndarray, phase_grid: int = 256):
    """Minimize ||sum_m e^{imx} c_m|| over x given stacked coefficients."""
    if coeffs.shape[0] == 2:
        c0, c1 = coeffs
        val = math.sqrt(max(0.0, np.linalg.norm(c0)**2 + np.linalg.norm(c1)**2
                            - 2.0 * abs(np.vdot(c1, c0))))
        x = float((-np.angle(np.vdot(c1, c0))) % (2.0 * np.pi))
        return val, x
    xs = np.linspace(0.0, 2.0 * np.pi, phase_grid, endpoint=False)
    m = np.arange(coeffs.shape[0])
    z = np.exp(1j * np.outer(xs, m))          # (grid, p+1)
    norms = np.linalg.norm(z @ coeffs, axis=1)
    i = int(np.argmin(norms))
    h = 2.0 * np.pi / phase_grid

    def fun(x):
        zz = np.exp(1j * m * x)
        return float(np.linalg.norm(zz @ coeffs))

    x, val = _refine_extremum(fun, xs[i] - h, xs[i] + h, minimize=True)
    return val, float(x % (2.0 * np.pi))


def min_phase_norm(psi, v: np.ndarray, p: int = 1,
                   phase_grid: int = PHASE_GRID):
    """min over x of ||(I - e^{ix} Psi)^p v|| and the minimizing phase.

    For p = 1 the closed form sqrt(||v||^2 + ||Psi v||^2 - 2 |<Psi v, v>|)
    holds, attained at x = -arg <Psi v, v>.
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
    val, x = _min_phase_poly(coeffs, min(phase_grid, 512))
    return val, x


def _psi_poles(pair: StepperPair):
    eigs = np.linalg.eigvals(pair.coarse.matrix)
    on_circle = eigs[np.abs(np.abs(eigs) - 1.0) < 1e-8]

    def skip(x):
        if on_circle.size == 0:
            return False
        return bool(np.min(np.abs(1.0 - np.exp(1j * x) * on_circle)) < 1e-8)

    return skip


def _power_invertible(pair: StepperPair) -> bool:
    s = pair.fine_power_sv
    return s.max() > 0 and s.min() / s.max() > 1e-12


def _den_inverse(pair: StepperPair, relaxation: str, p: int, x: float) -> np.ndarray:
    psi = pair.coarse.matrix
    eye = np.eye(psi.shape[0], dtype=complex)
    base = np.linalg.inv(eye - np.exp(1j * x) * psi)
    if relaxation == "FCF":
        base = base @ pair.fine_power
    return matrix_power(base, p)


def _gsv_sweep(q: TapQuery):
    """max over x of the largest generalized singular value of the pair
    {(Psi - Phi^k)^p, denominator(x)^p}."""
    num = matrix_power(q.pair.coarse_defect, q.p)

    def fun(x):
        m = num @ _den_inverse(q.pair, q.relaxation, q.p, x)
        return float(np.linalg.svd(m, compute_uv=False)[0])

    x, val = _extremum_over_phases(fun, q.phase_grid, skip=_psi_poles(q.pair))
    return x, val, num


def tap_constant(q: TapQuery) -> TapResult:
    """sup over v of ||(Psi - Phi^k)^p v|| / min_x ||denominator(x)^p v||.

    The two maxima swap, so away from the poles of Psi this is
    max_x sigma_max((Psi - Phi^k)^p denominator(x)^{-p}). Certified through
    the eigenvalue path for normal shared-eigendecomposition pairs; otherwise
    that phase sweep, whose maximizer is the top right singular vector at the
    best phase mapped through denominator(x)^{-p}.
    """
    pair = q.pair
    if q.relaxation == "FCF" and not _power_invertible(pair):
        raise ValueError("fine-propagator power is singular; FCF constant undefined")
    if pair.normal:
        res = teap_constant(TapQuery(pair, q.relaxation, 1, "TEAP"))
        return TapResult(res.value ** q.p, res.maximizer, res.phase,
                         "eigenvalue", True)

    x_hat, sweep, num = _gsv_sweep(q)
    di = _den_inverse(pair, q.relaxation, q.p, x_hat)
    _, _, vh = np.linalg.svd(num @ di)
    v = di @ vh[0].conj()
    v /= np.linalg.norm(v)
    return TapResult(float(sweep), v, float(x_hat), "phase-sweep", False)


def itap_constant(q: TapQuery) -> TapResult:
    """max_x sigma_max((I - e^{ix} Psi)^{-1} (Psi - Phi^k) [Phi^k])."""
    pair = q.pair
    eigs = np.abs(np.linalg.eigvals(pair.coarse.matrix))
    if np.any(np.abs(eigs - 1.0) < 1e-8):
        raise ValueError("phase singularity: coarse stepper has a unit-circle eigenvalue")
    if q.relaxation == "FCF" and not _power_invertible(pair):
        raise ValueError("fine-propagator power is singular; FCF constant undefined")
    psi = pair.coarse.matrix
    eye = np.eye(psi.shape[0])
    tail = pair.coarse_defect
    if q.relaxation == "FCF":
        tail = tail @ pair.fine_power

    def fun(x):
        m = np.linalg.solve(eye - np.exp(1j * x) * psi, tail)
        return float(np.linalg.svd(m, compute_uv=False)[0])

    # a sampled sweep, so not a proven maximum
    x, val = _extremum_over_phases(fun, q.phase_grid)
    return TapResult(float(val), None, float(x), "phase-sweep", False)


def teap_constant(q: TapQuery) -> TapResult:
    """max_i |mu_i - lambda_i^k| (|lambda_i^k| for FCF) / (1 - |mu_i|)."""
    e = q.pair.shared_eig
    if e is None:
        raise ValueError("eigenvalue constant needs a shared eigendecomposition")
    mu_abs = np.abs(e.coarse_values)
    if np.any(mu_abs >= 1.0):
        raise ValueError("coarse eigenvalue magnitude >= 1")
    lam_k = e.fine_values ** q.pair.k
    vals = np.abs(e.coarse_values - lam_k) / (1.0 - mu_abs)
    if q.relaxation == "FCF":
        vals = vals * np.abs(lam_k)
    idx = int(np.argmax(vals))
    phase = float(np.angle(e.coarse_values[idx]) % (2.0 * np.pi))
    return TapResult(float(vals[idx]), idx, phase, "eigenvalue", True)


def stability_decay(pair: StepperPair, grid) -> tuple[float, float]:
    """Amplification factors ||Psi^{N_c}|| and ||Phi^{-k} Psi^{N_c} Phi^k||."""
    psi_nc = matrix_power(pair.coarse.matrix, grid.n_coarse)
    first = float(np.linalg.svd(psi_nc, compute_uv=False)[0])
    if not _power_invertible(pair):
        raise ValueError("fine-propagator power is singular")
    phik = pair.fine_power
    second = float(np.linalg.svd(np.linalg.solve(phik, psi_nc @ phik),
                                 compute_uv=False)[0])
    return first, second
