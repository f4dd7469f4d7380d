"""Temporal approximation constants.

Computes the phase-minimized norms min_x ||(I - e^{ix} Psi)^p v|| and the
approximation constants that bound two-level convergence: the vector form
(sup over v, evaluated as the largest singular value over the unit circle
of a transfer function, by a certified level-set iteration), its inverse
form, and the eigenvalue form for simultaneously diagonalizable pairs, for
F- and FCF-relaxation.
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

POLE_GAP = 1e-8        # |1 - e^{ix} mu| below which phase x is a pole of Psi
TOL = 1e-12            # relative width of a certified level-set bracket
LEVEL_ROUNDS = 30      # most level-set rounds before a result is uncertified
DISC = 0.5 * np.exp(1j)  # disc automorphism parameter, |DISC| < 1


@dataclass(frozen=True)
class TapResult:
    value: float
    maximizer: object   # attaining vector, or eigenvalue index
    phase: float
    method: str
    certified: bool
    upper: float        # no phase exceeds it when certified


def _as_matrix(psi) -> np.ndarray:
    return psi.matrix if hasattr(psi, "matrix") else np.asarray(psi, dtype=complex)


def _check_relaxation(relaxation: str):
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")


def _evaluate(fun, xs: np.ndarray, entries: int) -> np.ndarray:
    """fun at the phases xs, passed in chunks that hold at most STACK_ENTRIES
    array entries, given entries per phase."""
    vals = np.empty(xs.shape)
    chunk = max(1, STACK_ENTRIES // entries)
    for start in range(0, xs.size, chunk):
        vals[start:start + chunk] = fun(xs[start:start + chunk])
    return vals


def _extremum_over_phases(fun, dim: int, minimize=False):
    """(phase, value) of the extremum of a smooth 2*pi-periodic function.

    fun maps an array of phases to an array of values, through stacks of
    dim x dim matrices. A uniform grid is refined at all its local extrema at
    once: each round evaluates a fan across every candidate's interval and
    narrows the interval to the two cells around the fan's best phase."""
    sign = 1.0 if minimize else -1.0
    xs = np.linspace(0.0, 2.0 * np.pi, PHASE_GRID, endpoint=False)
    sv = sign * _evaluate(fun, xs, dim**2)
    best = int(np.argmin(sv))
    best_x, best_v = xs[best], sv[best]
    left, right = np.roll(sv, 1), np.roll(sv, -1)
    # a point of a flat stretch is no extremum to refine
    centers = xs[(sv <= np.minimum(left, right)) & (sv < np.maximum(left, right))]
    half = 2.0 * np.pi / PHASE_GRID
    offsets = np.linspace(-1.0, 1.0, FAN)
    rows = np.arange(centers.size)
    for _ in range(REFINE_ROUNDS if centers.size else 0):
        fan = centers[:, None] + half * offsets
        vals = sign * _evaluate(fun, fan.ravel(), dim**2).reshape(fan.shape)
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
    """Mask of the phases x at which I - e^{ix} Psi is within POLE_GAP of
    singular, or None when no eigenvalue of Psi lies that near the unit
    circle."""
    eigs = np.linalg.eigvals(pair.coarse.matrix)
    on_circle = eigs[np.abs(np.abs(eigs) - 1.0) < POLE_GAP]
    return _PoleMask(on_circle) if on_circle.size else None


@dataclass(frozen=True)
class _PoleMask:
    """The phases x at which |1 - e^{ix} mu| < POLE_GAP for an eigenvalue mu
    of Psi in poles; calling it on an array of phases gives their mask."""
    poles: np.ndarray

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        z = np.exp(1j * xs)[:, None]
        return np.any(np.abs(1.0 - z * self.poles) < POLE_GAP, axis=1)

    def arcs(self):
        """(centre, half): the centre of each pole's masked arc and a
        half-width just past its edges."""
        rho = np.abs(self.poles)
        # |1 - e^{ix} mu|^2 = (1 - rho)^2 + 4 rho sin^2((x + arg mu) / 2)
        gap = np.maximum(POLE_GAP**2 - (1.0 - rho) ** 2, 0.0)
        half = 2.0 * np.arcsin(np.sqrt(gap / (4.0 * rho)))
        return -np.angle(self.poles), half * (1.0 + 1e-6)   # clear of round-off


def _gain(a, b, c, xs: np.ndarray) -> np.ndarray:
    """sigma_max(C (I - e^{ix} A)^{-1} B) at each phase of xs."""
    eye = np.eye(a.shape[0])

    def fun(chunk):
        den = eye - np.exp(1j * chunk)[:, None, None] * a
        return np.linalg.svd(c @ np.linalg.solve(den, b),
                             compute_uv=False)[:, 0]

    return _evaluate(fun, xs, a.shape[0]**2)


def _crossings(a, b, c, gamma: float, skip=None):
    """(phases, exact): sorted phases x, outside the mask skip, at which gamma
    may be a singular value of C (I - e^{ix} A)^{-1} B.

    These are the unit-circle eigenvalues z = e^{ix} of the pencil L - z R
    with L = [[I, -BB*/gamma], [0, -A*]] and R = [[A, 0], [C*C/gamma, -I]].
    The disc automorphism z = (s + DISC) / (1 + conj(DISC) s) keeps the
    circle and turns the pencil into one eigenvalue problem in s, also where
    R is singular. Rounding moves its eigenvalues by about err = eps cond(R -
    conj(DISC) L), and a nearly tangent pair of crossings by about
    sqrt(err), so every eigenvalue within 10 sqrt(err) of the circle is
    kept: a phase too many only splits an interval. A tangency blurred that
    much can hide a maximum about err above gamma, so exact is False when err
    exceeds TOL."""
    n = a.shape[0]
    eye, zero = np.eye(n), np.zeros((n, n))
    lft = np.block([[eye, -(b @ b.conj().T) / gamma], [zero, -a.conj().T]])
    rgt = np.block([[a, zero], [(c.conj().T @ c) / gamma, -eye]])
    den = rgt - np.conj(DISC) * lft
    err = np.finfo(float).eps * np.linalg.cond(den)
    s = np.linalg.eigvals(np.linalg.solve(den, lft - DISC * rgt))
    s = s[np.abs(np.abs(s) - 1.0) < 10.0 * math.sqrt(err)]
    xs = np.sort(np.angle((s + DISC) / (1.0 + np.conj(DISC) * s))
                 % (2.0 * np.pi))
    return (xs if skip is None else xs[~skip(xs)]), bool(err <= TOL)


def _hinf(a, b, c, skip=None):
    """(phase, gamma, certified): the largest sigma_max(C (I - e^{ix} A)^{-1} B)
    over the phases x outside the mask skip, by the level-set iteration of
    Boyd and Balakrishnan.

    Each round finds the crossings of the level gamma (1 + 2 TOL) and
    evaluates the midpoints between consecutive ones; gamma rises to their
    largest value. Between two crossings sigma_max stays on one side of the
    level, so a round with no midpoint above it proves that no phase outside
    the mask exceeds it. The edges of masked arcs cut the circle too, and so
    does the best phase: where it is a local minimum, as 0 and pi can be, the
    level's two crossings near it are nearly tangent and may be missed. The
    result is certified when the proof is reached within LEVEL_ROUNDS with
    exact crossings and not on the flank of a pole."""
    edges = np.empty(0)
    if skip is not None:
        centre, half = skip.arcs()
        edges = np.concatenate([centre - half, centre + half]) % (2.0 * np.pi)
    starts = [[0.0, np.pi], -np.angle(np.linalg.eigvals(a)), edges]
    xs = np.concatenate(starts) % (2.0 * np.pi)
    if skip is not None:
        xs = xs[~skip(xs)]
    if not (b.any() and c.any()):
        return float(xs[0]), 0.0, True
    # G scales with B and C: entries of unit size keep the pencil's blocks
    # balanced, also for subnormal or huge operators
    (b, eb), (c, ec) = _unit(b), _unit(c)
    vals = _gain(a, b, c, xs)
    i = int(np.argmax(vals))
    x, gamma = float(xs[i]), float(vals[i])
    certified = False
    for _ in range(LEVEL_ROUNDS):
        level = gamma * (1.0 + 2.0 * TOL)
        cross, exact = _crossings(a, b, c, level, skip)
        cuts = np.sort(np.concatenate([cross, edges, [x]]))
        gaps = np.diff(np.append(cuts, cuts[0] + 2.0 * np.pi))
        mids = (cuts + 0.5 * gaps) % (2.0 * np.pi)
        if skip is not None:
            mids = mids[~skip(mids)]
        vals = _gain(a, b, c, mids)
        if vals.size and vals.max() > gamma:
            i = int(np.argmax(vals))
            x, gamma = float(mids[i]), float(vals[i])
        if gamma <= level:
            certified = exact and not _on_pole_flank(a, b, c, skip, x, gamma)
            break
    return x, math.ldexp(gamma, eb + ec), certified


def _unit(m: np.ndarray):
    """(m 2^-e, e): m scaled by a power of two, exactly, to entries of size
    below one."""
    e = math.frexp(float(np.abs(m).max()))[1]
    return np.ldexp(m.real, -e) + 1j * np.ldexp(m.imag, -e), e


def _on_pole_flank(a, b, c, skip, x: float, gamma: float) -> bool:
    """Whether the maximum gamma at phase x outside the mask skip may be no
    stationary point: x lies within twice an arc's half-width of its centre
    and gamma exceeds the value there by more than 2 TOL, so the value still
    rises towards the arc (a cancelled pole's neighbourhood is flat); or the
    mask holds unit-circle eigenvalues within sqrt(POLE_GAP) of each other,
    whose defective cluster blurs the crossings near it by about eps^(1/4)."""
    if skip is None:
        return False
    poles = skip.poles
    if np.any(np.abs(poles[:, None] - poles) + np.eye(poles.size)
              < math.sqrt(POLE_GAP)):
        return True
    centre, half = skip.arcs()
    near = np.abs(np.angle(np.exp(1j * (x - centre)))) < 2.0 * half
    if not near.any():
        return False
    beyond = np.concatenate([centre[near] - 2.0 * half[near],
                             centre[near] + 2.0 * half[near]])
    return bool(gamma > (1.0 + 2.0 * TOL) * _gain(a, b, c, beyond).max())


def _tap_realization(pair: StepperPair, relaxation: str, p: int):
    """(A, B, C) with C (I - zA)^{-1} B = (Psi - Phi^k)^p ((I - z Psi)^{-1} M)^p,
    M = I for F and Phi^k for FCF: the state stacks the p partial products,
    so A = (I - S)^{-1} (I_p x Psi), B = (I - S)^{-1} E_1 M and
    C = (Psi - Phi^k)^p E_p^T, with M on the block subdiagonal of S."""
    n = pair.dim
    m = pair.fine_power if relaxation == "FCF" else np.eye(n)
    blocks = np.eye(p)
    lhs = np.eye(p * n) - np.kron(np.eye(p, k=-1), m)
    a = np.linalg.solve(lhs, np.kron(blocks, pair.coarse.matrix))
    b = np.linalg.solve(lhs, np.kron(blocks[:, :1], m))
    c = np.kron(blocks[-1:], matrix_power(pair.coarse_defect, p))
    return a, b, c


def tap_constant(pair: StepperPair, relaxation: str = "F",
                 p: int = 1) -> TapResult:
    """sup over v of ||(Psi - Phi^k)^p v|| / min_x ||denominator(x)^p v||.

    The two maxima swap, so away from the poles of Psi this is
    max_x sigma_max((Psi - Phi^k)^p denominator(x)^{-p}). Normal
    shared-eigendecomposition pairs take the eigenvalue path; any other pair
    the level-set iteration on a realization of that transfer function,
    whose maximizer is the top right singular vector at the best phase
    mapped through denominator(x)^{-p}.
    """
    _check_relaxation(relaxation)
    if p < 1:
        raise ValueError("power must be >= 1")
    if relaxation == "FCF" and ill_conditioned(pair.fine_power_sv):
        raise ValueError("fine-propagator power is singular; FCF constant undefined")
    if pair.normal:
        res = teap_constant(pair, relaxation)
        value = res.value ** p
        return TapResult(value, res.maximizer, res.phase, "eigenvalue", True,
                         value)

    a, b, c = _tap_realization(pair, relaxation, p)
    x, gamma, certified = _hinf(a, b, c, _psi_poles(pair))
    state = np.linalg.solve(np.eye(a.shape[0]) - np.exp(1j * x) * a, b)
    _, _, vh = np.linalg.svd(c @ state)
    v = state[-pair.dim:] @ vh[0].conj()
    v /= np.linalg.norm(v)
    return TapResult(gamma, v, x, "level-set", certified,
                     gamma * (1.0 + 2.0 * TOL))


def itap_constant(pair: StepperPair, relaxation: str = "F") -> TapResult:
    """max_x sigma_max((I - e^{ix} Psi)^{-1} (Psi - Phi^k) [Phi^k])."""
    _check_relaxation(relaxation)
    if _psi_poles(pair) is not None:
        raise ValueError("phase singularity: coarse stepper has a unit-circle eigenvalue")
    if relaxation == "FCF" and ill_conditioned(pair.fine_power_sv):
        raise ValueError("fine-propagator power is singular; FCF constant undefined")
    psi = pair.coarse.matrix
    tail = pair.coarse_defect
    if relaxation == "FCF":
        tail = tail @ pair.fine_power
    x, gamma, certified = _hinf(psi, tail, np.eye(pair.dim))
    return TapResult(gamma, None, x, "level-set", certified,
                     gamma * (1.0 + 2.0 * TOL))


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
    value = float(vals[idx])
    return TapResult(value, idx, phase, "eigenvalue", True, value)


def stability_decay(pair: StepperPair, grid) -> tuple[float, float | None]:
    """Amplification factors ||Psi^{N_c}|| and ||Phi^{-k} Psi^{N_c} Phi^k||;
    the second is None when Phi^k is singular. A power that overflows gives
    infinite factors."""
    psi_nc = matrix_power(pair.coarse.matrix, grid.n_coarse)
    if not np.isfinite(psi_nc).all():
        return math.inf, None if ill_conditioned(pair.fine_power_sv) else math.inf
    first = float(np.linalg.svd(psi_nc, compute_uv=False)[0])
    if ill_conditioned(pair.fine_power_sv):
        return first, None
    phik = pair.fine_power
    second = float(np.linalg.svd(np.linalg.solve(phik, psi_nc @ phik),
                                 compute_uv=False)[0])
    return first, second
