"""Temporal approximation constants.

Computes the approximation constants that bound two-level convergence: the
vector form sup over v of ||(Psi - Phi^k)^p v|| / min_x ||(I - e^{ix} Psi)^p
v||, evaluated as the largest singular value over the unit circle of a
transfer function by a certified level-set iteration, its inverse form, and
the eigenvalue form for simultaneously diagonalizable pairs, for every
relaxation F(CF)^nu; and the coarse-stability decay factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import operators
from .operators import (StepperPair, _unit, coarse_factors, ill_conditioned,
                        matrix_power, mode_defects)

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
    upper: float        # certified: no phase exceeds it (falls below, for a min)


def _evaluate(fun, xs: np.ndarray, entries: int) -> np.ndarray:
    """fun at the phases xs, passed in chunks that hold at most STACK_ENTRIES
    array entries, given entries per phase."""
    vals = np.empty(xs.shape)
    chunk = max(1, STACK_ENTRIES // entries)
    for start in range(0, xs.size, chunk):
        vals[start:start + chunk] = fun(xs[start:start + chunk])
    return vals


def _psi_poles(pair: StepperPair):
    """Mask of the phases x at which I - e^{ix} Psi is within POLE_GAP of
    singular, or None when no eigenvalue of Psi lies that near the unit
    circle; from the eigenvalues the coarse stepper keeps."""
    eigs = pair.coarse.spectrum
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
    """sigma_max(C (I - e^{ix} A)^{-1} B) at each phase of xs; inf where the
    transfer function is not finite, beyond the floating-point range."""
    eye = np.eye(a.shape[0])

    def fun(chunk):
        den = eye - np.exp(1j * chunk)[:, None, None] * a
        with np.errstate(over="ignore", invalid="ignore"):
            g = c @ np.linalg.solve(den, b)
        finite = np.isfinite(g).all(axis=(1, 2))
        vals = np.full(chunk.shape, np.inf)
        vals[finite] = np.linalg.svd(g[finite], compute_uv=False)[:, 0]
        return vals

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
    lft = np.zeros((2 * n, 2 * n), dtype=np.result_type(a, b, c))
    rgt = np.zeros_like(lft)
    diag = np.arange(n)
    lft[diag, diag], rgt[diag + n, diag + n] = 1.0, -1.0
    lft[:n, n:] = (b @ b.conj().T) / -gamma
    lft[n:, n:] = -a.conj().T
    rgt[:n, :n] = a
    rgt[n:, :n] = (c.conj().T @ c) / gamma
    den = rgt - np.conj(DISC) * lft
    err = np.finfo(float).eps * np.linalg.cond(den)
    s = np.linalg.eigvals(np.linalg.solve(den, lft - DISC * rgt))
    s = s[np.abs(np.abs(s) - 1.0) < 10.0 * math.sqrt(err)]
    xs = np.sort(np.angle((s + DISC) / (1.0 + np.conj(DISC) * s))
                 % (2.0 * np.pi))
    return (xs if skip is None else xs[~skip(xs)]), bool(err <= TOL)


def _hinf(a, b, c, eigs, skip=None):
    """(phase, gamma, certified): the largest sigma_max(C (I - e^{ix} A)^{-1} B)
    over the phases x outside the mask skip, by the level-set iteration of
    Boyd and Balakrishnan, started from the phases 0, pi and those of eigs,
    the eigenvalues of A, which the caller has.

    Each round finds the crossings of the level gamma (1 + 2 TOL) and
    evaluates the midpoints between consecutive ones; gamma rises to their
    largest value. Between two crossings sigma_max stays on one side of the
    level, so a round with no midpoint above it proves that no phase outside
    the mask exceeds it. The edges of masked arcs cut the circle too, and so
    does the best phase: where it is a local minimum, as 0 and pi can be, the
    level's two crossings near it are nearly tangent and may be missed. The
    result is certified when the proof is reached within LEVEL_ROUNDS with
    exact crossings, not on the flank of a pole, and with a value that
    its refinement (_refined_gain) moves by at most TOL; a maximum beyond
    the floating-point range is infinite and uncertified."""
    edges = np.empty(0)
    if skip is not None:
        centre, half = skip.arcs()
        edges = np.concatenate([centre - half, centre + half]) % (2.0 * np.pi)
    starts = [[0.0, np.pi], -np.angle(eigs), edges]
    # each phase once, in order: a repeated eigenvalue, as of the upwind
    # operator, would repeat its solve and SVD
    xs = np.array(list(dict.fromkeys(
        (np.concatenate(starts) % (2.0 * np.pi)).tolist())))
    if skip is not None:
        xs = xs[~skip(xs)]
    if not (a.any() and b.any() and c.any()):
        # G is constant: its one value is the maximum, and the crossing
        # pencil at that level is too ill-conditioned to certify it
        return float(xs[0]), float(np.linalg.svd(c @ b, compute_uv=False)[0]), True
    # G scales with B and C: entries of unit size keep the pencil's blocks
    # balanced, also for subnormal or huge operators
    (b, eb), (c, ec) = _unit(b), _unit(c)
    vals = _gain(a, b, c, xs)
    i = int(np.argmax(vals))
    x, gamma = float(xs[i]), float(vals[i])
    if gamma == 0.0:
        # no level-0 pencil: G vanishes identically only if its Markov
        # parameters C A^j B, j below the state dimension, all do
        return x, 0.0, _markov_zero(a, b, c)
    certified = False
    for _ in range(LEVEL_ROUNDS):
        if math.isinf(gamma):
            break    # a sample beyond the floating-point range
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
            certified = (exact and not _on_pole_flank(a, b, c, skip, x, gamma)
                         and abs(_refined_gain(a, b, c, x) - gamma)
                         <= TOL * gamma)
            break
    with np.errstate(over="ignore"):
        gamma = float(np.ldexp(gamma, eb + ec))
    return x, gamma, certified and math.isfinite(gamma)


def _refined_gain(a, b, c, x: float) -> float:
    """sigma_max(C (I - e^{ix} A)^{-1} B) after one step of iterative
    refinement whose residual, and the product with C, are formed in
    extended precision. Near a pole of (I - e^{ix} A)^{-1} that C or B
    cancels, _gain's value errs by up to about eps cond(I - e^{ix} A)
    relative to it; the refinement removes most of that."""
    den = np.eye(a.shape[0]) - np.exp(1j * x) * a
    wide = (np.eye(a.shape[0]) - np.exp(1j * np.longdouble(x))
            * a.astype(np.clongdouble))
    with np.errstate(over="ignore", invalid="ignore"):
        sol = np.linalg.solve(den, b).astype(np.clongdouble)
        sol += np.linalg.solve(den, (b - wide @ sol).astype(complex))
        g = (c.astype(np.clongdouble) @ sol).astype(complex)
        if not np.isfinite(g).all():
            return math.inf
        return float(np.linalg.svd(g, compute_uv=False)[0])


def _markov_zero(a, b, c) -> bool:
    """Whether C A^j B = 0 for every j below the order of A, which by
    Cayley-Hamilton makes C (I - zA)^{-1} B identically zero."""
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(a.shape[0]):
            if (c @ b).any():
                return False
            b = a @ b
    return True


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


def _tap_realization(psi, m, left, p: int, link=None):
    """(A, B, C) with C (I - zA)^{-1} B = left ((I - z psi)^{-1} link)^{p-1}
    (I - z psi)^{-1} m, link = m by default: the state stacks the p partial
    products, so A = (I - S)^{-1} (I_p x psi), B = (I - S)^{-1} E_1 m and
    C = left E_p^T, with link on the block subdiagonal of S. I - S is block
    unit lower bidiagonal, and block forward substitution applies its inverse
    by products; a pivoted solve would lose the small blocks next to a large
    link."""
    blocks = np.eye(p)
    link = m if link is None else link
    a, b = [np.kron(blocks[:1], psi)], [m]
    for i in range(1, p):
        a.append(np.kron(blocks[i:i + 1], psi) + link @ a[-1])
        b.append(link @ b[-1])
    return np.vstack(a), np.vstack(b), np.kron(blocks[-1:], left)


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
    if p < 1:
        raise ValueError("power must be >= 1")
    if pair.normal:
        res = teap_constant(pair, relaxation)
        value = res.value ** p
        return TapResult(value, res.maximizer, res.phase, "eigenvalue", True,
                         value)

    lft, rgt = coarse_factors(pair, relaxation, "residual")
    a, b, c = _tap_realization(pair.coarse.matrix, rgt, matrix_power(lft, p), p)
    # A is block lower triangular with p copies of Psi on its diagonal
    x, gamma, certified = _hinf(a, b, c, np.tile(pair.coarse.spectrum, p),
                                _psi_poles(pair))
    if math.isinf(gamma):   # beyond the floating-point range
        return TapResult(gamma, None, x, "level-set", False, gamma)
    with np.errstate(over="ignore", invalid="ignore"):
        state = np.linalg.solve(np.eye(a.shape[0]) - np.exp(1j * x) * a, b)
    if not np.isfinite(state).all():
        return TapResult(gamma, None, x, "level-set", certified,
                         gamma * (1.0 + 2.0 * TOL))
    # only the state's direction matters: scaled, as c is, by a power of two
    # to entries below one, it gives the vector without overflowing where
    # I - e^{ix} A is nearly singular
    (state, _), (c, _) = _unit(state), _unit(c)
    _, _, vh = np.linalg.svd(c @ state)
    v = state[-pair.dim:] @ vh[0].conj()
    if not v.any():     # B = 0 (Phi^k = 0): every vector attains the zero
        v = vh[0].conj()
    v /= np.linalg.norm(v)
    return TapResult(gamma, v, x, "level-set", certified,
                     gamma * (1.0 + 2.0 * TOL))


def itap_constant(pair: StepperPair, relaxation: str = "F") -> TapResult:
    """max_x sigma_max((I - e^{ix} Psi)^{-1} (Psi - Phi^k) [Phi^k])."""
    lft, rgt = coarse_factors(pair, relaxation, "error")
    if _psi_poles(pair) is not None:
        raise ValueError("phase singularity: coarse stepper has a unit-circle eigenvalue")
    x, gamma, certified = _hinf(pair.coarse.matrix, rgt, lft,
                                pair.coarse.spectrum)
    return TapResult(gamma, None, x, "level-set", certified,
                     gamma * (1.0 + 2.0 * TOL))


def teap_constant(pair: StepperPair, relaxation: str = "F") -> TapResult:
    """max_i d_i / (1 - |mu_i|), d of operators.mode_defects."""
    e = pair.shared_eig
    if e is None:
        raise ValueError("eigenvalue constant needs a shared eigendecomposition")
    mu_abs, d = mode_defects(e.fine_values, e.coarse_values, pair.k,
                             relaxation)
    vals = d / (1.0 - mu_abs)
    idx = int(np.argmax(vals))
    phase = float(np.angle(e.coarse_values[idx]) % (2.0 * np.pi))
    value = float(vals[idx])
    return TapResult(value, idx, phase, "eigenvalue", True, value)


def stability_decay(pair: StepperPair, grid) -> dict[str, float | None]:
    """{relaxation: ||M^{-1} Psi^{N_c} M||} for every relaxation of
    operators.RELAXATIONS, M = Phi^{k nu} with nu its CF sweep count: the
    amplification factor after nu CF sweeps. nu = 0 gives ||Psi^{N_c}||. A
    factor is None where nu >= 1 and cond(Phi^k)^nu, which bounds cond(M),
    is numerically singular (ill_conditioned); a Psi^{N_c} that overflows
    gives infinite factors. For a normal pair each factor is max |mu|^{N_c},
    since M^{-1} Psi^{N_c} M = Psi^{N_c} when the steppers commute."""
    # one value serves every factor that exists for a normal pair, whose
    # steppers commute, and where Psi^{N_c} overflows
    if pair.normal:
        common = float(np.max(np.abs(pair.shared_eig.coarse_values))) \
            ** grid.n_coarse
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            psi_nc = matrix_power(pair.coarse.matrix, grid.n_coarse)
        common = None if np.isfinite(psi_nc).all() else math.inf
    decay = {}
    for relaxation, nu in operators.RELAXATIONS.items():
        if nu and ill_conditioned(pair.fine_power_sv ** nu):
            decay[relaxation] = None
        elif common is not None:
            decay[relaxation] = common
        else:
            m = matrix_power(pair.fine_power, nu)
            decay[relaxation] = float(np.linalg.svd(
                np.linalg.solve(m, psi_nc @ m), compute_uv=False)[0])
    return decay
