"""Block-Toeplitz symbols, closed-form pseudoinverses, tridiagonal spectra,
and the convergence-bound formulas built on them.

Covers the symbol-side norm predictors (certified max singular value / min
eigenvalue over phase of symbols held as coefficient blocks), explicit
pseudoinverses of the structured strictly-lower block-Toeplitz operators and
their powers, the two-sided diagonalizable-case convergence brackets, the
time-dependent tridiagonal reduction, and the necessary lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import (StepperPair, _unit, coarse_factors, ill_conditioned,
                        matrix_power)
from .spacetime import GridSpec
from .tridiag import (bidiagonal_gram, gershgorin_min, relaxed_toeplitz_min,
                      tridiag_stack_min)
from . import spacetime as _st
from . import tap as _tap

BRACKET_MIN_N = 10     # smallest N_c for which the bracket is proven
BISECT_ROUNDS = 40     # most bisection rounds of a certified symbol maximum
BISECT_CELLS = 1024    # most phase cells one bisection round may split


# ---------------------------------------------------------------------------
# symbols

@dataclass(frozen=True)
class SymbolFunction:
    """Phase-indexed matrix symbol F(x) = sum_j e^{i(low + j)x} coeffs[j] of
    a block-Toeplitz family: its coefficient blocks and their lowest
    frequency."""
    coeffs: np.ndarray
    low: int

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def __call__(self, x) -> np.ndarray:
        """F(x) at one phase, or the stack of F over an array of phases."""
        x = np.asarray(x, dtype=float)
        m = _fir(self.coeffs, x.reshape(-1) / (2.0 * np.pi), self.low)
        return m.reshape(x.shape + (self.dim, self.dim))


def _fir(coeffs: np.ndarray, turns: np.ndarray, low: int) -> np.ndarray:
    """The stack of sum_j e^{2 pi i (low + j) t} coeffs[j] over the phases t
    of turns, given in turns (x = 2 pi t). The exponent is reduced mod 1
    before it is scaled by 2 pi, exactly for dyadic t, so its rounding error
    does not grow with j."""
    n, d = coeffs.shape[0], coeffs.shape[1]
    z = np.exp(2j * np.pi * (np.outer(turns, np.arange(low, low + n)) % 1.0))
    return (z @ coeffs.reshape(n, d * d)).reshape(-1, d, d)


def build_symbol(pair: StepperPair, grid: GridSpec, relaxation: str,
                 side: str = "residual") -> SymbolFunction:
    """Generating function of the assembled coarse-level propagation block.

    It is the polynomial z (I - z^{N_c} Psi^{N_c}) (I - z Psi)^{-1} =
    sum_{j < N_c} z^{j+1} Psi^j between the factors (L, R) of
    operators.coarse_factors: F(z) = sum_j z^{j+1} L Psi^j R. A block that
    overflows is left infinite (symbol_max_sv)."""
    lft, rgt = coarse_factors(pair, relaxation, side)
    psi = pair.coarse.matrix
    coeffs = np.empty((grid.n_coarse,) + psi.shape, dtype=complex)
    coeffs[0] = rgt
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, grid.n_coarse):
            coeffs[j] = psi @ coeffs[j - 1]
        return SymbolFunction(lft @ coeffs, 1)


def symbol_max_sv(sym: SymbolFunction) -> _tap.TapResult:
    """Certified max over phase of the largest singular value of a polynomial
    symbol; it upper-bounds the l2 norm of every finite assembly of the
    corresponding block-Toeplitz operator.

    The tail blocks whose Frobenius norms sum below
    TOL / 16 max_j ||C_j||_F / sqrt(N_x), at most TOL / 16 of the maximum,
    are left out, and their sum, which bounds their share of every
    sigma_max, is added to upper. Over the kept blocks C_lo..C_hi, from the
    first nonzero one, each Re(u* e^{-icx} F(x) v), c the centre frequency
    and u, v unit, is a trigonometric polynomial of degree n = (hi - lo) / 2
    bounded by the maximum M, so Bernstein's inequality gives
    |g''| <= n^2 M. On a phase cell [a, b] of width h, sigma_max then stays
    below max(f(a), f(b)) + n^2 M h^2 / 8, and M below the largest
    max(f(a), f(b)) / (1 - n^2 h^2 / 8) over the cells. From a uniform grid,
    every cell whose bound exceeds the best sample by more than TOL / 2 is
    bisected. upper is that bound with every sample raised by a pad for the
    rounding of its evaluation. The result is certified when every cell
    settles within BISECT_ROUNDS rounds of at most BISECT_CELLS splits, and
    upper is within TOL of the value. The blocks are scaled by a power of
    two to entries below one first, exactly, so that tiny ones do not
    underflow when squared, nor huge ones overflow; the value and upper are
    scaled back. A block that is not finite, or a maximum beyond the
    floating-point range, gives an infinite, uncertified upper."""
    if not np.isfinite(sym.coeffs).all():
        return _tap.TapResult(math.inf, None, 0.0, "bernstein", False,
                              math.inf)
    scaled, exp = _unit(sym.coeffs)
    norms = np.linalg.norm(scaled, axis=(1, 2))
    live = np.flatnonzero(norms)
    if live.size == 0:
        return _tap.TapResult(0.0, None, 0.0, "bernstein", True, 0.0)
    tails = np.cumsum(norms[::-1])[::-1]     # sum of the norms from j on
    floor = _tap.TOL / 16.0 * norms.max() / math.sqrt(sym.dim)
    cut = int(np.flatnonzero(tails >= floor)[-1]) + 1
    tail = float(tails[cut]) if cut < norms.size else 0.0
    coeffs, low = scaled[live[0]:cut], sym.low + int(live[0])
    terms = coeffs.shape[0]
    deg2 = (0.5 * np.pi * (terms - 1)) ** 2 / 2.0    # n^2 (2 pi)^2 / 8
    pad = 2.0 * (terms + sym.dim) * np.finfo(float).eps \
        * float(norms[live[0]:cut].sum())

    def fun(t):
        f = _fir(coeffs, t, low)
        gram = f.conj().swapaxes(1, 2) @ f
        return np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))

    def evaluate(t):
        return _tap._evaluate(fun, t, max(terms, sym.dim**2))

    # cells [a, a + h] in turns, with dyadic ends; a real symbol has
    # F(-x) = conj F(x), and half the circle holds its maximum
    m = 1 << max(4, math.ceil(math.log2(max(1, 2 * (terms - 1)))))
    cells = m if coeffs.imag.any() else m // 2
    grid = np.arange(cells + 1) / m
    vals = evaluate(grid)
    a, fa, fb, h = grid[:-1], vals[:-1], vals[1:], np.full(cells, 1.0 / m)
    best = int(np.argmax(vals))
    t_best, value = float(grid[best]), float(vals[best])
    upper = 0.0
    for _ in range(BISECT_ROUNDS):
        top, shrink = np.maximum(fa, fb), 1.0 - deg2 * h * h
        split = top > value * (1.0 + 0.5 * _tap.TOL) * shrink
        upper = max(upper, np.max(((top + pad) / shrink)[~split], initial=0.0))
        a, fa, fb, h = a[split], fa[split], fb[split], h[split]
        if a.size == 0 or a.size > BISECT_CELLS:
            break
        h = 0.5 * h
        mid = a + h
        fm = evaluate(mid)
        i = int(np.argmax(fm))
        if fm[i] > value:
            t_best, value = float(mid[i]), float(fm[i])
        a, fa, fb, h = (np.concatenate([a, mid]), np.concatenate([fa, fm]),
                        np.concatenate([fm, fb]), np.concatenate([h, h]))
    upper = float(max(upper, np.max((np.maximum(fa, fb) + pad)
                                    / (1.0 - deg2 * h * h), initial=0.0))) + tail
    certified = bool(a.size == 0 and upper <= value * (1.0 + _tap.TOL))
    with np.errstate(over="ignore"):
        value, upper = (float(np.ldexp(v, exp)) for v in (value, upper))
    if upper < np.finfo(float).tiny:
        # scaled back into the subnormal range, upper rounds to a multiple
        # of the smallest subnormal, maybe down; one more is above the bound
        upper = float(np.nextafter(upper, math.inf))
    return _tap.TapResult(value, None, 2.0 * np.pi * t_best, "bernstein",
                          certified and math.isfinite(upper), upper)


def normal_symbol_max(pair: StepperPair, grid: GridSpec,
                      relaxation: str = "F") -> float:
    """Exact max over phase of the largest singular value of the F- or
    FCF-relaxation symbol of a normal pair.

    The symbol splits into scalar modes z (mu - lam) sum_{j<N_c} (z mu)^j,
    times lam for FCF, with lam = lambda^k. Since |sum_j (z mu)^j| <=
    sum_j |mu|^j with equality at z mu = |mu|, mode m peaks at
    |mu - lam| (1 - |mu|^N_c) / (1 - |mu|); make_pair makes a pair normal
    only when every |mu| < 1."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    if not pair.normal:
        raise ValueError("closed-form symbol needs a unitary shared eigenbasis")
    eig = pair.shared_eig
    lam = eig.fine_values ** pair.k
    mu_abs = np.abs(eig.coarse_values)
    vals = (np.abs(eig.coarse_values - lam)
            * (1.0 - mu_abs ** grid.n_coarse) / (1.0 - mu_abs))
    if relaxation == "FCF":
        vals = vals * np.abs(lam)
    return float(np.max(vals))


# ---------------------------------------------------------------------------
# structured pseudoinverses

def _as_block(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("blocks must be square matrices or scalars")
    return arr


def _check_invertible(m: np.ndarray, name: str):
    if ill_conditioned(np.linalg.svd(m, compute_uv=False)):
        raise ValueError(f"block {name} is singular or too ill-conditioned")


@dataclass(frozen=True)
class PinvSpec:
    """Strictly lower block-Toeplitz family: blocks g f^{i-j-1} h below the
    diagonal (offset >= 1 for the A0 shape, >= 2 for A1)."""
    f: object
    g: object
    h: object
    n: int
    p: int = 1

    def __post_init__(self):
        f, g, h = _as_block(self.f), _as_block(self.g), _as_block(self.h)
        if not (f.shape == g.shape == h.shape):
            raise ValueError("f, g, h must share one dimension")
        for m, name in ((f, "f"), (g, "g"), (h, "h")):
            _check_invertible(m, name)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "h", h)
        if self.n < 2:
            raise ValueError("need at least two block rows")
        if self.p < 1:
            raise ValueError("power must be >= 1")

    @property
    def dim(self) -> int:
        return self.f.shape[0]


def assemble_a0(spec: PinvSpec, shape: str = "A0") -> np.ndarray:
    """Dense assembly of A0 (blocks g f^{i-j-1} h for i > j) or A1 (the same
    family shifted to offsets >= 2)."""
    d, n = spec.dim, spec.n
    offset = 1 if shape == "A0" else 2
    if shape not in ("A0", "A1"):
        raise ValueError(f"unknown shape {shape!r}")
    out = np.zeros((n * d, n * d), dtype=complex)
    powers = [matrix_power(spec.f, j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if i - j >= offset:
                out[i * d:(i + 1) * d, j * d:(j + 1) * d] = \
                    spec.g @ powers[i - j - offset] @ spec.h
    return out


def pinv_a0(spec: PinvSpec, shape: str = "A0") -> np.ndarray:
    """Closed-form Moore-Penrose pseudoinverse of A0 or A1."""
    if shape not in ("A0", "A1"):
        raise ValueError(f"unknown shape {shape!r}")
    d, n = spec.dim, spec.n
    h_inv = np.linalg.inv(spec.h)
    g_inv = np.linalg.inv(spec.g)
    sup = h_inv @ g_inv               # (i, i+1) entries
    dia = -h_inv @ spec.f @ g_inv     # (i, i) entries, i = 1..n-2
    if shape == "A0":
        out = np.zeros((n * d, n * d), dtype=complex)
        for i in range(n - 1):
            out[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = sup
        for i in range(1, n - 1):
            out[i * d:(i + 1) * d, i * d:(i + 1) * d] = dia
        return out
    inner = pinv_a0(PinvSpec(spec.f, spec.g, spec.h, n - 1), "A0")
    out = np.zeros((n * d, n * d), dtype=complex)
    out[0:(n - 1) * d, d:n * d] = inner
    return out


def toeplitz_t0(spec: PinvSpec) -> np.ndarray:
    """Upper-bidiagonal block Toeplitz with diagonal -h^{-1} f g^{-1} and
    superdiagonal h^{-1} g^{-1}."""
    d, n = spec.dim, spec.n
    h_inv = np.linalg.inv(spec.h)
    g_inv = np.linalg.inv(spec.g)
    a = h_inv @ spec.f @ g_inv
    b = h_inv @ g_inv
    out = np.zeros((n * d, n * d), dtype=complex)
    for i in range(n):
        out[i * d:(i + 1) * d, i * d:(i + 1) * d] = -a
        if i + 1 < n:
            out[i * d:(i + 1) * d, (i + 1) * d:(i + 2) * d] = b
    return out


def pinv_power(spec: PinvSpec) -> np.ndarray:
    """Moore-Penrose pseudoinverse of A0^p: the p-th power of the
    upper-bidiagonal Toeplitz with its last p block rows and first p block
    columns zeroed."""
    d, n, p = spec.dim, spec.n, spec.p
    out = np.zeros((n * d, n * d), dtype=complex)
    out[:(n - p) * d, p * d:] = t_hat(spec)
    return out


def t_hat(spec: PinvSpec) -> np.ndarray:
    """Square invertible sub-block of the zeroed Toeplitz power: rows up to
    (n-p), columns from p on."""
    d, n, p = spec.dim, spec.n, spec.p
    if p >= n / 2:
        raise ValueError("power too large for the block count (need p < n/2)")
    tp = matrix_power(toeplitz_t0(spec), p)
    return tp[0:(n - p) * d, p * d:]


def _power_factors(a, b, p: int):
    a, b = _as_block(a), _as_block(b)
    if a.shape != b.shape:
        raise ValueError("a and b must share one dimension")
    if p < 1:
        raise ValueError("power must be >= 1")
    return a, b


def power_symbol(a, b, p: int) -> SymbolFunction:
    """Hermitian normal-equation symbol F_p(x) = M(x) M(x)^* with
    M(x) = (-a + b e^{ix})^p = sum_j e^{ijx} M_j: its 2p + 1 blocks
    sum_{j - l = d} M_j M_l^*, for d from -p."""
    a, b = _power_factors(a, b, p)
    m = _tap._power_coeffs(-a, b, p, np.eye(a.shape[0]))
    prods = m[:, None] @ m.conj().swapaxes(1, 2)     # [j, l] = M_j M_l^*
    coeffs = np.array([np.diagonal(prods, -d).sum(axis=-1)
                       for d in range(-p, p + 1)])
    return SymbolFunction(coeffs, -p)


def symbol_min_eig(a, b, p: int = 1) -> _tap.TapResult:
    """Certified min over phase of lambda_min of the power symbol
    F_p(x) = M(x) M(x)^*, M(x) = (-a + b e^{ix})^p; the asymptotic minimum
    eigenvalue of the assembled normal-equation operators.

    On the unit circle -a + bz = z b (I - wA), w = conj(z), A = b^{-1} a, so
    lambda_min(F_p) = 1 / gamma^2, gamma = max_w sigma_max(((I - wA)^{-1}
    b^{-1})^p): the TAP's realization with left factor I, which the
    level-set iteration certifies. value is 1 / gamma^2 at the returned
    phase; no phase falls below upper = 1 / (gamma (1 + 2 TOL))^2. A
    singular b, or an eigenvalue of A within POLE_GAP of the unit circle, is
    a ValueError."""
    a, b = _power_factors(a, b, p)
    _check_invertible(b, "b")
    psi = np.linalg.solve(b, a)
    eigs = np.linalg.eigvals(psi)
    if np.any(np.abs(np.abs(eigs) - 1.0) < _tap.POLE_GAP):
        raise ValueError("phase singularity: b^{-1} a has a unit-circle eigenvalue")
    w, gamma, certified = _tap._hinf(*_tap._tap_realization(
        psi, np.linalg.inv(b), np.eye(psi.shape[0]), p), np.tile(eigs, p))
    return _tap.TapResult(1.0 / gamma**2, None, float(-w % (2.0 * np.pi)),
                          "level-set", certified,
                          1.0 / (gamma * (1.0 + 2.0 * _tap.TOL)) ** 2)


# ---------------------------------------------------------------------------
# diagonalizable-case brackets

@dataclass(frozen=True)
class DiagBound:
    lower: float
    upper: float
    index: int
    asymptote: float
    k: int
    n_coarse: int
    p: int
    relaxation: str


def diag_bounds(fine_values, coarse_values, k: int, n_coarse: int,
                p: int = 1, relaxation: str = "F") -> DiagBound:
    """Two-sided per-mode convergence bracket for simultaneously
    diagonalizable pairs, plus the infinite-horizon asymptote."""
    lam = np.asarray(fine_values, dtype=complex)
    mu = np.asarray(coarse_values, dtype=complex)
    if lam.shape != mu.shape or lam.ndim != 1:
        raise ValueError("eigenvalue arrays must be 1-d and congruent")
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    mu_abs = np.abs(mu)
    if np.any(mu_abs >= 1.0):
        raise ValueError("coarse eigenvalue magnitude >= 1")
    lam_k = lam ** k
    num = np.abs(mu - lam_k)
    if relaxation == "FCF":
        # with k = 1 there are no F-points: FCF relaxation solves exactly
        num = num * np.abs(lam_k) * (k >= 2)
    den_lo = np.sqrt((1.0 - mu_abs) ** 2 + np.pi**2 * mu_abs / n_coarse**2)
    den_up = np.sqrt((1.0 - mu_abs) ** 2 + np.pi**2 * mu_abs / (6.0 * n_coarse**2))
    low_i = (num / den_lo) ** p
    up_i = (num / den_up) ** p
    idx = int(np.argmax(up_i))
    asym = float(np.max(num / (1.0 - mu_abs)) ** p)
    return DiagBound(float(np.max(low_i)), float(np.max(up_i)), idx, asym,
                     k, n_coarse, p, relaxation)


# ---------------------------------------------------------------------------
# tridiagonal spectra

def tridiag_toeplitz_eigs(mu: complex, n: int) -> np.ndarray:
    """Eigenvalues 1 + |mu|^2 + 2|mu| cos(l pi/(n+1)) of the Hermitian
    tridiagonal Toeplitz normal-equation matrix."""
    if n < 1:
        raise ValueError("need n >= 1")
    m = abs(mu)
    ell = np.arange(1, n + 1)
    return 1.0 + m * m + 2.0 * m * np.cos(ell * np.pi / (n + 1))


def tridiag_perturbed_min_eig(mu: complex, n: int):
    """Minimum eigenvalue of the tridiagonal Toeplitz matrix whose last
    diagonal entry is relaxed from 1+|mu|^2 to 1, with the certified bracket
    (1-|mu|)^2 + pi^2 |mu|/(6 n^2) <= value <= (1-|mu|)^2 + pi^2 |mu|/n^2.
    The matrix is the flip J T J of the per-mode Gram matrix T of
    relaxed_toeplitz_min, whose closed form gives the value.

    The bracket proof needs n >= 10; below that the value is still computed
    and the bounds are omitted.
    """
    m = abs(mu)
    if not (0.0 < m < 1.0):
        raise ValueError("need 0 < |mu| < 1")
    if n < 1:
        raise ValueError("need n >= 1")
    value = float(relaxed_toeplitz_min(np.array([m]), n)[0][0])
    if n < BRACKET_MIN_N:
        return value, None, None
    lower = (1.0 - m) ** 2 + np.pi**2 * m / (6.0 * n * n)
    upper = (1.0 - m) ** 2 + np.pi**2 * m / (n * n)
    return value, float(lower), float(upper)


# ---------------------------------------------------------------------------
# time-dependent sequences

@dataclass(frozen=True)
class TimeDepSpec:
    """Per-mode eigenvalue sequences of time-dependent fine and coarse
    steppers: fine_values has one row per fine step, coarse_values one row
    per coarse step, columns indexing spatial modes."""
    fine_values: np.ndarray
    coarse_values: np.ndarray
    k: int

    def __post_init__(self):
        fv = np.atleast_2d(np.asarray(self.fine_values, dtype=complex))
        cv = np.atleast_2d(np.asarray(self.coarse_values, dtype=complex))
        if self.k < 1:
            raise ValueError("coarsening factor must be positive")
        if fv.shape[0] != self.k * cv.shape[0]:
            raise ValueError("need k fine steps per coarse step")
        if fv.shape[1] != cv.shape[1]:
            raise ValueError("fine and coarse mode counts differ")
        if np.any(np.abs(cv) >= 1.0):
            raise ValueError("coarse eigenvalue magnitude >= 1")
        object.__setattr__(self, "fine_values", fv)
        object.__setattr__(self, "coarse_values", cv)

    @property
    def n_coarse(self) -> int:
        return self.coarse_values.shape[0] + 1

    @property
    def n_modes(self) -> int:
        return self.coarse_values.shape[1]

    @property
    def slice_products(self) -> np.ndarray:
        """Per coarse step, the product of the k fine eigenvalues it spans."""
        fv = self.fine_values
        return np.prod(fv.reshape(-1, self.k, fv.shape[1]), axis=1)

    def defects(self, index=slice(None)) -> np.ndarray:
        d = self.slice_products[:, index] - self.coarse_values[:, index]
        if np.any(np.abs(d) < 1e-300):
            raise ValueError("zero per-step defect; tridiagonal entries diverge")
        return d


def assemble_timedep(spec: TimeDepSpec, index: int) -> np.ndarray:
    """Coarse-level residual-propagation matrix of one spatial mode for the
    time-dependent sequences (first row zero, strictly lower)."""
    eye = np.eye(spec.n_coarse)
    a = eye - np.diag(spec.slice_products[:, index], -1)
    b = eye - np.diag(spec.coarse_values[:, index], -1)
    return eye - a @ np.linalg.inv(b)


def timedep_pinv(spec: TimeDepSpec, index: int) -> np.ndarray:
    """Closed-form Moore-Penrose pseudoinverse of the time-dependent
    coarse-level residual-propagation matrix of one mode."""
    mu = spec.coarse_values[:, index]
    d = spec.defects(index)
    return np.diag(1.0 / d, 1) + np.diag(np.r_[0.0, -mu[:-1] / d[:-1], 0.0])


def timedep_tridiagonal(spec: TimeDepSpec):
    """Diagonals (n_modes, N_c - 1) and superdiagonals (n_modes, N_c - 2) of
    the Hermitian tridiagonal matrices whose minimum eigenvalues give the
    exact mode norms: C diag(1/|d|^2) C^*, with d the per-step defects and C
    unit lower bidiagonal with subdiagonal -mu."""
    mu = spec.coarse_values[:-1].T
    return bidiagonal_gram(-mu, np.abs(spec.defects().T) ** 2)


def timedep_exact_norm(spec: TimeDepSpec):
    """(exact modified-norm of the residual-propagation operator, Gershgorin
    sufficient bound). The exact value is max over modes of
    1/sqrt(lambda_min) of the tridiagonal reduction; the bound replaces
    lambda_min by its smallest Gershgorin disc edge. Only the smallest
    lambda_min over the modes is resolved (tridiag_stack_min)."""
    diag, off = timedep_tridiagonal(spec)
    lam_min = tridiag_stack_min(diag, off)
    if lam_min <= 0:
        raise ValueError("nonpositive tridiagonal minimum eigenvalue")
    g = np.min(gershgorin_min(diag, off))
    bound = 1.0 / math.sqrt(g) if g > 0 else math.inf
    return 1.0 / math.sqrt(lam_min), bound


# ---------------------------------------------------------------------------
# necessary lower bounds on propagator norms

@dataclass(frozen=True)
class NecessaryBound:
    value: float
    available: bool
    reason: str = ""


def necessary_lower_bound(pair: StepperPair, grid: GridSpec,
                          relaxation: str = "F", p: int = 1,
                          side: str = "residual", *,
                          coarse_norm: float | None = None) -> NecessaryBound:
    """Lower bound on the norm of the p-th power of the coarse-level
    propagation block X on either side: ||X^p|| = ||T_n(G^p)||,
    n = block_rows(grid, relaxation, p), by Golub-Kahan-Lanczos on a
    realization of G^p with state dimension p N_x. A Ritz value is attained
    by its Ritz vector, so it never exceeds the norm, and Lanczos runs until
    the LDL* certificate of _lanczos_norm puts the norm within 2 TOL of it
    or the Krylov space is the whole space. It inverts nothing, so a
    singular D, Psi or Phi^k leaves it available. At p = 1 it is the
    residual-side coarse norm, taken from coarse_norm when the caller
    already has it, and also the error-side one when the steppers commute,
    because the two blocks then coincide. It is unavailable only where X^p
    is zero: n = 0."""
    if p < 1:
        raise ValueError("power must be >= 1")
    if relaxation == "FCF" and grid.k == 1:
        return NecessaryBound(0.0, False, "FCF relaxation at k = 1 is a "
                              "sequential solve; the coarse block is zero")
    n = _st.block_rows(grid, relaxation, p)
    if n == 0:
        return NecessaryBound(0.0, False,
                              "too few coarse points for the requested power")
    if p == 1 and (side == "residual" or pair.commuting):
        if coarse_norm is None:
            coarse_norm = _st.coarse_norm(pair, grid, relaxation).value
        return NecessaryBound(float(coarse_norm), True)
    lft, rgt = coarse_factors(pair, relaxation, side)
    a, b, c = _tap._tap_realization(pair.coarse.matrix, rgt, lft, p,
                                    rgt @ lft)
    op = _st.CoarseOperator(a, b, c, n)
    return NecessaryBound(_st._lanczos_norm(op, n * pair.dim, False).value, True)
