"""Block-Toeplitz symbols, closed-form pseudoinverses, tridiagonal spectra,
and the convergence-bound formulas built on them.

Covers the symbol-side norm predictors (max singular value / min eigenvalue
over phase), explicit pseudoinverses of the structured strictly-lower
block-Toeplitz operators and their powers, the two-sided diagonalizable-case
convergence brackets, and the time-dependent tridiagonal reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import StepperPair, ill_conditioned, matrix_power
from .spacetime import GridSpec
from .tridiag import bidiagonal_gram, gershgorin_min, tridiag_min_eig
from . import spacetime as _st
from . import tap as _tap

FOURIER_POINTS = 4096
BRACKET_MIN_N = 10     # smallest N_c for which the bracket is proven
BISECT_ROUNDS = 40     # most bisection rounds of a certified symbol maximum
BISECT_CELLS = 1024    # most phase cells one bisection round may split

SYMBOL_KINDS = ("F-relaxation", "FCF-relaxation", "error-side-F", "error-side-FCF")


# ---------------------------------------------------------------------------
# symbols

@dataclass(frozen=True)
class SymbolFunction:
    """Phase-indexed matrix symbol x -> F(x) of a block-Toeplitz family. The
    evaluator maps a 1-d array of phases to the stack of F over them, or to
    one matrix that holds for every phase. coeffs, when given, holds the
    blocks C_j of F(x) = sum_{j < len(coeffs)} e^{i(j+1)x} C_j."""
    evaluator: object
    kind: str
    dim: int
    coeffs: np.ndarray | None = None

    def __call__(self, x) -> np.ndarray:
        """F(x) at one phase, or the stack of F over an array of phases."""
        x = np.asarray(x, dtype=float)
        m = np.broadcast_to(self.evaluator(x.reshape(-1)),
                            (x.size, self.dim, self.dim))
        return m.reshape(x.shape + (self.dim, self.dim))


def _fir(coeffs: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """The stack of sum_j e^{2 pi i (j+1) t} coeffs[j] over the phases t of
    turns, given in turns (x = 2 pi t). The exponent is reduced mod 1 before
    it is scaled by 2 pi, exactly for dyadic t, so its rounding error does
    not grow with j."""
    n, d = coeffs.shape[0], coeffs.shape[1]
    z = np.exp(2j * np.pi * (np.outer(turns, np.arange(1, n + 1)) % 1.0))
    return (z @ coeffs.reshape(n, d * d)).reshape(-1, d, d)


def build_symbol(pair: StepperPair, grid: GridSpec, kind: str) -> SymbolFunction:
    """Generating function of the assembled coarse-level propagation block.

    It is the polynomial z (I - z^{N_c} Psi^{N_c}) (I - z Psi)^{-1} =
    sum_{j < N_c} z^{j+1} Psi^j on either side of the defect: F(z) =
    sum_j z^{j+1} L Psi^j R with (L, R) = (Psi - Phi^k, M) on the residual
    side and (I, (Psi - Phi^k) M) on the error side, M = I for F and Phi^k
    for FCF."""
    if kind not in SYMBOL_KINDS:
        raise ValueError(f"unknown symbol kind {kind!r}")
    psi = pair.coarse.matrix
    defect = pair.coarse_defect
    d = psi.shape[0]
    fcf = kind in ("FCF-relaxation", "error-side-FCF")
    if fcf and ill_conditioned(pair.fine_power_sv):
        raise ValueError("fine-propagator power is singular")
    m = pair.fine_power if fcf else np.eye(d)
    lft, rgt = (np.eye(d), defect @ m) if kind.startswith("error") \
        else (defect, m)
    coeffs = np.empty((grid.n_coarse, d, d), dtype=complex)
    coeffs[0] = rgt
    for j in range(1, grid.n_coarse):
        coeffs[j] = psi @ coeffs[j - 1]
    coeffs = lft @ coeffs
    return SymbolFunction(lambda x: _fir(coeffs, x / (2.0 * np.pi)), kind,
                          d, coeffs)


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
    upper is within TOL of the value."""
    if sym.coeffs is None:
        raise ValueError("certified maximum needs the symbol's coefficients")
    norms = np.linalg.norm(sym.coeffs, axis=(1, 2))
    live = np.flatnonzero(norms)
    if live.size == 0:
        return _tap.TapResult(0.0, None, 0.0, "bernstein", True, 0.0)
    tails = np.cumsum(norms[::-1])[::-1]     # sum of the norms from j on
    floor = _tap.TOL / 16.0 * norms.max() / math.sqrt(sym.dim)
    cut = int(np.flatnonzero(tails >= floor)[-1]) + 1
    tail = float(tails[cut]) if cut < norms.size else 0.0
    coeffs = sym.coeffs[live[0]:cut]
    terms = coeffs.shape[0]
    deg2 = (0.5 * np.pi * (terms - 1)) ** 2 / 2.0    # n^2 (2 pi)^2 / 8
    pad = 2.0 * (terms + sym.dim) * np.finfo(float).eps \
        * float(norms[live[0]:cut].sum())

    def fun(t):
        f = _fir(coeffs, t)
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
    return _tap.TapResult(value, None, 2.0 * np.pi * t_best, "bernstein",
                          certified, upper)


def normal_symbol_max(pair: StepperPair, grid: GridSpec,
                      relaxation: str = "F") -> float:
    """Exact max over phase of the largest singular value of the F- or
    FCF-relaxation symbol of a pair with a unitary shared eigenbasis.

    The symbol splits into scalar modes z (mu - lam) sum_{j<N_c} (z mu)^j,
    times lam for FCF, with lam = lambda^k. Since |sum_j (z mu)^j| <=
    sum_j |mu|^j with equality at z mu = |mu|, mode m peaks at
    |mu - lam| (1 - |mu|^N_c) / (1 - |mu|); make_pair attaches the eigenbasis
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
        if ill_conditioned(pair.fine_power_sv):
            raise ValueError("fine-propagator power is singular")
        vals = vals * np.abs(lam)
    return float(np.max(vals))


def symbol_min_eig(sym: SymbolFunction) -> float:
    """min over phase of the smallest eigenvalue of a Hermitian-valued symbol;
    the asymptotic minimum eigenvalue of the assembled operators."""

    def fun(x):
        m = sym(x)
        scale = np.maximum(1.0, np.max(np.abs(m), axis=(1, 2)))
        if np.any(np.max(np.abs(m - m.conj().swapaxes(1, 2)), axis=(1, 2))
                  > 1e-10 * scale):
            raise ValueError("symbol is not Hermitian")
        return np.linalg.eigvalsh(m)[:, 0]

    return _tap._extremum_over_phases(fun, sym.dim, minimize=True)[1]


def symbol_coefficients(sym: SymbolFunction, modes: int,
                        n_quad: int = FOURIER_POINTS) -> dict:
    """Toeplitz coefficients c_m = (1/2pi) int F(x) e^{-imx} dx recovered by
    trapezoidal Fourier quadrature, for |m| <= modes."""
    xs = 2.0 * np.pi * np.arange(n_quad) / n_quad
    vals = sym(xs)
    out = {}
    for m in range(-modes, modes + 1):
        w = np.exp(-1j * m * xs)
        out[m] = np.tensordot(w, vals, axes=(0, 0)) / n_quad
    return out


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


def power_symbol(a, b, p: int) -> SymbolFunction:
    """Hermitian normal-equation symbol F_p(x) = M(x) M(x)^* with
    M(x) = (-a + b e^{ix})^p."""
    a = _as_block(a)
    b = _as_block(b)
    if a.shape != b.shape:
        raise ValueError("a and b must share one dimension")
    if p < 1:
        raise ValueError("power must be >= 1")

    def evaluator(x):
        m = np.linalg.matrix_power(-a + np.exp(1j * x)[:, None, None] * b, p)
        return m @ m.conj().swapaxes(1, 2)

    return SymbolFunction(evaluator, "power-normal", a.shape[0])


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

    The bracket proof needs n >= 10; below that the value is still computed
    and the bounds are omitted.
    """
    m = abs(mu)
    if not (0.0 < m < 1.0):
        raise ValueError("need 0 < |mu| < 1")
    if n < 1:
        raise ValueError("need n >= 1")
    diag = np.full(n, 1.0 + m * m)
    diag[-1] = 1.0
    off = np.full(n - 1, -m)
    value = tridiag_min_eig(diag, off)
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
    lambda_min by its smallest Gershgorin disc edge."""
    diag, off = timedep_tridiagonal(spec)
    lam_min = tridiag_min_eig(diag, off)
    if np.any(lam_min <= 0):
        raise ValueError("nonpositive tridiagonal minimum eigenvalue")
    g = np.min(gershgorin_min(diag, off))
    bound = 1.0 / math.sqrt(g) if g > 0 else math.inf
    return 1.0 / math.sqrt(np.min(lam_min)), bound


# ---------------------------------------------------------------------------
# necessary lower bounds on propagator norms

def _mode_t_hat_min_sv(mu: np.ndarray, lam_k: np.ndarray, relaxation: str,
                       side: str, n: int, p: int) -> float:
    """Smallest singular value of t_hat for a pair with a unitary shared
    eigenbasis (Psi eigenvalues mu, Phi^k eigenvalues lam_k): t_hat is
    unitarily similar to the direct sum of its scalar per-mode versions, whose
    T0 is upper bidiagonal with diagonal -f/(h g) and superdiagonal 1/(h g).
    Only for p >= 2: the Gram matrix of T0^p is then banded, not tridiagonal."""
    defect = mu - lam_k
    one = np.ones_like(mu)
    if side == "residual":
        g, h = defect, one if relaxation == "F" else lam_k
    else:
        g, h = one, defect if relaxation == "F" else defect * lam_k
    hg = h * g
    t0 = np.zeros((mu.size, n, n), dtype=complex)
    idx = np.arange(n)
    t0[:, idx, idx] = (-mu / hg)[:, None]
    t0[:, idx[:-1], idx[1:]] = (1.0 / hg)[:, None]
    power = t0
    for _ in range(p - 1):
        power = power @ t0
    sv = np.linalg.svd(power[:, :n - p, p:], compute_uv=False)
    return float(np.min(sv[:, -1]))


@dataclass(frozen=True)
class NecessaryBound:
    value: float
    available: bool
    reason: str = ""


def necessary_lower_bound(pair: StepperPair, grid: GridSpec,
                          relaxation: str = "F", p: int = 1,
                          side: str = "residual", *,
                          coarse_norm: float | None = None) -> NecessaryBound:
    """Certified lower bound on the norm of the p-th power of the coarse-level
    propagation block, through the minimum singular value of the structured
    pseudoinverse's invertible Toeplitz sub-block. At p = 1 it is exact: the
    residual-side coarse-block norm itself, taken from coarse_norm when the
    caller already has it, and also the error-side one when the steppers
    commute, because the two blocks then coincide. Only the assembled
    sub-block of the other cases is subject to the dense cap."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    if side not in ("residual", "error"):
        raise ValueError(f"unknown side {side!r}")
    if relaxation == "FCF" and grid.k == 1:
        return NecessaryBound(0.0, False, "FCF relaxation at k = 1 is a "
                              "sequential solve; the coarse block is zero")
    psi = pair.coarse.matrix
    phik = pair.fine_power
    defect = pair.coarse_defect
    eig = pair.shared_eig
    if pair.normal:
        # singular values of normal matrices are their eigenvalue moduli
        lam_k = eig.fine_values ** pair.k
        defect_sv = np.abs(eig.coarse_values - lam_k)
    else:
        defect_sv = np.linalg.svd(defect, compute_uv=False)
    if ill_conditioned(defect_sv):
        return NecessaryBound(0.0, False,
                              "coarse defect singular; pseudoinverse path unavailable")
    if relaxation == "FCF":
        if ill_conditioned(pair.fine_power_sv):
            return NecessaryBound(0.0, False,
                                  "fine-propagator power singular")
        if p > 1 and not pair.commuting:
            return NecessaryBound(0.0, False,
                                  "FCF power bound needs commuting steppers")
    # the offset-2 FCF block to the p-th power equals a zero-padded p-th power
    # of the offset-1 family with p fewer block rows
    n_eff = grid.n_coarse if relaxation == "F" else grid.n_coarse - p
    if p >= n_eff / 2:
        return NecessaryBound(0.0, False,
                              "too few coarse points for the requested power")
    if not pair.normal and ill_conditioned(np.linalg.svd(psi, compute_uv=False)):
        return NecessaryBound(0.0, False, "coarse stepper singular; "
                              "pseudoinverse path unavailable")
    if p == 1 and (side == "residual" or pair.commuting):
        # the block's pseudoinverse is t_hat padded with zeros, so
        # 1/sigma_min(t_hat) is the block norm, which coarse_norm computes
        # without assembling either
        if coarse_norm is None:
            coarse_norm = _st.coarse_norm(pair, grid, relaxation).value
        return NecessaryBound(float(coarse_norm), True)
    if not pair.normal and grid.n_coarse * psi.shape[0] > _st.DENSE_CAP:
        return NecessaryBound(0.0, False, "exceeds dense cap")
    if pair.normal:
        sigma = _mode_t_hat_min_sv(eig.coarse_values, lam_k, relaxation, side,
                                   n_eff, p)
    else:
        eye = np.eye(psi.shape[0], dtype=complex)
        if side == "residual":
            g, h = defect, eye if relaxation == "F" else phik
        else:
            g = eye
            h = defect if relaxation == "F" else defect @ phik
        spec = PinvSpec(psi, g, h, n_eff, p)
        sigma = np.linalg.svd(t_hat(spec), compute_uv=False)[-1]
    return NecessaryBound(float(1.0 / sigma), True)
