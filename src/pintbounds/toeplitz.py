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

from .operators import StepperPair, matrix_power
from .spacetime import GridSpec
from .tridiag import tridiag_min_eig
from . import tap as _tap

COND_CAP = 1e12
FOURIER_POINTS = 4096
BRACKET_MIN_N = 10     # smallest N_c for which the bracket is proven

SYMBOL_KINDS = ("F-relaxation", "FCF-relaxation", "error-side-F", "error-side-FCF")


# ---------------------------------------------------------------------------
# symbols

@dataclass(frozen=True)
class SymbolFunction:
    """Phase-indexed matrix symbol x -> F(x) of a block-Toeplitz family."""
    evaluator: object
    kind: str
    dim: int
    n_coarse: int = 0
    skip: object = None   # optional pole predicate on x

    def __call__(self, x: float) -> np.ndarray:
        return self.evaluator(float(x))


def build_symbol(pair: StepperPair, grid: GridSpec, kind: str) -> SymbolFunction:
    """Generating function of the assembled coarse-level propagation block."""
    if kind not in SYMBOL_KINDS:
        raise ValueError(f"unknown symbol kind {kind!r}")
    psi = pair.coarse.matrix
    defect = pair.coarse_defect
    nc = grid.n_coarse
    psi_nc = matrix_power(psi, nc)
    eye = np.eye(psi.shape[0], dtype=complex)
    fcf = kind in ("FCF-relaxation", "error-side-FCF")
    if fcf:
        s = np.linalg.svd(pair.fine_power, compute_uv=False)
        if s[-1] == 0 or s[0] / s[-1] > COND_CAP:
            raise ValueError("fine-propagator power is singular")
    phik = pair.fine_power

    def evaluator(x):
        z = np.exp(1j * x)
        osc = eye - z**nc * psi_nc
        inv = np.linalg.inv(eye - z * psi)
        if kind.startswith("error"):
            m = z * osc @ inv @ defect
        else:
            m = z * defect @ osc @ inv
        if fcf:
            m = m @ phik
        return m

    return SymbolFunction(evaluator, kind, psi.shape[0], nc,
                          skip=_tap._psi_poles(pair))


def symbol_max_sv(sym: SymbolFunction, phase_grid: int = 1024) -> float:
    """max over phase of the largest singular value; upper-bounds the l2 norm
    of every finite assembly of the corresponding block-Toeplitz operator."""

    def fun(x):
        return float(np.linalg.svd(sym(x), compute_uv=False)[0])

    return _tap._extremum_over_phases(fun, phase_grid, skip=sym.skip)[1]


def symbol_min_eig(sym: SymbolFunction, phase_grid: int = 1024) -> float:
    """min over phase of the smallest eigenvalue of a Hermitian-valued symbol;
    the asymptotic minimum eigenvalue of the assembled operators."""

    def check_hermitian(m):
        scale = max(1.0, float(np.max(np.abs(m))))
        if np.max(np.abs(m - m.conj().T)) > 1e-10 * scale:
            raise ValueError("symbol is not Hermitian")

    def fun(x):
        m = sym(x)
        check_hermitian(m)
        return float(np.min(np.linalg.eigvalsh(m)))

    return _tap._extremum_over_phases(fun, phase_grid, minimize=True,
                                      skip=sym.skip)[1]


def symbol_coefficients(sym: SymbolFunction, modes: int,
                        n_quad: int = FOURIER_POINTS) -> dict:
    """Toeplitz coefficients c_m = (1/2pi) int F(x) e^{-imx} dx recovered by
    trapezoidal Fourier quadrature, for |m| <= modes."""
    xs = 2.0 * np.pi * np.arange(n_quad) / n_quad
    vals = np.array([sym(x) for x in xs])
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
    s = np.linalg.svd(m, compute_uv=False)
    if s[-1] == 0 or s[0] / s[-1] > COND_CAP:
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
    if spec.p >= spec.n / 2:
        raise ValueError("power too large for the block count (need p < n/2)")
    d, n, p = spec.dim, spec.n, spec.p
    tp = matrix_power(toeplitz_t0(spec), p)
    tp[(n - p) * d:, :] = 0.0
    tp[:, :p * d] = 0.0
    return tp


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
        m = matrix_power(-a + np.exp(1j * x) * b, p)
        return m @ m.conj().T

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
        num = num * np.abs(lam_k)
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
        k = self.k
        fv = self.fine_values
        out = np.ones_like(self.coarse_values)
        for j in range(self.coarse_values.shape[0]):
            out[j] = np.prod(fv[j * k:(j + 1) * k], axis=0)
        return out

    def defects(self, index: int) -> np.ndarray:
        d = self.slice_products[:, index] - self.coarse_values[:, index]
        if np.any(np.abs(d) < 1e-300):
            raise ValueError("zero per-step defect; tridiagonal entries diverge")
        return d


def assemble_timedep(spec: TimeDepSpec, index: int) -> np.ndarray:
    """Coarse-level residual-propagation matrix of one spatial mode for the
    time-dependent sequences (first row zero, strictly lower)."""
    nc = spec.n_coarse
    mu = spec.coarse_values[:, index]
    lam = spec.slice_products[:, index]
    a = np.eye(nc, dtype=complex)
    b = np.eye(nc, dtype=complex)
    for j in range(nc - 1):
        a[j + 1, j] = -lam[j]
        b[j + 1, j] = -mu[j]
    return np.eye(nc) - a @ np.linalg.inv(b)


def timedep_pinv(spec: TimeDepSpec, index: int) -> np.ndarray:
    """Closed-form Moore-Penrose pseudoinverse of the time-dependent
    coarse-level residual-propagation matrix of one mode."""
    nc = spec.n_coarse
    m = nc - 1
    mu = spec.coarse_values[:, index]
    d = spec.defects(index)
    out = np.zeros((nc, nc), dtype=complex)
    for i in range(m):
        out[i, i + 1] = 1.0 / d[i]
    for i in range(1, m):
        out[i, i] = -mu[i - 1] / d[i - 1]
    return out


def timedep_tridiagonal(spec: TimeDepSpec, index: int):
    """Diagonal and superdiagonal of the Hermitian tridiagonal matrix whose
    minimum eigenvalue gives the exact mode norm."""
    m = spec.n_coarse - 1
    mu = spec.coarse_values[:, index]
    delta = np.abs(spec.defects(index)) ** 2
    diag = np.empty(m)
    diag[0] = 1.0 / delta[0]
    for i in range(1, m):
        diag[i] = np.abs(mu[i - 1]) ** 2 / delta[i - 1] + 1.0 / delta[i]
    off = np.array([-np.conj(mu[t]) / delta[t] for t in range(m - 1)])
    return diag, off


def timedep_exact_norm(spec: TimeDepSpec):
    """(exact modified-norm of the residual-propagation operator, Gershgorin
    sufficient bound). The exact value is max over modes of
    1/sqrt(lambda_min) of the tridiagonal reduction; the bound replaces
    lambda_min by its smallest Gershgorin disc edge."""
    exact = 0.0
    bound = 0.0
    for i in range(spec.n_modes):
        diag, off = timedep_tridiagonal(spec, i)
        lam_min = tridiag_min_eig(diag, off)
        if lam_min <= 0:
            raise ValueError("nonpositive tridiagonal minimum eigenvalue")
        exact = max(exact, 1.0 / math.sqrt(lam_min))
        radius = np.zeros_like(diag)
        if diag.size > 1:
            absoff = np.abs(off)
            radius[:-1] += absoff
            radius[1:] += absoff
        g = float(np.min(diag - radius))
        bound = max(bound, 1.0 / math.sqrt(g) if g > 0 else math.inf)
    return exact, bound


# ---------------------------------------------------------------------------
# necessary lower bounds on propagator norms

def _ill_conditioned(sv: np.ndarray) -> bool:
    return sv.min() == 0 or sv.max() / sv.min() > COND_CAP


def _mode_t_hat_min_sv(mu: np.ndarray, lam_k: np.ndarray, relaxation: str,
                       side: str, n: int, p: int) -> float:
    """Smallest singular value of t_hat for a pair with a unitary shared
    eigenbasis (Psi eigenvalues mu, Phi^k eigenvalues lam_k): t_hat is
    unitarily similar to the direct sum of its scalar per-mode versions, whose
    T0 is upper bidiagonal with diagonal -f/(h g) and superdiagonal 1/(h g)."""
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
                          side: str = "residual") -> NecessaryBound:
    """Certified lower bound on the norm of the p-th power of the coarse-level
    propagation block, through the minimum singular value of the structured
    pseudoinverse's invertible Toeplitz sub-block."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    if side not in ("residual", "error"):
        raise ValueError(f"unknown side {side!r}")
    psi = pair.coarse.matrix
    phik = pair.fine_power
    defect = pair.coarse_defect
    eig = pair.shared_eig
    per_mode = eig is not None and eig.normal
    if per_mode:
        # singular values of normal matrices are their eigenvalue moduli
        lam_k = eig.fine_values ** pair.k
        defect_sv, phik_sv = np.abs(eig.coarse_values - lam_k), np.abs(lam_k)
    else:
        defect_sv = np.linalg.svd(defect, compute_uv=False)
        if relaxation == "FCF":
            phik_sv = np.linalg.svd(phik, compute_uv=False)
    if _ill_conditioned(defect_sv):
        return NecessaryBound(0.0, False,
                              "coarse defect singular; pseudoinverse path unavailable")
    if relaxation == "FCF":
        if _ill_conditioned(phik_sv):
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
    if per_mode:
        sigma = _mode_t_hat_min_sv(eig.coarse_values, lam_k, relaxation, side,
                                   n_eff, p)
    else:
        if _ill_conditioned(np.linalg.svd(psi, compute_uv=False)):
            return NecessaryBound(0.0, False,
                                  "coarse stepper singular; pseudoinverse "
                                  "path unavailable")
        eye = np.eye(psi.shape[0], dtype=complex)
        if side == "residual":
            g, h = defect, eye if relaxation == "F" else phik
        else:
            g = eye
            h = defect if relaxation == "F" else defect @ phik
        spec = PinvSpec(psi, g, h, n_eff, p)
        sigma = np.linalg.svd(t_hat(spec), compute_uv=False)[-1]
    return NecessaryBound(float(1.0 / sigma), True)
