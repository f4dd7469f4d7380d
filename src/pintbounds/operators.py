"""Spatial operators and one-step time integrators.

Builds the spatial operator L of u_t = L u, and the fine/coarse time-stepping
matrices Phi and Psi as stability functions R(dt*L) of one-step schemes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

COMMUTATION_TOL = 1e-12
DENSE_CAP = 4096       # largest order of a dense oracle block or operator
NORMAL_TOL = 1e-10
RCOND_CAP = 1e-12


def _real_if(m: np.ndarray) -> np.ndarray:
    """m as a real array when its imaginary part is zero; products of real
    arrays take a quarter of the flops."""
    return m.real if np.iscomplexobj(m) and not m.imag.any() else m


class SpatialOperator:
    """The spatial operator L of u_t = L u, of order dim: a dense matrix, or
    a symmetric tridiagonal Toeplitz one (the Dirichlet Laplacian) given by
    band = (dim, diagonal value, off-diagonal value), whose matrix is formed
    only when a consumer reads it. eigenvalues are those of a normal L,
    checked on construction against Schur's equalities: the eigenvalues ell
    of L sum to tr L, and sum |ell|^2 = ||L||_F^2 exactly when L is normal.
    For a band these are n d and n d^2 + 2 (n - 1) o^2, so that no N_x^2
    array is made."""

    def __init__(self, matrix: np.ndarray | None,
                 eigenvalues: np.ndarray | None = None,
                 band: tuple[int, float, float] | None = None):
        self.eigenvalues, self.band = eigenvalues, band
        if band is None:
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError("spatial operator must be a square matrix")
            if not np.isfinite(matrix).all():
                raise ValueError("spatial operator has non-finite entries")
            self.matrix = matrix
        elif not (math.isfinite(band[1]) and math.isfinite(band[2])):
            raise ValueError("spatial operator has non-finite entries")
        n = self.dim = matrix.shape[0] if band is None else band[0]
        if eigenvalues is not None:
            # both sides of Schur's equalities scaled by one power of two
            trace, fro2, e = self._unit_moments()
            ell = _ldexp(np.asarray(eigenvalues), -e)
            scale = max(math.ldexp(1.0, -e), math.sqrt(fro2))
            if (ell.shape != (n,)
                    or abs(ell.sum() - trace)
                    > NORMAL_TOL * math.sqrt(n) * scale
                    # scale**2 would raise OverflowError for tiny entries
                    or abs(float(np.vdot(ell, ell).real) - fro2)
                    > NORMAL_TOL * scale * scale):
                raise ValueError("eigenvalues are not those of a normal "
                                 "operator")

    def _unit_moments(self):
        """(tr, ||.||_F^2, e) of L 2^-e, L scaled by a power of two, exactly,
        to entries below one, so that entries past 1e154 do not overflow
        when squared; from the band where there is one, with no N_x^2
        array."""
        if self.band is None:
            unit, e = _unit(self.matrix)
            return np.trace(unit), float(np.vdot(unit, unit).real), e
        n, diag, off = self.band
        # the largest entry, the off-diagonal one only where there is one
        e = math.frexp(max(abs(diag), abs(off) if n > 1 else 0.0))[1]
        diag, off = math.ldexp(diag, -e), math.ldexp(off, -e)
        return n * diag, n * diag**2 + 2 * (n - 1) * off**2, e

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The dense matrix of a band; an order past DENSE_CAP raises
        ValueError and allocates nothing."""
        n, diag, off = self.band
        if n > DENSE_CAP:
            raise ValueError(f"the dense matrix of the spatial operator at "
                             f"N_x = {n} exceeds the dense cap {DENSE_CAP}")
        m = np.zeros((n, n))
        i = np.arange(n)
        m[i, i] = diag
        m[i[1:], i[:-1]] = m[i[:-1], i[1:]] = off
        return m


def _parse_entry(tok: str) -> complex:
    tok = tok.strip().replace("i", "j")
    return complex(tok)


def _read_matrix_file(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            toks = line.replace(",", " ").split()
            try:
                rows.append([_parse_entry(t) for t in toks])
            except ValueError as exc:
                raise ValueError(f"malformed matrix file {path!r}: {exc}") from exc
    if not rows:
        raise ValueError(f"matrix file {path!r} is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1 or widths.pop() != len(rows):
        raise ValueError(f"matrix file {path!r} is not square")
    return np.array(rows, dtype=complex)


def build_spatial(kind: str, n: int | None = None, h: float = 1.0,
                  velocity: float = 1.0, path=None) -> SpatialOperator:
    """Assemble a spatial operator.

    kind: 'laplacian-1d-dirichlet' (needs n, h), 'advection-1d-upwind'
    (needs n, velocity, h), or 'from-file' (needs path).
    """
    if kind == "laplacian-1d-dirichlet":
        if n is None or n < 1:
            raise ValueError("laplacian-1d-dirichlet needs n >= 1")
        if h <= 0:
            raise ValueError("mesh width must be positive")
        # eigenvalues reach -4 / h^2: h^2 must be finite and keep them so
        if not 4.0 * np.finfo(float).tiny <= h * h < math.inf:
            raise ValueError(f"mesh width {h!r}: h^2 and 4 / h^2 must be "
                             "finite")
        ell = np.arange(1, n + 1)
        values = (-2.0 + 2.0 * np.cos(ell * np.pi / (n + 1))) / h**2
        return SpatialOperator(None, values.astype(complex),
                               band=(n, *np.array([-2.0, 1.0]) / h**2))
    if kind == "advection-1d-upwind":
        if n is None or n < 1:
            raise ValueError("advection-1d-upwind needs n >= 1")
        if h <= 0:
            raise ValueError("mesh width must be positive")
        m = (-velocity / h) * np.eye(n) + (velocity / h) * np.diag(np.ones(n - 1), -1)
        return SpatialOperator(m)
    if kind == "from-file":
        if path is None:
            raise ValueError("from-file needs a path")
        return SpatialOperator(_real_if(_read_matrix_file(path)))
    raise ValueError(f"unknown spatial operator kind {kind!r}")


def laplacian_basis(n: int) -> np.ndarray:
    """The orthogonal DST-I matrix U of order n, whose column l is the
    eigenvector of the n-point Dirichlet Laplacian for its eigenvalue l in
    the order of build_spatial: L = U diag(ell) U^T. No bound or iteration
    reads it; it maps mode coordinates to physical ones for checks."""
    j = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.outer(j, j) * np.pi / (n + 1))


_SDIRK2_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SchemeSpec:
    kind: str
    dt: float
    theta: float | None = None
    numerator: tuple | None = None     # ascending polynomial coefficients
    denominator: tuple | None = None

    def __post_init__(self):
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be finite and positive")
        if self.kind == "theta":
            if self.theta is None or not 0.0 <= self.theta <= 1.0:
                raise ValueError("theta scheme needs theta in [0, 1]")
        elif self.kind == "custom-rational":
            if not self.numerator or not self.denominator:
                raise ValueError("custom-rational needs numerator and denominator")
            if self.denominator[0] == 0:
                raise ValueError("custom-rational denominator needs nonzero constant term")
        elif self.kind not in ("forward-euler", "backward-euler", "rk4", "sdirk2"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")


def rational_coefficients(scheme: SchemeSpec) -> tuple[tuple, tuple]:
    """Ascending numerator/denominator coefficients of the stability function."""
    if scheme.kind == "forward-euler":
        return (1.0, 1.0), (1.0,)
    if scheme.kind == "backward-euler":
        return (1.0,), (1.0, -1.0)
    if scheme.kind == "theta":
        return (1.0, 1.0 - scheme.theta), (1.0, -scheme.theta)
    if scheme.kind == "rk4":
        return (1.0, 1.0, 0.5, 1.0 / 6.0, 1.0 / 24.0), (1.0,)
    if scheme.kind == "sdirk2":
        g = _SDIRK2_GAMMA
        return (1.0, 1.0 - 2.0 * g), (1.0, -2.0 * g, g * g)
    return tuple(scheme.numerator), tuple(scheme.denominator)


def _polyval_matrix(coeffs, z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out @ z + c * np.eye(z.shape[0])
    return out


def stability_eval(scheme: SchemeSpec, z: np.ndarray) -> np.ndarray:
    """Scheme stability function on scalar arguments z = dt*lambda (vectorized)."""
    num, den = rational_coefficients(scheme)
    z = np.asarray(z, dtype=complex)
    p = sum(c * z**i for i, c in enumerate(num))
    q = sum(c * z**i for i, c in enumerate(den))
    return p / q


def stability_matrix(scheme: SchemeSpec, z: np.ndarray) -> np.ndarray:
    """Scheme stability function of a matrix argument Z = dt*L."""
    num, den = rational_coefficients(scheme)
    p = _polyval_matrix(num, z)
    if len(den) == 1:
        return p / den[0]
    q = _polyval_matrix(den, z)
    try:
        return np.linalg.solve(q, p)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular implicit solve for scheme {scheme.kind}") from exc


def _ldexp(m: np.ndarray, e: int) -> np.ndarray:
    """m 2^e, exactly, in the dtype of m."""
    if np.iscomplexobj(m):
        return np.ldexp(m.real, e) + 1j * np.ldexp(m.imag, e)
    return np.ldexp(m, e)


def _unit(m: np.ndarray):
    """(m 2^-e, e): m scaled by a power of two, exactly, to entries of size
    below one; real when m is."""
    e = math.frexp(float(np.abs(m).max()))[1]
    return _ldexp(m, -e), e


def ill_conditioned(sv: np.ndarray) -> bool:
    """Whether the singular values sv are those of a singular or numerically
    singular matrix."""
    top = sv.max()
    return bool(top == 0 or sv.min() / top <= RCOND_CAP)


@dataclass(frozen=True)
class Stepper:
    """The step u -> M u, M = R(dt L), of a one-step scheme on a spatial
    operator L. Everything else is derived from the two when first read.
    On a normal operator with eigenvalues ell the stepper is normal too,
    with eigenvalues values = R(dt ell): its norm, spectral radius and
    spectrum follow from them, and the dense matrix is formed (by
    stability_matrix) only when a consumer asks for it. The same schemes on
    the operator without its eigenvalues give the dense twin, whose values
    are None and whose norm and spectrum come from its matrix."""
    scheme: SchemeSpec
    source: SpatialOperator

    @functools.cached_property
    def values(self) -> np.ndarray | None:
        ell = self.source.eigenvalues
        return None if ell is None else _mode_values(self.scheme, ell)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        m = stability_matrix(self.scheme, self.scheme.dt * self.source.matrix)
        if not np.isfinite(m).all():
            raise ValueError("overflow in stability-function evaluation")
        return m

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues of M."""
        if self.values is not None:
            return self.values
        return np.linalg.eigvals(self.matrix)

    @functools.cached_property
    def norm(self) -> float:
        if self.values is not None:
            return float(np.abs(self.values).max())
        return float(np.linalg.svd(self.matrix, compute_uv=False)[0])

    @functools.cached_property
    def spectral_radius(self) -> float:
        return float(np.abs(self.spectrum).max())

    @property
    def spectrally_stable(self) -> bool:
        return self.spectral_radius < 1.0

    @property
    def dim(self) -> int:
        return self.source.dim


def _mode_values(scheme: SchemeSpec, ell: np.ndarray) -> np.ndarray:
    """R(dt ell) at the eigenvalues ell of a normal operator. A denominator
    value that rounding leaves without a correct digit (within its
    evaluation error of zero) is a singular implicit solve, and a value past
    the double range an overflow, as for the dense matrix."""
    z = scheme.dt * ell
    _, den = rational_coefficients(scheme)
    with np.errstate(all="ignore"):
        values = stability_eval(scheme, z)
        q = sum(c * z**i for i, c in enumerate(den))
        size = sum(abs(c) * np.abs(z) ** i for i, c in enumerate(den))
    if np.any(np.abs(q) <= len(den) * np.finfo(float).eps * size):
        raise ValueError(f"singular implicit solve for scheme {scheme.kind}")
    if not np.isfinite(values).all():
        raise ValueError("overflow in stability-function evaluation")
    return values


def build_stepper(L: SpatialOperator, scheme: SchemeSpec) -> Stepper:
    """The stepper of scheme on L: from its eigenvalues alone when L is
    normal with known eigenvalues, otherwise as a dense matrix. Either is
    formed here, so that a singular solve or an overflow raises ValueError
    now and not where it is first read."""
    stepper = Stepper(scheme, L)
    if L.eigenvalues is not None:
        stepper.values
    else:
        stepper.matrix
    return stepper


def rk4_defect(L: SpatialOperator, dt: float) -> np.ndarray:
    """Difference RK4(2*dt) - RK4(dt)^2 in closed polynomial form."""
    m = L.matrix
    n = m.shape[0]
    eye = np.eye(n)
    inner = eye + (5 * dt / 18) * m + (dt**2 / 18) * (m @ m) + (dt**3 / 144) * (m @ m @ m)
    m5 = np.linalg.matrix_power(m, 5)
    return -(dt**5 / 4) * m5 @ inner


def matrix_power(m: np.ndarray, k: int) -> np.ndarray:
    """m^k for k >= 0 by repeated squaring: about 2 log2(k) products, each of
    powers of m no higher than k, so it overflows only where some power up
    to m^k does."""
    return np.linalg.matrix_power(m, k)


@dataclass(frozen=True)
class SharedEigendecomposition:
    fine_values: np.ndarray    # eigenvalues of Phi
    coarse_values: np.ndarray  # eigenvalues of Psi


@dataclass(frozen=True)
class StepperPair:
    fine: Stepper
    coarse: Stepper
    k: int
    commuting: bool
    shared_eig: SharedEigendecomposition | None = None

    def __post_init__(self):
        if self.fine.dim != self.coarse.dim:
            raise ValueError("fine and coarse steppers must have identical dimension")
        if self.k < 1:
            raise ValueError("coarsening factor must be positive")

    @property
    def dim(self) -> int:
        return self.fine.dim

    @property
    def normal(self) -> bool:
        """Whether Phi and Psi are normal with one shared eigenbasis, their
        eigenvalues paired in shared_eig, and every |mu| < 1."""
        return self.shared_eig is not None

    @functools.cached_property
    def fine_power(self) -> np.ndarray:
        return matrix_power(self.fine.matrix, self.k)

    @functools.cached_property
    def fine_power_sv(self) -> np.ndarray:
        """Singular values of Phi^k, in no particular order; those of a normal
        pair are its eigenvalue moduli."""
        if self.normal:
            return np.abs(self.shared_eig.fine_values ** self.k)
        return np.linalg.svd(self.fine_power, compute_uv=False)

    @functools.cached_property
    def coarse_defect(self) -> np.ndarray:
        """Psi - Phi^k, the quantity every bound is built from."""
        return self.coarse.matrix - self.fine_power


# F(CF)^nu relaxation by name: nu, the number of CF sweeps after the F sweep
RELAXATIONS = {"F": 0, "FCF": 1}


def cf_sweeps(relaxation: str) -> int:
    """nu of the relaxation named relaxation, from RELAXATIONS."""
    if relaxation not in RELAXATIONS:
        raise ValueError(f"unknown relaxation {relaxation!r}")
    return RELAXATIONS[relaxation]


def coarse_factors(pair: StepperPair, relaxation: str, side: str):
    """(L, R) with G(z) = L (I - z Psi)^{-1} R the generating function of the
    coarse-level propagation block, up to its leading power of z and its
    sign: (D, M) on the residual side and (I, D M) on the error side, with
    D = Psi - Phi^k and M = Phi^{k nu} for nu CF sweeps (cf_sweeps)."""
    nu = cf_sweeps(relaxation)
    if side not in ("residual", "error"):
        raise ValueError(f"unknown side {side!r}")
    m = matrix_power(pair.fine_power, nu)
    if side == "residual":
        return pair.coarse_defect, m
    return np.eye(pair.dim), pair.coarse_defect @ m


def mode_defects(fine_values, coarse_values, k: int, relaxation: str):
    """(|mu|, d), the per-mode twin of coarse_factors: d_m = |mu_m - lam_m|
    |lam_m|^nu for nu CF sweeps, lam = lambda^k, lambda and mu the eigenvalues
    of Phi and Psi. Every per-mode closed form is d over a function of |mu|."""
    nu = cf_sweeps(relaxation)
    lam, mu = np.asarray(fine_values) ** k, np.asarray(coarse_values)
    return np.abs(mu), np.abs(mu - lam) * np.abs(lam) ** nu


def make_pair(fine: Stepper, coarse: Stepper, k: int) -> StepperPair:
    """The pair (Phi, Psi) with coarsening factor k. Steppers on one normal
    operator, built from its eigenvalues (build_stepper), commute and share
    its eigenbasis; the pair is normal, and carries their eigenvalues, when
    every |mu| < 1. It needs no product of Phi and Psi; verify checks the
    eigenvalues against the dense twin, the same schemes on the operator
    without its eigenvalues. Any other pair is tested for commuting on its
    dense matrices."""
    if (fine.source is coarse.source and fine.values is not None
            and np.all(np.abs(coarse.values) < 1.0)):
        return StepperPair(fine, coarse, k, True, SharedEigendecomposition(
            fine.values, coarse.values))
    # exact under scaling by powers of two, which keeps huge entries finite
    (p, _), (q, _) = _unit(fine.matrix), _unit(coarse.matrix)
    comm = np.linalg.norm(p @ q - q @ p)
    commuting = comm <= COMMUTATION_TOL * max(1e-300, np.linalg.norm(p) * np.linalg.norm(q))
    return StepperPair(fine, coarse, k, commuting)
