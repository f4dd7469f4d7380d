"""Spatial operators and one-step time integrators.

Builds the spatial operator L of u_t = L u, and the fine/coarse time-stepping
matrices Phi and Psi as stability functions R(dt*L) of one-step schemes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

COMMUTATION_TOL = 1e-12
NORMAL_TOL = 1e-10
RCOND_CAP = 1e-12


def _real_if(m: np.ndarray) -> np.ndarray:
    """m as a real array when its imaginary part is zero; products of real
    arrays take a quarter of the flops."""
    return m.real if np.iscomplexobj(m) and not m.imag.any() else m


@dataclass(frozen=True)
class SpatialOperator:
    matrix: np.ndarray
    label: str
    eigenvalues: np.ndarray | None = None   # those of a normal matrix

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("spatial operator must be a square matrix")
        if not np.isfinite(m).all():
            raise ValueError("spatial operator has non-finite entries")
        if self.eigenvalues is not None:
            # Schur: the eigenvalues ell of m sum to tr m, and sum |ell|^2
            # = ||m||_F^2 exactly when m is normal. Both sides are scaled
            # by one power of two, so that entries past 1e154 do not
            # overflow when squared
            unit, exp = _unit(m)
            ell = _ldexp(np.asarray(self.eigenvalues), -exp)
            fro2 = float(np.vdot(unit, unit).real)
            scale = max(math.ldexp(1.0, -exp), math.sqrt(fro2))
            if (ell.shape != (m.shape[0],)
                    or abs(ell.sum() - np.trace(unit))
                    > NORMAL_TOL * math.sqrt(m.shape[0]) * scale
                    or abs(float(np.vdot(ell, ell).real) - fro2)
                    > NORMAL_TOL * scale**2):
                raise ValueError("eigenvalues are not those of a normal "
                                 "operator")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
        m = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
             + np.diag(np.ones(n - 1), -1)) / h**2
        ell = np.arange(1, n + 1)
        values = (-2.0 + 2.0 * np.cos(ell * np.pi / (n + 1))) / h**2
        return SpatialOperator(m, f"laplacian-1d-dirichlet(n={n},h={h})",
                               values.astype(complex))
    if kind == "advection-1d-upwind":
        if n is None or n < 1:
            raise ValueError("advection-1d-upwind needs n >= 1")
        if h <= 0:
            raise ValueError("mesh width must be positive")
        m = (-velocity / h) * np.eye(n) + (velocity / h) * np.diag(np.ones(n - 1), -1)
        return SpatialOperator(m,
                               f"advection-1d-upwind(n={n},v={velocity},h={h})")
    if kind == "from-file":
        if path is None:
            raise ValueError("from-file needs a path")
        return SpatialOperator(_real_if(_read_matrix_file(path)),
                               f"from-file({path})")
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


def _rcond(sv: np.ndarray) -> float:
    """Smallest over largest of the singular values sv; 0 for a zero matrix."""
    return float(sv.min() / sv.max()) if sv.max() > 0 else 0.0


def ill_conditioned(sv: np.ndarray) -> bool:
    """Whether the singular values sv are those of a singular or numerically
    singular matrix."""
    return _rcond(sv) <= RCOND_CAP


@dataclass(frozen=True)
class Stepper:
    """The step u -> M u of a one-step scheme on a spatial operator.

    On a normal operator with eigenvalues ell the stepper holds its own,
    values = R(dt ell), and is normal too: its norm, spectral radius and
    condition follow from |values|, and the dense matrix is formed (by
    stability_matrix) only when a consumer asks for it. Any other stepper
    holds its dense matrix, real on a real operator, and the eigenvalues
    that gave its spectral radius."""
    scheme: SchemeSpec
    source: SpatialOperator
    norm: float
    spectral_radius: float
    rcond: float
    values: np.ndarray | None = None
    dense: np.ndarray | None = field(default=None, repr=False)
    eigenvalues: np.ndarray | None = field(default=None, repr=False)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        if self.dense is not None:
            return self.dense
        return _stepper_matrix(self.scheme, self.source)

    @functools.cached_property
    def spectrum(self) -> np.ndarray:
        """The eigenvalues of M: values, those build_stepper kept, or those
        of the dense matrix, computed once."""
        if self.values is not None:
            return self.values
        if self.eigenvalues is not None:
            return self.eigenvalues
        return np.linalg.eigvals(self.matrix)

    @property
    def strongly_stable(self) -> bool:
        return self.norm < 1.0

    @property
    def spectrally_stable(self) -> bool:
        return self.spectral_radius < 1.0

    @property
    def invertible(self) -> bool:
        return self.rcond > RCOND_CAP

    @property
    def dim(self) -> int:
        return self.source.dim


def _stepper_matrix(scheme: SchemeSpec, L: SpatialOperator) -> np.ndarray:
    m = stability_matrix(scheme, scheme.dt * L.matrix)
    if not np.isfinite(m).all():
        raise ValueError("overflow in stability-function evaluation")
    return m


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
    normal with known eigenvalues, otherwise as a dense matrix."""
    if L.eigenvalues is not None:
        values = _mode_values(scheme, L.eigenvalues)
        size = np.abs(values)
        top = float(size.max())
        return Stepper(scheme, L, top, top, _rcond(size), values)
    m = _stepper_matrix(scheme, L)
    s = np.linalg.svd(m, compute_uv=False)
    eigs = np.linalg.eigvals(m)
    return Stepper(scheme, L, float(s[0]), float(np.max(np.abs(eigs))),
                   _rcond(s), dense=m, eigenvalues=eigs)


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


def coarse_factors(pair: StepperPair, relaxation: str, side: str):
    """(L, R) with G(z) = L (I - z Psi)^{-1} R the generating function of the
    coarse-level propagation block, up to its leading power of z and its
    sign: (D, M) on the residual side and (I, D M) on the error side, with
    D = Psi - Phi^k and M = I for F-relaxation, Phi^k for FCF."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    if side not in ("residual", "error"):
        raise ValueError(f"unknown side {side!r}")
    m = pair.fine_power if relaxation == "FCF" else np.eye(pair.dim)
    if side == "residual":
        return pair.coarse_defect, m
    return np.eye(pair.dim), pair.coarse_defect @ m


def make_pair(fine: Stepper, coarse: Stepper, k: int,
              attach_eig: bool = True) -> StepperPair:
    """The pair (Phi, Psi) with coarsening factor k. Steppers on one normal
    operator, built from its eigenvalues (build_stepper), commute and share
    its eigenbasis; the pair is normal, and carries their eigenvalues, when
    every |mu| < 1. It needs no product of Phi and Psi; verify checks the
    eigenvalues against the dense steppers. Any other pair is tested for
    commuting on its dense matrices. attach_eig=False gives the dense twin
    of a normal pair."""
    if (attach_eig and fine.source is coarse.source
            and fine.values is not None
            and np.all(np.abs(coarse.values) < 1.0)):
        return StepperPair(fine, coarse, k, True, SharedEigendecomposition(
            fine.values, coarse.values))
    # exact under scaling by powers of two, which keeps huge entries finite
    (p, _), (q, _) = _unit(fine.matrix), _unit(coarse.matrix)
    comm = np.linalg.norm(p @ q - q @ p)
    commuting = comm <= COMMUTATION_TOL * max(1e-300, np.linalg.norm(p) * np.linalg.norm(q))
    return StepperPair(fine, coarse, k, commuting)


@dataclass(frozen=True)
class PairDiagnostics:
    commutator_norm: float
    defect_rcond: float
    defect_invertible: bool
    fine_strongly_stable: bool
    coarse_strongly_stable: bool
    fine_spectrally_stable: bool
    coarse_spectrally_stable: bool
    max_abs_coarse_eig: float | None


def verify_pair(pair: StepperPair) -> PairDiagnostics:
    phi, psi = pair.fine.matrix, pair.coarse.matrix
    comm = float(np.linalg.norm(phi @ psi - psi @ phi))
    rc = _rcond(np.linalg.svd(pair.coarse_defect, compute_uv=False))
    max_mu = None
    if pair.shared_eig is not None:
        max_mu = float(np.max(np.abs(pair.shared_eig.coarse_values)))
    return PairDiagnostics(
        commutator_norm=comm,
        defect_rcond=rc,
        defect_invertible=rc > RCOND_CAP,
        fine_strongly_stable=pair.fine.strongly_stable,
        coarse_strongly_stable=pair.coarse.strongly_stable,
        fine_spectrally_stable=pair.fine.spectrally_stable,
        coarse_spectrally_stable=pair.coarse.spectrally_stable,
        max_abs_coarse_eig=max_mu,
    )
