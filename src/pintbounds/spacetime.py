"""Global space-time system, C/F blocks, coarse grid, and iteration propagators.

The all-at-once system A u = f is block lower bidiagonal with identity diagonal
blocks and -Phi subdiagonal blocks. Every k-th time point (starting at 0) is a
C-point; partitioned blocks, ideal transfer operators, the Schur-complement
coarse grid, and the dense error/residual propagators of two-level MGRiT with
F- and FCF-relaxation are derived from that partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import StepperPair, matrix_power
from .tridiag import bidiagonal_gram, tridiag_min_eig

DENSE_CAP = 4096


@dataclass(frozen=True)
class GridSpec:
    n_time: int
    k: int

    def __post_init__(self):
        if self.n_time < 2:
            raise ValueError("need at least two time points")
        if self.k < 1:
            raise ValueError("coarsening factor must be positive")
        if (self.n_time - 1) % self.k != 0:
            raise ValueError("(N - 1) must be divisible by k")

    @property
    def n_coarse(self) -> int:
        return 1 + (self.n_time - 1) // self.k

    @property
    def c_points(self) -> np.ndarray:
        return np.arange(0, self.n_time, self.k)

    @property
    def f_points(self) -> np.ndarray:
        mask = np.ones(self.n_time, dtype=bool)
        mask[self.c_points] = False
        return np.nonzero(mask)[0]


@dataclass(frozen=True)
class SpaceTimeSystem:
    pair: StepperPair
    grid: GridSpec

    @property
    def dim(self) -> int:
        return self.grid.n_time * self.pair.dim

    def _require_dense(self):
        if self.dim > DENSE_CAP:
            raise ValueError(
                f"problem size {self.dim} exceeds dense cap {DENSE_CAP}; "
                "only the action path is available")

    @property
    def permutation(self) -> np.ndarray:
        """Unknown ordering F-points first, then C-points (time order within each)."""
        nx = self.pair.dim
        pts = np.concatenate([self.grid.f_points, self.grid.c_points])
        return (pts[:, None] * nx + np.arange(nx)[None, :]).ravel()

    def full_matrix(self) -> np.ndarray:
        self._require_dense()
        nx, nt = self.pair.dim, self.grid.n_time
        a = np.eye(nt * nx, dtype=complex)
        phi = self.pair.fine.matrix
        for i in range(1, nt):
            a[i * nx:(i + 1) * nx, (i - 1) * nx:i * nx] = -phi
        return a

    def blocks(self):
        """Partitioned blocks (A_ff, A_fc, A_cf, A_cc) in the F-then-C ordering."""
        a = self.full_matrix()
        nx = self.pair.dim
        nf = len(self.grid.f_points) * nx
        p = self.permutation
        ap = a[np.ix_(p, p)]
        return ap[:nf, :nf], ap[:nf, nf:], ap[nf:, :nf], ap[nf:, nf:]


def assemble_system(pair: StepperPair, grid: GridSpec) -> SpaceTimeSystem:
    return SpaceTimeSystem(pair, grid)


def apply_full(sys: SpaceTimeSystem, u: np.ndarray) -> np.ndarray:
    """Action of A on a space-time vector in time ordering."""
    nx, nt = sys.pair.dim, sys.grid.n_time
    ub = u.reshape(nt, nx)
    out = ub.copy()
    out[1:] -= ub[:-1] @ sys.pair.fine.matrix.T
    return out.ravel()


def sequential_solve(sys: SpaceTimeSystem, f: np.ndarray) -> np.ndarray:
    """Exact solve of A u = f by forward substitution."""
    return coarse_forward_solve(sys.pair.fine.matrix, f)


def fine_block_inverse(sys: SpaceTimeSystem) -> np.ndarray:
    """Explicit inverse of A_ff: block lower triangular Phi powers per interval."""
    nx, k = sys.pair.dim, sys.grid.k
    nc = sys.grid.n_coarse
    m = k - 1
    nf = (nc - 1) * m * nx
    out = np.zeros((nf, nf), dtype=complex)
    powers = [matrix_power(sys.pair.fine.matrix, j) for j in range(m)]
    for interval in range(nc - 1):
        base = interval * m * nx
        for i in range(m):
            for j in range(i + 1):
                out[base + i * nx: base + (i + 1) * nx,
                    base + j * nx: base + (j + 1) * nx] = powers[i - j]
    return out


def ideal_transfer(sys: SpaceTimeSystem):
    """Ideal restriction and interpolation (R_ideal, P_ideal), F-then-C ordering."""
    sys._require_dense()
    _, a_fc, a_cf, _ = sys.blocks()
    aff_inv = fine_block_inverse(sys)
    nc_dim = sys.grid.n_coarse * sys.pair.dim
    eye = np.eye(nc_dim, dtype=complex)
    r_ideal = np.hstack([-a_cf @ aff_inv, eye])
    p_ideal = np.vstack([-aff_inv @ a_fc, eye])
    return r_ideal, p_ideal


def schur_complement(sys: SpaceTimeSystem) -> np.ndarray:
    """Coarse-grid operator A_cc - A_cf A_ff^{-1} A_fc."""
    sys._require_dense()
    _, a_fc, a_cf, a_cc = sys.blocks()
    if a_fc.shape[1] == 0 or a_fc.shape[0] == 0:
        return a_cc
    return a_cc - a_cf @ fine_block_inverse(sys) @ a_fc


def coarse_bidiagonal(pair: StepperPair, grid: GridSpec) -> np.ndarray:
    """Closed form of the Schur complement: bidiagonal with -Phi^k subdiagonal."""
    nx, nc = pair.dim, grid.n_coarse
    out = np.eye(nc * nx, dtype=complex)
    phik = pair.fine_power
    for i in range(1, nc):
        out[i * nx:(i + 1) * nx, (i - 1) * nx:i * nx] = -phik
    return out


def coarse_solve_operator(pair: StepperPair, grid: GridSpec) -> np.ndarray:
    """Inverse of the non-Galerkin coarse operator: lower triangle of Psi powers."""
    nx, nc = pair.dim, grid.n_coarse
    out = np.zeros((nc * nx, nc * nx), dtype=complex)
    powers = [matrix_power(pair.coarse.matrix, j) for j in range(nc)]
    for i in range(nc):
        for j in range(i + 1):
            out[i * nx:(i + 1) * nx, j * nx:(j + 1) * nx] = powers[i - j]
    return out


def coarse_defect_blocks(pair: StepperPair, grid: GridSpec):
    """Coarse-level defect operators (I - A_d B_d^{-1}, I - B_d^{-1} A_d) and
    the C-to-C relaxation factor A_cf A_ff^{-1} A_fc."""
    nx, nc = pair.dim, grid.n_coarse
    b_inv = coarse_solve_operator(pair, grid)
    a_delta = coarse_bidiagonal(pair, grid)
    eye = np.eye(nc * nx, dtype=complex)
    cgc_res = eye - a_delta @ b_inv
    cgc_err = eye - b_inv @ a_delta
    # A_cc is identity for k >= 2 and relax factor is a -Phi^k shift; for k = 1
    # there are no F-points and the factor is zero.
    relax = np.zeros((nc * nx, nc * nx), dtype=complex)
    if grid.k >= 2:
        phik = pair.fine_power
        for i in range(1, nc):
            relax[i * nx:(i + 1) * nx, (i - 1) * nx:i * nx] = phik
    return cgc_res, cgc_err, relax


def _mode_grams(mu: np.ndarray, n: int):
    """Per mode, C C^* for C unit lower bidiagonal of order n, subdiagonal -mu."""
    return bidiagonal_gram(np.repeat(-mu[:, None], n - 1, axis=1),
                           np.ones((mu.size, n)))


def mode_norms(pair: StepperPair, grid: GridSpec, relaxation: str) -> np.ndarray:
    """Norms of the per-mode residual-side coarse blocks of a pair whose
    shared eigenbasis U is unitary. The dense block of coarse_defect_blocks is
    unitarily similar to their direct sum, so its norm is the largest.

    With lam = lambda_m^k and mu = mu_m, block m is I - A_m B_m^{-1} (A_m unit
    lower bidiagonal with subdiagonal -lam, B_m^{-1} lower triangular with
    entries mu^(i-j)), whose entries are (lam - mu) mu^(i-j-1) below the
    diagonal. Past its zero first row and last column it is (lam - mu) C^{-1},
    C unit lower bidiagonal of order N_c - 1 with subdiagonal -mu, so its norm
    is |lam - mu| / sqrt(lambda_min(C C^*)). The FCF block is lam times the F
    block at N_c - 1, and zero when k = 1 (no F-points)."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    eig = pair.shared_eig
    lam, mu = eig.fine_values ** pair.k, eig.coarse_values
    n = grid.n_coarse - (1 if relaxation == "F" else 2)
    if n == 0 or (relaxation == "FCF" and grid.k == 1):
        return np.zeros(mu.size)
    norms = np.abs(lam - mu) / np.sqrt(tridiag_min_eig(*_mode_grams(mu, n)))
    return norms if relaxation == "F" else np.abs(lam) * norms


def coarse_norm(pair: StepperPair, grid: GridSpec, relaxation: str,
                with_vector: bool = False):
    """(spectral norm of the residual-side coarse block, its leading right
    singular vector or None). Per mode when the pair has a unitary shared
    eigenbasis, otherwise from the dense block."""
    if pair.normal:
        eig = pair.shared_eig
        norms = mode_norms(pair, grid, relaxation)
        m = int(np.argmax(norms))
        if not with_vector:
            return float(norms[m]), None
        # mode m's block is zero past its first n columns, where its right
        # singular vector is the eigenvector of C C^* at lambda_min
        n = max(grid.n_coarse - (1 if relaxation == "F" else 2), 1)
        diag, off = _mode_grams(eig.coarse_values[m:m + 1], n)
        gram = np.diag(diag[0]) + np.diag(off[0], 1) + np.diag(off[0].conj(), -1)
        v = np.zeros(grid.n_coarse, dtype=complex)
        v[:n] = np.linalg.eigh(gram)[1][:, 0]
        return float(norms[m]), np.kron(v, eig.vectors[:, m])
    cgc_res, _, relax = coarse_defect_blocks(pair, grid)
    block = cgc_res if relaxation == "F" else cgc_res @ relax
    if not with_vector:
        return float(np.linalg.svd(block, compute_uv=False)[0]), None
    _, s, vh = np.linalg.svd(block)
    return float(s[0]), vh[0].conj()


@dataclass(frozen=True)
class PropagatorSet:
    e_f: np.ndarray
    e_fcf: np.ndarray
    r_f: np.ndarray
    r_fcf: np.ndarray
    a_delta: np.ndarray
    b_delta_inv: np.ndarray
    r_ideal: np.ndarray
    p_ideal: np.ndarray
    cgc_res: np.ndarray      # I - A_d B_d^{-1}
    cgc_err: np.ndarray      # I - B_d^{-1} A_d
    relax_factor: np.ndarray # A_cf A_ff^{-1} A_fc
    permutation: np.ndarray  # F-then-C ordering of the fine unknowns

    def coarse_block(self, relaxation: str, side: str = "residual") -> np.ndarray:
        """C-level propagation block whose powers drive post-first iterations."""
        base = self.cgc_res if side == "residual" else self.cgc_err
        if relaxation == "F":
            return base
        if relaxation == "FCF":
            return base @ self.relax_factor
        raise ValueError(f"unknown relaxation {relaxation!r}")


def build_propagators(sys: SpaceTimeSystem) -> PropagatorSet:
    sys._require_dense()
    r_ideal, p_ideal = ideal_transfer(sys)
    a_delta = schur_complement(sys)
    b_inv = coarse_solve_operator(sys.pair, sys.grid)
    cgc_res, cgc_err, relax = coarse_defect_blocks(sys.pair, sys.grid)
    nf = len(sys.grid.f_points) * sys.pair.dim
    nc_dim = sys.grid.n_coarse * sys.pair.dim

    def pad_rows(m):
        return np.vstack([np.zeros((nf, m.shape[1]), dtype=complex), m])

    def pad_cols(m):
        return np.hstack([np.zeros((m.shape[0], nf), dtype=complex), m])

    r_f = pad_rows(cgc_res) @ r_ideal
    r_fcf = pad_rows(cgc_res @ relax) @ r_ideal
    e_f = p_ideal @ pad_cols(cgc_err)
    e_fcf = p_ideal @ pad_cols(cgc_err @ relax)
    return PropagatorSet(e_f, e_fcf, r_f, r_fcf, a_delta, b_inv, r_ideal,
                         p_ideal, cgc_res, cgc_err, relax, sys.permutation)


def lift_coarse(sys: SpaceTimeSystem, w: np.ndarray) -> np.ndarray:
    """Action of P_ideal on a coarse vector, returned in fine time ordering."""
    nx, k = sys.pair.dim, sys.grid.k
    nc, nt = sys.grid.n_coarse, sys.grid.n_time
    wb = w.reshape(nc, nx)
    out = np.zeros((nt, nx), dtype=complex)
    phi = sys.pair.fine.matrix
    out[sys.grid.c_points] = wb
    for c in range(nc - 1):
        for j in range(1, k):
            out[c * k + j] = phi @ out[c * k + j - 1]
    return out.ravel()


def coarse_forward_solve(mat_step: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution for the block unit lower bidiagonal system with
    subdiagonal -mat_step (the coarse system, or A itself with Phi)."""
    nx = mat_step.shape[0]
    rb = rhs.reshape(-1, nx)
    out = np.empty_like(rb, dtype=complex)
    out[0] = rb[0]
    for i in range(1, rb.shape[0]):
        out[i] = rb[i] + mat_step @ out[i - 1]
    return out.ravel()


def apply_iteration(sys: SpaceTimeSystem, relaxation: str, u: np.ndarray,
                    f: np.ndarray) -> np.ndarray:
    """One two-level iteration (pre-relaxation, then coarse correction)."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    nx, k, nt = sys.pair.dim, sys.grid.k, sys.grid.n_time
    nc = sys.grid.n_coarse
    phi = sys.pair.fine.matrix
    ub = u.reshape(nt, nx).astype(complex)
    fb = f.reshape(nt, nx).astype(complex)

    def f_relax():
        for c in range(nc - 1):
            for j in range(1, k):
                ub[c * k + j] = fb[c * k + j] + phi @ ub[c * k + j - 1]

    def c_relax():
        ub[0] = fb[0]
        for c in range(1, nc):
            ub[c * k] = fb[c * k] + phi @ ub[c * k - 1]

    f_relax()
    if relaxation == "FCF":
        c_relax()
        f_relax()

    # coarse correction: restrict residual by injection, solve with Psi steps,
    # interpolate ideally
    r = fb - apply_full(sys, ub).reshape(nt, nx)
    rc = r[sys.grid.c_points].ravel()
    w = coarse_forward_solve(sys.pair.coarse.matrix, rc)
    return ub.ravel() + lift_coarse(sys, w)


def block_diag_transform(m: np.ndarray, u: np.ndarray, u_inv: np.ndarray) -> np.ndarray:
    """Similarity transform by the block-diagonal replication of u."""
    nx = u.shape[0]
    nt = m.shape[0] // nx
    m4 = m.reshape(nt, nx, nt, nx)
    return np.einsum("ij,ajbk,kl->aibl", u_inv, m4, u).reshape(m.shape)


def operator_norm(m: np.ndarray, norm: str = "l2", a: np.ndarray | None = None,
                  u: np.ndarray | None = None, u_inv: np.ndarray | None = None) -> float:
    """Operator norm of a dense matrix: 'l2', 'AstarA' (needs a), or
    'modified' (needs the per-point eigenvector matrix u)."""
    if norm == "l2":
        return float(np.linalg.svd(m, compute_uv=False)[0])
    if norm == "AstarA":
        if a is None:
            raise ValueError("AstarA norm needs the system matrix")
        transformed = np.linalg.solve(a.conj().T, (a @ m).conj().T).conj().T
        return float(np.linalg.svd(transformed, compute_uv=False)[0])
    if norm == "modified":
        if u is None:
            raise ValueError("modified norm needs the eigenvector matrix")
        if u_inv is None:
            u_inv = np.linalg.inv(u)
        return float(np.linalg.svd(block_diag_transform(m, u, u_inv),
                                   compute_uv=False)[0])
    raise ValueError(f"unknown norm {norm!r}")
