"""Global space-time system, C/F blocks, coarse grid, and iteration propagators.

The all-at-once system A u = f is block lower bidiagonal with identity diagonal
blocks and -Phi subdiagonal blocks. Every k-th time point (starting at 0) is a
C-point; partitioned blocks, ideal transfer operators, the Schur-complement
coarse grid, and the dense error/residual propagators of two-level MGRiT with
F- and FCF-relaxation are derived from that partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import StepperPair, matrix_power
from .tap import TOL
from .tridiag import bidiagonal_gram, tridiag_min_eig

DENSE_CAP = 4096       # largest order of a dense oracle block
LANCZOS_SEED = 0       # seed of the fixed Lanczos start vector
RITZ_STRIDE = 4        # fewest Lanczos steps between two Ritz-value checks


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
    block at N_c - 1, and zero when k = 1 (no F-points). This is
    CoarseOperator with 1 x 1 blocks, one per mode, and needs no dense
    block."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    eig = pair.shared_eig
    lam, mu = eig.fine_values ** pair.k, eig.coarse_values
    n = grid.n_coarse - (1 if relaxation == "F" else 2)
    if n == 0 or (relaxation == "FCF" and grid.k == 1):
        return np.zeros(mu.size)
    norms = np.abs(lam - mu) / np.sqrt(tridiag_min_eig(*_mode_grams(mu, n)))
    return norms if relaxation == "F" else np.abs(lam) * norms


@dataclass(frozen=True)
class CoarseNorm:
    """Spectral norm of the residual-side coarse block. value is attained by
    vector (a lower bound); when certified no singular value exceeds upper."""
    value: float
    upper: float
    certified: bool
    method: str                  # "per-mode" or "lanczos"
    vector: np.ndarray | None    # unit right singular vector, when asked for


def coarse_norm(pair: StepperPair, grid: GridSpec, relaxation: str,
                with_vector: bool = False) -> CoarseNorm:
    """Norm of the residual-side coarse block and, with with_vector, its
    leading right singular vector. Per mode when the pair has a unitary
    shared eigenbasis, otherwise matrix-free by Golub-Kahan-Lanczos with a
    block LDL* certificate (_lanczos_norm); no dense block is built."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    if not pair.normal:
        return _lanczos_norm(CoarseOperator(pair, grid, relaxation),
                             grid.n_coarse * pair.dim, with_vector)
    eig = pair.shared_eig
    norms = mode_norms(pair, grid, relaxation)
    m = int(np.argmax(norms))
    value = float(norms[m])
    if not with_vector:
        return CoarseNorm(value, value, True, "per-mode", None)
    # mode m's block is zero past its first n columns, where its right
    # singular vector is the eigenvector of C C^* at lambda_min
    n = max(grid.n_coarse - (1 if relaxation == "F" else 2), 1)
    diag, off = _mode_grams(eig.coarse_values[m:m + 1], n)
    gram = np.diag(diag[0]) + np.diag(off[0], 1) + np.diag(off[0].conj(), -1)
    v = np.zeros(grid.n_coarse, dtype=complex)
    v[:n] = np.linalg.eigh(gram)[1][:, 0]
    return CoarseNorm(value, value, True, "per-mode",
                      np.kron(v, eig.vectors[:, m]))


class CoarseOperator:
    """K = (I_n x D) B_n^{-1} (I_n x M), the residual-side coarse block past
    its zero first block row and its zero last block column (two of them
    for FCF): D = Psi - Phi^k, B_n block unit lower bidiagonal of order n
    with -Psi below the diagonal, and (M, n) = (I, N_c - 1) for F,
    (Phi^k, N_c - 2) for FCF. n is 0 where the block is zero: FCF at k = 1
    has no F-points."""

    def __init__(self, pair: StepperPair, grid: GridSpec, relaxation: str):
        self.psi, self.defect = pair.coarse.matrix, pair.coarse_defect
        if relaxation == "F":
            self.m, self.n = np.eye(pair.dim), grid.n_coarse - 1
        else:
            self.m = pair.fine_power
            self.n = grid.n_coarse - 2 if grid.k >= 2 else 0
        # Psi^(2^l) for 2^l < n, transposed for blocks held as rows
        powers = [self.psi.T]
        while 2 ** len(powers) < self.n:
            powers.append(powers[-1] @ powers[-1])
        self._down = powers
        self._up = [p.conj().T for p in powers]

    def _solve(self, rhs: np.ndarray, adjoint: bool) -> np.ndarray:
        """B_n^{-1} rhs, or B_n^{-*} rhs, for rhs with one block per row: the
        prefix sums y_i = sum_{j <= i} Psi^{i-j} rhs_j (the suffix sums with
        Psi^* for the adjoint) in log2(n) doubling steps of one product each."""
        y = (rhs[::-1] if adjoint else rhs).astype(complex)
        for level, power in enumerate(self._up if adjoint else self._down):
            shift = 1 << level
            y[shift:] += y[:-shift] @ power
        return y[::-1] if adjoint else y

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """K x, or K^* x with adjoint."""
        xb = x.reshape(self.n, -1)
        if adjoint:
            return (self._solve(xb @ self.defect.conj(), True)
                    @ self.m.conj()).ravel()
        return (self._solve(xb @ self.m.T, False) @ self.defect.T).ravel()

    def definite(self, s: float) -> bool:
        """Whether s I - K^* K is positive definite: a block LDL* of it from
        its last block, by the backward recursion P = Q - D^* D,
        H = s I + M^* P M = L L^*, G = L^{-1} M^* P Psi,
        Q <- Psi^* P Psi - G^* G from Q = 0, a finite-horizon bounded-real
        Riccati recursion. The n pivots H are its Schur complements, so by
        Sylvester's law of inertia it is positive definite exactly when every
        Cholesky factorization succeeds. No inverse of Psi, Phi^k or D is
        taken. numpy's Cholesky passes NaN through, so a pivot that overflows
        fails the test too."""
        if not (s > 0.0 and math.isfinite(s)):
            return False
        psi, m = self.psi, self.m
        dd = self.defect.conj().T @ self.defect
        eye = np.eye(psi.shape[0])
        q = np.zeros_like(dd)
        for i in range(self.n):
            p = q - dd
            mp = m.conj().T @ p
            try:
                chol = np.linalg.cholesky(s * eye + mp @ m)
            except np.linalg.LinAlgError:
                return False
            if not np.isfinite(chol).all():
                return False
            if i < self.n - 1:
                g = np.linalg.solve(chol, mp @ psi)
                q = psi.conj().T @ p @ psi - g.conj().T @ g
        return True


def _orthonormalize(w: np.ndarray, basis: np.ndarray, rng):
    """(unit vector, coefficient): w less its components along the
    orthonormal rows of basis, and its norm. A Gram-Schmidt pass that
    cancels more than half of w is repeated (Daniel, Gragg, Kaufman and
    Stewart); a w that a second pass cancels too lies in the span of basis
    to rounding, and a fresh random direction with coefficient 0 replaces
    it, which keeps the Lanczos relations exact."""
    size = float(np.linalg.norm(w))
    if not math.isfinite(size):
        return w, size
    for _ in range(2):
        w = w - (basis @ w.conj()).conj() @ basis
        norm = float(np.linalg.norm(w))
        if norm > 0.5 * size:
            return w / norm, norm
        size = norm
    w = rng.standard_normal(w.size).astype(complex)
    for _ in range(2):
        w = w - (basis @ w.conj()).conj() @ basis
    return w / np.linalg.norm(w), 0.0


def _lanczos_norm(op: CoarseOperator, size: int,
                  with_vector: bool) -> CoarseNorm:
    """Certified norm of the CoarseOperator K and, with with_vector, its
    Ritz right vector padded with zero blocks to length size.

    Golub-Kahan-Lanczos with full reorthogonalization from a fixed seeded
    start vector builds K V = U B with B upper bidiagonal; the largest
    singular value of B is a Ritz value, attained by the Ritz vector, so it
    never exceeds the norm. Once its residual is at TOL, one LDL* pass
    (CoarseOperator.definite) at s = (value (1 + 2 TOL))^2 proves that no
    singular value exceeds upper = value (1 + 2 TOL); otherwise Lanczos
    continues, and the result is uncertified when no pass succeeds by step
    n N_x, where the Krylov space is the whole space. A block that
    overflows gives an infinite, uncertified value."""
    dim = op.n * op.psi.shape[0]
    vector = np.zeros(size, dtype=complex)
    vector[0] = 1.0       # attains a zero norm

    def result(value, certified):
        return CoarseNorm(value, value * (1.0 + 2.0 * TOL), certified,
                          "lanczos", vector if with_vector else None)

    if not (dim and op.defect.any() and op.m.any()):
        return result(0.0, True)
    rng = np.random.default_rng(LANCZOS_SEED)
    vs = np.zeros((min(dim, 32), dim), dtype=complex)
    us = np.zeros_like(vs)
    vs[0] = rng.standard_normal(dim)
    vs[0] /= np.linalg.norm(vs[0])
    alphas, betas = [], []
    beta, failed, certified, check = 0.0, 0.0, False, RITZ_STRIDE
    for j in range(dim):
        u = op.apply(vs[j])
        if j:
            u -= beta * us[j - 1]
        us[j], alpha = _orthonormalize(u, us[:j], rng)
        w = op.apply(us[j], adjoint=True) - alpha * vs[j]
        beta = 0.0
        if j + 1 < dim:
            if j + 1 == vs.shape[0]:
                vs = np.concatenate([vs, np.zeros_like(vs)])[:dim]
                us = np.concatenate([us, np.zeros_like(us)])[:dim]
            vs[j + 1], beta = _orthonormalize(w, vs[:j + 1], rng)
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            return result(math.inf, False)
        alphas.append(alpha)
        betas.append(beta)
        if j + 1 < min(check, dim):
            continue
        check = j + 1 + max(RITZ_STRIDE, (j + 1) // 8)
        left, sv, right = np.linalg.svd(np.diag(alphas)
                                        + np.diag(betas[:-1], 1))
        # K^* K x - sv^2 x = sv beta p_last v_{j+1} for the Ritz vector
        # x = V q: try a pass once that residual is at TOL and the value has
        # risen past the last failed one
        small = beta * abs(left[-1, 0]) <= TOL * sv[0]
        if (small or j + 1 == dim) and sv[0] > failed * (1.0 + TOL):
            certified = op.definite((sv[0] * (1.0 + 2.0 * TOL)) ** 2)
            if certified:
                break
            failed = sv[0]
    ritz = right[0].conj() @ vs[:len(alphas)]
    vector[:dim] = ritz / np.linalg.norm(ritz)
    return result(float(sv[0]), certified)


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
