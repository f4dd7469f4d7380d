"""Global space-time system, C/F blocks, coarse grid, and iteration propagators.

The all-at-once system A u = f is block lower bidiagonal with identity diagonal
blocks and -Phi subdiagonal blocks. Every k-th time point (starting at 0) is a
C-point; partitioned blocks, ideal transfer operators, the Schur-complement
coarse grid, and the dense error/residual propagators of two-level MGRiT with
F- and FCF-relaxation are derived from that partition.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import (StepperPair, _real_if, _unit, coarse_factors,
                        matrix_power)
from .tap import TOL
from .tridiag import relaxed_toeplitz_min

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
    """A u = f over the grid. The pair chooses the coordinates of the
    iteration path (apply_full, apply_iteration, lift_coarse, the two
    solvers): a normal pair's space-time vectors hold the mode coordinates
    U^* u_i of its points (U the shared unitary eigenbasis, never formed),
    in which Phi and Psi are the diagonals lambda and mu; any other
    pair's hold u itself. The dense assembly (full_matrix, blocks,
    permutation, build_propagators) is always the physical one; the twin
    make_pair(..., attach_eig=False) iterates a normal pair physically."""
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

    @functools.cached_property
    def fine_step(self) -> Step:
        """Phi, as its eigenvalues for a normal pair."""
        if self.pair.normal:
            return Step(self.pair.shared_eig.fine_values)
        return Step(self.pair.fine.matrix)

    @functools.cached_property
    def coarse_step(self) -> Step:
        """Psi, as its eigenvalues for a normal pair."""
        if self.pair.normal:
            return Step(self.pair.shared_eig.coarse_values)
        return Step(self.pair.coarse.matrix)

    @functools.cached_property
    def fine_solver(self) -> ForwardSolver:
        """Forward solver of A itself, Phi over the N_t time points; made
        once per system, so every solve with it shares its Phi^c."""
        return ForwardSolver(self.fine_step, self.grid.n_time)

    @functools.cached_property
    def coarse_solver(self) -> ForwardSolver:
        """Forward solver of the coarse system, Psi over the N_c C-points;
        made once per system, so every coarse correction shares its Psi^c."""
        return ForwardSolver(self.coarse_step, self.grid.n_coarse)

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
    """Action of A on a space-time vector in time ordering. In mode
    coordinates A has diag(lambda) on its block subdiagonal, and unitary U
    leaves ||A u|| unchanged."""
    nx, nt = sys.pair.dim, sys.grid.n_time
    ub = u.reshape(nt, nx)
    out = ub.astype(np.result_type(ub, sys.fine_step.dtype))
    out[1:] -= sys.fine_step.apply(ub[:-1])
    return out.ravel()


def sequential_solve(sys: SpaceTimeSystem, f: np.ndarray) -> np.ndarray:
    """Exact solve of A u = f by forward substitution."""
    return sys.fine_solver.solve(f)


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


def block_rows(grid: GridSpec, relaxation: str, p: int = 1) -> int:
    """The order n of the section T_n(G^p) whose norm is that of the p-th
    power of the coarse block. With s = 1 for F and 2 for FCF the block is
    T_{N_c}(z^s G), G = L (I - z Psi)^{-1} R (coarse_factors), and products
    of lower block-Toeplitz sections are exact, so its p-th power is
    T_{N_c}(z^{sp} G^p): zero first sp block rows and last sp block columns
    around T_n(G^p), n = N_c - s p. n is 0 where the power is zero, also
    for FCF at k = 1, which has no F-points."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    if relaxation == "FCF" and grid.k == 1:
        return 0
    return max(grid.n_coarse - (1 if relaxation == "F" else 2) * p, 0)


def _mode_solve(pair: StepperPair, grid: GridSpec, relaxation: str):
    """(n, norms, uppers, theta, certified) of the per-mode residual-side
    coarse blocks of a normal pair, from one closed-form solve
    (relaxed_toeplitz_min) over every mode. The dense block of
    coarse_defect_blocks is unitarily similar to their direct sum, so its
    norm is the largest.

    With lam = lambda_m^k and mu = mu_m, block m is I - A_m B_m^{-1} (A_m unit
    lower bidiagonal with subdiagonal -lam, B_m^{-1} lower triangular with
    entries mu^(i-j)), whose entries are (lam - mu) mu^(i-j-1) below the
    diagonal. Past its zero first row and last column it is (lam - mu) C^{-1},
    C unit lower bidiagonal of order n = N_c - 1 with subdiagonal -mu, so its
    norm is |lam - mu| / sqrt(lambda_min(C C^*)). The FCF block is lam times
    the F block at N_c - 1, and zero when k = 1 (no F-points). uppers come
    from the low end of each certified root bracket, and theta is the root
    angle that gives each mode's singular vector. This is CoarseOperator with
    1 x 1 blocks, one per mode, and needs no dense block."""
    n = block_rows(grid, relaxation)
    eig = pair.shared_eig
    lam, mu = eig.fine_values ** pair.k, eig.coarse_values
    if n == 0:
        zero = np.zeros(mu.size)
        return n, zero, zero, zero, True
    low, low_bound, theta, certified = relaxed_toeplitz_min(mu, n)
    gap = np.abs(lam - mu)
    norms, uppers = gap / np.sqrt(low), gap / np.sqrt(low_bound)
    if relaxation == "FCF":
        norms, uppers = np.abs(lam) * norms, np.abs(lam) * uppers
    return n, norms, uppers, theta, bool(certified.all())


def mode_norms(pair: StepperPair, grid: GridSpec, relaxation: str) -> np.ndarray:
    """Norms of the per-mode residual-side coarse blocks of a normal pair
    (_mode_solve)."""
    return _mode_solve(pair, grid, relaxation)[1]


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
    leading right singular vector in the coordinates of the pair's
    SpaceTimeSystem. Per mode when the pair is normal, where the vector is
    mode m's own vector in column m and zeros elsewhere, real where mu_m is;
    otherwise matrix-free by Golub-Kahan-Lanczos with a block LDL*
    certificate (_lanczos_norm). No dense block is built."""
    if not pair.normal:
        lft, rgt = coarse_factors(pair, relaxation, "residual")
        op = CoarseOperator(pair.coarse.matrix, rgt, lft,
                            block_rows(grid, relaxation))
        return _lanczos_norm(op, grid.n_coarse * pair.dim, with_vector)
    n, norms, uppers, theta, certified = _mode_solve(pair, grid, relaxation)
    m = int(np.argmax(norms))
    vector = None
    if with_vector:
        # mode m's block is zero past its first n columns, where its right
        # singular vector is the eigenvector of C C^* at lambda_min:
        # v_j = e^{i j arg mu} sin((n + 1 - j) theta), j = 1 ... n
        mu = pair.shared_eig.coarse_values[m]
        v = np.zeros(grid.n_coarse, dtype=float if mu.imag == 0 else complex)
        if n == 0:
            v[0] = 1.0      # the block is zero; any unit vector attains it
        else:
            j = np.arange(1, n + 1)
            turn = (np.exp(1j * np.angle(mu) * j) if mu.imag
                    else np.where((mu.real < 0) & (j % 2 == 1), -1.0, 1.0))
            v[:n] = turn * np.sin((n + 1 - j) * theta[m])
            v /= np.linalg.norm(v)
        vector = np.zeros((grid.n_coarse, pair.dim), dtype=v.dtype)
        vector[:, m] = v
        vector = vector.ravel()
    return CoarseNorm(float(norms[m]), float(uppers.max()), certified,
                      "per-mode", vector)


class CoarseOperator:
    """K = T_n(c (I - z a)^{-1} b), the lower block-Toeplitz section of order
    n with blocks c a^j b below and on the diagonal: K = (I_n x c) B_n^{-1}
    (I_n x b), B_n block unit lower bidiagonal with -a below the diagonal.
    The residual-side coarse block past its zero first block row and its
    zero last block column (two of them for FCF) is (a, b, c) = (Psi, M, D)
    at n = block_rows; its p-th power is a realization of G^p
    (tap._tap_realization) at n = block_rows(grid, relaxation, p). n is 0
    where the block is zero."""

    def __init__(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, n: int):
        self.a, self.b, self.c, self.n = a, b, c, n
        # a^(2^l) for 2^l < n, transposed for blocks held as rows
        powers = [a.T]
        while 2 ** len(powers) < n:
            powers.append(powers[-1] @ powers[-1])
        self._down = powers
        self._up = [p.conj().T for p in powers]

    def _solve(self, rhs: np.ndarray, adjoint: bool) -> np.ndarray:
        """B_n^{-1} rhs, or B_n^{-*} rhs, for rhs with one block per row: the
        prefix sums y_i = sum_{j <= i} a^{i-j} rhs_j (the suffix sums with
        a^* for the adjoint) in log2(n) doubling steps of one product each,
        in the dtype of rhs and a: real for a real pair."""
        y = (rhs[::-1] if adjoint else rhs).astype(np.result_type(rhs, self.a))
        for level, power in enumerate(self._up if adjoint else self._down):
            shift = 1 << level
            y[shift:] += y[:-shift] @ power
        return y[::-1] if adjoint else y

    def apply(self, x: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """K x, or K^* x with adjoint."""
        xb = x.reshape(self.n, -1)
        if adjoint:
            return (self._solve(xb @ self.c.conj(), True)
                    @ self.b.conj()).ravel()
        return (self._solve(xb @ self.b.T, False) @ self.c.T).ravel()

    def definite(self, s: float) -> bool:
        """Whether s I - K^* K is positive definite: a block LDL* of it from
        its last block, by the backward recursion P = Q - c^* c,
        H = s I + b^* P b = L L^*, G = L^{-1} b^* P a,
        Q <- a^* P a - G^* G from Q = 0, a finite-horizon bounded-real
        Riccati recursion. With Z = [b a], the one product Z^* P Z holds
        b^* P b, b^* P a and a^* P a. The n pivots H are its Schur
        complements, so by Sylvester's law of inertia it is positive definite
        exactly when every Cholesky factorization succeeds. No inverse of a,
        b or c is taken. numpy's Cholesky passes NaN through, so a pivot that
        overflows fails the test too."""
        if not (s > 0.0 and math.isfinite(s)):
            return False
        m = self.b.shape[1]
        z = np.hstack([self.b, self.a])
        zh = z.conj().T
        cc = self.c.conj().T @ self.c
        eye = np.eye(m)
        q = np.zeros_like(cc)
        for i in range(self.n):
            prods = zh @ ((q - cc) @ z)
            try:
                chol = np.linalg.cholesky(s * eye + prods[:m, :m])
            except np.linalg.LinAlgError:
                return False
            if not np.isfinite(chol).all():
                return False
            if i < self.n - 1:
                g = np.linalg.solve(chol, prods[:m, m:])
                q = prods[m:, m:] - g.conj().T @ g
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
    w = rng.standard_normal(w.size).astype(w.dtype)
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
    never exceeds the norm. Once its residual or the Ritz gap says it has
    converged, one LDL* pass (CoarseOperator.definite) at
    s = (value (1 + 2 TOL))^2 proves that no singular value exceeds
    upper = value (1 + 2 TOL); otherwise Lanczos continues, and the result
    is uncertified when no pass succeeds by step n N_x, where the Krylov
    space is the whole space. A block that overflows gives an infinite,
    uncertified value. Everything is in the dtype of K's blocks, real for a
    real pair."""
    dim = op.n * op.b.shape[1]
    dtype = np.result_type(op.a, op.b, op.c)
    vector = np.zeros(size, dtype=dtype)
    vector[0] = 1.0       # attains a zero norm

    def result(value, certified, exp=0):
        with np.errstate(over="ignore"):
            value = float(np.ldexp(value, exp))
        return CoarseNorm(value, value * (1.0 + 2.0 * TOL),
                          certified and math.isfinite(value), "lanczos",
                          vector if with_vector else None)

    if not (dim and op.c.any() and op.b.any()):
        return result(0.0, True)
    # K scales with b and c: entries below one keep tiny ones from
    # underflowing when a norm squares them
    (b, eb), (c, ec) = _unit(op.b), _unit(op.c)
    op = copy.copy(op)
    op.b, op.c = b, c
    rng = np.random.default_rng(LANCZOS_SEED)
    vs = np.zeros((min(dim, 32), dim), dtype=dtype)
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
        # x = V q: try a pass once that residual is at TOL, or once the
        # Kato-Temple estimate (sv_1 beta p_last)^2 / (sv_1^2 - sv_2^2) of
        # ||K||^2 - sv_1^2, with the second Ritz value sv_2, is at most
        # 2 TOL sv_1^2; and only once the value has risen past the last
        # failed one
        resid = beta * abs(left[-1, 0])
        low = sv[1] if j else 0.0
        small = (resid <= TOL * sv[0] or resid <= math.sqrt(
            2.0 * TOL * (sv[0] - low)) * math.sqrt(sv[0] + low))
        if (small or j + 1 == dim) and sv[0] > failed * (1.0 + TOL):
            certified = op.definite((sv[0] * (1.0 + 2.0 * TOL)) ** 2)
            if certified:
                break
            failed = sv[0]
    ritz = right[0].conj() @ vs[:len(alphas)]
    vector[:dim] = ritz / np.linalg.norm(ritz)
    return result(float(sv[0]), certified, eb + ec)


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


class Step:
    """The step y -> M y of one block row, applied to rows held as the rows
    of an array (rows M^T): M dense, or diagonal (a normal pair's Phi or Psi
    in mode coordinates, given as its eigenvalues), where a step is an
    elementwise product. M is held as a real array when its entries are
    real, and real rows then step in real arithmetic."""

    def __init__(self, m: np.ndarray):
        self.matrix = _real_if(np.asanyarray(m))
        self.diagonal = self.matrix.ndim == 1
        self._t = self.matrix if self.diagonal else self.matrix.T
        # complex rows take one complex product with M cast once, where
        # numpy would cast a real M in every product
        self._tc = self._t if self.diagonal else self._t.astype(complex)

    @staticmethod
    def of(m) -> Step:
        """m itself when it is a Step, else the Step of the matrix m."""
        return m if isinstance(m, Step) else Step(m)

    @property
    def dtype(self):
        return self._t.dtype

    @property
    def size(self) -> int:
        return self._t.shape[0]

    def apply(self, rows: np.ndarray) -> np.ndarray:
        """M y for every row y of rows."""
        if self.diagonal:
            return rows * self._t
        return rows @ (self._tc if np.iscomplexobj(rows) else self._t)

    def power(self, c: int) -> Step:
        """M^c, as a chain of c - 1 products, not by squaring: the forward
        solve's carry applies it many times, so its rounding error adds up,
        and that of a chain is the smaller (about sqrt(c) eps against
        c eps). A real M chains in real arithmetic, at a quarter of the
        flops. An M^c that overflows raises OverflowError."""
        base = carry = self.matrix
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(1, c):
                carry = carry * base if self.diagonal else carry @ base
        if not np.isfinite(carry).all():
            raise OverflowError(f"the forward solve's step to the power "
                                f"{c} overflows")
        return Step(carry)


def _march_intervals(step, ub: np.ndarray, k: int) -> None:
    """Step every coarse interval of the time grid ub, shape (N_t, N_x), from
    its C-point through its k - 1 F-points in place: u_{ck+j} = Phi
    u_{ck+j-1}, with step Phi (a Step or a matrix). The intervals are
    independent, so on the (N_c - 1, k, N_x) view of points 0 ... N_t - 2
    step j is one product over all of them."""
    step = Step.of(step)
    view = ub[:-1].reshape(-1, k, ub.shape[1])
    for j in range(1, k):
        view[:, j] = step.apply(view[:, j - 1])


def lift_coarse(sys: SpaceTimeSystem, w: np.ndarray) -> np.ndarray:
    """Action of P_ideal on a coarse vector, returned in fine time ordering."""
    nx, k = sys.pair.dim, sys.grid.k
    step = sys.fine_step
    out = np.zeros((sys.grid.n_time, nx), dtype=np.result_type(w, step.dtype))
    out[::k] = w.reshape(-1, nx)
    _march_intervals(step, out, k)
    return out.ravel()


class ForwardSolver:
    """Solver of the block unit lower bidiagonal system of n block rows with
    subdiagonal -M, M = mat_step (the coarse system, or A itself with Phi; a
    Step or a matrix): y_i = r_i + M y_{i-1}, in two levels. The rows are cut
    into chunks of c = round(sqrt(n/2)) rows (zero rows pad the last one),
    or of one row, the plain loop, where that is below 3 (n < 13). A batched
    march from a zero carry gives every chunk's last row in c - 1 products,
    M^c carries those across the chunks in n/c products, and a second
    batched march from the carried starts fills in every row in c: about
    2c + n/c products over all chunks at once in place of n one-row ones,
    at two to three times the flops. M^c is formed once per solver
    (Step.power), and one that overflows raises OverflowError."""

    def __init__(self, mat_step, n: int):
        c = round(math.sqrt(n / 2))
        self.n, self.c = n, c if c >= 3 else 1
        self.step = Step.of(mat_step)
        self.carry = self.step.power(self.c)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """y for the right-hand side rhs of n block rows, raveled."""
        n, c, step = self.n, self.c, self.step
        nx = step.size
        chunks = -(-n // c)
        out = np.zeros((chunks, c, nx), dtype=np.result_type(rhs, step.dtype))
        out.reshape(-1, nx)[:n] = rhs.reshape(n, nx)
        ends = out[:, 0].copy()
        for j in range(1, c):
            ends = out[:, j] + step.apply(ends)
        for b in range(1, chunks - 1):
            ends[b] += self.carry.apply(ends[b - 1])
        out[1:, 0] += step.apply(ends[:-1])
        for j in range(1, c):
            out[:, j] += step.apply(out[:, j - 1])
        return out.reshape(-1, nx)[:n].ravel()


def apply_iteration(sys: SpaceTimeSystem, relaxation: str,
                    e: np.ndarray) -> np.ndarray:
    """One two-level iteration (pre-relaxation, then coarse correction) on
    the error: the iteration is linear, so its error obeys the same steps
    with f = 0, e_{i+1} = E e_i for any right-hand side. Every step goes
    through the system's Steps, so a normal pair in mode coordinates takes
    elementwise products."""
    if relaxation not in ("F", "FCF"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    nx, k, nt = sys.pair.dim, sys.grid.k, sys.grid.n_time
    step = sys.fine_step
    ub = e.reshape(nt, nx).astype(np.result_type(e, step.dtype))
    _march_intervals(step, ub, k)
    if relaxation == "FCF":
        if k == 1:
            # every point is a C-point: C-relaxation solves A e = 0 exactly
            ub[:] = 0.0
        else:
            ub[0] = 0.0
            ub[k::k] = step.apply(ub[k - 1:-1:k])
            _march_intervals(step, ub, k)

    # coarse correction: inject the residual, which F-relaxation leaves zero
    # at the F-points, solve with Psi steps, interpolate ideally
    rc = -ub[::k]
    rc[1:] += step.apply(ub[k - 1:-1:k])
    w = sys.coarse_solver.solve(rc)
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
