"""Reference computations in plain numpy, independent of pintbounds.

Each function rebuilds what it needs from the problem parameters (mesh,
scheme, time step), so a check against it tests the program's whole chain
rather than one formula against a copy of itself.
"""

from __future__ import annotations

import math

import numpy as np

_SDIRK2_GAMMA = 1.0 - 1.0 / math.sqrt(2.0)


def stability(scheme: str, z):
    """Scalar stability function R(z) of a one-step scheme."""
    z = np.asarray(z, dtype=complex)
    if scheme == "backward-euler":
        return 1.0 / (1.0 - z)
    if scheme == "sdirk2":
        g = _SDIRK2_GAMMA
        return (1.0 + (1.0 - 2.0 * g) * z) / (1.0 - g * z) ** 2
    raise ValueError(f"no reference stability function for {scheme!r}")


def laplacian(n: int, h: float) -> np.ndarray:
    """1-D Dirichlet Laplacian (u_{j-1} - 2u_j + u_{j+1}) / h^2."""
    return (np.diag(np.full(n, -2.0)) + np.eye(n, k=1) + np.eye(n, k=-1)) / h**2


def upwind(n: int, h: float, velocity: float) -> np.ndarray:
    """1-D first-order upwind advection (v/h)(u_{j-1} - u_j)."""
    return (velocity / h) * (np.eye(n, k=-1) - np.eye(n))


def heat_modes(n: int, h: float, scheme: str, dt: float, k: int):
    """Per-mode eigenvalues (lambda of Phi, mu of Psi) of a heat pair whose
    coarse stepper is the fine scheme at k*dt; modes share one orthonormal
    eigenbasis, so pairing them by Laplacian eigenvalue is exact."""
    ell = np.linalg.eigvalsh(laplacian(n, h))
    return stability(scheme, dt * ell), stability(scheme, k * dt * ell)


def mode_block(lam_k: complex, mu: complex, n_coarse: int,
               relaxation: str) -> np.ndarray:
    """N_c x N_c coarse-level residual propagation block of one mode:
    I - A B^{-1} with A, B unit lower bidiagonal (subdiagonals -lam^k, -mu),
    times the relaxation factor (subdiagonal lam^k) for FCF."""
    sub = np.eye(n_coarse, k=-1)
    a = np.eye(n_coarse) - lam_k * sub
    b = np.eye(n_coarse) - mu * sub
    block = np.eye(n_coarse) - np.linalg.solve(b.T, a.T).T
    if relaxation == "FCF":
        block = block @ (lam_k * sub)
    return block


def per_mode_norm(lam, mu, k: int, n_coarse: int, relaxation: str) -> float:
    """Spectral norm of the coarse block of a pair with a unitary shared
    eigenbasis: the largest per-mode block norm."""
    return max(float(np.linalg.norm(mode_block(l**k, m, n_coarse, relaxation), 2))
               for l, m in zip(lam, mu))


def teap(lam, mu, k: int, relaxation: str) -> float:
    """max_i |mu_i - lambda_i^k| (|lambda_i^k| for FCF) / (1 - |mu_i|)."""
    lam_k = np.asarray(lam) ** k
    vals = np.abs(mu - lam_k) / (1.0 - np.abs(mu))
    if relaxation == "FCF":
        vals = vals * np.abs(lam_k)
    return float(np.max(vals))


def implicit_steppers(spatial: np.ndarray, dt: float, k: int):
    """Backward-Euler (Phi^k, Psi) for the fine step dt and coarse step k*dt."""
    eye = np.eye(spatial.shape[0])
    phi = np.linalg.inv(eye - dt * spatial)
    psi = np.linalg.inv(eye - k * dt * spatial)
    return np.linalg.matrix_power(phi, k), psi


def dense_coarse_norm(phi_k: np.ndarray, psi: np.ndarray, n_coarse: int,
                      relaxation: str) -> float:
    """Spectral norm of the assembled (N_c*N_x)^2 coarse block."""
    sub = np.eye(n_coarse, k=-1)
    eye = np.eye(n_coarse * psi.shape[0])
    a = eye - np.kron(sub, phi_k)
    b = eye - np.kron(sub, psi)
    block = eye - np.linalg.solve(b.T, a.T).T
    if relaxation == "FCF":
        block = block @ np.kron(sub, phi_k)
    return float(np.linalg.norm(block, 2))


def tap_phase_samples(phi_k: np.ndarray, psi: np.ndarray, relaxation: str,
                      points: int = 4096) -> np.ndarray:
    """sigma_max((Psi - Phi^k) D(x)^{-1}) on a uniform phase grid, with
    D(x) = I - e^{ix} Psi for F and Phi^{-k}(I - e^{ix} Psi) for FCF."""
    xs = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    eye = np.eye(psi.shape[0])
    out = []
    # phases in chunks, so the reference never holds more memory than the
    # program does and does not set the run's peak RSS
    for chunk in np.array_split(xs, max(1, points // 256)):
        den = eye[None] - np.exp(1j * chunk)[:, None, None] * psi[None]
        m = (psi - phi_k) @ np.linalg.inv(den)
        if relaxation == "FCF":
            m = m @ phi_k
        out.append(np.linalg.svd(m, compute_uv=False)[:, 0])
    return np.concatenate(out)


def horizon_gram_norm(lam, mu, k: int, n_coarse: int) -> float:
    """Exact F-relaxation coarse norm for constant-in-time modes through the
    tridiagonal Gram matrix B diag(1/|d|^2) B^* of the block's inverse, with
    B unit lower bidiagonal (subdiagonal -mu) and d = lambda^k - mu; the mode
    norm is 1/sqrt(lambda_min)."""
    m = n_coarse - 1
    out = 0.0
    for l, u in zip(lam, mu):
        d = l**k - u
        b = np.eye(m) - u * np.eye(m, k=-1)
        gram = (b / abs(d) ** 2) @ b.conj().T
        out = max(out, 1.0 / math.sqrt(np.linalg.eigvalsh(gram)[0]))
    return out
