"""Shared builders for the test suite."""

import numpy as np

from pintbounds import operators as ops
from pintbounds import spacetime as st
from pintbounds import tap

# R(z) = z at dt 1: the stepper of an operator is the operator itself, bit
# for bit
IDENTITY_SCHEME = ops.SchemeSpec("custom-rational", 1.0, numerator=(0.0, 1.0),
                                 denominator=(1.0,))


def raw_stepper(m):
    """The explicit complex matrix m as a Stepper: IDENTITY_SCHEME on the
    operator m."""
    src = ops.SpatialOperator(np.asarray(m, dtype=complex), "raw")
    return ops.build_stepper(src, IDENTITY_SCHEME)


def raw_pair(phi, psi, k):
    return ops.make_pair(raw_stepper(phi), raw_stepper(psi), k)


def random_contraction(rng, d, norm_bound=0.9):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return m * (norm_bound / np.linalg.svd(m, compute_uv=False)[0])


def heat_pair(nx=8, dt=0.02, k=4, scheme="backward-euler", theta=None,
              coarse_scheme=None):
    spatial = ops.build_spatial("laplacian-1d-dirichlet", nx, 1.0 / (nx + 1))
    kw = {} if theta is None else {"theta": theta}
    fine = ops.build_stepper(spatial, ops.SchemeSpec(scheme, dt, **kw))
    coarse = ops.build_stepper(
        spatial, ops.SchemeSpec(coarse_scheme or scheme, dt * k, **kw))
    return ops.make_pair(fine, coarse, k)


def normal_pair(k):
    """Heat pair with a unitary shared eigenbasis and a nonzero defect also
    at k = 1, where SDIRK2 fine steps meet a backward-Euler coarse step."""
    fine = "sdirk2" if k == 1 else "backward-euler"
    return heat_pair(nx=4, dt=0.02, k=k, scheme=fine,
                     coarse_scheme="backward-euler")


SKEWED_VALUES = np.array([-1.0, -3.0])


def skewed_matrix():
    """V diag(SKEWED_VALUES) V^{-1} with an eigenbasis V that is not
    unitary: a non-normal matrix."""
    v = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
    return v @ np.diag(SKEWED_VALUES) @ np.linalg.inv(v)


def skewed_pair(k=2):
    """Backward-Euler pair on skewed_matrix(), a non-normal operator."""
    spatial = ops.SpatialOperator(skewed_matrix(), "skewed")
    fine = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 0.1))
    coarse = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 0.1 * k))
    return ops.make_pair(fine, coarse, k)


def rotating_basis():
    """The fixed random unitary eigenbasis of rotating_pair's operator."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                        + 1j * rng.standard_normal((3, 3)))
    return q


def rotating_pair(k=2):
    """Backward-Euler pair on a normal operator with complex eigenvalues in
    the unitary basis rotating_basis(), so that mu and lambda^k are
    complex."""
    q = rotating_basis()
    values = np.array([-1.0 + 3.0j, -2.0 - 1.0j, -0.5 + 0.2j])
    spatial = ops.SpatialOperator(q @ np.diag(values) @ q.conj().T, "rotating",
                                  values)
    fine = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 0.1))
    coarse = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 0.1 * k))
    return ops.make_pair(fine, coarse, k)


def physical_vector(u, x):
    """The physical space-time vector whose mode coordinates (those of a
    normal pair's SpaceTimeSystem) in the eigenbasis u are x: u x_i at
    every point."""
    return (x.reshape(-1, u.shape[0]) @ u.T).ravel()


def dense_block(pair, grid, relaxation, side="residual"):
    """The assembled coarse-level propagation block of one relaxation and
    side."""
    cgc_res, cgc_err, relax = st.coarse_defect_blocks(pair, grid)
    block = cgc_res if side == "residual" else cgc_err
    return block @ relax if relaxation == "FCF" else block


def phase_oracle(fun, minimize=False, samples=4096):
    """Brute-force extremum over x of a 2*pi-periodic function fun, which maps
    an array of phases to an array of values: the best of a dense grid,
    polished by a ternary search over the two cells around it. Returns the
    grid samples and the polished value."""
    sign = 1.0 if minimize else -1.0
    xs = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    vals = fun(xs)
    i = int(np.argmin(sign * vals))
    h = 2.0 * np.pi / samples
    lo, hi = xs[i] - h, xs[i] + h
    for _ in range(100):
        a, b = lo + (hi - lo) / 3, hi - (hi - lo) / 3
        fa, fb = sign * fun(np.array([a, b]))
        if fa < fb:
            hi = b
        else:
            lo = a
    return vals, float(fun(np.array([0.5 * (lo + hi)]))[0])


def assert_not_beaten(value, fun, minimize=False):
    """No oracle sample of fun is better than value by more than 1e-12
    relative."""
    samples, polished = phase_oracle(fun, minimize)
    best = np.min(samples) if minimize else np.max(samples)
    for oracle in (best, polished):
        if minimize:
            assert value <= oracle + 1e-12 * abs(oracle)
        else:
            assert value >= oracle - 1e-12 * abs(oracle)


def tap_samples(pair, relaxation, p=1):
    """sigma_max((Psi - Phi^k)^p D(x)^{-p}) over an array of phases, with
    D(x)^{-1} = (I - e^{ix} Psi)^{-1}, times Phi^k for FCF; 0 at the phases
    the pole mask of Psi covers."""
    psi, phik = pair.coarse.matrix, pair.fine_power
    num = np.linalg.matrix_power(psi - phik, p)
    skip = tap._psi_poles(pair)

    def fun(xs):
        vals = np.zeros(len(xs))
        keep = np.ones(len(xs), bool) if skip is None else ~skip(xs)
        den = np.eye(pair.dim) - np.exp(1j * xs[keep])[:, None, None] * psi
        di = np.linalg.inv(den)
        if relaxation == "FCF":
            di = di @ phik
        m = num @ np.linalg.matrix_power(di, p)
        vals[keep] = np.linalg.svd(m, compute_uv=False)[:, 0]
        return vals

    return fun
