import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from helpers import heat_pair, random_contraction, raw_pair, raw_stepper
from pintbounds import operators as ops
from pintbounds import spacetime as st
from pintbounds import tap


def grid_min_phase(psi, v, p, samples=4096, left=None):
    """Brute-force oracle for min_x ||left (I - e^{ix} psi)^p v||: dense phase
    grid plus a local ternary polish of the best cell (the raw grid min
    carries O(h^2) discretization error)."""
    psi = np.asarray(psi, dtype=complex)
    eye = np.eye(psi.shape[0])
    left = eye if left is None else left

    def fun(x):
        return np.linalg.norm(
            left @ np.linalg.matrix_power(eye - np.exp(1j * x) * psi, p) @ v)

    xs = np.linspace(0, 2 * np.pi, samples, endpoint=False)
    vals = [fun(x) for x in xs]
    i = int(np.argmin(vals))
    h = 2 * np.pi / samples
    lo, hi = xs[i] - h, xs[i] + h
    for _ in range(200):
        a = lo + (hi - lo) / 3
        b = hi - (hi - lo) / 3
        if fun(a) < fun(b):
            hi = b
        else:
            lo = a
    return fun(0.5 * (lo + hi))


class TestMinPhaseNorm:
    def test_zero_psi(self):
        v = np.array([3.0, 4.0])
        val, _ = tap.min_phase_norm(np.zeros((2, 2)), v)
        assert val == pytest.approx(5.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            tap.min_phase_norm(np.eye(2), np.zeros(2))

    def test_closed_form_vs_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            d = int(rng.integers(1, 5))
            psi = random_contraction(rng, d, norm_bound=0.95)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            val, x = tap.min_phase_norm(psi, v)
            oracle = grid_min_phase(psi, v, 1)
            assert abs(val - oracle) <= 1e-9 * max(oracle, 1e-12)
            # returned phase attains the minimum
            attained = np.linalg.norm((np.eye(d) - np.exp(1j * x) * psi) @ v)
            assert attained == pytest.approx(val, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(hst.integers(min_value=0, max_value=10_000))
    def test_real_two_case_form(self, seed):
        # for real Psi and real v the minimum is ||(I -+ Psi) v|| depending on
        # the sign of <Psi v, v>
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        psi = random_contraction(rng, d, norm_bound=0.9).real
        v = rng.standard_normal(d)
        val, _ = tap.min_phase_norm(psi, v)
        inner = np.dot(psi @ v, v)
        sign = -1.0 if inner > 0 else 1.0
        assert val == pytest.approx(
            np.linalg.norm((np.eye(d) + sign * psi) @ v), rel=1e-12)

    def test_power_two_vs_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            psi = random_contraction(rng, 3, norm_bound=0.9)
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            val, _ = tap.min_phase_norm(psi, v, p=2)
            oracle = grid_min_phase(psi, v, 2)
            assert abs(val - oracle) <= 1e-8 * max(oracle, 1e-12)


class TestTapConstant:
    def test_exact_coarse_gives_zero(self):
        rng = np.random.default_rng(2)
        phi = random_contraction(rng, 2)
        pair = raw_pair(phi, phi @ phi, 2)
        res = tap.tap_constant(tap.TapQuery(pair, "F", 1))
        assert res.value < 1e-12

    def test_scalar_value(self):
        pair = raw_pair([[0.5]], [[0.6]], 1)
        res = tap.tap_constant(tap.TapQuery(pair, "F", 1))
        assert res.value == pytest.approx(0.25, rel=1e-8)

    def test_normal_pair_certified(self):
        pair = heat_pair(nx=6, dt=0.02, k=2)
        res = tap.tap_constant(tap.TapQuery(pair, "F", 1))
        teap = tap.teap_constant(tap.TapQuery(pair, "F", 1, "TEAP"))
        assert res.certified
        assert res.value == pytest.approx(teap.value, rel=1e-12)

    def test_general_path_matches_eigen_path(self):
        full = heat_pair(nx=5, dt=0.03, k=2)
        bare = heat_pair(nx=5, dt=0.03, k=2, attach_eig=False)
        for relaxation in ("F", "FCF"):
            teap = tap.teap_constant(tap.TapQuery(full, relaxation, 1, "TEAP"))
            gen = tap.tap_constant(tap.TapQuery(bare, relaxation, 1))
            assert not gen.certified
            assert abs(gen.value - teap.value) <= 1e-8 * teap.value

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_value_is_sup_over_vectors(self, relaxation):
        # the definition: sup over v of ||(Psi - Phi^k) v|| / min_x ||D(x) v||
        # with D(x) = I - e^{ix} Psi for F and Phi^{-k} (I - e^{ix} Psi) for FCF
        rng = np.random.default_rng(3)
        for _ in range(3):
            phi = random_contraction(rng, 3)
            psi = random_contraction(rng, 3)
            pair = raw_pair(phi, psi, 2)
            left = None if relaxation == "F" else np.linalg.inv(phi @ phi)
            res = tap.tap_constant(tap.TapQuery(pair, relaxation, 1))
            assert res.method == "phase-sweep" and not res.certified

            def ratio(v):
                # for p = 1 the denominator is a sinusoid in x, so a coarse
                # grid brackets its one minimum
                return (np.linalg.norm((psi - phi @ phi) @ v)
                        / grid_min_phase(psi, v, 1, samples=256, left=left))

            for _ in range(6):
                v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                assert ratio(v) <= res.value * (1 + 1e-10)
                near = res.maximizer + 1e-3 * v
                assert ratio(near) <= res.value * (1 + 1e-10)
            assert ratio(res.maximizer) == pytest.approx(res.value, rel=1e-8)

    def test_power_on_normal_pair(self):
        pair = heat_pair(nx=4, dt=0.02, k=2)
        one = tap.tap_constant(tap.TapQuery(pair, "F", 1)).value
        two = tap.tap_constant(tap.TapQuery(pair, "F", 2)).value
        assert two == pytest.approx(one ** 2, rel=1e-12)

    def test_fcf_singular_power_rejected(self):
        pair = raw_pair(np.zeros((2, 2)), 0.5 * np.eye(2), 2)
        with pytest.raises(ValueError, match="singular"):
            tap.tap_constant(tap.TapQuery(pair, "FCF", 1))


class TestItapConstant:
    def test_scalar_value_at_zero_phase(self):
        pair = raw_pair([[np.sqrt(0.5)]], [[0.6]], 2)   # Phi^k = 0.5
        res = tap.itap_constant(tap.TapQuery(pair, "F", 1, "ITAP"))
        assert res.value == pytest.approx(0.1 / 0.4, rel=1e-10)
        assert min(res.phase, 2 * np.pi - res.phase) < 1e-6

    def test_exact_coarse_gives_zero(self):
        rng = np.random.default_rng(4)
        phi = random_contraction(rng, 2)
        pair = raw_pair(phi, phi @ phi, 2)
        assert tap.itap_constant(tap.TapQuery(pair, "F", 1, "ITAP")).value < 1e-12

    def test_unit_circle_eigenvalue_rejected(self):
        pair = raw_pair(0.5 * np.eye(1), np.eye(1), 2)
        with pytest.raises(ValueError, match="phase singularity"):
            tap.itap_constant(tap.TapQuery(pair, "F", 1, "ITAP"))

    def test_power_restriction(self):
        pair = raw_pair([[0.5]], [[0.6]], 1)
        with pytest.raises(ValueError):
            tap.TapQuery(pair, "F", 2, "ITAP")


class TestTeapConstant:
    def _pair_with_eig(self, lam, mu):
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        mu = np.atleast_1d(np.asarray(mu, dtype=complex))
        eye = np.eye(lam.size, dtype=complex)
        shared = ops.SharedEigendecomposition(lam, mu, eye, eye, True)
        return ops.StepperPair(raw_stepper(np.diag(lam)), raw_stepper(np.diag(mu)),
                               1, True, shared)

    def test_exact_modes_give_zero(self):
        pair = self._pair_with_eig([0.5, 0.2], [0.5, 0.2])
        assert tap.teap_constant(tap.TapQuery(pair, "F", 1, "TEAP")).value == 0.0

    def test_single_mode_values(self):
        pair = self._pair_with_eig([0.5], [0.6])
        f = tap.teap_constant(tap.TapQuery(pair, "F", 1, "TEAP"))
        fcf = tap.teap_constant(tap.TapQuery(pair, "FCF", 1, "TEAP"))
        assert f.value == pytest.approx(0.25)
        assert fcf.value == pytest.approx(0.125)
        assert f.maximizer == 0

    def test_heat_matches_explicit_loop(self):
        pair = heat_pair(nx=16, dt=0.01, k=2)
        e = pair.shared_eig
        best = max(abs(m - l ** 2) / (1 - abs(m))
                   for l, m in zip(e.fine_values, e.coarse_values))
        res = tap.teap_constant(tap.TapQuery(pair, "F", 1, "TEAP"))
        assert res.value == pytest.approx(best, rel=1e-12)

    def test_requires_shared_eig(self):
        pair = raw_pair([[0.5]], [[0.6]], 1)
        with pytest.raises(ValueError):
            tap.TapQuery(pair, "F", 1, "TEAP")


class TestStabilityDecay:
    def test_zero_coarse(self):
        pair = raw_pair(0.5 * np.eye(2), np.zeros((2, 2)), 2)
        assert tap.stability_decay(pair, st.GridSpec(9, 2)) == (0.0, 0.0)

    def test_matches_power_oracle(self):
        rng = np.random.default_rng(5)
        phi = random_contraction(rng, 3)
        psi = random_contraction(rng, 3)
        pair = raw_pair(phi, psi, 2)
        grid = st.GridSpec(2 * 63 + 1, 2)
        first, second = tap.stability_decay(pair, grid)
        psi_nc = np.linalg.matrix_power(psi, 64)
        phik = phi @ phi
        assert first == pytest.approx(np.linalg.norm(psi_nc, 2), rel=1e-10)
        assert second == pytest.approx(
            np.linalg.norm(np.linalg.inv(phik) @ psi_nc @ phik, 2), rel=1e-10)

    def test_submultiplicative(self):
        pair = heat_pair(nx=6, dt=0.02, k=2)
        grid = st.GridSpec(2 * 31 + 1, 2)
        first, _ = tap.stability_decay(pair, grid)
        assert first <= pair.coarse.norm ** grid.n_coarse + 1e-14
