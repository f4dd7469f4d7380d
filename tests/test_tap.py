import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from helpers import (assert_not_beaten, heat_pair, phase_oracle,
                     random_contraction, raw_pair, raw_stepper, tap_samples)
from pintbounds import harness
from pintbounds import operators as ops
from pintbounds import spacetime as st
from pintbounds import tap
from pintbounds import toeplitz as tp


def denominator_norms(psi, v, p, left=None):
    """||left (I - e^{ix} psi)^p v|| over an array of phases x."""
    psi = np.asarray(psi, dtype=complex)
    eye = np.eye(psi.shape[0])
    left = eye if left is None else left

    def fun(xs):
        den = eye - np.exp(1j * xs)[:, None, None] * psi
        return np.linalg.norm(left @ np.linalg.matrix_power(den, p) @ v,
                              axis=1)

    return fun


class TestPhaseSweep:
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_tap_not_beaten_by_oracle(self, relaxation, p):
        rng = np.random.default_rng(9)
        for _ in range(3):
            d = int(rng.integers(2, 5))
            pair = raw_pair(random_contraction(rng, d),
                            random_contraction(rng, d, norm_bound=0.97), 2)
            res = tap.tap_constant(pair, relaxation, p)
            assert_not_beaten(res.value, tap_samples(pair, relaxation, p))

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_itap_not_beaten_by_oracle(self, relaxation):
        rng = np.random.default_rng(10)
        for _ in range(3):
            d = int(rng.integers(2, 5))
            pair = raw_pair(random_contraction(rng, d),
                            random_contraction(rng, d, norm_bound=0.97), 2)
            psi, phik = pair.coarse.matrix, pair.fine_power
            tail = (psi - phik) @ (phik if relaxation == "FCF" else np.eye(d))

            def fun(xs):
                den = np.eye(d) - np.exp(1j * xs)[:, None, None] * psi
                return np.linalg.svd(np.linalg.inv(den) @ tail,
                                     compute_uv=False)[:, 0]

            assert_not_beaten(tap.itap_constant(pair, relaxation).value, fun)


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
            oracle = phase_oracle(denominator_norms(psi, v, 1), minimize=True)[1]
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
            oracle = phase_oracle(denominator_norms(psi, v, 2), minimize=True)[1]
            assert abs(val - oracle) <= 1e-8 * max(oracle, 1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_higher_powers_not_beaten_by_oracle(self, p):
        rng = np.random.default_rng(11)
        for _ in range(5):
            d = int(rng.integers(1, 5))
            psi = random_contraction(rng, d, norm_bound=0.95)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            fun = denominator_norms(psi, v, p)
            val, x = tap.min_phase_norm(psi, v, p)
            assert_not_beaten(val, fun, minimize=True)
            assert fun(np.array([x]))[0] == pytest.approx(val, rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4, 6])
    def test_eigenvalue_near_unit_circle(self, p):
        # the expanded polynomial has (p - 1)-fold roots at conj(mu) and
        # 1 / mu, next to the minimum (1 - |mu|)^p, and its computed roots
        # alone miss that minimum by up to 3e-2 relative
        for mu in (0.999, 0.999 * np.exp(2.1j), 0.99j, -0.95 + 0.2j):
            val, x = tap.min_phase_norm(np.array([[mu]]), np.array([1.0]), p)
            attained = abs(1 - np.exp(1j * x) * mu) ** p
            assert val == pytest.approx((1 - abs(mu)) ** p, rel=1e-12)
            assert attained == pytest.approx(val, rel=1e-12)


class TestTapConstant:
    def test_exact_coarse_gives_zero(self):
        rng = np.random.default_rng(2)
        phi = random_contraction(rng, 2)
        pair = raw_pair(phi, phi @ phi, 2)
        res = tap.tap_constant(pair, "F")
        assert res.value < 1e-12

    def test_scalar_value(self):
        pair = raw_pair([[0.5]], [[0.6]], 1)
        res = tap.tap_constant(pair, "F")
        assert res.value == pytest.approx(0.25, rel=1e-8)

    def test_normal_pair_certified(self):
        pair = heat_pair(nx=6, dt=0.02, k=2)
        res = tap.tap_constant(pair, "F")
        teap = tap.teap_constant(pair, "F")
        assert res.certified
        assert res.value == pytest.approx(teap.value, rel=1e-12)

    def test_general_path_matches_eigen_path(self):
        full = heat_pair(nx=5, dt=0.03, k=2)
        bare = heat_pair(nx=5, dt=0.03, k=2, attach_eig=False)
        for relaxation in ("F", "FCF"):
            teap = tap.teap_constant(full, relaxation)
            gen = tap.tap_constant(bare, relaxation)
            assert gen.certified and gen.method == "level-set"
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
            res = tap.tap_constant(pair, relaxation)
            assert res.method == "level-set" and res.certified

            def ratio(v):
                # for p = 1 the denominator is a sinusoid in x, so a coarse
                # grid brackets its one minimum
                den = denominator_norms(psi, v, 1, left)
                return (np.linalg.norm((psi - phi @ phi) @ v)
                        / phase_oracle(den, minimize=True, samples=256)[1])

            for _ in range(6):
                v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                assert ratio(v) <= res.value * (1 + 1e-10)
                near = res.maximizer + 1e-3 * v
                assert ratio(near) <= res.value * (1 + 1e-10)
            assert ratio(res.maximizer) == pytest.approx(res.value, rel=1e-8)

    def test_power_on_normal_pair(self):
        pair = heat_pair(nx=4, dt=0.02, k=2)
        one = tap.tap_constant(pair, "F").value
        two = tap.tap_constant(pair, "F", 2).value
        assert two == pytest.approx(one ** 2, rel=1e-12)

    def test_arguments_validated(self):
        pair = raw_pair([[0.5]], [[0.6]], 1)
        for call in (lambda: tap.tap_constant(pair, "CF"),
                     lambda: tap.tap_constant(pair, "F", 0),
                     lambda: tap.itap_constant(pair, "CF")):
            with pytest.raises(ValueError):
                call()

    def test_fcf_singular_power_matches_oracle(self):
        # the FCF constants only multiply by Phi^k, so a singular Phi^k
        # leaves them defined; Phi = 0 makes them zero
        zero = raw_pair(np.zeros((2, 2)), 0.5 * np.eye(2), 2)
        res = tap.tap_constant(zero, "FCF")
        assert res.value == 0.0 and res.certified
        assert np.linalg.norm(res.maximizer) == pytest.approx(1.0, rel=1e-14)
        assert tap.itap_constant(zero, "FCF").value == 0.0
        rng = np.random.default_rng(8)
        pair = raw_pair([[0.0, 0.0], [0.3, 0.5]], random_contraction(rng, 2), 2)
        assert ops.ill_conditioned(pair.fine_power_sv)
        for p in (1, 2):
            assert_matches_oracle(tap.tap_constant(pair, "FCF", p),
                                  tap_samples(pair, "FCF", p))


class TestItapConstant:
    def test_scalar_value_at_zero_phase(self):
        pair = raw_pair([[np.sqrt(0.5)]], [[0.6]], 2)   # Phi^k = 0.5
        res = tap.itap_constant(pair, "F")
        assert res.value == pytest.approx(0.1 / 0.4, rel=1e-10)
        assert res.method == "level-set" and res.certified
        assert min(res.phase, 2 * np.pi - res.phase) < 1e-6

    def test_exact_coarse_gives_zero(self):
        rng = np.random.default_rng(4)
        phi = random_contraction(rng, 2)
        pair = raw_pair(phi, phi @ phi, 2)
        assert tap.itap_constant(pair, "F").value < 1e-12

    def test_unit_circle_eigenvalue_rejected(self):
        pair = raw_pair(0.5 * np.eye(1), np.eye(1), 2)
        with pytest.raises(ValueError, match="phase singularity"):
            tap.itap_constant(pair, "F")


def upwind_pair(coarse_scheme="backward-euler", n=4):
    """Upwind advection pair at Courant number 1 on the coarse level, with
    backward-Euler fine steps: a forward-Euler coarse step makes Psi the
    nilpotent shift."""
    spatial = ops.build_spatial("advection-1d-upwind", n, 1.0 / n)
    fine = ops.build_stepper(spatial,
                             ops.SchemeSpec("backward-euler", 0.5 / n))
    coarse = ops.build_stepper(spatial, ops.SchemeSpec(coarse_scheme, 1.0 / n))
    return ops.make_pair(fine, coarse, 2)


def assert_matches_oracle(res, fun):
    """The level-set bracket [value, upper] holds the oracle's maximum, and
    value is within 3e-12 of it, the certificate's 2 TOL plus round-off."""
    samples, polished = phase_oracle(fun)
    assert res.certified and res.method == "level-set"
    for oracle in (np.max(samples), polished):
        assert oracle <= res.upper * (1 + 1e-12)
    assert abs(res.value - polished) <= 3e-12 * polished


class TestLevelSet:
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_certificate_at_upper(self, relaxation, p):
        # no midpoint between the crossings of upper rises above it, which
        # proves that no phase does; just below the maximum the level is
        # crossed
        rng = np.random.default_rng(12)
        pairs = [upwind_pair(n=6)] + [
            raw_pair(random_contraction(rng, d),
                     random_contraction(rng, d, norm_bound=0.97), 2)
            for d in (2, 3, 5)]
        for pair in pairs:
            res = tap.tap_constant(pair, relaxation, p)
            m = pair.fine_power if relaxation == "FCF" else np.eye(pair.dim)
            a, b, c = tap._tap_realization(
                pair.coarse.matrix, m,
                np.linalg.matrix_power(pair.coarse_defect, p), p)
            (b, eb), (c, ec) = ops._unit(b), ops._unit(c)
            upper = np.ldexp(res.upper, -eb - ec)
            assert res.certified
            assert res.upper == res.value * (1 + 2 * tap.TOL)
            cross, exact = tap._crossings(a, b, c, upper)
            assert exact
            cuts = np.sort(np.append(cross, res.phase))
            mids = cuts + 0.5 * np.diff(np.append(cuts, cuts[0] + 2 * np.pi))
            assert tap._gain(a, b, c, mids).max() <= upper
            below, _ = tap._crossings(a, b, c, upper * (1 - 1e-6))
            assert below.size >= 2

    @pytest.mark.parametrize("p", [1, 2])
    def test_rounds_reuse_the_kept_eigenvalues(self, p, monkeypatch):
        # build_stepper keeps the eigenvalues of Psi; the pole mask and the
        # start phases of the p-fold realization take them, so the only
        # eigenvalue problems a TAP solves are its pencils of order 2 p N_x
        pair = upwind_pair(n=4)
        assert pair.coarse.eigenvalues is not None
        shapes = []
        eigvals = np.linalg.eigvals

        def record(m):
            shapes.append(m.shape)
            return eigvals(m)

        monkeypatch.setattr(np.linalg, "eigvals", record)
        for relaxation in ("F", "FCF"):
            assert tap.tap_constant(pair, relaxation, p).certified
        assert shapes and set(shapes) == {(2 * p * pair.dim,) * 2}

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_singular_coarse_step_matches_oracle(self, relaxation):
        # the pencil's R = [[Psi, 0], [C*C/gamma, -I]] is singular here, so
        # the crossings need the disc map
        pair = upwind_pair("forward-euler")
        assert np.linalg.matrix_rank(pair.coarse.matrix) < pair.dim
        for p in (1, 2):
            assert_matches_oracle(tap.tap_constant(pair, relaxation, p),
                                  tap_samples(pair, relaxation, p))

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_power_three_matches_oracle(self, relaxation):
        rng = np.random.default_rng(13)
        for d in (2, 3, 4):
            pair = raw_pair(random_contraction(rng, d),
                            random_contraction(rng, d, norm_bound=0.97), 2)
            assert_matches_oracle(tap.tap_constant(pair, relaxation, 3),
                                  tap_samples(pair, relaxation, 3))

    def test_constants_sweep_no_phase(self):
        pair = upwind_pair(n=5)
        for relaxation in ("F", "FCF"):
            for p in (1, 2):
                assert tap.tap_constant(pair, relaxation, p).certified
            assert tap.itap_constant(pair, relaxation).certified

    def test_run_sweeps_no_phase(self, monkeypatch):
        symbols, symbol = [], tp.symbol_max_sv
        monkeypatch.setattr(tp, "symbol_max_sv",
                            lambda *a, **kw: symbols.append(a) or symbol(*a, **kw))
        cfg = harness.ExperimentConfig.from_dict({
            "problem": {"kind": "advection-1d-upwind", "n": 4, "h": 0.25},
            "fine": {"scheme": "backward-euler", "dt": 0.05}, "k": 2,
            "n_time": 17, "relaxations": ["F", "FCF"], "iterations": 3})
        rec = harness.run_experiment(cfg)
        assert len(symbols) == 2
        taps = [r for r in rec.bounds if r["kind"] in ("tap", "sufficient")]
        assert len(taps) == 4
        assert all(r["certified"] and r["method"] == "level-set" for r in taps)
        rows = [r for r in rec.bounds if r["kind"] == "symbol"]
        assert len(rows) == 2
        assert all(r["certified"] and r["method"] == "bernstein" for r in rows)

    def test_unit_circle_pole_uncertified(self):
        # Psi has the eigenvalue 1: the maximum outside the masked arc sits
        # at its edge, on the flank of the pole
        pair = raw_pair(np.diag([0.5, 0.3]), np.diag([1.0, 0.5]), 2)
        for relaxation in ("F", "FCF"):
            res = tap.tap_constant(pair, relaxation)
            assert not res.certified
            assert res.value > 1e7

    def test_cancelled_pole_keeps_finite_certified_value(self, tmp_path):
        # Psi and Phi^k share the eigenvalue 1 on the null vector of L, which
        # Psi - Phi^k annihilates: G is analytic across the masked arc
        path = tmp_path / "op.txt"
        path.write_text("0 0\n1 -1\n")
        cfg = harness.ExperimentConfig.from_dict({
            "problem": {"kind": "from-file", "path": str(path)},
            "fine": {"scheme": "backward-euler", "dt": 0.1},
            "coarse": {"scheme": "backward-euler", "dt": 0.2}, "k": 2,
            "n_time": 17, "relaxations": ["F"], "iterations": 3})
        pair = harness.build_pair(cfg)
        assert tap._psi_poles(pair) is not None
        rows = harness._bound_rows(pair, st.GridSpec(17, 2), "F")
        row = next(r for r in rows if r["kind"] == "tap")
        assert row["certified"] is True
        assert row["lower"] == pytest.approx(0.05843857695756814, rel=1e-10)

    @pytest.mark.parametrize("p", [1, 2])
    def test_zero_coarse_step_certified(self, p):
        # Psi = 0 makes the transfer function constant: F gives
        # sigma_max((-Phi^k)^p), FCF sigma_max(Phi^{2kp}), and the ITAP
        # sigma_max(Phi^k) and sigma_max(Phi^{2k})
        phi = np.array([[0.6, 0.3], [0.0, 0.5]])
        pair = raw_pair(phi, np.zeros((2, 2)), 2)
        phik = phi @ phi

        def top(m):
            return np.linalg.svd(m, compute_uv=False)[0]

        for relaxation, power in (("F", p), ("FCF", 2 * p)):
            res = tap.tap_constant(pair, relaxation, p)
            assert res.certified and res.method == "level-set"
            assert res.value == pytest.approx(
                top(np.linalg.matrix_power(phik, power)), rel=1e-14)
        for relaxation, m in (("F", phik), ("FCF", phik @ phik)):
            res = tap.itap_constant(pair, relaxation)
            assert res.certified
            assert res.value == pytest.approx(top(m), rel=1e-14)

    def test_zero_coarse_step_bounds_certified(self, tmp_path):
        # backward-Euler fine steps of -1 at dt 0.5 give Phi^2 = 4/9; a
        # forward-Euler coarse step at dt 1 gives Psi = 0
        path = tmp_path / "op.txt"
        path.write_text("-1\n")
        cfg = harness.ExperimentConfig.from_dict({
            "problem": {"kind": "from-file", "path": str(path)},
            "fine": {"scheme": "backward-euler", "dt": 0.5},
            "coarse": {"scheme": "forward-euler", "dt": 1.0}, "k": 2,
            "n_time": 17, "relaxations": ["F", "FCF"], "iterations": 3})
        pair = harness.build_pair(cfg)
        for relaxation, exact in (("F", 4 / 9), ("FCF", 16 / 81)):
            rows = harness._bound_rows(pair, st.GridSpec(17, 2), relaxation)
            row = next(r for r in rows if r["kind"] == "tap")
            assert row["certified"] is True
            assert row["lower"] == pytest.approx(exact, rel=1e-14)


class TestTeapConstant:
    def _pair_with_eig(self, lam, mu):
        lam = np.atleast_1d(np.asarray(lam, dtype=complex))
        mu = np.atleast_1d(np.asarray(mu, dtype=complex))
        shared = ops.SharedEigendecomposition(lam, mu)
        return ops.StepperPair(raw_stepper(np.diag(lam)), raw_stepper(np.diag(mu)),
                               1, True, shared)

    def test_exact_modes_give_zero(self):
        pair = self._pair_with_eig([0.5, 0.2], [0.5, 0.2])
        assert tap.teap_constant(pair, "F").value == 0.0

    def test_single_mode_values(self):
        pair = self._pair_with_eig([0.5], [0.6])
        f = tap.teap_constant(pair, "F")
        fcf = tap.teap_constant(pair, "FCF")
        assert f.value == pytest.approx(0.25)
        assert fcf.value == pytest.approx(0.125)
        assert f.maximizer == 0

    def test_heat_matches_explicit_loop(self):
        pair = heat_pair(nx=16, dt=0.01, k=2)
        e = pair.shared_eig
        best = max(abs(m - l ** 2) / (1 - abs(m))
                   for l, m in zip(e.fine_values, e.coarse_values))
        res = tap.teap_constant(pair, "F")
        assert res.value == pytest.approx(best, rel=1e-12)

    def test_requires_shared_eig(self):
        pair = raw_pair([[0.5]], [[0.6]], 1)
        with pytest.raises(ValueError):
            tap.teap_constant(pair, "F")


class TestStabilityDecay:
    def test_zero_coarse(self):
        pair = raw_pair(0.5 * np.eye(2), np.zeros((2, 2)), 2)
        assert tap.stability_decay(pair, st.GridSpec(9, 2)) == (0.0, 0.0)

    def test_singular_fine_power_has_no_fcf_factor(self):
        pair = raw_pair(np.diag([0.0, 0.5]), 0.5 * np.eye(2), 2)
        first, second = tap.stability_decay(pair, st.GridSpec(9, 2))
        assert first == pytest.approx(0.5 ** 5, rel=1e-14)
        assert second is None

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
