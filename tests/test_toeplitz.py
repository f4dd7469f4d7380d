import inspect
import math

import numpy as np
import pytest

from helpers import (assert_not_beaten, dense_block, heat_pair, normal_pair,
                     phase_oracle, random_contraction, raw_pair, rotating_pair,
                     skewed_pair)
from pintbounds import harness
from pintbounds import operators as ops
from pintbounds import spacetime as st
from pintbounds import tap
from pintbounds import toeplitz as tp


# (relaxation, side) of each coarse-block symbol, under the ids its tests
# have always had
SYMBOL_CASES = [pytest.param("F", "residual", id="F-relaxation"),
                pytest.param("FCF", "residual", id="FCF-relaxation"),
                pytest.param("F", "error", id="error-side-F"),
                pytest.param("FCF", "error", id="error-side-FCF")]


def mp_residuals(a, ai):
    na = max(np.linalg.norm(a), 1e-300)
    ni = max(np.linalg.norm(ai), 1e-300)
    return max(np.linalg.norm(a @ ai @ a - a) / na,
               np.linalg.norm(ai @ a @ ai - ai) / ni,
               np.linalg.norm((a @ ai).conj().T - a @ ai),
               np.linalg.norm((ai @ a).conj().T - ai @ a))


def stable_block(rng, d, rho=0.9):
    m = 0.5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return m / max(1.0, np.max(np.abs(np.linalg.eigvals(m))) / rho)


def shifted_block(rng, d):
    while True:
        m = stable_block(rng, d) + np.eye(d)
        if np.linalg.cond(m) <= 10.0:
            return m


class TestPinv:
    def test_unit_scalar_example(self):
        spec = tp.PinvSpec(1.0, 1.0, 1.0, 3)
        a0 = tp.assemble_a0(spec)
        assert np.allclose(a0, [[0, 0, 0], [1, 0, 0], [1, 1, 0]])
        ai = tp.pinv_a0(spec)
        assert np.allclose(ai, [[0, 1, 0], [0, -1, 1], [0, 0, 0]])
        assert np.allclose(ai @ a0, np.diag([1, 1, 0]))
        assert np.allclose(a0 @ ai, np.diag([0, 1, 1]))

    def test_random_blocks_a0_a1(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(1, 3))
            f = stable_block(rng, d)
            g, h = shifted_block(rng, d), shifted_block(rng, d)
            spec = tp.PinvSpec(f, g, h, 5)
            for shape in ("A0", "A1"):
                a = tp.assemble_a0(spec, shape)
                assert mp_residuals(a, tp.pinv_a0(spec, shape)) <= 1e-10

    def test_power_reduces_to_first(self):
        rng = np.random.default_rng(1)
        spec = tp.PinvSpec(stable_block(rng, 2), shifted_block(rng, 2),
                           shifted_block(rng, 2), 6, 1)
        assert np.allclose(tp.pinv_power(spec), tp.pinv_a0(spec), atol=1e-12)

    def test_scalar_power_example(self):
        spec = tp.PinvSpec(0.6, 0.05, 1.0, 8, 2)
        a = np.linalg.matrix_power(tp.assemble_a0(spec), 2)
        assert mp_residuals(a, tp.pinv_power(spec)) <= 1e-10

    def test_power_band_count(self):
        # each multiplication by the bidiagonal Toeplitz factor opens one more
        # superdiagonal, so its p-th power has exactly p+1 nonzero diagonals
        spec = tp.PinvSpec(0.7, 0.3, 1.0, 9, 3)
        t3 = np.linalg.matrix_power(tp.toeplitz_t0(spec), 3)
        nonzero = {int(j - i) for i, j in zip(*np.nonzero(np.abs(t3) > 1e-14))}
        assert nonzero == {0, 1, 2, 3}
        assert len(nonzero) == spec.p + 1

    def test_power_needs_room(self):
        with pytest.raises(ValueError):
            tp.pinv_power(tp.PinvSpec(0.5, 0.3, 1.0, 6, 3))

    def test_singular_factor_rejected(self):
        with pytest.raises(ValueError):
            tp.PinvSpec(np.zeros((2, 2)), np.eye(2), np.eye(2), 4)


class TestSymbols:
    def test_exact_coarse_zero_symbol(self):
        rng = np.random.default_rng(2)
        phi = random_contraction(rng, 2)
        pair = raw_pair(phi, phi @ phi, 2)
        sym = tp.build_symbol(pair, st.GridSpec(17, 2), "F")
        assert np.max(np.abs(sym(0.7))) < 1e-14
        res = tp.symbol_max_sv(sym)
        assert res.value == res.upper == 0.0
        assert res.certified

    def test_scalar_limit_value(self):
        pair = raw_pair([[0.5]], [[0.6]], 1)
        sym = tp.build_symbol(pair, st.GridSpec(64, 1), "F")
        expected = 0.1 * (1 - 0.6 ** 64) / 0.4
        assert abs(abs(sym(0.0)[0, 0]) - expected) < 1e-12

    def test_periodicity(self):
        pair = heat_pair(nx=3, dt=0.02, k=2)
        grid = st.GridSpec(17, 2)
        for case in SYMBOL_CASES:
            sym = tp.build_symbol(pair, grid, *case.values)
            assert np.allclose(sym(1.3), sym(1.3 + 2 * np.pi), atol=1e-12)

    def test_upper_bounds_assembled_norms(self):
        pair = heat_pair(nx=3, dt=0.05, k=2)
        for nc in (8, 16, 32):
            grid = st.GridSpec(2 * (nc - 1) + 1, 2)
            cgc_res, cgc_err, relax = st.coarse_defect_blocks(pair, grid)
            assembled = {("F", "residual"): cgc_res,
                         ("FCF", "residual"): cgc_res @ relax,
                         ("F", "error"): cgc_err,
                         ("FCF", "error"): cgc_err @ relax}
            for (relaxation, side), block in assembled.items():
                sym = tp.build_symbol(pair, grid, relaxation, side)
                assert np.linalg.norm(block, 2) <= tp.symbol_max_sv(sym).upper + 1e-10

    def test_bounded_by_sufficient_chain(self):
        pair = heat_pair(nx=4, dt=0.05, k=2)
        grid = st.GridSpec(2 * 15 + 1, 2)
        phi = tap.tap_constant(pair, "F").value
        decay, _ = tap.stability_decay(pair, grid)
        sym = tp.build_symbol(pair, grid, "F")
        assert tp.symbol_max_sv(sym).upper <= phi * (1 + decay) + 1e-10

    def test_min_eig_scalar(self):
        res = tp.symbol_min_eig(0.5, 1.0, 1)
        assert res.certified
        assert res.value == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_min_eig_zero_a(self, p):
        # F_p = b^p b^p* for every phase; a Hermitian b has
        # sigma_min(b^p) = sigma_min(b)^p
        b = np.array([[2.0, 0.5j], [-0.5j, 1.5]])
        res = tp.symbol_min_eig(np.zeros((2, 2)), b, p)
        expected = np.linalg.svd(b, compute_uv=False)[-1] ** (2 * p)
        assert res.certified
        assert res.value == pytest.approx(expected, rel=1e-14)
        assert res.upper <= res.value

    def test_min_eig_rejects_singular_factors(self):
        with pytest.raises(ValueError, match="singular"):
            tp.symbol_min_eig(np.eye(2), np.diag([1.0, 0.0]), 2)
        with pytest.raises(ValueError, match="unit-circle"):
            tp.symbol_min_eig(np.diag([0.5, 2.0j]), 2.0 * np.eye(2), 1)

    def test_stacked_evaluation(self):
        pair = heat_pair(nx=3, dt=0.02, k=2)
        sym = tp.build_symbol(pair, st.GridSpec(17, 2), "FCF")
        xs = np.array([[0.1, 1.3], [2.0, 5.5]])
        stack = sym(xs)
        assert stack.shape == (2, 2, 3, 3)
        for idx in np.ndindex(xs.shape):
            assert np.allclose(stack[idx], sym(xs[idx]), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("relaxation,side", SYMBOL_CASES)
    def test_non_normal_max_not_beaten_by_oracle(self, relaxation, side):
        rng = np.random.default_rng(12)
        for _ in range(2):
            d = int(rng.integers(2, 5))
            pair = raw_pair(random_contraction(rng, d),
                            random_contraction(rng, d, norm_bound=0.95), 2)
            grid = st.GridSpec(2 * 16 + 1, 2)
            rational = rational_symbol(pair, grid, relaxation, side)

            def fun(xs):
                return np.linalg.svd(rational(xs), compute_uv=False)[:, 0]

            res = tp.symbol_max_sv(tp.build_symbol(pair, grid, relaxation,
                                                   side))
            assert res.certified
            assert_not_beaten(res.value, fun)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_min_eig_not_beaten_by_oracle(self, p):
        rng = np.random.default_rng(13)
        for _ in range(3):
            a = 0.5 * (rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))
            b = np.eye(2) + 0.3 * rng.standard_normal((2, 2))

            def fun(xs):
                m = np.linalg.matrix_power(
                    -a + np.exp(1j * xs)[:, None, None] * b, p)
                return np.linalg.svd(m, compute_uv=False)[:, -1] ** 2

            res = tp.symbol_min_eig(a, b, p)
            assert res.certified and res.method == "level-set"
            assert_not_beaten(res.value, fun, minimize=True)
            assert fun(np.array([res.phase]))[0] == pytest.approx(
                res.value, rel=1e-12)

    def test_min_eig_gap_order(self):
        mu = 0.5
        sym_min = tp.symbol_min_eig(mu, 1.0, 1).value
        for n in (25, 50, 100, 200):
            lam_min = float(np.min(tp.tridiag_toeplitz_eigs(mu, n)))
            assert 0 < lam_min - sym_min <= np.pi**2 * mu / n**2


def rational_symbol(pair, grid, relaxation, side="residual"):
    """The generating function written out as a rational function of z:
    z (I - z^N Psi^N)(I - z Psi)^{-1} on either side of Psi - Phi^k, times
    Phi^k for FCF. Maps an array of phases to the stack of symbols."""
    d = pair.dim
    psi, phik = pair.coarse.matrix, pair.fine_power
    psi_n = np.linalg.matrix_power(psi, grid.n_coarse)

    def fun(xs):
        z = np.exp(1j * xs)[:, None, None]
        osc = np.eye(d) - z**grid.n_coarse * psi_n
        geo = np.linalg.inv(np.eye(d) - z * psi)
        m = (z * osc @ geo @ (psi - phik) if side == "error"
             else z * (psi - phik) @ osc @ geo)
        return m @ phik if relaxation == "FCF" else m

    return fun


def sampled_max(fun, samples=2**16, chunk=2**14):
    """Largest sigma_max of the symbols fun gives on a uniform grid of
    samples phases. sigma_max is at most the Frobenius norm, so only the
    phases whose Frobenius norm reaches the best sigma_max among the 64
    largest of them are decomposed."""
    xs = 2.0 * np.pi * np.arange(samples) / samples
    stack = np.concatenate([fun(xs[i:i + chunk])
                            for i in range(0, samples, chunk)])
    fro = np.linalg.norm(stack, axis=(1, 2))
    low = np.linalg.svd(stack[np.argsort(fro)[-64:]], compute_uv=False)[:, 0]
    keep = stack[fro >= low.max()]
    return float(np.linalg.svd(keep, compute_uv=False)[:, 0].max())


def random_symbol_case(rng, d, n_coarse):
    pair = raw_pair(random_contraction(rng, d),
                    random_contraction(rng, d, norm_bound=0.95), 2)
    return pair, st.GridSpec(2 * (n_coarse - 1) + 1, 2)


class TestCertifiedSymbol:
    """symbol_max_sv on the coefficient blocks against the rational formula
    of the symbol."""

    @pytest.mark.parametrize("relaxation,side", SYMBOL_CASES)
    def test_bounds_dense_oracle(self, relaxation, side):
        rng = np.random.default_rng(14)
        shift = [c.values for c in SYMBOL_CASES].index((relaxation, side))
        for i, n_coarse in enumerate((2, 3, 17, 64)):
            # every case meets every d in {2, 3, 4}
            pair, grid = random_symbol_case(rng, 2 + (i + shift) % 3, n_coarse)
            res = tp.symbol_max_sv(tp.build_symbol(pair, grid, relaxation, side))
            top = sampled_max(rational_symbol(pair, grid, relaxation, side))
            assert res.certified and res.method == "bernstein"
            assert res.upper >= top
            assert res.value >= top * (1.0 - 1e-12)
            assert res.upper <= res.value * (1.0 + tap.TOL)

    @pytest.mark.parametrize("relaxation,side", SYMBOL_CASES)
    def test_coefficients_match_rational_formula(self, relaxation, side):
        rng = np.random.default_rng(15)
        for n_coarse in (2, 3, 17, 64):
            pair, grid = random_symbol_case(rng, int(rng.integers(2, 5)),
                                            n_coarse)
            xs = rng.uniform(0.0, 2.0 * np.pi, 64)
            want = rational_symbol(pair, grid, relaxation, side)(xs)
            got = tp.build_symbol(pair, grid, relaxation, side)(xs)
            assert np.all(np.linalg.norm(got - want, axis=(1, 2))
                          <= 1e-13 * np.linalg.norm(want, axis=(1, 2)))

    @pytest.mark.parametrize("relaxation", [
        pytest.param("F", id="F-relaxation"),
        pytest.param("FCF", id="FCF-relaxation")])
    def test_decayed_tail_left_out(self, relaxation):
        # upwind N_x = 8 at N_c = 512: the blocks C_j = L Psi^j R fall below
        # the tail floor long before j = 511, and only the kept ones set the
        # Bernstein degree and the rounding pad
        spatial = ops.build_spatial("advection-1d-upwind", 8, 0.125)
        fine = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 0.02))
        coarse = ops.build_stepper(spatial,
                                   ops.SchemeSpec("backward-euler", 0.04))
        pair = ops.make_pair(fine, coarse, 2)
        grid = st.GridSpec(2 * 511 + 1, 2)
        res = tp.symbol_max_sv(tp.build_symbol(pair, grid, relaxation))
        top = sampled_max(rational_symbol(pair, grid, relaxation),
                          samples=2**15)
        assert res.certified
        assert res.upper >= top
        assert res.upper <= res.value * (1.0 + tap.TOL)


    def test_subnormal_upper_rounds_up(self):
        # F(z) = z [[0, 0], [a, 0]] + z^2 [[0, 0], [a, a]], a the smallest
        # subnormal, peaks at sqrt(5) a; scaled back, the bound rounds to
        # 2 a unless it is rounded up
        a = 5e-324
        sym = tp.SymbolFunction(np.array([[[0, 0], [a, 0]], [[0, 0], [a, a]]],
                                         dtype=complex), 1)
        res = tp.symbol_max_sv(sym)
        assert res.certified
        assert res.upper == 3 * a


# each k meets three of the four N_c, and each N_c three of the four k
_N_COARSE = (5, 17, 65, 257)
_NORMAL_SYMBOL_CASES = [
    (scheme, k, _N_COARSE[(i + s) % 4])
    for s, scheme in enumerate(("backward-euler", "sdirk2", "theta"))
    for i, k in enumerate((1, 2, 4, 8))]


def _symbol_case_pair(scheme, k):
    # at k = 1 a rediscretized coarse step is the fine step, so the coarse
    # step takes another scheme to keep the defect nonzero
    coarse = None
    if k == 1:
        coarse = "sdirk2" if scheme == "backward-euler" else "backward-euler"
    return heat_pair(nx=4, dt=0.02, k=k, scheme=scheme,
                     theta=0.6 if scheme == "theta" else None,
                     coarse_scheme=coarse)


class TestNormalSymbol:
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("scheme,k,n_coarse", _NORMAL_SYMBOL_CASES)
    def test_matches_phase_sweep(self, scheme, k, n_coarse, relaxation):
        self._check(_symbol_case_pair(scheme, k), n_coarse, relaxation)

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("n_coarse", [5, 65])
    def test_complex_eigenvalues(self, n_coarse, relaxation):
        pair = rotating_pair(2)
        assert np.min(np.abs(pair.shared_eig.coarse_values.imag)) > 0.03
        self._check(pair, n_coarse, relaxation)

    @staticmethod
    def _check(pair, n_coarse, relaxation):
        grid = st.GridSpec(pair.k * (n_coarse - 1) + 1, pair.k)
        closed = tp.normal_symbol_max(pair, grid, relaxation)
        sym = tp.build_symbol(pair, grid, relaxation)
        sweep = phase_oracle(
            lambda xs: np.linalg.svd(sym(xs), compute_uv=False)[:, 0])[1]
        assert sweep > 0
        assert abs(closed - sweep) <= 1e-12 * sweep
        assert st.coarse_norm(pair, grid, relaxation).value <= closed

    def test_needs_unitary_basis(self):
        with pytest.raises(ValueError, match="unitary"):
            tp.normal_symbol_max(skewed_pair(), st.GridSpec(9, 2))

    def test_fcf_singular_power_matches_sweep(self):
        # forward Euler at dt * ell = -1 zeroes one fine eigenvalue; the FCF
        # symbol only multiplies by Phi^k, so its closed form still holds
        values = np.array([-2.0, -1.0], dtype=complex)
        spatial = ops.SpatialOperator(np.diag(values), "diagonal", values)
        fine = ops.build_stepper(spatial, ops.SchemeSpec("forward-euler", 0.5))
        coarse = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 1.0))
        pair = ops.make_pair(fine, coarse, 2)
        assert pair.normal and ops.ill_conditioned(pair.fine_power_sv)
        for relaxation in ("F", "FCF"):
            self._check(pair, 9, relaxation)


class TestPowerSymbol:
    def test_scalar_expansion(self):
        mu = 0.4 + 0.1j
        sym = tp.power_symbol(mu, 1.0, 1)
        for x in (0.0, 0.9, 2.7):
            expected = 1 + abs(mu) ** 2 - 2 * (mu * np.exp(-1j * x)).real
            assert abs(sym(x)[0, 0] - expected) < 1e-12

    def test_coefficients_match_assembly(self):
        a, b, p, n = 0.5, 1.0, 2, 12
        t = np.diag(np.full(n, -a)) + np.diag(np.full(n - 1, b), 1)
        tp_hat = np.linalg.matrix_power(t, p)[: n - p, p:]
        gram = tp_hat @ tp_hat.conj().T
        sym = tp.power_symbol(a, b, p)
        assert sym.low == -p and sym.coeffs.shape == (2 * p + 1, 1, 1)
        row = (n - p) // 2
        for m in range(p + 1):
            assert abs(sym.coeffs[p + m][0, 0] - gram[row, row + m]) < 1e-11

    def test_scalar_min_is_contraction_power(self):
        for mu in (0.6, -0.3, 0.4 + 0.3j):
            for p in (1, 2, 3):
                res = tp.symbol_min_eig(mu, 1.0, p)
                assert res.certified
                assert res.value == pytest.approx((1 - abs(mu)) ** (2 * p),
                                                  rel=1e-14)


class TestDiagBounds:
    def test_asymptote(self):
        db = tp.diag_bounds([0.5], [0.6], 1, 100)
        assert db.asymptote == pytest.approx(0.25)

    def test_formula_value(self):
        db = tp.diag_bounds([0.5], [0.6], 1, 100)
        expected_upper = 0.1 / math.sqrt(0.16 + np.pi**2 * 0.6 / 60000)
        assert db.upper == pytest.approx(expected_upper, rel=1e-12)
        assert db.upper == pytest.approx(0.24992, abs=5e-6)
        assert db.lower <= db.upper

    def test_exact_modes(self):
        db = tp.diag_bounds([0.5, 0.25], [0.25, 0.0625], 2, 50)
        assert db.lower == 0.0 and db.upper == 0.0

    def test_fcf_without_f_points_is_zero(self):
        # k = 1 has no F-points, so FCF relaxation solves exactly
        db = tp.diag_bounds([0.5], [0.6], 1, 100, relaxation="FCF")
        assert db.lower == 0.0 and db.upper == 0.0

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_bracket_contains_dense_norm(self, relaxation):
        pair = heat_pair(nx=4, dt=0.02, k=2)
        nc = 32
        grid = st.GridSpec(2 * (nc - 1) + 1, 2)
        cgc_res, _, relax = st.coarse_defect_blocks(pair, grid)
        block = cgc_res if relaxation == "F" else cgc_res @ relax
        dense = np.linalg.norm(block, 2)
        e = pair.shared_eig
        db = tp.diag_bounds(e.fine_values, e.coarse_values, 2, nc,
                            relaxation=relaxation)
        assert db.lower <= dense <= db.upper

    def test_takes_no_power(self):
        # the bracket is that of the block itself; horizon sweeps pass the
        # first four parameters positionally
        params = list(inspect.signature(tp.diag_bounds).parameters)
        assert params == ["fine_values", "coarse_values", "k", "n_coarse",
                          "relaxation"]

    def test_validation(self):
        with pytest.raises(ValueError):
            tp.diag_bounds([0.5], [1.0], 1, 10)
        with pytest.raises(ValueError):
            tp.diag_bounds([0.5], [0.6], 1, 10, relaxation="CF")


class TestTridiagClosedForms:
    def test_zero_mu(self):
        assert np.allclose(tp.tridiag_toeplitz_eigs(0.0, 5), 1.0)

    def test_unit_mu_3x3(self):
        eigs = np.sort(tp.tridiag_toeplitz_eigs(1.0, 3))
        assert np.allclose(eigs, [2 - np.sqrt(2), 2, 2 + np.sqrt(2)])

    def test_matches_dense_eigensolver(self):
        mu = 0.7 * np.exp(0.3j)
        n = 6
        m = abs(mu)
        dense = np.diag(np.full(n, 1 + m * m)) + np.diag(np.full(n - 1, m), 1) \
            + np.diag(np.full(n - 1, m), -1)
        assert np.allclose(np.sort(tp.tridiag_toeplitz_eigs(mu, n)),
                           np.sort(np.linalg.eigvalsh(dense)), atol=1e-12)

    def test_positive(self):
        for mu in (0.1, 0.5, 0.99):
            assert np.all(tp.tridiag_toeplitz_eigs(mu, 20) > 0)


class TestPerturbedMinEig:
    def test_value_matches_dense(self):
        for mu in (0.2, 0.5, 0.8):
            for n in (5, 12, 40):
                v, _, _ = tp.tridiag_perturbed_min_eig(mu, n)
                d = np.full(n, 1 + mu * mu)
                d[-1] = 1.0
                dense = np.diag(d) + np.diag(np.full(n - 1, -mu), 1) \
                    + np.diag(np.full(n - 1, -mu), -1)
                assert v == pytest.approx(np.min(np.linalg.eigvalsh(dense)),
                                          abs=1e-12)

    def test_example_bracket(self):
        v, lo, hi = tp.tridiag_perturbed_min_eig(0.5, 50)
        assert lo == pytest.approx(0.25 + np.pi**2 * 0.5 / (6 * 2500), rel=1e-12)
        assert hi == pytest.approx(0.25 + np.pi**2 * 0.5 / 2500, rel=1e-12)
        assert lo <= v <= hi

    def test_small_n_declines_bounds(self):
        v, lo, hi = tp.tridiag_perturbed_min_eig(0.5, 6)
        assert lo is None and hi is None and v > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            tp.tridiag_perturbed_min_eig(0.0, 20)
        with pytest.raises(ValueError):
            tp.tridiag_perturbed_min_eig(1.0, 20)


def random_timedep(rng, nc=16, k=2, modes=3):
    shape = (k * (nc - 1), modes)
    fine = (0.2 + 0.75 * rng.random(shape)) * \
        np.exp(2j * np.pi * rng.random(shape))
    shape_c = (nc - 1, modes)
    coarse = (0.2 + 0.7 * rng.random(shape_c)) * \
        np.exp(2j * np.pi * rng.random(shape_c))
    return tp.TimeDepSpec(fine, coarse, k)


class TestTimeDependent:
    def test_validation(self):
        with pytest.raises(ValueError):
            tp.TimeDepSpec(np.full((4, 1), 0.5), np.full((3, 1), 0.5), 2)
        with pytest.raises(ValueError):
            tp.TimeDepSpec(np.full((4, 1), 0.5), np.full((2, 1), 1.5), 2)

    def test_vectorized_reduction_matches_loops(self):
        rng = np.random.default_rng(5)
        spec = random_timedep(rng, k=3)
        k, fv, mu = spec.k, spec.fine_values, spec.coarse_values
        prods = spec.slice_products
        diag, off = tp.timedep_tridiagonal(spec)
        for j in range(mu.shape[0]):
            assert np.array_equal(prods[j], np.prod(fv[j * k:(j + 1) * k], axis=0))
        delta = np.abs(prods - mu) ** 2
        for m in range(spec.n_modes):
            assert diag[m, 0] == 1.0 / delta[0, m]
            for i in range(1, mu.shape[0]):
                assert diag[m, i] == (np.abs(mu[i - 1, m]) ** 2 / delta[i - 1, m]
                                      + 1.0 / delta[i, m])
                if i < mu.shape[0] - 1:
                    assert off[m, i - 1] == -np.conj(mu[i - 1, m]) / delta[i - 1, m]

    def test_pinv_moore_penrose(self):
        rng = np.random.default_rng(3)
        spec = random_timedep(rng)
        for i in range(spec.n_modes):
            a = tp.assemble_timedep(spec, i)
            assert mp_residuals(a, tp.timedep_pinv(spec, i)) <= 1e-10

    def test_exact_matches_assembled(self):
        rng = np.random.default_rng(4)
        spec = random_timedep(rng)
        exact, bound = tp.timedep_exact_norm(spec)
        dense = max(np.linalg.norm(tp.assemble_timedep(spec, i), 2)
                    for i in range(spec.n_modes))
        assert exact == pytest.approx(dense, rel=1e-8)
        assert bound >= exact * (1 - 1e-10)

    def test_constant_sequences_reduce(self):
        lam, mu, k, nc = 0.9 + 0.05j, 0.7, 2, 20
        spec = tp.TimeDepSpec(np.full((k * (nc - 1), 1), lam),
                              np.full((nc - 1, 1), mu), k)
        exact, _ = tp.timedep_exact_norm(spec)
        # constant case: |mu - lam^k| / sqrt(min eig of the perturbed
        # tridiagonal Toeplitz matrix of size N_c - 1)
        sigma, _, _ = tp.tridiag_perturbed_min_eig(mu, nc - 1)
        assert exact == pytest.approx(abs(mu - lam ** k) / math.sqrt(sigma),
                                      rel=1e-10)

    def test_zero_defect_rejected(self):
        lam = 0.6
        spec = tp.TimeDepSpec(np.full((4, 1), lam), np.full((2, 1), lam ** 2), 2)
        with pytest.raises(ValueError, match="defect"):
            tp.timedep_pinv(spec, 0)


def necessary_case(name):
    """(pair, grid) of the dense-oracle cases of the necessary bound."""
    if name == "upwind8":
        spatial = ops.build_spatial("advection-1d-upwind", 8, 0.125)
        fine = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 0.02))
        coarse = ops.build_stepper(spatial,
                                   ops.SchemeSpec("backward-euler", 0.04))
        pair, n_coarse = ops.make_pair(fine, coarse, 2), 17
    elif name.startswith("heat"):
        # SDIRK2 fine steps against one backward-Euler coarse step, with and
        # without the shared eigenbasis
        pair = heat_pair(nx=4, dt=0.02, k=4, scheme="sdirk2",
                         coarse_scheme="backward-euler")
        if name != "heat-eigenbasis":
            pair = harness._dense_twin(pair)
        n_coarse = 17
    elif name == "non-commuting":
        rng = np.random.default_rng(6)
        pair = raw_pair(random_contraction(rng, 3), random_contraction(rng, 3), 2)
        n_coarse = 33
        assert not pair.commuting
    else:   # "nilpotent": a singular coarse stepper
        pair = raw_pair(0.5 * np.eye(2), [[0.0, 0.8], [0.0, 0.0]], 2)
        n_coarse = 17
    return pair, st.GridSpec(pair.k * (n_coarse - 1) + 1, pair.k)


class TestNecessaryLowerBound:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("side", ["residual", "error"])
    @pytest.mark.parametrize("name", ["upwind8", "heat-eigenbasis", "heat-bare",
                                      "non-commuting", "nilpotent"])
    def test_matches_dense_power(self, name, side, relaxation, p):
        # singular and non-commuting steppers included: the bound is the
        # norm of the p-th power itself, with no hypothesis on the pair
        pair, grid = necessary_case(name)
        nb = tp.necessary_lower_bound(pair, grid, relaxation, p, side)
        assert nb.available
        dense = ops.matrix_power(dense_block(pair, grid, relaxation, side), p)
        assert nb.value == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)

    def test_takes_no_coarse_norm(self):
        # the coarse norm is computed by spacetime.coarse_norm alone; a
        # caller that holds it reads the bound from it
        params = inspect.signature(tp.necessary_lower_bound).parameters
        assert "coarse_norm" not in params and len(params) == 5

    def test_exact_coarse_unavailable(self):
        # an exact coarse stepper, Psi = Phi^2, makes the block and every
        # power of it zero; the bound is available and zero
        rng = np.random.default_rng(5)
        phi = random_contraction(rng, 2)
        pair = raw_pair(phi, phi @ phi, 2)
        grid = st.GridSpec(17, 2)
        for p in (1, 2):
            nb = tp.necessary_lower_bound(pair, grid, p=p)
            assert nb.available and nb.value == 0.0

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("side", ["residual", "error"])
    def test_below_dense_norm(self, relaxation, p, side):
        pair = heat_pair(nx=3, dt=0.05, k=2)
        nc = 16
        grid = st.GridSpec(2 * (nc - 1) + 1, 2)
        nb = tp.necessary_lower_bound(pair, grid, relaxation, p, side)
        assert nb.available
        cgc_res, cgc_err, relax = st.coarse_defect_blocks(pair, grid)
        base = cgc_res if side == "residual" else cgc_err
        block = base if relaxation == "F" else base @ relax
        dense = np.linalg.norm(np.linalg.matrix_power(block, p), 2)
        assert nb.value <= dense * (1 + 1e-10)

    def test_singular_coarse_stepper_unavailable(self):
        # a nilpotent Psi inverts nothing on the way; p >= 2 is in
        # test_matches_dense_power
        shift = np.array([[0.0, 1.0], [0.0, 0.0]])
        pair = raw_pair(0.5 * np.eye(2), shift, 2)
        grid = st.GridSpec(17, 2)
        for relaxation in ("F", "FCF"):
            nb = tp.necessary_lower_bound(pair, grid, relaxation)
            assert nb.available
            assert nb.value == st.coarse_norm(pair, grid, relaxation).value

    def test_scalar_pair(self):
        pair = raw_pair([[np.sqrt(0.5)]], [[0.6]], 2)
        grid = st.GridSpec(2 * 63 + 1, 2)
        nb = tp.necessary_lower_bound(pair, grid)
        cgc_res, _, _ = st.coarse_defect_blocks(pair, grid)
        assert nb.available
        assert nb.value <= np.linalg.norm(cgc_res, 2) * (1 + 1e-12)

    def test_exact_normal_coarse_unavailable(self):
        # Psi = Phi^2 exactly: backward Euler against (1 - w/2)^-2 at w = 2 dt L
        spatial = ops.build_spatial("laplacian-1d-dirichlet", 4, 0.2)
        fine = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 0.02))
        coarse = ops.build_stepper(spatial, ops.SchemeSpec(
            "custom-rational", 0.04, numerator=(1.0,),
            denominator=(1.0, -1.0, 0.25)))
        pair = ops.make_pair(fine, coarse, 2)
        assert pair.normal
        grid = st.GridSpec(17, 2)
        nb = tp.necessary_lower_bound(pair, grid)
        assert nb.available
        assert nb.value == st.coarse_norm(pair, grid, "F").value
        # the defect is rounding, and so is the bound at p = 2
        nb = tp.necessary_lower_bound(pair, grid, p=2)
        assert nb.available and nb.value < 1e-12

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("side", ["residual", "error"])
    def test_per_mode_matches_dense(self, k, relaxation, p, side):
        # a normal pair, whose coarse norm at p = 1 comes per mode
        pair = normal_pair(k)
        grid = st.GridSpec(8 * k + 1, k)
        nb = tp.necessary_lower_bound(pair, grid, relaxation, p, side)
        if relaxation == "FCF" and k == 1:
            # FCF relaxation at k = 1 is a sequential solve: the block is zero
            assert not nb.available and "k = 1" in nb.reason
            return
        assert nb.available
        dense = ops.matrix_power(dense_block(pair, grid, relaxation, side), p)
        assert nb.value == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("side", ["residual", "error"])
    def test_normal_p1_equals_coarse_norm(self, k, relaxation, side):
        # the pseudoinverse bound is exact for a normal pair at p = 1
        pair = heat_pair(nx=6, dt=0.01, k=k, scheme="sdirk2",
                         coarse_scheme="backward-euler")
        grid = st.GridSpec(k * 32 + 1, k)
        nb = tp.necessary_lower_bound(pair, grid, relaxation, 1, side)
        cnorm = st.coarse_norm(pair, grid, relaxation).value
        assert nb.available
        assert nb.value == pytest.approx(cnorm, rel=1e-12)

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("side", ["residual", "error"])
    def test_non_normal_p1_is_coarse_norm(self, relaxation, side, monkeypatch):
        # upwind advection: 1/sigma_min of the dense t_hat is the block norm
        spatial = ops.build_spatial("advection-1d-upwind", 4, 0.25)
        fine = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 0.05))
        coarse = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", 0.1))
        pair = ops.make_pair(fine, coarse, 2)
        grid = st.GridSpec(33, 2)
        psi, phik, defect = pair.coarse.matrix, pair.fine_power, pair.coarse_defect
        eye = np.eye(4)
        if side == "residual":
            g, h = defect, eye if relaxation == "F" else phik
        else:
            g, h = eye, defect if relaxation == "F" else defect @ phik
        n_eff = grid.n_coarse - (relaxation == "FCF")
        spec = tp.PinvSpec(psi, g, h, n_eff)
        dense = 1.0 / np.linalg.svd(tp.t_hat(spec), compute_uv=False)[-1]
        monkeypatch.setattr(tp, "t_hat", None)
        nb = tp.necessary_lower_bound(pair, grid, relaxation, 1, side)
        assert nb.available
        assert nb.value == st.coarse_norm(pair, grid, relaxation).value
        assert nb.value == pytest.approx(dense, rel=1e-12)

    def test_non_commuting_error_side_keeps_its_norm(self):
        # without commuting steppers the error-side block differs from the
        # residual-side one, whose norm the residual side returns
        rng = np.random.default_rng(3)
        pair = raw_pair(random_contraction(rng, 3), random_contraction(rng, 3), 2)
        grid = st.GridSpec(33, 2)
        assert not pair.commuting
        _, cgc_err, relax = st.coarse_defect_blocks(pair, grid)
        for relaxation, block in (("F", cgc_err), ("FCF", cgc_err @ relax)):
            nb = tp.necessary_lower_bound(pair, grid, relaxation, 1, "error")
            norm = np.linalg.norm(block, 2)
            assert nb.value == pytest.approx(norm, rel=1e-12)
            assert abs(st.coarse_norm(pair, grid, relaxation).value - norm) > 0.1
