import math
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as hst

from helpers import (SKEWED_VALUES, heat_pair, raw_pair, raw_stepper,
                     skewed_matrix)
from pintbounds import cli
from pintbounds import operators as ops


class TestBuildSpatial:
    def test_laplacian_single_point(self):
        L = ops.build_spatial("laplacian-1d-dirichlet", 1, 1.0)
        assert np.allclose(L.matrix, [[-2.0]])

    def test_laplacian_3x3_and_eigenvalues(self):
        L = ops.build_spatial("laplacian-1d-dirichlet", 3, 1.0)
        expected = np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], dtype=float)
        assert np.allclose(L.matrix, expected)
        # analytic eigenvalues against the dense eigensolver
        oracle = np.sort(np.linalg.eigvalsh(expected))
        assert np.allclose(np.sort(L.eigenvalues.real), oracle, atol=1e-12)

    def test_laplacian_eigendecomposition_reproduces(self):
        # U diag(ell) U^T with the orthogonal DST-I basis, column l for
        # eigenvalue l; the same basis with the eigenvalues reversed does
        # not reproduce L
        L = ops.build_spatial("laplacian-1d-dirichlet", 16, 1.0 / 17)
        u = ops.laplacian_basis(16)
        scale = np.linalg.norm(L.matrix)
        rebuilt = u @ np.diag(L.eigenvalues) @ u.T
        assert np.linalg.norm(rebuilt - L.matrix) <= 1e-9 * scale
        assert np.linalg.norm(u @ u.T - np.eye(16)) <= 1e-10 * 16
        swapped = u @ np.diag(L.eigenvalues[::-1]) @ u.T
        assert np.linalg.norm(swapped - L.matrix) > 1e-9 * scale

    def test_advection_example(self):
        L = ops.build_spatial("advection-1d-upwind", 2, 1.0, velocity=1.0)
        assert np.allclose(L.matrix, [[-1, 0], [1, -1]])

    def test_from_file_complex_entries(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1+2i, 0\n-1, 3-1i\n")
        L = ops.build_spatial("from-file", path=str(path))
        assert np.allclose(L.matrix, [[1 + 2j, 0], [-1, 3 - 1j]])

    def test_laplacian_and_upwind_are_real(self):
        for L in (ops.build_spatial("laplacian-1d-dirichlet", 4, 0.2),
                  ops.build_spatial("advection-1d-upwind", 4, 0.25)):
            assert L.matrix.dtype == float
            for scheme in ("backward-euler", "rk4", "sdirk2"):
                stepper = ops.build_stepper(L, ops.SchemeSpec(scheme, 0.01))
                assert stepper.matrix.dtype == float

    def test_unit_keeps_the_dtype(self):
        m = np.array([[3.0, -1e-300], [0.5, 0.0]])
        for arr in (m, m + 1j * m[::-1]):
            scaled, e = ops._unit(arr)
            assert scaled.dtype == arr.dtype and e == 2
            assert np.array_equal(np.ldexp(scaled.real, e), arr.real)
            assert np.array_equal(np.ldexp(scaled.imag, e), arr.imag)

    # entries near 4e160: squared, they overflow a double
    HUGE_H = 1e-80

    def test_huge_decomposition_check_leaks_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            L = ops.build_spatial("laplacian-1d-dirichlet", 3, self.HUGE_H)
        assert np.abs(L.matrix).max() > 1e160

    def test_wrong_eigenbasis_at_huge_scale_is_rejected(self):
        # eigenvalues off by 1e-8 relative fail Schur's equality
        # sum |ell|^2 = ||L||_F^2 of a normal operator
        L = ops.build_spatial("laplacian-1d-dirichlet", 3, self.HUGE_H)
        m, ell = L.matrix, L.eigenvalues
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError,
                               match="not those of a normal operator"):
                ops.SpatialOperator(m, "huge", ell * (1.0 + 1e-8))
            ops.SpatialOperator(m, "huge", ell)

    def test_non_normal_operator_refuses_eigenvalues(self):
        # the eigenvalues of a matrix whose eigenbasis is not unitary: the
        # trace matches, but sum |ell|^2 = 10 falls short of ||m||_F^2 = 11
        m = skewed_matrix()
        assert np.allclose(np.sort(np.linalg.eigvals(m).real),
                           np.sort(SKEWED_VALUES))
        with pytest.raises(ValueError, match="not those of a normal operator"):
            ops.SpatialOperator(m, "skewed", SKEWED_VALUES)

    def test_from_file_not_square(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(ValueError, match="not square"):
            ops.build_spatial("from-file", path=str(path))

    def test_from_file_malformed(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 banana\n2 3\n")
        with pytest.raises(ValueError, match="malformed"):
            ops.build_spatial("from-file", path=str(path))

    def test_validation(self):
        with pytest.raises(ValueError):
            ops.build_spatial("laplacian-1d-dirichlet", 0, 1.0)
        with pytest.raises(ValueError):
            ops.build_spatial("laplacian-1d-dirichlet", 4, -1.0)
        with pytest.raises(ValueError):
            ops.build_spatial("no-such-kind", 4, 1.0)


class TestSchemeSpec:
    def test_theta_range(self):
        with pytest.raises(ValueError):
            ops.SchemeSpec("theta", 0.1, theta=1.5)
        ops.SchemeSpec("theta", 0.1, theta=0.5)

    def test_positive_dt(self):
        for dt in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and positive"):
                ops.SchemeSpec("backward-euler", dt)

    def test_custom_rational_constant_term(self):
        with pytest.raises(ValueError):
            ops.SchemeSpec("custom-rational", 0.1, numerator=(1.0,),
                           denominator=(0.0, 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ops.SchemeSpec("leapfrog", 0.1)


class TestBuildStepper:
    def test_backward_euler_scalar(self):
        L = ops.SpatialOperator(np.array([[-1.0 + 0j]]), "s")
        s = ops.build_stepper(L, ops.SchemeSpec("backward-euler", 1.0))
        assert np.allclose(s.matrix, [[0.5]])

    def test_rk4_zero_operator(self):
        L = ops.SpatialOperator(np.zeros((1, 1), dtype=complex), "z")
        s = ops.build_stepper(L, ops.SchemeSpec("rk4", 0.3))
        assert np.allclose(s.matrix, [[1.0]])

    def test_rk4_horner_value(self):
        L = ops.SpatialOperator(np.array([[-2.0 + 0j]]), "s")
        s = ops.build_stepper(L, ops.SchemeSpec("rk4", 0.1))
        z = -0.2
        expected = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        assert abs(s.matrix[0, 0] - expected) < 1e-15
        assert abs(s.matrix[0, 0] - 0.8187333) < 5e-7

    def test_stability_flags(self):
        pair = heat_pair(nx=6, dt=0.05, k=2)
        assert pair.fine.strongly_stable and pair.fine.spectrally_stable
        assert pair.fine.invertible

    @pytest.mark.parametrize("scheme,kw", [
        ("forward-euler", {}), ("backward-euler", {}), ("rk4", {}),
        ("sdirk2", {}), ("theta", {"theta": 0.7}),
    ])
    def test_acts_spectrally_on_eigenvectors(self, scheme, kw):
        L = ops.build_spatial("laplacian-1d-dirichlet", 7, 1.0 / 8)
        spec = ops.SchemeSpec(scheme, 0.01, **kw)
        s = ops.build_stepper(L, spec)
        for z, v in zip(L.eigenvalues, ops.laplacian_basis(7).T):
            r = ops.stability_eval(spec, spec.dt * z)
            assert np.linalg.norm(s.matrix @ v - r * v) < 1e-10

    def test_sdirk2_properties(self):
        g = 1.0 - 1.0 / math.sqrt(2.0)
        num, den = ops.rational_coefficients(ops.SchemeSpec("sdirk2", 0.1))
        assert np.allclose(num, (1.0, 1.0 - 2 * g))
        assert np.allclose(den, (1.0, -2 * g, g * g))
        # L-stable: R(z) -> 0 as z -> -inf; second order near 0
        assert abs(ops.stability_eval(ops.SchemeSpec("sdirk2", 1.0), -1e8)) < 1e-6
        for z in (1e-3, 1e-3j, -1e-3):
            r = ops.stability_eval(ops.SchemeSpec("sdirk2", 1.0), z)
            assert abs(r - np.exp(z)) < 10 * abs(z) ** 3

    def test_custom_rational_matches_backward_euler(self):
        L = ops.build_spatial("laplacian-1d-dirichlet", 4, 0.2)
        a = ops.build_stepper(L, ops.SchemeSpec("backward-euler", 0.05))
        b = ops.build_stepper(L, ops.SchemeSpec("custom-rational", 0.05,
                                                numerator=(1.0,),
                                                denominator=(1.0, -1.0)))
        assert np.allclose(a.matrix, b.matrix)


class TestPerModeStepper:
    @pytest.mark.parametrize("scheme,kw", [
        ("forward-euler", {}), ("backward-euler", {}), ("rk4", {}),
        ("sdirk2", {}), ("theta", {"theta": 0.7}),
    ])
    def test_eigenvalues_and_lazy_matrix(self, scheme, kw):
        # a normal operator gives the stepper from its eigenvalues alone;
        # the dense matrix is formed only when asked for, and is the same
        # stability function of dt L
        L = ops.build_spatial("laplacian-1d-dirichlet", 7, 1.0 / 8)
        spec = ops.SchemeSpec(scheme, 0.01, **kw)
        s = ops.build_stepper(L, spec)
        assert np.array_equal(s.values,
                              ops.stability_eval(spec, spec.dt * L.eigenvalues))
        size = np.abs(s.values)
        assert s.norm == s.spectral_radius == size.max()
        assert s.rcond == size.min() / size.max()
        assert "matrix" not in vars(s)
        dense = ops.stability_matrix(spec, spec.dt * L.matrix)
        assert np.array_equal(s.matrix, dense)
        u = ops.laplacian_basis(7)
        assert np.linalg.norm((u * s.values) @ u.T - dense) \
            <= 1e-13 * np.linalg.norm(dense)

    def test_normal_pair_forms_no_matrix(self):
        pair = heat_pair(nx=6, dt=0.02, k=3)
        assert pair.normal and pair.commuting
        assert "matrix" not in vars(pair.fine)
        assert "matrix" not in vars(pair.coarse)
        assert pair.shared_eig.fine_values is pair.fine.values

    def test_unstable_coarse_pair_is_tested_densely(self):
        # forward-Euler coarse steps with |mu| > 1: no eigenbasis is
        # attached, and the commuting test forms both dense steppers
        pair = heat_pair(nx=8, dt=0.01, k=4, coarse_scheme="forward-euler")
        assert pair.shared_eig is None and pair.commuting
        assert "matrix" in vars(pair.fine) and "matrix" in vars(pair.coarse)

    def test_pole_is_a_singular_solve(self):
        # R(z) = 1 / (1 + z / 4) at dt ell = -4 for the slowest mode
        L = ops.build_spatial("laplacian-1d-dirichlet", 3, 0.25)
        dt = -4.0 / float(L.eigenvalues[0].real)
        spec = ops.SchemeSpec("custom-rational", dt, numerator=(1.0,),
                              denominator=(1.0, 0.25))
        with pytest.raises(ValueError, match="singular implicit solve"):
            ops.build_stepper(L, spec)
        near = ops.SchemeSpec("custom-rational", dt * (1 + 1e-6),
                              numerator=(1.0,), denominator=(1.0, 0.25))
        assert ops.build_stepper(L, near).norm > 1e5

    def test_overflowing_eigenvalue_is_refused(self):
        L = ops.build_spatial("laplacian-1d-dirichlet", 3, 1e-50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflow"):
                ops.build_stepper(L, ops.SchemeSpec("rk4", 1.0))


class TestRk4Defect:
    def test_zero_operator(self):
        L = ops.SpatialOperator(np.zeros((2, 2), dtype=complex), "z")
        assert np.allclose(ops.rk4_defect(L, 1.0), 0.0)

    def test_scalar_value(self):
        L = ops.SpatialOperator(np.array([[-1.0 + 0j]]), "s")
        expected = 0.25 * (1 - 5 / 18 + 1 / 18 - 1 / 144)
        assert abs(ops.rk4_defect(L, 1.0)[0, 0] - expected) < 1e-15
        assert abs(expected - 0.1927083) < 5e-7

    def test_equals_psi_minus_phi_squared(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            dt = 0.4
            m = m / (dt * np.linalg.norm(m, 2))   # ||dt L|| = 1
            L = ops.SpatialOperator(m, "r")
            phi = ops.build_stepper(L, ops.SchemeSpec("rk4", dt)).matrix
            psi = ops.build_stepper(L, ops.SchemeSpec("rk4", 2 * dt)).matrix
            direct = psi - phi @ phi
            defect = ops.rk4_defect(L, dt)
            rel = np.linalg.norm(defect - direct) / np.linalg.norm(direct)
            assert rel < 1e-12


class TestPairs:
    def test_matrix_power(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(ops.matrix_power(m, 0), np.eye(2))
        assert np.allclose(ops.matrix_power(m, 2), 0.0)

    @pytest.mark.parametrize("kind", ["laplacian-1d-dirichlet",
                                      "advection-1d-upwind"])
    def test_matrix_power_by_squaring_matches_loop(self, kind):
        # Psi^{N_c} at N_c = 2049, for a normal and a non-normal Psi
        spatial = ops.build_spatial(kind, 16, 1.0 / 17)
        psi = ops.build_stepper(spatial,
                                ops.SchemeSpec("backward-euler", 4e-3)).matrix
        loop = np.eye(16, dtype=complex)
        for _ in range(2049):
            loop = loop @ psi
        got = ops.matrix_power(psi, 2049)
        assert np.linalg.norm(got - loop) <= 1e-12 * np.linalg.norm(loop)

    def test_overflowing_power_still_exits_2(self, tmp_path, capsys):
        # |mu| = 2.6 over N_c = 801 coarse steps overflows double precision
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump({
            "problem": {"kind": "laplacian-1d-dirichlet", "n": 4, "h": 0.2},
            "fine": {"scheme": "backward-euler", "dt": 0.01},
            "coarse": {"scheme": "forward-euler", "dt": 0.04}, "k": 4,
            "n_time": 3201, "iterations": 2}))
        assert cli.main(["bounds", "--config", str(path)]) == 2
        assert "Psi^N_c overflows" in capsys.readouterr().err

    def test_same_source_commutes(self):
        pair = heat_pair()
        assert pair.commuting
        phi, psi = pair.fine.matrix, pair.coarse.matrix
        assert np.linalg.norm(phi @ psi - psi @ phi) <= \
            1e-12 * np.linalg.norm(phi) * np.linalg.norm(psi)

    def test_shared_eig_attached_and_stable(self):
        pair = heat_pair(nx=16, dt=0.001, k=4)
        assert pair.shared_eig is not None
        assert pair.normal
        assert np.all(np.abs(pair.shared_eig.coarse_values) < 1.0)

    def test_fine_power_singular_values(self):
        # a normal pair takes them from its eigenvalues, any other from an SVD
        for scheme in ("backward-euler", "sdirk2"):
            pair = heat_pair(nx=5, dt=0.03, k=3, scheme=scheme)
            assert pair.normal
            dense = np.linalg.svd(pair.fine_power, compute_uv=False)
            assert np.allclose(np.sort(pair.fine_power_sv)[::-1], dense,
                               rtol=1e-12, atol=0)
        skewed = raw_pair([[0.5, 0.3], [0.0, 0.2]], [[0.4, 0.1], [0.0, 0.3]], 2)
        assert np.array_equal(skewed.fine_power_sv, np.linalg.svd(
            skewed.fine_power, compute_uv=False))

    def test_attach_eig_false(self):
        pair = heat_pair(attach_eig=False)
        assert pair.shared_eig is None
        assert pair.commuting

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            raw_pair(np.eye(2) * 0.5, np.eye(3) * 0.5, 2)

    def test_verify_pair_singular_defect(self):
        phi = 0.5 * np.eye(2)
        pair = raw_pair(phi, phi @ phi, 2)     # Psi = Phi^k exactly
        diag = ops.verify_pair(pair)
        assert not diag.defect_invertible

    def test_verify_pair_scalar(self):
        pair = raw_pair([[0.5]], [[0.3]], 2)
        diag = ops.verify_pair(pair)
        assert diag.defect_invertible
        assert abs(pair.coarse_defect[0, 0] - 0.05) < 1e-15
        assert diag.commutator_norm < 1e-15


@settings(max_examples=20, deadline=None)
@given(hst.integers(min_value=1, max_value=6), hst.integers(min_value=1, max_value=5))
def test_random_rational_pairs_commute(nx, seed):
    # steppers built from the same operator always commute
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((nx, nx))
    L = ops.SpatialOperator(m.astype(complex), "r")
    dt = 0.1 / max(1.0, np.linalg.norm(m, 2))
    fine = ops.build_stepper(L, ops.SchemeSpec("sdirk2", dt))
    coarse = ops.build_stepper(L, ops.SchemeSpec("rk4", 2 * dt))
    assert ops.make_pair(fine, coarse, 2).commuting
