import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from helpers import (heat_pair, normal_pair, physical_vector,
                     random_contraction, raw_pair, raw_stepper, rotating_basis,
                     rotating_pair, skewed_pair)
from pintbounds import harness
from pintbounds import operators as ops
from pintbounds import spacetime as st
from pintbounds import tap


def permuted_full(sys):
    p = sys.permutation
    return sys.full_matrix()[np.ix_(p, p)]


class TestGridSpec:
    def test_divisibility(self):
        with pytest.raises(ValueError):
            st.GridSpec(10, 4)

    def test_coarse_count(self):
        assert st.GridSpec(9, 4).n_coarse == 3

    @settings(max_examples=40, deadline=None)
    @given(hst.integers(min_value=1, max_value=8),
           hst.integers(min_value=1, max_value=12))
    def test_partition(self, k, nc_minus):
        grid = st.GridSpec(k * nc_minus + 1, k)
        c, f = grid.c_points, grid.f_points
        assert grid.n_coarse == nc_minus + 1
        assert c[0] == 0 and c[-1] == grid.n_time - 1
        merged = np.sort(np.concatenate([c, f]))
        assert np.array_equal(merged, np.arange(grid.n_time))
        assert np.all(c % k == 0)


class TestAssembly:
    def test_scalar_matrix(self):
        sys = st.assemble_system(raw_pair([[0.5]], [[0.3]], 1), st.GridSpec(3, 1))
        expected = [[1, 0, 0], [-0.5, 1, 0], [0, -0.5, 1]]
        assert np.allclose(sys.full_matrix(), expected)

    def test_identity_block_form(self):
        sys = st.assemble_system(raw_pair(np.eye(2), np.eye(2) * 0.5, 1),
                                 st.GridSpec(2, 1))
        expected = np.block([[np.eye(2), np.zeros((2, 2))],
                             [-np.eye(2), np.eye(2)]])
        assert np.allclose(sys.full_matrix(), expected)

    def test_blocks_reassemble(self):
        rng = np.random.default_rng(0)
        pair = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2), 3)
        sys = st.assemble_system(pair, st.GridSpec(7, 3))
        a_ff, a_fc, a_cf, a_cc = sys.blocks()
        rebuilt = np.block([[a_ff, a_fc], [a_cf, a_cc]])
        assert np.allclose(rebuilt, permuted_full(sys))

    def test_apply_full_matches_dense(self):
        rng = np.random.default_rng(1)
        pair = raw_pair(random_contraction(rng, 3), random_contraction(rng, 3), 2)
        sys = st.assemble_system(pair, st.GridSpec(5, 2))
        u = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        assert np.allclose(st.apply_full(sys, u), sys.full_matrix() @ u)

    def test_dense_cap(self, monkeypatch):
        monkeypatch.setattr(st, "DENSE_CAP", 10)
        pair = heat_pair(nx=8)
        sys = st.assemble_system(pair, st.GridSpec(9, 4))
        with pytest.raises(ValueError, match="dense cap"):
            sys.full_matrix()


class TestSequentialSolve:
    def test_scalar_geometric(self):
        sys = st.assemble_system(raw_pair([[0.5]], [[0.3]], 1), st.GridSpec(3, 1))
        u = st.sequential_solve(sys, np.array([1.0, 0.0, 0.0]))
        assert np.allclose(u, [1.0, 0.5, 0.25])

    def test_zero_input(self):
        sys = st.assemble_system(raw_pair([[0.5]], [[0.3]], 1), st.GridSpec(3, 1))
        assert np.allclose(st.sequential_solve(sys, np.zeros(3)), 0.0)

    def test_residual(self):
        rng = np.random.default_rng(3)
        pair = raw_pair(random_contraction(rng, 4), random_contraction(rng, 4), 4)
        sys = st.assemble_system(pair, st.GridSpec(17, 4))
        f = rng.standard_normal(sys.dim)
        u = st.sequential_solve(sys, f)
        assert np.linalg.norm(f - st.apply_full(sys, u)) <= 1e-13 * np.linalg.norm(f)


def row_loop(mat, rhs):
    """y_i = r_i + M y_{i-1}, one product per row: the reference for the
    two-level ForwardSolver."""
    out = rhs.astype(complex)
    for i in range(1, len(out)):
        out[i] += mat @ out[i - 1]
    return out


def random_step(rng, nx, rho, dtype):
    """A random non-normal nx x nx matrix of spectral radius rho."""
    m = rng.standard_normal((nx, nx))
    if dtype is complex:
        m = m + 1j * rng.standard_normal((nx, nx))
    return m * (rho / np.max(np.abs(np.linalg.eigvals(m))))


def record_solvers(monkeypatch):
    """The row counts of every ForwardSolver made from now on, in order."""
    made = []

    class Recording(st.ForwardSolver):
        def __init__(self, mat_step, n):
            made.append(n)
            super().__init__(mat_step, n)

    monkeypatch.setattr(st, "ForwardSolver", Recording)
    return made


def transient_growth(nx=16, a=0.5, b=1e25):
    """a I + b N, N the nilpotent shift: spectral radius a < 1, but its
    powers grow like b^j before they decay, and its 14th is not finite."""
    return a * np.eye(nx) + b * np.eye(nx, k=1)


class TestForwardSolve:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 49, 385, 2049])
    @pytest.mark.parametrize("nx, rho, dtype", [
        (1, 0.9, complex), (1, 1.05, complex), (3, 1.05, complex),
        (4, 0.95, float), (4, 1.05, float)])
    def test_matches_row_loop(self, n, nx, rho, dtype):
        # n = 7, 49, 385 and 2049 are not multiples of their chunk size
        # c = round(sqrt(n / 2)); rho > 1 makes the rows grow by up to e^100
        rng = np.random.default_rng(n + nx)
        mat = random_step(rng, nx, rho, dtype)
        rhs = rng.standard_normal((n, nx)) + 1j * rng.standard_normal((n, nx))
        want = row_loop(mat, rhs)
        got = st.ForwardSolver(mat, n).solve(rhs.ravel()).reshape(n, nx)
        assert got.dtype == complex
        scale = np.maximum.accumulate(np.linalg.norm(want, axis=1))
        assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-13 * scale)

    @pytest.mark.parametrize("n", [49, 385, 2049])
    def test_products_grow_like_sqrt_n(self, n):
        # about 2c + N/c products, c = round(sqrt(N / 2)), and c - 1 more for
        # M^c, in place of the N - 1 of the row loop
        rng = np.random.default_rng(n)
        step = random_step(rng, 3, 0.9, float)
        pair, count = counting_pair(raw_pair(step, step, 1))
        st.ForwardSolver(pair.fine.matrix, n).solve(rng.standard_normal(3 * n))
        c = round(math.sqrt(n / 2))
        assert count[0] <= 3 * c + n / c
        assert count[0] < n / 3

    def test_system_makes_each_solver_once(self, monkeypatch):
        # every solve with A and every iteration's coarse correction reuse
        # the system's two solvers, so each M^c is formed once
        made = record_solvers(monkeypatch)
        rng = np.random.default_rng(9)
        pair = raw_pair(random_contraction(rng, 3), random_contraction(rng, 3), 2)
        sys = st.assemble_system(pair, st.GridSpec(33, 2))
        e = st.sequential_solve(sys, rng.standard_normal(sys.dim))
        for relaxation in ("F", "FCF", "F"):
            e = st.apply_iteration(sys, relaxation, e)
        st.sequential_solve(sys, e)
        assert made == [33, 17]

    def test_worst_case_run_makes_two_solvers(self, monkeypatch):
        # the worst-case seed is one solve with the fine solver, so a run
        # with both relaxations forms Phi over N_t and Psi over N_c only
        made = record_solvers(monkeypatch)
        cfg = harness.ExperimentConfig.from_dict({
            "problem": {"kind": "laplacian-1d-dirichlet", "n": 4, "h": 0.2},
            "fine": {"scheme": "backward-euler", "dt": 0.02},
            "coarse": "rediscretized", "k": 2, "n_time": 33,
            "relaxations": ["F", "FCF"], "norms": ["AstarA"],
            "iterations": 3, "initial_error": "worst-case", "seed": 3})
        harness.run_experiment(cfg)
        assert made == [33, 17]

    def test_transient_growth_overflow_raises(self):
        mat = transient_growth()
        assert np.max(np.abs(np.linalg.eigvals(mat))) < 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(ops.matrix_power(mat, 2)).all()
            with pytest.raises(OverflowError, match="power 14"):
                st.ForwardSolver(mat, 399)


class TestIdealTransfer:
    def test_matches_block_formula(self):
        rng = np.random.default_rng(4)
        pair = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2), 2)
        sys = st.assemble_system(pair, st.GridSpec(5, 2))
        a_ff, a_fc, a_cf, _ = sys.blocks()
        r_ideal, p_ideal = st.ideal_transfer(sys)
        nf = a_ff.shape[0]
        assert np.allclose(r_ideal[:, :nf], -a_cf @ np.linalg.inv(a_ff))
        assert np.allclose(p_ideal[:nf], -np.linalg.inv(a_ff) @ a_fc)

    def test_scalar_entries(self):
        pair = raw_pair([[0.5]], [[0.3]], 2)
        sys = st.assemble_system(pair, st.GridSpec(5, 2))
        r_ideal, _ = st.ideal_transfer(sys)
        # each interior C-row picks up Phi applied to the preceding F-point
        assert np.count_nonzero(np.abs(r_ideal - 0.5) < 1e-15) == 2

    def test_norm_below_sqrt_k(self):
        rng = np.random.default_rng(5)
        for k in (2, 3, 4):
            phi = random_contraction(rng, 2, norm_bound=0.95)
            pair = raw_pair(phi, random_contraction(rng, 2), k)
            sys = st.assemble_system(pair, st.GridSpec(4 * k + 1, k))
            r_ideal, p_ideal = st.ideal_transfer(sys)
            for m in (r_ideal, p_ideal):
                assert np.linalg.norm(m, 2) < np.sqrt(k)


class TestSchur:
    def test_scalar_subdiagonal(self):
        pair = raw_pair([[0.5]], [[0.3]], 2)
        sys = st.assemble_system(pair, st.GridSpec(5, 2))
        s = st.schur_complement(sys)
        assert np.allclose(s, [[1, 0, 0], [-0.25, 1, 0], [0, -0.25, 1]])

    def test_k1_gives_full_system(self):
        pair = raw_pair([[0.5]], [[0.3]], 1)
        sys = st.assemble_system(pair, st.GridSpec(5, 1))
        assert np.allclose(st.schur_complement(sys), sys.full_matrix())

    def test_matches_power_closed_form(self):
        rng = np.random.default_rng(6)
        phi = random_contraction(rng, 3)
        pair = raw_pair(phi, random_contraction(rng, 3), 3)
        sys = st.assemble_system(pair, st.GridSpec(7, 3))
        s = st.schur_complement(sys)
        closed = st.coarse_bidiagonal(pair, st.GridSpec(7, 3))
        assert np.max(np.abs(s - closed)) <= 1e-13 * np.linalg.norm(phi @ phi @ phi)
        # explicit triple product on the subdiagonal
        assert np.allclose(s[3:6, 0:3], -phi @ phi @ phi)


class TestCoarseSolve:
    def test_nilpotent(self):
        pair = raw_pair([[0.5]], np.zeros((1, 1)), 2)
        assert np.allclose(st.coarse_solve_operator(pair, st.GridSpec(5, 2)),
                           np.eye(3))

    def test_scalar_powers(self):
        pair = raw_pair([[0.5]], [[0.6]], 2)
        out = st.coarse_solve_operator(pair, st.GridSpec(5, 2))
        assert np.allclose(out, [[1, 0, 0], [0.6, 1, 0], [0.36, 0.6, 1]])

    def test_inverse_of_bidiagonal(self):
        rng = np.random.default_rng(7)
        pair = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2), 2)
        grid = st.GridSpec(9, 2)
        b_inv = st.coarse_solve_operator(pair, grid)
        nc, nx = grid.n_coarse, 2
        b = np.eye(nc * nx, dtype=complex)
        for i in range(1, nc):
            b[i * nx:(i + 1) * nx, (i - 1) * nx:i * nx] = -pair.coarse.matrix
        assert np.linalg.norm(b @ b_inv - np.eye(nc * nx)) < 1e-13


class TestPropagators:
    def test_exact_coarse_grid_zero(self):
        phi = 0.5 * np.eye(2)
        pair = raw_pair(phi, phi @ phi, 2)
        sys = st.assemble_system(pair, st.GridSpec(5, 2))
        props = st.build_propagators(sys)
        for m in (props.e_f, props.e_fcf, props.r_f, props.r_fcf):
            assert np.max(np.abs(m)) < 1e-14

    def test_scalar_defect_band(self):
        pair = raw_pair([[0.5]], [[0.3]], 2)
        props = st.build_propagators(st.assemble_system(pair, st.GridSpec(5, 2)))
        sub = np.diag(props.cgc_res, -1)
        # first band carries the coarse defect Psi - Phi^k (sign from I - AB)
        assert np.allclose(np.abs(sub), 0.05)
        assert np.allclose(sub, -(0.3 - 0.25))

    def test_zero_structure(self):
        rng = np.random.default_rng(8)
        pair = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2), 2)
        sys = st.assemble_system(pair, st.GridSpec(9, 2))
        props = st.build_propagators(sys)
        nf = len(sys.grid.f_points) * 2
        # residual propagator vanishes on F-point rows, error propagator on
        # the first C-point rows
        assert np.max(np.abs(props.r_f[:nf])) == 0.0
        assert np.max(np.abs(props.e_f[nf:nf + 2])) < 1e-15

    def test_similarity_identity(self):
        rng = np.random.default_rng(9)
        pair = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2), 2)
        sys = st.assemble_system(pair, st.GridSpec(9, 2))
        props = st.build_propagators(sys)
        ap = permuted_full(sys)
        assert np.linalg.norm(props.r_f - ap @ props.e_f @ np.linalg.inv(ap)) < 1e-12
        assert np.linalg.norm(props.r_fcf - ap @ props.e_fcf @ np.linalg.inv(ap)) < 1e-12

    def test_norm_identity(self):
        rng = np.random.default_rng(10)
        pair = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2), 3)
        sys = st.assemble_system(pair, st.GridSpec(13, 3))
        props = st.build_propagators(sys)
        ap = permuted_full(sys)
        for r, e in ((props.r_f, props.e_f), (props.r_fcf, props.e_fcf)):
            for p in (1, 2, 3):
                nr = st.operator_norm(np.linalg.matrix_power(r, p), "l2")
                ne = st.operator_norm(np.linalg.matrix_power(e, p), "AstarA", a=ap)
                assert abs(nr - ne) <= 1e-8 * nr

    def test_commuting_defect_sides_agree(self):
        pair = heat_pair(nx=4, dt=0.03, k=2)
        props = st.build_propagators(st.assemble_system(pair, st.GridSpec(9, 2)))
        diff = np.linalg.norm(props.cgc_res - props.cgc_err)
        assert diff <= 1e-10 * np.linalg.norm(props.cgc_res)

    def test_coarse_block_selector(self):
        pair = heat_pair(nx=3, dt=0.03, k=2)
        props = st.build_propagators(st.assemble_system(pair, st.GridSpec(9, 2)))
        assert props.coarse_block("F") is props.cgc_res
        assert np.allclose(props.coarse_block("FCF", "error"),
                           props.cgc_err @ props.relax_factor)
        with pytest.raises(ValueError):
            props.coarse_block("FCFF")


class TestApplyIteration:
    def test_fixed_point(self):
        # a zero error stays exactly zero
        for k in (1, 2):
            pair = heat_pair(nx=4, dt=0.03, k=k)
            sys = st.assemble_system(pair, st.GridSpec(9, k))
            for relaxation in ("F", "FCF"):
                out = st.apply_iteration(sys, relaxation, np.zeros(sys.dim))
                assert not out.any()

    def test_exact_coarse_one_iteration(self):
        # Psi = Phi^k makes the coarse grid exact: one F iteration zeroes
        # any error
        rng = np.random.default_rng(12)
        phi = random_contraction(rng, 2)
        pair = raw_pair(phi, phi @ phi, 2)
        sys = st.assemble_system(pair, st.GridSpec(9, 2))
        e0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        out = st.apply_iteration(sys, "F", e0)
        assert np.linalg.norm(out) <= 1e-14 * np.linalg.norm(e0)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_matches_dense_propagator(self, k, relaxation):
        rng = np.random.default_rng(13)
        pair = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2), k)
        sys = st.assemble_system(pair, st.GridSpec(4 * k + 1, k))
        props = st.build_propagators(sys)
        e_dense = props.e_f if relaxation == "F" else props.e_fcf
        e0 = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        out = st.apply_iteration(sys, relaxation, e0)
        perm = sys.permutation
        predicted = np.empty_like(e0)
        predicted[perm] = e_dense @ e0[perm]
        assert np.linalg.norm(out - predicted) <= 1e-14 * np.linalg.norm(e0)

    def test_lift_coarse_matches_p_ideal(self):
        rng = np.random.default_rng(14)
        pair = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2), 2)
        sys = st.assemble_system(pair, st.GridSpec(9, 2))
        _, p_ideal = st.ideal_transfer(sys)
        w = rng.standard_normal(sys.grid.n_coarse * 2)
        lifted = st.lift_coarse(sys, w)
        perm = sys.permutation
        assert np.allclose(lifted[perm], p_ideal @ w)


def loop_lift(sys, w):
    """P_ideal w stepped one fine point at a time: the per-point reference
    for the interval-batched lift_coarse."""
    nx, k, nc = sys.pair.dim, sys.grid.k, sys.grid.n_coarse
    phi = sys.pair.fine.matrix
    out = np.zeros((sys.grid.n_time, nx), dtype=complex)
    out[sys.grid.c_points] = w.reshape(nc, nx)
    for c in range(nc - 1):
        for j in range(1, k):
            out[c * k + j] = phi @ out[c * k + j - 1]
    return out.ravel()


def loop_iteration(sys, relaxation, e):
    """One two-level iteration on the error stepped one fine point at a
    time: the per-point reference for the interval-batched
    apply_iteration."""
    nx, k, nt = sys.pair.dim, sys.grid.k, sys.grid.n_time
    nc = sys.grid.n_coarse
    phi = sys.pair.fine.matrix
    ub = e.reshape(nt, nx).astype(complex)

    def f_relax():
        for c in range(nc - 1):
            for j in range(1, k):
                ub[c * k + j] = phi @ ub[c * k + j - 1]

    f_relax()
    if relaxation == "FCF":
        ub[0] = 0.0
        for c in range(1, nc):
            ub[c * k] = phi @ ub[c * k - 1]
        f_relax()
    r = -st.apply_full(sys, ub).reshape(nt, nx)
    psi = sys.pair.coarse.matrix
    w = np.zeros((nc, nx), dtype=complex)
    w[0] = r[0]
    for c in range(1, nc):
        w[c] = r[c * k] + psi @ w[c - 1]
    return ub.ravel() + loop_lift(sys, w.ravel())


def counting_pair(pair):
    """pair with a fine matrix that counts the matrix products it enters,
    and that count."""
    count = [0]

    class Counting(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            count[0] += ufunc is np.matmul
            inputs = tuple(np.asarray(x) for x in inputs)
            return getattr(ufunc, method)(*inputs, **kwargs)

    fine = dataclasses.replace(pair.fine,
                               dense=pair.fine.matrix.view(Counting))
    return dataclasses.replace(pair, fine=fine), count


class TestIntervalBatching:
    @pytest.mark.parametrize("k", [1, 2, 3, 8])
    @pytest.mark.parametrize("nc", [2, 3, 17])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_per_point_loops(self, k, nc, dtype):
        rng = np.random.default_rng(100 * k + nc)
        pair = raw_pair(random_contraction(rng, 3), random_contraction(rng, 3), k)
        assert not np.allclose(pair.fine.matrix @ pair.fine.matrix.conj().T,
                               pair.fine.matrix.conj().T @ pair.fine.matrix)
        sys = st.assemble_system(pair, st.GridSpec(k * (nc - 1) + 1, k))

        def draw(n):
            x = rng.standard_normal(n)
            return x + 1j * rng.standard_normal(n) if dtype is complex else x

        e, w = draw(sys.dim), draw(nc * 3)
        for relaxation in ("F", "FCF"):
            got = st.apply_iteration(sys, relaxation, e)
            want = loop_iteration(sys, relaxation, e)
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
        want = loop_lift(sys, w)
        assert np.linalg.norm(st.lift_coarse(sys, w) - want) \
            <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_products_per_sweep_independent_of_n_coarse(self, k):
        rng = np.random.default_rng(k)
        base = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2), k)
        pair, count = counting_pair(base)
        calls = {"F": set(), "FCF": set()}
        for nc in (2, 3, 17):
            sys = st.assemble_system(pair, st.GridSpec(k * (nc - 1) + 1, k))
            u = rng.standard_normal((sys.grid.n_time, 2)).astype(complex)
            count[0] = 0
            st._march_intervals(pair.fine.matrix, u, k)
            assert count[0] == k - 1
            count[0] = 0
            st.lift_coarse(sys, rng.standard_normal(nc * 2))
            assert count[0] == k - 1
            for relaxation in calls:
                count[0] = 0
                st.apply_iteration(sys, relaxation, u.ravel())
                calls[relaxation].add(count[0])
        # at k = 1 every point is a C-point and C-relaxation zeroes the
        # error without a product
        assert len(calls["F"]) == len(calls["FCF"]) == 1


class TestModeCoordinates:
    def test_step_of_a_diagonal(self):
        rng = np.random.default_rng(3)
        d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rows = rng.standard_normal((5, 4))
        for values in (d, d.real.astype(complex)):
            diag, dense = st.Step(values), st.Step(np.diag(values))
            assert np.allclose(diag.apply(rows), dense.apply(rows),
                               rtol=1e-15, atol=0)
            assert np.allclose(diag.power(5).apply(rows),
                               dense.power(5).apply(rows), rtol=1e-14, atol=0)
        # a diagonal with zero imaginary part steps in real arithmetic
        assert st.Step(d.real.astype(complex)).apply(rows).dtype == float
        with pytest.raises(OverflowError):
            st.Step(np.array([1e200, 0.5])).power(2)

    def test_dense_step_takes_the_dtype_of_its_rows(self):
        # a real M steps real rows in real arithmetic; complex rows take one
        # complex product, bit for bit that of M cast to complex
        rng = np.random.default_rng(4)
        m = rng.standard_normal((3, 3))
        real, cplx = rng.standard_normal((5, 3)), (
            rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))
        for matrix in (m, m.astype(complex)):
            step = st.Step(matrix)
            assert step.dtype == float
            assert step.apply(real).dtype == float
            assert np.array_equal(step.apply(real), real @ m.T)
            assert np.array_equal(step.apply(cplx),
                                  cplx @ m.T.astype(complex))
        assert st.Step(m + 1j * m).apply(real).dtype == complex

    def test_skewed_pair_steps_with_its_dense_matrices(self):
        # an operator whose eigenbasis is not unitary makes a non-normal
        # pair: its system iterates in physical coordinates with the dense
        # Phi and Psi
        pair = skewed_pair()
        assert pair.shared_eig is None and not pair.normal
        sys = st.assemble_system(pair, st.GridSpec(9, 2))
        for step, stepper in ((sys.fine_step, pair.fine),
                              (sys.coarse_step, pair.coarse)):
            assert not step.diagonal
            assert np.array_equal(step.matrix, stepper.matrix)
        rng = np.random.default_rng(6)
        e = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        for relaxation in ("F", "FCF"):
            want = loop_iteration(sys, relaxation, e)
            assert np.linalg.norm(st.apply_iteration(sys, relaxation, e)
                                  - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("case", ["heat", "rotating"])
    def test_iteration_is_the_physical_one(self, case, relaxation, k):
        # a normal pair iterates in mode coordinates, where every step is
        # elementwise; mapped by U the iterates, the lift and the solves are
        # those of its dense twin in physical coordinates
        pair = normal_pair(k) if case == "heat" else rotating_pair(k)
        twin = ops.make_pair(pair.fine, pair.coarse, k, attach_eig=False)
        grid = st.GridSpec(6 * k + 1, k)
        modal = st.assemble_system(pair, grid)
        dense = st.assemble_system(twin, grid)
        assert modal.fine_step.diagonal and not dense.fine_step.diagonal
        u = (ops.laplacian_basis(pair.dim) if case == "heat"
             else rotating_basis())
        rng = np.random.default_rng(k)
        e_modes = rng.standard_normal(modal.dim) \
            + 1j * rng.standard_normal(modal.dim)
        e = physical_vector(u, e_modes)
        assert np.linalg.norm(e_modes) == pytest.approx(np.linalg.norm(e),
                                                        rel=1e-14)
        assert np.linalg.norm((e.reshape(grid.n_time, -1) @ u.conj()).ravel()
                              - e_modes) <= 1e-14 * np.linalg.norm(e_modes)
        scale = 0.0
        for i in range(4):
            scale = max(scale, np.linalg.norm(e))
            assert np.linalg.norm(physical_vector(u, e_modes) - e) \
                <= 1e-13 * scale
            assert abs(np.linalg.norm(st.apply_full(modal, e_modes))
                       - np.linalg.norm(st.apply_full(dense, e))) \
                <= 1e-13 * scale
            e = st.apply_iteration(dense, relaxation, e)
            e_modes = st.apply_iteration(modal, relaxation, e_modes)

    def test_heat_worst_case_seed_stays_real(self):
        # real lambda, mu and seed: no complex array on the iteration path
        pair = heat_pair(nx=6, dt=0.02, k=2)
        grid = st.GridSpec(33, 2)
        sys = st.assemble_system(pair, grid)
        for relaxation in ("F", "FCF"):
            w = st.coarse_norm(pair, grid, relaxation, with_vector=True).vector
            e = harness._worst_case_error(sys, w)
            assert e.dtype == float
            e = st.apply_iteration(sys, relaxation, e)
            assert e.dtype == float and e.any()
            assert st.apply_full(sys, e).dtype == float


class TestOperatorNorm:
    def test_identity_in_every_norm(self):
        eye = np.eye(4, dtype=complex)
        a = np.eye(4) + 0.1 * np.ones((4, 4))
        u = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        assert st.operator_norm(eye, "l2") == pytest.approx(1.0)
        assert st.operator_norm(eye, "AstarA", a=a) == pytest.approx(1.0)
        assert st.operator_norm(eye, "modified", u=u) == pytest.approx(1.0)

    def test_unitary_modified_reduces_to_l2(self):
        rng = np.random.default_rng(15)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3))
                            + 1j * rng.standard_normal((3, 3)))
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        assert st.operator_norm(m, "modified", u=q) == \
            pytest.approx(st.operator_norm(m, "l2"), rel=1e-10)

    def test_astara_is_similarity_norm(self):
        rng = np.random.default_rng(16)
        m = rng.standard_normal((4, 4))
        a = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        direct = np.linalg.norm(a @ m @ np.linalg.inv(a), 2)
        assert st.operator_norm(m, "AstarA", a=a) == pytest.approx(direct, rel=1e-10)

    def test_missing_arguments(self):
        with pytest.raises(ValueError):
            st.operator_norm(np.eye(2), "AstarA")
        with pytest.raises(ValueError):
            st.operator_norm(np.eye(2), "modified")
        with pytest.raises(ValueError):
            st.operator_norm(np.eye(2), "nuclear")


class TestModeBlocks:
    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_direct_sum_of_dense_block(self, k, relaxation):
        # in the shared eigenbasis the dense block is a direct sum of one
        # N_c x N_c block per mode, whose norms mode_norms gives
        pair = normal_pair(k)
        grid = st.GridSpec(8 * k + 1, k)
        cgc_res, _, relax = st.coarse_defect_blocks(pair, grid)
        dense = cgc_res if relaxation == "F" else cgc_res @ relax
        u = ops.laplacian_basis(pair.dim)
        nx, nc = pair.dim, grid.n_coarse
        modal = st.block_diag_transform(dense, u, u.T)
        modal = modal.reshape(nc, nx, nc, nx).transpose(1, 3, 0, 2)
        idx = np.arange(nx)
        blocks = modal[idx, idx]
        modal[idx, idx] = 0.0
        assert np.max(np.abs(modal)) <= 1e-14
        expected = np.linalg.svd(blocks, compute_uv=False)[:, 0]
        norms = st.mode_norms(pair, grid, relaxation)
        assert np.allclose(norms, expected, rtol=1e-12, atol=1e-15)
        if relaxation == "FCF" and k == 1:
            assert np.all(norms == 0.0)

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_norm_and_vector_match_dense(self, k, relaxation):
        pair = normal_pair(k)
        grid = st.GridSpec(8 * k + 1, k)
        res = st.coarse_norm(pair, grid, relaxation, True)
        norm = res.value
        w = physical_vector(ops.laplacian_basis(pair.dim), res.vector)
        assert res.certified and res.method == "per-mode"
        cgc_res, _, relax = st.coarse_defect_blocks(pair, grid)
        block = cgc_res if relaxation == "F" else cgc_res @ relax
        dense = np.linalg.norm(block, 2)
        assert norm == pytest.approx(dense, rel=1e-12)
        assert np.linalg.norm(w) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(block @ w) == pytest.approx(dense, rel=1e-12,
                                                          abs=1e-15)

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_complex_mu_vector_matches_dense(self, relaxation):
        # complex mu: the vector's phases e^{i j arg mu} matter
        pair = rotating_pair(k=2)
        assert np.any(np.abs(pair.shared_eig.coarse_values.imag) > 0.1)
        grid = st.GridSpec(2 * 16 + 1, 2)
        res = st.coarse_norm(pair, grid, relaxation, True)
        cgc_res, _, relax = st.coarse_defect_blocks(pair, grid)
        block = cgc_res if relaxation == "F" else cgc_res @ relax
        dense = np.linalg.norm(block, 2)
        assert res.value == pytest.approx(dense, rel=1e-12)
        w = physical_vector(rotating_basis(), res.vector)
        assert np.linalg.norm(block @ w) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_long_horizon_matches_dense(self, relaxation):
        # N_c = 257, where the slowest mode's tridiagonal is nearly singular
        pair = heat_pair(nx=2, dt=0.002, k=4)
        grid = st.GridSpec(4 * 256 + 1, 4)
        res = st.coarse_norm(pair, grid, relaxation, True)
        norm = res.value
        w = physical_vector(ops.laplacian_basis(pair.dim), res.vector)
        cgc_res, _, relax = st.coarse_defect_blocks(pair, grid)
        block = cgc_res if relaxation == "F" else cgc_res @ relax
        dense = np.linalg.norm(block, 2)
        assert norm == pytest.approx(dense, rel=1e-12)
        assert np.linalg.norm(block @ w) == pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_vector_at_long_horizon_without_eigh(self, relaxation,
                                                 monkeypatch):
        # N_c = 4097: the vector comes from the root angle of the norm's own
        # solve, checked mode by mode through a scalar forward substitution
        def refuse(*args, **kwargs):
            raise AssertionError("dense eigensolver called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        pair = heat_pair(nx=4, dt=0.002, k=2)
        grid = st.GridSpec(2 * 4096 + 1, 2)
        res = st.coarse_norm(pair, grid, relaxation, True)
        assert res.certified and res.value <= res.upper <= res.value * (1 + 1e-12)
        eig = pair.shared_eig
        # the vector is in mode coordinates; its U-image maps back to it
        modal = res.vector.reshape(grid.n_coarse, pair.dim)
        u = ops.laplacian_basis(pair.dim)
        back = physical_vector(u, res.vector).reshape(modal.shape) @ u
        assert np.max(np.abs(back - modal)) <= 1e-14
        m = int(np.argmax(np.linalg.norm(modal, axis=0)))
        others = np.delete(modal, m, axis=1)
        assert np.max(np.abs(others)) <= 1e-14
        v = modal[:, m]
        n = st.block_rows(grid, relaxation)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-14)
        assert np.all(v[n:] == 0.0)
        lam, mu = eig.fine_values[m] ** pair.k, eig.coarse_values[m]
        # past its zero first row the block is (lam - mu) C^{-1}, times lam
        # for FCF, with C unit lower bidiagonal, subdiagonal -mu
        image = st.ForwardSolver(np.array([[mu]]), n).solve(v[:n])
        gain = abs(lam - mu) * (abs(lam) if relaxation == "FCF" else 1.0)
        assert gain * np.linalg.norm(image) == pytest.approx(res.value,
                                                             rel=1e-12)
        assert res.value == pytest.approx(
            st.mode_norms(pair, grid, relaxation).max(), rel=0.0)


def _upwind_pair(nx, dt, k, scheme="backward-euler", coarse_scheme=None):
    spatial = ops.build_spatial("advection-1d-upwind", nx, 1.0 / nx)
    fine = ops.build_stepper(spatial, ops.SchemeSpec(scheme, dt))
    coarse = ops.build_stepper(
        spatial, ops.SchemeSpec(coarse_scheme or scheme, dt * k))
    return ops.make_pair(fine, coarse, k)


def lanczos_case(name):
    """(pair, grid) of a non-normal pair whose coarse norm takes the
    Lanczos path."""
    rng = np.random.default_rng(21)
    if name.startswith("upwind"):
        nx = int(name[6:])
        k, n_coarse = (4, 33) if nx == 8 else (2, 33 if nx == 3 else 17)
        pair = _upwind_pair(nx, 0.02 if nx == 8 else 0.05, k)
    elif name == "contractions":
        pair, n_coarse = raw_pair(random_contraction(rng, 3),
                                  random_contraction(rng, 3), 2), 17
        assert not pair.commuting
    elif name == "singular-phik":
        # forward Euler at dt * ell = -1 zeroes an eigenvalue of Phi^2; the
        # operator carries no eigenbasis, as one read from a file
        spatial = ops.SpatialOperator(np.diag([-2.0, -1.0]).astype(complex),
                                      "from-file")
        fine = ops.build_stepper(spatial, ops.SchemeSpec("forward-euler", 0.5))
        coarse = ops.build_stepper(spatial,
                                   ops.SchemeSpec("backward-euler", 1.0))
        pair, n_coarse = ops.make_pair(fine, coarse, 2), 9
    elif name == "ill-conditioned-phik":
        # rcond(Phi^2) is about 1e-14
        pair, n_coarse = _upwind_pair(16, 0.125, 2, "sdirk2",
                                      "backward-euler"), 17
    elif name == "unstable-psi":
        # forward-Euler coarse steps of the heat equation: |mu| up to 11.6
        pair = heat_pair(nx=8, dt=0.01, k=4, coarse_scheme="forward-euler",
                         attach_eig=False)
        n_coarse = 17
    elif name == "exact-coarse":
        phi = random_contraction(rng, 3)
        pair, n_coarse = raw_pair(phi, phi @ phi, 2), 9
        assert not pair.coarse_defect.any()
    else:   # "k1": no F-points, so the FCF block is zero
        pair = raw_pair(random_contraction(rng, 2), random_contraction(rng, 2),
                        1)
        n_coarse = 9
    return pair, st.GridSpec(pair.k * (n_coarse - 1) + 1, pair.k)


def coarse_operator(pair, grid, relaxation):
    """The residual-side CoarseOperator of coarse_norm."""
    lft, rgt = ops.coarse_factors(pair, relaxation, "residual")
    return st.CoarseOperator(pair.coarse.matrix, rgt, lft,
                             st.block_rows(grid, relaxation))


LANCZOS_CASES = ["upwind3", "upwind4", "upwind8", "contractions",
                 "singular-phik", "ill-conditioned-phik", "unstable-psi",
                 "exact-coarse", "k1"]
UPWIND_CASES = ["upwind3", "upwind4", "upwind8"]


def complex_cast(pair):
    """The pair with its dense steppers cast to complex (raw_stepper casts),
    so that its coarse norm takes complex arithmetic."""
    return raw_pair(pair.fine.matrix, pair.coarse.matrix, pair.k)


class TestLanczosNorm:
    """The matrix-free coarse norm of non-normal pairs against the dense
    SVD of the assembled block."""

    def test_norm_past_the_double_range_is_infinite(self):
        # b and c are scaled to entries below one for the iteration; the
        # norm of the unscaled block, about 1e400, is infinite, not an error
        big = 1e200 * np.eye(2)
        op = st.CoarseOperator(0.5 * np.eye(2), big, big, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = st._lanczos_norm(op, 8, False)
        assert res.value == res.upper == math.inf and not res.certified

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("name", LANCZOS_CASES)
    def test_matches_dense_block(self, name, relaxation):
        pair, grid = lanczos_case(name)
        assert not pair.normal
        cgc_res, _, relax = st.coarse_defect_blocks(pair, grid)
        block = cgc_res if relaxation == "F" else cgc_res @ relax
        dense = np.linalg.norm(block, 2)
        res = st.coarse_norm(pair, grid, relaxation, with_vector=True)
        assert res.method == "lanczos" and res.certified
        # an exact coarse stepper leaves only rounding in the dense block
        assert res.value == pytest.approx(dense, rel=3e-12, abs=1e-14)
        assert res.upper >= dense - 1e-14
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(block @ res.vector) == pytest.approx(
            res.value, rel=3e-12, abs=1e-14)
        op = coarse_operator(pair, grid, relaxation)
        assert not op.definite((res.value * (1.0 - 1e-9)) ** 2)
        assert res.value == 0.0 or op.definite(res.upper ** 2)

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_operator_is_the_trimmed_block(self, relaxation):
        pair, grid = lanczos_case("contractions")
        cgc_res, _, relax = st.coarse_defect_blocks(pair, grid)
        block = cgc_res if relaxation == "F" else cgc_res @ relax
        op = coarse_operator(pair, grid, relaxation)
        nx, n = pair.dim, op.n
        # past the zero first block row(s) and zero last block column(s),
        # up to the sign of I - A B^{-1}
        trimmed = -block[(grid.n_coarse - n) * nx:, :n * nx]
        eye = np.eye(n * nx)
        dense = np.column_stack([op.apply(e) for e in eye])
        adjoint = np.column_stack([op.apply(e, adjoint=True) for e in eye])
        assert np.allclose(dense, trimmed, rtol=0, atol=1e-13)
        assert np.allclose(adjoint, trimmed.conj().T, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("side", ["residual", "error"])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_power_operator_is_the_trimmed_power(self, relaxation, side):
        # T_n(G^2) from the realization of G^2 with its link factor R L
        pair, grid = lanczos_case("contractions")
        cgc_res, cgc_err, relax = st.coarse_defect_blocks(pair, grid)
        block = cgc_res if side == "residual" else cgc_err
        if relaxation == "FCF":
            block = block @ relax
        lft, rgt = ops.coarse_factors(pair, relaxation, side)
        op = st.CoarseOperator(*tap._tap_realization(
            pair.coarse.matrix, rgt, lft, 2, rgt @ lft),
            st.block_rows(grid, relaxation, 2))
        nx, n = pair.dim, op.n
        assert n == grid.n_coarse - (2 if relaxation == "F" else 4)
        square = block @ block
        trimmed = square[(grid.n_coarse - n) * nx:, :n * nx]
        assert not square[:(grid.n_coarse - n) * nx].any()
        eye = np.eye(n * nx)
        dense = np.column_stack([op.apply(e) for e in eye])
        adjoint = np.column_stack([op.apply(e, adjoint=True) for e in eye])
        assert np.allclose(dense, trimmed, rtol=0, atol=1e-13)
        assert np.allclose(adjoint, trimmed.conj().T, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("cast", [False, True])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("name", LANCZOS_CASES)
    def test_definite_is_the_inertia_of_the_dense_gram(self, name, relaxation,
                                                       cast):
        # the fused pass (one product Z^* P Z per block) against the sign of
        # the smallest eigenvalue of the assembled s I - K^* K, just below
        # and just above ||K||^2
        pair, grid = lanczos_case(name)
        op = coarse_operator(complex_cast(pair) if cast else pair, grid,
                             relaxation)
        if op.n == 0:
            assert op.definite(1.0)
            return
        assert np.iscomplexobj(op.a) == (cast or np.iscomplexobj(
            pair.coarse.matrix))
        eye = np.eye(op.n * op.b.shape[1])
        k = np.column_stack([op.apply(e) for e in eye])
        gram = k.conj().T @ k
        top = np.linalg.norm(k, 2) ** 2
        for s in (top * (1.0 - 1e-9), top * (1.0 + 1e-9)):
            want = np.linalg.eigvalsh(s * eye - gram)[0] > 0.0
            assert op.definite(s) == want

    @pytest.mark.parametrize("name", UPWIND_CASES)
    def test_real_pair_stays_real(self, name, monkeypatch):
        # a real K from a real start vector: real bases, Ritz vector and
        # worst-case error, and no complex product anywhere on the way
        pair, grid = lanczos_case(name)
        assert pair.fine.matrix.dtype == pair.coarse.matrix.dtype == float
        seen = []
        orthonormalize = st._orthonormalize

        def record(w, basis, rng):
            seen.extend([w.dtype, basis.dtype])
            return orthonormalize(w, basis, rng)

        monkeypatch.setattr(st, "_orthonormalize", record)
        sys = st.assemble_system(pair, grid)
        for relaxation in ("F", "FCF"):
            res = st.coarse_norm(pair, grid, relaxation, with_vector=True)
            assert res.vector.dtype == float
            e = harness._worst_case_error(sys, res.vector)
            assert e.dtype == float
            assert st.apply_iteration(sys, relaxation, e).dtype == float
        assert seen and set(seen) == {np.dtype(float)}

    def test_from_file_with_zero_imaginary_parts_is_real(self, tmp_path):
        # a matrix file whose imaginary parts are all zero gives a real
        # operator, and its coarse norm runs in real arithmetic
        path = tmp_path / "op.txt"
        path.write_text("-1+0i, 0\n1, -1-0i\n")
        spatial = ops.build_spatial("from-file", path=str(path))
        assert spatial.matrix.dtype == float
        assert np.array_equal(spatial.matrix, [[-1.0, 0.0], [1.0, -1.0]])
        fine, coarse = (ops.build_stepper(spatial,
                                          ops.SchemeSpec("backward-euler", dt))
                        for dt in (0.1, 0.2))
        pair = ops.make_pair(fine, coarse, 2)
        assert pair.fine.matrix.dtype == pair.coarse.matrix.dtype == float
        grid = st.GridSpec(17, 2)
        res = st.coarse_norm(pair, grid, "F", with_vector=True)
        assert res.certified and res.vector.dtype == float
        cast = st.coarse_norm(complex_cast(pair), grid, "F")
        assert abs(cast.value - res.value) <= 2.0 * tap.TOL * res.value

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("name", LANCZOS_CASES)
    def test_complex_cast_agrees(self, name, relaxation):
        pair, grid = lanczos_case(name)
        real = st.coarse_norm(pair, grid, relaxation)
        cast = st.coarse_norm(complex_cast(pair), grid, relaxation)
        assert real.certified and cast.certified
        assert abs(cast.value - real.value) <= 2.0 * tap.TOL * real.value

    @pytest.mark.parametrize("cast", [False, True])
    @pytest.mark.parametrize("name", UPWIND_CASES)
    def test_one_ldl_pass_per_coarse_norm(self, name, cast, monkeypatch):
        # the Ritz-gap trigger tries the pass once the value has converged,
        # and that one pass succeeds
        pair, grid = lanczos_case(name)
        if cast:
            pair = complex_cast(pair)
        calls = []
        definite = st.CoarseOperator.definite

        def count(op, s):
            calls.append(s)
            return definite(op, s)

        monkeypatch.setattr(st.CoarseOperator, "definite", count)
        for relaxation in ("F", "FCF"):
            calls.clear()
            assert st.coarse_norm(pair, grid, relaxation).certified
            assert len(calls) == 1

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_failed_pass_is_not_retried_at_the_same_value(self, relaxation,
                                                          monkeypatch):
        # a pass that fails (here the first, forced) proves nothing; Lanczos
        # goes on, and tries another pass only once the Ritz value has risen
        # past the failed one by TOL, which a converged value does not: the
        # norm is uncertified, and its bound row has no upper
        pair, grid = lanczos_case("upwind3")
        cgc_res, _, relax = st.coarse_defect_blocks(pair, grid)
        block = cgc_res if relaxation == "F" else cgc_res @ relax
        dense = np.linalg.norm(block, 2)
        calls = []
        definite = st.CoarseOperator.definite

        def fail_first(op, s):
            calls.append(s)
            return False if len(calls) == 1 else definite(op, s)

        monkeypatch.setattr(st.CoarseOperator, "definite", fail_first)
        res = st.coarse_norm(pair, grid, relaxation)
        # a pass at the Ritz value v is at s = (v (1 + 2 TOL))^2
        tried = np.sqrt(calls)
        assert np.all(tried[1:] > tried[0] * (1.0 + tap.TOL))
        assert res.method == "lanczos" and not res.certified
        assert abs(res.value - dense) <= 2.0 * tap.TOL * dense
        calls.clear()
        row = next(r for r in harness._bound_rows(pair, grid, relaxation)
                   if r["kind"] == "coarse-norm")
        assert row["upper"] == math.inf and not row["certified"]
        assert len(calls) == 1

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_overflowing_pivot_is_not_definite(self):
        # D^* D overflows to entries of both signs, and M = Phi^2 sums them
        # into a NaN pivot, which numpy's Cholesky does not reject
        phi = np.array([[1.0, 0.0], [1.0, 0.0]])
        psi = 1e200 * np.array([[1.0, -1.0], [1.0, 1.0]]) + phi
        op = coarse_operator(raw_pair(phi, psi, 2), st.GridSpec(7, 2), "FCF")
        assert not op.definite(1.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_non_finite_block_is_uncertified(self):
        # |mu| = 10 over N_c = 400 coarse steps overflows double precision
        pair = raw_pair([[0.5]], [[10.0]], 2)
        res = st.coarse_norm(pair, st.GridSpec(2 * 399 + 1, 2), "F", True)
        assert res.value == math.inf and not res.certified
        assert np.linalg.norm(res.vector) == 1.0
