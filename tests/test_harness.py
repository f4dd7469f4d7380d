import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as hst

from helpers import (dense_block, normal_pair, phase_oracle, physical_vector,
                     raw_pair, rotating_basis, rotating_pair, skewed_pair,
                     tap_samples)

import pintbounds
from pintbounds import cli, harness
from pintbounds import operators as ops
from pintbounds import spacetime as st
from pintbounds import tap
from pintbounds import toeplitz as tp
from pintbounds import tridiag


def base_config(**overrides):
    data = {
        "problem": {"kind": "laplacian-1d-dirichlet", "n": 4, "h": 0.2},
        "fine": {"scheme": "backward-euler", "dt": 0.02},
        "coarse": "rediscretized",
        "k": 2,
        "n_time": 17,
        "relaxations": ["F"],
        "norms": ["l2", "AstarA"],
        "iterations": 4,
        "initial_error": "random",
        "seed": 11,
    }
    data.update(overrides)
    return data


class TestConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(harness.ConfigError, match="unknown keys"):
            harness.ExperimentConfig.from_dict(base_config(extra=1))

    def test_unknown_nested_key(self):
        cfg = base_config()
        cfg["problem"]["stencil"] = "wide"
        with pytest.raises(harness.ConfigError, match="problem"):
            harness.ExperimentConfig.from_dict(cfg)

    def test_unknown_tolerance_key(self):
        with pytest.raises(harness.ConfigError, match="tolerances"):
            harness.ExperimentConfig.from_dict(
                base_config(tolerances={"slack": 1.0}))

    def test_divisibility(self):
        with pytest.raises(harness.ConfigError, match="divisible"):
            harness.ExperimentConfig.from_dict(base_config(n_time=16))

    def test_minimum_iterations(self):
        with pytest.raises(harness.ConfigError, match="at least 2"):
            harness.ExperimentConfig.from_dict(base_config(iterations=1))

    def test_unknown_norm_and_relaxation(self):
        with pytest.raises(harness.ConfigError):
            harness.ExperimentConfig.from_dict(base_config(norms=["energy"]))
        with pytest.raises(harness.ConfigError):
            harness.ExperimentConfig.from_dict(base_config(relaxations=["FCFF"]))

    @pytest.mark.parametrize("overrides", [
        {"k": "two"}, {"n_time": None}, {"iterations": [4]}, {"seed": -1},
        {"seed": "x"}, {"relaxations": 5}, {"norms": 5},
        {"tolerances": {"bound_margin": "tight"}}])
    def test_malformed_values(self, overrides):
        with pytest.raises(harness.ConfigError):
            harness.ExperimentConfig.from_dict(base_config(**overrides))

    def test_missing_required(self):
        cfg = base_config()
        del cfg["problem"]
        with pytest.raises(harness.ConfigError, match="missing required"):
            harness.ExperimentConfig.from_dict(cfg)

    def test_load_config_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config()))
        cfg = harness.load_config(str(path))
        assert cfg.k == 2 and cfg.n_time == 17

    def test_libyaml_loader_reads_what_safe_load_reads(self, tmp_path):
        assert harness._LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        text = (yaml.safe_dump(base_config(tolerances={"bound_margin": 1e-9}))
                + "# comment\n")
        text = text.replace("dt: 0.02", "dt: 2.0e-2").replace("k: 2", "k: 0x2")
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert harness.load_config(str(path)).raw == yaml.safe_load(text)

    @pytest.mark.parametrize("text", [
        "problem: {kind: [unclosed\n", "k: 'open\n", "\tk: 2\n",
        "k: *undefined\n", "k: !!python/object:os.system x\n"])
    def test_malformed_yaml_is_config_error(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(harness.ConfigError, match="malformed YAML"):
            harness.load_config(str(path))


class TestRunExperiment:
    def test_deterministic(self):
        cfg = harness.ExperimentConfig.from_dict(base_config())
        a = harness.run_experiment(cfg).to_dict()
        b = harness.run_experiment(cfg).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_exact_coarse_converges_immediately(self):
        # coarse custom-rational scheme chosen so Psi = Phi^2 exactly:
        # fine backward Euler 1/(1-z), coarse 1/(1-w/2)^2 at w = 2 dt L
        cfg = harness.ExperimentConfig.from_dict(base_config(
            coarse={"scheme": "custom-rational", "dt": 0.04,
                    "numerator": [1.0], "denominator": [1.0, -1.0, 0.25]},
            norms=["l2"], iterations=2))
        rec = harness.run_experiment(cfg)
        values = {r["iteration"]: r["value"] for r in rec.trace
                  if r["norm"] == "l2"}
        assert values[1] <= 1e-12 * values[0]
        assert not rec.violations

    def test_worst_case_first_ratio_is_dense_norm(self):
        cfg = harness.ExperimentConfig.from_dict(base_config(
            initial_error="worst-case", norms=["AstarA"], iterations=3,
            relaxations=["F", "FCF"], n_time=65, k=2))
        rec = harness.run_experiment(cfg)
        for relaxation in ("F", "FCF"):
            dense = next(r["lower"] for r in rec.bounds
                         if r["relaxation"] == relaxation
                         and r["kind"] == "coarse-norm")
            first = next(r["ratio"] for r in rec.trace
                         if r["relaxation"] == relaxation
                         and r["norm"] == "AstarA" and r["iteration"] == 1)
            assert first == pytest.approx(dense, rel=1e-10)
        assert not rec.violations

    def test_worst_case_first_ratio_non_normal(self):
        cfg = harness.ExperimentConfig.from_dict(base_config(
            problem={"kind": "advection-1d-upwind", "n": 3, "h": 0.25},
            initial_error="worst-case", norms=["AstarA"], iterations=3,
            relaxations=["F", "FCF"], n_time=33, k=2))
        rec = harness.run_experiment(cfg)
        assert not rec.meta["normal"]
        for relaxation in ("F", "FCF"):
            dense = next(r["lower"] for r in rec.bounds
                         if r["relaxation"] == relaxation
                         and r["kind"] == "coarse-norm")
            first = next(r["ratio"] for r in rec.trace
                         if r["relaxation"] == relaxation
                         and r["norm"] == "AstarA" and r["iteration"] == 1)
            assert first == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_worst_case_error_is_interpolated_coarse_solve(self, k):
        # A^{-1} of a vector injected at the C-points is P_ideal A_Delta^{-1}
        # of it, for a complex non-normal pair too
        rng = np.random.default_rng(k)
        phi, psi = (0.4 * (rng.standard_normal((3, 3))
                           + 1j * rng.standard_normal((3, 3)))
                    for _ in range(2))
        sys = st.assemble_system(raw_pair(phi, psi, k),
                                 st.GridSpec(6 * k + 1, k))
        w = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        _, p_ideal = st.ideal_transfer(sys)
        want = np.empty(sys.dim, dtype=complex)
        want[sys.permutation] = p_ideal @ np.linalg.solve(
            st.coarse_bidiagonal(sys.pair, sys.grid), w)
        got = harness._worst_case_error(sys, w)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("k", [2, 1])
    def test_roundoff_is_not_a_violation(self, k):
        # FCF is exact after a few sweeps: the error drops to round-off (to
        # zero at k = 1), and no ratio of it is reported or undefined
        cfg = harness.ExperimentConfig.from_dict(base_config(
            k=k, n_time=9, relaxations=["FCF"], norms=["AstarA"],
            iterations=4, initial_error="worst-case", seed=7))
        rec = harness.run_experiment(cfg)
        values = [r["value"] for r in rec.trace]
        assert min(values[1:]) <= 1e-14 * values[0]
        assert all(math.isfinite(r["ratio"]) for r in rec.trace[1:])
        assert rec.violations == []

    @pytest.mark.parametrize("last, violated", [(1e-14, False),
                                                (1e-12, True)])
    def test_roundoff_floor_skips_only_round_off(self, last, violated):
        # the ratio 1 of the last step exceeds the sufficient bound 0.5; it
        # is skipped only when its previous error is at most the floor,
        # ROUNDOFF_FLOOR (2.2e-13) times the first
        assert 1e-14 < harness.ROUNDOFF_FLOOR < 1e-12
        cfg = harness.ExperimentConfig.from_dict(base_config(
            norms=["AstarA"], iterations=3, initial_error="worst-case"))
        values = [1.0, 0.3, last, last]
        trace = [{"iteration": i, "relaxation": "F", "norm": "AstarA",
                  "value": v, "ratio": v / values[i - 1] if i else None}
                 for i, v in enumerate(values)]
        bounds = [{"relaxation": "F", "kind": "sufficient", "lower": 0.0,
                   "upper": 0.5, "certified": True}]
        rec = harness.ExperimentRecord(config=cfg.raw, seed=cfg.seed,
                                       meta={"commuting": True}, trace=trace,
                                       bounds=bounds, excluded=[])
        violations = harness.check_bounds(cfg, rec)
        assert violations == (["F/AstarA iteration 3: ratio 1.000000e+00 "
                               "exceeds sufficient bound 5.000000e-01"]
                              if violated else [])

    @staticmethod
    def _record(cfg, values, necessary, coarse):
        """A record of one F/AstarA series with the given values and the
        necessary and coarse-norm rows at the given lowers."""
        trace = [{"iteration": i, "relaxation": "F", "norm": "AstarA",
                  "value": v, "ratio": v / values[i - 1] if i else None}
                 for i, v in enumerate(values)]
        bounds = [{"relaxation": "F", "kind": "necessary", "lower": necessary,
                   "upper": math.inf, "certified": True},
                  {"relaxation": "F", "kind": "coarse-norm", "lower": coarse,
                   "upper": coarse, "certified": True}]
        return harness.ExperimentRecord(config=cfg.raw, seed=cfg.seed,
                                        meta={"commuting": True}, trace=trace,
                                        bounds=bounds, excluded=[])

    @pytest.mark.parametrize("initial_error", ["worst-case", "random"])
    def test_necessary_bound_above_the_worst_observed_ratio(self,
                                                            initial_error):
        # the necessary bound is a worst-case ratio: one above every
        # observed ratio is a violation only when the seed is the worst case
        cfg = harness.ExperimentConfig.from_dict(base_config(
            norms=["AstarA"], iterations=2, initial_error=initial_error))
        rec = self._record(cfg, [1.0, 0.25, 0.0625], 0.5, 0.5)
        assert harness.check_bounds(cfg, rec) == (
            ["F/AstarA: necessary bound 5.000000e-01 exceeds worst observed "
             "ratio 2.500000e-01"] if initial_error == "worst-case" else [])

    @pytest.mark.parametrize("initial_error", ["worst-case", "random"])
    def test_necessary_bound_above_the_coarse_norm(self, initial_error):
        # the coarse norm is the worst-case ratio itself, whatever the seed
        cfg = harness.ExperimentConfig.from_dict(base_config(
            norms=["AstarA"], iterations=2, initial_error=initial_error))
        rec = self._record(cfg, [1.0, 0.5, 0.25], 0.5, 0.25)
        assert harness.check_bounds(cfg, rec) == [
            "F: necessary bound 5.000000e-01 exceeds the worst-case ratio "
            "(coarse block norm) 2.500000e-01"]

    @pytest.mark.parametrize("twin", [False, True])
    def test_cancelling_first_value_is_not_a_violation(self, twin):
        # Phi has the eigenvalue -36.4: the worst-case seed grows to 1e12,
        # and A e_0 = w of norm 1 cancels to 1.5e-8 in the dense twin,
        # which put the necessary bound 1.5e-8 above the first ratio; the
        # ratio is checked over the rounding of its A*A values
        # (1 + ||Phi||) ||e|| ROUNDOFF_FLOOR
        cfg = harness.ExperimentConfig.from_dict(base_config(
            problem={"kind": "laplacian-1d-dirichlet", "n": 2, "h": 1 / 3},
            fine={"scheme": "custom-rational", "dt": 0.421875,
                  "numerator": [1.0, 0.75], "denominator": [1.0, 0.25]},
            coarse={"scheme": "backward-euler", "dt": 0.84375},
            n_time=9, relaxations=["F", "FCF"], initial_error="worst-case"))
        make_pair = ops.make_pair
        with mock.patch.object(ops, "make_pair", lambda f, c, k: make_pair(
                f, c, k, attach_eig=not twin)):
            rec = harness.run_experiment(cfg)
        assert rec.meta["normal"] is not twin
        rows = [r for r in rec.trace if r["norm"] == "AstarA"]
        assert rows[0]["rounding"] > rows[0]["value"]
        assert rec.violations == []

    def test_ratio_range_over_the_rounding(self):
        prev = {"value": 2.0, "rounding": 0.5}
        row = {"value": 3.0, "rounding": 1.0, "ratio": 1.5}
        assert harness._ratio_range(prev, row) == (2.0 / 2.5, 4.0 / 1.5)
        prev["rounding"] = 2.0
        assert harness._ratio_range(prev, row) == (0.5, math.inf)
        assert harness._ratio_range({"value": 2.0}, {"value": 3.0,
                                                     "ratio": 1.5}) \
            == (1.5, 1.5)

    @pytest.mark.parametrize("initial_error", ["worst-case", "random"])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_trace_is_the_dense_propagator_power(self, k, relaxation,
                                                 initial_error, monkeypatch):
        # run iterates the error itself, e_i = E^i e_0, with no solve for an
        # exact solution: its l2 and A*A values are ||E^i e_0|| and
        # ||A E^i e_0|| of the dense propagator, on a non-normal pair
        def refuse(*args):
            raise AssertionError("run solved A u = f")

        monkeypatch.setattr(st, "sequential_solve", refuse)
        cfg = harness.ExperimentConfig.from_dict(base_config(
            problem={"kind": "advection-1d-upwind", "n": 3, "h": 0.25},
            k=k, n_time=4 * k + 1, relaxations=[relaxation],
            initial_error=initial_error, seed=5))
        rec = harness.run_experiment(cfg)
        pair = harness.build_pair(cfg)
        assert not pair.normal
        sys = st.assemble_system(pair, st.GridSpec(cfg.n_time, k))
        if initial_error == "worst-case":
            w = st.coarse_norm(pair, sys.grid, relaxation,
                               with_vector=True).vector
            e = harness._worst_case_error(sys, w)
        else:
            # the seed draws the initial error and nothing else
            rng = np.random.default_rng(cfg.seed)
            e = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
            e /= np.linalg.norm(e)
        props = st.build_propagators(sys)
        perm = sys.permutation
        prop = np.empty((sys.dim, sys.dim), dtype=complex)
        prop[np.ix_(perm, perm)] = props.e_f if relaxation == "F" \
            else props.e_fcf
        a = sys.full_matrix()
        want = {"l2": [], "AstarA": []}
        for _ in range(cfg.iterations + 1):
            want["l2"].append(np.linalg.norm(e))
            want["AstarA"].append(np.linalg.norm(a @ e))
            e = prop @ e
        for norm, series in want.items():
            got = [r["value"] for r in rec.trace if r["norm"] == norm]
            assert np.max(np.abs(np.subtract(got, series))) \
                <= 1e-13 * series[0]

    @pytest.mark.parametrize("initial_error", ["worst-case", "random"])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("case", ["heat", "rotating"])
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_normal_trace_is_the_dense_twin_propagator_power(
            self, k, case, relaxation, initial_error, monkeypatch):
        # a normal pair iterates in its mode coordinates; its l2, A*A and
        # modified values are ||E^i e_0||, ||A E^i e_0|| and
        # ||(I x U^*) E^i e_0|| with the dense propagator of its twin
        # (attach_eig=False), from the U-image e_0 of the run's initial
        # error (the random draw, or the worst-case solve of the coarse
        # vector), both drawn in mode coordinates
        pair = normal_pair(k) if case == "heat" else rotating_pair(k)
        u = (ops.laplacian_basis(pair.dim) if case == "heat"
             else rotating_basis())
        assert pair.normal
        monkeypatch.setattr(harness, "build_pair", lambda cfg: pair)
        cfg = harness.ExperimentConfig.from_dict(base_config(
            k=k, n_time=4 * k + 1, relaxations=[relaxation],
            norms=["l2", "AstarA", "modified"], initial_error=initial_error,
            seed=5))
        rec = harness.run_experiment(cfg)
        assert rec.meta["normal"]
        twin = ops.make_pair(pair.fine, pair.coarse, k, attach_eig=False)
        sys = st.assemble_system(twin, st.GridSpec(cfg.n_time, k))
        if initial_error == "worst-case":
            w = st.coarse_norm(pair, sys.grid, relaxation,
                               with_vector=True).vector
            e = harness._worst_case_error(sys, physical_vector(u, w))
        else:
            rng = np.random.default_rng(cfg.seed)
            e = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
            e = physical_vector(u, e / np.linalg.norm(e))
        props = st.build_propagators(sys)
        perm = sys.permutation
        prop = np.empty((sys.dim, sys.dim), dtype=complex)
        prop[np.ix_(perm, perm)] = props.e_f if relaxation == "F" \
            else props.e_fcf
        a = sys.full_matrix()
        want = {"l2": [], "AstarA": [], "modified": []}
        for _ in range(cfg.iterations + 1):
            want["l2"].append(np.linalg.norm(e))
            want["AstarA"].append(np.linalg.norm(a @ e))
            want["modified"].append(np.linalg.norm(
                e.reshape(cfg.n_time, -1) @ u.conj()))
            e = prop @ e
        for norm, series in want.items():
            got = [r["value"] for r in rec.trace if r["norm"] == norm]
            assert np.all(np.abs(np.subtract(got, series))
                          <= 1e-12 * np.maximum.accumulate(series))

    def test_fcf_bracket_lower_end_below_coarse_norm(self):
        cfg = harness.ExperimentConfig.from_dict(base_config(
            problem={"kind": "laplacian-1d-dirichlet", "n": 12, "h": 1 / 13},
            fine={"scheme": "sdirk2", "dt": 2e-3}, k=4, n_time=257,
            relaxations=["FCF"]))
        pair = harness.build_pair(cfg)
        rows = harness._bound_rows(pair, st.GridSpec(257, 4), "FCF")
        rows = {r["kind"]: r for r in rows}
        bracket = rows["diagonalizable-bracket"]
        assert bracket["certified"]
        assert bracket["lower"] <= rows["coarse-norm"]["lower"]
        assert rows["coarse-norm"]["lower"] <= bracket["upper"]

    @pytest.mark.parametrize("n_coarse,relaxation,certified", [
        (9, "F", False), (10, "F", True), (10, "FCF", False),
        (11, "FCF", True)])
    def test_bracket_certified_from_ten(self, n_coarse, relaxation, certified):
        cfg = harness.ExperimentConfig.from_dict(base_config(
            n_time=2 * n_coarse - 1, relaxations=[relaxation]))
        pair = harness.build_pair(cfg)
        rows = harness._bound_rows(pair, st.GridSpec(cfg.n_time, 2),
                                   relaxation)
        bracket = next(r for r in rows
                       if r["kind"] == "diagonalizable-bracket")
        assert bracket["certified"] is certified

    @pytest.mark.parametrize("problem", [
        {"kind": "laplacian-1d-dirichlet", "n": 4, "h": 0.2},
        {"kind": "advection-1d-upwind", "n": 3, "h": 0.25}],
        ids=["normal", "non-normal"])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_necessary_slack_from_tap_row(self, problem, relaxation,
                                          monkeypatch):
        cfg = harness.ExperimentConfig.from_dict(base_config(problem=problem))
        pair = harness.build_pair(cfg)
        grid = st.GridSpec(cfg.n_time, cfg.k)
        calls = []
        original = tap.tap_constant
        monkeypatch.setattr(tap, "tap_constant",
                            lambda *a: calls.append(a) or original(*a))
        rows = harness._bound_rows(pair, grid, relaxation)
        assert len(calls) == 1
        rows = {r["kind"]: r for r in rows}
        slack = rows["necessary"]["slack_constant"]
        assert np.isfinite(slack)
        nb = tp.necessary_lower_bound(pair, grid, relaxation)
        expected = (rows["tap"]["lower"] / nb.value - 1) * np.sqrt(grid.n_coarse)
        assert slack == pytest.approx(expected, rel=1e-12)

    def test_unstable_coarse_stepper_has_no_slack(self):
        # forward Euler at dt 0.04 on this heat operator has rho(Psi) =
        # 11.57; the TAP is a convergence factor only for a stable Psi, and
        # its slack to the necessary bound read -4.12 here
        cfg = harness.ExperimentConfig.from_dict(base_config(
            problem={"kind": "laplacian-1d-dirichlet", "n": 8, "h": 1 / 9},
            fine={"scheme": "backward-euler", "dt": 0.01},
            coarse={"scheme": "forward-euler", "dt": 0.04}, k=4, n_time=65,
            initial_error="worst-case", seed=7))
        pair = harness.build_pair(cfg)
        assert pair.coarse.spectral_radius == pytest.approx(11.57, abs=5e-3)
        rec = harness.run_experiment(cfg)
        rows = {r["kind"]: r for r in rec.bounds}
        assert rows["necessary"]["lower"] > 0.0
        assert math.isfinite(rows["tap"]["lower"])
        assert "slack_constant" not in rows["necessary"]

    def test_singular_fine_power_drops_only_fcf_rows(self):
        # forward Euler at dt * ell = -1 zeroes one eigenvalue of Phi^k; only
        # the FCF stability factor, and the sufficient bound built on it,
        # needs Phi^{-k}
        values = np.array([-2.0, -1.0], dtype=complex)
        spatial = ops.SpatialOperator(np.diag(values), "diagonal", values)
        fine = ops.build_stepper(spatial, ops.SchemeSpec("forward-euler", 0.5))
        coarse = ops.build_stepper(spatial,
                                   ops.SchemeSpec("backward-euler", 1.0))
        pair = ops.make_pair(fine, coarse, 2)
        grid = st.GridSpec(17, 2)
        amp, fcf_amp = tap.stability_decay(pair, grid)
        assert fcf_amp is None
        rows = harness._bound_rows(pair, grid, "F")
        rows = {r["kind"]: r for r in rows}
        assert rows["stability-decay"]["lower"] == amp
        assert rows["sufficient"]["upper"] == rows["tap"]["lower"] * (1 + amp)
        # upwind SDIRK2 fine steps against backward-Euler coarse steps leave
        # rcond(Phi^2) near 1e-14, a non-normal pair
        spatial = ops.build_spatial("advection-1d-upwind", 16, 1.0 / 16)
        fine = ops.build_stepper(spatial, ops.SchemeSpec("sdirk2", 0.125))
        coarse = ops.build_stepper(spatial,
                                   ops.SchemeSpec("backward-euler", 0.25))
        upwind = ops.make_pair(fine, coarse, 2)
        assert ops.ill_conditioned(upwind.fine_power_sv)
        for pair, grid in ((pair, grid), (upwind, st.GridSpec(33, 2))):
            kinds = {r["kind"] for r in harness._bound_rows(pair, grid, "FCF")}
            assert {"tap", "necessary", "coarse-norm", "symbol"} <= kinds
            assert not {"sufficient", "stability-decay"} & kinds

    # Psi - Phi^2 = -L^2 has the one entry TINY, whose square underflows:
    # the F coarse norm is TINY and the symbol D (1 + z) z peaks at 2 TINY
    TINY = 2.521048737311666e-232

    def _tiny_rows(self):
        spatial = ops.SpatialOperator(np.array([[0.0, 0.0, 0.0],
                                                [0.0, 0.0, 1.0],
                                                [self.TINY, 0.0, 0.0]],
                                               complex), "from-file")
        fine = ops.build_stepper(spatial, ops.SchemeSpec("forward-euler", 1.0))
        coarse = ops.build_stepper(spatial,
                                   ops.SchemeSpec("forward-euler", 2.0))
        pair = ops.make_pair(fine, coarse, 2)
        return {r["kind"]: r for r in harness._bound_rows(
            pair, st.GridSpec(3, 2), "F")}

    def test_tiny_coarse_norm_does_not_underflow(self):
        rows = self._tiny_rows()
        for kind in ("coarse-norm", "necessary"):
            assert rows[kind]["lower"] == pytest.approx(self.TINY, rel=1e-12,
                                                        abs=0.0)
            assert rows[kind]["certified"] is True

    def test_tiny_symbol_does_not_underflow(self):
        rows = self._tiny_rows()
        assert rows["symbol"]["upper"] == pytest.approx(2 * self.TINY,
                                                        rel=1e-12, abs=0.0)
        assert rows["symbol"]["certified"] is True

    def test_huge_fcf_symbol_is_certified(self):
        # Phi^2 reaches 6e123 and is singular; the Gram matrices of the FCF
        # symbol would overflow, those of its blocks scaled by a power of
        # two do not
        spatial = ops.SpatialOperator(np.array([[0.0, 0.0, 1.5e-62],
                                                [0.0, 0.0, 0.0],
                                                [1.0, 0.0, 1.0]], complex),
                                      "from-file")
        fine = ops.build_stepper(spatial,
                                 ops.SchemeSpec("backward-euler", 1.0))
        coarse = ops.build_stepper(spatial, ops.SchemeSpec("forward-euler", 2.0))
        pair = ops.make_pair(fine, coarse, 2)
        grid = st.GridSpec(3, 2)
        rows = {r["kind"]: r for r in harness._bound_rows(pair, grid, "FCF")}
        sym = tp.build_symbol(pair, grid, "FCF")
        scaled, exp = ops._unit(sym.coeffs)
        phases = 2.0 * np.pi * np.arange(2**16) / 2**16
        sample = np.ldexp(np.linalg.svd(tp.SymbolFunction(scaled, sym.low)(
            phases), compute_uv=False)[:, 0].max(), exp)
        assert sample > 1e248 and rows["symbol"]["certified"]
        assert sample <= rows["symbol"]["upper"] <= sample * (1.0 + tap.TOL)

    def test_symbol_past_the_double_range_is_infinite(self, tmp_path,
                                                       capsys):
        # Phi = 1 - 1e154 and Psi = 0.9: the F symbol's blocks D Psi^j,
        # D = Psi - Phi^2 = -1e308, are finite, but its maximum
        # |D| (1 - 0.9^N_c) / 0.1 is about 1e309; the FCF blocks D Psi^j
        # Phi^2 overflow
        (tmp_path / "op.txt").write_text("-1e154\n")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": str(tmp_path / "op.txt")},
            fine={"scheme": "forward-euler", "dt": 1.0},
            coarse={"scheme": "forward-euler", "dt": 1e-155}, n_time=41,
            relaxations=["F", "FCF"])))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["bounds", "--config", str(path)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        out = capsys.readouterr().out
        symbols = [r for r in json.loads(out) if r["kind"] == "symbol"]
        assert len(symbols) == 2
        for row in symbols:
            assert row["upper"] == np.inf and not row["certified"]
        assert out.count('"upper": Infinity') >= 2

    def test_huge_laplacian_leaks_no_warning(self, tmp_path, capsys):
        # entries near 4e160: the eigenbasis check of the operator takes
        # its norms scaled by a power of two, where their squares overflowed
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "laplacian-1d-dirichlet", "n": 3, "h": 1e-80},
            fine={"scheme": "backward-euler", "dt": 1e-170}, k=2, n_time=9,
            relaxations=["F", "FCF"])))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["bounds", "--config", str(path)]) == 0
            rows = json.loads(capsys.readouterr().out)
            assert cli.main(["run", "--config", str(path), "--out",
                             str(tmp_path), "--format", "json"]) == 0
        norms = [r for r in rows if r["kind"] == "coarse-norm"]
        assert len(norms) == 2 and all(r["certified"] for r in norms)

    def test_infinite_coarse_norm_leaves_necessary_uncertified(
            self, tmp_path, capsys):
        # the same pair: the coarse norm, and the necessary bound at p = 1
        # built on it, are past the double range
        (tmp_path / "op.txt").write_text("-1e154\n")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": str(tmp_path / "op.txt")},
            fine={"scheme": "forward-euler", "dt": 1.0},
            coarse={"scheme": "forward-euler", "dt": 1e-155}, n_time=41)))
        assert cli.main(["bounds", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        rows = {r["kind"]: r for r in json.loads(out)}
        assert rows["coarse-norm"]["lower"] == np.inf
        assert rows["necessary"]["lower"] == np.inf
        assert not rows["necessary"]["certified"]
        assert "slack_constant" not in rows["necessary"]
        assert "NaN" not in out

    def test_transfer_function_past_the_double_range_is_uncertified(
            self, tmp_path, capsys):
        # Psi = [[0.999, 1e304], [0, 0.999]]: (I - e^{ix} Psi)^{-1} B
        # overflows, so the TAP is infinite, not an SVD of NaN entries
        (tmp_path / "op.txt").write_text("-1 1e307\n0 -1\n")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": str(tmp_path / "op.txt")},
            fine={"scheme": "forward-euler", "dt": 0.5},
            coarse={"scheme": "forward-euler", "dt": 1e-3}, n_time=2001)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["bounds", "--config", str(path)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        rows = {r["kind"]: r for r in json.loads(capsys.readouterr().out)}
        assert rows["tap"]["lower"] == np.inf
        assert not rows["tap"]["certified"]
        assert not rows["sufficient"]["certified"]

    @pytest.mark.parametrize("fine", ["backward-euler", "forward-euler"])
    def test_nearly_singular_denominator_leaks_no_warning(self, tmp_path,
                                                          capsys, fine):
        # Psi = I + L with det(L) = 1.7e-158: at phase 0 the state
        # (I - Psi)^{-1} B of the TAP's maximizer reaches 1e158, whose
        # product with C and whose norm overflowed
        (tmp_path / "op.txt").write_text(
            "0 0 1.7281085613350386e-158\n1 0 0\n0 1 1\n")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": str(tmp_path / "op.txt")},
            fine={"scheme": fine, "dt": 1.0},
            coarse={"scheme": "forward-euler", "dt": 1.0}, k=1, n_time=2,
            relaxations=["F", "FCF"])))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["bounds", "--config", str(path)]) == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        taps = [r for r in json.loads(capsys.readouterr().out)
                if r["kind"] == "tap"]
        assert len(taps) == 2

    def test_bound_rows_present(self):
        cfg = harness.ExperimentConfig.from_dict(base_config())
        rec = harness.run_experiment(cfg)
        kinds = {r["kind"] for r in rec.bounds}
        assert {"tap", "sufficient", "stability-decay", "necessary",
                "coarse-norm", "symbol", "diagonalizable-bracket"} <= kinds

    def test_sufficient_dominates_bracket(self):
        cfg = harness.ExperimentConfig.from_dict(base_config())
        rec = harness.run_experiment(cfg)
        rows = {r["kind"]: r for r in rec.bounds if r["relaxation"] == "F"}
        assert rows["sufficient"]["upper"] >= rows["necessary"]["lower"]
        assert rows["coarse-norm"]["lower"] <= rows["symbol"]["upper"] + 1e-10

    @pytest.mark.parametrize("problem, method", [
        ({"kind": "laplacian-1d-dirichlet", "n": 4, "h": 0.2}, "per-mode"),
        ({"kind": "advection-1d-upwind", "n": 3, "h": 0.25}, "lanczos"),
    ])
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_coarse_norm_row_prints_its_certified_upper(self, problem, method,
                                                       relaxation):
        cfg = harness.ExperimentConfig.from_dict(base_config(problem=problem))
        pair = harness.build_pair(cfg)
        grid = st.GridSpec(cfg.n_time, cfg.k)
        cnorm = st.coarse_norm(pair, grid, relaxation)
        row = next(r for r in harness._bound_rows(pair, grid, relaxation)
                   if r["kind"] == "coarse-norm")
        assert row["method"] == method and row["certified"]
        assert row["upper"] == cnorm.upper
        dense = np.linalg.norm(dense_block(pair, grid, relaxation), 2)
        assert row["lower"] <= row["upper"] <= row["lower"] * (1 + 1e-11)
        assert dense <= row["upper"] * (1 + 1e-14)

    def test_uncertified_coarse_norm_row_has_no_upper(self, monkeypatch):
        original = st.coarse_norm
        monkeypatch.setattr(st, "coarse_norm", lambda *args, **kwargs: (
            dataclasses.replace(original(*args, **kwargs), certified=False)))
        rec = harness.run_experiment(
            harness.ExperimentConfig.from_dict(base_config()))
        row = next(r for r in rec.bounds if r["kind"] == "coarse-norm")
        assert not row["certified"] and row["upper"] == math.inf

    def test_modified_norm_needs_eigendecomposition(self, monkeypatch,
                                                    tmp_path, capsys):
        # the modified norm is that of a normal pair's mode coordinates; any
        # other pair is a config error, in the API and as exit 2: upwind,
        # the Laplacian under a coarse step with rho(Psi) = 11.57 and a
        # pair on an operator whose eigenbasis is not unitary
        unstable = {"problem": {"kind": "laplacian-1d-dirichlet", "n": 8,
                                "h": 1.0 / 9},
                    "fine": {"scheme": "backward-euler", "dt": 0.01},
                    "coarse": {"scheme": "forward-euler", "dt": 0.04},
                    "k": 4, "n_time": 65}
        cases = [({"problem": {"kind": "advection-1d-upwind", "n": 3,
                               "h": 0.25}}, None),
                 (unstable, None), ({}, skewed_pair)]
        for i, (overrides, pair_of) in enumerate(cases):
            data = base_config(norms=["modified"], **overrides)
            cfg = harness.ExperimentConfig.from_dict(data)
            with monkeypatch.context() as patch:
                if pair_of is not None:
                    patch.setattr(harness, "build_pair",
                                  lambda cfg: pair_of(cfg.k))
                pair = harness.build_pair(cfg)
                assert not pair.normal and pair.shared_eig is None
                if overrides is unstable:
                    assert pair.coarse.spectral_radius == pytest.approx(
                        11.57, rel=1e-3)
                with pytest.raises(harness.ConfigError,
                                   match="unitary eigenbasis"):
                    harness.run_experiment(cfg)
                path = tmp_path / f"{i}.yaml"
                path.write_text(yaml.safe_dump(data))
                assert cli.main(["run", "--config", str(path), "--out",
                                 str(tmp_path / str(i))]) == 2
                err = capsys.readouterr().err
                assert "unitary eigenbasis" in err and "Traceback" not in err


ROW_KINDS = ["tap", "sufficient", "stability-decay", "necessary", "coarse-norm",
             "symbol", "diagonalizable-bracket"]


class TestNormalPairPath:
    """A normal pair's rows come from closed forms and one closed-form
    per-mode solve per relaxation; neither a phase sweep nor the Sturm
    kernel runs."""

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("phase sweep on the normal-pair path")

        monkeypatch.setattr(tp, "build_symbol", refuse)
        monkeypatch.setattr(tp, "symbol_max_sv", refuse)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Calls of the Sturm kernel's two entries (wherever they are
        imported) and of the closed-form per-mode solve."""
        calls = {"sturm": [], "closed": []}

        def counted(key, original):
            def wrapper(*args, **kwargs):
                calls[key].append(args)
                return original(*args, **kwargs)
            return wrapper

        for name in ("tridiag_min_eig", "tridiag_stack_min"):
            sturm = counted("sturm", getattr(tridiag, name))
            for module in (tridiag, tp, harness):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, sturm)
        monkeypatch.setattr(st, "relaxed_toeplitz_min",
                            counted("closed", st.relaxed_toeplitz_min))
        return calls

    @staticmethod
    def _check_rows(rows):
        for relaxation in ("F", "FCF"):
            mine = [r for r in rows if r["relaxation"] == relaxation]
            assert [r["kind"] for r in mine] == ROW_KINDS
            by_kind = {r["kind"]: r for r in mine}
            assert by_kind["symbol"]["certified"] is True
            assert by_kind["symbol"]["method"] == "closed-form"
            assert by_kind["necessary"]["lower"] == by_kind["coarse-norm"]["lower"]

    def test_run_without_phase_sweep(self, no_sweep):
        cfg = harness.ExperimentConfig.from_dict(base_config(
            relaxations=["F", "FCF"], initial_error="worst-case"))
        rec = harness.run_experiment(cfg)
        self._check_rows(rec.bounds)
        assert rec.violations == []

    def test_bounds_command_without_phase_sweep(self, no_sweep, tmp_path,
                                                capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(relaxations=["F", "FCF"])))
        assert cli.main(["bounds", "--config", str(path)]) == 0
        self._check_rows(json.loads(capsys.readouterr().out))

    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    def test_one_kernel_pass_in_bound_rows(self, relaxation, kernel_calls):
        cfg = harness.ExperimentConfig.from_dict(base_config())
        pair = harness.build_pair(cfg)
        harness._bound_rows(pair, st.GridSpec(cfg.n_time, cfg.k), relaxation)
        assert kernel_calls["sturm"] == []
        assert len(kernel_calls["closed"]) == 1

    @pytest.mark.parametrize("initial_error", ["random", "worst-case"])
    def test_one_kernel_pass_per_relaxation_in_run(self, initial_error,
                                                   kernel_calls):
        # run passes its coarse norm to the bound rows
        cfg = harness.ExperimentConfig.from_dict(base_config(
            relaxations=["F", "FCF"], initial_error=initial_error))
        harness.run_experiment(cfg)
        assert kernel_calls["sturm"] == []
        assert len(kernel_calls["closed"]) == 2

    def test_heat_run_and_bounds_make_no_dense_stepper(self, monkeypatch,
                                                       tmp_path, capsys):
        # the steppers of a normal pair come from their eigenvalues, and
        # neither run nor bounds asks for a dense one: no stability_matrix,
        # no SVD and no eigenvalue solve
        def refuse(*args, **kwargs):
            raise AssertionError("dense stepper work on the normal-pair path")

        monkeypatch.setattr(ops, "stability_matrix", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        for initial_error in ("worst-case", "random"):
            path = tmp_path / f"{initial_error}.yaml"
            path.write_text(yaml.safe_dump(base_config(
                relaxations=["F", "FCF"], norms=["l2", "AstarA", "modified"],
                initial_error=initial_error)))
            assert cli.main(["run", "--config", str(path), "--out",
                             str(tmp_path / initial_error), "--format",
                             "json"]) == 0
            capsys.readouterr()
            assert cli.main(["bounds", "--config", str(path)]) == 0
            self._check_rows(json.loads(capsys.readouterr().out))

    def test_run_needs_only_the_eigenvalues(self, monkeypatch, tmp_path):
        # a normal pair iterates and is bounded on lambda and mu alone: with
        # no eigenvector matrix and no dense stepper, run gives the same
        # record and bounds the same output
        def refuse(*args, **kwargs):
            raise AssertionError("eigenvector matrix or dense stepper work "
                                 "on the normal-pair path")

        def bounds(path):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["bounds", "--config", str(path)]) == 0
            return out.getvalue()

        for initial_error in ("random", "worst-case"):
            data = base_config(relaxations=["F", "FCF"],
                               norms=["l2", "AstarA", "modified"],
                               initial_error=initial_error)
            cfg = harness.ExperimentConfig.from_dict(data)
            path = tmp_path / f"{initial_error}.yaml"
            path.write_text(yaml.safe_dump(data))
            want = harness.run_experiment(cfg).to_dict(), bounds(path)
            with monkeypatch.context() as patch:
                patch.setattr(ops, "laplacian_basis", refuse)
                patch.setattr(ops, "stability_matrix", refuse)
                assert (harness.run_experiment(cfg).to_dict(),
                        bounds(path)) == want

    def test_upwind_pair_takes_the_dense_path(self, monkeypatch, tmp_path):
        calls = {"stability_matrix": 0, "svd": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(ops, "stability_matrix")
        counted(np.linalg, "svd")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "advection-1d-upwind", "n": 3, "h": 0.25},
            relaxations=["F", "FCF"], initial_error="worst-case")))
        assert cli.main(["run", "--config", str(path), "--out",
                         str(tmp_path), "--format", "json"]) == 0
        assert calls["stability_matrix"] == 2 and calls["svd"] > 2

    def test_non_normal_symbol_is_certified(self):
        cfg = harness.ExperimentConfig.from_dict(base_config(
            problem={"kind": "advection-1d-upwind", "n": 3, "h": 0.25}))
        rec = harness.run_experiment(cfg)
        rows = {r["kind"]: r for r in rec.bounds}
        symbol = rows["symbol"]
        assert symbol["certified"] is True
        assert symbol["method"] == "bernstein"
        assert symbol["upper"] >= rows["coarse-norm"]["lower"] > 0


class TestNonNormalSymbolRow:
    @pytest.mark.parametrize("relaxation", ["F", "FCF"])
    @pytest.mark.parametrize("mu", [1.0, -1.0, 1j])
    @pytest.mark.parametrize("lam", [0.5, 0.9])
    @pytest.mark.parametrize("n_coarse", [17, 33, 64])
    def test_unit_circle_coarse_eigenvalue(self, n_coarse, lam, mu,
                                           relaxation):
        # the symbol N_c-term sum z^{j+1} (mu - lam^k) mu^j [lam^k] peaks at
        # z mu = 1, which the pole mask of a rational evaluation covered
        pair = raw_pair([[lam]], [[mu]], 2)
        rows = harness._bound_rows(pair, st.GridSpec(2 * n_coarse - 1, 2),
                                   relaxation)
        row = next(r for r in rows if r["kind"] == "symbol")
        exact = n_coarse * abs(mu - lam**2)
        if relaxation == "FCF":
            exact *= lam**2
        assert row["certified"] is True
        assert row["method"] == "bernstein"
        assert exact <= row["upper"] <= exact * (1.0 + tap.TOL)


class TestReports:
    def test_json_roundtrip(self, tmp_path):
        cfg = harness.ExperimentConfig.from_dict(base_config(iterations=2))
        rec = harness.run_experiment(cfg)
        paths = harness.report_emit(rec, "json", str(tmp_path))
        with open(paths[0]) as fh:
            loaded = json.load(fh)
        assert loaded == json.loads(json.dumps(rec.to_dict()))

    def test_csv_columns_and_sidecars(self, tmp_path):
        cfg = harness.ExperimentConfig.from_dict(base_config(iterations=2))
        rec = harness.run_experiment(cfg)
        paths = harness.report_emit(rec, "csv", str(tmp_path))
        assert [p.rsplit("/", 1)[1] for p in paths] == \
            ["experiment.csv", "bounds.csv", "config_echo.json"]
        header = open(paths[0]).readline().strip().split(",")
        assert header == harness.CSV_COLUMNS
        echo = json.load(open(paths[2]))
        assert echo["seed"] == cfg.seed

    def test_unknown_format(self, tmp_path):
        cfg = harness.ExperimentConfig.from_dict(base_config(iterations=2))
        rec = harness.run_experiment(cfg)
        with pytest.raises(harness.ConfigError):
            harness.report_emit(rec, "parquet", str(tmp_path))


class TestVerifySuite:
    def test_filter_selects_one(self):
        results = harness.verify_suite("schur")
        assert [r["name"] for r in results] == ["schur"]
        assert results[0]["passed"]

    def test_fault_injection_detected(self, monkeypatch):
        original = tp.pinv_a0
        monkeypatch.setattr(harness.tp, "pinv_a0",
                            lambda spec, shape="A0": -original(spec, shape))
        results = harness.verify_suite("moore-penrose")
        assert not results[0]["passed"]

    def test_forward_solve_fault_detected(self, monkeypatch):
        original = st.ForwardSolver.solve
        monkeypatch.setattr(st.ForwardSolver, "solve",
                            lambda self, rhs: original(self, rhs) * (1 + 1e-11))
        results = harness.verify_suite("forward-solve")
        assert [r["name"] for r in results] == ["forward-solve"]
        assert not results[0]["passed"]

    def test_stack_min_fault_detected(self, monkeypatch):
        # one part in 1e13 off the per-matrix kernel's minimum
        original = tridiag.tridiag_stack_min

        def fault(diag, off):
            return original(diag, off) * (1 + 1e-13)

        for module in (harness, tp):
            monkeypatch.setattr(module, "tridiag_stack_min", fault)
        results = harness.verify_suite("stack-min")
        assert [r["name"] for r in results] == ["stack-min"]
        assert not results[0]["passed"]

    def test_deterministic_summary(self):
        a = harness.verify_suite("appendix-bracket")
        b = harness.verify_suite("appendix-bracket")
        assert a == b


class TestCli:
    def test_run_csv_and_json(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(iterations=2)))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "experiment.csv").exists()
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--format", "json"]) == 0
        assert (out / "experiment.json").exists()

    def test_seed_override(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(iterations=2)))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--format", "json", "--seed", "99"]) == 0
        rec = json.load(open(out / "experiment.json"))
        assert rec["seed"] == 99

    def test_bound_violation_exits_1_with_its_report(self, tmp_path,
                                                     monkeypatch, capsys):
        # a TAP upper far too small makes every checked ratio break the
        # sufficient bound: run still writes its report, prints one line per
        # violation to stderr and exits 1
        original = tap.tap_constant
        monkeypatch.setattr(tap, "tap_constant", lambda *args, **kwargs: (
            dataclasses.replace(original(*args, **kwargs), upper=1e-6)))
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(relaxations=["F", "FCF"])))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--format", "json"]) == 1
        captured = capsys.readouterr()
        assert captured.out.split() == [str(out / "experiment.json")]
        with open(out / "experiment.json") as fh:
            violations = json.load(fh)["violations"]
        assert len(violations) > 1
        assert captured.err.splitlines() == [f"bound violation: {v}"
                                             for v in violations]

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(typo=True)))
        assert cli.main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text", [
        yaml.safe_dump(base_config(problem={"kind": "heat-2d", "n": 4,
                                            "h": 0.2})),
        yaml.safe_dump(base_config(fine={"scheme": "backward-euler",
                                         "dt": -1})),
        yaml.safe_dump(base_config(k="two")),
        "problem: {kind: [unclosed\n",
        # |mu| = 2.6 over N_c = 801 coarse steps overflows double precision
        yaml.safe_dump(base_config(
            coarse={"scheme": "forward-euler", "dt": 0.04}, k=4,
            n_time=3201)),
        # entries of 2e307: the commutator of Phi and Psi, formed unscaled,
        # would overflow before the forward solve's Phi^14 is refused
        yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": "op.txt"},
            fine={"scheme": "forward-euler", "dt": 1.0},
            coarse={"scheme": "forward-euler", "dt": 1e-10}, n_time=399)),
    ], ids=["unknown-kind", "negative-dt", "non-integer-k", "malformed-yaml",
            "overflowing-coarse-power", "huge-stepper-entries"])
    def test_bad_config_exits_2_without_traceback(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        (tmp_path / "op.txt").write_text("-0.01 2e307\n0 -0.01\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(pintbounds.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "pintbounds.cli", "run", "--config",
             str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
            cwd=tmp_path)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert "configuration error" in proc.stderr

    def test_overflowing_coarse_power_refused_before_iterating(
            self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            coarse={"scheme": "forward-euler", "dt": 0.04}, k=4,
            n_time=3201)))

        def refuse(*args):
            raise AssertionError("iterated before the overflow check")

        monkeypatch.setattr(st, "apply_iteration", refuse)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", "--config", str(path), "--out",
                             str(tmp_path / "out")])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err and "overflows" in err

    def test_overflowing_fine_power_is_a_config_error(self, tmp_path, capsys):
        # backward Euler next to a pole of its stability function: Phi^3 has
        # infinite entries
        (tmp_path / "op.txt").write_text("0 1\n6.962649271873385e-115 2\n")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": str(tmp_path / "op.txt")},
            fine={"scheme": "backward-euler", "dt": 0.5},
            coarse={"scheme": "forward-euler", "dt": 1.5}, k=3, n_time=4)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["run", "--config", str(path), "--out",
                             str(tmp_path / "out")]) == 2
            assert cli.main(["bounds", "--config", str(path)]) == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert capsys.readouterr().err.count("Phi^k overflows") == 2

    def test_overflowing_solve_power_is_a_config_error(self, tmp_path, capsys):
        # Phi = 0.5 I + 1e25 N (N the shift) has spectral radius 0.5, and
        # Phi^2 and Psi^N_c = (I + 1e-3 N)^200 are finite, but Phi^14, the
        # carry of the fine solver over 399 points, is not
        op = tmp_path / "op.txt"
        np.savetxt(op, -0.5 * np.eye(16) + 1e25 * np.eye(16, k=1))
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": str(op)},
            fine={"scheme": "forward-euler", "dt": 1.0},
            coarse={"scheme": "forward-euler", "dt": 1e-28}, k=2,
            n_time=399, relaxations=["F", "FCF"])))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", "--config", str(path), "--out", str(out),
                             "--format", "json"])
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "power 14 overflows" in capsys.readouterr().err
        assert not out.exists()      # no report, so no NaN trace

    def test_overflowing_iterates_are_a_config_error(self, tmp_path, capsys):
        # Phi, Psi and the refused powers are finite, but the iterates
        # overflow from the first A*A norm on; every RuntimeWarning is an
        # error here, as under -W error::RuntimeWarning
        (tmp_path / "op.txt").write_text("-1 1e307\n0 -1\n")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": str(tmp_path / "op.txt")},
            fine={"scheme": "forward-euler", "dt": 0.5},
            coarse={"scheme": "forward-euler", "dt": 1e-3}, k=2,
            n_time=2001)))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["run", "--config", str(path), "--out", str(out),
                             "--format", "json"])
        assert code == 2
        assert "error norm overflows" in capsys.readouterr().err
        assert not out.exists()      # no report, so no NaN trace

    def test_successive_calls_match_fresh_processes(self, tmp_path, capsys,
                                                    monkeypatch):
        # one parser serves every call in a process; a --seed given to one
        # run must not carry over to the next
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(relaxations=["F", "FCF"])))
        calls = [["run", "--config", str(path), "--format", "json",
                  "--seed", "99"],
                 ["bounds", "--config", str(path)],
                 ["run", "--config", str(path), "--format", "json"],
                 ["verify", "--filter", "schur"]]
        built = []
        monkeypatch.setattr(cli, "build_parser",
                            lambda f=cli.build_parser: built.append(1) or f())
        cli._parser.cache_clear()
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(pintbounds.__file__)))
        try:
            for i, argv in enumerate(calls):
                runs = {}
                for where in ("here", "fresh"):
                    out = tmp_path / f"{where}{i}"
                    full = argv + ["--out", str(out)] if argv[0] == "run" \
                        else argv
                    if where == "here":
                        code, text = cli.main(full), capsys.readouterr().out
                    else:
                        proc = subprocess.run(
                            [sys.executable, "-m", "pintbounds.cli", *full],
                            capture_output=True, text=True, env=env,
                            timeout=120)
                        code, text = proc.returncode, proc.stdout
                    report = out / "experiment.json"
                    runs[where] = (code, text.replace(str(out), "OUT"),
                                   report.read_text() if report.exists()
                                   else None)
                assert runs["here"] == runs["fresh"]
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_bounds_computes_stability_decay_once(self, tmp_path, capsys,
                                                  monkeypatch):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(relaxations=["F", "FCF"])))
        cfg = harness.load_config(str(path))
        pair = harness.build_pair(cfg)
        grid = st.GridSpec(cfg.n_time, cfg.k)
        # each relaxation computing its own decay, as bounds did before
        want = [row for relaxation in ("F", "FCF")
                for row in harness._bound_rows(pair, grid, relaxation)]
        calls = []
        original = tap.stability_decay
        monkeypatch.setattr(tap, "stability_decay",
                            lambda *a: calls.append(a) or original(*a))
        assert cli.main(["bounds", "--config", str(path)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out \
            == json.dumps(want, indent=2, sort_keys=True) + "\n"

    def test_singular_coarse_stepper_without_traceback(self, tmp_path):
        # upwind at Courant number 1 with a forward-Euler coarse step: Psi is
        # the nilpotent shift; the necessary bound at p = 1 inverts nothing
        # and is the coarse norm
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "advection-1d-upwind", "n": 4, "h": 0.25},
            fine={"scheme": "backward-euler", "dt": 0.125},
            coarse={"scheme": "forward-euler", "dt": 0.25},
            relaxations=["F", "FCF"])))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(pintbounds.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "pintbounds.cli", "run", "--config",
             str(path), "--out", str(tmp_path / "out"), "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode in (0, 1)
        assert "Traceback" not in proc.stderr
        rec = json.load(open(tmp_path / "out" / "experiment.json"))
        kinds = {r["kind"] for r in rec["bounds"]}
        assert "tap" in kinds
        for relaxation in ("F", "FCF"):
            rows = {r["kind"]: r for r in rec["bounds"]
                    if r["relaxation"] == relaxation}
            assert rows["necessary"]["lower"] == rows["coarse-norm"]["lower"]

    def test_fcf_at_k1_without_false_violation(self, tmp_path):
        # with k = 1 FCF relaxation is a sequential solve and its coarse block
        # is zero, so no lower bound may claim more
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "laplacian-1d-dirichlet", "n": 6, "h": 1 / 7},
            fine={"scheme": "sdirk2", "dt": 0.02},
            coarse={"scheme": "backward-euler", "dt": 0.02}, k=1, n_time=12,
            relaxations=["F", "FCF"], norms=["AstarA"],
            initial_error="worst-case", seed=7)))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(pintbounds.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "pintbounds.cli", "run", "--config",
             str(path), "--out", str(tmp_path / "out"), "--format", "json"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        rec = json.load(open(tmp_path / "out" / "experiment.json"))
        rows = {r["kind"]: r for r in rec["bounds"] if r["relaxation"] == "FCF"}
        assert "necessary" not in rows
        assert rows["coarse-norm"]["lower"] == 0.0
        assert rows["diagonalizable-bracket"]["lower"] == 0.0

    def test_normal_pair_past_dense_cap(self, tmp_path):
        # N_x * N_c = 4128 > DENSE_CAP: a normal pair builds no dense block
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "laplacian-1d-dirichlet", "n": 32, "h": 1 / 33},
            fine={"scheme": "backward-euler", "dt": 1e-3}, k=2, n_time=257,
            norms=["AstarA"], iterations=2, initial_error="worst-case")))
        assert 32 * 129 > st.DENSE_CAP
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--format", "json"]) == 0
        rec = json.load(open(out / "experiment.json"))
        rows = {r["kind"]: r for r in rec["bounds"]}
        assert rows["necessary"]["lower"] == pytest.approx(
            rows["coarse-norm"]["lower"], rel=1e-12)
        first = next(r["ratio"] for r in rec["trace"] if r["iteration"] == 1)
        assert first == pytest.approx(rows["coarse-norm"]["lower"], rel=1e-10)

    def test_non_normal_pair_past_dense_cap(self, tmp_path):
        # N_x * N_c = 4160 > DENSE_CAP: the coarse norm is matrix-free and
        # certified, and it seeds the worst-case error
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "advection-1d-upwind", "n": 64, "h": 1 / 64},
            fine={"scheme": "backward-euler", "dt": 0.01}, k=2, n_time=129,
            relaxations=["F", "FCF"], norms=["AstarA"], iterations=2,
            initial_error="worst-case")))
        assert 64 * 65 > st.DENSE_CAP
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--format", "json"]) == 0
        rec = json.load(open(out / "experiment.json"))
        assert not rec["meta"]["normal"]
        for relaxation in ("F", "FCF"):
            rows = {r["kind"]: r for r in rec["bounds"]
                    if r["relaxation"] == relaxation}
            cnorm = rows["coarse-norm"]
            assert cnorm["certified"] is True and cnorm["method"] == "lanczos"
            assert rows["necessary"]["lower"] == cnorm["lower"]
            first = next(r["ratio"] for r in rec["trace"]
                         if r["relaxation"] == relaxation
                         and r["iteration"] == 1)
            assert first == pytest.approx(cnorm["lower"], rel=1e-10)

    def test_run_builds_no_dense_block(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("dense coarse block built")

        monkeypatch.setattr(st, "coarse_defect_blocks", refuse)
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "advection-1d-upwind", "n": 4, "h": 0.25},
            fine={"scheme": "backward-euler", "dt": 0.05}, n_time=33,
            relaxations=["F", "FCF"], initial_error="worst-case")))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out),
                         "--format", "json"]) == 0
        rows = json.load(open(out / "experiment.json"))["bounds"]
        assert [r["method"] for r in rows if r["kind"] == "coarse-norm"] \
            == ["lanczos", "lanczos"]

    def test_fcf_singular_fine_power_non_normal_without_traceback(
            self, tmp_path, capsys):
        # forward Euler at dt * ell = -1 zeroes an eigenvalue of Phi^k; a
        # from-file operator has no attached eigenbasis, so the pair is
        # analysed as non-normal
        (tmp_path / "op.txt").write_text("-2 0\n0 -1\n")
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": str(tmp_path / "op.txt")},
            fine={"scheme": "forward-euler", "dt": 0.5},
            coarse={"scheme": "backward-euler", "dt": 1.0},
            relaxations=["F", "FCF"])))
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(path), "--out", str(out),
                         "--format", "json"])
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err
        rec = json.load(open(out / "experiment.json"))
        kinds = {rel: {r["kind"]: r for r in rec["bounds"]
                       if r["relaxation"] == rel} for rel in ("F", "FCF")}
        assert {"tap", "sufficient", "stability-decay"} <= set(kinds["F"])
        assert "slack_constant" in kinds["F"]["necessary"]
        assert "tap" in kinds["FCF"] and "sufficient" not in kinds["FCF"]
        assert "slack_constant" in kinds["FCF"]["necessary"]
        assert "coarse-norm" in kinds["FCF"]

    def test_run_does_not_import_scipy(self, tmp_path):
        # importing scipy.linalg would add about 26 MB to a run's peak memory
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            relaxations=["F", "FCF"], initial_error="worst-case")))
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(pintbounds.__file__)))
        script = ("import sys\n"
                  "from pintbounds import cli\n"
                  f"code = cli.main(['run', '--config', {str(path)!r}, '--out', "
                  f"{str(tmp_path / 'out')!r}, '--format', 'json'])\n"
                  "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                  "sys.exit(code)\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "[]"

    def test_missing_file_exits_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("overrides,key", [
        ({"tolerances": {"bound_margin": math.nan}}, "tolerances.bound_margin"),
        ({"tolerances": {"bound_margin": math.inf}}, "tolerances.bound_margin"),
        ({"tolerances": {"bound_margin": -1}}, "tolerances.bound_margin"),
        ({"fine": {"scheme": "backward-euler", "dt": math.nan}}, "dt"),
        ({"fine": {"scheme": "backward-euler", "dt": math.inf}}, "dt"),
        ({"coarse": {"scheme": "backward-euler", "dt": math.inf}}, "dt"),
    ], ids=["nan-margin", "inf-margin", "negative-margin", "nan-dt", "inf-dt",
            "inf-coarse-dt"])
    def test_non_finite_or_negative_value_exits_2(self, tmp_path, capsys,
                                                  overrides, key):
        # a NaN or infinite margin would switch every bound check off and a
        # negative one report false violations (exit 1); a non-finite dt
        # would fail later as an overflow or a singular solve
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config(
            initial_error="worst-case", **overrides)))
        assert cli.main(["run", "--config", str(path), "--out",
                         str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error")
        assert key in err[0]

    def test_unusable_paths_exit_2(self, tmp_path, capsys):
        # a config or matrix file that is a directory, and an output
        # directory that is a file, are configuration errors, not tracebacks
        # with the exit code of a bound violation
        good = tmp_path / "cfg.yaml"
        good.write_text(yaml.safe_dump(base_config()))
        matrix = tmp_path / "matrix.yaml"
        matrix.write_text(yaml.safe_dump(base_config(
            problem={"kind": "from-file", "path": str(tmp_path)})))
        taken = tmp_path / "taken"
        taken.write_text("")
        for argv in (["run", "--config", str(tmp_path)],
                     ["bounds", "--config", str(matrix)],
                     ["run", "--config", str(good), "--out", str(taken)]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("configuration error")

    def test_verify_filter(self, capsys):
        assert cli.main(["verify", "--filter", "schur"]) == 0
        assert "schur" in capsys.readouterr().out

    def test_bounds_command(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(base_config()))
        assert cli.main(["bounds", "--config", str(path)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(r["kind"] == "tap" for r in rows)


SCHEMES = ["forward-euler", "backward-euler", "theta", "rk4", "sdirk2"]


def _scheme(name, dt):
    section = {"scheme": name, "dt": dt}
    if name == "theta":
        section["theta"] = 0.6
    return section


class TestConfigFuzz:
    @settings(max_examples=25, deadline=None)
    @given(dim=hst.sampled_from([2, 3]), data=hst.data(),
           fine=hst.sampled_from(SCHEMES),
           coarse=hst.sampled_from(SCHEMES + ["rediscretized"]),
           dt=hst.floats(0.01, 1.0), k=hst.integers(1, 3),
           n_coarse=hst.integers(2, 6))
    def test_run_exits_cleanly_and_taps_bracket_the_oracle(
            self, dim, data, fine, coarse, dt, k, n_coarse):
        entries = data.draw(hst.lists(hst.floats(-4.0, 4.0), min_size=dim**2,
                                      max_size=dim**2))
        with tempfile.TemporaryDirectory() as tmp:
            op = os.path.join(tmp, "op.txt")
            with open(op, "w") as fh:
                for row in np.reshape(entries, (dim, dim)):
                    fh.write(" ".join(repr(float(v)) for v in row) + "\n")
            path = os.path.join(tmp, "cfg.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(base_config(
                    problem={"kind": "from-file", "path": op},
                    fine=_scheme(fine, dt),
                    coarse=(coarse if coarse == "rediscretized"
                            else _scheme(coarse, dt * k)),
                    k=k, n_time=k * (n_coarse - 1) + 1,
                    relaxations=["F", "FCF"]), fh)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["run", "--config", path, "--out", tmp,
                                 "--format", "json"])
                bounds_code = cli.main(["bounds", "--config", path])
            assert code in (0, 1, 2) and bounds_code in (0, 1, 2)
            assert "Traceback" not in err.getvalue()
            if code == 2:
                return
            with open(os.path.join(tmp, "experiment.json")) as fh:
                rec = json.load(fh)
            pair = harness.build_pair(harness.load_config(path))
        for row in rec["bounds"]:
            if row["kind"] != "tap" or not row["certified"]:
                continue
            samples, _ = phase_oracle(tap_samples(pair, row["relaxation"]))
            best = float(np.max(samples))
            assert best * (1 - 1e-12) <= row["lower"]
            assert best <= row["upper"] * (1 + 1e-12)
        grid = st.GridSpec(k * (n_coarse - 1) + 1, k)
        xs = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        for relaxation in ("F", "FCF"):
            for side in ("residual", "error"):
                # the necessary bound at p = 2 is the norm of the squared
                # block, up to the rounding of the dense I - A B^{-1}, which
                # scales with ||B^{-1}|| (1 + ||Phi^k||)
                block = dense_block(pair, grid, relaxation, side)
                dense = np.linalg.norm(block @ block, 2)
                scale = (np.linalg.norm(st.coarse_solve_operator(pair, grid), 2)
                         * (1.0 + np.linalg.norm(pair.fine_power, 2)))
                nb = tp.necessary_lower_bound(pair, grid, relaxation, 2, side)
                assert nb.available or dense == 0.0
                assert abs(nb.value - dense) <= 1e-12 * dense + 1e-13 * scale**2
            rows = {r["kind"]: r for r in rec["bounds"]
                    if r["relaxation"] == relaxation}
            symbol = rows.get("symbol")
            if symbol is None or not symbol["certified"]:
                continue
            sym = tp.build_symbol(pair, grid, relaxation)
            top = float(np.max(np.linalg.svd(sym(xs), compute_uv=False)[:, 0]))
            assert top <= symbol["upper"] * (1 + 1e-12)
            assert rows["coarse-norm"]["lower"] <= symbol["upper"] * (1 + 1e-12)


# R(z) = (1 + 3z/4) / (1 + z/4), with a pole at z = -4 that a Laplacian
# eigenvalue reaches at dt = -4 / ell
RATIONAL = {"numerator": [1.0, 0.75], "denominator": [1.0, 0.25]}


def _mode_scheme(name, dt):
    section = _scheme(name, dt)
    if name == "custom-rational":
        section.update(RATIONAL)
    return section


def _cli(argv, twin):
    """(exit code, standard output) of one command, with every pair made as
    its dense twin (attach_eig=False) when twin; a RuntimeWarning or a
    traceback fails the test."""
    make_pair = ops.make_pair
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        if twin:
            stack.enter_context(mock.patch.object(
                ops, "make_pair", lambda fine, coarse, k: make_pair(
                    fine, coarse, k, attach_eig=False)))
        caught = stack.enter_context(warnings.catch_warnings(record=True))
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "Traceback" not in err.getvalue()
    return code, out.getvalue()


def _twin_trace(pair, twin, cfg, relaxation):
    """{norm: values} of the dense twin's iteration from the U-image of the
    per-mode run's initial error: of the same random draw in mode
    coordinates, or the twin's solve of the per-mode worst-case vector."""
    sys = st.assemble_system(twin, st.GridSpec(cfg.n_time, cfg.k))
    u = ops.laplacian_basis(pair.dim)
    if cfg.initial_error == "worst-case":
        w = st.coarse_norm(pair, sys.grid, relaxation, with_vector=True)
        e = harness._worst_case_error(sys, physical_vector(u, w.vector))
    else:
        rng = np.random.default_rng(cfg.seed)
        for _ in range(cfg.relaxations.index(relaxation) + 1):
            e = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
        e = physical_vector(u, e / np.linalg.norm(e))
    values = {"l2": [], "AstarA": []}
    for i in range(cfg.iterations + 1):
        if i:
            e = st.apply_iteration(sys, relaxation, e)
        for norm, series in values.items():
            series.append(harness._vector_norm(e, norm, sys))
    return values


def _row_values(pair, grid):
    """{(relaxation, kind, key): value} of the bound rows of a pair."""
    decay = harness._stability_decay(pair, grid)
    return {(r["relaxation"], r["kind"], key): r[key]
            for relaxation in ("F", "FCF")
            for r in harness._bound_rows(pair, grid, relaxation, decay=decay)
            for key in ("lower", "upper")}


def _eigenvalue_rounding(stepper):
    """Bound on the rounding of each eigenvalue R(z) of a per-mode stepper,
    z = dt ell, from that of ell and of the evaluation: 64 eps times the
    size of the numerator's terms and |R| times the denominator's, over
    |q(z)|."""
    num, den = ops.rational_coefficients(stepper.scheme)
    z = stepper.scheme.dt * stepper.source.eigenvalues
    size = lambda coeffs: sum(abs(c) * np.abs(z) ** i
                              for i, c in enumerate(coeffs))
    q = np.abs(sum(c * z ** i for i, c in enumerate(den)))
    eps = np.finfo(float).eps
    return 64.0 * eps * (size(num) + np.abs(stepper.values) * size(den)) / q


def _rounding_floor(pair, grid):
    """{(relaxation, kind, key): the largest change of a per-mode row when
    every lambda and mu moves by its rounding}, over a few random
    directions; infinite for a row that such a move adds or drops."""
    rng = np.random.default_rng(0)
    eig = pair.shared_eig
    base = _row_values(pair, grid)
    floor = dict.fromkeys(base, 0.0)
    for _ in range(4):
        turn = np.exp(2j * np.pi * rng.random((2, pair.dim)))
        lam = eig.fine_values + _eigenvalue_rounding(pair.fine) * turn[0]
        mu = eig.coarse_values + _eigenvalue_rounding(pair.coarse) * turn[1]
        mu = np.where(np.abs(mu) < 1.0, mu, eig.coarse_values)
        moved = _row_values(dataclasses.replace(pair, shared_eig=(
            dataclasses.replace(eig, fine_values=lam, coarse_values=mu))),
            grid)
        for key, value in base.items():
            change = abs(moved[key] - value) if key in moved else math.inf
            floor[key] = max(floor[key], 0.0 if value == moved.get(key)
                             else change)
    return floor


class TestModeFuzz:
    """Laplacian configs run per mode and as their dense twin: the same
    exit codes, no traceback or RuntimeWarning, and the same rows and
    traces up to the rounding of the dense computation."""

    @settings(max_examples=30, deadline=None)
    @given(n=hst.integers(1, 6), fine=hst.sampled_from(SCHEMES + [
               "custom-rational"]),
           coarse=hst.sampled_from(SCHEMES + ["custom-rational",
                                              "rediscretized"]),
           dt=hst.floats(1e-3, 1.0), pole=hst.booleans(),
           mode=hst.integers(0, 5), k=hst.integers(1, 3),
           n_coarse=hst.integers(2, 6),
           initial_error=hst.sampled_from(["random", "worst-case"]))
    def test_per_mode_pair_matches_its_dense_twin(
            self, n, fine, coarse, dt, pole, mode, k, n_coarse,
            initial_error):
        h = 1.0 / (n + 1)
        if pole and "custom-rational" in (fine, coarse):
            # dt ell_m at the pole, for the fine or else the coarse scheme
            ell = ops.build_spatial("laplacian-1d-dirichlet", n, h).eigenvalues
            dt = -4.0 / float(ell[mode % n].real)
            if fine != "custom-rational":
                dt /= k
        data = base_config(
            problem={"kind": "laplacian-1d-dirichlet", "n": n, "h": h},
            fine=_mode_scheme(fine, dt),
            coarse=(coarse if coarse == "rediscretized"
                    else _mode_scheme(coarse, dt * k)),
            k=k, n_time=k * (n_coarse - 1) + 1, relaxations=["F", "FCF"],
            initial_error=initial_error)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cfg.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(data, fh)
            runs, rows = [], []
            for twin in (False, True):
                out = os.path.join(tmp, str(twin))
                code, _ = _cli(["run", "--config", path, "--out", out,
                                "--format", "json"], twin)
                bounds_code, text = _cli(["bounds", "--config", path], twin)
                assert bounds_code in (0, 2)
                runs.append(code)
                rows.append(json.loads(text) if bounds_code == 0 else None)
            assert runs[0] == runs[1] and runs[0] in (0, 1, 2)
            assert (rows[0] is None) == (rows[1] is None)
            if runs[0] == 2:
                return
            with open(os.path.join(tmp, "False", "experiment.json")) as fh:
                rec = json.load(fh)
        cfg = harness.ExperimentConfig.from_dict(data)
        pair = harness.build_pair(cfg)
        twin = ops.make_pair(pair.fine, pair.coarse, k, attach_eig=False)
        grid = st.GridSpec(cfg.n_time, k)
        top = (lambda m: np.linalg.svd(m, compute_uv=False)[0])
        # the twin forms D = Psi - Phi^k, which cancels by (||Psi|| +
        # ||Phi^k||) / ||D||, and its FCF stability factor solves with
        # Phi^k; the per-mode rows move by what the rounding of lambda and
        # mu can move them
        defect = top(twin.coarse_defect)
        cancel = ((top(twin.coarse.matrix) + top(twin.fine_power)) / defect
                  if defect else math.inf)
        sv = twin.fine_power_sv
        solve = sv.max() / sv.min() if sv.min() else math.inf
        floor = _rounding_floor(pair, grid) if pair.normal else {}
        twin_rows = {(r["relaxation"], r["kind"]): r for r in rows[1]}
        for row in rows[0]:
            other = twin_rows.get((row["relaxation"], row["kind"]))
            if other is None:
                assert row["kind"] == "diagonalizable-bracket"
                continue
            cond = 1.0 if row["kind"] == "stability-decay" else cancel
            if row["relaxation"] == "FCF" and row["kind"] in (
                    "stability-decay", "sufficient"):
                cond = max(cond, solve)
            for key in ("lower", "upper"):
                a, b = row[key], other[key]
                # the twin's uppers are certified to 2 TOL above its values
                tol = 1e-12 * cond + (2.0 * tap.TOL if key == "upper" else 0.0)
                slack = 2.0 * floor.get((row["relaxation"], row["kind"], key),
                                        0.0)
                assert a == b or abs(a - b) <= tol * max(abs(a), abs(b)) + slack
        if not pair.normal:
            return
        # an unstable Phi amplifies the rounding of either iteration by up
        # to ||Phi|| a step, and A e then cancels by up to 1 + ||Phi||
        phi = pair.fine.norm
        growth = 0.0 if phi <= 1.0 else phi ** (cfg.n_time - 1)
        for relaxation in cfg.relaxations:
            want = _twin_trace(pair, twin, cfg, relaxation)
            for norm, series in want.items():
                got = [r["value"] for r in rec["trace"]
                       if r["relaxation"] == relaxation and r["norm"] == norm]
                loss = growth * (1.0 + phi if norm == "AstarA" else 1.0)
                scale = np.maximum(np.maximum.accumulate(series),
                                   loss * np.maximum.accumulate(want["l2"]))
                assert np.all(np.abs(np.subtract(got, series))
                              <= 1e-12 * scale)
