import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as hst

from helpers import phase_oracle, raw_pair, tap_samples

import pintbounds
from pintbounds import cli, harness
from pintbounds import operators as ops
from pintbounds import spacetime as st
from pintbounds import tap
from pintbounds import toeplitz as tp


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

    @pytest.mark.parametrize("k", [2, 1])
    def test_roundoff_is_not_a_violation(self, k):
        # FCF is exact after a few sweeps: the error drops to round-off and
        # the ratio of two round-off errors is about 1
        cfg = harness.ExperimentConfig.from_dict(base_config(
            k=k, n_time=9, relaxations=["FCF"], norms=["AstarA"],
            iterations=4, initial_error="worst-case", seed=7))
        rec = harness.run_experiment(cfg)
        values = [r["value"] for r in rec.trace]
        assert min(values[1:]) <= 1e-14 * values[0]
        assert max(r["ratio"] for r in rec.trace[2:]) > 0.5
        assert rec.violations == []

    def test_fcf_bracket_lower_end_below_coarse_norm(self):
        cfg = harness.ExperimentConfig.from_dict(base_config(
            problem={"kind": "laplacian-1d-dirichlet", "n": 12, "h": 1 / 13},
            fine={"scheme": "sdirk2", "dt": 2e-3}, k=4, n_time=257,
            relaxations=["FCF"]))
        pair = harness.build_pair(cfg)
        rows, _ = harness._bound_rows(pair, st.GridSpec(257, 4), "FCF")
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
        rows, _ = harness._bound_rows(pair, st.GridSpec(cfg.n_time, 2),
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
        rows, _ = harness._bound_rows(pair, grid, relaxation)
        assert len(calls) == 1
        rows = {r["kind"]: r for r in rows}
        slack = rows["necessary"]["slack_constant"]
        assert np.isfinite(slack)
        nb = tp.necessary_lower_bound(pair, grid, relaxation)
        expected = (rows["tap"]["lower"] / nb.value - 1) * np.sqrt(grid.n_coarse)
        assert slack == pytest.approx(expected, rel=1e-12)

    def test_singular_fine_power_drops_only_fcf_rows(self):
        # forward Euler at dt * ell = -1 zeroes one eigenvalue of Phi^k; only
        # the FCF stability factor needs Phi^{-k}
        values = np.array([-2.0, -1.0], dtype=complex)
        eye = np.eye(2, dtype=complex)
        spatial = ops.SpatialOperator(np.diag(values), "diagonal",
                                      ops.Eigendecomposition(values, eye, eye))
        fine = ops.build_stepper(spatial, ops.SchemeSpec("forward-euler", 0.5))
        coarse = ops.build_stepper(spatial,
                                   ops.SchemeSpec("backward-euler", 1.0))
        pair = ops.make_pair(fine, coarse, 2)
        grid = st.GridSpec(17, 2)
        amp, fcf_amp = tap.stability_decay(pair, grid)
        assert fcf_amp is None
        rows, tap_res = harness._bound_rows(pair, grid, "F")
        rows = {r["kind"]: r for r in rows}
        assert rows["stability-decay"]["lower"] == amp
        assert rows["sufficient"]["upper"] == tap_res.value * (1 + amp)

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

    def test_modified_norm_needs_eigendecomposition(self):
        cfg = harness.ExperimentConfig.from_dict(base_config(
            problem={"kind": "advection-1d-upwind", "n": 3, "h": 0.25},
            norms=["modified"]))
        with pytest.raises(harness.ConfigError, match="shared"):
            harness.run_experiment(cfg)


ROW_KINDS = ["tap", "sufficient", "stability-decay", "necessary", "coarse-norm",
             "symbol", "diagonalizable-bracket"]


class TestNormalPairPath:
    """A normal pair's rows come from closed forms and one tridiagonal kernel
    pass per relaxation; no phase is swept."""

    @pytest.fixture
    def no_sweep(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("phase sweep on the normal-pair path")

        monkeypatch.setattr(tap, "_extremum_over_phases", refuse)
        monkeypatch.setattr(tp, "build_symbol", refuse)
        monkeypatch.setattr(tp, "symbol_max_sv", refuse)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        original = st.tridiag_min_eig

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(st, "tridiag_min_eig", counted)
        monkeypatch.setattr(tp, "tridiag_min_eig", counted)
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
        assert len(kernel_calls) == 1

    @pytest.mark.parametrize("initial_error", ["random", "worst-case"])
    def test_one_kernel_pass_per_relaxation_in_run(self, initial_error,
                                                   kernel_calls):
        # run passes its coarse norm to the bound rows
        cfg = harness.ExperimentConfig.from_dict(base_config(
            relaxations=["F", "FCF"], initial_error=initial_error))
        harness.run_experiment(cfg)
        assert len(kernel_calls) == 2

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
        rows, _ = harness._bound_rows(pair, st.GridSpec(2 * n_coarse - 1, 2),
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
    ], ids=["unknown-kind", "negative-dt", "non-integer-k", "malformed-yaml",
            "overflowing-coarse-power"])
    def test_bad_config_exits_2_without_traceback(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(pintbounds.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "pintbounds.cli", "run", "--config",
             str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "configuration error" in proc.stderr

    def test_singular_coarse_stepper_without_traceback(self, tmp_path):
        # upwind at Courant number 1 with a forward-Euler coarse step: Psi is
        # the nilpotent shift, so the pseudoinverse path is unavailable
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
        assert "tap" in kinds and "necessary" not in kinds

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
        assert not {"tap", "sufficient"} & set(kinds["FCF"])
        assert "slack_constant" not in kinds["FCF"].get("necessary", {})
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
            assert code in (0, 1, 2)
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
