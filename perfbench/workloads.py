"""The benchmark's workloads.

A workload is a fixed list of cases. `setup` writes the cases' configs, loads
them and builds their stepper pairs; `reference` computes what each case's
output must equal with the numpy code in reference.py; `ops` runs each case
once through a public entry point of pintbounds; `check` judges one op's
output. The seed changes only the inputs (time steps, random seeding); the
amount of work per pass stays the same, so timings of different seeds compare.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import numpy as np
import yaml

from pintbounds import cli, harness, toeplitz

import reference as ref

# relative tolerances of the checks; each sits well above the largest gap
# measured between program and reference, and well below any real change
RTOL_NORM = 1e-10     # dense or per-mode norm against a reference norm
RTOL_ORDER = 1e-12    # slack in an inequality two exact quantities satisfy
RTOL_SWEEP = 1e-5     # refined TAP against the maximum of a 4096-point grid
ROUNDOFF = 1e-12      # error (relative to the initial one) below which a
                      # ratio measures round-off, not convergence


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _config(kind, n, h, scheme, dt, k, n_coarse, relaxations, norms,
            initial_error, seed, velocity=None):
    problem = {"kind": kind, "n": n, "h": h}
    if velocity is not None:
        problem["velocity"] = velocity
    return {"problem": problem, "fine": {"scheme": scheme, "dt": dt},
            "coarse": "rediscretized", "k": k, "n_time": (n_coarse - 1) * k + 1,
            "relaxations": list(relaxations), "norms": list(norms),
            "iterations": 4, "initial_error": initial_error, "seed": seed}


class Workload:
    """Cases given as configs; subclasses say how each case runs and is
    checked."""

    def __init__(self, seed: int, out_dir: str):
        self.seed = seed
        self.out_dir = out_dir
        self.rng = random.Random(seed)
        self.configs = self.cases()      # name -> config mapping
        self.paths = {}
        self.pairs = {}

    def cases(self) -> dict:
        raise NotImplementedError

    def jitter(self, value: float) -> float:
        """value scaled by a seeded factor in [0.9, 1.1)."""
        return value * (1.0 + 0.2 * (self.rng.random() - 0.5))

    def coarse_points(self, name: str) -> int:
        c = self.configs[name]
        return (c["n_time"] - 1) // c["k"] + 1

    def setup(self):
        """Write and load every config and build its stepper pair."""
        os.makedirs(self.out_dir, exist_ok=True)
        for name, data in self.configs.items():
            path = os.path.join(self.out_dir, name + ".yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(data, fh)
            self.paths[name] = path
            self.pairs[name] = harness.build_pair(harness.load_config(path))


class RunWorkload(Workload):
    """Each op is one `pintbounds run --format json` of a case, in-process;
    its output is the exit code and the written experiment.json."""

    # the case whose failure is a known fault of the program; see README
    known_failure = None

    def ops(self):
        return [(name, self._runner(name)) for name in self.configs]

    def _runner(self, name):
        out = os.path.join(self.out_dir, name)
        argv = ["run", "--config", self.paths[name], "--out", out,
                "--format", "json"]
        path = os.path.join(out, "experiment.json")

        def op():
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, path

        return op

    def check(self, name, result):
        """(failed, problems) for one op; problems name wrong outputs of ops
        that did not fail, or a failure other than the known one."""
        code, path = result
        if code not in (0, 1):   # exit 2 writes no report
            return True, [f"{name}: exit {code}"]
        with open(path) as fh:
            rec = json.load(fh)
        if code != 0 or rec["violations"]:
            if name != self.known_failure:
                return True, [f"{name}: exit {code}, {rec['violations']}"]
            return True, [f"{name}: {p}" for p in _not_roundoff(rec)]
        problems = []
        for relaxation in self.configs[name]["relaxations"]:
            rows = {r["kind"]: r for r in rec["bounds"]
                    if r["relaxation"] == relaxation}
            problems += [f"{name}/{relaxation}: {p}"
                         for p in self.check_rows(name, relaxation, rows, rec)]
        return False, problems


def _not_roundoff(rec) -> list:
    """Reasons a failed run is not the known round-off fault, in which every
    violation is an A*A ratio above the sufficient bound whose previous error
    is already at round-off level."""
    if not rec["violations"] or not all("exceeds sufficient bound" in v
                                        for v in rec["violations"]):
        return [f"violations {rec['violations']}"]
    suff = {r["relaxation"]: r["upper"] for r in rec["bounds"]
            if r["kind"] == "sufficient"}
    values = {}
    for row in rec["trace"]:
        if row["norm"] == "AstarA":
            values.setdefault(row["relaxation"], {})[row["iteration"]] = row["value"]
    bad = []
    for relaxation, v in values.items():
        for i in range(2, len(v)):
            if (v[i] > suff[relaxation] * v[i - 1] * (1 + 1e-8)
                    and v[i - 1] > ROUNDOFF * v[0]):
                bad.append(f"{relaxation} iteration {i}: ratio above the bound "
                           "with the error not at round-off")
    return bad


class HeatDense(RunWorkload):
    """Laplacian heat pairs with worst-case seeding: dense coarse blocks of
    order N_x*N_c in the high hundreds, TAP by the eigenvalue path."""

    known_failure = "roundoff"

    def cases(self):
        return {
            "be16": _config("laplacian-1d-dirichlet", 16, 1.0 / 17,
                            "backward-euler", self.jitter(0.001), 8, 49,
                            ("F", "FCF"), ("l2", "AstarA"), "worst-case",
                            self.seed),
            "sdirk12": _config("laplacian-1d-dirichlet", 12, 1.0 / 13,
                               "sdirk2", self.jitter(0.002), 4, 65,
                               ("F", "FCF"), ("l2", "AstarA"), "worst-case",
                               self.seed),
            # a fixed input: its error hits round-off at iteration 3
            "roundoff": _config("laplacian-1d-dirichlet", 4, 0.2,
                                "backward-euler", 0.02, 2, 5, ("FCF",),
                                ("AstarA",), "worst-case", 7),
        }

    def reference(self):
        self.refs = {}
        for name, c in self.configs.items():
            lam, mu = ref.heat_modes(c["problem"]["n"], c["problem"]["h"],
                                     c["fine"]["scheme"], c["fine"]["dt"], c["k"])
            nc = self.coarse_points(name)
            for relaxation in c["relaxations"]:
                self.refs[name, relaxation] = (
                    ref.per_mode_norm(lam, mu, c["k"], nc, relaxation),
                    ref.teap(lam, mu, c["k"], relaxation))

    def check_rows(self, name, relaxation, rows, rec):
        norm, teap = self.refs[name, relaxation]
        cn = rows["coarse-norm"]["lower"]
        bracket = rows["diagonalizable-bracket"]
        first = next(r["ratio"] for r in rec["trace"]
                     if r["relaxation"] == relaxation and r["norm"] == "AstarA"
                     and r["iteration"] == 1)
        problems = []
        if not _close(cn, norm, RTOL_NORM):
            problems.append(f"coarse-norm {cn!r} != per-mode reference {norm!r}")
        if not _close(first, cn, RTOL_NORM):
            problems.append(f"first worst-case ratio {first!r} != coarse-norm {cn!r}")
        if not _close(rows["tap"]["lower"], teap, RTOL_NORM):
            problems.append(f"tap {rows['tap']['lower']!r} != TEAP {teap!r}")
        # the bracket is proven for N_c >= 10; its FCF lower end is left out
        # because the program computes it with N_c, while a mode's FCF block
        # is |lambda^k| times its F block at N_c - 1 (README, known faults)
        if self.coarse_points(name) >= 10:
            if relaxation == "F" and bracket["lower"] > cn * (1 + RTOL_ORDER):
                problems.append(f"bracket lower {bracket['lower']!r} above "
                                f"coarse-norm {cn!r}")
            if cn > bracket["upper"] * (1 + RTOL_ORDER):
                problems.append(f"bracket upper {bracket['upper']!r} below "
                                f"coarse-norm {cn!r}")
        return problems


class AdvectionNonnormal(RunWorkload):
    """Upwind advection pairs with random seeding: no shared eigenbasis, so
    the TAP comes from the phase sweep and the vector ascent; small blocks."""

    def cases(self):
        return {
            "upwind4": _config("advection-1d-upwind", 4, 0.25, "backward-euler",
                               0.05, 2, 17, ("F", "FCF"), ("l2", "AstarA"),
                               "random", self.seed, velocity=1.0),
            "upwind8": _config("advection-1d-upwind", 8, 0.125, "backward-euler",
                               0.02, 4, 33, ("F", "FCF"), ("l2", "AstarA"),
                               "random", self.seed, velocity=1.0),
        }

    def reference(self):
        self.refs = {}
        for name, c in self.configs.items():
            p = c["problem"]
            phi_k, psi = ref.implicit_steppers(
                ref.upwind(p["n"], p["h"], p["velocity"]), c["fine"]["dt"], c["k"])
            nc = self.coarse_points(name)
            for relaxation in c["relaxations"]:
                self.refs[name, relaxation] = (
                    ref.dense_coarse_norm(phi_k, psi, nc, relaxation),
                    ref.tap_phase_samples(phi_k, psi, relaxation))

    def check_rows(self, name, relaxation, rows, rec):
        norm, samples = self.refs[name, relaxation]
        cn = rows["coarse-norm"]["lower"]
        tap = rows["tap"]["lower"]
        nec = rows["necessary"]["lower"]
        top = float(np.max(samples))
        problems = []
        if not _close(cn, norm, RTOL_NORM):
            problems.append(f"coarse-norm {cn!r} != dense reference {norm!r}")
        if tap < top * (1 - RTOL_ORDER):
            problems.append(f"tap {tap!r} below a phase sample {top!r}")
        if tap > top * (1 + RTOL_SWEEP):
            problems.append(f"tap {tap!r} above the sweep maximum {top!r}")
        if nec > cn * (1 + RTOL_ORDER):
            problems.append(f"necessary {nec!r} above coarse-norm {cn!r}")
        return problems


class HorizonSweep(Workload):
    """Exact per-mode coarse norms of one normal pair over growing horizons
    N_c, through the tridiagonal reduction; no dense block is built."""

    n_coarse = (64, 128, 256, 512, 1024)
    eigvalsh_max = 256   # largest N_c checked by a dense eigensolver

    def cases(self):
        # only the pair is used; the ops choose N_c themselves
        return {"sdirk16": _config("laplacian-1d-dirichlet", 16, 1.0 / 17,
                                   "sdirk2", self.jitter(0.002), 4, 64,
                                   ("F",), ("AstarA",), "worst-case", self.seed)}

    def ops(self):
        pair = self.pairs["sdirk16"]
        lam, mu = pair.shared_eig.fine_values, pair.shared_eig.coarse_values
        k = pair.k

        def runner(nc):
            def op():
                spec = toeplitz.TimeDepSpec(np.tile(lam, (k * (nc - 1), 1)),
                                            np.tile(mu, (nc - 1, 1)), k)
                exact, gershgorin = toeplitz.timedep_exact_norm(spec)
                return exact, gershgorin, toeplitz.diag_bounds(lam, mu, k, nc)
            return op

        return [(f"nc{nc}", runner(nc)) for nc in self.n_coarse]

    def reference(self):
        c = self.configs["sdirk16"]
        lam, mu = ref.heat_modes(c["problem"]["n"], c["problem"]["h"],
                                 c["fine"]["scheme"], c["fine"]["dt"], c["k"])
        self.refs = {}
        for nc in self.n_coarse:
            if nc == self.n_coarse[0]:
                self.refs[f"nc{nc}", "dense"] = ref.per_mode_norm(
                    lam, mu, c["k"], nc, "F")
            if nc <= self.eigvalsh_max:
                self.refs[f"nc{nc}", "eigvalsh"] = ref.horizon_gram_norm(
                    lam, mu, c["k"], nc)

    def check(self, name, result):
        exact, gershgorin, db = result
        problems = []
        if not (db.lower <= exact * (1 + RTOL_ORDER)
                and exact <= db.upper * (1 + RTOL_ORDER)):
            problems.append(f"{name}: exact {exact!r} outside "
                            f"[{db.lower!r}, {db.upper!r}]")
        if exact > gershgorin * (1 + RTOL_ORDER):
            problems.append(f"{name}: Gershgorin {gershgorin!r} below exact {exact!r}")
        for kind in ("dense", "eigvalsh"):
            want = self.refs.get((name, kind))
            if want is not None and not _close(exact, want, RTOL_NORM):
                problems.append(f"{name}: exact {exact!r} != {kind} reference {want!r}")
        return False, problems


WORKLOADS = {"heat-dense": HeatDense, "advection-nonnormal": AdvectionNonnormal,
             "horizon-sweep": HorizonSweep}
