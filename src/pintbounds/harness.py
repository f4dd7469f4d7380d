"""Configuration-driven experiment runner.

Loads a strict YAML config, builds the fine/coarse stepper pair, runs
two-level iterations through the matrix-free action path, measures observed
convergence ratios in the requested norms, computes every applicable bound,
and emits machine-readable CSV/JSON reports. Also hosts the verify suite
driving each module's invariants.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import operators as ops
from . import spacetime as st
from . import tap as tap_mod
from . import toeplitz as tp
from .tridiag import tridiag_min_eig, tridiag_stack_min

RATIO_FLOOR = 1e-300
# a ratio whose previous error is at most this times the series' initial
# error measures round-off, not convergence, and is not checked
ROUNDOFF_FLOOR = 1e3 * np.finfo(float).eps


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration

_PROBLEM_KEYS = {"kind", "n", "h", "velocity", "path"}
_SCHEME_KEYS = {"scheme", "dt", "theta", "numerator", "denominator"}
_TOP_KEYS = {"problem", "fine", "coarse", "k", "n_time", "relaxations",
             "norms", "iterations", "initial_error", "seed", "tolerances"}
_TOL_KEYS = {"bound_margin"}


def _require_keys(section: dict, allowed: set, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _convert(value, convert, where: str):
    """convert(value) for a numeric config value. A bool, which int() and
    float() read as 0 or 1, is a ConfigError, as is a value convert
    refuses."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: must be a number, not {value!r}")
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _integer(value, where: str) -> int:
    """value as an int. A float with a fractional part, which int()
    truncates, is a ConfigError, as is a non-finite float."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}: must be an integer, not {value!r}")
    return _convert(value, int, where)


def _list(value, where: str) -> list:
    """value, a non-empty list, and not a bare string, which tuple() splits."""
    if not (isinstance(value, list) and value):
        raise ConfigError(f"{where}: must be a non-empty list, not {value!r}")
    return value


def _entries(data: dict, key: str, default: list, allowed: tuple) -> tuple:
    """The entries of allowed listed under key (default when absent), each
    once: a repeated one would have its rows computed and reported twice."""
    entries = _list(data.get(key, default), key)
    for entry in entries:
        if entry not in allowed:
            raise ConfigError(f"{key}: unknown entry {entry!r}")
    if len(set(entries)) < len(entries):
        raise ConfigError(f"{key}: repeated entry in {entries!r}")
    return tuple(entries)


@dataclass(frozen=True)
class ExperimentConfig:
    problem: dict
    fine: dict
    coarse: object           # dict or the literal "rediscretized"
    k: int
    n_time: int
    relaxations: tuple
    norms: tuple
    iterations: int
    initial_error: str
    seed: int
    bound_margin: float
    raw: dict

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        _require_keys(data, _TOP_KEYS, "config")
        for key in ("problem", "fine", "k", "n_time", "iterations"):
            if key not in data:
                raise ConfigError(f"config: missing required key {key!r}")
        _require_keys(data["problem"], _PROBLEM_KEYS, "problem")
        _require_keys(data["fine"], _SCHEME_KEYS, "fine")
        coarse = data.get("coarse", "rediscretized")
        if coarse != "rediscretized":
            _require_keys(coarse, _SCHEME_KEYS, "coarse")
        k = _integer(data["k"], "k")
        n_time = _integer(data["n_time"], "n_time")
        if k < 1:
            raise ConfigError("k: must be positive")
        if n_time < 2 or (n_time - 1) % k != 0:
            raise ConfigError("n_time: (n_time - 1) must be divisible by k")
        iterations = _integer(data["iterations"], "iterations")
        if iterations < 2:
            raise ConfigError("iterations: need at least 2 (one is excluded "
                              "from bound checks)")
        relaxations = _entries(data, "relaxations", ["F"], ("F", "FCF"))
        norms = _entries(data, "norms", ["l2", "AstarA"],
                         ("l2", "AstarA", "modified"))
        initial_error = data.get("initial_error", "random")
        if initial_error not in ("random", "worst-case"):
            raise ConfigError(f"initial_error: unknown mode {initial_error!r}")
        tols = data.get("tolerances", {})
        _require_keys(tols, _TOL_KEYS, "tolerances")
        margin = _convert(tols.get("bound_margin", 1e-8), float,
                          "tolerances.bound_margin")
        # a NaN margin would make every bound comparison false, and a
        # negative one report violations that do not hold
        if not (math.isfinite(margin) and margin >= 0.0):
            raise ConfigError("tolerances.bound_margin: must be finite and "
                              "non-negative")
        seed = _integer(data.get("seed", 0), "seed")
        if seed < 0:
            raise ConfigError("seed: must be non-negative")
        return ExperimentConfig(
            problem=dict(data["problem"]), fine=dict(data["fine"]),
            coarse=coarse if coarse == "rediscretized" else dict(coarse),
            k=k, n_time=n_time, relaxations=relaxations, norms=norms,
            iterations=iterations, initial_error=initial_error,
            seed=seed, bound_margin=margin, raw=data)


# libyaml's parser when pyyaml was built with it: the same safe
# constructor and resolver, parsed in C
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: malformed YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: config must be a mapping")
    return ExperimentConfig.from_dict(data)


def _build_scheme(section: dict, where: str) -> ops.SchemeSpec:
    """The scheme of the config section named where ("fine" or "coarse")."""
    if "scheme" not in section or "dt" not in section:
        raise ConfigError(f"{where}: needs 'scheme' and 'dt'")
    kw = {}
    if "theta" in section:
        kw["theta"] = _convert(section["theta"], float, f"{where}.theta")
    for key in ("numerator", "denominator"):
        if key in section:
            name = f"{where}.{key}"
            kw[key] = tuple(_convert(c, float, f"{name}[{i}]") for i, c
                            in enumerate(_list(section[key], name)))
    return ops.SchemeSpec(section["scheme"],
                          _convert(section["dt"], float, f"{where}.dt"), **kw)


def build_pair(cfg: ExperimentConfig) -> ops.StepperPair:
    """The configured stepper pair; an operator, scheme or stepper that the
    config asks for but that cannot be built is a ConfigError."""
    prob = cfg.problem
    n = _integer(prob.get("n", 1), "problem.n")
    h = _convert(prob.get("h", 1.0), float, "problem.h")
    # an infinite h would give the zero operator
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigError("problem.h: must be finite and positive")
    velocity = _convert(prob.get("velocity", 1.0), float, "problem.velocity")
    if not math.isfinite(velocity):
        raise ConfigError("problem.velocity: must be finite")
    try:
        spatial = ops.build_spatial(
            prob.get("kind", "laplacian-1d-dirichlet"), n, h,
            velocity=velocity, path=prob.get("path"))
        fine_scheme = _build_scheme(cfg.fine, "fine")
        if cfg.coarse == "rediscretized":
            coarse_scheme = ops.SchemeSpec(
                fine_scheme.kind, fine_scheme.dt * cfg.k, theta=fine_scheme.theta,
                numerator=fine_scheme.numerator,
                denominator=fine_scheme.denominator)
        else:
            coarse_scheme = _build_scheme(cfg.coarse, "coarse")
        fine = ops.build_stepper(spatial, fine_scheme)
        coarse = ops.build_stepper(spatial, coarse_scheme)
        return ops.make_pair(fine, coarse, cfg.k)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# records

@dataclass
class ExperimentRecord:
    config: dict
    seed: int
    meta: dict
    trace: list           # rows: iteration, relaxation, norm, value, ratio
    bounds: list          # rows: relaxation, kind, lower, upper, certified
    excluded: list        # (relaxation, norm, iteration) not checked
    violations: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"config": self.config, "seed": self.seed, "meta": self.meta,
                "trace": self.trace, "bounds": self.bounds,
                "excluded": self.excluded, "violations": self.violations}


def _vector_norm(e: np.ndarray, norm: str, sys: st.SpaceTimeSystem) -> float:
    """||A e|| for AstarA, else ||e||, of a vector in the coordinates of sys.
    The modified norm ||(I x U^*) e|| is asked for only of a normal pair,
    whose vectors hold those mode coordinates (U unitary), so it is their
    l2 norm."""
    if norm == "AstarA":
        e = st.apply_full(sys, e)
    return float(np.linalg.norm(e))


def _worst_case_error(sys: st.SpaceTimeSystem, w: np.ndarray) -> np.ndarray:
    """Initial error whose first measured A*A ratio equals the norm of the
    coarse-level propagation block: P_ideal A_Delta^{-1} w, w its leading
    right singular vector, which is A^{-1} of w injected at the C-points."""
    nx = sys.pair.dim
    rhs = np.zeros((sys.grid.n_time, nx), dtype=w.dtype)
    rhs[::sys.grid.k] = w.reshape(-1, nx)
    return sys.fine_solver.solve(rhs)


def _stability_decay(pair: ops.StepperPair, grid: st.GridSpec):
    """tap.stability_decay; a Phi^k or Psi^N_c that overflows is a
    ConfigError."""
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(pair.fine_power_sv if pair.normal
                             else pair.fine_power).all()
    if not finite:
        raise ConfigError(f"Phi^k overflows at k = {pair.k}")
    decay = tap_mod.stability_decay(pair, grid)
    if math.isinf(decay[0]):
        raise ConfigError(f"Psi^N_c overflows at N_c = {grid.n_coarse}")
    return decay


def _bound_rows(pair: ops.StepperPair, grid: st.GridSpec, relaxation: str,
                cnorm: st.CoarseNorm | None = None, decay=None):
    """All applicable bounds for one relaxation scheme; cnorm is the coarse
    block norm and decay the stability decay when the caller already has
    them."""
    rows = []
    if decay is None:
        decay = _stability_decay(pair, grid)
    # the FCF factor needs Phi^{-k}: it is None when Phi^k is singular, and
    # the sufficient bound built on it is left out too
    amp = decay[relaxation == "FCF"]
    tap_res = tap_mod.tap_constant(pair, relaxation)
    rows.append({"relaxation": relaxation, "kind": "tap",
                 "lower": tap_res.value, "upper": tap_res.upper,
                 "certified": tap_res.certified, "method": tap_res.method})
    if amp is not None:
        rows.append({"relaxation": relaxation, "kind": "sufficient",
                     "lower": 0.0, "upper": tap_res.upper * (1.0 + amp),
                     "certified": tap_res.certified, "method": tap_res.method})
        rows.append({"relaxation": relaxation, "kind": "stability-decay",
                     "lower": amp, "upper": amp, "certified": True})
    if cnorm is None:
        cnorm = st.coarse_norm(pair, grid, relaxation)
    # the necessary bound at p = 1 is the coarse norm itself, available
    # wherever the block is not zero
    if st.block_rows(grid, relaxation) > 0:
        # a coarse norm past the floating-point range certifies nothing
        row = {"relaxation": relaxation, "kind": "necessary",
               "lower": cnorm.value, "upper": math.inf,
               "certified": math.isfinite(cnorm.value)}
        if (0.0 < cnorm.value < math.inf and math.isfinite(tap_res.value)
                and pair.coarse.spectrally_stable):
            # the gap to the approximation constant, scaled by sqrt(N_c);
            # none when Psi = Phi^k makes the coarse block zero, when
            # either side is past the floating-point range, or when Psi is
            # not spectrally stable, where the TAP is no convergence factor
            row["slack_constant"] = ((tap_res.value / cnorm.value - 1.0)
                                     * math.sqrt(grid.n_coarse))
        rows.append(row)
    rows.append({"relaxation": relaxation, "kind": "coarse-norm",
                 "lower": cnorm.value,
                 "upper": cnorm.upper if cnorm.certified else math.inf,
                 "certified": cnorm.certified, "method": cnorm.method})
    # a normal pair's symbol splits into scalar modes with a closed-form
    # maximum; any other symbol is bounded from its coefficient blocks
    if pair.normal:
        upper = tp.normal_symbol_max(pair, grid, relaxation)
        certified, method = True, "closed-form"
    else:
        res = tp.symbol_max_sv(tp.build_symbol(pair, grid, relaxation))
        upper, certified, method = res.upper, res.certified, res.method
    rows.append({"relaxation": relaxation, "kind": "symbol",
                 "lower": 0.0, "upper": upper, "certified": certified,
                 "method": method})
    if pair.normal:
        # a mode's FCF block is |lambda^k| times its F block at N_c - 1
        n_bracket = grid.n_coarse - (relaxation == "FCF")
        db = tp.diag_bounds(pair.shared_eig.fine_values,
                            pair.shared_eig.coarse_values, pair.k,
                            n_bracket, relaxation)
        rows.append({"relaxation": relaxation, "kind": "diagonalizable-bracket",
                     "lower": db.lower, "upper": db.upper,
                     "certified": n_bracket >= tp.BRACKET_MIN_N,
                     "asymptote": db.asymptote})
    return rows


def run_experiment(cfg: ExperimentConfig) -> ExperimentRecord:
    pair = build_pair(cfg)
    grid = st.GridSpec(cfg.n_time, cfg.k)
    # a normal pair iterates in its mode coordinates, where Phi and Psi are
    # diagonal
    sys = st.SpaceTimeSystem(pair, grid)
    if "modified" in cfg.norms and not pair.normal:
        raise ConfigError("modified norm requested without a unitary "
                          "eigenbasis shared by Phi and Psi")
    # refuse powers that overflow before iterating: Phi^k, Psi^N_c, and the
    # carried powers of the fine (worst-case seed) and coarse solvers
    decay = _stability_decay(pair, grid)
    try:
        sys.fine_solver, sys.coarse_solver
    except OverflowError as exc:
        raise ConfigError(str(exc)) from exc
    rng = np.random.default_rng(cfg.seed)

    trace, bounds, excluded = [], [], []
    worst_case = cfg.initial_error == "worst-case"
    for relaxation in cfg.relaxations:
        cnorm = st.coarse_norm(pair, grid, relaxation, with_vector=worst_case)
        values = {n: [] for n in cfg.norms}
        sizes = []      # ||e_i||, which scales the rounding of A e_i
        # iterates may overflow where the refused powers do not; an error
        # norm past the floating-point range is refused as they are
        with np.errstate(over="ignore", invalid="ignore"):
            if worst_case:
                e = _worst_case_error(sys, cnorm.vector)
            else:
                # drawn in the coordinates of sys: a complex Gaussian is
                # unitarily invariant, so a draw in mode coordinates has the
                # law of a physical one
                e = rng.standard_normal(sys.dim) \
                    + 1j * rng.standard_normal(sys.dim)
                e /= np.linalg.norm(e)
            for i in range(cfg.iterations + 1):
                if i > 0:
                    e = st.apply_iteration(sys, relaxation, e)
                sizes.append(float(np.linalg.norm(e)))
                for n in cfg.norms:
                    values[n].append(sizes[i] if n == "l2"
                                     else _vector_norm(e, n, sys))
                for n, series in [("l2", sizes), *values.items()]:
                    if not math.isfinite(series[i]):
                        raise ConfigError(f"{relaxation}/{n} error norm "
                                          f"overflows at iteration {i}")
        for n in cfg.norms:
            for i in range(cfg.iterations + 1):
                ratio = None
                if i > 0:
                    ratio = values[n][i] / max(values[n][i - 1], RATIO_FLOOR)
                row = {"iteration": i, "relaxation": relaxation, "norm": n,
                       "value": values[n][i], "ratio": ratio}
                if n == "AstarA":
                    # A e_i = e_i - Phi e_{i-1} may cancel: rounding of the
                    # iterate and of the product is of order
                    # (1 + ||Phi||) ||e_i|| eps
                    row["rounding"] = (ROUNDOFF_FLOOR * (1.0 + pair.fine.norm)
                                       * sizes[i])
                trace.append(row)
        bounds.extend(_bound_rows(pair, grid, relaxation, cnorm, decay))
        # one non-contractive iteration per theory: the interpolation factor
        # enters the first measured ratio except under worst-case seeding,
        # and the final ratio on the error side
        if cfg.initial_error == "random":
            for n in cfg.norms:
                excluded.append({"relaxation": relaxation, "norm": n,
                                 "iteration": 1})
        for n in cfg.norms:
            if n != "AstarA":
                excluded.append({"relaxation": relaxation, "norm": n,
                                 "iteration": cfg.iterations})

    meta = {"dim": sys.dim, "n_coarse": grid.n_coarse,
            "spatial_dim": pair.dim, "commuting": bool(pair.commuting),
            "normal": pair.normal}
    rec = ExperimentRecord(config=cfg.raw, seed=cfg.seed, meta=meta,
                           trace=trace, bounds=bounds, excluded=excluded)
    rec.violations = check_bounds(cfg, rec)
    return rec


def _ratio_range(prev: dict, row: dict):
    """(low, high): the ratio of two trace values, each of which may be off
    by its rounding; both are the ratio itself where no rounding is
    recorded."""
    r_prev, r_row = prev.get("rounding", 0.0), row.get("rounding", 0.0)
    if not (r_prev or r_row):
        return row["ratio"], row["ratio"]
    low = max(row["value"] - r_row, 0.0) / (prev["value"] + r_prev)
    high = ((row["value"] + r_row) / (prev["value"] - r_prev)
            if prev["value"] > r_prev else math.inf)
    return low, high


def check_bounds(cfg: ExperimentConfig, rec: ExperimentRecord) -> list:
    """Sufficient bound must dominate every checked ratio; the necessary
    lower bound must not exceed the worst checked ratio. A ratio of values
    with a recorded rounding is violated only if it is for every value
    within that rounding."""
    tol = cfg.bound_margin
    violations = []
    skip = {(e["relaxation"], e["norm"], e["iteration"]) for e in rec.excluded}
    for relaxation in cfg.relaxations:
        brows = {r["kind"]: r for r in rec.bounds
                 if r["relaxation"] == relaxation}
        suff = brows.get("sufficient", {}).get("upper")
        nec = brows.get("necessary", {}).get("lower")
        norms_checked = ["AstarA"] if "AstarA" in cfg.norms else []
        if rec.meta.get("commuting"):
            norms_checked += [n for n in cfg.norms if n != "AstarA"]
        for n in norms_checked:
            series = sorted((r for r in rec.trace
                             if r["relaxation"] == relaxation
                             and r["norm"] == n),
                            key=lambda r: r["iteration"])
            floor = ROUNDOFF_FLOOR * series[0]["value"]
            checked = []    # (row, lowest ratio, highest ratio)
            for prev, row in zip(series, series[1:]):
                if (relaxation, n, row["iteration"]) in skip:
                    continue
                if prev["value"] <= floor:
                    continue
                checked.append((row, *_ratio_range(prev, row)))
            if suff is not None:
                for row, low, _ in checked:
                    if low > suff * (1.0 + tol) + tol:
                        violations.append(
                            f"{relaxation}/{n} iteration {row['iteration']}: "
                            f"ratio {row['ratio']:.6e} exceeds sufficient "
                            f"bound {suff:.6e}")
            # the necessary bound certifies the worst-case single-iteration
            # ratio; only worst-case seeding realizes it observationally
            meaningful = [high for row, _, high in checked if row["ratio"] > 0.0]
            if (nec is not None and n == "AstarA" and meaningful
                    and cfg.initial_error == "worst-case"):
                worst = max(meaningful)
                if nec > worst * (1.0 + tol) + tol:
                    violations.append(
                        f"{relaxation}/{n}: necessary bound {nec:.6e} exceeds "
                        f"worst observed ratio {worst:.6e}")
        cnorm = brows.get("coarse-norm", {}).get("lower")
        if nec is not None and cnorm is not None:
            if nec > cnorm * (1.0 + tol) + tol:
                violations.append(
                    f"{relaxation}: necessary bound {nec:.6e} exceeds the "
                    f"worst-case ratio (coarse block norm) {cnorm:.6e}")
    return violations


# ---------------------------------------------------------------------------
# reports

CSV_COLUMNS = ["iteration", "relaxation", "norm", "value", "ratio",
               "bound_lower", "bound_upper", "bound_kind"]


def report_emit(rec: ExperimentRecord, fmt: str, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    if fmt == "json":
        path = os.path.join(out_dir, "experiment.json")
        with open(path, "w") as fh:
            json.dump(rec.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    elif fmt == "csv":
        path = os.path.join(out_dir, "experiment.csv")
        brows = {(r["relaxation"], r["kind"]): r for r in rec.bounds}
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            w.writeheader()
            for row in rec.trace:
                suff = brows.get((row["relaxation"], "sufficient"), {})
                nec = brows.get((row["relaxation"], "necessary"), {})
                w.writerow({
                    "iteration": row["iteration"],
                    "relaxation": row["relaxation"],
                    "norm": row["norm"], "value": repr(row["value"]),
                    "ratio": "" if row["ratio"] is None else repr(row["ratio"]),
                    "bound_lower": nec.get("lower", ""),
                    "bound_upper": suff.get("upper", ""),
                    "bound_kind": "tap-sandwich" if suff else ""})
        paths.append(path)
        side = os.path.join(out_dir, "bounds.csv")
        with open(side, "w", newline="") as fh:
            keys = ["relaxation", "kind", "lower", "upper", "certified"]
            w = csv.DictWriter(fh, fieldnames=keys, extrasaction="ignore")
            w.writeheader()
            for row in rec.bounds:
                w.writerow(row)
        paths.append(side)
        echo = os.path.join(out_dir, "config_echo.json")
        with open(echo, "w") as fh:
            json.dump({"config": rec.config, "seed": rec.seed}, fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        paths.append(echo)
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return paths


# ---------------------------------------------------------------------------
# verify suite

def _default_configs():
    base_problem = {"kind": "laplacian-1d-dirichlet", "n": 8, "h": 1.0 / 9}
    cfgs = []
    for k, scheme, relaxations in [(4, "backward-euler", ["F", "FCF"]),
                                   (2, "theta", ["F"]),
                                   (8, "backward-euler", ["FCF"])]:
        fine = {"scheme": scheme, "dt": 0.02}
        if scheme == "theta":
            fine["theta"] = 0.6
        cfgs.append(ExperimentConfig.from_dict({
            "problem": dict(base_problem), "fine": fine,
            "coarse": "rediscretized", "k": k, "n_time": 16 * k + 1,
            "relaxations": relaxations, "norms": ["l2", "AstarA", "modified"],
            "iterations": 6, "initial_error": "random", "seed": 2024,
        }))
    cfgs.append(ExperimentConfig.from_dict({
        "problem": dict(base_problem),
        "fine": {"scheme": "backward-euler", "dt": 0.02},
        "coarse": "rediscretized", "k": 4, "n_time": 257,
        "relaxations": ["F", "FCF"], "norms": ["AstarA"],
        "iterations": 5, "initial_error": "worst-case", "seed": 7,
    }))
    return cfgs


def _check(name, passed, margin):
    return {"name": name, "passed": bool(passed), "margin": float(margin)}


def verify_suite(filter_name: str | None = None) -> list:
    """Run the cross-module invariant checks; returns one summary row per
    invariant with its measured margin (distance to the failure threshold)."""
    results = []
    rng = np.random.default_rng(12345)

    def want(name):
        return filter_name is None or filter_name in name

    if want("moore-penrose"):
        worst = 0.0
        for _ in range(20):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(4, 13))
            p = int(rng.integers(1, 4))
            f, g, h = (_draw_block(rng, d, off) for off in (0.0, 1.0, 1.0))
            spec = tp.PinvSpec(f, g, h, n)
            for shape in ("A0", "A1"):
                a = tp.assemble_a0(spec, shape)
                ai = tp.pinv_a0(spec, shape)
                worst = max(worst, _mp_relative(a, ai))
            if p < n / 2:
                spec = tp.PinvSpec(f, g, h, n, p)
                a = np.linalg.matrix_power(tp.assemble_a0(spec, "A0"), p)
                worst = max(worst, _mp_relative(a, tp.pinv_power(spec)))
        results.append(_check("moore-penrose", worst <= 1e-10, 1e-10 - worst))

    if want("norm-identity"):
        worst = 0.0
        for _ in range(5):
            pair, grid = _random_pair(rng)
            sys = st.SpaceTimeSystem(pair, grid)
            props = st.build_propagators(sys)
            perm = sys.permutation
            a = sys.full_matrix()[np.ix_(perm, perm)]
            for relaxation in ("F", "FCF"):
                r = getattr(props, "r_" + relaxation.lower())
                e = getattr(props, "e_" + relaxation.lower())
                for p in (1, 2):
                    nr = st.operator_norm(np.linalg.matrix_power(r, p), "l2")
                    ne = st.operator_norm(np.linalg.matrix_power(e, p),
                                          "AstarA", a=a)
                    worst = max(worst, abs(nr - ne) / max(nr, 1e-12))
        results.append(_check("norm-identity", worst <= 1e-8, 1e-8 - worst))

    if want("schur"):
        worst = 0.0
        for k in (2, 3, 4, 8):
            pair, grid = _random_pair(rng, k=k)
            sys = st.SpaceTimeSystem(pair, grid)
            diff = np.max(np.abs(st.schur_complement(sys)
                                 - st.coarse_bidiagonal(pair, grid)))
            worst = max(worst, diff)
        results.append(_check("schur", worst <= 1e-13, 1e-13 - worst))

    if want("appendix-bracket"):
        ok = True
        margin = math.inf
        for mu in np.arange(0.05, 1.0, 0.1):
            for n in (10, 20, 50, 100, 200):
                v, lo, hi = tp.tridiag_perturbed_min_eig(float(mu), n)
                ok = ok and lo <= v <= hi
                margin = min(margin, v - lo, hi - v)
        results.append(_check("appendix-bracket", ok, margin))

    if want("per-mode-closed-form"):
        # the closed-form minimum of the relaxed Toeplitz matrix against the
        # Sturm kernel on its explicit entries, over the same grid
        worst = 0.0
        for mus, n, diag, off in _relaxed_grams():
            sturm = tridiag_min_eig(diag, off)
            for mu, oracle in zip(mus, sturm):
                value = tp.tridiag_perturbed_min_eig(float(mu), n)[0]
                worst = max(worst, abs(value - oracle) / oracle)
        results.append(_check("per-mode-closed-form", worst <= 1e-12,
                              1e-12 - worst))

    if want("stack-min"):
        # the stack minimum that timedep_exact_norm resolves against the
        # minimum of the per-matrix kernel: on the per-mode-closed-form grid,
        # and through timedep_exact_norm on the sandwich configs' pairs
        worst = 0.0
        for _, _, diag, off in _relaxed_grams():
            oracle = np.min(tridiag_min_eig(diag, off))
            worst = max(worst, abs(tridiag_stack_min(diag, off) - oracle)
                        / oracle)
        for spec in _timedep_specs():
            oracle = 1.0 / math.sqrt(np.min(tridiag_min_eig(
                *tp.timedep_tridiagonal(spec))))
            value = tp.timedep_exact_norm(spec)[0]
            worst = max(worst, abs(value - oracle) / oracle)
        results.append(_check("stack-min", worst <= 1e-14, 1e-14 - worst))

    if want("tap-teap"):
        worst = 0.0
        for _ in range(3):
            pair, _ = _random_pair(rng)
            bare = _dense_twin(pair)
            for relaxation in ("F", "FCF"):
                teap = tap_mod.teap_constant(pair, relaxation).value
                gen = tap_mod.tap_constant(bare, relaxation).value
                worst = max(worst, abs(gen - teap) / max(teap, 1e-12))
        results.append(_check("tap-teap", worst <= 1e-8, 1e-8 - worst))

    if want("symbol-closed-form"):
        worst, ok = 0.0, True
        for _ in range(3):
            pair, grid = _random_pair(rng, n_coarse=33)
            bare = _dense_twin(pair)
            for relaxation in ("F", "FCF"):
                closed = tp.normal_symbol_max(pair, grid, relaxation)
                res = tp.symbol_max_sv(tp.build_symbol(bare, grid, relaxation))
                ok = ok and res.certified
                worst = max(worst, abs(res.upper - closed) / closed)
        results.append(_check("symbol-closed-form", ok and worst <= 1e-11,
                              1e-11 - worst))

    if want("sandwich"):
        ok = True
        margin = math.inf
        for cfg in _default_configs():
            rec = run_experiment(cfg)
            ok = ok and not rec.violations
            for relaxation in cfg.relaxations:
                brows = {r["kind"]: r for r in rec.bounds
                         if r["relaxation"] == relaxation}
                if "sufficient" in brows and "necessary" in brows:
                    margin = min(margin, brows["sufficient"]["upper"]
                                 - brows["necessary"]["lower"])
        results.append(_check("sandwich", ok, margin))

    if want("coarse-norm-lanczos"):
        # the coarse norm, and the necessary bound at p = 2 on both sides,
        # through the matrix-free operator against the dense block; and the
        # first pair's coarse norm, in real arithmetic, against that of its
        # complex cast, gated at 2 TOL: the margin is the smaller distance
        # of the two gaps to their gates
        worst, gap, ok = 0.0, 0.0, True
        for i in range(3):
            pair, grid = _random_pair(rng, n_coarse=33)
            bare = _dense_twin(pair)
            cgc_res, cgc_err, relax = st.coarse_defect_blocks(bare, grid)
            for relaxation in ("F", "FCF"):
                blocks = {"residual": cgc_res, "error": cgc_err}
                if relaxation == "FCF":
                    blocks = {side: b @ relax for side, b in blocks.items()}
                dense = float(np.linalg.svd(blocks["residual"],
                                            compute_uv=False)[0])
                res = st.coarse_norm(bare, grid, relaxation)
                ok = ok and res.certified and res.upper >= dense
                worst = max(worst, abs(res.value - dense) / dense)
                if i == 0:
                    cast = st.coarse_norm(_dense_twin(pair, complex),
                                          grid, relaxation)
                    ok = ok and cast.certified
                    gap = max(gap, abs(cast.value - res.value) / res.value)
                for side, block in blocks.items():
                    dense = float(np.linalg.svd(ops.matrix_power(block, 2),
                                                compute_uv=False)[0])
                    nb = tp.necessary_lower_bound(bare, grid, relaxation, 2,
                                                  side)
                    worst = max(worst, abs(nb.value - dense) / dense)
        cap = 2.0 * tap_mod.TOL
        results.append(_check("coarse-norm-lanczos",
                              ok and worst <= 1e-12 and gap <= cap,
                              min(1e-12 - worst, cap - gap)))

    if want("forward-solve"):
        # the two-level forward solve against one product per row, for Phi
        # over N_t and for Psi and Phi^k over N_c, relative to the running
        # maximum of the rows
        worst = 0.0
        for cfg in _default_configs():
            pair = build_pair(cfg)
            nc = st.GridSpec(cfg.n_time, cfg.k).n_coarse
            for mat, n in ((pair.fine.matrix, cfg.n_time),
                           (pair.coarse.matrix, nc), (pair.fine_power, nc)):
                rhs = (rng.standard_normal((n, pair.dim))
                       + 1j * rng.standard_normal((n, pair.dim)))
                want_rows = _row_solve(mat, rhs)
                got = st.ForwardSolver(st.Step(mat), n).solve(rhs)
                got = got.reshape(n, -1)
                scale = np.maximum.accumulate(
                    np.linalg.norm(want_rows, axis=1))
                worst = max(worst, float(np.max(
                    np.linalg.norm(got - want_rows, axis=1) / scale)))
        results.append(_check("forward-solve", worst <= 1e-12, 1e-12 - worst))

    if want("per-mode-iteration"):
        # each sandwich pair's per-mode iteration, in mode coordinates,
        # against that of its dense twin (_dense_twin, Phi and Psi from
        # stability_matrix) from the U-images of the same random seed and
        # worst-case coarse vector, relative to the running maximum of the
        # dense error norms; and the Laplacian's eigenbasis U against the
        # dense steppers: U^T U against I, U diag(lambda) U^T against Phi
        # and U diag(mu) U^T against Psi
        worst = 0.0
        for cfg in _default_configs():
            pair = build_pair(cfg)
            twin = _dense_twin(pair)
            eig = pair.shared_eig
            u = ops.laplacian_basis(pair.dim)
            worst = max(worst, np.linalg.norm(u.T @ u - np.eye(pair.dim)))
            for values, dense in ((eig.fine_values, twin.fine.matrix),
                                  (eig.coarse_values, twin.coarse.matrix)):
                worst = max(worst, np.linalg.norm(
                    (u * values) @ u.T - dense) / np.linalg.norm(dense))
            grid = st.GridSpec(cfg.n_time, cfg.k)
            modal = st.SpaceTimeSystem(pair, grid)
            dense = st.SpaceTimeSystem(twin, grid)

            def physical(x):
                return (x.reshape(-1, pair.dim) @ u.T).ravel()

            for relaxation in ("F", "FCF"):
                e = rng.standard_normal(modal.dim) \
                    + 1j * rng.standard_normal(modal.dim)
                w = st.coarse_norm(pair, grid, relaxation,
                                   with_vector=True).vector
                for e_modes, e_dense in (
                        (e, physical(e)),
                        (_worst_case_error(modal, w),
                         _worst_case_error(dense, physical(w)))):
                    scale = 0.0
                    for i in range(cfg.iterations + 1):
                        if i:
                            e_dense = st.apply_iteration(dense, relaxation,
                                                         e_dense)
                            e_modes = st.apply_iteration(modal, relaxation,
                                                         e_modes)
                        scale = max(scale, np.linalg.norm(e_dense))
                        worst = max(worst, np.linalg.norm(
                            physical(e_modes) - e_dense) / scale)
        results.append(_check("per-mode-iteration", worst <= 1e-12,
                              1e-12 - worst))

    return results


def _relaxed_grams():
    """(mus, n, diag, off) for each n of the appendix-bracket grid: the
    stack of relaxed Toeplitz Gram matrices of order n, one per mu."""
    mus = np.arange(0.05, 1.0, 0.1)
    for n in (10, 20, 50, 100, 200):
        diag = np.repeat(1.0 + mus[:, None] ** 2, n, axis=1)
        diag[:, -1] = 1.0
        yield mus, n, diag, np.repeat(-mus[:, None], n - 1, 1)


def _timedep_specs() -> list:
    """Time-dependent sequences from the pairs of the sandwich configs: each
    pair's eigenvalues repeated over its horizon, and the first pair's
    raised to a power that varies from step to step."""
    specs = []
    for cfg in _default_configs():
        pair = build_pair(cfg)
        lam, mu = pair.shared_eig.fine_values, pair.shared_eig.coarse_values
        nc = st.GridSpec(cfg.n_time, cfg.k).n_coarse
        specs.append(tp.TimeDepSpec(np.tile(lam, (pair.k * (nc - 1), 1)),
                                    np.tile(mu, (nc - 1, 1)), pair.k))
    first = specs[0]
    steps = np.arange(first.fine_values.shape[0])[:, None]
    specs.append(tp.TimeDepSpec(
        first.fine_values ** (1.0 + 0.5 * np.sin(steps)),
        first.coarse_values ** (1.0 + 0.5 * np.cos(steps[::first.k])),
        first.k))
    return specs


def _row_solve(mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """y_i = r_i + M y_{i-1} for the rows of rhs, one product per row."""
    out = rhs.astype(complex)
    for i in range(1, len(out)):
        out[i] += mat @ out[i - 1]
    return out


def _dense_twin(pair: ops.StepperPair, dtype=None) -> ops.StepperPair:
    """The dense twin of pair: the same schemes on its operator without its
    eigenvalues, cast to dtype when one is given. A normal pair's twin takes
    the dense path: Phi and Psi from stability_matrix, its iteration in
    physical coordinates, and, cast to complex, complex arithmetic."""
    m = pair.fine.source.matrix
    spatial = ops.SpatialOperator(m if dtype is None else m.astype(dtype),
                                  "dense twin")
    fine, coarse = (ops.build_stepper(spatial, s.scheme)
                    for s in (pair.fine, pair.coarse))
    return ops.make_pair(fine, coarse, pair.k)


def _draw_block(rng, d: int, off: float) -> np.ndarray:
    """Random block with spectral radius <= 0.9, optionally shifted to keep
    the factor well conditioned."""
    while True:
        m = 0.5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        m = m / max(1.0, np.max(np.abs(np.linalg.eigvals(m))) / 0.9)
        m = m + off * np.eye(d)
        if off == 0.0 or np.linalg.cond(m) <= 10.0:
            return m


def _mp_relative(a: np.ndarray, ai: np.ndarray) -> float:
    na = max(np.linalg.norm(a), 1e-300)
    ni = max(np.linalg.norm(ai), 1e-300)
    return max(np.linalg.norm(a @ ai @ a - a) / na,
               np.linalg.norm(ai @ a @ ai - ai) / ni,
               np.linalg.norm((a @ ai).conj().T - a @ ai),
               np.linalg.norm((ai @ a).conj().T - ai @ a))


def _random_pair(rng, k: int = 4, n_coarse: int = 8):
    nx = int(rng.integers(2, 5))
    spatial = ops.build_spatial("laplacian-1d-dirichlet", nx, 1.0 / (nx + 1))
    dt = float(rng.uniform(0.01, 0.05))
    fine = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", dt))
    coarse = ops.build_stepper(spatial, ops.SchemeSpec("backward-euler", dt * k))
    pair = ops.make_pair(fine, coarse, k)
    grid = st.GridSpec(k * (n_coarse - 1) + 1, k)
    return pair, grid
