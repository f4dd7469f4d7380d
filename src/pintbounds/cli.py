"""Command-line interface.

Subcommands: `run` (execute an experiment config and emit reports),
`verify` (cross-module invariant suite), and `bounds` (bounds only, no
iterations). Exit codes: 0 success, 1 invariant or bound violation,
2 configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import harness
from . import spacetime as st


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        data = dict(cfg.raw)
        data["seed"] = args.seed
        cfg = harness.ExperimentConfig.from_dict(data)
    rec = harness.run_experiment(cfg)
    paths = harness.report_emit(rec, args.format, args.out)
    for p in paths:
        print(p)
    if rec.violations:
        for v in rec.violations:
            print(f"bound violation: {v}", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args) -> int:
    results = harness.verify_suite(args.filter)
    failed = False
    for row in results:
        status = "pass" if row["passed"] else "FAIL"
        print(f"{row['name']:<20s} {status}  margin={row['margin']:.3e}")
        failed = failed or not row["passed"]
    return 1 if failed else 0


def _cmd_bounds(args) -> int:
    cfg = harness.load_config(args.config)
    pair = harness.build_pair(cfg)
    grid = st.GridSpec(cfg.n_time, cfg.k)
    # Psi^N_c and its two SVDs serve every relaxation
    decay = harness._stability_decay(pair, grid)
    rows = [row for relaxation in cfg.relaxations
            for row in harness._bound_rows(pair, grid, relaxation,
                                           decay=decay)]
    print(json.dumps(rows, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pintbounds",
        description="Two-level parallel-in-time convergence analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=".")
    p_run.add_argument("--format", choices=("csv", "json"), default="csv")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the invariant suite")
    p_verify.add_argument("--filter", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_bounds = sub.add_parser("bounds", help="compute bounds only")
    p_bounds.add_argument("--config", required=True)
    p_bounds.set_defaults(func=_cmd_bounds)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each call of parse_args fills a
    new namespace, so successive calls of main do not share state."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (harness.ConfigError, OSError) as exc:
        # an unreadable config or matrix file, or an output directory that
        # cannot be made, is the caller's to fix, as is a bad value
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
