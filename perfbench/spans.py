"""Span recorder for the traced run.

Wraps public functions of pintbounds' modules and numpy.linalg.svd/inv/solve
from outside the program. Every wrapped call records one span: its id, the id
of the enclosing span, the op it belongs to, the layer name, its start and end
time, and a computed amount (flops for svd, matrix rows for the tridiagonal
solver). Spans stay in memory until `write` is called at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


def _svd_flops(args, kwargs) -> float:
    """Flops of an SVD computed from its shape (Golub and Van Loan's counts
    for the R-SVD, times 4 for complex arithmetic); not measured."""
    a = np.asarray(args[0])
    m, n = max(a.shape[-2:]), min(a.shape[-2:])
    batch = int(np.prod(a.shape[:-2], dtype=np.int64))
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if compute_uv:
        flops = 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n**3
    else:
        flops = 4.0 * m * n * n - 4.0 * n**3 / 3.0
    return batch * flops * (4.0 if np.iscomplexobj(a) else 1.0)


def _rows(args, kwargs) -> float:
    return float(len(args[0]))


# (module, function, metric prefix, amount metric name, amount function)
LAYERS = [
    ("pintbounds.operators", "build_stepper", "operators.build_stepper", None, None),
    ("pintbounds.operators", "make_pair", "operators.make_pair", None, None),
    ("pintbounds.operators", "matrix_power", "operators.matrix_power", None, None),
    ("pintbounds.harness", "load_config", "harness.load_config", None, None),
    ("pintbounds.harness", "build_pair", "harness.build_pair", None, None),
    ("pintbounds.harness", "run_experiment", "harness.run_experiment", None, None),
    ("pintbounds.harness", "check_bounds", "harness.check_bounds", None, None),
    ("pintbounds.harness", "report_emit", "harness.report_emit", None, None),
    ("pintbounds.spacetime", "coarse_defect_blocks", "spacetime.coarse_defect_blocks", None, None),
    ("pintbounds.spacetime", "apply_iteration", "spacetime.apply_iteration", None, None),
    ("pintbounds.spacetime", "sequential_solve", "spacetime.sequential_solve", None, None),
    ("pintbounds.spacetime", "lift_coarse", "spacetime.lift_coarse", None, None),
    ("pintbounds.tap", "tap_constant", "tap.tap_constant", None, None),
    ("pintbounds.tap", "stability_decay", "tap.stability_decay", None, None),
    ("pintbounds.toeplitz", "necessary_lower_bound", "toeplitz.necessary_lower_bound", None, None),
    ("pintbounds.toeplitz", "build_symbol", "toeplitz.build_symbol", None, None),
    ("pintbounds.toeplitz", "symbol_max_sv", "toeplitz.symbol_max_sv", None, None),
    ("pintbounds.toeplitz", "timedep_exact_norm", "toeplitz.timedep_exact_norm", None, None),
    ("pintbounds.toeplitz", "diag_bounds", "toeplitz.diag_bounds", None, None),
    ("pintbounds.tridiag", "tridiag_min_eig", "tridiag.tridiag_min_eig", "tridiag.rows", _rows),
    ("numpy.linalg", "svd", "linalg.svd", "linalg.svd.flops_computed", _svd_flops),
    ("numpy.linalg", "inv", "linalg.inv", None, None),
    ("numpy.linalg", "solve", "linalg.solve", None, None),
]

# layers that make up set-up, also reported for the traced in-process set-up
SETUP_LAYERS = ("harness.load_config", "harness.build_pair",
                "operators.build_stepper", "operators.make_pair")


class SpanRecorder:
    """Records spans of the wrapped layers while installed."""

    def __init__(self):
        self.spans = []     # (id, parent id, op id, layer, start, end, amount)
        self.op = None      # id of the op running now; set by the caller
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, prefix, fn, amount):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = amount(args, kwargs) if amount is not None else 0.0
                spans.append((sid, parent, self.op, prefix, start, end, extra))

        return wrapper

    def install(self):
        """Replace each layer function wherever pintbounds holds a reference
        to it: its own module, and every module that imported it by name."""
        holders = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "pintbounds"
                                         or name.startswith("pintbounds."))]
        for module, attr, prefix, _, amount in LAYERS:
            owner = sys.modules[module]
            original = getattr(owner, attr)
            wrapper = self._wrap(prefix, original, amount)
            for holder in {id(h): h for h in holders + [owner]}.values():
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._patched.append((holder, name, original))
                        setattr(holder, name, wrapper)

    def uninstall(self):
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    def write(self, path):
        """All spans as tab-separated rows, one header line first."""
        with open(path, "w") as fh:
            fh.write("id\tparent\top\tlayer\tstart\tend\tamount\n")
            for span in self.spans:
                fh.write("%d\t%d\t%s\t%s\t%.9f\t%.9f\t%.17g\n" % span)


def aggregate(spans, ops) -> dict:
    """Per-layer calls, total time, self time and computed amounts over the
    spans whose op id is in `ops`. Self time is a span's duration minus the
    durations of its direct children."""
    child = {}
    for sid, parent, op, _, start, end, _ in spans:
        if op in ops and parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out = {}
    for sid, parent, op, prefix, start, end, extra in spans:
        if op not in ops:
            continue
        row = out.setdefault(prefix, [0, 0.0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child.get(sid, 0.0)
        row[3] += extra
    return out


def layer_metrics(agg: dict, prefix_filter=None, name_prefix="") -> dict:
    """Metric values named <layer>.calls, .s, .self_s (and the amount)."""
    out = {}
    for _, _, prefix, amount_name, _ in LAYERS:
        if prefix_filter is not None and prefix not in prefix_filter:
            continue
        calls, total, self_s, extra = agg.get(prefix, (0, 0.0, 0.0, 0.0))
        out[f"{name_prefix}{prefix}.calls"] = (calls, "count")
        out[f"{name_prefix}{prefix}.s"] = (total, "s")
        out[f"{name_prefix}{prefix}.self_s"] = (self_s, "s")
        if amount_name is not None:
            unit = "flop" if amount_name.endswith("flops_computed") else "count"
            out[f"{name_prefix}{amount_name}"] = (extra, unit)
    return out
