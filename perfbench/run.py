"""Run one workload of the pintbounds benchmark and print its result.

    python3 perfbench/run.py --workload heat-dense --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src`
directory. The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the metrics
are the end-to-end ones (setup_s, sweep_s, peak_rss_mb); with `--trace 1` the
run alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
# setup_s is the median of cold set-ups timed in three groups: before the
# passes, after the pass that crosses half the run and after the last pass,
# so that one busy moment of the machine does not set the whole figure
SETUP_PROBES = 5


def prepare():
    """Check that the checkout holds the program's source, run BLAS on one
    thread and put `src` first on the import path. Must run before numpy is
    imported. With one thread a pass's CPU time is the work it does; idle
    BLAS threads spin, which adds CPU time that varies from run to run."""
    src = ROOT / "src"
    if not (src / "pintbounds" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pintbounds source under {src}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))


def fix_mmap_threshold():
    """Have glibc map every block of 128 KiB or more on its own and unmap it
    when freed. By default the threshold rises after large blocks are freed,
    later arrays then stay in the heap, and peak RSS depends on the order of
    earlier allocations: on advection-nonnormal it read 53 MB in some sets of
    runs and 58 MB in others."""
    m_mmap_threshold = -3
    if ctypes.CDLL("libc.so.6").mallopt(m_mmap_threshold, 128 * 1024) != 1:
        raise SystemExit("perfbench: mallopt(M_MMAP_THRESHOLD) failed")


def probe_setup(workload: str, seed: int, out_dir: Path) -> float:
    """CPU time a fresh interpreter spends from its start until it has
    imported pintbounds, written and loaded the workload's configs and built
    its stepper pairs, as the interpreter reports it."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")),
           workload, str(seed), str(out_dir)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=120)
    words = proc.stdout.split()
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return float(words[1])


def run_pass(wl, ops, label, recorder=None):
    """Run every op once; returns (CPU time and wall time of the ops, failed,
    problems). Outputs are checked after the timed part."""
    results = []
    cpu = time.process_time()
    start = time.perf_counter()
    for i, (name, op) in enumerate(ops):
        if recorder is not None:
            recorder.op = f"{label}.{i}"
        try:
            results.append((name, op(), None))
        except Exception as exc:   # an op that raises counts as failed
            results.append((name, None, exc))
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    failed, problems = 0, []
    for name, result, exc in results:
        if exc is not None:
            failed += 1
            problems.append(f"{name}: raised {exc!r}")
            continue
        op_failed, op_problems = wl.check(name, result)
        failed += op_failed
        problems += op_problems
    return cpu, wall, failed, problems


def measure(wl, seconds: float, midway):
    """Untraced passes until the next one would end after `seconds` of wall
    time; calls `midway()` once, after the pass that crosses half of
    `seconds`. Returns the passes' CPU times."""
    ops = wl.ops()
    cpus, walls, failed, problems = [], [], 0, []
    start = time.perf_counter()
    half = False
    while True:
        cpu, wall, f, p = run_pass(wl, ops, f"p{len(cpus)}")
        cpus.append(cpu)
        walls.append(wall)
        failed += f
        problems += p
        if not half and time.perf_counter() - start >= seconds / 2:
            midway()
            half = True
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    return cpus, len(cpus) * len(ops), failed, problems


def measure_traced(wl, seconds: float, recorder):
    """Alternate untraced and traced passes until the next pair would end
    after `seconds`; per-layer values are medians over the traced passes."""
    import spans

    ops = wl.ops()
    plain, plain_wall, traced, traced_wall, labels = [], [], [], [], []
    failed, problems = 0, []
    start = time.perf_counter()
    while True:
        cpu, wall, f, p = run_pass(wl, ops, f"u{len(plain)}")
        plain.append(cpu)
        plain_wall.append(wall)
        failed, problems = failed + f, problems + p
        label = f"t{len(traced)}"
        recorder.install()
        try:
            cpu, wall, f, p = run_pass(wl, ops, label, recorder)
        finally:
            recorder.uninstall()
        traced.append(cpu)
        traced_wall.append(wall)
        labels.append(label)
        failed, problems = failed + f, problems + p
        pair = statistics.median(plain_wall) + statistics.median(traced_wall)
        if time.perf_counter() - start + pair > seconds:
            break

    per_pass = []
    for label in labels:
        ids = {f"{label}.{i}" for i in range(len(ops))}
        per_pass.append(spans.layer_metrics(
            spans.aggregate(recorder.spans, ids)))
    metrics = {name: (statistics.median(m[name][0] for m in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["process.cpu_s"] = (statistics.median(plain), "s")
    metrics["process.wall_s"] = (statistics.median(plain_wall), "s")
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(plain), "s")
    attempted = (len(plain) + len(traced)) * len(ops)
    return metrics, attempted, failed, problems


def main(argv=None) -> int:
    prepare()
    fix_mmap_threshold()
    import pintbounds
    if Path(pintbounds.__file__).resolve().parent != ROOT / "src" / "pintbounds":
        raise SystemExit(f"perfbench: imported pintbounds from "
                         f"{pintbounds.__file__}, not from this checkout")
    import spans
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    out_dir = OUT / args.workload
    cls = workloads.WORKLOADS[args.workload]
    if args.trace:
        recorder = spans.SpanRecorder()
        wl = cls(args.seed, str(out_dir))
        recorder.op = "setup"
        recorder.install()
        start = time.perf_counter()
        try:
            wl.setup()
        finally:
            setup_wall = time.perf_counter() - start
            recorder.uninstall()
        wl.reference()
        metrics, attempted, failed, problems = measure_traced(
            wl, args.seconds, recorder)
        metrics.update(spans.layer_metrics(
            spans.aggregate(recorder.spans, {"setup"}),
            spans.SETUP_LAYERS, "setup."))
        metrics["setup.s"] = (setup_wall, "s")
        recorder.write(out_dir / f"trace-seed{args.seed}.tsv")
    else:
        probe_dir = out_dir / "probe"
        setups = []

        def probes():
            setups.extend(probe_setup(args.workload, args.seed, probe_dir)
                          for _ in range(SETUP_PROBES))

        probe_setup(args.workload, args.seed, probe_dir)   # warms caches
        probes()
        wl = cls(args.seed, str(out_dir))
        wl.setup()
        wl.reference()
        cpus, attempted, failed, problems = measure(wl, args.seconds, probes)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        probes()
        metrics = {"setup_s": (statistics.median(setups), "s"),
                   "sweep_s": (statistics.median(cpus), "s"),
                   "peak_rss_mb": (peak, "MB")}

    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
