"""Cold set-up of one workload; run.py runs it to measure setup_s.

    python3 perfbench/probe.py <workload> <seed> <out_dir>

Imports pintbounds, writes and loads the workload's configs, builds its
stepper pairs, then prints `ready` and the CPU time the process has used
since it started.
"""

import sys
import time

import run

if __name__ == "__main__":
    run.prepare()
    import workloads

    name, seed, out_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    workloads.WORKLOADS[name](seed, out_dir).setup()
    print("ready", time.process_time(), flush=True)
