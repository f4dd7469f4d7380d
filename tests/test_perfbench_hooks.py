"""The benchmark's hooks into the program: every layer that perfbench traces
resolves, and one in-process pass of each workload runs clean. A rename in
the program that would break the benchmark fails here first."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_layer_resolves():
    for module, name, *_ in spans.LAYERS:
        assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_of_each_workload(name, tmp_path):
    wl = workloads.WORKLOADS[name](1, str(tmp_path))
    wl.setup()
    wl.reference()
    for case, op in wl.ops():
        failed, problems = wl.check(case, op())
        assert not failed and problems == [], (case, problems)
