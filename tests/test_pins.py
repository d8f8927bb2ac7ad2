"""The benchmark's pinned outputs, checked by the test suite.

One item of each `perfbench` workload at seed 0 must break none of its
invariants and reproduce its digest in `perfbench/pins.json`, so a change
that moves a pinned output byte fails here before any benchmark run.
`perfbench/` is only read.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PINS = json.loads((PERFBENCH / "pins.json").read_text())
_spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_0_item_matches_its_pin(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(0)
    item = wl.run(inputs, tmp_path)
    assert item.problems == []
    assert item.digest == PINS[name][inputs["key"]]
