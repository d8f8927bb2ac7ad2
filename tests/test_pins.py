"""The benchmark's pinned outputs, checked by the test suite.

One item of each `perfbench` workload at seed 0, and sgd-train items at a
few more seeds, must break none of their invariants and reproduce their
digests in `perfbench/pins.json`, so a change that moves a pinned output
byte fails here before any benchmark run.  The sgd-train seeds also check
the order in which a training run draws its minibatches.  `perfbench/` is
only read.
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


def check_item(name, seed, out):
    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed)
    item = wl.run(inputs, out)
    assert item.problems == []
    assert item.digest == PINS[name][inputs["key"]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_0_item_matches_its_pin(name, tmp_path):
    check_item(name, 0, tmp_path)


@pytest.mark.parametrize("seed", [1, 7, 31])
def test_sgd_train_item_matches_its_pin(seed, tmp_path):
    check_item("sgd-train", seed, tmp_path)
