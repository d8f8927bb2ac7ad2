"""A short traced benchmark run of each workload stays correct.

`perfbench/spans.py` wraps mpode's functions by name, so a change that
removes or renames one of them breaks `--trace 1`.  Each workload runs for
half a second with tracing in a fresh interpreter and must report every
item correct.  `perfbench/` is only read.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("decay-table", "monitored-decay", "sgd-train")


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_is_correct(name):
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
           "--seconds", "0.5", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, done.stdout
