"""Regenerate `pins.json`: the output digest of every pinned input.

    python3 perfbench/pin.py

Run from the root of a source checkout, at the commit whose outputs are the
reference.  The decay workloads have nine inputs (N = 396..404), all pinned;
the sgd workload pins config seeds 0..PINNED_SEEDS-1 and checks only
invariants for other seeds.  An input whose item breaks an invariant is not
pinned, and the script exits non-zero.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")})
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

PINNED_SEEDS = 32


def main() -> int:
    pins: dict[str, dict[str, str]] = {}
    bad = 0
    seeds = {
        "decay-table": range(len(workloads.DECAY_N)),
        "monitored-decay": range(len(workloads.DECAY_N)),
        "sgd-train": range(PINNED_SEEDS),
    }
    for name, wl in workloads.WORKLOADS.items():
        pins[name] = {}
        for seed in seeds[name]:
            inputs = wl.inputs(seed)
            with tempfile.TemporaryDirectory(dir=HERE.parent) as out:
                item = wl.run(inputs, Path(out))
            if item.problems:
                bad += 1
                print(f"{name} {inputs['key']}: not pinned: {item.problems}", file=sys.stderr)
                continue
            pins[name][inputs["key"]] = item.digest
            print(f"{name} {inputs['key']} {item.digest}", flush=True)
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
