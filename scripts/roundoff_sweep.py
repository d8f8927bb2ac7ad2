#!/usr/bin/env python3
"""Sweep step counts and show that low-precision error stays roundoff-bound.

Writes one CSV per (field, scheme) combination and prints the max/min error
ratio per column; flat ratios mean the error does not accumulate with N.
"""

import sys

from mpode.runners import SWEEP_PRESETS, ExperimentConfig, run_sweep

N_LIST = [64, 128, 256, 512, 1024, 2048, 4096]


def main() -> None:
    prefix = sys.argv[1] if len(sys.argv) > 1 else "sweep"
    for field, preset in SWEEP_PRESETS.items():
        for scheme in ("euler", "rk4"):
            config = ExperimentConfig(
                **preset, n=N_LIST, scheme=scheme, fmt="float16", policy="dynamic",
                out=f"{prefix}_{field}_{scheme}.csv",
            )
            rows = run_sweep(config)
            for name in ("re_y", "re_dy0", "re_dtheta1"):
                vals = [getattr(r, name) for r in rows]
                print(f"{field}/{scheme} {name}: max/min = {max(vals) / min(vals):.2f}")
            print(f"wrote {config.out}")


if __name__ == "__main__":
    main()
