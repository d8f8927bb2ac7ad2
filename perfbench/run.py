"""Run one mpode benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decay-table --seed 0 --seconds 38 --trace 0

Run from the root of a source checkout: mpode is imported from `src/`.
One process, one thread, BLAS pinned to one thread; a closed loop with one
caller runs items (a table, a training run, a diagnostic) back to
back until `--seconds` have passed, with a fixed reference work timed after
each item to measure the host's speed.  Set-up is also timed in six fresh
child interpreters, one after another.  Every item's output digest is compared
with `pins.json` and its invariants are checked; a mismatch, a broken
invariant or an exception counts as a failed item.

`--trace 0` reports the end-to-end metrics with nothing traced.  `--trace 1`
runs untraced items, then traced ones, and reports per-layer metrics; the
traced items must repeat their exact counts and the untraced digest.
Human-readable lines start with `#`; the last line is one JSON object.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ITEMS = 3  # timed items per run, whatever --seconds says
SETUP_PROBES = 6  # fresh interpreters timing set-up, besides this one
REF_REPEATS = 2  # timings of the reference work after each item
# The host speed that run_s and the latencies are given at: the one at
# which the reference work takes this long, about its mean on a 2-core Xeon
# virtual machine.
REF_NOMINAL_S = 0.020


def load(workload: str, seed: int):
    """Import mpode from the checkout and make the inputs; the set-up."""
    if not (SRC / "mpode" / "__init__.py").is_file():
        sys.exit(f"run.py: no mpode sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import workloads

    wl = workloads.WORKLOADS.get(workload)
    if wl is None:
        sys.exit(f"run.py: unknown workload {workload!r}, expected one of {sorted(workloads.WORKLOADS)}")
    inputs = wl.inputs(seed)
    setup_s = perf_counter() - t0
    import mpode

    if Path(mpode.__file__).resolve().parent != (SRC / "mpode").resolve():
        sys.exit(f"run.py: imported mpode from {mpode.__file__}, not from {SRC}")
    return wl, inputs, setup_s


def probe_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


class Runner:
    """Runs checked items of one workload and tallies failures."""

    def __init__(self, wl, inputs, out: Path):
        self.wl, self.inputs, self.out = wl, inputs, out
        pins = json.loads((HERE / "pins.json").read_text())
        self.pinned = pins.get(wl.name, {}).get(inputs["key"])
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.times: list[float] = []  # every item, warm-up first

    def item(self, check=None):
        """Run one checked item; returns (item or None, seconds).

        `check(item, seconds)` may return more problems for the item.
        """
        self.attempted += 1
        t0 = perf_counter()
        try:
            item = self.wl.run(self.inputs, self.out)
        except Exception as exc:  # an unexpected exception fails the item
            item, problems = None, [f"raised {exc!r}"]
        else:
            problems = list(item.problems)
            if self.pinned is not None and item.digest != self.pinned:
                problems.append(f"digest {item.digest[:16]} is not the pinned {self.pinned[:16]}")
        dt = perf_counter() - t0
        self.times.append(dt)
        if check is not None:
            problems += check(item, dt)
        if problems:
            self.failed += 1
            self.problems += problems
        return item, dt

    def loop(self, seconds: float, min_items: int, check=None) -> list[float]:
        """Closed loop: the next item starts when the previous one ends."""
        times = []
        start = perf_counter()
        while len(times) < min_items or perf_counter() - start < seconds:
            times.append(self.item(check)[1])
        return times


def reference_work() -> float:
    """Time a fixed piece of work that runs none of mpode's code.

    Its three loops do what mpode's hot paths do: ufuncs on 8-element
    arrays with scalar conversions, plain interpreter arithmetic, and a
    float16 round trip feeding an 8x9 matrix product.  No change to mpode
    moves its time; the host's load does.
    """
    import numpy as np

    v = np.arange(8.0) * 0.37
    w = np.full((8, 9), 0.1)
    t0 = perf_counter()
    acc = 0.0
    for _ in range(2000):
        acc += float((v * 1.0001 + 0.5)[3])
    k = 0
    for i in range(100000):
        k += i * i
    x = v
    with np.errstate(over="ignore", under="ignore"):
        for _ in range(500):
            y = np.asarray(x * 1.001, dtype=np.float16).astype(np.float64)
            x = np.tanh(w @ np.append(y, 1.0))
            acc += float(np.max(np.abs(x)))
    return perf_counter() - t0


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, interpolated between samples (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner: Runner, seconds: float, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, and wall-clock figures printed for people only."""
    iters: list[float] = []  # sgd-train times its SGD iterations
    refs: list[float] = []

    def collect(item, dt):
        if item is not None:
            iters.extend(item.iter_times)
        refs.extend(reference_work() for _ in range(REF_REPEATS))
        return []

    times = runner.loop(seconds, MIN_ITEMS, collect)
    # A shared host's speed drifts by a quarter and more over minutes.  The
    # reference work, timed between the items, slows with it; item times
    # are given at the speed where it takes REF_NOMINAL_S.  The mean item,
    # not the median, because the speed also switches within seconds.
    wall_s = statistics.fmean(times)
    ref_s = statistics.fmean(refs)
    speed = REF_NOMINAL_S / ref_s
    run_s = wall_s * speed
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "run_s": (run_s, "s", len(times)),
        "steps_per_s": (runner.wl.nominal_steps(runner.inputs) / run_s, "1/s", len(times)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    info = {"wall_s": (wall_s, "s", len(times)), "ref_ms": (1e3 * ref_s, "ms", len(refs))}
    if iters:
        for q in (50, 90):
            wall_ms = 1e3 * quantile(iters, q)
            info[f"iter_ms_p{q}"] = (wall_ms * speed, "ms", len(iters))
            info[f"wall_iter_ms_p{q}"] = (wall_ms, "ms", len(iters))
    return metrics, info


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    import spans

    digests = []

    def keep_digest(item, dt):
        digests.append(item and item.digest)
        return []

    untraced = runner.loop(seconds / 4, 2, keep_digest)
    micro = spans.microbench()
    tracer = spans.Tracer()
    tracer.install()
    per_item: list[dict] = []
    counts: list[dict] = []
    traced: list[float] = []

    def record(item, dt):
        traced.append(dt)
        per_item.append(tracer.item_metrics(dt))
        counts.append(tracer.exact_counts())
        problems = []
        if item is not None and item.digest != digests[0]:
            problems.append("traced digest differs from the untraced one")
        if counts[-1] != counts[0]:
            problems.append("traced counts differ between two items of the same inputs")
        if counts[-1]["field_evals"] != counts[-1]["stage_evals"]:
            problems.append(f"{counts[-1]['field_evals']} field evaluations for "
                            f"{counts[-1]['stage_evals']} stages")
        tracer.reset()
        return problems

    tracer.reset()
    runner.loop(seconds / 2, 2, record)
    metrics = {
        name: (statistics.median(m[name][0] for m in per_item), unit, len(per_item))
        for name, (_, unit) in per_item[0].items()
    }
    metrics.update({name: (v, unit, 1) for name, (v, unit) in micro.items()})
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio", len(traced))
    return metrics, {}


def environment() -> dict:
    from importlib.metadata import version

    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for p in sorted((SRC / "mpode").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time the import and input generation, print seconds, exit")
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(HERE))
    wl, inputs, setup_s = load(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return
    out = ROOT / ".perfbench_out" / str(os.getpid())
    out.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(wl, inputs, out)
        runner.item()  # warm-up: checked, not timed
        if args.trace:
            metrics, info = measure_traced(runner, args.seconds)
        else:
            setups = [setup_s] + probe_setup(args.workload, args.seed)
            metrics, info = measure(runner, args.seconds, setups)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        try:
            out.parent.rmdir()
        except OSError:
            pass

    print("# env " + json.dumps(environment()))
    print(f"# workload {wl.name} inputs {inputs['key']} seed {args.seed} trace {args.trace}")
    for name, (value, unit, n) in metrics.items():
        print(f"# {name} {value:.6g} {unit} (n={n})")
    for name, (value, unit, n) in info.items():
        print(f"# {name} {value:.6g} {unit} (n={n}, not a bounded metric)")
    print(f"# fail_ratio {runner.failed / runner.attempted:.6g} - "
          f"({runner.failed} of {runner.attempted} items)")
    print("# item_s " + " ".join(f"{t:.4f}" for t in runner.times))
    for p in dict.fromkeys(runner.problems):
        print(f"# problem: {p}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
