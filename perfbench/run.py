"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plane_n40 --seed 1 --seconds 28 --trace 0

With `--trace 0` the run reports the end-to-end metrics (wall_s, setup_s,
step_ms_p50, peak_rss_mb); with `--trace 1` it reports the per-layer
metrics of `tracing.LAYER_METRICS`.  Every execution's output is checked
against the workload's reference.  A readable summary comes first; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See README.md in this directory.
"""

from __future__ import annotations

import env

env.prepare()  # before numpy loads: one BLAS thread, mcflow from this checkout

import argparse  # noqa: E402
import gc  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from mcflow import flow  # noqa: E402

# Set-up repetitions alternate with executions over the whole window.  Each
# batch has one repetition, and more while set-up has had less than
# SETUP_SHARE of the time since the window opened.
SETUP_SHARE = 0.1


class Recorder:
    """Executions of one workload: timings, failures and traces."""

    def __init__(self, workload, workdir):
        self.workload = workload
        self.workdir = workdir
        self.reference = workload.load_reference()
        self.attempted = 0
        self.failed = 0
        self.walls = []
        self.steps = []
        self.traced_walls = []
        self.layers = []
        self.last_tracer = None

    def execute(self, traced=False):
        """Run and check one execution; returns its duration in seconds."""
        self.attempted += 1
        gc.collect()
        t0 = perf_counter()
        tracer = tracing.Tracer()
        try:
            if traced:
                with tracer.installed():
                    ex = self.workload.execute(self.workdir)
            else:
                ex = self.workload.execute(self.workdir)
            problems = self.workload.check(ex.output, self.reference)
        except Exception:  # a failed execution is counted, not fatal
            self.failed += 1
            traceback.print_exc()
            return perf_counter() - t0
        if problems:
            self.failed += 1
            print(f"{self.workload.name}: output check failed: {problems}", file=sys.stderr)
        if traced:
            self.traced_walls.append(ex.wall_s)
            self.layers.append(tracing.layer_metrics(tracer.spans))
            self.last_tracer = tracer
        else:
            self.walls.append(ex.wall_s)
            self.steps.extend(ex.step_s)
        return perf_counter() - t0


def time_setup(workload):
    gc.collect()
    t0 = perf_counter()
    for cfg in workload.setup_configs():
        flow.initialize(cfg)
    return perf_counter() - t0


def measure(rec, seconds, rng):
    """End-to-end run: executions and set-up batches in turn until the deadline.

    The seed picks which of the two comes first.  A task runs only if it
    ends before the deadline when it takes as long as its longest run so far.
    """
    start = perf_counter()
    deadline = start + seconds
    setups = []

    def execute():
        rec.execute()

    def setup_batch():
        setups.append(time_setup(rec.workload))
        while sum(setups) < SETUP_SHARE * (perf_counter() - start):
            setups.append(time_setup(rec.workload))

    tasks = [execute, setup_batch]
    rng.shuffle(tasks)
    longest = [0.0, 0.0]
    for k in itertools.count():
        i = k % 2
        if k >= 2 and perf_counter() + longest[i] > deadline:
            break
        t0 = perf_counter()
        tasks[i]()
        longest[i] = max(longest[i], perf_counter() - t0)
    if not rec.walls:
        raise SystemExit(f"error: no execution of {rec.workload.name} completed")
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (float(np.median(rec.walls)), "s", len(rec.walls)),
        "setup_s": (float(np.median(setups)), "s", len(setups)),
        "step_ms_p50": (1e3 * float(np.median(rec.steps)), "ms", len(rec.steps)),
        "peak_rss_mb": (rss_mib, "MiB", 1),
    }
    return metrics


def measure_traced(rec, seconds, rng):
    """Traced run: pairs of one untraced and one traced execution, in seed order.

    Ends after the first pair if its traced execution failed.
    """
    deadline = perf_counter() + seconds
    longest_pair = 0.0
    while True:
        order = [False, True]
        rng.shuffle(order)
        longest_pair = max(longest_pair, sum(rec.execute(traced=t) for t in order))
        if not rec.layers or perf_counter() + longest_pair > deadline:
            break
    if not rec.layers or not rec.walls:
        raise SystemExit(f"error: no traced execution of {rec.workload.name} completed")
    layers = tracing.median_metrics(rec.layers)
    layers["trace.overhead_ratio"] = float(np.median(rec.traced_walls) / np.median(rec.walls))
    n = len(rec.layers)
    return {k: (v, tracing.LAYER_METRICS[k], n) for k, v in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    env.WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=env.WORK_DIR)
    try:
        workload.tiny().execute(workdir)  # warm-up: imports and first calls
        rec = Recorder(workload, workdir)
        if args.trace:
            metrics = measure_traced(rec, args.seconds, rng)
        else:
            metrics = measure(rec, args.seconds, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    print(f"  why: {workload.why}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} (n={n})")
    print("  execution walls (s): " + " ".join(f"{w:.4f}" for w in rec.walls))
    print(
        f"  {'error_rate':36s} {rec.failed / rec.attempted:14.6g} {'':6s} "
        f"({rec.failed} of {rec.attempted} executions failed)"
    )
    if rec.last_tracer is not None:
        spans_path = env.WORK_DIR / f"spans-{workload.name}-{args.seed}.json"
        spans_path.write_text(json.dumps(rec.last_tracer.to_json()))
        print(f"  spans of the last traced execution: {spans_path}")
    print("environment " + json.dumps(env.environment(), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": rec.failed == 0,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
