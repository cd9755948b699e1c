"""Benchmark of the gumbel_mmt package: one workload per run.

    python3 benchmark/run.py --workload train-default --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run sets up the workload several
times (``setup_s`` is the median), then repeats the workload's fixed unit of
work until ``--seconds`` have passed, and reports the end-to-end metrics.
With ``--trace 1`` it times one unit of work untraced and one traced, and
reports the per-layer metrics; the spans are written under ``.bench_out/``.

Human-readable lines come first.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 7  # set-ups per run; setup_s is their median
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics, reported by every workload: name -> (unit, better).
UNITS = {
    "setup_s": ("s", "lower"),
    "tokens_per_s": ("tokens/s", "higher"),
    "pass_s": ("s", "lower"),
    "heldout_loss": ("nats", "lower"),
}


def unit_of(name: str) -> tuple[str, str]:
    """(unit, better) of an end-to-end or per-layer metric."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".self_ms"):
        return "ms", "lower"
    if name.endswith((".calls", ".ops")):
        return "count", "lower"
    return {"autodiff.ops_per_example": "ops/example", "autodiff.ops_per_token": "ops/token",
            "model.decode.rows_per_token": "rows/token", "trace.overhead": "ratio",
            }.get(name, "fraction"), "lower"


def expected_metrics(trace: int) -> list[str]:
    """Names a run must report: every end-to-end metric, or with tracing on
    every per-layer metric."""
    from benchmark import tracing

    return [*tracing.layer_metrics([]), "trace.overhead"] if trace else list(UNITS)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["train-default", "decode-long", "learn-small"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


class Tally:
    """Operations attempted and failed.  Every pass of a run must give the
    first pass's fingerprints, operation by operation."""

    def __init__(self):
        self.reference: list | None = None
        self.attempted = self.failed = 0

    def add(self, fingerprints: list) -> None:
        if self.reference is None:
            self.reference = fingerprints
        self.attempted += len(fingerprints)
        self.failed += sum(fp is None or k >= len(self.reference) or fp != self.reference[k]
                           for k, fp in enumerate(fingerprints))


def set_up(wl, seed: int):
    t0 = time.perf_counter()
    state = wl.prepare(seed)
    wl.warm_up(state)
    return state, time.perf_counter() - t0


def timed_passes(wl, state, seconds: float, min_passes: int, tally: Tally):
    passes = []
    t0 = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        p = wl.repeat(state)
        passes.append(p)
    work_s = time.perf_counter() - t0
    for p in passes:
        tally.add(p.verify())
    return passes, work_s


def run(args) -> tuple[Tally, dict[str, float], list[str]]:
    from benchmark import tracing
    from benchmark.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tally = Tally()
    notes = []
    setup_times = []
    for _ in range(1 if args.trace else SETUPS):
        state = None  # frees the previous set-up's model before building the next
        state, seconds = set_up(wl, args.seed)
        setup_times.append(seconds)
    if not args.trace:
        passes, _ = timed_passes(wl, state, args.seconds, wl.min_passes, tally)
        metrics = {"setup_s": statistics.median(setup_times),
                   **wl.metrics(state, passes)}
        notes.append(f"{len(passes)} passes in {args.seconds:g} s, {SETUPS} set-ups; "
                     "tokens_per_s is a median over epochs or passes, pass_s over passes")
        notes.extend(wl.notes(passes))
        return tally, metrics, notes

    # One untraced and one traced pass of the same fixed work.
    _, plain_s = timed_passes(wl, state, 0.0, 1, tally)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced_state = wl.prepare(args.seed)
        _, traced_s = timed_passes(wl, traced_state, 0.0, 1, tally)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead"] = traced_s / plain_s
    out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(out)
    notes.append(f"{len(tracer.spans)} spans written to {out.relative_to(ROOT)}")
    return tally, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gumbel_mmt" / "__init__.py").is_file():
        print(f"error: no gumbel_mmt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One process and one thread: the matrices are small, and BLAS threads
    # would only add scheduling noise on a shared machine.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    env = {"nproc": os.cpu_count(), "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
           "python": platform.python_version(), "numpy": numpy.__version__}
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    tally, metrics, notes = run(args)
    if sorted(metrics) != sorted(expected_metrics(args.trace)):
        print(f"error: the run reported {sorted(metrics)}, "
              f"not {sorted(expected_metrics(args.trace))}", file=sys.stderr)
        return 1
    # Every metric is a positive measurement; anything else means a broken output.
    bad = [name for name, value in metrics.items()
           if not math.isfinite(value) or (value <= 0 and not args.trace)]
    for name in bad:
        print(f"error: {name} = {metrics[name]} is not a positive number", file=sys.stderr)
    for note in notes:
        print(f"# {note}")
    for name, value in metrics.items():
        unit, better = unit_of(name)
        print(f"{name:40s} {value:14.6g} {unit:12s} {better}-is-better")
    print(f"# attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps({
        "correct": tally.failed == 0 and not bad,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)[0]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
