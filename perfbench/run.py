"""Wall-clock benchmark of serving and decomposition.

Run from the repository root::

    python3 perfbench/run.py --workload serve-cold --seed 0 --seconds 20 --trace 0

One process runs one workload: it sets the workload up several times (input
generation, engine build, priming pass) and reports the median set-up time,
then repeats the timed pass for ``--seconds`` and reports the median pass.
A cheap set-up is repeated before every pass too (:data:`RESETUP_MAX_S`).
Outputs are checked after timing.  With ``--trace 1`` untraced and traced
passes alternate, and the per-layer split of the traced pass with the median
total is reported instead of the end-to-end metrics.

Every metric is printed as ``name = value unit``; the last line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The full record
(environment, seeds, simulated metrics, the traced split) and the traced
pass's spans are written under ``perfbench/out/``.  The exit code is 0 only
when every output passed its check.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

sys.path.insert(0, BENCH_DIR)
from seeds import DEFAULT_SEED, HELD_OUT_SEED  # noqa: E402

#: Set-ups per run (``setup_s`` is their median): at least this many, and
#: more until they add up to ``SETUP_MIN_S`` so a cheap set-up is not one
#: noisy reading.  Also the fewest timed passes per run, whatever
#: ``--seconds`` says.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
MIN_PASSES = 3

#: A set-up whose median is below this is also timed once more before every
#: timed pass (and its state dropped).  Host speed can swing by
#: 1.5x from one few-second stretch to the next, so set-ups bunched at the
#: start of a run read a different host than the passes; spread over the
#: run, they sample it as ``wall_s`` does.  Slower set-ups (the primed
#: ``serve-hedged``) already span as long as the passes.
RESETUP_MAX_S = 1.0

#: BLAS/OpenMP threads.  Dense work here is small matrices, and one thread
#: keeps the timing free of thread-pool wake-up jitter.
BLAS_THREADS = 1
BACKEND = "vectorized"

#: ``serve-warm`` runs by hand only, not from ``BENCHMARK.json``: four
#: workloads at 20 s a run do not fit the gate's time limit, it spread most
#: between runs, and the primed ``serve-hedged`` covers its layers (README,
#: Noise).
WORKLOAD_NAMES = ("serve-warm", "serve-cold", "serve-hedged", "decomp-large")


def _pin_environment() -> None:
    """Pin the BLAS pools and select the backend before NumPy is imported."""
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["REPRO_BACKEND"] = BACKEND


def _git_commit() -> str:
    """The checked-out commit, or ``unknown`` outside a git checkout (a
    parent directory's repository is not asked)."""
    if not os.path.exists(os.path.join(ROOT_DIR, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT_DIR,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _environment() -> Dict[str, Any]:
    import numpy

    return {
        "nproc": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "blas_threads": int(os.environ["OMP_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": os.environ["REPRO_BACKEND"],
        "git_commit": _git_commit(),
        "platform": platform.platform(),
    }


def _timed_passes(
    workload: Any,
    state: Any,
    seconds: float,
    tracer: Any = None,
    resetup: Optional[Callable[[], Any]] = None,
) -> Tuple[List[float], List[float], Any, List[float], Any, List[Tuple[int, int]]]:
    """Repeat the timed pass for ``seconds`` (at least :data:`MIN_PASSES`).

    Without ``tracer`` every pass is untraced.  With it, untraced and traced
    passes alternate, so a drift in host speed during the run lands on both
    sides of ``trace.overhead_ratio``.  ``resetup`` is called before each
    pass and its state dropped: every pass runs on ``state``, so no more
    than one set-up is held while a pass runs.  Each untraced pass sits
    between two host-speed probes.  Returns the untraced walls, their host
    factors and first output, the traced walls and first output, and each
    traced pass's ``[first, last)`` span range.
    """
    from probe import host_factor, probe

    walls: Dict[bool, List[float]] = {False: [], True: []}
    factors: List[float] = []
    first: Dict[bool, Any] = {}
    ranges: List[Tuple[int, int]] = []
    deadline = time.perf_counter() + seconds
    traced = False
    while (
        min(len(walls[False]), len(walls[tracer is not None])) < MIN_PASSES
        or time.perf_counter() < deadline
    ):
        if resetup is not None:
            resetup()
        engine = workload.prepare(state)
        # Collect the previous pass's garbage now, not inside this pass.
        gc.collect()
        if not traced:
            before = probe()
            start = time.perf_counter()
            output = workload.run(state, engine)
            walls[False].append(time.perf_counter() - start)
            factors.append(host_factor(before, probe()))
        else:
            begin = len(tracer.spans)
            tracer.install()
            try:
                with tracer.root():
                    output = workload.run(state, engine)
            finally:
                tracer.remove()
            root = tracer.spans[begin]
            walls[True].append(root[2] - root[1])
            ranges.append((begin, len(tracer.spans)))
        first.setdefault(traced, output)
        del output, engine
        traced = tracer is not None and not traced
    return (
        walls[False],
        factors,
        first.get(False),
        walls[True],
        first.get(True),
        ranges,
    )


def _per_layer_unit(name: str, value: float) -> str:
    if name.endswith("_s"):
        return "s"
    return "count" if isinstance(value, int) else "ratio"


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT_DIR, "src", "repro")):
        print(f"error: no src/repro package under {ROOT_DIR}", file=sys.stderr)
        return 2
    _pin_environment()
    sys.path.insert(0, os.path.join(ROOT_DIR, "src"))
    from probe import host_factor, probe
    from tracer import Tracer, layer_metrics, nesting_errors, write_spans
    from workloads import build_workloads

    workload = build_workloads()[args.workload]

    setup_times: List[float] = []
    setup_factors: List[float] = []

    def set_up() -> Any:
        before = probe()
        start = time.perf_counter()
        state = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - start)
        setup_factors.append(host_factor(before, probe()))
        return state

    state = None
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        state = None  # free the previous set-up before building the next
        state = set_up()
    resetup = set_up if statistics.median(setup_times) < RESETUP_MAX_S else None

    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
    }
    if args.trace == 0:
        walls, factors, output, _, _, _ = _timed_passes(
            workload, state, args.seconds, resetup=resetup
        )
        # Read before the check: the COO oracles build arrays the program
        # never does.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed = workload.check(output)
        completed = workload.completed(output)
        wall_s = statistics.median(walls)
        wall_ref_s = statistics.median(w / f for w, f in zip(walls, factors))
        e2e = {
            "wall_ref_s": (wall_ref_s, "s"),
            "jobs_per_ref_s": (completed / wall_ref_s, "jobs/s"),
            "setup_s": (
                statistics.median(t / f for t, f in zip(setup_times, setup_factors)),
                "s",
            ),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        reported = dict(e2e)
        reported.update(
            wall_s=(wall_s, "s"),
            jobs_per_s=(completed / wall_s, "jobs/s"),
            setup_wall_s=(statistics.median(setup_times), "s"),
            host_factor=(statistics.median(factors + setup_factors), "ratio"),
        )
        reported.update(workload.simulated(output))
        reported["output_mismatch_count"] = (failed, "count")
        record.update(
            passes=len(walls),
            walls_s=walls,
            pass_host_factors=factors,
            setup_times_s=setup_times,
            setup_host_factors=setup_factors,
        )
    else:
        tracer = Tracer()
        plain_walls, _, plain, traced_walls, traced, ranges = _timed_passes(
            workload, state, args.seconds, tracer, resetup
        )
        attempted, failed = workload.check(plain)
        # Tracing is observation-only: the traced pass must reproduce the
        # untraced outputs and simulated metrics exactly.
        attempted += workload.completed(plain)
        failed += workload.differences(plain, traced)
        failed += workload.simulated(plain) != workload.simulated(traced)

        median_total = statistics.median_low(traced_walls)
        begin, end = ranges[traced_walls.index(median_total)]
        spans = tracer.pass_spans(begin, end)
        split = layer_metrics(spans, workload.completed(traced))
        split["trace.overhead_ratio"] = median_total / statistics.median(plain_walls)
        self_sum = sum(v for k, v in split.items() if k.endswith(".self_s"))
        reconciliation_error = (
            self_sum + split["trace.untagged_s"] - split["trace.total_s"]
        )
        failed += abs(reconciliation_error) > 1e-9 * max(1.0, split["trace.total_s"])
        # The identity holds for any span tree; a mis-nested span fails here.
        span_errors = nesting_errors(spans)
        failed += span_errors
        reported = {
            name: (value, _per_layer_unit(name, value)) for name, value in split.items()
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
        reported["trace.reconciliation_error_s"] = (reconciliation_error, "s")
        reported["trace.nesting_errors"] = (span_errors, "count")
        record.update(
            untraced_walls_s=plain_walls,
            traced_walls_s=traced_walls,
            span_count=len(spans),
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        write_spans(
            os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl"), spans
        )

    for name, (value, unit) in reported.items():
        print(f"{name} = {value!r} {unit}")
    record["reported"] = {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": int(failed),
        "metrics": metrics,
    }
    record["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(
        os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
        "w",
        encoding="utf-8",
    ) as out:
        json.dump(record, out, indent=2)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
