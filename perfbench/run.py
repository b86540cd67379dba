"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload steady_jit --seed 1 --seconds 15 \\
        --trace 0

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` it
carries the per-layer metrics of a traced pass that follows the
untraced one.  Earlier lines describe the drawn inputs, their digest and
the sample counts.  Spans of a traced run are written to
``.bench_out/`` when the run ends.  See ``perfbench/README.md``.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: set-up is timed this many times per run; ``setup_s`` is the median
SETUP_REPEATS = 3
#: share of the untraced pass's rounds that the traced pass replays; half
#: keeps a traced run within the time limit of one run
TRACE_SHARE = 0.5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady_jit", "cold_guests", "paper_fig8"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="operation time to measure per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def peak_rss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure(workload, seconds):
    """Run whole rounds of operations until at least ``seconds`` of
    operation time are measured; returns ``(results, indices, rss_kb)``,
    ``rss_kb`` being the peak RSS after ``workload.rss_rounds`` rounds (or
    all of them, if fewer ran)."""
    results = []
    indices = []
    rss_kb = None
    while not results or sum(r.seconds for r in results) < seconds:
        for _ in range(workload.round_size):
            index = len(indices)
            results.extend(workload.run_op(index))
            indices.append(index)
        if len(indices) == workload.rss_rounds * workload.round_size:
            rss_kb = peak_rss_kb()
    return results, indices, rss_kb or peak_rss_kb()


def traced_indices(workload, indices):
    """Operation indices of the traced pass: the first ``TRACE_SHARE`` of
    the untraced pass's whole rounds (at least one)."""
    rounds = len(indices) // workload.round_size
    keep = max(1, math.ceil(rounds * TRACE_SHARE)) * workload.round_size
    return workload.replay_indices(indices)[:keep]


def replay(workload, indices, recorder=None, telemetry=False):
    """Run exactly the operations ``indices``; returns their results."""
    return [result for index in indices
            for result in workload.run_op(index, recorder, telemetry)]


def end_to_end(results, setup_s, rss_kb):
    seconds = [r.seconds for r in results]
    committed = sum(r.committed for r in results)
    ms = [s * 1000.0 for s in seconds]
    return {
        "setup_s": (setup_s, "s"),
        "guest_minstr_per_s": (committed / sum(seconds) / 1e6, "Minstr/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[-1] if len(ms) > 1
                      else ms[0], "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_op_cost(results):
    """Host seconds per committed guest instruction."""
    committed = sum(r.committed for r in results)
    return sum(r.seconds for r in results) / committed if committed else 0.0


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no src/repro next to {HERE.name}/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import spans
    import suite
    import_s = time.perf_counter() - started

    workload = suite.WORKLOADS[args.workload](args.seed)
    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - started)
    setup_s = import_s + statistics.median(setups)
    workload.prepare_checks()
    print("inputs:", json.dumps(workload.describe(), sort_keys=True))
    print("input_digest:", workload.digest())

    results, indices, rss_kb = measure(workload, args.seconds)
    if args.trace:
        recorder = spans.SpanRecorder()
        with spans.instrumented(recorder):
            traced = replay(workload, traced_indices(workload, indices),
                            recorder, telemetry=True)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        recorder.write(out / f"spans-{args.workload}-{args.seed}.json",
                       workload=args.workload, seed=args.seed)
        metrics = spans.layer_metrics(recorder.spans, per_op_cost(traced),
                                      per_op_cost(results))
        results = results + traced
    else:
        metrics = end_to_end(results, setup_s, rss_kb)

    failed = [r for r in results if r.failure is not None]
    if args.trace:
        metrics["ops_failed_frac"] = (len(failed) / len(results), "frac")
    for result in failed[:10]:
        print("FAILED:", result.failure)
    print(f"ops: {len(results)} attempted, {len(failed)} failed; "
          f"setup repeats {[round(s, 4) for s in setups]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
