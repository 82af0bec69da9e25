"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py, which times set-up from the outside. The protocol on
stdout is one line ``ready`` (or ``ready FAIL <problem>``) when set-up is over,
then, in measure and trace mode, one JSON line with the results. The process
is a closed loop of one client: it sends the next operation only after the
previous one returned, and starts no threads or processes.

    python3 perfbench/worker.py --workload NAME --seed N --mode measure \
        --seconds S --tmp DIR [--spans FILE]
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads

# Per-layer metrics of functions every campaign sample passes through. On a
# campaign they are also reported per qubit count with a .n<q> suffix.
STAGE_LAYERS = (
    ("states.SeededSampler.rng", "self_us"),
    ("states.haar_random_pure", "self_us"),
    ("linalg.reduced_state", "self_us"),
    ("linalg.reduced_state", "calls"),
    ("linalg.as_state_vector", "self_us"),
    ("linalg.as_state_vector", "calls"),
    ("measures.wootters_concurrence", "self_us"),
    ("measures.wootters_concurrence", "calls"),
    ("measures.concurrence_pure", "self_us"),
    ("measures.eof_pure", "self_us"),
    ("measures.eof_from_squared_concurrence", "self_us"),
    ("measures.eof_from_squared_concurrence", "calls"),
    ("monogamy.profile", "self_us"),
    ("monogamy.evaluate", "self_us"),
    ("monogamy.evaluate", "calls"),
)
JOB_LAYERS = (
    ("monogamy.residual_sweep", "self_us"),
    ("harness.run_campaign", "self_us"),
    ("harness.to_json", "us"),
    ("harness.load_state_file", "us"),
    ("harness.main", "self_us"),
)
SUFFIX_QUBITS = (4, 8, 12)
MIN_OPS = 100  # so that at least 10 operations fall beyond p90, on a slow host too
_UNITS = {"self_us": "us", "us": "us", "calls": "count"}


def _run_op(workload, job, log) -> tuple:
    """Run one operation; return (seconds, samples verified, failed)."""
    start = time.perf_counter()
    codes = workload.run(job)
    elapsed = time.perf_counter() - start
    problem = workload.check(job, codes)
    if problem is not None:
        print(f"perfbench: {workload.name} job {job!r} failed: {problem}", file=log)
        return elapsed, 0, 1
    return elapsed, workload.samples_per_op, 0


def measure(workload, jobs, seconds: float, min_ops: int = MIN_OPS, log=sys.stderr) -> dict:
    """Closed loop for ``seconds`` and at least ``min_ops`` operations.

    Returns the end-to-end metrics except set-up time.
    """
    latencies, verified, failed = [], 0, 0
    deadline = time.perf_counter() + seconds
    while len(latencies) < min_ops or time.perf_counter() < deadline:
        elapsed, samples, bad = _run_op(workload, next(jobs), log)
        latencies.append(elapsed)
        verified += samples
        failed += bad
    # a run in which every operation failed verified nothing; divide by what it tried
    per_sample = sum(latencies) / (verified or workload.samples_per_op * len(latencies))
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": len(latencies),
        "failed": failed,
        "samples_verified": verified,
        "metrics": {
            "us_per_sample": {"value": per_sample * 1e6, "unit": "us"},
            "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": deciles[-1] * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def trace(workload, jobs, seconds: float, spans_path=None, log=sys.stderr) -> dict:
    """Alternate untraced and traced rounds of the same jobs for ``seconds``.

    A round is ``workload.round_ops`` operations, so every traced round makes
    the same calls, and their counts must repeat exactly.
    """
    tr = tracer.Tracer()
    totals = None
    first_counts, first_spans = None, None
    counts_repeat = True
    wall = {False: 0.0, True: 0.0}
    attempted = failed = rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds < 2 or time.perf_counter() < deadline:
        batch = [next(jobs) for _ in range(workload.round_ops)]
        # alternate which side goes first, so slow drift does not bias the ratio
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            if traced:
                tr.install()
            try:
                for job in batch:
                    elapsed, _, bad = _run_op(workload, job, log)
                    wall[traced] += elapsed
                    attempted += 1
                    failed += bad
            finally:
                if traced:
                    tr.uninstall()
            if traced:
                spans = tr.take_spans()
                counts = tracer.call_counts(spans)
                if first_counts is None:
                    first_counts, first_spans = counts, spans
                elif counts != first_counts:
                    counts_repeat = False
                totals = tracer.fold(spans, totals)
        rounds += 1
    if spans_path:
        tracer.write_spans(spans_path, first_spans)
    metrics = layer_metrics(workload, totals, rounds * workload.round_ops)
    metrics["trace_overhead_ratio"] = {"value": wall[True] / wall[False], "unit": "ratio"}
    return {
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "counts_repeat": counts_repeat,
        "untraced_functions": tr.missing,
        "metrics": metrics,
    }


def layer_metrics(workload, totals, ops: int) -> dict:
    """Per sample on campaigns, per request on single-state-cli."""

    def metric(name, measure, units, qubits=None):
        calls = self_ns = total_ns = 0
        for (span, q), (c, s, t) in totals.items():
            if span == name and qubits in (None, q):
                calls, self_ns, total_ns = calls + c, self_ns + s, total_ns + t
        if not units:  # the workload never samples at this qubit count
            value = 0.0
        elif measure == "calls":
            value = calls / units
        else:
            value = (self_ns if measure == "self_us" else total_ns) / 1e3 / units
        return {"value": value, "unit": _UNITS[measure]}

    metrics = {}
    for name, measure in STAGE_LAYERS + JOB_LAYERS:
        metrics[f"{name}.{measure}"] = metric(name, measure, ops * workload.samples_per_op)
    for q in SUFFIX_QUBITS:
        q_units = ops * workload.samples if q in workload.qubits else 0
        for name, measure in STAGE_LAYERS:
            metrics[f"{name}.{measure}.n{q}"] = metric(name, measure, q_units, q)
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "measure", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload)
    workload.prepare(Path(args.tmp))
    workload.load_reference()
    warmup = workload.warmup_job()
    problem = workload.check(warmup, workload.run(warmup))
    print("ready" if problem is None else f"ready FAIL {problem}", flush=True)
    if args.mode == "probe":
        return 0
    jobs = workload.jobs(args.seed)
    if args.mode == "measure":
        result = measure(workload, jobs, args.seconds)
    else:
        result = trace(workload, jobs, args.seconds, args.spans)
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
