"""Run one workload of the entmono benchmark and print its result.

    python3 perfbench/run.py --workload verify-wide-light --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 5 --trace 1

Run it from anywhere inside a checkout of the repository: the program under
test is imported from the checkout's ``src/``, and without it the run stops
with exit code 2. Workload and metric names come from ``BENCHMARK.json``.

With ``--trace 0`` the run starts SETUP_RUNS fresh interpreters one after
another. Each imports entmono, makes the workload's inputs and runs one
untimed warm-up operation; ``setup_s`` is the median of the times from
process start until it reports ready. The last of them then measures
operations in a closed loop for ``--seconds``. With ``--trace 1`` one
interpreter alternates untraced and traced rounds of the same operations
and reports the per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it name every metric with its unit and
record the environment. ``failed / attempted`` is the error rate: an
operation fails if it raises, exits non-zero or fails the correctness gate.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"  # temp dirs and span files; never committed
SETUP_RUNS = 5
# SETUP_RUNS set-ups at most SETUP_TIMEOUT_S each, then --seconds and EXIT_TIMEOUT_S:
# a run that hangs still ends within three minutes.
SETUP_TIMEOUT_S = 15.0
EXIT_TIMEOUT_S = 60.0  # beyond --seconds: the last operations (at least 100 run) and the report


class BenchError(RuntimeError):
    pass


def _read(fd: int, deadline: float, first_line: bool) -> bytes:
    """Read from a worker's stdout until EOF (or the first newline) or the deadline."""
    data = b""
    while not (first_line and b"\n" in data):
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise BenchError("worker timed out")
        chunk = os.read(fd, 65536)
        if not chunk:
            break
        data += chunk
    return data


def _spawn(workload: str, seed: int, mode: str, seconds: float, tmp: Path, log,
           spans: Path | None = None) -> tuple:
    """Start one worker; return (set-up seconds, warm-up problem, result or None)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
            "--tmp", str(tmp)]
    if spans is not None:
        argv += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=log)
    try:
        fd = proc.stdout.fileno()
        head = _read(fd, time.monotonic() + SETUP_TIMEOUT_S, first_line=True)
        setup_s = time.perf_counter() - start
        rest = _read(fd, time.monotonic() + seconds + EXIT_TIMEOUT_S, first_line=False)
        code = proc.wait(timeout=EXIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not exit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = (head + rest).decode().splitlines()
    if code != 0 or not lines or not lines[0].startswith("ready"):
        raise BenchError(f"{mode} worker exited with code {code}")
    problem = lines[0][len("ready"):].strip() or None
    result = json.loads(lines[-1]) if mode != "probe" else None
    return setup_s, problem, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    log_path = tmp / "worker.log"
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            setups, problems = [], []
            if trace:
                spans = OUT_DIR / f"spans-{workload}-seed{seed}.tsv"
                _, problem, result = _spawn(workload, seed, "trace", seconds, tmp, log, spans)
                problems.append(problem)
            else:
                for mode in ["probe"] * (SETUP_RUNS - 1) + ["measure"]:
                    setup_s, problem, result = _spawn(workload, seed, mode, seconds, tmp, log)
                    setups.append(setup_s)
                    problems.append(problem)
                result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
                result["setup_runs_s"] = setups
    except BenchError:
        sys.stderr.write(log_path.read_text(encoding="utf-8")[-4000:])
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for problem in filter(None, problems):
        print(f"perfbench: warm-up of {workload} failed the gate: {problem}", file=sys.stderr)
    result["warmup_ok"] = not any(problems)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "entmono" / "__init__.py").is_file():
        print(f"perfbench: no entmono sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    selected = names if args.workload == "all" else [args.workload]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in selected:
        try:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        metrics = result.pop("metrics")
        got = {name: m["unit"] for name, m in metrics.items()}
        if got != wanted:
            print(f"perfbench: {workload} reported metrics that differ from BENCHMARK.json: "
                  f"{sorted(set(got.items()) ^ set(wanted.items()))}", file=sys.stderr)
            return 1
        correct = (result["failed"] == 0 and result["warmup_ok"]
                   and result.get("counts_repeat", True))
        print(json.dumps({"workload": workload, "seed": args.seed, "trace": args.trace,
                          "seconds": args.seconds, "correct": correct, **result}))
        print(f"{workload}: {result['attempted']} operations, {result['failed']} failed, "
              f"error_rate {result['failed'] / result['attempted']:.6g} ratio")
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']:.6g} {m['unit']}")
        summary["correct"] = summary["correct"] and correct
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        prefix = f"{workload}." if args.workload == "all" else ""
        summary["metrics"].update({prefix + name: m for name, m in metrics.items()})
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
