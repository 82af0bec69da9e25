"""Smoke test of the benchmark itself; exits non-zero on the first broken promise.

    python3 perfbench/smoke.py

Checks, in about two minutes:
  - every workload runs at a tiny length and prints every end-to-end metric
    by name with its unit, with no failed operation;
  - a report corrupted in memory is counted as a failed operation;
  - the traced run emits every per-layer metric, and two traced runs give
    identical .calls counts;
  - without the program's sources the benchmark exits non-zero and prints no
    result.
"""

import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = ROOT / ".perfbench"  # ignored by git, like every benchmark output


def fail(message: str) -> None:
    raise SystemExit(f"smoke: FAIL: {message}")


def run_bench(*args: str, cwd: Path = ROOT) -> tuple:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result_of(lines: list, what: str) -> dict:
    if not lines:
        fail(f"{what}: no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{what}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{what}: {result['attempted']} attempted, {result['failed']} failed")
    return result


def check_end_to_end() -> None:
    for workload in WORKLOADS:
        code, lines, err = run_bench("--workload", workload, "--seed", "3",
                                     "--seconds", "1", "--trace", "0")
        if code != 0:
            fail(f"{workload} exited {code}: {err[-2000:]}")
        result = result_of(lines, workload)
        text = "\n".join(lines[:-1])
        for metric in SPEC["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            got = result["metrics"].get(name)
            if got is None or got["unit"] != unit or not got["value"] > 0:
                fail(f"{workload}: metric {name} is {got}")
            if not re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", text, re.M):
                fail(f"{workload}: {name} is not printed with its unit")
        if "error_rate 0 ratio" not in text:
            fail(f"{workload}: error_rate is not printed as 0")
        print(f"smoke: {workload}: end-to-end metrics ok")


def check_traced() -> None:
    names = {m["name"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        calls = []
        for _ in range(2):
            code, lines, err = run_bench("--workload", workload, "--seed", "5",
                                         "--seconds", "1", "--trace", "1")
            if code != 0:
                fail(f"traced {workload} exited {code}: {err[-2000:]}")
            metrics = result_of(lines, f"traced {workload}")["metrics"]
            if set(metrics) != names:
                fail(f"traced {workload}: metrics differ by {sorted(set(metrics) ^ names)}")
            calls.append({k: v["value"] for k, v in metrics.items() if ".calls" in k})
        if calls[0] != calls[1]:
            fail(f"traced {workload}: .calls differ between two runs")
        if not any(calls[0].values()):
            fail(f"traced {workload}: no calls were counted")
        print(f"smoke: {workload}: per-layer metrics ok, .calls repeat exactly")


def _corrupt(text: str) -> str:
    """Change one value the gate must notice: a counter, a float or a flag."""
    if text.startswith("alpha,"):  # sweep CSV: nudge the first y1 by far more than 1e-12
        head, first, rest = text.split("\n", 2)
        alpha, y1, y2 = first.split(",")
        return f"{head}\n{alpha},{float(y1) + 1e-9!r},{y2}\n{rest}"
    data = json.loads(text)
    if "rows" in data:  # verify report: break passed + failed == applicable
        data["rows"][0]["passed"] += 1
    else:  # measure JSON
        data["concurrence"]["pairs"][0] += 1e-9
    return json.dumps(data)


def check_corruption_counted() -> None:
    import worker
    import workloads

    original = workloads.read_output
    for workload_name in WORKLOADS:
        workload = workloads.make(workload_name)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            workload.prepare(Path(tmp))
            workload.load_reference()
            jobs = workload.jobs(0)
            sink = io.StringIO()  # entmono's stderr and the gate's messages
            with redirect_stderr(sink):
                clean = worker.measure(workload, jobs, 0.3, min_ops=1, log=sink)
                workloads.read_output = lambda path: _corrupt(original(path))
                try:
                    dirty = worker.measure(workload, jobs, 0.3, min_ops=1, log=sink)
                finally:
                    workloads.read_output = original
        if clean["failed"] != 0:
            fail(f"{workload_name}: clean outputs failed the gate")
        if dirty["failed"] != dirty["attempted"]:
            fail(f"{workload_name}: {dirty['failed']} of {dirty['attempted']} corrupted "
                 "reports counted as failed")
        print(f"smoke: {workload_name}: corrupted reports count as failed operations")
    bad = '{"all_passed": true, "rows": [{"bound": "ckw", "worst_slack": NaN}]}'
    if workloads.check_report(bad, None) is None:
        fail("a report with NaN passed the gate")


def check_needs_sources() -> None:
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run_bench("--workload", WORKLOADS[0], "--seed", "0",
                                   "--seconds", "1", "--trace", "0", cwd=bare)
    if code == 0 or any(line.startswith('{"correct"') for line in lines):
        fail("the benchmark ran without the program's sources")
    print("smoke: without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    SCRATCH.mkdir(exist_ok=True)
    check_corruption_counted()
    check_needs_sources()
    check_end_to_end()
    check_traced()
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
