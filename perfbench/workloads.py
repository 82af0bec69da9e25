"""The benchmark's workloads: inputs from a seed, one operation, a correctness gate.

Every operation calls ``entmono.harness.main`` in this process, exactly as the
``entmono`` command would, and writes its output under the run's temp dir.
``check`` reads that output back and returns a problem string, or None when
the output is correct. Importing this module imports ``entmono`` from the
checkout's ``src/``, never from an installed copy.
"""

import itertools
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SRC = ROOT / "src"
sys.path.insert(0, str(_SRC))

import entmono  # noqa: E402  (needs the path above)
from entmono import harness  # noqa: E402

if Path(entmono.__file__).resolve().parent != _SRC / "entmono":
    raise ImportError(f"entmono was imported from {entmono.__file__}, not from {_SRC}")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOLERANCE = 1e-12

# Job j of workload seed s runs campaign seed s * JOB_STRIDE + j + 1, so no two
# jobs of a run share an input. The warm-up always replays campaign seed 0, so
# every run checks at least one report against the stored reference.
JOB_STRIDE = 100_000
WARMUP_CAMPAIGN_SEED = 0
REFERENCE_CAMPAIGN_SEEDS = (0, 1, 2)  # the warm-up, then jobs 0 and 1 of seed 0

# Report fields compared with the reference: exactly, and within TOLERANCE.
_EXACT_ROW_FIELDS = ("bound", "alpha", "m", "qubits", "total", "applicable", "passed",
                     "failed", "indeterminate", "not_applicable", "worst_sample")
_CLOSE_ROW_FIELDS = ("worst_slack",)


def read_output(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Campaign:
    """``entmono verify`` jobs: each job is one whole campaign with its own seed."""

    round_ops = 1  # operations per traced round

    def __init__(self, name: str, samples: int, qubits: tuple, bounds: tuple = ()):
        self.name = name
        self.samples = samples
        self.qubits = qubits
        self.samples_per_op = samples * len(qubits)
        self.argv = ["verify", "--samples", str(samples),
                     "--qubits", ",".join(str(n) for n in qubits)]
        for bound in bounds:
            self.argv += ["--bound", bound]
        self.out = None
        self.reference = {}

    def prepare(self, tmp: Path) -> None:
        self.out = str(tmp / "report.json")

    def reference_jobs(self) -> tuple:
        return REFERENCE_CAMPAIGN_SEEDS

    def load_reference(self) -> None:
        for seed in REFERENCE_CAMPAIGN_SEEDS:
            text = read_output(REFERENCE_DIR / self.name / f"seed-{seed}.json")
            self.reference[seed] = json.loads(text)["rows"]

    def jobs(self, seed: int):
        return (seed * JOB_STRIDE + j + 1 for j in itertools.count())

    def warmup_job(self) -> int:
        return WARMUP_CAMPAIGN_SEED

    def run(self, job: int) -> tuple:
        return (harness.main(self.argv + ["--seed", str(job), "--out", self.out]),)

    def check(self, job: int, codes: tuple) -> str | None:
        if codes != (0,):
            return f"verify exit code {codes[0]}"
        return check_report(read_output(self.out), self.reference.get(job))

    def outputs(self, job: int) -> dict:
        """Reference file name -> output path, for recording the reference."""
        return {f"seed-{job}.json": self.out}


# Fixed pool of state files; the seed only decides the order they are visited in.
POOL_SEED = 1702
SWEEP_ARGS = ("--bound", "eof-tight-ordered", "--baseline", "eof-alpha-power",
              "--alpha-min", "1.5", "--alpha-max", "4", "--alpha-step", "0.02")


def _pool() -> dict:
    sampler = entmono.SeededSampler(POOL_SEED)
    pool = {}
    for n in (3, 5, 8):
        pool[f"w{n}"] = {"amplitudes": entmono.w_state(n)}
        pool[f"haar{n}"] = {"amplitudes": entmono.haar_random_pure(n, sampler.child(n))}
    pool["mixed3"] = {"density_matrix": entmono.random_mixed(3, 1, sampler.child(0))}
    return pool


class SingleState:
    """One ``entmono sweep`` then one ``entmono measure`` per request, on one state file.

    Mixed states get ``measure`` only, since ``sweep`` needs a pure state.
    """

    name = "single-state-cli"
    samples_per_op = 1  # each request handles one state
    qubits = ()

    def __init__(self):
        self.paths = {}
        self.pure = set()
        self.csv = self.json = None
        self.round_ops = 0
        self.reference = {}

    def prepare(self, tmp: Path) -> None:
        for name, state in _pool().items():
            path = str(tmp / f"{name}.json")
            entmono.save_state_file(path, **state)
            self.paths[name] = path
            if "amplitudes" in state:
                self.pure.add(name)
        self.round_ops = len(self.paths)  # a traced round visits the whole pool once
        self.csv = str(tmp / "sweep.csv")
        self.json = str(tmp / "measure.json")

    def reference_jobs(self) -> list:
        return sorted(self.paths)

    def load_reference(self) -> None:
        ref = REFERENCE_DIR / self.name
        for name in self.paths:
            self.reference[name] = (
                read_output(ref / f"{name}.sweep.csv") if name in self.pure else None,
                json.loads(read_output(ref / f"{name}.measure.json")),
            )

    def jobs(self, seed: int):
        rng = random.Random(seed)
        names = sorted(self.paths)
        while True:
            rng.shuffle(names)
            yield from names

    def warmup_job(self) -> str:
        return "haar8"

    def run(self, name: str) -> tuple:
        path = self.paths[name]
        codes = []
        if name in self.pure:
            codes.append(harness.main(["sweep", "--state", path, *SWEEP_ARGS,
                                       "--out", self.csv]))
        codes.append(harness.main(["measure", "--state", path, "--out", self.json]))
        return tuple(codes)

    def check(self, name: str, codes: tuple) -> str | None:
        if any(code != 0 for code in codes):
            return f"exit codes {codes}"
        ref_sweep, ref_measure = self.reference[name]
        if ref_sweep is not None:
            problem = compare_csv(read_output(self.csv), ref_sweep)
            if problem:
                return f"sweep of {name}: {problem}"
        try:
            measured = json.loads(read_output(self.json), parse_constant=_reject_constant)
        except ValueError as exc:
            return f"measure of {name} is not strict JSON: {exc}"
        problem = compare_values(measured, ref_measure, "measure")
        return f"measure of {name}: {problem}" if problem else None

    def outputs(self, name: str) -> dict:
        files = {f"{name}.measure.json": self.json}
        if name in self.pure:
            files[f"{name}.sweep.csv"] = self.csv
        return files


def make(name: str):
    if name == "verify-wide-light":
        return Campaign(name, samples=20, qubits=(4, 8, 12), bounds=("ckw", "tight-split"))
    if name == SingleState.name:
        return SingleState()
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------- gates

def _reject_constant(token: str):
    raise ValueError(f"{token} is not valid JSON")


def check_report(text: str, reference_rows: list | None) -> str | None:
    """Gate for a verify report; reference rows are compared when given."""
    try:
        report = json.loads(text, parse_constant=_reject_constant)
        if report["all_passed"] is not True:
            return "all_passed is not true"
        rows = report["rows"]
        if not rows:
            return "report has no rows"
        for row in rows:
            if row["passed"] + row["failed"] != row["applicable"]:
                return f"passed + failed != applicable in {row['bound']}"
            if row["applicable"] + row["indeterminate"] + row["not_applicable"] != row["total"]:
                return f"applicable + indeterminate + not_applicable != total in {row['bound']}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {exc!r}"
    if reference_rows is None:
        return None
    if len(rows) != len(reference_rows):
        return f"{len(rows)} rows, reference has {len(reference_rows)}"
    for index, (row, ref) in enumerate(zip(rows, reference_rows)):
        for field in _EXACT_ROW_FIELDS:
            if not _same(row.get(field), ref[field]):
                return f"row {index} {field}: {row.get(field)!r} != reference {ref[field]!r}"
        for field in _CLOSE_ROW_FIELDS:
            if not _close(row.get(field), ref[field]):
                return f"row {index} {field}: {row.get(field)!r} != reference {ref[field]!r}"
    return None


def compare_csv(text: str, reference: str) -> str | None:
    """Same header and row count; every value within TOLERANCE of the reference."""
    lines, ref_lines = text.splitlines(), reference.splitlines()
    if not lines or lines[0] != ref_lines[0]:
        return "CSV header differs"
    if len(lines) != len(ref_lines):
        return f"{len(lines) - 1} CSV rows, reference has {len(ref_lines) - 1}"
    for number, (line, ref) in enumerate(zip(lines[1:], ref_lines[1:]), start=2):
        try:
            values = [float(v) for v in line.split(",")]
        except ValueError:
            return f"CSV line {number} is not numeric"
        expected = [float(v) for v in ref.split(",")]
        if len(values) != len(expected) or not all(map(_close, values, expected)):
            return f"CSV line {number} differs from the reference"
    return None


def compare_values(value, reference, where: str) -> str | None:
    """Floats within TOLERANCE, everything else exactly; extra keys are allowed."""
    if isinstance(reference, dict):
        if not isinstance(value, dict):
            return f"{where} is not an object"
        for key, ref in reference.items():
            if key not in value:
                return f"{where}.{key} is missing"
            problem = compare_values(value[key], ref, f"{where}.{key}")
            if problem:
                return problem
        return None
    if isinstance(reference, list):
        if not isinstance(value, list) or len(value) != len(reference):
            return f"{where} has the wrong length"
        for index, (item, ref) in enumerate(zip(value, reference)):
            problem = compare_values(item, ref, f"{where}[{index}]")
            if problem:
                return problem
        return None
    ok = _close(value, reference) if isinstance(reference, float) else _same(value, reference)
    return None if ok else f"{where}: {value!r} != reference {reference!r}"


def _same(value, reference) -> bool:
    return type(value) is type(reference) and value == reference


def _close(value, reference) -> bool:
    if reference is None or value is None:
        return value is reference
    if type(value) is not float or type(reference) is not float:
        return False
    return abs(value - reference) <= TOLERANCE
