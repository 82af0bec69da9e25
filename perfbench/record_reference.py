"""Record the outputs the correctness gate compares against.

    python3 perfbench/record_reference.py

Writes perfbench/reference/<workload>/: the verify reports of campaign seeds
REFERENCE_CAMPAIGN_SEEDS, and the sweep CSV and measure JSON of every state
in the single-state pool. Re-record only in a change that is meant to alter
the program's outputs, and say so in that change.
"""

import shutil
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    for name in ("verify-wide-light", workloads.SingleState.name):
        workload = workloads.make(name)
        target = workloads.REFERENCE_DIR / name
        target.mkdir(parents=True, exist_ok=True)
        scratch = workloads.ROOT / ".perfbench"
        scratch.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            workload.prepare(Path(tmp))
            for job in workload.reference_jobs():
                codes = workload.run(job)
                if any(codes):
                    raise SystemExit(f"{name} job {job!r} exited with {codes}")
                for file_name, path in workload.outputs(job).items():
                    shutil.copyfile(path, target / file_name)
                    print(f"wrote {target / file_name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
