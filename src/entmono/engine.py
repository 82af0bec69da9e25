"""Monte Carlo campaign engine: sample Haar-random states, tally bound verdicts.

A campaign report is reproducible byte for byte: sample i at n qubits is
drawn by _draw on spawn key (n, i), which campaign_state replays, and
the report holds only deterministic fields. Samples are taken in runs of
at most BLOCK_BYTES // 16: a run is profiled in blocks of BLOCK_BYTES of
amplitudes, in buffers allocated once per run of samples, and then
evaluated at once; neither size changes a report value.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import MAX_QUBITS, _instance, _real, _sequence, _whole, _wholes
from .monogamy import (FAILS, HOLDS, UNDECIDED, BoundKind, PartitionSpec, ProfileBlock,
                       _STRICT_SLACK_FLOOR, _evaluate, profile_batch)
from .statefile import _strict_json
from .states import _haar_into, _rng

REPORT_FORMAT_VERSION = "1"
DEFAULT_TOLERANCE = 1e-10
# amplitude bytes (16 per amplitude) a campaign stacks into one profile_batch
# block, four 12-qubit states; with the buffers reused, 2^17 measured 5 %
# slower on verify-wide-light, and 2^20 no faster at 2.4 MB more peak RSS
BLOCK_BYTES = 1 << 18


@dataclass(frozen=True)
class CampaignConfig:
    samples: int
    qubit_counts: tuple
    kinds: tuple
    seed: int
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        # the one check of a config, so run_campaign trusts it and equal configs report alike
        object.__setattr__(self, "samples", _whole("samples", self.samples, 1))
        object.__setattr__(self, "seed", _whole("seed", self.seed, 0))
        object.__setattr__(self, "qubit_counts", _wholes("qubit count", self.qubit_counts, 3,
                                                         MAX_QUBITS))
        kinds = _sequence("bound kinds", self.kinds, "BoundKind values")
        object.__setattr__(self, "kinds", tuple(_instance("bound kind", kind, BoundKind)
                                                for kind in kinds))
        if len(set(self.qubit_counts)) < len(self.qubit_counts):
            raise ValueError("qubit counts must not repeat")
        if not self.kinds:
            raise ValueError("no bounds selected")
        if len(set(self.kinds)) < len(self.kinds):
            raise ValueError("bound kinds must not repeat")
        object.__setattr__(self, "tolerance", _real("tolerance", self.tolerance))
        if not self.tolerance > 0.0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        for kind in self.kinds:
            if not any(kind.fits(n) for n in self.qubit_counts):
                raise ValueError(f"{kind} fits none of the requested qubit counts")


@dataclass
class CampaignRow:
    """One bound kind at one qubit count; the campaign tallies samples into it."""

    bound: str
    alpha: float
    m: int | None
    qubits: int
    total: int = 0
    applicable: int = 0
    passed: int = 0
    failed: int = 0
    indeterminate: int = 0
    not_applicable: int = 0
    worst_slack: float | None = None
    worst_sample: int | None = None
    failures: list = field(default_factory=list)


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    rows: tuple
    all_passed: bool
    stats: dict

    def to_json(self) -> str:
        payload = {
            "format_version": REPORT_FORMAT_VERSION,
            "config": {
                "samples": self.config.samples,
                "qubit_counts": list(self.config.qubit_counts),
                "bounds": [
                    {"bound": k.id.value, "alpha": k.alpha, "m": k.m}
                    for k in self.config.kinds
                ],
                "seed": self.config.seed,
                "tolerance": self.config.tolerance,
            },
            "rows": [vars(r) for r in self.rows],  # shallow: json.dumps needs no copies
            "stats": self.stats,
            "all_passed": self.all_passed,
        }
        return _strict_json(payload)


def campaign_state(seed: int, qubits: int, index: int) -> np.ndarray:
    """The exact state a campaign drew for one sample; the replay hook."""
    seed, index = _whole("seed", seed, 0), _whole("index", index, 0)
    n = _whole("qubit count", qubits, 2, MAX_QUBITS)
    return _draw(seed, n, index, np.empty((1, 2 ** n), dtype=complex), np.empty((2, 2 ** n)))[0]


def _draw(seed: int, n: int, first: int, rows: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Fill rows with samples first, first + 1, ... of (seed, n), through a (2, 2**n) scratch."""
    for i, row in enumerate(rows, first):
        _haar_into(_rng(seed, (n, i)), row, normals)
    return rows


def _tally(row: CampaignRow, verdicts, start: int, tolerance: float) -> None:
    """Count one block of verdicts at one power into row; its samples start at index start."""
    codes, slack, strict = verdicts.applicable[:, 0], verdicts.slack[:, 0], verdicts.strict[:, 0]
    holds = codes == HOLDS
    # strict bounds (only upper bounds are) must clear a positive floor, not just -tolerance
    fails = holds & (slack < np.where(strict, _STRICT_SLACK_FLOOR, -tolerance))
    row.total += len(codes)
    row.indeterminate += int(np.count_nonzero(codes == UNDECIDED))
    row.not_applicable += int(np.count_nonzero(codes == FAILS))
    row.applicable += int(np.count_nonzero(holds))
    row.failed += int(np.count_nonzero(fails))
    row.passed += int(np.count_nonzero(holds & ~fails))
    row.failures.extend({"sample_index": start + int(j), "slack": float(slack[j])}
                        for j in np.flatnonzero(fails))
    if holds.any():
        candidates = np.flatnonzero(holds)
        j = candidates[np.argmin(slack[candidates])]  # the first of equal minima
        if row.worst_slack is None or slack[j] < row.worst_slack:  # earlier blocks win ties
            row.worst_slack, row.worst_sample = float(slack[j]), start + int(j)


def _profiles(seed: int, n: int, part: PartitionSpec, start: int, stop: int) -> ProfileBlock:
    """Profiles of samples start..stop-1 at n qubits, taken BLOCK_BYTES of amplitudes at a time.

    Every block draws its states into rows of one stack and reduces them
    through one scratch, both allocated here, once for all the blocks.
    """
    dim = 2 ** n
    stack = np.empty((min(max(1, BLOCK_BYTES // (dim * 16)), stop - start), dim), dtype=complex)
    normals, scratch = np.empty((2, dim)), np.empty((2, stack.size), dtype=complex)
    blocks = []
    for first in range(start, stop, len(stack)):
        rows = _draw(seed, n, first, stack[:stop - first], normals)  # the last may be short
        blocks.append(profile_batch(rows, part, scratch))
    return ProfileBlock(*map(np.concatenate, zip(*blocks)))


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Deterministic Monte Carlo verification; a pure function of config."""
    _instance("config", config, CampaignConfig)
    rows = []
    for n in config.qubit_counts:
        fitting = [k for k in config.kinds if k.fits(n)]
        if not fitting:
            continue  # no kind is stated for n parties, so nothing to sample
        part = PartitionSpec.default(n)
        counted = [CampaignRow(k.id.value, k.alpha, k.m, n) for k in fitting]
        requests = [(k.id, k.m, (k.alpha,)) for k in fitting]
        # a profile row is a few floats per party, so evaluation takes as many
        # rows at once as a profile block takes amplitudes
        size = max(1, BLOCK_BYTES // 16)
        for start in range(0, config.samples, size):
            block = _profiles(config.seed, n, part, start, min(start + size, config.samples))
            for row, verdicts in zip(counted, _evaluate(block, requests)):
                _tally(row, verdicts, start, config.tolerance)
        rows.extend(counted)
    stats = {
        "profiles": config.samples * len({r.qubits for r in rows}),
        "bound_evaluations": sum(r.total for r in rows),
    }
    return CampaignResult(config, tuple(rows), all(r.failed == 0 for r in rows), stats)
