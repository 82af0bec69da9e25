"""Verification harness: state files, Monte Carlo campaigns, and the CLI.

Subcommands:

  example   rebuild one of the three bundled residual-curve scenarios
            through the full pipeline and emit alpha,y1,y2 CSV
  verify    sample Haar-random pure states and check bound families,
            emitting a deterministic JSON campaign report
  measure   profile a state file: concurrence and EoF quantities
  sweep     residual curves for a caller-supplied state and bound pair

Exit codes: 0 success, 1 an applicable bound failed beyond tolerance
(verify only), 2 usage or configuration errors.

Campaign reports are reproducible byte for byte: every sample's state is
derived from the root seed via a spawn key, and the emitted JSON contains
only deterministic fields (wall-clock timing goes to stderr).
"""

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .linalg import MAX_QUBITS, as_density_matrix, as_state_vector, num_qubits_of, partial_trace
from .measures import eof_from_squared_concurrence, wootters_concurrence
from .monogamy import (
    ALPHA_MIN_EOF,
    STRICT_SLACK_FLOOR,
    BoundId,
    PartitionSpec,
    check_split_index,
    evaluate,
    family_kinds,
    profile,
    residual_sweep,
)
from .states import SeededSampler, generalized_schmidt, haar_random_pure, w_state

STATE_FORMAT_VERSION = "1"
REPORT_FORMAT_VERSION = "1"
DEFAULT_TOLERANCE = 1e-10
MAX_GRID_POINTS = 10_000

_SCHMIDT_FLAT = (math.sqrt(5.0) / 5.0,) * 5

_EXAMPLE_SETUPS = {
    1: ("generalized Schmidt state, flat coefficients",
        BoundId.TIGHT_TRIPARTITE, BoundId.ALPHA_POWER, (2.0, 5.0, 0.05)),
    2: ("generalized Schmidt state, negative powers",
        BoundId.UPPER_MEAN, BoundId.UPPER_SUM, (-5.0, -0.05, 0.05)),
    3: ("three-qubit W state, EoF bounds",
        BoundId.EOF_TIGHT_ORDERED, BoundId.EOF_ALPHA_POWER, (ALPHA_MIN_EOF, 4.0, 0.05)),
}


def alpha_grid(lo: float, hi: float, step: float) -> tuple:
    """Inclusive grid lo, lo+step, ... up to hi (within float tolerance)."""
    if not all(math.isfinite(v) for v in (lo, hi, step)):
        raise ValueError("alpha grid bounds and step must be finite")
    if step <= 0.0:
        raise ValueError("alpha step must be positive")
    if hi < lo:
        raise ValueError("alpha range is empty")
    span = (hi - lo) / step
    if not span < MAX_GRID_POINTS:  # also catches hi - lo overflowing to inf
        raise ValueError(f"alpha grid would exceed {MAX_GRID_POINTS} points")
    count = int(math.floor(span + 1e-9)) + 1
    return tuple(lo + k * step for k in range(count))


# ---------------------------------------------------------------- state files

@dataclass(frozen=True)
class LoadedState:
    num_qubits: int
    amplitudes: np.ndarray | None
    density_matrix: np.ndarray | None


def _pairs_to_complex(pairs, what: str) -> np.ndarray:
    try:
        arr = np.asarray(pairs, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a list of [real, imag] pairs") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be a list of [real, imag] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a finite number")


def load_state_file(path: str) -> LoadedState:
    """Read and validate a JSON state file; NaN and Infinity tokens are rejected."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_reject_constant)
        except ValueError as exc:  # JSONDecodeError is a ValueError too
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: state file must be a JSON object")
    if data.get("format_version") != STATE_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {data.get('format_version')!r}")
    n = data.get("num_qubits")
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"{path}: num_qubits must be an integer 1..{MAX_QUBITS}")
    has_amp = "amplitudes" in data
    has_rho = "density_matrix" in data
    if has_amp == has_rho:
        raise ValueError(f"{path}: exactly one of amplitudes or density_matrix is required")
    if has_amp:
        vec = _pairs_to_complex(data["amplitudes"], "amplitudes")
        if vec.shape[0] != 2 ** n:
            raise ValueError(f"{path}: expected {2 ** n} amplitudes, got {vec.shape[0]}")
        return LoadedState(n, as_state_vector(vec), None)
    flat = _pairs_to_complex(data["density_matrix"], "density_matrix")
    if flat.shape[0] != 4 ** n:
        raise ValueError(f"{path}: expected {4 ** n} row-major density entries")
    rho = as_density_matrix(flat.reshape(2 ** n, 2 ** n))
    return LoadedState(n, None, rho)


def save_state_file(path: str, amplitudes=None, density_matrix=None) -> None:
    """Write a JSON state file holding exactly one representation."""
    if (amplitudes is None) == (density_matrix is None):
        raise ValueError("exactly one of amplitudes or density_matrix is required")
    if amplitudes is not None:
        vec = as_state_vector(amplitudes)
        payload = {
            "format_version": STATE_FORMAT_VERSION,
            "num_qubits": num_qubits_of(vec.shape[0]),
            "amplitudes": [[float(z.real), float(z.imag)] for z in vec],
        }
    else:
        rho = as_density_matrix(density_matrix)
        payload = {
            "format_version": STATE_FORMAT_VERSION,
            "num_qubits": num_qubits_of(rho.shape[0]),
            "density_matrix": [[float(z.real), float(z.imag)] for z in rho.reshape(-1)],
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ------------------------------------------------------------------ campaigns

@dataclass(frozen=True)
class CampaignConfig:
    samples: int
    qubit_counts: tuple
    kinds: tuple
    seed: int
    tolerance: float = DEFAULT_TOLERANCE

    def validate(self) -> None:
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        for n in self.qubit_counts:
            if not 3 <= n <= MAX_QUBITS:
                raise ValueError(f"qubit counts must be 3..{MAX_QUBITS}")
        if len(set(self.qubit_counts)) < len(self.qubit_counts):
            raise ValueError("qubit counts must not repeat")
        if not self.kinds:
            raise ValueError("no bounds selected")
        if len(set(self.kinds)) < len(self.kinds):
            raise ValueError("bound kinds must not repeat")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError("tolerance must be positive and finite")
        for kind in self.kinds:
            if not any(kind.fits(n) for n in self.qubit_counts):
                pinned = "" if kind.m is None else f" with m = {kind.m}"
                raise ValueError(f"{kind.id.value}{pinned} fits none of the requested qubit counts")


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
            "rows": [asdict(r) for r in self.rows],
            "stats": self.stats,
            "all_passed": self.all_passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def campaign_state(seed: int, qubits: int, index: int) -> np.ndarray:
    """The exact state a campaign drew for one sample; the replay hook."""
    return haar_random_pure(qubits, SeededSampler(seed).child(qubits, index))


def _tally(row: CampaignRow, report, sample_index: int, tolerance: float) -> None:
    row.total += 1
    if report.applicable is None:
        row.indeterminate += 1
        return
    if report.applicable is False:
        row.not_applicable += 1
        return
    row.applicable += 1
    # strict bounds (only upper bounds are) must clear a positive floor, not just -tolerance
    floor = STRICT_SLACK_FLOOR if report.strict else -tolerance
    if report.slack < floor:
        row.failed += 1
        row.failures.append({"sample_index": sample_index, "slack": report.slack})
    else:
        row.passed += 1
    if row.worst_slack is None or report.slack < row.worst_slack:
        row.worst_slack = report.slack
        row.worst_sample = sample_index


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Deterministic Monte Carlo verification; a pure function of config."""
    config.validate()
    rows = []
    for n in config.qubit_counts:
        fitting = [(k, CampaignRow(k.id.value, k.alpha, k.m, n))
                   for k in config.kinds if k.fits(n)]
        if not fitting:
            continue  # no kind is stated for n parties, so nothing to sample
        for i in range(config.samples):
            prof = profile(campaign_state(config.seed, n, i))
            for kind, row in fitting:
                _tally(row, evaluate(prof, kind), i, config.tolerance)
        rows.extend(row for _, row in fitting)
    stats = {
        "profiles": config.samples * len({r.qubits for r in rows}),
        "bound_evaluations": sum(r.total for r in rows),
    }
    return CampaignResult(config, tuple(rows), all(r.failed == 0 for r in rows), stats)


# ------------------------------------------------------------------- commands

def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _grid_from_args(args, default: tuple | None):
    given = [args.alpha_min, args.alpha_max, args.alpha_step]
    if all(v is None for v in given):
        if default is None:
            raise ValueError("--alpha-min, --alpha-max and --alpha-step are required")
        return alpha_grid(*default)
    if any(v is None for v in given):
        raise ValueError("--alpha-min, --alpha-max and --alpha-step go together")
    return alpha_grid(args.alpha_min, args.alpha_max, args.alpha_step)


def cmd_example(args) -> int:
    label, tight, base, default_grid = _EXAMPLE_SETUPS[args.id]
    grid = _grid_from_args(args, default_grid)
    state = w_state(3) if args.id == 3 else generalized_schmidt(_SCHMIDT_FLAT)
    prof = profile(state)
    sweep = residual_sweep(prof, tight, base, grid)
    print(f"# example {args.id}: {label}", file=sys.stderr)
    print(f"# C(A|rest) = {prof.c_focus_rest:.12g}  pairs = "
          f"{[round(c, 12) for c in prof.c_pair]}", file=sys.stderr)
    print(f"# E(A|rest) = {prof.e_focus_rest:.12g}  pairs = "
          f"{[round(e, 12) for e in prof.e_pair]}", file=sys.stderr)
    print(f"# {sweep.tightened.value} vs {sweep.baseline.value}: "
          f"{len(grid)} grid points in [{grid[0]:.6g}, {grid[-1]:.6g}], "
          f"applicable={sweep.applicable_tightened}", file=sys.stderr)
    _write_text(args.out, sweep.to_csv())
    return 0


_DEFAULT_BOUNDS = (
    BoundId.CKW, BoundId.ALPHA_POWER, BoundId.TIGHT_TRIPARTITE,
    BoundId.TIGHT_ORDERED, BoundId.UPPER_MEAN,
    BoundId.EOF_ALPHA_POWER, BoundId.EOF_TIGHT_ORDERED,
)


def _verify_kinds(args, qubit_counts: tuple) -> tuple:
    """Explicit picks must each be usable; the default battery shrinks quietly."""
    grid = None
    if any(v is not None for v in (args.alpha_min, args.alpha_max, args.alpha_step)):
        grid = _grid_from_args(args, None)
    bounds = args.bound or _DEFAULT_BOUNDS
    check_split_index(bounds, args.m)
    kinds = []
    for bound in bounds:
        found = family_kinds(bound, grid, args.m)
        if args.bound and not found:
            raise ValueError(f"no grid point is a valid power for {BoundId(bound).value}")
        kinds.extend(found)
    if args.bound:
        return tuple(kinds)  # CampaignConfig rejects a pick that fits no qubit count
    return tuple(k for k in kinds if any(k.fits(n) for n in qubit_counts))


def cmd_verify(args) -> int:
    qubit_counts = tuple(args.qubits)
    config = CampaignConfig(
        samples=args.samples,
        qubit_counts=qubit_counts,
        kinds=_verify_kinds(args, qubit_counts),
        seed=args.seed,
        tolerance=args.tolerance,
    )
    started = time.perf_counter()
    result = run_campaign(config)
    elapsed = time.perf_counter() - started
    for row in result.rows:
        print(f"# {row.bound} alpha={row.alpha:g} qubits={row.qubits}: "
              f"applicable={row.applicable} failed={row.failed} "
              f"indeterminate={row.indeterminate} worst_slack="
              f"{row.worst_slack if row.worst_slack is not None else 'n/a'}",
              file=sys.stderr)
    print(f"# {result.stats['profiles']} profiles, "
          f"{result.stats['bound_evaluations']} evaluations in {elapsed:.2f}s",
          file=sys.stderr)
    _write_text(args.out, result.to_json())
    return 0 if result.all_passed else 1


def _partition_from_args(args, num_qubits: int) -> PartitionSpec:
    focus = args.focus
    if args.order is not None:
        rest = tuple(args.order)
    else:
        rest = tuple(q for q in range(num_qubits) if q != focus)
    return PartitionSpec(focus, rest)


def _as_pure(loaded: LoadedState) -> np.ndarray | None:
    if loaded.amplitudes is not None:
        return loaded.amplitudes
    lam, vec = np.linalg.eigh(loaded.density_matrix)
    if lam[-1] >= 1.0 - 1e-10:
        return vec[:, -1]
    return None


def cmd_measure(args) -> int:
    loaded = load_state_file(args.state)
    part = _partition_from_args(args, loaded.num_qubits)
    pure = _as_pure(loaded)
    if pure is not None:
        prof = profile(pure, part)
        focus = (prof.c_focus_rest, prof.e_focus_rest)
        pairs = (list(prof.c_pair), list(prof.e_pair))
        tails = list(prof.c_tail)
        note = ("tail concurrences of mixed reductions have no closed form"
                if None in tails else "")
    else:
        part.validate(loaded.num_qubits)  # profile does this on the pure path
        rho = loaded.density_matrix
        c_pair = [wootters_concurrence(partial_trace(rho, (part.focus, b))) for b in part.rest]
        focus = (None, None)
        pairs = (c_pair, eof_from_squared_concurrence(np.square(c_pair)).tolist())
        tails = [None] * (loaded.num_qubits - 2)
        note = "mixed input: only pairwise closed forms are available"
    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "num_qubits": loaded.num_qubits,
        "partition": {"focus": part.focus, "rest": list(part.rest)},
        "pure": pure is not None,
        "concurrence": {"focus_rest": focus[0], "pairs": pairs[0], "tails": tails},
        "eof": {"focus_rest": focus[1], "pairs": pairs[1]},
        "note": note,
    }
    _write_text(args.out, json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")
    return 0


def cmd_sweep(args) -> int:
    check_split_index((args.bound_kind, args.baseline), args.m)
    loaded = load_state_file(args.state)
    pure = _as_pure(loaded)
    if pure is None:
        raise ValueError("sweep needs a pure state (amplitudes or a rank-one density matrix)")
    part = _partition_from_args(args, loaded.num_qubits)
    grid = _grid_from_args(args, None)
    prof = profile(pure, part)
    sweep = residual_sweep(prof, BoundId(args.bound_kind), BoundId(args.baseline), grid, m=args.m)
    if sweep.applicable_tightened is not True:
        print(f"# warning: {sweep.tightened.value} applicability is "
              f"{sweep.applicable_tightened}; curves are diagnostic", file=sys.stderr)
    _write_text(args.out, sweep.to_csv())
    return 0


# ------------------------------------------------------------------------ CLI

def _add_grid_flags(sub) -> None:
    sub.add_argument("--alpha-min", type=float, default=None)
    sub.add_argument("--alpha-max", type=float, default=None)
    sub.add_argument("--alpha-step", type=float, default=None)


def _add_partition_flags(sub) -> None:
    sub.add_argument("--focus", type=int, default=0,
                     help="focus qubit position (default 0)")
    sub.add_argument("--order", type=_int_list, default=None,
                     help="comma-separated order of the remaining parties")


def _int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entmono",
        description="Verify monogamy bounds on qubit entanglement.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    ex = subs.add_parser("example", help="emit a bundled residual-curve scenario as CSV")
    ex.add_argument("--id", type=int, choices=(1, 2, 3), required=True)
    _add_grid_flags(ex)
    ex.add_argument("--out", default=None, help="CSV path (default stdout)")
    ex.set_defaults(func=cmd_example)

    ver = subs.add_parser("verify", help="Monte Carlo bound verification")
    ver.add_argument("--samples", type=int, default=1000)
    ver.add_argument("--qubits", type=_int_list, default=(3,),
                     help="comma-separated qubit counts (default 3)")
    ver.add_argument("--bound", action="append", default=None,
                     choices=[b.value for b in BoundId],
                     help="bound id, repeatable (default: a standard battery)")
    _add_grid_flags(ver)
    ver.add_argument("--m", type=int, default=None, help="split index for tight-split kinds")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE)
    ver.add_argument("--out", default=None, help="JSON path (default stdout)")
    ver.set_defaults(func=cmd_verify)

    mea = subs.add_parser("measure", help="profile a state file")
    mea.add_argument("--state", required=True, help="JSON state file")
    _add_partition_flags(mea)
    mea.add_argument("--out", default=None, help="JSON path (default stdout)")
    mea.set_defaults(func=cmd_measure)

    sw = subs.add_parser("sweep", help="residual curves for a supplied state")
    sw.add_argument("--state", required=True, help="JSON state file (pure)")
    sw.add_argument("--bound", dest="bound_kind", required=True,
                    choices=[b.value for b in BoundId])
    sw.add_argument("--baseline", required=True, choices=[b.value for b in BoundId])
    sw.add_argument("--m", type=int, default=None)
    _add_partition_flags(sw)
    _add_grid_flags(sw)
    sw.add_argument("--out", default=None, help="CSV path (default stdout)")
    sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
