"""The entmono command line: parse arguments, run one subcommand, map errors to exit codes.

Subcommands:

  example   rebuild one of the three bundled residual-curve scenarios
            through the full pipeline and emit alpha,y1,y2 CSV
  verify    sample Haar-random pure states and check bound families,
            emitting a deterministic JSON campaign report (entmono.engine)
  measure   profile a state file (entmono.statefile): concurrence and EoF
  sweep     residual curves for a caller-supplied state and bound pair

Exit codes: 0 success, 1 an applicable bound failed beyond tolerance
(verify only), 2 usage or configuration errors. Reports and CSV go to
stdout or --out; summaries and wall-clock timings go to stderr.
"""

import argparse
import functools
import math
import re
import sys
import time

import numpy as np

from .engine import DEFAULT_TOLERANCE, REPORT_FORMAT_VERSION, CampaignConfig, run_campaign
from .engine import CampaignResult  # noqa: F401  (looked up here by perfbench's tracer)
from .linalg import _partial_trace
from .measures import _eof, _wootters
from .monogamy import (
    ALPHA_MIN_EOF,
    BoundId,
    PartitionSpec,
    _known_tails,
    alpha_grid,
    campaign_kinds,
    profile,
    profile_batch,
    residual_sweep,
)
from .states import generalized_schmidt, w_state
from .statefile import _as_pure, _strict_json, load_state_file

_SCHMIDT_FLAT = functools.partial(generalized_schmidt, (math.sqrt(5.0) / 5.0,) * 5)

# label, state, tightened bound, baseline, default grid; demos/residual_curves.py runs these
_EXAMPLE_SETUPS = {
    1: ("generalized Schmidt state, flat coefficients", _SCHMIDT_FLAT,
        BoundId.TIGHT_TRIPARTITE, BoundId.ALPHA_POWER, (2.0, 5.0, 0.05)),
    2: ("generalized Schmidt state, negative powers", _SCHMIDT_FLAT,
        BoundId.UPPER_MEAN, BoundId.UPPER_SUM, (-5.0, -0.05, 0.05)),
    3: ("three-qubit W state, EoF bounds", functools.partial(w_state, 3),
        BoundId.EOF_TIGHT_ORDERED, BoundId.EOF_ALPHA_POWER, (ALPHA_MIN_EOF, 4.0, 0.05)),
}


# ------------------------------------------------------------------- commands

def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _grid_from_args(args) -> tuple | None:
    """The --alpha-* grid, or None when none of the three flags is given."""
    given = [args.alpha_min, args.alpha_max, args.alpha_step]
    if all(v is None for v in given):
        return None
    if any(v is None for v in given):
        raise ValueError("--alpha-min, --alpha-max and --alpha-step go together")
    return alpha_grid(*given)


def _cmd_example(args) -> int:
    label, state, tight, base, default_grid = _EXAMPLE_SETUPS[args.id]
    grid = _grid_from_args(args) or alpha_grid(*default_grid)
    prof = profile(state())
    sweep = residual_sweep(prof, tight, base, grid)
    print(f"# example {args.id}: {label}", file=sys.stderr)
    print(f"# C(A|rest) = {prof.c_focus[0]:.12g}  pairs = "
          f"{[round(c, 12) for c in prof.c_pair[0].tolist()]}", file=sys.stderr)
    print(f"# E(A|rest) = {prof.e_focus[0]:.12g}  pairs = "
          f"{[round(e, 12) for e in prof.e_pair[0].tolist()]}", file=sys.stderr)
    print(f"# {sweep.tightened.value} vs {sweep.baseline.value}: "
          f"{len(grid)} grid points in [{grid[0]:.6g}, {grid[-1]:.6g}], "
          f"applicable={sweep.applicable_tightened}", file=sys.stderr)
    print(f"# {sweep.tightened.value} is applicable at {sweep.points_applicable_tightened} "
          f"of {len(grid)} grid points", file=sys.stderr)
    _write_text(args.out, sweep.to_csv())
    return 0


def _cmd_verify(args) -> int:
    qubit_counts = tuple(args.qubits)
    config = CampaignConfig(
        samples=args.samples,
        qubit_counts=qubit_counts,
        kinds=campaign_kinds(args.bound, _grid_from_args(args), args.m, qubit_counts),
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


def _load_partitioned(args) -> tuple:
    """The checked --state array, its validated partition, and its profile (None if mixed)."""
    state = load_state_file(args.state)
    n = len(state).bit_length() - 1  # the loader checked that len(state) == 2**n
    rest = args.order if args.order is not None else [q for q in range(n) if q != args.focus]
    part = PartitionSpec(args.focus, rest)
    part.validate(n)
    pure = _as_pure(state)
    return state, part, None if pure is None else profile_batch(pure[None], part)


def _cmd_measure(args) -> int:
    state, part, prof = _load_partitioned(args)
    n = len(part.rest) + 1
    if prof is not None:
        focus = (prof.c_focus.tolist()[0], prof.e_focus.tolist()[0])
        c_pair, e_pair = prof.c_pair[0], prof.e_pair[0]
        tails = _known_tails(prof)
        note = ("tail concurrences of mixed reductions have no closed form"
                if None in tails else "")
    else:
        # the state was checked on loading, so its pairs go through the trusted kernels
        c_pair = _wootters(np.stack([_partial_trace(state, (part.focus, b), n)
                                     for b in part.rest]))
        e_pair = _eof(np.square(c_pair))
        focus = (None, None)
        tails = [None] * (n - 2)
        note = "mixed input: only pairwise closed forms are available"
    payload = {
        "format_version": REPORT_FORMAT_VERSION,
        "num_qubits": n,
        "partition": {"focus": part.focus, "rest": list(part.rest)},
        "pure": prof is not None,
        "concurrence": {"focus_rest": focus[0], "pairs": c_pair.tolist(), "tails": tails},
        "eof": {"focus_rest": focus[1], "pairs": e_pair.tolist()},
        "note": note,
    }
    _write_text(args.out, _strict_json(payload))
    return 0


def _cmd_sweep(args) -> int:
    _, part, prof = _load_partitioned(args)
    if prof is None:
        raise ValueError("sweep needs a pure state (amplitudes or a rank-one density matrix)")
    grid = _grid_from_args(args)
    if grid is None:
        raise ValueError("--alpha-min, --alpha-max and --alpha-step are required")
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


@functools.cache  # parsing leaves the parser unchanged, so one serves every main call
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
    ex.set_defaults(func=_cmd_example)

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
    ver.set_defaults(func=_cmd_verify)

    mea = subs.add_parser("measure", help="profile a state file")
    mea.add_argument("--state", required=True, help="JSON state file")
    _add_partition_flags(mea)
    mea.add_argument("--out", default=None, help="JSON path (default stdout)")
    mea.set_defaults(func=_cmd_measure)

    sw = subs.add_parser("sweep", help="residual curves for a supplied state")
    sw.add_argument("--state", required=True, help="JSON state file (pure)")
    sw.add_argument("--bound", dest="bound_kind", required=True,
                    choices=[b.value for b in BoundId])
    sw.add_argument("--baseline", required=True, choices=[b.value for b in BoundId])
    sw.add_argument("--m", type=int, default=None)
    _add_partition_flags(sw)
    _add_grid_flags(sw)
    sw.add_argument("--out", default=None, help="CSV path (default stdout)")
    sw.set_defaults(func=_cmd_sweep)

    # argparse takes only -\d+ and -\d*\.\d+ for negative numbers, and -1e3 or -inf
    # for an unknown option; no option here starts with "-" and a digit (or
    # ".digit"), or is -inf, -infinity or -nan in any case
    negative = re.compile(r"^-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)
    for each in (parser, ex, ver, mea, sw):
        each._negative_number_matcher = negative
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
