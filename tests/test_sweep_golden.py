"""Residual-curve CSVs from `example` and `sweep`, compared as exact strings.

Each file under tests/data/sweeps/ is the CLI output for one case below,
recorded before the residual curves were evaluated by the batched kernel.
example2-overflow was re-recorded when a point whose power overflows became
a NaN residual instead of -inf. Seven files were re-recorded when the kernel
came to raise every power with one array np.power, in place of a scalar pow
for the lhs: example1, example2-exact-minus-one, example2-overflow,
example3, wclass4-eof-tight-ordered, wclass5-tight-split-m1 and
wclass11-spectator-upper-dropped. Their residuals moved by at most 2.2e-16,
except 2.3e-13 (1 ulp) at a residual of -1111 in wclass11, and 3.1e-15 in
wclass4, whose pair concurrences also moved when _wootters began to zero
rounding-level eigenvalues. The strings depend on the np.power loop that
numpy's SIMD level selects (a vectorised pow on AVX-512, libm elsewhere).
On a mismatch the message says, as tools/cli_parity.py does, whether only
numbers moved, how many, and by how much in ulps: on an AVX2-only machine
9 of the 14 files differ in float digits alone.
The cases cover exact alpha = 2.0 and alpha = -1.0 grid points, a split
family with a pinned and a free m, EoF grids, dropped pairs in the upper
families (none, some and all), a negative-power grid that overflows, and 3
to 12 qubits.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import w_class_state

from entmono.engine import campaign_state
from entmono.harness import main
from entmono.statefile import save_state_file
from entmono.states import basis_state, w_state

SWEEPS = Path(__file__).parent / "data" / "sweeps"
_PARITY = importlib.util.spec_from_file_location(
    "cli_parity", Path(__file__).parents[1] / "tools" / "cli_parity.py")
cli_parity = importlib.util.module_from_spec(_PARITY)
_PARITY.loader.exec_module(cli_parity)


def _bell_with_spectator():
    bell = (basis_state(2, 0) + basis_state(2, 3)) / math.sqrt(2.0)
    return np.kron(bell, basis_state(1, 0))


# name -> (state for `sweep`, or None for `example`; CLI arguments)
CASES = {
    "example1": (None, ["example", "--id", "1"]),
    "example2-exact-minus-one": (None, ["example", "--id", "2", "--alpha-min", "-2",
                                        "--alpha-max", "-0.5", "--alpha-step", "0.5"]),
    "example2-overflow": (None, ["example", "--id", "2", "--alpha-min", "-800",
                                 "--alpha-max", "-1", "--alpha-step", "799"]),
    "example3": (None, ["example", "--id", "3"]),
    "wclass4-eof-tight-ordered": (
        lambda: w_class_state(4, 0),
        ["--bound", "eof-tight-ordered", "--baseline", "eof-alpha-power",
         "--alpha-min", "1.5", "--alpha-max", "4", "--alpha-step", "0.02"]),
    "wclass5-tight-split-m1": (
        lambda: w_class_state(5, 1),
        ["--bound", "tight-split", "--baseline", "alpha-power", "--m", "1",
         "--alpha-min", "2", "--alpha-max", "3", "--alpha-step", "0.1"]),
    "wclass6-eof-tight-split": (
        lambda: w_class_state(6, 2),
        ["--bound", "eof-tight-split", "--baseline", "eof-alpha-power",
         "--alpha-min", "1.5", "--alpha-max", "3", "--alpha-step", "0.25"]),
    "wclass8-tight-ordered-vs-ckw": (
        lambda: w_class_state(8, 3),
        ["--bound", "tight-ordered", "--baseline", "ckw",
         "--alpha-min", "2", "--alpha-max", "2", "--alpha-step", "1"]),
    "wclass12-tight-ordered": (
        lambda: w_class_state(12, 4),
        ["--bound", "tight-ordered", "--baseline", "alpha-power",
         "--alpha-min", "2", "--alpha-max", "3", "--alpha-step", "0.25"]),
    "wclass12-upper": (
        lambda: w_class_state(12, 5),
        ["--bound", "upper-mean", "--baseline", "upper-sum",
         "--alpha-min", "-3", "--alpha-max", "-0.5", "--alpha-step", "0.5"]),
    "w11-spectator-upper-dropped": (
        lambda: np.kron(w_state(11), basis_state(1, 0)),
        ["--bound", "upper-mean", "--baseline", "upper-sum",
         "--alpha-min", "-2", "--alpha-max", "-0.5", "--alpha-step", "0.5"]),
    # the spectator, qubit 11, is ordered into the middle of the ten retained pairs
    "wclass11-spectator-upper-dropped": (
        lambda: np.kron(w_class_state(11, 6), basis_state(1, 0)),
        ["--bound", "upper-mean", "--baseline", "upper-sum", "--order", "1,2,3,4,5,11,6,7,8,9,10",
         "--alpha-min", "-2.5", "--alpha-max", "-0.5", "--alpha-step", "0.25"]),
    "bell-spectator-upper-dropped": (
        _bell_with_spectator,
        ["--bound", "upper-mean", "--baseline", "upper-sum",
         "--alpha-min", "-2", "--alpha-max", "-0.5", "--alpha-step", "0.5"]),
    "haar12-upper-all-dropped": (
        lambda: campaign_state(3, 12, 3),
        ["--bound", "upper-mean", "--baseline", "upper-sum",
         "--alpha-min", "-3", "--alpha-max", "-1", "--alpha-step", "0.5"]),
}


def run_case(name: str, tmp: Path) -> str:
    """The CSV text the CLI writes for one case."""
    make_state, argv = CASES[name]
    out = tmp / f"{name}.csv"
    if make_state is not None:
        state = tmp / f"{name}.json"
        save_state_file(str(state), amplitudes=make_state())
        argv = ["sweep", "--state", str(state)] + argv
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_csv_matches_recorded(name, tmp_path):
    want = (SWEEPS / f"{name}.csv").read_text(encoding="utf-8")
    got = run_case(name, tmp_path)
    assert got == want, (f"{name}.csv: {cli_parity._moved(want, got)}; a few ulp alone point "
                         "at numpy's SIMD level, see the module docstring")
