"""Compare the entmono CLI of two source trees on a fixed list of commands.

Usage: python3 tools/cli_parity.py PARENT_SRC CHANGE_SRC

Each command runs once as ``python -m entmono ...`` in a subprocess under
PYTHONPATH=PARENT_SRC and PYTHONHASHSEED=1 and once under
PYTHONPATH=CHANGE_SRC and PYTHONHASHSEED=2, so an output that depends on
the order of a set or on a string hash differs on every run, even with one
tree on both sides; the two hash seeds are printed first. The exit code,
stdout and stderr of the two runs are compared, with the elapsed seconds
that ``verify`` prints on stderr masked. Every command that differs is
printed, and the exit status is 1 if any does, else 0. Under each one, a
line per differing stream says whether only numbers moved and, if so, the
largest absolute difference over the numbers aligned by position, the
largest distance in ulps over those that stay nonzero and keep their sign,
and how many moved to, from or through zero.

The state files the commands read are written first, into a temporary
directory, with numpy and json alone, so neither tree writes its own input.
The list covers the three bundled examples, the -800, -1e3 and -inf example
grids, campaigns at several qubit counts and seeds, one over a grid of
powers, two with a pinned split index --m, one whose 12-qubit samples
end on a short profile block, two at each of the multi-word seeds
2^64 + 1 and 2^128 + 1 (one with three 12-qubit blocks, one of the
default battery at n = 3), a negative seed, a tolerance of -NaN, zero
samples, qubit counts 13 and 2, a split index --m of 0, an --out that
is a directory (``verify --samples 2 --qubits 3``), and
``measure`` plus four ``sweep`` pairs on W, GHZ and Haar states at
n = 3, 4, 5, 8, 12 and on one mixed state at n = 3, ``measure`` on a
rank-2 mixed state at n = 5, ``measure`` and one ``sweep`` on a rank-one
density matrix at n = 3, ``measure`` on the mixed and ``sweep`` on the
Haar state at n = 3 with ``--focus 2 --order 1,0``, and ``measure`` and
``sweep`` on each of three malformed files: one nested 100,000 arrays
deep, and two that would hold |000> but for a first amplitude that is a
400-digit JSON integer in one and the string "1" in the other. It is a
check of behaviour kept across a change, so a change that means to alter
behaviour shows its commands here.
"""

import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

QUBITS = (3, 4, 5, 8, 12)
SWEEPS = (
    ("tight-ordered", "alpha-power", "2", "5", "0.05"),
    ("upper-mean", "upper-sum", "-5", "-0.05", "0.05"),
    ("eof-tight-ordered", "eof-alpha-power", "1.5", "4", "0.02"),
    ("tight-split", "eof-tight-split", "2", "4", "0.1"),
)
HASH_SEEDS = ("1", "2")  # parent, change
ELAPSED = re.compile(r"evaluations in \d+\.\d+s")
NUMBER = re.compile(r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b)", re.I)


def _amplitude_file(path: Path, vec: np.ndarray) -> None:
    n = int(len(vec)).bit_length() - 1
    payload = {"format_version": "1", "num_qubits": n,
               "amplitudes": [[float(z.real), float(z.imag)] for z in vec]}
    path.write_text(json.dumps(payload))


def _density_file(path: Path, rho: np.ndarray) -> None:
    n = int(len(rho)).bit_length() - 1
    payload = {"format_version": "1", "num_qubits": n,
               "density_matrix": [[float(z.real), float(z.imag)] for z in rho.reshape(-1)]}
    path.write_text(json.dumps(payload))


def _state_files(folder: Path) -> list:
    """Write the W, GHZ, Haar and mixed state files; return their paths."""
    rng = np.random.default_rng(20170211)
    paths = []
    for n in QUBITS:
        dim = 2 ** n
        w = np.zeros(dim, complex)
        w[[1 << k for k in range(n)]] = 1.0 / np.sqrt(n)
        ghz = np.zeros(dim, complex)
        ghz[[0, dim - 1]] = 1.0 / np.sqrt(2.0)
        haar = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        for name, vec in (("w", w), ("ghz", ghz), ("haar", haar / np.linalg.norm(haar))):
            paths.append(folder / f"{name}{n}.json")
            _amplitude_file(paths[-1], vec)
    g = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    paths.append(folder / "mixed3.json")
    _density_file(paths[-1], rho)
    return paths


def _density_files(folder: Path) -> list:
    """Write a rank-2 mixed state at n = 5 and a rank-one density matrix at n = 3."""
    rng = np.random.default_rng(20170212)
    g = rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2))
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    v /= np.linalg.norm(v)
    paths = [folder / "mixed5.json", folder / "proj3.json"]
    for path, rho in zip(paths, (g @ g.conj().T, np.outer(v, v.conj()))):
        _density_file(path, rho / np.trace(rho).real)
    return paths


def _malformed_files(folder: Path) -> list:
    """Write the nested, 400-digit-integer and string-entry files; return their paths."""
    paths = [folder / name for name in ("nested.json", "bigint3.json", "string3.json")]
    paths[0].write_text("[" * 100_000 + "]" * 100_000)
    for path, first in zip(paths[1:], (10**400, "1")):
        path.write_text(json.dumps({"format_version": "1", "num_qubits": 3,
                                    "amplitudes": [[first, 0]] + [[0, 0]] * 7}))
    return paths


def _commands(state_paths, densities, malformed, out_dir) -> list:
    commands = [["example", "--id", str(i)] for i in (1, 2, 3)]
    commands += [["example", "--id", "2", "--alpha-min", "-800", "--alpha-max", "-1",
                  "--alpha-step", "799"],
                 ["example", "--id", "2", "--alpha-min", "-1e3", "--alpha-max", "-1",
                  "--alpha-step", "1"],
                 ["example", "--id", "2", "--alpha-min", "-inf", "--alpha-max", "-1",
                  "--alpha-step", "1"]]
    for qubits in ("3", "4", "5", "3,4,5,8"):
        for seed in ("0", "7"):
            commands.append(["verify", "--samples", "300", "--qubits", qubits, "--seed", seed])
    for seed in ("0", "7"):
        commands.append(["verify", "--samples", "20", "--qubits", "4,8,12", "--bound", "ckw",
                         "--bound", "tight-split", "--seed", seed])
    commands.append(["verify", "--samples", "50", "--qubits", "3,6", "--alpha-min", "-2",
                     "--alpha-max", "4", "--alpha-step", "0.25"])
    for bound, m in (("tight-split", "1"), ("eof-tight-split", "2")):
        commands.append(["verify", "--samples", "100", "--qubits", "5,6", "--bound", bound,
                         "--m", m, "--seed", "3"])
    # 9 samples at 12 qubits are profiled in blocks of 4, 4 and 1
    commands.append(["verify", "--samples", "9", "--qubits", "12,7", "--bound", "ckw",
                     "--bound", "tight-split", "--seed", "5"])
    # seeds of two and three 64-bit words take longer SeedSequence entropy paths
    for seed in (str(2**64 + 1), str(2**128 + 1)):
        commands += [["verify", "--samples", "9", "--qubits", "3,12", "--bound", "ckw",
                      "--bound", "tight-split", "--seed", seed],
                     ["verify", "--samples", "300", "--qubits", "3", "--seed", seed]]
    commands.append(["verify", "--samples", "5", "--seed", "-1"])
    commands.append(["verify", "--samples", "5", "--tolerance", "-NaN"])
    commands += [["verify", "--samples", "0"], ["verify", "--qubits", "13"],
                 ["verify", "--qubits", "2"],
                 ["verify", "--qubits", "4", "--bound", "tight-split", "--m", "0"],
                 ["verify", "--samples", "2", "--qubits", "3", "--out", str(out_dir)]]
    for path in state_paths:
        commands.append(["measure", "--state", str(path)])
        for bound, baseline, lo, hi, step in SWEEPS:
            commands.append(["sweep", "--state", str(path), "--bound", bound,
                             "--baseline", baseline, "--alpha-min", lo, "--alpha-max", hi,
                             "--alpha-step", step])
    mixed5, proj3 = densities
    commands += [["measure", "--state", str(mixed5)], ["measure", "--state", str(proj3)],
                 ["sweep", "--state", str(proj3), "--bound", "tight-ordered", "--baseline",
                  "alpha-power", "--alpha-min", "2", "--alpha-max", "3", "--alpha-step", "0.5"]]
    by_name = {path.stem: path for path in state_paths}
    partition = ["--focus", "2", "--order", "1,0"]
    commands += [["measure", "--state", str(by_name["mixed3"]), *partition],
                 ["sweep", "--state", str(by_name["haar3"]), "--bound", "tight-ordered",
                  "--baseline", "alpha-power", "--alpha-min", "2", "--alpha-max", "3",
                  "--alpha-step", "0.5", *partition]]
    nested, *numbers = malformed
    commands += [["measure", "--state", str(nested)],
                 ["sweep", "--state", str(nested), "--bound", "ckw", "--baseline", "alpha-power",
                  "--alpha-min", "2", "--alpha-max", "3", "--alpha-step", "0.5"]]
    for path in numbers:  # a sweep that runs on |000>
        commands += [["measure", "--state", str(path)],
                     ["sweep", "--state", str(path), "--bound", "tight-ordered", "--baseline",
                      "alpha-power", "--alpha-min", "2", "--alpha-max", "3", "--alpha-step", "0.5"]]
    return commands


def _ulp_index(x: float) -> int:
    """The float64 x as an integer that orders like the floats; -0.0 and 0.0 share 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _moved(before: str, after: str) -> str:
    """How far the numbers of two outputs lie apart, when nothing else differs."""
    if NUMBER.sub("#", before) != NUMBER.sub("#", after):
        return "text other than numbers differs"
    moved = [(float(b), float(a)) for b, a in zip(NUMBER.findall(before), NUMBER.findall(after))
             if b != a]
    if any(math.isnan(b) or math.isnan(a) for b, a in moved):
        return f"only numbers moved ({len(moved)}), one of them to or from NaN"
    largest = max((abs(a - b) for b, a in moved), default=0.0)
    text = f"only numbers moved ({len(moved)}), largest by {largest:.3g}"
    # an ulp distance means something only between two nonzero numbers of one sign
    kept = [(b, a) for b, a in moved if b != 0.0 and a != 0.0 and (b > 0.0) == (a > 0.0)]
    if kept:
        text += f", {max(abs(_ulp_index(a) - _ulp_index(b)) for b, a in kept)} ulp"
    if len(kept) < len(moved):
        text += f", {len(moved) - len(kept)} to, from or through zero"
    return text


def _run(src: str, hash_seed: str, argv: list) -> tuple:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
    done = subprocess.run([sys.executable, "-m", "entmono", *argv], env=env,
                          capture_output=True, text=True, check=False)
    return done.returncode, done.stdout, ELAPSED.sub("evaluations in <t>s", done.stderr)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (str(Path(a).resolve()) for a in args)
    print(f"PYTHONHASHSEED {HASH_SEEDS[0]} for {parent}, {HASH_SEEDS[1]} for {change}")
    differing = 0
    with tempfile.TemporaryDirectory(prefix="cli-parity-") as folder:
        folder_path = Path(folder)
        out_dir = folder_path / "out-dir"
        out_dir.mkdir()
        commands = _commands(_state_files(folder_path), _density_files(folder_path),
                             _malformed_files(folder_path), out_dir)
        for command in commands:
            before = _run(parent, HASH_SEEDS[0], command)
            after = _run(change, HASH_SEEDS[1], command)
            if before != after:
                differing += 1
                fields = [name for name, b, a in zip(("exit code", "stdout", "stderr"),
                                                     before, after) if b != a]
                shown = " ".join(command).replace(folder + os.sep, "")
                print(f"differs ({', '.join(fields)}): entmono {shown}")
                for name, b, a in zip(("stdout", "stderr"), before[1:], after[1:]):
                    if b != a:
                        print(f"  {name}: {_moved(b, a)}")
    print(f"{len(commands)} commands, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
