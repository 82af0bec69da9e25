"""JSON state files: one pure state (amplitudes) or one density matrix per file.

A file holds format_version "1", num_qubits and exactly one of amplitudes
(2**n entries, MSB-first basis order) or density_matrix (4**n entries,
row-major); each complex entry is a [real, imag] pair of JSON numbers. The loader
checks everything once, the entries by linalg._finite, and returns the checked
array; a mixed one is then trusted, reduced by the kernel linalg._partial_trace.
"""

import json
import os

import numpy as np

from .linalg import (MAX_QUBITS, _finite, _instance, as_density_matrix, as_state_vector,
                     num_qubits_of)

STATE_FORMAT_VERSION = "1"


def _pairs_to_complex(pairs, what: str) -> np.ndarray:
    arr = _finite(what, pairs)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be a list of [real, imag] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def load_state_file(path: str) -> np.ndarray:
    """A state file's checked complex128 unit vector (amplitudes) or (2**n, 2**n) density.

    path is a str or os.PathLike by the type rule: open() would close an int descriptor.
    """
    with open(_instance("state file path", path, str, os.PathLike), encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or nesting too deep
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: state file must be a JSON object")
    if data.get("format_version") != STATE_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {data.get('format_version')!r}")
    n = data.get("num_qubits")
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"{path}: num_qubits must be an integer 1..{MAX_QUBITS}")
    if ("amplitudes" in data) == ("density_matrix" in data):
        raise ValueError(f"{path}: exactly one of amplitudes or density_matrix is required")
    if "amplitudes" in data:
        vec = _pairs_to_complex(data["amplitudes"], "amplitudes")
        if vec.shape[0] != 2 ** n:
            raise ValueError(f"{path}: expected {2 ** n} amplitudes, got {vec.shape[0]}")
        return as_state_vector(vec)
    flat = _pairs_to_complex(data["density_matrix"], "density_matrix")
    if flat.shape[0] != 4 ** n:
        raise ValueError(f"{path}: expected {4 ** n} row-major density entries")
    return as_density_matrix(flat.reshape(2 ** n, 2 ** n))


def save_state_file(path: str, amplitudes=None, density_matrix=None) -> None:
    """Write a JSON state file holding exactly one representation; path as load_state_file's."""
    if (amplitudes is None) == (density_matrix is None):
        raise ValueError("exactly one of amplitudes or density_matrix is required")
    if amplitudes is not None:
        key, state = "amplitudes", as_state_vector(amplitudes)
    else:
        key, state = "density_matrix", as_density_matrix(density_matrix)
    payload = {
        "format_version": STATE_FORMAT_VERSION,
        "num_qubits": num_qubits_of(state.shape[0]),
        key: [[float(z.real), float(z.imag)] for z in state.reshape(-1)],
    }
    with open(_instance("state file path", path, str, os.PathLike), "w", encoding="utf-8") as fh:
        fh.write(_strict_json(payload))


def _strict_json(payload) -> str:
    """The one JSON layout of every file entmono writes: strict, indented, sorted, newline-ended."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _as_pure(state: np.ndarray) -> np.ndarray | None:
    """A trusted unit vector: a loaded vector itself, or a rank-one density's eigenvector."""
    if state.ndim == 1:
        return state
    lam, vec = np.linalg.eigh(state)
    return vec[:, -1] if lam[-1] >= 1.0 - 1e-10 else None
