"""JSON state files: one pure state (amplitudes) or one density matrix per file.

A file holds format_version "1", num_qubits and exactly one of amplitudes
(2**n entries, MSB-first basis order) or density_matrix (4**n entries,
row-major); each complex entry is a [real, imag] pair. The loader validates
everything once, and rejects NaN and Infinity tokens.
"""

import json
from dataclasses import dataclass

import numpy as np

from .linalg import MAX_QUBITS, as_density_matrix, as_state_vector, num_qubits_of

STATE_FORMAT_VERSION = "1"


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
        key, state = "amplitudes", as_state_vector(amplitudes)
    else:
        key, state = "density_matrix", as_density_matrix(density_matrix)
    payload = {
        "format_version": STATE_FORMAT_VERSION,
        "num_qubits": num_qubits_of(state.shape[0]),
        key: [[float(z.real), float(z.imag)] for z in state.reshape(-1)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _as_pure(loaded: LoadedState) -> np.ndarray | None:
    """A trusted unit vector: the checked amplitudes, or a rank-one density's eigenvector."""
    if loaded.amplitudes is not None:
        return loaded.amplitudes
    lam, vec = np.linalg.eigh(loaded.density_matrix)
    if lam[-1] >= 1.0 - 1e-10:
        return vec[:, -1]
    return None
