"""Constructors and seeded samplers for multi-qubit test states."""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import MAX_QUBITS, _NORM_ATOL, _whole, reduced_state


@dataclass(frozen=True)
class SeededSampler:
    """Reproducible PCG64 random source: same seed and key, same stream.

    ``child`` derives an independent sampler for a subtask (for example one
    sample index of a campaign) without consuming randomness from the
    parent.
    """

    seed: int
    spawn_key: tuple = ()

    def child(self, *key: int) -> "SeededSampler":
        keys = tuple(_whole("spawn key", k, 0) for k in key)
        return replace(self, spawn_key=self.spawn_key + keys)

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=self.spawn_key)
        return np.random.Generator(np.random.PCG64(seq))


def basis_state(num_qubits: int, bits) -> np.ndarray:
    """Computational basis ket. ``bits`` is an index or an MSB-first bit string."""
    n = _whole("qubit count", num_qubits, 1, MAX_QUBITS)
    if isinstance(bits, str):
        if len(bits) != n or set(bits) - {"0", "1"}:
            raise ValueError(f"bit string must be {n} characters of 0/1")
        index = int(bits, 2)
    else:
        index = _whole("basis index", bits, 0, 2 ** n - 1)
    vec = np.zeros(2 ** n, dtype=complex)
    vec[index] = 1.0
    return vec


def ghz_state(num_qubits: int) -> np.ndarray:
    """(|0...0> + |1...1>) / sqrt(2); the two-qubit case is the Bell state."""
    n = _whole("qubit count", num_qubits, 2, MAX_QUBITS)
    vec = np.zeros(2 ** n, dtype=complex)
    vec[0] = vec[-1] = 1.0 / np.sqrt(2.0)
    return vec


def w_state(num_qubits: int) -> np.ndarray:
    """Equal superposition of all weight-one basis states."""
    n = _whole("qubit count", num_qubits, 2, MAX_QUBITS)
    vec = np.zeros(2 ** n, dtype=complex)
    for k in range(n):
        vec[2 ** (n - 1 - k)] = 1.0 / np.sqrt(n)
    return vec


def generalized_schmidt(lambdas, phi: float = 0.0) -> np.ndarray:
    """Three-qubit state l0|000> + l1 e^{i phi}|100> + l2|101> + l3|110> + l4|111>.

    The coefficients must be nonnegative with sum of squares 1. In the
    package's MSB-first ordering the closed-form concurrences of this
    family are

        C(0|12) = 2 l0 sqrt(l2^2 + l3^2 + l4^2)
        C(pair 0,1) = 2 l0 l3
        C(pair 0,2) = 2 l0 l2

    independent of phi and l1.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.shape != (5,):
        raise ValueError("five Schmidt coefficients are required")
    if not (np.isfinite(lam).all() and np.isfinite(phi)):
        raise ValueError(f"Schmidt coefficients or phi are non-finite, got {lam.tolist()}, {phi}")
    if np.any(lam < -1e-12):
        raise ValueError("Schmidt coefficients must be nonnegative")
    lam = np.clip(lam, 0.0, None)
    if abs((lam ** 2).sum() - 1.0) > _NORM_ATOL:
        raise ValueError("Schmidt coefficients must have unit sum of squares")
    vec = np.zeros(8, dtype=complex)
    vec[0b000] = lam[0]
    vec[0b100] = lam[1] * np.exp(1j * float(phi))
    vec[0b101] = lam[2]
    vec[0b110] = lam[3]
    vec[0b111] = lam[4]
    return vec


def haar_random_pure(num_qubits: int, sampler: SeededSampler) -> np.ndarray:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    dim = 2 ** _whole("qubit count", num_qubits, 2, MAX_QUBITS)
    return _haar_into(sampler, np.empty(dim, dtype=complex), np.empty((2, dim)))


def _haar_into(sampler: SeededSampler, out: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Draw haar_random_pure's state from sampler into out, a contiguous complex (d,) array.

    normals is a (2, d) float scratch: one draw of 2d normals gives the real
    parts, then the imaginary parts, the same numbers as two draws of d.
    """
    rng = sampler.rng()
    while True:
        rng.standard_normal(out=normals)
        out.real, out.imag = normals
        norm = np.linalg.norm(out)
        if norm > 1e-12:
            out /= norm
            return out


def random_mixed(num_qubits: int, ancilla_qubits: int, sampler: SeededSampler) -> np.ndarray:
    """Random mixed state of rank at most 2**ancilla_qubits.

    Obtained by tracing ``ancilla_qubits`` trailing qubits out of a
    Haar-random pure state; zero ancillas give a pure-state projector.
    """
    n = _whole("qubit count", num_qubits, 1, MAX_QUBITS)
    extra = _whole("ancilla count", ancilla_qubits, 0)
    psi = haar_random_pure(n + extra, sampler)
    if extra == 0:
        return np.outer(psi, psi.conj())
    return reduced_state(psi, tuple(range(n)))
