"""Constructors and seeded samplers for multi-qubit test states."""

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (MAX_QUBITS, _NORM_ATOL, _finite, _instance, _real, _whole, _wholes,
                     reduced_state)


@dataclass(frozen=True)
class SeededSampler:
    """Reproducible PCG64 random source: same seed and key, same stream.

    The constructor checks the seed and each spawn key (integers >= 0) once
    and stores Python ints, so equal samplers draw equal streams. ``child``
    derives an independent sampler for a subtask (for example one sample
    index) without consuming randomness from the parent.
    """

    seed: int
    spawn_key: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", _whole("seed", self.seed, 0))
        object.__setattr__(self, "spawn_key", _wholes("spawn key", self.spawn_key, 0))

    def child(self, *key: int) -> "SeededSampler":
        return replace(self, spawn_key=self.spawn_key + key)

    def rng(self) -> np.random.Generator:
        return _rng(self.seed, self.spawn_key)


def _rng(seed: int, key: tuple) -> np.random.Generator:
    """The PCG64 stream of a trusted seed and spawn key."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


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
    lam, phi = _finite("Schmidt coefficients", lambdas), _real("phi", phi)
    if lam.shape != (5,):
        raise ValueError("five Schmidt coefficients are required")
    if np.any(lam < -1e-12):
        raise ValueError("Schmidt coefficients must be nonnegative")
    lam = np.clip(lam, 0.0, None)
    if abs((lam ** 2).sum() - 1.0) > _NORM_ATOL:
        raise ValueError("Schmidt coefficients must have unit sum of squares")
    vec = np.zeros(8, dtype=complex)
    vec[0b000] = lam[0]
    vec[0b100] = lam[1] * np.exp(1j * phi)
    vec[0b101] = lam[2]
    vec[0b110] = lam[3]
    vec[0b111] = lam[4]
    return vec


def haar_random_pure(num_qubits: int, sampler: SeededSampler) -> np.ndarray:
    """Haar-random pure state: a normalized complex Gaussian vector."""
    dim = 2 ** _whole("qubit count", num_qubits, 2, MAX_QUBITS)
    rng = _instance("sampler", sampler, SeededSampler).rng()
    return _haar_into(rng, np.empty(dim, dtype=complex), np.empty((2, dim)))


def _haar_into(rng: np.random.Generator, out: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Draw haar_random_pure's state from rng into out, a contiguous complex (d,) array.

    normals is a (2, d) float scratch: one draw of 2d normals gives the real
    parts, then the imaginary parts, the same numbers as two draws of d. A
    campaign passes _rng(seed, (n, i)) from engine._draw, with no sampler.
    """
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
