"""Dense linear algebra for small multi-qubit registers.

Conventions used throughout the package:

  - Qubit 0 is the leftmost ket symbol and the most significant bit of a
    computational-basis index, so |q0 q1 ... q_{n-1}> lives at index
    sum_k q_k * 2**(n-1-k).
  - Pure states are 1-D complex vectors of length 2**n, density matrices
    are (2**n, 2**n) complex arrays.
  - Every function is pure and never mutates its arguments, so all of
    them are safe to call from concurrent workers. The one exception is
    _reduce, which writes into the output and scratch buffers its caller
    passes; those must not be shared between workers.
  - Public functions validate their input once; the underscore kernels
    behind them trust their arguments and are called directly by code
    that has already validated.
  - The kernels take a leading batch axis: a stack of S states is one
    (S, 2**n) array, and a public single-state function calls its kernel
    with a batch of one.
"""

import numpy as np

MAX_QUBITS = 12

_HERMITIAN_RTOL = 1e-10
_NORM_ATOL = 1e-10
_TRACE_ATOL = 1e-10
_PSD_ATOL = 1e-10


def num_qubits_of(dim: int) -> int:
    """Qubit count for Hilbert-space dimension ``dim``, which must be 2**n."""
    n = int(dim).bit_length() - 1
    if dim < 2 or dim != 2 ** n:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the supported maximum of {MAX_QUBITS}")
    return n


def as_state_vector(psi) -> np.ndarray:
    """Coerce and validate a finite, normalized pure-state vector."""
    vec = np.asarray(psi, dtype=complex)
    if vec.ndim != 1:
        raise ValueError("state vector must be one-dimensional")
    num_qubits_of(vec.shape[0])
    if not np.isfinite(vec).all():
        raise ValueError("state vector has non-finite amplitudes")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > _NORM_ATOL:
        raise ValueError(f"state vector norm {norm} deviates from 1 beyond {_NORM_ATOL}")
    return vec


def _as_hermitian(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    if np.abs(m - m.conj().T).max() > _HERMITIAN_RTOL * np.abs(m).max():
        raise ValueError("matrix is not Hermitian within tolerance")
    return m


def as_density_matrix(rho) -> np.ndarray:
    """Coerce and validate a density matrix (Hermitian, unit trace, PSD)."""
    m = _as_hermitian(rho)
    num_qubits_of(m.shape[0])
    tr = np.trace(m).real
    if abs(tr - 1.0) > _TRACE_ATOL:
        raise ValueError(f"density matrix trace {tr} deviates from 1 beyond {_TRACE_ATOL}")
    if np.linalg.eigvalsh(m)[0] < -_PSD_ATOL:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return m


def _kept_positions(keep, num_qubits: int) -> tuple:
    """Sorted keep set, checked to be a nonempty proper subset of the register."""
    kept = tuple(sorted(int(p) for p in keep))
    if len(set(kept)) != len(kept):
        raise ValueError("qubit positions must be distinct")
    for p in kept:
        if not 0 <= p < num_qubits:
            raise ValueError(f"qubit position {p} out of range for {num_qubits} qubits")
    if not kept:
        raise ValueError("keep set must not be empty")
    if len(kept) == num_qubits:
        raise ValueError("keep set must be a proper subset of the register")
    return kept


def partial_trace(rho, keep) -> np.ndarray:
    """Trace out every qubit not in ``keep``.

    Kept qubits retain their original relative (MSB-first) order. ``keep``
    must be a nonempty proper subset of the register.
    """
    m = np.asarray(rho, dtype=complex)
    n = num_qubits_of(m.shape[0])
    if m.shape != (2 ** n, 2 ** n):
        raise ValueError(f"matrix shape {m.shape} does not match {n} qubits")
    if not np.isfinite(m).all():
        raise ValueError("matrix has non-finite entries")
    kept = _kept_positions(keep, n)
    traced = [q for q in range(n) if q not in kept]
    tensor = m.reshape([2] * (2 * n))
    # reverse order keeps the remaining axis indices valid after each trace
    for q in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=q, axis2=q + tensor.ndim // 2)
    dim = 2 ** len(kept)
    return tensor.reshape(dim, dim)


def reduced_state(psi, keep) -> np.ndarray:
    """Reduced density matrix of a pure state on the ``keep`` qubits.

    Equivalent to partial_trace(|psi><psi|, keep) but avoids forming the
    full projector.
    """
    vec = as_state_vector(psi)
    n = num_qubits_of(vec.shape[0])
    kept = _kept_positions(keep, n)
    d = 2 ** len(kept)
    out = np.empty((1, d, d), dtype=complex)
    return _reduce(vec[None], kept, n, out, np.empty((2, vec.size), dtype=complex))[0]


def _reduce(vecs: np.ndarray, kept: tuple, n: int, out: np.ndarray,
            scratch: np.ndarray) -> np.ndarray:
    """Reduced states of trusted (S, 2**n) vectors on a sorted, valid keep set, written into out.

    out is (S, d, d) and scratch a (2, >= S * 2**n) complex buffer; nothing
    else is allocated, so a caller that reuses them reduces without temporaries.
    Returns out.
    """
    traced = tuple(q for q in range(n) if q not in kept)
    block, conj = scratch[:, :vecs.size].reshape(2, len(vecs), 2 ** len(kept), -1)
    np.copyto(block.reshape([-1] + [2] * n),
              vecs.reshape([-1] + [2] * n).transpose([0] + [1 + q for q in kept + traced]))
    np.conjugate(block, out=conj)
    return np.matmul(block, conj.swapaxes(-1, -2), out=out)
