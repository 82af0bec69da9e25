import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono.linalg import (
    _as_hermitian,
    as_density_matrix,
    as_state_vector,
    num_qubits_of,
    partial_trace,
    reduced_state,
)
from entmono.states import SeededSampler, ghz_state, haar_random_pure, w_state


def _einsum_trace(rho, keep, n):
    """Reference partial trace: explicit index sums, no shortcuts."""
    tensor = rho.reshape([2] * (2 * n))
    traced = sorted(set(range(n)) - set(keep))
    letters = "abcdefghijkl"
    caps = "ABCDEFGHIJKL"
    row = [letters[q] for q in range(n)]
    col = [caps[q] for q in range(n)]
    for q in traced:
        col[q] = row[q]
    out = "".join(letters[q] for q in sorted(keep)) + "".join(caps[q] for q in sorted(keep))
    dim = 2 ** len(keep)
    return np.einsum("".join(row) + "".join(col) + "->" + out, tensor).reshape(dim, dim)


def test_num_qubits_of():
    assert num_qubits_of(2) == 1
    assert num_qubits_of(8) == 3
    assert num_qubits_of(4096) == 12
    with pytest.raises(ValueError):
        num_qubits_of(3)
    with pytest.raises(ValueError):
        num_qubits_of(0)
    with pytest.raises(ValueError):
        num_qubits_of(2 ** 13)


def test_as_state_vector_checks():
    vec = as_state_vector([1.0, 0.0])
    assert vec.dtype == np.complex128
    with pytest.raises(ValueError):
        as_state_vector([1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        as_state_vector([1.0, 0.0, 0.0])  # not a power-of-two length
    with pytest.raises(ValueError):
        as_state_vector(np.eye(2))
    for bad in (np.nan, np.inf):
        message = f"state vector must be finite, got {bad + 0j}"
        with pytest.raises(ValueError, match=re.escape(message)):
            as_state_vector([bad, 0.0])


def test_is_hermitian():
    _as_hermitian(np.array([[1.0, 2.0j], [-2.0j, 3.0]]))  # raises unless Hermitian
    _as_hermitian(np.zeros((4, 4)))
    with pytest.raises(ValueError, match="not Hermitian"):
        _as_hermitian(np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_as_density_matrix_validation():
    rho = as_density_matrix(np.eye(2) / 2)
    assert rho.dtype == np.complex128
    with pytest.raises(ValueError):
        as_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        as_density_matrix(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        as_density_matrix(np.diag([1.1, -0.1]))
    with pytest.raises(ValueError, match=re.escape("matrix must be finite, got (nan+0j)")):
        as_density_matrix(np.diag([np.nan, 1.0]))
    with pytest.raises(ValueError, match="matrix must be square"):
        as_density_matrix(np.ones((2, 4)))


def test_hermitian_eigenvalues_descending():
    lam = np.linalg.eigvalsh(_as_hermitian(np.diag([0.1, 0.7, 0.2, 0.0])))[::-1]
    assert list(lam) == sorted(lam, reverse=True)
    with pytest.raises(ValueError):
        np.linalg.eigvalsh(_as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]])))


def test_partial_trace_product_state():
    zero = np.array([1.0, 0.0])
    one = np.array([0.0, 1.0])
    rho = np.kron(np.outer(zero, zero), np.outer(one, one)).astype(complex)
    np.testing.assert_allclose(partial_trace(rho, (0,)), np.outer(zero, zero), atol=1e-14)
    np.testing.assert_allclose(partial_trace(rho, (1,)), np.outer(one, one), atol=1e-14)


def test_partial_trace_bell():
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    np.testing.assert_allclose(partial_trace(rho, (0,)), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_w_state_marginal():
    # first qubit of the three-party W state carries weight 2/3 on |0>
    rho = np.outer(w_state(3), w_state(3).conj())
    np.testing.assert_allclose(partial_trace(rho, (0,)), np.diag([2 / 3, 1 / 3]), atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_partial_trace_matches_index_sums(seed):
    psi = haar_random_pure(3, SeededSampler(seed))
    rho = np.outer(psi, psi.conj())
    for keep in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        got = partial_trace(rho, keep)
        np.testing.assert_allclose(got, _einsum_trace(rho, keep, 3), atol=1e-13)
        assert abs(np.trace(got) - 1.0) < 1e-12
        _as_hermitian(got)  # raises unless Hermitian


def test_partial_trace_sequential_equals_one_shot():
    psi = haar_random_pure(4, SeededSampler(11))
    rho = np.outer(psi, psi.conj())
    one_shot = partial_trace(rho, (0, 2))
    staged = partial_trace(partial_trace(rho, (0, 1, 2)), (0, 2))
    np.testing.assert_allclose(one_shot, staged, atol=1e-12)


def test_partial_trace_keeps_msb_order():
    # keep=(1,) of |01><01| is |1><1|: position 1 is the low bit of index 0b01
    vec = np.zeros(4, dtype=complex)
    vec[0b01] = 1.0
    rho = np.outer(vec, vec.conj())
    np.testing.assert_allclose(partial_trace(rho, (1,)), np.diag([0.0, 1.0]), atol=1e-14)


def test_partial_trace_rejects_bad_keeps():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 1))  # nothing left to trace out
    with pytest.raises(ValueError):
        partial_trace(rho, (0, 0))
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))
    with pytest.raises(ValueError, match=re.escape("matrix shape (4, 2) does not match 2 qubits")):
        partial_trace(np.ones((4, 2)), (0,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_partial_trace_rejects_non_finite_entries(bad):
    rho = np.eye(8, dtype=complex) / 8
    rho[3, 5] = bad
    with pytest.raises(ValueError, match=re.escape(f"matrix must be finite, got {bad + 0j}")):
        partial_trace(rho, (0,))


def test_reduced_state_matches_partial_trace():
    psi = haar_random_pure(4, SeededSampler(3))
    rho = np.outer(psi, psi.conj())
    for keep in [(0,), (3,), (1, 2), (0, 3), (0, 1, 2)]:
        np.testing.assert_allclose(reduced_state(psi, keep), partial_trace(rho, keep), atol=1e-12)


def test_reduced_state_ghz_pair():
    red = reduced_state(ghz_state(3), (0, 1))
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    np.testing.assert_allclose(red, expect, atol=1e-14)


def test_reduced_state_rejects_trivial_keeps():
    psi = ghz_state(2)
    with pytest.raises(ValueError):
        reduced_state(psi, ())
    with pytest.raises(ValueError):
        reduced_state(psi, (0, 1))
