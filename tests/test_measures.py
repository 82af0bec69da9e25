import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import w_class_state

from entmono.linalg import reduced_state
from entmono.measures import (
    ROOF_CHUNK,
    SCREEN_MARGIN,
    _binary_entropy,
    _entropy,
    _separability_bound,
    _wootters,
    _wootters_residual,
    _xlogx,
    concurrence_pure,
    convex_roof_upper_bound,
    eof_from_squared_concurrence,
    eof_pure,
    eof_two_qubit_mixed,
    wootters_concurrence,
)
from entmono.states import (
    SeededSampler,
    basis_state,
    generalized_schmidt,
    ghz_state,
    haar_random_pure,
    random_mixed,
    w_state,
)

# 50-digit reference evaluations, rounded to float64
H_TWO_THIRDS = 0.9182958340544895
EOF_W_PAIR = 0.5500477595827574

_YY = np.kron([[0.0, -1.0j], [1.0j, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]]).real


def _wootters_by_eigenvalues(rho):
    """Textbook route: eigenvalues of the non-Hermitian product rho rho~."""
    flipped = _YY @ rho.conj() @ _YY
    lam = np.linalg.eigvals(rho @ flipped)
    mu = np.sort(np.sqrt(np.clip(lam.real, 0.0, None)))[::-1]
    return max(0.0, mu[0] - mu[1] - mu[2] - mu[3])


def _bell():
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2)


def test_binary_entropy_endpoints_and_center():
    assert _binary_entropy(0.0) == 0.0
    assert _binary_entropy(1.0) == 0.0
    assert math.copysign(1.0, _binary_entropy(1.0)) > 0  # no -0.0 leaking out
    assert abs(_binary_entropy(0.5) - 1.0) < 1e-15
    assert abs(_binary_entropy(2 / 3) - H_TWO_THIRDS) < 1e-14


def test_binary_entropy_arrays_and_domain():
    vals = _binary_entropy(np.array([0.0, 0.5, 1.0]))
    np.testing.assert_allclose(vals, [0.0, 1.0, 0.0], atol=1e-15)
    # the domain check sits in front of the kernel, in eof_from_squared_concurrence
    assert eof_from_squared_concurrence(-1e-11) == 0.0  # inside tolerance, clipped
    with pytest.raises(ValueError):
        eof_from_squared_concurrence(-1e-3)
    with pytest.raises(ValueError):
        eof_from_squared_concurrence(1.001)
    with pytest.raises(ValueError):
        eof_from_squared_concurrence(np.array([0.5, np.nan]))
    # scalars and 0-d arrays give a Python float, any other shape an array of it
    for scalar in (0.5, np.float64(0.5), np.array(0.5), 1):
        assert type(eof_from_squared_concurrence(scalar)) is float
    grid = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    curve = eof_from_squared_concurrence(grid)
    assert isinstance(curve, np.ndarray) and curve.shape == (2, 3)
    assert curve.tolist() == [[eof_from_squared_concurrence(v) for v in row] for row in grid]
    assert eof_from_squared_concurrence(np.array([])).shape == (0,)


def test_xlogx_equals_scipy_xlogy_bitwise():
    xlogy = pytest.importorskip("scipy.special").xlogy
    rng = np.random.default_rng(0)
    tiny, smallest = np.finfo(float).tiny, np.finfo(float).smallest_subnormal
    near_one = np.concatenate([1.0 - np.arange(1, 2001) * 2.0 ** -53,
                               1.0 - rng.random(5000) * 1e-6, 1.0 - rng.random(5000) * 1e-2])
    spectra = [np.linalg.eigvalsh(reduced_state(haar_random_pure(n, SeededSampler(3).child(n, i)),
                                                keep))
               for n in range(3, 13) for i in range(6) for keep in ((0,), range(n // 2))]
    x = np.concatenate([
        [0.0, -0.0, smallest, 3 * smallest, tiny - smallest, tiny, 1.0],
        np.geomspace(1e-300, 1.0, 40_001)[:-1],
        near_one,
        1.0 - near_one,
        np.clip(np.concatenate(spectra), 0.0, 1.0),  # as _entropy clips them
    ])
    assert np.array_equal(_xlogx(x).view(np.uint64), xlogy(x, x).view(np.uint64))
    assert _xlogx(0.25).shape == () and _xlogx(0.25) == xlogy(0.25, 0.25)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.0, 1.0))
def test_binary_entropy_symmetry(p):
    assert abs(_binary_entropy(p) - _binary_entropy(1.0 - p)) < 1e-12


def test_eof_curve_values():
    assert eof_from_squared_concurrence(0.0) == 0.0
    assert abs(eof_from_squared_concurrence(1.0) - 1.0) < 1e-15
    assert abs(eof_from_squared_concurrence(8 / 9) - H_TWO_THIRDS) < 1e-14
    assert abs(eof_from_squared_concurrence(4 / 9) - EOF_W_PAIR) < 1e-14
    with pytest.raises(ValueError):
        eof_from_squared_concurrence(1.1)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_eof_curve_monotone(x, y):
    lo, hi = sorted((x, y))
    assert eof_from_squared_concurrence(hi) >= eof_from_squared_concurrence(lo) - 1e-12


def _von_neumann_entropy(rho):
    """The entropy kernel on one Hermitian matrix, in bits."""
    return _entropy(np.asarray(rho, dtype=complex)[None])[0]


def test_von_neumann_entropy():
    assert _von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0
    assert abs(_von_neumann_entropy(np.eye(2) / 2) - 1.0) < 1e-12
    assert abs(_von_neumann_entropy(np.diag([2 / 3, 1 / 3])) - H_TWO_THIRDS) < 1e-12


def test_von_neumann_entropy_basis_invariant():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert abs(_von_neumann_entropy(q @ rho @ q.conj().T) - _von_neumann_entropy(rho)) < 1e-10


def test_concurrence_pure_known_states():
    assert concurrence_pure(basis_state(3, 0), (0,)) == 0.0
    assert abs(concurrence_pure(ghz_state(3), (0,)) - 1.0) < 1e-12
    assert abs(concurrence_pure(_bell(), (0,)) - 1.0) < 1e-12
    flat = generalized_schmidt((math.sqrt(5) / 5,) * 5)
    assert abs(concurrence_pure(flat, (0,)) - 2 * math.sqrt(3) / 5) < 1e-12


def test_concurrence_pure_accepts_bipartition():
    # a cut is its side-A position tuple; side B is the complement
    assert abs(concurrence_pure(ghz_state(3), (0,)) - 1.0) < 1e-12
    assert concurrence_pure(ghz_state(3), (2, 0)) == concurrence_pure(ghz_state(3), (0, 2))
    for cut in ((), (3,), (0, 0), (0, 1, 2)):
        with pytest.raises(ValueError):
            concurrence_pure(ghz_state(3), cut)


def test_concurrence_pure_two_qubit_determinant_identity():
    # for two qubits the purity route must agree with 2|ad - bc|
    for seed in range(40):
        psi = haar_random_pure(2, SeededSampler(seed))
        det = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert abs(concurrence_pure(psi, (0,)) - det) < 1e-12


def test_concurrence_pure_wide_cut_range():
    # a two-qubit side of a pure state can push past 1, capped by sqrt(3/2)
    psi = haar_random_pure(4, SeededSampler(123))
    c = concurrence_pure(psi, (0, 1))
    assert 0.0 <= c <= math.sqrt(1.5) + 1e-12
    assert abs(concurrence_pure(ghz_state(4), (0, 1)) - 1.0) < 1e-12


def test_wootters_concurrence_known_states():
    rho_bell = np.outer(_bell(), _bell().conj())
    assert abs(wootters_concurrence(rho_bell) - 1.0) < 1e-12
    assert wootters_concurrence(np.eye(4) / 4) == 0.0
    assert abs(wootters_concurrence(reduced_state(w_state(3), (0, 1))) - 2 / 3) < 1e-12
    assert abs(wootters_concurrence(reduced_state(w_state(4), (0, 1))) - 0.5) < 1e-12


def test_wootters_concurrence_werner_family():
    # p |Phi+><Phi+| + (1-p) I/4 has concurrence max(0, (3p - 1)/2)
    rho_bell = np.outer(_bell(), _bell().conj())
    for p in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        rho = p * rho_bell + (1.0 - p) * np.eye(4) / 4
        assert abs(wootters_concurrence(rho) - max(0.0, (3 * p - 1) / 2)) < 1e-12


def test_wootters_concurrence_matches_eigenvalue_route():
    # the non-Hermitian eigensolve is the noisier route; it sets the tolerance
    for i in range(60):
        rho = random_mixed(2, i % 3, SeededSampler(1000 + i))
        a = wootters_concurrence(rho)
        b = _wootters_by_eigenvalues(rho)
        assert abs(a - b) < 1e-7, (i, a, b)


def test_wootters_concurrence_rejects_bad_input():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(8) / 8)
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(4))
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        wootters_concurrence(bad)


def test_eof_two_qubit_mixed():
    rho_bell = np.outer(_bell(), _bell().conj())
    assert abs(eof_two_qubit_mixed(rho_bell) - 1.0) < 1e-12
    assert eof_two_qubit_mixed(np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)) == 0.0
    assert abs(eof_two_qubit_mixed(reduced_state(w_state(3), (0, 1))) - EOF_W_PAIR) < 1e-14


def test_eof_pure():
    assert abs(eof_pure(w_state(3), (0,)) - H_TWO_THIRDS) < 1e-12
    for seed in (5, 6):
        psi = haar_random_pure(3, SeededSampler(seed))
        expect = _von_neumann_entropy(reduced_state(psi, (0,)))
        assert abs(eof_pure(psi, (0,)) - expect) < 1e-12


def test_convex_roof_recovers_pure_values():
    rho_bell = np.outer(_bell(), _bell().conj())
    assert abs(convex_roof_upper_bound(rho_bell, trials=50) - 1.0) < 1e-9
    assert abs(convex_roof_upper_bound(rho_bell, measure="eof", trials=50) - 1.0) < 1e-9
    sep = np.outer(basis_state(2, 0), basis_state(2, 0).conj())
    assert convex_roof_upper_bound(sep, trials=50) < 1e-9


def test_convex_roof_is_deterministic():
    rho = np.eye(4, dtype=complex) / 4
    a = convex_roof_upper_bound(rho, trials=200, seed=7)
    b = convex_roof_upper_bound(rho, trials=200, seed=7)
    assert a == b
    assert a >= -1e-12


def test_convex_roof_upper_bounds_closed_forms():
    for i in range(12):
        rho = random_mixed(2, 1 + i % 2, SeededSampler(77 + i))
        roof_c = convex_roof_upper_bound(rho, trials=120, seed=i)
        assert roof_c >= wootters_concurrence(rho) - 1e-8
        roof_e = convex_roof_upper_bound(rho, measure="eof", trials=120, seed=i)
        assert roof_e >= eof_two_qubit_mixed(rho) - 1e-8
        if i < 2:  # ranks 2 and 4: a larger budget's trials extend a smaller one's, in order
            for measure in ("concurrence", "eof"):
                roof = partial(convex_roof_upper_bound, rho, measure, seed=i)
                small = [roof(b) for b in range(1, 10)]
                assert small == sorted(small, reverse=True)
                assert roof(500) <= roof(50)
                assert roof(ROOF_CHUNK + 1) <= roof(ROOF_CHUNK)


# convex_roof_upper_bound(rho, measure, trials, seed=i) on random_mixed(2, 1 + i,
# SeededSampler(77 + i)), recorded from one generator drawn in trial order
ROOF_STREAM = {
    (0, "concurrence", 500): 0.31420235260135804,
    (0, "concurrence", ROOF_CHUNK + 1): 0.3141664292661855,
    (0, "concurrence", 2 * ROOF_CHUNK): 0.3141664292661855,
    (0, "eof", 500): 0.17533511788384418,
    (0, "eof", ROOF_CHUNK + 1): 0.17198357477230086,
    (0, "eof", 2 * ROOF_CHUNK): 0.17034884482587598,  # found in the second chunk
    (1, "concurrence", 500): 0.2403731797929341,
    (1, "concurrence", ROOF_CHUNK + 1): 0.2403731797929341,
    (1, "concurrence", 2 * ROOF_CHUNK): 0.2403731797929341,
    (1, "eof", 500): 0.12434365601437085,
    (1, "eof", ROOF_CHUNK + 1): 0.12434365601437085,
    (1, "eof", 2 * ROOF_CHUNK): 0.12434365601437085,
}


@pytest.mark.parametrize("key", ROOF_STREAM, ids=str)
def test_convex_roof_pins_its_stream_for_a_seed(key):
    """A rank-2 (i = 0) and a rank-4 (i = 1) state, within one chunk and across two.

    Reseeding the generator at each chunk start keeps the first chunk's
    stream, so only the trials of a second chunk can show it; at
    2 * ROOF_CHUNK they are scored in full.
    """
    i, measure, trials = key
    rho = random_mixed(2, 1 + i, SeededSampler(77 + i))
    assert rho.shape == (4, 4) and np.linalg.matrix_rank(rho, tol=1e-12) == 2 * (1 + i)
    got = convex_roof_upper_bound(rho, measure, trials, seed=i)
    assert abs(got - ROOF_STREAM[key]) <= 1e-12


def test_convex_roof_rejects_bad_arguments():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        convex_roof_upper_bound(rho, measure="negativity")
    with pytest.raises(ValueError):
        convex_roof_upper_bound(rho, trials=0)
    with pytest.raises(ValueError):
        convex_roof_upper_bound(np.eye(2, dtype=complex) / 2)


def _haar_pairs(n, count, seed=2017):
    """The (0, b) pair reductions of count Haar states at n qubits, stacked (count, n-1, 4, 4)."""
    states = [haar_random_pure(n, SeededSampler(seed).child(n, i)) for i in range(count)]
    return np.array([[reduced_state(psi, (0, b)) for b in range(1, n)] for psi in states])


def _rotated_w_class_pairs(n, seed):
    """Every pair reduction of a W-class state turned by a random unitary on each qubit."""
    rng = np.random.default_rng(seed)
    psi = w_class_state(n, seed).astype(complex).reshape([2] * n)
    for qubit in range(n):
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        psi = np.moveaxis(np.tensordot(u, psi, axes=([1], [qubit])), 0, qubit)
    psi = psi.reshape(-1)
    return np.array([reduced_state(psi, (a, b)) for a in range(n) for b in range(a + 1, n)])


def _mixtures_with_identity(rank, seed):
    """A random rank-r state mixed with I/4 at identity weights 0, 0.005, ..., 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    w = np.linspace(0.0, 1.0, 201)[:, None, None]
    return (1.0 - w) * rho + w * np.eye(4) / 4


def _werner(points=20_001):
    bell = np.outer(_bell(), _bell().conj())
    p = np.linspace(0.0, 1.0, points)[:, None, None]
    return p * bell + (1.0 - p) * np.eye(4) / 4


_SCREEN_CASES = {
    **{f"haar{n}": (lambda n=n: _haar_pairs(n, 40 if n <= 8 else 8)) for n in range(3, 13)},
    "werner": _werner,
    "rotated-w-class": lambda: np.concatenate(
        [_rotated_w_class_pairs(n, seed) for n in range(3, 8) for seed in range(4)]),
    **{f"rank{r}-with-identity": (lambda r=r: np.concatenate(
        [_mixtures_with_identity(r, seed) for seed in range(10)])) for r in range(1, 5)},
}


@pytest.mark.parametrize("case", sorted(_SCREEN_CASES))
def test_wootters_screen_is_bitwise_exact(case):
    # the screened kernel must return the exact path's bits, +0.0 included,
    # while the exact path runs on the uncertified matrices alone
    rho = _SCREEN_CASES[case]()
    exact = np.maximum(0.0, _wootters_residual(rho))
    assert _wootters(rho).tobytes() == exact.tobytes()


@pytest.mark.parametrize("case", sorted(_SCREEN_CASES))
def test_separability_bound_bounds_the_exact_residual(case):
    rho = _SCREEN_CASES[case]()
    # rho has unit trace, so tr M and tr M^2 come out within a few ulps of 1.0;
    # where M = rho rho~ has rank one (a pure rho, a W-class pair) tr M - u^2 is
    # that small, and its square root puts about 1e-8 into the computed bound,
    # far inside the screen's margin
    slack = 1e-12 + math.sqrt(16.0 * np.finfo(float).eps)
    assert np.all(_wootters_residual(rho) <= _separability_bound(rho) + slack)


def test_separability_screen_certifies_the_expected_share():
    certified = {n: np.mean(_separability_bound(_haar_pairs(n, 40)) < -SCREEN_MARGIN)
                 for n in (3, 8, 12)}
    assert certified[3] == 0.0
    assert certified[8] >= 0.95
    assert certified[12] == 1.0
