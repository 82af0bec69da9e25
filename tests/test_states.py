import functools
import math
import re

import numpy as np
import pytest

from entmono.engine import CampaignConfig, campaign_state, run_campaign
from entmono.linalg import _as_hermitian, partial_trace, reduced_state
from entmono.measures import (concurrence_pure, convex_roof_upper_bound, eof_pure,
                              wootters_concurrence)
from entmono.monogamy import BoundKind, PartitionSpec
from entmono.states import (
    SeededSampler,
    basis_state,
    generalized_schmidt,
    ghz_state,
    haar_random_pure,
    random_mixed,
    w_state,
)


def test_basis_state_forms():
    np.testing.assert_array_equal(basis_state(2, 3), [0, 0, 0, 1])
    np.testing.assert_array_equal(basis_state(2, "10"), [0, 0, 1, 0])
    np.testing.assert_array_equal(basis_state(1, 0), [1, 0])
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, "012")
    with pytest.raises(ValueError):
        basis_state(2, "1")


def test_ghz_state():
    vec = ghz_state(3)
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-14
    assert abs(vec[0] - 1 / math.sqrt(2)) < 1e-14
    assert abs(vec[7] - 1 / math.sqrt(2)) < 1e-14
    assert np.count_nonzero(vec) == 2


def test_w_state_structure():
    vec = w_state(3)
    # one excitation per branch: amplitudes sit at 100, 010, 001
    for idx in (0b100, 0b010, 0b001):
        assert abs(vec[idx] - 1 / math.sqrt(3)) < 1e-14
    assert np.count_nonzero(vec) == 3
    np.testing.assert_allclose(w_state(2), [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0], atol=1e-14)


def test_w_state_pair_concurrences():
    assert abs(wootters_concurrence(reduced_state(w_state(3), (0, 1))) - 2 / 3) < 1e-12
    assert abs(wootters_concurrence(reduced_state(w_state(4), (0, 2))) - 0.5) < 1e-12


def test_generalized_schmidt_validation():
    with pytest.raises(ValueError):
        generalized_schmidt((1.0, 0.0, 0.0))  # five coefficients required
    with pytest.raises(ValueError):
        generalized_schmidt((1.0, 0.2, 0.0, 0.0, 0.0))  # not normalized
    with pytest.raises(ValueError):
        generalized_schmidt((-0.5, 0.5, 0.5, 0.5, 0.0))
    for lambdas, phi in (((math.nan,) * 5, 0.0), ((0.5, 0.5, 0.5, math.inf, 0.0), 0.0),
                         ((0.5,) * 4 + (0.0,), math.inf), ((0.5,) * 4 + (0.0,), -math.nan)):
        with pytest.raises(ValueError, match="non-finite"):
            generalized_schmidt(lambdas, phi)


_CKW = BoundKind("ckw", 2.0)
_MIXED = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
_BAD = (1.5, math.nan, math.inf, True)
# each public integer argument, a call that passes v as that argument, and the
# non-integers given to it
_INTEGER_ARGUMENTS = [
    ("split index m", lambda v: BoundKind("tight-split", 2.0, v), _BAD),
    ("focus", lambda v: PartitionSpec(v, (1, 2)), _BAD),
    ("rest", lambda v: PartitionSpec(0, (1, v)), _BAD),
    ("spawn key", lambda v: SeededSampler(0).child(v), _BAD),
    ("qubit position", lambda v: reduced_state(w_state(3), (v,)), _BAD),
    ("qubit position", lambda v: partial_trace(np.eye(8) / 8, (0, v)), _BAD),
    ("qubit position", lambda v: concurrence_pure(w_state(3), (v,)), _BAD),
    ("qubit position", lambda v: eof_pure(w_state(3), (v,)), _BAD),
    ("samples", lambda v: CampaignConfig(v, (3,), (_CKW,), 0), _BAD),
    ("seed", lambda v: CampaignConfig(5, (3,), (_CKW,), v), _BAD),
    ("qubit count", lambda v: CampaignConfig(5, (v,), (_CKW,), 0), _BAD),
    ("seed", lambda v: campaign_state(v, 3, 0), _BAD),
    ("qubit count", lambda v: campaign_state(0, v, 0), (math.nan, math.inf, True)),
    ("index", lambda v: campaign_state(0, 3, v), (True,)),
    ("qubit count", lambda v: basis_state(v, 0), (True,)),
    ("basis index", lambda v: basis_state(3, v), (True,)),
    ("qubit count", lambda v: random_mixed(v, 0, SeededSampler(0)), (True,)),
    ("ancilla count", lambda v: random_mixed(2, v, SeededSampler(0)), (True,)),
    ("trials", lambda v: convex_roof_upper_bound(_MIXED, trials=v), _BAD),
    ("seed", lambda v: convex_roof_upper_bound(_MIXED, seed=v), _BAD),
]


@pytest.mark.parametrize("call, message", [
    *[(functools.partial(call, v), f"{name} must be an integer, got {v}")
      for name, call, values in _INTEGER_ARGUMENTS for v in values],
    (lambda: campaign_state(0, 3, 1.5), "index must be an integer, got 1.5"),
    (lambda: campaign_state(0, 3, math.nan), "index must be an integer, got nan"),
    (lambda: campaign_state(0, 3, -1), "index must be >= 0, got -1"),
    (lambda: campaign_state(0, 3.5, 0), "qubit count must be an integer, got 3.5"),
    (lambda: basis_state(3, 2.9), "basis index must be an integer, got 2.9"),
    (lambda: w_state(math.inf), "qubit count must be an integer, got inf"),
    (lambda: random_mixed(2, 0.5, SeededSampler(0)), "ancilla count must be an integer, got 0.5"),
])
def test_indices_and_counts_are_whole_numbers(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_integral_values_of_other_types_are_the_same_index():
    np.testing.assert_array_equal(campaign_state(0, np.int64(3), 2.0), campaign_state(0, 3, 2))
    np.testing.assert_array_equal(basis_state(3.0, np.int32(2)), basis_state(3, 2))
    assert PartitionSpec(np.int64(0), (1.0, 2)) == PartitionSpec(0, (1, 2))
    assert BoundKind("tight-split", 2.0, np.int64(1)) == BoundKind("tight-split", 2.0, 1)
    config = CampaignConfig(20.0, (np.int64(3), 4.0), (_CKW,), np.uint8(7))
    assert (run_campaign(config).to_json()
            == run_campaign(CampaignConfig(20, (3, 4), (_CKW,), 7)).to_json())
    # an integer seed passes at any size, with no round trip through a float
    np.testing.assert_array_equal(campaign_state(10**400, 3, 0),
                                  haar_random_pure(3, SeededSampler(10**400, (3, 0))))


def test_generalized_schmidt_concurrence_identities():
    rng = np.random.default_rng(20)
    for trial in range(100):
        raw = rng.uniform(0.05, 1.0, size=5)
        lam = raw / np.linalg.norm(raw)
        phi = rng.uniform(0.0, 2 * np.pi)
        psi = generalized_schmidt(lam, phi=phi)
        c_cut = concurrence_pure(psi, (0,))
        c_01 = wootters_concurrence(reduced_state(psi, (0, 1)))
        c_02 = wootters_concurrence(reduced_state(psi, (0, 2)))
        assert abs(c_cut - 2 * lam[0] * math.sqrt(lam[2] ** 2 + lam[3] ** 2 + lam[4] ** 2)) < 1e-10
        assert abs(c_01 - 2 * lam[0] * lam[3]) < 1e-10
        assert abs(c_02 - 2 * lam[0] * lam[2]) < 1e-10


def test_generalized_schmidt_phase_independence():
    lam = (0.6, 0.3, 0.5, 0.4, math.sqrt(1 - 0.36 - 0.09 - 0.25 - 0.16))
    base = [
        concurrence_pure(generalized_schmidt(lam, phi=0.0), (0,)),
        wootters_concurrence(reduced_state(generalized_schmidt(lam, phi=0.0), (0, 1))),
    ]
    turned = [
        concurrence_pure(generalized_schmidt(lam, phi=2.1), (0,)),
        wootters_concurrence(reduced_state(generalized_schmidt(lam, phi=2.1), (0, 1))),
    ]
    np.testing.assert_allclose(base, turned, atol=1e-12)


def test_seeded_sampler_reproducibility():
    a = SeededSampler(42).rng().standard_normal(8)
    b = SeededSampler(42).rng().standard_normal(8)
    np.testing.assert_array_equal(a, b)
    child = SeededSampler(42).child(3, 0).rng().standard_normal(8)
    assert not np.allclose(a, child)
    assert SeededSampler(42).child(3).child(0).spawn_key == (3, 0)


def test_haar_random_pure_basics():
    psi = haar_random_pure(3, SeededSampler(0))
    assert psi.shape == (8,)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    np.testing.assert_array_equal(psi, haar_random_pure(3, SeededSampler(0)))
    with pytest.raises(ValueError):
        haar_random_pure(1, SeededSampler(0))
    with pytest.raises(ValueError):
        haar_random_pure(13, SeededSampler(0))


def test_haar_random_pure_marginal_purity():
    # E[Tr rho_A^2] for one qubit of three is (2 + 4) / (2 * 4 + 1) = 2/3
    count = 10_000
    root = SeededSampler(314)
    purities = np.empty(count)
    for i in range(count):
        psi = haar_random_pure(3, root.child(i))
        rho = reduced_state(psi, (0,))
        purities[i] = np.trace(rho @ rho).real
    standard_error = purities.std(ddof=1) / np.sqrt(count)
    assert abs(purities.mean() - 2 / 3) < 3.0 * standard_error


def test_random_mixed_shapes_and_rank():
    rho = random_mixed(2, 2, SeededSampler(8))
    assert rho.shape == (4, 4)
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    lam = np.linalg.eigvalsh(_as_hermitian(rho))[::-1]  # descending
    assert lam[-1] > -1e-12
    rank1 = random_mixed(2, 0, SeededSampler(9))
    lam1 = np.linalg.eigvalsh(_as_hermitian(rank1))[::-1]
    assert abs(lam1[0] - 1.0) < 1e-12  # no ancilla leaves a pure projector
    rank2 = random_mixed(2, 1, SeededSampler(10))
    lam2 = np.linalg.eigvalsh(_as_hermitian(rank2))[::-1]
    assert abs(lam2[2]) < 1e-12 and abs(lam2[3]) < 1e-12
    np.testing.assert_array_equal(rho, random_mixed(2, 2, SeededSampler(8)))
