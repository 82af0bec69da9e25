import functools
import math
import re

import numpy as np
import pytest

import entmono
from entmono import linalg, monogamy
from entmono.engine import CampaignConfig, campaign_state, run_campaign
from entmono.linalg import (_as_hermitian, as_density_matrix, as_state_vector, num_qubits_of,
                            partial_trace, reduced_state)
from entmono.measures import (concurrence_pure, convex_roof_upper_bound,
                              eof_from_squared_concurrence, eof_pure, eof_two_qubit_mixed,
                              wootters_concurrence)
from entmono.monogamy import (BoundId, BoundKind, PartitionSpec, alpha_grid, campaign_kinds,
                              evaluate, profile, residual_sweep)
from entmono.statefile import load_state_file, save_state_file
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
    for lambdas, phi, message in (
            ((math.nan,) * 5, 0.0, "Schmidt coefficients must be finite, got nan"),
            ((0.5, 0.5, 0.5, math.inf, 0.0), 0.0, "Schmidt coefficients must be finite, got inf"),
            ((0.5,) * 4 + (0.0,), math.inf, "phi must be finite, got inf"),
            ((0.5,) * 4 + (0.0,), -math.nan, "phi must be finite, got nan")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
    ("qubit count", lambda v: PartitionSpec.default(v), _BAD),
    ("qubit count", lambda v: PartitionSpec(0, (1, 2)).validate(v), _BAD),
    ("seed", lambda v: SeededSampler(v), _BAD),
    ("spawn key", lambda v: SeededSampler(0, (v,)), _BAD),
    ("dimension", num_qubits_of, _BAD + ("8",)),
]
# each public integer-sequence argument but the spawn key, whose two rows are listed
# below, and a call that passes v as that sequence; a scalar and a string are not ones
_SEQUENCE_ARGUMENTS = [
    ("qubit position", lambda v: reduced_state(w_state(3), v)),
    ("qubit position", lambda v: partial_trace(np.eye(8) / 8, v)),
    ("qubit position", lambda v: concurrence_pure(w_state(3), v)),
    ("qubit position", lambda v: eof_pure(w_state(3), v)),
    ("rest", lambda v: PartitionSpec(0, v)),
    ("qubit count", lambda v: CampaignConfig(5, v, (_CKW,), 0)),
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
    (lambda: SeededSampler(-1), "seed must be >= 0, got -1"),
    (lambda: SeededSampler(0, (-1,)), "spawn key must be >= 0, got -1"),
    (lambda: SeededSampler(0).child(3, -1), "spawn key must be >= 0, got -1"),
    (lambda: SeededSampler("3"), "seed must be an integer, got 3"),
    (lambda: SeededSampler([1, 2]), "seed must be an integer, got [1, 2]"),
    (lambda: SeededSampler(0, 5), "spawn key must be a sequence of integers, got 5"),
    (lambda: SeededSampler(0, "12"), "spawn key must be a sequence of integers, got '12'"),
    (lambda: profile(w_state(3), (0, (1, 2))),
     "partition must be a PartitionSpec, got (0, (1, 2))"),
    *[(functools.partial(call, v), f"{name} must be a sequence of integers, got {v!r}")
      for name, call in _SEQUENCE_ARGUMENTS for v in (0, "12")],
])
def test_indices_and_counts_are_whole_numbers(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: haar_random_pure(3, 5),
    lambda: random_mixed(2, 0, 5),
])
def test_public_draws_take_only_a_sampler(call):
    with pytest.raises(ValueError, match=r"^sampler must be a SeededSampler, got 5$"):
        call()


_REALS = ("2", True, 3 + 0j, 10**400, math.nan, math.inf)
_SCALARS = _REALS + ([2.0],)  # a one-entry sequence is not a scalar argument
_COMPLEXES = ("2", True, 10**400, math.nan, math.inf)  # a complex number is a valid entry
_FLAT = (math.sqrt(0.2),) * 5
_CORNER = [[0, 0, 0, 0]] * 3  # rows 1..3 of a 4x4 matrix whose corner entry is v
# each public real or array argument, a call that passes v as that argument or as
# one entry of it, and the values given to it
_REAL_ARGUMENTS = [
    ("alpha", lambda v: BoundKind("alpha-power", v), _SCALARS),
    ("tolerance", lambda v: CampaignConfig(5, (3,), (_CKW,), 0, v), _SCALARS),
    ("alpha min", lambda v: alpha_grid(v, 3.0, 0.5), _SCALARS),
    ("alpha max", lambda v: alpha_grid(2.0, v, 0.5), _SCALARS),
    ("alpha step", lambda v: alpha_grid(2.0, 3.0, v), _SCALARS),
    ("alphas", lambda v: residual_sweep(profile(w_state(3)), "alpha-power", "ckw", [v]), _REALS),
    ("alphas", lambda v: residual_sweep(profile(w_state(3)), "upper-mean", "upper-sum",
                                        (-1.0, v)), _REALS),
    ("grid", lambda v: campaign_kinds(["alpha-power"], [2.0, v], None, (3,)), _REALS),
    ("Schmidt coefficients", lambda v: generalized_schmidt((v,) + _FLAT[1:]), _REALS),
    ("phi", lambda v: generalized_schmidt(_FLAT, v), _SCALARS),
    ("squared concurrence", lambda v: eof_from_squared_concurrence(v), _REALS),
    ("squared concurrence", lambda v: eof_from_squared_concurrence([[0.5, v]]), _REALS),
    ("state vector", lambda v: as_state_vector([v, 0.0]), _COMPLEXES),
    ("state vector", lambda v: profile([v] + [0.0] * 7), _COMPLEXES),
    ("state vector", lambda v: reduced_state(np.array([v, 0.0, 0.0, 0.0], object), (0,)),
     _COMPLEXES),
    ("state vector", lambda v: concurrence_pure([0.0, v, 0.0, 0.0], (0,)), _COMPLEXES),
    ("matrix", lambda v: as_density_matrix([[v, 0.0], [0.0, 0.0]]), _COMPLEXES),
    ("matrix", lambda v: partial_trace([[v, 0, 0, 0], *_CORNER], (0,)), _COMPLEXES),
    ("matrix", lambda v: wootters_concurrence([[v, 0, 0, 0], *_CORNER]), _COMPLEXES),
    ("matrix", lambda v: eof_two_qubit_mixed([[v, 0, 0, 0], *_CORNER]), _COMPLEXES),
]


def _real_rule_message(name: str, v) -> str:
    """The pattern of the one message the real-number rule gives for v as argument name."""
    start = f"^{re.escape(name)} must be"
    if isinstance(v, (str, bool, complex, list)):
        return rf"{start} (a real number|real numbers|numbers), got {re.escape(repr(v))}$"
    if isinstance(v, int):
        return rf"{start} finite, got an integer too large for a float$"
    return rf"{start} finite, got \(?{v}(\+0j\))?$"


@pytest.mark.parametrize("name, call, v", [
    pytest.param(name, call, v, id=f"{name}-{'10**400' if v == 10**400 else repr(v)}")
    for name, call, values in _REAL_ARGUMENTS for v in values])
def test_reals_are_finite_numbers(name, call, v):
    with pytest.raises(ValueError, match=_real_rule_message(name, v)):
        call(v)


# a valid call of every public callable that takes input, as (callable, arguments);
# the state files are relative to the working directory test_public_arguments_are_checked sets
_VALID_CALLS = {
    "BoundId": (BoundId, ("ckw",)),
    "BoundKind": (BoundKind, ("tight-split", 2.0, 1)),
    "CampaignConfig": (CampaignConfig, (2, (3,), (_CKW,), 0, 1e-10)),
    "PartitionSpec": (PartitionSpec, (0, (1, 2))),
    "SeededSampler": (SeededSampler, (0, (1,))),
    "alpha_grid": (alpha_grid, (2.0, 3.0, 0.5)),
    "as_density_matrix": (as_density_matrix, (np.eye(4) / 4,)),
    "as_state_vector": (as_state_vector, (w_state(3),)),
    "basis_state": (basis_state, (3, 1)),
    "campaign_kinds": (campaign_kinds, (["ckw", "tight-split"], (2.0, 3.0), 1, (3, 4))),
    "campaign_state": (campaign_state, (0, 3, 0)),
    "concurrence_pure": (concurrence_pure, (w_state(3), (0,))),
    "convex_roof_upper_bound": (convex_roof_upper_bound, (_MIXED, "concurrence", 2, 0)),
    "eof_from_squared_concurrence": (eof_from_squared_concurrence, (0.5,)),
    "eof_pure": (eof_pure, (w_state(3), (0,))),
    "eof_two_qubit_mixed": (eof_two_qubit_mixed, (_MIXED,)),
    "evaluate": (evaluate, (profile(w_state(3)), _CKW)),
    "generalized_schmidt": (generalized_schmidt, (_FLAT, 0.0)),
    "ghz_state": (ghz_state, (3,)),
    "haar_random_pure": (haar_random_pure, (3, SeededSampler(0))),
    "load_state_file": (load_state_file, ("w3.json",)),
    "num_qubits_of": (num_qubits_of, (8,)),
    "partial_trace": (partial_trace, (np.eye(8) / 8, (0,))),
    "profile": (profile, (w_state(3), PartitionSpec(0, (1, 2)))),
    "random_mixed": (random_mixed, (2, 1, SeededSampler(0))),
    "reduced_state": (reduced_state, (w_state(3), (0,))),
    "residual_sweep": (residual_sweep, (profile(w_state(4)), "tight-split", "alpha-power",
                                        (2.0, 3.0), 1)),
    "run_campaign": (run_campaign, (CampaignConfig(2, (3,), (_CKW,), 0),)),
    "save_state_file": (save_state_file, ("out.json", w_state(3), None)),
    "w_state": (w_state, (3,)),
    "wootters_concurrence": (wootters_concurrence, (_MIXED,)),
}
# the public records a function returns; they take no input of their own
_RESULTS = {"AlphaSweep", "BoundReport", "CampaignResult"}
_WRONG = {"object": object(), "set": {1, 2}, "str": "x"}


def test_every_public_callable_has_a_valid_call():
    public = {name for name in entmono.__all__ if callable(getattr(entmono, name))}
    assert public - _RESULTS == set(_VALID_CALLS) - {"campaign_kinds"}


@pytest.mark.parametrize("name, position, wrong", [
    (name, position, wrong) for name, (_, args) in _VALID_CALLS.items()
    for position in range(len(args)) for wrong in _WRONG])
def test_public_arguments_are_checked(name, position, wrong, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_state_file("w3.json", amplitudes=w_state(3))
    (tmp_path / "x").mkdir()  # so a path "x" fails in open() whether it reads or writes
    call, args = _VALID_CALLS[name]
    call(*args)
    args = args[:position] + (_WRONG[wrong],) + args[position + 1:]
    path = name in ("load_state_file", "save_state_file") and position == 0 and wrong == "str"
    with pytest.raises(OSError if path else ValueError):
        call(*args)


@pytest.mark.parametrize("call, message", [
    (lambda: evaluate(profile(w_state(3)), "ckw"), "kind must be a BoundKind, got 'ckw'"),
    (lambda: evaluate((1, 2), _CKW), "block must be a ProfileBlock, got (1, 2)"),
    (lambda: residual_sweep((1, 2), "ckw", "alpha-power", [2.0]),
     "block must be a ProfileBlock, got (1, 2)"),
    (lambda: run_campaign("config"), "config must be a CampaignConfig, got 'config'"),
    (lambda: CampaignConfig(5, (3,), _CKW, 0),
     f"bound kinds must be a sequence of BoundKind values, got {_CKW!r}"),
    (lambda: CampaignConfig(5, (3,), {_CKW}, 0),
     f"bound kinds must be a sequence of BoundKind values, got { {_CKW}!r}"),
    (lambda: campaign_kinds("ckw", None, None, (3,)),
     "bounds must be a sequence of bound names, got 'ckw'"),
    (lambda: campaign_kinds({"ckw"}, None, None, (3,)),
     "bounds must be a sequence of bound names, got {'ckw'}"),
    (lambda: campaign_kinds(None, None, None, 3),
     "qubit count must be a sequence of integers, got 3"),
    (lambda: campaign_kinds(None, None, None, {3}),
     "qubit count must be a sequence of integers, got {3}"),
    # the sequence rule comes before the number rule, so a set is not called a number
    (lambda: campaign_kinds(None, {2.0, 3.0}, None, (3,)),
     "grid must be a sequence of powers, got {2.0, 3.0}"),
    (lambda: residual_sweep(profile(w_state(3)), "tight-ordered", "alpha-power", {2.0, 3.0}),
     "alphas must be a sequence of powers, got {2.0, 3.0}"),
    (lambda: residual_sweep(profile(w_state(3)), "ckw", "alpha-power", (a for a in [2.0])),
     "alphas must be a sequence of powers, got <generator object"),
])
def test_types_and_sequences_name_the_argument(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        call()


def test_grids_pass_the_sequence_rule_uncopied(monkeypatch):
    prof, points, grid = profile(w_state(3)), np.array([2.0, 2.5, 3.0]), alpha_grid(2.0, 3.0, 0.5)
    checked = []
    monkeypatch.setattr(monogamy, "_finite",
                        lambda name, v: checked.append(v) or linalg._finite(name, v))
    assert (residual_sweep(prof, "tight-ordered", "alpha-power", points)
            == residual_sweep(prof, "tight-ordered", "alpha-power", grid))
    # the sequence rule hands the number rule the grid itself, not a copy
    assert [id(v) for v in checked] == [id(points), id(grid)]


def test_integral_values_of_other_types_are_the_same_index():
    np.testing.assert_array_equal(campaign_state(0, np.int64(3), 2.0), campaign_state(0, 3, 2))
    np.testing.assert_array_equal(basis_state(3.0, np.int32(2)), basis_state(3, 2))
    assert PartitionSpec(np.int64(0), (1.0, 2)) == PartitionSpec(0, (1, 2))
    assert BoundKind("tight-split", 2.0, np.int64(1)) == BoundKind("tight-split", 2.0, 1)
    # a list, a range or a 1-D array of integers is the tuple of its entries
    assert PartitionSpec(0, [1, 2]) == PartitionSpec(0, range(1, 3)) == PartitionSpec(
        0, np.array([1, 2]))
    assert (SeededSampler(0, np.array([3, 1])) == SeededSampler(0, range(3, 0, -2))
            == SeededSampler(0, [3, 1]) == SeededSampler(0, (3, 1)))
    np.testing.assert_array_equal(reduced_state(w_state(3), np.array([2, 0])),
                                  reduced_state(w_state(3), [0, 2]))
    assert CampaignConfig(5, range(3, 5), (_CKW,), 0) == CampaignConfig(5, (3, 4), (_CKW,), 0)
    config = CampaignConfig(20.0, (np.int64(3), 4.0), (_CKW,), np.uint8(7))
    assert (run_campaign(config).to_json()
            == run_campaign(CampaignConfig(20, (3, 4), (_CKW,), 7)).to_json())
    # so are a tolerance of any real type and kinds in a list
    assert len({run_campaign(CampaignConfig(20, (3,), kinds, 7, tolerance)).to_json()
                for kinds, tolerance in (([_CKW], 1), ((_CKW,), 1.0),
                                         ((_CKW,), np.float64(1.0)),
                                         ((_CKW,), np.float32(1.0)))}) == 1
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


def test_equal_samplers_draw_equal_streams():
    want = SeededSampler(2, (3, 1))
    for seed in (2.0, np.int64(2)):
        # the constructor stores Python ints, so an integral seed of another type is seed 2
        sampler = SeededSampler(seed, (np.uint8(3), 1.0))
        assert sampler == want and hash(sampler) == hash(want)
        assert type(sampler.seed) is int and all(type(k) is int for k in sampler.spawn_key)
        np.testing.assert_array_equal(sampler.rng().standard_normal(8),
                                      want.rng().standard_normal(8))
        np.testing.assert_array_equal(haar_random_pure(3, sampler), campaign_state(2, 3, 1))


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
