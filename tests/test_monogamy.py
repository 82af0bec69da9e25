import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import w_class_state

from entmono.engine import CampaignConfig, campaign_state, run_campaign
from entmono.linalg import reduced_state
from entmono import monogamy
from entmono.measures import (
    concurrence_pure,
    eof_from_squared_concurrence,
    eof_pure,
    wootters_concurrence,
)
from entmono.monogamy import (
    _FAMILIES,
    ALPHA_MIN_EOF,
    FAILS,
    HOLDS,
    UNDECIDED,
    BoundId,
    BoundKind,
    PartitionSpec,
    ProfileBlock,
    _coefficient_table,
    _decide,
    _evaluate_batch,
    campaign_kinds,
    evaluate,
    profile,
    profile_batch,
    residual_sweep,
)
from entmono.states import (SeededSampler, basis_state, generalized_schmidt, ghz_state,
                            haar_random_pure, w_state)

FLAT = (math.sqrt(5.0) / 5.0,) * 5
C_CUT_FLAT = 2.0 * math.sqrt(3.0) / 5.0  # focus-rest concurrence of the flat state
C_PAIR_FLAT = 0.4


def _bell_with_spectator():
    bell = (basis_state(2, 0) + basis_state(2, 3)) / math.sqrt(2.0)
    return np.kron(bell, basis_state(1, 0))


def _reported_tails(prof):
    """The tail values C(A|B_{i+1}..) that evaluate reports in its ordering conditions."""
    return [c.tail_value for c in evaluate(prof, BoundKind(BoundId.TIGHT_ORDERED, 2.0)).conditions]


def test_bound_kind_validation():
    with pytest.raises(ValueError):
        BoundKind(BoundId.CKW, 2.5)
    with pytest.raises(ValueError):
        BoundKind(BoundId.ALPHA_POWER, 1.9)
    with pytest.raises(ValueError):
        BoundKind(BoundId.EOF_ALPHA_POWER, 1.3)
    with pytest.raises(ValueError):
        BoundKind(BoundId.UPPER_MEAN, 0.5)
    with pytest.raises(ValueError):
        BoundKind(BoundId.ALPHA_POWER, 2.0, m=1)
    with pytest.raises(ValueError):
        BoundKind(BoundId.TIGHT_SPLIT, 2.0, m=0)
    for alpha in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            BoundKind(BoundId.ALPHA_POWER, alpha)
        with pytest.raises(ValueError, match="finite"):
            BoundKind(BoundId.UPPER_MEAN, alpha)
    assert BoundKind("tight-split", 2.0, m=2).id is BoundId.TIGHT_SPLIT
    assert BoundKind(BoundId.EOF_TIGHT_ORDERED, ALPHA_MIN_EOF).alpha == ALPHA_MIN_EOF


def test_partition_spec():
    part = PartitionSpec.default(4)
    assert part.focus == 0 and part.rest == (1, 2, 3)
    PartitionSpec(2, (0, 1, 3)).validate(4)
    with pytest.raises(ValueError):
        PartitionSpec(0, (1,)).validate(2)
    with pytest.raises(ValueError):
        PartitionSpec(0, (1, 1, 2)).validate(4)
    with pytest.raises(ValueError):
        PartitionSpec(0, (1, 2)).validate(4)


def test_profile_flat_schmidt_state():
    prof = profile(generalized_schmidt(FLAT))
    assert prof.c_pair.shape == (1, 2)
    assert abs(prof.c_focus[0] - C_CUT_FLAT) < 1e-12
    np.testing.assert_allclose(prof.c_pair[0], [C_PAIR_FLAT, C_PAIR_FLAT], atol=1e-12)
    assert _reported_tails(prof) == prof.c_pair[0, -1:].tolist()


def test_profile_tail_availability():
    prof = profile(campaign_state(0, 5, 0))
    tails = _reported_tails(prof)
    assert tails[:2] == [None, None]
    assert tails[2] == prof.c_pair[0, -1]
    with pytest.raises(ValueError):
        profile(basis_state(2, 0))


@pytest.mark.parametrize("n, partition", [
    (3, None), (4, None), (5, None), (8, None), (5, PartitionSpec(3, (1, 4, 0, 2))),
    (12, None),
])
def test_profile_matches_public_measures(n, partition):
    # profile runs the batch kernels on a batch of one; it must agree exactly
    # with the validated public functions built on the same kernels. GHZ has
    # every pair concurrence zero, W has them all equal.
    states = [campaign_state(21, n, i) for i in range(6)] + [ghz_state(n), w_state(n)]
    for psi in states:
        prof = profile(psi, partition)
        part = partition or PartitionSpec.default(n)
        assert prof.c_focus.tolist() == [concurrence_pure(psi, (part.focus,))]
        assert prof.e_focus.tolist() == [eof_pure(psi, (part.focus,))]
        pairs = [wootters_concurrence(reduced_state(psi, (part.focus, b))) for b in part.rest]
        assert prof.c_pair.tolist() == [pairs]
        assert prof.e_pair.tolist() == [[eof_from_squared_concurrence(c * c) for c in pairs]]
        assert _reported_tails(prof) == [None] * (n - 3) + [pairs[-1]]


@pytest.mark.parametrize("n, partition", [
    (3, None), (5, PartitionSpec(3, (1, 4, 0, 2))), (12, PartitionSpec(11, tuple(range(11)))),
])
def test_profile_batch_equals_profile_per_row(n, partition):
    block = [campaign_state(4, n, i) for i in range(5)] + [ghz_state(n), w_state(n)]
    part = partition or PartitionSpec.default(n)
    whole = profile_batch(np.stack(block), part)
    for s, psi in enumerate(block):
        for got, want in zip(whole, profile(psi, partition)):
            assert np.array_equal(got[s:s + 1], want)


@pytest.mark.parametrize("n", range(3, 13))
def test_evaluate_batch_rows_equal_batches_of_one(n):
    # Haar states have near-zero pairs at large n, W-class states none, a
    # spectator qubit drops one pair, GHZ drops them all, and a product focus
    # has C(A|rest) = 0
    states = [campaign_state(8, n, i) for i in range(3)] + [w_class_state(n, s) for s in range(3)]
    states += [w_state(n), ghz_state(n), np.kron(w_state(n - 1), basis_state(1, 0)),
               np.kron(basis_state(1, 0), w_state(n - 1))]
    block = profile_batch(np.stack(states), PartitionSpec.default(n))
    for bound, family in _FAMILIES.items():
        if n not in family.parties:
            continue
        lo, hi = family.powers
        alphas = ((2.0,) if lo == hi else (-800.0, -2.0, -1.0, -0.3) if hi == 0.0
                  else (lo, 2.0, 2.37, 5.0))
        pinned = range(1, n - 2) if family.shape == "split" else ()
        for m in (None, *pinned):
            whole = _evaluate_batch(block, family, _decide(block.c_pair, family.shape, m), alphas)
            for s in range(len(states)):
                row = ProfileBlock(*(a[s:s + 1] for a in block))
                decided = _decide(row.c_pair, family.shape, m)
                for j, alpha in enumerate(alphas):
                    one = _evaluate_batch(row, family, decided, (alpha,))
                    for got, want in zip(whole[:5], one[:5]):  # lhs .. strict
                        assert np.array_equal(got[s, j], want[0, 0], equal_nan=True), \
                            (bound, m, s, alpha)
                assert np.array_equal(whole.dropped[s], one.dropped[0])
                assert np.array_equal(whole.decision.verdicts[s], decided.verdicts[0])
                assert whole.decision.applicable[s] == decided.applicable[0]
                assert whole.decision.m_used[s] == decided.m_used[0]


# Grids for the oracle below: each holds numpy's fast-path exponents its
# family allows (2.0, -1.0) and points whose powers overflow (1e300, -800)
_ORACLE_GRIDS = {(2.0, math.inf): (2.0, 2.05, 2.37, 3.0, 5.0, 47.3, 1e300),
                 (ALPHA_MIN_EOF, math.inf): (ALPHA_MIN_EOF, 1.5, 2.0, 2.5, 3.0, 1e300),
                 (-math.inf, 0.0): (-800.0, -2.0, -1.0, -0.7, -0.5, -0.3),
                 (2.0, 2.0): (2.0,)}


def _oracle(block, family, decision, alpha):
    """(lhs, rhs, slack) of each row at one power by scalar arithmetic, a point at a time.

    One values ** alpha, one np.float64 coefficient formula and one 1-D dot
    product per row; an upper family sums the retained terms of the row.
    """
    out = np.full((len(block.c_pair), 3), np.nan)
    for s in range(len(block.c_pair)):
        if family.shape in ("mean", "sum"):
            pairs = block.c_pair[s]
            kept = pairs[pairs > 1e-12]
            if len(kept) == 0 or block.c_focus[s] <= 1e-12:
                continue
            lhs, rhs = block.c_focus[s] ** alpha, (kept ** alpha).sum()
            if family.shape == "mean":
                rhs = rhs / len(kept)
            slack = rhs - lhs
        else:
            base, values = ((block.e_focus[s], block.e_pair[s]) if family.measure == "E"
                            else (block.c_focus[s], block.c_pair[s]))
            k = len(values)
            ratio = np.float64(alpha / family.powers[0])
            if family.shape == "unit":
                coeffs = np.ones(k)
            elif family.shape == "ordered":
                coeffs = ratio ** np.arange(k)
            else:
                m = int(decision.m_used[s])
                coeffs = np.empty(k)
                coeffs[:m] = ratio ** np.arange(m)
                coeffs[m:k - 1] = ratio ** (m + 1)
                coeffs[k - 1] = ratio ** m
            lhs, rhs = base ** alpha, coeffs @ values ** alpha
            slack = lhs - rhs
        out[s] = lhs, rhs, slack if math.isfinite(slack) else np.nan
    return out


def _within_ulps(got, want, ulps, scale):
    """The same NaNs, the same sign on zeros, and got within ulps of scale of want elsewhere."""
    nan = np.isnan(want)
    if not np.array_equal(np.isnan(got), nan):
        return False
    got, want, scale = got[~nan], want[~nan], scale[~nan]
    zero = (got == 0.0) & (want == 0.0)
    return bool(np.all(np.signbit(got[zero]) == np.signbit(want[zero]))
                and np.all((got == want) | (np.abs(got - want) <= ulps * np.spacing(scale))))


@pytest.mark.parametrize("n", range(3, 13))
def test_evaluate_batch_equals_scalar_arithmetic_per_point(n):
    # 20 rows: Haar states, W-class states, W, GHZ (every pair dropped, and
    # C(A|rest) = 1.0000000000000002 at n = 3), a spectator last and one
    # first (one pair dropped; the kernel's zero padding regroups a sum of
    # eight or more terms) and a product focus (C(A|rest) = 0). The kernel
    # raises arrays, which may take a vectorised pow, and the oracle scalars
    # (libm pow): the lhs may differ by 1 ulp, the rhs by 2 ulp of |rhs| and
    # the slack by 2 ulp of max(|lhs|, |rhs|); the NaNs must be the same
    spectator = np.kron(w_class_state(n - 1, 7), basis_state(1, 0))
    states = [campaign_state(3, n, i) for i in range(10)] + [w_class_state(n, s) for s in range(5)]
    states += [w_state(n), ghz_state(n), spectator,
               np.moveaxis(spectator.reshape((2,) * n), -1, 1).reshape(-1),
               np.kron(basis_state(1, 0), w_state(n - 1))]
    block = profile_batch(np.stack(states), PartitionSpec.default(n))
    ones = [ProfileBlock(*(a[s:s + 1] for a in block)) for s in (0, 10, 16, 18)]
    for bound, family in _FAMILIES.items():
        if n not in family.parties:
            continue
        alphas = _ORACLE_GRIDS[family.powers]
        pinned = range(1, n - 2) if family.shape == "split" else ()
        for m in (None, *pinned):
            for rows in (block, *ones):
                decision = _decide(rows.c_pair, family.shape, m)
                v = _evaluate_batch(rows, family, decision, alphas)
                with np.errstate(over="ignore", invalid="ignore"):
                    for j, alpha in enumerate(alphas):
                        lhs, rhs, slack = _oracle(rows, family, decision, alpha).T
                        lhs_rhs = np.maximum(np.abs(lhs), np.abs(rhs))
                        for got, want, ulps, scale in ((v.lhs, lhs, 1, np.abs(lhs)),
                                                       (v.rhs, rhs, 2, np.abs(rhs)),
                                                       (v.slack, slack, 2, lhs_rhs)):
                            assert _within_ulps(got[:, j], want, ulps, scale), (bound, m, alpha)


_PROFILED_STATES = st.tuples(st.integers(3, 6), st.sampled_from(["haar", "w-class"]),
                             st.integers(0, 10 ** 6))


def _profiled_state(n, kind, seed):
    """A Haar state, or a W-class state, whose pair concurrences are all nonzero."""
    return haar_random_pure(n, SeededSampler(seed)) if kind == "haar" else w_class_state(n, seed)


@settings(max_examples=50, deadline=None)
@given(state=_PROFILED_STATES, data=st.data())
def test_profile_permuting_rest_permutes_pairs_exactly(state, data):
    n = state[0]
    psi = _profiled_state(*state)
    focus = data.draw(st.integers(0, n - 1))
    rest = tuple(q for q in range(n) if q != focus)
    order = tuple(data.draw(st.permutations(rest)))
    base = profile(psi, PartitionSpec(focus, rest))
    moved = profile(psi, PartitionSpec(focus, order))
    index = [rest.index(q) for q in order]
    assert np.array_equal(moved.c_pair, base.c_pair[:, index])
    assert np.array_equal(moved.e_pair, base.e_pair[:, index])
    assert np.array_equal(moved.c_focus, base.c_focus)
    assert np.array_equal(moved.e_focus, base.e_focus)


@settings(max_examples=50, deadline=None)
@given(state=_PROFILED_STATES, data=st.data(),
       angles=st.tuples(*[st.floats(0.0, 2.0 * math.pi)] * 4))
def test_profile_is_invariant_under_a_local_unitary(state, data, angles):
    n = state[0]
    psi = _profiled_state(*state)
    qubit = data.draw(st.integers(0, n - 1))
    phase, a, b, c = angles  # U = e^{i phase} Rz(a) Ry(b) Rz(c)
    rz = [np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]) for t in (a, c)]
    ry = np.array([[math.cos(b / 2), -math.sin(b / 2)], [math.sin(b / 2), math.cos(b / 2)]])
    u = np.exp(1j * phase) * rz[0] @ ry @ rz[1]
    turned = np.moveaxis(np.tensordot(u, psi.reshape([2] * n), axes=([1], [qubit])), 0, qubit)
    base, moved = profile(psi), profile(turned.reshape(-1))
    assert _reported_tails(moved).count(None) == _reported_tails(base).count(None)
    before = [*base.c_focus, *base.e_focus, *base.c_pair[0], *base.e_pair[0],
              *(t for t in _reported_tails(base) if t is not None)]
    after = [*moved.c_focus, *moved.e_focus, *moved.c_pair[0], *moved.e_pair[0],
             *(t for t in _reported_tails(moved) if t is not None)]
    # Haar and W-class states both move by about 1e-15: a W-class pair
    # reduction is rank-deficient, and _wootters zeroes its rounding-level
    # eigenvalues, whose square roots would move C(A,B_i) by up to about 3e-8
    np.testing.assert_allclose(after, before, rtol=0.0, atol=1e-12)


def test_profile_validates_only_at_the_boundary():
    with pytest.raises(ValueError, match=re.escape("state vector must be finite, got (nan+0j)")):
        profile(np.full(8, np.nan))
    # a norm inside the state-vector tolerance is accepted; no inner check
    # may apply that tolerance again to the squared norm
    psi = w_state(3) * (1.0 + 0.9e-10)
    prof = profile(psi)
    assert abs(prof.c_pair[0, 0] - 2.0 / 3.0) < 1e-9


def test_profile_respects_partition_order():
    psi = _bell_with_spectator()
    swapped = profile(psi, PartitionSpec(0, (2, 1)))
    np.testing.assert_allclose(swapped.c_pair[0], [0.0, 1.0], atol=1e-12)
    assert abs(swapped.c_focus[0] - 1.0) < 1e-12


def test_evaluate_and_sweep_take_a_one_row_block():
    block = profile_batch(np.stack([w_state(3), ghz_state(3)]), PartitionSpec.default(3))
    for rows in (block, ProfileBlock(*(a[:0] for a in block))):
        with pytest.raises(ValueError, match="one-row profile block"):
            evaluate(rows, BoundKind(BoundId.CKW, 2.0))
        with pytest.raises(ValueError, match="one-row profile block"):
            residual_sweep(rows, BoundId.TIGHT_TRIPARTITE, BoundId.ALPHA_POWER, (2.0,))
    one = ProfileBlock(*(a[1:] for a in block))
    assert evaluate(one, BoundKind(BoundId.CKW, 2.0)) == \
        evaluate(profile(ghz_state(3)), BoundKind(BoundId.CKW, 2.0))


def _coeffs(bound, alpha, parties, m=None):
    """The pair coefficients of a lower family's right-hand side at one split index.

    An ordered family is the split shape at m = N - 2, so it takes that index.
    """
    family = _FAMILIES[bound]
    m = parties - 2 if family.shape == "ordered" else m
    return _coefficient_table(family, (alpha,), parties - 1, m)[0]


def test_coefficients_unit_families():
    np.testing.assert_array_equal(_coeffs(BoundId.CKW, 2.0, 4), np.ones(3))
    np.testing.assert_array_equal(_coeffs(BoundId.ALPHA_POWER, 3.0, 5), np.ones(4))
    # the upper families' coefficients show in evaluate's rhs: unit, and 1/(N-1)
    for bound, n, coeffs in ((BoundId.UPPER_SUM, 3, np.ones(2)),
                             (BoundId.UPPER_MEAN, 4, np.full(3, 1 / 3))):
        prof = profile(w_class_state(n, 0))
        rep = evaluate(prof, BoundKind(bound, -1.0))
        np.testing.assert_allclose(rep.rhs, coeffs @ prof.c_pair[0] ** -1.0, rtol=1e-14)


def test_coefficients_tight_families():
    np.testing.assert_allclose(
        _coeffs(BoundId.TIGHT_TRIPARTITE, 3.0, 3), [1.0, 1.5])
    np.testing.assert_allclose(
        _coeffs(BoundId.TIGHT_ORDERED, 3.0, 5), [1.0, 1.5, 2.25, 3.375])
    t = 2.0 / math.sqrt(2.0)
    np.testing.assert_allclose(
        _coeffs(BoundId.EOF_TIGHT_ORDERED, 2.0, 4), [1.0, t, t * t])
    with pytest.raises(ValueError):
        evaluate(profile(w_state(4)), BoundKind(BoundId.TIGHT_TRIPARTITE, 2.0))


def test_coefficients_split_structure():
    r = 1.5  # alpha = 3
    np.testing.assert_allclose(
        _coeffs(BoundId.TIGHT_SPLIT, 3.0, 4, m=1), [1.0, r ** 2, r])
    np.testing.assert_allclose(
        _coeffs(BoundId.TIGHT_SPLIT, 3.0, 5, m=1), [1.0, r ** 2, r ** 2, r])
    np.testing.assert_allclose(
        _coeffs(BoundId.TIGHT_SPLIT, 3.0, 5, m=2), [1.0, r, r ** 3, r ** 2])
    np.testing.assert_allclose(
        _coeffs(BoundId.TIGHT_SPLIT, 3.0, 6, m=3),
        [1.0, r, r ** 2, r ** 4, r ** 3])
    with pytest.raises(ValueError):
        evaluate(profile(w_state(4)), BoundKind(BoundId.TIGHT_SPLIT, 3.0, m=2))


def test_tight_coefficients_dominate_unit_baseline():
    # pointwise coefficient dominance implies rhs dominance on any profile
    for alpha in (2.0, 2.5, 4.0):
        assert _coeffs(BoundId.TIGHT_ORDERED, alpha, 5).min() >= 1.0 - 1e-15
        for m in (1, 2):
            assert _coeffs(BoundId.TIGHT_SPLIT, alpha, 5, m=m).min() >= 1.0 - 1e-15
    for alpha in (ALPHA_MIN_EOF, 2.0, 3.0):
        assert _coeffs(BoundId.EOF_TIGHT_ORDERED, alpha, 5).min() >= 1.0 - 1e-15
        assert _coeffs(BoundId.EOF_TIGHT_SPLIT, alpha, 5, m=2).min() >= 1.0 - 1e-15


def test_tripartite_lemma_on_flat_state():
    prof = profile(generalized_schmidt(FLAT))
    rep = evaluate(prof, BoundKind(BoundId.TIGHT_TRIPARTITE, 2.0))
    assert rep.direction == "lower"
    assert rep.applicable is True
    assert abs(rep.lhs - 12 / 25) < 1e-12
    assert abs(rep.rhs - 8 / 25) < 1e-12
    assert abs(rep.slack - 4 / 25) < 1e-12
    assert rep.conditions[0].satisfied is True


def test_flat_state_closed_forms_across_alpha():
    prof = profile(generalized_schmidt(FLAT))
    for alpha in (2.0, 2.7, 3.0, 4.0, 5.0):
        tight = evaluate(prof, BoundKind(BoundId.TIGHT_TRIPARTITE, alpha))
        base = evaluate(prof, BoundKind(BoundId.ALPHA_POWER, alpha))
        y1 = C_CUT_FLAT ** alpha - (1.0 + alpha / 2.0) * C_PAIR_FLAT ** alpha
        y2 = C_CUT_FLAT ** alpha - 2.0 * C_PAIR_FLAT ** alpha
        assert abs((tight.lhs - tight.rhs) - y1) < 1e-10
        assert abs((base.lhs - base.rhs) - y2) < 1e-10


def test_upper_bounds_on_flat_state():
    prof = profile(generalized_schmidt(FLAT))
    rep = evaluate(prof, BoundKind(BoundId.UPPER_MEAN, -1.0))
    assert rep.direction == "upper"
    assert rep.strict is True and rep.applicable is True
    assert abs(rep.lhs - 5 / (2 * math.sqrt(3))) < 1e-10
    assert abs(rep.rhs - 2.5) < 1e-10
    assert abs(rep.slack - (2.5 - 5 / (2 * math.sqrt(3)))) < 1e-10
    loose = evaluate(prof, BoundKind(BoundId.UPPER_SUM, -1.0))
    assert abs(loose.rhs - 5.0) < 1e-10  # two retained terms, no averaging


def test_upper_bound_drops_zero_pairs():
    rep = evaluate(profile(_bell_with_spectator()), BoundKind(BoundId.UPPER_MEAN, -1.0))
    assert rep.applicable is True
    assert rep.dropped_pairs == (1,)
    assert rep.strict is False
    assert abs(rep.lhs - 1.0) < 1e-10
    assert abs(rep.rhs - 1.0) < 1e-10
    assert abs(rep.slack) < 1e-10


def test_upper_bound_degenerate_profiles():
    ghz = evaluate(profile(ghz_state(3)), BoundKind(BoundId.UPPER_MEAN, -2.0))
    assert ghz.applicable is False
    assert math.isnan(ghz.slack)
    assert "zero" in ghz.note
    product = evaluate(profile(basis_state(3, 0)), BoundKind(BoundId.UPPER_SUM, -1.0))
    assert product.applicable is False
    # tiny but retained concurrences: both negative powers overflow to inf
    eps = 1e-4
    psi = eps * (basis_state(3, 4) + basis_state(3, 2) + basis_state(3, 1))
    psi += math.sqrt(1.0 - 3 * eps ** 2) * basis_state(3, 0)
    huge = evaluate(profile(psi), BoundKind(BoundId.UPPER_MEAN, -50.0))
    assert huge.applicable is False
    assert "overflow" in huge.note


def test_upper_bound_notes_a_zero_focus_concurrence_beside_a_retained_pair():
    # |000> + 1e-10 |110>: C(A|rest) = sqrt(2 (1 - tr rho_A^2)) rounds to 0.0, while the
    # Wootters concurrence of (A, B_1) keeps 2e-10, so one pair is retained
    psi = basis_state(3, "000") + 1e-10 * basis_state(3, "110")
    prof = profile(psi / np.linalg.norm(psi))
    assert prof.c_focus[0] == 0.0 and prof.c_pair[0].tolist() == [pytest.approx(2e-10), 0.0]
    rep = evaluate(prof, BoundKind(BoundId.UPPER_MEAN, -1.0))
    assert rep.note == "focus-rest concurrence is zero; negative power undefined"
    assert rep.applicable is False and rep.dropped_pairs == (1,)
    assert math.isnan(rep.lhs) and math.isnan(rep.rhs) and math.isnan(rep.slack)


def test_lower_bounds_on_ghz():
    prof = profile(ghz_state(3))
    rep = evaluate(prof, BoundKind(BoundId.CKW, 2.0))
    assert rep.applicable is True
    assert abs(rep.lhs - 1.0) < 1e-12
    assert abs(rep.rhs) < 1e-12
    assert abs(rep.slack - 1.0) < 1e-12


def test_bell_with_spectator_edge_case():
    prof = profile(_bell_with_spectator())
    rep = evaluate(prof, BoundKind(BoundId.TIGHT_TRIPARTITE, 3.0))
    # condition 1 >= 0 holds, the zero pair contributes nothing
    assert rep.applicable is True
    assert abs(rep.lhs - 1.0) < 1e-12
    assert abs(rep.rhs - 1.0) < 1e-12


def test_applicability_is_three_valued_at_four_parties():
    seen = set()
    for i in range(40):
        prof = profile(campaign_state(0, 4, i))
        rep = evaluate(prof, BoundKind(BoundId.TIGHT_ORDERED, 2.0))
        seen.add(rep.applicable)
    # tails of mixed reductions are unknown, so True can never be decided
    assert seen == {None, False}


def test_fits_is_exactly_where_evaluate_applies():
    # the family table is the one source: fits and evaluate cannot disagree
    profiles = {n: profile(w_state(n)) for n in range(3, 7)}
    for bound in BoundId:
        for m in (None, 1, 2):  # tight-split keeps m in use; bound gets it only if split
            kind = campaign_kinds((bound, BoundId.TIGHT_SPLIT), None, m, tuple(profiles))[0]
            for n, prof in profiles.items():
                try:
                    evaluate(prof, kind)
                    evaluated = True
                except ValueError:
                    evaluated = False
                assert kind.fits(n) is evaluated, (kind, n)
    assert [n for n in profiles if BoundKind(BoundId.TIGHT_TRIPARTITE, 2.0).fits(n)] == [3]
    assert [n for n in profiles if BoundKind(BoundId.EOF_TIGHT_SPLIT, 2.0).fits(n)] == [4, 5, 6]
    assert [n for n in profiles if BoundKind(BoundId.TIGHT_SPLIT, 2.0, m=2).fits(n)] == [5, 6]


_C, _E, _NEG = (2.0, 2.5, 3.0), (ALPHA_MIN_EOF, 2.0, 3.0), (-0.5, -1.0, -2.0)
_BATTERY = [("ckw", (2.0,)), ("alpha-power", _C), ("tight-tripartite", _C),
            ("tight-ordered", _C), ("upper-mean", _NEG), ("eof-alpha-power", _E),
            ("eof-tight-ordered", _E)]


def _kinds(table, m=None):
    return [(bound, alpha, m) for bound, alphas in table for alpha in alphas]


@pytest.mark.parametrize("bounds, grid, m, qubits, want", [
    # no bounds: the battery's seven families, in report order, at their default powers
    ((), None, None, (3,), _kinds(_BATTERY)),
    (None, None, None, (3, 4), _kinds(_BATTERY)),
    # a grid gives the battery the points each family allows; ckw keeps its fixed power
    ((), (2.0, 4.0), None, (3,),
     _kinds([("ckw", (2.0,)), ("alpha-power", (2.0, 4.0)), ("tight-tripartite", (2.0, 4.0)),
             ("tight-ordered", (2.0, 4.0)), ("eof-alpha-power", (2.0, 4.0)),
             ("eof-tight-ordered", (2.0, 4.0))])),
    ((), (-1.0, -3.0), None, (3,), _kinds([("ckw", (2.0,)), ("upper-mean", (-1.0, -3.0))])),
    ((), (1.5,), None, (3,),
     _kinds([("ckw", (2.0,)), ("eof-alpha-power", (1.5,)), ("eof-tight-ordered", (1.5,))])),
    # the battery drops a kind that fits no qubit count; an explicit pick keeps it
    ((), None, None, (4, 5), _kinds(_BATTERY[:2] + _BATTERY[3:])),
    (("tight-tripartite",), None, None, (4,), _kinds([("tight-tripartite", _C)])),
    # m reaches the split families only
    (("tight-split", BoundId.CKW), (2.0, 2.5), 2, (5,),
     _kinds([("tight-split", (2.0, 2.5))], 2) + _kinds([("ckw", (2.0,))])),
    (("eof-tight-split",), None, 1, (4,), _kinds([("eof-tight-split", _E)], 1)),
    (("tight-split",), None, None, (4,), _kinds([("tight-split", _C)])),
])
def test_campaign_kinds(bounds, grid, m, qubits, want):
    got = campaign_kinds(bounds, grid, m, qubits)
    assert [(k.id.value, k.alpha, k.m) for k in got] == want


@pytest.mark.parametrize("bounds, grid, m, message", [
    (("ckw",), None, 1, "split index m = 1 is unused"),
    ((), None, 1, "split index m = 1 is unused"),  # the battery has no split family
    (("alpha-power",), (-1.0,), None, "no grid point is a valid power for alpha-power"),
    (("upper-mean", "alpha-power"), (-1.0,), None,
     "no grid point is a valid power for alpha-power"),
    (("upper-mean",), (2.0,), None, "no grid point is a valid power for upper-mean"),
    # the unused m is reported before a pick that gets no power
    (("alpha-power",), (-1.0,), 3, "split index m = 3 is unused"),
])
def test_campaign_kinds_rejects_an_unusable_pick(bounds, grid, m, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        campaign_kinds(bounds, grid, m, (3,))


def test_tight_tripartite_is_tight_ordered_at_three_parties():
    states = [w_state(3), generalized_schmidt(FLAT), _bell_with_spectator()]
    states += [campaign_state(9, 3, i) for i in range(20)]
    for psi in states:
        prof = profile(psi)
        for alpha in (2.0, 2.5, 3.0):
            trip = evaluate(prof, BoundKind(BoundId.TIGHT_TRIPARTITE, alpha))
            ordered = evaluate(prof, BoundKind(BoundId.TIGHT_ORDERED, alpha))
            assert (trip.lhs, trip.rhs, trip.conditions) == \
                (ordered.lhs, ordered.rhs, ordered.conditions)


def test_split_kind_auto_index():
    for i in range(12):
        prof = profile(campaign_state(3, 5, i))
        rep = evaluate(prof, BoundKind(BoundId.TIGHT_SPLIT, 2.5))
        assert rep.m_used == 2  # largest admissible split wins at five parties
        assert rep.applicable in (None, False)
        pinned = evaluate(prof, BoundKind(BoundId.TIGHT_SPLIT, 2.5, m=1))
        assert pinned.m_used == 1
    with pytest.raises(ValueError):
        evaluate(profile(campaign_state(3, 4, 0)), BoundKind(BoundId.TIGHT_SPLIT, 2.5, m=2))


# Pair concurrences and decided tails at N = 6 (conditions i = 1..4, a free
# split index tries m = 3, 2, 1). Real profiles never steer the search: only
# their last tail is decided, and its condition reads <= for every m <= N - 3.
_SEARCH_PAIRS = np.array([[0.5, 0.4, 0.1, 0.2, 0.0],
                          [0.5, 0.4, 0.1, 0.6, 0.0],
                          [0.5, 0.4, 0.1, 0.2, 0.0],
                          [0.1, 0.4, 0.1, 0.2, 0.0]])
_SEARCH_TAILS = np.array([[0.3, 0.4, 0.3, 0.3],
                          [0.3, 0.4, 0.3, 0.3],
                          [np.nan, np.nan, np.nan, 0.3],
                          [np.nan, 0.4, 0.3, 0.3]])


def test_split_index_search_on_decided_tails(monkeypatch):
    monkeypatch.setattr(monogamy, "_tails", lambda c_pair: _SEARCH_TAILS)
    H, U, F = HOLDS, UNDECIDED, FAILS
    free = _decide(_SEARCH_PAIRS, "split", None)
    # row 0: m = 3 fails on condition 3, m = 2 and m = 1 both hold: the largest
    # that holds; row 1: every m fails on condition 4: the largest, failing;
    # row 2: only condition 4 is decided; row 3: m = 3 fails and m = 2 is
    # undecided, which does not fail
    assert free.m_used.tolist() == [2, 3, 3, 2]
    assert free.applicable.tolist() == [H, F, U, U]
    assert free.verdicts.tolist() == [[H, H, H, H], [H, H, F, F], [U, U, U, H], [U, H, H, H]]
    # a pinned m is taken as it is, never searched, even where another m holds
    for m, applicable in ((1, [H, F, U, U]), (3, [F, F, U, F])):
        pinned = _decide(_SEARCH_PAIRS, "split", m)
        assert pinned.m_used.tolist() == [m] * 4
        assert pinned.applicable.tolist() == applicable
    # ordered decides every condition as >=: the split shape at m = N - 2,
    # whose coefficients it shares too
    ordered = _decide(_SEARCH_PAIRS, "ordered", None)
    assert ordered.verdicts.tolist() == [[H, H, F, F], [H, H, F, H], [U, U, U, F], [U, H, F, F]]
    split = _decide(_SEARCH_PAIRS, "split", 4)
    assert np.array_equal(ordered.verdicts, split.verdicts)
    assert np.array_equal(ordered.applicable, split.applicable)
    block = ProfileBlock(np.full(4, 0.9), _SEARCH_PAIRS, np.full(4, 0.8), _SEARCH_PAIRS / 2)
    for tight, tight_split in ((BoundId.TIGHT_ORDERED, BoundId.TIGHT_SPLIT),
                               (BoundId.EOF_TIGHT_ORDERED, BoundId.EOF_TIGHT_SPLIT)):
        got = _evaluate_batch(block, _FAMILIES[tight], ordered, (2.0, 2.5, 3.0))
        want = _evaluate_batch(block, _FAMILIES[tight_split], split, (2.0, 2.5, 3.0))
        for a, b in zip(got[:6], want[:6]):  # lhs .. dropped
            assert np.array_equal(a, b)


def test_evaluate_reports_each_condition_relation():
    for n in range(3, 7):
        rep = evaluate(profile(w_class_state(n, 1)), BoundKind(BoundId.TIGHT_ORDERED, 2.5))
        assert rep.m_used is None
        assert [c.relation for c in rep.conditions] == [">="] * (n - 2)
    prof = profile(w_class_state(5, 1))
    pinned = evaluate(prof, BoundKind(BoundId.TIGHT_SPLIT, 2.5, m=1))
    assert (pinned.m_used, tuple(c.relation for c in pinned.conditions)) == (1, (">=", "<=", "<="))
    free = evaluate(prof, BoundKind(BoundId.TIGHT_SPLIT, 2.5))
    assert (free.m_used, tuple(c.relation for c in free.conditions)) == (2, (">=", ">=", "<="))
    for bound in (BoundId.CKW, BoundId.ALPHA_POWER, BoundId.EOF_ALPHA_POWER):
        rep = evaluate(prof, BoundKind(bound, 2.0))
        assert (rep.conditions, rep.m_used) == ((), None)


def test_eof_bounds_on_w_state():
    prof = profile(w_state(3))
    at_min = evaluate(prof, BoundKind(BoundId.EOF_TIGHT_ORDERED, ALPHA_MIN_EOF))
    base = evaluate(prof, BoundKind(BoundId.EOF_ALPHA_POWER, ALPHA_MIN_EOF))
    assert abs(at_min.rhs - base.rhs) < 1e-12  # families coincide at sqrt(2)
    assert at_min.applicable is True
    e_focus, e = prof.e_focus[0].item(), prof.e_pair[0, 0].item()
    expect = e_focus ** 2 - (1.0 + 2.0 / math.sqrt(2.0)) * e ** 2
    rep2 = evaluate(prof, BoundKind(BoundId.EOF_TIGHT_ORDERED, 2.0))
    assert abs((rep2.lhs - rep2.rhs) - expect) < 1e-12


def test_ckw_monte_carlo():
    for n, count in ((3, 250), (4, 200)):
        for i in range(count):
            rep = evaluate(profile(campaign_state(0, n, i)), BoundKind(BoundId.CKW, 2.0))
            assert rep.slack > -1e-10, (n, i, rep.slack)


def test_upper_mean_monte_carlo_four_parties():
    strict_seen = 0
    for i in range(200):
        rep = evaluate(profile(campaign_state(1, 4, i)), BoundKind(BoundId.UPPER_MEAN, -2.0))
        if rep.applicable is True:
            assert rep.slack > -1e-10, (i, rep.slack)
            if rep.strict:
                strict_seen += 1
                assert rep.slack > 1e-14
    assert strict_seen > 50  # most Haar samples keep all pairs well away from zero


def test_invariant_campaign_full_scale():
    # the proven inequalities at the sample counts the library promises:
    # ten thousand Haar states per qubit count, zero violations
    kinds = (
        BoundKind(BoundId.CKW, 2.0),
        BoundKind(BoundId.TIGHT_TRIPARTITE, 2.0),
        BoundKind(BoundId.TIGHT_TRIPARTITE, 2.5),
        BoundKind(BoundId.TIGHT_TRIPARTITE, 3.0),
        BoundKind(BoundId.TIGHT_TRIPARTITE, 4.0),
        BoundKind(BoundId.UPPER_MEAN, -0.5),
        BoundKind(BoundId.UPPER_MEAN, -1.0),
        BoundKind(BoundId.UPPER_MEAN, -2.0),
    )
    result = run_campaign(CampaignConfig(10_000, (3, 4), kinds, seed=611))
    assert result.all_passed
    assert len(result.rows) == 12  # tripartite rows exist only at three qubits
    tripartite_applicable = set()
    for row in result.rows:
        assert row.failed == 0, (row.bound, row.alpha, row.qubits)
        assert row.indeterminate == 0
        if row.bound == "ckw":
            assert row.applicable == 10_000
        if row.bound == "tight-tripartite":
            tripartite_applicable.add(row.applicable)
        if row.bound == "upper-mean" and row.qubits == 3:
            assert row.applicable == 10_000
    # the ordering condition does not depend on alpha
    assert len(tripartite_applicable) == 1


def test_eof_proof_step_inequality():
    # the term-splitting step behind the eof tight bounds, on a coarse grid
    from entmono.measures import eof_from_squared_concurrence as f
    xs = np.linspace(0.0, 1.0, 21)
    for alpha in (ALPHA_MIN_EOF, 2.0, 3.0):
        for x in xs:
            for y in xs:
                if y > x or x * x + y * y > 1.0:
                    continue
                lhs = f(x * x + y * y) ** alpha
                rhs = f(x * x) ** alpha + (alpha / math.sqrt(2.0)) * f(y * y) ** alpha
                assert lhs - rhs > -1e-12, (alpha, x, y)


def test_residual_sweep_shapes_and_csv():
    prof = profile(generalized_schmidt(FLAT))
    sweep = residual_sweep(prof, BoundId.TIGHT_TRIPARTITE, BoundId.ALPHA_POWER, (2.0, 2.5, 3.0))
    assert sweep.alphas == (2.0, 2.5, 3.0)
    assert len(sweep.y1) == len(sweep.y2) == 3
    assert abs(sweep.y1[0] - sweep.y2[0]) < 1e-12  # curves meet at alpha 2
    assert sweep.applicable_tightened is True
    text = sweep.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "alpha,y1,y2"
    assert len(lines) == 4
    first = [float(tok) for tok in lines[1].split(",")]
    assert abs(first[0] - 2.0) < 1e-15
    assert abs(first[1] - 4 / 25) < 1e-10


def test_residual_sweep_validates_grid():
    prof = profile(generalized_schmidt(FLAT))
    with pytest.raises(ValueError):
        residual_sweep(prof, BoundId.TIGHT_TRIPARTITE, BoundId.ALPHA_POWER, ())
    with pytest.raises(ValueError):
        residual_sweep(prof, BoundId.TIGHT_TRIPARTITE, BoundId.ALPHA_POWER, (1.5,))
    # a bad point inside the grid, named for the tightened bound, which is checked first
    with pytest.raises(ValueError, match="tight-tripartite requires 2 <= alpha < inf, got 1.5"):
        residual_sweep(prof, BoundId.TIGHT_TRIPARTITE, BoundId.ALPHA_POWER, (2.0, 1.5))
    # the first bad point wins, even where only the baseline is bad
    with pytest.raises(ValueError, match=re.escape("ckw requires alpha = 2, got 2.5")):
        residual_sweep(prof, BoundId.TIGHT_TRIPARTITE, BoundId.CKW, (2.0, 2.5, 1.5))
    # both bounds are bad at 1.5: the tightened one is named
    with pytest.raises(ValueError, match=re.escape("ckw requires alpha = 2, got 1.5")):
        residual_sweep(prof, BoundId.CKW, BoundId.TIGHT_TRIPARTITE, (2.0, 1.5))
    with pytest.raises(ValueError, match="alphas must be finite, got nan"):
        residual_sweep(prof, BoundId.TIGHT_TRIPARTITE, BoundId.ALPHA_POWER, (2.0, math.nan, 3.0))
    # -inf is below 0, so the negative-power families' range alone would allow it
    with pytest.raises(ValueError, match="alphas must be finite, got -inf"):
        residual_sweep(prof, BoundId.UPPER_MEAN, BoundId.UPPER_SUM, (-1.0, -math.inf))


def test_residual_sweep_rejects_an_unused_split_index():
    prof = profile(w_state(3))
    with pytest.raises(ValueError, match="unused"):
        residual_sweep(prof, "ckw", "alpha-power", [2.0], m=5)
    sweep = residual_sweep(profile(campaign_state(0, 5, 0)), "tight-split", "alpha-power",
                           [2.0, 2.5], m=1)
    assert len(sweep.y1) == 2


def test_residual_sweep_folds_applicability_over_the_grid():
    # alpha = -800 overflows and alpha = -1 does not; the grid order must not matter
    prof = profile(generalized_schmidt(FLAT))
    for grid in ((-800.0, -1.0), (-1.0, -800.0)):
        sweep = residual_sweep(prof, BoundId.UPPER_MEAN, BoundId.UPPER_SUM, grid)
        assert sweep.applicable_tightened is False
        assert sweep.applicable_baseline is False
        assert sweep.points_applicable_tightened == 1
    sweep = residual_sweep(prof, BoundId.UPPER_MEAN, BoundId.UPPER_SUM, (-2.0, -1.0))
    assert sweep.applicable_tightened is True and sweep.points_applicable_tightened == 2
    sweep = residual_sweep(profile(w_state(4)), BoundId.TIGHT_ORDERED, BoundId.ALPHA_POWER,
                           (2.0, 3.0))
    assert sweep.applicable_tightened is None and sweep.applicable_baseline is True
    assert sweep.points_applicable_tightened == 0


def test_residual_sweep_reports_inapplicability():
    sweep = residual_sweep(profile(ghz_state(3)), BoundId.UPPER_MEAN, BoundId.UPPER_SUM, (-1.0,))
    assert sweep.applicable_tightened is False
    assert math.isnan(sweep.y1[0])
