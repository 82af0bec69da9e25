import math

import numpy as np
import pytest

from entmono.harness import CampaignConfig, campaign_state, run_campaign
from entmono.linalg import reduced_state
from entmono.measures import (
    concurrence_pure,
    eof_from_squared_concurrence,
    eof_pure,
    wootters_concurrence,
)
from entmono.monogamy import (
    ALPHA_MIN_EOF,
    BoundId,
    BoundKind,
    PartitionSpec,
    bound_coefficients,
    evaluate,
    family_kinds,
    profile,
    residual_sweep,
)
from entmono.states import SeededSampler, basis_state, generalized_schmidt, ghz_state, w_state

FLAT = (math.sqrt(5.0) / 5.0,) * 5
C_CUT_FLAT = 2.0 * math.sqrt(3.0) / 5.0  # focus-rest concurrence of the flat state
C_PAIR_FLAT = 0.4


def _bell_with_spectator():
    bell = (basis_state(2, 0) + basis_state(2, 3)) / math.sqrt(2.0)
    return np.kron(bell, basis_state(1, 0))


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
    assert prof.num_parties == 3
    assert abs(prof.c_focus_rest - C_CUT_FLAT) < 1e-12
    np.testing.assert_allclose(prof.c_pair, [C_PAIR_FLAT, C_PAIR_FLAT], atol=1e-12)
    assert prof.c_tail == (prof.c_pair[-1],)


def test_profile_tail_availability():
    prof = profile(campaign_state(0, 5, 0))
    assert prof.c_tail[:2] == (None, None)
    assert prof.c_tail[2] == prof.c_pair[-1]
    with pytest.raises(ValueError):
        profile(basis_state(2, 0))


@pytest.mark.parametrize("n, partition", [
    (3, None), (4, None), (5, None), (8, None), (5, PartitionSpec(3, (1, 4, 0, 2))),
])
def test_profile_matches_public_measures(n, partition):
    # profile calls the trusted kernels directly; it must agree exactly with
    # the validated public functions built on the same kernels
    for i in range(6):
        psi = campaign_state(21, n, i)
        prof = profile(psi, partition)
        part = partition or PartitionSpec.default(n)
        assert prof.c_focus_rest == concurrence_pure(psi, (part.focus,))
        assert prof.e_focus_rest == eof_pure(psi, (part.focus,))
        pairs = tuple(wootters_concurrence(reduced_state(psi, (part.focus, b)))
                      for b in part.rest)
        assert prof.c_pair == pairs
        assert prof.e_pair == tuple(eof_from_squared_concurrence(c * c) for c in pairs)
        assert prof.c_tail == (None,) * (n - 3) + (pairs[-1],)


def test_profile_validates_only_at_the_boundary():
    with pytest.raises(ValueError, match="non-finite"):
        profile(np.full(8, np.nan))
    # a norm inside the state-vector tolerance is accepted; no inner check
    # may apply that tolerance again to the squared norm
    psi = w_state(3) * (1.0 + 0.9e-10)
    prof = profile(psi)
    assert abs(prof.c_pair[0] - 2.0 / 3.0) < 1e-9


def test_profile_respects_partition_order():
    psi = _bell_with_spectator()
    swapped = profile(psi, PartitionSpec(0, (2, 1)))
    np.testing.assert_allclose(swapped.c_pair, [0.0, 1.0], atol=1e-12)
    assert abs(swapped.c_focus_rest - 1.0) < 1e-12


def test_coefficients_unit_families():
    np.testing.assert_array_equal(bound_coefficients(BoundId.CKW, 2.0, 4), np.ones(3))
    np.testing.assert_array_equal(bound_coefficients(BoundId.ALPHA_POWER, 3.0, 5), np.ones(4))
    np.testing.assert_array_equal(bound_coefficients(BoundId.UPPER_SUM, -1.0, 3), np.ones(2))
    np.testing.assert_allclose(bound_coefficients(BoundId.UPPER_MEAN, -1.0, 4), np.full(3, 1 / 3))


def test_coefficients_tight_families():
    np.testing.assert_allclose(
        bound_coefficients(BoundId.TIGHT_TRIPARTITE, 3.0, 3), [1.0, 1.5])
    np.testing.assert_allclose(
        bound_coefficients(BoundId.TIGHT_ORDERED, 3.0, 5), [1.0, 1.5, 2.25, 3.375])
    t = 2.0 / math.sqrt(2.0)
    np.testing.assert_allclose(
        bound_coefficients(BoundId.EOF_TIGHT_ORDERED, 2.0, 4), [1.0, t, t * t])
    with pytest.raises(ValueError):
        bound_coefficients(BoundId.TIGHT_TRIPARTITE, 2.0, 4)


def test_coefficients_split_structure():
    r = 1.5  # alpha = 3
    np.testing.assert_allclose(
        bound_coefficients(BoundId.TIGHT_SPLIT, 3.0, 4, m=1), [1.0, r ** 2, r])
    np.testing.assert_allclose(
        bound_coefficients(BoundId.TIGHT_SPLIT, 3.0, 5, m=1), [1.0, r ** 2, r ** 2, r])
    np.testing.assert_allclose(
        bound_coefficients(BoundId.TIGHT_SPLIT, 3.0, 5, m=2), [1.0, r, r ** 3, r ** 2])
    np.testing.assert_allclose(
        bound_coefficients(BoundId.TIGHT_SPLIT, 3.0, 6, m=3),
        [1.0, r, r ** 2, r ** 4, r ** 3])
    with pytest.raises(ValueError):
        bound_coefficients(BoundId.TIGHT_SPLIT, 3.0, 4, m=2)
    with pytest.raises(ValueError):
        bound_coefficients(BoundId.TIGHT_SPLIT, 3.0, 4)


def test_tight_coefficients_dominate_unit_baseline():
    # pointwise coefficient dominance implies rhs dominance on any profile
    for alpha in (2.0, 2.5, 4.0):
        assert bound_coefficients(BoundId.TIGHT_ORDERED, alpha, 5).min() >= 1.0 - 1e-15
        for m in (1, 2):
            assert bound_coefficients(BoundId.TIGHT_SPLIT, alpha, 5, m=m).min() >= 1.0 - 1e-15
    for alpha in (ALPHA_MIN_EOF, 2.0, 3.0):
        assert bound_coefficients(BoundId.EOF_TIGHT_ORDERED, alpha, 5).min() >= 1.0 - 1e-15
        assert bound_coefficients(BoundId.EOF_TIGHT_SPLIT, alpha, 5, m=2).min() >= 1.0 - 1e-15


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
        for m in (None, 1, 2):  # family_kinds hands m to split families only
            kind = family_kinds(bound, m=m)[0]
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


def test_eof_bounds_on_w_state():
    prof = profile(w_state(3))
    at_min = evaluate(prof, BoundKind(BoundId.EOF_TIGHT_ORDERED, ALPHA_MIN_EOF))
    base = evaluate(prof, BoundKind(BoundId.EOF_ALPHA_POWER, ALPHA_MIN_EOF))
    assert abs(at_min.rhs - base.rhs) < 1e-12  # families coincide at sqrt(2)
    assert at_min.applicable is True
    e = prof.e_pair[0]
    expect = prof.e_focus_rest ** 2 - (1.0 + 2.0 / math.sqrt(2.0)) * e ** 2
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


def test_residual_sweep_reports_inapplicability():
    sweep = residual_sweep(profile(ghz_state(3)), BoundId.UPPER_MEAN, BoundId.UPPER_SUM, (-1.0,))
    assert sweep.applicable_tightened is False
    assert math.isnan(sweep.y1[0])
