"""End-to-end acceptance checks.

Each test covers one acceptance criterion and registers a PASS/FAIL
verdict that the terminal summary prints after the run. Tolerances are
stated inline; closed-form expectations are recomputed from the measured
profile values rather than hard-coded curve tables.
"""

import json
import math
import time

import numpy as np

from conftest import record_verdict

from entmono.engine import CampaignConfig, campaign_state, run_campaign
from entmono.harness import alpha_grid
from entmono.measures import (
    concurrence_pure,
    convex_roof_upper_bound,
    eof_from_squared_concurrence,
    wootters_concurrence,
)
from entmono.monogamy import (
    _FAMILIES,
    ALPHA_MIN_EOF,
    BoundId,
    BoundKind,
    _coefficient_table,
    evaluate,
    profile,
    residual_sweep,
)
from entmono.states import SeededSampler, generalized_schmidt, haar_random_pure, random_mixed, w_state

FLAT = (math.sqrt(5.0) / 5.0,) * 5
SQRT2 = math.sqrt(2.0)


def _verdict(label, ok):
    record_verdict(label, ok)


def test_criterion_1_tripartite_residual_curves():
    ok = False
    try:
        started = time.perf_counter()
        prof = profile(generalized_schmidt(FLAT))
        assert abs(prof.c_focus[0] - 2 * math.sqrt(3) / 5) < 1e-10
        assert all(abs(c - 0.4) < 1e-10 for c in prof.c_pair[0])
        grid = alpha_grid(2.0, 5.0, 0.05)
        sweep = residual_sweep(prof, BoundId.TIGHT_TRIPARTITE, BoundId.ALPHA_POWER, grid)
        assert sweep.applicable_tightened is True
        c0, cp = prof.c_focus[0].item(), prof.c_pair[0, 0].item()
        for a, y1, y2 in zip(sweep.alphas, sweep.y1, sweep.y2):
            assert abs(y1 - (c0 ** a - (1 + a / 2) * cp ** a)) < 1e-10, a
            assert abs(y2 - (c0 ** a - 2 * cp ** a)) < 1e-10, a
            assert y2 >= y1 - 1e-12, a  # extra pair weight only tightens
        assert abs(sweep.y1[0] - sweep.y2[0]) < 1e-10  # families coincide at alpha 2
        assert abs(sweep.y1[0] - 4 / 25) < 1e-10
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, elapsed
        ok = True
    finally:
        _verdict("criterion 1: tripartite lower-bound curves match closed forms", ok)


def test_criterion_2_negative_power_curves():
    ok = False
    try:
        started = time.perf_counter()
        prof = profile(generalized_schmidt(FLAT))
        grid = alpha_grid(-5.0, -0.05, 0.05)
        sweep = residual_sweep(prof, BoundId.UPPER_MEAN, BoundId.UPPER_SUM, grid)
        assert sweep.applicable_tightened is True
        c0, cp = prof.c_focus[0].item(), prof.c_pair[0, 0].item()
        for a, y1, y2 in zip(sweep.alphas, sweep.y1, sweep.y2):
            assert abs(y1 - (c0 ** a - cp ** a)) < 1e-10, a
            assert abs(y2 - (c0 ** a - 2 * cp ** a)) < 1e-10, a
            assert y1 < -1e-14, a  # the mean form is strict on this state
            assert y1 >= y2 - 1e-12, a  # and sharper than the summed form
        rep = evaluate(prof, BoundKind(BoundId.UPPER_MEAN, -1.0))
        assert rep.strict is True
        assert abs(rep.slack - (2.5 - 5 / (2 * math.sqrt(3)))) < 1e-10
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, elapsed
        ok = True
    finally:
        _verdict("criterion 2: negative-power upper-bound curves match closed forms", ok)


def test_criterion_3_eof_residual_curves():
    ok = False
    try:
        prof = profile(w_state(3))
        assert abs(prof.e_pair[0, 0] - 0.55005) < 0.005
        assert abs(prof.e_focus[0] - 0.91830) < 0.005
        grid = alpha_grid(SQRT2, 4.0, 0.05)
        sweep = residual_sweep(prof, BoundId.EOF_TIGHT_ORDERED, BoundId.EOF_ALPHA_POWER, grid)
        assert sweep.applicable_tightened is True
        e0, ep = prof.e_focus[0].item(), prof.e_pair[0, 0].item()
        for a, y1, y2 in zip(sweep.alphas, sweep.y1, sweep.y2):
            assert abs(y1 - (e0 ** a - (1 + a / SQRT2) * ep ** a)) < 1e-10, a
            assert abs(y2 - (e0 ** a - 2 * ep ** a)) < 1e-10, a
            assert y2 >= y1 - 1e-12, a
        assert abs(sweep.y1[0] - sweep.y2[0]) < 1e-10  # coincide at alpha sqrt(2)
        ok = True
    finally:
        _verdict("criterion 3: EoF curves for the W state match closed forms", ok)


def test_criterion_4_monte_carlo_campaign():
    ok = False
    try:
        kinds = (
            (BoundKind(BoundId.CKW, 2.0),)
            + tuple(BoundKind(BoundId.TIGHT_TRIPARTITE, a) for a in (2.0, 2.5, 3.0))
            + tuple(BoundKind(BoundId.EOF_TIGHT_ORDERED, a) for a in (SQRT2, 2.0, 3.0))
            + tuple(BoundKind(BoundId.UPPER_MEAN, a) for a in (-0.5, -1.0, -2.0))
        )
        config = CampaignConfig(samples=10_000, qubit_counts=(3,), kinds=kinds,
                                seed=0, tolerance=1e-10)
        started = time.perf_counter()
        result = run_campaign(config)
        elapsed = time.perf_counter() - started
        assert result.all_passed
        for row in result.rows:
            assert row.failed == 0, (row.bound, row.alpha, row.failures[:3])
            assert row.total == 10_000
            assert row.applicable > 0
        ckw_row = next(r for r in result.rows if r.bound == "ckw")
        assert ckw_row.applicable == 10_000
        assert elapsed < 60.0, elapsed
        ok = True
    finally:
        _verdict("criterion 4: 10^4-state Haar campaign holds every bound", ok)


def test_criterion_5_tightened_bounds_dominate():
    ok = False
    try:
        pairs = (
            (BoundId.TIGHT_ORDERED, BoundId.ALPHA_POWER, (2.0, 3.0)),
            (BoundId.EOF_TIGHT_ORDERED, BoundId.EOF_ALPHA_POWER, (SQRT2, 2.0)),
        )
        for i in range(500):
            prof = profile(campaign_state(2, 3, i))
            for tight_id, base_id, alphas in pairs:
                for a in alphas:
                    tight = evaluate(prof, BoundKind(tight_id, a))
                    base = evaluate(prof, BoundKind(base_id, a))
                    assert tight.rhs >= base.rhs - 1e-12, (i, tight_id, a)
        # split variants: coefficient dominance over the unit baseline
        for parties in (4, 5, 6):
            for m in range(1, parties - 2):
                for a in (2.0, 2.5, 4.0):
                    c = _coefficient_table(_FAMILIES[BoundId.TIGHT_SPLIT], (a,), parties - 1, m)[0]
                    assert c.min() >= 1.0 - 1e-15
                for a in (SQRT2, 2.0, 3.0):
                    c = _coefficient_table(_FAMILIES[BoundId.EOF_TIGHT_SPLIT], (a,),
                                           parties - 1, m)[0]
                    assert c.min() >= 1.0 - 1e-15
        ok = True
    finally:
        _verdict("criterion 5: tightened right-hand sides dominate the baselines", ok)


def test_criterion_6_closed_forms_vs_convex_roof():
    ok = False
    try:
        for i in range(1000):
            psi = haar_random_pure(2, SeededSampler(100_000 + i))
            rho = np.outer(psi, psi.conj())
            assert abs(wootters_concurrence(rho) - concurrence_pure(psi, (0,))) < 1e-10, i
        for i in range(200):
            rho = random_mixed(2, i % 3, SeededSampler(200_000 + i))
            roof = convex_roof_upper_bound(rho, trials=500, seed=i)
            assert roof >= wootters_concurrence(rho) - 1e-8, i
        ok = True
    finally:
        _verdict("criterion 6: Wootters closed form consistent with roof search", ok)


def test_criterion_7_eof_power_superadditivity():
    ok = False
    try:
        xs = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 10)
        x, y = np.meshgrid(xs, xs, indexing="ij")
        keep = x * x + y * y <= 1.0
        fx = eof_from_squared_concurrence(x[keep] ** 2)
        fy = eof_from_squared_concurrence(y[keep] ** 2)
        fxy = eof_from_squared_concurrence(x[keep] ** 2 + y[keep] ** 2)
        super_slack = fxy ** SQRT2 - fx ** SQRT2 - fy ** SQRT2
        assert super_slack.min() >= -1e-12
        ordered = keep & (x >= y)
        fx, fy = eof_from_squared_concurrence(x[ordered] ** 2), \
            eof_from_squared_concurrence(y[ordered] ** 2)
        fxy = eof_from_squared_concurrence(x[ordered] ** 2 + y[ordered] ** 2)
        for a in (SQRT2, 2.0, 3.0):
            step_slack = fxy ** a - fx ** a - (a / SQRT2) * fy ** a
            assert step_slack.min() >= -1e-12, a
        ok = True
    finally:
        _verdict("criterion 7: EoF power superadditivity holds on the unit grid", ok)


def test_criterion_8_verification_is_reproducible():
    ok = False
    try:
        kinds = (BoundKind(BoundId.CKW, 2.0), BoundKind(BoundId.UPPER_MEAN, -1.0),
                 BoundKind(BoundId.EOF_ALPHA_POWER, 2.0))
        config = CampaignConfig(samples=200, qubit_counts=(3, 4), kinds=kinds, seed=99)
        first = run_campaign(config).to_json()
        second = run_campaign(config).to_json()
        assert first == second
        parsed = json.loads(first)
        assert parsed["all_passed"] is True
        assert {row["qubits"] for row in parsed["rows"]} == {3, 4}
        ok = True
    finally:
        _verdict("criterion 8: identical configs yield byte-identical reports", ok)
