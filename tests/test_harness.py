import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entmono
from entmono import engine, harness, measures, monogamy, statefile
from entmono.engine import CampaignConfig, campaign_state, run_campaign
from entmono.harness import alpha_grid, main
from entmono.statefile import load_state_file, save_state_file
from entmono.linalg import as_state_vector, partial_trace
from entmono.measures import eof_from_squared_concurrence, wootters_concurrence
from entmono.monogamy import BoundId, BoundKind, evaluate, profile
from entmono.states import (SeededSampler, _haar_into, basis_state, ghz_state, haar_random_pure,
                            random_mixed, w_state)


DATA = Path(__file__).parent / "data"


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_alpha_grid():
    grid = alpha_grid(2.0, 5.0, 0.05)
    assert len(grid) == 61
    assert grid[0] == 2.0
    assert abs(grid[-1] - 5.0) < 1e-12
    assert alpha_grid(-5.0, -0.05, 0.05)[-1] == pytest.approx(-0.05)
    assert alpha_grid(1.0, 1.0, 0.5) == (1.0,)
    with pytest.raises(ValueError):
        alpha_grid(2.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        alpha_grid(5.0, 2.0, 0.1)
    for lo, hi, step in ((math.nan, 3.0, 0.5), (2.0, math.inf, 0.5), (2.0, 3.0, math.nan),
                         (2.0, 3.0, 1e-300), (-1e308, 1e308, 1.0)):
        with pytest.raises(ValueError):
            alpha_grid(lo, hi, step)


def test_state_file_round_trip_amplitudes(tmp_path):
    path = str(tmp_path / "w3.json")
    save_state_file(path, amplitudes=w_state(3))
    loaded = load_state_file(path)
    assert loaded.num_qubits == 3
    assert loaded.density_matrix is None
    np.testing.assert_allclose(loaded.amplitudes, w_state(3), atol=1e-15)


def test_state_file_round_trip_density(tmp_path):
    rho = random_mixed(2, 1, SeededSampler(2))
    path = str(tmp_path / "rho.json")
    save_state_file(path, density_matrix=rho)
    loaded = load_state_file(path)
    assert loaded.amplitudes is None
    np.testing.assert_allclose(loaded.density_matrix, rho, atol=1e-15)


def test_state_file_validation(tmp_path):
    with pytest.raises(ValueError):
        save_state_file(str(tmp_path / "x.json"))
    with pytest.raises(ValueError):
        save_state_file(str(tmp_path / "x.json"), amplitudes=w_state(3),
                        density_matrix=np.eye(4) / 4)

    amps = [[a, 0.0] for a in np.sqrt([0.5, 0.5, 0.0, 0.0])]
    good = {"format_version": "1", "num_qubits": 2, "amplitudes": amps}
    assert load_state_file(_write_json(tmp_path / "ok.json", good)).num_qubits == 2

    for breakage in (
        {"format_version": "2"},
        {"num_qubits": "2"},
        {"amplitudes": amps[:2]},
        {"amplitudes": [[1.0, 0.0, 0.0]] * 4},
        {"amplitudes": [[1.0, 0.0]] * 4},  # norm 2
        {"num_qubits": True, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},  # a bool is not a count
    ):
        bad = {**good, **breakage}
        with pytest.raises(ValueError):
            load_state_file(_write_json(tmp_path / "bad.json", bad))

    both = {**good, "density_matrix": [[0.25, 0.0]] * 16}
    with pytest.raises(ValueError):
        load_state_file(_write_json(tmp_path / "both.json", both))
    neither = {"format_version": "1", "num_qubits": 2}
    with pytest.raises(ValueError):
        load_state_file(_write_json(tmp_path / "none.json", neither))
    (tmp_path / "trash.json").write_text("{not json")
    with pytest.raises(ValueError):
        load_state_file(str(tmp_path / "trash.json"))
    (tmp_path / "arr.json").write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_state_file(str(tmp_path / "arr.json"))


def test_campaign_config_validation():
    kind = BoundKind(BoundId.CKW, 2.0)
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(0, (3,), (kind,), 0))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(5, (2,), (kind,), 0))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(5, (3,), (), 0))
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(5, (13,), (kind,), 0))
    for tolerance in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(5, (3,), (kind,), 0, tolerance=tolerance))
    split = BoundKind(BoundId.TIGHT_SPLIT, 2.0)
    with pytest.raises(ValueError):
        run_campaign(CampaignConfig(5, (3,), (split,), 0))
    with pytest.raises(ValueError, match="fits none"):
        run_campaign(CampaignConfig(5, (4,), (BoundKind(BoundId.TIGHT_SPLIT, 2.0, m=2),), 0))
    with pytest.raises(ValueError, match="repeat"):
        run_campaign(CampaignConfig(5, (3, 3), (kind,), 0))
    with pytest.raises(ValueError, match="repeat"):
        run_campaign(CampaignConfig(5, (3,), (kind, BoundKind(BoundId.CKW, 2.0)), 0))
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        run_campaign(CampaignConfig(5, (3,), (kind,), -1))


def test_campaign_state_rejects_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        campaign_state(-1, 3, 0)


def test_run_campaign_counters_and_replay():
    config = CampaignConfig(
        samples=60,
        qubit_counts=(3,),
        kinds=(BoundKind(BoundId.CKW, 2.0), BoundKind(BoundId.TIGHT_TRIPARTITE, 2.5),
               BoundKind(BoundId.UPPER_MEAN, -1.0)),
        seed=17,
    )
    result = run_campaign(config)
    assert result.all_passed
    assert result.stats["profiles"] == 60
    assert result.stats["bound_evaluations"] == 180
    by_bound = {row.bound: row for row in result.rows}
    ckw = by_bound["ckw"]
    assert ckw.total == 60 and ckw.applicable == 60 and ckw.failed == 0
    assert ckw.passed == 60 and ckw.worst_slack is not None
    trip = by_bound["tight-tripartite"]
    assert trip.applicable + trip.not_applicable == 60

    # any reported extreme must be reproducible from (seed, qubits, index) alone
    psi = campaign_state(config.seed, ckw.qubits, ckw.worst_sample)
    rep = evaluate(profile(psi), BoundKind(BoundId.CKW, 2.0))
    assert rep.slack == ckw.worst_slack


def test_run_campaign_json_is_deterministic():
    config = CampaignConfig(30, (3,), (BoundKind(BoundId.CKW, 2.0),), 5)
    assert run_campaign(config).to_json() == run_campaign(config).to_json()
    text = run_campaign(config).to_json()
    data = json.loads(text)
    assert data["format_version"] == "1"
    assert data["config"]["seed"] == 5
    assert data["rows"][0]["bound"] == "ckw"
    assert text.endswith("\n")


def _block_verdicts(codes, slack, strict=False):
    """Verdicts of one kind at one power on a block, as _tally reads them: (S, 1) columns."""
    codes = np.array(codes, np.int8)
    return SimpleNamespace(applicable=codes[:, None], slack=np.array(slack)[:, None],
                           strict=np.broadcast_to(strict, codes.shape)[:, None])


def test_tally_counts_failures_and_the_worst_sample():
    h, u, f = monogamy.HOLDS, monogamy.UNDECIDED, monogamy.FAILS
    row = engine.CampaignRow("ckw", 2.0, None, 3)
    # an undecided or not applicable sample never fails, however negative its slack
    engine._tally(row, _block_verdicts([h, h, u, h], [-3.5e-10, 0.25, -5.0, -3.5e-10]), 0, 1e-10)
    engine._tally(row, _block_verdicts([f, h, h, h], [-1.0, -2.25e-10, -3.5e-10, 1e-12]), 4, 1e-10)
    counts = (row.total, row.applicable, row.passed, row.failed, row.indeterminate,
              row.not_applicable)
    assert counts == (8, 6, 2, 4, 1, 1)
    assert row.failures == [{"sample_index": 0, "slack": -3.5e-10},
                            {"sample_index": 3, "slack": -3.5e-10},
                            {"sample_index": 5, "slack": -2.25e-10},
                            {"sample_index": 6, "slack": -3.5e-10}]
    # samples 0, 3 and 6 share the minimum: the first in a block, the earlier block
    assert (row.worst_slack, row.worst_sample) == (-3.5e-10, 0)

    config = CampaignConfig(8, (3,), (BoundKind(BoundId.CKW, 2.0),), 0)
    result = engine.CampaignResult(config, (row,), row.failed == 0, {})

    def reject(token):
        raise ValueError(token)

    data = json.loads(result.to_json(), parse_constant=reject)
    assert data["all_passed"] is False
    assert data["rows"][0]["failures"] == row.failures


def test_tally_holds_strict_bounds_to_a_positive_floor():
    floor = monogamy._STRICT_SLACK_FLOOR
    # slacks between -tolerance and the floor: a failure only where the sample is strict
    slack = [floor / 2, floor / 2, -5e-11, -5e-11, 2 * floor]
    row = engine.CampaignRow("upper-mean", -1.0, None, 3)
    engine._tally(row, _block_verdicts([monogamy.HOLDS] * 5, slack,
                                       [True, False, True, False, True]), 4, 1e-10)
    assert (row.passed, row.failed) == (3, 2)
    assert row.failures == [{"sample_index": 4, "slack": floor / 2},
                            {"sample_index": 6, "slack": -5e-11}]
    assert (row.worst_slack, row.worst_sample) == (-5e-11, 6)


@pytest.mark.parametrize("budget", [
    1,             # one sample per block at every qubit count
    3 * 16 * 8,    # blocks of 3 at three qubits: 7 samples end in a short block
    3 * 16 * 16,   # blocks of 6 at three qubits and 3 at four
])
def test_run_campaign_block_size_changes_nothing(budget, monkeypatch):
    config = CampaignConfig(
        samples=7,
        qubit_counts=(3, 4),
        kinds=(BoundKind(BoundId.CKW, 2.0), BoundKind(BoundId.TIGHT_ORDERED, 2.5),
               BoundKind(BoundId.UPPER_MEAN, -1.0), BoundKind(BoundId.EOF_ALPHA_POWER, 2.0)),
        seed=11,
    )
    expected = run_campaign(config).to_json()
    monkeypatch.setattr(engine, "BLOCK_BYTES", budget)
    assert run_campaign(config).to_json() == expected


def _two_draw_haar(seed, n, index):
    """A campaign sample as first drawn: real parts, then imaginary parts, in two draws."""
    rng = SeededSampler(seed).child(n, index).rng()
    vec = np.empty(2 ** n, dtype=complex)
    vec.real = rng.standard_normal(2 ** n)
    vec.imag = rng.standard_normal(2 ** n)
    return vec / np.linalg.norm(vec)


@pytest.mark.parametrize("n, start, stop", [
    (3, 0, 2049),  # blocks of 2048 and 1
    (8, 0, 100),   # blocks of 64 and 36
    (12, 0, 9),    # blocks of 4, 4 and 1
    (12, 5, 11),   # a run that starts inside the stream: blocks of 4 and 2
])
def test_profiles_draw_in_place_what_campaign_state_replays(n, start, stop):
    states = [campaign_state(6, n, i) for i in range(start, stop)]
    for i, psi in zip(range(start, stop), states):
        assert np.array_equal(psi, haar_random_pure(n, SeededSampler(6).child(n, i)))
        assert np.array_equal(psi, _two_draw_haar(6, n, i))
    part = monogamy.PartitionSpec.default(n)
    want = monogamy.profile_batch(np.stack(states), part)
    got = engine._profiles(6, n, part, start, stop)
    for name, a, b in zip(want._fields, got, want):
        assert a.shape == b.shape and (a == b).all(), name


FAULT_PROBE = """
import resource, sys
if sys.argv[1] == "scipy":
    import scipy.special
from entmono.engine import CampaignConfig, run_campaign
from entmono.monogamy import BoundId, BoundKind
config = CampaignConfig(9, (12,), (BoundKind(BoundId.CKW, 2.0),), 0)
for _ in range(2):  # the first frees of the large buffers move glibc's thresholds
    run_campaign(config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    run_campaign(config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
@pytest.mark.parametrize("first", ["entmono", "scipy"])
def test_campaign_blocks_reuse_their_buffers(first):
    # a block that allocated its 12-qubit stack and scratch afresh made about
    # 450 minor faults per campaign whenever glibc had returned them to the
    # kernel, which depends on what the process imported first
    if first == "scipy":
        pytest.importorskip("scipy.special")
    env = {**os.environ, "PYTHONPATH": str(Path(entmono.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE, first], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) < 50


def _assert_same_report(report, golden):
    """Equal reports, worst_slack within 1e-12 so that another BLAS cannot fail it."""
    assert {k: v for k, v in report.items() if k != "rows"} == \
        {k: v for k, v in golden.items() if k != "rows"}
    assert len(report["rows"]) == len(golden["rows"])
    for row, want in zip(report["rows"], golden["rows"]):
        slack, want_slack = row.pop("worst_slack"), want.pop("worst_slack")
        assert row == want
        assert (slack is None) == (want_slack is None)
        if slack is not None:
            assert abs(slack - want_slack) <= 1e-12, (row, slack, want_slack)


@pytest.mark.parametrize("budget", [
    1 << 18,       # one profile block per qubit count
    3 * 8 * 16,    # blocks of 3 samples at three qubits, of 1 from four up
])
def test_run_campaign_mixed_kinds_keep_the_recorded_report(budget, monkeypatch):
    # recorded when each power of a kind was raised on its own; the kinds mix
    # families, powers (numpy's fast-path 2.0 and -1.0 among them) and split
    # indices in no order
    r2 = math.sqrt(2.0)
    kinds = [(BoundId.CKW, 2.0), (BoundId.ALPHA_POWER, 2.0), (BoundId.TIGHT_SPLIT, 2.0),
             (BoundId.ALPHA_POWER, 2.5), (BoundId.UPPER_MEAN, -1.0), (BoundId.TIGHT_ORDERED, 3.0),
             (BoundId.TIGHT_SPLIT, 2.0, 1), (BoundId.EOF_TIGHT_SPLIT, r2),
             (BoundId.UPPER_SUM, -2.0), (BoundId.TIGHT_SPLIT, 2.5), (BoundId.ALPHA_POWER, 3.0),
             (BoundId.UPPER_MEAN, -0.5), (BoundId.EOF_TIGHT_SPLIT, 3.0),
             (BoundId.EOF_ALPHA_POWER, r2), (BoundId.UPPER_SUM, -1.0),
             (BoundId.TIGHT_ORDERED, 2.0), (BoundId.EOF_ALPHA_POWER, 2.0),
             (BoundId.TIGHT_SPLIT, 3.0, 1)]
    config = CampaignConfig(samples=12, qubit_counts=(3, 4, 5, 6),
                            kinds=tuple(BoundKind(*k) for k in kinds), seed=5)
    monkeypatch.setattr(engine, "BLOCK_BYTES", budget)
    _assert_same_report(json.loads(run_campaign(config).to_json()),
                        json.loads((DATA / "verify-mixed-q3-6-seed5.json").read_text()))


def test_cli_verify_matches_recorded_report(tmp_path):
    # recorded with the per-sample engine before campaigns were profiled in
    # blocks; slack is compared within 1e-12 so another BLAS cannot fail it
    golden = json.loads((DATA / "verify-default-q3-5-seed13.json").read_text())
    out = tmp_path / "r.json"
    assert main(["verify", "--samples", "200", "--qubits", "3,5", "--seed", "13",
                 "--out", str(out)]) == 0
    _assert_same_report(json.loads(out.read_text()), golden)


def test_cli_example_golden_values(tmp_path, capsys):
    out = tmp_path / "ex1.csv"
    assert main(["example", "--id", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,y1,y2"
    assert len(lines) == 62
    rows = {round(float(r.split(",")[0]), 6): [float(v) for v in r.split(",")[1:]]
            for r in lines[1:]}
    assert abs(rows[2.0][0] - 4 / 25) < 1e-10
    assert abs(rows[2.0][1] - 4 / 25) < 1e-10
    assert abs(rows[3.0][0] - 0.1725537550532244) < 1e-10
    assert abs(rows[3.0][1] - 0.2045537550532244) < 1e-10
    err = capsys.readouterr().err
    assert "example 1" in err

    again = tmp_path / "again.csv"
    assert main(["example", "--id", "1", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_cli_example_grid_override(tmp_path, capsys):
    out = tmp_path / "ex3.csv"
    code = main(["example", "--id", "3", "--alpha-min", "1.5", "--alpha-max", "2.0",
                 "--alpha-step", "0.25", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().strip().split("\n")) == 4
    assert main(["example", "--id", "3", "--alpha-min", "1.5", "--out", str(out)]) == 2
    assert main(["example", "--id", "3", "--alpha-min", "1.0", "--alpha-max", "2.0",
                 "--alpha-step", "0.25", "--out", str(out)]) == 2  # below sqrt(2)
    # powers this negative overflow; the bound is reported unverifiable, not a crash
    capsys.readouterr()
    assert main(["example", "--id", "2", "--alpha-min", "-2000", "--alpha-max", "-1000",
                 "--alpha-step", "500", "--out", str(out)]) == 0
    assert "applicable=False" in capsys.readouterr().err
    assert len(out.read_text().strip().split("\n")) == 4
    # only the alpha = -1 point of this grid is applicable
    assert main(["example", "--id", "2", "--alpha-min", "-800", "--alpha-max", "-1",
                 "--alpha-step", "799", "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "applicable=False" in err
    assert "upper-mean is applicable at 1 of 2 grid points" in err
    # a negative value in exponent form is a value, not an unknown option
    assert main(["example", "--id", "2", "--alpha-min", "-1e3", "--alpha-max", "-1",
                 "--alpha-step", "1", "--out", str(out)]) == 0
    assert len(out.read_text().strip().split("\n")) == 1001


def test_cli_example_two_is_strictly_negative(tmp_path):
    out = tmp_path / "ex2.csv"
    assert main(["example", "--id", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")[1:]
    assert len(lines) == 100
    for line in lines:
        alpha, y1, y2 = (float(v) for v in line.split(","))
        assert y1 < -1e-14, line  # the mean upper bound is strict here
        assert y1 >= y2 - 1e-12


def test_cli_measure_pure(tmp_path):
    state = tmp_path / "w3.json"
    save_state_file(str(state), amplitudes=w_state(3))
    out = tmp_path / "m.json"
    assert main(["measure", "--state", str(state), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pure"] is True
    assert abs(data["concurrence"]["focus_rest"] - 2 * math.sqrt(2) / 3) < 1e-10
    np.testing.assert_allclose(data["concurrence"]["pairs"], [2 / 3, 2 / 3], atol=1e-10)
    assert data["concurrence"]["tails"] == data["concurrence"]["pairs"][-1:]
    assert abs(data["eof"]["pairs"][0] - 0.5500477595827574) < 1e-12
    assert data["note"] == ""
    # at five parties only the last tail has a closed form
    save_state_file(str(state), amplitudes=w_state(5))
    assert main(["measure", "--state", str(state), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    pairs = data["concurrence"]["pairs"]
    np.testing.assert_allclose(pairs, [0.4] * 4, atol=1e-10)
    assert data["concurrence"]["tails"] == [None, None, pairs[-1]]
    assert data["note"] == "tail concurrences of mixed reductions have no closed form"


def test_import_and_measure_load_no_scipy(tmp_path):
    # importing scipy.special takes about half of an entmono start-up; the
    # library alone loads neither the CLI module nor argparse
    state = tmp_path / "w3.json"
    save_state_file(str(state), amplitudes=w_state(3))
    argv = ["measure", "--state", str(state), "--out", str(tmp_path / "m.json")]
    script = "\n".join([
        "import sys",
        "def scipy_modules(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "import entmono",
        "print(scipy_modules())",
        "print([m for m in ('argparse', 'entmono.harness') if m in sys.modules])",
        "from entmono.harness import main",
        f"assert main({argv!r}) == 0",
        "print(scipy_modules())",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(entmono.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "[]", "[]"]
    assert json.loads((tmp_path / "m.json").read_text())["pure"] is True


def test_cli_measure_rank_one_density_as_pure(tmp_path):
    bell3 = np.kron((basis_state(2, 0) + basis_state(2, 3)) / math.sqrt(2), basis_state(1, 0))
    state = tmp_path / "proj.json"
    save_state_file(str(state), density_matrix=np.outer(bell3, bell3.conj()))
    out = tmp_path / "m.json"
    assert main(["measure", "--state", str(state), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pure"] is True
    assert abs(data["concurrence"]["focus_rest"] - 1.0) < 1e-10


def test_cli_measure_mixed(tmp_path):
    rho = random_mixed(3, 2, SeededSampler(4))
    state = tmp_path / "mixed.json"
    save_state_file(str(state), density_matrix=rho)
    out = tmp_path / "m.json"
    assert main(["measure", "--state", str(state), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["pure"] is False
    assert data["concurrence"]["focus_rest"] is None
    assert data["eof"]["focus_rest"] is None
    assert len(data["concurrence"]["pairs"]) == 2
    assert "pairwise" in data["note"]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cli_measure_mixed_pairs_equal_the_public_measure(n, tmp_path):
    state = tmp_path / "mixed.json"
    out = tmp_path / "m.json"
    for seed in range(5):
        rho = random_mixed(n, 2 + seed % 3, SeededSampler(seed))
        save_state_file(str(state), density_matrix=rho)
        assert main(["measure", "--state", str(state), "--out", str(out)]) == 0
        pairs = json.loads(out.read_text())["concurrence"]["pairs"]
        rho = load_state_file(str(state)).density_matrix
        assert pairs == [wootters_concurrence(partial_trace(rho, (0, b))) for b in range(1, n)]


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    calls = [["verify", "--samples", "3", "--bound", "upper-mean"],
             ["example", "--id", "9"],
             ["verify", "--samples", "3", "--bound", "ckw", "--seed", "4"],
             ["verify", "--samples", "3", "--frobnicate"],
             ["example", "--id", "1", "--alpha-min", "2", "--alpha-max", "3",
              "--alpha-step", "0.5"]]

    def run_all():
        seen = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            seen.append((code, captured.out, re.sub(r"in [0-9.]+s", "", captured.err)))
        return seen

    assert harness.build_parser() is harness.build_parser()
    reused = run_all()
    monkeypatch.setattr(harness, "build_parser", harness.build_parser.__wrapped__)
    assert run_all() == reused  # a fresh parser per call gives the same results
    assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0]
    assert {row["bound"] for row in json.loads(reused[2][1])["rows"]} == {"ckw"}


def test_cli_measure_partition_flags(tmp_path):
    state = tmp_path / "w3.json"
    save_state_file(str(state), amplitudes=w_state(3))
    out = tmp_path / "m.json"
    code = main(["measure", "--state", str(state), "--focus", "2", "--order", "1,0",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["partition"] == {"focus": 2, "rest": [1, 0]}
    assert main(["measure", "--state", str(state), "--focus", "3"]) == 2


def test_cli_measure_and_sweep_check_a_loaded_state_once(tmp_path, monkeypatch, capsys):
    checked = []

    def counting(psi):
        checked.append(1)
        return as_state_vector(psi)

    monkeypatch.setattr(statefile, "as_state_vector", counting)
    monkeypatch.setattr(monogamy, "as_state_vector", counting)
    state = tmp_path / "w4.json"
    save_state_file(str(state), amplitudes=w_state(4))
    checked.clear()
    assert main(["measure", "--state", str(state), "--out", str(tmp_path / "m.json")]) == 0
    assert main(["sweep", "--state", str(state), "--bound", "tight-ordered",
                 "--baseline", "alpha-power", "--alpha-min", "2", "--alpha-max", "3",
                 "--alpha-step", "0.5", "--out", str(tmp_path / "s.csv")]) == 0
    assert len(checked) == 2  # once per file load, never again in profiling

    bell = tmp_path / "bell.json"
    save_state_file(str(bell), amplitudes=np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    capsys.readouterr()
    assert main(["measure", "--state", str(bell)]) == 2
    assert main(["sweep", "--state", str(bell), "--bound", "ckw", "--baseline", "ckw",
                 "--alpha-min", "2", "--alpha-max", "2", "--alpha-step", "1"]) == 2
    assert capsys.readouterr().err.count("at least three parties") == 2


def test_eof_domain_is_checked_once_per_profile_block(tmp_path, monkeypatch):
    checks, blocks = [], []
    checked, profiled = measures._unit_interval, monogamy.profile_batch

    def counting_check(x, what):
        checks.append(sys._getframe(2).f_code.co_name)  # the caller of the public EoF
        return checked(x, what)

    def counting_block(*args):
        blocks.append(len(args[0]))
        return profiled(*args)

    monkeypatch.setattr(measures, "_unit_interval", counting_check)
    monkeypatch.setattr(engine, "profile_batch", counting_block)
    monkeypatch.setattr(harness, "profile_batch", counting_block)
    # the verify-wide-light benchmark operation, then a pure-state measure
    assert main(["verify", "--samples", "20", "--qubits", "4,8,12", "--bound", "ckw",
                 "--bound", "tight-split", "--out", str(tmp_path / "r.json")]) == 0
    state = tmp_path / "w4.json"
    save_state_file(str(state), amplitudes=w_state(4))
    assert main(["measure", "--state", str(state), "--out", str(tmp_path / "m.json")]) == 0
    # profile_batch checks each block once; measure reads its block's pair EoF
    assert sum(blocks) == 61 and checks == ["profile_batch"] * len(blocks)
    # the public entry point still checks its input
    eof_from_squared_concurrence(0.5)
    assert checks[-1] == "test_eof_domain_is_checked_once_per_profile_block"


def test_integer_rule_runs_per_campaign_not_per_sample(tmp_path, monkeypatch):
    names, whole = [], entmono.linalg._whole

    def counting(name, *args):
        names.append(name)
        return whole(name, *args)

    for key, module in list(sys.modules.items()):
        if key.startswith("entmono.") and hasattr(module, "_whole"):
            monkeypatch.setattr(module, "_whole", counting)
    counts = []
    for samples in ("20", "200"):  # the verify-wide-light benchmark operation, then 10x samples
        names.clear()
        assert main(["verify", "--samples", samples, "--qubits", "4,8,12", "--bound", "ckw",
                     "--bound", "tight-split", "--out", str(tmp_path / "r.json")]) == 0
        counts.append(sorted(names))
    assert counts[0] == counts[1] and {"samples", "seed", "qubit count"} <= set(counts[0])


def test_cli_verify_round_trip(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify", "--samples", "40", "--seed", "3", "--bound", "ckw",
                 "--bound", "upper-mean", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["all_passed"] is True
    bounds = {row["bound"] for row in data["rows"]}
    assert bounds == {"ckw", "upper-mean"}
    assert all(row["total"] == 40 for row in data["rows"])

    again = tmp_path / "again.json"
    assert main(["verify", "--samples", "40", "--seed", "3", "--bound", "ckw",
                 "--bound", "upper-mean", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_cli_verify_grid_and_errors(tmp_path):
    out = tmp_path / "r.json"
    code = main(["verify", "--samples", "5", "--bound", "alpha-power", "--alpha-min", "2.0",
                 "--alpha-max", "3.0", "--alpha-step", "0.5", "--out", str(out)])
    assert code == 0
    alphas = [row["alpha"] for row in json.loads(out.read_text())["rows"]]
    assert alphas == [2.0, 2.5, 3.0]
    # a grid entirely below the family threshold cannot be silently emptied
    assert main(["verify", "--samples", "5", "--bound", "eof-alpha-power",
                 "--alpha-min", "0.5", "--alpha-max", "1.0", "--alpha-step", "0.25"]) == 2
    assert main(["verify", "--samples", "5", "--bound", "tight-split"]) == 2
    assert main(["verify", "--samples", "5", "--qubits", "13"]) == 2
    assert main(["verify", "--samples", "0"]) == 2


def test_cli_verify_default_battery_shrinks_quietly(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--samples", "4", "--qubits", "4", "--out", str(out)]) == 0
    bounds = {row["bound"] for row in json.loads(out.read_text())["rows"]}
    assert "tight-tripartite" not in bounds
    assert "ckw" in bounds
    # a grid serves either the positive or the negative families, never both
    for grid, kept, dropped in ((["2", "3", "0.5"], "alpha-power", "upper-mean"),
                                (["-2", "-1", "0.5"], "upper-mean", "alpha-power")):
        argv = ["verify", "--samples", "2", "--alpha-min", grid[0], "--alpha-max", grid[1],
                "--alpha-step", grid[2], "--out", str(out)]
        assert main(argv) == 0
        bounds = {row["bound"] for row in json.loads(out.read_text())["rows"]}
        assert kept in bounds and dropped not in bounds and "ckw" in bounds


@pytest.mark.parametrize("argv", [
    ["--qubits", "3,3", "--bound", "ckw"],
    ["--bound", "ckw", "--bound", "ckw"],
    ["--qubits", "4", "--bound", "tight-split", "--m", "2"],
    ["--bound", "ckw", "--m", "2"],
    ["--m", "1"],
    ["--seed", "-1"],
])
def test_cli_verify_rejects_input_before_sampling(argv, monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("a sample was drawn before the input was rejected")

    monkeypatch.setattr(engine, "_haar_into", no_sampling)
    assert main(["verify", "--samples", "300"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_run_campaign_samples_only_counts_with_rows(monkeypatch):
    drawn = []

    def recording_state(sampler, out, normals):
        drawn.append(sampler.spawn_key[0])  # the spawn key is (qubits, index)
        return _haar_into(sampler, out, normals)

    monkeypatch.setattr(engine, "_haar_into", recording_state)
    kind = BoundKind(BoundId.TIGHT_TRIPARTITE, 2.0)
    result = run_campaign(CampaignConfig(5, (3, 4), (kind,), 0))
    assert drawn == [3] * 5
    assert {row.qubits for row in result.rows} == {3}
    assert result.stats == {"profiles": 5, "bound_evaluations": 5}


def test_cli_verify_pinned_split_index_keeps_fitting_counts(tmp_path):
    out = tmp_path / "r.json"
    assert main(["verify", "--samples", "3", "--qubits", "6,4", "--bound", "tight-split",
                 "--m", "2", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert {(row["qubits"], row["m"]) for row in rows} == {(6, 2)}
    assert len(rows) == 3  # the default powers


def test_cli_sweep(tmp_path):
    state = tmp_path / "w3.json"
    save_state_file(str(state), amplitudes=w_state(3))
    out = tmp_path / "s.csv"
    code = main(["sweep", "--state", str(state), "--bound", "eof-tight-ordered",
                 "--baseline", "eof-alpha-power", "--alpha-min", "1.5",
                 "--alpha-max", "2.0", "--alpha-step", "0.25", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "alpha,y1,y2"
    assert len(lines) == 4

    mixed = tmp_path / "mixed.json"
    save_state_file(str(mixed), density_matrix=random_mixed(3, 2, SeededSampler(1)))
    assert main(["sweep", "--state", str(mixed), "--bound", "ckw", "--baseline", "ckw",
                 "--alpha-min", "2", "--alpha-max", "2", "--alpha-step", "1"]) == 2
    assert main(["sweep", "--state", str(state), "--bound", "ckw",
                 "--baseline", "ckw"]) == 2  # grid flags are required here
    # a split index that neither bound takes is a usage error
    assert main(["sweep", "--state", str(state), "--bound", "tight-ordered",
                 "--baseline", "alpha-power", "--alpha-min", "2", "--alpha-max", "3",
                 "--alpha-step", "0.5", "--m", "2"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "5", "--tolerance", "nan"],
    ["verify", "--samples", "5", "--tolerance", "inf"],
    ["verify", "--samples", "5", "--bound", "alpha-power", "--alpha-min", "2",
     "--alpha-max", "inf", "--alpha-step", "0.5"],
    ["verify", "--samples", "5", "--bound", "alpha-power", "--alpha-min", "nan",
     "--alpha-max", "3", "--alpha-step", "0.5"],
    ["verify", "--samples", "5", "--bound", "alpha-power", "--alpha-min", "2",
     "--alpha-max", "3", "--alpha-step", "1e-300"],
    ["example", "--id", "1", "--alpha-min", "2", "--alpha-max", "3", "--alpha-step", "1e-300"],
    ["example", "--id", "2", "--alpha-min=-inf", "--alpha-max=-1", "--alpha-step", "0.5"],
])
def test_cli_non_finite_campaign_input_exits_2(argv, capsys):
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 5.0  # the tiny step is refused, not built
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("word", ["-inf", "-infinity", "-nan", "-INF", "-Infinity", "-NaN"])
def test_cli_negative_word_is_a_value(word, tmp_path, capsys):
    # a negative non-finite word reaches the grid check, not argparse's "expected one argument"
    state = tmp_path / "w3.json"
    save_state_file(str(state), amplitudes=w_state(3))
    assert main(["sweep", "--state", str(state), "--bound", "upper-mean", "--baseline",
                 "upper-sum", "--alpha-min", word, "--alpha-max", "-1", "--alpha-step", "1"]) == 2
    assert capsys.readouterr().err == "error: alpha grid bounds and step must be finite\n"
    assert main(["verify", "--samples", "1", "--tolerance", word]) == 2
    assert capsys.readouterr().err == "error: tolerance must be positive and finite\n"


@pytest.mark.parametrize("amplitude", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_cli_rejects_non_finite_state_file(tmp_path, amplitude, capsys):
    state = tmp_path / "bad.json"
    state.write_text('{"format_version": "1", "num_qubits": 3, "amplitudes": [[%s, 0.0]%s]}'
                     % (amplitude, ", [0.0, 0.0]" * 7))
    with pytest.raises(ValueError):
        load_state_file(str(state))
    assert main(["measure", "--state", str(state)]) == 2
    assert main(["sweep", "--state", str(state), "--bound", "ckw", "--baseline", "ckw",
                 "--alpha-min", "2", "--alpha-max", "2", "--alpha-step", "1"]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_cli_usage_errors():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["example"]) == 2
    assert main(["example", "--id", "9"]) == 2
    assert main(["measure", "--state", "/nonexistent/state.json"]) == 2


_GRID_FLAGS = ("--alpha-min", "--alpha-max", "--alpha-step")


def _valued(flags, values, spaced):
    """Each flag with its value, as one flag=value token or as two tokens as users type."""
    return [t for f, v in zip(flags, values) for t in ([f, v] if spaced else [f"{f}={v}"])]


def _one_power(alpha, spaced=False):
    """A one-point grid at alpha."""
    return _valued(_GRID_FLAGS, (alpha, alpha, "1"), spaced)


@pytest.mark.parametrize("argv", [
    ["verify", "--qubits", "5", "--bound", "tight-split"] + _one_power("1e300"),
    ["verify", "--qubits", "12", "--bound", "eof-tight-split"] + _one_power("1e40"),
    ["verify", "--qubits", "5", "--bound", "tight-ordered"] + _one_power("1e300"),
])
def test_cli_verify_huge_power_is_not_applicable(argv, tmp_path, capsys):
    # the coefficients overflow to inf, and inf * 0 in the rhs is NaN
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--samples", "3", "--out", str(out)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (row,) = json.loads(out.read_text())["rows"]
    assert row["not_applicable"] == row["total"] == 3
    assert row["worst_slack"] is None


def test_cli_sweep_huge_power_is_not_applicable(tmp_path, capsys):
    # GHZ-3 profiles C(A|rest) = 1.0000000000000002, whose 1e300th power overflows
    state = tmp_path / "ghz3.json"
    save_state_file(str(state), amplitudes=ghz_state(3))
    out = tmp_path / "s.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sweep", "--state", str(state), "--bound", "tight-ordered",
                     "--baseline", "alpha-power", "--out", str(out)] + _one_power("1e300")) == 0
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "tight-ordered applicability is False" in err
    assert out.read_text() == "alpha,y1,y2\n1.0000000000000001e+300,nan,nan\n"


# The exit-code contract over random argv. Hypothesis draws (and shrinks
# towards) the first entries of a list most, so usable values lead each list.
_NUMBERS = ["2", "3", "1e300", "-1", "1e40", "-1e300", "2.5", "1.5", "-800", "-0.5", "0", "0.5",
            "1", "1e-300", "nan", "inf", "-inf"]
_QUBITS = [5, 4, 12, 3, 10, 13, 2, 6, 7, 8, 9, 11]
_BOUNDS = st.sampled_from(["tight-ordered", "alpha-power", "tight-split", "eof-tight-ordered",
                           "upper-mean", "ckw", "eof-alpha-power", "eof-tight-split",
                           "tight-tripartite", "upper-sum"])  # every BoundId
_STATES = st.sampled_from(["@haar5", "@ghz4", "@w3", "@mixed3", "@bell2"])  # state_files


def _maybe(name, values):
    """Absent three times in four, else the flag with one drawn value, in either form."""
    return st.one_of(st.just([]), st.just([]), st.just([]),
                     st.tuples(values, st.booleans()).map(lambda t: _valued([name], [t[0]], t[1])))


def _grid_in_reach(argv):
    """Whether argv builds at most 20 grid points, or none, or is refused by alpha_grid."""
    flags = {}
    for i, token in enumerate(argv):
        name, eq, value = token.partition("=")
        if name in _GRID_FLAGS:
            flags[name] = value if eq else argv[i + 1]
    try:
        lo, hi, step = (float(flags[f]) for f in _GRID_FLAGS)
        return not 20 < (hi - lo) / step < 10_000
    except (KeyError, ZeroDivisionError):
        return True


_grid = st.one_of(
    st.tuples(st.sampled_from(["1e300", "-1e300", "1e40", "-800"]), st.booleans()).map(
        lambda t: _one_power(*t)),
    st.tuples(st.sampled_from(_NUMBERS), st.booleans()).map(lambda t: _one_power(*t)),
    st.just([]),
    st.tuples(st.lists(st.sampled_from(_NUMBERS), min_size=3, max_size=3), st.booleans()).map(
        lambda t: _valued(_GRID_FLAGS, t[0], t[1])))
_split_index = _maybe("--m", st.integers(0, 3).map(str))
_partition = (_maybe("--focus", st.integers(-1, 4).map(str)),
              _maybe("--order", st.lists(st.integers(0, 4), min_size=1, max_size=5)
                     .map(lambda q: ",".join(map(str, q)))))
_argv = st.one_of(
    st.tuples(st.just(["verify", "--samples"]), st.sampled_from(["3", "1", "0"]).map(lambda v: [v]),
              st.lists(st.sampled_from(_QUBITS), min_size=1, max_size=3)
              .map(lambda q: ["--qubits", ",".join(map(str, q))]),
              st.lists(_BOUNDS, max_size=2).map(lambda bs: [t for b in bs for t in ("--bound", b)]),
              _grid, _split_index, _maybe("--tolerance", st.sampled_from(_NUMBERS)),
              _maybe("--seed", st.integers(0, 3).map(str))),
    st.tuples(st.just(["sweep", "--state"]), _STATES.map(lambda s: [s]),
              _BOUNDS.map(lambda b: ["--bound", b]), _BOUNDS.map(lambda b: ["--baseline", b]),
              _grid, _split_index, *_partition),
    st.tuples(st.just(["measure", "--state"]), _STATES.map(lambda s: [s]), *_partition),
    st.tuples(st.just(["example", "--id"]), st.integers(0, 4).map(lambda i: [str(i)]), _grid),
).map(lambda parts: [t for part in parts for t in part]).filter(_grid_in_reach)


@pytest.fixture(scope="module")
def state_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("states")
    files = {"w3": {"amplitudes": w_state(3)}, "ghz4": {"amplitudes": ghz_state(4)},
             "haar5": {"amplitudes": campaign_state(0, 5, 0)},
             "mixed3": {"density_matrix": random_mixed(3, 1, SeededSampler(5))},
             "bell2": {"amplitudes": np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)}}
    for name, state in files.items():
        save_state_file(str(root / f"{name}.json"), **state)
    return root


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_argv)
def test_cli_exit_code_contract(argv, state_files):
    """main returns 0, 1 or 2 and never raises; 1 only from a verify that saw a failure."""
    argv = [str(state_files / f"{t[1:]}.json") if t.startswith("@") else t for t in argv]
    out = state_files / "out"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(out)])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert argv[0] == "verify", argv
        assert json.loads(out.read_text())["all_passed"] is False, argv
