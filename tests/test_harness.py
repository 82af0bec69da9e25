import json
import math
import time

import numpy as np
import pytest

from entmono import harness
from entmono.harness import (
    CampaignConfig,
    alpha_grid,
    campaign_state,
    load_state_file,
    main,
    run_campaign,
    save_state_file,
)
from entmono.monogamy import BoundId, BoundKind, evaluate, profile
from entmono.states import SeededSampler, basis_state, random_mixed, w_state


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
])
def test_cli_verify_rejects_input_before_sampling(argv, monkeypatch, capsys):
    def no_sampling(*args):
        raise AssertionError("a sample was drawn before the input was rejected")

    monkeypatch.setattr(harness, "campaign_state", no_sampling)
    assert main(["verify", "--samples", "300"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_run_campaign_samples_only_counts_with_rows(monkeypatch):
    drawn = []

    def recording_state(seed, qubits, index):
        drawn.append(qubits)
        return campaign_state(seed, qubits, index)

    monkeypatch.setattr(harness, "campaign_state", recording_state)
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
