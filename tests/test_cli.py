"""Command-line behaviour: files, exit codes, reproducibility."""
import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import smctune
from smctune.cli import main
from smctune.fixtures import fixture_path


def test_model_command(tmp_path, capsys):
    rc = main(["model", "--config", "five_story.json", "--out", str(tmp_path)])
    assert rc == 0
    modal = json.loads((tmp_path / "modal.json").read_text())
    assert modal["m0"] == pytest.approx(28.07, rel=0.01)
    assert modal["omega0"] == pytest.approx(9.9, rel=0.01)
    plant = json.loads((tmp_path / "plant.json").read_text())
    assert np.allclose(plant["D"], [0.0, 0.0, 0.0, -1.0])
    assert "m0" in capsys.readouterr().out


def test_model_single_story_unit_participation(tmp_path):
    rc = main(["model", "--config", "quanser.json", "--out", str(tmp_path)])
    assert rc == 0
    modal = json.loads((tmp_path / "modal.json").read_text())
    assert modal["beta0"] == pytest.approx(1.0, abs=1e-12)


def test_model_malformed_json_exits_2_without_output(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"floors": [')
    out = tmp_path / "out"
    rc = main(["model", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert not (out / "modal.json").exists() and not (out / "plant.json").exists()
    assert "error" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path):
    assert main(["model", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)]) == 2


def test_tune_command_and_determinism(tmp_path, capsys):
    args = ["tune", "--config", "quanser.json", "--tuning", "quanser_tuning.json"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("result.json", "mesh.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    result = json.loads((out1 / "result.json").read_text())
    assert result["feasible"] is True
    assert result["M0"] == pytest.approx(13.52, rel=0.05)
    assert result["best"]["zeta"] == pytest.approx(0.5)
    rows = [l for l in (out1 / "mesh.csv").read_text().splitlines()[1:]
            if l and not l.startswith("#")]
    assert len(rows) == result["feasible_count"]


def test_tune_index_override(tmp_path):
    out = tmp_path / "ju"
    rc = main(["tune", "--config", "quanser.json", "--tuning", "quanser_tuning.json",
               "--index", "ju", "--out", str(out)])
    assert rc == 0
    result = json.loads((out / "result.json").read_text())
    assert result["config"]["index"] == "ju"
    assert result["M0"] == pytest.approx(12.05, rel=0.05)


def test_tune_infeasible_exit_3(tmp_path, capsys):
    tuning = tmp_path / "t.json"
    tuning.write_text(json.dumps({
        "kappa_bars": {"kappa1": 0.2, "kappa2": 1e-9, "kappa3": 0.7, "kappa_u": 12.0}}))
    rc = main(["tune", "--config", "quanser.json", "--tuning", str(tuning),
               "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err.lower()
    # the structured result is still written for inspection
    written = json.loads((tmp_path / "out" / "result.json").read_text())
    assert written["feasible"] is False and written["message"]


@pytest.mark.parametrize("command", ["freq", "simulate", "compare"])
def test_infeasible_tuning_exits_3_with_prefix(tmp_path, capsys, command):
    # every command that needs the tuned design takes it from one helper
    tuning = tmp_path / "t.json"
    tuning.write_text(json.dumps({
        "kappa_bars": {"kappa1": 0.2, "kappa2": 1e-9, "kappa3": 0.7, "kappa_u": 12.0}}))
    argv = {"freq": ["freq"],
            "simulate": ["simulate", "--controller", "smc", "--quake", "synthetic_quake.csv"],
            "compare": ["compare", "--quake", "synthetic_quake.csv"]}[command]
    out = tmp_path / "out"
    rc = main(argv + ["--config", "quanser.json", "--tuning", str(tuning), "--out", str(out)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("infeasible: ")
    assert not out.exists()


def test_lqr_command(tmp_path):
    rc = main(["lqr", "--config", "quanser.json", "--maxima", "quanser_lqr_maxima.json",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "lqr.json").read_text())
    assert np.allclose(payload["k_gain"], [200.0, -1276.5, 49.0, 17.32], rtol=0.005)
    assert payload["riccati_residual"] < 1e-8
    assert payload["equivalent"]["zeta"] == pytest.approx(0.46, rel=0.02)


@pytest.mark.parametrize("factor", [0.03, 0.01])
def test_lqr_scaled_maxima_give_the_same_gain(tmp_path, factor):
    # Q and r scale together: the residual grows with them, the gain stays
    maxima = json.loads(fixture_path("quanser_lqr_maxima.json").read_text())
    scaled = tmp_path / "maxima.json"
    scaled.write_text(json.dumps({key: factor * value for key, value in maxima.items()}))
    gains = []
    for path, out in ((scaled, tmp_path / "scaled"), ("quanser_lqr_maxima.json", tmp_path)):
        assert main(["lqr", "--config", "quanser.json", "--maxima", str(path),
                     "--out", str(out)]) == 0
        gains.append(json.loads((out / "lqr.json").read_text())["k_gain"])
    np.testing.assert_allclose(gains[0], gains[1], rtol=1e-12, atol=0)


def test_freq_command(tmp_path):
    rc = main(["freq", "--config", "quanser.json", "--tuning", "quanser_tuning.json",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "frequency_response.csv").read_text().splitlines()
    assert lines[0] == "omega_rad_s,H1,H2,H3,Hu"
    assert len(lines) == 2001
    design = json.loads((tmp_path / "design.json").read_text())
    assert design["M0"] == pytest.approx(13.52, rel=0.05)


def test_design_block_schema(tmp_path):
    # the design record holds what the relay runs on and the sliding layout
    # it came from: no full-state gain and no fourth pole
    args = ["--config", "five_story.json", "--tuning", "five_story_tuning.json"]
    assert main(["tune", *args, "--out", str(tmp_path / "tune")]) == 0
    assert main(["freq", *args, "--out", str(tmp_path / "freq")]) == 0
    for block in (json.loads((tmp_path / "tune" / "result.json").read_text())["design"],
                  json.loads((tmp_path / "freq" / "design.json").read_text())):
        assert sorted(block) == sorted(["alpha1", "alpha2", "epsilon", "eta", "M0", "poles"])
        assert sorted(block["poles"]) == ["lambda3", "omega_n", "zeta"]


def test_freq_csv_is_the_band_table_of_the_winner(tmp_path, tune_quanser_jz2):
    # the winner's force peaks at the lower band edge, so the Hu column's
    # peak is the scan's exact chi bit for bit; the trapezoid RMS of each
    # squared column converges to the winner's exact kappa (the 2000-sample
    # rule is off by at most 5.1e-5 on Quanser)
    args = ["freq", "--config", "quanser.json", "--tuning", "quanser_tuning.json"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("frequency_response.csv", "design.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    table = np.loadtxt(out1 / "frequency_response.csv", delimiter=",", skiprows=1)
    omega, columns = table[:, 0], table[:, 1:].T
    result = tune_quanser_jz2.result
    assert np.argmax(columns[3]) == 0
    assert columns[3].max() == result.chi
    best = result.best
    kappas = (best["kappa1"], best["kappa2"], best["kappa3"], best["kappa_u"])
    for column, kappa in zip(columns, kappas):
        rms = np.sqrt(np.trapezoid(column ** 2, omega) / (omega[-1] - omega[0]))
        assert rms == pytest.approx(kappa, rel=1e-4)


def test_simulate_zero_quake(tmp_path):
    zero = tmp_path / "zero.csv"
    zero.write_text("t,accel\n" + "\n".join(f"{0.02 * i},0.0" for i in range(501)) + "\n")
    rc = main(["simulate", "--config", "quanser.json", "--quake", str(zero),
               "--controller", "passive", "--t-end", "5", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    for ch in ("z1", "z2", "z3", "z4", "u"):
        assert summary[ch]["rms"] == 0.0 and summary[ch]["peak"] == 0.0


def test_simulate_window_sample_count(tmp_path):
    rc = main(["simulate", "--config", "quanser.json", "--quake", "synthetic_quake.csv",
               "--pga", "3.0", "--controller", "passive", "--t-end", "8",
               "--window", "2,6", "--out", str(tmp_path)])
    assert rc == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["window"] == [2.0, 6.0]
    assert summary["n_samples"] == 4001


@pytest.mark.parametrize("command", ["simulate", "compare"])
@pytest.mark.parametrize("window", ["0,inf", "-inf,inf", "nan,1"])
def test_non_finite_window_exits_2(tmp_path, capsys, command, window):
    extra = (["--controller", "passive"] if command == "simulate"
             else ["--tuning", "quanser_tuning.json"])
    rc = main([command, "--config", "quanser.json", "--quake", "synthetic_quake.csv",
               *extra, "--t-end", "2", f"--window={window}", "--out", str(tmp_path)])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["model"],
    ["tune", "--tuning", "quanser_tuning.json"],
    ["lqr", "--maxima", "quanser_lqr_maxima.json"],
    ["freq", "--tuning", "quanser_tuning.json"],
    ["simulate", "--quake", "synthetic_quake.csv", "--controller", "passive", "--t-end", "1"],
    ["compare", "--quake", "synthetic_quake.csv", "--tuning", "quanser_tuning.json",
     "--t-end", "1"],
], ids=lambda argv: argv[0])
def test_out_naming_a_file_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    rc = main([*argv, "--config", "quanser.json", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot use {out} as the output")
    assert out.read_text() == "not a directory\n"


@pytest.mark.parametrize("argv, target", [
    (["tune", "--tuning", "quanser_tuning.json"], "result.json"),
    (["simulate", "--quake", "synthetic_quake.csv", "--controller", "passive", "--t-end", "1"],
     "trace.csv"),
], ids=lambda value: value if isinstance(value, str) else value[0])
def test_unwritable_output_exits_2(tmp_path, capsys, argv, target):
    (tmp_path / target).mkdir()
    rc = main([*argv, "--config", "quanser.json", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {tmp_path / target}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_simulate_smc_requires_tuning(tmp_path):
    rc = main(["simulate", "--config", "quanser.json", "--quake", "synthetic_quake.csv",
               "--controller", "smc", "--t-end", "5", "--out", str(tmp_path)])
    assert rc == 2


def test_compare_command(tmp_path):
    rc = main(["compare", "--config", "quanser.json", "--quake", "synthetic_quake.csv",
               "--pga", "3.0", "--tuning", "quanser_tuning.json",
               "--maxima", "quanser_lqr_maxima.json", "--t-end", "8",
               "--window", "2,6", "--out", str(tmp_path)])
    assert rc == 0
    table = (tmp_path / "comparison.csv").read_text().splitlines()
    assert table[0].startswith("controller,z1_rms,z1_peak,z2_rms,z2_peak")
    labels = [row.split(",")[0] for row in table[1:]]
    assert labels == ["passive", "smc-jz2", "smc-ju", "lqr"]
    payload = json.loads((tmp_path / "comparison.json").read_text())
    # active control beats the passive damper on the displacement channel
    passive_rms = payload["results"]["passive"]["z2"]["rms"]
    smc_rms = payload["results"]["smc-jz2"]["z2"]["rms"]
    assert smc_rms < passive_rms


def test_compare_runs_one_scan(tmp_path, monkeypatch):
    scans = []
    tune = smctune.cli.tune
    monkeypatch.setattr(smctune.cli, "tune", lambda *args: scans.append(args) or tune(*args))
    rc = main(["compare", "--config", "quanser.json", "--quake", "synthetic_quake.csv",
               "--tuning", "quanser_tuning.json", "--t-end", "1", "--out", str(tmp_path)])
    assert rc == 0 and len(scans) == 1


def test_compare_results_are_simulate_summaries(tmp_path):
    # compare and simulate run one path: each compare entry is the summary
    # simulate writes for that controller, without the record's keys
    sim = ["--config", "quanser.json", "--quake", "synthetic_quake.csv", "--pga", "3.0",
           "--t-end", "8", "--window", "2,6"]
    rc = main(["compare", *sim, "--tuning", "quanser_tuning.json",
               "--maxima", "quanser_lqr_maxima.json", "--out", str(tmp_path / "compare")])
    assert rc == 0
    results = json.loads((tmp_path / "compare" / "comparison.json").read_text())["results"]
    smc = ["--controller", "smc", "--tuning", "quanser_tuning.json", "--index"]
    runs = {"passive": ["--controller", "passive"], "smc-jz2": [*smc, "jz2"],
            "smc-ju": [*smc, "ju"],
            "lqr": ["--controller", "lqr", "--maxima", "quanser_lqr_maxima.json"]}
    assert sorted(results) == sorted(runs)
    for label, argv in runs.items():
        out = tmp_path / label
        assert main(["simulate", *sim, *argv, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary.pop("controller") == label
        for key in ("quake", "pga", "t_end"):
            del summary[key]
        assert summary == results[label], label


def test_failed_compare_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["compare", "--config", "quanser.json", "--quake", "synthetic_quake.csv",
               "--tuning", "quanser_tuning.json", "--t-end", "2", "--window", "5,nan",
               "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: window upper bound must be finite, got nan\n"
    assert not out.exists()


def test_tune_nan_kappa_ceiling_exits_2(tmp_path, capsys):
    from smctune.fixtures import fixture_path
    raw = json.loads(fixture_path("quanser_tuning.json").read_text())
    raw["kappa_bars"]["kappa2"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    rc = main(["tune", "--config", "quanser.json", "--tuning", str(path), "--out", str(out)])
    assert rc == 2
    assert not (out / "result.json").exists()
    assert "kappa2" in capsys.readouterr().err


def test_building_nan_delta_exits_2(tmp_path):
    from smctune.fixtures import fixture_path
    raw = json.loads(fixture_path("quanser.json").read_text())
    raw["bounds"]["delta"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(raw))
    assert main(["model", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_simulate_is_byte_identical_across_runs(tmp_path):
    args = ["simulate", "--config", "quanser.json", "--quake", "synthetic_quake.csv",
            "--pga", "3.0", "--controller", "smc", "--tuning", "quanser_tuning.json",
            "--t-end", "5"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("trace.csv", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("t_end", ["nan", "inf"])
def test_simulate_non_finite_t_end_exits_2(tmp_path, capsys, t_end):
    rc = main(["simulate", "--config", "quanser.json", "--quake", "synthetic_quake.csv",
               "--controller", "passive", "--t-end", t_end, "--out", str(tmp_path)])
    assert rc == 2
    assert "t_end" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("record, scaling, message", [
    ("t,accel\n0.0,0.0\nnan,1.0\n0.04,-1.0\n", [], "time must be finite"),
    ("t,accel\n0.0,0.0\ninf,1.0\n", [], "time must be finite"),
    ("dt,-0.02\n0.0\n1.0\n-1.0\n", ["--pga", "3.0"], "dt header must be positive"),
    ("dt,-0.02\n0.0\n1.0\n-1.0\n", [], "dt header must be positive"),
    ("dt,0\n0.0\n1.0\n-1.0\n", [], "dt header must be positive"),
    ("dt,nan\n0.0\n1.0\n-1.0\n", [], "dt header must be finite"),
], ids=["nan-time", "inf-time", "negative-dt-pga", "negative-dt-scale", "zero-dt", "nan-dt"])
def test_simulate_bad_record_times_exit_2(tmp_path, capsys, record, scaling, message):
    quake = tmp_path / "quake.csv"
    quake.write_text(record)
    rc = main(["simulate", "--config", "quanser.json", "--quake", str(quake), *scaling,
               "--controller", "passive", "--t-end", "0.02", "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_simulate_record_too_long_exits_2(tmp_path, capsys, refuse_huge_arange):
    # 20 bytes spanning 1e6 s: resampled at 1 ms it would be 1e9 samples
    quake = tmp_path / "quake.csv"
    quake.write_text("0.0,0.0\n1000000.0,1.0\n")
    rc = main(["simulate", "--config", "quanser.json", "--quake", str(quake),
               "--controller", "passive", "--t-end", "0.02", "--out", str(tmp_path)])
    assert rc == 2
    assert "needs more than 2000000 samples" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("fixture, path, value, message", [
    ("quanser.json", ("floors", 0, "mass"), "1.84", "floor 1 mass must be a number"),
    ("quanser.json", ("floors", 0, "stiffness"), float("inf"), "floor 1 stiffness must be finite"),
    ("quanser.json", ("atmd", "coulomb"), float("nan"), "atmd coulomb must be finite"),
    ("quanser.json", ("atmd", "mass"), float("-inf"), "atmd mass must be finite"),
    ("quanser.json", ("bounds", "varpi"), "0.5", "bounds varpi must be a number"),
    ("quanser.json", ("damping", "matrix", 0, 0), float("nan"), "damping.matrix entry"),
    ("five_story.json", ("damping", "rayleigh", "ratios", 1), "0.01", "damping ratio"),
    ("five_story.json", ("participation_factor",), float("nan"), "participation_factor"),
])
def test_building_non_finite_or_string_field_exits_2(tmp_path, capsys, fixture, path, value,
                                                     message):
    from smctune.fixtures import fixture_path
    raw = json.loads(fixture_path(fixture).read_text())
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path / "building.json"
    config.write_text(json.dumps(raw))
    rc = main(["simulate", "--config", str(config), "--quake", "synthetic_quake.csv",
               "--controller", "passive", "--t-end", "1", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lqr_without_complex_pair_exits_4(tmp_path, capsys):
    # these weights give Quanser a closed loop with four real poles
    maxima = tmp_path / "maxima.json"
    maxima.write_text(json.dumps({"z1_max": 1.0, "z2_max": 0.001, "z3_max": 0.3,
                                  "z4_max": 0.01, "u_max": 1.0}))
    rc = main(["lqr", "--config", "quanser.json", "--maxima", str(maxima),
               "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "no complex pair" in capsys.readouterr().err
    assert not (tmp_path / "out" / "lqr.json").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "abc", True, None])
@pytest.mark.parametrize("command", ["lqr", "simulate"])
def test_lqr_maxima_non_finite_or_non_numeric_exits_2(tmp_path, capsys, value, command):
    from smctune.fixtures import fixture_path
    raw = json.loads(fixture_path("quanser_lqr_maxima.json").read_text())
    raw["z1_max"] = value
    maxima = tmp_path / "maxima.json"
    maxima.write_text(json.dumps(raw))
    out = tmp_path / "out"
    argv = {"lqr": ["lqr"],
            "simulate": ["simulate", "--quake", "synthetic_quake.csv", "--controller", "lqr",
                         "--t-end", "1"]}[command]
    rc = main(argv + ["--config", "quanser.json", "--maxima", str(maxima), "--out", str(out)])
    assert rc == 2
    assert "z1" in capsys.readouterr().err
    assert not out.exists()


# every object level of the three inputs: (bundled file, path to the object)
UNKNOWN_KEY_CASES = {
    "building-top": ("five_story.json", ()),
    "building-floor": ("five_story.json", ("floors", 2)),
    "building-damping": ("five_story.json", ("damping",)),
    "building-rayleigh": ("five_story.json", ("damping", "rayleigh")),
    "building-atmd": ("five_story.json", ("atmd",)),
    "building-bounds": ("five_story.json", ("bounds",)),
    "tuning-top": ("five_story_tuning.json", ()),
    "tuning-kappa_bars": ("five_story_tuning.json", ("kappa_bars",)),
    "maxima": ("quanser_lqr_maxima.json", ()),
}


def _node(root, path):
    for key in path:
        root = root[key]
    return root


def _run_on_edited(tmp_path, name, edit):
    """Run the command that reads bundled file ``name`` on an edited copy;
    (exit code, output directory, edited file)."""
    raw = json.loads(fixture_path(name).read_text())
    edit(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    argv = {"five_story.json": ["model", "--config", str(path)],
            "five_story_tuning.json": ["tune", "--config", "five_story.json",
                                       "--tuning", str(path)],
            "quanser_lqr_maxima.json": ["lqr", "--config", "quanser.json",
                                        "--maxima", str(path)]}[name]
    out = tmp_path / "out"
    return main(argv + ["--out", str(out)]), out, path


@pytest.mark.parametrize("key", ["coulmb", "participation_facter", "extra"])
@pytest.mark.parametrize("case", sorted(UNKNOWN_KEY_CASES))
def test_unknown_key_at_any_level_exits_2(tmp_path, capsys, case, key):
    # a misspelt optional key would otherwise keep its default and run on
    name, path = UNKNOWN_KEY_CASES[case]
    rc, out, edited = _run_on_edited(tmp_path, name,
                                     lambda raw: _node(raw, path).update({key: 1.0}))
    assert rc == 2
    err = capsys.readouterr().err
    assert f"unknown key '{key}' in {edited}" in err
    assert not out.exists()


@pytest.mark.parametrize("name, marker, repeat", [
    ("quanser_tuning.json", '"zeta_l"', '"zeta_l": 0.6, '),
    ("quanser_tuning.json", '"kappa1"', '"kappa2": 1e-9, '),
    ("five_story.json", '"delta"', '"varpi": 0.0, '),
    ("quanser_lqr_maxima.json", '"z1_max"', '"u_max": 1.0, '),
], ids=["tuning-top", "tuning-kappa_bars", "building-bounds", "maxima-top"])
def test_repeated_key_exits_2(tmp_path, capsys, name, marker, repeat):
    # json.loads alone keeps the last value and drops the first without a word
    text = fixture_path(name).read_text()
    assert text.count(marker) == 1
    edited = tmp_path / name
    edited.write_text(text.replace(marker, repeat + marker))
    argv = {"quanser_tuning.json": ["tune", "--config", "quanser.json", "--tuning"],
            "five_story.json": ["model", "--config"],
            "quanser_lqr_maxima.json": ["lqr", "--config", "quanser.json", "--maxima"]}[name]
    out = tmp_path / "out"
    assert main([*argv, str(edited), "--out", str(out)]) == 2
    key = repeat.split(":")[0].strip('"')
    assert f"{edited}: key {key!r} repeated in one object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw["damping"].update(matrix=[[0.1] * 5] * 5),
     "damping needs exactly one of 'rayleigh' or 'matrix'"),
    (lambda raw: raw.update(damping={}),
     "damping needs exactly one of 'rayleigh' or 'matrix'"),
    (lambda raw: raw.update(label=5), "label must be a string, got 5"),
    (lambda raw: raw.update(label=None), "label must be a string, got None"),
], ids=["both-damping-kinds", "no-damping-kind", "label-number", "label-null"])
def test_building_damping_kind_and_label_checked(tmp_path, capsys, edit, message):
    rc, out, _ = _run_on_edited(tmp_path, "five_story.json", edit)
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_model_overflow_writes_one_stderr_line(tmp_path):
    # numpy's overflow warning must not reach stderr before the error line
    raw = json.loads(fixture_path("quanser.json").read_text())
    raw["damping"] = {"matrix": [[1e154]]}
    config = tmp_path / "building.json"
    config.write_text(json.dumps(raw))
    src = Path(smctune.__file__).resolve().parents[1]
    run = subprocess.run(
        [sys.executable, "-m", "smctune.cli", "model", "--config", str(config),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert run.returncode == 4
    assert run.stderr == "numerical failure: controllability matrix overflows\n"


def test_every_csv_has_lf_line_endings(tmp_path):
    common = ["--config", "quanser.json", "--out", str(tmp_path)]
    sim = ["--quake", "synthetic_quake.csv", "--t-end", "1"]
    for argv in (["tune", "--tuning", "quanser_tuning.json"],
                 ["freq", "--tuning", "quanser_tuning.json"],
                 ["simulate", *sim, "--controller", "passive"],
                 ["compare", *sim, "--tuning", "quanser_tuning.json"]):
        assert main(argv + common) == 0
    written = sorted(path.name for path in tmp_path.glob("*.csv"))
    assert written == ["comparison.csv", "frequency_response.csv", "mesh.csv", "trace.csv"]
    for name in written:
        assert b"\r" not in (tmp_path / name).read_bytes(), name


NOT_UTF8 = b'{"label": "caf\xe9"}'


@pytest.mark.parametrize("role, content", [
    ("tuning", b"5"),
    ("tuning", b"null"),
    ("tuning", NOT_UTF8),
    ("tuning", b"[" * 100_000 + b"]" * 100_000),
    ("building", NOT_UTF8),
    ("maxima", NOT_UTF8),
    ("maxima", None),
    ("quake", None),
    ("quake", b"t,accel\n0.0,0.0\n0.02,1.0\xff\n"),
], ids=["tuning-number", "tuning-null", "tuning-not-utf8", "tuning-nested-too-deep",
        "building-not-utf8", "maxima-not-utf8", "maxima-directory", "quake-directory",
        "quake-not-utf8"])
def test_unreadable_input_file_exits_2(tmp_path, capsys, role, content):
    # no bad file may escape as a traceback; None puts a directory in its place
    path = tmp_path / "input"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    files = {"building": "quanser.json", "tuning": "quanser_tuning.json",
             "maxima": "quanser_lqr_maxima.json", "quake": "synthetic_quake.csv",
             role: str(path)}
    out = tmp_path / "out"
    if role == "tuning":
        argv = ["tune", "--tuning", files["tuning"]]
    elif role == "maxima":
        argv = ["lqr", "--maxima", files["maxima"]]
    else:
        argv = ["simulate", "--quake", files["quake"], "--controller", "passive",
                "--t-end", "0.02"]
    rc = main(argv + ["--config", files["building"], "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# Exit-code contract: one key of a bundled input replaced by a bad or edge
# value, or removed, or one unknown key inserted into one of its objects, and
# the command run on it. The run must return one of the documented codes
# without raising or warning, a number replaced by anything that is not a
# finite number must exit 2, and so must an unknown key.
MISSING = object()
EDGE_VALUES = hst.sampled_from([
    0, 0.0, -1, -1.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, float("inf"), float("-inf"),
    float("nan"), "", "1.0", "abc", True, False, None, [], [1.0], [[0.16]], {}, MISSING])
INPUTS = {  # kind: (bundled file, command line with the file as {})
    "building": ("quanser.json", [
        ["model", "--config", "{}"],
        ["tune", "--config", "{}", "--tuning", "quanser_tuning.json"],
        ["lqr", "--config", "{}", "--maxima", "quanser_lqr_maxima.json"]]),
    "building-five": ("five_story.json", [
        ["model", "--config", "{}"],
        ["tune", "--config", "{}", "--tuning", "five_story_tuning.json"]]),
    "tuning": ("quanser_tuning.json", [
        ["tune", "--config", "quanser.json", "--tuning", "{}"]]),
    "tuning-five": ("five_story_tuning.json", [
        ["tune", "--config", "five_story.json", "--tuning", "{}"]]),
    "maxima": ("quanser_lqr_maxima.json", [
        ["lqr", "--config", "quanser.json", "--maxima", "{}"]]),
}


def _key_paths(node, prefix=()):
    """The path of every dict key and list index in a parsed JSON value."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", sorted(INPUTS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=hst.data())
def test_exit_code_contract_on_one_bad_key(tmp_path, kind, data):
    name, commands = INPUTS[kind]
    raw = json.loads(fixture_path(name).read_text())
    edited = copy.deepcopy(raw)
    if data.draw(hst.booleans(), label="insert an unknown key"):
        objects = [path for path in [(), *_key_paths(raw)] if isinstance(_node(raw, path), dict)]
        path = data.draw(hst.sampled_from(objects), label="object")
        key = "unknown " + data.draw(hst.text(max_size=8), label="key")
        _node(edited, path)[key] = data.draw(hst.floats() | hst.text(), label="value")
        must_fail = True
    else:
        path = data.draw(hst.sampled_from(list(_key_paths(raw))), label="path")
        value = data.draw(EDGE_VALUES | hst.floats(), label="value")
        parent = _node(edited, path[:-1])
        original = parent[path[-1]]
        if value is MISSING:
            parent.pop(path[-1])
        else:
            parent[path[-1]] = value
        must_fail = (value is not MISSING and _is_finite_number(original)
                     and not _is_finite_number(value))
    config = tmp_path / name
    config.write_text(json.dumps(edited))
    for argv in commands:
        rc = main([str(config) if arg == "{}" else arg for arg in argv]
                  + ["--out", str(tmp_path / "out")])
        assert rc in (0, 2, 3, 4), (argv[0], edited)
        if must_fail:
            assert rc == 2, (argv[0], edited)
