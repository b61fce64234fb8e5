"""Command-line behaviour: files, exit codes, reproducibility."""
import json

import numpy as np
import pytest

from smctune.cli import main


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


def test_lqr_command(tmp_path):
    rc = main(["lqr", "--config", "quanser.json", "--maxima", "quanser_lqr_maxima.json",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "lqr.json").read_text())
    assert np.allclose(payload["k_gain"], [200.0, -1276.5, 49.0, 17.32], rtol=0.005)
    assert payload["riccati_residual"] < 1e-8
    assert payload["equivalent"]["zeta"] == pytest.approx(0.46, rel=0.02)


def test_freq_command(tmp_path):
    rc = main(["freq", "--config", "quanser.json", "--tuning", "quanser_tuning.json",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "frequency_response.csv").read_text().splitlines()
    assert lines[0] == "omega_rad_s,H1,H2,H3,Hu"
    assert len(lines) == 2001
    design = json.loads((tmp_path / "design.json").read_text())
    assert design["M0"] == pytest.approx(13.52, rel=0.05)


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
