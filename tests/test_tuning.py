"""Grid-search tuning: published operating points, regions, and determinism."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

import smctune as st
import smctune.cli
from smctune.errors import ConfigError, InfeasibleTuningError, NumericalError
from smctune.fixtures import fixture_path
from conftest import quad_kappa, scalar_path_mismatches, transfer_of
from test_write_table import _EDGES


def test_five_story_jz2_operating_point(five_story, tune_five_jz2):
    _, _, plant = five_story
    result = tune_five_jz2.result
    assert result.feasible
    best = result.best
    assert best["zeta"] == pytest.approx(0.5, abs=1e-12)
    assert best["omega_ratio"] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(best["eta"], [2.6, -289.2, 0.87, -9.76], rtol=0.02)
    # published 4.0 cm is a coarse-grid figure 5.05% above the exact
    # band RMS (see README), so kappa1 is checked against quadrature instead
    kappa1_quad = quad_kappa(result.design, "1", plant.bounds.delta, result.config.band)
    assert best["kappa1"] == pytest.approx(kappa1_quad, rel=1e-10)
    assert best["kappa2"] == pytest.approx(0.0010, rel=0.05)
    assert best["kappa3"] == pytest.approx(0.338, rel=0.05)
    assert best["kappa_u"] == pytest.approx(5.76, rel=0.05)
    assert result.M0 == pytest.approx(24.13, rel=0.05)
    # pole layout carried on the row
    assert complex(*best["lambda1"]) == pytest.approx(complex(-2.48, -4.29), rel=0.01)
    assert best["lambda3"] == pytest.approx(-7.43, rel=0.01)
    assert best["psi1"] == pytest.approx(-29.64, rel=0.02)
    assert best["psi2"] == pytest.approx(-2.99, rel=0.02)


def test_five_story_ju_operating_point(tune_five_ju):
    result = tune_five_ju.result
    best = result.best
    assert best["zeta"] == pytest.approx(0.5, abs=1e-12)
    assert best["omega_ratio"] == pytest.approx(0.62, abs=0.01 + 1e-12)
    assert result.M0 == pytest.approx(20.35, rel=0.05)


def test_five_story_feasible_region(tune_five_jz2):
    region = st.feasible_region(tune_five_jz2.result)
    step = 0.01 + 1e-12
    assert region["zeta"][0] == pytest.approx(0.50, abs=step)
    assert region["zeta"][1] == pytest.approx(0.58, abs=step)
    assert region["omega_ratio"][0] == pytest.approx(0.50, abs=step)
    assert region["omega_ratio"][1] == pytest.approx(0.78, abs=step)


def test_quanser_feasible_region(tune_quanser_jz2):
    region = st.feasible_region(tune_quanser_jz2.result)
    step = 0.01 + 1e-12
    assert region["zeta"][0] == pytest.approx(0.50, abs=step)
    assert region["zeta"][1] == pytest.approx(0.57, abs=step)
    assert region["omega_ratio"][0] == pytest.approx(0.50, abs=step)
    assert region["omega_ratio"][1] == pytest.approx(0.581, abs=step)


def test_quanser_operating_points(tune_quanser_jz2, tune_quanser_ju):
    jz2 = tune_quanser_jz2.result
    assert jz2.best["zeta"] == pytest.approx(0.5, abs=1e-12)
    assert jz2.best["omega_ratio"] == pytest.approx(0.50, abs=0.01 + 1e-12)
    assert jz2.M0 == pytest.approx(13.52, rel=0.05)
    assert np.allclose(jz2.best["eta"], [1.64, -19.94, 0.49, -0.20], rtol=0.02)

    ju = tune_quanser_ju.result
    assert ju.best["zeta"] == pytest.approx(0.5, abs=1e-12)
    assert ju.best["omega_ratio"] == pytest.approx(0.55, abs=0.01 + 1e-12)
    assert ju.M0 == pytest.approx(12.05, rel=0.05)


def test_unsatisfiable_ceiling_is_infeasible(five_story, five_story_tuning):
    _, modal, plant = five_story
    config = st.load_tuning_config({**five_story_tuning.to_dict(),
                                    "kappa_bars": {"kappa1": 0.20, "kappa2": 1e-9,
                                                   "kappa3": 0.70, "kappa_u": 12.0}})
    result = st.tune(plant, modal, config)
    assert not result.feasible
    assert result.feasible_count == 0
    assert result.message
    assert result.best is None and result.M0 is None
    with pytest.raises(InfeasibleTuningError):
        st.feasible_region(result)


@pytest.mark.parametrize("building, tuned", [("five_story", "tune_five"),
                                             ("quanser", "tune_quanser")])
def test_pick_other_index_equals_its_tune(tmp_path, request, building, tuned):
    # the feasible rows do not depend on the index, so picking the other
    # index of a scan writes the result.json of tuning for it, byte for byte
    _, _, plant = request.getfixturevalue(building)
    results = {index: request.getfixturevalue(f"{tuned}_{index}").result
               for index in ("jz2", "ju")}
    for index, other in (("jz2", "ju"), ("ju", "jz2")):
        st.tuning.pick(plant, results[other], index).to_json(tmp_path / "picked.json")
        results[index].to_json(tmp_path / "tuned.json")
        assert (tmp_path / "picked.json").read_bytes() == (tmp_path / "tuned.json").read_bytes()


def test_degenerate_interval_single_point(five_story, five_story_tuning):
    _, modal, plant = five_story
    config = st.load_tuning_config({**five_story_tuning.to_dict(),
                                    "zeta_u": 0.509, "omega_nu": 0.509})
    result = st.tune(plant, modal, config)
    assert result.feasible_count == 1
    region = st.feasible_region(result)
    assert region["zeta"][0] == region["zeta"][1]
    assert region["omega_ratio"][0] == region["omega_ratio"][1]


def test_mesh_export(tmp_path, tune_five_jz2):
    result = tune_five_jz2.result
    path = tmp_path / "mesh.csv"
    st.export_mesh(result, path)
    lines = path.read_text().strip().splitlines()
    data = [l for l in lines[1:] if not l.startswith("#")]
    assert len(data) == result.feasible_count
    marker = [l for l in lines if l.startswith("# argmin")]
    assert len(marker) == 1
    # displacement-index argmin sits at the lower-left grid corner
    best_cells = marker[0].split(",")[1:3]
    assert float(best_cells[0]) == pytest.approx(0.5)
    assert float(best_cells[1]) == pytest.approx(0.5)


def test_kappa_u_argmin_at_lowest_damping(tune_five_ju):
    best = tune_five_ju.result.best
    assert best["zeta"] == pytest.approx(0.5, abs=1e-12)


def test_argmin_is_exhaustive(tune_five_jz2, tune_five_ju):
    # the winner minimizes its index over every feasible row
    jz2 = tune_five_jz2.result
    assert np.all(jz2.best["kappa2"] <= jz2.kappa[:, 1])
    ju = tune_five_ju.result
    assert np.all(ju.best["kappa_u"] <= ju.kappa[:, 3])


def test_kappa2_monotone_over_feasible_mesh(tune_five_jz2):
    # kappa2 grows along both grid axes wherever neighbours are feasible:
    # exactly along omega_n; along zeta a few far-from-optimal points dip by
    # up to 0.28% (measured), so the zeta direction gets that much slack.
    # The global minimum sits exactly at the lower-left corner either way.
    result = tune_five_jz2.result
    table = {(round(z, 6), round(r, 6)): k2 for z, r, k2 in
             zip(result.designs.zeta.tolist(), result.omega_ratio.tolist(),
                 result.kappa[:, 1].tolist())}
    step = 0.01
    for (z, r), k2 in table.items():
        right = table.get((round(z + step, 6), r))
        up = table.get((z, round(r + step, 6)))
        if up is not None:
            assert up >= k2 * (1 - 1e-12)
        if right is not None:
            assert right >= k2 * (1 - 0.005)
    best = int(np.argmin(result.kappa[:, 1]))
    assert result.designs.zeta[best] == pytest.approx(0.5)
    assert result.omega_ratio[best] == pytest.approx(0.5)


def test_saved_tuples_revalidate_bit_for_bit(five_story, tune_five_jz2):
    _, modal, plant = five_story
    result = tune_five_jz2.result
    config = result.config
    rows = result.rows()
    for t in rows[:: max(1, len(rows) // 25)]:
        design = st.design_sliding_controller(plant, t["zeta"], t["omega_n"],
                                              epsilon=config.epsilon)
        assert np.array_equal(design.eta, t["eta"])
        (psi1,), (psi2,), (defined,) = st.freqresp.zero_rows(design.eta[None])
        assert defined and psi1 == t["psi1"] and psi2 == t["psi2"]
        (kappa,) = st.freqresp.band_table(transfer_of(design), plant.bounds.delta,
                                          config.band)
        assert kappa[0] == t["kappa1"]
        assert kappa[1] == t["kappa2"]
        assert kappa[2] == t["kappa3"]
        assert kappa[3] == t["kappa_u"]


@pytest.mark.parametrize("index, column", [("jz2", 1), ("ju", 3)])
def test_index_tie_breaks_toward_smaller_omega_ratio(quanser, quanser_tuning, monkeypatch,
                                                     index, column):
    # a 2 x 2 grid is scanned (z1, r1), (z1, r2), (z2, r1), (z2, r2); the index
    # ties exactly between (z1, r2) and (z2, r1), and the smaller omega_ratio
    # wins, not the first of the two in scan order
    _, modal, plant = quanser
    config = st.load_tuning_config({**quanser_tuning.to_dict(), "index": index,
                                    "zeta_u": 0.51, "omega_nu": 0.51})
    (z1, z2), (r1, r2) = config.zeta_values(), config.omega_ratios()

    def tied_band_table(batch, delta, band):
        assert len(batch.den) == 4      # every grid point passes the zero screen
        kappa = np.full((4, 4), 1e-6)
        kappa[:, column] = [2e-6, 1e-6, 1e-6, 2e-6]
        return kappa

    monkeypatch.setattr(st.tuning, "band_table", tied_band_table)
    result = st.tune(plant, modal, config)
    assert result.feasible_count == 4
    assert (result.designs.zeta[1], result.omega_ratio[1]) == (z1, r2)
    assert result.best_index == 2
    assert (result.best["zeta"], result.best["omega_ratio"]) == (z2, r1)
    assert result.design.zeta == z2


def test_batched_scan_matches_scalar_path(quanser, tune_quanser_jz2, tune_quanser_ju):
    # the scan is one batched pass; each of its rows must equal the same
    # design computed alone, bit for bit, on both indexes
    _, _, plant = quanser
    for timed in (tune_quanser_jz2, tune_quanser_ju):
        assert timed.result.feasible_count == 80
        assert scalar_path_mismatches(timed.result, plant) == []


def test_result_json_roundtrip(tmp_path, tune_quanser_jz2):
    result = tune_quanser_jz2.result
    path = tmp_path / "result.json"
    result.to_json(path)
    saved = json.loads(path.read_text())
    assert saved["tuples"] == result.rows()
    assert saved == result.to_dict()
    assert saved["design"]["eta"] == result.design.eta.tolist()


def _json_oracle(result: st.TuningResult) -> bytes:
    return (json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("timed", ["tune_five_jz2", "tune_five_ju", "tune_quanser_jz2",
                                   "tune_quanser_ju"])
def test_result_json_is_the_json_dumps_of_to_dict(tmp_path, request, timed):
    result = request.getfixturevalue(timed).result
    result.to_json(tmp_path / "result.json")
    assert (tmp_path / "result.json").read_bytes() == _json_oracle(result)


def test_result_json_bytes_on_the_wide_and_the_infeasible_scan(tmp_path, five_story, quanser,
                                                               five_story_tuning,
                                                               quanser_tuning):
    _, modal, plant = five_story
    wide = st.load_tuning_config({**five_story_tuning.to_dict(), "gamma1": 0.5, "gamma2": 0.5,
                                  "kappa_bars": dict.fromkeys(st.tuning.KAPPA_NAMES, 1e6)})
    result = st.tune(plant, modal, wide)
    assert result.feasible_count == 2026
    result.to_json(tmp_path / "wide.json")
    assert (tmp_path / "wide.json").read_bytes() == _json_oracle(result)

    _, modal, plant = quanser
    bars = {**quanser_tuning.to_dict()["kappa_bars"], "kappa2": 1e-9}
    result = st.tune(plant, modal,
                     st.load_tuning_config({**quanser_tuning.to_dict(), "kappa_bars": bars}))
    assert not result.feasible
    result.to_json(tmp_path / "infeasible.json")
    text = (tmp_path / "infeasible.json").read_bytes()
    assert text == _json_oracle(result)
    assert b'"tuples": []' in text


def test_result_json_refuses_a_non_finite_tuple(tmp_path, tune_quanser_jz2):
    result = tune_quanser_jz2.result
    kappa = result.kappa.copy()
    kappa[7, 2] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        replace(result, kappa=kappa).to_json(tmp_path / "result.json")
    assert not (tmp_path / "result.json").exists()


# floats whose repr takes each of its forms: signed zero, the smallest
# subnormal, exponent notation below 1e-4 and from 1e16, and the largest
# scale; and the finite edges of the shortest-digit kernel, the cells it
# leaves to repr (powers of two, 2^50, 2^-32 neighbours, integers, subnormals)
_EDGE_FLOATS = hst.sampled_from([-0.0, 5e-324, 1e-7, 1e16, 1e300, -1e300])
_FLOATS = (_EDGE_FLOATS | hst.sampled_from([x for x in _EDGES if math.isfinite(x)])
           | hst.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=hst.data())
def test_result_json_bytes_hold_for_any_finite_floats(tmp_path, tune_quanser_jz2, data):
    result = tune_quanser_jz2.result
    m = result.feasible_count
    result = replace(result, kappa=data.draw(hnp.arrays(np.float64, (m, 4), elements=_FLOATS)),
                     omega_ratio=data.draw(hnp.arrays(np.float64, m, elements=_FLOATS)))
    result.to_json(tmp_path / "result.json")
    assert (tmp_path / "result.json").read_bytes() == _json_oracle(result)


def test_grid_values_inclusive(five_story_tuning):
    zetas = five_story_tuning.zeta_values()
    ratios = five_story_tuning.omega_ratios()
    assert len(zetas) == 41 and len(ratios) == 51
    assert zetas[0] == 0.5 and zetas[-1] == pytest.approx(0.9)
    assert ratios[0] == 0.5 and ratios[-1] == pytest.approx(1.0)


def test_tuning_config_validation():
    bars = {"kappa1": 0.2, "kappa2": 0.01, "kappa3": 0.7, "kappa_u": 12.0}
    with pytest.raises(ConfigError):
        st.load_tuning_config({"kappa_bars": bars, "zeta_l": 0.9, "zeta_u": 0.5})
    with pytest.raises(ConfigError):
        st.load_tuning_config({"kappa_bars": bars, "index": "nope"})
    with pytest.raises(ConfigError):
        st.load_tuning_config({"kappa_bars": bars, "bogus_key": 1.0})
    with pytest.raises(ConfigError):
        st.load_tuning_config({"kappa_bars": {"kappa1": -1.0, "kappa2": 0.01,
                                              "kappa3": 0.7, "kappa_u": 12.0}})


def _quanser_tuning(**changes) -> dict:
    raw = json.loads(fixture_path("quanser_tuning.json").read_text())
    return {**raw, **changes}


@pytest.mark.parametrize("name", ["kappa1", "kappa2", "kappa3", "kappa_u"])
def test_nan_kappa_ceiling_rejected_at_load(name):
    # k > nan is False, so a NaN ceiling would silently switch its
    # constraint off (124 "feasible" Quanser points instead of 80 for kappa2)
    raw = _quanser_tuning()
    bars = {**raw["kappa_bars"], name: float("nan")}
    with pytest.raises(ConfigError, match=name):
        st.load_tuning_config({**raw, "kappa_bars": bars})
    with pytest.raises(ConfigError):
        st.KappaBounds(**{**bars, name: float("inf")})


def test_reversed_band_rejected_at_load():
    with pytest.raises(ConfigError, match="band"):
        st.load_tuning_config(_quanser_tuning(band=[40.0 * np.pi, 2.0 * np.pi]))
    with pytest.raises(ConfigError, match="band"):
        st.load_tuning_config(_quanser_tuning(band=[2.0 * np.pi, float("nan")]))


def test_negative_band_edge_rejected_and_zero_accepted(quanser):
    # |H| is even in omega, so a band from -50 rad/s would count [0, 50] twice
    # in kappa, and chi would look for the force peak only above 50 rad/s
    hi = 40.0 * np.pi
    with pytest.raises(ConfigError, match="0 <= lower"):
        st.load_tuning_config(_quanser_tuning(band=[-50.0, hi]))
    with pytest.raises(ConfigError, match="0 <= lower"):
        st.frequency_grid((-50.0, hi))
    _, modal, plant = quanser
    bars = dict.fromkeys(st.tuning.KAPPA_NAMES, 1e6)
    result = st.tune(plant, modal, st.load_tuning_config(_quanser_tuning(band=[0.0, hi],
                                                                         kappa_bars=bars)))
    assert result.config.band == (0.0, hi)
    # chi is the exact peak of |H_u| over [0, hi], so a fine grid comes just under it
    winner = st.freqresp.transfer_batch(result.designs.take([result.best_index]))
    grid = st.frequency_grid((0.0, hi), 20001)
    peak = np.sqrt(st.freqresp._band_squares(winner, plant.bounds.delta, grid)[:, 3].max())
    assert peak <= result.chi * (1 + 1e-12) and result.chi <= peak * (1 + 1e-6)


@pytest.mark.parametrize("n_samples", [1, 0, -5, 2.5, 10**9])
def test_bad_sample_count_rejected_at_load(n_samples):
    with pytest.raises(ConfigError, match="n_samples"):
        st.load_tuning_config(_quanser_tuning(n_samples=n_samples))


@pytest.mark.parametrize("zeta_u", [1.0, 1.2])
def test_zeta_range_reaching_one_rejected_at_load(zeta_u):
    with pytest.raises(ConfigError, match="zeta"):
        st.load_tuning_config(_quanser_tuning(zeta_u=zeta_u))


@pytest.mark.parametrize("key, value", [("zeta_l", "0.5"), ("gamma1", float("nan")),
                                        ("delta_omega", float("inf")), ("epsilon", True)])
def test_non_finite_or_non_numeric_fields_rejected_at_load(key, value):
    with pytest.raises(ConfigError, match=key):
        st.load_tuning_config(_quanser_tuning(**{key: value}))


def test_grid_above_cap_rejected_before_any_scan(tmp_path, monkeypatch):
    # delta_zeta = 1e-12 would be about 4e11 grid points; the config must
    # fail on the two axis counts alone, before the CLI starts a scan
    with pytest.raises(ConfigError, match="grid"):
        st.load_tuning_config(_quanser_tuning(delta_zeta=1e-12))
    assert 41 * 51 <= st.tuning.MAX_GRID_POINTS
    scans = []
    monkeypatch.setattr(smctune.cli, "tune", lambda *args, **kw: scans.append(args))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_quanser_tuning(delta_zeta=1e-12)))
    rc = smctune.cli.main(["tune", "--config", "quanser.json", "--tuning", str(path),
                           "--out", str(tmp_path / "out")])
    assert rc == 2 and scans == []


def test_design_check_rejections_reach_the_scan(quanser, quanser_tuning, monkeypatch):
    # the batched scan applies the per-design checks to every zero-screen
    # survivor: with a pole-placement tolerance no spectrum can meet, the
    # single-design path raises and the scan finds nothing feasible
    _, modal, plant = quanser
    monkeypatch.setattr(st.smc, "POLE_PLACEMENT_TOL", -1.0)
    with pytest.raises(st.NumericalError, match="pole placement"):
        st.design_sliding_controller(plant, 0.5, 0.5 * modal.omega0)
    result = st.tune(plant, modal, quanser_tuning)
    assert not result.feasible and result.feasible_count == 0


def test_empty_zero_screen_is_infeasible(quanser, quanser_tuning):
    _, modal, plant = quanser
    config = st.load_tuning_config({**quanser_tuning.to_dict(), "gamma1": 1e9})
    result = st.tune(plant, modal, config)
    assert not result.feasible and result.message


def test_pick_on_an_empty_scan_is_infeasible(quanser, quanser_tuning):
    _, modal, plant = quanser
    config = st.load_tuning_config({**quanser_tuning.to_dict(), "gamma1": 1e9})
    result = st.tune(plant, modal, config)
    with pytest.raises(InfeasibleTuningError, match="no feasible sliding design"):
        st.tuning.pick(plant, result, "ju")
