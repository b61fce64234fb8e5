"""Record loading, RK4 closed-loop simulation, summaries, reaching behaviour."""
import gc
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import smctune as st
from smctune.errors import ConfigError, NumericalError
from smctune.fixtures import fixture_path
from conftest import control_law, mechanical_energy, reference_rk4, reference_trace_csv


def _write(path, text):
    path.write_text(text)
    return path


def test_load_two_column_record(tmp_path):
    p = _write(tmp_path / "q.csv", "t,accel\n0.0,0.0\n0.02,1.0\n0.04,-2.0\n")
    rec = st.load_accelerogram(p)
    assert rec.dt == 0.001
    assert np.allclose(rec.samples[::20], [0.0, 1.0, -2.0])


def test_load_dt_header_record(tmp_path):
    p = _write(tmp_path / "q.csv", "dt,0.01\n0.0\n0.5\n1.0\n-1.0\n")
    rec = st.load_accelerogram(p)
    assert rec.dt == 0.001
    assert np.allclose(rec.samples[::10], [0.0, 0.5, 1.0, -1.0])


@pytest.mark.parametrize("text", ["dt,0.01\n0.0\n0.5\n1.0\n-1.0\n",
                                  "0.0,0.0\n0.02,1.0\n0.04,-2.0\n"], ids=["dt-header", "two-column"])
def test_load_record_with_a_byte_order_mark(tmp_path, text):
    plain = st.load_accelerogram(_write(tmp_path / "q.csv", text))
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert st.load_accelerogram(tmp_path / "bom.csv").samples.tolist() == plain.samples.tolist()


def test_load_rejects_malformed(tmp_path):
    with pytest.raises(ConfigError):
        st.load_accelerogram(_write(tmp_path / "a.csv", "t,accel\n0.0,1.0\n0.0,xyz\n"))
    with pytest.raises(ConfigError):
        st.load_accelerogram(_write(tmp_path / "b.csv", "t,accel\n"))
    with pytest.raises(ConfigError):  # non-monotone time column
        st.load_accelerogram(_write(tmp_path / "c.csv", "0.0,1.0\n0.2,2.0\n0.1,3.0\n"))
    with pytest.raises(ConfigError):  # ragged rows
        st.load_accelerogram(_write(tmp_path / "d.csv", "0.0,1.0\n0.1,2.0,3.0\n"))
    for row in ("0.01,,0.5", ",0.01,0.5"):  # an empty cell is not dropped
        with pytest.raises(ConfigError, match=r"f\.csv:3: empty cell"):
            st.load_accelerogram(_write(tmp_path / "f.csv", f"t,accel\n0.0,0.0\n{row}\n"))
    rec = st.load_accelerogram(_write(tmp_path / "g.csv", "0.0,0.0,,\n0.01,0.5, \n"))
    assert rec.samples[-1] == 0.5  # trailing empty cells end a row
    for header in ("dt", "dt,0.01,junk", "dt,0.01,0.02"):  # one interval, as a row holds one value
        with pytest.raises(ConfigError, match=r"e\.csv:1: malformed dt header"):
            st.load_accelerogram(_write(tmp_path / "e.csv", header + "\n0.0\n0.5\n"))


def test_malformed_first_row_is_not_taken_for_a_header(tmp_path):
    # line 1 holds column names only when none of its cells reads as a number
    rows = "0.0,0.1x\n0.02,0.2\n0.04,-0.1\n0.06,0.0\n"
    with pytest.raises(ConfigError, match=r"a\.csv:1: non-numeric row"):
        st.load_accelerogram(_write(tmp_path / "a.csv", rows))
    rec = st.load_accelerogram(_write(tmp_path / "b.csv", "t,accel\n" + rows.replace("x", "")))
    assert len(rec.samples) == 61 and rec.samples[0] == 0.1


def test_column_names_may_follow_comment_lines(tmp_path):
    # the column-name rule applies to the first line that is not a comment
    text = "# station X\n\n# units m/s^2\nt,accel\n0.0,0.1\n0.02,0.2\n"
    rec = st.load_accelerogram(_write(tmp_path / "cmt.csv", text))
    assert len(rec.samples) == 21 and rec.samples[0] == 0.1 and rec.samples[-1] == 0.2
    with pytest.raises(ConfigError, match=r"cmt2\.csv:3: non-numeric row"):
        st.load_accelerogram(_write(tmp_path / "cmt2.csv", "# station X\n0.0,0.1\nt,accel\n"))


def test_zero_record_scaling(tmp_path):
    p = _write(tmp_path / "z.csv", "0.0,0.0\n1.0,0.0\n")
    rec = st.load_accelerogram(p, scale=123.0, scale_mode="factor")
    assert np.all(rec.samples == 0.0)
    with pytest.raises(ConfigError):
        st.load_accelerogram(p, scale=0.5, scale_mode="pga")


def test_pga_scaling_exact(tmp_path):
    p = _write(tmp_path / "q.csv", "0.0,1.0\n0.5,-3.417\n1.0,2.0\n")
    rec = st.load_accelerogram(p, scale=0.5, scale_mode="pga")
    assert rec.pga == pytest.approx(0.5, abs=1e-9)


def test_resample_preserves_knots(tmp_path):
    rng = np.random.default_rng(5)
    t = 0.02 * np.arange(51)
    acc = rng.normal(size=51)
    lines = "\n".join(f"{float(ti)!r},{float(ai)!r}" for ti, ai in zip(t, acc))
    p = _write(tmp_path / "q.csv", lines + "\n")
    rec = st.load_accelerogram(p)
    assert rec.dt == 0.001
    # every 20th fine sample lands on an original knot
    assert np.allclose(rec.samples[::20], acc, rtol=0, atol=1e-12)


def test_zero_excitation_stays_at_rest(five_story):
    _, _, plant = five_story
    quake = st.Accelerogram(dt=0.001, samples=np.zeros(2001))
    trace = st.simulate(plant, st.PassiveControl(), quake, 2.0, mu_d=0.35)
    assert np.all(trace.z == 0.0)
    assert np.all(trace.u == 0.0)


def test_time_grid_and_windowing(five_story, quake):
    _, _, plant = five_story
    trace = st.simulate(plant, st.PassiveControl(), quake, 10.0)
    assert len(trace.t) == 10001
    summary = st.summarize(trace, (2.0, 6.0))
    assert summary["n_samples"] == 4001
    with pytest.raises(ConfigError):
        st.summarize(trace, (6.0, 2.0))
    with pytest.raises(ConfigError):
        st.simulate(plant, st.PassiveControl(), quake, 41.0)


@pytest.mark.parametrize("window", [(0.0, float("inf")), (float("-inf"), float("inf")),
                                    (float("nan"), 1.0)])
def test_summarize_rejects_a_non_finite_window(window):
    trace = st.SimulationTrace(t=np.array([0.0, 1.0]), z=np.zeros((2, 4)), u=np.zeros(2),
                               sigma=np.zeros(2), xg=np.zeros(2))
    with pytest.raises(ConfigError, match="window .* bound must be finite"):
        st.summarize(trace, window)


@pytest.mark.parametrize("window", [(1.0,), 1.0, "0,1"])
def test_summarize_rejects_a_window_that_is_not_a_pair(window):
    # each used to leak a bare ValueError or TypeError from the unpacking
    trace = st.SimulationTrace(t=np.array([0.0, 1.0]), z=np.zeros((2, 4)), u=np.zeros(2),
                               sigma=np.zeros(2), xg=np.zeros(2))
    with pytest.raises(ConfigError, match=r"2 numbers \(window lower bound, window upper bound\)"):
        st.summarize(trace, window)


def test_summarize_hand_values():
    t = np.array([0.0, 1.0, 2.0])
    z = np.zeros((3, 4))
    z[:, 1] = [3.0, -4.0, 0.0]
    trace = st.SimulationTrace(t=t, z=z, u=np.full(3, -2.0), sigma=np.zeros(3),
                               xg=np.zeros(3))
    s = st.summarize(trace)
    assert s["z2"]["rms"] == pytest.approx(np.sqrt(25.0 / 3.0))
    assert s["z2"]["peak"] == pytest.approx(4.0)
    assert s["u"]["rms"] == pytest.approx(2.0)
    assert s["u"]["peak"] == pytest.approx(2.0)


def test_linearity_without_friction(five_story, quake):
    # pure state feedback, no friction: doubling the input doubles the output
    _, _, plant = five_story
    gain = np.array([1.0, -5.0, 2.0, 0.5])
    double = st.Accelerogram(dt=quake.dt, samples=2.0 * quake.samples)
    one = st.simulate(plant, st.LqrControl(gain), quake, 10.0, mu_d=0.0)
    two = st.simulate(plant, st.LqrControl(gain), double, 10.0, mu_d=0.0)
    scale = np.max(np.abs(one.z))
    assert np.max(np.abs(two.z - 2.0 * one.z)) <= 1e-9 * scale


def test_step_halving_convergence(five_story, tune_five_jz2, quake):
    setup, _, plant = five_story
    ctrl = st.SmcControl(tune_five_jz2.result.design)
    coarse = st.simulate(plant, ctrl, quake, 30.0, mu_d=setup.atmd.mu_d)
    fine = st.simulate(plant, ctrl, quake, 30.0, mu_d=setup.atmd.mu_d, dt=0.0005)
    rms_c = float(np.sqrt(np.mean(coarse.z[:, 1] ** 2)))
    rms_f = float(np.sqrt(np.mean(fine.z[:, 1] ** 2)))
    assert abs(rms_c - rms_f) / rms_f < 0.005


def test_passive_energy_decays_after_motion_ends(five_story, quake):
    setup, modal, plant = five_story
    trace = st.simulate(plant, st.PassiveControl(), quake, 40.0, mu_d=0.0)
    energy = mechanical_energy(trace, modal, setup.atmd)
    tail = energy[trace.t >= 36.0]  # record is quiet from 35 s on
    assert np.all(np.diff(tail) <= 1e-12 * tail[0])


def test_smc_force_bounded(five_story_runs, tune_five_jz2):
    M0 = tune_five_jz2.result.M0
    assert np.max(np.abs(five_story_runs.smc_jz2.u)) <= M0 + 1e-12


def test_sigma_decays_outside_boundary_layer(five_story, tune_five_jz2):
    # nonzero start, no excitation, no friction: the discrete reaching
    # surrogate sigma * dsigma < 0 must hold strictly outside the layer
    _, _, plant = five_story
    design = tune_five_jz2.result.design
    quiet = st.Accelerogram(dt=0.001, samples=np.zeros(5001))
    trace = st.simulate(plant, st.SmcControl(design), quiet, 5.0, mu_d=0.0,
                        z0=np.array([0.01, 0.005, 0.0, -0.02]))
    report = st.summarize(trace)["reaching"]
    assert report["max_abs_sigma"] > design.epsilon  # the start is outside
    assert report["decay_violations"] == 0
    assert report["fraction_in_layer"] > 0.9  # settles into the layer quickly


def test_reaching_fraction_under_quake(five_story_runs):
    report = st.summarize(five_story_runs.smc_jz2)["reaching"]
    assert report["fraction_in_layer"] > 0.95


def test_reaching_zero_excitation(five_story, tune_five_jz2):
    _, _, plant = five_story
    design = tune_five_jz2.result.design
    quiet = st.Accelerogram(dt=0.001, samples=np.zeros(1001))
    trace = st.simulate(plant, st.SmcControl(design), quiet, 1.0, mu_d=0.0)
    report = st.summarize(trace)["reaching"]
    assert report["fraction_in_layer"] == 1.0
    assert report["n_outside"] == 0


def test_reaching_reads_the_stored_sigma(five_story_runs):
    trace = five_story_runs.smc_jz2
    report = st.summarize(trace)["reaching"]
    assert report["max_abs_sigma"] == np.max(np.abs(trace.sigma))


def test_passive_and_lqr_summaries_hold_no_reaching(five_story, five_story_runs,
                                                    tune_five_jz2, quake):
    # a passive or LQR run stores sigma = 0 and has no boundary layer to report
    _, _, plant = five_story
    lqr = st.simulate(plant, _controller("lqr", plant, tune_five_jz2), quake, 2.0)
    for trace in (five_story_runs.passive, lqr):
        assert trace.relay is None
        assert "reaching" not in st.summarize(trace)


def test_reaching_counts_only_the_window_samples(five_story, tune_five_jz2):
    # from an outside start sigma enters the layer and stays there: a window
    # from the entry on holds no sample outside it, one up to the entry all
    _, _, plant = five_story
    design = tune_five_jz2.result.design
    quiet = st.Accelerogram(dt=0.001, samples=np.zeros(2001))
    trace = st.simulate(plant, st.SmcControl(design), quiet, 2.0, mu_d=0.0,
                        z0=np.array([0.01, 0.005, 0.0, -0.02]))
    outside = np.abs(trace.sigma) > design.epsilon
    entry = int(np.flatnonzero(outside)[-1]) + 1
    assert st.summarize(trace)["reaching"]["n_outside"] == entry > 1
    late = st.summarize(trace, (trace.t[entry], 2.0))
    assert late["reaching"] == {"fraction_in_layer": 1.0, "n_outside": 0,
                                "decay_violations": 0,
                                "max_abs_sigma": np.max(np.abs(trace.sigma[entry:]))}
    early = st.summarize(trace, (0.0, trace.t[entry]))
    assert early["n_samples"] == entry + 1
    assert early["reaching"]["n_outside"] == entry
    assert early["reaching"]["fraction_in_layer"] == 1.0 / (entry + 1)


def test_passive_response_same_order_as_published(five_story_runs):
    # broad order-of-magnitude target; the record scaling is not pinned down
    summary = st.summarize(five_story_runs.passive, (0.0, 30.0))
    assert 2.67e-3 / 3.0 < summary["z2"]["rms"] < 2.67e-3 * 3.0
    assert 9.33e-3 / 3.0 < summary["z2"]["peak"] < 9.33e-3 * 3.0


def test_divergence_aborts(five_story, quake):
    _, _, plant = five_story
    # positive feedback through an unstable gain drives the state to overflow
    ctrl = st.LqrControl(np.array([-1e9, -1e9, -1e9, -1e9]))
    with pytest.raises(NumericalError, match="diverged"):
        st.simulate(plant, ctrl, quake, 30.0)


def test_trace_csv(tmp_path, five_story, quake):
    _, _, plant = five_story
    trace = st.simulate(plant, st.PassiveControl(), quake, 1.0)
    path = tmp_path / "trace.csv"
    st.write_trace_csv(trace, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,z1,z2,z3,z4,u,sigma,xg_dd"
    assert len(lines) == len(trace.t) + 1
    cells = [float(x) for x in lines[-1].split(",")]
    assert cells[0] == pytest.approx(1.0)


def test_bundled_fixture_loads():
    rec = st.load_accelerogram(fixture_path("synthetic_quake.csv"),
                               scale=0.5, scale_mode="pga")
    assert rec.pga == pytest.approx(0.5, abs=1e-12)
    assert rec.dt == 0.001
    assert rec.duration == pytest.approx(40.0)


def test_smc_controller_requires_gain(five_story):
    _, modal, plant = five_story
    design = st.design_sliding_controller(plant, zeta=0.5, omega_n=0.5 * modal.omega0)
    with pytest.raises(ConfigError):
        st.SmcControl(design)


@pytest.mark.parametrize("relay", [{"epsilon": 0.0}, {"epsilon": -0.05}, {"M0": -24.0},
                                   {"M0": float("nan")}, {"epsilon": float("nan")},
                                   {"M0": float("inf")}, {"epsilon": float("inf")},
                                   {"epsilon": "0.05"}])
def test_smc_controller_rejects_bad_relay(tune_five_jz2, relay):
    # each used to reach the kernel: epsilon = 0 raised ZeroDivisionError at
    # step 0, a negative epsilon or M0 ran without error (M0 < 0 pushes the
    # wrong way), and a NaN M0 failed later as a "state diverged" NumericalError;
    # the relay is checked here only, as the kernel applies it unchecked
    design = replace(tune_five_jz2.result.design, **relay)
    with pytest.raises(ConfigError, match="relay"):
        st.SmcControl(design)
    with pytest.raises(ConfigError, match="relay"):
        st.FeedbackLaw(design.eta, (design.M0, design.epsilon))


@pytest.mark.parametrize("relay", [5.0, (1.0, 2.0, 3.0)])
def test_feedback_law_rejects_a_relay_that_is_not_a_pair(relay):
    # each used to leak a bare TypeError or ValueError from the unpacking
    with pytest.raises(ConfigError, match="relay"):
        st.FeedbackLaw((0.0, 0.0, 0.0, 1.0), relay)


def test_feedback_law_built_directly_runs(five_story, tune_five_jz2, quake):
    _, _, plant = five_story
    design = tune_five_jz2.result.design
    direct = st.FeedbackLaw(design.eta.tolist(), (design.M0, design.epsilon), "smc")
    assert direct == st.SmcControl(design)
    trace = st.simulate(plant, direct, quake, 2.0)
    assert trace.label == "smc" and np.any(trace.sigma)
    assert [control_law(direct, z)[1] for z in trace.z] == trace.u.tolist()


def _controller(kind, plant, tuned):
    if kind == "passive":
        return st.PassiveControl()
    if kind == "smc":
        return st.SmcControl(tuned.result.design)
    maxima = st.MaxValues(z1=0.05, z2=0.01, z3=0.32, z4=0.1, u=10.0)
    return st.LqrControl(st.solve_lqr(plant, st.bryson_weights(maxima)).k_gain)


@pytest.mark.parametrize("building", ["five_story", "quanser"])
@pytest.mark.parametrize("kind", ["passive", "smc", "lqr"])
def test_kernel_matches_numpy_reference(request, building, kind):
    setup, _, plant = request.getfixturevalue(building)
    tuned = request.getfixturevalue({"five_story": "tune_five_jz2",
                                     "quanser": "tune_quanser_jz2"}[building])
    controller = _controller(kind, plant, tuned)
    quake = st.load_accelerogram(fixture_path("synthetic_quake.csv"),
                                 scale=plant.bounds.delta, scale_mode="pga")
    mu = setup.atmd.mu_d
    assert mu > 0.0
    trace = st.simulate(plant, controller, quake, 6.0, mu_d=mu)
    oracle = reference_rk4(plant, controller, quake, 6.0, mu_d=mu)
    assert np.any(np.diff(np.sign(oracle.z[:, 2])) != 0)  # the friction switches
    assert np.array_equal(trace.t, oracle.t) and np.array_equal(trace.xg, oracle.xg)
    for new, old in [*zip(trace.z.T, oracle.z.T), (trace.u, oracle.u),
                     (trace.sigma, oracle.sigma)]:
        assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))
    # the kernel applies exactly the controller's law
    law = [control_law(controller, z) for z in trace.z]
    assert [u for _, u in law] == trace.u.tolist()
    if kind == "smc":
        assert [s for s, _ in law] == trace.sigma.tolist()
    else:
        assert not np.any(trace.sigma)


def test_unknown_controller_type_rejected(five_story, tune_five_jz2, quake):
    _, _, plant = five_story

    class Custom:
        label = "custom"

        def force(self, z):
            return 0.0

    for controller in (Custom(), tune_five_jz2.result.design):
        with pytest.raises(ConfigError, match="unknown controller type"):
            st.simulate(plant, controller, quake, 1.0)
    with pytest.raises(ConfigError):
        st.LqrControl(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ConfigError):
        st.LqrControl(np.array([1.0, 2.0, float("nan"), 3.0]))
    with pytest.raises(ConfigError, match="feedback gain entry must be finite"):
        st.FeedbackLaw((10**400, 0.0, 0.0, 0.0))   # too large for a float


@pytest.mark.parametrize("kwargs", [{"dt": float("nan")}, {"dt": float("inf")},
                                    {"t_end": float("nan")}, {"t_end": float("inf")},
                                    {"mu_d": float("nan")}, {"mu_d": float("inf")},
                                    {"dt": "0.001"}, {"z0": [0.0, float("nan"), 0.0, 0.0]},
                                    {"z0": ["1.0", 0.0, 0.0, 0.0]},
                                    {"z0": ["a", "b", "c", "d"]}])
def test_non_finite_simulation_inputs_rejected(five_story, quake, kwargs):
    _, _, plant = five_story
    kwargs = {"t_end": 1.0, **kwargs}
    with pytest.raises(ConfigError):
        st.simulate(plant, st.PassiveControl(), quake, **kwargs)


@pytest.mark.parametrize("dt", [1e-9, 5e-324])
def test_simulate_step_count_is_capped(five_story, quake, refuse_huge_arange, dt):
    # 30 s at 1 ns is 3e10 steps; at the smallest subnormal t_end / dt is inf
    _, _, plant = five_story
    with pytest.raises(ConfigError, match="steps exceeds the limit of 2000000"):
        st.simulate(plant, st.PassiveControl(), quake, 30.0, dt=dt)


def test_run_past_the_record_end_is_refused(quanser):
    # 10 s at 1.5 ms rounds to 6667 steps, to 10.0005 s, where np.interp would
    # hold the record's last sample; the message names the run that fits
    _, _, plant = quanser
    record = st.synthetic_accelerogram(10.0, 0.001)
    message = "to 10.0005 s, past the record's end at 10.0 s; the longest t_end that fits is"
    with pytest.raises(ConfigError, match=re.escape(message)) as refused:
        st.simulate(plant, st.PassiveControl(), record, 10.0, dt=0.0015)
    fit = float(re.search(r"fits is (\S+) s", str(refused.value)).group(1))
    assert st.simulate(plant, st.PassiveControl(), record, fit, dt=0.0015).t[-1] <= 10.0
    assert st.simulate(plant, st.PassiveControl(), record, 10.0).t[-1] == record.duration
    with pytest.raises(ConfigError, match="the longest t_end that fits is 0.0 s"):
        st.simulate(plant, st.PassiveControl(), st.Accelerogram(0.001, np.zeros(2)), 0.001,
                    dt=0.0015)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), "0.01", True])
def test_accelerogram_interval_must_be_a_finite_number(dt):
    with pytest.raises(ConfigError):
        st.Accelerogram(dt=dt, samples=np.zeros(3))


@pytest.mark.parametrize("samples", [np.zeros(0), [], np.zeros((3, 2)), 0.5,
                                     np.array(["0.1", "0.2"]), ["0.1", "0.2"],
                                     [[0.0], [0.0, 1.0]], np.array([True, False]),
                                     np.ones(2, dtype=complex)],
                         ids=["empty", "empty-list", "2-d", "scalar", "strings",
                              "string-list", "ragged", "bool", "complex"])
def test_accelerogram_samples_must_be_a_1d_array_of_numbers(samples):
    # an empty record has no pga, and a 3x2 array would read as a 0.002 s
    # record that np.interp then refuses
    with pytest.raises(ConfigError, match="accelerogram samples"):
        st.Accelerogram(dt=0.001, samples=samples)


def test_accelerogram_keeps_a_float64_record_and_converts_integers():
    samples = np.linspace(0.0, 1.0, 11)
    assert st.Accelerogram(dt=0.001, samples=samples).samples is samples
    record = st.Accelerogram(dt=0.001, samples=[0, 2, -1])
    assert record.samples.dtype == np.float64 and record.pga == 2.0


def test_load_accelerogram_rejects_non_finite_scale():
    with pytest.raises(ConfigError):
        st.load_accelerogram(fixture_path("synthetic_quake.csv"), scale=float("nan"))


def test_trace_csv_matches_per_cell_writer(tmp_path):
    rng = np.random.default_rng(11)
    n = 2 * st.output.CSV_BLOCK_ROWS + 3  # crosses two block boundaries
    columns = rng.normal(scale=10.0, size=(n, 8)) * 10.0 ** rng.integers(-300, 300, size=(n, 8))
    special = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 3.0, -7.0, 1e16, 0.1, 2.5e-8]
    columns[:len(special), :] = np.array(special)[:, None]
    columns[-len(special):, :] = np.array(special)[::-1, None]
    columns[::7, 5] = np.round(columns[::7, 5])  # integers stored as floats
    trace = st.SimulationTrace(t=columns[:, 0], z=columns[:, 1:5], u=columns[:, 5],
                               sigma=columns[:, 6], xg=columns[:, 7])
    st.write_trace_csv(trace, tmp_path / "new.csv")
    reference_trace_csv(trace, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert "-0.0," in (tmp_path / "new.csv").read_text()


@pytest.mark.parametrize("kwargs", [{"duration": 1e6, "dt": 1e-3}, {"duration": float("nan")},
                                    {"dt": 0.0}, {"duration": -1.0}, {"seed": 1.5},
                                    {"seed": "x"}, {"seed": -1}, {"seed": True}, {"seed": None}],
                         ids=["too-long", "nan-duration", "zero-dt", "negative-duration",
                              "float-seed", "string-seed", "negative-seed", "bool-seed",
                              "no-seed"])
def test_synthetic_accelerogram_inputs_rejected(refuse_huge_arange, kwargs):
    # 1e6 s at 1 ms would be 1e9 samples; the record is deterministic, so a
    # seed is a non-negative integer (None would draw fresh entropy)
    with pytest.raises(ConfigError):
        st.synthetic_accelerogram(**kwargs)


@pytest.mark.parametrize("duration, dt", [(0.05, 0.02), (0.06, 0.001)])
def test_synthetic_accelerogram_too_short_for_the_band(duration, dt):
    # every frequency bin lies outside 0.3-12 Hz, so the filtered record is zero
    with pytest.raises(ConfigError, match=f"a {duration:g} s record at {dt:g} s is too short"):
        st.synthetic_accelerogram(duration=duration, dt=dt)


def _series(A, B, dt):
    """Phi = sum_{k<=4} (A dt)^k / k! and Gamma = dt sum_{k<=3} (A dt)^k / (k + 1)! B."""
    powers = [np.linalg.matrix_power(A * dt, k) for k in range(5)]
    phi = sum(p / math.factorial(k) for k, p in enumerate(powers))
    gamma = dt * sum(p / math.factorial(k + 1) for k, p in enumerate(powers[:4])) @ B
    return phi, gamma


@pytest.mark.parametrize("building", ["five_story", "quanser"])
@pytest.mark.parametrize("dt", [1e-3, 0.02])
def test_rk4_map_is_the_truncated_exponential(request, building, dt):
    _, _, plant = request.getfixturevalue(building)
    N, W = st.sim.rk4_map(plant.A, plant.B, plant.D, dt)
    assert N.shape == (4, 11) and W.shape == (3, 11)
    phi, gamma = _series(plant.A, plant.B, dt)
    assert np.max(np.abs(N[:, :4] - phi)) <= 1e-14 * np.max(np.abs(phi))
    assert np.max(np.abs(N[:, 4:8].sum(axis=1) - gamma)) <= 1e-14 * np.max(np.abs(gamma))
    # a stage's z3 depends only on the forces and excitation samples before it
    assert not np.any(W[0, 5:8]) and not np.any(W[0, 9:])
    assert not np.any(W[1, 6:8]) and W[1, 10] == 0.0
    assert W[2, 7] == 0.0 and W[2, 10] == 0.0


def _rk4_map_by_hand(A, B, D, dt):
    """rk4_map on Python floats, one coefficient at a time, in the same order."""
    A, B, D = A.tolist(), B.tolist(), D.tolist()

    def rate(y, f, x):
        k = [[(A[r][0] * y[0][c] + A[r][2] * y[2][c]) + (A[r][1] * y[1][c] + A[r][3] * y[3][c])
              for c in range(11)] for r in range(4)]
        for r in range(4):
            k[r][f] += B[r]
            k[r][x] += D[r]
        return k

    def step(y, h, k):
        return [[y[r][c] + h * k[r][c] for c in range(11)] for r in range(4)]

    y1 = [[1.0 if c == r else 0.0 for c in range(11)] for r in range(4)]
    k1 = rate(y1, 4, 8)
    y2 = step(y1, 0.5 * dt, k1)
    k2 = rate(y2, 5, 9)
    y3 = step(y1, 0.5 * dt, k2)
    k3 = rate(y3, 6, 9)
    y4 = step(y1, dt, k3)
    k4 = rate(y4, 7, 10)
    N = [[y1[r][c] + (dt / 6.0) * (k1[r][c] + 2.0 * (k2[r][c] + k3[r][c]) + k4[r][c])
          for c in range(11)] for r in range(4)]
    return N, [y2[2], y3[2], y4[2]]


@pytest.mark.parametrize("building", ["five_story", "quanser"])
def test_rk4_map_equals_its_scalar_rebuild(request, building):
    _, _, plant = request.getfixturevalue(building)
    for dt in (1e-3, 5e-4, 0.02):
        N, W = st.sim.rk4_map(plant.A, plant.B, plant.D, dt)
        hand_N, hand_W = _rk4_map_by_hand(plant.A, plant.B, plant.D, dt)
        assert N.tolist() == hand_N and W.tolist() == hand_W
    for dt in (0.0, -1e-3, float("nan"), float("inf"), "1e-3"):
        with pytest.raises(ConfigError, match="dt"):
            st.sim.rk4_map(plant.A, plant.B, plant.D, dt)


@pytest.mark.parametrize("building", ["five_story", "quanser"])
def test_simulate_steps_by_the_rk4_map(request, building):
    # one step from a scaled unit vector, no friction and no excitation,
    # gives a column of the map back
    _, _, plant = request.getfixturevalue(building)
    tuned = request.getfixturevalue({"five_story": "tune_five_jz2",
                                     "quanser": "tune_quanser_jz2"}[building])
    dt = 1e-3
    N, _ = st.sim.rk4_map(plant.A, plant.B, plant.D, dt)
    phi, gamma = N[:, :4], N[:, 4:8].sum(axis=1)
    smc = st.SmcControl(tuned.result.design)
    M0, epsilon = smc.relay
    in_layer = phi - (M0 / epsilon) * np.outer(gamma, smc.gain)
    quiet = st.Accelerogram(dt=dt, samples=np.zeros(2))
    scale = 2.0 ** -20  # |sigma| << epsilon: the relay is the linear ramp
    for j in range(4):
        z0 = scale * np.eye(4)[j]
        passive = st.simulate(plant, st.PassiveControl(), quiet, dt, z0=z0)
        assert (passive.z[1] / scale).tolist() == phi[:, j].tolist()
        run = st.simulate(plant, smc, quiet, dt, z0=z0)
        assert abs(run.sigma[0]) < 0.01 * epsilon
        column = run.z[1] / scale
        assert np.max(np.abs(column - in_layer[:, j])) <= 1e-14 * np.max(np.abs(in_layer))
    # a constant ground acceleration from rest gives the sum of the x columns
    steady = st.simulate(plant, st.PassiveControl(),
                         st.Accelerogram(dt=dt, samples=np.full(2, scale)), dt)
    x_sum = N[:, 8:].sum(axis=1)
    assert np.max(np.abs(steady.z[1] / scale - x_sum)) <= 1e-14 * np.max(np.abs(x_sum))


@pytest.mark.parametrize("building", ["five_story", "quanser"])
@pytest.mark.parametrize("z3, one_force", [(0.05, True), (1e-4, False)],
                         ids=["z3-keeps-its-sign", "z3-flips"])
def test_one_step_is_the_rk4_map_with_the_stage_signs(request, building, z3, one_force):
    # one step with friction and a constant ground acceleration is N v, its
    # stage forces taken from the sign of each stage's z3 row
    setup, _, plant = request.getfixturevalue(building)
    tuned = request.getfixturevalue({"five_story": "tune_five_jz2",
                                     "quanser": "tune_quanser_jz2"}[building])
    mu, dt, ground = setup.atmd.mu_d, 1e-3, 0.5
    assert mu > 0.0
    z0 = np.array([2e-4, -1e-4, z3, 3e-4])
    run = st.simulate(plant, st.SmcControl(tuned.result.design),
                      st.Accelerogram(dt=dt, samples=np.full(2, ground)), dt, mu_d=mu, z0=z0)
    N, W = st.sim.rk4_map(plant.A, plant.B, plant.D, dt)
    v = np.concatenate([z0, np.zeros(4), np.full(3, ground)])
    u = run.u[0]
    v[4] = u - mu * np.sign(z3)
    for s, row in enumerate(W):
        c = row @ v
        assert abs(c) > 1e-6   # far from a sign change, so its rounding cannot flip it
        v[5 + s] = u - mu * np.sign(c)
    assert (len(set(v[4:8])) == 1) == one_force
    nv = N @ v
    assert np.max(np.abs(run.z[1] - nv)) <= 1e-14 * np.max(np.abs(nv))


def test_block_boundaries_do_not_show(five_story, tune_five_jz2, quake):
    # a run that ends inside an excitation block is the start of a longer run
    setup, _, plant = five_story
    controller = st.SmcControl(tune_five_jz2.result.design)
    k = 2 * st.sim.STEP_BLOCK + 37
    short = st.simulate(plant, controller, quake, k * 1e-3, mu_d=setup.atmd.mu_d)
    long = st.simulate(plant, controller, quake, 4.0, mu_d=setup.atmd.mu_d)
    assert len(short.t) == k + 1
    for a, b in [(short.z, long.z), (short.u, long.u), (short.sigma, long.sigma),
                 (short.xg, long.xg)]:
        assert a.tolist() == b[:k + 1].tolist()


@pytest.mark.parametrize("building", ["five_story", "quanser"])
def test_unstable_boundary_layer_is_refused(request, building):
    # the default step of synthetic_accelerogram is 20 ms, where the relay's
    # ramp M0/epsilon held over each step makes the in-layer loop unstable
    _, _, plant = request.getfixturevalue(building)
    tuned = request.getfixturevalue({"five_story": "tune_five_jz2",
                                     "quanser": "tune_quanser_jz2"}[building])
    controller = st.SmcControl(tuned.result.design)
    record = st.synthetic_accelerogram()
    with pytest.raises(ConfigError, match="unstable at dt=0.02 s") as info:
        st.simulate(plant, controller, record, 30)
    largest = float(re.search(r"largest stable dt is about (\S+) s", str(info.value)).group(1))
    assert 1e-3 < largest < 0.02
    st.simulate(plant, controller, record, 1.0, dt=0.99 * largest)
    with pytest.raises(ConfigError, match="largest stable dt"):
        st.simulate(plant, controller, record, 1.0, dt=1.01 * largest)


def test_a_run_and_a_record_read_start_no_garbage_collection(tmp_path, quanser, tune_quanser_jz2):
    # a run keeps no container per step and a record read none per row, so
    # neither fills the cyclic collector's youngest generation
    setup, _, plant = quanser
    controller = st.SmcControl(tune_quanser_jz2.result.design)
    record = st.synthetic_accelerogram(duration=40.0)
    path = _write(tmp_path / "record.csv", f"dt,{record.dt!r}\n"   # 2001 lines
                  + "".join(f"{float(v)!r}\n" for v in record.samples[:2000]))
    quake = st.load_accelerogram(fixture_path("synthetic_quake.csv"), scale=3.0, scale_mode="pga")
    calls = {"simulate": lambda: st.simulate(plant, controller, quake, 10.0,
                                             mu_d=setup.atmd.mu_d, dt=1e-3),
             "dt-header record": lambda: st.load_accelerogram(path),
             "bundled record": lambda: st.load_accelerogram(fixture_path("synthetic_quake.csv"))}
    started = []   # the name of the call during which each collection started

    def hook(phase, info):
        if phase == "start":
            started.append(name)

    threshold = gc.get_threshold()
    gc.callbacks.append(hook)
    try:
        gc.set_threshold(700, *threshold[1:])
        for name, call in calls.items():
            gc.collect()
            started.clear()
            call()
    finally:
        gc.callbacks.remove(hook)
        gc.set_threshold(*threshold)
    assert started == []
