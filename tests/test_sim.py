"""Record loading, RK4 closed-loop simulation, summaries, reaching behaviour."""
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


def test_load_rejects_malformed(tmp_path):
    with pytest.raises(ConfigError):
        st.load_accelerogram(_write(tmp_path / "a.csv", "t,accel\n0.0,1.0\n0.0,xyz\n"))
    with pytest.raises(ConfigError):
        st.load_accelerogram(_write(tmp_path / "b.csv", "t,accel\n"))
    with pytest.raises(ConfigError):  # non-monotone time column
        st.load_accelerogram(_write(tmp_path / "c.csv", "0.0,1.0\n0.2,2.0\n0.1,3.0\n"))
    with pytest.raises(ConfigError):  # ragged rows
        st.load_accelerogram(_write(tmp_path / "d.csv", "0.0,1.0\n0.1,2.0,3.0\n"))


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
    report = st.reaching_check(trace, design)
    assert report.max_abs_sigma > design.epsilon  # the start is outside
    assert report.decay_violations == 0
    assert report.fraction_in_layer > 0.9  # settles into the layer quickly


def test_reaching_fraction_under_quake(five_story_runs, tune_five_jz2):
    report = st.reaching_check(five_story_runs.smc_jz2, tune_five_jz2.result.design)
    assert report.fraction_in_layer > 0.95


def test_reaching_zero_excitation(five_story, tune_five_jz2):
    _, _, plant = five_story
    design = tune_five_jz2.result.design
    quiet = st.Accelerogram(dt=0.001, samples=np.zeros(1001))
    trace = st.simulate(plant, st.SmcControl(design), quiet, 1.0, mu_d=0.0)
    report = st.reaching_check(trace, design)
    assert report.fraction_in_layer == 1.0
    assert report.n_outside == 0


def test_reaching_reads_the_stored_sigma(five_story_runs, tune_five_jz2):
    trace = five_story_runs.smc_jz2
    report = st.reaching_check(trace, tune_five_jz2.result.design)
    assert report.max_abs_sigma == np.max(np.abs(trace.sigma))


def test_reaching_rejects_a_trace_without_sigma(five_story_runs, tune_five_jz2):
    # a passive run stores sigma = 0 while the structure moves
    with pytest.raises(ConfigError, match="sliding variable"):
        st.reaching_check(five_story_runs.passive, tune_five_jz2.result.design)


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


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), "0.01", True])
def test_accelerogram_interval_must_be_a_finite_number(dt):
    with pytest.raises(ConfigError):
        st.Accelerogram(dt=dt, samples=np.zeros(3))


def test_load_accelerogram_rejects_non_finite_scale():
    with pytest.raises(ConfigError):
        st.load_accelerogram(fixture_path("synthetic_quake.csv"), scale=float("nan"))


def test_trace_csv_matches_per_cell_writer(tmp_path):
    rng = np.random.default_rng(11)
    n = 2 * st.errors.CSV_BLOCK_ROWS + 3  # crosses two block boundaries
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
                                    {"dt": 0.0}, {"duration": -1.0}],
                         ids=["too-long", "nan-duration", "zero-dt", "negative-duration"])
def test_synthetic_accelerogram_inputs_rejected(refuse_huge_arange, kwargs):
    # 1e6 s at 1 ms would be 1e9 samples
    with pytest.raises(ConfigError):
        st.synthetic_accelerogram(**kwargs)
