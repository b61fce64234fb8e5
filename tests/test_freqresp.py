"""Transfer-function realization, band metrics, and their cross-oracles."""
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import smctune as st
from smctune.errors import ConfigError, NumericalError
from smctune.freqresp import TransferBatch, band_peak, band_table, zero_rows
from conftest import (make_random_poles, quad_kappa, rational_response,
                      resolvent_response, transfer_of)


@pytest.fixture(scope="module")
def table1_design(five_story):
    _, modal, plant = five_story
    return st.design_sliding_controller(plant, zeta=0.5, omega_n=0.5 * modal.omega0)


#: the constant responses of channels 1, 2, 3, u in ``_constant_batch``,
#: distinct so that a transposed or shifted channel axis shows
_CONSTANTS = np.array([3.5, -2.0, 1.25, -12.4])


def _constant_batch() -> TransferBatch:
    """A stack of one whose channels are the constants ``_CONSTANTS``: a
    denominator of degree zero, so no roots."""
    return TransferBatch(den=np.ones((1, 1)), roots=np.zeros((1, 0), dtype=complex),
                         nums=_CONSTANTS.reshape(1, 4, 1), gains=np.ones((1, 4)))


def test_zeros_five_story(table1_design):
    psi1, psi2, _ = zero_rows(table1_design.eta[None])
    assert psi1[0] == pytest.approx(-29.64, rel=0.02)
    assert psi2[0] == pytest.approx(-2.99, rel=0.02)


def test_g3_numerator_is_s_times_g1(table1_design):
    batch = transfer_of(table1_design)
    # s (s - psi1) is s - psi1 shifted up one power
    assert np.array_equal(batch.nums[0, 2], np.append(batch.nums[0, 0, 1:], 0.0))
    assert batch.gains[0, 2] == batch.gains[0, 0]
    s = 1j * 7.3
    assert rational_response(batch, "3", s) == pytest.approx(
        s * rational_response(batch, "1", s), rel=1e-12)


def test_state_space_cross_oracle(table1_design):
    # rational closed forms against direct resolvent solves on random frequencies
    design = table1_design
    batch = transfer_of(design)
    rng = np.random.default_rng(3)
    omega = rng.uniform(0.5, 150.0, size=50)
    for channel in ("1", "2", "3"):
        expected = resolvent_response(design, channel, omega)
        got = rational_response(batch, channel, 1j * omega)
        assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-8
    expected_u = resolvent_response(design, "u", omega)
    got_u = rational_response(batch, "u", 1j * omega)
    assert np.max(np.abs(got_u - expected_u) / np.abs(expected_u)) < 1e-8


def test_state_space_cross_oracle_random_designs():
    # g1/g2/g3 closed forms assume the coupled damper plant (B1 = [0,0,a2]),
    # so randomize over physical parameter draws rather than raw matrices
    rng = np.random.default_rng(17)
    omega = rng.uniform(0.5, 80.0, size=30)
    checked = 0
    while checked < 10:
        m0 = rng.uniform(1.0, 50.0)
        k0 = rng.uniform(50.0, 5e3)
        modal = st.ModalModel(phi0=np.array([1.0]), m0=m0, c0=rng.uniform(0.0, 10.0),
                              k0=k0, beta0=rng.uniform(0.8, 1.4),
                              omega0=float(np.sqrt(k0 / m0)))
        atmd = st.AtmdParams(m_d=rng.uniform(0.1, 5.0), k_d=rng.uniform(0.0, 300.0),
                             c_d=rng.uniform(0.1, 10.0))
        try:
            plant = st.assemble_plant(modal, atmd, st.ExcitationBounds(1.0, 0.0))
            poles = make_random_poles(rng)
            design = st.design_sliding_controller(plant, **poles)
        except NumericalError:
            continue
        if not zero_rows(design.eta[None])[2][0]:  # transfer zeros undefined
            continue
        checked += 1
        batch = transfer_of(design)
        for channel in "123":
            expected = resolvent_response(design, channel, omega)
            got = rational_response(batch, channel, 1j * omega)
            assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-8
        expected_u = resolvent_response(design, "u", omega)
        got_u = rational_response(batch, "u", 1j * omega)
        assert np.max(np.abs(got_u - expected_u) / np.abs(expected_u)) < 1e-8
        # exact band RMS against quadrature of the state-space resolvent
        (kappa,) = band_table(batch, 1.0)
        for c, channel in enumerate("123u"):
            oracle = quad_kappa(design, channel, 1.0)
            assert kappa[c] == pytest.approx(oracle, rel=1e-10)


def test_denominator_roots(table1_design):
    # the four channels share this one denominator row
    den = transfer_of(table1_design).den[0]
    d = table1_design
    wanted = np.sort_complex(np.array([*st.smc.dominant_pair(d.zeta, d.omega_n), d.lambda3]))
    roots = np.sort_complex(np.roots(den))
    assert np.linalg.norm(roots - wanted) < 1e-8 * np.linalg.norm(wanted)


def test_dc_gains(table1_design):
    d = table1_design
    batch = transfer_of(d)
    psi1, _, _ = zero_rows(d.eta[None])
    expected_g1 = d.alpha2 * (-psi1[0]) / ((-d.lambda3) * d.omega_n ** 2)
    assert rational_response(batch, "1", 0.0) == pytest.approx(expected_g1, rel=1e-12)
    assert rational_response(batch, "3", 0.0) == 0.0


def test_band_rms_constant_response():
    # each figure comes back in channel order 1, 2, 3, u
    for band in (st.DEFAULT_BAND, (0.5, 0.75), (1.0, 1e4)):
        (kappa,) = band_table(_constant_batch(), 0.5, band)
        assert kappa == pytest.approx(0.5 * np.abs(_CONSTANTS), rel=1e-12)
        (squares,) = st.freqresp._band_squares(_constant_batch(), 0.5, np.linspace(*band, 3))
        assert squares == pytest.approx(np.square(0.5 * _CONSTANTS)[:, None] * np.ones(3),
                                        rel=1e-12)


def test_band_rms_five_story_kappas(table1_design, five_story):
    _, _, plant = five_story
    delta = plant.bounds.delta
    (kappa,) = band_table(transfer_of(table1_design), delta)
    for c, channel in enumerate("123u"):
        oracle = quad_kappa(table1_design, channel, delta)
        assert kappa[c] == pytest.approx(oracle, rel=1e-10)
    # published: 4.0 cm, 1.0 mm, 33.8 cm/s, 5.76 N. The exact kappa1 is
    # 3.798 cm, 5.05% under its printed value (a coarse-grid figure, see
    # README), so kappa1 is held to the quadrature above and not to 4.0 cm
    assert kappa[1] == pytest.approx(0.0010, rel=0.05)
    assert kappa[2] == pytest.approx(0.338, rel=0.05)
    assert kappa[3] == pytest.approx(5.76, rel=0.05)


@pytest.mark.parametrize("building, jz2, ju", [("five_story", "tune_five_jz2", "tune_five_ju"),
                                               ("quanser", "tune_quanser_jz2", "tune_quanser_ju")])
def test_kappa_matches_quadrature_on_scans(request, building, jz2, ju):
    # every 10th feasible row of the jz2 scan, plus the jz2 and ju winners,
    # against adaptive quadrature of the state-space resolvent
    _, _, plant = request.getfixturevalue(building)
    result, other = (request.getfixturevalue(name).result for name in (jz2, ju))
    cases = [(result, i) for i in range(0, result.feasible_count, 10)]
    cases += [(result, result.best_index), (other, other.best_index)]
    for res, i in cases:
        design = res.designs.design(i, res.config.epsilon)
        for c, channel in enumerate("123u"):
            oracle = quad_kappa(design, channel, plant.bounds.delta, res.config.band)
            assert res.kappa[i, c] == pytest.approx(oracle, rel=1e-10), (i, channel)


def test_kappa_matches_quadrature_at_low_and_critical_damping(five_story):
    # resonant designs, the dominant pair lightly damped with omega_n inside
    # the band (1-20 Hz), where a uniform grid rule is least accurate; and
    # zeta = 0.9999, where lambda1 and lambda2 nearly coincide and the
    # residues nearly cancel
    _, _, plant = five_story
    points = [(zeta, 2.0 * np.pi * hz) for zeta in (0.02, 0.05, 0.1, 0.2, 0.3)
              for hz in (1.5, 5.0, 12.0)] + [(0.9999, 2.0 * np.pi * 5.0)]
    for zeta, omega_n in points:
        design = st.design_sliding_controller(plant, zeta=zeta, omega_n=omega_n)
        (kappa,) = band_table(transfer_of(design), 1.0)
        for c, channel in enumerate("123u"):
            oracle = quad_kappa(design, channel, 1.0)
            assert kappa[c] == pytest.approx(oracle, rel=1e-10), (zeta, omega_n, channel)


def test_band_peak_dominates_grid_peak(quanser, tune_quanser_jz2):
    # over every feasible Quanser row: where the exact peak is a band edge,
    # chi equals the peak of the 2000-sample plotted grid bit for bit;
    # elsewhere it lies above every grid sample (18 of the 80 rows; two of
    # them peak between the first two samples)
    _, _, plant = quanser
    delta = plant.bounds.delta
    batch = st.freqresp.transfer_batch(tune_quanser_jz2.result.designs)
    chi = band_peak(batch, delta)
    squares = st.freqresp._band_squares(batch, delta, st.frequency_grid())[:, 3]
    grid_peak = np.sqrt(squares.max(axis=1))
    at_edge = chi == np.sqrt(np.maximum(squares[:, 0], squares[:, -1]))
    assert np.array_equal(chi[at_edge], grid_peak[at_edge])
    assert np.all(chi[~at_edge] > grid_peak[~at_edge])
    assert at_edge.sum() == 62


def test_band_rms_grid_convergence(five_story, five_story_tuning):
    # kappa is integrated exactly, so the config's n_samples (only the
    # plotted grid of `smctune freq`) cannot move it: doubling the grid
    # passes criterion 8b's 0.1% bound by construction. The winner is this
    # module's table1_design (zeta 0.5, omega_n 0.5 omega0)
    _, modal, plant = five_story
    results = (st.tune(plant, modal, st.load_tuning_config(
        {**five_story_tuning.to_dict(), "n_samples": n})) for n in (2000, 4000))
    coarse, fine = (result.kappa[result.best_index] for result in results)
    for c in range(4):
        assert abs(coarse[c] - fine[c]) / fine[c] < 1e-3


def test_band_rms_delta_linearity(table1_design):
    batch = transfer_of(table1_design)
    (one,) = band_table(batch, 0.25)
    (two,) = band_table(batch, 0.5)
    assert two[1] == pytest.approx(2.0 * one[1], rel=1e-12)


def test_band_peak_flat_feedthrough():
    (chi,) = band_peak(_constant_batch(), 0.5)
    assert chi == pytest.approx(0.5 * 12.4, rel=1e-12)


def test_band_peak_five_story_chi(table1_design, five_story):
    # chi recovered from the printed switching gain: M0 - varpi - varsigma
    _, _, plant = five_story
    (chi,) = band_peak(transfer_of(table1_design), plant.bounds.delta)
    assert chi == pytest.approx(24.13 - 0.5 - 0.5, rel=0.05)


def test_band_peak_against_local_refinement(table1_design, five_story):
    # bounded Brent polish around the best grid point, with the band edges as
    # candidates too: the published design peaks at the lower edge, a lightly
    # damped one (zeta 0.1, omega_n at 5 Hz) inside the band
    _, _, plant = five_story
    delta = plant.bounds.delta
    omega = st.frequency_grid()
    resonant = st.design_sliding_controller(plant, zeta=0.1, omega_n=10.0 * np.pi)
    for design, interior in ((table1_design, False), (resonant, True)):
        batch = transfer_of(design)

        def magnitude(w):
            return delta * np.abs(rational_response(batch, "u", 1j * np.asarray(w)))

        grid = magnitude(omega)
        i = int(np.argmax(grid))
        assert (0 < i < len(omega) - 1) == interior
        bounds = (omega[max(0, i - 1)], omega[min(len(omega) - 1, i + 1)])
        refined = minimize_scalar(lambda w: -float(magnitude(w)), bounds=bounds,
                                  method="bounded", options={"xatol": 1e-10})
        chi_refined = max(-refined.fun, grid[0], grid[-1])
        (chi,) = band_peak(batch, delta)
        assert abs(chi - chi_refined) / chi_refined < 1e-9


def test_chi_dominates_kappa_u_on_shared_grid(table1_design, five_story):
    # the force response peaks at the lower band edge, so the exact chi is
    # the first sample of the plotted |H_u|^2 row bit for bit; the exact
    # kappa_u, a band mean, lies under it and matches the trapezoid mean of
    # the same samples to the 2000-sample rule's error
    _, _, plant = five_story
    delta = plant.bounds.delta
    batch = transfer_of(table1_design)
    (kappa,), (chi,) = band_table(batch, delta), band_peak(batch, delta)
    assert chi >= kappa[3]
    omega = st.frequency_grid()
    (squares_u,) = st.freqresp._band_squares(batch, delta, omega)[:, 3]
    assert np.argmax(squares_u) == 0
    assert chi == np.sqrt(squares_u.max())
    trapezoid = np.sqrt(np.trapezoid(squares_u, omega) / (omega[-1] - omega[0]))
    assert trapezoid == pytest.approx(kappa[3], rel=1e-4)


def test_degenerate_eta_reports_infeasible(tmp_path, table1_design):
    degenerate = np.array([[1.0, 2.0, 3.0, 0.0], [1.0, 2.0, 0.0, 4.0]])
    assert not zero_rows(degenerate)[2].any()
    for eta in degenerate:
        with pytest.raises(NumericalError, match="zeros are undefined"):
            st.dump_frequency_response(replace(table1_design, eta=eta), 1.0,
                                       tmp_path / "freq.csv")
    assert not (tmp_path / "freq.csv").exists()


def test_band_validation(tmp_path, table1_design):
    # every public entry checks its own band, grid size and delta: a NaN or
    # inf delta would give a NaN or inf kappa and chi, an inf edge a NaN
    batch = _constant_batch()
    deltas = (0.0, float("nan"), float("inf"), "1.0")
    bands = ((10.0, 1.0), (1.0, float("inf")), (float("-inf"), 1.0), (float("nan"), 1.0),
             (1.0,), (1.0, 2.0, 3.0), 5.0, ("1", "2"))
    sample_counts = (1, 2.7, float("nan"), st.freqresp.MAX_SAMPLES + 1, "64", True)
    for metric in (band_table, band_peak):
        for delta in deltas:
            with pytest.raises(ConfigError, match="delta"):
                metric(batch, delta=delta)
        for band in bands:
            with pytest.raises(ConfigError, match="band"):
                metric(batch, delta=1.0, band=band)
    for band in bands:
        with pytest.raises(ConfigError, match="band"):
            st.frequency_grid(band)
    for n_samples in sample_counts:
        with pytest.raises(ConfigError, match="n_samples"):
            st.frequency_grid(n_samples=n_samples)
    path = tmp_path / "freq.csv"
    for key, values in (("delta", deltas), ("band", bands), ("n_samples", sample_counts)):
        for value in values:
            with pytest.raises(ConfigError, match=key):
                st.dump_frequency_response(table1_design, **{"delta": 1.0, key: value},
                                           path=path)
    assert not path.exists()
    assert len(st.frequency_grid(n_samples=st.freqresp.MAX_SAMPLES)) == st.freqresp.MAX_SAMPLES


def test_frequency_dump(tmp_path, table1_design, five_story):
    _, _, plant = five_story
    path = tmp_path / "freq.csv"
    st.dump_frequency_response(table1_design, plant.bounds.delta, path, n_samples=64)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "omega_rad_s,H1,H2,H3,Hu"
    assert len(lines) == 65
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == pytest.approx(2 * np.pi)
    gu = rational_response(transfer_of(table1_design), "u", 2j * np.pi)
    assert first[4] == pytest.approx(plant.bounds.delta * abs(gu), rel=1e-12)
