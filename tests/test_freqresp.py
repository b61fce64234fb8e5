"""Transfer-function realization, band metrics, and their cross-oracles."""
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import smctune as st
from smctune.errors import ConfigError, InfeasibleDesignError
from conftest import make_random_poles, quad_band_rms, resolvent_response


@pytest.fixture(scope="module")
def table1_design(five_story):
    _, modal, plant = five_story
    return st.design_sliding_controller(plant, st.PoleSpec(zeta=0.5, omega_n=0.5 * modal.omega0))


def test_zeros_five_story(table1_design):
    tfs = st.build_transfer_functions(table1_design)
    assert tfs.psi1 == pytest.approx(-29.64, rel=0.02)
    assert tfs.psi2 == pytest.approx(-2.99, rel=0.02)


def test_g3_numerator_is_s_times_g1(table1_design):
    tfs = st.build_transfer_functions(table1_design)
    assert np.allclose(tfs.g3.num, np.polymul(tfs.g1.num, [1.0, 0.0]))
    assert tfs.g3.gain == tfs.g1.gain
    s = 1j * 7.3
    assert tfs.g3(s) == pytest.approx(s * tfs.g1(s), rel=1e-12)


def test_state_space_cross_oracle(table1_design):
    # rational closed forms against direct resolvent solves on random frequencies
    design = table1_design
    tfs = st.build_transfer_functions(design)
    rng = np.random.default_rng(3)
    omega = rng.uniform(0.5, 150.0, size=50)
    for channel in ("1", "2", "3"):
        expected = resolvent_response(design, channel, omega)
        got = getattr(tfs, f"g{channel}")(1j * omega)
        assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-8
    expected_u = resolvent_response(design, "u", omega)
    got_u = tfs.gu(1j * omega)
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
            design = st.design_sliding_controller(plant, poles)
            tfs = st.build_transfer_functions(design)
        except (InfeasibleDesignError, st.NumericalError):
            continue
        checked += 1
        for tf, channel in zip((tfs.g1, tfs.g2, tfs.g3), "123"):
            expected = resolvent_response(design, channel, omega)
            got = tf(1j * omega)
            assert np.max(np.abs(got - expected) / np.abs(expected)) < 1e-8
        expected_u = resolvent_response(design, "u", omega)
        got_u = tfs.gu(1j * omega)
        assert np.max(np.abs(got_u - expected_u) / np.abs(expected_u)) < 1e-8
        # band RMS against quadrature: the trapezoid error on these draws is
        # at most 1.0e-4 (light damping near the band edge), an O(1/n)
        # endpoint bias would reach 1.2%
        for channel, tf in tfs.as_dict().items():
            oracle = quad_band_rms(design, channel, 1.0)
            assert st.band_rms(tf, 1.0) == pytest.approx(oracle, rel=1e-3)


def test_denominator_roots(table1_design):
    tfs = st.build_transfer_functions(table1_design)
    wanted = np.sort_complex(np.array(table1_design.poles.sliding_poles()))
    for tf in (tfs.g1, tfs.g2, tfs.g3, tfs.gu):
        roots = np.sort_complex(tf.poles())
        assert np.linalg.norm(roots - wanted) < 1e-8 * np.linalg.norm(wanted)


def test_dc_gains(table1_design):
    tfs = st.build_transfer_functions(table1_design)
    p = table1_design.poles
    expected_g1 = table1_design.alpha2 * (-tfs.psi1) / ((-p.lambda3) * p.omega_n ** 2)
    assert tfs.g1(0.0) == pytest.approx(expected_g1, rel=1e-12)
    assert tfs.g3(0.0) == 0.0


def test_band_rms_constant_response():
    tf = st.RationalTf(num=np.array([3.5]), den=np.array([1.0]))
    for n in (2, 50, 999):
        assert st.band_rms(tf, 0.5, n_samples=n) == pytest.approx(0.5 * 3.5, rel=1e-12)


def test_band_rms_five_story_kappas(table1_design, five_story):
    _, _, plant = five_story
    tfs = st.build_transfer_functions(table1_design)
    delta = plant.bounds.delta
    for channel, tf in tfs.as_dict().items():
        oracle = quad_band_rms(table1_design, channel, delta)
        assert st.band_rms(tf, delta) == pytest.approx(oracle, rel=1e-4)
    # published: 4.0 cm, 1.0 mm, 33.8 cm/s, 5.76 N. The converged kappa1 is
    # 3.798 cm, 5.05% under its printed value (a coarse-grid figure, see
    # README), so kappa1 is held to the quadrature above and not to 4.0 cm
    assert st.band_rms(tfs.g2, delta) == pytest.approx(0.0010, rel=0.05)
    assert st.band_rms(tfs.g3, delta) == pytest.approx(0.338, rel=0.05)
    assert st.band_rms(tfs.gu, delta) == pytest.approx(5.76, rel=0.05)


def test_band_rms_grid_convergence(table1_design):
    # the trapezoid band mean converges as O(1/n^2) although the response
    # peaks at the lower band edge: doubling the grid moves kappa by at most
    # 4.9e-5 on this design, held to criterion 8b's 0.1% bound
    tfs = st.build_transfer_functions(table1_design)
    for tf in (tfs.g1, tfs.g2, tfs.g3, tfs.gu):
        coarse = st.band_rms(tf, 0.5, n_samples=2000)
        fine = st.band_rms(tf, 0.5, n_samples=4000)
        assert abs(coarse - fine) / fine < 1e-3


def test_band_rms_delta_linearity(table1_design):
    tfs = st.build_transfer_functions(table1_design)
    one = st.band_rms(tfs.g2, 0.25)
    two = st.band_rms(tfs.g2, 0.5)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_band_peak_flat_feedthrough():
    tf = st.RationalTf(num=np.array([-12.4]), den=np.array([1.0]))
    assert st.band_peak(tf, 0.5) == pytest.approx(0.5 * 12.4, rel=1e-12)


def test_band_peak_five_story_chi(table1_design, five_story):
    # chi recovered from the printed switching gain: M0 - varpi - varsigma
    _, _, plant = five_story
    tfs = st.build_transfer_functions(table1_design)
    chi = st.band_peak(tfs.gu, plant.bounds.delta)
    assert chi == pytest.approx(24.13 - 0.5 - 0.5, rel=0.05)


def test_band_peak_against_local_refinement(table1_design, five_story):
    # golden-section style polish around the best grid point
    _, _, plant = five_story
    tfs = st.build_transfer_functions(table1_design)
    delta = plant.bounds.delta
    omega = st.frequency_grid()
    mags = delta * tfs.gu.magnitude(omega)
    i = int(np.argmax(mags))
    lo = omega[max(0, i - 1)]
    hi = omega[min(len(omega) - 1, i + 1)]
    refined = minimize_scalar(lambda w: -delta * float(tfs.gu.magnitude(w)),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-10})
    chi_refined = -refined.fun
    chi_grid = st.band_peak(tfs.gu, delta)
    assert abs(chi_grid - chi_refined) / chi_refined < 0.005


def test_chi_dominates_kappa_u_on_shared_grid(table1_design, five_story):
    _, _, plant = five_story
    delta = plant.bounds.delta
    tfs = st.build_transfer_functions(table1_design)
    batch = st.freqresp.transfer_batch(st.smc.DesignBatch.of(table1_design))
    (kappa,), (chi,) = st.freqresp.band_table(batch, delta)
    assert chi >= kappa[3]
    assert kappa[3] == st.band_rms(tfs.gu, delta)
    assert chi == st.band_peak(tfs.gu, delta)


def test_degenerate_eta_reports_infeasible():
    with pytest.raises(InfeasibleDesignError):
        st.transfer_zeros(np.array([1.0, 2.0, 3.0, 0.0]))
    with pytest.raises(InfeasibleDesignError):
        st.transfer_zeros(np.array([1.0, 2.0, 0.0, 4.0]))


def test_band_validation():
    tf = st.RationalTf(num=np.array([1.0]), den=np.array([1.0]))
    with pytest.raises(ConfigError):
        st.band_rms(tf, delta=0.0)
    with pytest.raises(ConfigError):
        st.band_rms(tf, delta=1.0, band=(10.0, 1.0))
    with pytest.raises(ConfigError):
        st.band_rms(tf, delta=1.0, n_samples=1)


def test_frequency_dump(tmp_path, table1_design, five_story):
    _, _, plant = five_story
    tfs = st.build_transfer_functions(table1_design)
    path = tmp_path / "freq.csv"
    st.dump_frequency_response(tfs, plant.bounds.delta, path, n_samples=64)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "omega_rad_s,H1,H2,H3,Hu"
    assert len(lines) == 65
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == pytest.approx(2 * np.pi)
    assert first[4] == pytest.approx(plant.bounds.delta
                                     * float(tfs.gu.magnitude(2 * np.pi)), rel=1e-12)
