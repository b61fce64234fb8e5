"""Pole placement, sliding vector identities, sliding dynamics, control law."""
from dataclasses import fields

import numpy as np
import pytest

import smctune as st
from smctune.errors import ConfigError
from conftest import ackermann_gain, all_poles, control_law, make_random_plant, make_random_poles

LQR_POLES = [complex(-3.52, 6.82), complex(-3.52, -6.82), -6.77, -77.98]
LQR_GAIN = np.array([200.0, -1276.5, 49.0, 17.32])


def test_ackermann_reproduces_printed_gain(quanser):
    # placing the (rounded) printed poles recovers the printed gain
    _, _, plant = quanser
    k = ackermann_gain(plant, LQR_POLES)
    assert np.allclose(k, LQR_GAIN, rtol=0.02)


def test_ackermann_own_spectrum_gives_zero_gain(quanser):
    # P(A) with A's own characteristic polynomial annihilates A
    _, _, plant = quanser
    poles = np.linalg.eigvals(plant.A)
    k = ackermann_gain(plant, poles)
    scale = np.linalg.norm(ackermann_gain(plant, LQR_POLES))
    assert np.linalg.norm(k) < 1e-8 * scale


def test_ackermann_random_placement_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        plant = make_random_plant(rng)
        poles = make_random_poles(rng)
        k = ackermann_gain(plant, all_poles(**poles))
        achieved = np.sort_complex(np.linalg.eigvals(plant.A - np.outer(plant.B, k)))
        wanted = np.sort_complex(np.array(all_poles(**poles)))
        err = np.linalg.norm(achieved - wanted) / np.linalg.norm(wanted)
        assert err < 1e-6


def test_ackermann_rejects_unpaired_complex_poles(quanser):
    _, _, plant = quanser
    with pytest.raises(ConfigError, match="conjugate"):
        ackermann_gain(plant, [complex(-1, 2), complex(-1, 3), -4.0, -5.0])


def test_sliding_vector_five_story(five_story):
    _, modal, plant = five_story
    eta = st.design_sliding_controller(plant, zeta=0.5, omega_n=0.5 * modal.omega0).eta
    assert np.allclose(eta, [2.6, -289.2, 0.87, -9.76], rtol=0.02)


def test_sliding_vector_experimental(five_story, quanser):
    _, modal, plant = quanser
    eta = st.design_sliding_controller(plant, zeta=0.5, omega_n=0.5 * modal.omega0).eta
    assert np.allclose(eta, [1.64, -19.94, 0.49, -0.20], rtol=0.02)


def test_eta_identities_random():
    # eta.B = 1 and eta.(A - B k) = lambda4 eta for arbitrary controllable pairs
    rng = np.random.default_rng(11)
    for _ in range(50):
        plant = make_random_plant(rng)
        poles = make_random_poles(rng)
        design = st.design_sliding_controller(plant, **poles)
        eta, k = design.eta, design.k_gain
        k_placed = ackermann_gain(plant, all_poles(**poles))
        assert np.linalg.norm(k - k_placed) <= 1e-9 * np.linalg.norm(k_placed)
        assert abs(eta @ plant.B - 1.0) < 1e-9
        closed = plant.A - np.outer(plant.B, k)
        lhs = eta @ closed
        assert np.linalg.norm(lhs - poles["lambda4"] * eta) <= 1e-9 * max(1.0, np.linalg.norm(
            poles["lambda4"] * eta))


def test_gain_factorization_identity():
    # k = eta.(A - lambda4 I): the quartic polynomial factors through the cubic
    rng = np.random.default_rng(13)
    for _ in range(20):
        plant = make_random_plant(rng)
        poles = make_random_poles(rng)
        design = st.design_sliding_controller(plant, **poles)
        eta, k = design.eta, design.k_gain
        k_factored = eta @ (plant.A - poles["lambda4"] * np.eye(4))
        assert np.linalg.norm(k - k_factored) <= 1e-9 * max(1.0, np.linalg.norm(k))


def test_sliding_dynamics_eigenvalues(five_story):
    _, modal, plant = five_story
    design = st.design_sliding_controller(plant, zeta=0.5, omega_n=0.5 * modal.omega0)
    eigs = np.sort_complex(np.linalg.eigvals(design.A1))
    wanted = np.sort_complex(np.array(
        [*st.smc.dominant_pair(design.zeta, design.omega_n), design.lambda3]))
    assert np.linalg.norm(eigs - wanted) / np.linalg.norm(wanted) < 1e-9


def test_sliding_dynamics_alpha1_beta0_one(quanser):
    # with unit participation the feedthrough collapses to the last weight
    _, modal, plant = quanser
    design = st.design_sliding_controller(plant, zeta=0.6, omega_n=0.55 * modal.omega0)
    assert design.alpha1 == pytest.approx(design.eta[3], rel=1e-12)
    # alpha2 from its closed form
    r = plant.B[2]
    assert design.alpha2 == pytest.approx(design.alpha1 * r, rel=1e-12)
    assert design.B1[0] == 0.0 and design.B1[1] == 0.0


def test_nu1_independent_of_lambda4(five_story):
    _, modal, plant = five_story
    wn = 0.6 * modal.omega0
    designs = []
    for lambda4 in (-1.0, -100.0):
        designs.append(st.design_sliding_controller(plant, zeta=0.55, omega_n=wn,
                                                    lambda4=lambda4))
    a, b = designs
    assert np.linalg.norm(a.nu1 - b.nu1) < 1e-10 * max(1.0, np.linalg.norm(a.nu1))
    assert np.allclose(a.A1, b.A1, rtol=0, atol=1e-10 * np.abs(a.A1).max())


def test_switching_gain_sum():
    assert st.switching_gain(0.0, 0.0, 0.5) == 0.5
    assert st.switching_gain(23.0, 0.5, 0.5) == 24.0
    with pytest.raises(ConfigError):
        st.switching_gain(-1.0, 0.0)
    with pytest.raises(ConfigError):
        st.switching_gain(1.0, 0.0, varsigma=0.0)


@pytest.mark.parametrize("args", [(float("nan"), 0.5), (1.0, float("nan")),
                                  (1.0, 0.5, float("nan")), (float("inf"), 0.5),
                                  ("1.0", 0.5)])
def test_switching_gain_rejects_non_finite_or_non_numeric(args):
    # every comparison with NaN is false, so without the check a NaN chi,
    # varpi or varsigma passed the sign tests and came back as M0 = nan
    with pytest.raises(ConfigError):
        st.switching_gain(*args)


def _relay_force(sigma, M0, epsilon):
    """The relay's force at sliding variable sigma: a relay law reading z0 alone."""
    return control_law(st.FeedbackLaw((1.0, 0.0, 0.0, 0.0), (M0, epsilon)),
                       (sigma, 0.0, 0.0, 0.0))[1]


@pytest.mark.parametrize("args", [(0.1, 10.0, float("nan")), (0.1, float("nan"), 0.05),
                                  (0.1, float("inf"), 0.05), (0.1, 10.0, "0.05")])
def test_control_force_rejects_non_finite_or_non_numeric(args):
    with pytest.raises(ConfigError, match="relay"):
        _relay_force(*args)


def test_control_force_branches():
    M0, eps = 10.0, 0.05
    assert _relay_force(0.0, M0, eps) == 0.0
    assert _relay_force(2 * eps, M0, eps) == -M0
    assert _relay_force(-2 * eps, M0, eps) == M0
    assert _relay_force(eps / 2, M0, eps) == pytest.approx(-5.0)
    assert _relay_force(-eps / 2, M0, eps) == pytest.approx(5.0)


def test_control_force_shape_properties():
    # odd, bounded by M0, continuous, non-increasing
    M0, eps = 3.0, 0.05
    sigmas = np.linspace(-0.5, 0.5, 2001)
    u = np.array([_relay_force(s, M0, eps) for s in sigmas])
    assert np.max(np.abs(u)) <= M0 + 1e-12
    assert np.allclose(u, -u[::-1], atol=1e-12)
    assert np.all(np.diff(u) <= 1e-12)
    assert np.max(np.abs(np.diff(u))) < 2 * M0 * (sigmas[1] - sigmas[0]) / eps + 1e-9


def test_pole_spec_validation(quanser):
    # design_sliding_controller is where a caller passes a layout, and checks it
    _, _, plant = quanser
    with pytest.raises(ConfigError):
        st.design_sliding_controller(plant, zeta=1.2, omega_n=1.0)
    with pytest.raises(ConfigError):
        st.design_sliding_controller(plant, zeta=0.5, omega_n=-1.0)
    with pytest.raises(ConfigError):
        st.design_sliding_controller(plant, zeta=0.5, omega_n=1.0, lambda3=1.0)
    for epsilon in (-1.0, 0.0):
        with pytest.raises(ConfigError, match="epsilon"):
            st.design_sliding_controller(plant, zeta=0.5, omega_n=1.0, epsilon=epsilon)
    design = st.design_sliding_controller(plant, zeta=0.5, omega_n=2.0)
    assert design.lambda3 == pytest.approx(-3.0)
    assert design.lambda4 == pytest.approx(-10.0)
    lambda1, lambda2 = st.smc.dominant_pair(design.zeta, design.omega_n)
    assert lambda1 == pytest.approx(np.conj(lambda2))


@pytest.mark.parametrize("field, value", [
    ("zeta", float("nan")), ("omega_n", float("nan")), ("omega_n", float("inf")),
    ("omega_n", "5"), ("lambda3", float("nan")), ("lambda3", float("-inf")),
    ("lambda4", float("nan")), ("lambda4", float("-inf")), ("lambda4", True),
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", "0.05")])
def test_pole_spec_rejects_non_finite_or_non_numeric(quanser, field, value):
    # a NaN or infinite pole used to pass and make design_sliding_controller
    # leak numpy's LinAlgError; a string omega_n raised TypeError
    _, _, plant = quanser
    with pytest.raises(ConfigError, match=field):
        st.design_sliding_controller(plant, **{"zeta": 0.5, "omega_n": 5.0, field: value})


def test_default_pole_layout_is_the_scan_rule(quanser, tune_quanser_jz2):
    # omitted lambdas follow real_poles, the rule every scan row is built by
    _, _, plant = quanser
    design = st.design_sliding_controller(plant, zeta=0.55, omega_n=3.7)
    assert (design.lambda3, design.lambda4) == st.smc.real_poles(0.55, 3.7)
    winner = tune_quanser_jz2.result.design
    rebuilt = st.design_sliding_controller(plant, winner.zeta, winner.omega_n)
    assert (rebuilt.lambda3, rebuilt.lambda4) == (winner.lambda3, winner.lambda4)


def test_sliding_design_is_a_design_batch_row():
    # one record: a design holds a batch row's fields, plus the relay's two
    batch_fields = [f.name for f in fields(st.smc.DesignBatch) if f.name != "reject"]
    assert [f.name for f in fields(st.SlidingDesign)] == batch_fields + ["epsilon", "M0"]


def test_design_batch_of_rebuilds_the_tuned_winner(tune_five_jz2):
    d = tune_five_jz2.result.design
    rebuilt = st.smc.DesignBatch.of(d).design(0, d.epsilon).with_switching_gain(d.M0)
    for f in fields(st.SlidingDesign):
        want, got = getattr(d, f.name), getattr(rebuilt, f.name)
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), f.name
        else:
            assert type(got) is float and got == want, f.name


def test_design_serialization_roundtrip(five_story):
    _, modal, plant = five_story
    design = st.design_sliding_controller(
        plant, zeta=0.5, omega_n=0.5 * modal.omega0).with_switching_gain(24.0)
    d = design.to_dict()
    assert d["M0"] == 24.0
    assert d["poles"]["zeta"] == 0.5
    assert np.allclose(d["eta"], design.eta)
