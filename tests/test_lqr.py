"""Bryson weights, Riccati solve, and the pole-placement cross-check."""
import numpy as np
import pytest
import scipy.linalg

import smctune as st
from smctune.errors import ConfigError, NumericalError
from conftest import ackermann_gain, make_random_plant

PRINTED_GAIN = np.array([200.0, -1276.5, 49.0, 17.32])
PRINTED_EIGS = np.sort_complex(np.array(
    [complex(-3.52, 6.82), complex(-3.52, -6.82), -6.77, -77.98]))
QUANSER_MAXIMA = st.MaxValues(z1=0.05, z2=0.01, z3=0.32, z4=0.1, u=10.0)


def assert_gain_matches_scipy(A, B, Q, r, k):
    # scipy's CARE solver is a test oracle only; the package does not import it
    b = np.asarray(B, dtype=float).reshape(-1, 1)
    P_ref = scipy.linalg.solve_continuous_are(A, b, Q, np.array([[r]]))
    k_ref = (b[:, 0] @ P_ref) / r
    assert np.linalg.norm(k - k_ref) / np.linalg.norm(k_ref) < 1e-12


@pytest.fixture(scope="module")
def quanser_lqr(quanser):
    _, _, plant = quanser
    spec = st.bryson_weights(QUANSER_MAXIMA)
    return spec, st.solve_lqr(plant, spec)


def test_bryson_weights_published_values():
    spec = st.bryson_weights(st.MaxValues(z1=0.05, z2=0.01, z3=0.32, z4=0.1, u=10.0))
    q = np.diag(spec.Q)
    assert q[0] == pytest.approx(400.0)
    assert q[1] == pytest.approx(10000.0)
    assert q[2] == pytest.approx(9.77, rel=1e-3)
    assert q[3] == pytest.approx(100.0)
    assert spec.r == pytest.approx(0.01)


def test_bryson_weights_identity():
    spec = st.bryson_weights(st.MaxValues(z1=1, z2=1, z3=1, z4=1, u=1))
    assert np.allclose(spec.Q, np.eye(4))
    assert spec.r == 1.0


def test_bryson_inverse_square_law():
    a = st.bryson_weights(st.MaxValues(z1=0.1, z2=1, z3=1, z4=1, u=1))
    b = st.bryson_weights(st.MaxValues(z1=0.2, z2=1, z3=1, z4=1, u=1))
    assert b.Q[0, 0] == pytest.approx(a.Q[0, 0] / 4.0)
    with pytest.raises(ConfigError):
        st.bryson_weights(st.MaxValues(z1=0.0, z2=1, z3=1, z4=1, u=1))


def test_lqr_reproduces_published_design(quanser_lqr):
    _, result = quanser_lqr
    assert np.allclose(result.k_gain, PRINTED_GAIN, rtol=0.005)
    assert np.allclose(np.sort_complex(result.closed_loop_eigs), PRINTED_EIGS, rtol=0.01)
    assert result.residual < 1e-8


def test_lqr_solution_is_spd(quanser_lqr):
    _, result = quanser_lqr
    assert np.abs(result.P - result.P.T).max() < 1e-10 * np.abs(result.P).max()
    np.linalg.cholesky(result.P)
    assert np.all(result.closed_loop_eigs.real < 0)


def test_scalar_riccati_closed_form():
    # a=0, b=1, q=1, r=1: P solves -P^2 + 1 = 0, so P = 1, k = 1, eig = -1
    result = st.solve_riccati(np.array([[0.0]]), np.array([1.0]), np.array([[1.0]]), 1.0)
    assert result.P[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert result.k_gain[0] == pytest.approx(1.0, rel=1e-12)
    assert result.closed_loop_eigs[0] == pytest.approx(-1.0, rel=1e-12)
    assert result.residual < 1e-12


def test_random_riccati_instances():
    # moderate problem scale: shift each spectrum left so the cost (and P)
    # stay O(10); the absolute residual bound is meaningless for the nearly
    # uncontrollable draws whose P blows past 1e6
    rng = np.random.default_rng(23)
    for _ in range(100):
        plant = make_random_plant(rng)
        A = plant.A - (np.max(np.linalg.eigvals(plant.A).real) + 0.5) * np.eye(4)
        q_diag = rng.uniform(0.1, 10.0, size=4)
        r = rng.uniform(0.05, 5.0)
        result = st.solve_riccati(A, plant.B, np.diag(q_diag), r)
        assert result.residual < 1e-8
        assert np.all(result.closed_loop_eigs.real < 0)
        assert_gain_matches_scipy(A, plant.B, np.diag(q_diag), r, result.k_gain)


@pytest.mark.parametrize("building", ["quanser", "five_story"])
def test_fixture_gains_match_scipy(request, building):
    _, _, plant = request.getfixturevalue(building)
    spec = st.bryson_weights(QUANSER_MAXIMA)
    result = st.solve_lqr(plant, spec)
    assert_gain_matches_scipy(plant.A, plant.B, spec.Q, spec.r, result.k_gain)


@pytest.mark.parametrize("A, b, Q", [
    (np.diag([1.0, -1.0]), [0.0, 1.0], np.eye(2)),
    (np.array([[0.0, 1.0], [-1.0, 0.0]]), [0.0, 1.0], np.zeros((2, 2))),
    (np.array([[np.nan, 1.0], [-1.0, 0.0]]), [0.0, 1.0], np.eye(2)),
], ids=["uncontrollable-unstable-mode", "imaginary-axis-hamiltonian", "nan-in-A"])
def test_non_stabilizable_inputs_raise(A, b, Q):
    with pytest.raises(NumericalError):
        st.solve_riccati(A, np.array(b), Q, 1.0)


def test_mismatched_shapes_rejected():
    with pytest.raises(ConfigError, match="n x n"):
        st.solve_riccati(np.eye(3), np.ones(3), np.eye(2), 1.0)


@pytest.mark.parametrize("r", [float("nan"), float("inf"), "2", True])
def test_control_weight_must_be_a_finite_number(r):
    # NaN and inf used to fail as a NumericalError in the solve, and "2" and
    # True were converted to 2.0 and 1.0
    with pytest.raises(ConfigError, match="control weight r must be"):
        st.solve_riccati(np.eye(1), np.ones(1), np.eye(1), r)


def test_ackermann_cross_check(quanser, quanser_lqr):
    # single-input gains are unique for a given spectrum: re-placing the
    # optimal closed-loop poles must reproduce the optimal gain
    _, _, plant = quanser
    _, result = quanser_lqr
    k_placed = ackermann_gain(plant, result.closed_loop_eigs)
    err = np.linalg.norm(k_placed - result.k_gain) / np.linalg.norm(result.k_gain)
    assert err < 1e-6


def test_equivalent_polespec_experimental(quanser, quanser_lqr):
    _, modal, _ = quanser
    _, result = quanser_lqr
    eq = st.lqr_equivalent_polespec(result, modal.omega0)
    assert eq["zeta"] == pytest.approx(0.46, rel=0.02)
    assert eq["omega_ratio"] == pytest.approx(0.69, rel=0.02)


def test_equivalent_polespec_roundtrip():
    zeta, wn = 0.5, 5.0
    lam = complex(-zeta * wn, wn * np.sqrt(1 - zeta ** 2))
    result = st.LqrResult(P=np.eye(4), k_gain=np.zeros(4),
                          closed_loop_eigs=np.array([lam, lam.conjugate(), -1.0, -2.0]),
                          residual=0.0)
    eq = st.lqr_equivalent_polespec(result, omega0=10.0)
    assert eq["zeta"] == pytest.approx(0.5, rel=1e-12)
    assert eq["omega_n"] == pytest.approx(5.0, rel=1e-12)
    assert eq["omega_ratio"] == pytest.approx(0.5, rel=1e-12)


def test_equivalent_polespec_requires_complex_pair():
    result = st.LqrResult(P=np.eye(4), k_gain=np.zeros(4),
                          closed_loop_eigs=np.array([-1.0, -2.0, -3.0, -4.0],
                                                    dtype=complex),
                          residual=0.0)
    with pytest.raises(NumericalError, match="no complex pair"):
        st.lqr_equivalent_polespec(result, omega0=1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), "abc", "0.05", True, None,
                                   1e308, 1e151, 1e-151, 5e-324])
def test_max_values_reject_non_finite_or_non_numeric(value):
    # a NaN maximum used to reach the Riccati solver, a string leaked a
    # ValueError from float(), and True counted as 1.0; beyond [1e-150, 1e150]
    # the weight 1/value^2 raised OverflowError or ZeroDivisionError, or was inf
    with pytest.raises(ConfigError, match="z1"):
        st.MaxValues(z1=value, z2=0.01, z3=0.32, z4=0.1, u=10.0)



def test_nan_riccati_residual_is_rejected(quanser, monkeypatch):
    # NaN > RESIDUAL_MAX is False, so the bound must be written to fail on NaN
    _, _, plant = quanser
    monkeypatch.setattr(st.lqr, "_riccati_residual", lambda *args: float("nan"))
    with pytest.raises(NumericalError, match="Riccati residual nan exceeds"):
        st.solve_lqr(plant, st.bryson_weights(QUANSER_MAXIMA))
