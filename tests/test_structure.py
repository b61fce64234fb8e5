"""Shear-building assembly, Rayleigh damping, modal reduction, plant assembly."""
import json

import numpy as np
import pytest

import smctune as st
from smctune.errors import ConfigError, NumericalError
from smctune.fixtures import fixture_path


def test_five_story_stiffness_assembly(five_story_setup):
    K = five_story_setup.building.K
    assert np.allclose(np.diag(K), [2.42e4, 2.42e4, 2.42e4, 2.42e4, 1.21e4])
    assert np.allclose(np.diag(K, 1), [-1.21e4] * 4)
    assert np.allclose(np.diag(K, -1), [-1.21e4] * 4)
    assert np.allclose(five_story_setup.building.M, 10.0 * np.eye(5))


def test_single_story_building():
    b = st.build_shear_building([1.0], [1.0], np.array([[0.0]]))
    assert np.allclose(b.M, [[1.0]])
    assert np.allclose(b.K, [[1.0]])


def test_two_story_tridiagonal():
    b = st.build_shear_building([1.0, 2.0], [3.0, 5.0], np.zeros((2, 2)))
    assert np.allclose(b.K, [[8.0, -5.0], [-5.0, 5.0]])


def test_building_validation_errors():
    with pytest.raises(ConfigError):
        st.build_shear_building([1.0, 1.0], [1.0], np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        st.build_shear_building([1.0, -1.0], [1.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        st.build_shear_building([1.0, 1.0], [0.0, 1.0], np.zeros((2, 2)))
    # non-symmetric and non-tridiagonal damping matrices are rejected
    with pytest.raises(ConfigError):
        st.build_shear_building([1.0, 1.0], [1.0, 1.0], np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ConfigError):
        st.build_shear_building([1.0] * 3, [1.0] * 3,
                                np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))


def test_rayleigh_equal_ratio_closed_form():
    # with zeta1 = zeta2 = z the 2x2 solve collapses to
    # a0 = 2 z w1 w2 / (w1 + w2), a1 = 2 z / (w1 + w2)
    M = np.diag([2.0, 3.0])
    K = np.array([[30.0, -10.0], [-10.0, 10.0]])
    freqs, _ = st.natural_modes(M, K)
    w1, w2 = freqs
    z = 0.03
    C = st.rayleigh_damping(M, K, freqs, ((1, z), (2, z)))
    a0 = 2.0 * z * w1 * w2 / (w1 + w2)
    a1 = 2.0 * z / (w1 + w2)
    assert np.allclose(C, a0 * M + a1 * K, rtol=1e-12)


def test_rayleigh_coincident_modes_error():
    # two identical uncoupled oscillators share their natural frequency
    M = np.eye(2)
    K = np.eye(2)
    with pytest.raises(NumericalError):
        st.rayleigh_damping(M, K, st.natural_modes(M, K)[0], ((1, 0.01), (2, 0.01)))


def test_rayleigh_mode_index_out_of_range():
    M = np.eye(2)
    K = np.array([[2.0, -1.0], [-1.0, 1.0]])
    with pytest.raises(ConfigError):
        st.rayleigh_damping(M, K, st.natural_modes(M, K)[0], ((1, 0.01), (5, 0.01)))


def test_rayleigh_single_pair_mass_proportional():
    M = np.diag([1.84])
    K = np.diag([226.23])
    C = st.rayleigh_damping(M, K, st.natural_modes(M, K)[0], ((1, 0.02),))
    w1 = np.sqrt(226.23 / 1.84)
    assert np.allclose(C, [[2 * 0.02 * w1 * 1.84]])


def test_rayleigh_roundtrip_five_story(five_story_setup):
    # independent oracle: recompute the modal damping ratios of modes 1 and 2
    # from the assembled C by eigen-analysis; both must equal 0.01
    b = five_story_setup.building
    freqs, shapes = st.natural_modes(b.M, b.K)
    for i in (0, 1):
        phi = shapes[:, i]
        zeta_i = (phi @ b.C @ phi) / (2.0 * freqs[i] * (phi @ b.M @ phi))
        assert zeta_i == pytest.approx(0.01, abs=1e-10)


def test_modal_reduce_five_story(five_story):
    _, modal, _ = five_story
    assert modal.m0 == pytest.approx(28.07, rel=0.01)
    assert modal.k0 == pytest.approx(2.75e3, rel=0.01)
    assert modal.omega0 == pytest.approx(9.9, rel=0.01)


def test_modal_reduce_single_story():
    b = st.build_shear_building([1.84], [226.23], np.array([[0.16]]))
    modal = st.modal_reduce(b)
    assert modal.phi0 == pytest.approx([1.0])
    assert modal.m0 == pytest.approx(1.84)
    assert modal.k0 == pytest.approx(226.23)
    assert modal.c0 == pytest.approx(0.16)
    assert modal.beta0 == pytest.approx(1.0)


def test_modal_reduce_two_story_dense_oracle():
    # brute-force oracle on the 2x2 problem using the general eigensolver
    masses, stiffs = [1.0, 1.0], [2.0, 1.0]
    b = st.build_shear_building(masses, stiffs, np.zeros((2, 2)))
    modal = st.modal_reduce(b)

    vals, vecs = np.linalg.eig(np.linalg.solve(b.M, b.K))
    order = np.argsort(vals.real)
    phi = vecs[:, order[0]].real
    phi = phi / phi[-1]
    m0 = phi @ b.M @ phi
    k0 = phi @ b.K @ phi
    assert modal.m0 == pytest.approx(m0, rel=1e-12)
    assert modal.k0 == pytest.approx(k0, rel=1e-12)
    assert modal.omega0 == pytest.approx(np.sqrt(vals.real[order[0]]), rel=1e-12)


def test_modal_scale_consistency(five_story_setup):
    base = st.modal_reduce(five_story_setup.building)
    factor = 3.7
    floors = json.loads(fixture_path("five_story.json").read_text())["floors"]
    scaled_building = st.build_shear_building(
        factor * np.diag(five_story_setup.building.M),
        [factor * floor["stiffness"] for floor in floors],
        factor * five_story_setup.building.C)
    scaled = st.modal_reduce(scaled_building)
    assert scaled.omega0 == pytest.approx(base.omega0, rel=1e-12)
    assert scaled.beta0 == pytest.approx(base.beta0, rel=1e-12)
    assert scaled.m0 == pytest.approx(factor * base.m0, rel=1e-12)
    assert scaled.k0 == pytest.approx(factor * base.k0, rel=1e-12)


def test_phi_top_entry_is_one(five_story):
    _, modal, _ = five_story
    assert modal.phi0[-1] == 1.0


def test_first_mode_matches_full_model(five_story):
    setup, modal, _ = five_story
    freqs, _ = st.natural_modes(setup.building.M, setup.building.K)
    assert modal.omega0 == pytest.approx(freqs[0], rel=1e-9)


def test_assemble_plant_table3_excitation_vector(quanser):
    # beta0 = 1 zeroes the third excitation entry
    _, modal, plant = quanser
    assert modal.beta0 == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(plant.D, [0.0, 0.0, 0.0, -1.0], atol=1e-12)


def test_assemble_plant_input_vector_structure(five_story):
    setup, modal, plant = five_story
    m0, md = modal.m0, setup.atmd.m_d
    assert plant.B[0] == 0.0 and plant.B[1] == 0.0
    assert plant.B[2] == pytest.approx((m0 + md) / (m0 * md), rel=1e-12)
    assert plant.B[3] == pytest.approx(-1.0 / m0, rel=1e-12)


def test_assemble_plant_entry_formulas(five_story):
    # element-wise evaluation of the coupled closed forms
    setup, modal, plant = five_story
    m0, c0, k0 = modal.m0, modal.c0, modal.k0
    md, cd, kd = setup.atmd.m_d, setup.atmd.c_d, setup.atmd.k_d
    r = (m0 + md) / (m0 * md)
    expected = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-kd * r, k0 / m0, -cd * r, c0 / m0],
        [kd / m0, -k0 / m0, cd / m0, -c0 / m0],
    ])
    assert np.allclose(plant.A, expected, rtol=1e-12, atol=0)
    # physics identities on the raw entries
    assert plant.A[2, 0] * m0 * md / (m0 + md) == pytest.approx(-kd, rel=1e-12)
    assert plant.A[3, 0] == pytest.approx(kd / m0, rel=1e-12)
    assert plant.A[2, 2] * m0 * md / (m0 + md) == pytest.approx(-cd, rel=1e-12)
    assert plant.A[3, 2] == pytest.approx(cd / m0, rel=1e-12)


def test_participation_override(five_story):
    setup, modal, plant = five_story
    # the fixture pins the excitation participation to 1; the modal value stays intact
    assert setup.participation == 1.0
    assert -plant.D[3] == 1.0
    assert modal.beta0 == pytest.approx(1.2517, rel=1e-3)
    natural = st.assemble_plant(modal, setup.atmd, setup.bounds)
    assert natural.D[2] == pytest.approx(modal.beta0 - 1.0, rel=1e-12)
    assert natural.D[3] == pytest.approx(-modal.beta0, rel=1e-12)
    # A and B are independent of the override
    assert np.array_equal(natural.A, plant.A)
    assert np.array_equal(natural.B, plant.B)


def test_controllability_rcond_detects_singular_pair():
    A = np.zeros((4, 4))
    B = np.array([1.0, 0.0, 0.0, 0.0])
    assert st.controllability_rcond(A, B) == 0.0
    plant = st.PlantStateSpace(A=A, B=B, D=np.zeros(4),
                               bounds=st.ExcitationBounds(1.0, 0.0))
    with pytest.raises(NumericalError, match="controllability matrix is singular"):
        st.smc.ackermann_rows(plant)


def test_load_building_config_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="line"):
        st.load_building_config(bad)
    with pytest.raises(ConfigError, match="floors"):
        st.load_building_config({"damping": {}, "atmd": {}, "bounds": {}})
    # a shear building's modal frequencies are distinct, so a repeated mode
    # index is the one way to make the two-point Rayleigh solve singular
    raw = json.loads(fixture_path("five_story.json").read_text())
    with pytest.raises(ConfigError, match="mode 1 twice"):
        st.load_building_config({**raw, "damping": {"rayleigh": {"modes": [1, 1],
                                                                 "ratios": [0.01, 0.02]}}})
    with pytest.raises(ConfigError, match="participation_factor must be a number"):
        st.load_building_config({**raw, "participation_factor": None})


def test_story_count_is_capped_before_any_matrix(monkeypatch):
    # a 2 MB file can list 50 000 floors, whose dense M, C and K would need
    # 60 GB, so the count is checked before any N x N array is made
    raw = json.loads(fixture_path("five_story.json").read_text())
    raw["floors"] = raw["floors"][:1] * (st.structure.MAX_STORIES + 1)

    def refuse(*args, **kwargs):
        pytest.fail("an N x N matrix was built before the story count was checked")

    monkeypatch.setattr(st.structure.np, "diag", refuse)
    with pytest.raises(ConfigError, match="need 1 to 1000 stories, got 1001"):
        st.load_building_config(raw)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_plant_is_a_numerical_error():
    # damping of 1e154 N*s/m gives a finite A whose cube overflows
    modal = st.ModalModel(phi0=np.ones(1), m0=1.84, c0=1e154, k0=226.23, beta0=1.0,
                          omega0=11.1)
    with pytest.raises(NumericalError, match="overflows"):
        st.assemble_plant(modal, st.AtmdParams(0.79, 0.0, 6.85), st.ExcitationBounds(3.0, 0.5))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_modes_are_a_numerical_error():
    # a subnormal mass overflows K / sqrt(m_i m_j); a huge one overflows phi0 M phi0
    with pytest.raises(NumericalError, match="stiffness matrix overflows"):
        st.natural_modes(np.diag([5e-324]), np.diag([226.23]))
    building = st.build_shear_building([1.7976931348623157e308] + [10.0] * 4, [12100.0] * 5,
                                       np.zeros((5, 5)))
    with pytest.raises(NumericalError, match="modal mass, damping or stiffness overflows"):
        st.modal_reduce(building)


@pytest.mark.parametrize("pairs", [((1, 1.5),), ((1, 0.0),), ((1, 0.01), (1, 0.02)),
                                   ((0, 0.01),), ((1.5, 0.01),), (),
                                   ((1, 0.01), (2, 0.01), (3, 0.01)),
                                   ((1,),), 5, ((1, 0.02, 3),)])
def test_rayleigh_damping_checks_pairs_as_rayleigh_spec(pairs):
    M, K = np.diag([2.0, 3.0, 4.0]), np.diag([30.0, 20.0, 10.0])
    with pytest.raises(ConfigError):
        st.RayleighSpec(pairs)
    with pytest.raises(ConfigError):
        st.rayleigh_damping(M, K, st.natural_modes(M, K)[0], pairs)


@pytest.mark.parametrize("delta, varpi", [(float("nan"), 0.5), (float("inf"), 0.5),
                                          (0.5, float("nan")), (0.5, float("inf"))])
def test_excitation_bounds_must_be_finite(delta, varpi):
    with pytest.raises(ConfigError):
        st.ExcitationBounds(delta, varpi)


@pytest.mark.parametrize("field", ["m_d", "k_d", "c_d", "mu_d"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), "1.0",
                                   pytest.param(10**400, id="10**400")])
def test_atmd_params_must_be_finite_numbers(field, value):
    kwargs = {"m_d": 1.0, "k_d": 1.0, "c_d": 1.0, "mu_d": 0.1, field: value}
    with pytest.raises(ConfigError, match=field):
        st.AtmdParams(**kwargs)


def test_building_arrays_must_be_finite():
    with pytest.raises(ConfigError, match="finite"):
        st.build_shear_building([1.0, float("nan")], [1.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(ConfigError, match="finite"):
        st.build_shear_building([1.0], [1.0], np.array([[float("inf")]]))


def test_load_building_config_shape_errors():
    raw = json.loads(fixture_path("quanser.json").read_text())
    for damping in ({"matrix": [[0.1], [0.1, 0.2]]}, {"matrix": 0.16}, [0.16],
                    {"rayleigh": {"modes": [1.5], "ratios": [0.01]}},
                    {"rayleigh": {"modes": 1, "ratios": 0.01}}):
        with pytest.raises(ConfigError):
            st.load_building_config({**raw, "damping": damping})
    with pytest.raises(ConfigError, match="atmd must be an object"):
        st.load_building_config({**raw, "atmd": 0.79})
    with pytest.raises(ConfigError, match="floor 1 must be an object"):
        st.load_building_config({**raw, "floors": [1.84]})
