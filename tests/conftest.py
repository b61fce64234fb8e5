"""Shared fixtures: bundled configurations, tuned designs, and random plants.

The tuning scans and simulations are session-scoped because several test
modules (and the acceptance suite) assert against the same results; timings
are captured alongside so runtime budgets can be checked where required.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

import smctune as st
from smctune.errors import ConfigError, NumericalError
from smctune.fixtures import fixture_path


@dataclass(frozen=True)
class TimedResult:
    result: st.TuningResult
    seconds: float


def _timed_tune(plant, modal, config, **kw) -> TimedResult:
    tic = time.perf_counter()
    result = st.tune(plant, modal, config, **kw)
    return TimedResult(result=result, seconds=time.perf_counter() - tic)


@pytest.fixture(scope="session")
def five_story_setup() -> st.BuildingSetup:
    return st.load_building_config(fixture_path("five_story.json"))


@pytest.fixture(scope="session")
def five_story(five_story_setup):
    modal, plant = st.plant_from_setup(five_story_setup)
    return five_story_setup, modal, plant


@pytest.fixture(scope="session")
def quanser_setup() -> st.BuildingSetup:
    return st.load_building_config(fixture_path("quanser.json"))


@pytest.fixture(scope="session")
def quanser(quanser_setup):
    modal, plant = st.plant_from_setup(quanser_setup)
    return quanser_setup, modal, plant


@pytest.fixture(scope="session")
def five_story_tuning() -> st.TuningConfig:
    return st.load_tuning_config(fixture_path("five_story_tuning.json"))


@pytest.fixture(scope="session")
def quanser_tuning() -> st.TuningConfig:
    return st.load_tuning_config(fixture_path("quanser_tuning.json"))


@pytest.fixture(scope="session")
def tune_five_jz2(five_story, five_story_tuning) -> TimedResult:
    _, modal, plant = five_story
    return _timed_tune(plant, modal, five_story_tuning)


@pytest.fixture(scope="session")
def tune_five_ju(five_story, five_story_tuning) -> TimedResult:
    _, modal, plant = five_story
    config = st.load_tuning_config({**five_story_tuning.to_dict(), "index": "ju"})
    return _timed_tune(plant, modal, config)


@pytest.fixture(scope="session")
def tune_quanser_jz2(quanser, quanser_tuning) -> TimedResult:
    _, modal, plant = quanser
    return _timed_tune(plant, modal, quanser_tuning)


@pytest.fixture(scope="session")
def tune_quanser_ju(quanser, quanser_tuning) -> TimedResult:
    _, modal, plant = quanser
    config = st.load_tuning_config({**quanser_tuning.to_dict(), "index": "ju"})
    return _timed_tune(plant, modal, config)


@pytest.fixture(scope="session")
def quake() -> st.Accelerogram:
    """Bundled synthetic record rescaled to the 5-story excitation bound."""
    return st.load_accelerogram(fixture_path("synthetic_quake.csv"),
                                scale=0.5, scale_mode="pga")


@dataclass(frozen=True)
class SimRuns:
    passive: st.SimulationTrace
    smc_jz2: st.SimulationTrace
    smc_ju: st.SimulationTrace
    seconds_per_run: float


@pytest.fixture(scope="session")
def five_story_runs(five_story, tune_five_jz2, tune_five_ju, quake) -> SimRuns:
    setup, _, plant = five_story
    mu = setup.atmd.mu_d
    tic = time.perf_counter()
    passive = st.simulate(plant, st.PassiveControl(), quake, 30.0, mu_d=mu)
    smc_jz2 = st.simulate(plant, st.SmcControl(tune_five_jz2.result.design, label="smc-jz2"),
                          quake, 30.0, mu_d=mu)
    smc_ju = st.simulate(plant, st.SmcControl(tune_five_ju.result.design, label="smc-ju"),
                         quake, 30.0, mu_d=mu)
    elapsed = (time.perf_counter() - tic) / 3.0
    return SimRuns(passive=passive, smc_jz2=smc_jz2, smc_ju=smc_ju,
                   seconds_per_run=elapsed)


def make_random_plant(rng: np.random.Generator, ctrb_floor: float = 1e-6) -> st.PlantStateSpace:
    """Generic controllable 4-state single-input system for property tests."""
    while True:
        A = rng.normal(scale=2.0, size=(4, 4))
        B = rng.normal(size=4)
        if st.controllability_rcond(A, B) > ctrb_floor:
            break
    D = rng.normal(size=4)
    return st.PlantStateSpace(A=A, B=B, D=D, bounds=st.ExcitationBounds(1.0, 0.0))


def resolvent_response(design: st.SlidingDesign, channel: str, omega) -> np.ndarray:
    """Independent state-space evaluation of c (j w I - A1)^{-1} B1 + d per w.

    (c, d) is the unit selector of z1/z2/z3 for channel "1"/"2"/"3" and
    (nu1, alpha1) for the force channel "u". It shares no code with the
    rational realization of ``build_transfer_functions``.
    """
    if channel == "u":
        c_row, feed = design.nu1, design.alpha1
    else:
        c_row, feed = np.eye(3)[int(channel) - 1], 0.0
    eye = np.eye(3)
    return np.array([c_row @ np.linalg.solve(1j * w * eye - design.A1, design.B1) + feed
                     for w in np.atleast_1d(omega)])


def quad_band_rms(design: st.SlidingDesign, channel: str, delta: float,
                  band=st.DEFAULT_BAND) -> float:
    """Independent kappa oracle: adaptive quadrature on the state-space resolvent.

    sqrt(mean over the band of |delta resolvent_response|^2). It shares
    neither the rational realization nor the frequency grid with ``band_rms``.
    """
    def mag_sq(w):
        return abs(resolvent_response(design, channel, w)[0]) ** 2

    lo, hi = band
    integral, _ = quad(mag_sq, lo, hi, limit=200, epsabs=0.0, epsrel=1e-10)
    return float(delta * np.sqrt(integral / (hi - lo)))


def scalar_path_mismatches(result: st.TuningResult, plant: st.PlantStateSpace) -> list[str]:
    """What of a batched scan differs from the single-design path.

    Every feasible tuple is rebuilt alone through ``design_sliding_controller``,
    ``transfer_zeros``, ``build_transfer_functions`` and ``band_rms``, and the
    winner's chi and M0 through ``band_peak`` and ``switching_gain``; any field
    that is not bit-identical is named in the returned list.
    """
    config, delta = result.config, plant.bounds.delta
    band, n = config.band, config.n_samples
    mismatches = []
    for i, t in enumerate(result.tuples):
        design = st.design_sliding_controller(plant, config.poles(t.zeta, t.omega_n),
                                              epsilon=config.epsilon)
        if not np.array_equal(design.eta, t.eta):
            mismatches.append(f"tuple {i}: eta")
        if st.transfer_zeros(design.eta) != (t.psi1, t.psi2):
            mismatches.append(f"tuple {i}: psi1, psi2")
        tfs = st.build_transfer_functions(design)
        kappas = tuple(st.band_rms(tf, delta, band, n) for tf in (tfs.g1, tfs.g2, tfs.g3, tfs.gu))
        if kappas != (t.kappa1, t.kappa2, t.kappa3, t.kappa_u):
            mismatches.append(f"tuple {i}: kappas")
    best = result.best
    design = st.design_sliding_controller(plant, config.poles(best.zeta, best.omega_n),
                                          epsilon=config.epsilon)
    if not (np.array_equal(design.eta, result.design.eta)
            and np.array_equal(design.k_gain, result.design.k_gain)):
        mismatches.append("winner: eta, k_gain")
    chi = st.band_peak(st.build_transfer_functions(design).gu, delta, band, n)
    if chi != result.chi:
        mismatches.append("winner: chi")
    if st.switching_gain(chi, plant.bounds.varpi, config.varsigma) != result.M0:
        mismatches.append("winner: M0")
    return mismatches


def make_random_poles(rng: np.random.Generator) -> st.PoleSpec:
    return st.PoleSpec(zeta=rng.uniform(0.2, 0.95), omega_n=rng.uniform(1.0, 10.0),
                       lambda3=-rng.uniform(1.0, 8.0), lambda4=-rng.uniform(5.0, 30.0))


def reference_rk4(plant: st.PlantStateSpace, controller, quake: st.Accelerogram, t_end: float,
                  mu_d: float = 0.0, dt: float | None = None, z0=None) -> st.SimulationTrace:
    """The numpy RK4 loop that ``simulate`` replaced, kept as its oracle.

    Same integration scheme, but on length-4 arrays with BLAS matvecs and the
    controller's own ``force``/``sigma`` per step.
    """
    dt = quake.dt if dt is None else float(dt)
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if t_end <= 0:
        raise ConfigError("t_end must be positive")
    if t_end > quake.duration + 1e-12:
        raise ConfigError(f"t_end={t_end} s exceeds the record length {quake.duration} s")
    if mu_d < 0:
        raise ConfigError("mu_d must be non-negative")
    n = int(round(t_end / dt))

    # excitation on the half-step grid: index 2i is t_i, 2i+1 is t_i + dt/2
    t_half = 0.5 * dt * np.arange(2 * n + 1)
    xg_half = np.interp(t_half, quake.time(), quake.samples)

    A, B, D = plant.A, plant.B, plant.D
    z = np.zeros(4) if z0 is None else np.asarray(z0, dtype=float).copy()
    if z.shape != (4,):
        raise ConfigError("z0 must have 4 entries")

    is_smc = isinstance(controller, st.SmcControl)
    Z = np.empty((n + 1, 4))
    U = np.empty(n + 1)
    S = np.zeros(n + 1)
    Z[0] = z
    if is_smc:
        S[0] = controller.sigma(z)

    half = 0.5 * dt
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for i in range(n):
            u = controller.force(z)
            U[i] = u
            xg0, xgm, xg1 = xg_half[2 * i], xg_half[2 * i + 1], xg_half[2 * i + 2]

            def rate(zz, xg_val):
                return A @ zz + B * (u - mu_d * np.sign(zz[2])) + D * xg_val

            k1 = rate(z, xg0)
            k2 = rate(z + half * k1, xgm)
            k3 = rate(z + half * k2, xgm)
            k4 = rate(z + dt * k3, xg1)
            z = z + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            if not np.all(np.isfinite(z)):
                raise NumericalError(f"state diverged at t={(i + 1) * dt:.4f} s "
                                     f"(controller={controller.label})")
            Z[i + 1] = z
            if is_smc:
                S[i + 1] = controller.sigma(z)
        U[n] = controller.force(z)

    return st.SimulationTrace(t=dt * np.arange(n + 1), z=Z, u=U, sigma=S,
                              xg=xg_half[::2], label=controller.label)


def reference_trace_csv(trace: st.SimulationTrace, path) -> None:
    """The per-cell ``write_trace_csv`` that the blocked writer replaced."""
    with open(path, "w", newline="") as fh:
        fh.write("t,z1,z2,z3,z4,u,sigma,xg_dd\n")
        for i in range(len(trace.t)):
            row = (trace.t[i], trace.z[i, 0], trace.z[i, 1], trace.z[i, 2],
                   trace.z[i, 3], trace.u[i], trace.sigma[i], trace.xg[i])
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
