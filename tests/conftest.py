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
from smctune.smc import POLE_PLACEMENT_TOL, _apply, _placement_error, ackermann_rows


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


@pytest.fixture
def refuse_huge_arange(monkeypatch):
    """np.arange fails the test when asked for more than 1e8 elements, so a
    missing size check shows as a failure instead of gigabytes allocated."""
    arange = np.arange

    def guarded(*args, **kwargs):
        start, stop, step = (0, args[0], 1) if len(args) == 1 else (*args, 1)[:3]
        if stop - start > 1e8 * step:
            pytest.fail(f"np.arange asked for ({stop} - {start}) / {step} elements")
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", guarded)


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
    rational realization of ``transfer_batch``.
    """
    if channel == "u":
        c_row, feed = design.nu1, design.alpha1
    else:
        c_row, feed = np.eye(3)[int(channel) - 1], 0.0
    eye = np.eye(3)
    return np.array([c_row @ np.linalg.solve(1j * w * eye - design.A1, design.B1) + feed
                     for w in np.atleast_1d(omega)])


def transfer_of(design: st.SlidingDesign):
    """``transfer_batch`` of ``design`` as a stack of one."""
    return st.freqresp.transfer_batch(st.smc.DesignBatch.of(design))


def rational_response(batch, channel: str, s) -> np.ndarray:
    """gains * num(s) / den(s) of row 0 of ``batch``, by complex ``np.polyval``.

    An evaluation of the rational form that shares no code with the
    real-arithmetic |H|^2 of ``_band_squares`` or the residues of
    ``band_table``.
    """
    c = "123u".index(channel)
    return batch.gains[0, c] * np.polyval(batch.nums[0, c], s) / np.polyval(batch.den[0], s)


def quad_kappa(design: st.SlidingDesign, channel: str, delta: float,
                  band=st.DEFAULT_BAND) -> float:
    """Independent kappa oracle: adaptive quadrature on the state-space resolvent.

    sqrt(mean over the band of |delta resolvent_response|^2). It shares
    neither the rational realization nor the residue integral with
    ``band_table``.
    """
    def mag_sq(w):
        return abs(resolvent_response(design, channel, w)[0]) ** 2

    lo, hi = band
    integral, _ = quad(mag_sq, lo, hi, limit=200, epsabs=0.0, epsrel=1e-12)
    return float(delta * np.sqrt(integral / (hi - lo)))


def scalar_path_mismatches(result: st.TuningResult, plant: st.PlantStateSpace) -> list[str]:
    """What of a batched scan differs from each design computed alone.

    Every feasible row is rebuilt as a stack of one through
    ``design_sliding_controller`` (with its default lambdas),
    ``DesignBatch.of``, ``zero_rows``, ``transfer_batch`` and ``band_table``,
    and the winner's chi and M0 through ``band_peak`` and
    ``switching_gain``; any field that is not bit-identical is named in the
    returned list.
    """
    config, delta, band = result.config, plant.bounds.delta, result.config.band
    mismatches = []
    for i, t in enumerate(result.rows()):
        design = st.design_sliding_controller(plant, t["zeta"], t["omega_n"],
                                              epsilon=config.epsilon)
        lambdas = (*st.smc.dominant_pair(design.zeta, design.omega_n), design.lambda3)
        if (complex(*t["lambda1"]), complex(*t["lambda2"]), t["lambda3"]) != lambdas:
            mismatches.append(f"row {i}: lambda1, lambda2, lambda3")
        if not np.array_equal(design.eta, t["eta"]):
            mismatches.append(f"row {i}: eta")
        (psi1,), (psi2,), (defined,) = st.freqresp.zero_rows(design.eta[None])
        if not defined or (psi1, psi2) != (t["psi1"], t["psi2"]):
            mismatches.append(f"row {i}: psi1, psi2")
        (kappas,) = st.freqresp.band_table(transfer_of(design), delta, band)
        if tuple(kappas) != (t["kappa1"], t["kappa2"], t["kappa3"], t["kappa_u"]):
            mismatches.append(f"row {i}: kappas")
    best = result.best
    design = st.design_sliding_controller(plant, best["zeta"], best["omega_n"],
                                          epsilon=config.epsilon)
    if not np.array_equal(design.eta, result.design.eta):
        mismatches.append("winner: eta")
    (chi,) = st.freqresp.band_peak(transfer_of(design), delta, band)
    if chi != result.chi:
        mismatches.append("winner: chi")
    if st.switching_gain(chi, plant.bounds.varpi, config.varsigma) != result.M0:
        mismatches.append("winner: M0")
    return mismatches


def make_random_poles(rng: np.random.Generator) -> dict[str, float]:
    """A random pole layout as the keyword arguments of ``design_sliding_controller``."""
    return dict(zeta=rng.uniform(0.2, 0.95), omega_n=rng.uniform(1.0, 10.0),
                lambda3=-rng.uniform(1.0, 8.0))


def all_poles(zeta, omega_n, lambda3, lambda4) -> tuple:
    """Four closed-loop poles: a layout's dominant pair and lambda3, plus lambda4."""
    return (*st.smc.dominant_pair(zeta, omega_n), lambda3, lambda4)


#: imaginary residue (relative) above which a "real" gain vector is rejected
IMAG_TOL = 1e-9


def _real_polynomial(roots) -> np.ndarray:
    """Real descending coefficients of prod_i (s - root_i).

    Complex roots must come in conjugate pairs; each pair is folded into the
    real quadratic s^2 - 2 Re(r) s + |r|^2.
    """
    remaining = [complex(r) for r in roots]
    poly = np.ones(1)
    while remaining:
        r = remaining.pop(0)
        if abs(r.imag) <= IMAG_TOL * max(1.0, abs(r)):
            poly = np.polymul(poly, [1.0, -r.real])
            continue
        conj = r.conjugate()
        for i, other in enumerate(remaining):
            if abs(other - conj) <= 1e-9 * max(1.0, abs(conj)):
                remaining.pop(i)
                break
        else:
            raise ConfigError(f"complex pole {r} has no conjugate partner; "
                              "pole set must be closed under conjugation")
        poly = np.polymul(poly, [1.0, -2.0 * r.real, abs(r) ** 2])
    return poly


def ackermann_gain(plant: st.PlantStateSpace, poles) -> np.ndarray:
    """Full-state feedback gain placing all four closed-loop poles.

    k = e.P(A) where e is the last row of the inverse controllability matrix
    and P the desired characteristic polynomial. The achieved spectrum is
    verified against the request before returning. The independent oracle
    for a full-state gain built from a sliding vector, k = eta (A - lambda4 I):
    it places an arbitrary pole set, complex pairs folded by
    ``_real_polynomial``, instead of building P from a layout.
    """
    poles = list(poles)
    if len(poles) != len(plant.B):
        raise ConfigError(f"need {len(plant.B)} poles, got {len(poles)}")
    k = _apply(ackermann_rows(plant), _real_polynomial(poles)[None])
    wanted = np.array([[complex(p) for p in poles]])
    err = float(_placement_error((plant.A - np.outer(plant.B, k[0]))[None], wanted)[0])
    if err > POLE_PLACEMENT_TOL:
        raise NumericalError(f"pole placement failed for {wanted[0]} "
                             f"(relative error {err:.3e})")
    return k[0]


def control_law(controller: st.FeedbackLaw, z) -> tuple[float, float]:
    """(s, u) of ``controller`` at state z, written out once for the tests.

    s = gain . z, summed as (g0 z0 + g2 z2) + (g1 z1 + g3 z3). Without a
    relay u = -s; with a relay (M0, epsilon) u is the saturated relay:
    -M0 sign(s) outside the boundary layer |s| <= epsilon and the ramp
    -M0 s / epsilon inside it. ``simulate`` inlines the same law in its step
    loop, so the stored u and sigma of a trace must equal this, bit for bit.
    """
    g0, g1, g2, g3 = controller.gain
    z0, z1, z2, z3 = np.asarray(z, dtype=float).tolist()
    s = (g0 * z0 + g2 * z2) + (g1 * z1 + g3 * z3)
    if controller.relay is None:
        return s, 0.0 - s  # +0.0, never -0.0, when s is zero
    M0, epsilon = controller.relay
    if s > epsilon:
        return s, -M0
    if s < -epsilon:
        return s, M0
    return s, -M0 * s / epsilon


def mechanical_energy(trace: st.SimulationTrace, modal: st.ModalModel,
                      atmd: st.AtmdParams) -> np.ndarray:
    """Kinetic plus elastic energy of the reduced structure and the damper.

    E = 1/2 m0 z4^2 + 1/2 m_d (z4 + z3)^2 + 1/2 k0 z2^2 + 1/2 k_d z1^2.
    With the actuator off, no friction, and no excitation this cannot grow.
    """
    z1, z2, z3, z4 = (trace.z[:, i] for i in range(4))
    return (0.5 * modal.m0 * z4 ** 2 + 0.5 * atmd.m_d * (z4 + z3) ** 2
            + 0.5 * modal.k0 * z2 ** 2 + 0.5 * atmd.k_d * z1 ** 2)


def reference_rk4(plant: st.PlantStateSpace, controller, quake: st.Accelerogram, t_end: float,
                  mu_d: float = 0.0, dt: float | None = None, z0=None) -> st.SimulationTrace:
    """The numpy RK4 loop that ``simulate`` replaced, kept as its oracle.

    Same integration scheme, but on length-4 arrays with BLAS matvecs and
    ``control_law`` per step.
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

    is_smc = controller.relay is not None
    Z = np.empty((n + 1, 4))
    U = np.empty(n + 1)
    S = np.zeros(n + 1)
    Z[0] = z
    if is_smc:
        S[0] = control_law(controller, z)[0]

    half = 0.5 * dt
    sixth = dt / 6.0
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for i in range(n):
            u = control_law(controller, z)[1]
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
                S[i + 1] = control_law(controller, z)[0]
        U[n] = control_law(controller, z)[1]

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
