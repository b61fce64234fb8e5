"""Nonlinear closed-loop time-domain simulation under ground excitation.

Integrates dz/dt = A z + B (u - f(z3)) + D xg_dd with fixed-step RK4. The
control force is held constant over each sample interval (zero-order hold, as
a digital controller would), the Coulomb friction f(z3) = mu_d sign(z3) is
evaluated inside every stage, and the ground acceleration is interpolated
linearly at the half-step times.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError, finite_number
from .smc import SlidingDesign, control_force
from .structure import AtmdParams, ModalModel, PlantStateSpace

__all__ = [
    "Accelerogram",
    "FeedbackLaw",
    "load_accelerogram",
    "synthetic_accelerogram",
    "PassiveControl",
    "SmcControl",
    "LqrControl",
    "SimulationTrace",
    "simulate",
    "summarize",
    "reaching_check",
    "ReachingReport",
    "mechanical_energy",
    "write_trace_csv",
]


@dataclass(frozen=True)
class Accelerogram:
    """Uniformly sampled ground acceleration record (m/s^2)."""

    dt: float
    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dt", finite_number("sample interval", self.dt))
        if self.dt <= 0:
            raise ConfigError(f"sample interval must be positive, got {self.dt}")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigError("accelerogram contains non-finite samples")

    @property
    def duration(self) -> float:
        return (len(self.samples) - 1) * self.dt

    @property
    def pga(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def time(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.dt


def _parse_quake_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Accept either two-column (t, accel) rows or a 'dt,<value>' header
    followed by one acceleration per line. Returns (t, accel)."""
    rows = []
    dt_header = None
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(csv.reader(fh), start=1):
            cells = [c.strip() for c in raw if c.strip() != ""]
            if not cells or cells[0].startswith("#"):
                continue
            if dt_header is None and not rows and cells[0].lower() == "dt":
                try:
                    dt_header = float(cells[1])
                except (IndexError, ValueError) as exc:
                    raise ConfigError(f"{path}:{lineno}: malformed dt header") from exc
                continue
            try:
                values = [float(c) for c in cells]
            except ValueError as exc:
                if lineno == 1:  # a column-name header line is fine
                    continue
                raise ConfigError(f"{path}:{lineno}: non-numeric row {cells!r}") from exc
            rows.append((lineno, values))
    if not rows:
        raise ConfigError(f"{path}: no data rows found")

    widths = {len(v) for _, v in rows}
    if dt_header is not None:
        if widths != {1}:
            raise ConfigError(f"{path}: dt-header format expects exactly one value per row")
        acc = np.array([v[0] for _, v in rows])
        return np.arange(len(acc)) * dt_header, acc
    if widths == {2}:
        t = np.array([v[0] for _, v in rows])
        acc = np.array([v[1] for _, v in rows])
        if np.any(np.diff(t) <= 0):
            raise ConfigError(f"{path}: time column must be strictly increasing")
        return t, acc
    raise ConfigError(f"{path}: expected two columns (t, accel) or a dt header; "
                      f"got rows of width {sorted(widths)}")


def load_accelerogram(path, scale: float = 1.0, resample_dt: float = 1e-3,
                      scale_mode: str = "factor", label: str | None = None) -> Accelerogram:
    """Read a ground-motion CSV, resample it linearly, and scale it.

    scale_mode "factor" multiplies the record by ``scale``; "pga" rescales so
    the peak absolute acceleration equals ``scale`` (m/s^2).
    """
    scale = finite_number("scale", scale)
    resample_dt = finite_number("resample_dt", resample_dt)
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    if resample_dt <= 0:
        raise ConfigError(f"resample_dt must be positive, got {resample_dt}")
    path = Path(path)
    t, acc = _parse_quake_csv(path)

    n_new = int(np.floor((t[-1] - t[0]) / resample_dt + 1e-9)) + 1
    t_new = t[0] + resample_dt * np.arange(n_new)
    resampled = np.interp(t_new, t, acc)

    if scale_mode == "factor":
        resampled = resampled * scale
    elif scale_mode == "pga":
        peak = np.max(np.abs(resampled))
        if peak == 0.0:
            raise ConfigError(f"{path}: cannot scale an all-zero record to a target peak")
        resampled = resampled * (scale / peak)
    else:
        raise ConfigError(f"scale_mode must be 'factor' or 'pga', got {scale_mode!r}")
    return Accelerogram(dt=resample_dt, samples=resampled,
                        label=label if label is not None else path.stem)


def synthetic_accelerogram(duration: float = 40.0, dt: float = 0.02, seed: int = 20260810,
                           band_hz: tuple[float, float] = (0.3, 12.0),
                           label: str = "synthetic") -> Accelerogram:
    """Deterministic earthquake-like test record with unit peak acceleration.

    Band-limited Gaussian noise (flat between the band edges, raised-cosine
    roll-off) shaped by a rise/strong/decay envelope. Useful when no recorded
    ground motion is at hand; any real record in CSV form can be used instead.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration / dt)) + 1
    t = np.arange(n) * dt
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freq = np.fft.rfftfreq(n, dt)
    lo, hi = band_hz
    gain = np.where((freq >= lo) & (freq <= hi), 1.0, 0.0)
    ramp = (freq > lo / 3.0) & (freq < lo)
    gain[ramp] = 0.5 - 0.5 * np.cos(np.pi * (freq[ramp] - lo / 3.0) / (lo - lo / 3.0))
    roll = (freq > hi) & (freq < hi * 1.2)
    gain[roll] = 0.5 + 0.5 * np.cos(np.pi * (freq[roll] - hi) / (hi * 0.2))
    motion = np.fft.irfft(spectrum * gain, n)

    rise_end, strong_end, decay_tau, quiet_after = 4.0, 18.0, 6.0, 35.0
    envelope = np.where(t < rise_end, (t / rise_end) ** 2,
                        np.where(t < strong_end, 1.0, np.exp(-(t - strong_end) / decay_tau)))
    envelope[t > quiet_after] = 0.0
    shaped = motion * envelope
    shaped /= np.max(np.abs(shaped))
    return Accelerogram(dt=dt, samples=shaped, label=label)


@dataclass(frozen=True)
class FeedbackLaw:
    """Static state feedback as ``simulate`` runs it.

    s = gain . z, summed as (g0 z0 + g2 z2) + (g1 z1 + g3 z3). Without a
    relay the force is u = -s; with a relay (M0, epsilon) it is the saturated
    relay ``control_force(s, M0, epsilon)`` and s is the sliding variable.
    """

    gain: tuple[float, float, float, float]
    relay: tuple[float, float] | None = None

    def sigma(self, z) -> float:
        g0, g1, g2, g3 = self.gain
        z0, z1, z2, z3 = np.asarray(z, dtype=float).tolist()
        return (g0 * z0 + g2 * z2) + (g1 * z1 + g3 * z3)

    def force(self, z) -> float:
        s = self.sigma(z)
        if self.relay is None:
            return 0.0 - s  # +0.0, never -0.0, when s is zero
        return control_force(s, *self.relay)


@dataclass(frozen=True)
class PassiveControl:
    """Mass damper with the actuator off (plain TMD)."""

    label: str = "passive"

    @property
    def law(self) -> FeedbackLaw:
        return FeedbackLaw((0.0, 0.0, 0.0, 0.0))

    def force(self, z) -> float:
        return self.law.force(z)


@dataclass(frozen=True)
class SmcControl:
    """Saturated sliding-mode force from a completed design (M0 set)."""

    design: SlidingDesign
    label: str = "smc"

    def __post_init__(self):
        if self.design.M0 is None:
            raise ConfigError("SmcControl needs a design with the switching gain M0 set")

    @property
    def law(self) -> FeedbackLaw:
        return FeedbackLaw(tuple(self.design.eta.tolist()),
                           (self.design.M0, self.design.epsilon))

    def force(self, z) -> float:
        return self.law.force(z)

    def sigma(self, z) -> float:
        return self.law.sigma(z)


@dataclass(frozen=True)
class LqrControl:
    """Linear state feedback u = -k.z."""

    gain: np.ndarray
    label: str = "lqr"

    def __post_init__(self):
        gain = np.asarray(self.gain, dtype=float)
        if gain.shape != (4,) or not np.all(np.isfinite(gain)):
            raise ConfigError(f"LQR gain must be 4 finite numbers, got {self.gain!r}")
        object.__setattr__(self, "gain", gain)

    @property
    def law(self) -> FeedbackLaw:
        return FeedbackLaw(tuple(self.gain.tolist()))

    def force(self, z) -> float:
        return self.law.force(z)


@dataclass(frozen=True)
class SimulationTrace:
    """Closed-loop run on a fixed time grid; channels share one length."""

    t: np.ndarray
    z: np.ndarray        # (n, 4): damper stroke, floor displacement, their rates
    u: np.ndarray        # applied control force, N
    sigma: np.ndarray    # sliding variable (zero for non-SMC runs)
    xg: np.ndarray       # ground acceleration at the grid times, m/s^2
    label: str = ""

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    def channel(self, name: str) -> np.ndarray:
        idx = {"z1": 0, "z2": 1, "z3": 2, "z4": 3}
        if name in idx:
            return self.z[:, idx[name]]
        if name == "u":
            return self.u
        if name == "sigma":
            return self.sigma
        raise KeyError(name)


def simulate(plant: PlantStateSpace, controller, quake: Accelerogram, t_end: float,
             mu_d: float = 0.0, dt: float | None = None, z0=None) -> SimulationTrace:
    """Fixed-step RK4 run from rest (or ``z0``) for ``t_end`` seconds.

    ``dt`` defaults to the record's sample interval. The controller's
    feedback law gives the force once per step, and it is held; friction and
    excitation vary inside the step. The step runs on Python floats, with
    every sum in a fixed order, so repeated runs are bit-identical.
    """
    if not isinstance(controller, (PassiveControl, SmcControl, LqrControl)):
        raise ConfigError(f"unknown controller type {type(controller).__name__}")
    dt = quake.dt if dt is None else finite_number("dt", dt)
    t_end = finite_number("t_end", t_end)
    mu_d = finite_number("mu_d", mu_d)
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

    z = np.zeros(4) if z0 is None else np.asarray(z0, dtype=float)
    if z.shape != (4,):
        raise ConfigError("z0 must have 4 entries")
    if not np.all(np.isfinite(z)):
        raise ConfigError("z0 must be finite")

    Z = np.empty((n + 1, 4))
    U = np.empty(n + 1)
    S = np.zeros(n + 1)
    zv, uv, sv, xv = (memoryview(a) for a in (Z.reshape(-1), U, S, xg_half))

    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), \
        (a30, a31, a32, a33) = plant.A.tolist()
    b0, b1, b2, b3 = plant.B.tolist()
    d0, d1, d2, d3 = plant.D.tolist()
    law = controller.law
    g0, g1, g2, g3 = law.gain
    relay = law.relay is not None
    M0, eps = law.relay if relay else (0.0, 1.0)  # read only with a relay

    def rate(y0, y1, y2, y3, u, x):
        """A y + B (u - mu_d sign(y2)) + D x, each row summed as
        ((a0 y0 + a2 y2) + (a1 y1 + a3 y3)) + b f + d x."""
        f = u - mu_d if y2 > 0.0 else (u + mu_d if y2 < 0.0 else u)
        return (((a00 * y0 + a02 * y2) + (a01 * y1 + a03 * y3)) + b0 * f + d0 * x,
                ((a10 * y0 + a12 * y2) + (a11 * y1 + a13 * y3)) + b1 * f + d1 * x,
                ((a20 * y0 + a22 * y2) + (a21 * y1 + a23 * y3)) + b2 * f + d2 * x,
                ((a30 * y0 + a32 * y2) + (a31 * y1 + a33 * y3)) + b3 * f + d3 * x)

    y0, y1, y2, y3 = z.tolist()
    zv[0], zv[1], zv[2], zv[3] = y0, y1, y2, y3
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    x1 = xv[0]
    for i in range(n + 1):
        s = (g0 * y0 + g2 * y2) + (g1 * y1 + g3 * y3)
        if relay:  # control_force(s, M0, eps), inlined
            u = -M0 if s > eps else (M0 if s < -eps else -M0 * s / eps)
            sv[i] = s
        else:
            u = 0.0 - s
        uv[i] = u
        if i == n:
            break
        x0, xm, x1 = x1, xv[2 * i + 1], xv[2 * i + 2]
        k10, k11, k12, k13 = rate(y0, y1, y2, y3, u, x0)
        k20, k21, k22, k23 = rate(y0 + half * k10, y1 + half * k11,
                                  y2 + half * k12, y3 + half * k13, u, xm)
        k30, k31, k32, k33 = rate(y0 + half * k20, y1 + half * k21,
                                  y2 + half * k22, y3 + half * k23, u, xm)
        k40, k41, k42, k43 = rate(y0 + dt * k30, y1 + dt * k31,
                                  y2 + dt * k32, y3 + dt * k33, u, x1)
        y0 = y0 + sixth * (k10 + 2.0 * (k20 + k30) + k40)
        y1 = y1 + sixth * (k11 + 2.0 * (k21 + k31) + k41)
        y2 = y2 + sixth * (k12 + 2.0 * (k22 + k32) + k42)
        y3 = y3 + sixth * (k13 + 2.0 * (k23 + k33) + k43)
        if not (isfinite(y0) and isfinite(y1) and isfinite(y2) and isfinite(y3)):
            raise NumericalError(f"state diverged at t={(i + 1) * dt:.4f} s "
                                 f"(controller={controller.label})")
        j = 4 * i + 4
        zv[j], zv[j + 1], zv[j + 2], zv[j + 3] = y0, y1, y2, y3

    return SimulationTrace(t=dt * np.arange(n + 1), z=Z, u=U, sigma=S,
                           xg=xg_half[::2], label=controller.label)


def summarize(trace: SimulationTrace, window: tuple[float, float] | None = None) -> dict:
    """Per-channel RMS and absolute peak over the window (seconds, inclusive)."""
    t = trace.t
    if window is None:
        mask = np.ones(len(t), dtype=bool)
        window = (float(t[0]), float(t[-1]))
    else:
        a, b = window
        if b < a:
            raise ConfigError(f"window upper bound {b} is below lower bound {a}")
        mask = (t >= a - 1e-12) & (t <= b + 1e-12)
        if not np.any(mask):
            raise ConfigError(f"window {window} contains no samples")
    out = {"window": [float(window[0]), float(window[1])],
           "n_samples": int(np.count_nonzero(mask))}
    for name in ("z1", "z2", "z3", "z4", "u"):
        x = trace.channel(name)[mask]
        out[name] = {"rms": float(np.sqrt(np.mean(x ** 2))),
                     "peak": float(np.max(np.abs(x)))}
    return out


@dataclass(frozen=True)
class ReachingReport:
    """How tightly the trajectory hugs the sliding plane."""

    fraction_in_layer: float     # share of samples with |sigma| <= epsilon
    n_outside: int               # samples strictly outside the boundary layer
    decay_violations: int        # samples outside the layer with sigma*dsigma >= 0
    max_abs_sigma: float


def reaching_check(trace: SimulationTrace, design: SlidingDesign) -> ReachingReport:
    """Boundary-layer occupancy and the discrete decay surrogate sigma*dsigma < 0."""
    sigma = trace.z @ design.eta
    eps = design.epsilon
    inside = np.abs(sigma) <= eps
    dsigma = np.diff(sigma)
    outside_start = ~inside[:-1]
    violations = int(np.count_nonzero((sigma[:-1] * dsigma >= 0) & outside_start))
    return ReachingReport(
        fraction_in_layer=float(np.mean(inside)),
        n_outside=int(np.count_nonzero(~inside)),
        decay_violations=violations,
        max_abs_sigma=float(np.max(np.abs(sigma))),
    )


def mechanical_energy(trace: SimulationTrace, modal: ModalModel,
                      atmd: AtmdParams) -> np.ndarray:
    """Kinetic plus elastic energy of the reduced structure and the damper.

    E = 1/2 m0 z4^2 + 1/2 m_d (z4 + z3)^2 + 1/2 k0 z2^2 + 1/2 k_d z1^2.
    With the actuator off, no friction, and no excitation this cannot grow.
    """
    z1, z2, z3, z4 = (trace.z[:, i] for i in range(4))
    return (0.5 * modal.m0 * z4 ** 2 + 0.5 * atmd.m_d * (z4 + z3) ** 2
            + 0.5 * modal.k0 * z2 ** 2 + 0.5 * atmd.k_d * z1 ** 2)


#: rows converted to Python floats at a time. As Python floats a row costs
#: about 300 bytes more than in the trace: a whole 30 000-row trace at once
#: would add about 12 MB to the peak memory of a run, 4096-row blocks 3 MB;
#: 512-row blocks add none measurably and write as fast.
CSV_BLOCK_ROWS = 512


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """One row per sample: t, z1..z4, u, sigma, xg_dd, each as the shortest
    repr that reads back to the same float."""
    with open(path, "w", newline="") as fh:
        fh.write("t,z1,z2,z3,z4,u,sigma,xg_dd\n")
        for start in range(0, len(trace.t), CSV_BLOCK_ROWS):
            block = slice(start, start + CSV_BLOCK_ROWS)
            rows = np.column_stack((trace.t[block], trace.z[block], trace.u[block],
                                    trace.sigma[block], trace.xg[block])).tolist()
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
