"""Nonlinear closed-loop time-domain simulation under ground excitation.

Integrates dz/dt = A z + B (u - f(z3)) + D xg_dd with fixed-step RK4. The
control force is held constant over each sample interval (zero-order hold, as
a digital controller would), the Coulomb friction f(z3) = mu_d sign(z3) is
evaluated inside every stage, and the ground acceleration is interpolated
linearly at the half-step times. A record read from CSV is resampled to
RESAMPLE_DT and labelled with its file's stem; ``simulate(dt=...)`` sets the
step of a run.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalError, finite_number, read_text, write_table
from .smc import SlidingDesign
from .structure import PlantStateSpace

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
    "write_trace_csv",
]

#: Most samples a loaded record and most steps a simulation may have: 2000 s
#: at 1 ms. The arrays are sized from the record's time span and ``dt``, so a
#: two-line file or a tiny ``dt`` could otherwise ask for gigabytes.
MAX_RECORD_SAMPLES = 2_000_000
#: sample interval of every record ``load_accelerogram`` reads, s
RESAMPLE_DT = 1e-3


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
    for lineno, raw in enumerate(csv.reader(io.StringIO(read_text(path), newline="")), start=1):
        cells = [c.strip() for c in raw if c.strip() != ""]
        if not cells or cells[0].startswith("#"):
            continue
        if dt_header is None and not rows and cells[0].lower() == "dt":
            try:
                dt_header = float(cells[1])
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: malformed dt header") from exc
            dt_header = finite_number(f"{path}:{lineno}: dt header", dt_header)
            if dt_header <= 0:
                raise ConfigError(f"{path}:{lineno}: dt header must be positive, "
                                  f"got {dt_header}")
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
        t = np.array([finite_number(f"{path}:{lineno}: time", v[0]) for lineno, v in rows])
        acc = np.array([v[1] for _, v in rows])
        if np.any(np.diff(t) <= 0):
            raise ConfigError(f"{path}: time column must be strictly increasing")
        return t, acc
    raise ConfigError(f"{path}: expected two columns (t, accel) or a dt header; "
                      f"got rows of width {sorted(widths)}")


def load_accelerogram(path, scale: float = 1.0, scale_mode: str = "factor") -> Accelerogram:
    """Read a ground-motion CSV, resample it linearly to RESAMPLE_DT, and scale it.

    scale_mode "factor" multiplies the record by ``scale``; "pga" rescales so
    the peak absolute acceleration equals ``scale`` (m/s^2). The record's
    label is the file's stem.
    """
    scale = finite_number("scale", scale)
    if scale <= 0:
        raise ConfigError(f"scale must be positive, got {scale}")
    path = Path(path)
    t, acc = _parse_quake_csv(path)

    steps = np.floor((t[-1] - t[0]) / RESAMPLE_DT + 1e-9)
    if not steps < MAX_RECORD_SAMPLES:  # also inf
        raise ConfigError(f"{path}: resampling {t[-1] - t[0]:g} s at {RESAMPLE_DT:g} s "
                          f"needs more than {MAX_RECORD_SAMPLES} samples")
    n_new = int(steps) + 1
    t_new = t[0] + RESAMPLE_DT * np.arange(n_new)
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
    return Accelerogram(dt=RESAMPLE_DT, samples=resampled, label=path.stem)


def synthetic_accelerogram(duration: float = 40.0, dt: float = 0.02,
                           seed: int = 20260810) -> Accelerogram:
    """Deterministic earthquake-like test record "synthetic" with unit peak acceleration.

    Band-limited Gaussian noise (flat over 0.3-12 Hz, raised-cosine
    roll-off) shaped by a rise/strong/decay envelope. Useful when no recorded
    ground motion is at hand; any real record in CSV form can be used instead.
    duration and dt must be positive and give at most MAX_RECORD_SAMPLES samples.
    """
    duration, dt = finite_number("duration", duration), finite_number("dt", dt)
    if duration <= 0 or dt <= 0:
        raise ConfigError(f"duration and dt must be positive, got {duration} and {dt}")
    samples = np.rint(duration / dt) + 1.0
    if not samples <= MAX_RECORD_SAMPLES:  # also inf
        raise ConfigError(f"a {duration:g} s record at {dt:g} s has {samples:.4g} samples, "
                          f"above the limit of {MAX_RECORD_SAMPLES}")
    n = int(samples)
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freq = np.fft.rfftfreq(n, dt)
    lo, hi = 0.3, 12.0
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
    return Accelerogram(dt=dt, samples=shaped, label="synthetic")


@dataclass(frozen=True)
class FeedbackLaw:
    """A controller: static state feedback as ``simulate`` runs it.

    s = gain . z, summed as (g0 z0 + g2 z2) + (g1 z1 + g3 z3). Without a
    relay the force is u = -s; with a relay (M0, epsilon) s is the sliding
    variable and u the saturated relay: -M0 sign(s) outside the boundary layer
    |s| <= epsilon, -M0 s / epsilon inside it. The gain must be four finite
    numbers, and a relay needs finite M0 > 0 and epsilon > 0.
    """

    gain: tuple[float, float, float, float]
    relay: tuple[float, float] | None = None
    label: str = ""

    def __post_init__(self):
        try:
            gain = tuple(finite_number("feedback gain entry", g) for g in self.gain)
        except TypeError:  # not iterable
            gain = ()
        if len(gain) != 4:
            raise ConfigError(f"feedback gain must be 4 finite numbers, got {self.gain!r}")
        object.__setattr__(self, "gain", gain)
        if self.relay is not None:
            M0, epsilon = self.relay
            relay = (finite_number("relay M0", M0), finite_number("relay epsilon", epsilon))
            if not (relay[0] > 0.0 and relay[1] > 0.0):
                raise ConfigError(f"relay needs M0 > 0 and epsilon > 0, got {relay}")
            object.__setattr__(self, "relay", relay)


def PassiveControl(label: str = "passive") -> FeedbackLaw:
    """Mass damper with the actuator off (plain TMD): gain zero, u = 0."""
    return FeedbackLaw((0.0, 0.0, 0.0, 0.0), label=label)


def SmcControl(design: SlidingDesign, label: str = "smc") -> FeedbackLaw:
    """Saturated sliding-mode force from a completed design (M0 set): gain eta."""
    if design.M0 is None:
        raise ConfigError("SmcControl needs a design with the switching gain M0 set")
    return FeedbackLaw(design.eta, (design.M0, design.epsilon), label)


def LqrControl(gain, label: str = "lqr") -> FeedbackLaw:
    """Linear state feedback u = -k.z."""
    return FeedbackLaw(gain, label=label)


@dataclass(frozen=True)
class SimulationTrace:
    """Closed-loop run on a fixed time grid; channels share one length."""

    t: np.ndarray
    z: np.ndarray        # (n, 4): damper stroke, floor displacement, their rates
    u: np.ndarray        # applied control force, N
    sigma: np.ndarray    # sliding variable (zero for non-SMC runs)
    xg: np.ndarray       # ground acceleration at the grid times, m/s^2
    label: str = ""


def simulate(plant: PlantStateSpace, controller: FeedbackLaw, quake: Accelerogram,
             t_end: float, mu_d: float = 0.0, dt: float | None = None,
             z0=None) -> SimulationTrace:
    """Fixed-step RK4 run from rest (or ``z0``) for ``t_end`` seconds.

    ``dt`` defaults to the record's sample interval, and ``z0`` must be four
    finite numbers. The controller gives the force once per step, and it is
    held; friction and excitation vary inside the step. The step runs on
    Python floats, with every sum in a fixed order, so repeated runs are
    bit-identical.
    """
    if not isinstance(controller, FeedbackLaw):
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
    steps = t_end / dt
    if not steps <= MAX_RECORD_SAMPLES:  # also inf
        raise ConfigError(f"t_end / dt = {steps:g} steps exceeds the limit of "
                          f"{MAX_RECORD_SAMPLES}")
    n = int(round(steps))

    # excitation on the half-step grid: index 2i is t_i, 2i+1 is t_i + dt/2
    t_half = 0.5 * dt * np.arange(2 * n + 1)
    xg_half = np.interp(t_half, quake.time(), quake.samples)

    try:
        z = [0.0] * 4 if z0 is None else [finite_number("z0 entry", v) for v in z0]
    except TypeError:  # not iterable
        z = []
    if len(z) != 4:
        raise ConfigError(f"z0 must be 4 finite numbers, got {z0!r}")

    Z = np.empty((n + 1, 4))
    U = np.empty(n + 1)
    S = np.zeros(n + 1)
    zv, uv, sv, xv = (memoryview(a) for a in (Z.reshape(-1), U, S, xg_half))

    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), \
        (a30, a31, a32, a33) = plant.A.tolist()
    b0, b1, b2, b3 = plant.B.tolist()
    d0, d1, d2, d3 = plant.D.tolist()
    g0, g1, g2, g3 = controller.gain
    relay = controller.relay is not None
    M0, eps = controller.relay if relay else (0.0, 1.0)  # read only with a relay

    def rate(y0, y1, y2, y3, u, x):
        """A y + B (u - mu_d sign(y2)) + D x, each row summed as
        ((a0 y0 + a2 y2) + (a1 y1 + a3 y3)) + b f + d x."""
        f = u - mu_d if y2 > 0.0 else (u + mu_d if y2 < 0.0 else u)
        return (((a00 * y0 + a02 * y2) + (a01 * y1 + a03 * y3)) + b0 * f + d0 * x,
                ((a10 * y0 + a12 * y2) + (a11 * y1 + a13 * y3)) + b1 * f + d1 * x,
                ((a20 * y0 + a22 * y2) + (a21 * y1 + a23 * y3)) + b2 * f + d2 * x,
                ((a30 * y0 + a32 * y2) + (a31 * y1 + a33 * y3)) + b3 * f + d3 * x)

    y0, y1, y2, y3 = z
    zv[0], zv[1], zv[2], zv[3] = y0, y1, y2, y3
    half = 0.5 * dt
    sixth = dt / 6.0
    isfinite = math.isfinite
    x1 = xv[0]
    for i in range(n + 1):
        s = (g0 * y0 + g2 * y2) + (g1 * y1 + g3 * y3)
        if relay:  # saturated relay: -M0 sign(s), ramp -M0 s / eps inside |s| <= eps
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
    """Per-channel RMS and absolute peak over the window (seconds, inclusive, finite)."""
    t = trace.t
    if window is None:
        mask = np.ones(len(t), dtype=bool)
        window = (float(t[0]), float(t[-1]))
    else:
        a, b = window
        a, b = finite_number("window lower bound", a), finite_number("window upper bound", b)
        if b < a:
            raise ConfigError(f"window upper bound {b} is below lower bound {a}")
        mask = (t >= a - 1e-12) & (t <= b + 1e-12)
        if not np.any(mask):
            raise ConfigError(f"window {window} contains no samples")
    out = {"window": [float(window[0]), float(window[1])],
           "n_samples": int(np.count_nonzero(mask))}
    for name, channel in zip(("z1", "z2", "z3", "z4", "u"), (*trace.z.T, trace.u)):
        x = channel[mask]
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
    """Boundary-layer occupancy and the discrete decay surrogate sigma*dsigma < 0.

    Reads the sliding variable the simulator stored. A passive or LQR run
    stores sigma = 0, so a trace that moved with an all-zero sigma is
    rejected rather than reported as lying in the layer throughout.
    """
    sigma = trace.sigma
    if not np.any(sigma) and np.any(trace.z):
        raise ConfigError(f"trace {trace.label!r} stores no sliding variable; "
                          "reaching_check needs a sliding-mode run")
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


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """One row per sample: t, z1..z4, u, sigma, xg_dd, each as the shortest
    repr that reads back to the same float (``errors.write_table``)."""
    write_table(path, "t,z1,z2,z3,z4,u,sigma,xg_dd",
                (trace.t, trace.z, trace.u, trace.sigma, trace.xg))
