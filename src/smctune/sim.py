"""Nonlinear closed-loop time-domain simulation under ground excitation.

Integrates dz/dt = A z + B (u - f(z3)) + D xg_dd with fixed-step RK4. The
control force is held constant over each sample interval (zero-order hold, as
a digital controller would), the Coulomb friction f(z3) = mu_d sign(z3) is
evaluated inside every stage, and the ground acceleration is interpolated
linearly at the half-step times. With each stage's force held, one step is an
affine map of the state, the four stage forces and the three excitation
samples; ``rk4_map`` gives its coefficients, and ``simulate`` builds them once
per run and applies them at every step. While friction keeps its sign through
a step, the four stage forces are one number, and the step applies it once,
through the sum of the map's four force columns. A record read from CSV is
resampled to RESAMPLE_DT and labelled with its file's stem;
``simulate(dt=...)`` sets the step of a run.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from itertools import chain
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import (ConfigError, NumericalError, finite_number, finite_numbers, nonnegative_number,
                     positive_number, read_text)
from .output import write_table
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
    "rk4_map",
    "write_trace_csv",
]

#: Most samples a loaded record and most steps a simulation may have: 2000 s
#: at 1 ms. The arrays are sized from the record's time span and ``dt``, so a
#: two-line file or a tiny ``dt`` could otherwise ask for gigabytes.
MAX_RECORD_SAMPLES = 2_000_000
#: sample interval of every record ``load_accelerogram`` reads, s
RESAMPLE_DT = 1e-3
#: steps whose excitation terms ``simulate`` computes at a time
STEP_BLOCK = 512
#: halvings of (0, dt) that locate the largest stable step of a boundary layer
BISECTIONS = 40


@dataclass(frozen=True)
class Accelerogram:
    """Uniformly sampled ground acceleration record (m/s^2): a positive ``dt``
    and a non-empty 1-D array of finite numbers, stored as float64 (a float64
    array is kept, not copied)."""

    dt: float
    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "dt", positive_number("sample interval", self.dt))
        try:
            samples = np.asarray(self.samples)
        except ValueError as exc:   # a ragged sequence
            raise ConfigError("accelerogram samples must be one sequence of numbers") from exc
        if samples.dtype.kind not in "iuf" or samples.ndim != 1 or not len(samples):
            raise ConfigError(f"accelerogram samples must be a non-empty 1-D array of numbers, "
                              f"got shape {samples.shape} of {samples.dtype}")
        object.__setattr__(self, "samples", samples.astype(float, copy=False))
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


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _parse_quake_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Accept either two-column (t, accel) rows or a 'dt,<value>' header
    followed by one acceleration per line. Returns (t, accel). Blank lines
    and lines starting with '#' are skipped; the first other line may
    instead hold column names, none of which reads as a number. Only trailing
    cells of a row may be empty."""
    linenos, widths, values = [], set(), []
    dt_header = None
    names_allowed = True
    for lineno, raw in enumerate(csv.reader(io.StringIO(read_text(path), newline="")), start=1):
        cells = [c.strip() for c in raw]
        while cells and not cells[-1]:
            cells.pop()
        if not cells or cells[0].startswith("#"):
            continue
        if "" in cells:
            raise ConfigError(f"{path}:{lineno}: empty cell in row {cells!r}")
        names_line, names_allowed = names_allowed, False
        if dt_header is None and not linenos and cells[0].lower() == "dt":
            if len(cells) != 2 or not _is_number(cells[1]):
                raise ConfigError(f"{path}:{lineno}: malformed dt header")
            dt_header = positive_number(f"{path}:{lineno}: dt header", float(cells[1]))
            continue
        try:
            values.extend([float(c) for c in cells])
        except ValueError as exc:
            if names_line and not any(map(_is_number, cells)):
                continue
            raise ConfigError(f"{path}:{lineno}: non-numeric row {cells!r}") from exc
        linenos.append(lineno)
        widths.add(len(cells))
    if not linenos:
        raise ConfigError(f"{path}: no data rows found")

    if dt_header is not None:
        if widths != {1}:
            raise ConfigError(f"{path}: dt-header format expects exactly one value per row")
        return np.arange(len(values)) * dt_header, np.array(values)
    if widths == {2}:
        t, acc = np.array(values).reshape(-1, 2).T
        for i in np.flatnonzero(~np.isfinite(t))[:1]:   # name the first non-finite time
            finite_number(f"{path}:{linenos[i]}: time", t[i])
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
    scale = positive_number("scale", scale)
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
    duration and dt must be positive and give at most MAX_RECORD_SAMPLES samples,
    and seed must be a non-negative integer.
    """
    duration, dt = positive_number("duration", duration), positive_number("dt", dt)
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
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
    peak = np.max(np.abs(shaped))
    if peak == 0.0:
        raise ConfigError(f"a {duration:g} s record at {dt:g} s is too short to hold any "
                          f"frequency of the {lo:g}-{hi:g} Hz band")
    shaped /= peak
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
        object.__setattr__(self, "gain", finite_numbers(("feedback gain entry",) * 4, self.gain))
        if self.relay is not None:
            relay = finite_numbers(("relay M0", "relay epsilon"), self.relay)
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
    """Closed-loop run on a fixed time grid; channels share one length.
    ``relay`` is the (M0, epsilon) of the SMC law that ran, else None."""

    t: np.ndarray
    z: np.ndarray        # (n, 4): damper stroke, floor displacement, their rates
    u: np.ndarray        # applied control force, N
    sigma: np.ndarray    # sliding variable (zero for non-SMC runs)
    xg: np.ndarray       # ground acceleration at the grid times, m/s^2
    label: str = ""
    relay: tuple[float, float] | None = None


def rk4_map(A, B, D, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of dz/dt = A z + B f + D x as an affine map, and its stage z3 rows.

    With the force of stage s held at f_s and the ground acceleration at x0,
    xm, x1 (start, middle and end of the step), every stage state and the
    next state are linear in v = (z0, z1, z2, z3, f1, f2, f3, f4, x0, xm, x1).
    Returns (N, W): N (4, 11) maps v to the next state, and row s - 2 of
    W (3, 11) maps v to z3 of the stage-s state, s = 2, 3, 4, from which
    that stage's friction sign is taken. The homogeneous part N[:, :4] is
    Phi = sum_{k<=4} (A dt)^k / k!, and the sum of the four f columns is
    Gamma = dt sum_{k<=3} (A dt)^k / (k + 1)! B, the map of a step whose four
    stage forces are one number.

    The stages are pushed through on the coefficients exactly as the step
    runs them, with elementwise products and every row of A y summed as
    (a0 y0 + a2 y2) + (a1 y1 + a3 y3): no BLAS, so the coefficients are the
    same on any host. ``dt`` must be finite and positive.
    """
    dt = positive_number("dt", dt)
    A, B, D = (np.asarray(M, dtype=float) for M in (A, B, D))
    a0, a1, a2, a3 = (A[:, j, None] for j in range(4))

    def rate(y, f, x):
        """Coefficients of A y + B f_s + D x for stage coefficients y (4, 11)."""
        k = (a0 * y[0] + a2 * y[2]) + (a1 * y[1] + a3 * y[3])
        k[:, f] += B
        k[:, x] += D
        return k

    y1 = np.zeros((4, 11))
    y1[range(4), range(4)] = 1.0
    k1 = rate(y1, 4, 8)
    y2 = y1 + (0.5 * dt) * k1
    k2 = rate(y2, 5, 9)
    y3 = y1 + (0.5 * dt) * k2
    k3 = rate(y3, 6, 9)
    y4 = y1 + dt * k3
    k4 = rate(y4, 7, 10)
    N = y1 + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return N, np.array([y2[2], y3[2], y4[2]])


def _gamma(N: np.ndarray) -> np.ndarray:
    """Gamma of an ``rk4_map`` N: its four force columns summed left to right,
    the next state's response to one force held through all four stages."""
    return N[:, 4] + N[:, 5] + N[:, 6] + N[:, 7]


def _in_layer_radius(plant: PlantStateSpace, controller: FeedbackLaw, dt: float) -> float:
    """Spectral radius of the sampled in-layer loop Phi - Gamma (M0/epsilon) eta^T."""
    N, _ = rk4_map(plant.A, plant.B, plant.D, dt)
    M0, epsilon = controller.relay
    loop = N[:, :4] - (M0 / epsilon) * np.outer(_gamma(N), controller.gain)
    return float(np.max(np.abs(np.linalg.eigvals(loop))))


def _check_boundary_layer(plant: PlantStateSpace, controller: FeedbackLaw, dt: float) -> None:
    """Refuse a relay whose in-layer loop, held over each step, is unstable at dt.

    The message names the largest stable step, found by BISECTIONS halvings
    of (0, dt)."""
    rho = _in_layer_radius(plant, controller, dt)
    if rho < 1.0:
        return
    lo, hi = 0.0, dt
    for _ in range(BISECTIONS):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _in_layer_radius(plant, controller, mid) < 1.0 else (lo, mid)
    advice = (f"the largest stable dt is about {lo:.4g} s" if lo > 0.0
              else "no step is stable")
    raise ConfigError(f"{controller.label or 'relay'}: the boundary layer is unstable at "
                      f"dt={dt:g} s (the in-layer loop, held over each step, has spectral "
                      f"radius {rho:.4g}); {advice}")


def simulate(plant: PlantStateSpace, controller: FeedbackLaw, quake: Accelerogram,
             t_end: float, mu_d: float = 0.0, dt: float | None = None,
             z0=None) -> SimulationTrace:
    """Fixed-step RK4 run from rest (or ``z0``) for ``t_end`` seconds.

    ``dt`` defaults to the record's sample interval, and ``z0`` must be four
    finite numbers. The round(t_end / dt) steps must not pass the record.
    The controller gives the force once per step, and it is held; friction
    and excitation vary inside the step. A relay whose
    boundary layer is unstable at ``dt`` once sampled is refused with
    ``ConfigError``. Each step applies the coefficients of ``rk4_map``, built
    once per run: the friction sign of each stage is read from that stage's
    z3, so friction is evaluated in all four stages. When the four stage
    forces are equal as floats (always with ``mu_d = 0``), the step takes
    Phi z + Gamma f1 + the excitation terms, and the stage-3 and -4 z3 rows
    use their force coefficients summed once the earlier forces are equal;
    only a step in which friction changes sign applies the four forces
    column by column. The step runs on Python floats, with every sum in a
    fixed order, so repeated runs are bit-identical.
    """
    if not isinstance(controller, FeedbackLaw):
        raise ConfigError(f"unknown controller type {type(controller).__name__}")
    dt = quake.dt if dt is None else positive_number("dt", dt)
    t_end = positive_number("t_end", t_end)
    mu_d = nonnegative_number("mu_d", mu_d)
    if t_end > quake.duration + 1e-12:
        raise ConfigError(f"t_end={t_end} s exceeds the record length {quake.duration} s")
    steps = t_end / dt
    if not steps <= MAX_RECORD_SAMPLES:  # also inf
        raise ConfigError(f"t_end / dt = {steps:g} steps exceeds the limit of "
                          f"{MAX_RECORD_SAMPLES}")
    n = int(round(steps))
    if n == 0:
        raise ConfigError(f"t_end={t_end} s is under half a step of dt={dt} s: no step to run")
    fit = math.floor((quake.duration + 1e-12) / dt)   # the most steps the record holds
    if n > fit:
        raise ConfigError(f"t_end={t_end} s at dt={dt} s runs to {n * dt} s, past the record's "
                          f"end at {quake.duration} s; the longest t_end that fits is {fit * dt} s")

    y0, y1, y2, y3 = (0.0,) * 4 if z0 is None else finite_numbers(("z0 entry",) * 4, z0)
    relay = controller.relay is not None
    if relay:
        _check_boundary_layer(plant, controller, dt)

    # excitation on the half-step grid: index 2i is t_i, 2i+1 is t_i + dt/2
    t_half = 0.5 * dt * np.arange(2 * n + 1)
    xg_half = np.interp(t_half, quake.time(), quake.samples)

    Z = np.empty((4, n + 1))   # by channel, so a step stores at index i; the trace holds Z.T
    U = np.empty(n + 1)
    S = np.zeros(n + 1)
    z0v, z1v, z2v, z3v, uv, sv = (memoryview(a) for a in (*Z, U, S))

    N, W = rk4_map(plant.A, plant.B, plant.D, dt)
    (p00, p01, p02, p03, q00, q01, q02, q03), (p10, p11, p12, p13, q10, q11, q12, q13), \
        (p20, p21, p22, p23, q20, q21, q22, q23), (p30, p31, p32, p33, q30, q31, q32, q33) \
        = N[:, :8].tolist()
    G0, G1, G2, G3 = _gamma(N).tolist()
    w20, w21, w22, w23, w2a = W[0, :5].tolist()
    w30, w31, w32, w33, w3a, w3b = W[1, :6].tolist()
    w40, w41, w42, w43, w4a, w4b, w4c = W[2, :7].tolist()
    w3s, w4s = w3a + w3b, (w4a + w4b) + w4c   # the z3 rows under one force
    # the excitation terms of the 3 stage z3 rows and the 4 next-state rows
    X = np.concatenate([W[:, 8:], N[:, 8:]])[:, :, None]
    g0, g1, g2, g3 = controller.gain
    M0, eps = controller.relay if relay else (0.0, 1.0)  # read only with a relay

    def block(start):
        """The seven excitation terms of each of the STEP_BLOCK steps from ``start``."""
        x = xg_half[2 * start:2 * min(start + STEP_BLOCK, n) + 1]
        with np.errstate(over="ignore", invalid="ignore"):  # the state check reports it
            return zip(*((X[:, 0] * x[0:-1:2] + X[:, 1] * x[1::2]) + X[:, 2] * x[2::2]).tolist())
    terms = chain.from_iterable(map(block, range(0, n, STEP_BLOCK)))

    for i in range(n + 1):
        z0v[i], z1v[i], z2v[i], z3v[i] = y0, y1, y2, y3
        s = (g0 * y0 + g2 * y2) + (g1 * y1 + g3 * y3)
        if relay:  # saturated relay: -M0 sign(s), ramp -M0 s / eps inside |s| <= eps
            u = -M0 if s > eps else (M0 if s < -eps else -M0 * s / eps)
            sv[i] = s
        else:
            u = 0.0 - s
        uv[i] = u
        if i == n:
            break
        h2, h3, h4, r0, r1, r2, r3 = next(terms)
        # friction force of each stage: u - mu_d sign(stage z3), sign(0) = 0;
        # while the stages agree, their forces are one number f1
        f1 = u - mu_d if y2 > 0.0 else (u + mu_d if y2 < 0.0 else u)
        c = ((w20 * y0 + w22 * y2) + (w21 * y1 + w23 * y3)) + w2a * f1 + h2
        f2 = u - mu_d if c > 0.0 else (u + mu_d if c < 0.0 else u)
        one = f2 == f1
        c = (((w30 * y0 + w32 * y2) + (w31 * y1 + w33 * y3))
             + (w3s * f1 if one else w3a * f1 + w3b * f2) + h3)
        f3 = u - mu_d if c > 0.0 else (u + mu_d if c < 0.0 else u)
        one = one and f3 == f1
        c = (((w40 * y0 + w42 * y2) + (w41 * y1 + w43 * y3))
             + (w4s * f1 if one else (w4a * f1 + w4b * f2) + w4c * f3) + h4)
        f4 = u - mu_d if c > 0.0 else (u + mu_d if c < 0.0 else u)
        if one and f4 == f1:
            y0, y1, y2, y3 = (
                ((p00 * y0 + p02 * y2) + (p01 * y1 + p03 * y3)) + G0 * f1 + r0,
                ((p10 * y0 + p12 * y2) + (p11 * y1 + p13 * y3)) + G1 * f1 + r1,
                ((p20 * y0 + p22 * y2) + (p21 * y1 + p23 * y3)) + G2 * f1 + r2,
                ((p30 * y0 + p32 * y2) + (p31 * y1 + p33 * y3)) + G3 * f1 + r3)
        else:  # friction changes sign inside the step
            y0, y1, y2, y3 = (
                ((p00 * y0 + p02 * y2) + (p01 * y1 + p03 * y3))
                + ((q00 * f1 + q01 * f2) + (q02 * f3 + q03 * f4)) + r0,
                ((p10 * y0 + p12 * y2) + (p11 * y1 + p13 * y3))
                + ((q10 * f1 + q11 * f2) + (q12 * f3 + q13 * f4)) + r1,
                ((p20 * y0 + p22 * y2) + (p21 * y1 + p23 * y3))
                + ((q20 * f1 + q21 * f2) + (q22 * f3 + q23 * f4)) + r2,
                ((p30 * y0 + p32 * y2) + (p31 * y1 + p33 * y3))
                + ((q30 * f1 + q31 * f2) + (q32 * f3 + q33 * f4)) + r3)

    diverged = ~np.isfinite(Z).all(axis=0)
    if diverged.any():
        raise NumericalError(f"state diverged at t={int(np.argmax(diverged)) * dt:.4f} s "
                             f"(controller={controller.label})")
    return SimulationTrace(t=dt * np.arange(n + 1), z=Z.T, u=U, sigma=S,
                           xg=xg_half[::2], label=controller.label, relay=controller.relay)


def summarize(trace: SimulationTrace, window: tuple[float, float] | None = None) -> dict:
    """Per-channel RMS and absolute peak over the window (seconds, inclusive, finite).

    A relay run adds "reaching" over the window's samples: fraction_in_layer
    (share with |sigma| <= epsilon), n_outside (count with |sigma| > epsilon),
    decay_violations (those outside, the last sample excepted, whose
    sigma*dsigma >= 0 to the next) and max_abs_sigma. A figure that is not a
    finite float (a run whose squares overflow) raises ``NumericalError``
    naming it."""
    t = trace.t
    a, b = finite_numbers(("window lower bound", "window upper bound"),
                          (t[0], t[-1]) if window is None else window)   # None: the whole run
    if b < a:
        raise ConfigError(f"window upper bound {b} is below lower bound {a}")
    mask = (t >= a - 1e-12) & (t <= b + 1e-12)
    if not np.any(mask):
        raise ConfigError(f"window {window} contains no samples")
    out = {"window": [a, b], "n_samples": int(np.count_nonzero(mask))}
    # a figure past the float range is refused below; an overflowing product
    # keeps its sign, so the decay count stays exact
    with np.errstate(over="ignore", invalid="ignore"):
        for name, channel in zip(("z1", "z2", "z3", "z4", "u"), (*trace.z.T, trace.u)):
            x = channel[mask]
            out[name] = {"rms": float(np.sqrt(np.mean(x ** 2))),
                         "peak": float(np.max(np.abs(x)))}
        if trace.relay is not None:
            sigma = trace.sigma[mask]
            inside = np.abs(sigma) <= trace.relay[1]
            decay = (sigma[:-1] * np.diff(sigma) >= 0) & ~inside[:-1]
            out["reaching"] = {"fraction_in_layer": float(np.mean(inside)),
                               "n_outside": int(np.count_nonzero(~inside)),
                               "decay_violations": int(np.count_nonzero(decay)),
                               "max_abs_sigma": float(np.max(np.abs(sigma)))}
    for name, figures in out.items():
        if not isinstance(figures, dict):   # window, n_samples
            continue
        for stat, value in figures.items():
            if not math.isfinite(value):
                raise NumericalError(f"{name} {stat} is not a finite float over the window "
                                     f"(controller={trace.label})")
    return out


def write_trace_csv(trace: SimulationTrace, path) -> None:
    """One row per sample: t, z1..z4, u, sigma, xg_dd, each as the shortest
    repr that reads back to the same float (``output.write_table``)."""
    write_table(path, "t,z1,z2,z3,z4,u,sigma,xg_dd",
                (trace.t, trace.z, trace.u, trace.sigma, trace.xg))
