"""Shear-building model, first-mode reduction, and the coupled damper plant.

All quantities are strict SI (kg, N/m, N*s/m, m, s). The 4-state plant uses
z = [x_d, x_N, dx_d/dt, dx_N/dt]: stroke of the rooftop damper relative to
the top floor, top-floor displacement relative to the ground, and their
velocities.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, NumericalError, finite_number, finite_numbers, keyed,
                     nonnegative_number, positive_number, read_json_object)

__all__ = [
    "RayleighSpec",
    "BuildingModel",
    "AtmdParams",
    "ExcitationBounds",
    "ModalModel",
    "PlantStateSpace",
    "BuildingSetup",
    "build_shear_building",
    "rayleigh_damping",
    "natural_modes",
    "modal_reduce",
    "assemble_plant",
    "controllability_matrix",
    "controllability_rcond",
    "load_building_config",
    "plant_from_setup",
]

#: reciprocal condition number below which the controllability matrix is
#: treated as singular
CTRB_RCOND_MIN = 1e-12
#: most stories a building may have; M, C and K are dense N x N (24 MB at 1000)
MAX_STORIES = 1000


def _readonly(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RayleighSpec:
    """Proportional damping C = a0*M + a1*K calibrated at the given modes.

    ``pairs`` holds (mode_index, damping_ratio) with 1-based mode indices.
    A single pair selects mass-proportional damping (a1 = 0), which is the
    only option for a single-story model; two pairs need two distinct modes.
    """

    pairs: tuple[tuple[int, float], ...]

    def __post_init__(self):
        given = tuple(self.pairs) if isinstance(self.pairs, Iterable) else ()
        if len(given) not in (1, 2):
            raise ConfigError("Rayleigh damping needs one or two (mode, ratio) pairs")
        pairs = []
        for pair in given:
            mode, ratio = finite_numbers(("Rayleigh mode index", "Rayleigh damping ratio"), pair)
            if int(mode) != mode or mode < 1:
                raise ConfigError(f"mode index must be a positive integer, got {mode}")
            if not 0.0 < ratio < 1.0:
                raise ConfigError(f"damping ratio must lie in (0, 1), got {ratio}")
            pairs.append((int(mode), ratio))
        if len(pairs) == 2 and pairs[0][0] == pairs[1][0]:
            raise ConfigError(f"Rayleigh modes must differ, got mode {pairs[0][0]} twice")
        object.__setattr__(self, "pairs", tuple(pairs))


@dataclass(frozen=True)
class BuildingModel:
    """N-story shear building: diagonal mass, tridiagonal stiffness/damping,
    and the undamped modes of (M, K) from its one ``natural_modes`` solve."""

    M: np.ndarray
    C: np.ndarray
    K: np.ndarray
    frequencies: np.ndarray   # rad/s, ascending
    mode_shapes: np.ndarray   # one column per frequency

    @property
    def n_stories(self) -> int:
        return len(self.M)


@dataclass(frozen=True)
class AtmdParams:
    """Physical parameters of the rooftop mass damper."""

    m_d: float   # moving mass, kg
    k_d: float   # spring stiffness, N/m
    c_d: float   # viscous damping, N*s/m
    mu_d: float = 0.0  # Coulomb friction level, N

    def __post_init__(self):
        object.__setattr__(self, "m_d", positive_number("m_d", self.m_d))
        for name in ("k_d", "c_d", "mu_d"):
            object.__setattr__(self, name, nonnegative_number(name, getattr(self, name)))


@dataclass(frozen=True)
class ExcitationBounds:
    """Known magnitude bounds: peak ground acceleration and friction force."""

    delta: float   # max |ground acceleration|, m/s^2
    varpi: float   # max |friction force|, N

    def __post_init__(self):
        object.__setattr__(self, "delta", positive_number("delta", self.delta))
        object.__setattr__(self, "varpi", nonnegative_number("varpi", self.varpi))


@dataclass(frozen=True)
class ModalModel:
    """Dominant-mode reduction of the building."""

    phi0: np.ndarray   # first mode shape, scaled so the top entry is 1
    m0: float          # modal mass, kg
    c0: float          # modal damping, N*s/m
    k0: float          # modal stiffness, N/m
    beta0: float       # participation factor of the ground acceleration
    omega0: float      # first natural frequency, rad/s


@dataclass(frozen=True)
class PlantStateSpace:
    """4-state model dz/dt = A z + B (u - f(z3)) + D xg_dd."""

    A: np.ndarray
    B: np.ndarray
    D: np.ndarray
    bounds: ExcitationBounds


@dataclass(frozen=True)
class BuildingSetup:
    """Parsed building configuration: structure, damper, and bounds."""

    building: BuildingModel
    atmd: AtmdParams
    bounds: ExcitationBounds
    participation: float | None = None  # optional override of beta0 in the plant
    label: str = ""


def build_shear_building(masses, stiffnesses, damping) -> BuildingModel:
    """Assemble M, C, K for an N-story shear building, and solve its modes once.

    ``damping`` is either a RayleighSpec or an explicit N x N symmetric
    tridiagonal matrix in N*s/m, and N is at most MAX_STORIES. Stiffness
    assembly follows the usual interstory convention: K[i,i] = k_i + k_{i+1}
    with k_{N+1} = 0 and off-diagonals -k_{i+1}. The frequencies and mode
    shapes of ``natural_modes(M, K)`` serve both the Rayleigh solve and
    ``modal_reduce``.
    """
    m = np.asarray(masses, dtype=float)
    k = np.asarray(stiffnesses, dtype=float)
    if m.ndim != 1 or k.ndim != 1 or len(m) != len(k):
        raise ConfigError("masses and stiffnesses must be 1-D lists of equal length")
    n = len(m)
    if not 1 <= n <= MAX_STORIES:
        raise ConfigError(f"need 1 to {MAX_STORIES} stories, got {n}")
    if not (np.all(np.isfinite(m)) and np.all(np.isfinite(k))):
        raise ConfigError("masses and stiffnesses must be finite")
    if np.any(m <= 0) or np.any(k <= 0):
        raise ConfigError("all masses and stiffnesses must be positive")

    M = np.diag(m)
    K = np.diag(k + np.append(k[1:], 0.0)) - np.diag(k[1:], 1) - np.diag(k[1:], -1)

    if isinstance(damping, RayleighSpec):
        freqs, shapes = natural_modes(M, K)
        C = rayleigh_damping(M, K, freqs, damping.pairs)
    else:
        C = np.asarray(damping, dtype=float)
        if C.shape != (n, n):
            raise ConfigError(f"damping matrix must be {n}x{n}, got {C.shape}")
        if not np.all(np.isfinite(C)):
            raise ConfigError("damping matrix must be finite")
        scale = max(1.0, float(np.abs(C).max()))
        if np.abs(C - C.T).max() > 1e-9 * scale:
            raise ConfigError("damping matrix must be symmetric")
        off_band = C - np.tril(np.triu(C, -1), 1)
        if np.abs(off_band).max() > 1e-9 * scale:
            raise ConfigError("damping matrix must be tridiagonal")
        freqs, shapes = natural_modes(M, K)

    return BuildingModel(
        M=_readonly(M),
        C=_readonly(C),
        K=_readonly(K),
        frequencies=_readonly(freqs),
        mode_shapes=_readonly(shapes),
    )


def natural_modes(M, K):
    """Undamped natural frequencies (rad/s, ascending) and mode shapes.

    Solves K v = lambda M v. A diagonal M makes the similarity transform
    S = M^{-1/2} K M^{-1/2} exact, so the symmetric solver applies and the
    spectrum is guaranteed real.
    """
    d = np.sqrt(np.diag(M))
    if np.any(d <= 0):
        raise NumericalError("mass matrix has non-positive diagonal entries")
    with np.errstate(over="ignore"):    # an overflow is raised below
        S = K / d[:, None] / d[None, :]
    if not np.all(np.isfinite(S)):
        raise NumericalError("mass-normalized stiffness matrix overflows")
    try:
        eigvals, Y = np.linalg.eigh(S)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on symmetric rarely fails
        raise NumericalError(f"eigen-solver failed: {exc}") from exc
    if np.any(eigvals <= 0):
        raise NumericalError("stiffness matrix is not positive definite")
    return np.sqrt(eigvals), Y / d[:, None]


def rayleigh_damping(M, K, frequencies, mode_pairs) -> np.ndarray:
    """Proportional damping matrix matching the requested modal ratios.

    ``frequencies`` are the natural frequencies of (M, K) in rad/s, ascending,
    as ``natural_modes(M, K)[0]`` returns them. Solves
    zeta_i = (a0/w_i + a1*w_i)/2 at the two specified modal frequencies. With
    a single pair only the mass-proportional term is used: C = 2*zeta*w*M.
    The pairs follow the rules of RayleighSpec, and each mode must exist.
    """
    pairs = RayleighSpec(mode_pairs).pairs
    M = np.asarray(M, dtype=float)
    K = np.asarray(K, dtype=float)
    freqs = np.asarray(frequencies, dtype=float)
    n = len(freqs)
    for mode, _ in pairs:
        if mode > n:
            raise ConfigError(f"mode index {mode} out of range 1..{n}")

    if len(pairs) == 1:
        mode, ratio = pairs[0]
        a0, a1 = 2.0 * ratio * freqs[mode - 1], 0.0
    else:
        (m1, z1), (m2, z2) = pairs
        w1, w2 = freqs[m1 - 1], freqs[m2 - 1]
        if abs(w1 - w2) <= 1e-9 * max(w1, w2):
            raise NumericalError("coincident modal frequencies make the Rayleigh solve singular")
        A = np.array([[1.0 / (2.0 * w1), w1 / 2.0], [1.0 / (2.0 * w2), w2 / 2.0]])
        a0, a1 = np.linalg.solve(A, [z1, z2])

    return a0 * M + a1 * K


def modal_reduce(building: BuildingModel) -> ModalModel:
    """Reduce the building to its dominant first mode.

    The building's first mode shape is scaled so its top-floor entry equals 1;
    the modal mass, damping, stiffness, and participation factor follow from
    quadratic forms in M, C, K.
    """
    raw = building.mode_shapes[:, 0]
    top = raw[-1]
    if abs(top) <= 1e-12 * np.linalg.norm(raw):
        raise NumericalError("first mode has (numerically) zero top-floor component; cannot scale")
    phi0 = raw / top

    M, C, K = building.M, building.C, building.K
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        m0 = float(phi0 @ M @ phi0)
        c0 = float(phi0 @ C @ phi0)
        k0 = float(phi0 @ K @ phi0)
        beta0 = float(phi0 @ M @ np.ones(building.n_stories)) / m0
    if not np.all(np.isfinite([m0, c0, k0, beta0])):
        raise NumericalError("modal mass, damping or stiffness overflows")
    return ModalModel(
        phi0=_readonly(phi0),
        m0=m0,
        c0=c0,
        k0=k0,
        beta0=beta0,
        omega0=float(np.sqrt(k0 / m0)),
    )


def controllability_matrix(A, B) -> np.ndarray:
    """[B, AB, A^2 B, ..., A^{n-1} B] for a single-input pair."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(B, dtype=float).reshape(-1)
    cols = [b]
    for _ in range(len(b) - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


def controllability_rcond(A, B) -> float:
    """Reciprocal 2-norm condition number of the controllability matrix;
    NumericalError if the powers of A overflow."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below
        Co = controllability_matrix(A, B)
    if not np.all(np.isfinite(Co)):
        raise NumericalError("controllability matrix overflows")
    s = np.linalg.svd(Co, compute_uv=False)
    return float(s[-1] / s[0]) if s[0] > 0 else 0.0


def assemble_plant(modal: ModalModel, atmd: AtmdParams, bounds: ExcitationBounds,
                   participation: float | None = None) -> PlantStateSpace:
    """Couple the dominant mode with the damper into the 4-state plant.

    ``participation`` overrides the participation factor used in the
    excitation vector D (the A and B matrices never depend on it); by default
    the modal value is used.
    """
    m0, c0, k0 = modal.m0, modal.c0, modal.k0
    md, cd, kd = atmd.m_d, atmd.c_d, atmd.k_d
    beta0 = modal.beta0 if participation is None else float(participation)
    r = (m0 + md) / (m0 * md)

    A = np.array([
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [-kd * r, k0 / m0, -cd * r, c0 / m0],
        [kd / m0, -k0 / m0, cd / m0, -c0 / m0],
    ])
    B = np.array([0.0, 0.0, r, -1.0 / m0])
    D = np.array([0.0, 0.0, beta0 - 1.0, -beta0])

    rcond = controllability_rcond(A, B)
    if rcond <= CTRB_RCOND_MIN:
        raise NumericalError(
            f"(A, B) pair is numerically uncontrollable (rcond={rcond:.3e})")
    return PlantStateSpace(A=_readonly(A), B=_readonly(B), D=_readonly(D), bounds=bounds)


def _numbers(value, context: str, required, optional=()) -> dict:
    """The keyed object ``value`` with each entry a finite float."""
    return {key: finite_number(f"{context} {key}", number)
            for key, number in keyed(value, context, required, optional).items()}


def load_building_config(source) -> BuildingSetup:
    """Parse a building description from JSON (path, or dict already parsed).

    Schema::

        {
          "floors": [{"mass": .., "stiffness": ..}, ...],
          "damping": {"rayleigh": {"modes": [1, 2], "ratios": [0.01, 0.01]}}
                     | {"matrix": [[..], ..]},
          "atmd": {"mass": .., "stiffness": .., "damping": .., "coulomb": ..},
          "bounds": {"delta": .., "varpi": ..},
          "participation_factor": 1.0,  # optional beta0 override
          "label": ".."                 # optional string
        }

    All numbers SI; ``coulomb`` defaults to 0. ``damping`` holds exactly one
    kind, and a key outside this schema, at any level, is a ConfigError.
    """
    if isinstance(source, dict):
        cfg, context = source, "building config"
    else:
        cfg, context = read_json_object(source), str(source)
    cfg = keyed(cfg, context, ("floors", "damping", "atmd", "bounds"),
                ("label", "participation_factor"))

    floors = cfg["floors"]
    if not isinstance(floors, list) or not floors:
        raise ConfigError(f"{context}: 'floors' must be a non-empty list")
    floors = [_numbers(f, f"{context} floor {i + 1}", ("mass", "stiffness"))
              for i, f in enumerate(floors)]

    damping_cfg = keyed(cfg["damping"], f"{context} damping", (), ("rayleigh", "matrix"))
    if len(damping_cfg) != 1:
        raise ConfigError(f"{context}: damping needs exactly one of 'rayleigh' or 'matrix'")
    if "rayleigh" in damping_cfg:
        ray = keyed(damping_cfg["rayleigh"], f"{context} damping.rayleigh", ("modes", "ratios"))
        modes, ratios = ray["modes"], ray["ratios"]
        if not (isinstance(modes, list) and isinstance(ratios, list)
                and len(modes) == len(ratios)):
            raise ConfigError(f"{context}: rayleigh modes and ratios must be lists that pair up")
        damping = RayleighSpec(tuple(zip(modes, ratios)))
    else:
        rows = damping_cfg["matrix"]
        if not (isinstance(rows, list)
                and all(isinstance(row, list) and len(row) == len(rows) for row in rows)):
            raise ConfigError(f"{context}: damping.matrix must be a square list of rows")
        damping = np.array([[finite_number(f"{context} damping.matrix entry", c) for c in row]
                            for row in rows])

    atmd = _numbers(cfg["atmd"], f"{context} atmd", ("mass", "stiffness", "damping"),
                    ("coulomb",))
    atmd = AtmdParams(m_d=atmd["mass"], k_d=atmd["stiffness"], c_d=atmd["damping"],
                      mu_d=atmd.get("coulomb", 0.0))
    bounds = ExcitationBounds(**_numbers(cfg["bounds"], f"{context} bounds", ("delta", "varpi")))
    participation = None
    if "participation_factor" in cfg:
        participation = finite_number(f"{context} participation_factor",
                                      cfg["participation_factor"])
    label = cfg.get("label", "")
    if not isinstance(label, str):
        raise ConfigError(f"{context} label must be a string, got {label!r}")

    building = build_shear_building([f["mass"] for f in floors],
                                    [f["stiffness"] for f in floors], damping)
    return BuildingSetup(building=building, atmd=atmd, bounds=bounds,
                         participation=participation, label=label)


def plant_from_setup(setup: BuildingSetup) -> tuple[ModalModel, PlantStateSpace]:
    """Convenience chain: modal reduction followed by plant assembly."""
    modal = modal_reduce(setup.building)
    plant = assemble_plant(modal, setup.atmd, setup.bounds, participation=setup.participation)
    return modal, plant
