"""Exhaustive feasibility-filtered grid search over the pole layout.

The scan covers the (zeta, omega_n) rectangle with fixed increments in one
batched pass. The sliding vectors of all grid points come from the plant's
Ackermann rows; candidates whose transfer zeros sit too close to the dominant
pair are masked out; the survivors get their full designs, design checks and
band-limited RMS responses as stacked arrays; those exceeding the configured
ceilings are dropped. ``pick`` then takes the survivor minimizing either the
top-floor displacement index (kappa2) or the control-effort index (kappa_u).
The switching gain follows from the force peak of the winning design.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (ConfigError, InfeasibleTuningError, NumericalError, finite_number, keyed,
                     read_json_object, write_table)
from .freqresp import (DEFAULT_BAND, DEFAULT_SAMPLES, band_peak, band_table, transfer_batch,
                       zero_rows)
from .smc import (BOUNDARY_LAYER, SWITCHING_MARGIN, DesignBatch, SlidingDesign, ackermann_rows,
                  design_batch, dominant_pair, real_pole, sliding_vectors, switching_gain)
from .structure import ModalModel, PlantStateSpace

__all__ = [
    "KappaBounds",
    "TuningConfig",
    "TuningResult",
    "load_tuning_config",
    "tune",
    "pick",
    "feasible_region",
    "export_mesh",
]

INDEX_CHOICES = ("jz2", "ju")
#: the columns of TuningResult.kappa, in band_table's channel order
KAPPA_NAMES = ("kappa1", "kappa2", "kappa3", "kappa_u")

#: most (zeta, omega_n) points one scan may cover; the scan holds a few
#: numbers per point at once (a 0.001 step over both fixture ranges is
#: 401 x 501 = 200 901 points)
MAX_GRID_POINTS = 250_000
#: most frequency samples of the plotted grid of ``smctune freq``; kappa and
#: chi are exact and do not depend on n_samples
MAX_SAMPLES = 100_000

_REAL_FIELDS = ("zeta_l", "zeta_u", "delta_zeta", "omega_nl", "omega_nu", "delta_omega",
                "gamma1", "gamma2", "varsigma", "epsilon")

INFEASIBLE_MESSAGE = ("no feasible sliding design for this initialization; "
                      "relax the kappa ceilings or widen the zeta/omega_n ranges")


@dataclass(frozen=True)
class KappaBounds:
    """Ceilings for the band-limited RMS responses (SI: m, m, m/s, N)."""

    kappa1: float
    kappa2: float
    kappa3: float
    kappa_u: float

    def __post_init__(self):
        for name in KAPPA_NAMES:
            value = finite_number(f"{name} ceiling", getattr(self, name))
            if value <= 0:
                raise ConfigError(f"{name} ceiling must be positive")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class TuningConfig:
    """Search ranges, zero-distance factors, response ceilings, and the index.

    omega_nl/omega_nu/delta_omega are expressed as multiples of the dominant
    structural frequency omega0; zeta is dimensionless. Each grid point gets
    its real pole lambda3 by ``smc.real_pole``. n_samples sets only the
    plotted grid of ``smctune freq``; kappa and chi are exact.
    Every field is checked here, so a config that loads can be scanned: all
    numbers finite, 0 < zeta_l < zeta_u < 1, 0 < omega_nl < omega_nu, a band
    with lower < upper, 2 <= n_samples <= MAX_SAMPLES, and at most
    MAX_GRID_POINTS points.
    """

    kappa_bars: KappaBounds
    zeta_l: float = 0.5
    zeta_u: float = 0.9
    delta_zeta: float = 0.01
    omega_nl: float = 0.5
    omega_nu: float = 0.8
    delta_omega: float = 0.01
    gamma1: float = 5.0
    gamma2: float = 1.0
    index: str = "jz2"
    band: tuple[float, float] = DEFAULT_BAND
    n_samples: int = DEFAULT_SAMPLES
    varsigma: float = SWITCHING_MARGIN
    epsilon: float = BOUNDARY_LAYER

    def __post_init__(self):
        if not isinstance(self.kappa_bars, KappaBounds):
            raise ConfigError("kappa_bars must be a KappaBounds")
        for name in _REAL_FIELDS:
            object.__setattr__(self, name, finite_number(name, getattr(self, name)))
        try:
            lo, hi = self.band
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"band must be a pair (lower, upper), got {self.band!r}") from exc
        band = (finite_number("band lower edge", lo), finite_number("band upper edge", hi))
        if not band[0] < band[1]:
            raise ConfigError(f"band must satisfy lower < upper, got {band}")
        object.__setattr__(self, "band", band)
        n_samples = finite_number("n_samples", self.n_samples)
        if n_samples != int(n_samples) or not 2 <= n_samples <= MAX_SAMPLES:
            raise ConfigError(f"n_samples must be an integer in [2, {MAX_SAMPLES}], "
                              f"got {self.n_samples}")
        object.__setattr__(self, "n_samples", int(n_samples))
        if not self.zeta_l < self.zeta_u:
            raise ConfigError("zeta_l must be smaller than zeta_u")
        if not (0.0 < self.zeta_l and self.zeta_u < 1.0):
            raise ConfigError(f"zeta range must lie inside (0, 1), got "
                              f"[{self.zeta_l}, {self.zeta_u}]")
        if not self.omega_nl < self.omega_nu:
            raise ConfigError("omega_nl must be smaller than omega_nu")
        if not self.omega_nl > 0.0:
            raise ConfigError(f"omega_nl must be positive, got {self.omega_nl}")
        if self.delta_zeta <= 0 or self.delta_omega <= 0:
            raise ConfigError("grid increments must be positive")
        if self.gamma1 <= 0 or self.gamma2 <= 0:
            raise ConfigError("gamma factors must be positive")
        if self.index not in INDEX_CHOICES:
            raise ConfigError(f"index must be one of {INDEX_CHOICES}, got {self.index!r}")
        if self.varsigma <= 0 or self.epsilon <= 0:
            raise ConfigError("varsigma and epsilon must be positive")
        points = (_axis_count(self.zeta_l, self.zeta_u, self.delta_zeta)
                  * _axis_count(self.omega_nl, self.omega_nu, self.delta_omega))
        if points > MAX_GRID_POINTS:
            raise ConfigError(f"the grid has {points:.4g} points, above the cap of "
                              f"{MAX_GRID_POINTS}; use larger delta_zeta or delta_omega")

    def zeta_values(self) -> np.ndarray:
        return _inclusive_grid(self.zeta_l, self.zeta_u, self.delta_zeta)

    def omega_ratios(self) -> np.ndarray:
        return _inclusive_grid(self.omega_nl, self.omega_nu, self.delta_omega)

    def to_dict(self) -> dict:
        return {**asdict(self), "band": list(self.band)}


def _axis_count(lo: float, hi: float, step: float) -> float:
    """Number of points of lo, lo+step, ... <= hi, as a float (inf when huge)."""
    return float(np.floor((hi - lo) / step + 1e-9)) + 1.0


def _inclusive_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo+step, ... up to hi inclusive (tolerant of float step error)."""
    return lo + step * np.arange(int(_axis_count(lo, hi, step)))


def load_tuning_config(source) -> TuningConfig:
    """Parse a TuningConfig from JSON (path, or dict already parsed).

    ``kappa_bars`` holds exactly the four ceilings; every other key is an
    optional TuningConfig field, and any other key is a ConfigError.
    """
    if isinstance(source, dict):
        cfg, context = source, "tuning config"
    else:
        cfg, context = read_json_object(source), str(source)
    cfg = keyed(cfg, context, ("kappa_bars",), TuningConfig.__dataclass_fields__)
    bars = keyed(cfg["kappa_bars"], f"{context} kappa_bars", KAPPA_NAMES)
    return TuningConfig(**{**cfg, "kappa_bars": KappaBounds(**bars)})


@dataclass(frozen=True)
class TuningResult:
    """Outcome of the grid scan: its feasible rows as stacked arrays.

    Row i of ``designs`` (a DesignBatch), ``omega_ratio`` (omega_n / omega0)
    and ``kappa`` (columns kappa1, kappa2, kappa3, kappa_u) is the i-th
    feasible grid point in scan order (zeta-major). ``best_index`` points
    into these rows; an empty scan leaves them empty and ``best_index`` None,
    with an explanatory message. The winning design carries the switching
    gain M0 derived from the force peak chi. ``columns()`` gives the named
    columns of the rows, ``rows()`` the dicts ``result.json`` stores, and
    ``best`` the winner's; ``result.json`` is the ``json.dumps`` of
    ``to_dict()`` byte for byte.
    """

    config: TuningConfig
    omega0: float
    designs: DesignBatch
    omega_ratio: np.ndarray     # (m,)
    kappa: np.ndarray           # (m, 4)
    best_index: int | None = None
    design: SlidingDesign | None = None
    chi: float | None = None
    M0: float | None = None
    message: str = ""

    @property
    def feasible(self) -> bool:
        return self.best_index is not None

    @property
    def feasible_count(self) -> int:
        return len(self.omega_ratio)

    @property
    def best(self) -> dict | None:
        return None if self.best_index is None else self.rows([self.best_index])[0]

    def columns(self, select=slice(None)) -> dict[str, np.ndarray]:
        """The named columns of the feasible rows (or of the rows of ``select``,
        an index array) in sorted key order: pole layout, sliding vector,
        kappas, zeros. Each is 1-D but eta and lambda1, lambda2 ([real, imag]).

        lambda1 and lambda2 come from ``dominant_pair`` and psi1 and psi2 from
        ``zero_rows``, elementwise over the selected stack, so the values equal
        those of the scan bit for bit.
        """
        d, kappa = self.designs.take(select), self.kappa[select]
        lambda1, lambda2 = dominant_pair(d.zeta, d.omega_n)
        psi1, psi2, _ = zero_rows(d.eta)
        columns = {"zeta": d.zeta, "omega_n": d.omega_n,
                   "omega_ratio": self.omega_ratio[select], "eta": d.eta,
                   "lambda1": np.column_stack((lambda1.real, lambda1.imag)),
                   "lambda2": np.column_stack((lambda2.real, lambda2.imag)),
                   "lambda3": d.lambda3, "psi1": psi1, "psi2": psi2,
                   **{name: kappa[:, c] for c, name in enumerate(KAPPA_NAMES)}}
        return dict(sorted(columns.items()))

    def rows(self, select=slice(None)) -> list[dict]:
        """One dict per row of ``columns(select)``, as ``result.json`` stores it."""
        lists = {name: column.tolist() for name, column in self.columns(select).items()}
        return [dict(zip(lists, row)) for row in zip(*lists.values())]

    def _summary(self) -> dict:
        """Every key of ``to_dict`` but ``"tuples"``."""
        region = feasible_region(self) if self.feasible else None
        return {
            "config": self.config.to_dict(),
            "omega0": self.omega0,
            "feasible": self.feasible,
            "feasible_count": self.feasible_count,
            "message": self.message,
            "best_index": self.best_index,
            "best": self.best,
            "design": None if self.design is None else self.design.to_dict(),
            "chi": self.chi,
            "M0": self.M0,
            "feasible_zeta_range": None if region is None else list(region["zeta"]),
            "feasible_omega_range": None if region is None else list(region["omega_ratio"]),
        }

    def to_dict(self) -> dict:
        return {**self._summary(), "tuples": self.rows()}

    def to_json(self, path) -> None:
        """Write ``json.dumps(self.to_dict(), indent=2, sort_keys=True)`` plus a
        newline to ``path``, byte for byte. ``"tuples"`` sorts last, so it
        follows the summary as one row layout filled with ``%r`` (the float
        repr of ``json``) from one column table; a non-finite value in it
        raises NumericalError before the file is opened.
        """
        columns = self.columns()
        table = np.column_stack(list(columns.values()))
        if not np.isfinite(table).all():
            raise NumericalError("a feasible tuple holds a non-finite value")
        fields = [f'      "{name}": ' + ("%r" if column.ndim == 1 else
                                          "[\n" + ",\n".join(["        %r"] * column.shape[1])
                                          + "\n      ]")
                  for name, column in columns.items()]
        layout = "    {\n" + ",\n".join(fields) + "\n    }"
        body = ",\n".join([layout] * len(table)) % tuple(table.ravel().tolist())
        text = json.dumps({**self._summary(), "tuples": []}, indent=2, sort_keys=True)
        if body:
            text = text[:-len("[]\n}")] + f"[\n{body}\n  ]\n}}"
        Path(path).write_text(text + "\n")


def tune(plant: PlantStateSpace, modal: ModalModel, config: TuningConfig) -> TuningResult:
    """Run the full grid scan, then ``pick`` the winner of ``config.index``.

    One batched pass: the zero screen on the sliding vectors of every grid
    point, then ``design_batch`` (with its per-row design checks) and
    ``band_table`` on the survivors only. The checks are conjunctive, so the
    order does not change the feasible set. The rows inside the kappa
    ceilings become the result's ``designs``, ``omega_ratio`` and ``kappa``.
    A scan with no such row returns an infeasible result with its message.
    """
    omega0 = modal.omega0
    zetas, ratios = config.zeta_values(), config.omega_ratios()
    zeta = np.repeat(zetas, len(ratios))          # zeta-major scan order
    ratio = np.tile(ratios, len(zetas))
    omega_n = ratio * omega0
    lambda3 = real_pole(zeta, omega_n)

    rows = ackermann_rows(plant)
    psi1, psi2, defined = zero_rows(sliding_vectors(rows, zeta, omega_n, lambda3))
    zw = zeta * omega_n
    # a row whose numbers overflow holds inf or NaN, which fails the screen,
    # the design checks or a kappa ceiling (every comparison with NaN is False)
    with np.errstate(all="ignore"):
        screened = np.flatnonzero(defined & (np.abs(psi1) / zw >= config.gamma1)
                                  & (np.abs(psi2) / zw >= config.gamma2))
        designs = design_batch(plant, zeta[screened], omega_n[screened], lambda3[screened],
                               rows)
        valid = designs.reject == 0
        designs, ratio = designs.take(valid), ratio[screened[valid]]
        kappa = band_table(transfer_batch(designs), plant.bounds.delta, config.band)

    bars = config.kappa_bars
    feasible = np.flatnonzero((kappa[:, 0] <= bars.kappa1) & (kappa[:, 1] <= bars.kappa2)
                              & (kappa[:, 2] <= bars.kappa3)
                              & (kappa[:, 3] + plant.bounds.varpi <= bars.kappa_u))
    designs, ratio, kappa = designs.take(feasible), ratio[feasible], kappa[feasible]
    result = TuningResult(config=config, omega0=omega0, designs=designs, omega_ratio=ratio,
                          kappa=kappa)
    if not len(feasible):
        return replace(result, message=INFEASIBLE_MESSAGE)
    return pick(plant, result, config.index)


def pick(plant: PlantStateSpace, result: TuningResult, index: str) -> TuningResult:
    """``result`` with the winner of ``index`` ("jz2" or "ju") over its rows.

    The winner minimizes kappa2 (``jz2``) or kappa_u (``ju``); ties on the
    index value break toward smaller omega_n, then smaller zeta. Only the
    winner gets its force peak chi (``band_peak``), from which the switching
    gain M0 follows. ``config.index`` becomes ``index`` and the rows stay, so
    one scan serves both indices. InfeasibleTuningError on a scan with no rows.
    """
    if not result.feasible_count:
        raise InfeasibleTuningError(result.message or INFEASIBLE_MESSAGE)
    config = replace(result.config, index=index)
    designs, ratio, kappa = result.designs, result.omega_ratio, result.kappa
    value = kappa[:, 1] if index == "jz2" else kappa[:, 3]
    best_index = int(np.lexsort((designs.zeta, ratio, value))[0])
    winner = transfer_batch(designs.take([best_index]))
    chi_best = float(band_peak(winner, plant.bounds.delta, config.band)[0])
    M0 = switching_gain(chi_best, plant.bounds.varpi, config.varsigma)
    return replace(result, config=config, best_index=best_index,
                   design=designs.design(best_index, config.epsilon, M0), chi=chi_best, M0=M0)


def feasible_region(result: TuningResult) -> dict[str, tuple[float, float]]:
    """Min/max of zeta and omega_n/omega0 over the feasible rows."""
    if not result.feasible:
        raise InfeasibleTuningError(result.message or INFEASIBLE_MESSAGE)
    return {name: (float(values.min()), float(values.max()))
            for name, values in (("zeta", result.designs.zeta),
                                 ("omega_ratio", result.omega_ratio))}


def export_mesh(result: TuningResult, path) -> None:
    """CSV of the feasible mesh, one row per feasible row, argmin marked at the end.

    Data rows map one-to-one onto the rows of ``result``; the final comment
    line repeats the winning point so plotting scripts can highlight it.
    """
    if not result.feasible:
        raise InfeasibleTuningError(result.message or INFEASIBLE_MESSAGE)
    columns = (result.designs.zeta, result.omega_ratio, result.kappa)
    best = np.hstack([column[result.best_index] for column in columns]).tolist()
    write_table(path, ",".join(["zeta", "omega_n_over_omega0", *KAPPA_NAMES]), columns,
                footer="# argmin," + ",".join(map(repr, best)) + "\n")
