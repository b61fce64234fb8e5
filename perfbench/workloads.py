"""The benchmark's four workloads: set-up, one round of operations, checks.

A workload's ``prepare`` builds everything its operations need from the
seed; ``round`` returns the operations of one round, each kind of operation
equally often, so every statistic is taken over whole rounds. An operation's
``run`` is the timed call into smctune. Its ``check`` runs afterwards,
untimed, raises ``CheckFailed`` on a wrong output, and returns the work the
operation did (grid points, RK4 steps, bytes written).

Every callee is looked up through its module at call time
(``smctune.cli.main``, ``smctune.sim.simulate``), so the tracer's wrappers
see the calls.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import smctune.cli
import smctune.lqr
import smctune.sim
import smctune.structure
import smctune.tuning
from smctune.fixtures import fixture_path


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], dict]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _seeds(seed: int, salt: int, count: int) -> list[int]:
    """Record seeds derived from the benchmark seed, distinct per workload."""
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _grid_size(tuning: dict) -> int:
    """Grid points of a tuning JSON: both axes inclusive of their upper end."""
    def axis(lo, hi, step):
        return int(math.floor((hi - lo) / step + 1e-9)) + 1
    return (axis(tuning["zeta_l"], tuning["zeta_u"], tuning["delta_zeta"])
            * axis(tuning["omega_nl"], tuning["omega_nu"], tuning["delta_omega"]))


def _read_fixture_json(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _all_finite(value) -> bool:
    if isinstance(value, dict):
        return all(_all_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _cli(argv: list[str]) -> int:
    return smctune.cli.main(argv)


def _write_record_csv(record, path: Path) -> None:
    """Accelerogram in the 'dt,<value>' CSV form load_accelerogram reads."""
    with open(path, "w") as fh:
        fh.write(f"dt,{float(record.dt)!r}\n")
        fh.writelines(f"{float(v)!r}\n" for v in record.samples)


@dataclass
class _Repeats:
    """First digest of each output file; later repeats must match it."""

    digests: dict = field(default_factory=dict)

    def same_as_first(self, key, path: Path) -> None:
        digest = _digest(path)
        first = self.digests.setdefault(key, digest)
        _require(digest == first, f"{path.name} differs from its first run ({key})")


def _tune_op(kind: str, argv: list[str], out: Path, grid_points: int,
             repeats: _Repeats, extra_check=None) -> Op:
    def check(exit_code) -> dict:
        _require(exit_code == 0, f"tune exited with {exit_code}")
        result_path, mesh_path = out / "result.json", out / "mesh.csv"
        result = json.loads(result_path.read_text())
        _require(result["feasible"], "tuning reported infeasible")
        _require(_all_finite(result), "result.json holds a non-finite number")
        if extra_check is not None:
            extra_check(result)
        repeats.same_as_first((kind, "result.json"), result_path)
        repeats.same_as_first((kind, "mesh.csv"), mesh_path)
        return {"grid_points": grid_points, "survivors": result["feasible_count"],
                "output_bytes": result_path.stat().st_size + mesh_path.stat().st_size}
    return Op(kind, lambda: _cli(argv), check)


# Acceptance criteria 3 (five-story) and 4 (Quanser): expected best point as
# (value, absolute tolerance), and M0 at 5% relative tolerance.
_STEP = 0.01 + 1e-12
FIXTURE_CASES = {
    ("five_story", "jz2"): {"zeta": (0.5, 1e-12), "omega_ratio": (0.5, 1e-12), "M0": 24.13},
    ("five_story", "ju"): {"omega_ratio": (0.62, _STEP), "M0": 20.35},
    ("quanser", "jz2"): {"zeta": (0.50, _STEP), "omega_ratio": (0.50, _STEP), "M0": 13.52},
    ("quanser", "ju"): {"zeta": (0.50, _STEP), "omega_ratio": (0.55, _STEP), "M0": 12.05},
}


def _load_omega0(building: str) -> float:
    setup = smctune.structure.load_building_config(fixture_path(f"{building}.json"))
    modal, _ = smctune.structure.plant_from_setup(setup)
    return modal.omega0


class TuneFixtures:
    """`smctune tune` on the published operating points, in seeded order."""

    name = "tune-fixtures"

    def prepare(self, seed: int, work: Path) -> dict:
        omega0 = {b: _load_omega0(b) for b in ("five_story", "quanser")}
        grid = {b: _grid_size(_read_fixture_json(f"{b}_tuning.json")) for b in omega0}
        return {"seed": seed, "work": work, "omega0": omega0, "grid": grid,
                "repeats": _Repeats()}

    def round(self, state: dict, index: int) -> list[Op]:
        cases = sorted(FIXTURE_CASES)
        order = np.random.default_rng([state["seed"], index]).permutation(len(cases))
        return [self._op(state, *cases[i]) for i in order]

    def _op(self, state: dict, building: str, perf_index: str) -> Op:
        kind = f"{building}/{perf_index}"
        out = state["work"] / kind.replace("/", "-")
        expected = FIXTURE_CASES[(building, perf_index)]
        omega0 = state["omega0"][building]

        def criteria(result: dict) -> None:
            best = result["best"]
            for key in ("zeta", "omega_ratio"):
                if key in expected:
                    value, tol = expected[key]
                    _require(abs(best[key] - value) <= tol,
                             f"{kind}: best {key} = {best[key]}, expected {value} +- {tol}")
            _require(abs(result["M0"] - expected["M0"]) <= 0.05 * expected["M0"],
                     f"{kind}: M0 = {result['M0']}, expected {expected['M0']} +- 5%")
            _require(result["omega0"] == omega0, f"{kind}: omega0 differs from the model")
            _require(math.isclose(best["omega_n"], best["omega_ratio"] * omega0,
                                  rel_tol=1e-12),
                     f"{kind}: omega_n is not omega_ratio * omega0")

        argv = ["tune", "--config", f"{building}.json", "--tuning",
                f"{building}_tuning.json", "--index", perf_index, "--out", str(out)]
        return _tune_op(kind, argv, out, state["grid"][building], state["repeats"],
                        criteria)


class TuneWide:
    """`smctune tune` on five_story with the zero screen relaxed and the
    kappa ceilings wide open, so nearly every grid point reaches the band
    metrics and the full mesh is written."""

    name = "tune-wide"
    CEILING = 1.0e6

    def prepare(self, seed: int, work: Path) -> dict:
        tuning = _read_fixture_json("five_story_tuning.json")
        tuning.update(gamma1=0.5, gamma2=0.5)
        tuning["kappa_bars"] = {k: self.CEILING for k in tuning["kappa_bars"]}
        path = work / "wide_tuning.json"
        path.write_text(json.dumps(tuning, indent=2, sort_keys=True) + "\n")
        return {"seed": seed, "work": work, "tuning": path, "grid": _grid_size(tuning),
                "repeats": _Repeats()}

    def round(self, state: dict, index: int) -> list[Op]:
        indexes = ["jz2", "ju"]
        if np.random.default_rng([state["seed"], index]).integers(2):
            indexes.reverse()
        ops = []
        for perf_index in indexes:
            kind = f"five_story/wide-{perf_index}"
            out = state["work"] / kind.replace("/", "-")
            argv = ["tune", "--config", "five_story.json", "--tuning",
                    str(state["tuning"]), "--index", perf_index, "--out", str(out)]
            ops.append(_tune_op(kind, argv, out, state["grid"], state["repeats"]))
        return ops


def _smc_reference(building: str, perf_index: str):
    """Tuning result the CLI's embedded tune must reproduce (M0, survivors)."""
    setup = smctune.structure.load_building_config(fixture_path(f"{building}.json"))
    modal, plant = smctune.structure.plant_from_setup(setup)
    config = smctune.tuning.load_tuning_config(
        {**_read_fixture_json(f"{building}_tuning.json"), "index": perf_index})
    return setup, modal, plant, smctune.tuning.tune(plant, modal, config)


class SimulateLong:
    """`smctune simulate --controller smc --pga 0.5 --t-end 30` on five_story
    under a 40 s synthetic record generated from the seed."""

    name = "simulate-long"
    T_END = 30.0
    PGA = 0.5
    RECORD_SECONDS = 40.0

    def prepare(self, seed: int, work: Path) -> dict:
        *_, reference = _smc_reference("five_story", "jz2")
        (record_seed,) = _seeds(seed, 1, 1)
        record = smctune.sim.synthetic_accelerogram(duration=self.RECORD_SECONDS,
                                                    seed=record_seed)
        quake = work / "record.csv"
        _write_record_csv(record, quake)
        return {"seed": seed, "work": work, "quake": quake, "M0": reference.M0,
                "survivors": reference.feasible_count,
                "grid": _grid_size(_read_fixture_json("five_story_tuning.json")),
                "repeats": _Repeats()}

    def round(self, state: dict, index: int) -> list[Op]:
        out = state["work"] / "simulate"
        steps = int(round(self.T_END / 1e-3))
        argv = ["simulate", "--config", "five_story.json", "--quake", str(state["quake"]),
                "--pga", repr(self.PGA), "--t-end", repr(self.T_END),
                "--controller", "smc", "--tuning", "five_story_tuning.json",
                "--out", str(out)]

        def check(exit_code) -> dict:
            _require(exit_code == 0, f"simulate exited with {exit_code}")
            summary_path, trace_path = out / "summary.json", out / "trace.csv"
            summary = json.loads(summary_path.read_text())
            _require(_all_finite(summary), "summary.json holds a non-finite number")
            trace = np.loadtxt(trace_path, delimiter=",", skiprows=1)
            _require(trace.shape == (steps + 1, 8), f"trace.csv has shape {trace.shape}")
            _require(bool(np.all(np.isfinite(trace))), "trace.csv holds a non-finite value")
            u_peak = float(np.max(np.abs(trace[:, 5])))
            _require(u_peak <= state["M0"] * (1 + 1e-12),
                     f"max|u| = {u_peak} exceeds M0 = {state['M0']}")
            state["repeats"].same_as_first("summary.json", summary_path)
            return {"grid_points": state["grid"], "survivors": state["survivors"],
                    "rk4_steps": steps, "trace_bytes": trace_path.stat().st_size,
                    "output_bytes": summary_path.stat().st_size}

        return [Op("five_story/smc", lambda: _cli(argv), check)]


class Sweep:
    """Quanser under seeded synthetic records x PGA x controller, through the
    public API; controllers are tuned or solved in set-up. A round runs every
    controller on one (record, PGA) pair; after RECORDS * len(PGAS) rounds the
    pairs repeat, and the re-run summaries must match exactly."""

    name = "sweep"
    RECORDS = 3
    PGAS = (1.0, 2.0, 3.0)
    WINDOW = 10.0
    DT = 1e-3

    def prepare(self, seed: int, work: Path) -> dict:
        setup, modal, plant, jz2 = _smc_reference("quanser", "jz2")
        config = smctune.tuning.load_tuning_config(
            {**_read_fixture_json("quanser_tuning.json"), "index": "ju"})
        ju = smctune.tuning.tune(plant, modal, config)
        raw = _read_fixture_json("quanser_lqr_maxima.json")
        maxima = smctune.lqr.MaxValues(z1=raw["z1_max"], z2=raw["z2_max"],
                                       z3=raw["z3_max"], z4=raw["z4_max"], u=raw["u_max"])
        lqr = smctune.lqr.solve_lqr(plant, smctune.lqr.bryson_weights(maxima))
        controllers = [
            (smctune.sim.PassiveControl(), None),
            (smctune.sim.SmcControl(jz2.design, label="smc-jz2"), jz2.M0),
            (smctune.sim.SmcControl(ju.design, label="smc-ju"), ju.M0),
            (smctune.sim.LqrControl(lqr.k_gain), None),
        ]
        records = []
        for i, record_seed in enumerate(_seeds(seed, 2, self.RECORDS)):
            record = smctune.sim.synthetic_accelerogram(duration=self.WINDOW, seed=record_seed)
            path = work / f"record{i}.csv"
            _write_record_csv(record, path)
            records.append(path)
        return {"plant": plant, "mu_d": setup.atmd.mu_d, "controllers": controllers,
                "records": records, "summaries": {}, "passive_peak": {}}

    def round(self, state: dict, index: int) -> list[Op]:
        record = (index // len(self.PGAS)) % self.RECORDS
        pga = self.PGAS[index % len(self.PGAS)]
        return [self._op(state, record, pga, controller, M0)
                for controller, M0 in state["controllers"]]

    def _op(self, state: dict, record: int, pga: float, controller, M0) -> Op:
        path = state["records"][record]

        def run():
            quake = smctune.sim.load_accelerogram(path, scale=pga, scale_mode="pga")
            trace = smctune.sim.simulate(state["plant"], controller, quake, self.WINDOW,
                                         mu_d=state["mu_d"], dt=self.DT)
            return trace, smctune.sim.summarize(trace, (0.0, self.WINDOW))

        def check(output) -> dict:
            trace, summary = output
            where = f"record {record}, pga {pga}, {controller.label}"
            _require(bool(np.all(np.isfinite(trace.z)) and np.all(np.isfinite(trace.u))),
                     f"{where}: non-finite state or force")
            _require(_all_finite(summary), f"{where}: non-finite summary")
            z2_peak = summary["z2"]["peak"]
            if controller.label == "passive":
                state["passive_peak"][(record, pga)] = z2_peak
            elif M0 is not None:
                u_peak = float(np.max(np.abs(trace.u)))
                _require(u_peak <= M0 * (1 + 1e-12), f"{where}: max|u| {u_peak} > M0 {M0}")
                passive = state["passive_peak"].get((record, pga))
                _require(passive is not None and z2_peak < passive,
                         f"{where}: z2 peak {z2_peak} not below passive {passive}")
            key = (record, pga, controller.label)
            first = state["summaries"].setdefault(key, summary)
            _require(first == summary, f"{where}: summary differs on re-run")
            return {"rk4_steps": len(trace.t) - 1}

        return Op(controller.label, run, check)


WORKLOADS = {w.name: w for w in (TuneFixtures(), TuneWide(), SimulateLong(), Sweep())}
