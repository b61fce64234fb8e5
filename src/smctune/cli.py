"""Command-line front end.

Subcommands
    model     -> modal reduction + plant matrices as JSON
    tune      -> grid-search tuning: result.json and mesh.csv
    lqr       -> Bryson-weighted LQR gain report
    freq      -> frequency-response CSV for the tuned design
    simulate  -> closed-loop run: trace.csv and summary.json
    compare   -> passive / SMC (both indexes) / LQR side by side

Each ``cmd_*`` prints its report and returns its (file name, payload) outputs;
``main`` writes them in one step. Exit codes: 0 success, 2 invalid input or
an output that cannot be written (no file of that run stays in ``--out``),
3 infeasible tuning, 4 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, InfeasibleTuningError, NumericalError, keyed, read_json_object
from .fixtures import fixture_path
from .freqresp import dump_frequency_response
from .lqr import MaxValues, bryson_weights, lqr_equivalent_polespec, solve_lqr
from .output import _cells
from .sim import (RESAMPLE_DT, LqrControl, PassiveControl, SmcControl, _check_boundary_layer,
                  load_accelerogram, simulate, summarize, write_trace_csv)
from .structure import load_building_config, plant_from_setup
from .tuning import INDEX_CHOICES, export_mesh, load_tuning_config, pick, tune

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _resolve(path_arg: str) -> Path:
    """Existing filesystem path, or the bundled fixture of that name."""
    p = Path(path_arg)
    if p.exists():
        return p
    bundled = fixture_path(path_arg)
    if bundled is not None:
        return bundled
    raise ConfigError(f"no such file (or bundled fixture): {path_arg}")


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
                    + "\n")


def _write_outputs(out: Path, outputs) -> None:
    """Make ``out``, write each (file name, payload) of ``outputs`` into it in
    order (a dict as JSON, else a writer called with the path) and print one
    ``wrote`` line. An OSError removes every regular file this run started, so
    ``out`` never mixes two runs; a directory in the way is left alone."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the output directory: {exc}") from exc
    paths = []
    try:
        for name, payload in outputs:
            paths.append(out / name)
            write = payload if callable(payload) else functools.partial(_write_json, payload)
            write(paths[-1])
    except OSError:
        for path in filter(Path.is_file, paths):
            with contextlib.suppress(OSError):  # report the write, not the clean-up
                path.unlink()
        raise
    print("wrote " + " and ".join(map(str, paths)))


def _load_setup(args):
    setup = load_building_config(_resolve(args.config))
    modal, plant = plant_from_setup(setup)
    return setup, modal, plant


def cmd_model(args) -> list:
    setup, modal, plant = _load_setup(args)
    print(f"stories: {setup.building.n_stories}")
    print(f"m0 = {modal.m0:.4f} kg   k0 = {modal.k0:.4f} N/m   c0 = {modal.c0:.4f} N*s/m")
    print(f"omega0 = {modal.omega0:.4f} rad/s   beta0 = {modal.beta0:.4f}")
    return [("modal.json", asdict(modal)), ("plant.json", asdict(plant))]


def _tuning_config(args):
    config = load_tuning_config(_resolve(args.tuning))
    if getattr(args, "index", None):
        config = replace(config, index=args.index)
    return config


def cmd_tune(args) -> list:
    _, modal, plant = _load_setup(args)
    config = _tuning_config(args)
    result = tune(plant, modal, config)
    if result.feasible:  # else result.json is written and export_mesh raises (exit 3)
        best, design = result.best, result.design
        print(f"feasible points: {result.feasible_count}")
        print(f"best ({config.index}): zeta = {design.zeta:.2f}, "
              f"omega_n = {best['omega_ratio']:.2f} * omega0 = {design.omega_n:.4f} rad/s")
        print(f"eta = {np.array2string(design.eta, precision=4)}")
        print(f"kappa = [{100 * best['kappa1']:.2f} cm, {1000 * best['kappa2']:.3f} mm, "
              f"{100 * best['kappa3']:.2f} cm/s, {best['kappa_u']:.3f} N]")
        print(f"chi = {result.chi:.4f} N   M0 = {result.M0:.4f} N")
        try:  # simulate and compare would refuse this winner at the record's step
            _check_boundary_layer(plant, SmcControl(design, label=f"smc-{config.index}"),
                                  RESAMPLE_DT)
        except ConfigError as exc:
            logging.getLogger("smctune").warning("%s", exc)
    return [("result.json", result.to_json), ("mesh.csv", functools.partial(export_mesh, result))]


def _load_maxima(path: Path) -> MaxValues:
    raw = keyed(read_json_object(path), str(path),
                ("z1_max", "z2_max", "z3_max", "z4_max", "u_max"))
    return MaxValues(z1=raw["z1_max"], z2=raw["z2_max"], z3=raw["z3_max"],
                     z4=raw["z4_max"], u=raw["u_max"])


def cmd_lqr(args) -> list:
    _, modal, plant = _load_setup(args)
    spec = bryson_weights(_load_maxima(_resolve(args.maxima)))
    result = solve_lqr(plant, spec)
    equivalent = lqr_equivalent_polespec(result, modal.omega0)
    payload = {
        "Q": np.diag(spec.Q),
        "r": spec.r,
        "k_gain": result.k_gain,
        "closed_loop_eigs": [[e.real, e.imag] for e in result.closed_loop_eigs],
        "riccati_residual": result.residual,
        "equivalent": equivalent,
    }
    print(f"k = {np.array2string(result.k_gain, precision=4)}")
    print(f"closed-loop eigenvalues: {np.array2string(result.closed_loop_eigs, precision=4)}")
    print(f"dominant pair: zeta = {equivalent['zeta']:.3f}, "
          f"omega_n = {equivalent['omega_ratio']:.3f} * omega0")
    return [("lqr.json", payload)]


def _tuned(plant, modal, config):
    """The scan's result with its winner, or InfeasibleTuningError (exit 3)."""
    result = tune(plant, modal, config)
    if not result.feasible:
        raise InfeasibleTuningError(result.message)
    return result


def cmd_freq(args) -> list:
    _, modal, plant = _load_setup(args)
    config = _tuning_config(args)
    design = _tuned(plant, modal, config).design
    return [("frequency_response.csv",
             functools.partial(dump_frequency_response, design, plant.bounds.delta,
                               band=config.band, n_samples=config.n_samples)),
            ("design.json", design.to_dict())]


def _lqr_controller(plant, maxima_arg):
    spec = bryson_weights(_load_maxima(_resolve(maxima_arg)))
    return LqrControl(solve_lqr(plant, spec).k_gain)


def _run(args, controllers):
    """Simulate and summarize each controller of ``controllers(plant, modal)``.

    Reads the building, the ``--quake`` record, ``--t-end`` and ``--window``
    before it builds the controllers, so a bad record or window exits 2
    before a scan can exit 3. Returns the record's keys of the output JSON
    (quake, pga, t_end) and an iterator of (label, trace, summary) that runs
    one controller per step, so a caller holds one trace at a time.
    """
    setup, modal, plant = _load_setup(args)
    path = _resolve(args.quake)
    quake = (load_accelerogram(path) if args.pga is None
             else load_accelerogram(path, scale=args.pga, scale_mode="pga"))
    t_end = args.t_end if args.t_end is not None else quake.duration
    window = None
    if args.window is not None:
        try:
            a, b = (float(x) for x in args.window.split(","))
        except ValueError as exc:
            raise ConfigError(f"--window expects 'a,b', got {args.window!r}") from exc
        window = (a, b)
    laws = controllers(plant, modal)

    def runs():
        for law in laws:
            trace = simulate(plant, law, quake, t_end, mu_d=setup.atmd.mu_d)
            yield law.label, trace, summarize(trace, window)
    return {"quake": quake.label, "pga": quake.pga, "t_end": t_end}, runs()


def cmd_simulate(args) -> list:
    def controllers(plant, modal):
        if args.controller == "passive":
            return [PassiveControl()]
        if args.controller == "smc":
            if args.tuning is None:
                raise ConfigError("--tuning is required for the smc controller")
            config = _tuning_config(args)
            return [SmcControl(_tuned(plant, modal, config).design,
                               label=f"smc-{config.index}")]
        if args.maxima is None:
            raise ConfigError("--maxima is required for the lqr controller")
        return [_lqr_controller(plant, args.maxima)]

    record, runs = _run(args, controllers)
    label, trace, summary = next(runs)
    print(f"{label}: z2 rms = {1000 * summary['z2']['rms']:.3f} mm, "
          f"peak = {1000 * summary['z2']['peak']:.3f} mm; "
          f"u rms = {summary['u']['rms']:.3f} N, peak = {summary['u']['peak']:.3f} N")
    return [("trace.csv", functools.partial(write_trace_csv, trace)),
            ("summary.json", {"controller": label, **record, **summary})]


def cmd_compare(args) -> list:
    def controllers(plant, modal):
        result = _tuned(plant, modal, _tuning_config(args))
        laws = [PassiveControl(), *(SmcControl(pick(plant, result, index).design,
                                               label=f"smc-{index}")
                                    for index in INDEX_CHOICES)]
        if args.maxima is not None:
            laws.append(_lqr_controller(plant, args.maxima))
        return laws

    record, runs = _run(args, controllers)
    rows = [(label, summary) for label, _, summary in runs]
    stats = [(ch, stat) for ch in ("z1", "z2", "z3", "z4", "u") for stat in ("rms", "peak")]

    def comparison_csv(path):
        cells = _cells([[summary[ch][stat] for ch, stat in stats] for _, summary in rows])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(["controller", *(f"{ch}_{stat}" for ch, stat in stats)]) + "\n")
            for i, (label, _) in enumerate(rows):
                fh.write(",".join([label, *cells[i * len(stats):(i + 1) * len(stats)]]) + "\n")
    baseline = rows[0][1]["z2"]
    ratios = {label: {f"z2_{stat}_attenuation": baseline[stat] / summary["z2"][stat]
                      if summary["z2"][stat] > 0 else None for stat in ("peak", "rms")}
              for label, summary in rows[1:]}
    print(f"{'controller':<10} {'z2 rms (mm)':>12} {'z2 peak (mm)':>13} "
          f"{'u rms (N)':>10} {'u peak (N)':>11}")
    for label, summary in rows:
        print(f"{label:<10} {1000 * summary['z2']['rms']:>12.3f} "
              f"{1000 * summary['z2']['peak']:>13.3f} "
              f"{summary['u']['rms']:>10.3f} {summary['u']['peak']:>11.3f}")
    return [("comparison.csv", comparison_csv),
            ("comparison.json", {**record, "results": dict(rows),
                                 "attenuation_vs_passive": ratios})]


@functools.cache  # built once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smctune",
        description="Design, tune, and evaluate a sliding-mode controller for a "
                    "building protected by an active tuned mass damper.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True,
                       help="building JSON (path or bundled fixture name)")
        p.add_argument("--out", default=".", help="output directory")

    p_model = sub.add_parser("model", help="modal reduction and plant matrices")
    add_common(p_model)
    p_model.set_defaults(func=cmd_model)

    p_tune = sub.add_parser("tune", help="grid-search tuning")
    add_common(p_tune)
    p_tune.add_argument("--tuning", required=True, help="tuning JSON")
    p_tune.add_argument("--index", choices=INDEX_CHOICES, default=None,
                        help="override the performance index")
    p_tune.set_defaults(func=cmd_tune)

    p_lqr = sub.add_parser("lqr", help="LQR baseline gain")
    add_common(p_lqr)
    p_lqr.add_argument("--maxima", required=True, help="maxima JSON for the weights")
    p_lqr.set_defaults(func=cmd_lqr)

    p_freq = sub.add_parser("freq", help="frequency response of the tuned design")
    add_common(p_freq)
    p_freq.add_argument("--tuning", required=True)
    p_freq.add_argument("--index", choices=INDEX_CHOICES, default=None)
    p_freq.set_defaults(func=cmd_freq)

    def add_sim_args(p):
        p.add_argument("--quake", required=True, help="ground-motion CSV")
        p.add_argument("--pga", type=float, default=None,
                       help="rescale the record to this peak acceleration (m/s^2)")
        p.add_argument("--t-end", type=float, default=None, dest="t_end")
        p.add_argument("--window", default=None, help="summary window 'a,b' in seconds")

    p_sim = sub.add_parser("simulate", help="closed-loop time-domain run")
    add_common(p_sim)
    add_sim_args(p_sim)
    p_sim.add_argument("--controller", choices=("passive", "smc", "lqr"), required=True)
    p_sim.add_argument("--tuning", default=None)
    p_sim.add_argument("--index", choices=INDEX_CHOICES, default=None)
    p_sim.add_argument("--maxima", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="all controllers side by side")
    add_common(p_cmp)
    add_sim_args(p_cmp)
    p_cmp.add_argument("--tuning", required=True)
    p_cmp.add_argument("--maxima", default=None,
                       help="include the LQR column when given")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _write_outputs(Path(args.out), args.func(args))
        return EXIT_OK
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleTuningError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # every reader raises ConfigError, so this is a write
        print(f"error: cannot write {exc.filename or args.out}: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
