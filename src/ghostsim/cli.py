"""Command-line interface.

    ghostsim run <scenario-file> [--seed N] [--method mc|analytic|both]
                 [--out DIR] [--threads N]
    ghostsim presets list | dump <name>
    ghostsim validate <scenario-file>

Exit codes: 0 success, 2 configuration error, 3 numerical or
degenerate-statistics error, 4 I/O error. parse_scenario plans every
spatial run (scenario.plan), so validate and run reject the same inputs
with 2; 3 is left to what only the run itself can find, such as
statistics that cannot be formed. Overrides (--seed, --method, --out)
apply to a file that must be valid on its own; an error they cause names
the flag, not a line. --threads falls back to
the GHOSTSIM_THREADS environment variable, then to 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from .coincidence import _linear_filter
from .ensemble import _Legs
from .errors import ConfigError, GhostSimError
from .optics import _DirectPlan
from .runner import _ensemble_config, run_scenario
from .output import export_results
from .scenario import dump_scenario, parse_scenario, plan

__all__ = ["main"]

_METHOD_ALIASES = {"mc": "montecarlo", "montecarlo": "montecarlo",
                   "analytic": "analytic", "both": "both"}

# the scenario key each run override sets, and its flag
_OVERRIDE_FLAGS = {"seed": "--seed", "method": "--method", "output": "--out"}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghostsim",
        description="Lensless ghost-imaging and photon-coincidence simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario file")
    run.add_argument("scenario", help="path to a .scenario file")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed (unsigned 64-bit)")
    run.add_argument("--method", choices=sorted(set(_METHOD_ALIASES)),
                     default=None, help="override the computation method")
    run.add_argument("--out", default=None, help="override the output directory")
    run.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: GHOSTSIM_THREADS or 1)")

    presets = sub.add_parser("presets", help="list or print bundled scenarios")
    presets.add_argument("action", choices=("list", "dump"))
    presets.add_argument("name", nargs="?", default=None)

    validate = sub.add_parser("validate", help="parse and check a scenario file")
    validate.add_argument("scenario", help="path to a .scenario file")
    return parser


def _preset_dir():
    return resources.files("ghostsim") / "presets"


def preset_names() -> list:
    return sorted(p.name[:-len(".scenario")]
                  for p in _preset_dir().iterdir()
                  if p.name.endswith(".scenario"))


def preset_text(name: str) -> str:
    entry = _preset_dir() / f"{name}.scenario"
    if not entry.is_file():
        raise ConfigError(
            f"no preset named {name!r}; available: {', '.join(preset_names())}"
        )
    return entry.read_text(encoding="utf-8")


def _resolve_threads(cli_value) -> int:
    if cli_value is not None:
        n = cli_value
    else:
        env = os.environ.get("GHOSTSIM_THREADS", "").strip()
        if env:
            try:
                n = int(env)
            except ValueError:
                raise ConfigError(
                    f"GHOSTSIM_THREADS must be an integer, got {env!r}")
        else:
            n = 1
    if n < 1:
        raise ConfigError("thread count must be at least 1")
    return n


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(text)


def _cmd_run(args) -> int:
    cfg = _load(args.scenario)
    threads = _resolve_threads(args.threads)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.method is not None:
        overrides["method"] = _METHOD_ALIASES[args.method]
    if args.out is not None:
        overrides["output"] = args.out
    if overrides:
        # re-validate the overridden config through the one validator; the
        # dump's line numbers are not the file's, so an error names the flags
        try:
            cfg = parse_scenario(dump_scenario(replace(cfg, **overrides)))
        except ConfigError as exc:
            if exc.key in overrides:
                note = f"set by {_OVERRIDE_FLAGS[exc.key]}"
            else:
                note = "with " + ", ".join(_OVERRIDE_FLAGS[k] for k in overrides)
            raise ConfigError(f"{exc.message} ({note})", key=exc.key) from exc

    if cfg.kind == "hbt":
        # load scipy's compiled filter kernel in set-up, not in the run;
        # the scipy.signal package itself is never imported
        _linear_filter()
    profiles, report = run_scenario(cfg, workers=threads)
    written = export_results(profiles, report, cfg.output)
    _write_resolved(cfg, Path(cfg.output))
    for path in written:
        print(path)
    print(f"runtime: {report.runtime_seconds:.2f} s")
    for key, value in sorted(report.to_json_dict().items()):
        if value is not None and value != []:
            print(f"{key}: {value}")
    return EXIT_OK


def _write_resolved(cfg, out_dir: Path) -> None:
    with open(out_dir / "scenario.resolved", "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(dump_scenario(cfg))


def _cmd_presets(args) -> int:
    if args.action == "list":
        for name in preset_names():
            print(name)
        return EXIT_OK
    if not args.name:
        raise ConfigError("presets dump requires a name")
    sys.stdout.write(preset_text(args.name))
    return EXIT_OK


def _cmd_validate(args) -> int:
    cfg = _load(args.scenario)
    print(f"OK: kind={cfg.kind} method={cfg.method} seed={cfg.seed}")
    if cfg.kind != "hbt":
        p = plan(cfg)
        g = p.grids
        for name, grid in (("source", g.source), ("object", g.object),
                           ("detector", g.detector),
                           ("detector field", g.detector_field)):
            if grid is not None:
                print(f"{name} grid: {grid.n_points} points, "
                      f"dx = {grid.dx:.6g} m")
    if cfg.kind != "hbt" and cfg.method != "analytic":
        # the legs a Monte Carlo run derives: at any z2, the same grids
        legs = _Legs(p.mask, cfg.geometry(z2=cfg.z2_values()[0]),
                     _ensemble_config(cfg, g, cfg.seed), cfg.wavelength)
        for leg, q in zip(("bucket", "detector"), legs.plans):
            what = (f"direct, {q.matrix.size} matrix entries"
                    if isinstance(q, _DirectPlan) else f"chirp-z, {q.nfft} FFT points")
            print(f"{leg} leg: {what}, {legs.rows} block rows")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "presets": _cmd_presets,
               "validate": _cmd_validate}[args.command]
    # the one mapping from errors to exit codes
    try:
        return command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GhostSimError, FloatingPointError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
