"""One measured ghostsim run, executed in its own process by run.py.

    python3 child.py SCENARIO RECORD SRC_DIR [--setup-only] [--trace]

Imports ghostsim (from SRC_DIR, which must be where PYTHONPATH points),
then drives the public CLI exactly as a user would:
``ghostsim run SCENARIO --threads 2``. It writes RECORD, a JSON file with

* ``import_s``  time to import ghostsim.cli,
* ``run_call``  time.monotonic() when the CLI called run_scenario; on
  Linux the monotonic clock is shared by all processes, so the parent
  subtracts its own spawn timestamp to get the set-up time,
* ``spans``     with --trace, one entry per call into a wrapped public
  function (see _TRACED), kept in memory and written at exit.

--setup-only stops at the call into run_scenario, so the process measures
only set-up: interpreter start, imports and scenario parsing.
"""

from __future__ import annotations

import argparse
import cmath
import importlib
import inspect
import itertools
import json
import math
import os
import sys
import threading
import time

THREADS = 2


class Tracer:
    """Records a span for every call into the functions it wraps.

    A span is (id, name, start, end, parent id, thread id, attributes).
    The parent is the innermost open span on the calling thread; a call
    that starts on a pool thread with nothing open belongs to the
    innermost open span of the main thread, which is where ghostsim
    starts every fan-out.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr, name, attrs=None):
        fn = getattr(module, attr)
        params = inspect.signature(fn).parameters.values()
        names = [q.name for q in params]
        defaults = {q.name: q.default for q in params if q.default is not q.empty}
        tracer = self

        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else (tracer._main_stack[-1:] or [None])[0]
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            extra = None
            if attrs is not None:
                arguments = dict(defaults)
                arguments.update(zip(names, args))
                arguments.update(kwargs)
                extra = attrs(arguments, out)
            tracer.spans.append((sid, name, t0, t1, parent,
                                 threading.get_ident(), extra))
            return out

        traced.__wrapped__ = fn
        setattr(module, attr, traced)


def _plan_key(in_grid, out_grid, lambda_z, sign):
    """The chirp-z plan a transform needs, as optics.chirp_kernel_sum
    derives it: (n, m, w, a)."""
    gamma = 1.0 / lambda_z
    s = float(sign)
    w = cmath.exp(-s * 2j * math.pi * gamma * in_grid.dx * out_grid.dx)
    a = cmath.exp(s * 2j * math.pi * gamma * in_grid.dx * out_grid.x_min)
    return [in_grid.n_points, out_grid.n_points,
            [w.real, w.imag], [a.real, a.imag]]


def _fresnel_attrs(a, out):
    field = a["field"]
    return {"plan": _plan_key(field.grid, a["out_grid"],
                              a["wavelength"] * a["distance"], 1)}


def _chirp_attrs(a, out):
    return {"plan": _plan_key(a["in_grid"], a["out_grid"],
                              a["lambda_z"], a["sign"])}


def _map_attrs(a, out):
    return {"rows": int(out.shape[0])}


def _montecarlo_attrs(a, out):
    return {"realizations": int(out.n_realizations),
            "detector_points": int(out.x2.size)}


def _trace_attrs(a, out):
    return {"samples": int(out.size)}


def _thin_attrs(a, out):
    return {"rate": float(a["det"].mean_rate), "photons": int(out.size)}


def _tac_attrs(a, out):
    return {"coincidences": int(out.counts.sum())}


def _export_attrs(a, out):
    return {"bytes": sum(os.path.getsize(p) for p in out)}


# (module, attribute, span name, attribute extractor): each public
# function at the site where ghostsim binds and calls it.
_TRACED = [
    ("cli", "parse_scenario", "scenario.parse", None),
    ("cli", "run_scenario", "runner.run", None),
    ("cli", "export_results", "output.export", _export_attrs),
    ("runner", "delta_g2_montecarlo", "ensemble.montecarlo", _montecarlo_attrs),
    ("runner", "delta_g2_analytic", "analytic.delta_g2", None),
    ("runner", "simulate_intensity_trace", "coincidence.trace", _trace_attrs),
    ("runner", "thin_photons", "coincidence.thin", _thin_attrs),
    ("runner", "start_stop_histogram", "coincidence.tac", _tac_attrs),
    ("runner", "estimate_g2", "coincidence.estimate", None),
    ("runner", "estimate_coherence_time", "coincidence.estimate", None),
    ("ensemble", "draw_source_realization", "ensemble.draw", None),
    ("ensemble", "simulate_realization", "ensemble.realization", None),
    ("ensemble", "fresnel_propagate", "optics.fresnel", _fresnel_attrs),
    ("analytic", "coherence_kernel_map", "coherence.map", _map_attrs),
    ("coherence", "chirp_kernel_sum", "optics.chirp", _chirp_attrs),
]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("scenario")
    p.add_argument("record")
    p.add_argument("src_dir")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    t0 = time.monotonic()
    import ghostsim.cli as cli
    record = {"import_s": time.monotonic() - t0}

    src = os.path.realpath(args.src_dir)
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"ghostsim was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 5

    tracer = None
    if args.trace:
        tracer = Tracer()
        for mod, attr, name, attrs in _TRACED:
            tracer.wrap(importlib.import_module(f"ghostsim.{mod}"), attr,
                        name, attrs)

    run_scenario = cli.run_scenario

    def timed_run_scenario(cfg, workers=1):
        record["run_call"] = time.monotonic()
        if args.setup_only:
            raise SystemExit(0)
        return run_scenario(cfg, workers)

    cli.run_scenario = timed_run_scenario
    try:
        return cli.main(["run", args.scenario, "--threads", str(THREADS)])
    finally:
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
