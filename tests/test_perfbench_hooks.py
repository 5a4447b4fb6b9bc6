"""The benchmark's tracing hooks still point at live ghostsim functions.

perfbench/child.py wraps each (module, attribute) pair in its _TRACED table
when run with --trace 1, and its attribute extractors read the wrapped
calls' arguments by name. A rename or a moved import in ghostsim would only
show up there as a failed benchmark run, so the table is checked here, and
traced runs are made.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghostsim as gs
from conftest import TINY_HBT, TINY_SCENARIO

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
SRC = Path(gs.__file__).resolve().parents[1]


def _traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child._TRACED


@pytest.mark.parametrize("module, attr", [row[:2] for row in _traced_table()])
def test_traced_hook_resolves_to_a_callable(module, attr):
    fn = getattr(importlib.import_module(f"ghostsim.{module}"), attr)
    assert callable(fn)
    inspect.signature(fn)  # the tracer reads argument names from it


TINY_SWEEP = """\
kind = z2_sweep
method = analytic
wavelength = 693 nm
source_radius = 2 mm
z1 = 30 cm
z2_min = 28 cm
z2_max = 32 cm
z2_steps = 2
mask = double_slit
mask_slit_width = 150 um
mask_separation = 350 um
detector_span = 1 mm
detector_points = 21
object_span = 0.8 mm
object_points = 64
"""


def test_optics_hooks_see_the_calls(monkeypatch, tiny_scenario_text):
    # the optics spans come from these two import sites; a caller that
    # bound the transform some other way would leave them empty
    traced = {(module, attr) for module, attr, name, _ in _traced_table()
              if name.startswith("optics.")}
    assert traced == {("coherence", "chirp_kernel_sum"),
                      ("ensemble", "fresnel_propagate")}
    # the Monte Carlo's own spans, which the block path must still reach
    realization = {("ensemble", "draw_source_realization"),
                   ("ensemble", "simulate_realization")}
    assert realization <= {row[:2] for row in _traced_table()}
    calls = dict.fromkeys(traced | realization, 0)
    for key in calls:
        module = importlib.import_module(f"ghostsim.{key[0]}")
        fn = getattr(module, key[1])

        def counted(*args, _fn=fn, _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, key[1], counted)
    gs.run_scenario(gs.parse_scenario(TINY_SWEEP), workers=2)
    assert calls[("coherence", "chirp_kernel_sum")] > 0
    mc = tiny_scenario_text.replace("n_realizations = 384", "n_realizations = 4")
    gs.run_scenario(gs.parse_scenario(mc), workers=2)
    assert calls[("ensemble", "fresnel_propagate")] > 0
    assert all(calls[key] > 0 for key in realization)


# the attribute names of each span that has an extractor
_SPAN_ATTRS = {
    "output.export": {"bytes"},
    "ensemble.montecarlo": {"realizations", "detector_points"},
    "optics.fresnel": {"plan"},
    "optics.chirp": {"plan"},
    "coincidence.trace": {"samples"},
    "coincidence.thin": {"rate", "photons"},
    "coincidence.tac": {"coincidences"},
}
_RUN_SPANS = {"scenario.parse", "runner.run", "output.export"}


# batches of 100 coherence times, some of which fall below the streamed
# loop's floor and are redone from a whole trace
TINY_HBT_FALLBACK = (TINY_HBT.replace("hbt_batch_duration = 4 us",
                                      "hbt_batch_duration = 10 ns")
                     .replace("hbt_batches = 4", "hbt_batches = 400")
                     .replace("stop_rate = 5e7", "stop_rate = 2e7"))


@pytest.mark.parametrize("text, spans", [
    (TINY_SCENARIO, {"ensemble.montecarlo", "ensemble.draw",
                     "ensemble.realization", "optics.fresnel"}),
    (TINY_SWEEP, {"analytic.delta_g2", "optics.chirp"}),
    # a streamed batch calls neither simulate_intensity_trace nor thin_photons
    (TINY_HBT, {"coincidence.tac", "coincidence.estimate"}),
    (TINY_HBT_FALLBACK, {"coincidence.trace", "coincidence.thin",
                         "coincidence.tac", "coincidence.estimate"}),
], ids=["montecarlo", "sweep", "hbt", "hbt-fallback"])
def test_traced_run_records_every_span(tmp_path, text, spans):
    scen, record = tmp_path / "run.scenario", tmp_path / "record.json"
    scen.write_text(text, encoding="utf-8")
    res = subprocess.run(
        [sys.executable, str(CHILD), str(scen), str(record), str(SRC), "--trace"],
        capture_output=True, text=True, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert res.returncode == 0, res.stderr
    recorded = json.loads(record.read_text(encoding="utf-8"))["spans"]
    assert {span[1] for span in recorded} == _RUN_SPANS | spans
    for _, name, _, _, _, _, attrs in recorded:
        assert (None if attrs is None else set(attrs)) == _SPAN_ATTRS.get(name), name
