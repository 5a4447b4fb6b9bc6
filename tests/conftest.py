"""Shared fixtures and the acceptance-criteria summary hook."""

import os
import weakref
from pathlib import Path

import numpy as np
import pytest

import ghostsim as gs
from ghostsim import optics

# pyproject's pythonpath reaches only this process; the `python -m
# ghostsim.cli` subprocesses of the CLI tests import the checkout's src/ too
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

# num -> (text, outcome); filled by the hook below, printed at the end
_ACCEPTANCE: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, text): marks a test as one acceptance criterion; "
        "the run summary prints one pass/fail line per criterion",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    out = yield
    rep = out.get_result()
    m = item.get_closest_marker("acceptance")
    if m is None:
        return
    num, text = m.args
    if rep.when == "call":
        _ACCEPTANCE[num] = (text, "PASS" if rep.passed else "FAIL")
    elif rep.when == "setup" and not rep.passed:
        _ACCEPTANCE[num] = (text, "SKIP" if rep.skipped else "FAIL")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        text, outcome = _ACCEPTANCE[num]
        terminalreporter.write_line(f"criterion {num}: {outcome} - {text}")


# --- shared small Monte Carlo geometry (z1 = z2 = 0.3 m, 2 mm source) ---
# Kernel width lambda*z/(2a) = 52 um; grids sized to pass the sampling
# criterion while keeping a single realization around half a millisecond.


class SmallRig:
    lam = 693e-9
    geom = gs.OpticalGeometry(0.3, 0.3)
    source = gs.SourceSpec(693e-9, gs.UniformProfile(2e-3))
    source_grid = gs.make_grid(-2.2e-3, 2.2e-3, 256)
    object_grid = gs.make_grid(-0.6e-3, 0.6e-3, 256)
    detector_grid = gs.make_grid(-0.5e-3, 0.5e-3, 128)
    bucket = (-0.6e-3, 0.6e-3)
    kernel_width = 693e-9 * 0.3 / (2 * 2e-3)

    @classmethod
    def config(cls, n_realizations, master_seed, **kw):
        return gs.EnsembleConfig(
            n_realizations=n_realizations,
            master_seed=master_seed,
            source_grid=cls.source_grid,
            object_grid=cls.object_grid,
            detector_grid=cls.detector_grid,
            bucket_window=cls.bucket,
            **kw,
        )


@pytest.fixture(scope="session")
def small_rig():
    return SmallRig


TINY_SCENARIO = """\
kind = focused_image
method = montecarlo
seed = 777
output = tiny-out
wavelength = 693 nm
source_profile = uniform
source_radius = 2 mm
z1 = 30 cm
z2 = 30 cm
mask = double_slit
mask_slit_width = 150 um
mask_separation = 350 um
n_realizations = 384
detector_step = 25 um
detector_span = 1 mm
bucket_half_width = 0.6 mm
"""


# A small hbt run: four short batches, so that four workers all make a
# first call into the filter kernel at once.
TINY_HBT = """\
kind = hbt
coherence_time = 0.1 ns
hbt_dt = 5 ps
hbt_batch_duration = 4 us
hbt_batches = 4
hbt_bin_width = 0.025 ns
hbt_window = 1.8 ns
start_rate = 1.8e10
stop_rate = 5e7
"""


@pytest.fixture(scope="session")
def tiny_scenario_text():
    return TINY_SCENARIO


@pytest.fixture
def built_plans(monkeypatch):
    """A weak reference to each plan, of either form, built while the test
    runs, on any thread."""
    refs = []
    for form in (optics._ChirpPlan, optics._DirectPlan):
        def recorded(plan, *args, _build=form.__init__):
            _build(plan, *args)
            refs.append(weakref.ref(plan))

        monkeypatch.setattr(form, "__init__", recorded)
    return refs
