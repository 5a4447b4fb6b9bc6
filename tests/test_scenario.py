"""Scenario file grammar, presets, validation diagnostics."""

import dataclasses
import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ghostsim as gs
from ghostsim import ConfigError
from ghostsim import cli, scenario
from ghostsim.cli import preset_names, preset_text


def test_preset_names():
    assert preset_names() == ["fig2", "fig3", "hbt"]


def test_presets_parse_and_round_trip():
    for name in preset_names():
        cfg = gs.parse_scenario(preset_text(name))
        again = gs.parse_scenario(gs.dump_scenario(cfg))
        assert again == cfg


def test_round_trip_preserves_custom_config(tiny_scenario_text):
    cfg = gs.parse_scenario(tiny_scenario_text)
    assert gs.parse_scenario(gs.dump_scenario(cfg)) == cfg


# one valid value per scenario key; kind and mask come from the case
_SAMPLE_VALUES = {
    "method": "montecarlo", "seed": "7", "output": "sample-out",
    "wavelength": "633 nm", "source_profile": "gaussian",
    "source_radius": "1 mm", "coherence_time": "0.1 ns", "z1": "300 mm",
    "z2": "310 mm", "z2_min": "250 mm", "z2_max": "350 mm", "z2_steps": "5",
    "mask_separation": "200 um", "mask_diameter_1": "50 um",
    "mask_diameter_2": "40 um", "mask_slit_width": "50 um",
    "mask_half_width": "100 um", "n_realizations": "64",
    "detector_aperture": "20 um", "detector_step": "10 um",
    "detector_span": "1 mm", "detector_points": "33",
    "object_span": "0.8 mm", "object_points": "257",
    "bucket_half_width": "0.3 mm", "start_rate": "1e9", "stop_rate": "1e6",
    "hbt_dt": "5 ps", "hbt_batch_duration": "40 us", "hbt_batches": "3",
    "hbt_bin_width": "25 ps", "hbt_window": "1 ns", "jitter_sigma": "10 ps",
    "dead_time": "1 ns",
}
_FULL_CASES = [(kind, mask) for kind in scenario._SPATIAL
               for mask in scenario._MASK_PARAM_KEYS] + [("hbt", None)]


# the two exclusive ways to set a detector grid: one per spatial kind
_DETECTOR_GRID_KEY = {"focused_image": "detector_step", "z2_sweep": "detector_points"}


def _every_key_set(kind, mask):
    """Every key the schema allows for this kind and mask, set explicitly,
    of detector_step and detector_points the one _DETECTOR_GRID_KEY names."""
    allowed = scenario._MASK_PARAM_KEYS.get(mask, ())
    values = {"kind": kind, "mask": mask}
    for f in dataclasses.fields(gs.ScenarioConfig):
        if f.name in values or kind not in f.metadata["kinds"]:
            continue
        if f.name in scenario._MASK_KEYS and f.name not in allowed:
            continue
        if f.name in _DETECTOR_GRID_KEY.values() and f.name != _DETECTOR_GRID_KEY[kind]:
            continue
        values[f.name] = _SAMPLE_VALUES[f.name]
    return {k: v for k, v in values.items() if v is not None}


@pytest.mark.parametrize("kind,mask", _FULL_CASES,
                         ids=[f"{k}-{m}" if m else k for k, m in _FULL_CASES])
def test_round_trip_with_every_key_set(kind, mask):
    values = _every_key_set(kind, mask)
    cfg = gs.parse_scenario("".join(f"{k} = {v}\n" for k, v in values.items()))
    assert {k for k, v in dataclasses.asdict(cfg).items()
            if v is not None} == set(values)
    assert gs.parse_scenario(gs.dump_scenario(cfg)) == cfg


def test_readme_names_every_scenario_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    missing = [f.name for f in dataclasses.fields(gs.ScenarioConfig)
               if f"`{f.name}`" not in readme]
    assert missing == []


def test_focused_preset_reproduces_reference_geometry():
    cfg = gs.parse_scenario(preset_text("fig2"))
    assert cfg.kind == "focused_image"
    assert cfg.wavelength == pytest.approx(692.9e-9)
    assert cfg.source_radius == pytest.approx(0.835e-3)
    assert cfg.z1 == pytest.approx(1.7)
    assert cfg.z2 == pytest.approx(1.7)
    assert cfg.mask == "pinhole_pair"
    assert cfg.mask_diameter_1 == pytest.approx(0.77e-3)
    assert cfg.mask_diameter_2 == pytest.approx(0.72e-3)
    assert cfg.mask_separation == pytest.approx(3.66e-3)
    assert cfg.detector_aperture == pytest.approx(1.8e-3)
    assert cfg.detector_step == pytest.approx(0.25e-3)


def test_sweep_preset_reproduces_reference_geometry():
    cfg = gs.parse_scenario(preset_text("fig3"))
    assert cfg.kind == "z2_sweep"
    assert cfg.wavelength == pytest.approx(693e-9)
    assert cfg.source_radius == pytest.approx(6e-3)
    assert cfg.z1 == pytest.approx(0.3)
    assert (cfg.z2_min, cfg.z2_max, cfg.z2_steps) == (pytest.approx(0.2), pytest.approx(0.4), 21)
    assert cfg.mask == "double_slit"
    assert cfg.mask_slit_width == pytest.approx(100e-6)
    assert cfg.mask_separation == pytest.approx(200e-6)


def test_hbt_preset_parameters():
    cfg = gs.parse_scenario(preset_text("hbt"))
    assert cfg.kind == "hbt"
    assert cfg.coherence_time == pytest.approx(0.1e-9)
    assert cfg.hbt_dt == pytest.approx(5e-12)
    assert cfg.jitter_sigma == 0.0
    assert cfg.hbt_window >= 10 * cfg.coherence_time


def test_unit_suffixes():
    text = (
        "kind = hbt\ncoherence_time = 0.1 ns\nhbt_dt = 5 ps\n"
        "hbt_batch_duration = 40 us\nhbt_batches = 2\nhbt_bin_width = 0.025 ns\n"
        "hbt_window = 1.8 ns\nstart_rate = 1.8e10\nstop_rate = 5e6\n"
    )
    cfg = gs.parse_scenario(text)
    assert cfg.coherence_time == pytest.approx(1e-10)
    assert cfg.hbt_dt == pytest.approx(5e-12)
    assert cfg.hbt_batch_duration == pytest.approx(4e-5)


@pytest.mark.parametrize(
    "unit,si",
    [("170 cm", 1.7), ("1.7 m", 1.7), ("1700 mm", 1.7), ("1.7e6 um", 1.7), ("1.7e6 µm", 1.7), ("1.7e9 nm", 1.7)],
)
def test_length_units(unit, si, tiny_scenario_text):
    text = tiny_scenario_text.replace("z1 = 30 cm", f"z1 = {unit}")
    assert gs.parse_scenario(text).z1 == pytest.approx(si)


def test_error_reports_line_and_key(tiny_scenario_text):
    text = tiny_scenario_text + "lens_focal = 3 mm\n"
    with pytest.raises(ConfigError) as exc:
        gs.parse_scenario(text)
    msg = str(exc.value)
    assert "lens_focal" in msg
    assert "line 17" in msg
    assert "unknown key" in msg


def test_duplicate_key_rejected(tiny_scenario_text):
    text = tiny_scenario_text + "seed = 3\n"
    with pytest.raises(ConfigError, match="duplicate"):
        gs.parse_scenario(text)


def test_seed_must_fit_in_64_bits(tiny_scenario_text):
    top = tiny_scenario_text.replace("seed = 777", f"seed = {2**64 - 1}")
    assert gs.parse_scenario(top).seed == 2**64 - 1
    for bad in (2**64, -1):
        text = tiny_scenario_text.replace("seed = 777", f"seed = {bad}")
        with pytest.raises(ConfigError) as exc:
            gs.parse_scenario(text)
        assert "key 'seed'" in str(exc.value)
        assert "line 3" in str(exc.value)


def test_seed_override_out_of_range_is_config_error(tmp_path, capsys,
                                                    tiny_scenario_text):
    scen = tmp_path / "tiny.scenario"
    scen.write_text(tiny_scenario_text)
    code = cli.main(["run", str(scen), "--seed", str(2**64),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_record_matrix_has_a_byte_budget(tmp_path, capsys, tiny_scenario_text):
    cfg = gs.parse_scenario(tiny_scenario_text)
    points = scenario.spatial_grids(cfg).detector.n_points
    assert points == 41
    # many realizations on few detector points, and few on many: the budget
    # is on n_realizations x detector points x 8 B
    top = scenario._RECORD_BUDGET // (8 * points)
    big_detector = tiny_scenario_text.replace("detector_step = 25 um",
                                              "detector_points = {}")
    ok = (tiny_scenario_text.replace("= 384", f"= {top}"),
          big_detector.format(scenario._RECORD_BUDGET // (8 * 384)))
    bad = (tiny_scenario_text.replace("= 384", f"= {top + 1}"),
           tiny_scenario_text.replace("= 384", "= 100000000"),
           big_detector.format(scenario._RECORD_BUDGET // (8 * 384) + 1),
           big_detector.replace("= 384", "= 2").format(1 << 29))
    for text in ok:
        gs.parse_scenario(text)
    for text in bad:
        with pytest.raises(ConfigError) as exc:
            gs.parse_scenario(text)
        assert "key 'n_realizations'" in str(exc.value)
        assert "line 13" in str(exc.value)
    # the lower bound still holds
    with pytest.raises(ConfigError, match="at least 2"):
        gs.parse_scenario(tiny_scenario_text.replace("= 384", "= 1"))
    scen = tmp_path / "huge.scenario"
    scen.write_text(bad[1])
    assert cli.main(["validate", str(scen)]) == 2
    err = capsys.readouterr().err
    assert "n_realizations" in err and "line 13" in err
    for name in preset_names():
        scen.write_text(preset_text(name))
        assert cli.main(["validate", str(scen)]) == 0


_BENCH = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"

# The CLI in a child whose address space is capped at 3 GiB, so that an
# input that slips past parsing fails the test instead of exhausting memory.
CAPPED_CLI = """\
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from ghostsim.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _hbt_tac_exit_codes(tmp_path, old, new):
    """(exit code, stderr) of validate and of run on the hbt_tac benchmark
    scenario with one line replaced."""
    text = (_BENCH / "hbt_tac.scenario").read_text()
    assert old in text
    return _capped_exit_codes(tmp_path, text.replace(old, new))


def _capped_exit_codes(tmp_path, text):
    """(exit code, stderr) of validate and of run on text, each in a child
    under CAPPED_CLI's address-space cap."""
    scen = tmp_path / "capped.scenario"
    scen.write_text(text)
    env = dict(os.environ, PYTHONPATH=str(Path(gs.__file__).resolve().parents[1]))
    results = []
    for args in (["validate", str(scen)],
                 ["run", str(scen), "--out", str(tmp_path / "out")]):
        res = subprocess.run([sys.executable, "-c", CAPPED_CLI, *args],
                             capture_output=True, text=True, env=env,
                             cwd=tmp_path, timeout=120)
        results.append((res.returncode, res.stderr))
    assert not (tmp_path / "out").exists()
    return results


def test_hbt_batch_trace_over_budget_exits_2(tmp_path):
    # 20 ms at 5 ps is 4e9 samples: a 30 GiB trace per batch
    for code, err in _hbt_tac_exit_codes(tmp_path, "hbt_batch_duration = 40 us",
                                         "hbt_batch_duration = 20 ms"):
        assert code == 2, err
        assert "key 'hbt_batch_duration'" in err and "MiB budget" in err


def test_hbt_histogram_over_max_bins_exits_2(tmp_path):
    # a 1.8 ns window in 1e-21 s bins is 1.8e12 bins
    for code, err in _hbt_tac_exit_codes(tmp_path, "hbt_bin_width = 0.025 ns",
                                         "hbt_bin_width = 1e-9 ps"):
        assert code == 2, err
        assert "key 'hbt_bin_width'" in err and "1.8e+12 histogram bins" in err


@pytest.mark.parametrize("key", ["object_points", "detector_points", "z2_steps"])
def test_explicit_grid_or_sweep_over_max_points_exits_2(tmp_path, tiny_scenario_text,
                                                        key):
    # an explicit size is held to an auto-sized grid's cap before anything
    # is allocated on it; 1e11 float64 points would take 745 GiB
    text = (tiny_scenario_text.replace("method = montecarlo", "method = analytic")
            .replace("detector_step = 25 um\n", ""))
    if key == "z2_steps":
        text = (text.replace("kind = focused_image", "kind = z2_sweep")
                .replace("z2 = 30 cm", "z2_min = 25 cm\nz2_max = 35 cm"))
    text = _set_key(text, key, "100000000000")
    for code, err in _capped_exit_codes(tmp_path, text):
        assert code == 2, err
        assert f"key '{key}'" in err and str(scenario._MAX_POINTS) in err


def test_hbt_limits_are_the_run_sizes():
    # the largest accepted trace and histogram, and one sample or bin more
    base = preset_text("hbt")
    top = scenario._RECORD_BUDGET // 8
    ok = (base.replace("hbt_batch_duration = 40 us",
                       f"hbt_batch_duration = {top * 5} ps"),
          base.replace("hbt_window = 1.8 ns",
                       f"hbt_window = {scenario._MAX_POINTS * 25} ps"))
    for text in ok:
        gs.parse_scenario(text)
    bad = {"hbt_batch_duration": ok[0].replace(f"= {top * 5} ps",
                                               f"= {(top + 1) * 5} ps"),
           "hbt_bin_width": ok[1].replace(f"= {scenario._MAX_POINTS * 25} ps",
                                          f"= {(scenario._MAX_POINTS + 1) * 25} ps")}
    for key, text in bad.items():
        with pytest.raises(ConfigError) as exc:
            gs.parse_scenario(text)
        assert f"key '{key}'" in str(exc.value)


@pytest.mark.parametrize("key, value", [("detector_span", "1e-323 m"),
                                        ("object_span", "1e-322 m")])
def test_zero_spacing_grid_exits_2(tmp_path, tiny_scenario_text, key, value):
    # a positive span whose spacing rounds to 0 would give a profile whose
    # detector positions are all equal
    text = _set_key(tiny_scenario_text.replace("detector_step = 25 um\n", ""),
                    key, value)
    for code, err in _capped_exit_codes(tmp_path, text):
        assert code == 2, err
        assert f"key '{key}'" in err and "not strictly increasing" in err


def test_fig3_geometry_runs_by_montecarlo(tmp_path):
    # the source grid is the input of both legs, so z2 < z1 rows no longer
    # alias; fig2 (z2 = z1) keeps its source grid
    text = preset_text("fig3").replace("method = analytic", "method = montecarlo")
    text += "n_realizations = 8\n"
    cfg = gs.parse_scenario(text)
    assert scenario.spatial_grids(cfg).source.n_points == 2122
    fig2 = gs.parse_scenario(preset_text("fig2"))
    assert scenario.spatial_grids(fig2).source.n_points == 65
    scen = tmp_path / "fig3mc.scenario"
    scen.write_text(text)
    assert cli.main(["validate", str(scen)]) == 0
    assert cli.main(["run", str(scen), "--out", str(tmp_path / "out"),
                     "--threads", "2"]) == 0
    assert (tmp_path / "out" / "sweep.csv").exists()


def test_validate_rejects_an_aliasing_montecarlo_leg(tmp_path, capsys,
                                                     tiny_scenario_text):
    no_aperture = preset_text("fig2").replace("detector_aperture = 1.8 mm",
                                              "detector_aperture = 0 mm")
    cases = {
        "detector_step": no_aperture,
        "object_points": tiny_scenario_text + "object_span = 8 mm\nobject_points = 64\n",
        "detector_points": tiny_scenario_text.replace("detector_step = 25 um",
                                                      "detector_points = 3"),
    }
    scen = tmp_path / "alias.scenario"
    for key, text in cases.items():
        scen.write_text(text)
        assert cli.main(["validate", str(scen)]) == 2
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "alias" in err
    # the run parses through the same plan and gives the same verdict
    scen.write_text(no_aperture)
    assert cli.main(["run", str(scen), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "key 'detector_step'" in err and "alias" in err
    # the analytic arm propagates no field on these grids
    scen.write_text(no_aperture.replace("method = montecarlo", "method = analytic"))
    assert cli.main(["validate", str(scen)]) == 0
    for text in _shipped_texts():
        scen.write_text(text)
        assert cli.main(["validate", str(scen)]) == 0


def _shipped_texts():
    """The presets and the benchmark's scenarios."""
    texts = [preset_text(name) for name in preset_names()]
    texts += [p.read_text() for p in sorted(_BENCH.glob("*.scenario"))]
    assert len(texts) == 6
    return texts


def _set_key(text, key, value):
    """text with key's statement set to value, appended if text has none."""
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.split("#", 1)[0].partition("=")[0].strip() == key:
            lines[i] = f"{key} = {value}\n"
            return "".join(lines)
    return text + f"{key} = {value}\n"


# values of every type, sign and scale, including ones that overflow to inf
_MUTATIONS = ("0", "-1", "1e-9", "1", "2", "1e9", "abc", "7 mm", "0.1 ns",
              "montecarlo", "both", "70 ps", "1e400", "1e400 mm", "-0")


def test_every_mutation_of_a_shipped_scenario_parses_or_is_a_config_error():
    # each shipped file with each line dropped, and with each key set to
    # each of _MUTATIONS: parsing returns a config or raises ConfigError,
    # never a traceback
    texts = []
    for text in _shipped_texts():
        lines = text.splitlines(keepends=True)
        texts += ["".join(lines[:i] + lines[i + 1:]) for i in range(len(lines))]
        texts += [_set_key(text, key, value) for key in scenario._KEY_TABLE
                  for value in _MUTATIONS]
    escaped = []
    for text in texts:
        try:
            gs.parse_scenario(text)
        except ConfigError:
            pass
        except Exception as exc:  # each escape is reported, not just the first
            escaped.append(f"{type(exc).__name__}: {exc}")
    assert escaped == []


@functools.cache
def _shipped_numeric_keys():
    """(text, the numeric keys that apply to its kind and mask) of each
    shipped file."""
    cases = []
    for text in _shipped_texts():
        cfg = gs.parse_scenario(text)
        allowed = scenario._MASK_PARAM_KEYS.get(cfg.mask, ())
        cases.append((text, [k for k, (vtype, kinds, _) in scenario._KEY_TABLE.items()
                             if vtype in ("int", "length", "time", "float")
                             and cfg.kind in kinds
                             and (k not in scenario._MASK_KEYS or k in allowed)]))
    return cases


_UNITS = {"length": ("", " m", " mm", " um", " nm", " pm"),
          "time": ("", " s", " ms", " ns", " ps", " fs"), "float": ("",)}


@st.composite
def _extreme_values(draw, key):
    """A value for key from anywhere in float64's finite range, log-uniform
    over [5e-324, max], with or without a unit; an int of up to 400 digits."""
    vtype = scenario._KEY_TABLE[key][0]
    if vtype == "int":
        return str(draw(st.integers(0, 10 ** draw(st.integers(0, 400)))))
    log_x = draw(st.floats(math.log(5e-324), math.log(sys.float_info.max)))
    return f"{min(math.exp(log_x), sys.float_info.max)!r}" + draw(st.sampled_from(
        _UNITS[vtype]))


@st.composite
def _extreme_scenarios(draw):
    """A shipped file with one or two of its numeric keys set by _extreme_values."""
    text, numeric = draw(st.sampled_from(_shipped_numeric_keys()))
    keys = draw(st.lists(st.sampled_from(numeric), min_size=1, max_size=2, unique=True))
    for key in keys:
        text = _set_key(text, key, draw(_extreme_values(key)))
    return text


@settings(max_examples=1000, derandomize=True, database=None, deadline=None)
@given(_extreme_scenarios())
@example(_set_key(preset_text("fig3"), "detector_span", "1e-323 m"))
def test_every_finite_value_parses_or_is_a_short_config_error(text):
    # the method suits all wavelengths, so legal values span every decade:
    # each size is checked as a float before it becomes an int, and a
    # spatial plan's every grid has strictly increasing points
    try:
        cfg = gs.parse_scenario(text)
    except ConfigError as exc:
        assert len(str(exc)) <= 300, str(exc)
        return
    if cfg.kind != "hbt":
        grids = scenario.plan(cfg).grids
        for grid in (grids.source, grids.object, grids.detector,
                     grids.detector_field):
            assert grid is None or np.all(np.diff(grid.x) > 0), grid


# (the file after kind = hbt, the key and line an error names, the default
# that failed): the default hbt_dt (coherence_time / 20) underflows to 0;
# the default start_rate (0.09 / hbt_dt) and batch (8e6 hbt_dt) overflow
_DERIVED_DEFAULTS = [
    ("coherence_time = 5e-324\n", "coherence_time", 2, "hbt_dt = 0,"),
    ("coherence_time = 1e-320 s\n", "coherence_time", 2, "start_rate = inf,"),
    ("coherence_time = 1e307 s\n", "coherence_time", 2, "hbt_batch_duration = inf,"),
    # derived from a key the file sets, a default names that key
    ("coherence_time = 1e-300 s\nhbt_dt = 1e-320 s\n", "hbt_dt", 3, "start_rate = inf,"),
]


@pytest.mark.parametrize("body, key, line, default", _DERIVED_DEFAULTS)
def test_a_derived_default_out_of_range_names_its_source(body, key, line, default):
    with pytest.raises(ConfigError) as exc:
        gs.parse_scenario("kind = hbt\n" + body)
    assert (exc.value.key, exc.value.line) == (key, line)
    assert f"default {default}" in str(exc.value)


@pytest.mark.parametrize("side", ["below", "at"])
def test_thinning_bound_is_one_comparison(side):
    # start_rate * hbt_dt < 0.1: parsing and thin_photons draw the line
    # at the same float
    base = preset_text("hbt")
    dt = gs.parse_scenario(base).hbt_dt
    rate = 0.1 / dt
    while rate * dt < 0.1:
        rate = np.nextafter(rate, np.inf)
    while np.nextafter(rate, 0.0) * dt >= 0.1:
        rate = np.nextafter(rate, 0.0)
    if side == "below":
        rate = np.nextafter(rate, 0.0)
    text = base.replace("start_rate = 1.8e10", f"start_rate = {float(rate)!r}")
    det = gs.DetectorSpec(mean_rate=float(rate))
    if side == "below":
        assert gs.parse_scenario(text).start_rate == rate
        assert gs.thin_photons(np.ones(64), dt, det, seed=1).size > 0
    else:
        with pytest.raises(ConfigError) as exc:
            gs.parse_scenario(text)
        assert exc.value.key == "start_rate"
        with pytest.raises(gs.InvalidArgumentError):
            gs.thin_photons(np.ones(64), dt, det, seed=1)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        gs.parse_scenario("kind = hbt\nthis is not an assignment\n")


def test_empty_value_rejected():
    with pytest.raises(ConfigError, match="empty"):
        gs.parse_scenario("kind = \n")


def test_missing_kind_rejected():
    with pytest.raises(ConfigError):
        gs.parse_scenario("seed = 4\n")


def test_missing_required_key_rejected(tiny_scenario_text):
    text = tiny_scenario_text.replace("mask_separation = 350 um\n", "")
    with pytest.raises(ConfigError, match="mask_separation"):
        gs.parse_scenario(text)


def test_key_for_wrong_kind_rejected():
    bad = {"mask_slit_width": preset_text("hbt") + "mask_slit_width = 100 um\n",
           # spatial speckle is equal-time: no coherence time enters
           "coherence_time": preset_text("fig2") + "coherence_time = 0.1 ns\n"}
    for key, text in bad.items():
        with pytest.raises(ConfigError, match="does not apply") as exc:
            gs.parse_scenario(text)
        assert exc.value.key == key
        assert exc.value.line == len(text.splitlines())


def test_wrong_unit_dimension_rejected(tiny_scenario_text):
    text = tiny_scenario_text.replace("z1 = 30 cm", "z1 = 30 ns")
    with pytest.raises(ConfigError):
        gs.parse_scenario(text)


def _out_of_range(key):
    """A value just past each end of key's declared range, and one that
    overflows to inf."""
    vtype = scenario._KEY_TABLE[key][0]
    least, most = scenario._RANGES[key]
    if vtype == "int":
        return [str(least - 1), "1e400"] + ([] if most is None else [str(most + 1)])
    unit = {"length": " m", "time": " s", "float": ""}[vtype]
    return ["0" if least is None else "-1e-300", f"1e400{unit}"]


def test_nonpositive_dimension_rejected(tiny_scenario_text):
    text = tiny_scenario_text.replace("source_radius = 2 mm", "source_radius = -2 mm")
    with pytest.raises(ConfigError, match="positive"):
        gs.parse_scenario(text)
    # every numeric key, in a file that sets every key it can: a key added
    # to the schema without a range fails here
    numeric = [k for k, (vtype, _, _) in scenario._KEY_TABLE.items()
               if vtype in ("int", "length", "time", "float")]
    for key in numeric:
        kind, mask = next((k, m) for k, m in _FULL_CASES
                          if key in _every_key_set(k, m))
        values = _every_key_set(kind, mask)
        line = list(values).index(key) + 1
        for bad in _out_of_range(key):
            text = "".join(f"{k} = {bad if k == key else v}\n"
                           for k, v in values.items())
            with pytest.raises(ConfigError) as exc:
                gs.parse_scenario(text)
            assert (exc.value.key, exc.value.line) == (key, line), (key, bad)


def test_sweep_bounds_must_order():
    text = preset_text("fig3").replace("z2_min = 200 mm", "z2_min = 500 mm")
    with pytest.raises(ConfigError):
        gs.parse_scenario(text)


def test_overlapping_pinholes_rejected():
    text = preset_text("fig2").replace("mask_separation = 3.66 mm", "mask_separation = 0.5 mm")
    with pytest.raises(ConfigError, match="overlap"):
        gs.parse_scenario(text)


def test_hbt_step_must_resolve_coherence_time():
    text = preset_text("hbt").replace("hbt_dt = 5 ps", "hbt_dt = 50 ps")
    with pytest.raises(ConfigError):
        gs.parse_scenario(text)


# (scenario meeting one trace bound exactly, its key, the value at the bound,
# the value 1% beyond it); rates and batches keep each run small
_HBT_BOUNDARIES = [
    ("coherence_time = 0.7 ns\nhbt_dt = 70 ps\nhbt_batch_duration = 20 us\n"
     "stop_rate = 4e6\n", "hbt_dt", "70 ps", "70.7 ps"),
    ("coherence_time = 2.3 ns\nhbt_dt = 230 ps\nhbt_batch_duration = 60 us\n"
     "stop_rate = 1.2e6\n", "hbt_dt", "230 ps", "232.3 ps"),
    ("coherence_time = 0.1 ns\nhbt_batch_duration = 10 ns\n",
     "hbt_batch_duration", "10 ns", "9.9 ns"),
]


@pytest.mark.parametrize("body, key, at, beyond", _HBT_BOUNDARIES,
                         ids=["dt-0.7ns", "dt-2.3ns", "duration-0.1ns"])
def test_hbt_trace_bounds_include_their_boundaries(tmp_path, capsys, body, key,
                                                   at, beyond):
    # dt <= tau0 / 10 and duration >= 100 tau0, as the scenario's values
    # round: 0.7 ns / 10 < 70 ps and 100 x 0.1 ns > 10 ns in float64
    text = "kind = hbt\nhbt_batches = 2\n" + body
    cfg = gs.parse_scenario(text)
    trace = gs.simulate_intensity_trace(cfg.coherence_time, cfg.hbt_batch_duration,
                                        cfg.hbt_dt, seed=1)
    assert trace.size == round(cfg.hbt_batch_duration / cfg.hbt_dt)
    scen = tmp_path / "edge.scenario"
    scen.write_text(text)
    assert cli.main(["validate", str(scen)]) == 0
    code = cli.main(["run", str(scen), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if key == "hbt_dt":
        assert code == 0, err
    else:
        # two 10 ns batches catch almost no stops: the run gets past every
        # trace and stops at the empty histogram's baseline
        assert code == 3 and "baseline" in err

    with pytest.raises(ConfigError) as exc:
        gs.parse_scenario(text.replace(f"{key} = {at}", f"{key} = {beyond}"))
    assert exc.value.key == key
    dt, duration = ((cfg.hbt_dt * 1.01, cfg.hbt_batch_duration) if key == "hbt_dt"
                    else (cfg.hbt_dt, cfg.hbt_batch_duration * 0.99))
    with pytest.raises(gs.InvalidArgumentError):
        gs.simulate_intensity_trace(cfg.coherence_time, duration, dt, seed=1)


@pytest.mark.parametrize("key,old,new", [("hbt_dt", "5 ps", "0 ps"),
                                         ("hbt_window", "1.8 ns", "0 ns")])
def test_hbt_zero_step_or_window_is_a_config_error(key, old, new):
    # the default rates divide by both, so they are checked first
    text = preset_text("hbt").replace(f"{key} = {old}", f"{key} = {new}")
    with pytest.raises(ConfigError) as exc:
        gs.parse_scenario(text)
    assert exc.value.key == key and "positive" in str(exc.value)


def test_analytic_method_invalid_for_hbt():
    text = preset_text("hbt").replace("method = montecarlo", "method = analytic")
    with pytest.raises(ConfigError):
        gs.parse_scenario(text)


def test_both_method_invalid_for_sweep(tmp_path, capsys):
    # each sweep row runs one method, so 'both' is refused, not half run
    text = preset_text("fig3").replace("method = analytic", "method = both")
    with pytest.raises(ConfigError) as exc:
        gs.parse_scenario(text)
    assert exc.value.key == "method"
    assert exc.value.line == text.splitlines().index("method = both") + 1
    scen = tmp_path / "fig3.scenario"
    scen.write_text(preset_text("fig3"))
    assert cli.main(["run", str(scen), "--method", "both",
                     "--out", str(tmp_path / "out")]) == 2
    assert "key 'method'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("preset, flag, value, key", [
    ("fig3", "--method", "both", "method"),
    ("fig2", "--seed", str(2**64), "seed"),
    ("fig2", "--out", "", "output"),
])
def test_override_error_names_the_flag_not_a_line(tmp_path, capsys, preset,
                                                  flag, value, key):
    # the overridden config is re-parsed from its canonical dump, whose line
    # numbers are not the file's
    scen = tmp_path / "in.scenario"
    scen.write_text(preset_text(preset))
    args = ["run", str(scen), flag, value]
    if flag != "--out":
        args += ["--out", str(tmp_path / "out")]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert f"key '{key}'" in err
    assert f"(set by {flag})" in err
    assert "line " not in err
    assert not (tmp_path / "out").exists()


def test_override_error_on_another_key_names_the_flags(tmp_path, capsys):
    # valid alone (the analytic route keeps no record matrix), over the
    # record budget once --method mc asks for one
    text = preset_text("fig3") + "n_realizations = 1000000000\n"
    scen = tmp_path / "in.scenario"
    scen.write_text(text)
    gs.parse_scenario(text)
    assert cli.main(["run", str(scen), "--method", "mc", "--seed", "3",
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "key 'n_realizations'" in err
    assert "(with --seed, --method, --out)" in err
    assert "line " not in err
    assert not (tmp_path / "out").exists()


def test_too_few_realizations_rejected_for_analytic_method():
    text = preset_text("fig3") + "n_realizations = 1\n"
    with pytest.raises(ConfigError, match="at least 2") as exc:
        gs.parse_scenario(text)
    assert exc.value.key == "n_realizations"
    assert exc.value.line == len(text.splitlines())


def test_dump_echoes_resolved_defaults(tiny_scenario_text):
    cfg = gs.parse_scenario(tiny_scenario_text)
    dump = gs.dump_scenario(cfg)
    assert "n_realizations = 384" in dump
    assert "seed = 777" in dump
    # values are normalized to SI floats on the way out
    assert "z1 = 0.3" in dump


def test_config_is_a_plain_dataclass(tiny_scenario_text):
    cfg = gs.parse_scenario(tiny_scenario_text)
    clone = dataclasses.replace(cfg, seed=1)
    assert clone.seed == 1 and cfg.seed == 777
