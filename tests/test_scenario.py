"""Scenario file grammar, presets, validation diagnostics."""

import dataclasses
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("kind,mask", _FULL_CASES,
                         ids=[f"{k}-{m}" if m else k for k, m in _FULL_CASES])
def test_round_trip_with_every_key_set(kind, mask):
    # every key the schema allows for this kind and mask, set explicitly
    allowed = scenario._MASK_PARAM_KEYS.get(mask, ())
    values = {"kind": kind, "mask": mask}
    for f in dataclasses.fields(gs.ScenarioConfig):
        if f.name in values or kind not in f.metadata["kinds"]:
            continue
        if f.name in scenario._MASK_KEYS and f.name not in allowed:
            continue
        values[f.name] = _SAMPLE_VALUES[f.name]
    values = {k: v for k, v in values.items() if v is not None}
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
    # the run makes the same check at run time
    scen.write_text(no_aperture)
    assert cli.main(["run", str(scen), "--out", str(tmp_path / "out")]) == 3
    assert "alias" in capsys.readouterr().err
    # the analytic arm propagates no field on these grids
    scen.write_text(no_aperture.replace("method = montecarlo", "method = analytic"))
    assert cli.main(["validate", str(scen)]) == 0
    bench = Path(__file__).resolve().parents[1] / "perfbench" / "scenarios"
    texts = [preset_text(name) for name in preset_names()]
    texts += [p.read_text() for p in sorted(bench.glob("*.scenario"))]
    assert len(texts) == 6
    for text in texts:
        scen.write_text(text)
        assert cli.main(["validate", str(scen)]) == 0


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
    text = preset_text("hbt") + "mask_slit_width = 100 um\n"
    with pytest.raises(ConfigError, match="does not apply"):
        gs.parse_scenario(text)


def test_wrong_unit_dimension_rejected(tiny_scenario_text):
    text = tiny_scenario_text.replace("z1 = 30 cm", "z1 = 30 ns")
    with pytest.raises(ConfigError):
        gs.parse_scenario(text)


def test_nonpositive_dimension_rejected(tiny_scenario_text):
    text = tiny_scenario_text.replace("source_radius = 2 mm", "source_radius = -2 mm")
    with pytest.raises(ConfigError, match="positive"):
        gs.parse_scenario(text)


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


def test_analytic_method_invalid_for_hbt():
    text = preset_text("hbt").replace("method = montecarlo", "method = analytic")
    with pytest.raises(ConfigError):
        gs.parse_scenario(text)


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
