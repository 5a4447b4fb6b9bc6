"""The run plan: parse, validate and run reject the same inputs."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghostsim as gs
from ghostsim import ConfigError, cli, ensemble, optics, runner, scenario
from ghostsim.cli import preset_text
from conftest import TINY_HBT, TINY_SCENARIO

_UNRUNNABLE = {
    "object_points": preset_text("fig3") + "object_points = 64\n",
    "bucket_half_width": TINY_SCENARIO.replace("bucket_half_width = 0.6 mm",
                                               "bucket_half_width = 50 um"),
    "mask": TINY_SCENARIO.replace("mask = double_slit", "mask = opaque"),
    "object_points-alias": TINY_SCENARIO + "object_span = 8 mm\nobject_points = 64\n",
    "detector_step": TINY_SCENARIO.replace("detector_step = 25 um",
                                           "detector_step = 2 mm"),
    "hbt_dt": preset_text("hbt").replace("hbt_dt = 5 ps", "hbt_dt = 0 ps"),
    "hbt_window": preset_text("hbt").replace("hbt_window = 1.8 ns",
                                             "hbt_window = 0 ns"),
    "seed-duplicate": TINY_SCENARIO + "seed = 3\n",
    # literals that overflow to inf
    "z1": TINY_SCENARIO.replace("z1 = 30 cm", "z1 = 1e400 m"),
    "source_radius": TINY_SCENARIO.replace("source_radius = 2 mm",
                                           "source_radius = 1e400 mm"),
    # 7 and 10 bins: the baseline needs a bin centre past ten coherence
    # times, which the estimator never takes to be under one bin
    "hbt_window-7-bins": TINY_HBT.replace("hbt_window = 1.8 ns",
                                          "hbt_window = 0.175 ns"),
    "hbt_window-10-bins": TINY_HBT.replace("hbt_window = 1.8 ns",
                                           "hbt_window = 0.25 ns"),
    # finite extremes, each size checked as a float before it is an int
    "n_realizations-401-digits": TINY_SCENARIO.replace("= 384", "= 1" + "0" * 400),
    "detector_step-1e-300": TINY_SCENARIO.replace("detector_step = 25 um",
                                                  "detector_step = 1e-300 m"),
    "coherence_time-5e-324": "kind = hbt\ncoherence_time = 5e-324\n",
    # the step and the point count both set the detector grid
    "detector_points-with-step": TINY_SCENARIO + "detector_points = 100000000000\n",
}


@pytest.mark.parametrize("case", sorted(_UNRUNNABLE))
def test_validate_and_run_give_one_verdict(case, tmp_path, capsys):
    text = _UNRUNNABLE[case]
    scen = tmp_path / "bad.scenario"
    scen.write_text(text)
    key = case.split("-")[0]
    # every case sets its key; the error points at the last line that does
    line = max(n for n, stmt in enumerate(text.splitlines(), start=1)
               if stmt.partition("=")[0].strip() == key)
    for argv in (["validate", str(scen)],
                 ["run", str(scen), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 2
        assert f"line {line}: key '{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# finite extremes whose auto-sized grids overflow or underflow a float
_EXTREME_GEOMETRY = {
    "z1-1e300": TINY_SCENARIO.replace("z1 = 30 cm", "z1 = 1e300 m"),
    "z1-1e-300": TINY_SCENARIO.replace("z1 = 30 cm", "z1 = 1e-300 m"),
    "source_radius-1e-300": TINY_SCENARIO.replace("source_radius = 2 mm",
                                                  "source_radius = 1e-300 m"),
    "wavelength-1e-300": TINY_SCENARIO.replace("wavelength = 693 nm",
                                               "wavelength = 1e-300 m"),
    # an infinite span over an infinite spacing: a NaN point count
    "wavelength-z1-nan": (TINY_SCENARIO.replace("wavelength = 693 nm",
                                                "wavelength = 1e170 m")
                          .replace("z1 = 30 cm", "z1 = 1e140 m")),
    # half the span underflows to 0: a grid with no width
    "object_span-5e-324": TINY_SCENARIO + "object_span = 5e-324 m\n",
}


@pytest.mark.parametrize("case", sorted(_EXTREME_GEOMETRY))
def test_an_extreme_geometry_exits_2_with_a_short_message(case, tmp_path, capsys):
    scen = tmp_path / "extreme.scenario"
    scen.write_text(_EXTREME_GEOMETRY[case])
    for argv in (["validate", str(scen)],
                 ["run", str(scen), "--out", str(tmp_path / "out")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err) < 120, err
    assert not (tmp_path / "out").exists()


def test_validate_reports_the_planned_grids(tmp_path, capsys):
    scen = tmp_path / "fig2.scenario"
    scen.write_text(preset_text("fig2"))
    assert cli.main(["validate", str(scen)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "OK: kind=focused_image method=montecarlo seed=20260814"
    g = scenario.spatial_grids(gs.parse_scenario(preset_text("fig2")))
    planned = [(g.source, "source"), (g.object, "object"),
               (g.detector, "detector"), (g.detector_field, "detector field")]
    assert len(out) == 1 + len(planned) + 2
    for line, (grid, name) in zip(out[1:], planned):
        assert line.startswith(f"{name} grid: {grid.n_points} points, dx = ")
        assert float(line.split("dx = ")[1].split()[0]) == pytest.approx(
            grid.dx, rel=1e-5)
    assert out[-2:] == _leg_lines(preset_text("fig2"))
    assert out[-2:] == ["bucket leg: direct, 10790 matrix entries, 31 block rows",
                        "detector leg: direct, 34320 matrix entries, 31 block rows"]
    # fig3 by Monte Carlo: chirp-z legs
    fig3 = preset_text("fig3").replace("method = analytic", "method = montecarlo")
    scen.write_text(fig3)
    assert cli.main(["validate", str(scen)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == _leg_lines(fig3)
    assert [line.split(",")[0] for line in out[-2:]] == ["bucket leg: chirp-z",
                                                         "detector leg: chirp-z"]


def _leg_lines(text):
    """validate's leg lines from the plans a run of text builds."""
    cfg = gs.parse_scenario(text)
    p = scenario.plan(cfg)
    plans = ensemble._Legs(p.mask, cfg.geometry(z2=cfg.z1),
                           runner._ensemble_config(cfg, p.grids, cfg.seed),
                           p.source.wavelength).plans
    rows = ensemble._block_size(q.width for q in plans)
    return [f"{leg} leg: direct, {q.matrix.size} matrix entries, {rows} block rows"
            if isinstance(q, optics._DirectPlan) else
            f"{leg} leg: chirp-z, {q.nfft} FFT points, {rows} block rows"
            for leg, q in zip(("bucket", "detector"), plans)]


def test_analytic_route_integrates_only_the_bucket_window():
    # a 0.15 mm window cuts both slits of the tiny double slit
    text = (TINY_SCENARIO.replace("method = montecarlo", "method = both")
            .replace("n_realizations = 384", "n_realizations = 4096")
            .replace("bucket_half_width = 0.6 mm", "bucket_half_width = 0.15 mm"))
    cfg = gs.parse_scenario(text)
    profiles, _ = gs.run_scenario(cfg)
    mc, an = profiles[:2]
    z = (mc.delta_g2 - an.delta_g2) / mc.std_err
    assert np.mean(np.abs(z) <= 3.0) >= 0.95
    # the Monte Carlo bucket reads only the window, so cutting the mask
    # outside it moves no bit
    p = scenario.plan(cfg)
    uncut = gs.delta_g2_montecarlo(
        cfg.build_mask(p.grids.object), p.source, cfg.geometry(),
        runner._ensemble_config(cfg, p.grids, cfg.seed))
    assert np.array_equal(uncut.delta_g2, mc.delta_g2)
    assert np.array_equal(uncut.std_err, mc.std_err)


def test_uniform_mask_is_clear_within_its_half_width():
    text = (TINY_SCENARIO.replace("mask = double_slit", "mask = uniform")
            .replace("mask_slit_width = 150 um\nmask_separation = 350 um",
                     "mask_half_width = 100 um"))
    p = scenario.plan(gs.parse_scenario(text))
    x = p.grids.object.x
    assert np.array_equal(p.mask.t, (np.abs(x) <= 100e-6).astype(complex))
    assert np.any(np.abs(x) > 100e-6)  # the grid reaches past the opening


def _pick(draw, *values):
    return draw(st.sampled_from(values))


@st.composite
def _spatial_scenarios(draw):
    kind = _pick(draw, *scenario._SPATIAL)
    method = _pick(draw, *scenario.METHODS)
    mask = _pick(draw, *scenario._MASK_PARAM_KEYS)
    keys = {"kind": kind, "method": method, "mask": mask,
            "source_profile": _pick(draw, "uniform", "gaussian"),
            "source_radius": _pick(draw, "1 mm", "2 mm"),
            "z1": "30 cm", "detector_span": "1 mm"}
    if kind == "focused_image":
        keys["z2"] = _pick(draw, "24 cm", "30 cm", "36 cm")
    else:
        keys.update(z2_min="24 cm", z2_max="36 cm", z2_steps="2")
    if mask == "pinhole_pair":
        keys.update(mask_separation="350 um",
                    mask_diameter_1=_pick(draw, "60 um", "150 um"),
                    mask_diameter_2=_pick(draw, "60 um", "150 um"))
    elif mask == "double_slit":
        keys.update(mask_separation="350 um",
                    mask_slit_width=_pick(draw, "50 um", "150 um"))
    else:
        keys["mask_half_width"] = _pick(draw, "100 um", "300 um")
    if method != "analytic":
        keys["n_realizations"] = str(draw(st.integers(2, 4)))
    optional = {
        "object_points": st.integers(8, 1024).map(str),
        "detector_points": st.integers(2, 96).map(str),
        "bucket_half_width": st.sampled_from(["30 um", "120 um", "300 um", "3 mm"]),
        "detector_aperture": st.sampled_from(["0 um", "20 um", "80 um"]),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            keys[key] = draw(values)
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_spatial_scenarios())
def test_a_scenario_that_parses_runs(text):
    try:
        cfg = gs.parse_scenario(text)
    except ConfigError:
        return
    gs.run_scenario(cfg)


# the Fresnel phase pi*(x - y)^2/(lambda*z) is unchanged when every
# transverse length scales by sqrt(s) and lambda*z by s, through lambda
# alone or through every distance
_STRETCHED = {"wavelength": ("wavelength",),
              "distances": ("z1", "z2", "z2_min", "z2_max")}
_TRANSVERSE = [k for k, (vtype, _, _) in scenario._KEY_TABLE.items()
               if vtype == "length" and k not in sum(_STRETCHED.values(), ())]


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(_spatial_scenarios(), st.floats(-5.0, 2.0), st.sampled_from(sorted(_STRETCHED)))
def test_results_are_invariant_under_fresnel_similarity(text, log_s, stretched):
    try:
        cfg = gs.parse_scenario(text)
    except ConfigError:
        return
    if cfg.method != "analytic":
        cfg = replace(cfg, n_realizations=4)
    s = 10.0**log_s
    factors = dict.fromkeys(_TRANSVERSE, np.sqrt(s)) | dict.fromkeys(_STRETCHED[stretched], s)
    similar = replace(cfg, **{k: getattr(cfg, k) * f for k, f in factors.items()
                              if getattr(cfg, k) is not None})
    grids = [scenario.spatial_grids(c) for c in (cfg, similar)]
    for name in ("source", "object", "detector", "detector_field"):
        a, b = (getattr(g, name) for g in grids)
        assert (a is None and b is None) or a.n_points == b.n_points, name
    profiles, _ = gs.run_scenario(cfg)
    similar_profiles, _ = gs.run_scenario(similar)
    assert len(profiles) == len(similar_profiles)
    for p, q in zip(profiles, similar_profiles):
        peak = np.max(np.abs(p.delta_g2))
        assert np.max(np.abs(p.delta_g2 - q.delta_g2)) <= 1e-10 * peak
