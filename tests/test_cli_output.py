"""Result files and the command-line front end."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghostsim as gs
from ghostsim import cli
from ghostsim.cli import preset_text


def run_cli(*args, env_extra=None, cwd=None):
    import os

    env = os.environ.copy()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "ghostsim.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory, tiny_scenario_text):
    """One analytic run shared by the file-format tests."""
    root = tmp_path_factory.mktemp("tinyrun")
    cfg = gs.parse_scenario(
        tiny_scenario_text.replace("method = montecarlo", "method = analytic")
    )
    profiles, report = gs.run_scenario(cfg, workers=1)
    files = gs.export_results(profiles, report, root)
    return root, profiles, report, [Path(f) for f in files]


# --- file formats ---

def test_export_writes_expected_files(tiny_run):
    root, _, _, files = tiny_run
    assert sorted(f.name for f in files) == ["metrics.json", "profile.csv", "profile.svg"]
    for f in files:
        assert f.exists() and f.stat().st_size > 0


def test_profile_csv_round_trips_exactly(tiny_run):
    root, profiles, _, _ = tiny_run
    data = gs.read_profile_csv(root / "profile.csv")
    assert np.array_equal(data["x2_m"], profiles[0].x2)
    assert np.array_equal(data["delta_g2"], profiles[0].delta_g2)
    assert np.array_equal(data["std_err"], profiles[0].std_err)


def test_profile_csv_format(tiny_run):
    root, _, _, _ = tiny_run
    raw = (root / "profile.csv").read_bytes()
    assert b"\r" not in raw  # LF only
    text = raw.decode()
    assert text.splitlines()[0] == "x2_m,delta_g2,std_err"


def test_metrics_json_shape(tiny_run):
    root, _, report, _ = tiny_run
    payload = json.loads((root / "metrics.json").read_text())
    assert list(payload) == sorted(payload)  # keys sorted for diffability
    assert "runtime_seconds" not in payload  # timings are not comparable artifacts
    assert payload["method"] == "analytic"
    assert payload["visibility"] == report.visibility


def test_visibility_recomputable_from_csv(tiny_run):
    # a reader can rebuild the headline number from the published profile
    root, _, _, _ = tiny_run
    data = gs.read_profile_csv(root / "profile.csv")
    payload = json.loads((root / "metrics.json").read_text())
    dmax = data["delta_g2"].max()
    assert abs(dmax / (2.0 + dmax) - payload["visibility"]) < 1e-9


def test_export_is_byte_stable(tiny_run, tmp_path):
    root, profiles, report, _ = tiny_run
    gs.export_results(profiles, report, tmp_path)
    for name in ("profile.csv", "metrics.json", "profile.svg"):
        assert (tmp_path / name).read_bytes() == (root / name).read_bytes()


def test_export_without_profiles_writes_metrics_only(tmp_path):
    report = gs.MetricsReport(method="analytic", runtime_seconds=0.1)
    files = gs.export_results([], report, tmp_path)
    assert [Path(f).name for f in files] == ["metrics.json"]


def test_histogram_export(tmp_path):
    centers = (np.arange(40) + 0.5) * 1e-10
    counts = np.round(1e5 * (1 + np.exp(-2 * centers / 2e-10)))
    h = gs.CoincidenceHistogram(1e-10, centers, counts, 10**9, 10**7)
    report = gs.MetricsReport(method="montecarlo", runtime_seconds=0.1,
                              g2_zero=2.0, contrast=1.0)
    files = gs.export_results([h], report, tmp_path)
    names = sorted(Path(f).name for f in files)
    assert names == ["histogram.csv", "metrics.json", "profile.svg"]
    lines = (tmp_path / "histogram.csv").read_text().splitlines()
    assert lines[0] == "delay_s,counts,g2"
    assert len(lines) == 41


# --- CSV bytes against a per-line oracle ---


def oracle_csv(header, rows):
    """The CSV bytes from one format() per value: floats to 17 significant
    digits, integers as they are."""
    def text(v):
        return str(v) if isinstance(v, int) else format(float(v), ".17g")
    lines = [header] + [",".join(map(text, row)) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _sweep_row(x2, delta, z2, focus=False):
    return gs.CorrelationProfile(np.array(x2), np.array(delta), np.zeros(len(x2)), 0,
                                 {"role": "sweep", "z2": z2, "is_focus_row": focus})


SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, -1.7976931348623157e308]


@pytest.mark.parametrize("shared_x2", [True, False], ids=["shared_x2", "own_x2"])
def test_sweep_and_profile_csv_match_the_oracle(tmp_path, shared_x2):
    grid = np.linspace(-3e-3, 4e-3, len(SPECIAL))
    grid[3] = 0.0
    # -0.0 == 0.0, yet the two grids print differently
    signed = np.where(grid == 0.0, -0.0, grid)
    grids = [grid.copy() for _ in range(4)] if shared_x2 else [
        grid, grid[:5], grid * 0.3, signed]
    rows = [_sweep_row(grids[0], np.linspace(0.0, 1.0, 8), 0.2, focus=True)] + [
        _sweep_row(g, np.roll(SPECIAL, i)[:len(g)], z2)
        for i, (g, z2) in enumerate(zip(grids[1:], [0.25, np.float64(1 / 3), 0.35]), 1)]
    gs.export_results(rows, gs.MetricsReport(method="analytic", runtime_seconds=0.1),
                      tmp_path)
    sweep = [(p.metadata["z2"], x, d) for p in rows for x, d in zip(p.x2, p.delta_g2)]
    assert (tmp_path / "sweep.csv").read_bytes() == oracle_csv("z2_m,x2_m,delta_g2", sweep)
    main = rows[0]
    assert (tmp_path / "profile.csv").read_bytes() == oracle_csv(
        "x2_m,delta_g2,std_err", zip(main.x2, main.delta_g2, main.std_err))


def test_histogram_csv_matches_the_oracle(tmp_path):
    centers = (np.arange(40) + 0.5) * 1e-10
    counts = np.round(1e5 * (1 + np.exp(-2 * centers / 2e-10))).astype(np.int64)
    h = gs.CoincidenceHistogram(1e-10, centers, counts, 10**9, 10**7)
    report = gs.MetricsReport(method="montecarlo", runtime_seconds=0.1)
    gs.export_results([h], report, tmp_path)
    g2 = gs.estimate_g2(h).g2_curve
    assert (tmp_path / "histogram.csv").read_bytes() == oracle_csv(
        "delay_s,counts,g2", zip(h.bin_centers, map(int, h.counts), g2))


# --- command line ---

def test_cli_run_mc(tmp_path, tiny_scenario_text):
    scen = tmp_path / "tiny.scenario"
    scen.write_text(tiny_scenario_text)
    out = tmp_path / "out"
    res = run_cli("run", str(scen), "--out", str(out))
    assert res.returncode == 0
    assert (out / "profile.csv").exists()
    assert (out / "metrics.json").exists()
    assert (out / "scenario.resolved").exists()
    assert "profile.csv" in res.stdout
    assert "runtime:" in res.stdout
    # resolved dump re-parses to the effective configuration
    cfg = gs.parse_scenario((out / "scenario.resolved").read_text())
    assert cfg.kind == "focused_image" and cfg.seed == 777


def test_cli_overrides_recorded(tmp_path, tiny_scenario_text):
    scen = tmp_path / "tiny.scenario"
    scen.write_text(tiny_scenario_text)
    out = tmp_path / "out"
    res = run_cli("run", str(scen), "--seed", "999", "--method", "analytic",
                  "--out", str(out))
    assert res.returncode == 0
    cfg = gs.parse_scenario((out / "scenario.resolved").read_text())
    assert cfg.seed == 999
    assert cfg.method == "analytic"
    payload = json.loads((out / "metrics.json").read_text())
    assert payload["method"] == "analytic"


def test_cli_method_both_writes_comparison(tmp_path, tiny_scenario_text):
    scen = tmp_path / "tiny.scenario"
    scen.write_text(tiny_scenario_text)
    out = tmp_path / "out"
    res = run_cli("run", str(scen), "--method", "both", "--out", str(out))
    assert res.returncode == 0
    assert (out / "profile_analytic.csv").exists()
    assert (out / "profile_diff.csv").exists()


def test_cli_missing_file_is_io_error(tmp_path):
    res = run_cli("run", str(tmp_path / "nope.scenario"))
    assert res.returncode == 4
    assert "cannot read" in res.stderr


def test_cli_bad_config_is_config_error(tmp_path):
    scen = tmp_path / "bad.scenario"
    scen.write_text("kind = focused_image\nbogus_key = 3\n")
    res = run_cli("run", str(scen))
    assert res.returncode == 2
    assert "config error" in res.stderr
    assert "bogus_key" in res.stderr


def test_cli_aliasing_grid_is_config_error(tmp_path, tiny_scenario_text):
    # explicit grids too coarse for the requested span: the plan refuses
    # them at parse, before the run would
    scen = tmp_path / "alias.scenario"
    scen.write_text(tiny_scenario_text + "object_span = 8 mm\nobject_points = 64\n")
    res = run_cli("run", str(scen), "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "alias" in res.stderr
    assert "key 'object_points'" in res.stderr


def test_cli_numerical_failure_is_numeric_error(tmp_path, capsys, monkeypatch,
                                                tiny_scenario_text):
    # a failure only the run itself can find: statistics that cannot be formed
    def degenerate(cfg, workers=1):
        raise gs.DegenerateStatisticsError("bucket detector saw no light")

    monkeypatch.setattr(cli, "run_scenario", degenerate)
    scen = tmp_path / "tiny.scenario"
    scen.write_text(tiny_scenario_text)
    assert cli.main(["run", str(scen), "--out", str(tmp_path / "x")]) == 3
    assert "saw no light" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_validate(tmp_path, tiny_scenario_text):
    scen = tmp_path / "tiny.scenario"
    scen.write_text(tiny_scenario_text)
    res = run_cli("validate", str(scen))
    assert res.returncode == 0
    assert res.stdout.startswith("OK:")
    bad = tmp_path / "bad.scenario"
    bad.write_text("kind = focused_image\nbogus_key = 3\n")
    res2 = run_cli("validate", str(bad))
    assert res2.returncode == 2


def test_cli_presets_list_and_dump(tmp_path):
    res = run_cli("presets", "list")
    assert res.returncode == 0
    assert res.stdout.split() == ["fig2", "fig3", "hbt"]
    res2 = run_cli("presets", "dump", "fig2")
    assert res2.returncode == 0
    cfg = gs.parse_scenario(res2.stdout)
    assert cfg.kind == "focused_image"
    res3 = run_cli("presets", "dump", "nosuch")
    assert res3.returncode == 2
    assert "fig2" in res3.stderr  # names the available presets


def test_cli_thread_override_validation(tmp_path, tiny_scenario_text):
    scen = tmp_path / "tiny.scenario"
    scen.write_text(tiny_scenario_text)
    res = run_cli("run", str(scen), "--threads", "0", "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    res2 = run_cli("run", str(scen), "--out", str(tmp_path / "y"),
                   env_extra={"GHOSTSIM_THREADS": "abc"})
    assert res2.returncode == 2
    assert "GHOSTSIM_THREADS" in res2.stderr
    res3 = run_cli("run", str(scen), "--out", str(tmp_path / "z"),
                   env_extra={"GHOSTSIM_THREADS": "2"})
    assert res3.returncode == 0


def test_peak_position_is_half_maximum_midpoint():
    # a flat-topped peak whose highest sample sits off centre: the reported
    # position is the centre of its half-maximum crossings, not the argmax
    x = np.linspace(-5.0, 5.0, 11)
    d = np.array([0, 0, 0, 2, 4, 4.001, 4, 4, 2, 0, 0], dtype=float)
    prof = gs.CorrelationProfile(x2=x, delta_g2=d, std_err=np.zeros_like(d),
                                 n_realizations=0)
    m = gs.profile_metrics(prof)
    assert m["peak_positions"] == pytest.approx([0.5], abs=1e-3)
    assert m["fwhm_per_peak"] == pytest.approx([5.0], abs=1e-3)


@pytest.mark.parametrize("seed", [28, 34])
def test_fig2_separation_at_plateau_seeds(seed):
    # seeds at which the argmax of fig2's flat-topped peaks jumped a whole
    # 0.25 mm scan step; criterion 3's separation rule
    cfg = gs.parse_scenario(preset_text("fig2"))
    cfg = dataclasses.replace(cfg, seed=seed)
    _, report = gs.run_scenario(cfg, workers=2)
    assert len(report.peak_positions) == 2
    assert abs(report.peak_separation - 3.66e-3) <= cfg.detector_step
