"""Speckle ensemble statistics and the Monte Carlo correlation estimator."""

import threading

import numpy as np
import pytest
from numpy.random import Generator, Philox

import ghostsim as gs
from ghostsim import (
    DegenerateStatisticsError,
    GridMismatchError,
    InvalidArgumentError,
    ensemble,
    scenario,
)
from ghostsim.cli import preset_text
from ghostsim.ensemble import fan_out


def test_draw_moments_match_gaussian_statistics():
    # <|a|^2> = I_s within 2%, <a> consistent with zero
    src = gs.SourceSpec(693e-9, gs.UniformProfile(1e-3))
    grid = gs.make_grid(-0.8e-3, 0.8e-3, 16)
    n = 100_000
    s1 = np.zeros(16, complex)
    s2 = np.zeros(16)
    for i in range(n):
        a = gs.draw_source_realization(src, grid, i, 2024).amplitude
        s1 += a
        s2 += np.abs(a) ** 2
    assert np.max(np.abs(s2 / n - 1.0)) < 0.02
    assert np.max(np.abs(s1 / n)) < 4.0 / np.sqrt(n)


def test_draw_scales_with_source_intensity():
    src = gs.SourceSpec(693e-9, gs.UniformProfile(1e-3, peak=4.0))
    grid = gs.make_grid(-0.5e-3, 0.5e-3, 64)
    n = 20_000
    s2 = np.zeros(64)
    for i in range(n):
        s2 += np.abs(gs.draw_source_realization(src, grid, i, 99).amplitude) ** 2
    assert np.mean(s2 / n) == pytest.approx(4.0, rel=0.02)


def test_draw_is_deterministic_in_seed_and_index():
    src = gs.SourceSpec(693e-9, gs.UniformProfile(1e-3))
    grid = gs.make_grid(-0.5e-3, 0.5e-3, 32)
    a = gs.draw_source_realization(src, grid, 7, 123).amplitude
    b = gs.draw_source_realization(src, grid, 7, 123).amplitude
    c = gs.draw_source_realization(src, grid, 8, 123).amplitude
    d = gs.draw_source_realization(src, grid, 7, 124).amplitude
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_draw_outside_support_is_dark():
    src = gs.SourceSpec(692.9e-9, gs.UniformProfile(0.835e-3))
    far = gs.make_grid(5e-3, 6e-3, 33)
    f = gs.draw_source_realization(src, far, 0, 11)
    assert f.total_power == 0.0
    assert np.all(f.amplitude == 0)


def test_zero_power_profile_rejected():
    grid = gs.make_grid(-1e-3, 1e-3, 33)
    with pytest.raises(InvalidArgumentError):
        gs.SourceSpec(693e-9, gs.SampledProfile(grid, np.zeros(33)))


def test_full_bucket_collects_all_power(small_rig):
    # uniform mask + bucket spanning the whole object grid = plane power
    lam = 693e-9
    sg = gs.make_grid(-2e-3, 2e-3, 512)
    og = gs.make_grid(-4e-3, 4e-3, 1024)
    dg = gs.make_grid(-1e-3, 1e-3, 128)
    src = gs.SourceSpec(lam, gs.GaussianProfile(0.5e-3))
    cfg = gs.EnsembleConfig(
        n_realizations=2, master_seed=7, source_grid=sg, object_grid=og,
        detector_grid=dg, bucket_window=(-4e-3, 4e-3),
    )
    fld = gs.draw_source_realization(src, sg, 0, 7)
    rec = gs.simulate_realization(
        fld, gs.TransmissionMask.uniform(og), gs.OpticalGeometry(0.25, 0.25), cfg, lam
    )
    prop = gs.fresnel_propagate(fld, 0.25, lam, og)
    assert rec.i1 == pytest.approx(prop.total_power, rel=1e-9)


def test_opaque_mask_gives_dark_bucket(small_rig):
    rig = small_rig
    cfg = rig.config(2, 7)
    fld = gs.draw_source_realization(rig.source, rig.source_grid, 0, 7)
    rec = gs.simulate_realization(
        fld, gs.TransmissionMask.opaque(rig.object_grid), rig.geom, cfg, rig.lam
    )
    assert rec.i1 == 0.0
    assert np.all(rec.i2 > 0)  # arm 2 never sees the mask


def test_speckle_correlation_length_follows_kernel(small_rig):
    rig = small_rig
    cfg = rig.config(3000, 31)
    um = gs.TransmissionMask.uniform(rig.object_grid)
    i2s = np.empty((3000, rig.detector_grid.n_points))
    for i in range(3000):
        f = gs.draw_source_realization(rig.source, rig.source_grid, i, 31)
        i2s[i] = gs.simulate_realization(f, um, rig.geom, cfg, rig.lam).i2
    di = i2s - i2s.mean(axis=0)
    c0 = (di * di).mean(axis=0).mean()
    dx = rig.detector_grid.dx
    for frac in (0.4, 1.0, 2.0):
        s = int(round(frac * rig.kernel_width / dx))
        c = (di[:, :-s] * di[:, s:]).mean(axis=0).mean() / c0
        expected = np.sinc(s * dx / rig.kernel_width) ** 2
        assert c == pytest.approx(expected, abs=0.05)


def test_uniform_mask_gives_flat_profile(small_rig):
    rig = small_rig
    prof = gs.delta_g2_montecarlo(
        gs.TransmissionMask.uniform(rig.object_grid), rig.source, rig.geom,
        rig.config(3000, 99),
    )
    ref = np.average(prof.delta_g2, weights=1.0 / prof.std_err**2)
    coverage = np.mean(np.abs(prof.delta_g2 - ref) <= 3 * prof.std_err)
    assert coverage >= 0.95


def test_point_source_reaches_siegert_ceiling(small_rig):
    # fully coherent illumination: raw g2 at the speckle peak -> 2
    rig = small_rig
    src = gs.SourceSpec(rig.lam, gs.UniformProfile(10e-6))
    sg = gs.make_grid(-12e-6, 12e-6, 64)
    cfg = gs.EnsembleConfig(
        n_realizations=4096, master_seed=5, source_grid=sg,
        object_grid=rig.object_grid, detector_grid=rig.detector_grid,
        bucket_window=rig.bucket,
    )
    um = gs.TransmissionMask.uniform(rig.object_grid)
    raw = gs.delta_g2_montecarlo(um, src, rig.geom, cfg, normalization="raw_g2")
    pk = int(np.argmax(raw.delta_g2))
    assert abs(raw.delta_g2[pk] - 2.0) <= 3 * raw.std_err[pk]


def test_raw_g2_equals_one_plus_fluctuation(small_rig):
    rig = small_rig
    src = gs.SourceSpec(rig.lam, gs.UniformProfile(10e-6))
    sg = gs.make_grid(-12e-6, 12e-6, 64)
    cfg = gs.EnsembleConfig(
        n_realizations=512, master_seed=5, source_grid=sg,
        object_grid=rig.object_grid, detector_grid=rig.detector_grid,
        bucket_window=rig.bucket,
    )
    um = gs.TransmissionMask.uniform(rig.object_grid)
    raw = gs.delta_g2_montecarlo(um, src, rig.geom, cfg, normalization="raw_g2")
    flc = gs.delta_g2_montecarlo(um, src, rig.geom, cfg, normalization="fluctuation")
    assert np.max(np.abs(raw.delta_g2 - 1.0 - flc.delta_g2)) < 1e-12
    assert raw.normalization == "raw_g2"
    assert flc.normalization == "fluctuation"


def test_std_err_shrinks_as_sqrt_n(small_rig):
    rig = small_rig
    mask = gs.TransmissionMask.double_slit(rig.object_grid, 150e-6, 350e-6)
    pa = gs.delta_g2_montecarlo(mask, rig.source, rig.geom, rig.config(1024, 1))
    pb = gs.delta_g2_montecarlo(mask, rig.source, rig.geom, rig.config(4096, 2))
    assert np.median(pa.std_err / pb.std_err) == pytest.approx(2.0, rel=0.2)


def test_montecarlo_agrees_with_analytic(small_rig):
    rig = small_rig
    mask = gs.TransmissionMask.double_slit(rig.object_grid, 150e-6, 350e-6)
    mc = gs.delta_g2_montecarlo(mask, rig.source, rig.geom, rig.config(4096, 2))
    an = gs.delta_g2_analytic(mask, rig.source, rig.geom, rig.detector_grid)
    coverage = np.mean(np.abs(mc.delta_g2 - an.delta_g2) <= 3 * mc.std_err)
    assert coverage >= 0.95


def test_worker_count_does_not_change_results(small_rig):
    rig = small_rig
    mask = gs.TransmissionMask.double_slit(rig.object_grid, 150e-6, 350e-6)
    p1 = gs.delta_g2_montecarlo(mask, rig.source, rig.geom, rig.config(512, 1), n_workers=1)
    p4 = gs.delta_g2_montecarlo(mask, rig.source, rig.geom, rig.config(512, 1), n_workers=4)
    assert np.array_equal(p1.delta_g2, p4.delta_g2)
    assert np.array_equal(p1.std_err, p4.std_err)


def test_all_dark_ensemble_rejected(small_rig):
    rig = small_rig
    with pytest.raises(DegenerateStatisticsError):
        gs.delta_g2_montecarlo(
            gs.TransmissionMask.opaque(rig.object_grid), rig.source, rig.geom,
            rig.config(16, 3),
        )


def test_mask_grid_must_match_object_grid(small_rig):
    rig = small_rig
    other = gs.TransmissionMask.uniform(gs.make_grid(-0.6e-3, 0.6e-3, 255))
    with pytest.raises(GridMismatchError):
        gs.delta_g2_montecarlo(other, rig.source, rig.geom, rig.config(16, 3))


def test_unknown_normalization_rejected(small_rig):
    rig = small_rig
    mask = gs.TransmissionMask.uniform(rig.object_grid)
    with pytest.raises(InvalidArgumentError):
        gs.delta_g2_montecarlo(mask, rig.source, rig.geom, rig.config(16, 3),
                               normalization="siegert")


def test_config_validation(small_rig):
    rig = small_rig
    with pytest.raises(InvalidArgumentError):
        rig.config(1, 3)  # fewer than two realizations
    with pytest.raises(InvalidArgumentError):
        rig.config(16, -1)  # seed must be an unsigned 64-bit value
    with pytest.raises(InvalidArgumentError):
        rig.config(16, 2**64)
    with pytest.raises(InvalidArgumentError):
        gs.EnsembleConfig(
            n_realizations=16, master_seed=3, source_grid=rig.source_grid,
            object_grid=rig.object_grid, detector_grid=rig.detector_grid,
            bucket_window=(0.9e-3, 0.1e-3),  # empty window
        )
    with pytest.raises(InvalidArgumentError):
        gs.EnsembleConfig(
            n_realizations=16, master_seed=3, source_grid=rig.source_grid,
            object_grid=rig.object_grid, detector_grid=rig.detector_grid,
            bucket_window=rig.bucket, detector_aperture=-1e-3,
        )


def test_aperture_requires_field_grid_coverage(small_rig):
    rig = small_rig
    # aperture wider than the finely-sampled field grid around the scan span
    with pytest.raises(InvalidArgumentError):
        gs.EnsembleConfig(
            n_realizations=16, master_seed=3, source_grid=rig.source_grid,
            object_grid=rig.object_grid, detector_grid=rig.detector_grid,
            bucket_window=rig.bucket, detector_aperture=0.4e-3,
            detector_field_grid=gs.make_grid(-0.5e-3, 0.5e-3, 256),
        )


def test_aperture_averages_neighbourhood(small_rig):
    # an apertured scan equals the boxcar mean of the fine-grid intensity
    rig = small_rig
    fg = gs.make_grid(-0.8e-3, 0.8e-3, 512)
    cfg = gs.EnsembleConfig(
        n_realizations=2, master_seed=17, source_grid=rig.source_grid,
        object_grid=rig.object_grid, detector_grid=rig.detector_grid,
        bucket_window=rig.bucket, detector_aperture=0.2e-3,
        detector_field_grid=fg,
    )
    cfg_fine = gs.EnsembleConfig(
        n_realizations=2, master_seed=17, source_grid=rig.source_grid,
        object_grid=rig.object_grid, detector_grid=fg,
        bucket_window=rig.bucket,
    )
    um = gs.TransmissionMask.uniform(rig.object_grid)
    fld = gs.draw_source_realization(rig.source, rig.source_grid, 0, 17)
    rec = gs.simulate_realization(fld, um, rig.geom, cfg, rig.lam)
    fine = gs.simulate_realization(fld, um, rig.geom, cfg_fine, rig.lam)
    for j in (10, 64, 100):
        x0 = rig.detector_grid.x[j]
        lo, hi = fg.index_range(x0 - 0.1e-3, x0 + 0.1e-3)
        assert rec.i2[j] == pytest.approx(fine.i2[lo:hi].mean(), rel=1e-9)


@pytest.mark.parametrize("workers", [0, 1, 3])
def test_fan_out_keeps_item_order(workers):
    threads = set()

    def square(i):
        threads.add(threading.get_ident())
        return i * i

    assert fan_out(square, range(7), workers) == [i * i for i in range(7)]
    if workers <= 1:
        assert threads == {threading.get_ident()}


# --- realization blocks ---


def records_one_at_a_time(mask, source, geom, cfg):
    """The Monte Carlo records from a loop over single realizations, with
    the per-realization formulas written out: draw, both legs, bucket sum
    and aperture window mean."""
    sg, og, lam = cfg.source_grid, cfg.object_grid, source.wavelength
    n = cfg.n_realizations
    i1 = np.empty(n)
    i2 = np.empty((n, cfg.detector_grid.n_points))
    i0, i1_ = og.index_range(*cfg.bucket_window)
    for r in range(n):
        rng = Generator(Philox(key=np.array([cfg.master_seed, r], dtype=np.uint64)))
        z = rng.standard_normal(2 * sg.n_points)
        g = (z[0::2] + 1j * z[1::2]) * np.sqrt(0.5)
        f = gs.ComplexField(sg, np.sqrt(source.profile.intensity(sg.x)) * g)
        a = gs.fresnel_propagate(f, geom.z1, lam, og).amplitude[i0:i1_] * mask.t[i0:i1_]
        i1[r] = float(np.sum(a.real**2 + a.imag**2) * og.dx)
        if cfg.detector_aperture == 0.0:
            a2 = gs.fresnel_propagate(f, geom.z2, lam, cfg.detector_grid).amplitude
            i2[r] = a2.real**2 + a2.imag**2
            continue
        fg = cfg.detector_field_grid
        a2 = gs.fresnel_propagate(f, geom.z2, lam, fg).amplitude
        csum = np.concatenate(([0.0], np.cumsum(a2.real**2 + a2.imag**2)))
        half = 0.5 * cfg.detector_aperture
        lo = np.searchsorted(fg.x, cfg.detector_grid.x - half, side="left")
        hi = np.searchsorted(fg.x, cfg.detector_grid.x + half, side="right")
        i2[r] = (csum[hi] - csum[lo]) / (hi - lo)
    return i1, i2


def _fig2_case(n):
    cfg = gs.parse_scenario(preset_text("fig2"))
    grids = scenario.spatial_grids(cfg)
    ecfg = gs.EnsembleConfig(
        n_realizations=n, master_seed=cfg.seed, source_grid=grids.source,
        object_grid=grids.object, detector_grid=grids.detector,
        bucket_window=grids.bucket, detector_aperture=cfg.detector_aperture,
        detector_field_grid=grids.detector_field,
    )
    return cfg.build_mask(grids.object), cfg.source(), cfg.geometry(), ecfg


def _rig_case(rig, n, **kw):
    mask = gs.TransmissionMask.double_slit(rig.object_grid, 150e-6, 350e-6)
    return mask, rig.source, rig.geom, rig.config(n, 41, **kw)


def _big_source_case(rig, n):
    # a 16385-point source grid: Bluestein length past 8192, so B = 1
    cfg = gs.EnsembleConfig(
        n_realizations=n, master_seed=8, source_grid=gs.make_grid(-2.2e-3, 2.2e-3, 16385),
        object_grid=rig.object_grid, detector_grid=rig.detector_grid,
        bucket_window=(-0.3e-3, 0.2e-3),
    )
    return gs.TransmissionMask.uniform(rig.object_grid), rig.source, rig.geom, cfg


@pytest.mark.parametrize("case, block", [
    ("fig2", 18),
    ("point", 32),
    ("aperture", 21),
    ("big_source", 1),
])
def test_block_records_match_one_realization_at_a_time(small_rig, case, block):
    # realization counts that no block size divides; 1, 2 and 3 workers
    mask, source, geom, cfg = {
        "fig2": lambda: _fig2_case(40),
        "point": lambda: _rig_case(small_rig, 70),
        "aperture": lambda: _rig_case(
            small_rig, 45, detector_aperture=0.2e-3,
            detector_field_grid=gs.make_grid(-0.8e-3, 0.8e-3, 512)),
        "big_source": lambda: _big_source_case(small_rig, 3),
    }[case]()
    assert ensemble._block_size(cfg) == block
    ref_i1, ref_i2 = records_one_at_a_time(mask, source, geom, cfg)
    for workers in (1, 2, 3):
        i1, i2 = ensemble._mc_records(mask, source, geom, cfg, workers)
        assert np.array_equal(i1, ref_i1)
        assert np.array_equal(i2, ref_i2)


def test_drawn_block_rows_are_single_draws(small_rig):
    rows = gs.draw_source_realization(small_rig.source, small_rig.source_grid,
                                      range(5, 9), 123).amplitude
    assert rows.shape == (4, small_rig.source_grid.n_points)
    for r, row in zip(range(5, 9), rows):
        one = gs.draw_source_realization(small_rig.source, small_rig.source_grid, r, 123)
        assert np.array_equal(row, one.amplitude)
    with pytest.raises(InvalidArgumentError):
        gs.draw_source_realization(small_rig.source, small_rig.source_grid, range(-1, 2), 1)
