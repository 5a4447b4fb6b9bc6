"""Fresnel propagator: conservation, dual route, beam optics, sampling guard."""

import threading

import numpy as np
import pytest
from scipy.fft import next_fast_len

import ghostsim as gs
from ghostsim import InvalidArgumentError, SamplingCriterionError, coherence, optics

LAM = 693e-9


def gaussian_field(grid, w0, x0=0.0):
    return gs.ComplexField(grid, np.exp(-((grid.x - x0) ** 2) / w0**2).astype(complex))


def supergaussian_field(grid, w0):
    return gs.ComplexField(grid, np.exp(-((grid.x / w0) ** 8)).astype(complex))


def test_power_conservation_short_throw():
    gin = gs.make_grid(-2e-3, 2e-3, 512)
    gout = gs.make_grid(-4e-3, 4e-3, 1024)
    f = gaussian_field(gin, 0.4e-3)
    out = gs.fresnel_propagate(f, 0.25, LAM, gout)
    assert abs(out.total_power - f.total_power) / f.total_power < 1e-9


def test_power_conservation_long_throw():
    gin = gs.make_grid(-4e-3, 4e-3, 256)
    gout = gs.make_grid(-8e-3, 8e-3, 512)
    f = gaussian_field(gin, 0.5e-3)
    out = gs.fresnel_propagate(f, 1.7, 692.9e-9, gout)
    assert abs(out.total_power - f.total_power) / f.total_power < 1e-9


def test_fast_route_matches_direct_quadrature():
    # two independent evaluation paths of the same integral
    gin = gs.make_grid(-3e-3, 3e-3, 4096)
    gout = gs.make_grid(-4e-3, 4e-3, 4096)
    f = supergaussian_field(gin, 1e-3)
    fast = gs.fresnel_propagate(f, 0.25, LAM, gout, method="fast")
    direct = gs.fresnel_propagate(f, 0.25, LAM, gout, method="direct")
    scale = np.max(np.abs(direct.amplitude))
    assert np.max(np.abs(fast.amplitude - direct.amplitude)) / scale < 1e-9


def test_fast_route_matches_direct_quadrature_offset_beam():
    gin = gs.make_grid(-3e-3, 3e-3, 1024)
    gout = gs.make_grid(-5e-3, 5e-3, 1536)
    f = gaussian_field(gin, 0.7e-3, x0=0.4e-3)
    fast = gs.fresnel_propagate(f, 0.4, LAM, gout, method="fast")
    direct = gs.fresnel_propagate(f, 0.4, LAM, gout, method="direct")
    scale = np.max(np.abs(direct.amplitude))
    assert np.max(np.abs(fast.amplitude - direct.amplitude)) / scale < 1e-9


def test_gaussian_beam_width_follows_diffraction_law():
    w0 = 1e-3
    z = 0.3
    gin = gs.make_grid(-4e-3, 4e-3, 1024)
    gout = gs.make_grid(-5e-3, 5e-3, 1024)
    out = gs.fresnel_propagate(gaussian_field(gin, w0), z, LAM, gout)
    intens = np.abs(out.amplitude) ** 2
    mean = np.sum(intens * gout.x) / np.sum(intens)
    var = np.sum(intens * (gout.x - mean) ** 2) / np.sum(intens)
    w_meas = 2 * np.sqrt(var)  # 1/e^2 radius of a Gaussian from its variance
    zr = np.pi * w0**2 / LAM
    w_theory = w0 * np.sqrt(1 + (z / zr) ** 2)
    assert w_meas == pytest.approx(w_theory, rel=1e-3)


def test_propagation_is_linear():
    gin = gs.make_grid(-2e-3, 2e-3, 512)
    gout = gs.make_grid(-3e-3, 3e-3, 512)
    fa = gaussian_field(gin, 0.4e-3)
    fb = gaussian_field(gin, 0.9e-3, x0=0.3e-3)
    a, b = 1.7 - 0.3j, -0.4 + 2.1j
    combo = gs.ComplexField(gin, a * fa.amplitude + b * fb.amplitude)
    out_combo = gs.fresnel_propagate(combo, 0.3, LAM, gout)
    out_sep = a * gs.fresnel_propagate(fa, 0.3, LAM, gout).amplitude + \
        b * gs.fresnel_propagate(fb, 0.3, LAM, gout).amplitude
    scale = np.max(np.abs(out_sep))
    assert np.max(np.abs(out_combo.amplitude - out_sep)) / scale < 1e-12


def test_zero_field_propagates_to_zero():
    gin = gs.make_grid(-2e-3, 2e-3, 256)
    gout = gs.make_grid(-2e-3, 2e-3, 256)
    out = gs.fresnel_propagate(gs.ComplexField(gin, np.zeros(256, complex)), 0.3, LAM, gout)
    assert np.all(out.amplitude == 0)


def test_sampling_guard_rejects_coarse_grids():
    gin = gs.make_grid(-5e-3, 5e-3, 64)  # dx 159 um
    gout = gs.make_grid(-5e-3, 5e-3, 64)
    f = gaussian_field(gin, 1e-3)
    bound = gs.sampling_bound(0.1, LAM, gin, gout)
    assert gin.dx > bound
    with pytest.raises(SamplingCriterionError):
        gs.fresnel_propagate(f, 0.1, LAM, gout)


def test_sampling_bound_scales_with_distance():
    gin = gs.make_grid(-5e-3, 5e-3, 64)
    gout = gs.make_grid(-5e-3, 5e-3, 64)
    assert gs.sampling_bound(0.2, LAM, gin, gout) == pytest.approx(
        2 * gs.sampling_bound(0.1, LAM, gin, gout), rel=1e-12
    )
    # far enough away the same grids become valid
    f = gaussian_field(gin, 1e-3)
    assert gin.dx < gs.sampling_bound(150.0, LAM, gin, gout)
    gs.fresnel_propagate(f, 150.0, LAM, gout)  # must not raise


@pytest.mark.parametrize("bad", [0.0, -0.3])
def test_distance_must_be_positive(bad):
    gin = gs.make_grid(-1e-3, 1e-3, 64)
    f = gaussian_field(gin, 0.3e-3)
    with pytest.raises(InvalidArgumentError):
        gs.fresnel_propagate(f, bad, LAM, gin)


def test_wavelength_must_be_positive():
    gin = gs.make_grid(-1e-3, 1e-3, 64)
    f = gaussian_field(gin, 0.3e-3)
    with pytest.raises(InvalidArgumentError):
        gs.fresnel_propagate(f, 0.3, 0.0, gin)


def test_unknown_method_rejected():
    gin = gs.make_grid(-1e-3, 1e-3, 64)
    f = gaussian_field(gin, 0.3e-3)
    with pytest.raises(InvalidArgumentError):
        gs.fresnel_propagate(f, 0.3, LAM, gin, method="spectral")


# --- chirp-z plans ---


# 1-D temporaries of at least 256 KiB (16384 complex values) numpy
# multiplies in place; both sides of that size are covered
@pytest.mark.parametrize("n", [16383, 16385])
@pytest.mark.parametrize("sign", [1, -1])
def test_cached_plan_matches_per_call_plan_bitwise(n, sign):
    # a plan held by the caller and applied twice, against a plan-less call
    gin = gs.make_grid(-1.1e-3, 0.9e-3, n)
    gout = gs.make_grid(-2e-3, 2.5e-3, 777)
    lambda_z = LAM * 1.7
    rng = np.random.default_rng(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    ref = optics.chirp_kernel_sum(v, gin, gout, lambda_z, sign)
    plan = optics._ChirpPlan(gin, gout, lambda_z, sign)
    for _ in range(2):
        assert np.array_equal(optics.chirp_kernel_sum(v, gin, gout, lambda_z, sign,
                                                      plan=plan), ref)


@pytest.mark.parametrize("n, m", [(65, 829), (65, 528), (2048, 49), (16383, 3362),
                                  (16385, 3362), (77089, 3362), (7, 3)])
@pytest.mark.parametrize("sign", [1, -1])
def test_fast_chirp_sum_matches_direct_sum(n, m, sign):
    # a 2 mm input window onto an 8 mm output window, lambda*z = 1.7 m * 693 nm;
    # a chirp phase that drifted with the index would show at large n
    gin = gs.make_grid(-1e-3, 1e-3, n)
    gout = gs.make_grid(-4e-3, 4e-3, m)
    rng = np.random.default_rng(n + m)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    fast = optics.chirp_kernel_sum(v, gin, gout, LAM * 1.7, sign)
    direct = optics.chirp_kernel_sum(v, gin, gout, LAM * 1.7, sign, method="direct")
    assert np.max(np.abs(fast - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_next_fast_len_is_scipys_complex_length():
    # every target to 2^16, then a log-spaced sample past the quadrature's
    # 2 * 2^22 - 1 point FFT
    for target in range(1, (1 << 16) + 1):
        assert optics._next_fast_len(target) == next_fast_len(target), target
    for target in np.unique(np.geomspace(1 << 16, 1 << 23, 2000).astype(int)):
        assert optics._next_fast_len(int(target)) == next_fast_len(int(target))


def test_one_plan_shared_by_many_workers():
    # what the Monte Carlo does with its leg plans: one plan, many threads
    # in lockstep, each with its own input; every call keeps its bits
    gin = gs.make_grid(-1e-3, 1e-3, 4099)
    gout = gs.make_grid(-2e-3, 2e-3, 1500)
    lz = LAM * 0.3
    workers, rounds = 8, 5
    rng = np.random.default_rng(3)
    vs = rng.standard_normal((workers, gin.n_points)) + 1j * rng.standard_normal(
        (workers, gin.n_points))
    refs = [optics.chirp_kernel_sum(v, gin, gout, lz, -1) for v in vs]
    plan = optics._ChirpPlan(gin, gout, lz, -1)
    step = threading.Barrier(workers, timeout=60)
    results = [[] for _ in range(workers)]

    def work(k):
        for _ in range(rounds):
            step.wait()
            results[k].append(optics.chirp_kernel_sum(vs[k], gin, gout, lz, -1,
                                                      plan=plan))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for ref, out in zip(refs, results):
        assert len(out) == rounds
        assert all(np.array_equal(o, ref) for o in out)


def test_no_plan_outlives_its_call(built_plans, tiny_scenario_text):
    gin = gs.make_grid(-1e-3, 1e-3, 301)
    gout = gs.make_grid(-2e-3, 2e-3, 200)
    optics.chirp_kernel_sum(np.ones(301), gin, gout, LAM * 0.3, -1)
    assert len(built_plans) == 1
    src = gs.SourceSpec(LAM, gs.UniformProfile(2e-3))
    mask = gs.make_grid(-0.3e-3, 0.3e-3, 64)
    coherence.ghost_image_numerator(mask, np.ones(64), gout, src,
                                    gs.OpticalGeometry(0.3, 0.3))
    mc = tiny_scenario_text.replace("n_realizations = 384", "n_realizations = 64")
    gs.run_scenario(gs.parse_scenario(mc), workers=2)
    assert len(built_plans) > 3
    assert [ref() for ref in built_plans] == [None] * len(built_plans)


def test_mismatched_plan_raises():
    gin = gs.make_grid(-1e-3, 1e-3, 128)
    gout = gs.make_grid(-2e-3, 2e-3, 200)
    lz = LAM * 0.3
    plan = optics._ChirpPlan(gin, gout, lz, 1)
    v = np.ones(128, dtype=complex)
    for call in [(gin, gs.make_grid(-2e-3, 2e-3, 201), lz, 1),  # output grid
                 (gin, gout, LAM * 0.31, 1),                     # lambda*z
                 (gin, gout, lz, -1)]:                           # sign
        with pytest.raises(InvalidArgumentError, match="another transform"):
            optics.chirp_kernel_sum(v, *call, plan=plan)
    # fresnel_propagate's plan is keyed by wavelength * distance and sign +1
    f = gs.ComplexField(gin, v)
    assert np.array_equal(gs.fresnel_propagate(f, 0.3, LAM, gout, plan=plan).amplitude,
                          gs.fresnel_propagate(f, 0.3, LAM, gout).amplitude)
    with pytest.raises(InvalidArgumentError, match="another transform"):
        gs.fresnel_propagate(f, 0.31, LAM, gout, plan=plan)


# --- blocks of realizations on the last axis ---


def test_batched_chirp_sum_matches_row_calls_bitwise():
    # the Monte Carlo block size at the fig2 leg: rows are the 1-D bits
    gin = gs.make_grid(-0.835e-3, 0.835e-3, 65)
    gout = gs.make_grid(-6e-3, 6e-3, 829)
    rng = np.random.default_rng(65)
    v = rng.standard_normal((18, 65)) + 1j * rng.standard_normal((18, 65))
    for sign in (1, -1):
        block = optics.chirp_kernel_sum(v, gin, gout, 692.9e-9 * 1.7, sign)
        rows = [optics.chirp_kernel_sum(r, gin, gout, 692.9e-9 * 1.7, sign) for r in v]
        assert block.shape == (18, 829)
        assert np.array_equal(block, np.stack(rows))


def test_batched_chirp_sum_at_large_n_matches_row_calls_bitwise():
    # past 16384 points a 1-D call multiplies its temporaries in place and
    # a block does not; the operand order keeps the bits the same
    gin = gs.make_grid(-1.1e-3, 0.9e-3, 16385)
    gout = gs.make_grid(-2e-3, 2.5e-3, 529)
    rng = np.random.default_rng(16385)
    v = rng.standard_normal((3, 16385)) + 1j * rng.standard_normal((3, 16385))
    block = optics.chirp_kernel_sum(v, gin, gout, LAM * 0.3, -1)
    rows = np.stack([optics.chirp_kernel_sum(r, gin, gout, LAM * 0.3, -1) for r in v])
    assert np.array_equal(block, rows)


def test_batched_direct_sum_and_field_match_rows():
    gin = gs.make_grid(-1e-3, 1e-3, 96)
    gout = gs.make_grid(-2e-3, 2e-3, 80)
    rng = np.random.default_rng(96)
    v = rng.standard_normal((4, 96)) + 1j * rng.standard_normal((4, 96))
    block = optics.chirp_kernel_sum(v, gin, gout, LAM * 0.3, 1, method="direct")
    rows = np.stack([optics.chirp_kernel_sum(r, gin, gout, LAM * 0.3, 1, method="direct")
                     for r in v])
    assert np.max(np.abs(block - rows)) <= 1e-12 * np.max(np.abs(rows))
    out = gs.fresnel_propagate(gs.ComplexField(gin, v), 1.7, LAM, gout)
    assert out.amplitude.shape == (4, 80)
    assert np.array_equal(out.amplitude[2],
                          gs.fresnel_propagate(gs.ComplexField(gin, v[2]), 1.7, LAM,
                                               gout).amplitude)
