"""Mutual coherence kernel: van Cittert-Zernike law, symmetry, dual route."""

import numpy as np
import pytest

import ghostsim as gs
from ghostsim import InvalidArgumentError, UnsupportedProfileError, coherence
from ghostsim.cli import preset_text
from ghostsim.scenario import spatial_grids

LAM = 692.9e-9
A = 0.835e-3
Z = 1.7
SRC = gs.SourceSpec(LAM, gs.UniformProfile(A))
GEOM_EQ = gs.OpticalGeometry(Z, Z)


def brute_force_kernel(x1, x2, source, geom, n=400_001):
    """Independent fixed-grid trapezoid of the defining integral."""
    lo, hi = source.profile.support()
    xp = np.linspace(lo, hi, n)
    lam = source.wavelength
    phase = (np.pi / lam) * ((xp - x1) ** 2 / geom.z1 - (xp - x2) ** 2 / geom.z2)
    c = (1.0 / np.sqrt(1j * lam * geom.z1)) * np.conj(1.0 / np.sqrt(1j * lam * geom.z2))
    return c * np.trapezoid(source.profile.intensity(xp) * np.exp(1j * phase), xp)


def test_equal_arm_kernel_is_sinc():
    # |K(0, x2)|^2 normalized vs sinc^2(2a x2 / (lambda z)), uniform source
    x2 = np.linspace(-2.5e-3, 2.5e-3, 101)
    k2 = np.array([abs(gs.mutual_coherence_kernel(0.0, x, SRC, GEOM_EQ)) ** 2 for x in x2])
    k2 /= k2.max()
    expected = np.sinc(2 * A * x2 / (LAM * Z)) ** 2
    assert np.max(np.abs(k2 - expected)) < 1e-6


def test_first_zero_position():
    x0 = LAM * Z / (2 * A)
    assert x0 == pytest.approx(0.70535e-3, rel=1e-3)
    peak = abs(gs.mutual_coherence_kernel(0.0, 0.0, SRC, GEOM_EQ)) ** 2
    at_zero = abs(gs.mutual_coherence_kernel(0.0, x0, SRC, GEOM_EQ)) ** 2
    assert at_zero / peak < 1e-6
    # the zero is a genuine minimum: 1% off on either side the kernel is back up
    for off in (-0.01, 0.01):
        assert abs(gs.mutual_coherence_kernel(0.0, (1 + off) * x0, SRC, GEOM_EQ)) ** 2 / peak > at_zero / peak


def test_predicted_speckle_size_values():
    assert gs.predicted_speckle_size(SRC, Z) == pytest.approx(0.70535e-3, rel=1e-3)
    src_short = gs.SourceSpec(693e-9, gs.UniformProfile(6e-3))
    assert gs.predicted_speckle_size(src_short, 0.3) == pytest.approx(17.3e-6, rel=1e-2)


def test_predicted_speckle_size_linear_in_distance():
    assert gs.predicted_speckle_size(SRC, 2 * Z) == pytest.approx(
        2 * gs.predicted_speckle_size(SRC, Z), rel=1e-12
    )


def test_predicted_speckle_size_uniform_only():
    src_g = gs.SourceSpec(LAM, gs.GaussianProfile(A))
    with pytest.raises(UnsupportedProfileError):
        gs.predicted_speckle_size(src_g, Z)


def test_kernel_swap_conjugate_symmetry():
    geom = gs.OpticalGeometry(1.7, 1.1)
    geom_swapped = gs.OpticalGeometry(1.1, 1.7)
    scale = abs(gs.mutual_coherence_kernel(0.0, 0.0, SRC, GEOM_EQ))
    for x1, x2 in [(0.0, 0.3e-3), (0.2e-3, -0.4e-3), (-1.0e-3, 0.9e-3)]:
        k = gs.mutual_coherence_kernel(x1, x2, SRC, geom)
        ks = gs.mutual_coherence_kernel(x2, x1, SRC, geom_swapped)
        assert abs(k - np.conj(ks)) / scale < 1e-10


def test_kernel_peaks_on_diagonal():
    for x1 in (0.0, 0.5e-3):
        peak = abs(gs.mutual_coherence_kernel(x1, x1, SRC, GEOM_EQ))
        for off in (0.1e-3, 0.3e-3, 0.6e-3):
            assert abs(gs.mutual_coherence_kernel(x1, x1 + off, SRC, GEOM_EQ)) < peak


def test_kernel_against_brute_force_unequal_arms():
    geom = gs.OpticalGeometry(1.7, 1.1)
    scale = SRC.profile.integral() / (SRC.wavelength * np.sqrt(geom.z1 * geom.z2))
    for x1, x2 in [(0.0, 0.0), (0.2e-3, -0.4e-3), (-1.1e-3, 0.7e-3), (0.5e-3, 0.5e-3)]:
        k = gs.mutual_coherence_kernel(x1, x2, SRC, geom)
        b = brute_force_kernel(x1, x2, SRC, geom)
        assert abs(k - b) / scale < 1e-7


def test_kernel_map_matches_pointwise_kernel():
    x2g = gs.make_grid(-1e-3, 1e-3, 41)
    x1n = np.array([-0.4e-3, 0.0, 0.7e-3])
    rows = gs.coherence_kernel_map(x1n, x2g, SRC, GEOM_EQ)
    assert rows.shape == (3, 41)
    scale = abs(gs.mutual_coherence_kernel(0.0, 0.0, SRC, GEOM_EQ))
    for r, x1 in enumerate(x1n):
        for c in (0, 13, 27, 40):
            k = gs.mutual_coherence_kernel(x1, x2g.x[c], SRC, GEOM_EQ)
            assert abs(rows[r, c] - k) / scale < 1e-6


def test_kernel_map_rejects_empty_nodes():
    x2g = gs.make_grid(-1e-3, 1e-3, 41)
    with pytest.raises(InvalidArgumentError):
        gs.coherence_kernel_map(np.array([]), x2g, SRC, GEOM_EQ)


def test_gaussian_source_narrows_kernel():
    # half the aperture -> double the coherence width (uniform VCZ scaling)
    src_half = gs.SourceSpec(LAM, gs.UniformProfile(A / 2))
    k_full = abs(gs.mutual_coherence_kernel(0.0, 0.4e-3, SRC, GEOM_EQ))
    k_half = abs(gs.mutual_coherence_kernel(0.0, 0.4e-3, src_half, GEOM_EQ))
    peak_full = abs(gs.mutual_coherence_kernel(0.0, 0.0, SRC, GEOM_EQ))
    peak_half = abs(gs.mutual_coherence_kernel(0.0, 0.0, src_half, GEOM_EQ))
    assert k_half / peak_half > k_full / peak_full


@pytest.mark.parametrize(
    "entry",
    [
        lambda: gs.mutual_coherence_kernel(0.1e-3, -0.2e-3, SRC, GEOM_EQ),
        lambda: gs.coherence_kernel_map(
            np.array([0.0, 0.1e-3]), gs.make_grid(-0.5e-3, 0.5e-3, 9), SRC, GEOM_EQ,
            rtol=0.0,
        ),
        lambda: coherence.ghost_image_numerator(
            MASK_GRID, _slit_weights(MASK_GRID), gs.make_grid(-0.5e-3, 0.5e-3, 9),
            SRC, GEOM_EQ, rtol=0.0,
        ),
    ],
    ids=["pointwise", "map", "numerator"],
)
def test_unconverged_quadrature_raises(monkeypatch, entry):
    # one halving with a zero tolerance cannot converge; the last iterate
    # must not come back as if it had
    monkeypatch.setattr(coherence, "_MAX_DOUBLINGS", 1)
    monkeypatch.setattr(coherence, "_REL_TOL", 0.0)
    with pytest.raises(InvalidArgumentError, match="did not converge"):
        entry()


def test_quadrature_refinement_stops_at_point_cap(monkeypatch):
    # the equal-arm diagonal starts at the 65-point floor; a cap there leaves
    # no room for a halving, which must raise rather than pass the cap
    sizes = []
    fixed = coherence._kernel_fixed
    monkeypatch.setattr(coherence, "_MAX_POINTS", 65)
    monkeypatch.setattr(
        coherence, "_kernel_fixed",
        lambda *args: sizes.append(args[-1]) or fixed(*args),
    )
    with pytest.raises(InvalidArgumentError, match="did not converge"):
        gs.mutual_coherence_kernel(0.0, 0.0, SRC, GEOM_EQ)
    assert sizes == [65]


# --- ghost-image numerator from the point-spread function ---

MASK_GRID = gs.make_grid(-0.2e-3, 0.2e-3, 257)
X2_SCAN = gs.make_grid(-0.3e-3, 0.3e-3, 121)


def _slit_weights(grid):
    t2 = np.abs(gs.TransmissionMask.double_slit(grid, 40e-6, 160e-6).t) ** 2
    return t2 * coherence._trapezoid_weights(grid.n_points, grid.dx)


@pytest.mark.parametrize("z2", [0.3, 0.36], ids=["focused", "defocused"])
@pytest.mark.parametrize(
    "profile", [gs.UniformProfile(2e-3), gs.GaussianProfile(1.5e-3)],
    ids=["uniform", "gaussian"],
)
def test_numerator_matches_kernel_rows(z2, profile):
    # same n, same trapezoid nodes: sum W |K|^2 over the kernel map's rows
    src = gs.SourceSpec(693e-9, profile)
    geom = gs.OpticalGeometry(0.3, z2)
    w = _slit_weights(MASK_GRID)
    sel = w > 0
    x1 = MASK_GRID.x[sel]
    n = coherence._phase_rule_points(src, geom, x1.min(), x1.max(),
                                     X2_SCAN.x_min, X2_SCAN.x_max)
    rows = coherence._kernel_rows_fixed(x1, X2_SCAN, src, geom, n)
    expected = w[sel] @ np.abs(rows) ** 2
    got = coherence._numerator_fixed(MASK_GRID, w, X2_SCAN, src, geom, n)
    assert np.max(np.abs(got - expected)) <= 1e-9 * expected.max()


def test_numerator_accurate_at_a_million_lags():
    # the Bluestein chirp w**(k^2/2) drifts as its length grows; at 2^20 + 1
    # lags (n points give n lags) the profile must still match a direct sum
    src = gs.SourceSpec(693e-9, gs.UniformProfile(6e-3))
    geom = gs.OpticalGeometry(0.3, 0.37)
    grid = gs.make_grid(-0.2e-3, 0.2e-3, 81)
    w = np.zeros(grid.n_points)
    w[[10, 30, 40, 55, 70]] = grid.dx
    x2 = gs.make_grid(-0.3e-3, 0.3e-3, 7)
    n = (1 << 20) + 1
    got = coherence._numerator_fixed(grid, w, x2, src, geom, n)

    lam_z1, lam_z2 = 693e-9 * geom.z1, 693e-9 * geom.z2
    quad = gs.make_grid(-6e-3, 6e-3, n)
    xp = quad.x
    g = (coherence._trapezoid_weights(n, quad.dx)
         * np.exp(1j * np.pi * (1 / lam_z1 - 1 / lam_z2) * xp**2))
    direct = np.zeros(x2.n_points)
    for j in np.nonzero(w)[0]:
        for k, y in enumerate(x2.x):
            u = grid.x[j] / lam_z1 - y / lam_z2
            direct[k] += w[j] * abs(np.sum(g * np.exp(-2j * np.pi * xp * u))) ** 2
    direct /= lam_z1 * lam_z2
    # a tenth of the default stop tolerance; measured 5.9e-10 here and at
    # most 8.7e-9 at the 4M-point cap on the fig3 geometry
    assert np.max(np.abs(got - direct)) <= 1e-8 * direct.max()


def test_numerator_refinement_is_second_order():
    # fig3's row z2 = 0.37 m starts at n = 4819; with both end nodes on the
    # source edge the trapezoid error falls 4x per halving, not 2x
    cfg = gs.parse_scenario(preset_text("fig3"))
    grids = spatial_grids(cfg)
    mask = cfg.build_mask(grids.object)
    w = np.abs(mask.t) ** 2 * coherence._trapezoid_weights(
        mask.grid.n_points, mask.grid.dx)
    geom = cfg.geometry(z2=0.37)
    sizes = [4819, 9637, 19273, 38545]
    vals = [coherence._numerator_fixed(mask.grid, w, grids.detector,
                                       cfg.source(), geom, n) for n in sizes]
    steps = [np.max(np.abs(b - a)) for a, b in zip(vals, vals[1:])]
    for coarse, fine in zip(steps, steps[1:]):
        assert 3.5 < coarse / fine < 4.5


def test_numerator_aperture_is_a_box_average():
    # the per-lag sinc against the mean of the point-detector N over each
    # aperture window, integrated on a 0.1 um grid
    src = gs.SourceSpec(693e-9, gs.UniformProfile(2e-3))
    geom = gs.OpticalGeometry(0.3, 0.33)
    w = _slit_weights(MASK_GRID)
    d = 60e-6
    x2 = gs.make_grid(-0.2e-3, 0.2e-3, 41)
    fine = gs.make_grid(-0.25e-3, 0.25e-3, 5001)
    point = coherence.ghost_image_numerator(MASK_GRID, w, fine, src, geom)
    got = coherence.ghost_image_numerator(MASK_GRID, w, x2, src, geom,
                                          detector_aperture=d)
    half = int(round(0.5 * d / fine.dx))
    centres = np.rint((x2.x - fine.x_min) / fine.dx).astype(int)
    expected = np.array([np.trapezoid(point[i - half:i + half + 1], dx=fine.dx)
                         for i in centres]) / d
    assert np.max(np.abs(got - expected)) <= 1e-6 * expected.max()
    # the aperture flattens the image
    assert got.max() < point.max()
    with pytest.raises(InvalidArgumentError):
        coherence.ghost_image_numerator(MASK_GRID, w, x2, src, geom,
                                        detector_aperture=-d)


def test_numerator_rejects_bad_weights():
    src = gs.SourceSpec(693e-9, gs.UniformProfile(2e-3))
    with pytest.raises(InvalidArgumentError):
        coherence.ghost_image_numerator(MASK_GRID, np.zeros(MASK_GRID.n_points),
                                        X2_SCAN, src, GEOM_EQ)
    with pytest.raises(InvalidArgumentError):
        coherence.ghost_image_numerator(MASK_GRID, np.ones(3), X2_SCAN, src,
                                        GEOM_EQ)
