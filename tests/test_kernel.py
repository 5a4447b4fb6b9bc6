"""Mutual coherence kernel: van Cittert-Zernike law, symmetry, dual route."""

import numpy as np
import pytest

import ghostsim as gs
from ghostsim import InvalidArgumentError, UnsupportedProfileError, coherence

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
    # the sizing heuristic still works for any profile
    assert gs.coherence_scale(src_g, Z) > 0


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
    ],
    ids=["pointwise", "map"],
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
