"""Mutual coherence kernel of the two-arm geometry and the ghost image it
forms.

For a spatially incoherent source with intensity I_s(x') the equal-time
correlation between the field at x1 after free propagation over z1 and the
field at x2 after free propagation over z2 is

    K(x1, x2) = int I_s(x') h2*(x', x2) h1(x', x1) dx'

with h_i the Fresnel point response exp(i*pi*(x'-x)^2/(lambda*z_i)) times
1/sqrt(i*lambda*z_i). For a uniform source and z1 = z2 this reduces to the
familiar van Cittert-Zernike sinc: |K|^2 ~ sinc^2(2a(x2-x1)/(lambda*z)).

Expanding both Fresnel phases leaves a phase factor of modulus one times
c * F(u), with c = 1/(lambda*sqrt(z1*z2)) in modulus,

    u = x1/(lambda*z1) - x2/(lambda*z2),
    F(u) = int I_s(x') exp(i*pi*alpha*x'^2) exp(-2i*pi*x'*u) dx',
    alpha = 1/(lambda*z1) - 1/(lambda*z2),

so |K|^2 is one point-spread function P(u) = |c F(u)|^2 of the single
variable u. A point x1 of the object images to x2 = M*x1 with M = z2/z1,
blurred by P: at z2 = z1 (alpha = 0) P is the van Cittert-Zernike sinc^2,
away from focus the source chirp widens it. ghost_image_numerator uses
this to sum W(x1)*|K(x1, x2)|^2 over a whole mask in three transforms.

Every integral over the source is a fixed-step trapezoid over the source
support, started at 8 samples per pi of chirp phase, with the step halved
until successive results agree (the single kernel to 1e-8 relative, with
an absolute floor tied to the kernel scale so the loop also terminates on
the zeros of K). A geometry that needs more than 2^22 (about 4M) points,
or 14 halvings, to converge lies outside the intended paraxial regime and
raises InvalidArgumentError.
"""

from __future__ import annotations

import numpy as np
from numpy.fft import fft, rfft

from .errors import InvalidArgumentError
from .grid import TransverseGrid, make_grid
from .optics import (OpticalGeometry, SourceSpec, _ChirpPlan, _next_fast_len,
                     chirp_kernel_sum)

__all__ = [
    "mutual_coherence_kernel",
    "coherence_kernel_map",
    "ghost_image_numerator",
]

_REL_TOL = 1e-8
_MAX_DOUBLINGS = 14
_MIN_POINTS = 65
_MAX_POINTS = 1 << 22


def _phase_rule_points(
    source: SourceSpec, geom: OpticalGeometry, x1_lo, x1_hi, x2_lo, x2_hi
) -> int:
    """Trapezoid point count giving >= 8 samples per pi of integrand phase."""
    lo, hi = source.profile.support()
    lam = source.wavelength
    # |d phase / dx'| is monotone in x', so the extremes sit at the corners
    rates = []
    for xp in (lo, hi):
        for x1 in (x1_lo, x1_hi):
            for x2 in (x2_lo, x2_hi):
                rates.append(abs((xp - x1) / geom.z1 - (xp - x2) / geom.z2))
    max_rate = 2.0 * np.pi * max(rates) / lam  # rad per meter
    total_phase = max_rate * (hi - lo)
    n = int(np.ceil(8.0 * total_phase / np.pi)) + 1
    n = max(n, _MIN_POINTS)
    if n > _MAX_POINTS:
        raise InvalidArgumentError(
            "coherence kernel quadrature would need more than 4M points; "
            "geometry is outside the intended paraxial regime"
        )
    return n


def _refine(evaluate, n: int, converged):
    """evaluate(n) with the step halved (n -> 2n - 1) until
    converged(prev, cur); raises once the halvings or points run out."""
    prev = evaluate(n)
    for _ in range(_MAX_DOUBLINGS):
        n = 2 * n - 1
        if n > _MAX_POINTS:
            break
        cur = evaluate(n)
        if converged(prev, cur):
            return cur
        prev = cur
    raise InvalidArgumentError(
        f"coherence kernel quadrature did not converge within {_MAX_DOUBLINGS} "
        f"step halvings and {_MAX_POINTS} points; geometry is outside the "
        "intended paraxial regime"
    )


def _trapezoid_weights(n: int, dx: float) -> np.ndarray:
    """Trapezoid-rule weights of n samples spaced dx apart."""
    w = np.full(n, dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _kernel_fixed(
    x1: float, x2: float, source: SourceSpec, geom: OpticalGeometry, n: int
) -> complex:
    lo, hi = source.profile.support()
    xp = np.linspace(lo, hi, n)
    w = _trapezoid_weights(n, xp[1] - xp[0])
    lam = source.wavelength
    phase = (np.pi / lam) * ((xp - x1) ** 2 / geom.z1 - (xp - x2) ** 2 / geom.z2)
    c1 = 1.0 / np.sqrt(1j * lam * geom.z1)
    c2c = np.conj(1.0 / np.sqrt(1j * lam * geom.z2))
    integrand = source.profile.intensity(xp) * np.exp(1j * phase)
    return complex(c1 * c2c * np.sum(w * integrand))


def mutual_coherence_kernel(
    x1: float, x2: float, source: SourceSpec, geom: OpticalGeometry
) -> complex:
    """K(x1, x2) for one pair of detector-plane points.

    Symmetry: K(x1, x2; z1, z2) = conj(K(x2, x1; z2, z1)).
    """
    n = _phase_rule_points(source, geom, x1, x1, x2, x2)
    lam = source.wavelength
    # |K| can never exceed the diagonal scale; used as the absolute floor
    scale = source.profile.integral() / (lam * np.sqrt(geom.z1 * geom.z2))
    return _refine(
        lambda m: _kernel_fixed(x1, x2, source, geom, m),
        n,
        lambda prev, cur: abs(cur - prev) <= _REL_TOL * max(abs(cur), 1e-2 * scale),
    )


def _kernel_rows_fixed(
    x1_nodes: np.ndarray,
    x2_grid: TransverseGrid,
    source: SourceSpec,
    geom: OpticalGeometry,
    n: int,
) -> np.ndarray:
    """K(x1, x2) on x1_nodes (rows) x x2_grid (columns) with an n-point trapezoid.

    Row-wise the x2 dependence is a chirp transform of the source profile
    times the arm-1 chirp, so each row costs one transform of one plan.
    """
    lo, hi = source.profile.support()
    quad = make_grid(lo, hi, n)
    xp = quad.x
    w = _trapezoid_weights(n, quad.dx)
    lam = source.wavelength
    intens = source.profile.intensity(xp) * w
    c = (1.0 / np.sqrt(1j * lam * geom.z1)) * np.conj(1.0 / np.sqrt(1j * lam * geom.z2))
    plan = _ChirpPlan(quad, x2_grid, lam * geom.z2, -1)
    rows = np.empty((x1_nodes.size, x2_grid.n_points), dtype=np.complex128)
    for r, x1 in enumerate(x1_nodes):
        g1 = intens * np.exp((1j * np.pi / (lam * geom.z1)) * (xp - x1) ** 2)
        rows[r] = c * plan(g1)
    return rows


def coherence_kernel_map(
    x1_nodes: np.ndarray,
    x2_grid: TransverseGrid,
    source: SourceSpec,
    geom: OpticalGeometry,
    rtol: float = 1e-7,
) -> np.ndarray:
    """K(x1, x2) for every x1 node and x2 grid point.

    Same quadrature definition as mutual_coherence_kernel, evaluated for all
    pairs at once; agreement between the two is covered by the tests. The
    halving loop stops once the refinement shifts no entry by more than
    rtol times the kernel scale bound (the diagonal value an unresolved
    source would give), which keeps defocused maps from over-refining far
    below anything the correlation profiles can resolve.
    """
    x1_nodes = np.asarray(x1_nodes, dtype=float)
    if x1_nodes.ndim != 1 or x1_nodes.size == 0:
        raise InvalidArgumentError("x1_nodes must be a non-empty 1D array")
    n = _phase_rule_points(
        source,
        geom,
        float(x1_nodes.min()),
        float(x1_nodes.max()),
        x2_grid.x_min,
        x2_grid.x_max,
    )
    lam = source.wavelength
    scale = source.profile.integral() / (lam * np.sqrt(geom.z1 * geom.z2))
    return _refine(
        lambda m: _kernel_rows_fixed(x1_nodes, x2_grid, source, geom, m),
        n,
        lambda prev, cur: float(np.max(np.abs(cur - prev))) <= rtol * scale,
    )


def _autocorrelation(g: np.ndarray) -> np.ndarray:
    """R_m = sum_q g_{q+m} conj(g_q) for m = 0..n-1, from one zero-padded FFT.

    The inverse transform of the real power spectrum p is taken as
    conj(rfft(p, norm="forward")), at half the work of a complex ifft.
    """
    n = g.size
    spec = fft(g, _next_fast_len(2 * n - 1))
    return np.conj(rfft(spec.real**2 + spec.imag**2, norm="forward")[:n])


def _numerator_fixed(
    mask_grid: TransverseGrid,
    weights: np.ndarray,
    x2_grid: TransverseGrid,
    source: SourceSpec,
    geom: OpticalGeometry,
    n: int,
    detector_aperture: float = 0.0,
) -> np.ndarray:
    """N(x2) = sum_x1 W(x1) |K(x1, x2)|^2 with an n-point trapezoid.

    With g_p = w_p I_s(x_p) exp(i*pi*alpha*x_p^2) on nodes h apart,
    |F(u)|^2 = sum_m R_m exp(-2i*pi*m*h*u) over the lags m = -(n-1)..n-1
    of the autocorrelation R_m = sum_q g_{q+m} conj(g_q), so

        N(x2) = |c|^2 Re sum_m R_m A_m exp(2i*pi*m*h*x2/(lambda*z2)),
        A_m = sum_x1 W(x1) exp(-2i*pi*m*h*x1/(lambda*z1)).

    R and A are Hermitian in m, so the sum runs over m >= 0 with the
    terms m > 0 doubled, which halves the transform lengths. R is one FFT
    pair (_autocorrelation); A and the sum over m are chirp sums with
    their chirps undone, so each pass costs three transforms whatever
    the mask.

    The mean of N over a detector of full width D centred on x2 multiplies
    each lag term by its box transform sinc(m*h*D/(lambda*z2)).
    """
    lo, hi = source.profile.support()
    quad = make_grid(lo, hi, n)
    xp = quad.x
    lam = source.wavelength
    lz1, lz2 = lam * geom.z1, lam * geom.z2
    alpha = 1.0 / lz1 - 1.0 / lz2
    g = (_trapezoid_weights(n, quad.dx) * source.profile.intensity(xp)
         * np.exp((1j * np.pi * alpha) * xp**2))
    r = _autocorrelation(g)
    r[1:] *= 2.0
    # the lags m*h, m = 0..n-1: the quadrature's own spacing
    lags = make_grid(0.0, hi - lo, n)
    y = lags.x
    x1 = mask_grid.x
    a = chirp_kernel_sum(weights * np.exp((-1j * np.pi / lz1) * x1**2),
                         mask_grid, lags, lz1, sign=1)
    # undo the lambda*z1 post-chirp and pre-undo the lambda*z2 pre-chirp
    b = r * a * np.exp((-1j * np.pi * alpha) * y**2)
    b *= np.sinc(y * detector_aperture / lz2)
    s = chirp_kernel_sum(b, lags, x2_grid, lz2, sign=-1)
    s *= np.exp((1j * np.pi / lz2) * x2_grid.x**2)
    # N is a sum of squares; a negative value is rounding around a zero
    return np.maximum(s.real / (lz1 * lz2), 0.0)


def ghost_image_numerator(
    mask_grid: TransverseGrid,
    weights: np.ndarray,
    x2_grid: TransverseGrid,
    source: SourceSpec,
    geom: OpticalGeometry,
    rtol: float = 1e-7,
    detector_aperture: float = 0.0,
) -> np.ndarray:
    """N(x2) = sum_x1 W(x1) |K(x1, x2)|^2 over the nodes of mask_grid.

    weights holds W on every node of mask_grid (zeros where the mask is
    opaque; at least one must be positive). The source quadrature is the
    same trapezoid rule as mutual_coherence_kernel's, started at the phase
    rule for the transmitting nodes and the x2 window; the halving loop
    stops once a pass moves no point of N by more than rtol times max|N|.
    Three transforms per pass (see _numerator_fixed), independent of the
    number of transmitting nodes; agreement with the kernel rows of
    coherence_kernel_map is covered by the tests. detector_aperture > 0
    returns, at each x2, the mean of N over [x2 - D/2, x2 + D/2] with D
    the aperture's full width.
    """
    if detector_aperture < 0:
        raise InvalidArgumentError("detector_aperture must be >= 0")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (mask_grid.n_points,):
        raise InvalidArgumentError("weights must have one value per mask grid node")
    nodes = mask_grid.x[weights > 0]
    if nodes.size == 0:
        raise InvalidArgumentError("weights must have a positive entry")
    half = 0.5 * detector_aperture
    n = _phase_rule_points(
        source, geom, float(nodes.min()), float(nodes.max()),
        x2_grid.x_min - half, x2_grid.x_max + half,
    )
    return _refine(
        lambda m: _numerator_fixed(mask_grid, weights, x2_grid, source, geom, m,
                                   detector_aperture),
        n,
        lambda prev, cur: float(np.max(np.abs(cur - prev)))
        <= rtol * float(np.max(cur)),
    )
