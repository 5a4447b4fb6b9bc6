"""Analytic correlation profiles from the coherence kernel.

For Gaussian source statistics the intensity-fluctuation correlation between
the bucket (arm 1, behind the mask) and the scan point x2 (arm 2) is

    delta_g2(x2) = int |T(x1)|^2 |K(x1, x2)|^2 dx1
                   / ( int |T(x1)|^2 <I1> dx1 * <I2> )

with K the mutual coherence kernel. The mean intensities behind pure Fresnel
chirps are flat, <I_i> = P_src / (lambda * z_i), which is also what the
same-arm kernel gives on its diagonal; for z1 != z2 the cross-arm diagonal
is complex and does not represent a mean intensity, so each arm uses its
own. The x1 integral is the mask grid's trapezoid rule, matching the Monte
Carlo bucket sum for any mask that vanishes at the grid edges.

|K(x1, x2)|^2 depends on x1 and x2 only through u = x1/(lambda*z1) -
x2/(lambda*z2), as one point-spread function P(u) (see coherence). The
numerator is therefore the mask's |T|^2 scaled by the magnification
M = z2/z1 and blurred by P: sharp at z2 = z1, where P is the van
Cittert-Zernike sinc^2, and blurred by the source chirp
exp(i*pi*alpha*x'^2), alpha = 1/(lambda*z1) - 1/(lambda*z2), anywhere else.
coherence.ghost_image_numerator evaluates it in three transforms per
quadrature pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import _trapezoid_weights, ghost_image_numerator
# not called here; perfbench/child.py traces the name at this import site
from .coherence import coherence_kernel_map  # noqa: F401
from .ensemble import CorrelationProfile
from .errors import (
    DegenerateStatisticsError,
    InvalidArgumentError,
    UnsupportedProfileError,
)
from .grid import TransverseGrid
from .optics import OpticalGeometry, SourceSpec, TransmissionMask, UniformProfile

__all__ = [
    "PointlikeObject",
    "delta_g2_analytic",
    "g2_pointlike",
    "predicted_speckle_size",
]


@dataclass(frozen=True)
class PointlikeObject:
    """N discrete transmitting features with non-negative weights."""

    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        pos = np.atleast_1d(np.asarray(self.positions, dtype=float))
        w = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pos.ndim != 1 or pos.size == 0:
            raise InvalidArgumentError("need at least one feature position")
        if w.shape != pos.shape:
            raise InvalidArgumentError("positions and weights must have equal length")
        if np.any(w < 0):
            raise InvalidArgumentError("feature weights must be >= 0")
        if not np.any(w > 0):
            raise InvalidArgumentError("feature weights must not all be zero")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)

    @property
    def n_features(self) -> int:
        return int(self.positions.size)


def delta_g2_analytic(
    mask: TransmissionMask,
    source: SourceSpec,
    geom: OpticalGeometry,
    x2_grid: TransverseGrid,
    map_rtol: float = 1e-7,
    detector_aperture: float = 0.0,
) -> CorrelationProfile:
    """Ensemble-limit delta_g2(x2) for an extended mask.

    Requires the mask grid to resolve the kernel's transverse structure:
    dx < lambda * z1 / (4 * a) for source half-width a. Raises
    DegenerateStatisticsError for a fully opaque mask. map_rtol is the
    quadrature's stop test on the profile itself: refinement ends once a
    step halving moves no point of the numerator by more than map_rtol
    times its peak. Survey work (sweeps), where profile shapes and not
    ninth-digit values are the point, loosens it. detector_aperture is the
    full width of the scanning detector, whose reading at x2 is its mean
    intensity over [x2 - D/2, x2 + D/2]; 0 is a point detector.
    """
    _check_kernel_resolved(mask.grid, source, geom.z1)
    t2 = np.abs(mask.t) ** 2
    if not np.any(t2 > 0):
        raise DegenerateStatisticsError("mask transmits nothing; delta_g2 undefined")
    weights = t2 * _trapezoid_weights(mask.grid.n_points, mask.grid.dx)
    numer = ghost_image_numerator(mask.grid, weights, x2_grid, source, geom,
                                  rtol=map_rtol,
                                  detector_aperture=detector_aperture)

    p_src = source.profile.integral()
    mean_i1 = p_src / (source.wavelength * geom.z1)
    mean_i2 = p_src / (source.wavelength * geom.z2)
    denom = weights.sum() * mean_i1 * mean_i2

    delta = numer / denom
    return CorrelationProfile(
        x2=x2_grid.x,
        delta_g2=delta,
        std_err=np.zeros_like(delta),
        n_realizations=0,
        metadata={"method": "analytic"},
    )


def _check_kernel_resolved(grid: TransverseGrid, source: SourceSpec, z1: float) -> None:
    """Raise unless the mask grid resolves the coherence kernel's transverse
    structure: dx < lambda * z1 / (4 * a) for source half-width a."""
    limit = source.wavelength * z1 / (4.0 * source.profile.half_width)
    if grid.dx >= limit:
        raise InvalidArgumentError(
            f"mask grid spacing {grid.dx:.6g} m cannot resolve the coherence "
            f"kernel; need dx < lambda*z1/(4a) = {limit:.6g} m"
        )


def g2_pointlike(
    obj: PointlikeObject, x2: np.ndarray | float, kernel_width: float
) -> np.ndarray | float:
    """Normalized g2 scan over an object of N pointlike features.

    g2(x2) = N + sum_j w_j * exp(-(x2 - p_j)^2 / (2 * kernel_width^2)).
    The background N is the number of features, each bright point the
    object transmits adds an incoherent speckle pedestal of its own.
    """
    if kernel_width <= 0:
        raise InvalidArgumentError("kernel_width must be positive")
    x = np.asarray(x2, dtype=float)
    d = x[..., None] - obj.positions
    vals = obj.n_features + np.sum(
        obj.weights * np.exp(-(d**2) / (2.0 * kernel_width**2)), axis=-1
    )
    if np.isscalar(x2) or np.ndim(x2) == 0:
        return float(vals)
    return vals


def predicted_speckle_size(source: SourceSpec, z: float) -> float:
    """Transverse coherence length lambda*z/(2a) for a uniform source.

    Only defined for the uniform profile (the sinc's first zero); other
    profiles raise UnsupportedProfileError.
    """
    if z <= 0:
        raise InvalidArgumentError("distance must be positive")
    if not isinstance(source.profile, UniformProfile):
        raise UnsupportedProfileError(
            "speckle size formula holds for the uniform profile only"
        )
    return source.wavelength * z / (2.0 * source.profile.half_width)

