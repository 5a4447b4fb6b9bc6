"""Source models, transmission masks, and 1D Fresnel propagation.

The propagator evaluates

    out(x2) = C * sum_x exp(i*pi*(x - x2)^2 / (lambda*z)) * in(x) * dx,
    C = 1 / sqrt(i * lambda * z)

on arbitrary (generally different) input and output grids. |C| = 1/sqrt(lambda z)
makes the discrete transform power preserving for band-limited inputs whose
energy stays inside the windows; the residual phase of C drops out of every
intensity in this package.

Two execution paths compute the same finite sum:

* ``method="direct"``  blockwise O(N*M) quadrature, kept as the oracle,
* ``method="fast"``    chirp factoring
  exp(i*pi*(x-y)^2/(lz)) = exp(i*pi*x^2/lz) * exp(i*pi*y^2/lz) * exp(-2i*pi*x*y/lz)
  which turns the sum into a chirp-z transform between the two grids
  (Bluestein, O((N+M) log(N+M)) via scipy.signal.CZT).

Building a Bluestein plan costs about ten times more than applying it, so
each thread keeps the plans of its last two (input grid, output grid,
lambda*z, sign) keys: the pre-chirp phase, the CZT object and the
post-chirp. A thread has at most two plans in flight (mask onto lags and
lags onto detector in one pass of the analytic profile, or the two legs
of a Monte Carlo block), so the bound grows with the number of workers
and worker threads never evict each other's plans; a worker's plans go
when its thread ends.

Both sum over the last axis; leading axes (a block of realizations) are
kept. A block row has the bits of a 1-D call only while 1-D temporaries
stay under 256 KiB (past that numpy multiplies them in place with swapped
operands, a block never), so only Bluestein lengths up to 8192 are batched.

Both refuse to run when either grid undersamples the chirp:
dx > lambda*z / (2*span) with span the extent of the union of the two
windows is an aliasing error, never a warning.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.signal import CZT

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    SamplingCriterionError,
)
from .grid import ComplexField, TransverseGrid

__all__ = [
    "UniformProfile",
    "GaussianProfile",
    "SampledProfile",
    "SourceSpec",
    "OpticalGeometry",
    "TransmissionMask",
    "fresnel_propagate",
    "apply_mask",
    "chirp_kernel_sum",
    "sampling_bound",
]

# |t| may exceed 1 by at most this much (rounding slack, not a feature)
_MASK_TOL = 1e-12

# quadrature support for a Gaussian profile, in units of the 1/e^2 half-width;
# exp(-2 * 4.5^2) ~ 2.5e-18 of the peak is negligible against every tolerance here
_GAUSS_SUPPORT = 4.5


@dataclass(frozen=True)
class UniformProfile:
    """Top-hat intensity: I0 for |x| <= half_width, zero outside."""

    half_width: float
    peak: float = 1.0

    kind = "uniform"

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise InvalidArgumentError("uniform profile half_width must be positive")
        if self.peak <= 0:
            raise InvalidArgumentError("uniform profile peak must be positive")

    def intensity(self, x: np.ndarray) -> np.ndarray:
        return np.where(np.abs(x) <= self.half_width, self.peak, 0.0)

    def support(self) -> tuple[float, float]:
        return (-self.half_width, self.half_width)

    def integral(self) -> float:
        return 2.0 * self.half_width * self.peak


@dataclass(frozen=True)
class GaussianProfile:
    """Gaussian intensity I0 * exp(-2 x^2 / w^2); w is the 1/e^2 half-width."""

    half_width: float
    peak: float = 1.0

    kind = "gaussian"

    def __post_init__(self) -> None:
        if self.half_width <= 0:
            raise InvalidArgumentError("gaussian profile half_width must be positive")
        if self.peak <= 0:
            raise InvalidArgumentError("gaussian profile peak must be positive")

    def intensity(self, x: np.ndarray) -> np.ndarray:
        return self.peak * np.exp(-2.0 * (np.asarray(x) / self.half_width) ** 2)

    def support(self) -> tuple[float, float]:
        w = _GAUSS_SUPPORT * self.half_width
        return (-w, w)

    def integral(self) -> float:
        return self.peak * self.half_width * np.sqrt(np.pi / 2.0)


@dataclass(frozen=True)
class SampledProfile:
    """Intensity given as non-negative samples on a grid, linearly interpolated."""

    grid: TransverseGrid
    values: np.ndarray

    kind = "sampled"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.shape[0] != self.grid.n_points:
            raise GridMismatchError("profile samples do not match the profile grid")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise InvalidArgumentError("sampled profile values must be finite and >= 0")
        object.__setattr__(self, "values", vals)

    def intensity(self, x: np.ndarray) -> np.ndarray:
        return np.interp(np.asarray(x), self.grid.x, self.values, left=0.0, right=0.0)

    def support(self) -> tuple[float, float]:
        return (self.grid.x_min, self.grid.x_max)

    def integral(self) -> float:
        return float(np.trapezoid(self.values, dx=self.grid.dx))


SourceProfile = Union[UniformProfile, GaussianProfile, SampledProfile]


@dataclass(frozen=True)
class SourceSpec:
    """Quasi-monochromatic spatially incoherent source.

    wavelength and coherence_time are in SI units. The profile gives the
    mean intensity across the source plane; its absolute scale cancels in
    every normalized correlation. coherence_time = 0 means unspecified,
    which is fine for purely spatial calculations.
    """

    wavelength: float
    profile: SourceProfile
    coherence_time: float = 0.0

    def __post_init__(self) -> None:
        if self.wavelength <= 0:
            raise InvalidArgumentError("wavelength must be positive")
        if self.coherence_time < 0:
            raise InvalidArgumentError("coherence_time must be non-negative")
        if self.profile.integral() <= 0:
            raise InvalidArgumentError("source profile carries no power")

    def effective_half_width(self) -> float:
        """Half-width measure used for resolution checks and grid sizing."""
        if isinstance(self.profile, (UniformProfile, GaussianProfile)):
            return self.profile.half_width
        lo, hi = self.profile.support()
        return 0.5 * (hi - lo)


@dataclass(frozen=True)
class OpticalGeometry:
    """Distances of the two arms from the source plane, in meters."""

    z1: float
    z2: float

    def __post_init__(self) -> None:
        if self.z1 <= 0 or self.z2 <= 0:
            raise InvalidArgumentError("arm distances z1, z2 must be positive")


@dataclass
class TransmissionMask:
    """Complex transmission t(x) on a grid, |t| <= 1."""

    grid: TransverseGrid
    t: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=np.complex128)
        if t.ndim != 1 or t.shape[0] != self.grid.n_points:
            raise GridMismatchError(
                f"mask has {t.shape} values, grid has {self.grid.n_points} points"
            )
        if np.any(np.abs(t) > 1.0 + _MASK_TOL):
            raise InvalidArgumentError("mask transmission must satisfy |t| <= 1")
        self.t = t

    @classmethod
    def uniform(cls, grid: TransverseGrid) -> "TransmissionMask":
        return cls(grid, np.ones(grid.n_points, dtype=np.complex128))

    @classmethod
    def opaque(cls, grid: TransverseGrid) -> "TransmissionMask":
        return cls(grid, np.zeros(grid.n_points, dtype=np.complex128))

    @classmethod
    def double_slit(
        cls, grid: TransverseGrid, slit_width: float, center_separation: float
    ) -> "TransmissionMask":
        """Two clear slits of equal width, centers center_separation apart."""
        if slit_width <= 0 or center_separation <= 0:
            raise InvalidArgumentError("slit_width and center_separation must be positive")
        x = grid.x
        t = np.zeros(grid.n_points)
        for c in (-0.5 * center_separation, 0.5 * center_separation):
            t[np.abs(x - c) <= 0.5 * slit_width] = 1.0
        return cls(grid, t.astype(np.complex128))

    @classmethod
    def pinhole_pair(
        cls, grid: TransverseGrid, d1: float, d2: float, separation: float
    ) -> "TransmissionMask":
        """Two clear openings of widths d1 and d2, centers separation apart."""
        if d1 <= 0 or d2 <= 0 or separation <= 0:
            raise InvalidArgumentError("pinhole widths and separation must be positive")
        x = grid.x
        t = np.zeros(grid.n_points)
        t[np.abs(x + 0.5 * separation) <= 0.5 * d1] = 1.0
        t[np.abs(x - 0.5 * separation) <= 0.5 * d2] = 1.0
        return cls(grid, t.astype(np.complex128))

    def extent(self) -> float:
        """Full width of the region where the mask transmits."""
        idx = np.nonzero(np.abs(self.t) > 0)[0]
        if idx.size == 0:
            return 0.0
        x = self.grid.x
        return float(x[idx[-1]] - x[idx[0]])


def sampling_bound(
    distance: float, wavelength: float, in_grid: TransverseGrid, out_grid: TransverseGrid
) -> float:
    """Largest admissible sample spacing lambda*z / (2*span) for this pair of windows."""
    span = max(in_grid.x_max, out_grid.x_max) - min(in_grid.x_min, out_grid.x_min)
    return wavelength * distance / (2.0 * span)


def _check_sampling(
    distance: float, wavelength: float, in_grid: TransverseGrid, out_grid: TransverseGrid
) -> None:
    bound = sampling_bound(distance, wavelength, in_grid, out_grid)
    for name, g in (("input", in_grid), ("output", out_grid)):
        if g.dx > bound * (1.0 + 1e-12):
            raise SamplingCriterionError(
                f"{name} grid spacing {g.dx:.6g} m exceeds lambda*z/(2*span) = "
                f"{bound:.6g} m; the Fresnel chirp would alias. Refine the grid "
                f"or shrink the windows."
            )


def chirp_kernel_sum(
    values: np.ndarray,
    in_grid: TransverseGrid,
    out_grid: TransverseGrid,
    lambda_z: float,
    sign: int = 1,
    method: str = "fast",
) -> np.ndarray:
    """Evaluate S_k = sum_j values_j * exp(sign * i*pi*(x_j - y_k)^2 / lambda_z).

    The sum runs over the last axis of ``values``; leading axes are kept.
    No quadrature weight or normalization is applied; callers supply both.
    ``method="direct"`` is the O(N*M) reference sum, ``method="fast"`` the
    Bluestein chirp-z factorization of the same sum.
    """
    if sign not in (1, -1):
        raise InvalidArgumentError("sign must be +1 or -1")
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim < 1 or v.shape[-1] != in_grid.n_points:
        raise GridMismatchError("values do not match the input grid")

    if method == "direct":
        gamma = 1.0 / lambda_z
        y = out_grid.x
        x = in_grid.x
        m = out_grid.n_points
        out = np.empty(v.shape[:-1] + (m,), dtype=np.complex128)
        # block over outputs to keep the kernel matrix small
        block = max(1, int(4_000_000 // max(1, x.size)))
        for k0 in range(0, m, block):
            k1 = min(m, k0 + block)
            diff = x[None, :] - y[k0:k1, None]
            kernel = np.exp((sign * 1j * np.pi * gamma) * diff * diff)
            out[..., k0:k1] = kernel @ v if v.ndim == 1 else v @ kernel.T
        return out

    if method != "fast":
        raise InvalidArgumentError(f"unknown propagation method '{method}'")

    phase, plan, post = _thread_plans()(in_grid, out_grid, lambda_z, sign)
    # exp(phase) stays inline: numpy multiplies a large temporary in place
    # with the operands swapped, and the bits depend on that order
    u = v * np.exp(phase)
    spectrum = plan(u)
    return post * spectrum


_local = threading.local()


def _thread_plans():
    """This thread's bounded cache of _chirp_plan."""
    try:
        return _local.plans
    except AttributeError:
        _local.plans = lru_cache(maxsize=2)(_chirp_plan)
        return _local.plans


def _chirp_plan(
    in_grid: TransverseGrid, out_grid: TransverseGrid, lambda_z: float, sign: int
) -> tuple[np.ndarray, CZT, np.ndarray]:
    """Pre-chirp phase, Bluestein plan and post-chirp of one fast chirp sum."""
    s, gamma = float(sign), 1.0 / lambda_z
    phase = (s * 1j * np.pi * gamma) * in_grid.x**2
    w = np.exp(-s * 2j * np.pi * gamma * in_grid.dx * out_grid.dx)
    a = np.exp(s * 2j * np.pi * gamma * in_grid.dx * out_grid.x_min)
    y = out_grid.x
    post = np.exp((s * 1j * np.pi * gamma) * y**2
                  - (s * 2j * np.pi * gamma * in_grid.x_min) * y)
    return phase, CZT(in_grid.n_points, out_grid.n_points, w, a), post


def fresnel_propagate(
    field: ComplexField,
    distance: float,
    wavelength: float,
    out_grid: TransverseGrid,
    method: str = "fast",
) -> ComplexField:
    """Propagate a sampled field by ``distance`` onto ``out_grid``.

    Raises SamplingCriterionError when either grid undersamples the chirp
    and InvalidArgumentError for non-positive distance or wavelength.
    """
    if distance <= 0:
        raise InvalidArgumentError("propagation distance must be positive")
    if wavelength <= 0:
        raise InvalidArgumentError("wavelength must be positive")
    _check_sampling(distance, wavelength, field.grid, out_grid)
    lambda_z = wavelength * distance
    c = 1.0 / np.sqrt(1j * lambda_z)
    s = chirp_kernel_sum(field.amplitude, field.grid, out_grid, lambda_z, 1, method)
    return ComplexField(out_grid, c * field.grid.dx * s)


def apply_mask(field: ComplexField, mask: TransmissionMask) -> ComplexField:
    """Multiply a field by a mask defined on the same grid."""
    if field.grid != mask.grid:
        raise GridMismatchError("field and mask are sampled on different grids")
    return ComplexField(field.grid, field.amplitude * mask.t)
