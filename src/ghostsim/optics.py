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
* ``method="fast"``    the chirp-z factoring of (x-y)^2 on the two grids
  (Bluestein, O((N+M) log(N+M))) through a _ChirpPlan, whose phases are
  computed from the grids and rounded once; its FFTs are numpy.fft's.

A plan of one (input grid, output grid, lambda*z, sign) is a _ChirpPlan
(pre-chirp, kernel spectrum, post-chirp) or a _DirectPlan (the direct
path's kernel matrix), as _plan's cost rule picks. Both transforms
take one or build a chirp plan per call; nothing is cached. The Monte
Carlo builds its two once and shares them read-only among its workers.

Both sum over the last axis; leading axes (a block of realizations) are
kept. A row of a block has the bits of a 1-D call through the same plan.

Both refuse to run when either grid undersamples the chirp:
dx > lambda*z / (2*span) with span the extent of the union of the two
windows is an aliasing error, never a warning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.fft import fft, ifft

from .errors import (
    GridMismatchError,
    InvalidArgumentError,
    SamplingCriterionError,
)
from .grid import ComplexField, TransverseGrid

__all__ = [
    "UniformProfile",
    "GaussianProfile",
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

# _plan's cost rule (direct and chirp-z broke even at n*m = 16-20
# nfft*log2(nfft) on a 2-core x86-64 VM with OpenBLAS); 2**20 entries = 16 MB
_DIRECT_MARGIN, _DIRECT_MAX = 8, 2**20

# quadrature support for a Gaussian profile, in units of the 1/e^2 half-width;
# exp(-2 * 4.5^2) ~ 2.5e-18 of the peak is negligible against every tolerance here
_GAUSS_SUPPORT = 4.5


@dataclass(frozen=True)
class UniformProfile:
    """Top-hat intensity: I0 for |x| <= half_width, zero outside."""

    half_width: float
    peak: float = 1.0

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


SourceProfile = Union[UniformProfile, GaussianProfile]


@dataclass(frozen=True)
class SourceSpec:
    """Quasi-monochromatic spatially incoherent source.

    wavelength is in meters. The profile gives the mean intensity across
    the source plane; its absolute scale cancels in every normalized
    correlation.
    """

    wavelength: float
    profile: SourceProfile

    def __post_init__(self) -> None:
        if self.wavelength <= 0:
            raise InvalidArgumentError("wavelength must be positive")
        if self.profile.integral() <= 0:
            raise InvalidArgumentError("source profile carries no power")


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
    plan: _ChirpPlan | _DirectPlan | None = None,
) -> np.ndarray:
    """Evaluate S_k = sum_j values_j * exp(sign * i*pi*(x_j - y_k)^2 / lambda_z).

    The sum runs over the last axis of ``values``; leading axes are kept.
    No quadrature weight or normalization is applied; callers supply both.
    ``method="direct"`` is the O(N*M) reference sum, ``method="fast"`` the
    chirp-z factorization of the same sum, or ``plan`` (either form) if
    one built for these grids, lambda_z and sign is given.
    """
    if sign not in (1, -1):
        raise InvalidArgumentError("sign must be +1 or -1")
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim < 1 or v.shape[-1] != in_grid.n_points:
        raise GridMismatchError("values do not match the input grid")
    if plan is not None and plan.key != (in_grid, out_grid, lambda_z, sign):
        raise InvalidArgumentError("the plan was built for another transform")

    if method == "direct":
        x, y = in_grid.x, out_grid.x
        out = np.empty(v.shape[:-1] + (y.size,), dtype=np.complex128)
        # block over outputs to keep the kernel matrix small
        block = max(1, 4_000_000 // x.size)
        for k0 in range(0, y.size, block):
            out[..., k0:k0 + block] = v @ _kernel(x, y[k0:k0 + block],
                                                  sign * np.pi / lambda_z)
        return out

    if method != "fast":
        raise InvalidArgumentError(f"unknown propagation method '{method}'")
    plan = plan or _ChirpPlan(in_grid, out_grid, lambda_z, sign)
    return plan(v)


def _kernel(x: np.ndarray, y: np.ndarray, t: float) -> np.ndarray:
    """The (x.size, y.size) matrix exp(i*t*(x_j - y_k)^2)."""
    return np.exp(1j * (t * (x[:, None] - y) ** 2))


def _next_fast_len(target: int) -> int:
    """Smallest 2*3*5*7*11-smooth integer >= target: pocketfft's fast
    radices, the length scipy.fft.next_fast_len gives a complex transform."""
    best = 2 * target
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # the smallest p3 * 2**i >= target
                    best = min(best, p3 << ((target - 1) // p3).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


class _ChirpPlan:
    """The fast chirp sum of one key (in_grid, out_grid, lambda_z, sign).

    With x_j = x_0 + j*dx, y_k = y_0 + k*dy, t = sign*pi/lambda_z and
    c = dx*dy, -2jk = (k-j)^2 - j^2 - k^2 splits t*(x_j - y_k)^2 into
    three terms:

        pre-chirp   t*((x_j - y_0)^2 - c*j^2)
        post-chirp  t*((y_k - y_0)^2 - 2*(x_0 - y_0)*(y_k - y_0) - c*k^2)
        kernel      t*c*l^2,  l = k - j;

    so the sum is a convolution with the kernel over l = 1-n .. m-1, one
    FFT pair of a _next_fast_len length. Every phase is computed from the
    grids and rounded once, so none drifts with the index. The arrays are
    set when the plan is built; applying it only reads them, so threads
    may share one plan.
    """

    def __init__(self, in_grid, out_grid, lambda_z: float, sign: int) -> None:
        self.key = (in_grid, out_grid, lambda_z, sign)
        n, m = in_grid.n_points, out_grid.n_points
        t, c = sign * np.pi / lambda_z, in_grid.dx * out_grid.dx
        x0, y0 = in_grid.x_min, out_grid.x_min
        y = out_grid.x - y0
        self.pre = np.exp(1j * t * ((in_grid.x - y0)**2 - c * np.arange(n)**2))
        self.post = np.exp(1j * t * (y**2 - 2 * (x0 - y0) * y - c * np.arange(m)**2))
        self.nfft = self.width = _next_fast_len(n + m - 1)
        self.kernel = fft(np.exp(1j * t * c * np.arange(1 - n, m)**2), self.nfft)
        self._out = slice(n - 1, n + m - 1)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        # the transform stays the left operand: a large 1-D temporary is
        # then multiplied in place in the order a block row uses, so a
        # block row keeps the bits of a 1-D call. The post-chirp goes onto
        # the inverse transform's own slice: one more output-sized array
        # per call nearly doubled the Monte Carlo's page faults.
        y = ifft(fft(v * self.pre, self.nfft) * self.kernel)[..., self._out]
        y *= self.post
        return y


class _DirectPlan:
    """The direct sum of one key as one matrix product. A row of a product
    of two rows or more has the same bits in every such block; BLAS rounds
    a one-row product otherwise, so one row goes through as a block of two.
    width, as a chirp plan's nfft, is the largest array of a row."""

    def __init__(self, in_grid, out_grid, lambda_z: float, sign: int) -> None:
        self.key = (in_grid, out_grid, lambda_z, sign)
        self.matrix = _kernel(in_grid.x, out_grid.x, sign * np.pi / lambda_z)
        self.width = max(in_grid.n_points, out_grid.n_points)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        rows = v.reshape(-1, v.shape[-1])
        y = (rows if len(rows) > 1 else np.concatenate((rows, rows))) @ self.matrix
        return y[:len(rows)].reshape(v.shape[:-1] + y.shape[-1:])


def _plan(in_grid, out_grid, lambda_z: float, sign: int) -> _ChirpPlan | _DirectPlan:
    """The plan of one key in the form the cost rule picks: a _DirectPlan
    while n_in*n_out is at most _DIRECT_MAX and _DIRECT_MARGIN *
    nfft*log2(nfft), else a _ChirpPlan."""
    n, m = in_grid.n_points, out_grid.n_points
    nfft = _next_fast_len(n + m - 1)
    direct = n * m <= min(_DIRECT_MAX, _DIRECT_MARGIN * nfft * np.log2(nfft))
    return (_DirectPlan if direct else _ChirpPlan)(in_grid, out_grid, lambda_z, sign)


def fresnel_propagate(
    field: ComplexField,
    distance: float,
    wavelength: float,
    out_grid: TransverseGrid,
    method: str = "fast",
    plan: _ChirpPlan | _DirectPlan | None = None,
) -> ComplexField:
    """Propagate a sampled field by ``distance`` onto ``out_grid``; ``plan``
    is chirp_kernel_sum's, for lambda_z = wavelength * distance and sign +1.

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
    s = chirp_kernel_sum(field.amplitude, field.grid, out_grid, lambda_z, 1, method, plan)
    return ComplexField(out_grid, c * field.grid.dx * s)


def apply_mask(field: ComplexField, mask: TransmissionMask) -> ComplexField:
    """Multiply a field by a mask defined on the same grid."""
    if field.grid != mask.grid:
        raise GridMismatchError("field and mask are sampled on different grids")
    return ComplexField(field.grid, field.amplitude * mask.t)
