"""Uniform transverse grids and sampled complex fields.

All positions are in meters. A grid is defined by its end points and the
number of samples; the coordinate of sample i is always computed as
``x_min + i * dx`` so there is no cumulative rounding anywhere, and the
last sample is ``x_max`` itself, never an ulp past it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, InvalidArgumentError

__all__ = ["TransverseGrid", "make_grid", "ComplexField"]


@dataclass(frozen=True)
class TransverseGrid:
    """Uniformly sampled 1D transverse axis.

    Parameters
    ----------
    x_min, x_max : float
        End points in meters, ``x_max > x_min``.
    n_points : int
        Number of samples, at least 2. Spacing is
        ``(x_max - x_min) / (n_points - 1)`` and both end points are samples.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self) -> None:
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise InvalidArgumentError("n_points must be an integer >= 2")
        if not self.x_max > self.x_min:
            raise InvalidArgumentError("x_max must be greater than x_min")
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise InvalidArgumentError("grid end points must be finite")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    @property
    def span(self) -> float:
        return self.x_max - self.x_min

    @property
    def x(self) -> np.ndarray:
        # recomputed from the index each call, never accumulated; the end
        # point is pinned so a profile supported on [x_min, x_max] is not
        # cut off at its last node by an ulp of rounding in i * dx
        x = self.x_min + np.arange(self.n_points) * self.dx
        x[-1] = self.x_max
        return x

    def index_range(self, lo: float, hi: float) -> tuple[int, int]:
        """Half-open index range [i0, i1) of samples with lo <= x <= hi."""
        if hi < lo:
            raise InvalidArgumentError("window upper edge below lower edge")
        x = self.x
        i0 = int(np.searchsorted(x, lo, side="left"))
        i1 = int(np.searchsorted(x, hi, side="right"))
        return i0, i1


def make_grid(x_min: float, x_max: float, n_points: int) -> TransverseGrid:
    """Build a TransverseGrid, validating the end points and sample count."""
    return TransverseGrid(float(x_min), float(x_max), int(n_points))


@dataclass
class ComplexField:
    """Complex field amplitude on a TransverseGrid (the last axis); a
    leading axis, if any, holds a block of realizations."""

    grid: TransverseGrid
    amplitude: np.ndarray

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitude, dtype=np.complex128)
        if amp.ndim < 1 or amp.shape[-1] != self.grid.n_points:
            raise GridMismatchError(
                f"amplitude has shape {amp.shape}, grid has {self.grid.n_points} points"
            )
        self.amplitude = amp

    @property
    def total_power(self) -> float:
        """Discrete power sum(|a|^2) * dx."""
        a = self.amplitude
        return float(np.sum(a.real**2 + a.imag**2) * self.grid.dx)
