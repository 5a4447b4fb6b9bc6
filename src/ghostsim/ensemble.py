"""Speckle-ensemble Monte Carlo for the two-arm correlation.

Each realization draws a delta-correlated circular complex Gaussian field on
the source grid (thermal light resolved well below its coherence time),
propagates it through both arms, and records the bucket signal i1 and the
scanned intensity i2(x2). The normalized intensity-fluctuation correlation

    delta_g2(x2) = cov(i1, i2(x2)) / (mean(i1) * mean(i2(x2)))

is what carries the image. The covariance is computed in two passes (means
first, then centered products): the fluctuation signal can sit percent-level
above the background and a one-pass update would lose it to cancellation.

Determinism contract: the deviates of realization r are a pure function of
(master_seed, r), generated from a counter-based Philox stream keyed by that
pair. Worker count and scheduling cannot change any result bit.

A run derives its two Fresnel legs once (_Legs): the grids they land on,
their plans (a kernel matrix or chirp-z, by the optics cost rule), the
mask's transmitting span inside the bucket window, which is all the bucket
leg reaches, and the aperture windows. Realizations then run in blocks, one
(B, n) array per leg, and each row keeps its own stream and the bits it
has run alone through the same legs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import DegenerateStatisticsError, GridMismatchError, InvalidArgumentError
from .grid import ComplexField, TransverseGrid
from .optics import (
    OpticalGeometry,
    SourceSpec,
    TransmissionMask,
    _check_sampling,
    _plan,
    fresnel_propagate,
)

__all__ = [
    "EnsembleConfig",
    "CorrelationProfile",
    "draw_source_realization",
    "simulate_realization",
    "delta_g2_montecarlo",
]

_BATCHES = 16  # batch-means count when n_realizations allows it


@dataclass(frozen=True)
class EnsembleConfig:
    """Grids, seeding, and detector geometry for a Monte Carlo run.

    bucket_window is the (lo, hi) interval of the object grid integrated by
    the bucket detector. detector_aperture is the full width of the scanning
    detector's collecting window; zero means an ideal point sampler. When an
    aperture is used, detector_field_grid must hold the fine grid the arm-2
    field is propagated onto before window averaging; it has to cover every
    aperture window and to sample the chirp finely enough.
    """

    n_realizations: int
    master_seed: int
    source_grid: TransverseGrid
    object_grid: TransverseGrid
    detector_grid: TransverseGrid
    bucket_window: tuple[float, float]
    detector_aperture: float = 0.0
    detector_field_grid: TransverseGrid | None = None

    def __post_init__(self) -> None:
        if self.n_realizations < 2:
            raise InvalidArgumentError("n_realizations must be at least 2")
        if not 0 <= self.master_seed < 2**64:
            raise InvalidArgumentError("master_seed must fit in an unsigned 64-bit int")
        lo, hi = self.bucket_window
        if not (hi > lo):
            raise InvalidArgumentError("bucket_window must have positive width")
        og = self.object_grid
        if lo < og.x_min - 1e-15 or hi > og.x_max + 1e-15:
            raise InvalidArgumentError("bucket_window must lie inside the object grid")
        if self.detector_aperture < 0:
            raise InvalidArgumentError("detector_aperture must be >= 0")
        if self.detector_aperture > 0:
            fg = self.detector_field_grid
            if fg is None:
                raise InvalidArgumentError(
                    "detector_aperture > 0 requires a detector_field_grid"
                )
            half = 0.5 * self.detector_aperture
            if (
                fg.x_min > self.detector_grid.x_min - half + 1e-15
                or fg.x_max < self.detector_grid.x_max + half - 1e-15
            ):
                raise InvalidArgumentError(
                    "detector_field_grid must cover every aperture window"
                )


@dataclass
class CorrelationProfile:
    """Correlation estimate on the detector scan. For analytic profiles
    n_realizations is 0 and std_err is identically zero."""

    x2: np.ndarray
    delta_g2: np.ndarray
    std_err: np.ndarray
    n_realizations: int
    metadata: dict = field(default_factory=dict)


def fan_out(fn, items, workers: int) -> list:
    """[fn(item) for item in items], in order, on up to `workers` threads;
    serial when workers <= 1."""
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def draw_source_realization(
    source: SourceSpec,
    grid: TransverseGrid,
    realization_index: int | range,
    master_seed: int,
) -> ComplexField:
    """One delta-correlated thermal field: amplitude_i = sqrt(I_s(x_i)) * g_i.

    g_i are unit-variance circular complex Gaussians. The sequence for
    (master_seed, realization_index) never depends on how work is scheduled.
    A range of indices draws a block, one row per realization.
    """
    block = isinstance(realization_index, range)
    rows = realization_index if block else [realization_index]
    if len(rows) == 0 or min(rows) < 0:
        raise InvalidArgumentError("realization_index must be >= 0")
    z = np.empty((len(rows), 2 * grid.n_points))
    # row r is Generator(Philox(key=(master_seed, r))), one generator reset
    # to a fresh state per row: a new Philox draws OS entropy it never uses
    rng = Generator(Philox(key=np.array([master_seed, rows[0]], dtype=np.uint64)))
    fresh = rng.bit_generator.state
    key = fresh["state"]["key"]
    for r, out in zip(rows, z):
        key[1] = r
        rng.bit_generator.state = fresh
        rng.standard_normal(out=out)
    g = (z[:, 0::2] + 1j * z[:, 1::2]) * np.sqrt(0.5)
    amp = np.sqrt(source.profile.intensity(grid.x)) * g
    return ComplexField(grid, amp if block else amp[0])


def simulate_realization(
    source_field: ComplexField,
    mask: TransmissionMask,
    geom: OpticalGeometry,
    cfg: EnsembleConfig,
    wavelength: float,
    legs: _Legs | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate one source realization, or a block of them along the
    field's leading axis, through both arms: (bucket signal i1, scanned
    intensity i2). ``legs`` is the _Legs of these arguments, which a run
    derives once; without it they are derived here, and the call still has
    the bits of its rows in a run."""
    legs = legs or _Legs(mask, geom, cfg, wavelength)
    bucket_plan, detector_plan = legs.plans
    # the detector leg, with the larger temporaries, runs first: in the
    # other order the heap was trimmed and faulted in again every block
    # (fig2: 35k minor page faults per run against 2k)
    f2 = fresnel_propagate(source_field, geom.z2, wavelength, legs.field_grid,
                           plan=detector_plan)
    a2 = f2.amplitude
    i2 = a2.real**2 + a2.imag**2
    if cfg.detector_aperture > 0:
        csum = np.cumsum(np.insert(i2, 0, 0.0, axis=-1), axis=-1)
        i2 = (csum[..., legs.hi] - csum[..., legs.lo]) / legs.counts
    f1 = fresnel_propagate(source_field, geom.z1, wavelength, legs.span,
                           plan=bucket_plan)
    a = f1.amplitude * legs.t
    bucket = np.sum(a.real**2 + a.imag**2, axis=-1) * cfg.object_grid.dx
    return bucket, i2


class _Legs:
    """The two Fresnel legs of a Monte Carlo run, derived once from its
    configuration: the bucket leg onto the mask's transmitting span (span,
    its transmission t), the detector leg onto field_grid, the plans of
    both (bucket, detector) in the form optics._plan picks, the block
    rows they allow, and with an aperture each detector point's field-grid
    window [lo, hi) of counts samples. The attributes are set when it is built; simulate_realization
    only reads them, so threads may share one."""

    def __init__(self, mask: TransmissionMask, geom: OpticalGeometry,
                 cfg: EnsembleConfig, wavelength: float) -> None:
        if mask.grid != cfg.object_grid:
            raise GridMismatchError("mask must live on the configured object grid")
        sg = cfg.source_grid
        # the whole object grid must sample the chirp, not just the span
        _check_sampling(geom.z1, wavelength, sg, cfg.object_grid)
        self.span, self.t = _bucket_span(mask, cfg.bucket_window)
        aperture = cfg.detector_aperture > 0
        self.field_grid = fg = cfg.detector_field_grid if aperture else cfg.detector_grid
        self.plans = (_plan(sg, self.span, wavelength * geom.z1, 1),
                      _plan(sg, fg, wavelength * geom.z2, 1))
        self.rows = _block_size(p.width for p in self.plans)
        if aperture:
            half, x2 = 0.5 * cfg.detector_aperture, cfg.detector_grid.x
            self.lo = np.searchsorted(fg.x, x2 - half, side="left")
            self.hi = np.searchsorted(fg.x, x2 + half, side="right")
            self.counts = self.hi - self.lo
            if np.any(self.counts <= 0):
                raise InvalidArgumentError("an aperture window contains no field samples")


def _bucket_span(mask: TransmissionMask, window: tuple) -> tuple:
    """(grid, t): the smallest sub-grid of the mask's grid, two points at
    least, holding every sample that transmits inside the bucket window,
    and the transmission there, zero outside the window."""
    g = mask.grid
    i0, i1 = g.index_range(*window)
    lit = i0 + np.flatnonzero(mask.t[i0:i1])
    lo = min(int(lit[0]) if lit.size else i0, g.n_points - 2)
    hi = max(int(lit[-1]) + 1 if lit.size else 0, lo + 2)
    t = np.zeros(hi - lo, dtype=np.complex128)
    t[lit - lo] = mask.t[lit]
    x = g.x
    return TransverseGrid(float(x[lo]), float(x[hi - 1]), hi - lo), t


def _block_size(widths) -> int:
    """Realizations per block: about 2**14 complex values in the widest
    leg's largest array (its plan's width), to bound a block's memory."""
    return max(1, 2**14 // max(widths))


def _mc_records(
    mask: TransmissionMask,
    source: SourceSpec,
    geom: OpticalGeometry,
    cfg: EnsembleConfig,
    n_workers: int,
) -> tuple[np.ndarray, np.ndarray]:
    n = cfg.n_realizations
    i1 = np.empty(n)
    i2 = np.empty((n, cfg.detector_grid.n_points))
    # built once and shared read-only by every worker
    legs = _Legs(mask, geom, cfg, source.wavelength)

    def work(rows: range) -> None:
        f = draw_source_realization(source, cfg.source_grid, rows, cfg.master_seed)
        i1[rows], i2[rows] = simulate_realization(f, mask, geom, cfg,
                                                  source.wavelength, legs)

    b = legs.rows
    fan_out(work, [range(s, min(n, s + b)) for s in range(0, n, b)], n_workers)
    return i1, i2


def _delta_from_records(i1: np.ndarray, i2: np.ndarray) -> np.ndarray:
    m1 = i1.mean()
    m2 = i2.mean(axis=0)
    if m1 <= 0 or np.any(m2 <= 0):
        raise DegenerateStatisticsError(
            "mean intensity vanished; cannot normalize the correlation"
        )
    d1 = i1 - m1
    cov = (d1 @ (i2 - m2)) / (i1.size - 1)
    return cov / (m1 * m2)


def delta_g2_montecarlo(
    mask: TransmissionMask,
    source: SourceSpec,
    geom: OpticalGeometry,
    cfg: EnsembleConfig,
    n_workers: int = 1,
) -> CorrelationProfile:
    """Estimate delta_g2(x2) over the configured ensemble.

    std_err comes from batch means over 16 index-contiguous batches when
    n_realizations >= 32, else from delete-one jackknife; metadata records
    which. Raises DegenerateStatisticsError when no light ever reaches the
    bucket (e.g. an opaque mask).
    """
    n = cfg.n_realizations
    i1, i2 = _mc_records(mask, source, geom, cfg, n_workers)
    if not np.any(i1 > 0):
        raise DegenerateStatisticsError("bucket detector saw no light in any realization")

    delta = _delta_from_records(i1, i2)

    if n >= 2 * _BATCHES:
        edges = np.linspace(0, n, _BATCHES + 1).astype(int)
        ests = np.stack(
            [
                _delta_from_records(i1[a:b], i2[a:b])
                for a, b in zip(edges[:-1], edges[1:])
            ]
        )
        std_err = ests.std(axis=0, ddof=1) / np.sqrt(_BATCHES)
        method = f"batch-means-{_BATCHES}"
    elif n == 2:
        # a two-sample covariance has no spread estimate at all
        std_err = np.full(delta.shape, np.inf)
        method = "undefined"
    else:
        # delete-one jackknife from sufficient sums
        s1 = i1.sum()
        s2 = i2.sum(axis=0)
        p = i1 @ i2
        m1_i = (s1 - i1)[:, None] / (n - 1)
        m2_i = (s2[None, :] - i2) / (n - 1)
        cov_i = (p[None, :] - i1[:, None] * i2 - (n - 1) * m1_i * m2_i) / (n - 2)
        if np.any(m1_i <= 0) or np.any(m2_i <= 0):
            raise DegenerateStatisticsError("jackknife subsample lost all light")
        d_i = cov_i / (m1_i * m2_i)
        std_err = np.sqrt((n - 1) / n * np.sum((d_i - d_i.mean(axis=0)) ** 2, axis=0))
        method = "jackknife"

    return CorrelationProfile(
        x2=cfg.detector_grid.x,
        delta_g2=delta,
        std_err=std_err,
        n_realizations=n,
        metadata={"stderr_method": method, "master_seed": cfg.master_seed},
    )
