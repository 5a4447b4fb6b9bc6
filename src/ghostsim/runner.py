"""Scenario execution: dispatch and metrics.

Grids come from scenario.spatial_grids. All randomness is keyed by
(seed, stream index), so results are identical for any worker count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .analytic import delta_g2_analytic
from .coincidence import (
    CoincidenceHistogram,
    DetectorSpec,
    estimate_coherence_time,
    estimate_g2,
    simulate_intensity_trace,
    start_stop_histogram,
    thin_photons,
)
from .ensemble import (CorrelationProfile, EnsembleConfig,
                       delta_g2_montecarlo, fan_out)
from .errors import GhostSimError, InvalidArgumentError, NotMeasurableError
from .scenario import ScenarioConfig, SpatialGrids, spatial_grids

__all__ = ["MetricsReport", "run_scenario", "sweep_matrix", "profile_metrics"]

_GOLDEN = 0x9E3779B97F4A7C15


def _substream(seed: int, index: int) -> int:
    return (seed + index * _GOLDEN) % (1 << 64)


@dataclass
class MetricsReport:
    """Observables of a finished run. runtime_seconds stays in memory only;
    the exported metrics.json must be byte-stable across reruns."""

    method: str
    runtime_seconds: float
    visibility: Optional[float] = None
    peak_positions: list = field(default_factory=list)
    peak_separation: Optional[float] = None
    fwhm_per_peak: list = field(default_factory=list)
    g2_zero: Optional[float] = None
    contrast: Optional[float] = None
    tau_coherence_s: Optional[float] = None

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "visibility": self.visibility,
            "peak_positions": list(self.peak_positions),
            "peak_separation": self.peak_separation,
            "fwhm_per_peak": list(self.fwhm_per_peak),
            "g2_zero": self.g2_zero,
            "contrast": self.contrast,
            "tau_coherence_s": self.tau_coherence_s,
        }


def profile_metrics(profile: CorrelationProfile) -> dict:
    """Peak observables of a correlation profile.

    Peaks are strict local maxima reaching at least half the global
    maximum; maxima separated only by dips shallower than 20% of the lower
    of the pair count as one feature (kernel side lobes ripple across the
    top of an extended feature's image). Each peak's half-maximum crossings
    are found by linear interpolation on either side; its position is
    their midpoint and its FWHM their distance. A flat-topped peak's
    argmax wanders across the plateau with the noise, the midpoint does
    not. Where a side never crosses, the position falls back on the
    maximum sample and the FWHM is None. peak_separation is the distance
    between the positions of the two largest peaks.
    """
    d = np.asarray(profile.delta_g2, dtype=float)
    x = np.asarray(profile.x2, dtype=float)
    dmax = float(d.max()) if d.size else 0.0
    out = {"visibility": dmax / (2.0 + dmax) if dmax > 0 else 0.0,
           "peak_positions": [], "peak_separation": None, "fwhm_per_peak": []}
    if d.size < 3 or dmax <= 0:
        return out
    interior = (d[1:-1] > d[:-2]) & (d[1:-1] >= d[2:])
    cand = np.nonzero(interior)[0] + 1
    cand = cand[d[cand] >= 0.5 * dmax]
    if cand.size == 0:
        return out
    merged = [int(cand[0])]
    for i in cand[1:]:
        i = int(i)
        prev = merged[-1]
        valley = float(d[prev:i + 1].min())
        if valley > 0.8 * min(d[prev], d[i]):
            if d[i] > d[prev]:
                merged[-1] = i
        else:
            merged.append(i)
    cand = np.array(merged)
    for i in cand:
        left, right = _half_max_crossings(x, d, int(i))
        if left is None or right is None:
            out["peak_positions"].append(float(x[i]))
            out["fwhm_per_peak"].append(None)
        else:
            out["peak_positions"].append(float(0.5 * (left + right)))
            out["fwhm_per_peak"].append(float(right - left))
    if cand.size >= 2:
        pos = out["peak_positions"]
        first, second = np.argsort(d[cand])[::-1][:2]
        out["peak_separation"] = float(abs(pos[first] - pos[second]))
    return out


def _half_max_crossings(x: np.ndarray, d: np.ndarray, i: int) -> tuple:
    """Interpolated positions where d falls below half of d[i], walking
    left and right from sample i; None for a side that never crosses."""
    half = 0.5 * d[i]
    left = right = None
    for j in range(i, 0, -1):
        if d[j - 1] < half <= d[j]:
            frac = (half - d[j - 1]) / (d[j] - d[j - 1])
            left = x[j - 1] + frac * (x[j] - x[j - 1])
            break
    for j in range(i, d.size - 1):
        if d[j + 1] < half <= d[j]:
            frac = (d[j] - half) / (d[j] - d[j + 1])
            right = x[j] + frac * (x[j + 1] - x[j])
            break
    return left, right


def _ensemble_config(cfg: ScenarioConfig, grids: SpatialGrids, seed: int) -> EnsembleConfig:
    return EnsembleConfig(
        n_realizations=cfg.n_realizations,
        master_seed=seed,
        source_grid=grids.source,
        object_grid=grids.object,
        detector_grid=grids.detector,
        bucket_window=grids.bucket,
        detector_aperture=cfg.detector_aperture or 0.0,
        detector_field_grid=grids.detector_field,
    )


def _annotate(exc: GhostSimError, kind: str) -> GhostSimError:
    try:
        return type(exc)(f"{kind} scenario: {exc}")
    except TypeError:  # exceptions with structured constructors
        return exc


def _run_focused(cfg: ScenarioConfig, workers: int):
    grids = spatial_grids(cfg)
    source = cfg.source()
    geom = cfg.geometry()
    mask = cfg.build_mask(grids.object)
    profiles = []
    if cfg.method in ("montecarlo", "both"):
        mc = delta_g2_montecarlo(mask, source, geom,
                                 _ensemble_config(cfg, grids, cfg.seed),
                                 n_workers=workers)
        mc.metadata.update(role="montecarlo", z1=cfg.z1, z2=cfg.z2,
                           seed=cfg.seed)
        profiles.append(mc)
    if cfg.method in ("analytic", "both"):
        an = delta_g2_analytic(mask, source, geom, grids.detector,
                               detector_aperture=cfg.detector_aperture)
        an.metadata.update(role="analytic", z1=cfg.z1, z2=cfg.z2)
        profiles.append(an)
    if cfg.method == "both":
        diff = CorrelationProfile(
            x2=profiles[0].x2.copy(),
            delta_g2=profiles[0].delta_g2 - profiles[1].delta_g2,
            std_err=profiles[0].std_err.copy(),
            n_realizations=profiles[0].n_realizations,
            metadata={"role": "difference", "z1": cfg.z1, "z2": cfg.z2},
        )
        profiles.append(diff)
    return profiles


def _run_sweep(cfg: ScenarioConfig, workers: int):
    z2_values = cfg.z2_values()
    grids = spatial_grids(cfg)
    source = cfg.source()
    mask = cfg.build_mask(grids.object)

    def one_row(index: int) -> CorrelationProfile:
        z2 = float(z2_values[index])
        geom = cfg.geometry(z2=z2)
        if cfg.method == "analytic":
            # survey accuracy: each row's quadrature stops once a halving
            # moves no point by more than 1e-5 of the row's peak
            row = delta_g2_analytic(mask, source, geom, grids.detector,
                                    map_rtol=1e-5,
                                    detector_aperture=cfg.detector_aperture)
        else:
            ecfg = _ensemble_config(cfg, grids,
                                    _substream(cfg.seed, index + 1))
            row = delta_g2_montecarlo(mask, source, geom, ecfg)
        row.metadata.update(role="sweep", z1=cfg.z1, z2=z2, row=index)
        return row

    profiles = fan_out(one_row, range(len(z2_values)), workers)
    focus = int(np.argmin(np.abs(z2_values - cfg.z1)))
    profiles[focus].metadata["is_focus_row"] = True
    return profiles


def _run_hbt(cfg: ScenarioConfig, workers: int):
    start_det = DetectorSpec(mean_rate=cfg.start_rate,
                             jitter_sigma=cfg.jitter_sigma,
                             dead_time=cfg.dead_time)
    stop_det = DetectorSpec(mean_rate=cfg.stop_rate,
                            jitter_sigma=cfg.jitter_sigma,
                            dead_time=cfg.dead_time)
    tau0 = cfg.coherence_time

    def one_batch(b: int) -> CoincidenceHistogram:
        trace = simulate_intensity_trace(tau0, cfg.hbt_batch_duration,
                                         cfg.hbt_dt,
                                         seed=_substream(cfg.seed, 3 * b))
        starts = thin_photons(trace, cfg.hbt_dt, start_det,
                              seed=_substream(cfg.seed, 3 * b + 1))
        stops = thin_photons(trace, cfg.hbt_dt, stop_det,
                             seed=_substream(cfg.seed, 3 * b + 2))
        return start_stop_histogram(starts, stops, cfg.hbt_bin_width,
                                    cfg.hbt_window)

    batches = fan_out(one_batch, range(cfg.hbt_batches), workers)
    total = batches[0]
    for h in batches[1:]:
        total = total.add(h)
    return [total]


def sweep_matrix(profiles) -> tuple:
    """(z2 array, x2 array, delta_g2 matrix of shape (n_z2, n_x2))."""
    rows = [p for p in profiles if p.metadata.get("role") == "sweep"]
    if not rows:
        raise InvalidArgumentError("no sweep rows among the profiles")
    z2 = np.array([p.metadata["z2"] for p in rows])
    return z2, rows[0].x2, np.vstack([p.delta_g2 for p in rows])


def primary_profile(profiles):
    """The profile that represents the run: the focus row of a sweep, the
    Monte Carlo profile of a 'both' run, else the first profile."""
    for p in profiles:
        if p.metadata.get("is_focus_row"):
            return p
    return profiles[0]


def run_scenario(cfg: ScenarioConfig, workers: int = 1):
    """Execute a scenario; returns (profiles, MetricsReport)."""
    if workers < 1:
        raise InvalidArgumentError("workers must be at least 1")
    t0 = time.perf_counter()
    try:
        if cfg.kind == "focused_image":
            profiles = _run_focused(cfg, workers)
        elif cfg.kind == "z2_sweep":
            profiles = _run_sweep(cfg, workers)
        elif cfg.kind == "hbt":
            profiles = _run_hbt(cfg, workers)
        else:
            raise InvalidArgumentError(f"unknown scenario kind {cfg.kind!r}")
    except NotMeasurableError:
        raise
    except GhostSimError as exc:
        raise _annotate(exc, cfg.kind) from exc

    report = MetricsReport(method=cfg.method, runtime_seconds=0.0)
    if cfg.kind == "hbt":
        hist = profiles[0]
        est = estimate_g2(hist)
        report.g2_zero = float(est.g2_zero)
        report.contrast = float(est.contrast)
        try:
            report.tau_coherence_s = float(estimate_coherence_time(hist))
        except NotMeasurableError:
            report.tau_coherence_s = None
    else:
        stats = profile_metrics(primary_profile(profiles))
        report.visibility = stats["visibility"]
        report.peak_positions = stats["peak_positions"]
        report.peak_separation = stats["peak_separation"]
        report.fwhm_per_peak = stats["fwhm_per_peak"]
    report.runtime_seconds = time.perf_counter() - t0
    return profiles, report
