"""Temporal photon-coincidence Monte Carlo (HBT with a start-stop TAC).

A thermal intensity trace I(t) = |E(t)|^2 is generated from a complex
Ornstein-Uhlenbeck process whose field autocorrelation is exp(-|dt|/tau0)
(Lorentzian line). Photons are drawn by per-bin Bernoulli thinning of the
trace, optionally smeared by Gaussian timing jitter and pruned by a
non-paralyzable dead time. The histogram follows single-stop TAC semantics:
every start is paired with the first later stop inside the window, so no
start contributes more than one count.

Traces and thinning run in fixed blocks of samples, so working memory
beyond the returned arrays stays bounded whatever the batch duration, and
part of each block's work goes to helper threads. Every random number is
still drawn at the position a single whole-array call would give it: the
trace's normals form one sequential Philox stream whose next block a helper
draws while the current one is filtered, and thinning uniforms are one
64-bit Philox word each, so the block that starts at bin a starts at word a
of its stream. Results therefore do not depend on block size or thread
count.

g2 estimation normalizes the histogram by its far tail (bins beyond ten
self-estimated coherence times), takes g2(0) as the Lagrange extrapolation
of the three earliest bins to t = 0 (the same weights its standard error
propagates), and reads the coherence time off the half-contrast point of
the excess, corrected for bin width by parabolic interpolation and scaled
by 2/ln2 for the exponential model.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox
from scipy.signal import lfilter

from .ensemble import fan_out
from .errors import (
    DegenerateStatisticsError,
    InvalidArgumentError,
    NotMeasurableError,
)

__all__ = [
    "DetectorSpec",
    "CoincidenceHistogram",
    "G2Estimate",
    "simulate_intensity_trace",
    "thin_photons",
    "start_stop_histogram",
    "estimate_g2",
    "estimate_coherence_time",
    "g2_zero_standard_error",
]

_LN2 = float(np.log(2.0))

# Samples per block of trace synthesis and thinning. A multiple of 4, so a
# thinning block begins on a Philox counter step (four 64-bit words each).
_BLOCK = 1 << 18
# Threads that draw thinning blocks; results do not depend on it.
_THIN_THREADS = 2


@dataclass(frozen=True)
class DetectorSpec:
    """Single-photon counter model: rate, Gaussian timing jitter, dead time."""

    mean_rate: float
    jitter_sigma: float = 0.0
    dead_time: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_rate <= 0:
            raise InvalidArgumentError("mean_rate must be positive")
        if self.jitter_sigma < 0:
            raise InvalidArgumentError("jitter_sigma must be >= 0")
        if self.dead_time < 0:
            raise InvalidArgumentError("dead_time must be >= 0")


@dataclass
class CoincidenceHistogram:
    """Start-stop delay histogram. Bins are uniform, delays positive."""

    bin_width: float
    bin_centers: np.ndarray
    counts: np.ndarray
    total_starts: int
    total_stops: int

    def __post_init__(self) -> None:
        centers = np.asarray(self.bin_centers, dtype=float)
        counts = np.asarray(self.counts)
        if centers.shape != counts.shape or centers.ndim != 1:
            raise InvalidArgumentError("bin_centers and counts must match 1D shapes")
        if centers.size >= 2:
            steps = np.diff(centers)
            if not np.allclose(steps, self.bin_width, rtol=1e-9, atol=0.0):
                raise InvalidArgumentError("histogram bins must be uniform")
        if np.any(counts < 0):
            raise InvalidArgumentError("counts must be non-negative")
        if int(counts.sum()) > self.total_starts:
            raise InvalidArgumentError(
                "single-stop histogram cannot hold more counts than starts"
            )
        self.bin_centers = centers
        self.counts = counts.astype(np.int64)

    def add(self, other: "CoincidenceHistogram") -> "CoincidenceHistogram":
        """Accumulate a batch with identical binning."""
        if (
            other.bin_width != self.bin_width
            or other.bin_centers.shape != self.bin_centers.shape
            or not np.array_equal(other.bin_centers, self.bin_centers)
        ):
            raise InvalidArgumentError("cannot accumulate histograms with different bins")
        return CoincidenceHistogram(
            self.bin_width,
            self.bin_centers,
            self.counts + other.counts,
            self.total_starts + other.total_starts,
            self.total_stops + other.total_stops,
        )


class G2Estimate(NamedTuple):
    g2_curve: np.ndarray
    g2_zero: float
    contrast: float


def _rng(seed: int, stream: int = 0) -> Generator:
    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _rng_at(seed: int, word: int) -> Generator:
    """_rng(seed) with its first ``word`` 64-bit outputs already consumed."""
    bits = Philox(key=np.array([seed, 0], dtype=np.uint64))
    bits.advance(word // 4)
    bits.random_raw(word % 4)
    return Generator(bits)


def simulate_intensity_trace(
    tau0: float, duration: float, dt: float, seed: int
) -> np.ndarray:
    """Unit-mean thermal intensity trace sampled every dt.

    E(t) follows the stationary AR(1) discretization of a complex
    Ornstein-Uhlenbeck process, so <E(t) E*(t + k dt)> = exp(-k dt / tau0)
    exactly. Requires dt <= tau0 / 10 and duration >= 100 tau0.

    The two quadratures are filtered as real AR(1) sequences in fixed
    blocks, with the filter state carried across block edges, while a
    helper thread draws the next block's normals. The normals are one
    sequential stream in the order a single whole-trace draw would take
    them, so the trace does not depend on block size or thread count.
    """
    if tau0 <= 0 or duration <= 0 or dt <= 0:
        raise InvalidArgumentError("tau0, duration, and dt must be positive")
    if dt > tau0 / 10.0 * (1.0 + 1e-12):
        raise InvalidArgumentError(
            f"dt = {dt:.3g} s is too coarse; need dt <= tau0/10 = {tau0 / 10:.3g} s"
        )
    if duration < 100.0 * tau0:
        raise InvalidArgumentError("duration must be at least 100 * tau0")
    n = int(round(duration / dt))
    rng = _rng(seed)
    rho = np.exp(-dt / tau0)
    s = np.sqrt(1.0 - rho * rho)
    # The normals come in (real, imag) pairs. Filtered as one interleaved
    # sequence, y[k] = rho y[k-2] + s x[k] is one AR(1) step of each
    # quadrature, so the filter state is (rho Re E, rho Im E).
    state = rho * (rng.standard_normal(2) * np.sqrt(0.5))
    out = np.empty(n)
    normals = [np.empty(2 * _BLOCK), np.empty(2 * _BLOCK)]

    def draw(k: int) -> np.ndarray:
        a = k * _BLOCK
        buf = normals[k % 2][: 2 * (min(a + _BLOCK, n) - a)]
        return rng.standard_normal(out=buf)

    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, 0)
        for k, a in enumerate(range(0, n, _BLOCK)):
            m = min(_BLOCK, n - a)
            z = pending.result()
            if a + m < n:
                pending = helper.submit(draw, k + 1)
            z *= np.sqrt(0.5)
            e, state = lfilter([s], [1.0, 0.0, -rho], z, zi=state)
            np.square(e, out=e)
            np.add(e[0::2], e[1::2], out=out[a : a + m])
    return out


def _dead_time_filter(times: np.ndarray, dead_time: float) -> np.ndarray:
    if dead_time <= 0 or times.size == 0:
        return times
    keep = np.empty(times.size, dtype=bool)
    last = -np.inf
    t = times  # local alias, tight loop
    for i in range(t.size):
        if t[i] - last >= dead_time:
            keep[i] = True
            last = t[i]
        else:
            keep[i] = False
    return times[keep]


def thin_photons(
    trace: np.ndarray, dt: float, det: DetectorSpec, seed: int
) -> np.ndarray:
    """Draw photon event times from an intensity trace.

    Per-bin Bernoulli thinning with probability rate(t) * dt where rate is
    the trace rescaled so its average is det.mean_rate. Accepted events get
    a uniform offset inside their bin, then Gaussian jitter, then the
    non-paralyzable dead time. Returns sorted times in seconds.

    The per-bin uniforms are drawn in fixed blocks on helper threads, each
    block starting at its own offset in the seed's Philox stream, and the
    offsets and jitter continue that stream after the last bin. Every draw
    sits where a single whole-trace draw would put it, so the events do not
    depend on block size or thread count.
    """
    if dt <= 0:
        raise InvalidArgumentError("dt must be positive")
    if det.mean_rate * dt >= 0.1:
        raise InvalidArgumentError(
            "mean_rate * dt must stay below 0.1 for the thinning approximation"
        )
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 1:
        raise InvalidArgumentError("trace must be a 1D intensity array")
    mean_i = trace.mean() if trace.size else 0.0
    if mean_i == 0.0:
        if trace.size and trace.min() < 0:
            raise InvalidArgumentError("trace intensities must be non-negative")
        return np.empty(0)
    scale = det.mean_rate * dt / mean_i

    def hits_in(a: int) -> np.ndarray:
        seg = trace[a : a + _BLOCK]
        if np.fmin.reduce(seg) < 0:  # fmin skips NaN: any(seg < 0)
            raise InvalidArgumentError("trace intensities must be non-negative")
        u = _rng_at(seed, a).random(seg.size)
        # u < 1 always, so comparing with the unclipped p equals the
        # comparison with p clipped to [0, 1]
        p_max = seg.max() * scale
        if p_max < 1.0:
            # rounding is monotone, so every bin with u < p has u < p_max
            cand = np.flatnonzero(u < p_max)
            hit = cand[u[cand] < seg[cand] * scale]
        else:
            hit = np.flatnonzero(u < seg * scale)
        return hit + a

    hits = np.concatenate(fan_out(hits_in, range(0, trace.size, _BLOCK),
                                  _THIN_THREADS))
    rng = _rng_at(seed, trace.size)
    times = (hits + rng.random(hits.size)) * dt
    if det.jitter_sigma > 0:
        times = times + rng.standard_normal(hits.size) * det.jitter_sigma
        times = np.sort(times)
    # without jitter the times are already sorted: an offset never
    # carries an event past the start of the next bin
    return _dead_time_filter(times, det.dead_time)


def start_stop_histogram(
    starts: np.ndarray, stops: np.ndarray, bin_width: float, window: float
) -> CoincidenceHistogram:
    """Single-stop TAC histogram of stop-minus-start delays.

    Each start pairs with the first stop strictly after it; the pair counts
    when the delay is at most the window. Bin k covers
    [k*bin_width, (k+1)*bin_width) and the window rounds down to a whole
    number of bins. Pairs are gathered from the stop side, so the cost
    follows the stops and the starts inside the window before each one.
    """
    starts = np.asarray(starts, dtype=float)
    stops = np.asarray(stops, dtype=float)
    if bin_width <= 0 or window < bin_width:
        raise InvalidArgumentError("need bin_width > 0 and window >= bin_width")
    for name, arr in (("starts", starts), ("stops", stops)):
        if arr.ndim != 1:
            raise InvalidArgumentError(f"{name} must be a 1D array of times")
        if arr.size > 1 and np.any(np.diff(arr) < 0):
            raise InvalidArgumentError(f"{name} must be sorted in ascending order")
    n_bins = int(np.floor(window / bin_width + 1e-9))
    centers = (np.arange(n_bins) + 0.5) * bin_width
    span = n_bins * bin_width
    # Stop j closes the starts in [stops[j-1], stops[j]); only those less
    # than two spans before it can fall inside the window.
    hi = np.searchsorted(starts, stops, side="left")
    lo = np.empty_like(hi)
    lo[:1] = 0
    lo[1:] = hi[:-1]
    np.maximum(lo, np.searchsorted(starts, stops - 2.0 * span, side="left"), out=lo)
    lens = hi - lo
    owner = np.repeat(np.arange(stops.size), lens)
    first = np.repeat(lo - (np.cumsum(lens) - lens), lens)
    delta = stops[owner] - starts[first + np.arange(first.size)]
    bins = np.floor(delta[delta <= span] / bin_width).astype(np.int64)
    np.clip(bins, 0, n_bins - 1, out=bins)
    counts = np.bincount(bins, minlength=n_bins).astype(np.int64)
    return CoincidenceHistogram(bin_width, centers, counts, starts.size, stops.size)


def _zero_weights(centers: np.ndarray) -> np.ndarray:
    """Lagrange weights of the three earliest bins at t = 0."""
    c = centers[:3]
    w = np.empty(3)
    for i in range(3):
        others = np.delete(c, i)
        w[i] = np.prod((0.0 - others) / (c[i] - others))
    return w


def _baseline_region(h: CoincidenceHistogram) -> np.ndarray:
    """Boolean mask of far-tail bins, past ten crude coherence times.

    The crude scale comes from the integral of the excess over the tail
    level, which for an exponential excess equals excess(0) * tau0 / 2 and
    is insensitive to bin width. Histograms without a detectable peak
    (excess below ~10 Poisson sigma) fall back to a bin-width-scale cut.
    """
    counts = h.counts.astype(float)
    n = counts.size
    if n < 8:
        raise DegenerateStatisticsError("histogram too short to hold a baseline")
    tail = counts[-max(2, n // 4):].mean()
    peak0 = _zero_weights(h.bin_centers) @ counts[:3]
    excess0 = peak0 - tail
    tau_est = h.bin_width
    if excess0 > 10.0 * np.sqrt(max(tail, 1.0)):
        # integrate the excess only while it stays resolved; summing noise
        # from the flat tail would wreck the estimate
        level = tail + 0.05 * excess0
        below = counts < level
        runs = below[:-2] & below[1:-1] & below[2:]
        stop = int(np.argmax(runs)) if np.any(runs) else n
        excess_sum = float((counts[:stop] - tail).sum()) * h.bin_width
        if excess_sum > 0:
            # truncation at the 5% level drops that fraction of the area
            tau_est = max(2.0 * excess_sum / excess0 / 0.95, h.bin_width)
    mask = h.bin_centers > 10.0 * tau_est
    if not np.any(mask):
        raise DegenerateStatisticsError(
            "no baseline bins beyond ten coherence times; widen the window"
        )
    return mask


def _normalised(h: CoincidenceHistogram) -> tuple[np.ndarray, np.ndarray, float]:
    """(g2 curve, baseline mask, baseline level): counts over their far-tail mean."""
    mask = _baseline_region(h)
    counts = h.counts.astype(float)
    baseline = counts[mask].mean()
    if baseline == 0:
        raise DegenerateStatisticsError("baseline of the histogram is zero")
    return counts / baseline, mask, baseline


def estimate_g2(h: CoincidenceHistogram) -> G2Estimate:
    """Normalized g2(t) curve, its extrapolated zero-delay value, and contrast."""
    g2_curve, _, _ = _normalised(h)
    g2_zero = float(_zero_weights(h.bin_centers) @ g2_curve[:3])
    return G2Estimate(g2_curve, g2_zero, g2_zero - 1.0)


def g2_zero_standard_error(h: CoincidenceHistogram) -> float:
    """Poisson-propagated standard error of estimate_g2(...).g2_zero."""
    _, mask, baseline = _normalised(h)
    counts = h.counts[:3].astype(float)
    w = _zero_weights(h.bin_centers)
    var_peak = np.sum(w**2 * counts)
    p0 = float(np.dot(w, counts))
    n_b = int(mask.sum())
    var_base = baseline / n_b  # Poisson, averaged over the baseline bins
    return float(np.sqrt(var_peak / baseline**2 + (p0 / baseline**2) ** 2 * var_base))


def estimate_coherence_time(h: CoincidenceHistogram) -> float:
    """Coherence time from the half-contrast point of the g2 excess.

    The crossing is located by a parabola through the three bins around it
    (linear fallback when the quadratic degenerates) and converted with
    tau0 = 2 * t_half / ln 2, the exponential-autocorrelation relation.
    Raises NotMeasurableError when the peak does not clear five times the
    baseline noise, which is what a jitter-dominated histogram looks like.
    """
    g2_curve, mask, _ = _normalised(h)
    contrast = float(_zero_weights(h.bin_centers) @ g2_curve[:3]) - 1.0
    noise = float(g2_curve[mask].std())
    if contrast <= 5.0 * noise:
        raise NotMeasurableError(
            "g2 peak is not resolvable above the baseline noise; the coherence "
            "time cannot be measured at this jitter and statistics"
        )
    excess = g2_curve - 1.0
    half = 0.5 * contrast
    below = np.nonzero(excess < half)[0]
    if below.size == 0:
        raise NotMeasurableError("g2 excess never falls to half contrast in the window")
    k = int(below[0])
    centers = h.bin_centers
    if k == 0:
        i0 = 0
        lo, hi = 0.0, centers[0]
    else:
        i0 = min(max(k - 1, 0), centers.size - 3)
        lo, hi = centers[k - 1], centers[k]
    t3 = centers[i0 : i0 + 3]
    y3 = excess[i0 : i0 + 3]
    a, b, c = np.polyfit(t3, y3, 2)
    t_half = None
    if a != 0.0:
        disc = b * b - 4.0 * a * (c - half)
        if disc >= 0:
            roots = np.array([(-b - np.sqrt(disc)) / (2 * a), (-b + np.sqrt(disc)) / (2 * a)])
            inside = roots[(roots >= lo - 1e-15) & (roots <= hi + 1e-15)]
            if inside.size:
                t_half = float(inside.min())
    if t_half is None:
        # linear interpolation across the bracketing pair
        if k == 0:
            e_lo, e_hi = contrast, excess[0]
        else:
            e_lo, e_hi = excess[k - 1], excess[k]
        frac = (e_lo - half) / (e_lo - e_hi) if e_lo != e_hi else 0.5
        t_half = float(lo + frac * (hi - lo))
    return 2.0 * t_half / _LN2
