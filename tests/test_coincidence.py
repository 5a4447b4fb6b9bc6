"""Temporal thermal-light Monte Carlo: traces, thinning, TAC histogram, g2."""

import sys

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.signal import lfilter

import ghostsim as gs
from ghostsim import (
    DegenerateStatisticsError,
    InvalidArgumentError,
    NotMeasurableError,
    coincidence,
)

TAU0 = 1e-10
DT = 5e-12
BATCH = 4e-5
START_RATE = 0.09 / DT


def hbt_histogram(seed0, batches, bin_width, window, stop_rate, jitter=0.0):
    """Same-trace start/stop coincidence run with per-batch substreams."""
    acc = None
    d_start = gs.DetectorSpec(mean_rate=START_RATE, jitter_sigma=jitter)
    d_stop = gs.DetectorSpec(mean_rate=stop_rate, jitter_sigma=jitter)
    for b in range(batches):
        k = 1000 * seed0 + 3 * b
        trace = gs.simulate_intensity_trace(TAU0, BATCH, DT, seed=k)
        starts = gs.thin_photons(trace, DT, d_start, seed=k + 1)
        stops = gs.thin_photons(trace, DT, d_stop, seed=k + 2)
        h = gs.start_stop_histogram(starts, stops, bin_width, window)
        acc = h if acc is None else acc.add(h)
    return acc


# --- intensity traces ---

def test_trace_mean_and_bunching():
    trace = gs.simulate_intensity_trace(1e-9, 4e-4, 1e-10, seed=3)
    m = trace.mean()
    assert m == pytest.approx(1.0, abs=0.02)
    assert (trace * trace).mean() / m**2 == pytest.approx(2.0, rel=0.05)
    assert np.all(trace >= 0)


def test_trace_autocorrelation_decays_exponentially():
    # thermal intensity: <I(t) I(t+d)> / <I>^2 = 1 + exp(-2 d / tau0)
    trace = gs.simulate_intensity_trace(1e-9, 4e-4, 1e-10, seed=3)
    m = trace.mean()
    for lag_bins, lag_tau in ((5, 0.5), (10, 1.0), (20, 2.0)):
        g = (trace[:-lag_bins] * trace[lag_bins:]).mean() / m**2
        assert g == pytest.approx(1.0 + np.exp(-2 * lag_tau), abs=0.01)


def test_trace_deterministic_and_seed_sensitive():
    a = gs.simulate_intensity_trace(1e-9, 1e-6, 1e-10, seed=5)
    b = gs.simulate_intensity_trace(1e-9, 1e-6, 1e-10, seed=5)
    c = gs.simulate_intensity_trace(1e-9, 1e-6, 1e-10, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_trace_validation():
    with pytest.raises(InvalidArgumentError):
        gs.simulate_intensity_trace(1e-9, 1e-6, 2e-10, seed=1)  # dt > tau0/10
    with pytest.raises(InvalidArgumentError):
        gs.simulate_intensity_trace(1e-9, 5e-8, 1e-10, seed=1)  # run < 100 tau0


# --- photon thinning ---

def test_constant_trace_gives_poisson_counts():
    events = gs.thin_photons(np.ones(100_000), 1e-9, gs.DetectorSpec(mean_rate=5e7), seed=8)
    mean = 5e7 * 100_000 * 1e-9
    assert abs(events.size - mean) < 3 * np.sqrt(mean)
    assert np.all(np.diff(events) > 0)


def test_dark_trace_gives_no_events():
    events = gs.thin_photons(np.zeros(10_000), 1e-9, gs.DetectorSpec(mean_rate=5e7), seed=8)
    assert events.size == 0


def test_thinning_deterministic():
    det = gs.DetectorSpec(mean_rate=5e7)
    a = gs.thin_photons(np.ones(50_000), 1e-9, det, seed=8)
    b = gs.thin_photons(np.ones(50_000), 1e-9, det, seed=8)
    c = gs.thin_photons(np.ones(50_000), 1e-9, det, seed=9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rate_per_bin_capped():
    with pytest.raises(InvalidArgumentError):
        gs.thin_photons(np.ones(1000), 1e-9, gs.DetectorSpec(mean_rate=2e8), seed=1)


def test_negative_trace_rejected():
    det = gs.DetectorSpec(mean_rate=5e7)
    with pytest.raises(InvalidArgumentError):
        gs.thin_photons(np.array([-1.0, 1.0]), 1e-9, det, seed=1)  # mean 0
    trace = np.ones(600_000)
    trace[400_000] = np.nan  # a NaN in the same block must not hide it
    trace[400_001] = -1.0
    with pytest.raises(InvalidArgumentError):
        gs.thin_photons(trace, 1e-9, det, seed=1)


def test_jitter_shifts_events_without_changing_counts():
    sigma = 5e-9
    clean = gs.thin_photons(np.ones(100_000), 1e-9, gs.DetectorSpec(mean_rate=5e7), seed=8)
    jittered = gs.thin_photons(
        np.ones(100_000), 1e-9, gs.DetectorSpec(mean_rate=5e7, jitter_sigma=sigma), seed=8
    )
    assert jittered.size == clean.size
    shift = np.abs(np.sort(jittered) - np.sort(clean))
    assert 0.4 * sigma < shift.mean() < 1.2 * sigma


def test_dead_time_renewal_rate():
    # constant intensity: observed rate = r / (1 + r * dead_time)
    r = 0.09 / 1e-9
    dead = 1.8 / r
    det = gs.DetectorSpec(mean_rate=r, dead_time=dead)
    events = gs.thin_photons(np.ones(2_000_000), 1e-9, det, seed=42)
    observed = events.size / (2_000_000 * 1e-9)
    assert observed / (r / (1 + r * dead)) == pytest.approx(1.0, abs=0.05)
    assert np.all(np.diff(events) >= dead)


def test_dead_time_saturation():
    # dead time dominates: rate saturates at 1/dead_time, never exceeds it
    r = 0.09 / 1e-9
    dead = 18 / r
    det = gs.DetectorSpec(mean_rate=r, dead_time=dead)
    events = gs.thin_photons(np.ones(2_000_000), 1e-9, det, seed=42)
    observed = events.size / (2_000_000 * 1e-9)
    assert 0.90 < observed * dead < 1.0


def test_detector_spec_validation():
    with pytest.raises(InvalidArgumentError):
        gs.DetectorSpec(mean_rate=0.0)
    with pytest.raises(InvalidArgumentError):
        gs.DetectorSpec(mean_rate=1e6, jitter_sigma=-1e-12)
    with pytest.raises(InvalidArgumentError):
        gs.DetectorSpec(mean_rate=1e6, dead_time=-1e-12)


def _philox(seed):
    return Generator(Philox(key=np.array([seed, 0], dtype=np.uint64)))


def whole_array_trace(tau0, duration, dt, seed):
    """The trace as one complex AR(1) filter over one normal draw."""
    n = int(round(duration / dt))
    rng = _philox(seed)
    rho = np.exp(-dt / tau0)
    s = np.sqrt(1.0 - rho * rho)
    z0 = rng.standard_normal(2)
    e0 = (z0[0] + 1j * z0[1]) * np.sqrt(0.5)
    z = rng.standard_normal(2 * n)
    zeta = (z[0::2] + 1j * z[1::2]) * np.sqrt(0.5)
    e, _ = lfilter([s], [1.0, -rho], zeta, zi=np.array([rho * e0], dtype=complex))
    return e.real**2 + e.imag**2


def whole_array_thinning(trace, dt, det, seed):
    """Per-bin Bernoulli thinning against one full row of uniforms."""
    rng = _philox(seed)
    p = np.clip(trace * (det.mean_rate * dt / trace.mean()), 0.0, 1.0)
    hits = np.nonzero(rng.random(trace.size) < p)[0]
    times = (hits + rng.random(hits.size)) * dt
    if det.jitter_sigma > 0:
        times = times + rng.standard_normal(hits.size) * det.jitter_sigma
    times = np.sort(times)
    kept, last = [], -np.inf
    for t in times:
        if t - last >= det.dead_time:
            kept.append(t)
            last = t
    return np.array(kept)


@pytest.mark.parametrize("block, threads", [(None, None), (1 << 12, 3)])
def test_blocked_draws_match_whole_array_formulas(monkeypatch, request, block, threads):
    # 600_003 samples: more than two blocks, and a multiple of neither the
    # block size nor the four words of one Philox counter step; the second
    # case runs ~150 small blocks on three thinning threads that switch
    # often, so a block lost between them would show
    if block is not None:
        monkeypatch.setattr(coincidence, "_BLOCK", block)
        monkeypatch.setattr(coincidence, "_THIN_THREADS", threads)
        interval = sys.getswitchinterval()
        request.addfinalizer(lambda: sys.setswitchinterval(interval))
        sys.setswitchinterval(1e-5)
    tau0, dt = 1e-10, 1e-11
    duration = 600_003 * dt
    trace = gs.simulate_intensity_trace(tau0, duration, dt, seed=77)
    assert trace.size == 600_003
    assert np.array_equal(trace, whole_array_trace(tau0, duration, dt, seed=77))
    # the hot detector has blocks with p_max >= 1 and blocks below it; the
    # dim one tests only the bins with u < p_max
    for det in (
        gs.DetectorSpec(mean_rate=0.09 / dt, jitter_sigma=3e-11, dead_time=2e-10),
        gs.DetectorSpec(mean_rate=2e8, jitter_sigma=1e-10, dead_time=1e-9),
    ):
        events = gs.thin_photons(trace, dt, det, seed=78)
        assert events.size > 0
        assert np.array_equal(events, whole_array_thinning(trace, dt, det, seed=78))


# --- start-stop histogram ---

def test_single_start_lands_in_the_right_bin():
    h = gs.start_stop_histogram(np.array([0.0]), np.array([1e-9, 2e-9]), 0.5e-9, 5e-9)
    assert h.total_starts == 1 and h.total_stops == 2
    assert h.counts.sum() == 1
    assert h.counts[2] == 1  # delay 1 ns falls in [1.0, 1.5) ns
    assert h.bin_centers[2] == pytest.approx(1.25e-9, rel=1e-12)


def test_each_start_pairs_with_first_later_stop():
    # one stop can close several starts; each start uses only its first stop
    h = gs.start_stop_histogram(np.array([0.0, 0.1e-9]), np.array([0.2e-9]), 0.5e-9, 5e-9)
    assert h.counts.sum() == 2
    assert h.counts[0] == 2


def test_no_stops_gives_empty_histogram():
    h = gs.start_stop_histogram(np.array([0.0, 1e-9]), np.array([], dtype=float), 0.5e-9, 5e-9)
    assert h.counts.sum() == 0
    assert h.total_starts == 2 and h.total_stops == 0


def test_unsorted_input_rejected():
    with pytest.raises(InvalidArgumentError):
        gs.start_stop_histogram(np.array([1e-9, 0.0]), np.array([2e-9]), 0.5e-9, 5e-9)


def test_histogram_validation():
    centers = (np.arange(10) + 0.5) * 1e-9
    with pytest.raises(InvalidArgumentError):
        gs.CoincidenceHistogram(1e-9, centers, -np.ones(10), 100, 100)
    with pytest.raises(InvalidArgumentError):
        gs.CoincidenceHistogram(1e-9, centers**1.1, np.ones(10), 100, 100)
    with pytest.raises(InvalidArgumentError):
        gs.CoincidenceHistogram(1e-9, centers, np.full(10, 50.0), 100, 100)


def test_histogram_add_accumulates():
    centers = (np.arange(10) + 0.5) * 1e-9
    a = gs.CoincidenceHistogram(1e-9, centers, np.ones(10), 100, 50)
    b = gs.CoincidenceHistogram(1e-9, centers, 2 * np.ones(10), 200, 80)
    c = a.add(b)
    assert np.array_equal(c.counts, 3 * np.ones(10))
    assert c.total_starts == 300 and c.total_stops == 130
    with pytest.raises(InvalidArgumentError):
        a.add(gs.CoincidenceHistogram(2e-9, 2 * centers, np.ones(10), 100, 50))


def test_independent_streams_give_flat_histogram():
    rng = np.random.default_rng(5)
    starts = np.cumsum(rng.exponential(1 / 5e5, 200_000))
    stops = np.sort(rng.uniform(0, starts[-1], 20_000))
    h = gs.start_stop_histogram(starts, stops, 5e-8, 1e-6)
    mean = h.counts.mean()
    assert np.max(np.abs(h.counts - mean)) < 5 * np.sqrt(mean)
    first, second = h.counts[:10].mean(), h.counts[10:].mean()
    assert abs(first - second) < 5 * np.sqrt(mean / 5)


def per_start_counts(starts, stops, bin_width, window):
    """Each start looks up its first later stop with searchsorted."""
    n_bins = int(np.floor(window / bin_width + 1e-9))
    if stops.size == 0 or starts.size == 0:
        return np.zeros(n_bins, dtype=np.int64)
    idx = np.searchsorted(stops, starts, side="right")
    valid = idx < stops.size
    delta = stops[np.minimum(idx, stops.size - 1)] - starts
    valid &= delta <= n_bins * bin_width
    bins = np.clip(np.floor(delta[valid] / bin_width).astype(np.int64), 0, n_bins - 1)
    return np.bincount(bins, minlength=n_bins)


def test_stop_anchored_pairing_matches_per_start_pairing():
    rng = np.random.default_rng(12)
    cases = [
        (np.sort(rng.uniform(0, 1e-6, 5000)), np.sort(rng.uniform(0, 1e-6, 300))),
        (np.array([]), np.sort(rng.uniform(0, 1e-6, 10))),
        (np.sort(rng.uniform(0, 1e-6, 10)), np.array([])),
        (np.array([]), np.array([])),
    ]
    # times on a 1/8 grid, so delays are exact: starts that equal a stop,
    # repeated stops, and delays of exactly the window
    for _ in range(20):
        cases.append((np.sort(rng.integers(0, 400, 300)) / 8.0,
                      np.sort(rng.integers(0, 400, 40)) / 8.0))
    edge_starts = np.array([0.875, 1.0, 3.0, 5.0, 5.0, 7.5])
    edge_stops = np.array([3.0, 5.0, 7.0, 7.0, 9.5])
    cases.append((edge_starts, edge_stops))
    for starts, stops in cases:
        for bin_width, window in ((0.25, 2.0), (1e-8, 5e-8)):
            h = gs.start_stop_histogram(starts, stops, bin_width, window)
            assert np.array_equal(
                h.counts, per_start_counts(starts, stops, bin_width, window)
            )
    # starts equal to a stop pair with the next stop; every pair below has a
    # delay of exactly the window (counted) except 0.875 -> 3.0 (dropped)
    h = gs.start_stop_histogram(edge_starts, edge_stops, 0.25, 2.0)
    assert h.counts[-1] == 5 and h.counts.sum() == 5


# --- g2 estimation ---

def test_estimate_on_exact_thermal_histogram():
    # synthetic counts proportional to 1 + exp(-2 t / tau): closed-form target
    tau = 1e-9
    bw = tau / 10
    centers = (np.arange(300) + 0.5) * bw
    base = 1e6
    counts = np.round(base * (1.0 + np.exp(-2 * centers / tau)))
    h = gs.CoincidenceHistogram(bw, centers, counts, 10**12, 10**9)
    est = gs.estimate_g2(h)
    assert est.g2_zero == pytest.approx(1.997996, abs=1e-4)
    assert est.contrast == pytest.approx(est.g2_zero - 1.0, abs=1e-12)
    # the Lagrange weights give the parabola through the three earliest
    # bins at t = 0, up to rounding
    parabola = np.polyfit(centers[:3], est.g2_curve[:3], 2)
    assert est.g2_zero == pytest.approx(parabola[2], rel=1e-12)
    assert gs.estimate_coherence_time(h) == pytest.approx(tau, rel=0.01)
    # far tail normalizes to one
    assert np.allclose(est.g2_curve[-50:], 1.0, atol=1e-3)


def test_standard_error_scales_with_counts():
    tau = 1e-9
    bw = tau / 10
    centers = (np.arange(300) + 0.5) * bw
    counts = np.round(1e6 * (1.0 + np.exp(-2 * centers / tau)))
    h1 = gs.CoincidenceHistogram(bw, centers, counts, 10**12, 10**9)
    h4 = gs.CoincidenceHistogram(bw, centers, 4 * counts, 4 * 10**12, 4 * 10**9)
    assert gs.g2_zero_standard_error(h1) == pytest.approx(
        2 * gs.g2_zero_standard_error(h4), rel=1e-12
    )


def test_same_trace_reaches_thermal_bunching():
    # both detectors thinned from one trace: g2(0) ~ 2 (Siegert)
    h = hbt_histogram(seed0=9, batches=12, bin_width=1e-11,
                      window=1.8e-9, stop_rate=5e6)
    est = gs.estimate_g2(h)
    se = gs.g2_zero_standard_error(h)
    assert 1.85 <= est.g2_zero <= 2.05
    assert est.g2_zero <= 2.0 + 3 * se  # never significantly above the ceiling
    tail = est.g2_curve[h.bin_centers > 10 * TAU0]
    assert tail.mean() == pytest.approx(1.0, abs=0.02)


def test_detector_jitter_washes_out_contrast():
    # 0.35 ns jitter on a 0.1 ns coherence time: contrast falls to a few percent
    sharp = hbt_histogram(seed0=101, batches=6, bin_width=1.5e-10,
                          window=8e-9, stop_rate=1.875e6)
    smeared = hbt_histogram(seed0=101, batches=6, bin_width=1.5e-10,
                            window=8e-9, stop_rate=1.875e6, jitter=0.35e-9)
    c_sharp = gs.estimate_g2(sharp).contrast
    c_smeared = gs.estimate_g2(smeared).contrast
    assert c_sharp > 0.25
    assert 0.005 < c_smeared < 0.2
    assert c_smeared < 0.3 * c_sharp
    # few-percent excess across the smeared peak region
    base = smeared.counts[smeared.bin_centers > 4e-9].mean()
    central = smeared.counts[smeared.bin_centers < 1e-9].mean() / base - 1
    assert 0.01 < central < 0.15


def test_coherence_time_recovery():
    # tau0 = 1 ns, fine bins: the crossing estimator lands within 10%
    tau0 = 1e-9
    dt = 5e-11
    acc = None
    d1 = gs.DetectorSpec(mean_rate=0.09 / dt)
    d2 = gs.DetectorSpec(mean_rate=1.2e6)
    for b in range(96):
        k = 500 * 21 + 3 * b
        tr = gs.simulate_intensity_trace(tau0, 8e-5, dt, seed=k)
        st = gs.thin_photons(tr, dt, d1, seed=k + 1)
        sp = gs.thin_photons(tr, dt, d2, seed=k + 2)
        h = gs.start_stop_histogram(st, sp, 1e-10, 1.4e-8)
        acc = h if acc is None else acc.add(h)
    tau_hat = gs.estimate_coherence_time(acc)
    assert tau_hat == pytest.approx(tau0, rel=0.10)


def test_overwhelming_jitter_is_not_measurable():
    # jitter of 10 tau0 washes the peak below the noise floor
    tau0 = 1e-9
    dt = 1e-10
    d1 = gs.DetectorSpec(mean_rate=0.08 / dt, jitter_sigma=10 * tau0)
    d2 = gs.DetectorSpec(mean_rate=2e6, jitter_sigma=10 * tau0)
    acc = None
    for b in range(3):
        k = 700 + 3 * b
        tr = gs.simulate_intensity_trace(tau0, 2e-5, dt, seed=k)
        st = gs.thin_photons(tr, dt, d1, seed=k + 1)
        sp = gs.thin_photons(tr, dt, d2, seed=k + 2)
        h = gs.start_stop_histogram(st, sp, 1.5e-9, 6e-8)
        acc = h if acc is None else acc.add(h)
    with pytest.raises(NotMeasurableError):
        gs.estimate_coherence_time(acc)


def test_uncorrelated_traces_give_flat_g2():
    dt = 1e-10
    tr_a = gs.simulate_intensity_trace(1e-9, 4e-5, dt, seed=11)
    tr_b = gs.simulate_intensity_trace(1e-9, 4e-5, dt, seed=12)
    starts = gs.thin_photons(tr_a, dt, gs.DetectorSpec(mean_rate=0.08 / dt), seed=13)
    stops = gs.thin_photons(tr_b, dt, gs.DetectorSpec(mean_rate=3e6), seed=14)
    h = gs.start_stop_histogram(starts, stops, 1e-9, 4e-8)
    est = gs.estimate_g2(h)
    se = gs.g2_zero_standard_error(h)
    assert abs(est.g2_zero - 1.0) <= 3 * se


def test_short_window_rejected():
    # no bins beyond the coherence structure -> no baseline to normalize by
    tau = 1e-9
    bw = tau / 10
    centers = (np.arange(12) + 0.5) * bw
    counts = np.round(1e6 * (1.0 + np.exp(-2 * centers / tau)))
    h = gs.CoincidenceHistogram(bw, centers, counts, 10**12, 10**9)
    with pytest.raises(DegenerateStatisticsError):
        gs.estimate_g2(h)
