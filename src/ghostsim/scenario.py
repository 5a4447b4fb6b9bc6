"""Scenario files: a flat key = value format with SI-suffixed numbers.

Grammar, one statement per line:

    key = value        # '#' starts a comment, blank lines are ignored

Keys are the fields of ScenarioConfig (value type, kinds, default, range)
and are strictly checked: unknown keys, keys that do not apply to the
declared kind, malformed or mis-suffixed values and out-of-range values
all raise ConfigError naming the offending key; parse_scenario alone adds
the line of a key the file sets (of a duplicate key, its second
occurrence). Lengths accept m, cm, mm, um (or µm), nm, pm; times accept
s, ms, us (or µs), ns, ps, fs; bare numbers are base SI. Counts and rates
are plain numbers; a count is at most 2**64 - 1.

Auto-sized grids (spatial_grids) follow two rules: windows cover 4x the
mask extent plus the coherence-kernel width (and, for sweeps, the
geometric defocus spread of the source), and every grid spacing satisfies
the Fresnel sampling criterion with a few percent of margin. Explicit
spans, steps and points override them; detector_step and detector_points
exclude each other. Each size a scenario implies meets its cap as a
float, before any int(), and names the key that set it (_check_size): a
grid's 2**20 points, where the grid is computed; 1 GiB of Monte Carlo
records (n_realizations x detector points of float64, per sweep row in
flight); for kind = hbt, 2**20 histogram bins and 1 GiB of one batch's
trace. An hbt batch streams its trace in blocks and holds it whole only
when its mean intensity falls below the streamed loop's floor
(coincidence.stream_photons), which is why the trace keeps its cap.
plan(), which parse_scenario and the runner both call, also rejects a
grid whose points do not strictly increase, Fresnel aliasing, a dark
bucket window and an unresolved coherence kernel. An hbt default is range-checked as a set value is,
naming the key in the file it derives from; parsing rejects a histogram
under 11 bins and, by coincidence's own comparisons, a step over
coherence_time / 10, a batch under 100 coherence times and a rate with
rate * hbt_dt >= 0.1.

parse_scenario returns a fully resolved ScenarioConfig (defaults filled);
dump_scenario emits the canonical form, and parse(dump(cfg)) == cfg.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .analytic import _check_kernel_resolved
from .coincidence import _dt_too_coarse, _thinning_too_coarse, _too_short
from .errors import ConfigError, InvalidArgumentError, SamplingCriterionError
from .grid import TransverseGrid, make_grid
from .optics import (
    GaussianProfile,
    OpticalGeometry,
    SourceSpec,
    TransmissionMask,
    UniformProfile,
    _check_sampling,
)

__all__ = ["ScenarioConfig", "RunPlan", "plan", "parse_scenario",
           "dump_scenario", "KINDS", "METHODS"]

KINDS = ("focused_image", "z2_sweep", "hbt")
METHODS = ("montecarlo", "analytic", "both")

_LENGTH_UNITS = {"m": 1.0, "cm": 1e-2, "mm": 1e-3, "um": 1e-6, "µm": 1e-6,
                 "nm": 1e-9, "pm": 1e-12}
_TIME_UNITS = {"s": 1.0, "ms": 1e-3, "us": 1e-6, "µs": 1e-6, "ns": 1e-9,
               "ps": 1e-12, "fs": 1e-15}

_NUMBER_RE = re.compile(
    r"^([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([a-zA-Zµ]*)$"
)

_SPATIAL = ("focused_image", "z2_sweep")

# points of one grid, and bins of one hbt histogram
_MAX_POINTS = 1 << 20
# bytes of one Monte Carlo record matrix (n_realizations x detector
# points), and of one hbt batch's float64 trace, should it be held whole
_RECORD_BUDGET = 1 << 30

_MASK_PARAM_KEYS = {
    "pinhole_pair": ("mask_separation", "mask_diameter_1", "mask_diameter_2"),
    "double_slit": ("mask_separation", "mask_slit_width"),
    "uniform": ("mask_half_width",),
}
# each mask parameter key once, in the order _MASK_PARAM_KEYS names them
_MASK_KEYS = tuple(dict.fromkeys(sum(_MASK_PARAM_KEYS.values(), ())))

_ENUMS = {
    "enum:kind": KINDS,
    "enum:method": METHODS,
    "enum:profile": ("uniform", "gaussian"),
    "enum:mask": tuple(_MASK_PARAM_KEYS),
}


def _key(vtype: str, kinds, default=None, least=None, most=None):
    """One scenario key; a None default is left to the kind's resolver.
    [least, most] bounds each value a file sets; an int's most defaults to
    2^64 - 1, so that a product of counts is a finite float, and a length,
    time or float is also finite and, with no least, positive."""
    most = 2**64 - 1 if vtype == "int" and most is None else most
    return field(default=default, metadata={"vtype": vtype, "kinds": kinds,
                                            "range": (least, most)})


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario, and the scenario schema: one field per key,
    in dump order. None marks fields the kind does not use."""

    kind: str = _key("enum:kind", KINDS, MISSING)
    method: str = _key("enum:method", KINDS, "montecarlo")
    seed: int = _key("int", KINDS, 12345, least=0)
    output: str = _key("str", KINDS, "ghostsim-out")
    wavelength: float = _key("length", KINDS, 6.93e-7)
    source_profile: Optional[str] = _key("enum:profile", _SPATIAL)
    source_radius: Optional[float] = _key("length", _SPATIAL)
    coherence_time: Optional[float] = _key("time", ("hbt",))
    z1: Optional[float] = _key("length", _SPATIAL)
    z2: Optional[float] = _key("length", ("focused_image",))
    z2_min: Optional[float] = _key("length", ("z2_sweep",))
    z2_max: Optional[float] = _key("length", ("z2_sweep",))
    z2_steps: Optional[int] = _key("int", ("z2_sweep",), least=2, most=_MAX_POINTS)
    mask: Optional[str] = _key("enum:mask", _SPATIAL)
    mask_separation: Optional[float] = _key("length", _SPATIAL)
    mask_diameter_1: Optional[float] = _key("length", _SPATIAL)
    mask_diameter_2: Optional[float] = _key("length", _SPATIAL)
    mask_slit_width: Optional[float] = _key("length", _SPATIAL)
    mask_half_width: Optional[float] = _key("length", _SPATIAL)
    n_realizations: Optional[int] = _key("int", _SPATIAL, least=2)
    detector_aperture: Optional[float] = _key("length", _SPATIAL, least=0)
    detector_step: Optional[float] = _key("length", _SPATIAL)
    detector_span: Optional[float] = _key("length", _SPATIAL)
    detector_points: Optional[int] = _key("int", _SPATIAL, least=2)
    object_span: Optional[float] = _key("length", _SPATIAL)
    object_points: Optional[int] = _key("int", _SPATIAL, least=2, most=_MAX_POINTS)
    bucket_half_width: Optional[float] = _key("length", _SPATIAL)
    start_rate: Optional[float] = _key("float", ("hbt",))
    stop_rate: Optional[float] = _key("float", ("hbt",))
    hbt_dt: Optional[float] = _key("time", ("hbt",))
    hbt_batch_duration: Optional[float] = _key("time", ("hbt",))
    hbt_batches: Optional[int] = _key("int", ("hbt",), least=1)
    hbt_bin_width: Optional[float] = _key("time", ("hbt",))
    hbt_window: Optional[float] = _key("time", ("hbt",))
    jitter_sigma: Optional[float] = _key("time", ("hbt",), least=0)
    dead_time: Optional[float] = _key("time", ("hbt",), least=0)

    def source(self) -> SourceSpec:
        if self.source_profile == "gaussian":
            profile = GaussianProfile(self.source_radius)
        else:
            profile = UniformProfile(self.source_radius)
        return SourceSpec(self.wavelength, profile)

    def z2_values(self):
        """Detector distances: the one z2, or the sweep's z2_steps points."""
        if self.kind == "z2_sweep":
            return np.linspace(self.z2_min, self.z2_max, self.z2_steps)
        return [self.z2]

    def geometry(self, z2: Optional[float] = None) -> OpticalGeometry:
        return OpticalGeometry(self.z1, self.z2 if z2 is None else z2)

    def build_mask(self, grid) -> TransmissionMask:
        if self.mask == "pinhole_pair":
            return TransmissionMask.pinhole_pair(
                grid, d1=self.mask_diameter_1, d2=self.mask_diameter_2,
                separation=self.mask_separation)
        if self.mask == "double_slit":
            return TransmissionMask.double_slit(
                grid, self.mask_slit_width, self.mask_separation)
        return TransmissionMask(grid, np.abs(grid.x) <= self.mask_half_width)

    def mask_extent(self) -> float:
        """Full transverse extent of the mask's transmitting features."""
        if self.mask == "pinhole_pair":
            return self.mask_separation + 0.5 * (
                self.mask_diameter_1 + self.mask_diameter_2)
        if self.mask == "double_slit":
            return self.mask_separation + self.mask_slit_width
        return 2.0 * self.mask_half_width


# key -> (value type, kinds the key applies to, default)
_KEY_TABLE = {f.name: (f.metadata["vtype"], f.metadata["kinds"], f.default)
              for f in fields(ScenarioConfig)}
# key -> (least, most) of a value the file sets
_RANGES = {f.name: f.metadata["range"] for f in fields(ScenarioConfig)}


@dataclass(frozen=True)
class SpatialGrids:
    source: TransverseGrid
    object: TransverseGrid
    detector: TransverseGrid
    detector_field: Optional[TransverseGrid]
    bucket: tuple


def _check_size(count, what: str, key=None, cap=_MAX_POINTS, unit="points") -> None:
    """ConfigError, naming key, unless count, a size computed as a float
    before any int(), is at most cap; inf and NaN are over any cap."""
    if not count <= cap:
        raise ConfigError(f"{what} {count:.3g} {unit}, over the {cap} {unit} budget",
                          key=key)


def _points(span: float, dx: float, minimum: int = 16) -> int:
    count = np.ceil(span / dx) + 1 if dx else np.inf
    _check_size(count, "auto-sized grid needs")
    return max(minimum, int(count))


def spatial_grids(cfg: ScenarioConfig) -> SpatialGrids:
    """Source, object and detector grids for a spatial scenario whose
    detector sits at each distance in cfg.z2_values(); ConfigError where
    a grid cannot be built."""
    z2_values = cfg.z2_values()
    source = cfg.source()
    lam = cfg.wavelength
    z1 = cfg.z1
    a = source.profile.half_width
    lo, hi = source.profile.support()
    span_src = hi - lo
    extent = cfg.mask_extent()
    kernel_w = lam * z1 / (2.0 * a)
    z_lo, z_hi = min(z2_values), max(z2_values)
    defocus = 2.0 * a * max(abs(z / z1 - 1.0) for z in z2_values)

    obj_half = (0.5 * cfg.object_span if cfg.object_span
                else 2.0 * extent + 3.0 * kernel_w)
    aperture = cfg.detector_aperture or 0.0
    if cfg.detector_span:
        det_half = 0.5 * cfg.detector_span
    else:
        det_half = (2.0 * extent * max(1.0, z_hi / z1)
                    + 3.0 * kernel_w + aperture + defocus)

    span_obj = 2.0 * obj_half
    span_det = 2.0 * det_half
    span_field = span_det + aperture
    # Fresnel sampling bounds, with margin, for both propagation legs;
    # the source span enters both unions because the analytic kernel
    # integrates over the source plane directly.
    union1 = max(span_src, span_obj)
    union2 = max(span_src, span_obj, span_field)
    bound1 = 0.98 * lam * z1 / (2.0 * union1)
    bound2 = 0.98 * lam * z_lo / (2.0 * union2)

    feature = min(v for v in (cfg.mask_diameter_1, cfg.mask_diameter_2,
                              cfg.mask_slit_width, cfg.mask_half_width,
                              extent) if v)
    # pure-analytic runs integrate a smooth |K|^2 over the mask and get by
    # with half the node density the Monte Carlo speckle statistics need
    kernel_frac = 4.0 if cfg.method == "analytic" else 8.0
    dx_obj = min(bound1, bound2, kernel_w / kernel_frac, feature / 8.0)
    n_obj = cfg.object_points or _points(span_obj, dx_obj, minimum=64)
    object_grid = make_grid(-obj_half, obj_half, n_obj)

    # the source grid is the input of both legs
    n_src = _points(span_src, min(bound1, bound2), minimum=64)
    source_grid = make_grid(lo, hi, n_src)

    if cfg.detector_step:
        m = np.floor(det_half / cfg.detector_step + 1e-9)
        if m < 1:
            raise ConfigError("exceeds half the detector span", key="detector_step")
        _check_size(2 * m + 1, "detector grid needs", "detector_step")
        detector = make_grid(-m * cfg.detector_step, m * cfg.detector_step,
                             2 * m + 1)
    elif cfg.detector_points:
        detector = make_grid(-det_half, det_half, cfg.detector_points)
    else:
        dx_det = min(bound2, kernel_w / 6.0)
        detector = make_grid(-det_half, det_half, _points(span_det, dx_det))

    detector_field = None
    if aperture > 0:
        dx_f = min(bound2, kernel_w / 8.0, aperture / 8.0)
        f_half = det_half + 0.5 * aperture + 2.0 * dx_f
        detector_field = make_grid(-f_half, f_half,
                                   _points(2.0 * f_half, dx_f))

    if cfg.bucket_half_width:
        # nothing lights the object plane outside its grid
        bucket = (max(-cfg.bucket_half_width, object_grid.x_min),
                  min(cfg.bucket_half_width, object_grid.x_max))
    else:
        bucket = (object_grid.x_min, object_grid.x_max)
    return SpatialGrids(source_grid, object_grid, detector, detector_field, bucket)


@dataclass(frozen=True)
class RunPlan:
    """What a spatial run propagates: its grids, its source and its mask,
    the mask already dark outside the bucket window."""

    grids: SpatialGrids
    source: SourceSpec
    mask: TransmissionMask


def plan(cfg: ScenarioConfig) -> RunPlan:
    """Plan a spatial scenario's run. Raises ConfigError for any scenario
    the run would fail on, naming the key that set its cause, if one did."""
    try:
        with np.errstate(all="ignore"):  # an overflow is an inf, over every cap
            grids = spatial_grids(cfg)
    except InvalidArgumentError as exc:  # a span that underflowed to 0
        raise ConfigError(f"cannot build the grids: {exc}") from exc
    # before anything is allocated on the detector grid, uncapped only if explicit
    points = grids.detector.n_points
    if cfg.method != "analytic":
        _check_size(8.0 * cfg.n_realizations * points / 2**20,
                    f"float64 records of {cfg.n_realizations} realizations x {points} "
                    "detector points need", "n_realizations", _RECORD_BUDGET >> 20, "MiB")
    _check_size(points, "detector grid needs", "detector_points")

    # each grid now has at most 2**20 points; a tiny positive span can still
    # round its spacing to 0, or its points onto each other
    detector_key = ("detector_step" if cfg.detector_step
                    else "detector_span" if cfg.detector_span else None)
    for name, grid, key in (
            ("source", grids.source, "source_radius"),
            ("object", grids.object, "object_span" if cfg.object_span else None),
            ("detector", grids.detector, detector_key),
            ("detector field", grids.detector_field,
             "detector_span" if cfg.detector_span else None)):
        if grid is not None and not np.all(np.diff(grid.x) > 0):
            raise ConfigError(f"the {name} grid's {grid.n_points} points are not "
                              f"strictly increasing (spacing {grid.dx:.3g} m)", key=key)

    if cfg.method != "analytic":
        # fresnel_propagate's check on each leg: to the object, and to the
        # detector at every z2
        keys = [k for k in ("detector_step", "detector_points") if getattr(cfg, k)]
        key2 = None if grids.detector_field or not keys else keys[0]
        legs = [(cfg.z1, grids.object,
                 "object_points" if cfg.object_points else None)]
        legs += [(z2, grids.detector_field or grids.detector, key2)
                 for z2 in cfg.z2_values()]
        for z, out, key in legs:
            try:
                _check_sampling(z, cfg.wavelength, grids.source, out)
            except SamplingCriterionError as exc:
                raise ConfigError(f"Monte Carlo leg to z = {z:.6g} m: {exc}",
                                  key=key) from exc

    # The bucket integrates the mask over its window only; the Monte Carlo
    # sum reads nothing outside it, and the analytic route must not either.
    source = cfg.source()
    mask = cfg.build_mask(grids.object)
    i0, i1 = grids.object.index_range(*grids.bucket)
    mask.t[:i0] = 0.0
    mask.t[i1:] = 0.0
    if not np.any(mask.t):
        key = "bucket_half_width" if cfg.bucket_half_width else "mask"
        raise ConfigError("the mask transmits nothing inside the bucket window",
                          key=key)

    if cfg.method != "montecarlo":
        try:
            _check_kernel_resolved(grids.object, source, cfg.z1)
        except InvalidArgumentError as exc:
            key = "object_points" if cfg.object_points else None
            raise ConfigError(f"analytic route: {exc}", key=key) from exc
    return RunPlan(grids, source, mask)


def _parse_number(raw: str, units: Optional[dict], key: str) -> float:
    m = _NUMBER_RE.match(raw)
    if not m:
        raise ConfigError(f"expected a number, got {raw!r}", key=key)
    value, suffix = float(m.group(1)), m.group(2)
    if not suffix:
        return value
    if units is None or suffix not in units:
        allowed = ", ".join(sorted(units)) if units else "none"
        raise ConfigError(
            f"unit suffix {suffix!r} not valid here (allowed: {allowed})", key=key)
    return value * units[suffix]


def _parse_value(vtype: str, raw: str, key: str):
    if vtype == "str":
        return raw
    if vtype.startswith("enum:"):
        allowed = _ENUMS[vtype]
        if raw not in allowed:
            raise ConfigError(
                f"must be one of {', '.join(allowed)}; got {raw!r}", key=key)
        return raw
    if vtype == "int":
        if not re.fullmatch(r"[+-]?\d+", raw):
            raise ConfigError(f"expected an integer, got {raw!r}", key=key)
        return int(raw)
    if vtype == "length":
        return _parse_number(raw, _LENGTH_UNITS, key)
    if vtype == "time":
        return _parse_number(raw, _TIME_UNITS, key)
    return _parse_number(raw, None, key)  # bare float


def _require(values: dict, keys, context: str) -> None:
    for key in keys:
        if values.get(key) is None:
            raise ConfigError(f"missing required key for {context}", key=key)


def _out_of_range(key: str, value) -> Optional[str]:
    """Why value is outside key's range, or None if it is inside."""
    least, most = _RANGES[key]
    if isinstance(value, float) and not np.isfinite(value):
        return "must be a finite number"
    if isinstance(value, float) and least is None and value <= 0:
        return "must be positive"
    if least is not None and value < least:
        return f"must be at least {least}" if least else "must be non-negative"
    if most is not None and value > most:
        return f"must be at most {most}"
    return None


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document into a ScenarioConfig. A
    ConfigError that names a key the document sets carries that key's line."""
    values: dict = {}
    lines: dict = {}
    try:
        for lineno, raw_line in enumerate(text.splitlines(), start=1):
            line = raw_line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _KEY_TABLE:
                raise ConfigError("unknown key", line=lineno, key=key)
            if key in values:
                raise ConfigError("duplicate key", line=lineno, key=key)
            lines[key] = lineno
            if not raw:
                raise ConfigError("empty value", key=key)
            values[key] = _parse_value(_KEY_TABLE[key][0], raw, key)
        return _resolve(values)
    except ConfigError as exc:
        if exc.line is None and exc.key in lines:
            exc.line = lines[exc.key]
        raise


def _resolve(values: dict) -> ScenarioConfig:
    """Fill in the defaults of a scenario's values and check them."""
    if "kind" not in values:
        raise ConfigError("missing required key", key="kind")
    kind = values["kind"]
    for key, value in values.items():
        if kind not in _KEY_TABLE[key][1]:
            raise ConfigError(f"key does not apply to kind {kind!r}", key=key)
        problem = _out_of_range(key, value)
        if problem:
            raise ConfigError(problem, key=key)

    # kind, the one key without a default, is set by now
    for key, (_, _, default) in _KEY_TABLE.items():
        if default is not None:
            values.setdefault(key, default)

    if kind == "hbt":
        _resolve_hbt(values)
    else:
        _resolve_spatial(kind, values)

    cfg = ScenarioConfig(**values)
    if kind != "hbt":
        plan(cfg)
    return cfg


def _resolve_spatial(kind: str, values: dict) -> None:
    if kind == "z2_sweep" and values["method"] == "both":
        raise ConfigError(
            "kind z2_sweep runs one method per row; method must be "
            "montecarlo or analytic", key="method")
    if values["method"] != "analytic":
        values.setdefault("n_realizations", 4096)
    _require(values, ("source_radius", "z1", "mask"), f"kind {kind}")
    values.setdefault("source_profile", "uniform")
    values.setdefault("detector_aperture", 0.0)
    if "detector_step" in values and "detector_points" in values:
        raise ConfigError("cannot be set with detector_step", key="detector_points")

    if kind == "focused_image":
        _require(values, ("z2",), "kind focused_image")
    else:
        _require(values, ("z2_min", "z2_max", "z2_steps"),
                 "kind z2_sweep")
        if values["z2_min"] >= values["z2_max"]:
            raise ConfigError("sweep bounds must satisfy z2_min < z2_max", key="z2_min")

    mask = values["mask"]
    needed = _MASK_PARAM_KEYS[mask]
    _require(values, needed, f"mask {mask}")
    for key in _MASK_KEYS:
        if values.get(key) is not None and key not in needed:
            raise ConfigError(f"key does not apply to mask {mask!r}", key=key)
    if mask == "pinhole_pair":
        if values["mask_separation"] <= 0.5 * (values["mask_diameter_1"]
                                               + values["mask_diameter_2"]):
            raise ConfigError("pinholes overlap: separation must exceed the "
                              "mean diameter", key="mask_separation")
    if mask == "double_slit" and values["mask_separation"] <= values["mask_slit_width"]:
        raise ConfigError("slits overlap: center separation must exceed the "
                          "slit width", key="mask_separation")


def _resolve_hbt(values: dict) -> None:
    if values["method"] != "montecarlo":
        raise ConfigError("kind hbt has no analytic path; method must be montecarlo",
                          key="method")
    _require(values, ("coherence_time",), "kind hbt")
    tau0, given = values["coherence_time"], set(values)

    def derive(key: str, source: str, value: float) -> None:
        # checked as a set value is, before anything divides by it
        problem = key not in values and _out_of_range(key, value)
        if problem:
            raise ConfigError(f"gives default {key} = {value:.3g}, which {problem}",
                              key=source if source in given else "coherence_time")
        values.setdefault(key, value)

    derive("hbt_dt", "coherence_time", tau0 / 20.0)
    derive("hbt_batch_duration", "hbt_dt", 8_000_000 * values["hbt_dt"])
    derive("hbt_bin_width", "coherence_time", tau0 / 4.0)
    derive("hbt_window", "coherence_time", 18.0 * tau0)
    derive("start_rate", "hbt_dt", 0.09 / values["hbt_dt"])
    derive("stop_rate", "hbt_window", 0.009 / values["hbt_window"])
    values.setdefault("hbt_batches", 84)
    values.setdefault("jitter_sigma", 0.0)
    values.setdefault("dead_time", 0.0)
    # simulate_intensity_trace's own comparisons
    if _dt_too_coarse(tau0, values["hbt_dt"]):
        raise ConfigError("hbt_dt must not exceed coherence_time / 10", key="hbt_dt")
    if _too_short(tau0, values["hbt_batch_duration"]):
        raise ConfigError("hbt_batch_duration must cover at least 100 "
                          "coherence times", key="hbt_batch_duration")
    # start_stop_histogram's bins, and simulate_intensity_trace's samples below
    bins = np.floor(values["hbt_window"] / values["hbt_bin_width"] + 1e-9)
    # _baseline_region reads bins past ten coherence times, estimated at >= 1 bin
    if bins < 11:
        raise ConfigError(f"hbt_window / hbt_bin_width gives {bins:.0f} bins; the "
                          "baseline past ten coherence times needs 11", key="hbt_window")
    _check_size(bins, "hbt_window / hbt_bin_width gives", "hbt_bin_width",
                unit="histogram bins")
    _check_size(8 * np.round(values["hbt_batch_duration"] / values["hbt_dt"]) / 2**20,
                "one batch's float64 trace (hbt_batch_duration / hbt_dt) needs",
                "hbt_batch_duration", _RECORD_BUDGET >> 20, "MiB")
    for key in ("start_rate", "stop_rate"):
        if _thinning_too_coarse(values[key], values["hbt_dt"]):
            raise ConfigError("rate * hbt_dt must stay below 0.1 for Bernoulli thinning",
                              key=key)


def dump_scenario(cfg: ScenarioConfig) -> str:
    """Canonical dump: every resolved key, base SI units, fixed order; a
    float prints as repr, which str equals, so it reads back to its bits."""
    values = ((f.name, getattr(cfg, f.name)) for f in fields(ScenarioConfig))
    return "".join(f"{k} = {v}\n" for k, v in values if v is not None)
