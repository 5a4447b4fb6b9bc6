"""Scenario files: a flat key = value format with SI-suffixed numbers.

Grammar, one statement per line:

    key = value        # '#' starts a comment, blank lines are ignored

Keys are the fields of ScenarioConfig (value type, kinds, default) and are
strictly checked: unknown keys, keys that do not apply to the declared
kind, and malformed or mis-suffixed values all raise ConfigError naming
the offending line and key. Lengths accept m, cm, mm, um (or µm), nm, pm;
times accept s, ms, us (or µs), ns, ps, fs; bare numbers are base SI.
Counts and rates are plain numbers.

Auto-sized grids (spatial_grids) follow two rules: windows cover 4x the
mask extent plus the coherence-kernel width (and, for sweeps, the
geometric defocus spread of the source), and every grid spacing satisfies
the Fresnel sampling criterion with a few percent of margin. Explicit
spans/steps/points from the scenario override the defaults. A Monte Carlo
run holds an n_realizations x detector-points matrix of float64
intensities (one per sweep row in flight); a scenario whose matrix would
exceed 1 GiB is rejected.

parse_scenario returns a fully resolved ScenarioConfig (defaults filled);
dump_scenario emits the canonical form, and parse(dump(cfg)) == cfg.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import (ConfigError, GhostSimError, InvalidArgumentError,
                     SamplingCriterionError)
from .grid import TransverseGrid, make_grid
from .optics import (
    GaussianProfile,
    OpticalGeometry,
    SourceSpec,
    TransmissionMask,
    UniformProfile,
    _check_sampling,
)

__all__ = ["ScenarioConfig", "parse_scenario", "dump_scenario", "KINDS", "METHODS"]

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

_MAX_POINTS = 1 << 20
# bytes of one Monte Carlo record matrix (n_realizations x detector points)
_RECORD_BUDGET = 1 << 30

_MASK_PARAM_KEYS = {
    "pinhole_pair": ("mask_separation", "mask_diameter_1", "mask_diameter_2"),
    "double_slit": ("mask_separation", "mask_slit_width"),
    "uniform": ("mask_half_width",),
    "opaque": ("mask_half_width",),
}
# each mask parameter key once, in the order _MASK_PARAM_KEYS names them
_MASK_KEYS = tuple(dict.fromkeys(sum(_MASK_PARAM_KEYS.values(), ())))

_ENUMS = {
    "enum:kind": KINDS,
    "enum:method": METHODS,
    "enum:profile": ("uniform", "gaussian"),
    "enum:mask": tuple(_MASK_PARAM_KEYS),
}


def _key(vtype: str, kinds, default=None):
    """One scenario key; a None default is left to the kind's resolver."""
    return field(default=default, metadata={"vtype": vtype, "kinds": kinds})


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario, and the scenario schema: one field per key,
    in dump order. None marks fields the kind does not use."""

    kind: str = _key("enum:kind", KINDS, MISSING)
    method: str = _key("enum:method", KINDS, "montecarlo")
    seed: int = _key("int", KINDS, 12345)
    output: str = _key("str", KINDS, "ghostsim-out")
    wavelength: float = _key("length", KINDS, 6.93e-7)
    source_profile: Optional[str] = _key("enum:profile", _SPATIAL)
    source_radius: Optional[float] = _key("length", _SPATIAL)
    coherence_time: Optional[float] = _key("time", KINDS)
    z1: Optional[float] = _key("length", _SPATIAL)
    z2: Optional[float] = _key("length", ("focused_image",))
    z2_min: Optional[float] = _key("length", ("z2_sweep",))
    z2_max: Optional[float] = _key("length", ("z2_sweep",))
    z2_steps: Optional[int] = _key("int", ("z2_sweep",))
    mask: Optional[str] = _key("enum:mask", _SPATIAL)
    mask_separation: Optional[float] = _key("length", _SPATIAL)
    mask_diameter_1: Optional[float] = _key("length", _SPATIAL)
    mask_diameter_2: Optional[float] = _key("length", _SPATIAL)
    mask_slit_width: Optional[float] = _key("length", _SPATIAL)
    mask_half_width: Optional[float] = _key("length", _SPATIAL)
    n_realizations: Optional[int] = _key("int", _SPATIAL)
    detector_aperture: Optional[float] = _key("length", _SPATIAL)
    detector_step: Optional[float] = _key("length", _SPATIAL)
    detector_span: Optional[float] = _key("length", _SPATIAL)
    detector_points: Optional[int] = _key("int", _SPATIAL)
    object_span: Optional[float] = _key("length", _SPATIAL)
    object_points: Optional[int] = _key("int", _SPATIAL)
    bucket_half_width: Optional[float] = _key("length", _SPATIAL)
    start_rate: Optional[float] = _key("float", ("hbt",))
    stop_rate: Optional[float] = _key("float", ("hbt",))
    hbt_dt: Optional[float] = _key("time", ("hbt",))
    hbt_batch_duration: Optional[float] = _key("time", ("hbt",))
    hbt_batches: Optional[int] = _key("int", ("hbt",))
    hbt_bin_width: Optional[float] = _key("time", ("hbt",))
    hbt_window: Optional[float] = _key("time", ("hbt",))
    jitter_sigma: Optional[float] = _key("time", ("hbt",))
    dead_time: Optional[float] = _key("time", ("hbt",))

    def source(self) -> SourceSpec:
        if self.source_profile == "gaussian":
            profile = GaussianProfile(self.source_radius)
        else:
            profile = UniformProfile(self.source_radius)
        return SourceSpec(self.wavelength, profile,
                          coherence_time=self.coherence_time or 0.0)

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
        if self.mask == "uniform":
            return TransmissionMask.uniform(grid)
        return TransmissionMask.opaque(grid)

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


@dataclass(frozen=True)
class SpatialGrids:
    source: TransverseGrid
    object: TransverseGrid
    detector: TransverseGrid
    detector_field: Optional[TransverseGrid]
    bucket: tuple


def _points(span: float, dx: float, minimum: int = 16) -> int:
    n = max(minimum, int(np.ceil(span / dx)) + 1)
    if n > _MAX_POINTS:
        raise InvalidArgumentError(
            f"auto-sized grid needs {n} points (> {_MAX_POINTS}); "
            "the geometry is too demanding for this configuration"
        )
    return n


def spatial_grids(cfg: ScenarioConfig) -> SpatialGrids:
    """Source, object and detector grids for a spatial scenario whose
    detector sits at each distance in cfg.z2_values()."""
    z2_values = cfg.z2_values()
    source = cfg.source()
    lam = cfg.wavelength
    z1 = cfg.z1
    a = source.effective_half_width()
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
        m = int(np.floor(det_half / cfg.detector_step + 1e-9))
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
        bucket = (-cfg.bucket_half_width, cfg.bucket_half_width)
    else:
        bucket = (object_grid.x_min, object_grid.x_max)
    return SpatialGrids(source_grid, object_grid, detector, detector_field, bucket)


def _parse_number(raw: str, units: Optional[dict], key: str, line: int) -> float:
    m = _NUMBER_RE.match(raw)
    if not m:
        raise ConfigError(f"expected a number, got {raw!r}", line=line, key=key)
    value, suffix = float(m.group(1)), m.group(2)
    if not suffix:
        return value
    if units is None or suffix not in units:
        allowed = ", ".join(sorted(units)) if units else "none"
        raise ConfigError(
            f"unit suffix {suffix!r} not valid here (allowed: {allowed})",
            line=line, key=key)
    return value * units[suffix]


def _parse_value(vtype: str, raw: str, key: str, line: int):
    if vtype == "str":
        return raw
    if vtype.startswith("enum:"):
        allowed = _ENUMS[vtype]
        if raw not in allowed:
            raise ConfigError(
                f"must be one of {', '.join(allowed)}; got {raw!r}",
                line=line, key=key)
        return raw
    if vtype == "int":
        if not re.fullmatch(r"[+-]?\d+", raw):
            raise ConfigError(f"expected an integer, got {raw!r}",
                              line=line, key=key)
        return int(raw)
    if vtype == "length":
        return _parse_number(raw, _LENGTH_UNITS, key, line)
    if vtype == "time":
        return _parse_number(raw, _TIME_UNITS, key, line)
    return _parse_number(raw, None, key, line)  # bare float


def _require(values: dict, keys, context: str) -> None:
    for key in keys:
        if values.get(key) is None:
            raise ConfigError(f"missing required key for {context}", key=key)


def _positive(values: dict, lines: dict, keys) -> None:
    for key in keys:
        v = values.get(key)
        if v is not None and v <= 0:
            raise ConfigError("must be positive", key=key,
                              line=lines.get(key))


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document into a ScenarioConfig."""
    values: dict = {}
    lines: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}",
                              line=lineno)
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _KEY_TABLE:
            raise ConfigError("unknown key", line=lineno, key=key)
        if key in values:
            raise ConfigError("duplicate key", line=lineno, key=key)
        if not raw:
            raise ConfigError("empty value", line=lineno, key=key)
        values[key] = _parse_value(_KEY_TABLE[key][0], raw, key, lineno)
        lines[key] = lineno

    if "kind" not in values:
        raise ConfigError("missing required key", key="kind")
    kind = values["kind"]
    for key in values:
        if kind not in _KEY_TABLE[key][1]:
            raise ConfigError(f"key does not apply to kind {kind!r}",
                              line=lines[key], key=key)

    # kind, the one key without a default, is set by now
    for key, (_, _, default) in _KEY_TABLE.items():
        if default is not None:
            values.setdefault(key, default)
    _positive(values, lines, ("wavelength",))
    if not 0 <= values["seed"] < 2**64:
        raise ConfigError("must be an unsigned 64-bit integer (0 <= seed < 2^64)",
                          key="seed", line=lines.get("seed"))

    if kind == "hbt":
        _resolve_hbt(values, lines)
    else:
        _resolve_spatial(kind, values, lines)

    cfg = ScenarioConfig(**values)
    if kind != "hbt" and cfg.method != "analytic":
        _check_record_budget(cfg, lines)
    return cfg


def _check_record_budget(cfg: ScenarioConfig, lines: dict) -> None:
    try:
        points = spatial_grids(cfg).detector.n_points
    except GhostSimError:
        return  # the run reports the unplannable geometry before allocating
    size = 8 * cfg.n_realizations * points
    if size > _RECORD_BUDGET:
        raise ConfigError(
            f"{cfg.n_realizations} realizations x {points} detector points "
            f"need {size / 2**20:.0f} MiB of float64 records, over the "
            f"{_RECORD_BUDGET >> 20} MiB budget",
            key="n_realizations", line=lines.get("n_realizations"))


def check_montecarlo_sampling(cfg: ScenarioConfig) -> None:
    """Raise ConfigError where fresnel_propagate would refuse a Monte Carlo
    leg of the planned run (to the object, to the detector at every z2),
    naming the scenario key that set the grid, if one did."""
    if cfg.kind == "hbt" or cfg.method == "analytic":
        return
    try:
        g = spatial_grids(cfg)
    except GhostSimError:
        return  # the run reports the unplannable geometry itself
    keys = [k for k in ("detector_step", "detector_points") if getattr(cfg, k)]
    key2 = None if g.detector_field or not keys else keys[0]
    legs = [(cfg.z1, g.object, "object_points" if cfg.object_points else None)]
    legs += [(z2, g.detector_field or g.detector, key2) for z2 in cfg.z2_values()]
    for z, out, key in legs:
        try:
            _check_sampling(z, cfg.wavelength, g.source, out)
        except SamplingCriterionError as exc:
            raise ConfigError(f"Monte Carlo leg to z = {z:.6g} m: {exc}",
                              key=key) from exc


def _resolve_spatial(kind: str, values: dict, lines: dict) -> None:
    if values["method"] != "analytic":
        values.setdefault("n_realizations", 4096)
        if values["n_realizations"] < 2:
            raise ConfigError("need at least 2 realizations",
                              key="n_realizations",
                              line=lines.get("n_realizations"))
    _require(values, ("source_radius", "z1", "mask"), f"kind {kind}")
    values.setdefault("source_profile", "uniform")
    values.setdefault("coherence_time", 0.0)
    values.setdefault("detector_aperture", 0.0)
    _positive(values, lines, ("source_radius", "z1", "z2", "z2_min", "z2_max",
                              *_MASK_KEYS, "detector_step", "detector_span",
                              "object_span", "bucket_half_width"))
    for key in ("detector_aperture", "coherence_time"):
        if values[key] < 0:
            raise ConfigError("must be non-negative", key=key, line=lines.get(key))

    if kind == "focused_image":
        _require(values, ("z2",), "kind focused_image")
    else:
        _require(values, ("z2_min", "z2_max", "z2_steps"),
                 "kind z2_sweep")
        if values["z2_min"] >= values["z2_max"]:
            raise ConfigError("sweep bounds must satisfy z2_min < z2_max",
                              key="z2_min", line=lines.get("z2_min"))
        if values["z2_steps"] < 2:
            raise ConfigError("need at least 2 sweep steps", key="z2_steps",
                              line=lines.get("z2_steps"))

    mask = values["mask"]
    needed = _MASK_PARAM_KEYS[mask]
    _require(values, needed, f"mask {mask}")
    for key in _MASK_KEYS:
        if values.get(key) is not None and key not in needed:
            raise ConfigError(f"key does not apply to mask {mask!r}",
                              key=key, line=lines.get(key))
    if mask == "pinhole_pair":
        if values["mask_separation"] <= 0.5 * (values["mask_diameter_1"]
                                               + values["mask_diameter_2"]):
            raise ConfigError("pinholes overlap: separation must exceed the "
                              "mean diameter", key="mask_separation",
                              line=lines.get("mask_separation"))
    if mask == "double_slit" and values["mask_separation"] <= values["mask_slit_width"]:
        raise ConfigError("slits overlap: center separation must exceed the "
                          "slit width", key="mask_separation",
                          line=lines.get("mask_separation"))

    for key in ("detector_points", "object_points"):
        if values.get(key) is not None and values[key] < 2:
            raise ConfigError("need at least 2 points", key=key,
                              line=lines.get(key))


def _resolve_hbt(values: dict, lines: dict) -> None:
    if values["method"] != "montecarlo":
        raise ConfigError(
            "kind hbt has no analytic path; method must be montecarlo",
            key="method", line=lines.get("method"))
    _require(values, ("coherence_time",), "kind hbt")
    tau0 = values["coherence_time"]
    _positive(values, lines, ("coherence_time",))
    values.setdefault("hbt_dt", tau0 / 20.0)
    values.setdefault("hbt_batch_duration", 8_000_000 * values["hbt_dt"])
    values.setdefault("hbt_batches", 84)
    values.setdefault("hbt_bin_width", tau0 / 4.0)
    values.setdefault("hbt_window", 18.0 * tau0)
    values.setdefault("jitter_sigma", 0.0)
    values.setdefault("dead_time", 0.0)
    values.setdefault("start_rate", 0.09 / values["hbt_dt"])
    values.setdefault("stop_rate", 0.009 / values["hbt_window"])
    _positive(values, lines, ("hbt_dt", "hbt_batch_duration", "hbt_batches",
                              "hbt_bin_width", "hbt_window", "start_rate",
                              "stop_rate"))
    for key in ("jitter_sigma", "dead_time"):
        if values[key] < 0:
            raise ConfigError("must be non-negative", key=key,
                              line=lines.get(key))
    if values["hbt_dt"] > tau0 / 10.0:
        raise ConfigError("hbt_dt must not exceed coherence_time / 10",
                          key="hbt_dt", line=lines.get("hbt_dt"))
    if values["hbt_batch_duration"] < 100.0 * tau0:
        raise ConfigError("hbt_batch_duration must cover at least 100 "
                          "coherence times", key="hbt_batch_duration",
                          line=lines.get("hbt_batch_duration"))
    if values["hbt_window"] < values["hbt_bin_width"]:
        raise ConfigError("hbt_window must be at least one bin wide",
                          key="hbt_window", line=lines.get("hbt_window"))
    for key in ("start_rate", "stop_rate"):
        if values[key] * values["hbt_dt"] >= 0.1:
            raise ConfigError(
                "rate * hbt_dt must stay below 0.1 for Bernoulli thinning",
                key=key, line=lines.get(key))


def _format_value(v) -> str:
    if isinstance(v, bool):
        raise TypeError("no boolean scenario keys")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def dump_scenario(cfg: ScenarioConfig) -> str:
    """Canonical dump: every resolved key, base SI units, fixed order."""
    out = []
    for f in fields(ScenarioConfig):
        v = getattr(cfg, f.name)
        if v is None:
            continue
        out.append(f"{f.name} = {_format_value(v)}")
    return "\n".join(out) + "\n"
