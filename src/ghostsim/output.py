"""File outputs: CSV, metrics.json, and a self-rendered SVG plot.

Everything written here is byte-stable for fixed inputs: floats go out
as 17-significant-digit decimals (exact round-trip), JSON keys are
sorted, line endings are LF, and no timestamps or runtimes appear in any
file. Each file is written as a stream of text chunks, a CSV one row
block at a time, so writing holds at most one block's text in memory.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .coincidence import CoincidenceHistogram, estimate_g2
from .ensemble import CorrelationProfile
from .runner import MetricsReport, primary_profile

__all__ = ["export_results", "read_profile_csv"]


def _fmt_all(values) -> list:
    """Each value as a 17-significant-digit decimal, formatted from Python
    floats rather than numpy scalars."""
    return [format(x, ".17g") for x in np.asarray(values, dtype=float).tolist()]


def _csv(header: str, blocks):
    """The header line, then the lines of each block of formatted columns,
    one chunk per block."""
    yield header + "\n"
    for columns in blocks:
        yield "".join([",".join(row) + "\n" for row in zip(*columns)])


def _profile_csv(p: CorrelationProfile):
    return _csv("x2_m,delta_g2,std_err", [map(_fmt_all, (p.x2, p.delta_g2, p.std_err))])


def _sweep_blocks(rows):
    """Each row's (z2, x2, delta_g2) columns; the x2 grid that the rows
    share is formatted once per distinct grid."""
    grids = {}
    for p, z2 in zip(rows, _fmt_all([p.metadata["z2"] for p in rows])):
        key = np.asarray(p.x2, dtype=float).tobytes()
        if key not in grids:
            grids[key] = _fmt_all(p.x2)
        yield repeat(z2), grids[key], _fmt_all(p.delta_g2)


def read_profile_csv(path) -> dict:
    """Parse a profile.csv back into arrays (used by tests and scripts)."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    header = lines[0].split(",")
    cols = {name: [] for name in header}
    for ln in lines[1:]:
        for name, value in zip(header, ln.split(",")):
            cols[name].append(float(value))
    return {name: np.array(vals) for name, vals in cols.items()}


def _svg_plot(x: np.ndarray, y: np.ndarray, xlabel: str, ylabel: str) -> str:
    width, height = 800, 500
    ml, mr, mt, mb = 70, 20, 20, 50
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x_lo, x_hi = float(x.min()), float(x.max())
    y_lo, y_hi = float(y.min()), float(y.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    iw, ih = width - ml - mr, height - mt - mb

    def sx(v):
        return ml + (v - x_lo) / (x_hi - x_lo) * iw

    def sy(v):
        return mt + (y_hi - v) / (y_hi - y_lo) * ih

    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{iw}" height="{ih}" fill="none" '
        'stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        frac = i / 4
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp, yp = sx(xv), sy(yv)
        parts.append(f'<line x1="{xp:.2f}" y1="{mt + ih}" x2="{xp:.2f}" '
                     f'y2="{mt + ih + 5}" stroke="black"/>')
        parts.append(f'<text x="{xp:.2f}" y="{mt + ih + 20}" '
                     f'font-size="12" text-anchor="middle" '
                     f'font-family="monospace">{xv:.4g}</text>')
        parts.append(f'<line x1="{ml - 5}" y1="{yp:.2f}" x2="{ml}" '
                     f'y2="{yp:.2f}" stroke="black"/>')
        parts.append(f'<text x="{ml - 8}" y="{yp + 4:.2f}" font-size="12" '
                     f'text-anchor="end" '
                     f'font-family="monospace">{yv:.4g}</text>')
    parts.append(f'<polyline points="{pts}" fill="none" stroke="#1f5fa8" '
                 'stroke-width="1.5"/>')
    parts.append(f'<text x="{ml + iw / 2}" y="{height - 12}" font-size="14" '
                 f'text-anchor="middle" font-family="monospace">{xlabel}</text>')
    parts.append(f'<text x="18" y="{mt + ih / 2}" font-size="14" '
                 f'text-anchor="middle" font-family="monospace" '
                 f'transform="rotate(-90 18 {mt + ih / 2})">{ylabel}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def export_results(profiles, report: MetricsReport, out_dir) -> list:
    """Write the result file set into out_dir; returns the paths written.

    profile.csv holds the run's primary correlation profile (the focus row
    for sweeps, the Monte Carlo profile for method=both); sweeps add
    sweep.csv in long format; 'both' runs add profile_analytic.csv and
    profile_diff.csv; HBT runs write histogram.csv. metrics.json is always
    written; an empty profile list produces metrics.json alone.

    Every value is computed before its file is opened; only its formatting
    is streamed, one row block per write, so a sweep's export holds one
    row's text however many rows it has.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, chunks) -> None:
        path = out / name
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)
        written.append(path)

    metrics = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    emit("metrics.json", (metrics + "\n",))

    if not profiles:
        return written

    correlation = [p for p in profiles if isinstance(p, CorrelationProfile)]
    histograms = [p for p in profiles if isinstance(p, CoincidenceHistogram)]

    if correlation:
        main = primary_profile(correlation)
        emit("profile.csv", _profile_csv(main))
        sweep_rows = [p for p in correlation
                      if p.metadata.get("role") == "sweep"]
        if sweep_rows:
            emit("sweep.csv", _csv("z2_m,x2_m,delta_g2", _sweep_blocks(sweep_rows)))
        for p in correlation:
            role = p.metadata.get("role")
            if role == "analytic" and p is not main:
                emit("profile_analytic.csv", _profile_csv(p))
            elif role == "difference":
                emit("profile_diff.csv", _profile_csv(p))
        emit("profile.svg",
             (_svg_plot(main.x2, main.delta_g2, "x2 [m]", "delta g2"),))

    for hist in histograms:
        g2 = estimate_g2(hist).g2_curve
        emit("histogram.csv", _csv("delay_s,counts,g2", [(
            _fmt_all(hist.bin_centers), map(str, hist.counts.tolist()), _fmt_all(g2))]))
        emit("profile.svg",
             (_svg_plot(hist.bin_centers, g2, "delay [s]", "g2"),))

    return written
