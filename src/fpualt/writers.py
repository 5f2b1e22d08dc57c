"""Plain-text outputs: CSV series, minimal SVG line plots, run manifests.

CSV files use 17 significant digits and a '.' decimal separator so that
doubles round-trip exactly and re-runs are byte-identical.  SVG plots
are static polyline renderings with axes and labels, nothing more.
"""

import json
import math

import numpy as np

_ROW_CHUNK = 1024        # CSV rows per formatted write


def write_csv(path, header, columns):
    """Write columns (equal-length 1-d arrays) under a mandatory header.

    Columns of unequal length raise ValueError before ``path`` is
    opened.  Rows are formatted a chunk at a time, with one ``%`` on a
    repeated row template.
    """
    table = np.stack(columns, axis=1)
    row_fmt = ",".join(["%.16e"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(table), _ROW_CHUNK):
            chunk = table[start:start + _ROW_CHUNK]
            fh.write(row_fmt * len(chunk) % tuple(chunk.ravel().tolist()))


def trajectory_csv(path, trajectory, coord):
    """Trajectory samples as t, x1, v1, x2, v2, ... (or q/v)."""
    d = trajectory.dof
    header = ["t"]
    cols = [trajectory.times]
    pos = trajectory.positions()
    vel = trajectory.velocities()
    for j in range(d):
        header += [f"{coord}{j + 1}", f"v{j + 1}"]
        cols += [pos[:, j], vel[:, j]]
    write_csv(path, header, cols)


def actions_csv(path, series):
    d = series.actions.shape[1]
    header = ["t"] + [f"E{j + 1}" for j in range(d)]
    write_csv(path, header, [series.times] + [series.actions[:, j] for j in range(d)])


def energy_csv(path, times, energies):
    write_csv(path, ["t", "energy"], [times, energies])


def write_manifest(path, manifest: dict):
    with open(path, "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True, default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj)!r}")


# --- SVG ---------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")
_W, _H = 880, 520
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_MAX_POINTS = 2500   # plot thinning stride; CSV keeps every sample


def _ticks(lo, hi):
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min((s for s in (1, 2, 2.5, 5, 10) if s * mag >= raw),
               default=10) * mag
    start = np.ceil(lo / step) * step
    return np.arange(start, hi + 0.5 * step, step)


def _y_range(ylo, yhi):
    """The y axis of data in [ylo, yhi]: that range padded by 5 % each way.

    Where the padded span is not a positive finite number with a nonzero
    fifth, which ``_ticks`` needs (one value, a span that underflows or
    one that overflows), the range is first widened by 1 each way; where
    that does not help either (values whose spacing exceeds 1, or a span
    that still overflows), it is +-1.1 max|y|, with max|y| capped at
    1e307 so that the span stays finite.
    """
    for lo, hi in ((ylo, yhi), (ylo - 1.0, yhi + 1.0)):
        pad = 0.05 * (hi - lo)
        lo, hi = lo - pad, hi + pad
        if 0.0 < (hi - lo) / 5 < math.inf:
            return lo, hi
    half = 1.1 * min(max(-ylo, yhi), 1e307)
    return -half, half


def _fmt_num(x):
    return f"{x:.6g}"


def write_svg_lines(path, x, series, labels, title, xlabel, ylabel):
    """Minimal multi-series line plot; one polyline per series.

    All four labels are required: one label per series, the title and
    both axis labels.
    """
    x = np.asarray(x, dtype=float)
    series = [np.asarray(s, dtype=float) for s in series]
    stride = max(1, int(np.ceil(x.size / _MAX_POINTS)))
    keep = np.r_[np.arange(0, x.size - 1, stride), x.size - 1]
    xs = x[keep]
    ys = [s[keep] for s in series]

    xlo, xhi = float(xs.min()), float(xs.max())
    if xhi == xlo:                  # one sample
        xlo, xhi = xlo - 1.0, xhi + 1.0
    ylo, yhi = _y_range(min(float(s.min()) for s in ys),
                        max(float(s.max()) for s in ys))
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(v):
        return _ML + (v - xlo) / (xhi - xlo) * pw

    def py(v):
        return _MT + (yhi - v) / (yhi - ylo) * ph

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
           f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
           f'<rect width="{_W}" height="{_H}" fill="white"/>']
    out.append(f'<text x="{_W / 2:.0f}" y="22" text-anchor="middle" '
               f'font-size="15">{title}</text>')
    # axes
    out.append(f'<line x1="{_ML}" y1="{_MT + ph}" x2="{_ML + pw}" y2="{_MT + ph}" '
               'stroke="black"/>')
    out.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + ph}" '
               'stroke="black"/>')
    for tx in _ticks(xlo, xhi):
        out.append(f'<line x1="{px(tx):.2f}" y1="{_MT + ph}" x2="{px(tx):.2f}" '
                   f'y2="{_MT + ph + 5}" stroke="black"/>')
        out.append(f'<text x="{px(tx):.2f}" y="{_MT + ph + 18}" '
                   f'text-anchor="middle">{_fmt_num(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        out.append(f'<line x1="{_ML - 5}" y1="{py(ty):.2f}" x2="{_ML}" '
                   f'y2="{py(ty):.2f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{py(ty) + 4:.2f}" '
                   f'text-anchor="end">{_fmt_num(ty)}</text>')
    out.append(f'<text x="{_ML + pw / 2:.0f}" y="{_H - 12}" '
               f'text-anchor="middle">{xlabel}</text>')
    out.append(f'<text x="16" y="{_MT + ph / 2:.0f}" text-anchor="middle" '
               f'transform="rotate(-90 16 {_MT + ph / 2:.0f})">{ylabel}</text>')
    for idx, (ser, lab) in enumerate(zip(ys, labels)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = np.stack((px(xs), py(ser)), axis=1).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * xs.size) % tuple(pts)
        out.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                   'stroke-width="1"/>')
        out.append(f'<text x="{_ML + pw - 6}" y="{_MT + 14 + 15 * idx}" '
                   f'text-anchor="end" fill="{color}">{lab}</text>')
    out.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(out) + "\n")
