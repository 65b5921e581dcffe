"""Deterministic SVG and text rendering for explanations.

Documents are assembled from f-strings with fixed 2-decimal pixel
coordinates, so the same inputs always produce the same bytes.
"""

from __future__ import annotations

import numpy as np

from .core import ConfigError
from .engine import CpCurve, Explanation

WIDTH = 800
ROW_H = 40
TOP = 50
BOTTOM = 30
LABEL_W = 200
PAD_RIGHT = 20
BAR_AREA = WIDTH - LABEL_W - PAD_RIGHT
FONT = "font-family=\"sans-serif\" font-size=\"12\""
BLUE = "#4682b4"
RED = "#c44e52"
GRAY = "#888888"


def _esc(text) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _px(v: float) -> str:
    return f"{v:.2f}"


def _open(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_esc(title)}</text>',
    ]


def _fmt_value(v) -> str:
    return f"{v:.3g}" if isinstance(v, float) else str(v)


def render_ciu_barplot(explanation: Explanation) -> str:
    """Importance/utility bars, most important feature first.

    The translucent bar spans the feature's importance; the solid overlay
    covers the utility share of it, so full utility fills the bar and zero
    utility leaves only the translucent part. Draw lengths clamp to the
    panel; reported values never do.
    """
    order = explanation.sorted_indices_by_ci()
    rows = len(order)
    height = ROW_H * rows + TOP + BOTTOM
    title = (
        f"Feature influence on {_fmt_value(explanation.output_name)}"
        f" = {explanation.y:.3f}"
    )
    parts = _open(WIDTH, height, title)
    parts.append(
        f'<text x="{LABEL_W}" y="{height - 8}" {FONT} fill="{GRAY}">'
        "bar = importance, filled = utility position</text>"
    )
    for r, i in enumerate(order):
        ci, cu, flags = explanation.ci[i], explanation.cu[i], explanation.flags(i)
        y = TOP + r * ROW_H
        bar_y = y + 8
        bar_h = ROW_H - 16
        ci_w = min(max(ci, 0.0), 1.0) * BAR_AREA
        cu_w = ci_w * min(max(cu, 0.0), 1.0)
        label = f"{explanation.feature_names[i]} = {_fmt_value(explanation.feature_values[i])}"
        parts.append(
            f'<text x="{LABEL_W - 8}" y="{bar_y + bar_h - 6}" text-anchor="end" '
            f"{FONT}>{_esc(label)}</text>"
        )
        parts.append(
            f'<rect x="{LABEL_W}" y="{bar_y}" width="{_px(ci_w)}" height="{bar_h}" '
            f'fill="{BLUE}" fill-opacity="0.4"/>'
        )
        parts.append(
            f'<rect x="{LABEL_W}" y="{bar_y}" width="{_px(cu_w)}" height="{bar_h}" '
            f'fill="{BLUE}"/>'
        )
        note = f"ci={ci:.3f} cu={cu:.3f}"
        if flags:
            note += " [" + ",".join(flags) + "]"
        parts.append(
            f'<text x="{_px(LABEL_W + ci_w + 6)}" y="{bar_y + bar_h - 6}" '
            f"{FONT} fill=\"{GRAY}\">{_esc(note)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_influence_barplot(
    feature_names, phi, feature_values, title: str, limit: float | None = None
) -> str:
    """Diverging bars around a zero axis: negative left in red, positive
    right in blue, largest magnitude first. The axis stays visible even
    when every value is zero."""
    phi = [float(v) for v in phi]
    if len(phi) != len(feature_names):
        raise ConfigError("phi and feature_names must have equal length")
    order = sorted(range(len(phi)), key=lambda i: (-abs(phi[i]), i))
    rows = len(order)
    height = ROW_H * rows + TOP + BOTTOM
    if limit is None:
        limit = max(0.5, max((abs(v) for v in phi), default=0.0))
    axis_x = LABEL_W + BAR_AREA / 2.0
    half = BAR_AREA / 2.0
    parts = _open(WIDTH, height, title)
    parts.append(
        f'<line x1="{_px(axis_x)}" y1="{TOP - 6}" x2="{_px(axis_x)}" '
        f'y2="{height - BOTTOM + 6}" stroke="{GRAY}" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_px(axis_x)}" y="{height - 8}" text-anchor="middle" '
        f"{FONT} fill=\"{GRAY}\">0</text>"
    )
    parts.append(
        f'<text x="{_px(LABEL_W)}" y="{height - 8}" text-anchor="middle" '
        f"{FONT} fill=\"{GRAY}\">-{limit:.2f}</text>"
    )
    parts.append(
        f'<text x="{_px(LABEL_W + BAR_AREA)}" y="{height - 8}" text-anchor="middle" '
        f"{FONT} fill=\"{GRAY}\">{limit:.2f}</text>"
    )
    for r, i in enumerate(order):
        v = phi[i]
        y = TOP + r * ROW_H
        bar_y = y + 8
        bar_h = ROW_H - 16
        w = min(abs(v) / limit, 1.0) * half if limit > 0 else 0.0
        x0 = axis_x - w if v < 0 else axis_x
        color = RED if v < 0 else BLUE
        label = f"{feature_names[i]} = {_fmt_value(feature_values[i])}"
        parts.append(
            f'<text x="{LABEL_W - 8}" y="{bar_y + bar_h - 6}" text-anchor="end" '
            f"{FONT}>{_esc(label)}</text>"
        )
        parts.append(
            f'<rect x="{_px(x0)}" y="{bar_y}" width="{_px(w)}" height="{bar_h}" '
            f'fill="{color}"/>'
        )
        tx = axis_x - w - 6 if v < 0 else axis_x + w + 6
        anchor = "end" if v < 0 else "start"
        parts.append(
            f'<text x="{_px(tx)}" y="{bar_y + bar_h - 6}" text-anchor="{anchor}" '
            f"{FONT} fill=\"{GRAY}\">{v:+.3f}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


CP_HEIGHT = 500
_CP_LEFT = 70
_CP_RIGHT = 130
_CP_TOP = 50
_CP_BOTTOM = 50


def render_cp_plot(curve: CpCurve, joint_range: tuple[float, float]) -> str:
    """Feature sweep curve with reference guides.

    Horizontal guides mark the curve's own reachable interval (ymin, ymax),
    the neutral-utility level y_u0 and the full output range (MIN, MAX),
    which must be non-empty. A dot marks the instance's actual position.
    """
    title = f"What-if sweep of {curve.feature_name}"
    xs = np.asarray(curve.xs)
    ys = np.asarray(curve.ys)
    y_lo = min(float(ys.min()), curve.y_value, joint_range[0])
    y_hi = max(float(ys.max()), curve.y_value, joint_range[1])
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    x_lo, x_hi = float(xs.min()), float(xs.max())
    plot_w = WIDTH - _CP_LEFT - _CP_RIGHT
    plot_h = CP_HEIGHT - _CP_TOP - _CP_BOTTOM

    def sx(v: float) -> float:
        return _CP_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _CP_TOP + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = _open(WIDTH, CP_HEIGHT, title)
    parts.append(
        f'<rect x="{_CP_LEFT}" y="{_CP_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="{GRAY}" stroke-width="1"/>'
    )
    guides = [("ymin", curve.ymin, BLUE), ("ymax", curve.ymax, BLUE),
              ("y(u0)", curve.y_u0, "#b58900"),
              ("MIN", joint_range[0], GRAY), ("MAX", joint_range[1], GRAY)]
    for name, value, color in guides:
        gy = sy(value)
        parts.append(
            f'<line x1="{_CP_LEFT}" y1="{_px(gy)}" x2="{_CP_LEFT + plot_w}" '
            f'y2="{_px(gy)}" stroke="{color}" stroke-width="1" '
            f'stroke-dasharray="5,3"/>'
        )
        parts.append(
            f'<text x="{_CP_LEFT + plot_w + 6}" y="{_px(gy + 4)}" {FONT} '
            f'fill="{color}">{_esc(name)}={value:.3f}</text>'
        )
    points = " ".join(f"{_px(sx(x))},{_px(sy(y))}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="{BLUE}" stroke-width="2"/>'
    )
    parts.append(
        f'<circle cx="{_px(sx(curve.x_value))}" cy="{_px(sy(curve.y_value))}" '
        f'r="5" fill="{RED}"/>'
    )
    for v in (x_lo, (x_lo + x_hi) / 2.0, x_hi):
        parts.append(
            f'<text x="{_px(sx(v))}" y="{CP_HEIGHT - _CP_BOTTOM + 18}" '
            f'text-anchor="middle" {FONT}>{v:.2f}</text>'
        )
    for v in (y_lo + pad, y_hi - pad):
        parts.append(
            f'<text x="{_CP_LEFT - 8}" y="{_px(sy(v) + 4)}" text-anchor="end" '
            f"{FONT}>{v:.2f}</text>"
        )
    parts.append(
        f'<text x="{_px((_CP_LEFT + _CP_LEFT + plot_w) / 2)}" y="{CP_HEIGHT - 10}" '
        f'text-anchor="middle" {FONT}>{_esc(curve.feature_name)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_spread_plot(report) -> str:
    """Per-feature distribution boxes for a stability report: quartile box,
    median line, whiskers to the extremes."""
    title = f"Attribution spread: {report.method} ({report.n_runs} runs)"
    mat = report.matrix()
    names = report.feature_names
    rows = len(names)
    height = ROW_H * rows + TOP + BOTTOM
    lo = min(float(mat.min()), 0.0)
    hi = max(float(mat.max()), 0.0)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo -= pad
    hi += pad

    def sx(v: float) -> float:
        return LABEL_W + (v - lo) / (hi - lo) * BAR_AREA

    parts = _open(WIDTH, height, title)
    zero_x = sx(0.0)
    parts.append(
        f'<line x1="{_px(zero_x)}" y1="{TOP - 6}" x2="{_px(zero_x)}" '
        f'y2="{height - BOTTOM + 6}" stroke="{GRAY}" stroke-width="1" '
        f'stroke-dasharray="3,3"/>'
    )
    for r, name in enumerate(names):
        col = mat[:, r]
        q0, q1, q2, q3, q4 = np.percentile(col, [0, 25, 50, 75, 100])
        y = TOP + r * ROW_H
        mid = y + ROW_H / 2.0
        box_y = y + 10
        box_h = ROW_H - 20
        parts.append(
            f'<text x="{LABEL_W - 8}" y="{_px(mid + 4)}" text-anchor="end" '
            f"{FONT}>{_esc(name)}</text>"
        )
        parts.append(
            f'<line x1="{_px(sx(q0))}" y1="{_px(mid)}" x2="{_px(sx(q4))}" '
            f'y2="{_px(mid)}" stroke="{GRAY}" stroke-width="1"/>'
        )
        parts.append(
            f'<rect x="{_px(sx(q1))}" y="{box_y}" width="{_px(max(sx(q3) - sx(q1), 0.5))}" '
            f'height="{box_h}" fill="{BLUE}" fill-opacity="0.4" stroke="{BLUE}"/>'
        )
        parts.append(
            f'<line x1="{_px(sx(q2))}" y1="{box_y}" x2="{_px(sx(q2))}" '
            f'y2="{box_y + box_h}" stroke="{BLUE}" stroke-width="2"/>'
        )
    for v in (lo + pad, 0.0, hi - pad):
        parts.append(
            f'<text x="{_px(sx(v))}" y="{height - 8}" text-anchor="middle" '
            f"{FONT} fill=\"{GRAY}\">{v:.3f}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


_BAR_COLS = 40


def text_ciu_bars(explanation: Explanation) -> str:
    """Fixed-width console bars: solid blocks for the utility share of the
    importance bar, light blocks for the rest."""
    lines = [
        f"output {explanation.output_name} = {explanation.y:.4f}"
        f"  (phi0={explanation.phi0:g}, seed={explanation.seed})"
    ]
    width = max(len(n) for n in explanation.feature_names)
    for i in explanation.sorted_indices_by_ci():
        ci, cu, flags = explanation.ci[i], explanation.cu[i], explanation.flags(i)
        shown_ci, shown_cu = min(max(ci, 0.0), 1.0), min(max(cu, 0.0), 1.0)
        total = round(shown_ci * _BAR_COLS)
        solid = round(shown_ci * shown_cu * _BAR_COLS)
        bar = "█" * solid + "░" * max(total - solid, 0)
        note = f" [{','.join(flags)}]" if flags else ""
        lines.append(
            f"{explanation.feature_names[i]:<{width}} |{bar:<{_BAR_COLS}}| "
            f"ci={ci:.3f} cu={cu:.3f} phi={explanation.influence[i]:+.3f}{note}"
        )
    return "\n".join(lines)


def text_influence_bars(feature_names, phi, method: str) -> str:
    """Console bars diverging around a center axis, one row per feature."""
    phi = [float(v) for v in phi]
    half = _BAR_COLS // 2
    limit = max(0.5, max((abs(v) for v in phi), default=0.0))
    width = max(len(str(n)) for n in feature_names)
    lines = [f"signed influence ({method})"]
    for i in sorted(range(len(phi)), key=lambda k: (-abs(phi[k]), k)):
        v = phi[i]
        n = round(min(abs(v) / limit, 1.0) * half)
        left = "█" * n if v < 0 else ""
        right = "█" * n if v >= 0 else ""
        lines.append(
            f"{feature_names[i]:<{width}} {left:>{half}}|{right:<{half}} {v:+.4f}"
        )
    return "\n".join(lines)
