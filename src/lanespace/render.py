"""Deterministic SVG rendering of lanes over an image frame.

No raster imagery is involved: the output is a fixed-size frame with one
polyline per lane per layer and a small legend. Coordinates are formatted
with two decimals so identical inputs always produce identical bytes, which
is what the golden-file tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass
from html import escape
from typing import Sequence

from .datasets import DatasetRecord
from .errors import open_for_writing
from .geometry import Lane

DEFAULT_COLORS = ("#00b7c2", "#ff5d73", "#ffd166", "#7bd389", "#9b5de5")


@dataclass(frozen=True)
class LaneLayer:
    name: str
    lanes: Sequence[Lane]
    color: str
    stroke_width: float = 2.5
    dash: str | None = None


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _polyline(lane: Lane, color: str, stroke_width: float, dash: str | None) -> str:
    pts = lane.valid_points()
    coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{_fmt(stroke_width)}"{dash_attr}/>'
    )


def render_svg(record: DatasetRecord, layers: Sequence[LaneLayer], path) -> None:
    """Write an SVG with one group per layer and a legend."""
    width, height = record.image_size
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0.5" y="0.5" width="{width - 1}" height="{height - 1}" '
        'fill="#101418" stroke="#3a4750" stroke-width="1"/>',
        f'<title>{escape(record.image_id)}</title>',
    ]
    for layer in layers:
        parts.append(f'<g id="{escape(layer.name)}">')
        for lane in layer.lanes:
            if lane.top_index >= 2:
                parts.append(
                    _polyline(lane, layer.color, layer.stroke_width, layer.dash)
                )
        parts.append("</g>")
    # legend
    x0, y0 = 14, 20
    for i, layer in enumerate(layers):
        y = y0 + 18 * i
        parts.append(
            f'<line x1="{x0}" y1="{y}" x2="{x0 + 26}" y2="{y}" '
            f'stroke="{layer.color}" stroke-width="3"/>'
        )
        parts.append(
            f'<text x="{x0 + 32}" y="{y + 4}" font-family="monospace" '
            f'font-size="12" fill="#d8dee9">{escape(layer.name)} ({len(layer.lanes)})</text>'
        )
    parts.append("</svg>")
    with open_for_writing(path) as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
