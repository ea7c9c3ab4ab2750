"""Chart renderers: TSV tables, deterministic SVG and PNG.

A chart is anything with ``dims`` (bidegree -> dimension), optional
``labels`` (bidegree -> class names) and optional ``products`` (name ->
bidegree -> GF(2) matrix); the engine's ExtChart qualifies, and so does
the tiny holder :func:`parse_tsv` returns.

Glyphs follow the cell-based marker scheme: solid dots for classes the
0-cell carries, open circles for the 1-cell, solid and open triangles
for the 17- and 18-cells of the larger cone object.  Cell membership is
read from the ``[cell]`` tag the engine puts in class labels; a class
without a tag is a solid dot.

Every renderer takes an optional stem window ``stem_range`` = (lo, hi),
and ``resolution.shown_dims`` is the one step that applies it: it picks
the nonzero bidegrees the TSV rows, the layout and the command's class
count all read.

One layout step (:func:`chart_layout`) places the axes, tick numbers,
product lines and glyphs; the SVG and PNG renderers only emit it.  The
SVG renderer is hand-rolled string assembly on purpose: golden-file tests
require byte-identical output across runs and platforms, so there are no
timestamps, no dict-order dependence, and all coordinates are formatted
with a fixed number of decimals.  The PNG renderer rasterizes the same
layout with the standard library alone (``zlib``, ``struct``): its
decoded pixels are deterministic and its file bytes repeat on one
machine, but the compressed bytes may differ between zlib builds.
"""

from __future__ import annotations

import math
import re
import struct
import zlib
from pathlib import Path
from typing import NamedTuple, Optional

from .records import record
from .resolution import NAMED_CLASS_BIDEGREES, shown_dims

UNIT = 18  # SVG units between adjacent stems or filtrations
MARGIN = 36  # SVG units around the plotted grid
PRODUCT_LINES = ("h0", "h1", "h2")  # drawn under the glyphs, in this order
_CELL_GLYPHS = {
    "0": "solid-dot",
    "1": "open-circle",
    "17": "solid-triangle",
    "18": "open-triangle",
}


def _glyph_for(label: str) -> str:
    """The glyph of one class, from the ``[cell]`` tag ending its label."""
    m = re.search(r"\[([^\]]+)\]$", label)
    return _CELL_GLYPHS.get(m.group(1), "solid-dot") if m else "solid-dot"


class TsvChart:
    """Minimal chart holder produced by parse_tsv; enough to re-render."""

    def __init__(
        self,
        dims: Optional[dict[tuple[int, int], int]] = None,
        labels: Optional[dict[tuple[int, int], tuple[str, ...]]] = None,
        products: Optional[dict] = None,
    ):
        self.dims = {} if dims is None else dims
        self.labels = {} if labels is None else labels
        self.products = {} if products is None else products


TSV_HEADER = "stem\tfiltration\tdim\tlabels"


def render_tsv(chart, stem_range: Optional[tuple[int, int]] = None) -> str:
    """Tab-separated rows (stem, filtration, dim, labels), sorted, lossless."""
    labels = getattr(chart, "labels", {}) or {}
    rows = [TSV_HEADER]
    for (s, t), dim in shown_dims(chart, stem_range).items():
        names = ";".join(labels.get((s, t), ()))
        rows.append(f"{t - s}\t{s}\t{dim}\t{names}")
    return "\n".join(rows) + "\n"


def parse_tsv(text: str) -> TsvChart:
    """Inverse of render_tsv on the dims (and labels) it wrote."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != TSV_HEADER:
        raise ValueError("not a chart TSV: missing header")
    out = TsvChart()
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 4:
            raise ValueError(f"malformed TSV row: {ln!r}")
        stem, s, dim = int(parts[0]), int(parts[1]), int(parts[2])
        key = (s, stem + s)
        out.dims[key] = dim
        if parts[3]:
            out.labels[key] = tuple(parts[3].split(";"))
    return out


_SVG_STYLE = (
    "<style>\n"
    "  .axis { stroke: #222; stroke-width: 1; }\n"
    "  .tick { font: 10px sans-serif; fill: #222; }\n"
    "  .solid-dot { fill: #000; stroke: none; }\n"
    "  .open-circle { fill: #fff; stroke: #000; stroke-width: 1.2; }\n"
    "  .solid-triangle { fill: #000; stroke: none; }\n"
    "  .open-triangle { fill: #fff; stroke: #000; stroke-width: 1.2; }\n"
    # no glyph uses the two tower rules; they stay because the SVG bytes are pinned
    "  .tower-box { fill: #fff; stroke: #000; stroke-width: 1.2; }\n"
    "  .tower-cross { fill: none; stroke: #000; stroke-width: 1.2; }\n"
    "  .h0-line { stroke: #000; stroke-width: 0.8; }\n"
    "  .h1-line { stroke: #555; stroke-width: 0.8; }\n"
    "  .h2-line { stroke: #999; stroke-width: 0.8; }\n"
    "</style>\n"
)


def _offsets(k: int) -> list[float]:
    if k <= 1:
        return [0.0]
    step = min(6.0, 0.8 * UNIT / (k - 1))
    return [(i - (k - 1) / 2) * step for i in range(k)]


def _glyph_element(glyph: str, x: float, y: float, r: float, title: str) -> str:
    inner = f"<title>{title}</title>"
    if glyph == "solid-dot":
        return f'<circle class="solid-dot" cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}">{inner}</circle>'
    if glyph == "open-circle":
        return f'<circle class="open-circle" cx="{x:.1f}" cy="{y:.1f}" r="{r:.1f}">{inner}</circle>'
    if glyph in ("solid-triangle", "open-triangle"):
        pts = f"{x:.1f},{y - r:.1f} {x - r:.1f},{y + r:.1f} {x + r:.1f},{y + r:.1f}"
        return f'<polygon class="{glyph}" points="{pts}">{inner}</polygon>'
    raise ValueError(f"unknown glyph {glyph!r}")


@record
class ChartLayout(NamedTuple):
    """Everything a chart renderer draws, in SVG user units (y grows down).

    axes are (x1, y1, x2, y2) integer segments; ticks are (text, x, y,
    anchor) with y the text baseline and anchor "middle" or "end"; lines
    are (product name, x1, y1, x2, y2), drawn under the glyphs; groups
    hold one ((stem, s), glyphs) entry per bidegree, each glyph a
    (kind, x, y, label) with common radius ``radius``.
    """

    width: int
    height: int
    radius: float
    axes: tuple[tuple[int, int, int, int], ...]
    ticks: tuple[tuple[str, float, float, str], ...]
    lines: tuple[tuple[str, float, float, float, float], ...]
    groups: tuple[tuple[tuple[int, int], tuple[tuple[str, float, float, str], ...]], ...]


def chart_layout(chart, stem_range: Optional[tuple[int, int]] = None) -> ChartLayout:
    """Place the axes, ticks, product lines and one glyph per class."""
    labels = getattr(chart, "labels", {}) or {}
    products = getattr(chart, "products", {}) or {}
    spots = shown_dims(chart, stem_range)
    if spots:
        lo_stem = min(t - s for (s, t) in spots)
        hi_stem = max(t - s for (s, t) in spots)
        hi_filt = max(s for (s, t) in spots)
    else:
        lo_stem, hi_stem, hi_filt = 0, 0, 0
    if stem_range is not None:
        lo_stem, hi_stem = stem_range
    else:
        lo_stem = min(lo_stem, 0)
    width = 2 * MARGIN + (hi_stem - lo_stem) * UNIT
    height = 2 * MARGIN + hi_filt * UNIT

    def x_of(stem: int) -> float:
        return MARGIN + (stem - lo_stem) * UNIT

    def y_of(s: int) -> float:
        return height - MARGIN - s * UNIT

    axes = (
        (MARGIN, height - MARGIN, width - MARGIN + 10, height - MARGIN),
        (MARGIN, height - MARGIN, MARGIN, MARGIN - 10),
    )
    ticks = [
        (str(stem), x_of(stem), height - MARGIN + 14, "middle")
        for stem in range(lo_stem, hi_stem + 1)
        if stem % 5 == 0
    ]
    ticks += [
        (str(s), MARGIN - 8, y_of(s) + 3, "end") for s in range(0, hi_filt + 1) if s % 5 == 0
    ]

    offset_of: dict[tuple[int, int], list[float]] = {
        key: _offsets(d) for key, d in spots.items()
    }
    lines = []
    for name in PRODUCT_LINES:
        table = products.get(name)
        if not table:
            continue
        ds, dt = NAMED_CLASS_BIDEGREES[name]
        for (s, t) in sorted(table):
            src = (s, t)
            tgt = (s + ds, t + dt)
            if src not in spots or tgt not in spots:
                continue
            mat = table[(s, t)]
            for i in range(mat.cols):
                for j in range(mat.rows):
                    if mat.get(j, i):
                        x1 = x_of(t - s) + offset_of[src][min(i, len(offset_of[src]) - 1)]
                        x2 = x_of(tgt[1] - tgt[0]) + offset_of[tgt][min(j, len(offset_of[tgt]) - 1)]
                        lines.append((name, x1, y_of(s), x2, y_of(tgt[0])))

    groups = []
    for (s, t), d in spots.items():
        names = labels.get((s, t), tuple(f"x_{{{t - s},{s}}}({i + 1})" for i in range(d)))
        glyphs = []
        for i, off in enumerate(offset_of[(s, t)]):
            label = names[i] if i < len(names) else f"x_{{{t - s},{s}}}({i + 1})"
            glyphs.append((_glyph_for(label), x_of(t - s) + off, y_of(s), label))
        groups.append(((t - s, s), tuple(glyphs)))
    return ChartLayout(
        width, height, max(2.5, UNIT * 0.16), axes, tuple(ticks), tuple(lines), tuple(groups)
    )


def render_svg(chart, stem_range: Optional[tuple[int, int]] = None) -> str:
    """Deterministic SVG document: one group per bidegree, product lines under glyphs."""
    lay = chart_layout(chart, stem_range)
    width, height = lay.width, lay.height
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
        _SVG_STYLE,
    ]
    for x1, y1, x2, y2 in lay.axes:
        out.append(f'<line class="axis" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}"/>\n')
    for text, x, y, anchor in lay.ticks:
        out.append(
            f'<text class="tick" x="{x:.1f}" y="{y:.1f}" text-anchor="{anchor}">{text}</text>\n'
        )
    for name, x1, y1, x2, y2 in lay.lines:
        out.append(
            f'<line class="{name}-line" x1="{x1:.1f}" y1="{y1:.1f}" '
            f'x2="{x2:.1f}" y2="{y2:.1f}"/>\n'
        )
    for (stem, s), glyphs in lay.groups:
        out.append(f'<g id="b{stem}.{s}" class="bidegree">\n')
        for glyph, x, y, label in glyphs:
            out.append("  " + _glyph_element(glyph, x, y, lay.radius, label) + "\n")
        out.append("</g>\n")
    out.append("</svg>\n")
    return "".join(out)


PNG_SCALE = 2  # pixels per SVG unit

# grey levels of the SVG stylesheet
_AXIS_SHADE = 0x22
_LINE_SHADES = {"h0": 0x00, "h1": 0x55, "h2": 0x99}
_AXIS_WIDTH = 1.0
_LINE_WIDTH = 0.8
_OUTLINE_WIDTH = 1.2

# 3x5 tick digits, one string of rows per character; each dot is 1.5 units
_FONT = {
    "0": ("111", "101", "101", "101", "111"),
    "1": ("010", "110", "010", "010", "010"),
    "2": ("111", "001", "111", "100", "111"),
    "3": ("111", "001", "111", "001", "111"),
    "4": ("101", "101", "111", "001", "001"),
    "5": ("111", "100", "111", "001", "111"),
    "6": ("111", "100", "111", "101", "111"),
    "7": ("111", "001", "001", "001", "001"),
    "8": ("111", "101", "111", "101", "111"),
    "9": ("111", "101", "111", "001", "111"),
    "-": ("000", "000", "111", "000", "000"),
}
_FONT_DOT = 1.5


class _Raster:
    """8-bit greyscale canvas addressed in SVG units, sampled at pixel centres."""

    def __init__(self, width: int, height: int):
        self.width = width * PNG_SCALE
        self.height = height * PNG_SCALE
        self.pixels = bytearray(b"\xff" * (self.width * self.height))

    def _run(self, major: int, lo: float, hi: float, shade: int, vertical: bool) -> None:
        # pixels of one column (vertical) or row whose centres lie in [lo, hi]
        first = max(0, math.ceil(lo - 0.5))
        last = min((self.height if vertical else self.width) - 1, math.floor(hi - 0.5))
        if vertical:
            for j in range(first, last + 1):
                self.pixels[j * self.width + major] = shade
        else:
            row = major * self.width
            self.pixels[row + first : row + last + 1] = bytes([shade]) * max(0, last + 1 - first)

    def segment(self, x1: float, y1: float, x2: float, y2: float, width: float, shade: int) -> None:
        """Stroke with butt caps, one pixel run per step along the major axis."""
        k = PNG_SCALE
        x1, y1, x2, y2 = x1 * k, y1 * k, x2 * k, y2 * k
        vertical = abs(x2 - x1) >= abs(y2 - y1)  # runs are vertical for a flat segment
        if not vertical:
            x1, y1, x2, y2 = y1, x1, y2, x2
        if x1 == x2:
            return
        if x2 < x1:
            x1, y1, x2, y2 = x2, y2, x1, y1
        slope = (y2 - y1) / (x2 - x1)
        reach = width * k / 2 * math.hypot(1.0, slope)
        limit = self.width if vertical else self.height
        for i in range(max(0, math.ceil(x1 - 0.5)), min(limit, math.ceil(x2 - 0.5))):
            y = y1 + (i + 0.5 - x1) * slope
            self._run(i, y - reach, y + reach, shade, vertical)

    def glyph(self, kind: str, x: float, y: float, r: float) -> None:
        """Paint one class marker with the fill and outline of its SVG class."""
        h = _OUTLINE_WIDTH / 2
        k = PNG_SCALE
        reach = r + h
        rows = range(max(0, math.floor((y - reach) * k)), min(self.height, math.ceil((y + reach) * k)))
        cols = range(max(0, math.floor((x - reach) * k)), min(self.width, math.ceil((x + reach) * k)))
        for j in rows:
            dy = (j + 0.5) / k - y
            for i in cols:
                dx = (i + 0.5) / k - x
                shade = _glyph_shade(kind, dx, dy, r, h)
                if shade is not None:
                    self.pixels[j * self.width + i] = shade

    def text(self, text: str, x: float, y: float, anchor: str, shade: int) -> None:
        """Tick numbers from the built-in digit bitmap, bottom on the baseline y."""
        advance = 4 * _FONT_DOT
        span = advance * len(text) - _FONT_DOT
        left = x - span if anchor == "end" else x - span / 2
        top = y - 5 * _FONT_DOT
        for n, ch in enumerate(text):
            for row, bits in enumerate(_FONT[ch]):
                for col, bit in enumerate(bits):
                    if bit == "1":
                        dot_x = left + n * advance + col * _FONT_DOT
                        self._dot(dot_x, top + row * _FONT_DOT, shade)

    def _dot(self, x: float, y: float, shade: int) -> None:
        size = round(_FONT_DOT * PNG_SCALE)
        i0, j0 = round(x * PNG_SCALE), round(y * PNG_SCALE)
        i1 = min(self.width, i0 + size)
        i0 = max(0, i0)
        for j in range(max(0, j0), min(self.height, j0 + size)):
            self.pixels[j * self.width + i0 : j * self.width + i1] = bytes([shade]) * (i1 - i0)

    def png(self) -> bytes:
        """PNG file bytes: 8-bit greyscale, no filtering, one IDAT chunk."""
        w = self.width
        raw = b"".join(b"\x00" + self.pixels[j * w : (j + 1) * w] for j in range(self.height))
        header = struct.pack(">IIBBBBB", w, self.height, 8, 0, 0, 0, 0)
        return (
            b"\x89PNG\r\n\x1a\n"
            + _png_chunk(b"IHDR", header)
            + _png_chunk(b"IDAT", zlib.compress(raw, 9))
            + _png_chunk(b"IEND", b"")
        )


def _png_chunk(kind: bytes, data: bytes) -> bytes:
    return struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))


def _glyph_shade(kind: str, dx: float, dy: float, r: float, h: float) -> Optional[int]:
    # signed distance to the marker outline (negative inside); convex
    # outlines as a max over edge half-planes, which gives mitred corners
    if kind in ("solid-dot", "open-circle"):
        dist = math.hypot(dx, dy) - r
    elif kind in ("solid-triangle", "open-triangle"):
        slant = math.sqrt(5)
        dist = max(dy - r, (-2 * dx - dy - r) / slant, (2 * dx - dy - r) / slant)
    else:
        raise ValueError(f"unknown glyph {kind!r}")
    if kind in ("solid-dot", "solid-triangle"):
        return 0x00 if dist <= 0 else None
    if dist > h:
        return None
    return 0x00 if dist >= -h else 0xFF


def render_png(chart, path, stem_range: Optional[tuple[int, int]] = None) -> str:
    """Rasterize the SVG layout into an 8-bit greyscale PNG file.

    Same primitives and draw order as render_svg, at PNG_SCALE pixels per
    SVG unit, with tick numbers from a built-in digit bitmap and no text
    labels otherwise.  Only the standard library is used.  The decoded
    pixels are deterministic; the file bytes repeat on one machine, but
    the zlib-compressed stream may differ between zlib builds.
    """
    lay = chart_layout(chart, stem_range)
    canvas = _Raster(lay.width, lay.height)
    for x1, y1, x2, y2 in lay.axes:
        canvas.segment(x1, y1, x2, y2, _AXIS_WIDTH, _AXIS_SHADE)
    for text, x, y, anchor in lay.ticks:
        canvas.text(text, x, y, anchor, _AXIS_SHADE)
    for name, x1, y1, x2, y2 in lay.lines:
        canvas.segment(x1, y1, x2, y2, _LINE_WIDTH, _LINE_SHADES[name])
    for _, glyphs in lay.groups:
        for kind, x, y, _label in glyphs:
            canvas.glyph(kind, x, y, lay.radius)
    Path(path).write_bytes(canvas.png())
    return str(path)
