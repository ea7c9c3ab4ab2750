"""Renderers: TSV round-trip, deterministic SVG, glyph rules, product lines."""

import hashlib
import re
import struct
import zlib

import pytest

from extforge import charts, milnor, modules
from extforge import resolution as R

GLYPH_RE = re.compile(
    r'<(?:circle|polygon) class="(solid-dot|open-circle|solid-triangle|open-triangle)"'
)


@pytest.fixture(scope="module")
def sphere_chart():
    return R.ext_f2(R.minimal_resolution(milnor.A1, 8, 24))


@pytest.fixture(scope="module")
def cell_chart():
    res = R.minimal_resolution(milnor.A2, 10, 26)
    h8 = R.cone(res, 3, 3)
    return R.ext_over_complex(h8, modules.trivial(milnor.A2), "F2", max_s=9)


def test_tsv_roundtrip_dims(sphere_chart, cell_chart):
    for chart in (sphere_chart, cell_chart):
        text = charts.render_tsv(chart)
        back = charts.parse_tsv(text)
        assert back.dims == {k: v for k, v in chart.dims.items() if v}
        assert charts.render_tsv(back) == text


def test_tsv_rows_sorted_by_stem_then_filtration(sphere_chart):
    lines = charts.render_tsv(sphere_chart).splitlines()
    assert lines[0] == "stem\tfiltration\tdim\tlabels"
    keys = [(int(p[0]), int(p[1])) for p in (ln.split("\t") for ln in lines[1:])]
    assert keys == sorted(keys)


def test_tsv_parse_errors():
    with pytest.raises(ValueError, match="missing header"):
        charts.parse_tsv("nope\n")
    with pytest.raises(ValueError, match="malformed"):
        charts.parse_tsv("stem\tfiltration\tdim\tlabels\n1\t2\n")


def test_svg_deterministic(cell_chart):
    assert charts.render_svg(cell_chart) == charts.render_svg(cell_chart)


# sha256 of render_svg: the A(1) sphere chart with its h0/h1/h2 product
# lines, and the two-cell h0^3 cone chart with dots and circles
PINNED_SVG = {
    "sphere": "5819a09ecd954fe29dc43c0841a461aac47ca31ad2824e1bfe5ce45d7bffe61a",
    "cell": "3d21fa4677bbe1db8a786ce7ea6133d0ba5cb7c488776d67d647371ad0c88220",
}


def test_svg_bytes_are_pinned(sphere_chart, cell_chart):
    for name, chart in (("sphere", sphere_chart), ("cell", cell_chart)):
        digest = hashlib.sha256(charts.render_svg(chart).encode()).hexdigest()
        assert digest == PINNED_SVG[name], name


def test_svg_one_glyph_per_class(sphere_chart, cell_chart):
    for chart in (sphere_chart, cell_chart):
        svg = charts.render_svg(chart)
        n_classes = sum(chart.dims.values())
        assert len(GLYPH_RE.findall(svg)) == n_classes


def test_svg_one_group_per_bidegree(cell_chart):
    svg = charts.render_svg(cell_chart)
    spots = sum(1 for d in cell_chart.dims.values() if d)
    assert svg.count('<g id="b') == spots


def test_svg_cell_glyph_rules(cell_chart):
    svg = charts.render_svg(cell_chart)
    found = set(GLYPH_RE.findall(svg))
    # two-cell chart: bottom-cell classes are dots, 1-cell classes are circles
    assert found == {"solid-dot", "open-circle"}


def test_svg_product_lines(sphere_chart):
    svg = charts.render_svg(sphere_chart)
    expected = 0
    for name in ("h0", "h1", "h2"):
        table = sphere_chart.products.get(name, {})
        ds, dt = R.NAMED_CLASS_BIDEGREES[name]
        for (s, t), m in table.items():
            tgt = (s + ds, t + dt)
            if sphere_chart.dims.get((s, t)) and sphere_chart.dims.get(tgt):
                expected += sum(
                    m.get(j, i) for i in range(m.cols) for j in range(m.rows)
                )
    assert expected > 0
    drawn = svg.count('-line" x1=')
    assert drawn == expected


def test_glyph_precedence():
    # the cell tag at the end of a label picks the glyph; no tag is a dot
    assert charts._glyph_for("x_{3,2}(1)[1]") == "open-circle"
    assert charts._glyph_for("x_{3,2}(1)[17]") == "solid-triangle"
    assert charts._glyph_for("x_{3,2}(1)[18]") == "open-triangle"
    assert charts._glyph_for("x_{3,2}(1)") == "solid-dot"


def test_window_restricts_svg(sphere_chart):
    svg = charts.render_svg(sphere_chart, (0, 4))
    shown = sum(d for (s, t), d in sphere_chart.dims.items() if 0 <= t - s <= 4)
    assert len(GLYPH_RE.findall(svg)) == shown


def test_window_starts_the_layout_at_its_first_stem(sphere_chart):
    layout = charts.chart_layout(sphere_chart, (8, 12))
    assert layout.width == 2 * charts.MARGIN + 4 * charts.UNIT


def test_render_png_writes_file(tmp_path, cell_chart):
    out = tmp_path / "chart.png"
    charts.render_png(cell_chart, out)
    assert out.stat().st_size > 1000


def test_png_encoding(tmp_path, cell_chart):
    first, second = tmp_path / "a.png", tmp_path / "b.png"
    charts.render_png(cell_chart, first)
    charts.render_png(cell_chart, second)
    data = first.read_bytes()
    assert data == second.read_bytes()
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, pos = {}, 8
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        kind, body = data[pos + 4 : pos + 8], data[pos + 8 : pos + 8 + length]
        (crc,) = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])
        assert crc == zlib.crc32(kind + body), kind
        chunks.setdefault(kind, []).append(body)
        pos += 12 + length
    assert pos == len(data)
    width, height, depth, colour = struct.unpack(">IIBB", chunks[b"IHDR"][0][:10])
    layout = charts.chart_layout(cell_chart)
    assert (width, height) == (layout.width * charts.PNG_SCALE, layout.height * charts.PNG_SCALE)
    assert (depth, colour) == (8, 0)
    raw = zlib.decompress(b"".join(chunks[b"IDAT"]))
    assert len(raw) == height * (1 + width)
    pixels = b"".join(raw[j * (1 + width) + 1 : (j + 1) * (1 + width)] for j in range(height))
    assert any(p != 0xFF for p in pixels)


def test_empty_chart_renders():
    empty = charts.TsvChart()
    svg = charts.render_svg(empty)
    assert svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")
    assert charts.parse_tsv(charts.render_tsv(empty)).dims == {}
