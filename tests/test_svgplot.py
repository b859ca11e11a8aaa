import xml.etree.ElementTree as ET

import pytest

from qcoin.svgplot import line_plot


def test_writes_well_formed_svg_with_axes_points_and_lines(tmp_path):
    path = tmp_path / "plot.svg"
    line_plot(
        path,
        [([0.0, 1.0, 2.0], [0.1, 0.9, 0.4], "alpha"), ([0.0, 2.0], [0.5, 0.5], "beta")],
        title="demo & check",
        xlabel="x (ns)",
        ylabel="y",
    )
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")
    body = path.read_text(encoding="utf-8")
    assert body.count("<polyline") == 2
    assert body.count("<circle") == 5
    assert "demo &amp; check" in body


def test_escapes_markup_in_titles_labels_and_legend(tmp_path):
    # the bytes xml.sax.saxutils.escape gives: &, < and > escaped, quotes kept
    path = tmp_path / "marks.svg"
    text = """a & b < c > d " e ' f"""
    line_plot(path, [([0.0, 1.0], [0.0, 1.0], text)], title=text, xlabel=text, ylabel=text)
    ET.parse(path)
    body = path.read_text(encoding="utf-8")
    assert body.count(""">a &amp; b &lt; c &gt; d " e ' f</text>""") == 4


def test_single_point_series_and_flat_bounds(tmp_path):
    path = tmp_path / "flat.svg"
    line_plot(path, [([1.0], [0.0], "")], title="flat")
    ET.parse(path)  # parses cleanly


def test_rejects_empty_series(tmp_path):
    with pytest.raises(ValueError):
        line_plot(tmp_path / "x.svg", [([], [], "nothing")])
