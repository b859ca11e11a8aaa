import hashlib
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


@pytest.mark.parametrize("value", [5e-324, -5e-324, 2e-323], ids=["smallest-subnormal", "negative", "four-ulps"])
def test_flat_bounds_at_a_subnormal_value_fall_back_to_a_unit_pad(tmp_path, value):
    # a tenth of |value| rounds to 0, which gave a zero-width axis and a division by zero
    path = tmp_path / "tiny.svg"
    line_plot(path, [([value], [value], "tiny")], title="tiny")
    ET.parse(path)
    body = path.read_text(encoding="utf-8")
    assert '<circle cx="384.00" cy="232.00"' in body and "nan" not in body and "inf" not in body


# SHA-256 of the plot below: the SVG bytes are part of the output, so a rewrite of the writer must keep them
PINNED_PLOT_SHA256 = "4d6003e050d2c8c872d4c3f690160f92595377f1d2e93aecaf329a79180e01ae"


def test_plot_bytes_are_pinned(tmp_path):
    path = tmp_path / "pin.svg"
    line_plot(path, [([0.0, 0.25, 0.5, 1.0], [0.1, 0.9, 0.4, 0.625], "C_q"),
                     ([0.0, 0.5, 1.0], [1.0, 0.5, 0.0], "C_mu"),
                     ([0.75], [0.3333333333333333], "")],
              title="pinned & checked", xlabel="m", ylabel="bits")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_PLOT_SHA256


def test_rejects_empty_series(tmp_path):
    with pytest.raises(ValueError):
        line_plot(tmp_path / "x.svg", [([], [], "nothing")])
