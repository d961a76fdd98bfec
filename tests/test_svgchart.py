"""SVG chart structure tests (the chart is data, so we parse it back)."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from rnncast import svgchart
from rnncast.svgchart import line_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def chart(curves, **kwargs):
    defaults = {"title": "demo", "x_label": "x", "y_label": "y"}
    defaults.update(kwargs)
    return line_chart(curves, **defaults)


def parse(svg_text):
    return ET.fromstring(svg_text)


class TestStructure:
    def test_one_polyline_per_curve(self):
        xs = list(range(10))
        svg = chart([("a", xs, [v * 0.5 for v in xs]),
                     ("b", xs, [v * 2.0 for v in xs]),
                     ("c", xs, xs)])
        root = parse(svg)
        assert len(root.findall(f"{SVG_NS}polyline")) == 3

    def test_title_and_axis_labels_present(self):
        svg = chart([("s", [0, 1], [2, 3])], title="My <Chart>",
                    x_label="time & tide", y_label="price")
        texts = [t.text for t in parse(svg).iter(f"{SVG_NS}text")]
        assert "My <Chart>" in texts
        assert "time & tide" in texts
        assert "price" in texts

    def test_output_is_well_formed_xml(self):
        rng = np.random.default_rng(0)
        svg = chart([("noise", np.arange(50), rng.normal(size=50))])
        parse(svg)  # raises on malformed output

    def test_legend_lists_only_labeled_curves(self):
        xs = [0, 1, 2]
        svg = chart([("actual", xs, [1, 2, 3]),
                     ("forecast", xs, [1, 1, 1]),
                     ("", xs, [2, 2, 2]),
                     ("", xs, [3, 3, 3])])
        root = parse(svg)
        assert len(root.findall(f"{SVG_NS}polyline")) == 4
        texts = [t.text for t in root.iter(f"{SVG_NS}text")]
        assert texts.count("forecast") == 1
        # Unlabeled fans add no legend rows: exactly the two labels appear.
        assert "actual" in texts

    @pytest.mark.parametrize("text", ["plain", "a & b", "<tag>", "&amp; &lt;", "x > 1 < 2 & 3",
                                      "\"quoted\" 'single'", ""])
    def test_escape_matches_saxutils(self, text):
        assert svgchart._escape(text) == escape(text)

    def test_deterministic(self):
        curves = [("s", list(range(20)), [v ** 2 for v in range(20)])]
        assert chart(curves) == chart(curves)


class TestEdgeCases:
    def test_constant_series_does_not_divide_by_zero(self):
        svg = chart([("flat", [0, 1, 2], [5.0, 5.0, 5.0])])
        assert "NaN" not in svg and "nan" not in svg
        parse(svg)

    def test_single_point_curve(self):
        svg = chart([("dot", [3], [7.0])])
        parse(svg)

    def test_empty_curve_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            chart([])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            chart([("bad", [1, 2, 3], [1, 2])])

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            chart([("empty", [], [])])
