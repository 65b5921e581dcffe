import xml.etree.ElementTree as ET

import numpy as np
import pytest

import ciukit as ck

BAR_AREA = 580
LABEL_X = 200


def elements(svg, tag):
    root = ET.fromstring(svg)
    return [el.attrib for el in root.iter() if el.tag.endswith("}" + tag)]


def body_rects(svg):
    # skip the white canvas rectangle
    return [r for r in elements(svg, "rect") if r.get("fill") != "white"]


@pytest.fixture(scope="module")
def linear_explanation(linear_bundle):
    pred, space, util = linear_bundle
    x = space.instance([0.5, 0.5, 0.5, 0.5])
    return ck.explain_instance(pred, util, space, x, n=50, rng=3)


class TestCiuBarplot:
    def test_well_formed_and_sized(self, linear_explanation):
        svg = ck.render_ciu_barplot(linear_explanation)
        root = ET.fromstring(svg)
        assert root.attrib["width"] == "800"
        assert root.attrib["height"] == str(40 * 4 + 80) == "240"

    def test_bar_geometry(self, linear_explanation):
        svg = ck.render_ciu_barplot(linear_explanation)
        rects = body_rects(svg)
        translucent = [r for r in rects if "fill-opacity" in r]
        solid = [r for r in rects if "fill-opacity" not in r]
        assert len(translucent) == len(solid) == 4
        # features are sorted by importance: 0.4, 0.3, 0.2, 0.1 of the panel
        for r, ci in zip(translucent, (0.4, 0.3, 0.2, 0.1)):
            assert float(r["x"]) == LABEL_X
            assert float(r["width"]) == pytest.approx(ci * BAR_AREA, abs=0.5)
        # solid overlay covers the utility share (cu = 0.5 everywhere here)
        for s, t in zip(solid, translucent):
            assert float(s["width"]) == pytest.approx(float(t["width"]) / 2, abs=0.5)

    def test_full_and_zero_utility_cover(self, linear_bundle):
        _, space, util = linear_bundle
        pred = ck.FunctionPredictor(lambda m: m @ np.asarray([1.0, 0.0, 0.0, 0.0]))
        exp = ck.explain_instance(
            pred, util, space, space.instance([1.0, 0.5, 0.5, 0.5]), n=20, rng=1
        )
        svg = ck.render_ciu_barplot(exp)
        rects = body_rects(svg)
        top_solid = [r for r in rects if "fill-opacity" not in r][0]
        top_translucent = [r for r in rects if "fill-opacity" in r][0]
        # cu = 1 at the top of the interval: the solid bar fills the panel
        assert float(top_solid["width"]) == float(top_translucent["width"]) == BAR_AREA

    def test_degenerate_features_render(self, linear_bundle):
        _, space, _ = linear_bundle
        pred = ck.FunctionPredictor(lambda m: np.full(len(m), 0.5))
        util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
        exp = ck.explain_instance(pred, util, space, space.midpoint(), n=10, rng=1)
        svg = ck.render_ciu_barplot(exp)
        ET.fromstring(svg)
        assert "degenerate" in svg
        assert all(float(r["width"]) == 0.0 for r in body_rects(svg))

    def test_name_escaping(self, linear_bundle):
        space = ck.FeatureSpace(
            (
                ck.FeatureSpec.numeric("a<b", 0, 1),
                ck.FeatureSpec.numeric('c&"d"', 0, 1),
            )
        )
        pred = ck.FunctionPredictor(lambda m: 0.5 * (m[:, 0] + m[:, 1]))
        util = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
        exp = ck.explain_instance(pred, util, space, space.midpoint(), n=10, rng=1)
        svg = ck.render_ciu_barplot(exp)
        ET.fromstring(svg)
        assert "a&lt;b" in svg and "c&amp;" in svg

    def test_deterministic_bytes(self, linear_explanation):
        a = ck.render_ciu_barplot(linear_explanation)
        b = ck.render_ciu_barplot(linear_explanation)
        assert a == b


class TestInfluenceBarplot:
    def test_sides_and_magnitude_order(self):
        svg = ck.render_influence_barplot(
            ("p", "q", "r", "s"), (0.3, -0.2, 0.1, 0.0), (1.0, 2.0, 3.0, 4.0), "Signed"
        )
        rects = body_rects(svg)
        assert len(rects) == 4
        axis = LABEL_X + BAR_AREA / 2
        half = BAR_AREA / 2
        # rows are sorted by |influence|; default limit is 0.5
        widths = [float(r["width"]) for r in rects]
        assert widths == pytest.approx(
            [0.3 / 0.5 * half, 0.2 / 0.5 * half, 0.1 / 0.5 * half, 0.0], abs=0.5
        )
        assert rects[0]["fill"] == "#4682b4"  # positive, right of axis
        assert float(rects[0]["x"]) == pytest.approx(axis, abs=0.01)
        assert rects[1]["fill"] == "#c44e52"  # negative, left of axis
        assert float(rects[1]["x"]) + float(rects[1]["width"]) == pytest.approx(
            axis, abs=0.01
        )

    def test_zero_vector_keeps_axis(self):
        svg = ck.render_influence_barplot(("a", "b"), (0.0, 0.0), (1.0, 2.0), "Zero")
        lines = elements(svg, "line")
        axis = [
            ln for ln in lines if ln["x1"] == ln["x2"] == f"{LABEL_X + BAR_AREA / 2:.2f}"
        ]
        assert axis
        ET.fromstring(svg)

    def test_custom_limit_clamps(self):
        svg = ck.render_influence_barplot(("a",), (2.0,), (1.0,), "Clamped", limit=1.0)
        rect = body_rects(svg)[0]
        assert float(rect["width"]) == BAR_AREA / 2  # clamped to the panel

    def test_length_mismatch(self):
        with pytest.raises(ck.ConfigError):
            ck.render_influence_barplot(("a",), (0.1, 0.2), (1.0,), "Mismatch")


class TestCpPlot:
    def test_linear_polyline_is_collinear(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5] * 4)
        curve = ck.ceteris_paribus_curve(pred, space, x, 0, grid_size=11)
        svg = ck.render_cp_plot(curve, (0.0, 1.0))
        polys = elements(svg, "polyline")
        assert len(polys) == 1
        pts = [tuple(map(float, p.split(","))) for p in polys[0]["points"].split()]
        assert len(pts) == 11
        (x0, y0), (x1, y1) = pts[0], pts[-1]
        for px, py in pts:
            want = y0 + (px - x0) / (x1 - x0) * (y1 - y0)
            assert py == pytest.approx(want, abs=0.5)

    def test_instance_dot_position(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5] * 4)
        curve = ck.ceteris_paribus_curve(pred, space, x, 0, grid_size=11)
        svg = ck.render_cp_plot(curve, (curve.ymin, curve.ymax))
        dot = elements(svg, "circle")[0]
        assert float(dot["cx"]) == pytest.approx(70 + 0.5 * 600, abs=0.01)
        # y = 0.5 is the midpoint of the padded [0.28, 0.72] band
        assert float(dot["cy"]) == pytest.approx(50 + 200, abs=0.01)

    def test_interior_minimum_dips_below_endpoints(self, nonlinear_bundle):
        pred, space, _ = nonlinear_bundle
        x = space.instance([0.63, 0.63, 0.59, 0.81])
        curve = ck.ceteris_paribus_curve(pred, space, x, 3, grid_size=201)
        svg = ck.render_cp_plot(curve, (0.0, 1.0))
        pts = [
            tuple(map(float, p.split(",")))
            for p in elements(svg, "polyline")[0]["points"].split()
        ]
        lowest = max(pts, key=lambda p: p[1])  # SVG y grows downward
        assert pts[0][0] < lowest[0] < pts[-1][0]
        sweep_x = (lowest[0] - 70) / 600
        assert sweep_x == pytest.approx(np.sqrt(3 / 8), abs=0.02)

    def test_guides_and_joint_range(self, linear_bundle):
        pred, space, _ = linear_bundle
        x = space.instance([0.5] * 4)
        curve = ck.ceteris_paribus_curve(pred, space, x, 0)
        svg = ck.render_cp_plot(curve, joint_range=(0.0, 1.0))
        for label in ("ymin=", "ymax=", "y(u0)=", "MIN=", "MAX="):
            assert label in svg
        assert len(elements(svg, "line")) >= 5

    def test_flat_curve(self, linear_bundle):
        _, space, _ = linear_bundle
        pred = ck.FunctionPredictor(lambda m: np.full(len(m), 0.25))
        curve = ck.ceteris_paribus_curve(pred, space, space.midpoint(), 2)
        svg = ck.render_cp_plot(curve, (0.0, 1.0))
        assert ET.fromstring(svg).attrib["height"] == "500"


class TestSpreadPlot:
    def test_sampled_report(self, linear_bundle):
        pred, space, util = linear_bundle
        x = space.instance([0.2, 0.9, 0.4, 0.7])
        rep = ck.run_stability(
            pred, util, space, x, ck.METHOD_LIME, runs=8, seed=3
        )
        svg = ck.render_spread_plot(rep)
        assert ET.fromstring(svg).attrib["height"] == str(40 * 4 + 80)
        for name in space.names:
            assert name in svg

    def test_zero_spread_report(self, linear_bundle):
        pred, space, util = linear_bundle
        x = space.instance([0.5] * 4)
        rep = ck.run_stability(
            pred, util, space, x, ck.METHOD_INFLUENCE, runs=3, seed=3
        )
        svg = ck.render_spread_plot(rep)
        ET.fromstring(svg)


class TestTextBars:
    def test_ciu_blocks(self, linear_explanation):
        text = ck.text_ciu_bars(linear_explanation)
        lines = text.splitlines()
        assert "output y = 0.5000" in lines[0]
        # top row: ci 0.4 of 40 columns, half of it solid
        assert "█" * 8 + "░" * 8 in lines[1]
        assert "█" * 9 not in lines[1]
        assert lines[1].startswith("x1")

    def test_influence_axis_alignment(self):
        text = ck.text_influence_bars(("alpha", "b"), (-0.5, 0.25), "lime")
        lines = text.splitlines()[1:]
        bars = [ln.index("|") for ln in lines]
        assert bars[0] == bars[1]
        assert "█" * 20 + "|" in lines[0]  # full left bar at the limit
        assert "|" + "█" * 10 + " " * 10 in lines[1]

    def test_value_suffix(self):
        text = ck.text_influence_bars(("a",), (0.125,), "shapley-mc")
        assert "(shapley-mc)" in text.splitlines()[0]
        assert "+0.1250" in text


class TestFlaggedExplanationBytes:
    """Every report of an explanation whose features carry flags, pinned as
    literal text. 1.2 * x1 + 0.5 on a declared [0, 1] output range leaves the
    range through x1 (instability) and holds x2..x4 at the constant 1.1
    (degenerate and instability both). The arithmetic is a few correctly
    rounded float operations, so the bytes are the same on every platform."""

    SPACE = ck.reference_feature_space()
    PRED = ck.FunctionPredictor(lambda m: 1.2 * m[:, 0] + 0.5)
    UTIL = ck.OutputUtility.single("y", out_min=0.0, out_max=1.0)
    INFLUENCE_X1 = 1.3322676295501878e-16
    CU_X1 = 0.5000000000000001

    @pytest.fixture(scope="class")
    def exp(self):
        x = self.SPACE.instance([0.5] * 4)
        return ck.explain_instance(self.PRED, self.UTIL, self.SPACE, x, n=20, rng=1)

    def test_json_features(self, exp):
        flat = {"value": 0.5, "ci": 0.0, "cu": 0.0, "influence": -0.0, "ymin": 1.1, "ymax": 1.1,
                "flags": ["degenerate", "instability"]}
        features = exp.to_json_dict()["features"]
        assert features == [
            {"name": "x1", "value": 0.5, "ci": 1.2, "cu": self.CU_X1,
             "influence": self.INFLUENCE_X1, "ymin": 0.5, "ymax": 1.7, "flags": ["instability"]},
        ] + [{"name": name, **flat} for name in ("x2", "x3", "x4")]
        assert [list(f) for f in features] == [
            ["name", "value", "ci", "cu", "influence", "ymin", "ymax", "flags"]
        ] * 4
        assert [repr(f["influence"]) for f in features[1:]] == ["-0.0"] * 3

    def test_text_bars(self, exp):
        flat = "|" + " " * 40 + "| ci=0.000 cu=0.000 phi=-0.000 [degenerate,instability]"
        assert ck.text_ciu_bars(exp).splitlines() == [
            "output y = 1.1000  (phi0=0.5, seed=1)",
            "x1 |" + "█" * 20 + "░" * 20 + "| ci=1.200 cu=0.500 phi=+0.000 [instability]",
        ] + [f"{name} {flat}" for name in ("x2", "x3", "x4")]

    def test_svg_notes(self, exp):
        notes = [t for t in ck.render_ciu_barplot(exp).splitlines() if "ci=" in t]
        grey = 'font-family="sans-serif" font-size="12" fill="#888888"'
        assert notes == [
            f'<text x="786.00" y="76" {grey}>ci=1.200 cu=0.500 [instability]</text>',
        ] + [
            f'<text x="206.00" y="{y}" {grey}>ci=0.000 cu=0.000 [degenerate,instability]</text>'
            for y in (116, 156, 196)
        ]

    def test_explain_csv_rows(self, tmp_path, monkeypatch):
        from ciukit import cli

        monkeypatch.setattr(cli, "_setup", lambda args: (self.PRED, self.SPACE, self.UTIL, None))
        argv = ["explain", "--predictor", "linear", "--instance", "[0.5,0.5,0.5,0.5]",
                "--method", "ciu", "--samples", "20", "--seed", "1",
                "--format", "csv", "--output-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        assert (tmp_path / "explain_report.csv").read_text(encoding="utf-8").splitlines() == [
            "method,feature,influence,ci,cu,ymin,ymax,flags",
            f"ciu,x1,{self.INFLUENCE_X1!r},1.2,{self.CU_X1!r},0.5,1.7,instability",
        ] + [f"ciu,{name},-0.0,0.0,0.0,1.1,1.1,degenerate instability" for name in ("x2", "x3", "x4")]
