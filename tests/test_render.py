import re
from pathlib import Path

import numpy as np
import pytest

from lanespace import DatasetRecord, IoError, LaneLayer, SamplingGrid, render_svg

GOLDEN = Path(__file__).parent / "golden" / "two_layer_scene.svg"


def fixture_scene():
    """Deterministic two-layer scene shared with the committed golden file."""
    grid = SamplingGrid.uniform(320, 240, 12, y_bottom=238.0, y_top=90.0)
    record = DatasetRecord(
        "fixture_scene",
        (320, 240),
        [np.array([[90.0, 238.0], [110.0, 150.0], [150.0, 95.0]])],
    )
    gt = record.resampled(grid)
    from lanespace import Lane

    detection = Lane(gt[0].xs + 6.0, 9, grid)
    layers = [
        LaneLayer("ground truth", gt, "#00b7c2"),
        LaneLayer("detections", [detection], "#ff5d73", stroke_width=1.5, dash="6,4"),
    ]
    return record, layers


class TestRenderSvg:
    def test_no_lanes_still_valid_frame(self, tmp_path):
        record = DatasetRecord("empty", (100, 80), [])
        path = tmp_path / "empty.svg"
        render_svg(record, [], path)
        text = path.read_text()
        assert text.startswith("<?xml")
        assert "<svg" in text and "</svg>" in text
        assert "<polyline" not in text

    def test_single_lane_single_polyline(self, grid, make_vertical, tmp_path):
        record = DatasetRecord("one", (1280, 720), [])
        lane = make_vertical(400.0)
        path = tmp_path / "one.svg"
        render_svg(record, [LaneLayer("gt", [lane], "#fff")], path)
        text = path.read_text()
        polylines = re.findall(r"<polyline points=\"([^\"]*)\"", text)
        assert len(polylines) == 1
        assert len(polylines[0].split()) == grid.n_samples

    def test_byte_identical_runs(self, tmp_path):
        record, layers = fixture_scene()
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        render_svg(record, layers, a)
        render_svg(record, layers, b)
        assert a.read_bytes() == b.read_bytes()

    def test_matches_committed_golden_file(self, tmp_path):
        record, layers = fixture_scene()
        out = tmp_path / "scene.svg"
        render_svg(record, layers, out)
        assert out.read_bytes() == GOLDEN.read_bytes()

    def test_markup_in_names_is_escaped(self, tmp_path):
        record = DatasetRecord('a<b&"c"', (100, 80), [])
        path = tmp_path / "escaped.svg"
        render_svg(record, [LaneLayer('x"><g id="y', [], "#fff")], path)
        text = path.read_text()
        assert "<title>a&lt;b&amp;&quot;c&quot;</title>" in text
        assert '<g id="x&quot;&gt;&lt;g id=&quot;y">' in text
        assert "x&quot;&gt;&lt;g id=&quot;y (0)</text>" in text

    def test_unwritable_path_raises_io_error(self):
        record, layers = fixture_scene()
        with pytest.raises(IoError):
            render_svg(record, layers, "/nonexistent-dir/out.svg")
