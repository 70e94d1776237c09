import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lanespace import (
    DatasetRecord,
    ParseError,
    SchemaError,
    load_csv,
    load_dataset,
    load_tusimple_jsonl,
    write_csv,
    write_tusimple_jsonl,
)
from lanespace.datasets import load_culane_dir


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestTusimpleLoader:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(
            path,
            [
                json.dumps(
                    {
                        "lanes": [[100, 110, 120]],
                        "h_samples": [400, 410, 420],
                        "raw_file": "clip/1.jpg",
                    }
                )
            ],
        )
        records = load_tusimple_jsonl(path)
        assert len(records) == 1
        assert records[0].image_id == "clip/1.jpg"
        assert len(records[0].lanes) == 1
        assert np.allclose(
            records[0].lanes[0], [[100, 400], [110, 410], [120, 420]]
        )

    def test_missing_markers_dropped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(
            path,
            [
                json.dumps(
                    {
                        "lanes": [[-2, 110, -2, 130]],
                        "h_samples": [400, 410, 420, 430],
                        "raw_file": "a.jpg",
                    }
                )
            ],
        )
        records = load_tusimple_jsonl(path)
        assert np.allclose(records[0].lanes[0], [[110, 410], [130, 430]])

    def test_all_missing_lane_skipped_with_warning(self, tmp_path, caplog):
        path = tmp_path / "data.jsonl"
        write_lines(
            path,
            [
                json.dumps(
                    {
                        "lanes": [[-2, -2, -2], [100, 110, 120]],
                        "h_samples": [400, 410, 420],
                        "raw_file": "a.jpg",
                    }
                )
            ],
        )
        with caplog.at_level("WARNING"):
            records = load_tusimple_jsonl(path)
        assert len(records[0].lanes) == 1
        assert any("skipped" in message for message in caplog.messages)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(
            path,
            [
                json.dumps(
                    {"lanes": [[1, 2]], "h_samples": [10, 20], "raw_file": "x"}
                ),
                "{not json",
            ],
        )
        with pytest.raises(ParseError) as excinfo:
            load_tusimple_jsonl(path)
        assert excinfo.value.line_number == 2

    def test_missing_key_is_schema_error(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(path, [json.dumps({"lanes": [[1, 2]], "raw_file": "x"})])
        with pytest.raises(SchemaError):
            load_tusimple_jsonl(path)

    def test_length_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_lines(
            path,
            [json.dumps({"lanes": [[1, 2, 3]], "h_samples": [10, 20], "raw_file": "x"})],
        )
        with pytest.raises(SchemaError):
            load_tusimple_jsonl(path)

    def test_round_trip(self, tmp_path):
        record = DatasetRecord(
            "img0",
            (1280, 720),
            [
                np.array([[100.5, 700.0], [120.25, 600.0], [140.0, 500.0]]),
                np.array([[400.0, 700.0], [401.0, 650.0]]),
            ],
        )
        path = tmp_path / "rt.jsonl"
        write_tusimple_jsonl([record], path)
        loaded = load_tusimple_jsonl(path)
        assert len(loaded) == 1
        assert len(loaded[0].lanes) == 2
        # the format keys points by ascending row, so compare canonicalized
        for original, reloaded in zip(record.lanes, loaded[0].lanes):
            a = original[np.argsort(original[:, 1])]
            b = reloaded[np.argsort(reloaded[:, 1])]
            assert np.array_equal(a, b)

    def test_out_of_bounds_points_clipped_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            record = DatasetRecord(
                "img0", (100, 100), [np.array([[110.0, 50.0], [50.0, 99.0]])]
            )
        assert record.lanes[0][:, 0].max() <= 99.0
        assert any("clipped" in message for message in caplog.messages)

    @settings(max_examples=40, deadline=None)
    @given(garbage=st.text(max_size=60))
    def test_fuzzed_lines_never_yield_invalid_records(self, tmp_path_factory, garbage):
        path = tmp_path_factory.mktemp("fuzz") / "data.jsonl"
        path.write_text(garbage + "\n", encoding="utf-8")
        try:
            records = load_tusimple_jsonl(path)
        except (ParseError, SchemaError, ValueError):
            return
        for record in records:
            for poly in record.lanes:
                assert poly.shape[0] >= 2
                assert np.all(np.isfinite(poly))


class TestCsvLoader:
    def test_round_trip(self, tmp_path):
        record = DatasetRecord(
            "img0",
            (640, 480),
            [np.array([[10.0, 400.0], [30.0, 300.0], [55.5, 200.0]])],
        )
        path = tmp_path / "rt.csv"
        write_csv([record], path)
        loaded = load_csv(path, (640, 480))
        assert len(loaded) == 1
        assert np.array_equal(loaded[0].lanes[0], record.lanes[0])

    def test_interleaved_images_keep_first_appearance_order(self, tmp_path):
        path = tmp_path / "mixed.csv"
        write_lines(
            path,
            [
                "image_id,lane_id,x,y",
                "b,1,10,400",
                "a,0,20,400",
                "b,0,30,400",
                "a,0,21,300",
                "b,1,11,300",
                "c,0,40,400",
                "b,0,31,300",
                "c,0,41,300",
            ],
        )
        records = load_csv(path, (640, 480))
        assert [r.image_id for r in records] == ["b", "a", "c"]
        b, a, c = records
        assert np.array_equal(b.lanes[0], [[30, 400], [31, 300]])
        assert np.array_equal(b.lanes[1], [[10, 400], [11, 300]])
        assert np.array_equal(a.lanes[0], [[20, 400], [21, 300]])
        assert np.array_equal(c.lanes[0], [[40, 400], [41, 300]])
        assert [len(r.lanes) for r in records] == [2, 1, 1]

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["image_id,lane_id,x,y", "img0,0,12.5"])
        with pytest.raises(ParseError):
            load_csv(path, (640, 480))

    def test_bad_coordinate(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_lines(path, ["img0,0,twelve,400"])
        with pytest.raises(ParseError):
            load_csv(path, (640, 480))


class TestCulaneLoader:
    def test_per_image_files(self, tmp_path):
        write_lines(
            tmp_path / "0001.lines.txt",
            ["100 589 120 500 140 400", "700 589 690 480"],
        )
        write_lines(tmp_path / "0002.lines.txt", ["300 589 310 300"])
        records = load_culane_dir(tmp_path)
        assert [r.image_id for r in records] == ["0001", "0002"]
        assert len(records[0].lanes) == 2
        assert np.allclose(records[0].lanes[1], [[700, 589], [690, 480]])

    def test_odd_coordinate_count(self, tmp_path):
        write_lines(tmp_path / "0001.lines.txt", ["100 589 120"])
        with pytest.raises(ParseError):
            load_culane_dir(tmp_path)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(ParseError):
            load_culane_dir(tmp_path / "nope")


class TestDispatch:
    def test_unknown_format(self, tmp_path):
        with pytest.raises(SchemaError):
            load_dataset(tmp_path / "x", "parquet")

    def test_csv_requires_image_size(self, tmp_path):
        with pytest.raises(SchemaError):
            load_dataset(tmp_path / "x.csv", "csv")
