import numpy as np
import pytest

from lanespace import SamplingGrid, SyntheticSpec, generate_synthetic, resample_polyline
from lanespace.synth import _s_curve_lanes


def reference_s_curve_lanes(rng, spec, bottoms, y_tops):
    """Reference S-curve integrator that clamps the slope with np.clip."""
    _, h = spec.image_size
    k1 = rng.uniform(*spec.curvature_range) * (1.0 if rng.random() < 0.5 else -1.0)
    k2 = -k1 * rng.uniform(0.8, 1.2)
    slope0 = rng.uniform(-0.15, 0.15)
    span_top = min(y_tops)
    y_inflect = rng.uniform(span_top + 0.25 * (h - 1 - span_top), h - 1 - 0.25 * (h - 1 - span_top))
    step = 4.0
    ys = np.arange(h - 1.0, span_top, -step)
    xs_rel = np.empty_like(ys)
    xs_rel[0] = 0.0
    m = slope0
    for i in range(1, len(ys)):
        k = k1 if ys[i - 1] > y_inflect else k2
        m = m - k * (1.0 + m * m) ** 1.5 * (-step)
        m = float(np.clip(m, -2.5, 2.5))
        xs_rel[i] = xs_rel[i - 1] + m * (ys[i] - ys[i - 1])
    lanes = []
    for xb, y_top in zip(bottoms, y_tops):
        keep = ys > y_top
        lanes.append(np.column_stack([xb + xs_rel[keep], ys[keep]]))
    return lanes


@pytest.fixture(scope="module")
def default_spec():
    return SyntheticSpec(count=60, seed=123)


@pytest.fixture(scope="module")
def records(default_spec):
    return generate_synthetic(default_spec)


class TestGenerateSynthetic:
    def test_count_and_lane_budget(self, records):
        assert len(records) == 60
        for record in records:
            assert 1 <= len(record.lanes) <= 5
            assert record.category in ("straight", "arc", "s_curve")

    def test_same_seed_bit_identical(self, default_spec):
        a = generate_synthetic(default_spec)
        b = generate_synthetic(default_spec)
        for ra, rb in zip(a, b):
            assert ra.image_id == rb.image_id
            assert ra.category == rb.category
            assert len(ra.lanes) == len(rb.lanes)
            for la, lb in zip(ra.lanes, rb.lanes):
                assert np.array_equal(la, lb)

    def test_different_seed_differs(self, default_spec, records):
        other = generate_synthetic(SyntheticSpec(count=60, seed=124))
        assert any(
            not np.array_equal(a.lanes[0], b.lanes[0])
            for a, b in zip(records, other)
        )

    def test_straight_family_zero_second_difference(self):
        spec = SyntheticSpec(count=25, seed=5, weights=(1.0, 0.0, 0.0))
        grid = SamplingGrid.uniform(1280, 720, 50)
        for record in generate_synthetic(spec):
            assert record.category == "straight"
            for lane in record.resampled(grid):
                assert np.max(np.abs(np.diff(lane.xs, n=2))) <= 1e-6

    def test_arc_family_matches_analytic_circle(self):
        spec = SyntheticSpec(count=20, seed=9, weights=(0.0, 1.0, 0.0))
        grid = SamplingGrid.uniform(1280, 720, 50)
        for record in generate_synthetic(spec):
            assert record.category == "arc"
            for poly in record.lanes:
                lane = resample_polyline(poly, grid)
                # recover the circle from three annotated points
                p0, p1, p2 = poly[0], poly[len(poly) // 2], poly[-1]
                cx, cy, radius = circle_through(p0, p1, p2)
                valid = lane.valid_points()
                distances = np.hypot(valid[:, 0] - cx, valid[:, 1] - cy)
                assert np.max(np.abs(distances - radius)) <= 0.5

    def test_s_curve_has_inflection(self):
        spec = SyntheticSpec(count=15, seed=31, weights=(0.0, 0.0, 1.0))
        found_sign_change = 0
        for record in generate_synthetic(spec):
            assert record.category == "s_curve"
            poly = record.lanes[0]
            xs, ys = poly[:, 0], poly[:, 1]
            second = np.diff(xs, n=2)
            signs = np.sign(second[np.abs(second) > 1e-6])
            if signs.size and signs.min() < 0 < signs.max():
                found_sign_change += 1
        assert found_sign_change >= 12  # short lanes may clip one arm

    @pytest.mark.parametrize("curvature_range", [(1.8e-3, 3.5e-3), (0.02, 0.03)])
    def test_s_curve_bit_equal_to_clip_reference(self, curvature_range):
        spec = SyntheticSpec(count=1, curvature_range=curvature_range)
        clamped = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            bottoms = rng.uniform(200.0, 1000.0, size=3)
            y_tops = rng.uniform(250.0, 330.0, size=3)
            state = rng.bit_generator.state
            want = reference_s_curve_lanes(rng, spec, bottoms, y_tops)
            rng.bit_generator.state = state
            got = _s_curve_lanes(rng, spec, bottoms, y_tops)
            assert [lane.tobytes() for lane in got] == [lane.tobytes() for lane in want]
            slopes = np.abs(np.diff(want[0][:, 0]) / np.diff(want[0][:, 1]))
            clamped += bool(np.any(np.isclose(slopes, 2.5)))
        assert clamped > 0  # some records reach the +-2.5 slope clamp

    def test_lanes_inside_image(self, records):
        for record in records:
            w, h = record.image_size
            for poly in record.lanes:
                assert poly[:, 0].min() >= 0
                assert poly[:, 0].max() <= w - 1
                assert poly[:, 1].min() >= 0
                assert poly[:, 1].max() <= h - 1

    def test_mutual_spacing_positive(self, records):
        for record in records:
            if len(record.lanes) < 2:
                continue
            bottoms = sorted(poly[0, 0] for poly in record.lanes)
            gaps = np.diff(bottoms)
            assert np.all(gaps > 60.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            SyntheticSpec(count=1, weights=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            SyntheticSpec(count=0)


def circle_through(p0, p1, p2):
    """Center and radius of the circle through three points."""
    ax, ay = p0
    bx, by = p1
    cx, cy = p2
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = (
        (ax**2 + ay**2) * (by - cy)
        + (bx**2 + by**2) * (cy - ay)
        + (cx**2 + cy**2) * (ay - by)
    ) / d
    uy = (
        (ax**2 + ay**2) * (cx - bx)
        + (bx**2 + by**2) * (ax - cx)
        + (cx**2 + cy**2) * (bx - ax)
    ) / d
    return ux, uy, float(np.hypot(ax - ux, ay - uy))
