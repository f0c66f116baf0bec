import math

import numpy as np
import pytest

from advdrive.geometry import (
    Polyline,
    Rect,
    Segments,
    normalize_angle,
    obb_corners,
    obb_overlap,
    smooth_corners,
)


def test_normalize_angle_range():
    for theta in np.linspace(-20, 20, 401):
        w = normalize_angle(float(theta))
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(theta), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(theta), abs_tol=1e-12)


def test_normalize_angle_pi_maps_to_pi():
    assert normalize_angle(-math.pi) == pytest.approx(math.pi)
    assert normalize_angle(math.pi) == pytest.approx(math.pi)


def test_polyline_length_and_projection():
    line = Polyline([[0, 0], [10, 0], [10, 5]])
    assert line.length == pytest.approx(15.0)
    arc, dist = line.project((3, 2))
    assert arc == pytest.approx(3.0)
    assert dist == pytest.approx(2.0)
    arc, dist = line.project((10, 4))
    assert arc == pytest.approx(14.0)
    assert dist == pytest.approx(0.0)
    arc, dist = line.project((3, -1))
    assert line.length - arc == pytest.approx(12.0)
    assert dist == pytest.approx(1.0)


def test_polyline_projection_clamps_to_ends():
    line = Polyline([[0, 0], [10, 0]])
    arc, dist = line.project((-4, 3))
    assert arc == 0.0
    assert dist == pytest.approx(5.0)
    arc, dist = line.project((14, 0))
    assert arc == pytest.approx(10.0)
    assert dist == pytest.approx(4.0)


def test_polyline_distance_field_matches_scalar_projection(rng):
    line = Polyline([[0, 0], [5, 1], [9, -2], [15, 4]])
    xs = rng.uniform(-2, 17, size=40)
    ys = rng.uniform(-5, 6, size=40)
    field = line.segments.distance_to_points(xs, ys)
    for x, y, d in zip(xs, ys, field):
        _, expected = line.project((x, y))
        assert d == pytest.approx(expected, abs=1e-12)
    # the union of two polylines' segments gives the nearer one's distance, bit for bit
    other = Polyline([[-1, 5], [16, 3]])
    both = Segments.union([line, other]).distance_to_points(xs, ys)
    assert np.array_equal(both, np.minimum(field, other.segments.distance_to_points(xs, ys)))


def test_polyline_rejects_degenerate_input():
    with pytest.raises(ValueError):
        Polyline([[0, 0]])
    with pytest.raises(ValueError):
        Polyline([[0, 0], [0, 0]])


def test_rect_contains():
    r = Rect(0, 0, 10, 4)
    assert r.contains(0, 0) and r.contains(10, 4)
    assert not r.contains(10.01, 2)
    mask = r.contains_points(np.array([1.0, -1.0]), np.array([1.0, 1.0]))
    assert mask.tolist() == [True, False]


def test_smooth_corners_stays_near_legs_and_shortcuts_corner():
    route = smooth_corners([(10, 0), (0, 0), (0, 10)], radius=3.0)
    # the arc cuts inside the corner: no point is at the corner itself
    dists = np.hypot(route.points[:, 0], route.points[:, 1])
    assert dists.min() > 1.0
    # endpoints preserved
    assert np.allclose(route.points[0], (10, 0))
    assert np.allclose(route.points[-1], (0, 10))
    # total length is shorter than the sharp corner, longer than the chord
    assert route.length < 20.0
    assert route.length > math.hypot(10, 10)


def test_obb_corners_axis_aligned():
    corners = obb_corners(0, 0, 0.0, 4.0, 2.0)
    xs = sorted(c[0] for c in corners)
    ys = sorted(c[1] for c in corners)
    assert xs == pytest.approx([-2, -2, 2, 2])
    assert ys == pytest.approx([-1, -1, 1, 1])


@pytest.mark.parametrize(
    "pose_b,expected",
    [
        ((3.0, 0.0, 0.0), True),  # overlapping along x
        ((4.6, 0.0, 0.0), False),  # just separated
        ((0.0, 1.9, 0.0), True),
        ((0.0, 2.1, 0.0), False),
        ((3.2, 0.0, math.pi / 4), True),  # rotated box reaches closer
        ((4.4, 0.0, math.pi / 2), False),  # rotated to be narrow along x
    ],
)
def test_obb_overlap_cases(pose_b, expected):
    a = obb_corners(0, 0, 0.0, 4.5, 2.0)
    b = obb_corners(pose_b[0], pose_b[1], pose_b[2], 4.5, 2.0)
    assert obb_overlap(a, b) is expected
    assert obb_overlap(b, a) is expected  # symmetric


def test_obb_overlap_rotated_near_miss():
    # diagonal neighbor: bounding circles overlap but SAT separates
    a = obb_corners(0, 0, 0.0, 4.5, 2.0)
    b = obb_corners(3.4, 2.6, 0.0, 4.5, 2.0)
    assert not obb_overlap(a, b)
