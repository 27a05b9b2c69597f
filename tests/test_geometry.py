import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtpca.geometry import (
    average_relative_area,
    delaunay,
    edge_length,
    empty_circumcircle_violations,
    in_circumcircle,
    relative_areas,
    triangle_area,
)


# --- in_circumcircle -------------------------------------------------------

def test_incircle_inside():
    assert in_circumcircle((0, 0), (1, 0), (0, 1), (0.5, 0.5)) == "inside"


def test_incircle_on():
    # (1, 1) is diametrically opposite (0, 0) on the circumcircle.
    assert in_circumcircle((0, 0), (1, 0), (0, 1), (1, 1)) == "on"


def test_incircle_outside():
    assert in_circumcircle((0, 0), (1, 0), (0, 1), (2, 2)) == "outside"


def test_incircle_near_cocircular_is_not_on():
    # 2**-44 off the circle: a relative tolerance band used to call it "on".
    assert in_circumcircle((0, 0), (1, 0), (0, 1), (1, 1 + 2**-44)) == "outside"
    assert in_circumcircle((0, 0), (1, 0), (0, 1), (1, 1 - 2**-44)) == "inside"


def test_incircle_collinear_raises():
    with pytest.raises(ValueError):
        in_circumcircle((0, 0), (1, 1), (2, 2), (0, 1))


@given(
    pts=st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
        min_size=4,
        max_size=4,
        unique=True,
    ),
    perm=st.permutations([0, 1, 2]),
)
def test_incircle_orientation_independent(pts, perm):
    a, b, c, p = [np.array(q, dtype=float) for q in pts]
    tri = [a, b, c]
    try:
        base = in_circumcircle(a, b, c, p)
    except ValueError:
        with pytest.raises(ValueError):
            in_circumcircle(tri[perm[0]], tri[perm[1]], tri[perm[2]], p)
        return
    assert in_circumcircle(tri[perm[0]], tri[perm[1]], tri[perm[2]], p) == base


# --- scalar descriptor chain ------------------------------------------------

def test_edge_length_345():
    assert edge_length((0, 0), (3, 4)) == 5.0


def test_edge_length_zero():
    assert edge_length((1, 1), (1, 1)) == 0.0


def test_edge_length_diagonal():
    assert edge_length((0, 0), (1, 1)) == pytest.approx(math.sqrt(2), rel=1e-15)


@given(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
def test_edge_length_symmetric(p, q):
    assert edge_length(p, q) == edge_length(q, p)
    assert edge_length(p, q) >= 0.0


def test_triangle_area_right():
    assert triangle_area(3, 4, 5) == pytest.approx(6.0, rel=1e-12)


def test_triangle_area_equilateral():
    assert triangle_area(2, 2, 2) == pytest.approx(math.sqrt(3), rel=1e-12)


def test_triangle_area_degenerate():
    assert triangle_area(1, 2, 3) == 0.0


def test_triangle_area_negative_length():
    with pytest.raises(ValueError):
        triangle_area(-1, 2, 2)


def test_triangle_area_inequality_violation():
    with pytest.raises(ValueError):
        triangle_area(1, 1, 5)


def test_triangle_area_clamps_tiny_negative_radicand():
    # Lengths of an exactly degenerate triangle, perturbed at double
    # precision noise level: must clamp to zero, not raise.
    l1 = 1.0
    l2 = 2.0
    assert triangle_area(l1, l2, l1 + l2 - 1e-16) >= 0.0


@given(
    a=st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
    b=st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
    c=st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
)
def test_heron_matches_shoelace(a, b, c):
    heron = triangle_area(edge_length(a, b), edge_length(b, c), edge_length(c, a))
    shoelace = oracles.triangle_shoelace(a, b, c)
    scale = max(edge_length(a, b), edge_length(b, c), edge_length(c, a), 1.0)
    assert heron == pytest.approx(shoelace, abs=1e-7 * scale**2)


def test_relative_areas_equal():
    assert relative_areas([2, 2, 2]).tolist() == [1, 1, 1]


def test_relative_areas_scaled():
    assert relative_areas([1, 2, 4]).tolist() == [0.25, 0.5, 1.0]


def test_relative_areas_singleton():
    assert relative_areas([6]).tolist() == [1.0]


def test_relative_areas_max_exactly_one():
    ras = relative_areas([0.1, 0.3, 0.7919])
    assert ras.max() == 1.0


def test_relative_areas_errors():
    with pytest.raises(ValueError):
        relative_areas([])
    with pytest.raises(ValueError):
        relative_areas([0.0, 0.0])
    with pytest.raises(ValueError):
        relative_areas([-1.0, 2.0])


def test_average_relative_area_ones():
    assert average_relative_area([1, 1, 1]) == 1.0


def test_average_relative_area_mixed():
    assert average_relative_area([0.25, 0.5, 1]) == pytest.approx(7 / 12, rel=1e-12)


def test_average_relative_area_empty():
    with pytest.raises(ValueError):
        average_relative_area([])


# --- delaunay ---------------------------------------------------------------

def test_delaunay_interior_point_fan():
    # A triangle plus one interior point triangulates as the 3-triangle fan;
    # cross-checked against the brute-force enumeration oracle.
    pts = [(0, 0), (4, 0), (2, 3), (2, 1)]
    tri = delaunay(np.array(pts, dtype=float))
    assert tri.triangles == oracles.brute_force_delaunay(pts)
    assert len(tri.triangles) == 3
    assert all(3 in t for t in tri.triangles)


def test_delaunay_single_triangle():
    tri = delaunay(np.array([(0, 0), (1, 0), (0, 1)], dtype=float))
    assert tri.triangles == [(0, 1, 2)]
    assert tri.average_relative_area == 1.0


def test_delaunay_collinear_raises():
    with pytest.raises(ValueError):
        delaunay(np.array([(0, 0), (1, 0), (2, 0)], dtype=float))


def test_delaunay_duplicate_raises():
    with pytest.raises(ValueError):
        delaunay(np.array([(0, 0), (1, 0), (0, 1), (1, 0)], dtype=float))


def test_delaunay_too_few_points():
    with pytest.raises(ValueError):
        delaunay(np.array([(0, 0), (1, 0)], dtype=float))


def test_delaunay_full_chain_equal_areas():
    # All three fan triangles have shoelace area 2, so every relative area
    # and their average is 1.
    pts = np.array([(0, 0), (4, 0), (2, 3), (2, 1)], dtype=float)
    tri = delaunay(pts)
    for (i, j, k), area in zip(tri.triangles, tri.areas):
        assert area == pytest.approx(oracles.triangle_shoelace(pts[i], pts[j], pts[k]), rel=1e-12)
        assert area == pytest.approx(2.0, rel=1e-12)
    assert tri.average_relative_area == pytest.approx(1.0, abs=1e-12)


def test_delaunay_cocircular_tie_break():
    # All four corners of a rectangle are cocircular; the kept diagonal is
    # the one whose lowest vertex index is smallest, here (0, 3).
    tri = delaunay(np.array([(0, 0), (1, 0), (0, 1), (1, 1)], dtype=float))
    assert tri.triangles == [(0, 1, 3), (0, 2, 3)]


def test_delaunay_cocircular_tie_break_other_labelling():
    # Same rectangle with indices shuffled: diagonal through the lowest
    # index (0) must still win.
    pts = np.array([(1, 1), (0, 0), (1, 0), (0, 1)], dtype=float)
    tri = delaunay(pts)
    assert tri.triangles == [(0, 1, 2), (0, 1, 3)]


def test_delaunay_many_cocircular_points_valid():
    angles = 2 * np.pi * np.arange(8) / 8
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    tri = delaunay(pts)
    assert empty_circumcircle_violations(pts, tri.triangles) == []
    assert len(tri.triangles) == 6
    assert {i for t in tri.triangles for i in t} == set(range(8))


def test_delaunay_deterministic_output():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 100, size=(40, 2))
    a = delaunay(pts)
    b = delaunay(pts.copy())
    assert a.triangles == b.triangles
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


def test_delaunay_rejects_nan():
    with pytest.raises(ValueError):
        delaunay(np.array([(0, 0), (1, 0), (0, float("nan"))]))


@settings(max_examples=60, deadline=None)
@given(
    pts=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40)),
        min_size=3,
        max_size=14,
        unique=True,
    )
)
def test_delaunay_properties_on_grids(pts):
    # Integer grids exercise exact collinear and cocircular degeneracies.
    arr = np.array(pts, dtype=float)
    try:
        tri = delaunay(arr)
    except ValueError:
        # Only an all-collinear set may be rejected.
        assert oracles.all_collinear(arr)
        return
    assert empty_circumcircle_violations(arr, tri.triangles) == []
    assert {i for t in tri.triangles for i in t} == set(range(len(arr)))
    hull = oracles.convex_hull_indices(arr)
    hull_area = oracles.shoelace_area(arr[hull])
    assert tri.areas.sum() == pytest.approx(hull_area, rel=1e-9, abs=1e-9)
    assert tri.relative_areas.max() == 1.0
    assert 0 < tri.average_relative_area <= 1.0


def _distinct(points):
    arr = np.array(points, dtype=float)
    _, first = np.unique(arr, axis=0, return_index=True)
    return arr[np.sort(first)]


@st.composite
def jittered_grids(draw):
    cells = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          min_size=3, max_size=24, unique=True))
    jitter = draw(st.lists(st.floats(-1e-14, 1e-14), min_size=2 * len(cells),
                           max_size=2 * len(cells)))
    return np.array(cells, dtype=float) + np.reshape(jitter, (-1, 2))


@st.composite
def near_collinear(draw):
    xs = draw(st.lists(st.floats(0, 10), min_size=3, max_size=16, unique=True))
    noise = draw(st.lists(st.floats(-1e-13, 1e-13), min_size=len(xs), max_size=len(xs)))
    x = np.array(xs)
    return np.column_stack([x, 0.5 * x + 1.0 + np.array(noise)])


unit_clouds = st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=3, max_size=20)
# 1e150 overflows the in-circle determinant and Heron's formula; the thin
# 1e78 strip overflows the determinant only, so its meshes are returned.
scaled_clouds = st.builds(
    lambda pts, scale: _distinct(np.array(pts) * scale),
    unit_clouds, st.sampled_from([(1e150, 1e150), (1e78, 1e75)]),
)
offset_clouds = unit_clouds.map(lambda pts: _distinct(1e8 + np.array(pts)))


@pytest.mark.parametrize(
    "family", [jittered_grids(), near_collinear(), offset_clouds, scaled_clouds],
    ids=["grid-jitter-1e-14", "near-collinear-1e-13", "offset-1e8", "scaled"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_delaunay_exact_on_degenerate_inputs(family, data):
    # Float predicates with a tolerance band gave non-Delaunay meshes or
    # false "degenerate hull" errors on these; exact arithmetic decides.
    pts = data.draw(family)
    if len(pts) < 3:
        return
    try:
        tri = delaunay(pts)
    except ValueError as exc:
        # Only a collinear set, or one whose Heron areas overflow or all
        # vanish, may be rejected.
        assert oracles.all_collinear(pts) or "area" in str(exc), exc
        return
    assert {i for t in tri.triangles for i in t} == set(range(len(pts)))
    assert oracles.exact_violations(pts, tri.triangles) == []


def test_delaunay_random_suite_validity_counts_areas():
    rng = np.random.default_rng(20240528)
    for _ in range(60):
        n = int(rng.integers(4, 120))
        pts = rng.uniform(0, 1000, size=(n, 2))
        tri = delaunay(pts)
        assert empty_circumcircle_violations(pts, tri.triangles) == []
        assert {i for t in tri.triangles for i in t} == set(range(n))
        hull = oracles.convex_hull_indices(pts)
        h = len(hull)
        edges = {tuple(sorted(e)) for t in tri.triangles for e in ((t[0], t[1]), (t[1], t[2]), (t[0], t[2]))}
        assert len(tri.triangles) == 2 * n - h - 2
        assert len(edges) == 3 * n - h - 3
        hull_area = oracles.shoelace_area(pts[hull])
        assert tri.areas.sum() == pytest.approx(hull_area, rel=1e-9)
        amax = tri.areas.max()
        for (i, j, k), area in zip(tri.triangles, tri.areas):
            reference = oracles.triangle_shoelace(pts[i], pts[j], pts[k])
            if reference > 1e-6 * amax:  # slivers carry no length-based precision
                assert area == pytest.approx(reference, rel=1e-9)


def test_delaunay_similarity_invariance_sample():
    rng = np.random.default_rng(512)
    pts = rng.uniform(0, 200, size=(30, 2))
    base = delaunay(pts)
    for theta, scale, reflect in [(0.7, 3.0, False), (2.1, 0.25, True), (5.5, 1.0, False)]:
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        if reflect:
            rot = rot @ np.diag([1.0, -1.0])
        moved = pts @ (scale * rot).T + np.array([13.0, -40.0])
        tri = delaunay(moved)
        assert tri.triangles == base.triangles
        assert abs(tri.average_relative_area - base.average_relative_area) <= 1e-9


def test_mesh_dict_shape():
    tri = delaunay(np.array([(0, 0), (1, 0), (0, 1)], dtype=float))
    d = tri.to_dict()
    assert set(d) == {"points", "triangles", "areas", "relative_areas", "average_relative_area"}
    assert d["triangles"] == [[0, 1, 2]]
    assert d["average_relative_area"] == 1.0
