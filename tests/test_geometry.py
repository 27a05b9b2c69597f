import hashlib
import itertools
import json
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dtpca import geometry, synthetic
from dtpca.geometry import delaunay
from oracles import average_relative_area, relative_areas, triangle_area


# --- in_circumcircle -------------------------------------------------------

def test_incircle_inside():
    assert oracles.in_circumcircle((0, 0), (1, 0), (0, 1), (0.5, 0.5)) == "inside"


def test_incircle_on():
    # (1, 1) is diametrically opposite (0, 0) on the circumcircle.
    assert oracles.in_circumcircle((0, 0), (1, 0), (0, 1), (1, 1)) == "on"


def test_incircle_outside():
    assert oracles.in_circumcircle((0, 0), (1, 0), (0, 1), (2, 2)) == "outside"


def test_incircle_near_cocircular_is_not_on():
    # 2**-44 off the circle: a relative tolerance band used to call it "on".
    assert oracles.in_circumcircle((0, 0), (1, 0), (0, 1), (1, 1 + 2**-44)) == "outside"
    assert oracles.in_circumcircle((0, 0), (1, 0), (0, 1), (1, 1 - 2**-44)) == "inside"


def test_incircle_collinear_raises():
    with pytest.raises(ValueError):
        oracles.in_circumcircle((0, 0), (1, 1), (2, 2), (0, 1))


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
        base = oracles.in_circumcircle(a, b, c, p)
    except ValueError:
        with pytest.raises(ValueError):
            oracles.in_circumcircle(tri[perm[0]], tri[perm[1]], tri[perm[2]], p)
        return
    assert oracles.in_circumcircle(tri[perm[0]], tri[perm[1]], tri[perm[2]], p) == base


@settings(max_examples=300, deadline=None)
@given(
    grid=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=4, max_size=4),
    shifts=st.lists(st.integers(0, 8), min_size=4, max_size=4),
    scale=st.integers(-1070, 1000),
    offset=st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 60)),
)
def test_exact_sign_matches_integer_oracle(grid, shifts, scale, offset):
    # The exact stage on small-grid triples and quads, each point scaled by
    # its own power of two near 2**scale and all offset by another one, so
    # one predicate mixes denominators from 1 to 2**1070.  Grid points make
    # exact zeros common, and no float filter may decide them.
    ox, oy, rise = offset
    o = min(scale + rise, 1010)
    pts = [
        (math.ldexp(gx, scale + k) + math.ldexp(ox, o), math.ldexp(gy, scale + k) + math.ldexp(oy, o))
        for (gx, gy), k in zip(grid, shifts)
    ]
    coords = [v for p in pts for v in p]
    q = oracles.exact_points(pts)
    orient = oracles.orient_raw(*q[:3])
    incircle = oracles.incircle_exact(*q)
    assert geometry._sign(geometry._orient_det, *coords[:6]) == (orient > 0) - (orient < 0)
    assert geometry._sign(geometry._incircle_det, *coords) == (incircle > 0) - (incircle < 0)


# --- scalar descriptor chain ------------------------------------------------

def test_edge_length_345():
    assert oracles.edge_length((0, 0), (3, 4)) == 5.0


def test_edge_length_zero():
    assert oracles.edge_length((1, 1), (1, 1)) == 0.0


def test_edge_length_diagonal():
    assert oracles.edge_length((0, 0), (1, 1)) == pytest.approx(math.sqrt(2), rel=1e-15)


@given(
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
)
def test_edge_length_symmetric(p, q):
    assert oracles.edge_length(p, q) == oracles.edge_length(q, p)
    assert oracles.edge_length(p, q) >= 0.0


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
    heron = triangle_area(oracles.edge_length(a, b), oracles.edge_length(b, c), oracles.edge_length(c, a))
    shoelace = oracles.triangle_shoelace(a, b, c)
    scale = max(oracles.edge_length(a, b), oracles.edge_length(b, c), oracles.edge_length(c, a), 1.0)
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


@pytest.mark.parametrize(
    "pts, message",
    [
        # 0.0 and -0.0 are equal, so the pair keeps its input order and the
        # first of it in sorted order is named, with its zero.
        ([(0.0, 1.0), (-0.0, 1.0), (1.0, 0.0)], "duplicate point (0.0, 1.0)"),
        ([(-0.0, 1.0), (0.0, 1.0), (1.0, 0.0)], "duplicate point (-0.0, 1.0)"),
        ([(0.0, -0.0), (-0.0, 0.0), (1.0, 0.0)], "duplicate point (0.0, -0.0)"),
        # Of two pairs, the one that comes first in sorted order.
        ([(5, 5), (3, 0), (1, 2), (5, 5), (0, 4), (1, 2)], "duplicate point (1.0, 2.0)"),
        # A pair met once the mesh is 2D.
        ([(0, 0), (1, 0), (0, 1), (3, 3), (2, 5), (3, 3)], "duplicate point (3.0, 3.0)"),
        # Collinear points that hold a pair: the pair is reported.
        ([(0, 0), (1, 1), (2, 2), (1, 1)], "duplicate point (1.0, 1.0)"),
        ([(2, 2), (0, 0), (2, 2)], "duplicate point (2.0, 2.0)"),
    ],
)
def test_delaunay_duplicate_names_the_first_of_the_pair(pts, message):
    with pytest.raises(ValueError) as info:
        delaunay(np.array(pts, dtype=float))
    assert str(info.value) == message


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


# The 12 integer points on the radius-5 circle, all exactly cocircular.
CIRCLE_5 = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
            (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]


@pytest.mark.parametrize("seed", range(6))
def test_delaunay_cocircular_polygon_is_fan_from_lowest_label(seed):
    # The tie-break's only fixpoint is the fan from the lowest label, so the
    # mesh cannot depend on the insertion order or on how legalize left it.
    perm = np.random.default_rng(seed).permutation(12)  # perm[k] labels CIRCLE_5[k]
    pts = np.empty((12, 2))
    pts[perm] = CIRCLE_5
    ring = perm.tolist()  # labels in angular order
    start = ring.index(0)
    ring = ring[start:] + ring[:start]
    fan = sorted(tuple(sorted((0, a, b))) for a, b in zip(ring[1:], ring[2:]))
    assert delaunay(pts).triangles == fan


def test_delaunay_many_cocircular_points_valid():
    angles = 2 * np.pi * np.arange(8) / 8
    pts = np.column_stack([np.cos(angles), np.sin(angles)])
    tri = delaunay(pts)
    assert oracles.exact_violations(pts, tri.triangles) == []
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
    pts=st.integers(2, 40).flatmap(
        lambda side: st.lists(
            st.tuples(st.integers(0, side), st.integers(0, side)),
            min_size=3,
            max_size=14,
            unique=True,
        )
    )
)
def test_delaunay_properties_on_grids(pts):
    # Integer grids exercise exact collinear and cocircular degeneracies;
    # small ones are dense with cocircular quads, which the tie rule decides.
    arr = np.array(pts, dtype=float)
    try:
        tri = delaunay(arr)
    except ValueError:
        # Only an all-collinear set may be rejected.
        assert oracles.all_collinear(arr)
        return
    assert oracles.exact_violations(arr, tri.triangles) == []
    assert oracles.tie_rule_violations(arr, tri.triangles) == []
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
        # Only a collinear set, a scaled one whose areas overflow, or one
        # whose every area is below the smallest double may be rejected.
        overflow = family is scaled_clouds and "area" in str(exc)
        assert oracles.all_collinear(pts) or overflow or oracles.max_area_underflows(pts), exc
        return
    assert {i for t in tri.triangles for i in t} == set(range(len(pts)))
    assert oracles.exact_violations(pts, tri.triangles) == []
    # Heron's formula rounds slivers to 0, but no mesh triangle is
    # degenerate: an area is 0 only where the exact area rounds to 0.
    for t, area in zip(tri.triangles, tri.areas):
        assert area > 0 or float(oracles.exact_area(*pts[list(t)])) == 0


@pytest.mark.parametrize(
    "place",
    [
        lambda p: p,
        lambda p: 1e8 + p,
        lambda p: p * (1e78, 1e75),
        lambda p: p * 1e150,
        lambda p: p * 1e-150,
    ],
    ids=["unit", "offset-1e8", "strip-1e78x1e75", "scale-1e150", "scale-1e-150"],
)
@settings(max_examples=60, deadline=None)
@given(pts=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=4, max_size=6))
def test_static_bounds_cover_every_filter_bound(place, pts):
    # A sign the per-mesh bound decides is exact only if that bound covers
    # Shewchuk's error bound, the coefficient times the double permanent
    # plus TINY, for any 3 or 4 points of the set, in any order.  An
    # overflow may only make it inf.
    def orient_permanent(ax, ay, bx, by, cx, cy):
        return abs((ax - cx) * (by - cy)) + abs((ay - cy) * (bx - cx))

    def incircle_permanent(ax, ay, bx, by, cx, cy, px, py):
        diffs = (ax - px, ay - py, bx - px, by - py, cx - px, cy - py)
        adx, ady, bdx, bdy, cdx, cdy = map(abs, diffs)
        return (
            (adx * adx + ady * ady) * (bdx * cdy + cdx * bdy)
            + (bdx * bdx + bdy * bdy) * (cdx * ady + adx * cdy)
            + (cdx * cdx + cdy * cdy) * (adx * bdy + bdx * ady)
        )

    pts = place(np.array(pts))
    static = geometry._static_bounds(pts[:, 0].tolist(), pts[:, 1].tolist())
    kernels = ((orient_permanent, geometry.ORIENT_BOUND, 3),
               (incircle_permanent, geometry.INCIRCLE_BOUND, 4))
    for (permanent, bound, arity), mesh_bound in zip(kernels, static):
        idx = np.array(list(itertools.permutations(range(len(pts)), arity)))
        with np.errstate(over="ignore", invalid="ignore"):
            perm = permanent(*(pts[idx[:, k], axis] for k in range(arity) for axis in (0, 1)))
            call_bound = bound * perm + geometry.TINY
        assert not math.isnan(mesh_bound)
        assert mesh_bound == math.inf or np.all(call_bound <= mesh_bound)


def test_delaunay_mesh_bound_decides_the_synthetic_clouds(monkeypatch):
    # On the 135 paper-scale clouds of each scheme the per-mesh bounds
    # decide every sign, and no area needs the exact determinant, so the
    # exact integer stage never runs.
    calls = []
    for name in ("_sign", "_as_integers"):
        kernel = getattr(geometry, name)
        monkeypatch.setattr(geometry, name, lambda *c, k=kernel, n=name: calls.append(n) or k(*c))
    for scheme in (68, 79, 194):
        for si in range(15):
            for vi in range(9):
                delaunay(synthetic._landmark_cloud(si, vi, scheme, 0))
    assert calls == []


def test_exact_violations_prepass_matches_cell_enumeration():
    # The oracle's float pre-pass may only defer a cell to integers, never
    # decide it wrongly.  Reference: strictly_inside on every cell.  Wrong
    # meshes come from triangulating a jittered copy of the points.  On
    # 1e-14-jittered grids and on near-collinear chains with an apex, some
    # cells' float determinants have the wrong sign.
    def enumerated(points, triangles):
        q = oracles.exact_points(points)
        return [
            (t, m)
            for t, (i, j, k) in enumerate(triangles)
            for m in range(len(q))
            if m not in (i, j, k) and oracles.strictly_inside(q[i], q[j], q[k], q[m])
        ]

    rng = np.random.default_rng(77)
    grid = np.array([(x, y) for x in range(7) for y in range(7)], dtype=float)
    cases = []
    for _ in range(20):
        pts = rng.uniform(0, 100, size=(int(rng.integers(6, 60)), 2))
        cases.append((pts, delaunay(pts + rng.normal(0, 3, size=pts.shape))))
        pts, other = (grid + rng.uniform(-1e-14, 1e-14, size=grid.shape) for _ in range(2))
        cases.append((pts, delaunay(other)))
        x = np.sort(rng.uniform(0, 10, size=15))
        chain = np.column_stack([x, 0.5 * x + 1.0 + rng.uniform(-1e-14, 1e-14, size=15)])
        pts = np.vstack([chain, rng.uniform(-10, 20, size=(1, 2))])
        cases.append((pts, delaunay(pts)))
    wrong = 0
    for pts, tri in cases:
        expected = enumerated(pts, tri.triangles)
        assert oracles.exact_violations(pts, tri.triangles) == expected
        wrong += bool(expected)
    assert wrong >= 30


def test_delaunay_random_suite_validity_counts_areas():
    rng = np.random.default_rng(20240528)
    for _ in range(60):
        n = int(rng.integers(4, 120))
        pts = rng.uniform(0, 1000, size=(n, 2))
        tri = delaunay(pts)
        assert oracles.exact_violations(pts, tri.triangles) == []
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


@pytest.mark.parametrize("scheme", [68, 79, 194])
def test_delaunay_synthetic_clouds_exactly_delaunay(scheme):
    for si, vi in ((0, 0), (14, 9)):
        pts = synthetic._landmark_cloud(si, vi, scheme, 0)
        tri = delaunay(pts)
        assert oracles.exact_violations(pts, tri.triangles) == []
        assert {i for t in tri.triangles for i in t} == set(range(scheme))


def test_delaunay_synthetic_clouds_byte_identical():
    # Pins the meshes and areas of the 450 synthetic clouds: any change to
    # the triangulation or to the area arithmetic changes this digest.
    digest = hashlib.sha256()
    for scheme in (68, 79, 194):
        for si in range(15):
            for vi in range(10):
                tri = delaunay(synthetic._landmark_cloud(si, vi, scheme, 0))
                digest.update(repr(tri.triangles).encode())
                digest.update(tri.areas.tobytes())
                digest.update(tri.average_relative_area.hex().encode())
    assert digest.hexdigest() == (
        "0ae3250b23d41a8d1243c887f9efb65edf443e6fbd7170ae3762803a8117e909"
    )


def test_delaunay_gallery_scan_clouds_byte_identical():
    # Pins the meshes and areas of the seed-1 68-point clouds of 96
    # subjects and 8 variants, as gallery_scan makes them.  From subject 35
    # on, ay = 70 - 2 si flattens the ellipse (350 x 2.2 at 35) and then
    # mirrors it, shapes the 15 subjects above never reach.
    digest = hashlib.sha256()
    for si in range(96):
        for vi in range(8):
            tri = delaunay(synthetic._landmark_cloud(si, vi, 68, 1))
            digest.update(repr(tri.triangles).encode())
            digest.update(tri.areas.tobytes())
            digest.update(tri.average_relative_area.hex().encode())
    assert digest.hexdigest() == (
        "7b828e615807153177a6ea176db25e20260682eceb7a0b959ae1282d91737341"
    )


def test_delaunay_meshes_the_same_on_many_threads_at_once(monkeypatch):
    # Four threads, more than the cores, mesh sets of 3 to 194 points at
    # once, many times.  Each round starts from empty halfedge step tables,
    # so the larger meshes grow them while the others read them.  Every
    # mesh must be the one a single thread makes.
    sets = [np.array([(0, 0), (1, 0), (0, 1)], dtype=float)]
    sets += [synthetic._landmark_cloud(0, 0, scheme, 0) for scheme in (68, 79, 194)]
    expected = [(t.triangles, t.areas.tobytes()) for t in map(delaunay, sets)]
    meshes = [[] for _ in sets]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(geometry, "_STEPS", geometry._halfedge_steps(0))
            start = threading.Barrier(len(sets), timeout=60)

            def run(k):
                start.wait()
                for _ in range(5):
                    tri = delaunay(sets[k])
                    meshes[k].append((tri.triangles, tri.areas.tobytes()))

            threads = [threading.Thread(target=run, args=(k,), daemon=True)
                       for k in range(len(sets))]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 60
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
    assert [len(m) for m in meshes] == [50] * len(sets)
    assert all(mesh == expected[k] for k, runs in enumerate(meshes) for mesh in runs)


def test_delaunay_integer_synthetic_clouds_byte_identical():
    # The seed-0 clouds rounded to integers, duplicates dropped: landmark
    # files in pixel units, whose quads are often exactly cocircular.  Pins
    # their meshes, so the tie rule at landmark scale, and their areas.
    digest = hashlib.sha256()
    for scheme in (68, 79, 194):
        for si in range(15):
            for vi in range(9):
                pts = _distinct(np.round(synthetic._landmark_cloud(si, vi, scheme, 0)))
                tri = delaunay(pts)
                digest.update(repr(tri.triangles).encode())
                digest.update(tri.areas.tobytes())
                digest.update(tri.average_relative_area.hex().encode())
    assert digest.hexdigest() == (
        "38088f22a89f8d80fa02d5f9ed67abd615adc5bea71c56ae9c4863bdc461e5ab"
    )


def _degenerate_sets():
    rng = np.random.default_rng(2024)
    grid = np.array([(x, y) for x in range(6) for y in range(5)], dtype=float)
    unit = rng.uniform(0, 1, size=(20, 2))
    x = np.sort(rng.uniform(0, 10, size=15))
    chain = np.column_stack([x, 0.5 * x + 1.0 + rng.uniform(-1e-13, 1e-13, size=15)])
    sets = [rng.uniform(0, 1000, size=(n, 2)) for n in (3, 7, 40, 120)]
    sets += [grid] + [grid[rng.permutation(len(grid))] for _ in range(3)]
    sets += [grid + rng.uniform(-1e-14, 1e-14, size=grid.shape) for _ in range(3)]
    sets += [np.vstack([chain, apex]) for apex in ((5.0, 4.0), (5.0, -2.0), (20.0, 11.0))]
    sets += [np.array(CIRCLE_5, dtype=float)[rng.permutation(12)] for _ in range(4)]
    sets += [unit * scale for scale in (1e150, 1e-150, (1e78, 1e75))]
    return sets


def test_delaunay_degenerate_inputs_byte_identical():
    # Pins meshes and areas where the exact stages decide: uniform sets,
    # integer grids and shuffles of them (cocircular ties), 1e-14-jittered
    # grids, near-collinear chains with an apex (slivers whose Heron area
    # rounds to 0, so their exact areas are pinned), relabelled radius-5
    # circles, and scalings that make a per-mesh bound inf (1e150 and the
    # 1e78 strip) or underflow (1e-150).
    # The 1e150 set's areas overflow, so its error message is pinned.
    digest = hashlib.sha256()
    for pts in _degenerate_sets():
        try:
            tri = delaunay(pts)
        except ValueError as exc:
            digest.update(str(exc).encode())
            continue
        digest.update(repr(tri.triangles).encode())
        digest.update(tri.areas.tobytes())
        digest.update(tri.average_relative_area.hex().encode())
    assert digest.hexdigest() == (
        "86c595eeae4d363d3d441fbb2be0cafd8d9db9cfc4d9ce6ba01b21d122e9adbb"
    )


def test_delaunay_sliver_areas_are_exact():
    # Where Heron's formula rounds a mesh triangle's area to 0, the area is
    # the exact half orientation determinant, rounded once.
    slivers = 0
    for pts in _degenerate_sets():
        try:
            tri = delaunay(pts)
        except ValueError:
            continue
        for t, area in zip(tri.triangles, tri.areas):
            a, b, c = pts[list(t)]
            if triangle_area(*(math.hypot(*d) for d in (a - b, b - c, c - a))) == 0:
                slivers += 1
                assert area == float(oracles.exact_area(a, b, c))
    assert slivers > 0


def test_delaunay_areas_follow_the_scalar_heron_chain():
    # Edge lengths are math.hypot's: on this set np.hypot rounds some mesh
    # edges differently, and the areas still equal the scalar chain's bits.
    pts = np.random.default_rng(5).uniform(0, 100, size=(8, 2))
    tri = delaunay(pts)
    differs = 0
    for (a, b, c), area in zip(tri.triangles, tri.areas):
        sides = [pts[p] - pts[q] for p, q in ((a, b), (b, c), (c, a))]
        lengths = [math.hypot(*d) for d in sides]
        differs += sum(length != np.hypot(*d) for length, d in zip(lengths, sides))
        assert float(area).hex() == float(triangle_area(*lengths)).hex()
    assert differs > 0


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
