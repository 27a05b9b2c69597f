"""Independent reference implementations used to check the library.

Everything here is deliberately brute force and shares no code with the
package: exact predicates in integer arithmetic, triangulations by
empty-circumcircle enumeration, hulls by monotone chain, areas by the
shoelace formula, and eigenspaces by a direct pixel-space covariance
eigendecomposition.
"""

import itertools

import numpy as np


def orient_raw(a, b, c):
    return (a[0] - c[0]) * (b[1] - c[1]) - (a[1] - c[1]) * (b[0] - c[0])


def exact_points(points):
    """The points as Python integer pairs, all scaled by one power of two.

    Every float is a dyadic rational, so the scaling is exact, and it keeps
    the sign of every orientation and in-circle determinant.
    """
    ratios = [float(v).as_integer_ratio() for p in points for v in (p[0], p[1])]
    den = max(d for _, d in ratios)
    ints = [n * (den // d) for n, d in ratios]
    return list(zip(ints[0::2], ints[1::2]))


def incircle_exact(a, b, c, p):
    """Exact in-circle determinant on integer points; positive when p is
    inside the circle through a counterclockwise (a, b, c)."""
    rows = [(q[0] - p[0], q[1] - p[1]) for q in (a, b, c)]
    (adx, ady), (bdx, bdy), (cdx, cdy) = rows
    return (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )


def strictly_inside(a, b, c, p):
    """p strictly inside the circumcircle of a non-degenerate (a, b, c)."""
    return incircle_exact(a, b, c, p) * orient_raw(a, b, c) > 0


def exact_violations(points, triangles):
    """(triangle_index, point_index) pairs with the point strictly inside
    the triangle's circumcircle, decided in exact arithmetic."""
    q = exact_points(points)
    return [
        (t, m)
        for t, (i, j, k) in enumerate(triangles)
        for m in range(len(q))
        if m not in (i, j, k) and strictly_inside(q[i], q[j], q[k], q[m])
    ]


def all_collinear(points):
    """Every point on one line (or all equal), decided exactly."""
    q = exact_points(points)
    b = next((p for p in q[1:] if p != q[0]), None)
    return b is None or all(orient_raw(q[0], b, c) == 0 for c in q[1:])


def convex_hull_indices(points):
    """Monotone chain; returns hull vertex indices (strict turns only)."""
    pts = np.asarray(points, dtype=float)
    idx = sorted(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))

    def build(indices):
        out = []
        for i in indices:
            while len(out) >= 2 and orient_raw(pts[out[-2]], pts[out[-1]], pts[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = build(idx)
    upper = build(idx[::-1])
    return lower[:-1] + upper[:-1]


def shoelace_area(points):
    """Signed-free polygon area of vertices in order."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2.0


def triangle_shoelace(pa, pb, pc):
    return abs(orient_raw(pa, pb, pc)) / 2.0


def brute_force_delaunay(points):
    """All triangles whose circumcircle holds no other point strictly inside.

    For points in general position this is exactly the Delaunay
    triangulation, as a sorted list of ascending index triples.
    """
    q = exact_points(points)
    tris = []
    for i, j, k in itertools.combinations(range(len(q)), 3):
        if orient_raw(q[i], q[j], q[k]) == 0:
            continue
        if not any(
            strictly_inside(q[i], q[j], q[k], q[m])
            for m in range(len(q))
            if m not in (i, j, k)
        ):
            tris.append((i, j, k))
    return sorted(tris)


def in_general_position(points):
    """No three points collinear and no four cocircular, decided exactly."""
    q = exact_points(points)
    return all(
        orient_raw(a, b, c) != 0 for a, b, c in itertools.combinations(q, 3)
    ) and all(
        incircle_exact(a, b, c, p) != 0 for a, b, c, p in itertools.combinations(q, 4)
    )


def covariance_eigenspace(images, k=None):
    """Direct d x d covariance eigendecomposition of centered image rows.

    Returns (mean, eigenvalues, eigenvectors-as-rows) with descending
    eigenvalues, truncated to the numerical rank (or to k if given).
    """
    rows = np.vstack([np.asarray(getattr(i, "values", i), dtype=float) for i in images])
    n = len(rows)
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / (n - 1)
    lam, vecs = np.linalg.eigh(cov)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    rank = int(np.sum(lam > 1e-10 * max(lam[0], 1e-300)))
    kept = rank if k is None else min(k, rank)
    return mean, lam[:kept], vecs[:, :kept].T


def project_oracle(mean, eigvec_rows, image):
    values = np.asarray(getattr(image, "values", image), dtype=float)
    return eigvec_rows @ (values - mean)
