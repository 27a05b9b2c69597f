"""Independent reference implementations used to check the library.

Everything here is deliberately brute force and shares no code with the
package: exact predicates in integer arithmetic, triangulations by
empty-circumcircle enumeration, hulls by monotone chain, areas by the
shoelace formula, and eigenspaces by a direct pixel-space covariance
eigendecomposition.  The exceptions are helpers no pipeline stage calls,
so they live here: `in_circumcircle` classifies a point with the package's
own exact stage, `_sign` on its two determinants in integer arithmetic, so
its tests check that stage, and `reconstruct` and `eigen_distance` act on a
fitted model's coordinates.  The scalar formula chain is kept here as a
reference for the arithmetic `delaunay` and `recognize` run inline:
`triangle_area` (Heron), `relative_areas` and `average_relative_area`
(RA_avg), `dt_difference` (D) and `fused_score` (RV = ED + D / dt_divisor).
`exact_mean_and_gram` gives the mean and the centered Gram of a set of
uint8 images from the whole image matrix in exact integer arithmetic, each
entry rounded once to float, the bytes the fit's streamed first pass must
give.  `one_product_eigenvectors` repeats the fit's snapshot arithmetic on
them with the lift to pixel space taken as one product, the bytes the
fit's blocked lift must give.
Images enter the other eigenspace oracles through
`ImageVector.normalized()`, the package's one definition of a pixel's
intensity.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from dtpca.dataset_io import ImageVector
from dtpca.geometry import _incircle_det, _orient_det, _sign
from dtpca.recognizer import DEFAULT_DT_DIVISOR


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
    the triangle's circumcircle, decided in exact arithmetic.

    A numpy pre-pass evaluates every (triangle, point) cell's in-circle
    determinant and its permanent in doubles.  Its sign is trusted only
    where |det| exceeds 1e-6 times the permanent, far above the rounding
    error of about 1e-15 times it, plus a floor that covers underflow: no
    computed factor exceeds 2 span**2, so underflow shifts det by less than
    2**-1070 (1 + span**2).  Every other cell, nan and inf included, goes to
    `strictly_inside` on integers.  Triangle orientations are exact.
    """
    q = exact_points(points)
    pts = np.asarray(points, dtype=float)
    tris = np.asarray(triangles, dtype=int).reshape(-1, 3)
    side = np.array([np.sign(orient_raw(q[i], q[j], q[k])) for i, j, k in tris], dtype=float)
    span = float(np.ptp(pts, axis=0).max())
    # (triangle, point) arrays of corner-minus-point differences.
    adx, ady, bdx, bdy, cdx, cdy = (
        pts[tris[:, k], axis][:, None] - pts[:, axis] for k in range(3) for axis in (0, 1)
    )
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        det = (
            (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
            + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
            + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
        )
        adx, ady, bdx, bdy, cdx, cdy = map(np.abs, (adx, ady, bdx, bdy, cdx, cdy))
        permanent = (
            (adx * adx + ady * ady) * (bdx * cdy + cdx * bdy)
            + (bdx * bdx + bdy * bdy) * (cdx * ady + adx * cdy)
            + (cdx * cdx + cdy * cdy) * (adx * bdy + bdx * ady)
        )
        sure = np.abs(det) > 1e-6 * permanent + 2.0**-1060 * (1 + span * span)
    inside = sure & (np.sign(det) * side[:, None] > 0)
    corners = np.arange(len(tris))[:, None], tris
    sure[corners] = True  # a corner is on its own circumcircle
    inside[corners] = False
    for t, m in np.argwhere(~sure).tolist():
        i, j, k = tris[t].tolist()
        inside[t, m] = strictly_inside(q[i], q[j], q[k], q[m])
    return [tuple(cell) for cell in np.argwhere(inside).tolist()]


def tie_rule_violations(points, triangles):
    """Interior edges (u, v) whose quad is exactly cocircular but whose
    kept diagonal misses the quad's lowest index.  The tie rule keeps the
    diagonal through the lowest index, so a correct mesh gives []."""
    q = exact_points(points)
    opposite = {}
    for t in triangles:
        for k in range(3):
            u, v = sorted((t[k], t[k - 1]))
            opposite.setdefault((u, v), []).append(t[k - 2])
    return [
        (u, v)
        for (u, v), corners in sorted(opposite.items())
        if len(corners) == 2
        and min(corners) < min(u, v)
        and incircle_exact(q[u], q[v], q[corners[0]], q[corners[1]]) == 0
    ]


def all_collinear(points):
    """Every point on one line (or all equal), decided exactly."""
    q = exact_points(points)
    b = next((p for p in q[1:] if p != q[0]), None)
    return b is None or all(orient_raw(q[0], b, c) == 0 for c in q[1:])


def in_circumcircle(a, b, c, p) -> str:
    """Classify p against the circumcircle of triangle (a, b, c).

    Returns "inside", "on", or "outside", decided exactly and independent
    of the orientation in which a, b, c are given.  Raises ValueError if
    a, b, c are collinear (no circumcircle exists).
    """
    coords = [float(v) for q in (a, b, c, p) for v in (q[0], q[1])]
    side = _sign(_orient_det, *coords[:6])
    if side == 0:
        raise ValueError("collinear points have no circumcircle")
    s = _sign(_incircle_det, *coords)
    if s == 0:
        return "on"
    return "inside" if s == side else "outside"


def edge_length(p, q) -> float:
    """Euclidean distance between two 2D points."""
    return math.hypot(p[0] - q[0], p[1] - q[1])


def exact_area(a, b, c):
    """Exact area of triangle (a, b, c) as a Fraction."""
    q = [(Fraction(float(p[0])), Fraction(float(p[1]))) for p in (a, b, c)]
    return abs(orient_raw(*q)) / 2


def max_area_underflows(points):
    """Every triangle on the points has an exact area that rounds to 0.0."""
    return all(float(exact_area(a, b, c)) == 0 for a, b, c in itertools.combinations(points, 3))


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


def intensities(image) -> np.ndarray:
    """An image's float intensities: ImageVector.normalized() (uint8 pixels
    over 255), or a plain array as given."""
    if isinstance(image, ImageVector):
        return image.normalized()
    return np.asarray(image, dtype=float)


def covariance_eigenspace(images, k=None):
    """Direct d x d covariance eigendecomposition of centered image rows.

    Returns (mean, eigenvalues, eigenvectors-as-rows) with descending
    eigenvalues, truncated to the numerical rank (or to k if given).
    """
    rows = np.vstack([intensities(i) for i in images])
    n = len(rows)
    mean = rows.mean(axis=0)
    centered = rows - mean
    cov = centered.T @ centered / (n - 1)
    lam, vecs = np.linalg.eigh(cov)
    lam, vecs = lam[::-1], vecs[:, ::-1]
    rank = int(np.sum(lam > 1e-10 * max(lam[0], 1e-300)))
    kept = rank if k is None else min(k, rank)
    return mean, lam[:kept], vecs[:, :kept].T


def exact_mean_and_gram(images):
    """The mean intensity of uint8 images and the n x n Gram matrix of
    their centered intensities, each entry the exact rational rounded once
    to float.

    With c the pixel columns' sums, 255 * n * (x / 255 - mean) is the
    integer n * x - c, so 255**2 * n**2 times the Gram is the integer
    product of those rows, taken in int64 (exact while it stays below
    2**63, which the fit checks) and never in floating point.
    """
    rows = np.vstack([img.values for img in images]).astype(np.int64)
    n = len(rows)
    sums = rows.sum(axis=0)
    scaled = n * rows - sums
    numerators = scaled @ scaled.T
    mean = np.array([float(Fraction(int(c), 255 * n)) for c in sums])
    gram = np.array(
        [[float(Fraction(int(v), (255 * n) ** 2)) for v in row] for row in numerators]
    )
    return mean, gram


def one_product_eigenvectors(images, kept):
    """The fit's eigenvectors from the exact mean and Gram, with the lift
    taken as one product over all d columns, `vecs[:, :kept].T @
    (normalized - mean)`, then scaled by 1 / sigma, normalized row by row
    and sign-canonicalized as the fit does: the byte-for-byte reference for
    the fit's column-blocked lift."""
    mean, gram = exact_mean_and_gram(images)
    centered = np.vstack([img.normalized() for img in images]) - mean
    lam, vecs = np.linalg.eigh(gram)
    order = np.argsort(lam)[::-1]
    lam, vecs = lam[order], vecs[:, order]
    eigvecs = vecs[:, :kept].T @ centered
    eigvecs /= np.sqrt(lam[:kept])[:, None]
    for row in eigvecs:
        row /= np.sqrt(np.add.reduce(row * row))
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return eigvecs


def _as_rows(images):
    rows = [intensities(img) for img in images]
    if not rows:
        raise ValueError("empty image set")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise ValueError("images have mismatched dimensions")
    return np.vstack(rows)


def mean_image(images) -> np.ndarray:
    """Elementwise mean of a non-empty set of equal-size image vectors."""
    return _as_rows(images).mean(axis=0)


def center_images(images, mean) -> np.ndarray:
    """Matrix of centered rows, row i = image_i - mean."""
    rows = _as_rows(images)
    mean = np.asarray(mean, dtype=float)
    if rows.shape[1] != len(mean):
        raise ValueError("mean dimension does not match images")
    return rows - mean


def project_oracle(mean, eigvec_rows, image):
    return eigvec_rows @ (intensities(image) - mean)


def reconstruct(model, coords) -> np.ndarray:
    """Image vector rebuilt from eigenspace coordinates (mean + sum)."""
    coords = np.asarray(coords, dtype=float)
    if len(coords) != model.k:
        raise ValueError(f"expected {model.k} coordinates, got {len(coords)}")
    return model.mean + coords @ model.eigenvectors


def eigen_distance(a, b) -> float:
    """Euclidean distance between two eigenspace coordinate vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"coordinate length mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def triangle_area(l1, l2, l3):
    """Triangle area from its three edge lengths (Heron's formula), of one
    triangle or elementwise over arrays of lengths.

    A slightly negative radicand from rounding is clamped to zero; a
    radicand below -1e-9 * S**4 means the lengths genuinely violate the
    triangle inequality and raises ValueError.  Overflow gives inf or nan.
    """
    lengths = np.array([l1, l2, l3], dtype=float)
    if (lengths < 0).any():
        raise ValueError("edge lengths must be non-negative")
    l1, l2, l3 = lengths
    s = (l1 + l2 + l3) / 2.0
    with np.errstate(over="ignore", invalid="ignore"):
        radicand = s * (s - l1) * (s - l2) * (s - l3)
        violated = radicand < -1e-9 * s * s * s * s
    if violated.any():
        l1, l2, l3 = lengths.reshape(3, -1)[:, np.argmax(violated)]
        raise ValueError(
            f"edge lengths ({l1}, {l2}, {l3}) violate the triangle inequality"
        )
    return np.sqrt(np.where(radicand < 0, 0.0, radicand))


def relative_areas(areas) -> np.ndarray:
    """Each area divided by the largest one. The maximum maps to exactly 1.

    Raises ValueError on an empty sequence, a negative or non-finite area
    (Heron's formula overflows on coordinates near 1e150), or all zeros.
    """
    arr = np.asarray(areas, dtype=float)
    if arr.size == 0:
        raise ValueError("empty area sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite triangle area")
    if np.any(arr < 0):
        raise ValueError("areas must be non-negative")
    amax = arr.max()
    if amax <= 0:
        raise ValueError("all areas are zero")
    return arr / amax


def average_relative_area(ras) -> float:
    """Arithmetic mean of the relative areas (divisor = triangle count)."""
    arr = np.asarray(ras, dtype=float)
    if arr.size == 0:
        raise ValueError("empty relative-area sequence")
    return float(arr.mean())


def dt_difference(tt_avg, tn_avg):
    """Positive difference of two average relative areas (elementwise)."""
    return abs(tt_avg - tn_avg)


def fused_score(ed, d, dt_divisor: float = DEFAULT_DT_DIVISOR):
    """Resultant value RV = ED + D / dt_divisor (elementwise)."""
    if not 0 < dt_divisor < math.inf:
        raise ValueError(f"dt_divisor must be positive and finite, got {dt_divisor}")
    return ed + d / dt_divisor
