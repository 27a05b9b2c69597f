"""Brute-force reference for the benchmark's correctness checks.

Built from numpy plus the package's public ``fit_eigenmodel``, ``project``
and ``delaunay``: ED is the Euclidean distance between eigenspace
coordinates, D = |RA_avg(test) - RA_avg(entry)|, RV = ED + D / divisor
(RV = ED in pca_only mode), and the match is the argmin of RV with ties
going to the lowest gallery index.  Floating-point reordering can move RV
in its last digits, so every entry whose RV lies within REL_TOL of the
minimum is an acceptable match.

The reference calls the names exported from ``dtpca`` itself, which the
tracer never wraps, so its work never shows up in the per-layer metrics.
"""

from __future__ import annotations

import numpy as np

import dtpca

REL_TOL = 1e-9
DT_DIVISOR = 0.001
MODES = ("pca_only", "dt_pca")


def ra_avg(landmarks) -> float:
    return dtpca.delaunay(landmarks).average_relative_area


class Matcher:
    """A gallery as arrays: eigenspace coordinates and subjects of one split."""

    def __init__(self, model, images, subjects):
        self.model = model
        self.coords = self.project(images)
        self.subjects = list(subjects)

    def project(self, images) -> np.ndarray:
        return np.array([dtpca.project(self.model, img) for img in images])

    def acceptable(self, q, mode, ras=None, ra=None) -> frozenset[str]:
        """Subjects of the entries whose RV ties the minimum within REL_TOL.

        q is the test image's coordinates; ras and ra are the gallery's and
        the test image's RA_avg, needed in dt_pca mode only.
        """
        rv = np.sqrt(np.sum((self.coords - q) ** 2, axis=1))
        if mode == "dt_pca":
            rv = rv + np.abs(np.asarray(ras) - ra) / DT_DIVISOR
        best = rv[int(np.argmin(rv))]
        near = np.flatnonzero(rv <= best + REL_TOL * abs(best))
        return frozenset(self.subjects[i] for i in near)


def correct_range(accepted, truths) -> tuple[int, int]:
    """Fewest and most correct predictions a table cell may report."""
    lo = sum(1 for acc, t in zip(accepted, truths) if acc == {t})
    hi = sum(1 for acc, t in zip(accepted, truths) if t in acc)
    return lo, hi
