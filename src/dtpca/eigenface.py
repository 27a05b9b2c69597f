"""Eigenface model: mean face, top-k eigenvectors via SVD, projection.

With n training images of d pixels and n much smaller than d, the
eigenvectors of the pixel-space scatter matrix are recovered from the
n x n Gram matrix of the centered rows (snapshot method) and lifted back
to pixel space, which is exactly equivalent to an SVD of the centered
data matrix.  Matching happens in eigenspace via plain Euclidean distance
over the retained k coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Gram eigenvalues below RANK_RTOL * largest are treated as rank deficiency.
RANK_RTOL = 1e-10


class ZeroVarianceError(ValueError):
    """The training images are all identical; no eigenspace exists."""


# Coordinates of an image in eigenspace: a length-k float vector.
EigenCoords = np.ndarray


@dataclass(frozen=True)
class EigenModel:
    """Mean image plus the top-k eigenvectors of the training scatter.

    eigenvectors is (k, width*height) with orthonormal rows, ordered by
    descending eigenvalue; eigenvalues are the singular values squared over
    (n - 1).  requested_k records the k asked for before rank clamping.
    """

    width: int
    height: int
    mean: np.ndarray
    eigenvectors: np.ndarray
    eigenvalues: np.ndarray
    k: int
    requested_k: int

    @property
    def clamped(self) -> bool:
        return self.k < self.requested_k


def _as_rows(images) -> np.ndarray:
    rows = [np.asarray(getattr(img, "values", img), dtype=float) for img in images]
    if not rows:
        raise ValueError("empty image set")
    d = len(rows[0])
    if any(len(r) != d for r in rows):
        raise ValueError("images have mismatched dimensions")
    return np.vstack(rows)


def _dims(images) -> tuple[int, int]:
    first = images[0]
    w = getattr(first, "width", None)
    h = getattr(first, "height", None)
    if w is None or h is None:
        w, h = len(np.asarray(getattr(first, "values", first))), 1
    for img in images:
        if getattr(img, "width", w) != w or getattr(img, "height", h) != h:
            raise ValueError("images have mismatched dimensions")
    return int(w), int(h)


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


def fit_eigenmodel(images, k: int) -> EigenModel:
    """Fit the eigenspace of a training set, keeping min(k, rank) components.

    Raises ZeroVarianceError when every training image is identical, and
    ValueError for fewer than 2 images, mismatched dimensions, or k < 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(images) < 2:
        raise ValueError("need at least 2 training images")
    width, height = _dims(images)
    rows = _as_rows(images)
    mean = rows.mean(axis=0)
    centered = rows - mean
    n = len(centered)

    gram = centered @ centered.T
    lam, vecs = np.linalg.eigh(gram)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order]

    # Identical images leave only mean-rounding residue after centering;
    # compare the centered energy against the raw pixel energy.
    raw_energy = float(np.sum(rows * rows))
    eps = np.finfo(float).eps
    if lam[0] <= max(raw_energy, 1.0) * (64 * eps) ** 2:
        raise ZeroVarianceError("training images are all identical")
    rank = int(np.sum(lam > RANK_RTOL * lam[0]))
    kept = min(k, rank)

    sigma = np.sqrt(lam[:kept])
    # Lift Gram eigenvectors to pixel space; rows come out C-contiguous so
    # projections are bit-identical before and after JSON round trips.
    eigvecs = (vecs[:, :kept].T @ centered) / sigma[:, None]
    # Renormalize and canonicalize signs for byte-stable serialization.
    eigvecs /= np.linalg.norm(eigvecs, axis=1, keepdims=True)
    for row in eigvecs:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    return EigenModel(
        width=width,
        height=height,
        mean=mean,
        eigenvectors=eigvecs,
        eigenvalues=lam[:kept] / (n - 1),
        k=kept,
        requested_k=k,
    )


def project(model: EigenModel, image) -> EigenCoords:
    """Coordinates of an image in the model's eigenspace."""
    values = np.asarray(getattr(image, "values", image), dtype=float)
    if len(values) != len(model.mean):
        raise ValueError("image dimension does not match model")
    return model.eigenvectors @ (values - model.mean)


def reconstruct(model: EigenModel, coords: EigenCoords) -> np.ndarray:
    """Image vector rebuilt from eigenspace coordinates (mean + sum)."""
    coords = np.asarray(coords, dtype=float)
    if len(coords) != model.k:
        raise ValueError(f"expected {model.k} coordinates, got {len(coords)}")
    return model.mean + coords @ model.eigenvectors


def eigen_distance(a: EigenCoords, b: EigenCoords) -> float:
    """Euclidean distance between two eigenspace coordinate vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"coordinate length mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def model_to_dict(model: EigenModel) -> dict:
    """JSON-ready model representation (shortest round-trip decimals)."""
    return {
        "width": model.width,
        "height": model.height,
        "k": model.k,
        "mean": [float(v) for v in model.mean],
        "eigenvalues": [float(v) for v in model.eigenvalues],
        "eigenvectors": [[float(v) for v in row] for row in model.eigenvectors],
    }


def json_int(obj: dict, key: str) -> int:
    """A positive JSON integer field; floats and bools are rejected, not
    truncated.  Raises KeyError or ValueError."""
    value = obj[key]
    if type(value) is not int or value < 1:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return value


def model_from_dict(obj: dict) -> EigenModel:
    """Rebuild a model from model_to_dict output, rejecting anything
    fit_eigenmodel cannot have written: non-integer sizes, mismatched
    shapes, and eigenvalues that are negative or increase."""
    try:
        width = json_int(obj, "width")
        height = json_int(obj, "height")
        k = json_int(obj, "k")
        mean = np.array(obj["mean"], dtype=float)
        eigenvalues = np.array(obj["eigenvalues"], dtype=float)
        eigenvectors = np.array(obj["eigenvectors"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed eigenmodel object: {exc}") from None
    if eigenvectors.ndim != 2 or eigenvectors.shape[0] != k or len(eigenvalues) != k:
        raise ValueError("eigenmodel k does not match its eigenvector count")
    if len(mean) != width * height or eigenvectors.shape[1] != width * height:
        raise ValueError("eigenmodel vector length does not match dimensions")
    if np.any(eigenvalues < 0) or np.any(np.diff(eigenvalues) > 0):
        raise ValueError("eigenvalues must be non-negative and non-increasing")
    return EigenModel(
        width=width,
        height=height,
        mean=mean,
        eigenvectors=eigenvectors,
        eigenvalues=eigenvalues,
        k=k,
        requested_k=k,
    )
