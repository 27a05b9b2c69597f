"""Eigenface model: mean face, top-k eigenvectors via SVD, projection.

With n training images of d pixels and n much smaller than d, the
eigenvectors of the pixel-space scatter matrix are recovered from the
n x n Gram matrix of the centered rows (snapshot method) and lifted back
to pixel space, which is exactly equivalent to an SVD of the centered
data matrix.  Matching happens in eigenspace via plain Euclidean distance
over the retained k coordinates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .dataset_io import ImageVector

# Gram eigenvalues below RANK_RTOL * largest are treated as rank deficiency.
RANK_RTOL = 1e-10

# The eigenvector lift runs in column blocks, each a multiple of LIFT_BLOCK
# columns wide and of at least LIFT_WORK multiply-adds (columns x kept x
# images); the last block takes the remainder, so none is smaller.  Such
# blocks give the bytes of one product over all columns.  Under OpenBLAS a
# product of 10**6 multiply-adds or fewer, or of one row, runs another
# kernel, whose rounding depends on where the columns are cut, and block
# edges off a 4,096-column grid moved bits too.  One kept row is lifted
# whole.
LIFT_BLOCK = 4096
LIFT_WORK = 2**20


class ZeroVarianceError(ValueError):
    """The training images are all identical; no eigenspace exists."""


class ImageSizeError(ValueError):
    """An image's width and height differ from the model's."""


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


def checked_k(k) -> int:
    """k as a Python int.  Raises ValueError unless k is an integer >= 1;
    a bool or a float is not an integer here."""
    try:
        if isinstance(k, bool):
            raise TypeError
        k = operator.index(k)
    except TypeError:
        raise ValueError(f"k must be an integer, got {k!r}") from None
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def fit_eigenmodel(images: list[ImageVector], k: int) -> EigenModel:
    """Fit the eigenspace of a training set, keeping min(k, rank) components.

    Raises ZeroVarianceError when every training image is identical, and
    ValueError for fewer than 2 images, mismatched dimensions, or a k that
    checked_k rejects.
    """
    k = checked_k(k)
    if len(images) < 2:
        raise ValueError("need at least 2 training images")
    if len({(img.width, img.height) for img in images}) != 1:
        raise ValueError("images have mismatched dimensions")
    # The fit's one n x d matrix: each image's intensities are written into
    # its own row, which is measured and centered in place; nothing else is
    # n x d.
    rows = np.empty((len(images), images[0].width * images[0].height))
    for img, row in zip(images, rows):
        img.normalized(out=row)
    # Identical images leave only mean-rounding residue after centering;
    # compare the centered energy against the raw pixel energy.
    raw_energy = sum(float(r @ r) for r in rows)
    mean = rows.mean(axis=0)
    rows -= mean

    gram = rows @ rows.T
    lam, vecs = np.linalg.eigh(gram)
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vecs = vecs[:, order]

    eps = np.finfo(float).eps
    if lam[0] <= max(raw_energy, 1.0) * (64 * eps) ** 2:
        raise ZeroVarianceError("training images are all identical")
    rank = int(np.sum(lam > RANK_RTOL * lam[0]))
    kept = min(k, rank)

    sigma = np.sqrt(lam[:kept])
    # Lift Gram eigenvectors to pixel space into the first kept rows, one
    # column block at a time (a block reads only its own columns), then
    # shrink the matrix in place: besides it, one block's product is all
    # that is allocated.  The rows stay C-contiguous, the layout a gallery
    # file stores, so projections are bit-identical after a save and
    # reload.  No view of rows is left for the resize to invalidate;
    # refcheck would also count a tracer's hold on this frame's locals.
    lift = vecs[:, :kept].T
    n, d = rows.shape
    width = d if kept < 2 else LIFT_BLOCK * -(-LIFT_WORK // (LIFT_BLOCK * kept * n))
    stops = [*range(width, d - width + 1, width), d]
    for start, stop in zip([0, *stops], stops):
        rows[:kept, start:stop] = lift @ rows[:, start:stop]
    del row
    rows.resize((kept, d), refcheck=False)
    eigvecs = rows
    eigvecs /= sigma[:, None]
    # Renormalize and canonicalize signs for byte-stable serialization.  A
    # row's norm sums as np.linalg.norm(axis=1) does, with no k x d temporary.
    for row in eigvecs:
        row /= np.sqrt(np.add.reduce(row * row))
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0

    return EigenModel(
        width=images[0].width,
        height=images[0].height,
        mean=mean,
        eigenvectors=eigvecs,
        eigenvalues=lam[:kept] / (len(images) - 1),
        k=kept,
        requested_k=k,
    )


def project(model: EigenModel, image: ImageVector) -> np.ndarray:
    """Coordinates of an image in the model's eigenspace: a length-k vector.
    Raises ImageSizeError unless the image has the model's width and height."""
    if (image.width, image.height) != (model.width, model.height):
        raise ImageSizeError(
            f"image is {image.width}x{image.height}, "
            f"expected {model.width}x{model.height}"
        )
    x = image.normalized()
    x -= model.mean
    return model.eigenvectors @ x
