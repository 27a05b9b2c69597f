"""Eigenface model: mean face, top-k eigenvectors from the snapshot Gram's eigh, projection.

With n training images of d pixels and n much smaller than d, the
eigenvectors of the pixel-space scatter matrix are recovered from the
n x n Gram matrix of the centered rows (snapshot method) and lifted back
to pixel space, which is exactly equivalent to an SVD of the centered
data matrix.  Matching happens in eigenspace via plain Euclidean distance
over the retained k coordinates.

A projection is `eigenvectors.dot(centered)`, not `eigenvectors @
centered`.  The two give the same bits, but `@` holds the GIL through
its one matrix-vector product, and ndarray.dot releases it, so a query
can triangulate its landmarks on another thread while the product runs,
or multiply some of the rows there.  At one BLAS thread, rows [0:s) and
[s:k) multiplied apart give one product's bytes when s is a multiple of 4
and at least 2 rows lie behind it: OpenBLAS's one-thread kernels, on
SkylakeX, Haswell, Zen and SandyBridge alike, take the rows in fours.  A
1-row part, or a cut off the multiple of 4, changes bits; at two or more
BLAS threads OpenBLAS cuts the rows itself, and a cut of ours changes
bits there too.

The fit streams the images in column panels and never holds them as one
n x d float64 matrix: its one buffer holds the k x d eigenvectors and,
behind them, one panel of raw uint8 pixels.  A first pass copies
LIFT_BLOCK columns at a time, adds each panel's product to the raw Gram S
and sums its columns.  Every partial sum is an integer of at most d *
255**2, below 2**53, so S and the column sums are exact in any order, on
any BLAS kernel and at any thread count.  The mean is the column sums
over 255 * n, and the centered Gram times n**2 * 255**2 is the integer
n**2 * S - n * (r_a + r_b) + t, where r holds S's row sums and t their
total; it is formed in int64, below 2**63, and divided once.  A fit whose
d * 255**2 reaches 2**53, or whose 4 * n**2 * d * 255**2 reaches 2**63,
is refused.  The second pass copies each lift block, divides it by 255.0
in place, which gives the bits of ImageVector.normalized(), centers it
and writes its product into the eigenvectors.  Between them the buffer
gives its panel back while the Gram is eigendecomposed, and only the kept
Gram eigenvectors are reordered for the lift.  The lift runs in blocks of
2,048 columns or a multiple, with a large enough remainder as a block of
its own, which give one product's bytes.  So the model is bit for bit
that of one lift product over all columns from the exact Gram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset_io import ImageVector, checked_int

# Gram eigenvalues below RANK_RTOL * largest are treated as rank deficiency.
RANK_RTOL = 1e-10

# The eigenvector lift runs in column blocks, each the smallest multiple of
# LIFT_BLOCK columns that is at least LIFT_WORK multiply-adds (columns x
# kept x images).  The columns left after the last such block are a block
# of their own if they are LIFT_WORK multiply-adds too, and otherwise join
# the last block, so none is smaller.  Such blocks give the bytes of one
# product over all columns.  Under OpenBLAS a product of 10**6 multiply-adds
# or fewer, or of one row, runs another kernel, whose rounding depends on
# where the columns are cut, and block edges off the grid moved bits too.
# One kept row is lifted whole.
LIFT_BLOCK = 2048
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
    k = checked_int(k, "k")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return k


def fit_eigenmodel(images: list[ImageVector], k: int) -> EigenModel:
    """Fit the eigenspace of a training set, keeping min(k, rank) components.

    Raises ZeroVarianceError when every training image is identical, and
    ValueError for fewer than 2 images, mismatched dimensions, too many
    pixels for an exact Gram, or a k that checked_k rejects.
    """
    k = checked_k(k)
    if len(images) < 2:
        raise ValueError("need at least 2 training images")
    if len({(img.width, img.height) for img in images}) != 1:
        raise ValueError("images have mismatched dimensions")
    n, d = len(images), images[0].width * images[0].height
    if d * 255**2 >= 2**53 or 4 * n**2 * d * 255**2 >= 2**63:
        raise ValueError(
            f"{n} images of {d} pixels are too many for an exact Gram: "
            "d * 255**2 must be below 2**53 and 4 * n**2 * d * 255**2 below 2**63"
        )
    # The fit's one large buffer: room for the k x d eigenvectors at its
    # front, if every requested component is kept, and behind them an n x
    # LIFT_BLOCK panel for the Gram pass, whose sums are exact at any width.
    most = min(k, n - 1)
    width = min(d, LIFT_BLOCK)
    buf = np.empty(most * d + n * width)
    mean, gram = _mean_and_gram(images, buf[most * d :].reshape(n, width))
    # Nothing reads the panel again before the lift, so it is given back
    # before eigh allocates; the front, not yet written, is kept.
    buf.resize(most * d, refcheck=False)

    lam, vecs = np.linalg.eigh(gram)
    del gram
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    rank = int(np.sum(lam > RANK_RTOL * lam[0]))
    kept = min(k, rank)

    sigma = np.sqrt(lam[:kept])
    # Only the kept Gram eigenvectors are reordered, and no n x n array is
    # held through the lift.  They are lifted to pixel space one column
    # block at a time, each block re-formed from the raw pixels, divided by
    # 255 as ImageVector.normalized() divides them, and centered behind the
    # eigenvectors in the regrown buffer.
    lift = vecs[:, order[:kept]].T
    del vecs
    stops = _lift_stops(n, d, kept)
    buf.resize(kept * d + n * max(np.diff([0, *stops])), refcheck=False)
    eigvecs = buf[: kept * d].reshape(kept, d)
    for start, stop in zip([0, *stops], stops):
        block = _panel(images, start, stop, buf[kept * d :])
        block /= 255.0
        block -= mean[start:stop]
        np.matmul(lift, block, out=eigvecs[:, start:stop])
    # Then shrunk in place to the eigenvectors, so they stay C-contiguous,
    # the layout a gallery file stores, and projections are bit-identical
    # after a save and reload.  No view of buf is used after the resize;
    # refcheck would also count a tracer's hold on this frame's locals.
    buf.resize((kept, d), refcheck=False)
    eigvecs = buf
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
        eigenvalues=lam[:kept] / (n - 1),
        k=kept,
        requested_k=k,
    )


def _lift_stops(n: int, d: int, kept: int) -> list[int]:
    """Where the lift's column blocks end, for kept of n Gram eigenvectors."""
    if kept < 2:
        return [d]
    width = LIFT_BLOCK * -(-LIFT_WORK // (LIFT_BLOCK * kept * n))
    stops = [*range(width, d + 1, width)] or [d]
    if (d - stops[-1]) * kept * n < LIFT_WORK:
        stops[-1] = d
    else:
        stops.append(d)
    return stops


def _panel(images: list[ImageVector], start: int, stop: int, buf: np.ndarray) -> np.ndarray:
    """Columns start:stop of the images' raw pixels, written into the front
    of buf as a C-contiguous n x (stop - start) panel."""
    panel = buf.reshape(-1)[: len(images) * (stop - start)].reshape(len(images), -1)
    for img, row in zip(images, panel):
        row[:] = img.values[start:stop]
    return panel


def _mean_and_gram(images: list[ImageVector], buf: np.ndarray):
    """The images' mean and the n x n Gram matrix of the centered images,
    from the raw pixels in panels of buf's width.  Raises
    ZeroVarianceError when every image is identical.
    """
    n, width = buf.shape
    d = images[0].width * images[0].height
    mean = np.empty(d)  # the column sums, until they are divided
    gram, product = np.zeros((n, n)), np.empty((n, n))
    for start in range(0, d, width):
        stop = min(start + width, d)
        panel = _panel(images, start, stop, buf)
        np.matmul(panel, panel.T, out=product)
        gram += product
        panel.sum(axis=0, out=mean[start:stop])
    mean /= 255 * n
    # n**2 * 255**2 times the centered Gram, an integer, in place of the
    # product; it converts to float64 exactly below 2**53, where the one
    # division is then correctly rounded.
    numerator = product.view(np.int64)
    numerator[:] = gram
    rows = numerator.sum(axis=1)
    total = rows.sum()
    numerator *= n * n
    rows *= n
    numerator -= rows[:, None]
    numerator -= rows
    numerator += total
    if not np.count_nonzero(numerator):
        raise ZeroVarianceError("training images are all identical")
    np.divide(numerator, n * n * 255**2, out=gram)
    return mean, gram


def centered(model: EigenModel, image: ImageVector) -> np.ndarray:
    """An image's normalized intensities less the model's mean, the vector
    project multiplies.  Raises ImageSizeError unless the image has the
    model's width and height."""
    if (image.width, image.height) != (model.width, model.height):
        raise ImageSizeError(
            f"image is {image.width}x{image.height}, "
            f"expected {model.width}x{model.height}"
        )
    x = image.normalized()
    x -= model.mean
    return x


def project(model: EigenModel, image: ImageVector) -> np.ndarray:
    """Coordinates of an image in the model's eigenspace: a length-k vector.
    Raises ImageSizeError unless the image has the model's width and height."""
    return model.eigenvectors.dot(centered(model, image))
