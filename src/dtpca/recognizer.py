"""Gallery construction and fused nearest-match scoring.

Each training image is stored as its eigenspace coordinates plus the
average relative area of its landmark triangulation.  A test image is
scored against every entry: ED is the eigenspace Euclidean distance, D the
absolute difference of average relative areas, and the resultant value
RV = ED + D / divisor (divisor defaults to 0.001).  The match is the entry
with the smallest RV; ties break toward the lowest gallery index.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import eigenface, geometry
from .dataset_io import ImageVector
from .eigenface import EigenModel

DEFAULT_DT_DIVISOR = 0.001

MODES = ("pca_only", "dt_pca")

GALLERY_FORMAT_VERSION = 2

# The float64 records that follow the header record, in file order.
GALLERY_ARRAYS = ("mean", "eigenvectors", "eigenvalues", "coords", "ra_avg")

_RETRAIN = "re-run `dtpca train` to rebuild the gallery"


class GalleryFormatError(ValueError):
    """A gallery file exists but cannot be parsed as a valid gallery."""


class LandmarkError(ValueError):
    """Landmarks that delaunay rejects, or whose point count is not the
    scheme: the gallery's in recognize, the first set's in
    landmark_descriptors, where `index` is the rejected set's."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class TrainingRecord:
    """One training image with its landmarks and identity labels."""

    image: ImageVector
    landmarks: np.ndarray | None
    subject_id: str
    variant: str
    source_path: str = ""


@dataclass(frozen=True)
class Gallery:
    """Match database: row i holds training image i.

    coords is the (n, k) array of eigenspace coordinates and ra_avg the
    (n,) array of average relative areas.  scheme is the landmark count
    shared by every row; scheme and ra_avg are None when the gallery was
    built without landmarks (usable in pca_only mode only).
    """

    scheme: int | None
    subjects: tuple[str, ...]
    variants: tuple[str, ...]
    sources: tuple[str, ...]
    coords: np.ndarray
    ra_avg: np.ndarray | None


@dataclass(frozen=True)
class MatchReport:
    """Per-row ED, D and RV arrays of one query, and the argmin row."""

    best_index: int
    best_subject: str
    ed: np.ndarray
    d: np.ndarray
    rv: np.ndarray
    mode: str
    dt_divisor: float

    def to_dict(self) -> dict:
        return {
            "best": {"index": self.best_index, "subject": self.best_subject},
            "mode": self.mode,
            "dt_divisor": self.dt_divisor,
            "scores": [
                {"ed": ed, "d": d, "rv": rv}
                for ed, d, rv in zip(self.ed.tolist(), self.d.tolist(), self.rv.tolist())
            ],
        }


def landmark_descriptors(sets) -> tuple[int | None, np.ndarray]:
    """The scheme and the (n,) RA_avg array of n training landmark sets.

    The scheme is the first set's point count (None for no sets).  Each
    set is checked and triangulated in turn, so `sets` may be a generator
    that loads them; the first set with another point count, or that
    delaunay rejects, raises LandmarkError with its index.
    """
    scheme = None
    ra_avg = []
    for index, points in enumerate(sets):
        if scheme is None:
            scheme = len(points)
        elif len(points) != scheme:
            raise LandmarkError(
                f"mixed landmark schemes in training set: {len(points)} "
                f"points, the first record has {scheme}",
                index,
            )
        try:
            ra_avg.append(geometry.delaunay(points).average_relative_area)
        except ValueError as exc:
            raise LandmarkError(str(exc), index) from None
    return scheme, np.array(ra_avg, dtype=float)


def build_gallery(model: EigenModel, train) -> Gallery:
    """Describe the training records' landmarks, then project every image.

    Either every record has landmarks or none does.  Landmarks go through
    landmark_descriptors before any image is projected, so its
    LandmarkError carries the rejected record's index.  Records without
    landmarks give a gallery with scheme and ra_avg None, which only
    supports pca_only matching.
    """
    records = list(train)
    if not records:
        raise ValueError("empty training set")
    first = records[0].landmarks
    if any((r.landmarks is None) != (first is None) for r in records):
        raise ValueError("some training records are missing landmarks")
    scheme = ra_avg = None
    if first is not None:
        scheme, ra_avg = landmark_descriptors(r.landmarks for r in records)
    # One projection per image, not one matmul over all of them: a batched
    # product can round differently, and a self-match must give RV == 0.
    coords = [eigenface.project(model, rec.image) for rec in records]
    return Gallery(
        scheme=scheme,
        subjects=tuple(r.subject_id for r in records),
        variants=tuple(r.variant for r in records),
        sources=tuple(r.source_path for r in records),
        coords=np.array(coords, dtype=float),
        ra_avg=ra_avg,
    )


def recognize(
    gallery: Gallery,
    model: EigenModel,
    test_image: ImageVector,
    test_landmarks: np.ndarray | None = None,
    mode: str = "dt_pca",
    dt_divisor: float = DEFAULT_DT_DIVISOR,
) -> MatchReport:
    """Score a test image against every gallery row and pick the argmin RV.

    In pca_only mode landmarks are ignored and D is reported as 0, so RV
    equals ED.  In dt_pca mode the (n, 2) test landmarks are required and
    n must equal the gallery's scheme; landmarks that do not fit the
    gallery or cannot be triangulated raise LandmarkError.  Ties go to the
    lowest row index.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not 0 < dt_divisor < math.inf:
        raise ValueError(f"dt_divisor must be positive and finite, got {dt_divisor}")
    if not gallery.subjects:
        raise ValueError("empty gallery")

    tt_avg = None
    if mode == "dt_pca":
        if test_landmarks is None:
            raise ValueError("dt_pca mode requires test landmarks")
        if gallery.scheme is None:
            raise ValueError("gallery was built without landmarks; use pca_only")
        if len(test_landmarks) != gallery.scheme:
            raise LandmarkError(
                f"landmark scheme mismatch: test {len(test_landmarks)} "
                f"vs gallery {gallery.scheme}"
            )
        try:
            tt_avg = geometry.delaunay(test_landmarks).average_relative_area
        except ValueError as exc:
            raise LandmarkError(str(exc)) from None

    coords = eigenface.project(model, test_image)
    if gallery.coords.shape[1:] != coords.shape:
        raise ValueError(f"coordinate length mismatch: {gallery.coords.shape} vs {coords.shape}")
    diff = coords - gallery.coords
    # np.vecdot reproduces np.linalg.norm of each row's difference bit for
    # bit; norm(axis=1) and einsum round some rows differently.
    ed = np.sqrt(np.vecdot(diff, diff))
    if mode == "pca_only":
        d = np.zeros_like(ed)
        rv = ed
    else:
        d = abs(tt_avg - gallery.ra_avg)
        rv = ed + d / dt_divisor
    best = int(np.argmin(rv))
    return MatchReport(
        best_index=best,
        best_subject=gallery.subjects[best],
        ed=ed,
        d=d,
        rv=rv,
        mode=mode,
        dt_divisor=dt_divisor,
    )


@contextmanager
def _atomic_open(path, mode: str):
    """A temp file renamed to path on success, so failures leave no partial
    file.  It is created with mode 0o666 less the umask, as open() would
    create it; mkstemp would give 0o600."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial file."""
    with _atomic_open(path, "w") as fh:
        fh.write(text)


def save_gallery(gallery: Gallery, model: EigenModel, path) -> None:
    """Write gallery + model as six .npy records in a row (atomic write).

    The first record is a uint8 JSON header; the rest are the float64
    arrays named in GALLERY_ARRAYS.  The file lands at path as given, and
    its bytes depend only on the gallery and model.  Requires a
    landmark-complete gallery; a pca-only internal gallery has no file
    representation.
    """
    if gallery.scheme is None or gallery.ra_avg is None:
        raise ValueError("cannot save a gallery built without landmarks")
    header = {
        "format_version": GALLERY_FORMAT_VERSION,
        "width": model.width,
        "height": model.height,
        "k": model.k,
        "requested_k": model.requested_k,
        "scheme": gallery.scheme,
        "subjects": list(gallery.subjects),
        "variants": list(gallery.variants),
        "sources": list(gallery.sources),
    }
    records = (
        np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
        model.mean, model.eigenvectors, model.eigenvalues, gallery.coords, gallery.ra_avg,
    )
    with _atomic_open(path, "wb") as fh:
        for record in records:
            np.lib.format.write_array(
                fh, np.ascontiguousarray(record), allow_pickle=False
            )


def _positive_int(header: dict, key: str) -> int:
    """A positive integer header field; floats and bools are rejected, not
    truncated."""
    value = header.get(key)
    if type(value) is not int or value < 1:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return value


def _decode(raw: np.ndarray, arrays: list[np.ndarray]) -> tuple[Gallery, EigenModel]:
    """Check the header and arrays against everything save_gallery writes;
    raises ValueError naming the first violation."""
    if raw.dtype != np.uint8 or raw.ndim != 1:
        raise ValueError("the header record is not a uint8 vector")
    header = json.loads(raw.tobytes().decode())
    if not isinstance(header, dict):
        raise ValueError("the header is not a JSON object")
    version = _positive_int(header, "format_version")
    if version != GALLERY_FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version}; {_RETRAIN}")
    width, height, k, requested_k, scheme = (
        _positive_int(header, key)
        for key in ("width", "height", "k", "requested_k", "scheme")
    )
    if requested_k < k:
        raise ValueError(f"requested_k {requested_k} is below k {k}")
    labels = [header.get(key) for key in ("subjects", "variants", "sources")]
    n = len(labels[0]) if isinstance(labels[0], list) else 0
    if n < 1 or not all(
        isinstance(v, list) and len(v) == n and all(type(s) is str for s in v)
        for v in labels
    ):
        raise ValueError("subjects, variants and sources must list n >= 1 strings each")
    d = width * height
    shapes = ((d,), (k, d), (k,), (n, k), (n,))
    for name, a, shape in zip(GALLERY_ARRAYS, arrays, shapes):
        if a.dtype != np.float64 or not a.flags.c_contiguous:
            raise ValueError(f"{name} must be C-ordered float64 (dtype {a.dtype})")
        if a.shape != shape:
            raise ValueError(f"{name} has shape {a.shape}, the header implies {shape}")
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite value in {name}")
    mean, eigenvectors, eigenvalues, coords, ra_avg = arrays
    if np.any(eigenvalues < 0) or np.any(np.diff(eigenvalues) > 0):
        raise ValueError("eigenvalues must be non-negative and non-increasing")
    if not np.all((ra_avg > 0) & (ra_avg <= 1)):
        raise ValueError("an ra_avg value lies outside (0, 1]")
    model = EigenModel(width, height, mean, eigenvectors, eigenvalues, k, requested_k)
    gallery = Gallery(scheme, *map(tuple, labels), coords, ra_avg)
    return gallery, model


def _read_record(fh, name: str, file_size: int) -> np.ndarray:
    """The .npy record at fh's position.  Its header is checked first:
    read_array allocates the declared shape before it reads, so a record
    that declares more bytes than the file has left is rejected here.
    save_gallery's headers are short, so write_array gives them version 1.0."""
    start = fh.tell()
    if np.lib.format.read_magic(fh) != (1, 0):
        raise ValueError(f"the {name} record is not a version 1.0 .npy record")
    shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
    needed = math.prod(shape) * dtype.itemsize
    if not dtype.hasobject and needed > file_size - fh.tell():
        raise ValueError(f"truncated: the {name} record declares {needed} bytes")
    fh.seek(start)
    return np.lib.format.read_array(fh, allow_pickle=False)


def load_gallery(path) -> tuple[Gallery, EigenModel]:
    """Load a gallery file; the reload reproduces matching bit-exactly.

    Raises GalleryFormatError for any file save_gallery cannot have
    written: a JSON gallery of format 1, a truncated or object record,
    bytes after the sixth record, or a header or array that breaks the
    format's rules.
    """
    magic = np.lib.format.MAGIC_PREFIX
    try:
        with open(path, "rb") as fh:
            if fh.read(len(magic)) != magic:
                raise ValueError(f"not a version 2 gallery file; {_RETRAIN}")
            fh.seek(0)
            file_size = os.fstat(fh.fileno()).st_size
            raw, *arrays = (
                _read_record(fh, name, file_size) for name in ("header", *GALLERY_ARRAYS)
            )
            if fh.read(1):
                raise ValueError("trailing bytes after the last record")
        return _decode(raw, arrays)
    except ValueError as exc:
        raise GalleryFormatError(f"{path}: {exc}") from None
