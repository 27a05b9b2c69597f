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
import sys
import threading
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import eigenface, geometry
from .dataset_io import ImageVector
from .eigenface import EigenModel

DEFAULT_DT_DIVISOR = 0.001

# A dt_pca query whose image has the model's size triangulates its
# landmarks on a worker thread while the eigenface product runs when that
# product is at least OVERLAP_WORK multiply-adds (k x width x height),
# 1.5 to 2 times where the overlap was measured to start paying for its
# hand-off.  Smaller queries run one step after the other.
OVERLAP_WORK = 2**19


def valid_dt_divisor(value: float) -> bool:
    """Whether value may divide D: finite and at least the smallest normal
    double, so D / value stays finite (D < 1).  nan is not valid."""
    return sys.float_info.min <= value < math.inf


MODES = ("pca_only", "dt_pca")

GALLERY_FORMAT_VERSION = 3

# The float64 arrays that follow the header line, in file order.
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


def _ra_avg(triangulate) -> float:
    """The average relative area of the mesh triangulate() returns, or
    LandmarkError with delaunay's reason."""
    try:
        return triangulate().average_relative_area
    except ValueError as exc:
        raise LandmarkError(str(exc)) from None


# The one worker thread of a large dt_pca query, made by its first such
# query, so neither importing dtpca nor a small query pays for the thread.
# It is a daemon fed through one SimpleQueue, and each call gets its own
# reply queue; _queue is the C module under queue, and concurrent.futures
# would import logging.  A forked child has no copy of the thread, so it
# drops the worker and makes its own.
class _Worker:
    """One daemon thread that runs submitted func(arg) calls in order."""

    def __init__(self):
        from _queue import SimpleQueue

        self._new_reply = SimpleQueue
        self._jobs = SimpleQueue()
        threading.Thread(target=self._serve, name="dtpca-delaunay", daemon=True).start()

    def _serve(self):
        while True:
            func, arg, reply = self._jobs.get()
            try:
                reply.put((func(arg), None))
            except BaseException as exc:  # the caller raises it
                reply.put((None, exc))

    def submit(self, func, arg):
        """Queue func(arg); the callable returned waits for its value, or
        raises its exception."""
        reply = self._new_reply()
        self._jobs.put((func, arg, reply))

        def result():
            value, exc = reply.get()
            if exc is not None:
                raise exc
            return value

        return result


_the_worker = None
_worker_lock = threading.Lock()


def _worker() -> _Worker:
    global _the_worker
    with _worker_lock:
        if _the_worker is None:
            _the_worker = _Worker()
        return _the_worker


def _drop_worker():
    global _the_worker, _worker_lock
    _the_worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_worker)


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
    lowest row index.  dt_divisor must be finite and at least the smallest
    normal double: D < 1, so D / dt_divisor then stays finite.

    A dt_pca query whose image has the model's size and whose product is
    at least OVERLAP_WORK multiply-adds triangulates on one worker thread
    while the calling thread projects; it gives the same report and raises
    the same errors as one step after the other.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if not valid_dt_divisor(dt_divisor):
        raise ValueError(f"dt_divisor must be finite and >= {sys.float_info.min}, got {dt_divisor}")
    if not gallery.subjects:
        raise ValueError("empty gallery")

    tt_avg = coords = None
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
        if (test_image.width, test_image.height) == (model.width, model.height) and (
            model.k * model.width * model.height >= OVERLAP_WORK
        ):
            # The sweep is Python and the product native code that releases
            # the GIL, so the two run on two cores.  The image is centered
            # first: its ufuncs release the GIL too, and would then wait
            # for the sweep to end to take it back.
            x = eigenface.centered(model, test_image)
            mesh = _worker().submit(geometry.delaunay, test_landmarks)
            coords = model.eigenvectors.dot(x)
            tt_avg = _ra_avg(mesh)
        else:
            tt_avg = _ra_avg(lambda: geometry.delaunay(test_landmarks))

    if coords is None:
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
    create it; mkstemp would give 0o600.  An OSError on the temp file names
    path instead, so the message does not change from run to run."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, mode) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial file."""
    with _atomic_open(path, "w") as fh:
        fh.write(text)


def save_gallery(gallery: Gallery, model: EigenModel, path) -> None:
    """Write gallery + model as a format-3 gallery file (atomic write).

    One JSON header line, padded with spaces to a multiple of 64 bytes,
    then the arrays named in GALLERY_ARRAYS as raw little-endian float64,
    then the CRC-32 of every byte before it, 4 bytes little-endian.  Each
    array is written and checksummed from its own buffer.  The file lands
    at path as given, and its bytes depend only on the gallery and model.
    Requires a landmark-complete gallery; a pca-only internal gallery has
    no file representation.
    """
    if gallery.scheme is None or gallery.ra_avg is None:
        raise ValueError("cannot save a gallery built without landmarks")
    header = json.dumps({
        "format_version": GALLERY_FORMAT_VERSION,
        "width": model.width,
        "height": model.height,
        "k": model.k,
        "requested_k": model.requested_k,
        "scheme": gallery.scheme,
        "subjects": list(gallery.subjects),
        "variants": list(gallery.variants),
        "sources": list(gallery.sources),
    }).encode()
    arrays = (model.mean, model.eigenvectors, model.eigenvalues, gallery.coords, gallery.ra_avg)
    crc = 0
    with _atomic_open(path, "wb") as fh:
        for chunk in (
            header + b" " * (-(len(header) + 1) % 64) + b"\n",
            *(np.ascontiguousarray(a, dtype="<f8") for a in arrays),
        ):
            fh.write(chunk)
            crc = zlib.crc32(chunk, crc)
        fh.write(crc.to_bytes(4, "little"))


def _positive_int(header: dict, key: str) -> int:
    """A positive integer header field; floats and bools are rejected, not
    truncated."""
    value = header.get(key)
    if type(value) is not int or value < 1:
        raise ValueError(f"{key} must be a positive integer, got {value!r}")
    return value


def _decode(data: bytes) -> tuple[Gallery, EigenModel]:
    """Check a gallery file's bytes against everything save_gallery
    writes; raises ValueError naming the first violation.  The arrays are
    views of data."""
    start = data.find(b"\n") + 1
    try:
        header = json.loads(data[:start])
    except ValueError:
        header = None
    if not isinstance(header, dict) or header.get("format_version") != GALLERY_FORMAT_VERSION:
        raise ValueError(f"not a version {GALLERY_FORMAT_VERSION} gallery file; {_RETRAIN}")
    if zlib.crc32(memoryview(data)[:-4]) != int.from_bytes(data[-4:], "little"):
        raise ValueError("checksum mismatch: the file is corrupt")
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
    # Checked before any view exists, so huge declared sizes allocate nothing.
    size = start + 8 * sum(map(math.prod, shapes)) + 4
    if len(data) != size:
        raise ValueError(f"the file holds {len(data)} bytes, the header's shapes imply {size}")
    arrays = []
    for name, shape in zip(GALLERY_ARRAYS, shapes):
        a = np.frombuffer(data, "<f8", math.prod(shape), start).reshape(shape)
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite value in {name}")
        arrays.append(a)
        start += a.nbytes
    mean, eigenvectors, eigenvalues, coords, ra_avg = arrays
    if np.any(eigenvalues < 0) or np.any(np.diff(eigenvalues) > 0):
        raise ValueError("eigenvalues must be non-negative and non-increasing")
    if not np.all((ra_avg > 0) & (ra_avg <= 1)):
        raise ValueError("an ra_avg value lies outside (0, 1]")
    model = EigenModel(width, height, mean, eigenvectors, eigenvalues, k, requested_k)
    gallery = Gallery(scheme, *map(tuple, labels), coords, ra_avg)
    return gallery, model


def load_gallery(path) -> tuple[Gallery, EigenModel]:
    """Load a gallery file; the reload reproduces matching bit-exactly.

    The file is read once and its arrays are read-only views of those
    bytes.  Raises GalleryFormatError for any file save_gallery cannot
    have written: one of another format version (format-2 `.npy` records
    and format-1 JSON included), a checksum mismatch, a length other than
    the header implies, or a header or array that breaks the format's
    rules.  The CRC-32 detects every single-bit error and every burst of
    up to 32 bits; it does not protect against deliberate tampering.
    """
    data = Path(path).read_bytes()
    try:
        return _decode(data)
    except ValueError as exc:
        raise GalleryFormatError(f"{path}: {exc}") from None
