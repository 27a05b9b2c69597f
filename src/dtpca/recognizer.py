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
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import eigenface, geometry
from .dataset_io import ImageVector, LandmarkSet
from .eigenface import EigenModel

DEFAULT_DT_DIVISOR = 0.001

MODES = ("pca_only", "dt_pca")

GALLERY_FORMAT_VERSION = 1


class GalleryFormatError(ValueError):
    """A gallery file exists but cannot be parsed as a valid gallery."""


@dataclass(frozen=True)
class TrainingRecord:
    """One training image with its landmarks and identity labels."""

    image: ImageVector
    landmarks: LandmarkSet | None
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


def build_gallery(model: EigenModel, train) -> Gallery:
    """Project every training record and triangulate its landmarks.

    Records without landmarks give a gallery with ra_avg None, which only
    supports pca_only matching.  All records must either have landmarks
    with one common scheme, or none at all.
    """
    records = list(train)
    if not records:
        raise ValueError("empty training set")
    schemes = {r.landmarks.scheme for r in records if r.landmarks is not None}
    if len(schemes) > 1:
        raise ValueError(f"mixed landmark schemes in training set: {sorted(schemes)}")
    if schemes and any(r.landmarks is None for r in records):
        raise ValueError("some training records are missing landmarks")
    # One projection per image, not one matmul over all of them: a batched
    # product can round differently, and a self-match must give RV == 0.
    coords = []
    ra_avg = []
    for rec in records:
        coords.append(eigenface.project(model, rec.image))
        if rec.landmarks is not None:
            try:
                ra_avg.append(geometry.delaunay(rec.landmarks).average_relative_area)
            except ValueError as exc:
                where = rec.source_path or f"{rec.subject_id}/{rec.variant}"
                raise ValueError(f"{where}: {exc}") from None
    return Gallery(
        scheme=schemes.pop() if schemes else None,
        subjects=tuple(r.subject_id for r in records),
        variants=tuple(r.variant for r in records),
        sources=tuple(r.source_path for r in records),
        coords=np.array(coords, dtype=float),
        ra_avg=np.array(ra_avg, dtype=float) if ra_avg else None,
    )


def dt_difference(tt_avg, tn_avg):
    """Positive difference of two average relative areas (elementwise)."""
    return abs(tt_avg - tn_avg)


def fused_score(ed, d, dt_divisor: float = DEFAULT_DT_DIVISOR):
    """Resultant value RV = ED + D / dt_divisor (elementwise)."""
    if not 0 < dt_divisor < math.inf:
        raise ValueError(f"dt_divisor must be positive and finite, got {dt_divisor}")
    return ed + d / dt_divisor


def recognize(
    gallery: Gallery,
    model: EigenModel,
    test_image: ImageVector,
    test_landmarks: LandmarkSet | None = None,
    mode: str = "dt_pca",
    dt_divisor: float = DEFAULT_DT_DIVISOR,
) -> MatchReport:
    """Score a test image against every gallery row and pick the argmin RV.

    In pca_only mode landmarks are ignored and D is reported as 0, so RV
    equals ED.  In dt_pca mode the test landmarks are required and their
    scheme must equal the gallery's.  Ties go to the lowest row index.
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
        if test_landmarks.scheme != gallery.scheme:
            raise ValueError(
                f"landmark scheme mismatch: test {test_landmarks.scheme} "
                f"vs gallery {gallery.scheme}"
            )
        tt_avg = geometry.delaunay(test_landmarks).average_relative_area

    coords = eigenface.project(model, test_image)
    if gallery.coords.shape[1:] != coords.shape:
        raise ValueError(f"coordinate length mismatch: {gallery.coords.shape} vs {coords.shape}")
    diff = coords - gallery.coords
    # np.vecdot reproduces eigen_distance's np.linalg.norm bit for bit;
    # norm(axis=1) and einsum round some rows differently.
    ed = np.sqrt(np.vecdot(diff, diff))
    if mode == "pca_only":
        d = np.zeros_like(ed)
        rv = ed
    else:
        d = dt_difference(tt_avg, gallery.ra_avg)
        rv = fused_score(ed, d, dt_divisor)
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


def atomic_write_text(path, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_gallery(gallery: Gallery, model: EigenModel, path) -> None:
    """Serialize gallery + model to JSON (atomic write).

    Requires a landmark-complete gallery; a pca-only internal gallery has
    no file representation.
    """
    if gallery.scheme is None or gallery.ra_avg is None:
        raise ValueError("cannot save a gallery built without landmarks")
    obj = {
        "format_version": GALLERY_FORMAT_VERSION,
        "model": eigenface.model_to_dict(model),
        "scheme": gallery.scheme,
        "entries": [
            {"subject": subject, "variant": variant, "ra_avg": ra, "coords": coords,
             "source": source}
            for subject, variant, ra, coords, source in zip(
                gallery.subjects, gallery.variants, gallery.ra_avg.tolist(),
                gallery.coords.tolist(), gallery.sources,
            )
        ],
    }
    atomic_write_text(path, json.dumps(obj) + "\n")


def load_gallery(path) -> tuple[Gallery, EigenModel]:
    """Load a gallery file; the reload reproduces matching bit-exactly."""
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GalleryFormatError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise GalleryFormatError(f"{path}: expected a JSON object")
    version = obj.get("format_version")
    if version != GALLERY_FORMAT_VERSION:
        raise GalleryFormatError(f"{path}: unsupported format_version {version!r}")
    try:
        model = eigenface.model_from_dict(obj["model"])
        scheme = eigenface.json_int(obj, "scheme")
        raw_entries = obj["entries"]
    except (KeyError, TypeError, ValueError) as exc:
        raise GalleryFormatError(f"{path}: {exc}") from None
    if not isinstance(raw_entries, list):
        raise GalleryFormatError(f"{path}: entries must be a list")
    rows = []
    for i, raw in enumerate(raw_entries):
        try:
            row = (
                np.array(raw["coords"], dtype=float),
                str(raw["subject"]),
                str(raw["variant"]),
                float(raw["ra_avg"]),
                str(raw.get("source", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GalleryFormatError(f"{path}: entry {i}: {exc}") from None
        coords, _, _, ra, _ = row
        if coords.shape != (model.k,):
            raise GalleryFormatError(
                f"{path}: entry {i} has {coords.size} coords, model k={model.k}"
            )
        if not 0 < ra <= 1:
            raise GalleryFormatError(f"{path}: entry {i} ra_avg {ra} outside (0, 1]")
        rows.append(row)
    if not rows:
        raise GalleryFormatError(f"{path}: gallery has no entries")
    coords, subjects, variants, ra_avg, sources = zip(*rows)
    coords = np.array(coords)
    arrays = (coords, model.mean, model.eigenvectors, model.eigenvalues)
    if not all(np.isfinite(a).all() for a in arrays):
        raise GalleryFormatError(f"{path}: non-finite coordinate or model value")
    gallery = Gallery(scheme, subjects, variants, sources, coords, np.array(ra_avg))
    return gallery, model
