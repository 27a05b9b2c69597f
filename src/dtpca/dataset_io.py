"""Dataset ingestion: grayscale PGM images, landmark CSVs, and manifests.

Images are 8-bit grayscale PGM (binary P5 or ASCII P2, maxval 255) and are
flattened row-major with every pixel divided by exactly 255.  Landmarks are
one "x,y" pair per line.  A manifest CSV lists the images of a dataset with
their subject id, variant label, and landmark file; train/test splitting is
deterministic (first k variants per subject, in manifest order).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import geometry


class DatasetFormatError(ValueError):
    """A dataset file exists but its contents are not in the expected format."""


@dataclass(frozen=True)
class ImageVector:
    """A grayscale image flattened to normalized intensities.

    values is row-major with length width * height; every entry is a raw
    8-bit pixel divided by exactly 255, so it lies in [0, 1].
    """

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.width * self.height:
            raise ValueError(
                f"value count {len(self.values)} != {self.width}x{self.height}"
            )


@dataclass(frozen=True)
class LandmarkSet:
    """Ordered 2D landmark points for one image.

    scheme is the declared landmark count label (68, 79, 194, ...).
    """

    points: np.ndarray
    scheme: int

    def __post_init__(self):
        if len(self.points) < 3:
            raise ValueError("a landmark set needs at least 3 points")


@dataclass(frozen=True)
class ManifestEntry:
    image_path: Path
    subject_id: str
    variant: str
    landmark_path: Path


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]

    def subjects(self) -> list[str]:
        """Subject ids in order of first appearance."""
        seen: dict[str, None] = {}
        for e in self.entries:
            seen.setdefault(e.subject_id, None)
        return list(seen)

    def entries_by_subject(self) -> dict[str, list[ManifestEntry]]:
        groups: dict[str, list[ManifestEntry]] = {}
        for e in self.entries:
            groups.setdefault(e.subject_id, []).append(e)
        return groups


def _read_pgm_tokens(data: bytes, path, count: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated header tokens, skipping # comments.

    Returns the tokens plus the offset one byte past the final token's
    trailing whitespace character (start of the raster for P5).
    """
    tokens = []
    pos = 0
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos < n and data[pos : pos + 1] == b"#":
            while pos < n and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        if pos == start:
            raise DatasetFormatError(f"{path}: truncated PGM header")
        tokens.append(data[start:pos])
    if pos >= n or not data[pos : pos + 1].isspace():
        raise DatasetFormatError(f"{path}: missing whitespace after PGM header")
    return tokens, pos + 1


def load_image(path) -> ImageVector:
    """Load an 8-bit grayscale PGM as a normalized row-major vector.

    Accepts binary P5 and ASCII P2 with maxval exactly 255.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:2] not in (b"P5", b"P2"):
        raise DatasetFormatError(f"{path}: unsupported magic number {data[:2]!r}")
    magic = data[:2]
    (w_tok, h_tok, max_tok), raster_pos = _read_pgm_tokens(data[2:], path, 3)
    try:
        width, height, maxval = int(w_tok), int(h_tok), int(max_tok)
    except ValueError:
        raise DatasetFormatError(f"{path}: non-numeric PGM header") from None
    if width <= 0 or height <= 0:
        raise DatasetFormatError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise DatasetFormatError(f"{path}: maxval {maxval} unsupported (must be 255)")
    npix = width * height
    if magic == b"P5":
        raster = data[2 + raster_pos : 2 + raster_pos + npix]
        if len(raster) < npix:
            raise DatasetFormatError(f"{path}: truncated pixel data")
        raw = np.frombuffer(raster, dtype=np.uint8)
    else:
        fields = data[2 + raster_pos :].split()
        if len(fields) < npix:
            raise DatasetFormatError(f"{path}: truncated pixel data")
        try:
            raw = np.array([int(f) for f in fields[:npix]], dtype=np.int64)
        except ValueError:
            raise DatasetFormatError(f"{path}: non-numeric pixel value") from None
        if raw.min() < 0 or raw.max() > 255:
            raise DatasetFormatError(f"{path}: pixel value out of range")
    return ImageVector(width=width, height=height, values=raw.astype(float) / 255.0)


def save_image(image: ImageVector, path) -> None:
    """Write an ImageVector as binary P5, rounding values * 255 to integers."""
    raw = np.clip(np.rint(np.asarray(image.values) * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + raw.tobytes())


def load_landmarks(path) -> LandmarkSet:
    """Load a landmark CSV: one "x,y" decimal pair per line, no header.

    The scheme label is the point count.  Rejects files with fewer than 3
    points, duplicate points, or all points on one line.
    """
    path = Path(path)
    points = []
    with open(path, "r", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise DatasetFormatError(f"{path}:{lineno}: expected 'x,y'")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise DatasetFormatError(
                    f"{path}:{lineno}: unparsable coordinate {line!r}"
                ) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DatasetFormatError(
                    f"{path}:{lineno}: non-finite coordinate {line!r}"
                )
            points.append((x, y))
    if len(points) < 3:
        raise DatasetFormatError(f"{path}: fewer than 3 landmark points")
    if len(set(points)) != len(points):
        raise DatasetFormatError(f"{path}: duplicate landmark point")
    if _all_collinear(points):
        raise DatasetFormatError(f"{path}: all landmark points are collinear")
    return LandmarkSet(points=np.array(points, dtype=float), scheme=len(points))


def _all_collinear(points) -> bool:
    a = points[0]
    b = next((p for p in points[1:] if p != a), None)
    if b is None:
        return True
    return all(geometry.orientation(a, b, c) == 0 for c in points[1:])


MANIFEST_HEADER = ["image_path", "subject_id", "variant", "landmark_path"]


def load_manifest(path) -> DatasetManifest:
    """Load a manifest CSV.  Relative file paths resolve against the
    manifest's own directory.  Requires the exact header line and checks
    that (subject, variant) pairs are unique and subjects are not ragged.
    """
    path = Path(path)
    base = path.parent
    entries = []
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: empty manifest") from None
        if header != MANIFEST_HEADER:
            raise DatasetFormatError(
                f"{path}: manifest header must be {','.join(MANIFEST_HEADER)}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DatasetFormatError(f"{path}:{lineno}: expected 4 columns")
            img, subject, variant, lmk = (c.strip() for c in row)
            entries.append(
                ManifestEntry(
                    image_path=base / img,
                    subject_id=subject,
                    variant=variant,
                    landmark_path=base / lmk,
                )
            )
    manifest = DatasetManifest(entries=tuple(entries))
    _validate_manifest(manifest, path)
    return manifest


def _validate_manifest(manifest: DatasetManifest, path) -> None:
    pairs = [(e.subject_id, e.variant) for e in manifest.entries]
    if len(set(pairs)) != len(pairs):
        raise DatasetFormatError(f"{path}: duplicate (subject_id, variant) pair")
    counts = {s: len(v) for s, v in manifest.entries_by_subject().items()}
    if len(set(counts.values())) > 1:
        raise DatasetFormatError(
            f"{path}: ragged manifest (unequal variant counts per subject: {counts})"
        )


def save_manifest(manifest: DatasetManifest, path) -> None:
    """Write a manifest CSV with paths relative to the target directory."""
    path = Path(path)
    base = path.parent
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        for e in manifest.entries:
            writer.writerow(
                [
                    _relativize(e.image_path, base),
                    e.subject_id,
                    e.variant,
                    _relativize(e.landmark_path, base),
                ]
            )


def _relativize(target: Path, base: Path) -> str:
    try:
        return Path(target).relative_to(base).as_posix()
    except ValueError:
        return Path(target).as_posix()


def split_dataset(
    manifest: DatasetManifest, train_variants_per_subject: int
) -> tuple[DatasetManifest, DatasetManifest]:
    """Deterministic split: per subject, the first k entries in manifest
    order are the training set and the remainder the test set.
    """
    groups = manifest.entries_by_subject()
    counts = {len(v) for v in groups.values()}
    if len(counts) > 1:
        raise ValueError(f"ragged subjects: variant counts {sorted(counts)}")
    per_subject = counts.pop() if counts else 0
    k = train_variants_per_subject
    if not 1 <= k < per_subject:
        raise ValueError(
            f"train_variants_per_subject={k} out of range [1, {per_subject - 1}]"
        )
    train: list[ManifestEntry] = []
    test: list[ManifestEntry] = []
    for e in manifest.entries:
        group = groups[e.subject_id]
        if group.index(e) < k:
            train.append(e)
        else:
            test.append(e)
    return DatasetManifest(entries=tuple(train)), DatasetManifest(entries=tuple(test))
