"""Dataset ingestion: grayscale PGM images, landmark CSVs, and manifests.

Images are 8-bit grayscale PGM (binary P5 or ASCII P2, maxval 255),
flattened row-major and kept as their raw uint8 pixels, one byte each; a
pixel's intensity is its value divided by exactly 255, which
ImageVector.normalized() gives.  The eigenface fit sums its Gram from the
integer pixels, so an ImageVector holds uint8 pixels only.  Landmarks are
one "x,y" pair per line.  A manifest CSV lists the images of a dataset with
their subject id, variant label, and landmark file; train/test splitting is
deterministic (first k variants per subject, in manifest order).
"""

from __future__ import annotations

import csv
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetFormatError(ValueError):
    """A dataset file exists but its contents are not in the expected format."""


@dataclass(frozen=True)
class ImageVector:
    """A grayscale image flattened row-major: values is a 1-D uint8 array
    of length width * height, the raw 8-bit pixels load_image returns, and
    a pixel's intensity is its value / 255."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        v = self.values
        if not (isinstance(v, np.ndarray) and v.ndim == 1 and v.dtype == np.uint8):
            raise ValueError("values must be a 1-D array of dtype uint8")
        if len(v) != self.width * self.height:
            raise ValueError(f"value count {len(v)} != {self.width}x{self.height}")

    def normalized(self, start=0, stop=None, out=None) -> np.ndarray:
        """The intensities of values[start:stop] as float64, each pixel
        divided by exactly 255.  Written into `out` when given."""
        # Divide rather than multiply by 1/255: the product rounds
        # differently for 24 of the 256 pixel values.
        return np.divide(self.values[start:stop], 255.0, out=out)


@dataclass(frozen=True)
class ManifestEntry:
    image_path: Path
    subject_id: str
    variant: str
    landmark_path: Path


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[ManifestEntry, ...]

    def entries_by_subject(self) -> dict[str, list[ManifestEntry]]:
        groups: dict[str, list[ManifestEntry]] = {}
        for e in self.entries:
            groups.setdefault(e.subject_id, []).append(e)
        return groups


# The magic number, then width, height and maxval, each after any run of
# whitespace and "#" comments.  A comment runs to the end of its line and a
# token to the next whitespace or "#"; the lookaheads keep either from
# being matched short.
_PGM_TOKEN = rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]+)(?![^\s#])"
_PGM_HEADER = re.compile(rb"P[25]" + _PGM_TOKEN * 3)


def load_image(path) -> ImageVector:
    """Load an 8-bit grayscale PGM as its row-major uint8 pixels.

    Accepts binary P5 and ASCII P2 with maxval exactly 255.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:2] not in (b"P5", b"P2"):
        raise DatasetFormatError(f"{path}: unsupported magic number {data[:2]!r}")
    header = _PGM_HEADER.match(data)
    if header is None:
        raise DatasetFormatError(f"{path}: truncated PGM header")
    if not data[header.end() : header.end() + 1].isspace():
        raise DatasetFormatError(f"{path}: missing whitespace after PGM header")
    raster_pos = header.end() + 1
    if not all(t.isdigit() for t in header.groups()):  # int() takes a sign or "_" too
        raise DatasetFormatError(f"{path}: non-numeric PGM header")
    digits = [t.lstrip(b"0") or b"0" for t in header.groups()]
    try:
        width, height, maxval = map(int, digits)
    except ValueError:  # more digits than int() converts
        longest = max(map(len, digits))
        raise DatasetFormatError(f"{path}: PGM header value too large ({longest} digits)") from None
    if width <= 0 or height <= 0:
        raise DatasetFormatError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise DatasetFormatError(f"{path}: maxval {maxval} unsupported (must be 255)")
    npix = width * height
    if data[:2] == b"P5":
        raster = data[raster_pos : raster_pos + npix]
        if len(raster) < npix:
            raise DatasetFormatError(f"{path}: truncated pixel data")
        raw = np.frombuffer(raster, dtype=np.uint8)
    else:
        fields = data[raster_pos:].split()
        if len(fields) < npix:
            raise DatasetFormatError(f"{path}: truncated pixel data")
        fields = fields[:npix]
        try:
            # Digits, or a minus sign that makes the value out of range; int()
            # would also take a plus sign or "_".
            if not all(f.removeprefix(b"-").isdigit() for f in fields):
                raise ValueError
            pixels = list(map(int, fields))
        except ValueError:
            raise DatasetFormatError(f"{path}: non-numeric pixel value") from None
        # Checked on Python ints before the cast, so a field beyond int64
        # is out of range too.
        if min(pixels) < 0 or max(pixels) > 255:
            raise DatasetFormatError(f"{path}: pixel value out of range")
        raw = np.array(pixels, dtype=np.uint8)
    return ImageVector(width=width, height=height, values=raw)


def save_image(image: ImageVector, path) -> None:
    """Write an ImageVector's pixels as binary P5."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    Path(path).write_bytes(header + image.values.tobytes())


def _read_lines(path: Path) -> list[str]:
    """A UTF-8 text file's lines, whatever the locale, without a leading
    byte-order mark; a decode error names the file."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: {exc}") from None


def load_landmarks(path) -> np.ndarray:
    """Load a landmark CSV: one "x,y" decimal pair per line, no header.

    Returns the points as a float64 (n, 2) array, (0, 2) for an empty
    file; n is the scheme label.  Checks each line only: two finite, not
    subnormal coordinates.  Whether the set can be triangulated (at least
    3 points, no duplicates, not all collinear) is delaunay's to decide.
    """
    path = Path(path)
    points = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DatasetFormatError(f"{path}:{lineno}: expected 'x,y'")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError:
            raise DatasetFormatError(f"{path}:{lineno}: unparsable coordinate {line!r}") from None
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DatasetFormatError(f"{path}:{lineno}: non-finite coordinate {line!r}")
        if 0 < abs(x) < sys.float_info.min or 0 < abs(y) < sys.float_info.min:
            raise DatasetFormatError(f"{path}:{lineno}: subnormal coordinate {line!r}")
        points.append((x, y))
    return np.array(points, dtype=float).reshape(-1, 2)


MANIFEST_HEADER = ["image_path", "subject_id", "variant", "landmark_path"]


def load_manifest(path) -> DatasetManifest:
    """Load a manifest CSV.  Relative file paths resolve against the
    manifest's own directory.  Requires the exact header line and at least
    one entry, and checks that (subject, variant) pairs are unique and
    subjects are not ragged.
    """
    path = Path(path)
    base = path.parent
    entries = []
    reader = csv.reader(_read_lines(path))
    try:
        header = next(reader)
    except StopIteration:
        raise DatasetFormatError(f"{path}: empty manifest") from None
    if header != MANIFEST_HEADER:
        raise DatasetFormatError(f"{path}: manifest header must be {','.join(MANIFEST_HEADER)}")
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
    if not entries:
        raise DatasetFormatError(f"{path}: manifest lists no entries")
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
    k = train_variants_per_subject
    seen: dict[str, int] = {}
    train: list[ManifestEntry] = []
    test: list[ManifestEntry] = []
    for e in manifest.entries:
        i = seen.get(e.subject_id, 0)
        seen[e.subject_id] = i + 1
        (train if i < k else test).append(e)
    counts = set(seen.values())
    if len(counts) > 1:
        raise ValueError(f"ragged subjects: variant counts {sorted(counts)}")
    per_subject = counts.pop() if counts else 0
    if per_subject < 2:
        raise ValueError(
            f"a split needs at least 2 variants per subject, the manifest has {per_subject}"
        )
    if not 1 <= k < per_subject:
        raise ValueError(
            f"train_variants_per_subject={k} out of range [1, {per_subject - 1}]"
        )
    return DatasetManifest(entries=tuple(train)), DatasetManifest(entries=tuple(test))
