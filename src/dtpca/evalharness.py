"""Experiment harness: deterministic splits, accuracy tables, reports.

`run_table` builds the paper's table from one or more manifests, one per
landmark scheme: for each split (train on the first k variants of each
subject, test on the rest) it scores every requested mode on the first
manifest and the fused mode on each further one.  Within a call each
image file is read once, and each split fits one eigenmodel per distinct
list of training images, so manifests that share images share the fit.
`run_experiment` is that loop over one manifest and one split.  The text
report has one row per split, one column for the plain eigenface baseline
and one per landmark scheme.
"""

from __future__ import annotations

import io
import sys
from dataclasses import dataclass, replace

from . import dataset_io, eigenface, recognizer
from .dataset_io import DatasetFormatError
from .recognizer import atomic_write_text

DEFAULT_K = 25

REPORT_FORMATS = ("text", "csv")


class SplitRangeError(ValueError):
    """A split trains on no image or leaves a subject no test image."""


@dataclass(frozen=True)
class ExperimentConfig:
    manifest_path: str
    train_variants: int
    k: int = DEFAULT_K
    modes: tuple[str, ...] = ("pca_only", "dt_pca")
    dt_divisor: float = recognizer.DEFAULT_DT_DIVISOR
    landmark_scheme_label: str = ""

    def __post_init__(self):
        _check_inputs((self.train_variants,), self.k, self.modes, self.dt_divisor)


def _check_inputs(train_variants, k, modes, dt_divisor) -> None:
    for tv in train_variants:
        dataset_io.checked_int(tv, "train_variants", SplitRangeError)
    if not train_variants or min(train_variants) < 1:
        raise SplitRangeError("train_variants must be >= 1")
    if len(set(train_variants)) != len(train_variants):
        raise ValueError(f"duplicate train_variants: {list(train_variants)}")
    eigenface.checked_k(k)
    if not recognizer.valid_dt_divisor(dt_divisor):
        raise ValueError(f"dt_divisor must be finite and >= {sys.float_info.min}, got {dt_divisor}")
    bad = [m for m in modes if m not in recognizer.MODES]
    if bad or not modes:
        raise ValueError(f"modes must be a non-empty subset of {recognizer.MODES}")
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate modes: {list(modes)}")


@dataclass(frozen=True)
class AccuracyRow:
    train_count: int
    test_count: int
    mode: str
    scheme: str
    correct: int
    total: int
    percent: float


@dataclass(frozen=True)
class AccuracyTable:
    rows: tuple[AccuracyRow, ...]

    def merged(self, *others: "AccuracyTable") -> "AccuracyTable":
        rows = list(self.rows)
        for other in others:
            rows.extend(other.rows)
        return AccuracyTable(rows=tuple(rows))


def accuracy(correct: int, total: int) -> float:
    """Percent accuracy, half-up rounded to 1 decimal: tenths of a percent
    are floor(1000 * correct / total + 1/2), taken in integers."""
    if total <= 0:
        raise ValueError("total must be positive")
    if not 0 <= correct <= total:
        raise ValueError(f"correct={correct} outside [0, {total}]")
    return (2000 * correct + total) // (2 * total) / 10


class ImageReader:
    """Reads each image file once, keeping its uint8 pixels, and checks that
    all share one size."""

    def __init__(self):
        self._images = {}
        self._dims = None

    def __call__(self, path):
        img = self._images.get(path)
        if img is None:
            img = dataset_io.load_image(path)
            if self._dims not in (None, (img.width, img.height)):
                raise DatasetFormatError(
                    f"{path}: image is {img.width}x{img.height}, expected "
                    f"{self._dims[0]}x{self._dims[1]}"
                )
            self._images[path] = img
            self._dims = (img.width, img.height)
        return img


def train_gallery(entries, k: int, with_landmarks: bool, read=None, model=None):
    """Load the entries' images and landmarks, fit, build the gallery.

    Returns (gallery, model).  All images are read first, then (only when
    with_landmarks is set) each landmark file is loaded and triangulated
    once, in entry order, so a bad file fails before the fit.  `read`
    (default: a fresh ImageReader) loads the images; a given `model` is
    used instead of a fit.
    """
    read = read or ImageReader()
    images = [read(e.image_path) for e in entries]
    scheme = ra_avg = None
    if with_landmarks:
        try:
            scheme, ra_avg = recognizer.landmark_descriptors(
                dataset_io.load_landmarks(e.landmark_path) for e in entries
            )
        except recognizer.LandmarkError as exc:
            raise DatasetFormatError(f"{entries[exc.index].landmark_path}: {exc}") from None
    if model is None:
        model = eigenface.fit_eigenmodel(images, k)
    # The gallery projects the images; the scheme and RA_avg are set above.
    gallery = recognizer.build_gallery(model, [
        recognizer.TrainingRecord(img, None, e.subject_id, e.variant, str(e.image_path))
        for e, img in zip(entries, images)
    ])
    return replace(gallery, scheme=scheme, ra_avg=ra_avg), model


def run_table(
    manifest_paths,
    train_variants,
    modes=recognizer.MODES,
    dt_divisor: float = recognizer.DEFAULT_DT_DIVISOR,
    k: int = DEFAULT_K,
) -> AccuracyTable:
    """Train on each deterministic split and classify every test image.

    For each split in `train_variants`, the first manifest gives one row
    per mode in `modes` order, and each further manifest a dt_pca row.
    A prediction is correct when the matched entry's subject id equals the
    test image's subject id.  In pca_only mode no landmark file is read.
    The dt_pca rows are labelled with their landmark count, so two
    manifests of one scheme are a data error.  Every split of every
    manifest is made before any image is read; one that trains on no image
    or tests on none raises SplitRangeError.  No manifest is a ValueError.
    """
    manifest_paths = tuple(manifest_paths)
    train_variants, modes = tuple(train_variants), tuple(modes)
    _check_inputs(train_variants, k, modes, dt_divisor)
    if not manifest_paths:
        raise ValueError("run_table needs at least one manifest")
    splits = {}  # (train_variants, manifest index) -> (train, test)
    for i, path in enumerate(manifest_paths):
        manifest = dataset_io.load_manifest(path)
        for tv in train_variants:
            try:
                splits[tv, i] = dataset_io.split_dataset(manifest, tv)
            except ValueError as exc:
                raise SplitRangeError(f"{path}: {exc}") from None
    read = ImageReader()
    scheme_owner = {}
    rows = []
    for tv in train_variants:
        models = {}
        for i in range(len(manifest_paths)):
            cell_modes = modes if i == 0 else [m for m in modes if m == "dt_pca"]
            if not cell_modes:
                continue
            train_m, test_m = splits[tv, i]
            need_dt = "dt_pca" in cell_modes
            key = tuple(e.image_path for e in train_m.entries)
            gallery, model = train_gallery(
                train_m.entries, k, need_dt, read, models.get(key)
            )
            models[key] = model
            if need_dt:
                owner = scheme_owner.setdefault(gallery.scheme, i)
                if owner != i:
                    raise DatasetFormatError(
                        f"{manifest_paths[owner]} and {manifest_paths[i]} both "
                        f"have {gallery.scheme}-point landmarks"
                    )
            test_images = [read(e.image_path) for e in test_m.entries]
            test_landmarks = [
                dataset_io.load_landmarks(e.landmark_path) if need_dt else None
                for e in test_m.entries
            ]
            for mode in cell_modes:
                correct = 0
                for e, img, lmk in zip(test_m.entries, test_images, test_landmarks):
                    try:
                        report = recognizer.recognize(
                            gallery,
                            model,
                            img,
                            lmk if mode == "dt_pca" else None,
                            mode=mode,
                            dt_divisor=dt_divisor,
                        )
                    except recognizer.LandmarkError as exc:
                        raise DatasetFormatError(f"{e.landmark_path}: {exc}") from None
                    if report.best_subject == e.subject_id:
                        correct += 1
                total = len(test_m.entries)
                rows.append(
                    AccuracyRow(
                        train_count=len(train_m.entries),
                        test_count=total,
                        mode=mode,
                        scheme=str(gallery.scheme) if mode == "dt_pca" else "",
                        correct=correct,
                        total=total,
                        percent=accuracy(correct, total),
                    )
                )
    return AccuracyTable(rows=tuple(rows))


def run_experiment(config: ExperimentConfig) -> AccuracyTable:
    """`run_table` over one manifest and one split; a non-empty
    landmark_scheme_label replaces the landmark count on the dt_pca row.
    """
    table = run_table(
        [config.manifest_path], [config.train_variants], config.modes,
        config.dt_divisor, config.k,
    )
    if not config.landmark_scheme_label:
        return table
    return AccuracyTable(rows=tuple(
        replace(r, scheme=config.landmark_scheme_label) if r.mode == "dt_pca" else r
        for r in table.rows
    ))


def render_text_report(table: AccuracyTable) -> str:
    """Aligned table: one row per split, columns for the plain-eigenface
    baseline and each landmark scheme present ("<scheme>-L").
    """
    if not table.rows:
        raise ValueError("empty accuracy table")
    splits: list[tuple[int, int]] = []
    schemes: list[str] = []
    has_pca = False
    for row in table.rows:
        key = (row.train_count, row.test_count)
        if key not in splits:
            splits.append(key)
        if row.mode == "pca_only":
            has_pca = True
        elif row.scheme not in schemes:
            schemes.append(row.scheme)

    columns = (["Traditional PCA"] if has_pca else []) + [f"{s}-L" for s in schemes]
    cells = {}
    for row in table.rows:
        col = "Traditional PCA" if row.mode == "pca_only" else f"{row.scheme}-L"
        cells[((row.train_count, row.test_count), col)] = f"{row.percent:.1f} %"

    label_width = max(len(_split_label_for(t, e)) for t, e in splits)
    col_widths = [
        max(len(c), *(len(cells.get((s, c), "")) for s in splits)) for c in columns
    ]
    out = io.StringIO()
    out.write(" " * label_width)
    for c, w in zip(columns, col_widths):
        out.write("  " + c.rjust(w))
    out.write("\n")
    for s in splits:
        out.write(_split_label_for(*s).ljust(label_width))
        for c, w in zip(columns, col_widths):
            out.write("  " + cells.get((s, c), "-").rjust(w))
        out.write("\n")
    return out.getvalue()


def _split_label_for(train_count: int, test_count: int) -> str:
    return f"Train – {train_count} Test – {test_count}"


def render_csv_report(table: AccuracyTable) -> str:
    """Machine-readable report: split,mode,scheme,correct,total,percent."""
    if not table.rows:
        raise ValueError("empty accuracy table")
    lines = ["split,mode,scheme,correct,total,percent"]
    for row in table.rows:
        lines.append(
            f"{row.train_count}/{row.test_count},{row.mode},{row.scheme},"
            f"{row.correct},{row.total},{row.percent:.1f}"
        )
    return "\n".join(lines) + "\n"


def emit_report(table: AccuracyTable, format: str, path=None) -> str:
    """Render the table and write it to `path` (atomic) or stdout."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"format must be one of {REPORT_FORMATS}, got {format!r}")
    text = render_text_report(table) if format == "text" else render_csv_report(table)
    if path is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(path, text)
    return text
