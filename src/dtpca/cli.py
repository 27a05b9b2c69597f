"""Command-line interface: triangulate, train, recognize, evaluate.

Exit codes: 0 success, 1 usage error, 2 data/format error, 3 numeric
failure (e.g. a zero-variance training set).  Every failure prints one
line to stderr in the form ``error: <category>: <detail>``.  Output files
are written atomically; nothing is written on failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import dataset_io, evalharness, geometry, recognizer
from .dataset_io import DatasetFormatError
from .eigenface import ImageSizeError, ZeroVarianceError
from .recognizer import atomic_write_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_MODE_FLAGS = {"pca-only": "pca_only", "dt-pca": "dt_pca"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dtpca",
        description="Face recognition via eigenfaces fused with a "
        "Delaunay-triangulation area descriptor.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("triangulate", help="triangulate a landmark file to JSON")
    p.add_argument("--landmarks", required=True, help="landmark CSV path")
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_triangulate)

    p = sub.add_parser("train", help="fit the eigenmodel and build a gallery file")
    p.add_argument("--manifest", required=True, help="training manifest CSV")
    p.add_argument("--k", type=int, default=evalharness.DEFAULT_K,
                   help="eigenvector count to retain (default 25)")
    p.add_argument("--out", required=True, help="gallery file to write")
    p.add_argument("--scheme-dir",
                   help="directory of landmark files overriding the manifest's")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("recognize", help="match one image against a gallery")
    p.add_argument("--gallery", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--landmarks")
    p.add_argument("--mode", required=True, choices=sorted(_MODE_FLAGS))
    p.add_argument("--dt-divisor", type=float, default=recognizer.DEFAULT_DT_DIVISOR)
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("evaluate", help="run split experiments and report accuracy")
    p.add_argument("--manifest", action="append", required=True,
                   help="manifest CSV; repeat for one column per landmark scheme")
    p.add_argument("--train-variants", required=True,
                   help="comma-separated training variants per subject, one row each")
    p.add_argument("--modes", required=True,
                   help="comma-separated: pca-only,dt-pca")
    p.add_argument("--dt-divisor", type=float, default=recognizer.DEFAULT_DT_DIVISOR)
    p.add_argument("--report", required=True, choices=sorted(evalharness.REPORT_FORMATS))
    p.add_argument("--out", help="report path (default: stdout)")
    p.set_defaults(func=cmd_evaluate)
    return parser


def cmd_triangulate(args) -> int:
    landmarks = dataset_io.load_landmarks(args.landmarks)
    try:
        tri = geometry.delaunay(landmarks)
    except ValueError as exc:
        raise DatasetFormatError(f"{args.landmarks}: {exc}") from None
    text = json.dumps(tri.to_dict()) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(args.out, text)
    return EXIT_OK


def _manifest_with_scheme_dir(manifest, scheme_dir):
    if scheme_dir is None:
        return manifest
    base = Path(scheme_dir)
    entries = tuple(
        dataclasses.replace(e, landmark_path=base / e.landmark_path.name)
        for e in manifest.entries
    )
    return dataset_io.DatasetManifest(entries=entries)


def cmd_train(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    manifest = dataset_io.load_manifest(args.manifest)
    manifest = _manifest_with_scheme_dir(manifest, args.scheme_dir)

    gallery, model = evalharness.train_gallery(
        manifest.entries, args.k, with_landmarks=True
    )
    recognizer.save_gallery(gallery, model, args.out)
    return EXIT_OK


def _check_dt_divisor(value: float) -> None:
    if not sys.float_info.min <= value < math.inf:
        raise UsageError(f"--dt-divisor must be finite and >= {sys.float_info.min}, got {value}")


def cmd_recognize(args) -> int:
    mode = _MODE_FLAGS[args.mode]
    if mode == "dt_pca" and args.landmarks is None:
        raise UsageError("--landmarks is required with --mode dt-pca")
    _check_dt_divisor(args.dt_divisor)
    gallery, model = recognizer.load_gallery(args.gallery)
    image = dataset_io.load_image(args.image)
    landmarks = None
    if mode == "dt_pca":
        landmarks = dataset_io.load_landmarks(args.landmarks)
    try:
        report = recognizer.recognize(
            gallery, model, image, landmarks, mode=mode, dt_divisor=args.dt_divisor
        )
    except recognizer.LandmarkError as exc:
        raise DatasetFormatError(f"{args.landmarks}: {exc}") from None
    except ImageSizeError as exc:
        raise DatasetFormatError(f"{args.image}: {exc}") from None
    sys.stdout.write(json.dumps(report.to_dict()) + "\n")
    return EXIT_OK


def _comma_list(flag, text, parse, what):
    items = [t.strip() for t in text.split(",") if t.strip()]
    try:
        values = [parse(t) for t in items]
    except (KeyError, ValueError):
        values = []
    if not values or len(set(values)) != len(values):
        raise UsageError(f"{flag} must list distinct {what}, got {text!r}")
    return values


def cmd_evaluate(args) -> int:
    modes = _comma_list(
        "--modes", args.modes, _MODE_FLAGS.__getitem__, "modes (pca-only, dt-pca)"
    )
    _check_dt_divisor(args.dt_divisor)
    splits = _comma_list("--train-variants", args.train_variants, int, "integers")
    table = evalharness.run_table(args.manifest, splits, modes, args.dt_divisor)
    evalharness.emit_report(table, args.report, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, evalharness.SplitRangeError) as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ZeroVarianceError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"error: data: {exc}", file=sys.stderr)
        return EXIT_DATA


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
