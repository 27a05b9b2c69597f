import dataclasses
import json
import os
import stat

import pytest

import oracles
from dtpca import cli, dataset_io, eigenface, recognizer, synthetic
from dtpca.dataset_io import (
    DatasetManifest,
    load_landmarks,
    load_manifest,
    save_manifest,
)
from dtpca.evalharness import render_csv_report, render_text_report
from dtpca.recognizer import GALLERY_ARRAYS, GalleryFormatError, load_gallery
from test_evalharness import per_cell_table
from test_recognizer import (
    V1_GALLERY,
    declare_huge_mean,
    edit_gallery,
    gallery_records,
    record_ends,
)


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- triangulate -----------------------------------------------------------------

def test_triangulate_triangle(tmp_path, capsys, write_landmarks):
    path = write_landmarks("tri.csv", [(0, 0), (4, 0), (2, 3)])
    rc, out, err = run_cli(capsys, "triangulate", "--landmarks", str(path))
    assert rc == 0
    mesh = json.loads(out)
    assert mesh["triangles"] == [[0, 1, 2]]
    assert mesh["average_relative_area"] == 1.0


def test_triangulate_collinear_names_file(tmp_path, capsys, write_landmarks):
    path = write_landmarks("col.csv", [(0, 0), (1, 1), (2, 2)])
    rc, out, err = run_cli(capsys, "triangulate", "--landmarks", str(path))
    assert rc == 2
    assert err.startswith("error: data:")
    assert "col.csv" in err


@pytest.mark.parametrize(
    "points, message",
    [
        ([(0, 0), (1, 2), (1, 2), (3, 1)], "duplicate point (1.0, 2.0)"),
        ([(0, 0), (1, 1), (2, 2)], "all points are collinear"),
        ([(0, 0), (1, 1)], "need at least 3 points to triangulate"),
    ],
    ids=["duplicate", "collinear", "too_few"],
)
def test_triangulate_rejects_unmeshable_landmarks(
    capsys, write_landmarks, points, message
):
    # load_landmarks reads these sets unchanged; delaunay rejects them.
    path = write_landmarks("set.csv", points)
    rc, out, err = run_cli(capsys, "triangulate", "--landmarks", str(path))
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {path}: {message}\n"


def test_triangulate_68_point_count(capsys, synth_dataset):
    path = synth_dataset["root"] / "landmarks68" / "s01_v1.csv"
    rc, out, err = run_cli(capsys, "triangulate", "--landmarks", str(path))
    assert rc == 0
    mesh = json.loads(out)
    pts = load_landmarks(path)
    h = len(oracles.convex_hull_indices(pts))
    assert len(mesh["triangles"]) == 2 * 68 - h - 2


def test_triangulate_out_file(tmp_path, capsys, write_landmarks):
    path = write_landmarks("tri.csv", [(0, 0), (4, 0), (2, 3), (2, 1)])
    out_path = tmp_path / "mesh.json"
    rc, out, err = run_cli(
        capsys, "triangulate", "--landmarks", str(path), "--out", str(out_path)
    )
    assert rc == 0
    assert out == ""
    mesh = json.loads(out_path.read_text())
    assert len(mesh["triangles"]) == 3


def scaled_landmarks(synth_dataset, write_landmarks, factor=1e150):
    pts = load_landmarks(synth_dataset["root"] / "landmarks68" / "s03_v2.csv")
    return write_landmarks("scaled.csv", (pts * factor).tolist())


def test_triangulate_overflowing_areas_exits_2(capsys, synth_dataset, write_landmarks):
    # Heron's formula overflows to inf near 1e150; this used to print NaN.
    path = scaled_landmarks(synth_dataset, write_landmarks)
    rc, out, err = run_cli(capsys, "triangulate", "--landmarks", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: data:") and "non-finite" in err


def test_triangulate_subnormal_coordinate_exits_2(tmp_path, capsys):
    # Its one triangle has an exact area below the smallest double.
    path = tmp_path / "tiny.csv"
    path.write_text("0,1\n1,1.5\n4.9e-324,1\n")
    rc, out, err = run_cli(capsys, "triangulate", "--landmarks", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: data:") and "tiny.csv:3: subnormal" in err


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"


def test_triangulate_names_a_landmark_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"0,0\n\xff,0\n2,3\n")
    rc, out, err = run_cli(capsys, "triangulate", "--landmarks", str(path))
    assert (rc, out, err) == (2, "", f"error: data: {path}: {NOT_UTF8}\n")


def test_triangulate_missing_file(tmp_path, capsys):
    rc, out, err = run_cli(
        capsys, "triangulate", "--landmarks", str(tmp_path / "none.csv")
    )
    assert rc == 2
    assert err.startswith("error: data:")


# --- train -----------------------------------------------------------------------

def test_train_writes_gallery(tmp_path, capsys, synth_dataset):
    out = tmp_path / "gallery.json"
    rc, _, err = run_cli(
        capsys,
        "train",
        "--manifest", str(synth_dataset["manifest"]),
        "--k", "25",
        "--out", str(out),
    )
    assert rc == 0, err
    header, arrays = gallery_records(out)
    assert header["format_version"] == 3
    assert header["scheme"] == 68
    assert header["k"] <= 25 == header["requested_k"]
    assert len(header["subjects"]) == 20
    assert arrays["coords"].shape == (20, header["k"])


def test_train_missing_image_exits_2_and_writes_nothing(tmp_path, capsys):
    manifest = tmp_path / "m.csv"
    manifest.write_text(
        "image_path,subject_id,variant,landmark_path\n"
        "ghost.pgm,s01,v1,ghost.csv\nghost2.pgm,s01,v2,ghost2.csv\n"
    )
    out = tmp_path / "gallery.json"
    rc, _, err = run_cli(
        capsys, "train", "--manifest", str(manifest), "--out", str(out)
    )
    assert rc == 2
    assert err.startswith("error: data:")
    assert not out.exists()


def test_train_single_image_rejected(tmp_path, capsys, synth_dataset):
    src_root = synth_dataset["root"]
    manifest = tmp_path / "one.csv"
    manifest.write_text(
        "image_path,subject_id,variant,landmark_path\n"
        f"{src_root}/images/s01_v1.pgm,s01,v1,{src_root}/landmarks68/s01_v1.csv\n"
    )
    rc, _, err = run_cli(
        capsys, "train", "--manifest", str(manifest),
        "--out", str(tmp_path / "g.json"),
    )
    assert rc == 2


def same_image_manifest(tmp_path, synth_dataset, last_landmarks=None):
    """Three entries of one image, so the fit finds zero variance; the last
    entry's landmark file is `last_landmarks` when given."""
    src_root = synth_dataset["root"]
    img = f"{src_root}/images/s01_v1.pgm"
    lmks = [f"{src_root}/landmarks68/s01_v1.csv"] * 3
    lmks[-1] = last_landmarks or lmks[-1]
    manifest = tmp_path / "same.csv"
    manifest.write_text(
        "image_path,subject_id,variant,landmark_path\n"
        + "".join(f"{img},s01,v{i},{lmk}\n" for i, lmk in enumerate(lmks))
    )
    return manifest


def test_train_zero_variance_exits_3(tmp_path, capsys, synth_dataset):
    manifest = same_image_manifest(tmp_path, synth_dataset)
    out = tmp_path / "g.json"
    rc, _, err = run_cli(
        capsys, "train", "--manifest", str(manifest), "--out", str(out)
    )
    assert rc == 3
    assert err.startswith("error: numeric:")
    assert not out.exists()


def test_train_scheme_dir_override(tmp_path, capsys, synth_dataset):
    out = tmp_path / "gallery.json"
    rc, _, err = run_cli(
        capsys,
        "train",
        "--manifest", str(synth_dataset["manifest"]),
        "--scheme-dir", str(synth_dataset["root"] / "landmarks68"),
        "--out", str(out),
    )
    assert rc == 0, err
    assert gallery_records(out)[0]["scheme"] == 68


@pytest.fixture
def vanishing_manifest(tmp_path, synth_dataset, write_landmarks):
    """The synthetic manifest with s02_v2's landmarks scaled by 1e-166, so
    that delaunay finds every area zero; returns it and that file's path."""
    manifest = load_manifest(synth_dataset["manifest"])
    entries = list(manifest.entries)
    k, e = next((k, e) for k, e in enumerate(entries) if (e.subject_id, e.variant) == ("s02", "v2"))
    bad = write_landmarks("s02_v2.csv", (load_landmarks(e.landmark_path) * 1e-166).tolist())
    entries[k] = dataset_io.ManifestEntry(e.image_path, e.subject_id, e.variant, bad)
    path = tmp_path / "vanishing.csv"
    save_manifest(DatasetManifest(entries=tuple(entries)), path)
    return path, bad


def test_train_names_the_rejected_landmark_file(tmp_path, capsys, vanishing_manifest):
    # It used to name the image, s02_v2.pgm.
    manifest, bad = vanishing_manifest
    out = tmp_path / "g.gallery"
    rc, _, err = run_cli(capsys, "train", "--manifest", str(manifest), "--out", str(out))
    assert rc == 2
    assert err == f"error: data: {bad}: all areas are zero\n"
    assert not out.exists()


def edited_manifest(src, out, subject, variant, **changes):
    """A copy of manifest src, written to out, whose (subject, variant)
    entry has the fields in `changes` replaced."""
    entries = tuple(
        dataclasses.replace(e, **changes) if (e.subject_id, e.variant) == (subject, variant) else e
        for e in load_manifest(src).entries
    )
    save_manifest(DatasetManifest(entries=entries), out)
    return out


def landmark_path_of(manifest, subject, variant):
    return next(
        e.landmark_path
        for e in load_manifest(manifest).entries
        if (e.subject_id, e.variant) == (subject, variant)
    )


def train_or_evaluate(capsys, command, manifest, tmp_path):
    """`dtpca train`, or `dtpca evaluate` in dt-pca mode training on 2
    variants per subject, on one manifest."""
    argv = {
        "train": ["--out", str(tmp_path / "g.gallery")],
        "evaluate": ["--train-variants", "2", "--modes", "dt-pca", "--report", "text"],
    }[command]
    return run_cli(capsys, command, "--manifest", str(manifest), *argv)


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_training_landmark_file_of_another_scheme_is_named(
    capsys, tmp_path, scheme_manifests, command
):
    # s02_v2 trains in both commands; its file has 9 points, every other 8.
    # It used to print the schemes and no path.
    bad = landmark_path_of(scheme_manifests[1], "s02", "v2")
    manifest = edited_manifest(
        scheme_manifests[0], tmp_path / "mixed.csv", "s02", "v2", landmark_path=bad
    )
    rc, out, err = train_or_evaluate(capsys, command, manifest, tmp_path)
    assert rc == 2
    assert out == ""
    assert err == (
        f"error: data: {bad}: mixed landmark schemes in training set: "
        "9 points, the first record has 8\n"
    )
    assert not (tmp_path / "g.gallery").exists()


@pytest.mark.parametrize("field", ["image_path", "landmark_path"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_missing_training_file_is_one_data_error_naming_it(
    capsys, tmp_path, synth_dataset, command, field
):
    ghost = tmp_path / ("ghost.pgm" if field == "image_path" else "ghost.csv")
    manifest = edited_manifest(
        synth_dataset["manifest"], tmp_path / "m.csv", "s02", "v2",
        **{field: ghost},
    )
    rc, out, err = train_or_evaluate(capsys, command, manifest, tmp_path)
    assert rc == 2
    assert out == ""
    # The OSError's own text, as recognize and triangulate print it.
    assert err == f"error: data: [Errno 2] No such file or directory: '{ghost}'\n"
    assert not (tmp_path / "g.gallery").exists()


def test_train_missing_landmark_file_fails_before_the_fit(
    capsys, tmp_path, synth_dataset, monkeypatch
):
    last = load_manifest(synth_dataset["manifest"]).entries[-1]
    ghost = tmp_path / "ghost.csv"
    manifest = edited_manifest(
        synth_dataset["manifest"], tmp_path / "m.csv", last.subject_id, last.variant,
        landmark_path=ghost,
    )
    fits = []
    fit = eigenface.fit_eigenmodel
    monkeypatch.setattr(
        eigenface, "fit_eigenmodel", lambda *a: fits.append(a) or fit(*a)
    )
    rc, out, err = train_or_evaluate(capsys, "train", manifest, tmp_path)
    assert rc == 2
    assert err == f"error: data: [Errno 2] No such file or directory: '{ghost}'\n"
    assert fits == []
    assert not (tmp_path / "g.gallery").exists()


def test_train_bad_landmark_file_outranks_zero_variance(tmp_path, capsys, synth_dataset):
    # Identical images alone exit 3 (test_train_zero_variance_exits_3); the
    # landmark files are read before the fit, so a missing one exits 2.
    ghost = tmp_path / "ghost.csv"
    manifest = same_image_manifest(tmp_path, synth_dataset, ghost)
    rc, out, err = train_or_evaluate(capsys, "train", manifest, tmp_path)
    assert rc == 2
    assert err == f"error: data: [Errno 2] No such file or directory: '{ghost}'\n"


def bad_training_landmarks(kind, points):
    """A training landmark file's 68 points made unusable by kind, and the
    start of the message that rejects them."""
    return {
        "duplicate": ([*points[:5], points[3], *points[6:]], "duplicate point ("),
        "collinear": ([(i, 2 * i) for i in range(68)], "all points are collinear"),
        "two_points": (points[:2], "mixed landmark schemes in training set: 2 points"),
        "other_scheme": (points[:9], "mixed landmark schemes in training set: 9 points"),
        "overflow": ([(x * 1e150, y * 1e150) for x, y in points], "non-finite triangle area"),
    }[kind]


@pytest.mark.parametrize("images", ["distinct", "identical"])
@pytest.mark.parametrize(
    "kind", ["duplicate", "collinear", "two_points", "other_scheme", "overflow"]
)
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_bad_training_landmark_file_exits_2_before_the_fit(
    capsys, tmp_path, synth_dataset, write_landmarks, monkeypatch, command, kind, images
):
    # s02_v2 trains in both commands.  Every landmark file is triangulated
    # before the fit, so no fit runs, and with identical images a bad file
    # still exits 2 rather than 3 for zero variance.
    manifest = load_manifest(synth_dataset["manifest"])
    src = landmark_path_of(synth_dataset["manifest"], "s02", "v2")
    points, message = bad_training_landmarks(kind, load_landmarks(src).tolist())
    bad = write_landmarks("bad.csv", points)
    one_image = manifest.entries[0].image_path
    entries = tuple(
        dataclasses.replace(
            e,
            image_path=one_image if images == "identical" else e.image_path,
            landmark_path=bad if e.landmark_path == src else e.landmark_path,
        )
        for e in manifest.entries
    )
    path = tmp_path / "m.csv"
    save_manifest(DatasetManifest(entries=entries), path)
    fits = []
    fit = eigenface.fit_eigenmodel
    monkeypatch.setattr(
        eigenface, "fit_eigenmodel", lambda *a: fits.append(a) or fit(*a)
    )
    rc, out, err = train_or_evaluate(capsys, command, path, tmp_path)
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: data: {bad}: {message}")
    assert fits == []
    assert not (tmp_path / "g.gallery").exists()


# --- recognize --------------------------------------------------------------------

@pytest.fixture
def trained_gallery(tmp_path_factory, synth_dataset):
    out = tmp_path_factory.mktemp("gal") / "gallery.json"
    rc = cli.main(
        ["train", "--manifest", str(synth_dataset["manifest"]), "--out", str(out)]
    )
    assert rc == 0
    return out


def test_recognize_self_match(capsys, synth_dataset, trained_gallery):
    root = synth_dataset["root"]
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(root / "images" / "s03_v2.pgm"),
        "--landmarks", str(root / "landmarks68" / "s03_v2.csv"),
        "--mode", "dt-pca",
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["best"]["subject"] == "s03"
    assert report["scores"][report["best"]["index"]]["rv"] == 0.0
    assert report["mode"] == "dt_pca"
    assert report["dt_divisor"] == 0.001


@pytest.mark.parametrize("width, height", [(12, 8), (8, 10)])
def test_recognize_wrong_image_size_names_the_image(
    capsys, trained_gallery, write_pgm, width, height
):
    # The gallery's images are 10x8; an 8x10 one has their pixel count.
    path = write_pgm("odd.pgm", width, height, [128] * (width * height))
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(path),
        "--mode", "pca-only",
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {path}: image is {width}x{height}, expected 10x8\n"


def test_recognize_p2_pixel_beyond_int64_exits_2(capsys, tmp_path, trained_gallery):
    path = tmp_path / "big.pgm"
    path.write_text("P2\n10 8\n255\n" + "0 " * 79 + "99999999999999999999\n")
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(path),
        "--mode", "pca-only",
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {path}: pixel value out of range\n"


@pytest.mark.parametrize("field", ["+7", "2_55", "-+7"])
def test_recognize_p2_pixel_of_other_than_digits_exits_2(
    capsys, tmp_path, trained_gallery, field
):
    # int() accepts a sign and digit-group underscores; netpbm does not.
    path = tmp_path / "signed.pgm"
    path.write_text("P2\n10 8\n255\n" + "0 " * 79 + f"{field}\n")
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(path),
        "--mode", "pca-only",
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {path}: non-numeric pixel value\n"


@pytest.mark.parametrize("header", ["+10 8 255", "10 8 2_55", "10 -8 255"])
def test_recognize_pgm_header_of_other_than_digits_exits_2(
    capsys, tmp_path, trained_gallery, header
):
    path = tmp_path / "signed.pgm"
    path.write_bytes(f"P5\n{header}\n".encode() + bytes(80))
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(path),
        "--mode", "pca-only",
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {path}: non-numeric PGM header\n"


def test_recognize_names_landmarks_of_another_scheme(capsys, tmp_path, scheme_manifests):
    gallery = tmp_path / "g8.gallery"
    rc, _, err = run_cli(capsys, "train", "--manifest", scheme_manifests[0], "--out", str(gallery))
    assert rc == 0, err
    image = next(e.image_path for e in load_manifest(scheme_manifests[1]).entries)
    bad = landmark_path_of(scheme_manifests[1], "s01", "v1")
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(gallery),
        "--image", str(image),
        "--landmarks", str(bad),
        "--mode", "dt-pca",
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {bad}: landmark scheme mismatch: test 9 vs gallery 8\n"


def test_recognize_large_query_names_duplicate_landmarks(
    capsys, tmp_path_factory, write_landmarks
):
    # At 320x243 with k = 8 the query's product reaches OVERLAP_WORK, so
    # its landmarks are triangulated on the worker thread; the exit code
    # and the message are the sequential order's.
    root = tmp_path_factory.mktemp("large")
    manifest = synthetic.make_dataset(
        root, subjects=3, variants=3, width=320, height=243, schemes=(68,), seed=3
    )[68]
    gallery = root / "gallery.bin"
    rc, _, err = run_cli(capsys, "train", "--manifest", str(manifest), "--k", "8",
                         "--out", str(gallery))
    assert rc == 0, err
    assert 8 * 320 * 243 >= recognizer.OVERLAP_WORK
    points = load_landmarks(root / "landmarks68" / "s01_v1.csv")
    points[5] = points[3]
    path = write_landmarks("dup.csv", points)
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(gallery),
        "--image", str(root / "images" / "s01_v1.pgm"),
        "--landmarks", str(path),
        "--mode", "dt-pca",
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {path}: duplicate point ({points[3, 0]}, {points[3, 1]})\n"


def test_recognize_dt_pca_requires_landmarks(capsys, synth_dataset, trained_gallery):
    root = synth_dataset["root"]
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(root / "images" / "s01_v1.pgm"),
        "--mode", "dt-pca",
    )
    assert rc == 1
    assert err.startswith("error: usage:")


def test_recognize_pca_only_ignores_landmarks(capsys, synth_dataset, trained_gallery, tmp_path):
    root = synth_dataset["root"]
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(root / "images" / "s01_v1.pgm"),
        "--landmarks", str(tmp_path / "never-read.csv"),
        "--mode", "pca-only",
    )
    assert rc == 0, err
    report = json.loads(out)
    assert report["best"]["subject"] == "s01"
    assert all(s["d"] == 0.0 for s in report["scores"])


@pytest.mark.parametrize("divisor", ["0", "-1", "nan", "inf", "1e-310", "5e-324"])
def test_recognize_rejects_bad_divisor(capsys, synth_dataset, trained_gallery, divisor):
    root = synth_dataset["root"]
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(root / "images" / "s03_v2.pgm"),
        "--landmarks", str(root / "landmarks68" / "s03_v2.csv"),
        "--mode", "dt-pca",
        "--dt-divisor", divisor,
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error: usage:")


def test_recognize_non_finite_gallery_exits_2(capsys, synth_dataset, trained_gallery, tmp_path):
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_bytes(trained_gallery.read_bytes())
    edit_gallery(corrupt, lambda h, a: a["coords"].__setitem__((3, 0), float("nan")))
    root = synth_dataset["root"]
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(corrupt),
        "--image", str(root / "images" / "s03_v2.pgm"),
        "--mode", "pca-only",
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: data:") and "non-finite" in err


def test_recognize_oversized_gallery_record_exits_2(
    capsys, synth_dataset, trained_gallery, tmp_path
):
    # Used to exit 1 with a MemoryError traceback.
    corrupt = tmp_path / "huge.json"
    corrupt.write_bytes(trained_gallery.read_bytes())
    declare_huge_mean(corrupt)
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(corrupt),
        "--image", str(synth_dataset["root"] / "images" / "s03_v2.pgm"),
        "--mode", "pca-only",
    )
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: data: {corrupt}: the file holds ")


def flip_bit(data, at):
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


def corrupt_gallery(data, ends, where):
    """A gallery file's bytes with one bit flipped, or cut or extended."""
    if where == "header":
        # A letter of the first subject: the header still parses.
        return flip_bit(data, data.index(b'"subjects": ["') + 14)
    if where in GALLERY_ARRAYS:
        # The lowest bit of the middle float: the value stays finite.
        start, end = ends[GALLERY_ARRAYS.index(where):][:2]
        return flip_bit(data, start + (end - start) // 16 * 8)
    if where == "crc":
        return flip_bit(data, len(data) - 4)
    return {"truncated": data[:-1], "extended": data + b"\0"}[where]


@pytest.mark.parametrize(
    "where", ["header", *GALLERY_ARRAYS, "crc", "truncated", "extended"]
)
def test_recognize_corrupted_gallery_exits_2(
    capsys, synth_dataset, trained_gallery, tmp_path, where
):
    # A flipped bit in coords or eigenvectors used to load and match.
    corrupt = tmp_path / "corrupt.json"
    data = trained_gallery.read_bytes()
    corrupt.write_bytes(corrupt_gallery(data, record_ends(trained_gallery), where))
    assert corrupt.read_bytes() != data
    with pytest.raises(GalleryFormatError, match="checksum mismatch"):
        load_gallery(corrupt)
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(corrupt),
        "--image", str(synth_dataset["root"] / "images" / "s03_v2.pgm"),
        "--mode", "pca-only",
    )
    assert (rc, out) == (2, "")
    assert err == f"error: data: {corrupt}: checksum mismatch: the file is corrupt\n"


def test_recognize_v1_gallery_exits_2(capsys, synth_dataset, tmp_path):
    v1 = tmp_path / "gallery.json"
    v1.write_text(V1_GALLERY)
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(v1),
        "--image", str(synth_dataset["root"] / "images" / "s03_v2.pgm"),
        "--mode", "pca-only",
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: data:") and "dtpca train" in err


def test_recognize_overflowing_landmarks_exits_2(
    capsys, synth_dataset, trained_gallery, write_landmarks
):
    # Used to exit 0 with index 0 and rv NaN on every row.
    path = scaled_landmarks(synth_dataset, write_landmarks)
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(synth_dataset["root"] / "images" / "s03_v2.pgm"),
        "--landmarks", str(path),
        "--mode", "dt-pca",
    )
    assert rc == 2
    assert out == ""
    assert err.startswith(f"error: data: {path}: ") and "non-finite" in err


def test_recognize_vanishing_landmark_areas_exits_2(
    capsys, synth_dataset, trained_gallery, write_landmarks
):
    # Every exact area is below the smallest double.  Like triangulate and
    # train, recognize names the file; it used to give the bare message.
    path = scaled_landmarks(synth_dataset, write_landmarks, factor=1e-166)
    rc, out, err = run_cli(
        capsys,
        "recognize",
        "--gallery", str(trained_gallery),
        "--image", str(synth_dataset["root"] / "images" / "s03_v2.pgm"),
        "--landmarks", str(path),
        "--mode", "dt-pca",
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {path}: all areas are zero\n"


# --- evaluate ---------------------------------------------------------------------

def test_evaluate_text_report(capsys, synth_dataset):
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", str(synth_dataset["manifest"]),
        "--train-variants", "3",
        "--modes", "pca-only,dt-pca",
        "--report", "text",
    )
    assert rc == 0, err
    lines = out.splitlines()
    assert "Traditional PCA" in lines[0] and "68-L" in lines[0]
    assert lines[1].startswith("Train – 15 Test – 5")


def test_evaluate_no_test_images_is_usage_error(capsys, synth_dataset):
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", str(synth_dataset["manifest"]),
        "--train-variants", "4",
        "--modes", "pca-only",
        "--report", "text",
    )
    assert rc == 1
    assert err.startswith("error: usage:")


def test_evaluate_names_the_rejected_training_landmark_file(capsys, vanishing_manifest):
    # With 2 training variants, s02_v2 is in the training split.  Like the
    # test side, the training side names the landmark file, not the image.
    manifest, bad = vanishing_manifest
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", str(manifest),
        "--train-variants", "2",
        "--modes", "dt-pca",
        "--report", "text",
    )
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {bad}: all areas are zero\n"


def test_evaluate_names_a_test_landmark_file_of_another_scheme(
    capsys, tmp_path, scheme_manifests
):
    # With 2 training variants, s02_v4 is a test image; its file has 9
    # points against the 8-point gallery.
    bad = landmark_path_of(scheme_manifests[1], "s02", "v4")
    manifest = edited_manifest(
        scheme_manifests[0], tmp_path / "mixed.csv", "s02", "v4", landmark_path=bad
    )
    rc, out, err = train_or_evaluate(capsys, "evaluate", manifest, tmp_path)
    assert rc == 2
    assert out == ""
    assert err == f"error: data: {bad}: landmark scheme mismatch: test 9 vs gallery 8\n"


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_manifest_with_only_a_header_is_named(capsys, tmp_path, command):
    # evaluate used to exit 1 on a split range of [1, -1], and train to exit
    # 2 on too few training images without naming the file.
    manifest = tmp_path / "header.csv"
    manifest.write_text("image_path,subject_id,variant,landmark_path\n")
    rc, out, err = train_or_evaluate(capsys, command, manifest, tmp_path)
    assert (rc, out, err) == (2, "", f"error: data: {manifest}: manifest lists no entries\n")


def test_evaluate_names_a_manifest_with_one_variant_per_subject(capsys, tmp_path, synth_dataset):
    entries = load_manifest(synth_dataset["manifest"]).entries
    manifest = tmp_path / "one_variant.csv"
    first = tuple(e for e in entries if e.variant == entries[0].variant)
    save_manifest(DatasetManifest(first), manifest)
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", str(manifest),
        "--train-variants", "1",
        "--modes", "pca-only",
        "--report", "text",
    )
    assert (rc, out) == (1, "")
    assert err == (
        f"error: usage: {manifest}: "
        "a split needs at least 2 variants per subject, the manifest has 1\n"
    )


def test_evaluate_names_a_manifest_that_is_not_utf8(capsys, tmp_path, synth_dataset):
    manifest = tmp_path / "manifest.csv"
    data = synth_dataset["manifest"].read_bytes()
    manifest.write_bytes(data[:4] + b"\xff" + data[5:])
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", str(manifest),
        "--train-variants", "3",
        "--modes", "pca-only",
        "--report", "text",
    )
    assert (rc, out, err) == (2, "", f"error: data: {manifest}: {NOT_UTF8}\n")


def test_evaluate_csv_to_file(capsys, tmp_path, synth_dataset):
    out_path = tmp_path / "report.csv"
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", str(synth_dataset["manifest"]),
        "--train-variants", "3",
        "--modes", "pca-only",
        "--report", "csv",
        "--out", str(out_path),
    )
    assert rc == 0, err
    lines = out_path.read_text().splitlines()
    assert lines[0] == "split,mode,scheme,correct,total,percent"
    assert lines[1].startswith("15/5,pca_only,")


def test_evaluate_rejects_bad_modes(capsys, synth_dataset):
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", str(synth_dataset["manifest"]),
        "--train-variants", "2",
        "--modes", "brute-force",
        "--report", "text",
    )
    assert rc == 1
    assert err.startswith("error: usage:")


@pytest.mark.parametrize("divisor", ["0", "-1", "nan", "inf", "1e-310", "5e-324"])
def test_evaluate_rejects_bad_divisor(capsys, synth_dataset, divisor):
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", str(synth_dataset["manifest"]),
        "--train-variants", "3",
        "--modes", "pca-only,dt-pca",
        "--dt-divisor", divisor,
        "--report", "text",
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error: usage:")


@pytest.mark.parametrize(
    "modes,splits",
    [
        ("pca-only,pca-only", "3"),
        ("dt-pca,pca-only,dt-pca", "3"),
        ("pca-only", "2,2"),
        ("pca-only", "3,2,3"),
        ("pca-only", "2,x"),
        ("pca-only", "2.5"),
        ("pca-only", ","),
        ("pca-only", "2,0"),
        ("pca-only", "3,4"),
    ],
)
def test_evaluate_rejects_repeated_or_bad_lists(
    capsys, tmp_path, synth_dataset, modes, splits
):
    out_path = tmp_path / "report.csv"
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", str(synth_dataset["manifest"]),
        "--train-variants", splits,
        "--modes", modes,
        "--report", "csv",
        "--out", str(out_path),
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error: usage:")
    assert not out_path.exists()


def test_evaluate_rejects_repeated_scheme(capsys, tmp_path, scheme_manifests):
    again = tmp_path / "again_9.csv"
    save_manifest(load_manifest(scheme_manifests[1]), again)
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", scheme_manifests[0],
        "--manifest", scheme_manifests[1],
        "--manifest", str(again),
        "--train-variants", "2",
        "--modes", "pca-only,dt-pca",
        "--report", "text",
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error: data:")
    assert scheme_manifests[1] in err and str(again) in err


@pytest.mark.parametrize("report", ["text", "csv"])
def test_evaluate_several_manifests_is_the_per_cell_table(
    capsys, scheme_manifests, report
):
    argv = ["evaluate"]
    for manifest in scheme_manifests:
        argv += ["--manifest", manifest]
    argv += ["--train-variants", "3,2,1", "--modes", "pca-only,dt-pca", "--report", report]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    render = render_text_report if report == "text" else render_csv_report
    assert out == render(per_cell_table(scheme_manifests, (3, 2, 1)))


def test_evaluate_loads_each_manifest_once(capsys, monkeypatch, scheme_manifests):
    loaded = []
    real = dataset_io.load_manifest
    monkeypatch.setattr(dataset_io, "load_manifest", lambda p: loaded.append(p) or real(p))
    argv = ["evaluate"]
    for manifest in scheme_manifests:
        argv += ["--manifest", manifest]
    argv += ["--train-variants", "3,2", "--modes", "pca-only,dt-pca", "--report", "csv"]
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 0, err
    assert loaded == scheme_manifests


def test_evaluate_split_range_checks_every_manifest_first(
    capsys, monkeypatch, tmp_path, scheme_manifests
):
    # The last manifest has 3 variants, so split 3 is a usage error before
    # any image of the first is read.
    short = tmp_path / "short_12.csv"
    entries = load_manifest(scheme_manifests[2]).entries
    save_manifest(DatasetManifest(tuple(e for e in entries if e.variant != "v4")), short)
    monkeypatch.setattr(dataset_io, "load_image", None)
    rc, out, err = run_cli(
        capsys,
        "evaluate",
        "--manifest", scheme_manifests[0],
        "--manifest", str(short),
        "--train-variants", "2,3",
        "--modes", "pca-only,dt-pca",
        "--report", "text",
    )
    assert rc == 1
    assert out == ""
    assert err.startswith("error: usage:") and str(short) in err


# --- output files -----------------------------------------------------------------

@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
@pytest.mark.parametrize("command", ["train", "triangulate", "evaluate"])
def test_output_file_mode_follows_the_umask(
    capsys, tmp_path, synth_dataset, command, umask, mode
):
    # Written through a temp file and a rename, the file gets the mode a
    # plain open() would give it, not the temp file's 0o600.
    out = tmp_path / "out"
    manifest = str(synth_dataset["manifest"])
    argv = {
        "train": ["--manifest", manifest],
        "triangulate": ["--landmarks", str(landmark_path_of(manifest, "s01", "v1"))],
        "evaluate": ["--manifest", manifest, "--train-variants", "3",
                     "--modes", "pca-only", "--report", "csv"],
    }[command]
    previous = os.umask(umask)
    try:
        rc, _, err = run_cli(capsys, command, *argv, "--out", str(out))
    finally:
        os.umask(previous)
    assert rc == 0, err
    assert stat.S_IMODE(out.stat().st_mode) == mode


@pytest.mark.parametrize(
    "target, error",
    [("nodir/x.json", "[Errno 2] No such file or directory"), ("dir", "[Errno 21] Is a directory")],
    ids=["missing-directory", "is-a-directory"],
)
@pytest.mark.parametrize("command", ["train", "triangulate", "evaluate"])
def test_output_that_cannot_be_created_names_the_path(
    capsys, tmp_path, synth_dataset, command, target, error
):
    # Used to name the random temp file, so stderr changed between runs.
    (tmp_path / "dir").mkdir()
    out = tmp_path / target
    manifest = str(synth_dataset["manifest"])
    argv = {
        "train": ["--manifest", manifest],
        "triangulate": ["--landmarks", str(landmark_path_of(manifest, "s01", "v1"))],
        "evaluate": ["--manifest", manifest, "--train-variants", "3",
                     "--modes", "pca-only", "--report", "csv"],
    }[command]
    runs = [run_cli(capsys, command, *argv, "--out", str(out)) for _ in range(2)]
    assert runs[0] == runs[1] == (2, "", f"error: data: {error}: '{out}'\n")
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


# --- usage handling ------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "frobnicate")
    assert rc == 1
    assert err.startswith("error: usage:")


def test_missing_required_flag_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "triangulate")
    assert rc == 1
    assert err.startswith("error: usage:")
