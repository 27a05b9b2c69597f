import json

import pytest

import oracles
from dtpca import cli
from dtpca.dataset_io import load_landmarks


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


def test_triangulate_68_point_count(capsys, synth_dataset):
    path = synth_dataset["root"] / "landmarks68" / "s01_v1.csv"
    rc, out, err = run_cli(capsys, "triangulate", "--landmarks", str(path))
    assert rc == 0
    mesh = json.loads(out)
    pts = load_landmarks(path).points
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
    pts = load_landmarks(synth_dataset["root"] / "landmarks68" / "s03_v2.csv").points
    return write_landmarks("scaled.csv", (pts * factor).tolist())


def test_triangulate_overflowing_areas_exits_2(capsys, synth_dataset, write_landmarks):
    # Heron's formula overflows to inf near 1e150; this used to print NaN.
    path = scaled_landmarks(synth_dataset, write_landmarks)
    rc, out, err = run_cli(capsys, "triangulate", "--landmarks", str(path))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: data:") and "non-finite" in err


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
    obj = json.loads(out.read_text())
    assert obj["format_version"] == 1
    assert obj["scheme"] == 68
    assert obj["model"]["k"] <= 25
    assert len(obj["entries"]) == 20


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


def test_train_zero_variance_exits_3(tmp_path, capsys, synth_dataset):
    src_root = synth_dataset["root"]
    img = f"{src_root}/images/s01_v1.pgm"
    manifest = tmp_path / "same.csv"
    manifest.write_text(
        "image_path,subject_id,variant,landmark_path\n"
        + "".join(
            f"{img},s01,v{i},{src_root}/landmarks68/s01_v1.csv\n" for i in range(3)
        )
    )
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
    assert json.loads(out.read_text())["scheme"] == 68


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


@pytest.mark.parametrize("divisor", ["0", "-1", "nan", "inf"])
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
    obj = json.loads(trained_gallery.read_text())
    obj["entries"][3]["coords"][0] = float("nan")
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(obj))
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
    assert err.startswith("error: data:") and "non-finite" in err


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


@pytest.mark.parametrize("divisor", ["0", "-1", "nan", "inf"])
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


# --- usage handling ------------------------------------------------------------------

def test_unknown_subcommand_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "frobnicate")
    assert rc == 1
    assert err.startswith("error: usage:")


def test_missing_required_flag_is_usage_error(capsys):
    rc, out, err = run_cli(capsys, "triangulate")
    assert rc == 1
    assert err.startswith("error: usage:")
