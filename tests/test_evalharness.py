import collections
import csv
import io
import math
import shutil
from fractions import Fraction

import numpy as np
import pytest

from dtpca import dataset_io, eigenface, geometry, recognizer
from dtpca.dataset_io import load_manifest, save_manifest
from dtpca.evalharness import (
    AccuracyRow,
    AccuracyTable,
    ExperimentConfig,
    accuracy,
    emit_report,
    render_csv_report,
    render_text_report,
    run_experiment,
    run_table,
    train_gallery,
)


# --- accuracy ----------------------------------------------------------------

@pytest.mark.parametrize(
    "correct,total,expected",
    [
        (30, 30, 100.0),
        (43, 45, 95.6),
        (0, 10, 0.0),
        (26, 30, 86.7),
        (28, 30, 93.3),
        (27, 30, 90.0),
        (1, 16, 6.3),   # exact .25 rounds half-up to .3
        (1, 3, 33.3),
        (2, 3, 66.7),
    ],
)
def test_accuracy_rounding(correct, total, expected):
    assert accuracy(correct, total) == expected


def test_accuracy_matches_exact_rational_rounding():
    # The integer formula against half-up rounding on Fractions, for every
    # count up to 200 tests.
    for total in range(1, 201):
        for correct in range(total + 1):
            tenths = Fraction(1000 * correct, total) + Fraction(1, 2)
            assert accuracy(correct, total) == (tenths.numerator // tenths.denominator) / 10


def test_accuracy_errors():
    with pytest.raises(ValueError):
        accuracy(1, 0)
    with pytest.raises(ValueError):
        accuracy(5, 4)
    with pytest.raises(ValueError):
        accuracy(-1, 4)


# --- config validation ----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(manifest_path="m", train_variants=0)
    with pytest.raises(ValueError):
        ExperimentConfig(manifest_path="m", train_variants=1, k=0)
    for divisor in (0.0, -1.0, math.nan, math.inf, 1e-310, 5e-324):
        with pytest.raises(ValueError):
            ExperimentConfig(manifest_path="m", train_variants=1, dt_divisor=divisor)
    with pytest.raises(ValueError):
        ExperimentConfig(manifest_path="m", train_variants=1, modes=("nearest",))
    with pytest.raises(ValueError):
        ExperimentConfig(manifest_path="m", train_variants=1, modes=())
    with pytest.raises(ValueError):
        ExperimentConfig(manifest_path="m", train_variants=1, modes=("dt_pca", "dt_pca"))


# --- run_experiment ----------------------------------------------------------------

def test_run_experiment_row_shape(synth_dataset):
    config = ExperimentConfig(
        manifest_path=str(synth_dataset["manifest"]), train_variants=3, k=10
    )
    table = run_experiment(config)
    assert len(table.rows) == 2
    by_mode = {r.mode: r for r in table.rows}
    assert by_mode["pca_only"].scheme == ""
    assert by_mode["dt_pca"].scheme == "68"
    for row in table.rows:
        assert (row.train_count, row.test_count) == (15, 5)
        assert row.total == 5
        assert 0 <= row.correct <= row.total
        assert row.percent == accuracy(row.correct, row.total)


def test_run_experiment_train_as_test_is_perfect(synth_dataset, tmp_path):
    # Duplicate every training image under a fresh variant label so the
    # test half of the split references exactly the training files.
    src = load_manifest(synth_dataset["manifest"])
    by_subject = src.entries_by_subject()
    entries = []
    for subject, group in by_subject.items():
        entries.extend(group)
    for subject, group in by_subject.items():
        for e in group:
            entries.append(
                type(e)(
                    image_path=e.image_path,
                    subject_id=e.subject_id,
                    variant=e.variant + "_again",
                    landmark_path=e.landmark_path,
                )
            )
    from dtpca.dataset_io import DatasetManifest

    path = tmp_path / "selftest.csv"
    save_manifest(DatasetManifest(entries=tuple(entries)), path)
    config = ExperimentConfig(manifest_path=str(path), train_variants=4, k=10)
    table = run_experiment(config)
    for row in table.rows:
        assert row.percent == 100.0
        assert row.correct == row.total == 20


def test_pca_only_never_reads_landmarks(synth_dataset, tmp_path):
    src = load_manifest(synth_dataset["manifest"])
    from dtpca.dataset_io import DatasetManifest, ManifestEntry

    entries = tuple(
        ManifestEntry(
            image_path=e.image_path,
            subject_id=e.subject_id,
            variant=e.variant,
            landmark_path=tmp_path / "does-not-exist.csv",
        )
        for e in src.entries
    )
    path = tmp_path / "nolmk.csv"
    save_manifest(DatasetManifest(entries=entries), path)
    config = ExperimentConfig(
        manifest_path=str(path), train_variants=3, k=10, modes=("pca_only",)
    )
    table = run_experiment(config)
    assert len(table.rows) == 1
    assert table.rows[0].mode == "pca_only"


def test_run_experiment_reports_offending_file(synth_dataset, tmp_path):
    src = load_manifest(synth_dataset["manifest"])
    from dtpca.dataset_io import DatasetManifest, ManifestEntry

    bad = tmp_path / "missing_image.pgm"
    entries = list(src.entries)
    entries[3] = ManifestEntry(
        image_path=bad,
        subject_id=entries[3].subject_id,
        variant=entries[3].variant,
        landmark_path=entries[3].landmark_path,
    )
    path = tmp_path / "broken.csv"
    save_manifest(DatasetManifest(entries=tuple(entries)), path)
    config = ExperimentConfig(manifest_path=str(path), train_variants=3, k=10)
    with pytest.raises(FileNotFoundError, match="missing_image.pgm"):
        run_experiment(config)


def test_run_experiment_deterministic(synth_dataset):
    config = ExperimentConfig(
        manifest_path=str(synth_dataset["manifest"]), train_variants=2, k=8
    )
    t1 = run_experiment(config)
    t2 = run_experiment(config)
    assert t1 == t2
    assert render_csv_report(t1) == render_csv_report(t2)
    assert render_text_report(t1) == render_text_report(t2)


# --- train_gallery ---------------------------------------------------------------

@pytest.mark.parametrize("fitted", [False, True], ids=["fit", "given_model"])
def test_train_gallery_triangulates_each_landmark_file_once_before_the_fit(
    synth_dataset, monkeypatch, fitted
):
    entries = load_manifest(synth_dataset["manifest"]).entries
    images = [dataset_io.load_image(e.image_path) for e in entries]
    landmarks = [dataset_io.load_landmarks(e.landmark_path) for e in entries]
    given = eigenface.fit_eigenmodel(images, 10) if fitted else None
    events = []
    delaunay, fit = geometry.delaunay, eigenface.fit_eigenmodel
    monkeypatch.setattr(
        geometry, "delaunay", lambda p: events.append(p.tolist()) or delaunay(p)
    )
    monkeypatch.setattr(
        eigenface, "fit_eigenmodel", lambda *a: events.append("fit") or fit(*a)
    )
    gallery, model = train_gallery(entries, 10, True, model=given)
    assert events == [p.tolist() for p in landmarks] + ([] if fitted else ["fit"])

    # The same gallery as build_gallery on records that carry landmarks.
    monkeypatch.undo()
    built = recognizer.build_gallery(model, [
        recognizer.TrainingRecord(img, lmk, e.subject_id, e.variant, str(e.image_path))
        for e, img, lmk in zip(entries, images, landmarks)
    ])
    assert gallery.scheme == built.scheme == 68
    assert (gallery.subjects, gallery.variants, gallery.sources) == (
        built.subjects, built.variants, built.sources
    )
    assert np.array_equal(gallery.coords, built.coords)
    assert np.array_equal(gallery.ra_avg, built.ra_avg)


# --- run_table -------------------------------------------------------------------

def per_cell_table(manifests, splits):
    """The table as one run_experiment per cell, merged in row order."""
    tables = []
    for tv in splits:
        for i, manifest in enumerate(manifests):
            modes = ("pca_only", "dt_pca") if i == 0 else ("dt_pca",)
            tables.append(
                run_experiment(
                    ExperimentConfig(manifest_path=manifest, train_variants=tv, modes=modes)
                )
            )
    return tables[0].merged(*tables[1:])


def copy_images(manifest, root):
    """A manifest like `manifest` whose images are copies under `root`."""
    root.mkdir()
    entries = []
    for e in load_manifest(manifest).entries:
        shutil.copy(e.image_path, root / e.image_path.name)
        entries.append(
            dataset_io.ManifestEntry(
                image_path=root / e.image_path.name,
                subject_id=e.subject_id,
                variant=e.variant,
                landmark_path=e.landmark_path,
            )
        )
    path = root / "manifest.csv"
    save_manifest(dataset_io.DatasetManifest(entries=tuple(entries)), path)
    return str(path)


@pytest.mark.parametrize("copied", [False, True], ids=["shared", "copied"])
def test_run_table_fits_once_per_split_and_reads_each_image_once(
    scheme_manifests, tmp_path, monkeypatch, copied
):
    manifests = list(scheme_manifests)
    if copied:
        manifests[1] = copy_images(manifests[1], tmp_path / "copies")
    expected = per_cell_table(manifests, (3, 2, 1))

    fits, reads = [], collections.Counter()
    fit, load = eigenface.fit_eigenmodel, dataset_io.load_image

    def counted_fit(images, k):
        fits.append(k)
        return fit(images, k)

    def counted_load(path):
        reads[str(path)] += 1
        return load(path)

    monkeypatch.setattr(eigenface, "fit_eigenmodel", counted_fit)
    monkeypatch.setattr(dataset_io, "load_image", counted_load)
    table = run_table(manifests, (3, 2, 1))

    # One fit per split, plus one per split for the copied images.
    assert len(fits) == (6 if copied else 3)
    files = {str(e.image_path) for m in manifests for e in load_manifest(m).entries}
    assert len(files) == (32 if copied else 16)
    assert reads == collections.Counter(dict.fromkeys(files, 1))
    assert table == expected
    assert render_text_report(table) == render_text_report(expected)
    assert render_csv_report(table) == render_csv_report(expected)


def test_run_table_row_order(scheme_manifests):
    table = run_table(scheme_manifests, (2, 1), modes=("dt_pca", "pca_only"))
    assert [(r.train_count, r.mode, r.scheme) for r in table.rows] == [
        (8, "dt_pca", "8"), (8, "pca_only", ""), (8, "dt_pca", "9"), (8, "dt_pca", "12"),
        (4, "dt_pca", "8"), (4, "pca_only", ""), (4, "dt_pca", "9"), (4, "dt_pca", "12"),
    ]
    # pca_only is scored once per split, on the first manifest.
    table = run_table(scheme_manifests, (2, 1), modes=("pca_only",))
    assert [(r.train_count, r.mode) for r in table.rows] == [(8, "pca_only"), (4, "pca_only")]


@pytest.mark.parametrize("k", [True, 2.5, "3", 0], ids=repr)
def test_bad_k_is_rejected_before_any_image_is_read(scheme_manifests, monkeypatch, k):
    def no_read(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(dataset_io, "load_image", no_read)
    with pytest.raises(ValueError, match="k must be"):
        run_table(scheme_manifests, (2,), k=k)
    with pytest.raises(ValueError, match="k must be"):
        ExperimentConfig(manifest_path=scheme_manifests[0], train_variants=2, k=k)


@pytest.mark.parametrize("divisor", [0.0, -1.0, math.nan, math.inf, 1e-310])
def test_run_table_names_the_rejected_dt_divisor(scheme_manifests, divisor):
    # The text recognize and the CLI give, under the same rule.
    assert not recognizer.valid_dt_divisor(divisor)
    with pytest.raises(ValueError, match="dt_divisor must be finite") as exc:
        run_table(scheme_manifests, (2,), dt_divisor=divisor)
    assert str(exc.value).endswith(f", got {divisor}")


def test_run_table_rejects_no_manifest():
    for paths in ([], iter([])):
        with pytest.raises(ValueError, match="at least one manifest"):
            run_table(paths, (1,))


def test_run_table_takes_an_iterator_of_manifests(scheme_manifests):
    table = run_table(iter(scheme_manifests[:1]), (2,), modes=("pca_only",), k=5)
    assert table == run_table(scheme_manifests[:1], (2,), modes=("pca_only",), k=5)


def test_run_table_rejects_duplicate_inputs(scheme_manifests):
    with pytest.raises(ValueError, match="duplicate train_variants"):
        run_table(scheme_manifests, (2, 2))
    with pytest.raises(ValueError, match="duplicate modes"):
        run_table(scheme_manifests, (2,), modes=("dt_pca", "dt_pca"))


# --- reports -------------------------------------------------------------------

def _table():
    rows = []
    data = [
        (105, 30, [("pca_only", "", 26), ("dt_pca", "68", 28)]),
        (75, 60, [("pca_only", "", 51), ("dt_pca", "68", 53)]),
        (45, 90, [("pca_only", "", 74), ("dt_pca", "68", 79)]),
    ]
    for train, test, cells in data:
        for mode, scheme, correct in cells:
            rows.append(
                AccuracyRow(
                    train_count=train,
                    test_count=test,
                    mode=mode,
                    scheme=scheme,
                    correct=correct,
                    total=test,
                    percent=accuracy(correct, test),
                )
            )
    return AccuracyTable(rows=tuple(rows))


def test_text_report_layout():
    text = render_text_report(_table())
    lines = text.splitlines()
    assert "Traditional PCA" in lines[0]
    assert "68-L" in lines[0]
    assert lines[1].startswith("Train – 105 Test – 30")
    assert lines[2].startswith("Train – 75 Test – 60")
    assert lines[3].startswith("Train – 45 Test – 90")
    assert "86.7 %" in lines[1]
    assert "93.3 %" in lines[1]


def test_text_report_single_row():
    table = AccuracyTable(
        rows=(
            AccuracyRow(
                train_count=10,
                test_count=5,
                mode="pca_only",
                scheme="",
                correct=5,
                total=5,
                percent=100.0,
            ),
        )
    )
    text = render_text_report(table)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("Train – 10 Test – 5")
    assert "100.0 %" in lines[1]


def test_csv_report_format():
    text = render_csv_report(_table())
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["split", "mode", "scheme", "correct", "total", "percent"]
    assert rows[1] == ["105/30", "pca_only", "", "26", "30", "86.7"]
    assert rows[2] == ["105/30", "dt_pca", "68", "28", "30", "93.3"]
    assert len(rows) == 7


def test_empty_table_rejected():
    with pytest.raises(ValueError):
        render_text_report(AccuracyTable(rows=()))
    with pytest.raises(ValueError):
        render_csv_report(AccuracyTable(rows=()))


def test_emit_report_to_file(tmp_path):
    path = tmp_path / "report.csv"
    text = emit_report(_table(), "csv", path)
    assert path.read_text() == text


def test_emit_report_to_stdout(capsys):
    text = emit_report(_table(), "text", None)
    assert capsys.readouterr().out == text


def test_emit_report_bad_format(tmp_path):
    with pytest.raises(ValueError):
        emit_report(_table(), "html", tmp_path / "x")


def test_table_merge():
    t = _table()
    merged = AccuracyTable(rows=t.rows[:2]).merged(AccuracyTable(rows=t.rows[2:]))
    assert merged == t
