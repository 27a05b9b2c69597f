import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from dtpca import geometry
from dtpca.dataset_io import ImageVector, LandmarkSet
from dtpca.eigenface import eigen_distance, fit_eigenmodel, project
from dtpca.recognizer import (
    GalleryFormatError,
    TrainingRecord,
    build_gallery,
    dt_difference,
    fused_score,
    load_gallery,
    recognize,
    save_gallery,
)


def one_pixel(v):
    return ImageVector(width=1, height=1, values=np.array([v]))


def fan_landmarks(h):
    """Triangle (0,0),(4,0),(2,3) plus interior point (2,h), 0 < h < 3.

    Triangulates as a 3-triangle fan with shoelace areas (2h, 3-h, 3-h),
    so the average relative area is analytically (2 + 2h/(3-h)) / 3 for
    h <= 1.
    """
    return LandmarkSet(
        points=np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, h)]), scheme=4
    )


def fan_ra_avg(h):
    areas = [2 * h, 3 - h, 3 - h]
    amax = max(areas)
    return sum(a / amax for a in areas) / 3


@pytest.fixture
def flip_fixture():
    """Two-entry gallery where the triangulation term flips the argmin.

    Entry A is nearer in eigenspace (ED 0.25 vs 0.75) but entry B shares
    the test image's mesh descriptor exactly, so under dt_pca the D/0.001
    term moves the match from A to B.
    """
    model = fit_eigenmodel([one_pixel(0.0), one_pixel(1.0)], k=1)
    records = [
        TrainingRecord(one_pixel(1.0), fan_landmarks(0.9), "subjA", "v1", "a.pgm"),
        TrainingRecord(one_pixel(0.0), fan_landmarks(0.3), "subjB", "v1", "b.pgm"),
    ]
    gallery = build_gallery(model, records)
    test_image = one_pixel(0.75)
    test_landmarks = fan_landmarks(0.3)
    return model, gallery, test_image, test_landmarks


# --- scalar fusion ops ------------------------------------------------------

def test_dt_difference_examples():
    assert dt_difference(0.5, 0.3) == pytest.approx(0.2, abs=1e-15)
    assert dt_difference(0.3, 0.5) == pytest.approx(0.2, abs=1e-15)
    assert dt_difference(0.42, 0.42) == 0.0


@given(a=st.floats(0.001, 1.0), b=st.floats(0.001, 1.0))
def test_dt_difference_symmetric_positive(a, b):
    assert dt_difference(a, b) == dt_difference(b, a)
    assert dt_difference(a, b) >= 0


def test_fused_score_examples():
    assert fused_score(10.0, 0.002, 0.001) == pytest.approx(12.0, rel=1e-12)
    assert fused_score(5.0, 0.0, 0.7) == 5.0
    assert fused_score(0.0, 0.001, 0.001) == pytest.approx(1.0, rel=1e-12)


def test_fused_score_rejects_bad_divisor():
    with pytest.raises(ValueError):
        fused_score(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        fused_score(1.0, 1.0, -2.0)
    with pytest.raises(ValueError):
        fused_score(1.0, 1.0, math.nan)
    with pytest.raises(ValueError):
        fused_score(1.0, 1.0, math.inf)


@given(
    eds=st.lists(st.floats(0, 100), min_size=2, max_size=6),
    data=st.data(),
    scale=st.floats(0.01, 100),
)
def test_argmin_invariant_under_common_scaling(eds, data, scale):
    ds = data.draw(st.lists(st.floats(0, 1), min_size=len(eds), max_size=len(eds)))
    base = [fused_score(e, d, 0.001) for e, d in zip(eds, ds)]
    scaled = [fused_score(e, d * scale, 0.001 * scale) for e, d in zip(eds, ds)]
    order = sorted(range(len(base)), key=lambda i: base[i])
    margin = base[order[1]] - base[order[0]] if len(base) > 1 else 1.0
    assume(margin > 1e-9 * max(1.0, abs(base[order[0]])))
    assert min(range(len(scaled)), key=lambda i: scaled[i]) == order[0]


# --- gallery construction ----------------------------------------------------

def test_build_gallery_single_entry(flip_fixture):
    model, *_ = flip_fixture
    g = build_gallery(
        model, [TrainingRecord(one_pixel(1.0), fan_landmarks(0.5), "s", "v", "")]
    )
    assert len(g.subjects) == 1
    assert g.scheme == 4
    assert g.ra_avg[0] == pytest.approx(fan_ra_avg(0.5), rel=1e-12)
    # Any test image matches the lone entry.
    report = recognize(g, model, one_pixel(0.0), fan_landmarks(0.9), "dt_pca")
    assert report.best_index == 0 and report.best_subject == "s"


def test_build_gallery_empty_raises(flip_fixture):
    model, *_ = flip_fixture
    with pytest.raises(ValueError):
        build_gallery(model, [])


def test_build_gallery_mixed_schemes(flip_fixture):
    model, *_ = flip_fixture
    other = LandmarkSet(points=np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]), scheme=3)
    with pytest.raises(ValueError):
        build_gallery(
            model,
            [
                TrainingRecord(one_pixel(0.0), fan_landmarks(0.5), "a", "v", ""),
                TrainingRecord(one_pixel(1.0), other, "b", "v", ""),
            ],
        )


def test_build_gallery_partial_landmarks_rejected(flip_fixture):
    model, *_ = flip_fixture
    with pytest.raises(ValueError):
        build_gallery(
            model,
            [
                TrainingRecord(one_pixel(0.0), fan_landmarks(0.5), "a", "v", ""),
                TrainingRecord(one_pixel(1.0), None, "b", "v", ""),
            ],
        )


# --- recognize ----------------------------------------------------------------

def test_self_match_is_exactly_zero(flip_fixture):
    model, gallery, _, _ = flip_fixture
    report = recognize(gallery, model, one_pixel(1.0), fan_landmarks(0.9), "dt_pca")
    assert report.best_index == 0
    assert report.best_subject == "subjA"
    assert report.ed[0] == 0.0
    assert report.d[0] == 0.0
    assert report.rv[0] == 0.0


def test_pca_only_ranking_is_argmin_ed(flip_fixture):
    model, gallery, test_image, _ = flip_fixture
    report = recognize(gallery, model, test_image, None, "pca_only")
    assert report.best_index == int(np.argmin(report.ed))
    assert np.all(report.d == 0.0) and np.array_equal(report.rv, report.ed)


def test_fusion_flips_argmin(flip_fixture):
    # Independent recomputation: with a k=1 unit eigenvector the eigenspace
    # distance is just the pixel difference, and the mesh descriptor of the
    # fan follows the analytic shoelace formula.
    model, gallery, test_image, test_landmarks = flip_fixture
    ed_oracle = [abs(0.75 - 1.0), abs(0.75 - 0.0)]
    d_oracle = [
        abs(fan_ra_avg(0.3) - fan_ra_avg(0.9)),
        abs(fan_ra_avg(0.3) - fan_ra_avg(0.3)),
    ]
    rv_oracle = [e + d / 0.001 for e, d in zip(ed_oracle, d_oracle)]
    assert d_oracle[0] > (ed_oracle[1] - ed_oracle[0]) * 0.001

    pca = recognize(gallery, model, test_image, None, "pca_only")
    assert pca.best_subject == "subjA"

    fused = recognize(gallery, model, test_image, test_landmarks, "dt_pca")
    assert fused.best_subject == "subjB"
    assert fused.best_index == int(np.argmin(rv_oracle))
    for s_ed, s_d, s_rv, ed, d, rv in zip(
        fused.ed, fused.d, fused.rv, ed_oracle, d_oracle, rv_oracle
    ):
        assert s_ed == pytest.approx(ed, abs=1e-12)
        assert s_d == pytest.approx(d, abs=1e-12)
        assert s_rv == pytest.approx(rv, abs=1e-9)


@pytest.mark.parametrize("mode", ["pca_only", "dt_pca"])
def test_vector_scores_equal_scalar_ops_bitwise(mode):
    # The scalar eigen_distance / dt_difference / fused_score per row are
    # the reference; the one-pass scorer must reproduce them exactly.
    rng = np.random.default_rng(11)
    width, height, n, k = 9, 7, 40, 25

    def image():
        return ImageVector(width, height, rng.uniform(0, 1, width * height))

    def landmarks():
        return LandmarkSet(points=rng.uniform(0, 100, (12, 2)), scheme=12)

    records = [
        TrainingRecord(image(), landmarks(), f"s{i % 8}", f"v{i}", "") for i in range(n)
    ]
    model = fit_eigenmodel([r.image for r in records], k=k)
    assert model.k == k
    gallery = build_gallery(model, records)
    for _ in range(5):
        test_image, test_landmarks = image(), landmarks()
        report = recognize(
            gallery, model, test_image, test_landmarks, mode, dt_divisor=0.003
        )
        q = project(model, test_image)
        tt_avg = geometry.delaunay(test_landmarks).average_relative_area
        ed, d, rv = [], [], []
        for rec in records:
            ed.append(eigen_distance(q, project(model, rec.image)))
            if mode == "pca_only":
                d.append(0.0)
                rv.append(ed[-1])
            else:
                ra = geometry.delaunay(rec.landmarks).average_relative_area
                d.append(dt_difference(tt_avg, ra))
                rv.append(fused_score(ed[-1], d[-1], 0.003))
        assert report.ed.tolist() == ed
        assert report.d.tolist() == d
        assert report.rv.tolist() == rv
        assert report.best_index == min(range(n), key=lambda i: rv[i])
        assert report.best_subject == records[report.best_index].subject_id


@pytest.mark.parametrize("mode", ["pca_only", "dt_pca"])
def test_duplicate_entries_tie_to_lowest_index(mode):
    model = fit_eigenmodel([one_pixel(0.0), one_pixel(1.0)], k=1)
    records = [
        TrainingRecord(one_pixel(0.0), fan_landmarks(0.9), "far", "v1", ""),
        TrainingRecord(one_pixel(1.0), fan_landmarks(0.3), "first", "v1", ""),
        TrainingRecord(one_pixel(0.0), fan_landmarks(0.9), "far", "v2", ""),
        TrainingRecord(one_pixel(1.0), fan_landmarks(0.3), "second", "v1", ""),
    ]
    gallery = build_gallery(model, records)
    report = recognize(gallery, model, one_pixel(0.9), fan_landmarks(0.3), mode)
    assert report.rv[1] == report.rv[3] == report.rv.min()
    assert report.best_index == 1
    assert report.best_subject == "first"


@pytest.mark.parametrize("divisor", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("mode", ["pca_only", "dt_pca"])
def test_recognize_rejects_bad_divisor(flip_fixture, mode, divisor):
    model, gallery, test_image, test_landmarks = flip_fixture
    with pytest.raises(ValueError, match="dt_divisor"):
        recognize(gallery, model, test_image, test_landmarks, mode, dt_divisor=divisor)


def test_huge_divisor_matches_pca_only(flip_fixture):
    model, gallery, test_image, test_landmarks = flip_fixture
    pca = recognize(gallery, model, test_image, None, "pca_only")
    fused = recognize(
        gallery, model, test_image, test_landmarks, "dt_pca", dt_divisor=1e9
    )
    assert fused.best_index == pca.best_index


def test_dt_pca_requires_landmarks(flip_fixture):
    model, gallery, test_image, _ = flip_fixture
    with pytest.raises(ValueError):
        recognize(gallery, model, test_image, None, "dt_pca")


def test_scheme_mismatch_rejected(flip_fixture):
    model, gallery, test_image, _ = flip_fixture
    other = LandmarkSet(
        points=np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0), (1.0, 1.0)]),
        scheme=5,
    )
    with pytest.raises(ValueError):
        recognize(gallery, model, test_image, other, "dt_pca")


def test_unknown_mode_rejected(flip_fixture):
    model, gallery, test_image, _ = flip_fixture
    with pytest.raises(ValueError):
        recognize(gallery, model, test_image, None, "both")


def test_landmarkless_gallery_pca_only(flip_fixture):
    model, *_ = flip_fixture
    g = build_gallery(
        model,
        [
            TrainingRecord(one_pixel(0.0), None, "a", "v", ""),
            TrainingRecord(one_pixel(1.0), None, "b", "v", ""),
        ],
    )
    report = recognize(g, model, one_pixel(0.1), None, "pca_only")
    assert report.best_subject == "a"
    with pytest.raises(ValueError):
        recognize(g, model, one_pixel(0.1), fan_landmarks(0.5), "dt_pca")
    with pytest.raises(ValueError):
        save_gallery(g, model, "/tmp/never-written.json")


def test_recognize_deterministic(flip_fixture):
    model, gallery, test_image, test_landmarks = flip_fixture
    a = recognize(gallery, model, test_image, test_landmarks, "dt_pca")
    b = recognize(gallery, model, test_image, test_landmarks, "dt_pca")
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


# --- persistence ----------------------------------------------------------------

def test_gallery_round_trip_bit_identical_reports(tmp_path, flip_fixture):
    model, gallery, test_image, test_landmarks = flip_fixture
    path = tmp_path / "gallery.json"
    save_gallery(gallery, model, path)
    gallery2, model2 = load_gallery(path)
    r1 = recognize(gallery, model, test_image, test_landmarks, "dt_pca")
    r2 = recognize(gallery2, model2, test_image, test_landmarks, "dt_pca")
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())
    assert np.array_equal(gallery.coords, gallery2.coords)
    assert np.array_equal(gallery.ra_avg, gallery2.ra_avg)


def test_load_gallery_truncated(tmp_path, flip_fixture):
    model, gallery, *_ = flip_fixture
    path = tmp_path / "gallery.json"
    save_gallery(gallery, model, path)
    path.write_text(path.read_text()[: path.stat().st_size // 2])
    with pytest.raises(GalleryFormatError):
        load_gallery(path)


def test_load_gallery_k_mismatch(tmp_path, flip_fixture):
    model, gallery, *_ = flip_fixture
    path = tmp_path / "gallery.json"
    save_gallery(gallery, model, path)
    obj = json.loads(path.read_text())
    obj["entries"][0]["coords"].append(0.0)
    path.write_text(json.dumps(obj))
    with pytest.raises(GalleryFormatError):
        load_gallery(path)


def test_load_gallery_bad_version(tmp_path, flip_fixture):
    model, gallery, *_ = flip_fixture
    path = tmp_path / "gallery.json"
    save_gallery(gallery, model, path)
    obj = json.loads(path.read_text())
    obj["format_version"] = 99
    path.write_text(json.dumps(obj))
    with pytest.raises(GalleryFormatError):
        load_gallery(path)


def test_load_gallery_ra_avg_out_of_range(tmp_path, flip_fixture):
    model, gallery, *_ = flip_fixture
    path = tmp_path / "gallery.json"
    save_gallery(gallery, model, path)
    obj = json.loads(path.read_text())
    obj["entries"][0]["ra_avg"] = 1.5
    path.write_text(json.dumps(obj))
    with pytest.raises(GalleryFormatError):
        load_gallery(path)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["coords", "mean", "eigenvectors", "eigenvalues"])
def test_load_gallery_rejects_non_finite(tmp_path, flip_fixture, where, value):
    model, gallery, *_ = flip_fixture
    path = tmp_path / "gallery.json"
    save_gallery(gallery, model, path)
    obj = json.loads(path.read_text())
    if where == "coords":
        obj["entries"][1]["coords"][0] = value
    elif where == "eigenvectors":
        obj["model"]["eigenvectors"][0][0] = value
    else:
        obj["model"][where][0] = value
    path.write_text(json.dumps(obj))
    with pytest.raises(GalleryFormatError, match="non-finite"):
        load_gallery(path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda obj: obj.update(scheme=obj["scheme"] + 0.9),
        lambda obj: obj.update(scheme=True),
        lambda obj: obj["model"].update(k=obj["model"]["k"] + 0.7),
        lambda obj: obj["model"].update(width=obj["model"]["width"] + 0.5),
        lambda obj: obj["model"].update(height=float(obj["model"]["height"])),
        lambda obj: obj["model"]["eigenvalues"].__setitem__(-1, -5.0),
        lambda obj: obj["model"]["eigenvalues"].reverse(),
    ],
    ids=["scheme-float", "scheme-bool", "k-float", "width-float", "height-float",
         "negative-eigenvalue", "ascending-eigenvalues"],
)
def test_load_gallery_rejects_fields_fit_never_writes(tmp_path, edit):
    # int() used to truncate these fields, and any eigenvalues loaded.
    images = [
        ImageVector(width=2, height=1, values=np.array(v))
        for v in ([0.0, 0.0], [1.0, 0.2], [0.3, 1.0])
    ]
    model = fit_eigenmodel(images, k=2)
    assert model.eigenvalues[0] > model.eigenvalues[1] > 0
    records = [
        TrainingRecord(img, fan_landmarks(0.3 + 0.2 * i), f"s{i}", "v1", "")
        for i, img in enumerate(images)
    ]
    path = tmp_path / "gallery.json"
    save_gallery(build_gallery(model, records), model, path)
    load_gallery(path)
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))
    with pytest.raises(GalleryFormatError):
        load_gallery(path)


def test_load_gallery_entries_not_a_list(tmp_path, flip_fixture):
    model, gallery, *_ = flip_fixture
    path = tmp_path / "gallery.json"
    save_gallery(gallery, model, path)
    obj = json.loads(path.read_text())
    obj["entries"] = 5
    path.write_text(json.dumps(obj))
    with pytest.raises(GalleryFormatError):
        load_gallery(path)


def test_load_gallery_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_gallery(tmp_path / "missing.json")
