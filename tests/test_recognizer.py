import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

import dtpca
import oracles
from dtpca import geometry, recognizer
from dtpca.dataset_io import ImageVector
from dtpca.eigenface import ImageSizeError, fit_eigenmodel, project
from dtpca.recognizer import (
    GALLERY_ARRAYS,
    OVERLAP_WORK,
    GalleryFormatError,
    LandmarkError,
    TrainingRecord,
    build_gallery,
    load_gallery,
    recognize,
    save_gallery,
    valid_dt_divisor,
)
from oracles import dt_difference, fused_score


def one_pixel(level):
    """A 1x1 image of one pixel level; its intensity is level / 255."""
    return ImageVector(width=1, height=1, values=np.array([level], dtype=np.uint8))


def fan_landmarks(h):
    """Triangle (0,0),(4,0),(2,3) plus interior point (2,h), 0 < h < 3.

    Triangulates as a 3-triangle fan with shoelace areas (2h, 3-h, 3-h),
    so the average relative area is analytically (2 + 2h/(3-h)) / 3 for
    h <= 1.
    """
    return np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, h)])


def fan_ra_avg(h):
    areas = [2 * h, 3 - h, 3 - h]
    amax = max(areas)
    return sum(a / amax for a in areas) / 3


@pytest.fixture
def flip_fixture():
    """Two-entry gallery where the triangulation term flips the argmin.

    Entry A is nearer in eigenspace (ED 64/255 vs 191/255) but entry B shares
    the test image's mesh descriptor exactly, so under dt_pca the D/0.001
    term moves the match from A to B.
    """
    model = fit_eigenmodel([one_pixel(0), one_pixel(255)], k=1)
    records = [
        TrainingRecord(one_pixel(255), fan_landmarks(0.9), "subjA", "v1", "a.pgm"),
        TrainingRecord(one_pixel(0), fan_landmarks(0.3), "subjB", "v1", "b.pgm"),
    ]
    gallery = build_gallery(model, records)
    test_image = one_pixel(191)
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
        model, [TrainingRecord(one_pixel(255), fan_landmarks(0.5), "s", "v", "")]
    )
    assert len(g.subjects) == 1
    assert g.scheme == 4
    assert g.ra_avg[0] == pytest.approx(fan_ra_avg(0.5), rel=1e-12)
    # Any test image matches the lone entry.
    report = recognize(g, model, one_pixel(0), fan_landmarks(0.9), "dt_pca")
    assert report.best_index == 0 and report.best_subject == "s"


def test_build_gallery_empty_raises(flip_fixture):
    model, *_ = flip_fixture
    with pytest.raises(ValueError):
        build_gallery(model, [])


def test_build_gallery_mixed_schemes(flip_fixture):
    model, *_ = flip_fixture
    other = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(ValueError):
        build_gallery(
            model,
            [
                TrainingRecord(one_pixel(0), fan_landmarks(0.5), "a", "v", ""),
                TrainingRecord(one_pixel(255), other, "b", "v", ""),
            ],
        )


def test_build_gallery_partial_landmarks_rejected(flip_fixture):
    model, *_ = flip_fixture
    with pytest.raises(ValueError):
        build_gallery(
            model,
            [
                TrainingRecord(one_pixel(0), fan_landmarks(0.5), "a", "v", ""),
                TrainingRecord(one_pixel(255), None, "b", "v", ""),
            ],
        )


# --- recognize ----------------------------------------------------------------

def test_self_match_is_exactly_zero(flip_fixture):
    model, gallery, _, _ = flip_fixture
    report = recognize(gallery, model, one_pixel(255), fan_landmarks(0.9), "dt_pca")
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
    ed_oracle = [abs(191 / 255 - 1.0), abs(191 / 255 - 0.0)]
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
    # The scalar oracles.eigen_distance / dt_difference / fused_score per
    # row are the reference; the one-pass scorer must reproduce them exactly.
    rng = np.random.default_rng(11)
    width, height, n, k = 9, 7, 40, 25

    def image():
        return ImageVector(width, height, rng.integers(0, 256, width * height, dtype=np.uint8))

    def landmarks():
        return rng.uniform(0, 100, (12, 2))

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
            ed.append(oracles.eigen_distance(q, project(model, rec.image)))
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
    model = fit_eigenmodel([one_pixel(0), one_pixel(255)], k=1)
    records = [
        TrainingRecord(one_pixel(0), fan_landmarks(0.9), "far", "v1", ""),
        TrainingRecord(one_pixel(255), fan_landmarks(0.3), "first", "v1", ""),
        TrainingRecord(one_pixel(0), fan_landmarks(0.9), "far", "v2", ""),
        TrainingRecord(one_pixel(255), fan_landmarks(0.3), "second", "v1", ""),
    ]
    gallery = build_gallery(model, records)
    report = recognize(gallery, model, one_pixel(230), fan_landmarks(0.3), mode)
    assert report.rv[1] == report.rv[3] == report.rv.min()
    assert report.best_index == 1
    assert report.best_subject == "first"


@pytest.mark.parametrize("divisor", [0.0, -1.0, math.nan, math.inf, 1e-310, 5e-324])
@pytest.mark.parametrize("mode", ["pca_only", "dt_pca"])
def test_recognize_rejects_bad_divisor(flip_fixture, mode, divisor):
    model, gallery, test_image, test_landmarks = flip_fixture
    with pytest.raises(ValueError, match="dt_divisor"):
        recognize(gallery, model, test_image, test_landmarks, mode, dt_divisor=divisor)


@pytest.mark.parametrize(
    "value,valid",
    [(sys.float_info.min, True), (0.001, True), (1e308, True), (0.0, False), (-1.0, False),
     (math.nan, False), (math.inf, False), (1e-310, False), (5e-324, False)],
)
def test_valid_dt_divisor_is_the_one_range_rule(value, valid):
    # recognize, the evaluation harness and the CLI all apply it.
    assert valid_dt_divisor(value) is valid


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
    other = np.array([(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0), (1.0, 1.0)])
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
            TrainingRecord(one_pixel(0), None, "a", "v", ""),
            TrainingRecord(one_pixel(255), None, "b", "v", ""),
        ],
    )
    report = recognize(g, model, one_pixel(26), None, "pca_only")
    assert report.best_subject == "a"
    with pytest.raises(ValueError):
        recognize(g, model, one_pixel(26), fan_landmarks(0.5), "dt_pca")
    with pytest.raises(ValueError):
        save_gallery(g, model, "/tmp/never-written.json")


def test_recognize_deterministic(flip_fixture):
    model, gallery, test_image, test_landmarks = flip_fixture
    a = recognize(gallery, model, test_image, test_landmarks, "dt_pca")
    b = recognize(gallery, model, test_image, test_landmarks, "dt_pca")
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())


# --- persistence ----------------------------------------------------------------

# What the format-1 (JSON) writer wrote for flip_fixture's gallery.
V1_GALLERY = (
    '{"format_version": 1, "model": {"width": 1, "height": 1, "k": 1, "mean": [0.5], '
    '"eigenvalues": [0.5], "eigenvectors": [[1.0]]}, "scheme": 4, "entries": '
    '[{"subject": "subjA", "variant": "v1", "ra_avg": 0.9523809523809524, '
    '"coords": [0.5], "source": "a.pgm"}, {"subject": "subjB", "variant": "v1", '
    '"ra_avg": 0.7407407407407414, "coords": [-0.5], "source": "b.pgm"}]}\n'
)


def gallery_records(path):
    """The header dict and the named arrays (copies) of a format-3 gallery
    file, read by the layout that README.md gives."""
    data = path.read_bytes()
    offset = data.index(b"\n") + 1
    header = json.loads(data[:offset])
    d, k, n = header["width"] * header["height"], header["k"], len(header["subjects"])
    arrays = {}
    for name, shape in zip(GALLERY_ARRAYS, [(d,), (k, d), (k,), (n, k), (n,)]):
        count = math.prod(shape)
        arrays[name] = np.frombuffer(data, "<f8", count, offset).reshape(shape).copy()
        offset += 8 * count
    return header, arrays


def write_gallery(path, header, arrays):
    """Write a format-3 file: the header as one line padded with spaces to
    a multiple of 64 bytes, the arrays' raw bytes in the dict's order
    whatever their dtype, then the CRC-32 of all that."""
    line = json.dumps(header).encode()
    body = line.ljust(64 * math.ceil((len(line) + 1) / 64) - 1) + b"\n"
    body += b"".join(a.tobytes() for a in arrays.values())
    path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))


def edit_gallery(path, edit):
    """Rewrite a gallery file after edit(header, arrays) has changed its
    header and arrays in place.  The CRC is recomputed, so the edit
    reaches the checks that follow the checksum."""
    header, arrays = gallery_records(path)
    edit(header, arrays)
    write_gallery(path, header, arrays)


def record_ends(path):
    """The byte offsets at which a gallery file's header line and each of
    its arrays end; the 4-byte CRC follows the last."""
    ends = [path.read_bytes().index(b"\n") + 1]
    for a in gallery_records(path)[1].values():
        ends.append(ends[-1] + a.nbytes)
    return ends


TWO_PIXEL_IMAGES = [
    ImageVector(width=2, height=1, values=np.array(v, dtype=np.uint8))
    for v in ([0, 0], [255, 51], [77, 255])
]


def save_two_pixel_gallery(path, k=2):
    """Save a 3-entry gallery of 2-pixel images: eigenvectors are 2 x 2."""
    model = fit_eigenmodel(TWO_PIXEL_IMAGES, k=k)
    records = [
        TrainingRecord(img, fan_landmarks(0.3 + 0.2 * i), f"s{i}", "v1", "")
        for i, img in enumerate(TWO_PIXEL_IMAGES)
    ]
    save_gallery(build_gallery(model, records), model, path)
    return model


@pytest.fixture
def saved_gallery(tmp_path, flip_fixture):
    model, gallery, *_ = flip_fixture
    path = tmp_path / "gallery.json"
    save_gallery(gallery, model, path)
    return path


def assert_same_gallery(loaded, saved):
    (g2, m2), (g1, m1) = loaded, saved
    pairs = [(m1.mean, m2.mean), (m1.eigenvectors, m2.eigenvectors),
             (m1.eigenvalues, m2.eigenvalues), (g1.coords, g2.coords),
             (g1.ra_avg, g2.ra_avg)]
    for a, b in pairs:
        assert b.dtype == a.dtype == np.float64
        assert b.flags.c_contiguous and b.tobytes() == a.tobytes()
    assert (g2.scheme, g2.subjects, g2.variants, g2.sources) == (
        g1.scheme, g1.subjects, g1.variants, g1.sources)
    assert (m2.width, m2.height, m2.k, m2.requested_k) == (
        m1.width, m1.height, m1.k, m1.requested_k)


def test_gallery_round_trip_bit_identical_reports(tmp_path, flip_fixture):
    model, gallery, test_image, test_landmarks = flip_fixture
    path = tmp_path / "gallery.json"
    save_gallery(gallery, model, path)
    gallery2, model2 = load_gallery(path)
    r1 = recognize(gallery, model, test_image, test_landmarks, "dt_pca")
    r2 = recognize(gallery2, model2, test_image, test_landmarks, "dt_pca")
    assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())
    assert_same_gallery((gallery2, model2), (gallery, model))


def test_gallery_reload_keeps_requested_k(tmp_path):
    # The format-1 reader set requested_k = k, so a reload lost the clamp.
    path = tmp_path / "gallery.json"
    model = save_two_pixel_gallery(path, k=5)
    assert model.clamped and (model.k, model.requested_k) == (2, 5)
    _, model2 = load_gallery(path)
    assert model2.clamped and (model2.k, model2.requested_k) == (2, 5)


def test_save_gallery_bytes_do_not_depend_on_the_clock(tmp_path, monkeypatch, flip_fixture):
    model, gallery, *_ = flip_fixture
    real_localtime = time.localtime
    files = []
    for run, now in enumerate([1_700_000_000.0, 1_700_003_600.0]):
        monkeypatch.setattr(time, "time", lambda now=now: now)
        monkeypatch.setattr(time, "localtime", lambda t=None, now=now: real_localtime(now))
        out = tmp_path / f"run{run}"
        out.mkdir()
        save_gallery(gallery, model, out / "gallery.json")
        assert [f.name for f in out.iterdir()] == ["gallery.json"]
        files.append((out / "gallery.json").read_bytes())
    assert files[0] == files[1]


def test_load_gallery_truncated(saved_gallery):
    saved_gallery.write_bytes(saved_gallery.read_bytes()[: saved_gallery.stat().st_size // 2])
    with pytest.raises(GalleryFormatError):
        load_gallery(saved_gallery)


@pytest.mark.parametrize(
    "cut",
    [lambda ends: ends[0] // 2, lambda ends: ends[2] - 4, lambda ends: ends[4]],
    ids=["inside-header", "mid-eigenvectors", "before-ra_avg"],
)
def test_load_gallery_truncated_at_record(tmp_path, cut):
    path = tmp_path / "gallery.json"
    save_two_pixel_gallery(path)
    data = path.read_bytes()
    path.write_bytes(data[: cut(record_ends(path))])
    with pytest.raises(GalleryFormatError):
        load_gallery(path)


def declare_huge_mean(path):
    """Rewrite a gallery file, with a fresh CRC, so that its header
    declares a 10**7 x 10**6 image: a mean of 80 TB, ahead of the real
    arrays."""
    edit_gallery(path, lambda h, a: h.update(width=10**7, height=10**6))


def test_load_gallery_rejects_record_larger_than_the_file(saved_gallery):
    # The length check runs before any view is made, so the declared
    # sizes allocate nothing.
    declare_huge_mean(saved_gallery)
    tracemalloc.start()
    try:
        with pytest.raises(GalleryFormatError, match="the header's shapes imply"):
            load_gallery(saved_gallery)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_gallery_trailing_bytes(saved_gallery):
    with open(saved_gallery, "ab") as fh:
        fh.write(b"\0")
    with pytest.raises(GalleryFormatError, match="checksum mismatch"):
        load_gallery(saved_gallery)


def test_gallery_file_has_the_documented_layout(tmp_path):
    # write_gallery follows README.md, not save_gallery's code.
    path = tmp_path / "gallery.json"
    model = save_two_pixel_gallery(path, k=5)
    saved = path.read_bytes()
    header, arrays = gallery_records(path)
    assert header["format_version"] == 3
    assert (header["k"], header["requested_k"]) == (model.k, 5)
    assert arrays["eigenvectors"].tobytes() == model.eigenvectors.tobytes()
    assert record_ends(path)[0] % 64 == 0
    write_gallery(path, header, arrays)
    assert path.read_bytes() == saved


def test_loaded_arrays_are_aligned_float64_views(saved_gallery):
    gallery, model = load_gallery(saved_gallery)
    for a in (model.mean, model.eigenvectors, model.eigenvalues, gallery.coords, gallery.ra_avg):
        assert a.dtype == np.float64
        assert a.flags.c_contiguous and a.flags.aligned
        assert not a.flags.owndata


def test_load_gallery_rejects_format_2_file(saved_gallery):
    # The format-2 writer: six .npy records, the first the JSON header.
    header, arrays = gallery_records(saved_gallery)
    header["format_version"] = 2
    with open(saved_gallery, "wb") as fh:
        np.lib.format.write_array(fh, np.frombuffer(json.dumps(header).encode(), np.uint8))
        for a in arrays.values():
            np.lib.format.write_array(fh, a)
    with pytest.raises(
        GalleryFormatError, match="not a version 3 gallery file; re-run `dtpca train`"
    ):
        load_gallery(saved_gallery)


def test_load_gallery_rejects_v1_file(tmp_path):
    path = tmp_path / "gallery.json"
    path.write_text(V1_GALLERY)
    with pytest.raises(GalleryFormatError, match="dtpca train"):
        load_gallery(path)


def test_load_gallery_k_mismatch(saved_gallery):
    edit_gallery(
        saved_gallery, lambda h, a: a.update(coords=np.hstack([a["coords"], [[0.0], [0.0]]]))
    )
    with pytest.raises(GalleryFormatError, match="shape"):
        load_gallery(saved_gallery)


def test_load_gallery_bad_version(saved_gallery):
    edit_gallery(saved_gallery, lambda h, a: h.update(format_version=99))
    with pytest.raises(GalleryFormatError):
        load_gallery(saved_gallery)


def test_load_gallery_ra_avg_out_of_range(saved_gallery):
    edit_gallery(saved_gallery, lambda h, a: a["ra_avg"].__setitem__(0, 1.5))
    with pytest.raises(GalleryFormatError):
        load_gallery(saved_gallery)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["coords", "mean", "eigenvectors", "eigenvalues"])
def test_load_gallery_rejects_non_finite(saved_gallery, where, value):
    edit_gallery(saved_gallery, lambda h, a: a[where].flat.__setitem__(-1, value))
    with pytest.raises(GalleryFormatError, match="non-finite"):
        load_gallery(saved_gallery)


@pytest.mark.parametrize(
    "edit",
    [
        lambda h, a: h.update(scheme=h["scheme"] + 0.9),
        lambda h, a: h.update(scheme=True),
        lambda h, a: h.update(k=h["k"] + 0.7),
        lambda h, a: h.update(width=h["width"] + 0.5),
        lambda h, a: h.update(height=float(h["height"])),
        lambda h, a: a["eigenvalues"].__setitem__(-1, -5.0),
        lambda h, a: a.update(eigenvalues=a["eigenvalues"][::-1].copy()),
    ],
    ids=["scheme-float", "scheme-bool", "k-float", "width-float", "height-float",
         "negative-eigenvalue", "ascending-eigenvalues"],
)
def test_load_gallery_rejects_fields_fit_never_writes(tmp_path, edit):
    # int() used to truncate these fields, and any eigenvalues loaded.
    path = tmp_path / "gallery.json"
    model = save_two_pixel_gallery(path)
    assert model.eigenvalues[0] > model.eigenvalues[1] > 0
    load_gallery(path)
    edit_gallery(path, edit)
    with pytest.raises(GalleryFormatError):
        load_gallery(path)


def test_load_gallery_entries_not_a_list(saved_gallery):
    edit_gallery(saved_gallery, lambda h, a: h.update(subjects=5))
    with pytest.raises(GalleryFormatError):
        load_gallery(saved_gallery)


def test_load_gallery_subjects_length_mismatch(saved_gallery):
    edit_gallery(saved_gallery, lambda h, a: h.update(subjects=h["subjects"][:-1]))
    with pytest.raises(GalleryFormatError):
        load_gallery(saved_gallery)


def test_load_gallery_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_gallery(tmp_path / "missing.json")


# --- the overlapped dt_pca query ----------------------------------------------

@pytest.fixture(scope="module")
def large_query(tmp_path_factory):
    """A 320x243 model whose product, k x width x height, reaches
    OVERLAP_WORK, its gallery as fitted and as reloaded from a file, and a
    test image with landmarks."""
    rng = np.random.default_rng(23)
    width, height, n = 320, 243, 9

    def image():
        return ImageVector(width, height, rng.integers(0, 256, width * height, dtype=np.uint8))

    records = [
        TrainingRecord(image(), rng.uniform(0, 100, (12, 2)), f"s{i % 3}", f"v{i}", "")
        for i in range(n)
    ]
    model = fit_eigenmodel([r.image for r in records], k=n - 1)
    assert model.k * width * height >= OVERLAP_WORK
    gallery = build_gallery(model, records)
    path = tmp_path_factory.mktemp("large") / "gallery.bin"
    save_gallery(gallery, model, path)
    return {
        "fitted": (gallery, model),
        "reloaded": load_gallery(path),
        "image": image(),
        "landmarks": rng.uniform(0, 100, (12, 2)),
    }


@pytest.fixture
def mesh_threads(monkeypatch):
    """The ident of the thread each delaunay call ran on, in call order."""
    idents = []
    delaunay = geometry.delaunay

    def spy(points):
        idents.append(threading.get_ident())
        return delaunay(points)

    monkeypatch.setattr(geometry, "delaunay", spy)
    return idents


def sequential(monkeypatch):
    """From here on, every query runs one step after the other."""
    monkeypatch.setattr(recognizer, "OVERLAP_WORK", math.inf)


@pytest.mark.parametrize("source", ["fitted", "reloaded"])
def test_overlapped_query_equals_the_sequential_one(large_query, mesh_threads, monkeypatch, source):
    gallery, model = large_query[source]
    args = (gallery, model, large_query["image"], large_query["landmarks"], "dt_pca")
    overlapped = recognize(*args)
    sequential(monkeypatch)
    one_by_one = recognize(*args)
    caller = threading.get_ident()
    assert [ident != caller for ident in mesh_threads] == [True, False]
    assert overlapped.best_index == one_by_one.best_index
    for name in ("ed", "d", "rv"):
        assert np.array_equal(getattr(overlapped, name), getattr(one_by_one, name))


def test_small_and_pca_only_queries_never_use_the_worker(flip_fixture, large_query, monkeypatch):
    monkeypatch.setattr(recognizer, "_worker", lambda: pytest.fail("the worker was used"))
    gallery, model = large_query["reloaded"]
    recognize(gallery, model, large_query["image"], None, "pca_only")
    model, gallery, test_image, test_landmarks = flip_fixture
    recognize(gallery, model, test_image, test_landmarks, "dt_pca")


def unmeshable(landmarks, kind):
    bad = landmarks.copy()
    if kind == "duplicate":
        bad[5] = bad[3]
    else:
        bad[:, 1] = 2 * bad[:, 0] + 1
    return bad


def query_error(query):
    with pytest.raises(ValueError) as info:
        query()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("kind", ["duplicate", "collinear"])
def test_overlapped_query_rejects_unmeshable_landmarks(large_query, monkeypatch, kind):
    gallery, model = large_query["reloaded"]
    image, landmarks = large_query["image"], large_query["landmarks"]
    bad = unmeshable(landmarks, kind)
    error = query_error(lambda: recognize(gallery, model, image, bad, "dt_pca"))
    assert error[0] is LandmarkError
    assert kind in error[1]
    # The worker outlives the rejection: the next query on it succeeds.
    report = recognize(gallery, model, image, landmarks, "dt_pca")
    sequential(monkeypatch)
    assert query_error(lambda: recognize(gallery, model, image, bad, "dt_pca")) == error
    assert np.array_equal(recognize(gallery, model, image, landmarks, "dt_pca").rv, report.rv)


@pytest.mark.parametrize("width, height", [(243, 320), (320, 242)])
@pytest.mark.parametrize("kind", ["good", "duplicate", "collinear"])
def test_wrong_size_image_raises_what_the_sequential_order_raises(
    large_query, mesh_threads, kind, width, height
):
    # A wrong-size image never overlaps: bad landmarks are named first, as
    # in the sequential order, and good ones leave the image's size error.
    gallery, model = large_query["reloaded"]
    image = ImageVector(width, height, np.full(width * height, 128, dtype=np.uint8))
    landmarks = large_query["landmarks"]
    if kind != "good":
        landmarks = unmeshable(landmarks, kind)
    error = query_error(lambda: recognize(gallery, model, image, landmarks, "dt_pca"))
    assert error[0] is (ImageSizeError if kind == "good" else LandmarkError)
    assert mesh_threads == [threading.get_ident()]


def test_forked_child_makes_its_own_worker(large_query):
    gallery, model = large_query["reloaded"]
    args = (gallery, model, large_query["image"], large_query["landmarks"], "dt_pca")
    # This query leaves the parent with its worker thread, which the child
    # does not inherit; the child's query must make its own.
    expected = recognize(*args).rv
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(recognize(*args).rv, expected) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's overlapped query did not finish in 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_import_starts_no_thread_and_skips_concurrent_futures():
    # Importing dtpca starts no thread; the first overlapped query starts
    # the one worker, and neither imports concurrent.futures.
    src = os.path.dirname(os.path.dirname(dtpca.__file__))
    code = """
import sys, threading
import numpy as np
import dtpca
from dtpca import recognizer
from dtpca.dataset_io import ImageVector
from dtpca.eigenface import fit_eigenmodel
print('concurrent.futures' in sys.modules, threading.active_count())
rng = np.random.default_rng(5)
images = [ImageVector(320, 243, rng.integers(0, 256, 320 * 243, dtype=np.uint8))
          for _ in range(9)]
model = fit_eigenmodel(images, k=8)
assert model.k * 320 * 243 >= recognizer.OVERLAP_WORK
records = [recognizer.TrainingRecord(im, rng.uniform(0, 100, (12, 2)), 's', str(i), '')
           for i, im in enumerate(images)]
gallery = recognizer.build_gallery(model, records)
before = threading.active_count()
recognizer.recognize(gallery, model, images[0], rng.uniform(0, 100, (12, 2)), 'dt_pca')
print('concurrent.futures' in sys.modules, before, threading.active_count())
"""
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "1", "False", "1", "2"]
