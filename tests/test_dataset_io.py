
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtpca.dataset_io import (
    DatasetFormatError,
    DatasetManifest,
    ImageVector,
    ManifestEntry,
    load_image,
    load_landmarks,
    load_manifest,
    save_image,
    save_manifest,
    split_dataset,
)


# --- load_image --------------------------------------------------------------

def test_load_image_boundary_pixels(write_pgm):
    path = write_pgm("a.pgm", 1, 2, [255, 0])
    img = load_image(path)
    assert (img.width, img.height) == (1, 2)
    assert img.normalized().tolist() == [1.0, 0.0]


def test_load_image_51_is_exactly_point_two(write_pgm):
    path = write_pgm("b.pgm", 2, 2, [51, 51, 51, 51])
    img = load_image(path)
    assert np.all(np.abs(img.normalized() - 0.2) < 1e-12)


def test_load_image_yale_dimensions(write_pgm):
    path = write_pgm("yale.pgm", 320, 243, bytes(320 * 243))
    img = load_image(path)
    assert len(img.values) == 77760


def test_load_image_ascii_p2(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_text("P2\n# comment\n2 2\n255\n0 255\n51 102\n")
    img = load_image(path)
    assert img.normalized().tolist() == [0.0, 1.0, 51 / 255, 102 / 255]


def test_load_image_header_comments(write_pgm, tmp_path):
    path = tmp_path / "d.pgm"
    path.write_bytes(b"P5\n# a comment\n1 1\n# another\n255\n\x7f")
    img = load_image(path)
    assert img.normalized().tolist() == [127 / 255]


def test_load_image_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_image(tmp_path / "nope.pgm")


def test_load_image_bad_magic(write_pgm):
    path = write_pgm("e.pgm", 1, 1, [0], magic=b"P6")
    with pytest.raises(DatasetFormatError):
        load_image(path)


def test_load_image_wrong_maxval(write_pgm):
    path = write_pgm("f.pgm", 1, 1, [0], maxval=128)
    with pytest.raises(DatasetFormatError):
        load_image(path)


def test_load_image_truncated(write_pgm):
    path = write_pgm("g.pgm", 2, 2, [0, 0])
    with pytest.raises(DatasetFormatError):
        load_image(path)


def test_load_image_p2_pixel_out_of_range(tmp_path):
    path = tmp_path / "h.pgm"
    path.write_text("P2\n1 1\n255\n300\n")
    with pytest.raises(DatasetFormatError):
        load_image(path)


@pytest.mark.parametrize(
    "data,text",
    [
        (b"P6\n1 1\n255\n\x00", "unsupported magic number b'P6'"),
        (b"P", "unsupported magic number b'P'"),
        (b"", "unsupported magic number b''"),
        (b"p5\n1 1\n255\n\x00", "unsupported magic number b'p5'"),
        (b"P5\n1 1\n", "truncated PGM header"),
        (b"P2", "truncated PGM header"),
        (b"P5 1 1 # 255\n", "truncated PGM header"),
        (b"P5 1 1 # 255\n\x00", "missing whitespace after PGM header"),
        (b"P5 1 1 #\n", "truncated PGM header"),
        (b"P5\n1 1\n255", "missing whitespace after PGM header"),
        (b"P5\n1 1\n255#c\n\x00", "missing whitespace after PGM header"),
        (b"P2 1 1 255#\n7\n", "missing whitespace after PGM header"),
        (b"P5\n1 x\n255\n\x00", "non-numeric PGM header"),
        (b"P5\n+1 1\n255\n\x00", "non-numeric PGM header"),
        (b"P5\n1 1_0\n255\n\x00", "non-numeric PGM header"),
        (b"P5 1 1 \xd9\xa5\n\x00", "non-numeric PGM header"),
        pytest.param(b"P5 " + b"9" * 5000 + b" 2 255\n\x00",
                     "PGM header value too large (5000 digits)", id="5000-digit width"),
        pytest.param(b"P5 1 1 " + b"0" * 9 + b"1" * 4301 + b"\n\x00",
                     "PGM header value too large (4301 digits)", id="4301-digit maxval"),
        pytest.param(b"P5 " + b"9" * 5000 + b" x 255\n\x00",
                     "non-numeric PGM header", id="5000-digit width, non-numeric height"),
        (b"P5\n0 1\n255\n", "invalid dimensions 0x1"),
        (b"P2\n3 00\n255\n", "invalid dimensions 3x0"),
        (b"P5\n1 1\n128\n\x00", "maxval 128 unsupported (must be 255)"),
        (b"P5\n2 2\n255\n\x00\x00\x00", "truncated pixel data"),
        (b"P5\n1 1\n255\n", "truncated pixel data"),
        (b"P2\n2 1\n255\n0\n", "truncated pixel data"),
        (b"P2\n2 1\n255\n0 +1\n", "non-numeric pixel value"),
        (b"P2\n2 1\n255\n0 #1\n", "non-numeric pixel value"),
        (b"P2\n1 1\n255\n256\n", "pixel value out of range"),
        (b"P2\n1 1\n255\n-1\n", "pixel value out of range"),
    ],
)
def test_load_image_error_texts(tmp_path, data, text):
    path = tmp_path / "x.pgm"
    path.write_bytes(data)
    with pytest.raises(DatasetFormatError) as exc:
        load_image(path)
    assert str(exc.value) == f"{path}: {text}"


@pytest.mark.parametrize(
    "data,size,pixels",
    [
        (b"P51 1 255\n\x07", (1, 1), [7]),
        (b"P5#c\n1 1 255\n\x07", (1, 1), [7]),
        (b"P5\n#\n1#c\n1#c\n255\n\x07", (1, 1), [7]),
        (b"P5\x0b2\x0c1\t255\x0b\x07\x08", (2, 1), [7, 8]),
        (b"P5\r\n1 1\r\n255\n\x07", (1, 1), [7]),
        (b"P5\r\n1 1\r\n255\r\n\x07", (1, 1), [10]),
        (b"P5 1 1 255 # 255\n", (1, 1), [ord("#")]),
        (b"P5 1 1 255 \x07# trailing", (1, 1), [7]),
        (b"P2\r\n2 1\r\n255\r\n7\x0b8\r\n# end of file", (2, 1), [7, 8]),
        (b"P2 1 1 255 7 junk", (1, 1), [7]),
        (b"P2\n01 1\n0255\n007\n", (1, 1), [7]),
        pytest.param(b"P5 " + b"0" * 5000 + b"1 1 255\n\x07", (1, 1), [7],
                     id="width 1 after 5000 zeros"),
    ],
)
def test_load_image_header_forms_that_load(tmp_path, data, size, pixels):
    path = tmp_path / "x.pgm"
    path.write_bytes(data)
    img = load_image(path)
    assert (img.width, img.height) == size
    assert img.values.tolist() == pixels


@given(pixels=st.lists(st.integers(0, 255), min_size=1, max_size=64))
def test_pgm_byte_round_trip(tmp_path_factory, pixels):
    # Loading then saving reproduces the original bytes exactly.
    tmp = tmp_path_factory.mktemp("rt")
    path = tmp / "img.pgm"
    header = f"P5\n{len(pixels)} 1\n255\n".encode()
    path.write_bytes(header + bytes(pixels))
    img = load_image(path)
    out = tmp / "out.pgm"
    save_image(img, out)
    assert out.read_bytes() == path.read_bytes()


def test_image_vector_length_checked():
    with pytest.raises(ValueError):
        ImageVector(width=2, height=2, values=np.zeros(3))


@pytest.mark.parametrize(
    "values",
    [np.zeros((2, 2), dtype=np.uint8), np.zeros(2, dtype=np.int64),
     np.zeros(2), np.zeros(2, dtype=np.float32), np.zeros(2, dtype=np.float16)],
    ids=["2-D", "int64", "float64", "float32", "float16"],
)
def test_image_vector_rejects_other_representations(values):
    # All have len 2 == 2x1, so a length check alone would let them through;
    # the exact Gram needs integer pixels, so float intensities are refused.
    with pytest.raises(ValueError, match="1-D array of dtype uint8"):
        ImageVector(width=2, height=1, values=values)


@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_image_vector_rejects_non_finite_values(bad, dtype):
    # No non-finite value can enter an image: no float array does.
    with pytest.raises(ValueError, match="1-D array of dtype uint8"):
        ImageVector(width=2, height=1, values=np.array([0.5, bad], dtype=dtype))


def test_image_vector_keeps_uint8_values_as_given():
    # Every pixel value, in the caller's own array.
    raw = np.arange(256, dtype=np.uint8)
    assert ImageVector(width=16, height=16, values=raw).values is raw


@pytest.mark.parametrize("magic", ["P5", "P2"])
def test_load_image_keeps_one_byte_per_pixel(tmp_path, magic):
    pixels = [0, 1, 2, 253, 254, 255]
    path = tmp_path / "raw.pgm"
    header = f"{magic}\n3 2\n255\n".encode()
    raster = bytes(pixels) if magic == "P5" else " ".join(map(str, pixels)).encode()
    path.write_bytes(header + raster)
    img = load_image(path)
    assert img.values.dtype == np.uint8
    assert img.values.nbytes == img.width * img.height == 6
    assert img.values.tolist() == pixels


def test_normalized_divides_every_pixel_value_by_255():
    raw = np.arange(256, dtype=np.uint8)
    img = ImageVector(width=16, height=16, values=raw)
    expected = raw.astype(float) / 255.0
    assert np.array_equal(img.normalized(), expected)


@pytest.mark.parametrize("field", ["99999999999999999999", "-99999999999999999999"])
def test_load_image_p2_pixel_beyond_int64_is_out_of_range(tmp_path, field):
    path = tmp_path / "big.pgm"
    path.write_text(f"P2\n2 1\n255\n0 {field}\n")
    with pytest.raises(DatasetFormatError, match="pixel value out of range"):
        load_image(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_save_image_rejects_non_finite_values(tmp_path, bad):
    # The float array is refused as an image, so nothing reaches the file.
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError, match="1-D array of dtype uint8"):
        save_image(ImageVector(width=2, height=1, values=np.array([0.5, bad])), path)
    assert not path.exists()


def test_synthetic_images_are_pinned_bytes(synth_dataset):
    # The generator rounds its float intensities to pixels and writes them
    # through save_image; any change to its rounding, clipping or header
    # changes this digest.
    digest = hashlib.sha256()
    paths = sorted((synth_dataset["root"] / "images").glob("*.pgm"))
    for path in paths:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    assert len(paths) == 20
    assert digest.hexdigest() == (
        "6ddd18f9786f22e686496085fbbd0b86e61dbf92ee495217b9f8571e1e44669e"
    )


# --- load_landmarks -----------------------------------------------------------

def test_load_landmarks_triangle(write_landmarks):
    path = write_landmarks("t.csv", [(0, 0), (4, 0), (2, 3)])
    lmk = load_landmarks(path)
    assert type(lmk) is np.ndarray and lmk.dtype == np.float64
    assert lmk.shape == (3, 2)
    assert lmk.tolist() == [[0, 0], [4, 0], [2, 3]]


def test_load_landmarks_68_scheme(write_landmarks):
    pts = [(float(i), float(i * i % 29)) for i in range(68)]
    path = write_landmarks("s68.csv", pts)
    assert len(load_landmarks(path)) == 68


@pytest.mark.parametrize(
    "points",
    [
        [(0, 0), (1, 2), (1, 2), (3, 1)],
        [(0, 0), (1, 1), (2, 2)],
        [(0, 0), (1, 1)],
    ],
    ids=["duplicate", "collinear", "two"],
)
def test_load_landmarks_leaves_set_checks_to_delaunay(write_landmarks, points):
    # Sets that delaunay rejects load unchanged; see
    # test_triangulate_rejects_unmeshable_landmarks for the rejection.
    lmk = load_landmarks(write_landmarks("set.csv", points))
    assert lmk.dtype == np.float64
    assert lmk.tolist() == [list(map(float, p)) for p in points]


def test_load_landmarks_empty_file_is_zero_by_two(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n\n")
    lmk = load_landmarks(path)
    assert lmk.dtype == np.float64 and lmk.shape == (0, 2)


def test_load_landmarks_unparsable(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\n4,zero\n2,3\n")
    with pytest.raises(DatasetFormatError):
        load_landmarks(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "Infinity"])
def test_load_landmarks_non_finite(tmp_path, token):
    path = tmp_path / "nonfinite.csv"
    path.write_text(f"0,0\n4,{token}\n2,3\n1,1\n")
    with pytest.raises(DatasetFormatError, match=r"nonfinite\.csv:2: non-finite"):
        load_landmarks(path)


@pytest.mark.parametrize("token", ["4.9e-324", "-1e-310", "2.225073858507201e-308"])
def test_load_landmarks_subnormal(tmp_path, token):
    path = tmp_path / "subnormal.csv"
    path.write_text(f"0,1\n1,1.5\n{token},1\n")
    with pytest.raises(DatasetFormatError, match=r"subnormal\.csv:3: subnormal"):
        load_landmarks(path)


def test_load_landmarks_smallest_normal_and_zero(tmp_path):
    path = tmp_path / "normal.csv"
    path.write_text("0,1\n1,1.5\n2.2250738585072014e-308,-0.0\n")
    assert load_landmarks(path)[2].tolist() == [2.2250738585072014e-308, 0.0]


def test_load_landmarks_crlf_and_decimals(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"0.5,0.25\r\n4.125,0\r\n2,3.75\r\n")
    lmk = load_landmarks(path)
    assert lmk.tolist() == [[0.5, 0.25], [4.125, 0.0], [2.0, 3.75]]


def test_load_landmarks_skips_a_byte_order_mark(tmp_path):
    # It used to fail as "l.csv:1: unparsable coordinate '\ufeff1.5,2.5'".
    path = tmp_path / "l.csv"
    path.write_bytes(b"\xef\xbb\xbf1.5,2.5\n0,0\n")
    assert load_landmarks(path).tolist() == [[1.5, 2.5], [0.0, 0.0]]


def test_load_landmarks_preserves_order(write_landmarks):
    pts = [(9, 1), (0, 0), (5, 5), (1, 8)]
    path = write_landmarks("ord.csv", pts)
    lmk = load_landmarks(path)
    assert lmk.tolist() == [list(map(float, p)) for p in pts]


# --- manifests and splitting ---------------------------------------------------

def _manifest(subjects, variants):
    entries = [
        ManifestEntry(
            image_path=f"images/{s}_{v}.pgm",
            subject_id=f"s{s:02d}",
            variant=f"v{v}",
            landmark_path=f"landmarks/{s}_{v}.csv",
        )
        for s in range(subjects)
        for v in range(variants)
    ]
    return DatasetManifest(entries=tuple(entries))


def test_manifest_round_trip(tmp_path):
    m = _manifest(3, 2)
    path = tmp_path / "m.csv"
    save_manifest(m, path)
    back = load_manifest(path)
    assert [e.subject_id for e in back.entries] == [e.subject_id for e in m.entries]
    assert [e.variant for e in back.entries] == [e.variant for e in m.entries]
    assert back.entries[0].image_path == tmp_path / "images/0_0.pgm"


def test_manifest_with_a_byte_order_mark_loads(tmp_path):
    # The mark used to make the header fail its exact-match check.
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    save_manifest(_manifest(3, 2), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert load_manifest(marked) == load_manifest(plain)


def test_manifest_requires_header(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a.pgm,s01,v1,a.csv\n")
    with pytest.raises(DatasetFormatError):
        load_manifest(path)


@pytest.mark.parametrize("body", ["", "\n\n"])
def test_manifest_with_only_a_header_is_rejected(tmp_path, body):
    path = tmp_path / "m.csv"
    path.write_text("image_path,subject_id,variant,landmark_path\n" + body)
    with pytest.raises(DatasetFormatError, match="m.csv: manifest lists no entries$"):
        load_manifest(path)


def test_manifest_duplicate_pair(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "image_path,subject_id,variant,landmark_path\n"
        "a.pgm,s01,v1,a.csv\nb.pgm,s01,v1,b.csv\n"
    )
    with pytest.raises(DatasetFormatError):
        load_manifest(path)


def test_manifest_ragged_subjects(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(
        "image_path,subject_id,variant,landmark_path\n"
        "a.pgm,s01,v1,a.csv\nb.pgm,s01,v2,b.csv\nc.pgm,s02,v1,c.csv\n"
    )
    with pytest.raises(DatasetFormatError):
        load_manifest(path)


@pytest.mark.parametrize(
    "train_variants,n_train,n_test",
    [(7, 105, 30), (5, 75, 60), (3, 45, 90)],
)
def test_split_dataset_standard_splits(train_variants, n_train, n_test):
    m = _manifest(15, 9)
    train, test = split_dataset(m, train_variants)
    assert len(train.entries) == n_train
    assert len(test.entries) == n_test


def test_split_dataset_takes_first_variants_in_order():
    m = _manifest(2, 4)
    train, test = split_dataset(m, 3)
    for s, group in train.entries_by_subject().items():
        assert [e.variant for e in group] == ["v0", "v1", "v2"]
    for s, group in test.entries_by_subject().items():
        assert [e.variant for e in group] == ["v3"]


def test_split_dataset_takes_the_first_k_entries_of_repeated_entries():
    a, b, c = _manifest(1, 3).entries
    train, test = split_dataset(DatasetManifest(entries=(a, a, b, c)), 1)
    assert train.entries == (a,)
    assert test.entries == (a, b, c)


def test_split_dataset_out_of_range():
    m = _manifest(3, 4)
    with pytest.raises(ValueError):
        split_dataset(m, 0)
    with pytest.raises(ValueError):
        split_dataset(m, 4)


@pytest.mark.parametrize("k", [2.5, True])
def test_split_dataset_rejects_a_non_integer_count(k):
    with pytest.raises(ValueError) as info:
        split_dataset(_manifest(3, 4), k)
    assert str(info.value) == f"train_variants_per_subject must be an integer, got {k!r}"


@pytest.mark.parametrize("k", [0, 1, 2])
def test_split_dataset_names_too_few_variants_per_subject(k):
    # It used to say "train_variants_per_subject=1 out of range [1, 0]".
    with pytest.raises(ValueError) as info:
        split_dataset(_manifest(3, 1), k)
    assert str(info.value) == "a split needs at least 2 variants per subject, the manifest has 1"


def test_split_dataset_ragged():
    entries = list(_manifest(2, 3).entries)[:-1]
    with pytest.raises(ValueError):
        split_dataset(DatasetManifest(entries=tuple(entries)), 1)


@given(
    subjects=st.integers(1, 6),
    variants=st.integers(2, 7),
    data=st.data(),
)
def test_split_dataset_partition_properties(subjects, variants, data):
    k = data.draw(st.integers(1, variants - 1))
    m = _manifest(subjects, variants)
    train, test = split_dataset(m, k)
    assert set(train.entries).isdisjoint(test.entries)
    assert set(train.entries) | set(test.entries) == set(m.entries)
    for group in train.entries_by_subject().values():
        assert len(group) == k
