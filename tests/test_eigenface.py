import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import dtpca
import oracles
from dtpca import synthetic
from dtpca.dataset_io import ImageVector, load_image, load_manifest
from dtpca.eigenface import (
    ImageSizeError,
    ZeroVarianceError,
    _lift_stops,
    fit_eigenmodel,
    gram_stops,
    project,
)
from dtpca.recognizer import (
    GalleryFormatError,
    TrainingRecord,
    build_gallery,
    load_gallery,
    save_gallery,
)
from test_recognizer import edit_gallery, fan_landmarks


def image(values, width=None, height=1):
    """A width x height ImageVector; a row of len(values) pixels by default."""
    return ImageVector(width or len(values), height, np.asarray(values))


def random_images(seed, n, d):
    rng = np.random.default_rng(seed)
    return [image(rng.uniform(size=d)) for _ in range(n)]


TOY_IMAGES = [image([0.0, 0.0]), image([1.0, 0.0]), image([0.0, 1.0])]


def toy_model(k=2):
    return fit_eigenmodel(TOY_IMAGES, k=k)


# --- mean / centering ---------------------------------------------------------

def test_mean_image_pair():
    assert oracles.mean_image([np.array([0.0, 1.0]), np.array([1.0, 0.0])]).tolist() == [0.5, 0.5]


def test_mean_image_singleton():
    assert oracles.mean_image([np.array([0.2, 0.2])]).tolist() == [0.2, 0.2]


def test_mean_image_three():
    m = oracles.mean_image(TOY_IMAGES)
    assert np.allclose(m, [1 / 3, 1 / 3])


def test_mean_image_empty():
    with pytest.raises(ValueError):
        oracles.mean_image([])


def test_mean_image_dim_mismatch():
    with pytest.raises(ValueError):
        oracles.mean_image([np.zeros(2), np.zeros(3)])


def test_center_images_rows():
    rows = oracles.center_images(
        [np.array([0.0, 1.0]), np.array([1.0, 0.0])], np.array([0.5, 0.5])
    )
    assert rows.tolist() == [[-0.5, 0.5], [0.5, -0.5]]


def test_center_images_identity_case():
    rows = oracles.center_images([np.array([0.3, 0.7])], np.array([0.3, 0.7]))
    assert rows.tolist() == [[0.0, 0.0]]


def test_center_images_three():
    rows = oracles.center_images(TOY_IMAGES, np.array([1 / 3, 1 / 3]))
    assert np.allclose(rows, [[-1 / 3, -1 / 3], [2 / 3, -1 / 3], [-1 / 3, 2 / 3]])


def test_center_images_dim_mismatch():
    with pytest.raises(ValueError):
        oracles.center_images(TOY_IMAGES, np.zeros(3))


# --- fit_eigenmodel -------------------------------------------------------------

def test_toy_model_eigenvalues_and_vectors():
    # Scatter eigenvalues are {1, 1/3}; with the 1/(n-1) = 1/2 scaling the
    # model stores {1/2, 1/6}.  Eigenvectors are (1,-1)/sqrt2 then
    # (1,1)/sqrt2 up to the sign canonicalization.
    m = toy_model()
    assert m.k == 2
    assert np.allclose(m.eigenvalues, [0.5, 1 / 6])
    r2 = 1 / math.sqrt(2)
    assert abs(abs(np.dot(m.eigenvectors[0], [r2, -r2])) - 1) < 1e-12
    assert abs(abs(np.dot(m.eigenvectors[1], [r2, r2])) - 1) < 1e-12
    for row in m.eigenvectors:
        assert row[np.argmax(np.abs(row))] > 0  # canonical sign rule


def test_toy_model_projection_of_origin():
    m = toy_model()
    coords = project(m, image([0.0, 0.0]))
    assert coords[0] == pytest.approx(0.0, abs=1e-12)
    assert coords[1] == pytest.approx(-math.sqrt(2) / 3, abs=1e-12)


def test_zero_variance_identical_images():
    with pytest.raises(ZeroVarianceError):
        fit_eigenmodel([image(np.full(4, 0.1)) for _ in range(5)], k=3)


def test_fit_requires_two_images():
    with pytest.raises(ValueError):
        fit_eigenmodel([image(np.zeros(4))], k=1)


def test_fit_rejects_bad_k():
    with pytest.raises(ValueError):
        fit_eigenmodel(TOY_IMAGES, k=0)


@pytest.mark.parametrize("k", [True, np.True_, 2.5, "2", None], ids=repr)
def test_fit_rejects_k_that_is_not_an_integer(k):
    # True used to fit with k == True, a gallery load_gallery then refused;
    # 2.5 failed in slicing with a TypeError.
    with pytest.raises(ValueError, match="k must be an integer"):
        fit_eigenmodel(TOY_IMAGES, k=k)


def test_numpy_integer_k_gives_python_ints_and_a_gallery_that_reloads(tmp_path):
    # An np.int64 k used to reach the gallery header, which json could not
    # encode.
    imgs = random_images(8, 5, 9)
    for k, kept in ((np.int64(3), 3), (np.int32(25), 4)):
        m = fit_eigenmodel(imgs, k=k)
        assert (type(m.k), type(m.requested_k)) == (int, int)
        assert (m.k, m.requested_k) == (kept, int(k))
        save_model_gallery(tmp_path / "gallery.bin", m, imgs)
        _, back = load_gallery(tmp_path / "gallery.bin")
        assert (back.k, back.requested_k) == (kept, int(k))
        assert back.eigenvectors.tobytes() == m.eigenvectors.tobytes()


def test_fit_dim_mismatch():
    # A 1x2 image has the pixel count of a 2x1 one, but not its size.
    for other in (image(np.zeros(3)), image(np.zeros(2), 1, 2)):
        with pytest.raises(ValueError, match="mismatched dimensions"):
            fit_eigenmodel([image(np.zeros(2)), other], k=1)


def test_k_clamped_to_rank():
    m = fit_eigenmodel(random_images(11, 10, 16), k=25)
    assert m.k == 9  # rank <= n - 1
    assert m.requested_k == 25
    assert m.clamped


def test_rank_bound_nonzero_eigenvalues():
    m = fit_eigenmodel(random_images(12, 4, 6), k=10)
    assert m.k <= 3
    assert np.all(m.eigenvalues > 0)
    assert np.all(np.diff(m.eigenvalues) <= 0)


def test_fit_peak_memory_below_two_image_matrices():
    # One block spans all 3,072 columns, so the fit's one buffer holds the
    # k x d eigenvectors and one n x d panel, and their norm needs no second
    # k x d array (1.36 n*d*8; a fit that had one measured 1.56).
    n, d = 40, 64 * 48
    imgs = random_images(40, n, d)
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * n * d * 8


def test_fit_peak_memory_below_two_image_matrices_from_uint8():
    # Raw pixels are divided straight into the fit's panel, so uint8 images
    # cost the fit no float copy of their own.
    n, d = 40, 64 * 48
    rng = np.random.default_rng(40)
    imgs = [image(rng.integers(0, 256, size=d, dtype=np.uint8)) for _ in range(n)]
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.45 * n * d * 8


def test_fit_peak_memory_of_a_blocked_lift():
    # 19,200 columns lift in blocks of 2,048, the last one 2,816 wide, so
    # the fit streams them through one n x 2,816 panel beside the k x d
    # eigenvectors (0.81 n*d*8).
    n, d = 40, 160 * 120
    imgs = random_images(45, n, d)
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * n * d * 8


def test_fit_peak_memory_of_a_streamed_fit_is_below_half_the_image_matrix():
    # With k much smaller than n, the fit holds no n x d matrix: the k x d
    # eigenvectors, the mean and one n x 3,136 panel (0.27 n*d*8; a fit
    # that stacks the images needs about n*d*8).
    n, d = 60, 200 * 200
    rng = np.random.default_rng(47)
    imgs = [image(rng.integers(0, 256, size=d, dtype=np.uint8)) for _ in range(n)]
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * d * 8


def test_fit_peak_memory_of_a_multi_block_lift():
    # 12,288 columns lift in six 2,048-column blocks for 30 of 40 images:
    # the k x d eigenvectors and one n x 2,048 panel (0.97 n*d*8; a lift
    # into the stacked images, with a k x 4,096 product beside them, 1.28).
    n, d = 40, 128 * 96
    imgs = random_images(48, n, d)
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=30)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * n * d * 8


def gallery_scan_images():
    """450 uint8 images of 80 x 60 pixels, the shape of gallery_scan's fit."""
    rng = np.random.default_rng(50)
    return [image(rng.integers(0, 256, size=80 * 60, dtype=np.uint8)) for _ in range(450)]


def test_fit_peak_memory_at_the_gallery_scan_shape():
    # gallery_scan's 450 images of 80 x 60 lift in blocks of 2,048, 2,048
    # and 704 columns, so the panel is n x 2,048 and not the whole n x d
    # image matrix beside the k x d eigenvectors.  The panel is given back
    # before eigh and only the kept Gram eigenvectors are reordered, so the
    # peak is the lift's (0.68 n*d*8; a panel held through eigh and an
    # n x n reorder, 0.77; a panel of every column, 1.34).
    imgs = gallery_scan_images()
    n, d = len(imgs), imgs[0].width
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=25)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.72 * n * d * 8


def test_fit_releases_the_panel_before_the_eigendecomposition(monkeypatch):
    # When eigh is entered, the fit holds the unwritten k x d eigenvectors,
    # the n x n Gram and the mean (2.62 MB), and not the n x 2,048 panel
    # behind them too (9.99 MB).
    imgs = gallery_scan_images()
    n, d, k = len(imgs), imgs[0].width, 25
    real_eigh, traced = np.linalg.eigh, []

    def eigh(a):
        traced.append(tracemalloc.get_traced_memory()[0])
        return real_eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    tracemalloc.start()
    try:
        fit_eigenmodel(imgs, k=k)
    finally:
        tracemalloc.stop()
    assert len(traced) == 1
    assert traced[0] < 1.1 * (k * d + n * n + d) * 8


@pytest.mark.parametrize(
    "n,d,kept,widths",
    [
        (450, 4800, 25, [2048, 2048, 704]),
        (135, 77760, 25, [2048] * 37 + [1984]),
        # 57 columns x 25 x 45 are too few multiply-adds for a product of
        # their own, so they join the last block.
        (45, 4153, 25, [2048, 2105]),
        (450, 4800, 1, [4800]),
        (450, 1000, 25, [1000]),
    ],
)
def test_lift_block_widths(n, d, kept, widths):
    stops = _lift_stops(n, d, kept)
    assert [b - a for a, b in zip([0, *stops], stops)] == widths


@pytest.mark.parametrize(
    "d,widths",
    [
        (7, [7]),
        (384, [384]),
        (767, [384, 383]),
        (768, [384, 384]),
        (1920, [384] * 5),
        (1921, [384] * 4 + [193, 192]),
        (2303, [384] * 4 + [384, 383]),
        (1652, [384] * 3 + [250, 250]),
        (1653, [384] * 3 + [251, 250]),
    ],
)
def test_gram_chunk_widths(d, widths):
    stops = gram_stops(d)
    assert [b - a for a, b in zip([0, *stops], stops)] == widths


# d = 0, 1 and 383 mod 384, and 385-767 columns left, odd and even, with
# the paper's 320 x 243 and widths the lift tests use.
GRAM_WIDTHS = (1920, 1921, 2303, 1652, 1653, 8193, 20000, 77760)


def gram_chunk_mismatches(widths=GRAM_WIDTHS, n=45):
    """The widths at which the Gram summed over gram_stops's chunks, as the
    fit sums it, differs from one product of all columns."""
    mismatches = []
    for d in widths:
        rows = np.random.default_rng(d).uniform(size=(n, d))
        centered = rows - rows.mean(axis=0)
        gram, product = np.zeros((n, n)), np.empty((n, n))
        stops = gram_stops(d)
        for start, stop in zip([0, *stops], stops):
            chunk = centered[:, start:stop]
            np.matmul(chunk, chunk.T, out=product)
            gram += product
        if gram.tobytes() != (centered @ centered.T).tobytes():
            mismatches.append(d)
    return mismatches


def test_chunked_gram_gives_the_one_product_bytes():
    assert gram_chunk_mismatches() == []


def mismatches_at_blas_threads(threads, name):
    """What test_eigenface.<name>() prints in a fresh interpreter whose BLAS
    runs `threads` threads.  The thread count is read when OpenBLAS loads,
    so each count needs its own interpreter."""
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(dtpca.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", f"import test_eigenface; print(test_eigenface.{name}())"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_chunked_gram_gives_the_one_product_bytes_per_blas_thread_count(threads):
    assert mismatches_at_blas_threads(threads, "gram_chunk_mismatches") == "[]"


# (n, d, k): gallery_scan's fit, whose 704-column remainder is a lift block
# of its own, two lifts of several blocks with k close to n, and the
# paper's 320 x 243 images.
LIFT_SHAPES = ((450, 4800, 25), (40, 12288, 30), (45, 20000, 44), (45, 77760, 25))


def lift_mismatches(shapes=LIFT_SHAPES):
    """The shapes at which the fit's eigenvectors differ from those of one
    product over all columns."""
    mismatches = []
    for n, d, k in shapes:
        imgs = random_images(n * 100_000 + d, n, d)
        got = fit_eigenmodel(imgs, k=k).eigenvectors
        if got.tobytes() != oracles.one_product_eigenvectors(imgs, k).tobytes():
            mismatches.append((n, d, k))
    return mismatches


@pytest.mark.parametrize("threads", ["1", "2"])
def test_lift_gives_the_one_product_bytes_per_blas_thread_count(threads):
    assert mismatches_at_blas_threads(threads, "lift_mismatches") == "[]"


def regrown_lift_mismatches():
    """What differs from one product's bytes, or from the layout a gallery
    file stores, in a fit at k = 30 of 40 images of 12,288 pixels, 8 copies
    each of 5.  Their rank is 4, and the lift of 4 kept rows runs in one
    12,288-column block, wider than the 2,048 that 30 rows would take, so
    the fit grows its buffer past its first size to lift."""
    rng = np.random.default_rng(51)
    distinct = [rng.integers(0, 256, size=128 * 96, dtype=np.uint8) for _ in range(5)]
    imgs = [image(distinct[i % 5].copy()) for i in range(40)]
    m = fit_eigenmodel(imgs, k=30)
    flags = m.eigenvectors.flags
    mismatches = [] if m.k == 4 else ["k"]
    if m.eigenvectors.tobytes() != oracles.one_product_eigenvectors(imgs, m.k).tobytes():
        mismatches.append("bytes")
    if not (flags.c_contiguous and flags.owndata):
        mismatches.append("layout")
    return mismatches


@pytest.mark.parametrize("threads", ["1", "2"])
def test_regrown_lift_gives_the_one_product_bytes_per_blas_thread_count(threads):
    n, d = 40, 128 * 96
    assert _lift_stops(n, d, 30)[0] == 2048 and _lift_stops(n, d, 4) == [d]
    assert mismatches_at_blas_threads(threads, "regrown_lift_mismatches") == "[]"


@pytest.mark.parametrize("d", [4095, 4996, 5096, 8191, 8192, 8193, 12345, 20000])
@pytest.mark.parametrize("n", [2, 3, 16, 45])
def test_blocked_lift_gives_the_one_product_bytes(n, d):
    # For 45 images the blocks are 2,048 columns wide but the last: the 900-
    # and 1,000-column remainders of 4,996 and 5,096 are blocks of their own
    # for 44 kept and join the last block for 22.  With
    # 16 images and 8 or 15 kept, 2,048 columns are at most 10**6
    # multiply-adds, so the blocks are 8,192 or 6,144 wide.
    imgs = random_images(n * 100_000 + d, n, d)
    for kept in sorted({1, n // 2, n - 1}):
        m = fit_eigenmodel(imgs, k=kept)
        assert m.k == kept
        assert m.eigenvectors.shape == (kept, d)
        assert m.eigenvectors.tobytes() == oracles.one_product_eigenvectors(imgs, kept).tobytes()
        # Every fit shrinks its one buffer in place to the eigenvectors, so
        # they own their data and are not a view of a larger array.
        assert m.eigenvectors.flags.c_contiguous and m.eigenvectors.flags.owndata


def test_train_gallery_of_a_three_block_lift_is_pinned(tmp_path):
    # 15 subjects x 3 variants at 128x96 give d = 12,288, which the lift
    # takes in three blocks; these are the bytes of the one-product lift.
    # The digest is of one BLAS thread's output, as the benchmark runs, and
    # the gallery names its images relative to the working directory.
    synthetic.make_dataset(
        tmp_path, subjects=15, variants=3, width=128, height=96, schemes=(68,), seed=0
    )
    src = os.path.dirname(os.path.dirname(dtpca.__file__))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "dtpca.cli", "train", "--manifest", "manifest_68.csv",
         "--k", "25", "--out", "gallery.bin"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256((tmp_path / "gallery.bin").read_bytes()).hexdigest() == (
        "6bf291cd2614ee2383aad69463006133fbc8b6e0adf22041607cf60a01e54dec"
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_image_fails_before_fit_or_project(bad):
    # A NaN pixel used to fail in the fit's eigensolver, and an inf one
    # projected to infinite coordinates without an error.  save_image is
    # covered by test_save_image_rejects_non_finite_values.
    values = np.array([0.5, bad, 0.25])
    with pytest.raises(ValueError, match="non-finite pixel value"):
        fit_eigenmodel([image([0.0, 0.0, 1.0]), image(values)], k=1)
    with pytest.raises(ValueError, match="non-finite pixel value"):
        project(fit_eigenmodel(random_images(46, 4, 3), k=2), image(values))


def uint8_images_and_float_twins(seed, n, d):
    rng = np.random.default_rng(seed)
    raws = [rng.integers(0, 256, size=d, dtype=np.uint8) for _ in range(n)]
    return [image(r) for r in raws], [image(r.astype(float) / 255.0) for r in raws]


def test_uint8_images_fit_and_project_like_their_float_twins_bit_for_bit():
    raw_imgs, float_imgs = uint8_images_and_float_twins(43, 9, 30)
    m_raw, m_float = fit_eigenmodel(raw_imgs, k=6), fit_eigenmodel(float_imgs, k=6)
    assert m_raw.k == m_float.k == 6
    for name in ("mean", "eigenvectors", "eigenvalues"):
        assert np.array_equal(getattr(m_raw, name), getattr(m_float, name)), name
    for raw, flt in zip(raw_imgs, float_imgs):
        assert np.array_equal(project(m_raw, raw), project(m_float, flt))


@pytest.mark.parametrize("raw", [True, False], ids=["uint8", "float"])
def test_fit_and_project_leave_images_unmodified(raw):
    raw_imgs, float_imgs = uint8_images_and_float_twins(44, 8, 12)
    imgs = raw_imgs if raw else float_imgs
    before = [img.values.copy() for img in imgs]
    m = fit_eigenmodel(imgs, k=5)
    for img in imgs:
        project(m, img)
    for img, values in zip(imgs, before):
        assert img.values.dtype == values.dtype
        assert np.array_equal(img.values, values)


def test_fit_centers_like_the_oracle_bit_for_bit():
    # Centering in place gives the bits of a separate `rows - mean`.
    imgs = random_images(42, 9, 30)
    m = fit_eigenmodel(imgs, k=8)
    assert np.array_equal(m.mean, oracles.mean_image(imgs))
    centered = oracles.center_images(imgs, m.mean)
    lam = np.linalg.eigh(centered @ centered.T)[0][::-1]
    assert np.array_equal(m.eigenvalues, lam[: m.k] / 8)


@pytest.mark.parametrize("as_matrix", [False, True])
def test_fit_leaves_inputs_unmodified(as_matrix):
    rng = np.random.default_rng(41)
    matrix = rng.uniform(size=(8, 12))
    # As a matrix, the images' values are row views of one buffer.
    rows = matrix.copy() if as_matrix else [row.copy() for row in matrix]
    images = [image(row) for row in rows]
    fit_eigenmodel(images, k=5)
    assert np.array_equal(np.vstack([img.values for img in images]), matrix)


# --- projection / reconstruction -----------------------------------------------

def test_project_mean_is_origin():
    m = toy_model()
    assert np.allclose(project(m, image(m.mean)), 0.0, atol=1e-12)


def test_project_dim_mismatch():
    with pytest.raises(ImageSizeError, match="image is 3x1, expected 2x1"):
        project(toy_model(), image(np.zeros(3)))


def test_project_rejects_transposed_image():
    # Same pixel count, other shape: a length check would let it through.
    m = fit_eigenmodel([image(v, 3, 2) for v in np.eye(6)[:4]], k=2)
    with pytest.raises(ImageSizeError, match="image is 2x3, expected 3x2"):
        project(m, image(np.zeros(6), 2, 3))


def test_reconstruct_zero_coords_gives_mean():
    m = toy_model()
    assert np.allclose(oracles.reconstruct(m, np.zeros(m.k)), m.mean)


def test_reconstruct_bad_length():
    with pytest.raises(ValueError):
        oracles.reconstruct(toy_model(), np.zeros(5))


def test_full_rank_round_trip():
    m = toy_model()
    for img in TOY_IMAGES:
        back = oracles.reconstruct(m, project(m, img))
        assert np.sqrt(np.mean((back - img.values) ** 2)) < 1e-6


def test_k1_error_at_least_k2_error():
    m1 = fit_eigenmodel(TOY_IMAGES, k=1)
    m2 = fit_eigenmodel(TOY_IMAGES, k=2)

    def mse(m):
        return np.mean(
            [(oracles.reconstruct(m, project(m, i)) - i.values) ** 2 for i in TOY_IMAGES]
        )

    assert mse(m1) >= mse(m2) - 1e-12


# --- distances -------------------------------------------------------------------

def test_eigen_distance_identity():
    a = np.array([1.0, 2.0])
    assert oracles.eigen_distance(a, a) == 0.0


def test_eigen_distance_345():
    assert oracles.eigen_distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_eigen_distance_length_mismatch():
    with pytest.raises(ValueError):
        oracles.eigen_distance(np.zeros(2), np.zeros(3))


@given(
    a=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
    data=st.data(),
)
def test_eigen_distance_symmetric(a, data):
    b = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(a), max_size=len(a)))
    x, y = np.array(a), np.array(b)
    assert oracles.eigen_distance(x, y) == oracles.eigen_distance(y, x)
    assert oracles.eigen_distance(x, y) >= 0


# --- snapshot-method equivalence and model invariants ----------------------------

def test_snapshot_matches_covariance_oracle():
    rng = np.random.default_rng(2718)
    for trial in range(5):
        imgs = [image(rng.uniform(size=16)) for _ in range(10)]
        model = fit_eigenmodel(imgs, k=25)
        mean_o, lam_o, vecs_o = oracles.covariance_eigenspace(imgs)
        assert model.k == len(lam_o)
        assert np.allclose(model.eigenvalues, lam_o, rtol=1e-8)
        coords_m = [project(model, i) for i in imgs]
        coords_o = [oracles.project_oracle(mean_o, vecs_o, i) for i in imgs]
        for i in range(len(imgs)):
            for j in range(i + 1, len(imgs)):
                dm = oracles.eigen_distance(coords_m[i], coords_m[j])
                do = np.linalg.norm(coords_o[i] - coords_o[j])
                assert dm == pytest.approx(do, rel=1e-6)


def test_covariance_oracle_reads_loaded_pgms_as_intensities(synth_dataset):
    # Loaded images hold uint8 pixels; the oracle must see value / 255, as
    # the fit does, not the raw 0..255.
    imgs = [load_image(e.image_path) for e in load_manifest(synth_dataset["manifest"]).entries]
    assert all(img.values.dtype == np.uint8 for img in imgs)
    model = fit_eigenmodel(imgs, k=25)
    assert np.array_equal(model.mean, oracles.mean_image(imgs))
    mean_o, lam_o, vecs_o = oracles.covariance_eigenspace(imgs)
    assert np.allclose(model.mean, mean_o, rtol=0, atol=1e-12)
    assert model.k == len(lam_o)
    assert np.allclose(model.eigenvalues, lam_o, rtol=1e-8)
    coords_m = [project(model, i) for i in imgs]
    coords_o = [oracles.project_oracle(mean_o, vecs_o, i) for i in imgs]
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            dm = oracles.eigen_distance(coords_m[i], coords_m[j])
            do = np.linalg.norm(coords_o[i] - coords_o[j])
            assert dm == pytest.approx(do, rel=1e-6)


def test_orthonormality_residuals():
    m = fit_eigenmodel(random_images(31415, 8, 25), k=25)
    gram = m.eigenvectors @ m.eigenvectors.T
    assert np.abs(gram - np.eye(m.k)).max() <= 1e-8


def test_monotone_reconstruction_error():
    imgs = random_images(999, 10, 16)
    full = fit_eigenmodel(imgs, k=25)
    errors = []
    for k in range(1, full.k + 1):
        m = fit_eigenmodel(imgs, k=k)
        errors.append(
            np.mean([(oracles.reconstruct(m, project(m, i)) - i.values) ** 2 for i in imgs])
        )
    for earlier, later in zip(errors, errors[1:]):
        assert later <= earlier + 1e-12


def test_sign_convention_equivalence():
    # Fitting on images reflected through the mean builds the model from
    # negated centered rows; pairwise eigenspace distances must not move.
    imgs = random_images(4, 6, 12)
    mean = np.vstack([img.values for img in imgs]).mean(axis=0)
    reflected = [image(2 * mean - img.values) for img in imgs]
    m1 = fit_eigenmodel(imgs, k=5)
    m2 = fit_eigenmodel(reflected, k=5)
    c1 = [project(m1, i) for i in imgs]
    c2 = [project(m2, i) for i in imgs]
    for i in range(len(imgs)):
        for j in range(i + 1, len(imgs)):
            assert abs(
                oracles.eigen_distance(c1[i], c1[j]) - oracles.eigen_distance(c2[i], c2[j])
            ) <= 1e-9


# --- persistence in a gallery -----------------------------------------------------

def save_model_gallery(path, model, images):
    """Save model in a gallery whose rows are the given images."""
    records = [
        TrainingRecord(img, fan_landmarks(0.3 + 0.1 * i), f"s{i}", "v", "")
        for i, img in enumerate(images)
    ]
    save_gallery(build_gallery(model, records), model, path)


def test_model_gallery_round_trip_exact(tmp_path):
    imgs = random_images(8, 5, 9)
    m = fit_eigenmodel(imgs, k=4)
    save_model_gallery(tmp_path / "gallery.json", m, imgs)
    _, back = load_gallery(tmp_path / "gallery.json")
    assert back.mean.tobytes() == m.mean.tobytes()
    assert back.eigenvectors.tobytes() == m.eigenvectors.tobytes()
    assert back.eigenvalues.tobytes() == m.eigenvalues.tobytes()
    assert (back.width, back.height, back.k, back.requested_k) == (
        m.width, m.height, m.k, m.requested_k)


def test_gallery_model_k_mismatch(tmp_path):
    path = tmp_path / "gallery.json"
    save_model_gallery(path, toy_model(), TOY_IMAGES)
    edit_gallery(path, lambda header, arrays: header.update(k=5, requested_k=5))
    with pytest.raises(GalleryFormatError, match="shape"):
        load_gallery(path)


def test_gallery_missing_model_record(tmp_path):
    path = tmp_path / "gallery.json"
    save_model_gallery(path, toy_model(), TOY_IMAGES)
    edit_gallery(path, lambda header, arrays: arrays.pop("mean"))
    with pytest.raises(GalleryFormatError):
        load_gallery(path)
