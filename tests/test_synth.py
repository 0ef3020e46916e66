import hashlib
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from sndmseg import synth
from sndmseg.errors import InvalidConfigError, IoFailureError, MalformedHeaderError, MissingFileError, ShapeMismatchError, SndmError
from sndmseg.network import NetConfig, init_params
from sndmseg.synth import GenConfig, _coverage, gen_dataset, gen_pair, load_dataset, make_pairs
from strategies import mixed_size_dataset

FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def point_in_polygon(px, py, poly):
    """Per-point even-odd oracle: a (points, edges) crossing matrix."""
    x1, y1 = poly[:, 0], poly[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    crosses = (y1[None, :] > py[:, None]) != (y2[None, :] > py[:, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x_at = x1[None, :] + (py[:, None] - y1[None, :]) * (x2 - x1)[None, :] / (y2 - y1)[None, :]
    hits = crosses & (px[:, None] < x_at)
    return hits.sum(axis=1) % 2 == 1


def oracle_coverage(poly, size):
    """Mask at pixel centers plus four separate subsample passes, accumulated in float."""
    centers = np.arange(size) + 0.5
    cx, cy = np.meshgrid(centers, centers)
    mask = point_in_polygon(cx.ravel(), cy.ravel(), poly).reshape(size, size)
    cover = np.zeros((size, size), dtype=np.float64)
    for ox in (0.25, 0.75):
        for oy in (0.25, 0.75):
            gx, gy = np.meshgrid(np.arange(size) + ox, np.arange(size) + oy)
            cover += point_in_polygon(gx.ravel(), gy.ravel(), poly).reshape(size, size)
    return mask, cover / 4.0


@st.composite
def polygons(draw):
    """(size, polygon) with vertices off and on sample rows, some horizontal edges, some outside the image."""
    size = draw(st.integers(16, 130))
    lo, hi = -0.25 * size, 1.25 * size
    on_sample = st.builds(
        lambda k, frac: k + frac,
        st.integers(int(lo), int(hi)),
        st.sampled_from((0.0, 0.25, 0.5, 0.75)),
    )
    coord = st.one_of(st.floats(lo, hi, allow_nan=False), on_sample)
    n = draw(st.integers(3, 12))
    pts = np.array([[draw(coord), draw(coord)] for _ in range(n)])
    flat = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for i in range(1, n):
        if flat[i]:  # horizontal edge from vertex i-1 to vertex i
            pts[i, 1] = pts[i - 1, 1]
    return size, pts


def test_determinism_bit_identical():
    a = gen_pair(1234, GenConfig())
    b = gen_pair(1234, GenConfig())
    assert np.array_equal(a.img_a, b.img_a)
    assert np.array_equal(a.img_b, b.img_b)
    assert np.array_equal(a.mask_a, b.mask_a)
    assert np.array_equal(a.mask_b, b.mask_b)
    c = gen_pair(1235, GenConfig())
    assert not np.array_equal(a.mask_a, c.mask_a)


def test_mask_validity_sweep():
    cfg = GenConfig()
    for seed in range(400):
        sample = gen_pair(seed, cfg)
        for mask in (sample.mask_a, sample.mask_b):
            frac = mask.mean()
            assert 0.02 <= frac <= 0.6, seed
            _, n = ndimage.label(mask, structure=FOUR)
            assert n == 1, seed
        for img in (sample.img_a, sample.img_b):
            assert img.dtype == np.float32
            assert img.min() >= 0.0 and img.max() <= 1.0


def assert_matches_oracle(poly, size):
    for got, want in zip(_coverage(poly, size), oracle_coverage(poly, size)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(polygons())
def test_scanline_rasterizer_matches_per_point_oracle(case):
    size, poly = case
    assert_matches_oracle(poly, size)


def test_rasterizer_edge_cases_match_oracle():
    cases = [
        # axis-aligned square with every vertex on a sample row or column
        np.array([[4.25, 4.25], [20.75, 4.25], [20.75, 20.75], [4.25, 20.75]]),
        # vertices on pixel-center rows, horizontal top and bottom edges
        np.array([[2.5, 3.5], [30.0, 3.5], [18.0, 11.5], [30.0, 25.5], [2.5, 25.5]]),
        # reaching past every border
        np.array([[-10.0, -7.3], [45.2, -3.0], [40.0, 50.0], [-5.0, 38.75]]),
        # self-intersecting bow tie
        np.array([[3.0, 3.0], [28.0, 28.0], [28.0, 3.0], [3.0, 28.0]]),
    ]
    for size in (16, 17, 33):
        for poly in cases:
            assert_matches_oracle(poly, size)


def test_ellipse_fallback_when_no_pose_fits(monkeypatch):
    monkeypatch.setattr(synth, "_mask_ok", lambda mask: False)  # every drawn pose is rejected
    cfg = GenConfig(image_size=64)
    size = cfg.image_size
    centers = np.arange(size) + 0.5
    gx, gy = np.meshgrid(centers, centers)
    ellipse = ((gx - size / 2) / (0.30 * size)) ** 2 + ((gy - size / 2) / (0.20 * size)) ** 2 <= 1.0
    first = gen_pair(5, cfg)
    for sample in (first, gen_pair(5, cfg), gen_pair(6, cfg)):
        for mask in (sample.mask_a, sample.mask_b):
            assert mask.tobytes() == first.mask_a.tobytes()
            assert np.array_equal(mask, ellipse)
            assert 0.02 <= mask.mean() <= 0.6


def test_pose_varies_between_branches():
    differing = 0
    for seed in range(20):
        sample = gen_pair(seed, GenConfig())
        if not np.array_equal(sample.mask_a, sample.mask_b):
            differing += 1
    assert differing >= 18  # independent poses almost never coincide


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        GenConfig(image_size=8)
    GenConfig(image_size=16)
    # the largest object margin stays below half of the smallest image, so every pose fits
    assert 1.05 * synth.OBJECT_SCALE[1] * 0.24 * 16 + 1.0 < 16 / 2


def test_negative_seed_is_invalid_config():
    with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
        gen_pair(-1)
    with pytest.raises(InvalidConfigError):
        make_pairs(-2, GenConfig(), 3)
    # every seeded draw goes through seeded_rng, which takes an integer and no bool
    for seed in (1.5, 2.0, True, np.float64(3.0), "4"):
        with pytest.raises(InvalidConfigError, match="seed must be an integer"):
            gen_pair(seed)
        with pytest.raises(InvalidConfigError, match="seed must be an integer"):
            init_params(NetConfig(input_size=16, widths=(4, 6), levels=2), seed=seed)
    with pytest.raises(InvalidConfigError, match="seed must be an integer"):
        make_pairs(1.5, GenConfig(), 3)
    assert np.array_equal(gen_pair(np.int64(3)).img_a, gen_pair(3).img_a)


def test_gen_dataset_files_and_idempotence(tmp_path):
    out = tmp_path / "data"
    rows = gen_dataset(7, GenConfig(image_size=32), 5, str(out))
    assert len(rows) == 5
    files = sorted(p.name for p in out.iterdir())
    assert len(files) == 5 * 4 + 1
    manifest = (out / "manifest.tsv").read_text()
    assert len(manifest.splitlines()) == 5
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    gen_dataset(7, GenConfig(image_size=32), 5, str(out))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == snapshot


def test_gen_dataset_bytes_are_pinned(tmp_path):
    gen_dataset(7, GenConfig(), 4, str(tmp_path))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(tmp_path)):
        digest.update(name.encode())
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == "55c274372359e58b66b6d160c0cfc665534ba876b0486cd86b3503efe4fda955"


def test_load_dataset_rejects_a_pair_of_another_size(tmp_path):
    data = mixed_size_dataset(tmp_path)
    with pytest.raises(ShapeMismatchError, match=r"manifest.tsv:2: image and mask sizes \[\(32, 32\)"):
        load_dataset(str(data))


def test_load_dataset_rejects_a_mask_of_another_size_than_its_image(tmp_path):
    out = tmp_path / "data"
    (row,) = gen_dataset(3, GenConfig(image_size=16), 1, str(out))
    (big_row,) = gen_dataset(3, GenConfig(image_size=32), 1, str(tmp_path / "big"))
    (out / row[4]).write_bytes((tmp_path / "big" / big_row[4]).read_bytes())  # mask B
    with pytest.raises(ShapeMismatchError, match=r"manifest.tsv:1: image and mask sizes .*\(32, 32\)"):
        load_dataset(str(out))


def test_load_dataset_round_trip(tmp_path):
    out = tmp_path / "data"
    gen_dataset(11, GenConfig(image_size=32), 3, str(out))
    records = load_dataset(str(out))
    in_memory = make_pairs(11, GenConfig(image_size=32), 3)
    assert [r.pair_id for r in records] == [r.pair_id for r in in_memory]
    for rec, mem in zip(records, in_memory):
        assert np.array_equal(rec.mask_a, mem.mask_a)
        assert np.array_equal(rec.mask_b, mem.mask_b)
        assert np.abs(rec.img_a - mem.img_a).max() <= 0.5 / 255 + 1e-6


def test_load_dataset_missing_manifest(tmp_path):
    with pytest.raises(MissingFileError):
        load_dataset(str(tmp_path))


def test_load_dataset_unreadable_manifest_is_io_failure(tmp_path):
    # a manifest that exists but cannot be read is an I/O fault, not a missing file; a
    # directory in its place cannot be read even by root, unlike a file at mode 000
    (tmp_path / "manifest.tsv").mkdir()
    with pytest.raises(IoFailureError, match="manifest.tsv"):
        load_dataset(str(tmp_path))


def test_load_dataset_rejects_paths_out_of_the_directory(tmp_path):
    out = tmp_path / "data"
    (row,) = gen_dataset(3, GenConfig(image_size=16), 1, str(out))
    (out / "sub").mkdir()
    for target in (tmp_path / row[1], out / "sub" / row[1]):  # real images where the bad fields point
        target.write_bytes((out / row[1]).read_bytes())
    for field in (str(tmp_path / row[1]), f"../{row[1]}", f"sub/{row[1]}"):
        (out / "manifest.tsv").write_text("\t".join((row[0], field, *row[2:])) + "\n")
        with pytest.raises(MalformedHeaderError, match=f"manifest.tsv:1: file field '{re.escape(field)}'"):
            load_dataset(str(out))


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """A one-pair dataset whose manifest each fuzz example overwrites, plus its file names."""
    out = tmp_path_factory.mktemp("fuzz")
    (row,) = gen_dataset(3, GenConfig(image_size=16), 1, str(out))
    return out, row


@settings(max_examples=400, deadline=None)
@given(
    raw=st.binary(max_size=256),
    lines=st.lists(
        st.lists(
            st.one_of(st.sampled_from(range(5)), st.sampled_from(("", "..", "/", "a\x00")), st.text(max_size=6)),
            min_size=4,
            max_size=6,
        ),
        max_size=5,
    ),
    use_raw=st.booleans(),
)
def test_load_dataset_manifest_parses_or_raises_domain_error(fuzz_dataset, raw, lines, use_raw):
    out, row = fuzz_dataset
    if use_raw:
        data = raw
    else:  # tab-separated lines of real file names (by index) and free text
        text = "\n".join("\t".join(row[f] if isinstance(f, int) else f for f in fields) for fields in lines)
        data = text.encode("utf-8")[:256]
    (out / "manifest.tsv").write_bytes(data)
    try:
        load_dataset(str(out))
    except SndmError:
        pass
