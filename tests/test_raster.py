import hashlib
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sndmseg
from sndmseg.errors import (
    IoFailureError,
    MalformedHeaderError,
    MissingFileError,
    NonFiniteError,
    OutOfRangeError,
    SndmError,
    TruncatedPayloadError,
)
from sndmseg.raster import (
    read_float_map,
    read_image,
    read_mask,
    write_float_map,
    write_image,
    write_mask,
)
from strategies import masks, with_examples


def test_read_mask_threshold_rule(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([255, 0, 0, 255]))
    assert read_mask(str(path)).tolist() == [[True, False], [False, True]]


def test_read_mask_128_is_foreground(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n1 1\n255\n" + bytes([128]))
    assert read_mask(str(path)).tolist() == [[True]]
    path.write_bytes(b"P5\n1 1\n255\n" + bytes([127]))
    assert read_mask(str(path)).tolist() == [[False]]


def test_read_mask_threshold_follows_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n2 1\n1\n" + bytes([1, 0]))
    assert read_mask(str(path)).tolist() == [[True, False]]
    path.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 127, 128, 255]))
    assert read_mask(str(path)).tolist() == [[False, False, True, True]]
    path.write_bytes(b"P5\n2 1\n15\n" + bytes([7, 8]))  # 2 * 8 > 15 >= 2 * 7
    assert read_mask(str(path)).tolist() == [[False, True]]


def test_read_mask_rejects_ascii_pgm(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P2\n1 1\n255\n255\n")
    with pytest.raises(MalformedHeaderError):
        read_mask(str(path))


def test_read_mask_header_comments(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n# another\n255\n" + bytes([200, 10]))
    assert read_mask(str(path)).tolist() == [[True, False]]


def test_read_mask_truncated(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(TruncatedPayloadError):
        read_mask(str(path))


def test_read_mask_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        read_mask(str(tmp_path / "nope.pgm"))


def test_read_mask_rejects_16bit(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n\x00\x01")
    with pytest.raises(MalformedHeaderError):
        read_mask(str(path))


def _seeded_masks(seed=3, count=20):
    rng = np.random.Generator(np.random.Philox(seed))
    return [rng.random((int(rng.integers(1, 40)), int(rng.integers(1, 40)))) < 0.5 for _ in range(count)]


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


@settings(max_examples=150, deadline=None)
@with_examples(_seeded_masks())
@given(masks())
def test_mask_round_trip(round_trip_dir, mask):
    path = round_trip_dir / "m.pgm"
    write_mask(mask, str(path))
    assert np.array_equal(read_mask(str(path)), mask)


def test_mask_write_idempotent(tmp_path):
    mask = np.eye(5, dtype=bool)
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    write_mask(mask, str(a))
    write_mask(mask, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_float_map_file_layout(tmp_path):
    path = tmp_path / "m.sndmf"
    write_float_map(np.array([[0.5]], dtype=np.float32), str(path))
    data = path.read_bytes()
    # magic (4) + width/height u32le (8) + one float32 (4)
    assert len(data) == 16
    assert data[:4] == b"SNDM"
    assert data[4:12] == (1).to_bytes(4, "little") * 2
    assert np.frombuffer(data[12:], dtype="<f4")[0] == np.float32(0.5)


def _seeded_float_map(seed=9):
    rng = np.random.Generator(np.random.Philox(seed))
    return (rng.random((13, 7), dtype=np.float32) * 2 - 1).astype(np.float32)


@settings(max_examples=150, deadline=None)
@example(_seeded_float_map())
@given(
    hnp.arrays(
        np.float32,
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        elements=st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
)
def test_float_map_round_trip_bit_identical(round_trip_dir, values):
    path = round_trip_dir / "m.sndmf"
    write_float_map(values, str(path))
    back = read_float_map(str(path))
    assert back.dtype == np.float32
    assert np.array_equal(back.view(np.uint32), values.view(np.uint32))


def test_float_map_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "m.sndmf"
    path.write_bytes(b"XXXX" + bytes(12))
    with pytest.raises(MalformedHeaderError):
        read_float_map(str(path))
    path.write_bytes(b"SNDM" + (4).to_bytes(4, "little") + (4).to_bytes(4, "little") + bytes(8))
    with pytest.raises(TruncatedPayloadError):
        read_float_map(str(path))
    for width, height in ((0, 2), (2, 0), (0, 0)):
        path.write_bytes(b"SNDM" + width.to_bytes(4, "little") + height.to_bytes(4, "little"))
        with pytest.raises(MalformedHeaderError, match="bad dimensions"):
            read_float_map(str(path))


def _float_map_bytes(width, height, payload: bytes) -> bytes:
    return b"SNDM" + width.to_bytes(4, "little") + height.to_bytes(4, "little") + payload


def test_float_map_length_must_be_exact(tmp_path):
    path = tmp_path / "m.sndmf"
    good = np.arange(6, dtype="<f4").tobytes()  # 3x2 payload, 24 bytes
    for payload, got in ((good[:-1], 35), (good + b"\x00", 37), (good + good, 60)):
        path.write_bytes(_float_map_bytes(3, 2, payload))
        with pytest.raises(TruncatedPayloadError) as info:
            read_float_map(str(path))
        assert "expected 36 bytes" in str(info.value) and f"got {got}" in str(info.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float_map_reader_refuses_what_the_writer_refuses(tmp_path, bad):
    values = np.array([[0.5, bad], [-0.25, 1.0]], dtype=np.float32)
    with pytest.raises(NonFiniteError):
        write_float_map(values, str(tmp_path / "w.sndmf"))
    path = tmp_path / "r.sndmf"
    path.write_bytes(_float_map_bytes(2, 2, values.astype("<f4").tobytes()))
    with pytest.raises(NonFiniteError, match=str(path)):
        read_float_map(str(path))


@pytest.mark.parametrize("bad", [1e39, -1e39, np.longdouble(1e39)])
def test_float_map_writer_refuses_values_beyond_float32(tmp_path, bad):
    """A finite value that float32 cannot hold would be written as an infinity the reader refuses."""
    values = np.full((2, 2), bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning from a cast
        with pytest.raises(OutOfRangeError, match="float32 range"):
            write_float_map(values, str(tmp_path / "m.sndmf"))
    assert list(tmp_path.iterdir()) == []
    limit = np.finfo(np.float32).max
    write_float_map(np.array([[limit, -limit]]), str(tmp_path / "m.sndmf"))
    assert np.array_equal(read_float_map(str(tmp_path / "m.sndmf")), np.array([[limit, -limit]], dtype=np.float32))


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
def test_written_files_follow_the_umask(tmp_path, umask):
    previous = os.umask(umask)
    try:
        write_mask(np.eye(3, dtype=bool), str(tmp_path / "m.pgm"))
        write_float_map(np.zeros((2, 2), dtype=np.float32), str(tmp_path / "m.sndmf"))
        with open(tmp_path / "plain", "wb"):
            pass
    finally:
        os.umask(previous)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in tmp_path.iterdir()}
    assert modes == dict.fromkeys(("m.pgm", "m.sndmf", "plain"), 0o666 & ~umask)


def test_write_to_missing_directory_fails(tmp_path):
    with pytest.raises(IoFailureError):
        write_float_map(np.zeros((2, 2), dtype=np.float32), str(tmp_path / "no" / "dir" / "m.sndmf"))


def test_pnm_writer_bytes_are_pinned(tmp_path):
    mask = np.arange(5 * 7).reshape(5, 7) % 3 == 0
    image = (np.arange(4 * 5 * 3).reshape(4, 5, 3) / 59.0).astype(np.float32)
    write_mask(mask, str(tmp_path / "m.pgm"))
    write_image(image, str(tmp_path / "i.ppm"))
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in ("m.pgm", "i.ppm")}
    assert digest == {
        "m.pgm": "8794a78323e65276faa736739547ddc1e10a4a9d9e6a52c87f16967151993178",
        "i.ppm": "2f663a1efa49438ed0358343207506232a6201b7418e76f77c29000bb3f3cf09",
    }


@pytest.mark.parametrize("digits", [10, 5000])  # int() refuses more than 4300 digits
@pytest.mark.parametrize("magic, reader", [(b"P5", read_mask), (b"P6", read_image)])
def test_overlong_pnm_dimension_is_malformed_header(tmp_path, magic, reader, digits):
    path = tmp_path / "big.pnm"
    path.write_bytes(magic + b"\n" + b"1" * digits + b" 1\n255\n\0")
    with pytest.raises(MalformedHeaderError, match="bad header token"):
        reader(str(path))


@pytest.mark.parametrize("header", [b"0 1\n255\n", b"1 0\n255\n", b"1 1\n255"])  # the last lacks the delimiter after maxval
@pytest.mark.parametrize("magic, reader", [(b"P5", read_mask), (b"P6", read_image)])
def test_pnm_without_a_size_or_payload_delimiter_is_malformed_header(tmp_path, magic, reader, header):
    path = tmp_path / "bad.pnm"
    path.write_bytes(magic + b"\n" + header)
    with pytest.raises(MalformedHeaderError, match="bad dimensions|missing delimiter"):
        reader(str(path))


def test_image_round_trip_quantized(tmp_path):
    rng = np.random.Generator(np.random.Philox(4))
    img = rng.random((9, 11, 3)).astype(np.float32)
    path = tmp_path / "i.ppm"
    write_image(img, str(path))
    back = read_image(str(path))
    assert back.shape == img.shape
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-6
    # a second write of the read-back image reproduces the file exactly
    path2 = tmp_path / "j.ppm"
    write_image(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


# 1e39 is finite but above the float32 maximum: the range check comes before the cast
@pytest.mark.parametrize("bad, error", [(np.nan, NonFiniteError), (np.inf, NonFiniteError), (2.0, OutOfRangeError), (-0.5, OutOfRangeError), (1e39, OutOfRangeError)])
def test_write_image_rejects_bad_values_with_domain_errors(tmp_path, bad, error):
    path = tmp_path / "i.ppm"
    fits_float32 = not np.isfinite(bad) or abs(bad) <= float(np.finfo(np.float32).max)
    for dtype in (np.float32, np.float64) if fits_float32 else (np.float64,):
        image = np.full((3, 4, 3), 0.5, dtype=dtype)
        image[1, 2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning from a cast
            with pytest.raises(error):
                sndmseg.write_image(image, str(path))
        assert list(tmp_path.iterdir()) == [], dtype


PNM_AND_FLOAT_MAP_PREFIXES = (b"P5\n", b"P6\n", b"P5 3 2 255\n", b"P6 2 2 255\n", b"SNDM", b"SNDM\x02\x00\x00\x00\x01\x00\x00\x00")


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.bin"


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        st.binary(max_size=256),
        st.builds(lambda head, tail: (head + tail)[:256], st.sampled_from(PNM_AND_FLOAT_MAP_PREFIXES), st.binary(max_size=256)),
    )
)
def test_readers_parse_or_raise_domain_errors(fuzz_file, data):
    fuzz_file.write_bytes(data)
    for reader in (read_mask, read_image, read_float_map):
        try:
            reader(str(fuzz_file))
        except SndmError:
            pass
