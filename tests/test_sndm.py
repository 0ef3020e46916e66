import itertools

import numpy as np
import pytest
from hypothesis import given, settings

from sndmseg.distance import boundary_mask
from sndmseg.errors import DegenerateMaskError, ShapeMismatchError
from sndmseg.sndm import sndm_decode, sndm_encode
from strategies import two_class_masks, with_examples

ROW_MASK = np.array([[False, False, True, True, True, False, False]])
ROW_CODES = [-0.1, -1.0, 1.0, 0.1, 1.0, -1.0, -0.1]


def random_two_class(rng, h, w):
    while True:
        mask = rng.random((h, w)) < rng.uniform(0.15, 0.85)
        if mask.any() and not mask.all():
            return mask


def test_row_fixture():
    encoded = sndm_encode(ROW_MASK)
    assert np.allclose(encoded[0], ROW_CODES, atol=1e-7)
    assert encoded[0, 2] == 1.0 and encoded[0, 4] == 1.0
    assert encoded[0, 1] == -1.0 and encoded[0, 5] == -1.0


def test_degenerate_region_encodes_to_one():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    encoded = sndm_encode(mask)
    assert encoded[1, 1] == 1.0  # single-pixel region has constant distance


def test_single_class_masks_rejected():
    with pytest.raises(DegenerateMaskError):
        sndm_encode(np.ones((4, 4), dtype=bool))
    with pytest.raises(DegenerateMaskError):
        sndm_encode(np.zeros((4, 4), dtype=bool))


def _seeded_masks(seed, count, sides):
    rng = np.random.Generator(np.random.Philox(seed))
    return [random_two_class(rng, *sides(rng)) for _ in range(count)]


@settings(max_examples=150, deadline=None)
@with_examples(_seeded_masks(41, 50, lambda rng: (int(rng.integers(2, 33)), int(rng.integers(2, 33)))))
@given(two_class_masks())
def test_range_invariant_and_boundary_attainment(mask):
    encoded = sndm_encode(mask).astype(np.float64)
    mag = np.abs(encoded)
    assert mag.min() >= 0.1 - 1e-7
    assert mag.max() <= 1.0
    assert (encoded[mask] > 0).all() and (encoded[~mask] < 0).all()
    assert (encoded[boundary_mask(mask)] == 1.0).all()
    assert (encoded[~mask] == -1.0).any()


@settings(max_examples=150, deadline=None)
@with_examples(_seeded_masks(43, 100, lambda rng: (32, 32)))
@given(two_class_masks())
def test_round_trip_random_masks(mask):
    assert np.array_equal(sndm_decode(sndm_encode(mask)), mask)


def test_round_trip_exhaustive_3x3():
    count = 0
    for bits in itertools.product([False, True], repeat=9):
        mask = np.array(bits).reshape(3, 3)
        if not mask.any() or mask.all():
            continue
        assert np.array_equal(sndm_decode(sndm_encode(mask)), mask)
        count += 1
    assert count == 2**9 - 2


def test_mirror_equivariance():
    rng = np.random.Generator(np.random.Philox(47))
    for _ in range(15):
        mask = random_two_class(rng, 21, 13)
        encoded = sndm_encode(mask)
        assert np.array_equal(sndm_encode(mask[::-1]), encoded[::-1])
        assert np.array_equal(sndm_encode(mask[:, ::-1]), encoded[:, ::-1])


def test_decode_constant_negative_map():
    assert not sndm_decode(np.full((4, 4), -0.5, dtype=np.float32)).any()


def test_decode_sign_rule():
    assert sndm_decode(np.array([[0.1, -0.1]])).tolist() == [[True, False]]
    assert sndm_decode(np.array([[0.0]])).tolist() == [[False]]


def test_decode_rejects_bad_shape():
    for values in (np.zeros(4), np.zeros((2, 2, 1)), 0.5):
        with pytest.raises(ShapeMismatchError):
            sndm_decode(values)
