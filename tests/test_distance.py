import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sndmseg import distance
from sndmseg.distance import boundary_mask, boundary_set, edt, edt_squared, edt_squared_brute
from sndmseg.errors import EmptyForegroundError


def coords(mask):
    return {tuple(c) for c in boundary_set(mask)}


def test_boundary_single_center_pixel():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    assert coords(mask) == {(1, 1)}


def test_boundary_all_foreground_is_border():
    mask = np.ones((3, 3), dtype=bool)
    expected = {(r, c) for r in range(3) for c in range(3)} - {(1, 1)}
    assert coords(mask) == expected


def test_boundary_row_mask_ignores_degenerate_axis():
    mask = np.array([[False, False, True, True, True, False, False]])
    assert coords(mask) == {(0, 2), (0, 4)}


def test_boundary_single_pixel_image():
    assert coords(np.ones((1, 1), dtype=bool)) == {(0, 0)}


def test_boundary_empty_foreground():
    with pytest.raises(EmptyForegroundError):
        boundary_set(np.zeros((4, 4), dtype=bool))


def test_edt_center_pixel_fixture():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    expected = np.array([[2, 1, 2], [1, 0, 1], [2, 1, 2]])
    assert np.array_equal(edt_squared(mask), expected)
    assert np.allclose(edt(mask), np.sqrt(expected))


def test_edt_row_fixture():
    mask = np.array([[False, False, True, True, True, False, False]])
    assert edt(mask).tolist() == [[2.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2.0]]


def test_edt_all_background_raises():
    with pytest.raises(EmptyForegroundError):
        edt(np.zeros((5, 5), dtype=bool))


def test_edt_exhaustive_3x3():
    for bits in itertools.product([False, True], repeat=9):
        mask = np.array(bits).reshape(3, 3)
        if not mask.any():
            continue
        assert np.array_equal(edt_squared(mask), edt_squared_brute(mask))


def test_edt_matches_brute_force_random():
    rng = np.random.Generator(np.random.Philox(17))
    for _ in range(60):
        h = int(rng.integers(1, 65))
        w = int(rng.integers(1, 65))
        mask = rng.random((h, w)) < rng.uniform(0.05, 0.95)
        if not mask.any():
            mask[h // 2, w // 2] = True
        assert np.array_equal(edt_squared(mask), edt_squared_brute(mask))


def test_edt_zero_exactly_on_boundary():
    rng = np.random.Generator(np.random.Philox(23))
    for _ in range(20):
        mask = rng.random((24, 24)) < 0.4
        if not mask.any():
            continue
        d2 = edt_squared(mask)
        b = boundary_mask(mask)
        assert (d2[b] == 0).all()
        assert (d2[~b] > 0).all()


def test_edt_mirror_invariance():
    rng = np.random.Generator(np.random.Philox(29))
    for _ in range(20):
        mask = rng.random((17, 31)) < 0.35
        if not mask.any():
            continue
        d = edt_squared(mask)
        assert np.array_equal(edt_squared(mask[::-1]), d[::-1])
        assert np.array_equal(edt_squared(mask[:, ::-1]), d[:, ::-1])


def test_edt_is_one_lipschitz():
    rng = np.random.Generator(np.random.Philox(31))
    mask = rng.random((32, 32)) < 0.3
    mask[16, 16] = True
    d = edt(mask)
    assert np.abs(np.diff(d, axis=0)).max() <= 1.0 + 1e-12
    assert np.abs(np.diff(d, axis=1)).max() <= 1.0 + 1e-12


def test_brute_force_memory_stays_within_budget(monkeypatch):
    budget = 1 << 20
    monkeypatch.setattr(distance, "BRUTE_CHUNK_BYTES", budget)
    yy, xx = np.mgrid[:256, :256]
    mask = (yy - 127.5) ** 2 + (xx - 120.0) ** 2 < 100.0**2
    expected = edt_squared(mask)
    tracemalloc.start()
    try:
        got = edt_squared_brute(mask)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, expected)
    # the work blocks, the int64 output, and about 150 KB of small arrays and
    # numpy reduction buffers that do not grow with the budget; the former
    # 256-row chunks took about 300 MB here
    assert peak <= budget + got.nbytes + (512 << 10), peak


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.bool_, st.tuples(st.integers(1, 64), st.integers(1, 64))).filter(lambda m: m.any()))
def test_edt_matches_brute_force_and_owns_its_memory(mask):
    d2 = edt_squared(mask)
    d = edt(mask)
    assert np.array_equal(d2, edt_squared_brute(mask))
    assert d.tobytes() == np.sqrt(d2.astype(np.float64)).tobytes()
    # neither result is a view that keeps a larger work buffer alive
    for out in (d2, d):
        assert out.shape == mask.shape and out.base is None and out.flags.owndata
