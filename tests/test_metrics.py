import dataclasses

import numpy as np
import pytest

from sndmseg.errors import ShapeMismatchError
from sndmseg.metrics import METRICS, ItemMetrics, MetricsReport, jaccard, pixel_accuracy, precision


def masks_from_lists(seg, gt):
    return np.array(seg, dtype=bool), np.array(gt, dtype=bool)


def test_precision_fixtures():
    seg = np.zeros((3, 3), dtype=bool)
    seg[0, :3] = True
    seg[1, 0] = True  # 4 pixels
    gt = np.zeros((3, 3), dtype=bool)
    gt[0, :3] = True  # overlap 3 of 3
    assert precision(seg, gt) == 0.75
    assert precision(gt, gt) == 1.0
    other = np.zeros((3, 3), dtype=bool)
    other[2, 2] = True
    assert precision(seg, other) == 0.0


def test_precision_empty_conventions():
    empty = np.zeros((2, 2), dtype=bool)
    some = ~empty
    assert precision(empty, empty) == 1.0
    assert precision(empty, some) == 0.0


def test_pixel_accuracy_fixtures():
    seg, gt = masks_from_lists([[True, False], [False, False]], [[True, True], [False, False]])
    assert pixel_accuracy(seg, gt) == 0.75
    assert pixel_accuracy(gt, gt) == 1.0
    assert pixel_accuracy(~gt, gt) == 0.0


def test_jaccard_fixtures():
    seg = np.zeros((3, 3), dtype=bool)
    seg[0] = True
    seg[1, 0] = True
    gt = np.zeros((3, 3), dtype=bool)
    gt[0] = True
    assert jaccard(seg, gt) == 0.75
    assert jaccard(gt, gt) == 1.0
    disjoint = np.zeros((3, 3), dtype=bool)
    disjoint[2] = True
    assert jaccard(seg, disjoint) == 0.0
    empty = np.zeros((3, 3), dtype=bool)
    assert jaccard(empty, empty) == 1.0


def test_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        precision(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


def test_random_invariants():
    rng = np.random.Generator(np.random.Philox(73))
    for _ in range(300):
        a = rng.random((8, 8)) < rng.uniform(0.1, 0.9)
        b = rng.random((8, 8)) < rng.uniform(0.1, 0.9)
        assert jaccard(a, b) == jaccard(b, a)
        assert jaccard(a, b) <= min(precision(a, b), precision(b, a)) + 1e-12
        assert pixel_accuracy(a, b) == pixel_accuracy(~a, ~b)
        if a.any() and not a.all():
            full = precision(a, a) == pixel_accuracy(a, a) == jaccard(a, a) == 1.0
            assert full
        if not np.array_equal(a, b):
            assert min(precision(a, b), pixel_accuracy(a, b), jaccard(a, b)) < 1.0


def test_report_means_and_json():
    report = MetricsReport()
    gt = np.zeros((2, 2), dtype=bool)
    gt[0, 0] = True
    report.add("x", gt, gt)
    report.add("y", ~gt, gt)
    mean = report.mean()
    assert mean["jaccard"] == (1.0 + 0.0) / 2
    payload = report.to_json_dict()
    assert [item["id"] for item in payload["items"]] == ["x", "y"]
    assert set(payload["mean"]) == {"precision", "pixel_accuracy", "jaccard"}
    assert 0.0 <= payload["mean"]["pixel_accuracy"] <= 1.0


def test_metrics_table_item_fields_and_report_keys_share_one_order():
    assert list(METRICS) == ["precision", "pixel_accuracy", "jaccard"]
    assert [f.name for f in dataclasses.fields(ItemMetrics)] == ["item_id", *METRICS]
    seg = np.eye(3, dtype=bool)
    gt = np.zeros((3, 3), dtype=bool)
    gt[0] = True
    report = MetricsReport()
    item = report.add("x", seg, gt)
    assert [getattr(item, name) for name in METRICS] == [fn(seg, gt) for fn in METRICS.values()]
    payload = report.to_json_dict()
    assert list(payload["items"][0]) == ["id", *METRICS]
    assert list(payload["mean"]) == list(METRICS)
