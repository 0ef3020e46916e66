"""Segmentation quality metrics.

Two notions of "precision" circulate for co-segmentation benchmarks: the
foreground ratio |seg & gt| / |seg| and the fraction of correctly
classified pixels over both classes. They disagree, so both are computed
and reported side by side (``precision`` and ``pixel_accuracy``), along
with the Jaccard index.

``METRICS`` names each metric once and fixes the order of every report,
mean and printed line. A new metric is its function, one ``METRICS``
entry and one ``ItemMetrics`` field, in the same place of that order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError
from .raster import as_mask


def _pair(seg, gt):
    s = as_mask(seg)
    g = as_mask(gt)
    if s.shape != g.shape:
        raise ShapeMismatchError(f"seg shape {s.shape} != gt shape {g.shape}")
    return s, g


def precision(seg, gt) -> float:
    """|seg & gt| / |seg|; 1.0 when both sets are empty, 0.0 when only seg is."""
    s, g = _pair(seg, gt)
    n_seg = int(s.sum())
    if n_seg == 0:
        return 1.0 if not g.any() else 0.0
    return int((s & g).sum()) / n_seg


def pixel_accuracy(seg, gt) -> float:
    """Fraction of pixels classified correctly, counting both classes."""
    s, g = _pair(seg, gt)
    return int((s == g).sum()) / s.size


def jaccard(seg, gt) -> float:
    """Foreground overlap |seg & gt| / |seg | gt|; 1.0 when both are empty."""
    s, g = _pair(seg, gt)
    union = int((s | g).sum())
    if union == 0:
        return 1.0
    return int((s & g).sum()) / union


METRICS = {"precision": precision, "pixel_accuracy": pixel_accuracy, "jaccard": jaccard}  # name -> fn(seg, gt)


@dataclass(frozen=True)
class ItemMetrics:
    item_id: str  # then one field per METRICS entry, in its order
    precision: float
    pixel_accuracy: float
    jaccard: float


@dataclass
class MetricsReport:
    """Per-item metric values plus their arithmetic means."""

    items: list[ItemMetrics] = field(default_factory=list)

    def add(self, item_id: str, seg, gt) -> ItemMetrics:
        item = ItemMetrics(item_id, **{name: fn(seg, gt) for name, fn in METRICS.items()})
        self.items.append(item)
        return item

    def mean(self) -> dict:
        """Each metric's mean over the items, summed in item order; 0.0 with no items."""
        n = len(self.items)
        return {name: sum(getattr(i, name) for i in self.items) / n if n else 0.0 for name in METRICS}

    def to_json_dict(self) -> dict:
        items = [{"id": i.item_id, **{name: getattr(i, name) for name in METRICS}} for i in self.items]
        return {"items": items, "mean": self.mean()}
