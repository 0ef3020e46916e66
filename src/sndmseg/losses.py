"""Loss family for signed-map regression, each with its analytic gradient.

Every loss scores the network's tanh output, a signed map in (-1, 1),
against an SNDM label (``sndm.sndm_encode``). Four losses, from baseline
to full:

* ``loss_dice`` — soft Dice on the map rescaled to a probability,
  (pred + 1) / 2, against the label's foreground (gt > 0).
* ``loss_iou3d`` — treats a signed map as a 3D shape (height = |value|)
  and measures one minus intersection-over-union via per-pixel min/max
  sums; background values enter negated so both classes contribute
  positive heights.
* ``loss_iou3d_penalized`` — multiplies each pixel's min and max terms by
  a penalty factor: 1 where predicted and labeled values agree in sign,
  ``lam`` where they do not.
* ``loss_iou3d_edge`` — additionally weights every pixel by the square
  root of its labeled magnitude, which peaks at the object contour.

The three 3D IOU losses differ only in their per-pixel weights
(``penalty_factor``, ``edge_weights``) and share ``loss_iou3d_weighted``.

The foreground/background split always comes from the sign of the label
map, so the losses are well-defined for arbitrary predictions. Penalty
factors and edge weights are gates: constants of the prediction (and of
the label), carrying no gradient. At min/max ties the derivative follows
the first argument; terms are written prediction-first for foreground and
label-first for background.

All computation is float64 regardless of input dtype, so the analytic
gradients can be checked against central finite differences at tight
tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, ShapeMismatchError, require_field_types
from .seeding import seeded_rng
from .sndm import sndm_encode


@dataclass(frozen=True)
class LossConfig:
    """lam: sign-mismatch penalty multiplier; epsilon: denominator guard."""

    lam: float = 5.0
    epsilon: float = 1e-8

    def __post_init__(self):
        require_field_types(self)
        if not 1.0 <= self.lam < np.inf:
            raise InvalidConfigError(f"lam must be finite and >= 1, got {self.lam}")
        if not 0.0 < self.epsilon <= 1e-4:
            raise InvalidConfigError(f"epsilon must be in (0, 1e-4], got {self.epsilon}")


@dataclass
class LossReport:
    value: float
    grad: np.ndarray  # dL/dprediction, same shape as the prediction


def _check_shapes(pred, gt):
    p = np.asarray(pred, dtype=np.float64)
    g = np.asarray(gt, dtype=np.float64)
    if p.shape != g.shape:
        raise ShapeMismatchError(f"pred shape {p.shape} != gt shape {g.shape}")
    return p, g


def penalty_factor(pred, gt, cfg: LossConfig = LossConfig()):
    """Per pixel: 1 where prediction and label agree in sign, cfg.lam elsewhere."""
    return np.where(pred * gt > 0.0, 1.0, cfg.lam)


def edge_weights(pred, gt, cfg: LossConfig = LossConfig()):
    """Penalty factors times sqrt(|label|), which peaks at the object contour."""
    return penalty_factor(pred, gt, cfg) * np.sqrt(np.abs(gt))


def _unit_weights(pred, gt, cfg):
    return np.ones_like(gt)


def loss_dice(pred, gt, cfg: LossConfig = LossConfig()) -> LossReport:
    """Soft Dice loss 1 - 2*sum(p*g) / (sum(p) + sum(g) + eps) with gradient.

    p = (pred + 1) / 2 maps the signed prediction to a probability and
    g = (gt > 0) is the label's foreground, so dL/dpred = dL/dp / 2.
    """
    pred, gt = _check_shapes(pred, gt)
    p = (pred + 1.0) * 0.5
    g = (gt > 0.0).astype(np.float64)
    inter = np.sum(p * g)
    denom = np.sum(p) + np.sum(g) + cfg.epsilon
    value = 1.0 - 2.0 * inter / denom
    grad = -(g * denom - inter) / (denom * denom)  # 0.5 * dL/dp
    return LossReport(float(value), grad)


def loss_iou3d_weighted(pred, gt, weigh, cfg: LossConfig = LossConfig()) -> LossReport:
    """3D IOU loss with per-pixel gates ``weigh(p, g, cfg)``, which carry no gradient.

    ``weigh`` receives the prediction and label as float64 arrays.
    """
    p, g = _check_shapes(pred, gt)
    weights = weigh(p, g, cfg)
    sign = np.where(g > 0.0, 1.0, -1.0)
    fg = g > 0.0
    ps = sign * p
    gs = sign * g
    mins = np.minimum(ps, gs)
    maxs = np.maximum(ps, gs)
    # tie routing: foreground terms are prediction-first, background label-first
    dmin = np.where(fg, ps <= gs, ps < gs).astype(np.float64)
    dmax = np.where(fg, ps >= gs, ps > gs).astype(np.float64)
    num = np.sum(weights * mins)
    den = np.sum(weights * maxs) + cfg.epsilon
    value = 1.0 - num / den
    grad = sign * weights * (num * dmax - den * dmin) / (den * den)
    return LossReport(float(value), grad)


def loss_iou3d(pred, gt, cfg: LossConfig = LossConfig()) -> LossReport:
    """3D IOU loss of two signed maps (no penalty, no edge weighting)."""
    return loss_iou3d_weighted(pred, gt, _unit_weights, cfg)


def loss_iou3d_penalized(pred, gt, cfg: LossConfig = LossConfig()) -> LossReport:
    """3D IOU loss with per-pixel sign-mismatch penalty factors."""
    return loss_iou3d_weighted(pred, gt, penalty_factor, cfg)


def loss_iou3d_edge(pred, gt, cfg: LossConfig = LossConfig()) -> LossReport:
    """Penalized 3D IOU loss with sqrt(|label|) per-pixel edge weights."""
    return loss_iou3d_weighted(pred, gt, edge_weights, cfg)


LOSSES = {
    "dice": loss_dice,
    "iou3d": loss_iou3d,
    "iou3d-pen": loss_iou3d_penalized,
    "iou3d-edge": loss_iou3d_edge,
}


def _random_two_class_mask(rng, h, w):
    while True:
        m = rng.random((h, w)) < rng.uniform(0.2, 0.8)
        if m.any() and not m.all():
            return m


def grad_check_loss(
    loss_id: str,
    trials: int = 100,
    seed: int = 0,
    cfg: LossConfig = LossConfig(),
) -> float:
    """Compare analytic gradients against central finite differences.

    Each trial draws a 5..12 x 5..12 map and checks 6 of its pixels with
    a central difference of step 1e-4. Sample points keep every pixel away
    from the nondifferentiable sets (|p - g| > 1e-2 and |p| > 1e-2).
    Returns the maximum error relative to the largest gradient magnitude
    of each sampled map; a non-finite error makes the result NaN or inf.
    """
    if loss_id not in LOSSES:
        raise InvalidConfigError(f"unknown loss {loss_id!r}; choose from {sorted(LOSSES)}")
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    fn = LOSSES[loss_id]
    rng = seeded_rng(seed)
    pixels_per_trial, step = 6, 1e-4
    worst = 0.0
    for _ in range(trials):
        h = int(rng.integers(5, 13))
        w = int(rng.integers(5, 13))
        gt = sndm_encode(_random_two_class_mask(rng, h, w)).astype(np.float64)
        pred = rng.uniform(-1.0, 1.0, (h, w))
        for _ in range(64):
            bad = (np.abs(pred - gt) <= 1e-2) | (np.abs(pred) <= 1e-2)
            if not bad.any():
                break
            pred[bad] = rng.uniform(-1.0, 1.0, int(bad.sum()))
        analytic = fn(pred, gt, cfg).grad
        scale = max(float(np.abs(analytic).max()), 1e-8)
        flat_indices = rng.choice(pred.size, size=min(pixels_per_trial, pred.size), replace=False)
        for k in flat_indices:
            idx = np.unravel_index(int(k), pred.shape)
            plus = pred.copy()
            plus[idx] += step
            minus = pred.copy()
            minus[idx] -= step
            numeric = (fn(plus, gt, cfg).value - fn(minus, gt, cfg).value) / (2.0 * step)
            worst = float(np.maximum(worst, abs(float(analytic[idx]) - numeric) / scale))  # NaN sticks
    return worst
