import numpy as np
import pytest

from sndmseg.errors import InvalidConfigError, ShapeMismatchError
from sndmseg.losses import (
    LOSSES,
    LossConfig,
    LossReport,
    grad_check_loss,
    loss_dice,
    loss_iou3d,
    loss_iou3d_edge,
    loss_iou3d_penalized,
    penalty_factor,
)
from sndmseg.sndm import sndm_encode

EPS = LossConfig().epsilon


def random_pair(rng, h=12, w=12):
    while True:
        mask = rng.random((h, w)) < 0.5
        if mask.any() and not mask.all():
            break
    gt = sndm_encode(mask).astype(np.float64)
    pred = rng.uniform(-1.0, 1.0, size=(h, w))
    return pred, gt


def test_penalty_factor_branches():
    cfg = LossConfig(lam=5.0)
    assert penalty_factor(0.5, 1.0, cfg) == 1.0
    assert penalty_factor(-0.5, 1.0, cfg) == 5.0
    assert penalty_factor(0.0, 1.0, cfg) == 5.0
    pred = np.array([[0.5, -0.5], [0.0, -0.2]])
    gt = np.array([[1.0, 1.0], [-1.0, -0.3]])
    assert penalty_factor(pred, gt, cfg).tolist() == [[1.0, 5.0], [5.0, 1.0]]


def test_dice_hand_values():
    # Dice scores p = (pred + 1) / 2 against g = (gt > 0): a zero prediction is p = 0.5
    assert abs(loss_dice(np.array([[0.0]]), np.array([[1.0]])).value - (1.0 - 1.0 / (1.5 + EPS))) < 1e-12
    gt = np.array([[0.7, -0.2], [0.1, 1.0]])
    assert abs(loss_dice(np.zeros((2, 2)), gt).value - (1.0 - 3.0 / (5.0 + EPS))) < 1e-12
    assert loss_dice(np.sign(gt), gt).value < 1e-6  # perfect overlap
    assert abs(loss_dice(-np.sign(gt), gt).value - 1.0) < 1e-6  # no overlap
    # the gradient is half the gradient with respect to p
    report = loss_dice(np.zeros((2, 2)), gt)
    assert np.allclose(report.grad, 0.5 * -2.0 * ((gt > 0) * (5.0 + EPS) - 1.5) / (5.0 + EPS) ** 2, rtol=0, atol=1e-15)


def test_iou3d_hand_values():
    gt = np.array([[1.0, -1.0]])
    assert abs(loss_iou3d(np.array([[0.5, -1.0]]), gt).value - (1.0 - 1.5 / (2.0 + EPS))) < 1e-12
    assert abs(loss_iou3d(np.array([[-0.5, -1.0]]), gt).value - (1.0 - 0.5 / (2.0 + EPS))) < 1e-12


def test_penalized_hand_value_exceeds_one():
    gt = np.array([[1.0, -1.0]])
    value = loss_iou3d_penalized(np.array([[-0.5, -1.0]]), gt, LossConfig(lam=5.0)).value
    assert abs(value - (1.0 - (-1.5) / (6.0 + EPS))) < 1e-12
    assert value > 1.0 and np.isfinite(value)


def test_edge_hand_values():
    gt = np.array([[1.0, -1.0]])
    # unit labels make the edge weights 1, so the plain value reappears
    assert abs(loss_iou3d_edge(np.array([[0.5, -1.0]]), gt).value - loss_iou3d(np.array([[0.5, -1.0]]), gt).value) < 1e-15
    gt2 = np.array([[0.25, -1.0]])
    value = loss_iou3d_edge(np.array([[0.1, -1.0]]), gt2, LossConfig(lam=5.0)).value
    assert abs(value - (1.0 - 1.05 / (1.125 + EPS))) < 1e-12
    assert abs(value - 0.0666667) < 1e-6


def test_identity_for_all_losses():
    rng = np.random.Generator(np.random.Philox(51))
    for _ in range(10):
        mask = rng.random((9, 9)) < 0.5
        if not mask.any() or mask.all():
            continue
        gt = sndm_encode(mask).astype(np.float64)
        for name, fn in LOSSES.items():
            pred = np.sign(gt) if name == "dice" else gt.copy()  # Dice reads only the label's sign
            report = fn(pred, gt)
            assert abs(report.value) < 1e-6, name


def test_lambda_one_reduces_to_plain_iou3d():
    rng = np.random.Generator(np.random.Philox(53))
    cfg = LossConfig(lam=1.0)
    for _ in range(10):
        pred, gt = random_pair(rng)
        a = loss_iou3d_penalized(pred, gt, cfg)
        b = loss_iou3d(pred, gt, cfg)
        assert a.value == b.value
        assert np.array_equal(a.grad, b.grad)


def test_edge_with_unit_labels_reduces_to_plain_iou3d():
    rng = np.random.Generator(np.random.Philox(59))
    cfg = LossConfig(lam=1.0)
    gt = np.where(rng.random((8, 8)) < 0.5, 1.0, -1.0)
    pred = rng.uniform(-1.0, 1.0, size=(8, 8))
    a = loss_iou3d_edge(pred, gt, cfg)
    b = loss_iou3d(pred, gt, cfg)
    assert a.value == b.value
    assert np.array_equal(a.grad, b.grad)


def test_flip_monotonicity():
    rng = np.random.Generator(np.random.Philox(61))
    cfg = LossConfig(lam=5.0)
    for fn in (loss_iou3d_penalized, loss_iou3d_edge):
        pred, gt = random_pair(rng)
        pred = np.abs(pred) * np.sign(gt)  # all signs correct
        base = fn(pred, gt, cfg).value
        flipped = pred.copy()
        flipped[3, 3] = -flipped[3, 3]
        assert fn(flipped, gt, cfg).value > base


def test_lambda_monotonicity():
    rng = np.random.Generator(np.random.Philox(67))
    pred, gt = random_pair(rng)
    pred = np.abs(pred) * np.sign(gt)
    pred[2, 2] = -pred[2, 2]  # one sign error
    values = [loss_iou3d_penalized(pred, gt, LossConfig(lam=lam)).value for lam in (1.0, 2.0, 5.0, 9.0)]
    assert all(b > a for a, b in zip(values, values[1:]))
    correct = np.abs(pred)
    correct *= np.sign(gt)
    flat = [loss_iou3d_penalized(correct, gt, LossConfig(lam=lam)).value for lam in (1.0, 5.0, 9.0)]
    assert flat[0] == flat[1] == flat[2]


def test_gradients_match_finite_differences():
    for name in LOSSES:
        worst = grad_check_loss(name, trials=40, seed=7)
        assert worst < 1e-5, (name, worst)


def test_shape_mismatch():
    for fn in LOSSES.values():
        with pytest.raises(ShapeMismatchError):
            fn(np.zeros((2, 2)), np.ones((3, 2)))


def test_loss_config_validation():
    with pytest.raises(InvalidConfigError):
        LossConfig(lam=0.5)
    with pytest.raises(InvalidConfigError):
        LossConfig(epsilon=0.0)
    with pytest.raises(InvalidConfigError):
        LossConfig(epsilon=1e-3)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidConfigError, match="lam must be finite"):
            LossConfig(lam=bad)
    with pytest.raises(InvalidConfigError):
        LossConfig(epsilon=np.nan)
    with pytest.raises(InvalidConfigError):
        grad_check_loss("hinge", trials=1)
    for trials in (0, -3):
        with pytest.raises(InvalidConfigError, match="trials must be >= 1"):
            grad_check_loss("dice", trials=trials)
    with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
        grad_check_loss("dice", trials=1, seed=-1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_grad_check_fails_on_non_finite_loss(monkeypatch, bad):
    monkeypatch.setitem(LOSSES, "dice", lambda pred, gt, cfg: LossReport(bad, np.full(pred.shape, bad)))
    worst = grad_check_loss("dice", trials=3)
    assert not worst < 1e-4  # NaN and inf both fail the threshold


def test_grad_shape_matches_pred():
    rng = np.random.Generator(np.random.Philox(71))
    pred, gt = random_pair(rng, 6, 11)
    for name, fn in LOSSES.items():
        report = fn(pred, gt)
        assert report.grad.shape == pred.shape
        assert np.isfinite(report.value)
