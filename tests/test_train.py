import os
import pickle
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import sndmseg
import sndmseg.train as train_module
from sndmseg import synth
from sndmseg.errors import DatasetEmptyError, InvalidConfigError, NonFiniteError, ShapeMismatchError
from sndmseg.losses import LossConfig, LossReport
from sndmseg.network import NetConfig, forward_pair, init_params
from sndmseg.sndm import sndm_encode
from sndmseg.synth import GenConfig, make_pairs
from sndmseg.train import (
    ABLATION_METRICS,
    ABLATION_VARIANTS,
    LOSSES,
    AblationConfig,
    AdamState,
    PlateauScheduler,
    TrainConfig,
    ablation,
    adam_step,
    evaluate,
    reference_config,
    train,
    worker_count,
    write_history_csv,
    write_json,
)

TINY_NET = NetConfig(input_size=32, widths=(6, 10), levels=2)
TINY_GEN = GenConfig(image_size=32)


def tiny_sets(n_train=6, n_val=3, seed=900):
    return make_pairs(seed, TINY_GEN, n_train), make_pairs(seed + 500, TINY_GEN, n_val)


def test_adam_first_step_matches_closed_form():
    params = {"w": np.array([1.0])}
    state = AdamState()
    adam_step(params, {"w": np.array([1.0])}, state, lr=0.1, weight_decay=0.0)
    # after bias correction the first update is -lr * 1 / (1 + eps)
    assert abs(params["w"][0] - (1.0 - 0.1 / (1.0 + 1e-8))) < 1e-12


def test_adam_second_step_matches_closed_form():
    params = {"w": np.array([1.0])}
    state = AdamState()
    for g in (1.0, 3.0):
        adam_step(params, {"w": np.array([g])}, state, lr=0.1, weight_decay=0.0)
    # beta2 enters at step 2: m = 0.9 * 0.1 + 0.1 * 3, v = 0.999 * 0.001 + 0.001 * 9
    m_hat = 0.39 / (1.0 - 0.9**2)
    v_hat = 0.009999 / (1.0 - 0.999**2)
    assert abs(params["w"][0] - (1.0 - 0.1 / (1.0 + 1e-8) - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8))) < 1e-12


def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([0.7, -0.3])}
    state = AdamState()
    for _ in range(5):
        adam_step(params, {"w": np.zeros(2)}, state, lr=0.1, weight_decay=0.0)
    assert params["w"].tolist() == [0.7, -0.3]


def test_adam_decay_only_shrinks_params():
    params = {"w": np.array([2.0])}
    state = AdamState()
    lr, wd = 0.01, 0.1
    for step in range(1, 4):
        adam_step(params, {"w": np.zeros(1)}, state, lr=lr, weight_decay=wd)
        assert abs(params["w"][0] - 2.0 * (1.0 - lr * wd) ** step) < 1e-12


def test_adam_needs_a_gradient_for_every_parameter():
    params = {"w": np.array([1.0]), "v": np.array([2.0])}
    state = AdamState()
    for grads in (
        {"w": np.array([1.0])},
        {"w": np.array([1.0]), "v": None},
        {"w": np.array([1.0]), "v": np.array([1.0]), "u": np.array([1.0])},
    ):
        with pytest.raises(ShapeMismatchError, match="gradients do not match the parameters"):
            adam_step(params, grads, state, lr=0.1)
    assert params["w"].tolist() == [1.0] and params["v"].tolist() == [2.0]  # nothing was updated
    assert state.step == 0 and not state.m


def test_a_parameter_without_a_gradient_stops_training(monkeypatch):
    real_build_forward = train_module.build_forward

    def forward_missing_the_head_bias(*args, **kwargs):
        pred, param_tensors = real_build_forward(*args, **kwargs)
        # a tensor outside the graph stands in for the head bias, so the backward never reaches it
        param_tensors["head.conv.bias"] = train_module.ad.Tensor(param_tensors["head.conv.bias"].data, requires_grad=True)
        return pred, param_tensors

    monkeypatch.setattr(train_module, "build_forward", forward_missing_the_head_bias)
    with pytest.raises(ShapeMismatchError, match=r"missing \['head.conv.bias'\]"):
        train(*tiny_sets(2, 2), TINY_NET, TrainConfig(max_epochs=1, batch_size=2))


def test_plateau_halves_exactly_on_patience():
    sched = PlateauScheduler(lr=1.0, patience=3, factor=0.5)
    lrs = [sched.update(v) for v in (1.0, 0.9, 0.95, 0.95, 0.95, 0.8, 0.85, 0.85, 0.85, 0.85)]
    #                                 imp  imp  s1    s2    s3=cut imp  s1    s2    s3=cut s1
    assert lrs == [1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25]


def test_plateau_improvement_threshold():
    sched = PlateauScheduler(lr=1.0, patience=2, factor=0.5)
    sched.update(1.0)
    assert sched.update(1.0 - 5e-7) == 1.0  # below threshold: stale
    assert sched.update(1.0 - 4e-7) == 0.5  # second stale epoch halves


def test_train_config_validation():
    with pytest.raises(InvalidConfigError, match="batch_size must be >= 1"):
        TrainConfig(batch_size=0)
    assert TrainConfig(batch_size=1).batch_size == 1
    with pytest.raises(InvalidConfigError):
        TrainConfig(lr_factor=1.0)
    with pytest.raises(InvalidConfigError):
        TrainConfig(loss_id="mse")
    for bad in (np.nan, np.inf, -np.inf, 0.0):
        with pytest.raises(InvalidConfigError, match="lr must be finite and positive"):
            TrainConfig(lr=bad)
    for bad in (np.nan, np.inf, -1e-5):
        with pytest.raises(InvalidConfigError, match="weight_decay must be finite and nonnegative"):
            TrainConfig(weight_decay=bad)
    with pytest.raises(InvalidConfigError):
        TrainConfig(lr_factor=np.nan)
    with pytest.raises(InvalidConfigError):
        TrainConfig(seed=-1)
    assert reference_config().lr == 1e-5
    assert reference_config().max_epochs == 120


@pytest.mark.parametrize(
    "config_class, name, value, error",
    [
        (NetConfig, "input_size", 60, InvalidConfigError),
        (TrainConfig, "batch_size", 0, InvalidConfigError),
        (LossConfig, "lam", 0.5, InvalidConfigError),
        (GenConfig, "image_size", 8, InvalidConfigError),
        (AblationConfig, "n_val", 0, DatasetEmptyError),
        (AblationConfig, "n_train", 0, DatasetEmptyError),
        (AblationConfig, "n_test", 0, DatasetEmptyError),
    ],
)
def test_bad_value_fails_when_the_config_is_built(config_class, name, value, error):
    with pytest.raises(error) as built:
        config_class(**{name: value})
    with pytest.raises(error) as replaced:
        replace(config_class(), **{name: value})
    assert str(built.value) == str(replaced.value)


@pytest.mark.parametrize(
    "config_class, name, bad, good, kind",
    [
        (NetConfig, "input_size", 64.0, np.int64(64), "an integer"),
        (NetConfig, "widths", (16.5, 32, 64), (np.int32(16), 32, 64), "a tuple of integers"),
        (NetConfig, "levels", 3.0, np.int64(3), "an integer"),
        (GenConfig, "image_size", 20.5, np.int64(20), "an integer"),
        (TrainConfig, "batch_size", 2.5, np.int64(2), "an integer"),
        (TrainConfig, "max_epochs", 1.5, np.int64(1), "an integer"),
        (TrainConfig, "seed", 1.0, np.uint8(1), "an integer"),
        (AblationConfig, "n_train", 2.5, np.int64(2), "an integer"),
        (AblationConfig, "epochs", 1.5, np.int64(1), "an integer"),
        # each of these used to build, or to fail later with a raw TypeError or ValueError
        (NetConfig, "dense_connections", "no", np.bool_(False), "a bool"),
        (NetConfig, "widths", 16, (16, 32, 64), "a tuple of integers"),
        (NetConfig, "widths", [16, 32, 64], (16, 32, 64), "a tuple of integers"),  # a list is unhashable
        (TrainConfig, "loss_id", ["dice"], "dice", "a str"),
        (TrainConfig, "lr", "1e-3", np.float32(1e-3), "a real number"),
        (TrainConfig, "batch_size", True, 2, "an integer"),
        (LossConfig, "lam", "5", np.int64(5), "a real number"),
        (LossConfig, "lam", True, 5.0, "a real number"),
        (AblationConfig, "lr", "x", 1, "a real number"),
    ],
)
def test_integer_fields_refuse_other_numbers_when_the_config_is_built(config_class, name, bad, good, kind):
    """Every field holds its annotated type: the check runs first, so no other error comes out raw."""
    with pytest.raises(InvalidConfigError, match=f"{name}: .* is not {kind}$"):
        config_class(**{name: bad})
    built = config_class(**{name: good})  # numpy scalars pass
    assert getattr(built, name) == good and hash(built) == hash(built)


def test_every_loss_trains_the_default_net():
    gen = GenConfig(image_size=NetConfig().input_size)
    train_set, val_set = make_pairs(910, gen, 2), make_pairs(920, gen, 2)
    initial = init_params(NetConfig(), seed=TrainConfig.seed).values["head.conv.weight"]
    for loss_id in LOSSES:
        result = train(train_set, val_set, NetConfig(), TrainConfig(loss_id=loss_id, max_epochs=1, batch_size=2))
        assert result.net_config == NetConfig() and np.isfinite(result.best_val_loss), loss_id
        assert not np.array_equal(result.params.values["head.conv.weight"], initial), loss_id
    train_set, val_set = tiny_sets()
    with pytest.raises(DatasetEmptyError):
        train([], val_set, TINY_NET, TrainConfig(max_epochs=1))


def test_train_on_a_single_pair_at_batch_one():
    # train-mode batch norm pools both images of the pair, so one pair is a full batch
    train_set, val_set = tiny_sets(1, 2)
    initial = init_params(TINY_NET, seed=TrainConfig.seed).values["head.conv.weight"]
    result = train(train_set, val_set, TINY_NET, TrainConfig(max_epochs=3, batch_size=1))
    assert len(result.history) == 3
    assert all(np.isfinite([h.train_loss, h.val_loss]).all() for h in result.history)
    assert not np.array_equal(result.params.values["head.conv.weight"], initial)


def test_train_rejects_a_bad_loss_config_before_any_work(monkeypatch):
    train_set, val_set = tiny_sets(2, 2)
    monkeypatch.setattr(train_module, "sndm_encode", lambda mask: pytest.fail("a target was encoded"))
    with pytest.raises(InvalidConfigError):  # raised when the LossConfig is built, before train() runs
        train(train_set, val_set, TINY_NET, TrainConfig(max_epochs=1, batch_size=2), loss_config=LossConfig(lam=0.5))


def test_trailing_one_pair_batch_is_trained(monkeypatch):
    steps = []
    train_losses = []  # (pairs, loss) of every train-mode loss, in step order
    real_map_loss = train_module.ad.map_loss

    def counting_adam_step(*args, **kwargs):
        steps.append(1)
        return adam_step(*args, **kwargs)

    def recording_map_loss(pred, *args):
        loss = real_map_loss(pred, *args)
        if pred.requires_grad:  # the validation pass runs in eval mode
            train_losses.append((pred.data.shape[0] // 2, float(loss.data)))
        return loss

    monkeypatch.setattr(train_module, "adam_step", counting_adam_step)
    monkeypatch.setattr(train_module.ad, "map_loss", recording_map_loss)
    # 5 pairs in batches of 4: each epoch steps on a batch of 4, then on the last pair
    result = train(*tiny_sets(5, 2), TINY_NET, TrainConfig(max_epochs=3, batch_size=4, seed=2))
    assert len(steps) == 6
    assert [pairs for pairs, _ in train_losses] == [4, 1] * 3
    for epoch, stats in enumerate(result.history):
        (full, full_loss), (last, last_loss) = train_losses[2 * epoch : 2 * epoch + 2]
        assert stats.train_loss == (0.0 + full_loss * full + last_loss * last) / 5
    assert all(np.isfinite([h.train_loss, h.val_loss]).all() for h in result.history)


def test_records_of_the_wrong_size_fail_before_any_work(monkeypatch):
    monkeypatch.setattr(train_module, "sndm_encode", lambda mask: pytest.fail("a target was encoded"))
    monkeypatch.setattr(train_module, "init_params", lambda *args, **kwargs: pytest.fail("parameters were allocated"))
    small, big = make_pairs(930, GenConfig(image_size=16), 2), make_pairs(940, TINY_GEN, 1)
    params = init_params(TINY_NET, seed=0)
    # a network far larger than the images, and in-memory sets of mixed sizes
    for net, train_set, val_set in ((NetConfig(input_size=1048576), small, small), (TINY_NET, big, small + big)):
        with pytest.raises(ShapeMismatchError, match="pair 0 'pair_0000'"):
            train(train_set, val_set, net, TrainConfig(max_epochs=1))
    with pytest.raises(ShapeMismatchError, match=r"pair 1 'pair_0000': image and mask sizes \[\(16, 16\), [^]]*\], not 32x32"):
        evaluate(params, TINY_NET, big + small)


def test_package_attribute_train_is_the_module():
    assert sndmseg.train is train_module and "train" not in sndmseg.__all__
    assert train_module.train is train


def test_smoke_train_two_epochs(tmp_path):
    train_set, val_set = tiny_sets(8, 4)
    cfg = TrainConfig(max_epochs=2, seed=3)
    result = train(train_set, val_set, TINY_NET, cfg)
    assert len(result.history) == 2
    assert result.best_epoch in (1, 2)
    assert result.best_val_loss == min(h.val_loss for h in result.history)
    history_path = tmp_path / "history.csv"
    write_history_csv(result.history, str(history_path))
    lines = history_path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,lr"
    assert len(lines) == 3
    assert all(len(line.split(",")) == 4 for line in lines[1:])


def test_train_rerun_is_identical():
    train_set, val_set = tiny_sets(6, 3)
    cfg = TrainConfig(max_epochs=2, seed=11)
    first = train(train_set, val_set, TINY_NET, cfg)
    second = train(train_set, val_set, TINY_NET, cfg)
    assert [(h.train_loss, h.val_loss, h.lr) for h in first.history] == [
        (h.train_loss, h.val_loss, h.lr) for h in second.history
    ]
    for name in first.params.values:
        assert np.array_equal(first.params.values[name], second.params.values[name])


def test_val_loss_pairs_each_branch_with_its_own_target():
    train_set, val_set = tiny_sets(6, 3)
    result = train(train_set, val_set, TINY_NET, TrainConfig(max_epochs=1, seed=5))
    preds = forward_pair(np.stack([r.img_a for r in val_set]), np.stack([r.img_b for r in val_set]), result.params, TINY_NET)
    masks = ([r.mask_a for r in val_set], [r.mask_b for r in val_set])
    per_map = [
        LOSSES["iou3d-edge"](pred, sndm_encode(mask), LossConfig()).value
        for branch_preds, branch_masks in zip(preds, masks)
        for pred, mask in zip(branch_preds, branch_masks)
    ]
    assert result.history[0].val_loss == pytest.approx(np.mean(per_map), rel=1e-6)


@pytest.mark.parametrize("split, phrase", [(0, "training loss is nan"), (1, "validation loss is nan")])
def test_non_finite_loss_stops_training(split, phrase):
    sets = tiny_sets(6, 3)
    sets[split][1].img_b[5, 7, 2] = np.nan
    with pytest.raises(NonFiniteError, match=phrase):
        train(*sets, TINY_NET, TrainConfig(max_epochs=2, seed=11))


def nan_gradient_loss(pred, gt, cfg):
    """A finite loss value whose gradient is NaN everywhere."""
    return LossReport(0.5, np.full(pred.shape, np.nan))


def test_non_finite_gradient_stops_training(monkeypatch):
    monkeypatch.setitem(LOSSES, "iou3d-edge", nan_gradient_loss)
    with pytest.raises(NonFiniteError, match="gradient norm is nan in epoch 1 at batch 0"):
        train(*tiny_sets(6, 3), TINY_NET, TrainConfig(max_epochs=2, seed=11))


def test_best_checkpoint_is_min_val_loss():
    train_set, val_set = tiny_sets(8, 4, seed=42)
    result = train(train_set, val_set, TINY_NET, TrainConfig(max_epochs=4, seed=1))
    vals = [h.val_loss for h in result.history]
    assert result.best_epoch == int(np.argmin(vals)) + 1


def test_evaluate_with_oracle_predictions():
    records = make_pairs(300, TINY_GEN, 4)
    params = init_params(TINY_NET, seed=0)
    # exact 0.0 is background, so a map that is 0.0 off the object decodes to the mask too
    for encode in (sndm_encode, lambda mask: np.where(mask, 0.5, 0.0)):

        def oracle(img_a, img_b):
            start = oracle.cursor
            chunk = records[start : start + len(img_a)]
            oracle.cursor += len(img_a)
            return (
                np.stack([encode(r.mask_a) for r in chunk]),
                np.stack([encode(r.mask_b) for r in chunk]),
            )

        oracle.cursor = 0
        report = evaluate(params, TINY_NET, records, forward_fn=oracle)
        mean = report.mean()
        assert mean["jaccard"] == 1.0
        assert mean["precision"] == 1.0
        assert mean["pixel_accuracy"] == 1.0


def test_evaluate_untrained_is_well_formed(tmp_path):
    records = make_pairs(301, TINY_GEN, 3)
    params = init_params(TINY_NET, seed=7)
    report = evaluate(params, TINY_NET, records)
    assert len(report.items) == 3
    for item in report.items:
        assert 0.0 <= item.jaccard <= 1.0
        assert 0.0 <= item.precision <= 1.0
        assert 0.0 <= item.pixel_accuracy <= 1.0
    path = tmp_path / "report.json"
    write_json(report.to_json_dict(), str(path))
    import json

    payload = json.loads(path.read_text())
    assert set(payload) == {"items", "mean"}
    assert len(payload["items"]) == 3


def test_evaluate_empty_dataset():
    with pytest.raises(DatasetEmptyError):
        evaluate(init_params(TINY_NET, seed=0), TINY_NET, [])


@pytest.mark.parametrize("batch_size", [0, -1, True, 2.5, "2"])
def test_evaluate_rejects_a_batch_size_below_one(batch_size):
    # the integer rule of the configs: a bool, a float or a str is no batch size either
    records = make_pairs(302, TINY_GEN, 2)
    with pytest.raises(InvalidConfigError):
        evaluate(init_params(TINY_NET, seed=0), TINY_NET, records, batch_size=batch_size)


@pytest.mark.parametrize("batch_size", [2, 3])
def test_validation_loss_equals_the_joint_forward_loss_bitwise(monkeypatch, batch_size):
    # the validation pass scores forward_pair's maps; a joint eval build_forward per batch is the reference
    monkeypatch.setenv("SNDM_THREADS", "2")
    net = NetConfig()
    records = make_pairs(310, GenConfig(image_size=net.input_size), 3)
    targets = train_module._targets_for(records)
    params = init_params(net, seed=5)
    loss_fn, loss_cfg = LOSSES["iou3d-edge"], LossConfig()
    want = 0.0
    for start in range(0, len(records), batch_size):
        indices = range(start, min(start + batch_size, len(records)))
        img_a, img_b, gt = train_module._stack_batch(records, targets, indices)
        pred, _ = sndmseg.network.build_forward(img_a, img_b, params, net, mode="eval")
        want += float(sndmseg.autodiff.map_loss(pred, gt, loss_fn, loss_cfg).data) * len(indices)
    want /= len(records)
    assert train_module._dataset_loss(records, targets, params, net, loss_fn, loss_cfg, batch_size) == want


def test_lr_column_non_increasing():
    train_set, val_set = tiny_sets(6, 3, seed=77)
    cfg = TrainConfig(max_epochs=5, seed=2, plateau_patience=1, lr_factor=0.5)
    result = train(train_set, val_set, TINY_NET, cfg)
    lrs = [h.lr for h in result.history]
    assert all(b <= a for a, b in zip(lrs, lrs[1:]))


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_worker_count_rejects_bad_thread_cap(monkeypatch, value):
    monkeypatch.setenv("SNDM_THREADS", value)
    with pytest.raises(InvalidConfigError):
        worker_count(3)


def test_worker_count_honors_thread_cap(monkeypatch):
    monkeypatch.setenv("SNDM_THREADS", " 2 ")
    assert worker_count(5) == 2
    assert worker_count(1) == 1
    monkeypatch.delenv("SNDM_THREADS")
    assert 1 <= worker_count(5) <= 5


def _count_gen_pair_calls(monkeypatch) -> list:
    calls = []
    real_gen_pair = synth.gen_pair

    def counting_gen_pair(seed, config):
        calls.append(seed)
        return real_gen_pair(seed, config)

    monkeypatch.setattr(synth, "gen_pair", counting_gen_pair)
    return calls


def test_ablation_generates_each_seed_once(monkeypatch):
    calls = _count_gen_pair_calls(monkeypatch)
    monkeypatch.setenv("SNDM_THREADS", "1")
    cfg = AblationConfig(n_train=2, n_val=1, n_test=1, epochs=1, batch_size=2, image_size=16)
    table = ablation(2, base_seed=5, config=cfg)
    assert len(calls) == 2 * (cfg.n_train + cfg.n_val + cfg.n_test)
    assert len(set(calls)) == len(calls)
    assert [row["name"] for row in table["rows"]] == [variant[0] for variant in ABLATION_VARIANTS]
    assert [run["seed"] for run in table["per_run"]] == [5, 6]
    for row in table["rows"]:
        assert list(row) == ["name", *ABLATION_METRICS]
        for metric in ABLATION_METRICS:
            assert row[metric] == sum(run[row["name"]][metric] for run in table["per_run"]) / 2


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("n_train", 0, DatasetEmptyError),
        ("n_val", 0, DatasetEmptyError),
        ("n_test", 0, DatasetEmptyError),
        ("image_size", 20, InvalidConfigError),
        ("batch_size", 0, InvalidConfigError),
        ("lr", float("nan"), InvalidConfigError),
        ("epochs", 0, InvalidConfigError),
    ],
)
def test_bad_ablation_config_fails_before_any_work(monkeypatch, name, value, error):
    calls = _count_gen_pair_calls(monkeypatch)
    monkeypatch.setattr(train_module.multiprocessing, "get_context", lambda method: pytest.fail("a pool was started"))
    cfg = AblationConfig(n_train=2, n_val=1, n_test=1, epochs=1, batch_size=2, image_size=16)
    # the set sizes fail in replace(), when the AblationConfig is built; the
    # other values fail when ablation() builds its jobs' configs
    with pytest.raises(error):
        ablation(2, config=replace(cfg, **{name: value}))
    assert calls == []


def test_ablation_table_does_not_depend_on_worker_count(monkeypatch):
    cfg = AblationConfig(n_train=4, n_val=2, n_test=2, epochs=1, image_size=32)
    tables = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SNDM_THREADS", workers)
        tables.append(ablation(1, base_seed=0, config=cfg))
    assert tables[0] == tables[1]


def test_worker_count_and_the_kernel_split_share_one_thread_cap(monkeypatch):
    monkeypatch.setattr(train_module.ad, "thread_cap", lambda: 3)
    assert worker_count(8) == 3
    ranges = []
    train_module.ad.split_items(lambda lo, hi: ranges.append((lo, hi)), 8, train_module.ad.MIN_RANGE_FLOPS)
    assert len(ranges) == 3


def test_thread_cap_defaults_to_the_usable_cores(monkeypatch):
    monkeypatch.delenv("SNDM_THREADS", raising=False)
    monkeypatch.setattr(train_module.ad.os, "sched_getaffinity", lambda pid: {3})
    monkeypatch.setattr(train_module.ad.os, "cpu_count", lambda: 64)
    assert train_module.ad.thread_cap() == 1


def test_thread_cap_counts_the_cores_where_affinity_is_missing(monkeypatch):
    ad = train_module.ad
    monkeypatch.delenv("SNDM_THREADS", raising=False)
    monkeypatch.delattr(ad.os, "sched_getaffinity")  # as on macOS and Windows
    monkeypatch.setattr(ad.os, "cpu_count", lambda: 5)
    assert ad.thread_cap() == 5
    monkeypatch.setattr(ad.os, "cpu_count", lambda: None)
    assert ad.thread_cap() == 1
    x = ad.Tensor(np.ones((2, 1, 4, 4)))
    assert ad.conv2d(x, ad.Tensor(np.ones((1, 1, 3, 3))), ad.Tensor(np.zeros(1))).shape == x.shape  # a conv reads the cap


def test_package_imports_without_a_fork_hook():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sndmseg.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import os; del os.register_at_fork; import sndmseg; print(sndmseg.autodiff.thread_cap() >= 1)"  # as on Windows
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\n"


def test_train_and_evaluate_do_not_depend_on_the_thread_count(monkeypatch):
    monkeypatch.setattr(train_module.ad, "MIN_RANGE_FLOPS", 1.0)  # split every conv of this small net
    net = NetConfig(input_size=16, widths=(4, 6), levels=2)
    gen = GenConfig(image_size=16)
    train_set, val_set = make_pairs(910, gen, 5), make_pairs(920, gen, 3)
    cfg = TrainConfig(batch_size=2, max_epochs=2, seed=4)
    runs = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("SNDM_THREADS", threads)
        result = train(train_set, val_set, net, cfg)
        arrays = {**result.params.values, **result.params.buffers}
        runs[threads] = (
            {name: arr.tobytes() for name, arr in arrays.items()},
            [(h.epoch, h.train_loss, h.val_loss, h.lr) for h in result.history],
            (result.best_epoch, result.best_val_loss),
            evaluate(result.params, net, val_set + train_set).to_json_dict(),
        )
    assert runs["2"] == runs["1"] and runs["3"] == runs["1"]


def test_ablation_workers_run_one_kernel_thread_and_the_parent_environment_is_untouched(monkeypatch):
    seen = []

    class InlinePool:
        """Runs the jobs in this process and records the pool's initializer and the environment the jobs see."""

        def __init__(self, processes, initializer):
            seen.append(initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            seen.append(dict(os.environ))
            return [fn(job) for job in jobs]

    monkeypatch.setattr(train_module.multiprocessing, "get_context", lambda method: type("Context", (), {"Pool": InlinePool}))
    cfg = AblationConfig(n_train=2, n_val=1, n_test=1, epochs=1, batch_size=2, image_size=16)
    for before in ("2", None):
        if before is None:
            monkeypatch.delenv("SNDM_THREADS")
        else:
            monkeypatch.setenv("SNDM_THREADS", before)
        environ = dict(os.environ)
        seen.clear()
        ablation(1, config=cfg)
        initializer, during = seen
        assert during == environ and dict(os.environ) == environ
    # a spawned worker receives the initializer by import path and runs it first
    assert pickle.loads(pickle.dumps(initializer)) is initializer
    initializer()
    assert os.environ["SNDM_THREADS"] == "1"


def test_train_runs_unpinned_without_a_known_blas(monkeypatch):
    lookups = []

    def no_setter():  # as with a numpy built on MKL, Accelerate or a system BLAS
        lookups.append(None)
        return None

    monkeypatch.setattr(train_module.ad, "_openblas_threads", no_setter)
    result = train(*tiny_sets(n_train=2, n_val=1), TINY_NET, TrainConfig(batch_size=2, max_epochs=1))
    assert lookups and np.isfinite(result.best_val_loss)


BLAS_BITS = """
import hashlib
from sndmseg.network import NetConfig
from sndmseg.synth import GenConfig, make_pairs
from sndmseg.train import TrainConfig, train
gen = GenConfig(image_size=64)
result = train(make_pairs(300, gen, 2), make_pairs(400, gen, 1), NetConfig(), TrainConfig(batch_size=2, max_epochs=1))
digest = hashlib.sha256()
for name, arr in sorted({**result.params.values, **result.params.buffers}.items()):
    digest.update(name.encode())
    digest.update(arr.tobytes())
print(digest.hexdigest(), repr(result.best_val_loss))
"""


def test_train_bits_do_not_depend_on_the_blas_thread_count():
    # at 64 px the default network has GEMMs that OpenBLAS rounds differently on two threads
    if train_module.ad._openblas_threads() is None:
        pytest.skip("numpy bundles no OpenBLAS whose thread count can be set")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sndmseg.__file__)))
    outputs = []
    for count in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), OPENBLAS_NUM_THREADS=count)
        env.pop("OMP_NUM_THREADS", None)
        done = subprocess.run([sys.executable, "-c", BLAS_BITS], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
