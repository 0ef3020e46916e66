import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sndmseg import autodiff as ad
from sndmseg.errors import (
    BatchTooSmallError,
    CheckpointCorruptError,
    InvalidConfigError,
    NoForwardPassError,
    ShapeMismatchError,
)
from sndmseg.network import (
    ADAPTER_CHANNELS,
    NetConfig,
    build_forward,
    config_from_header,
    config_to_header,
    correlation,
    forward_pair,
    grad_check_net,
    init_params,
    load_net,
    save_net,
)
from sndmseg.synth import GenConfig, gen_pair
from strategies import weighted_sum, weighted_total

SMALL = NetConfig(input_size=16, widths=(4, 6), levels=2)


def batch_of_pairs(size, n, seed=0):
    samples = [gen_pair(seed + i, GenConfig(image_size=size)) for i in range(n)]
    return np.stack([s.img_a for s in samples]), np.stack([s.img_b for s in samples])


def expected_parameter_count(cfg):
    """Independent shape walk over the architecture definition."""

    def conv(c_out, c_in):
        return c_out * c_in * 9 + c_out

    def bn(c):
        return 2 * c

    total = 0
    c_prev = 3
    for width in cfg.widths:
        total += conv(width, c_prev) + bn(width) + conv(width, width) + bn(width)
        c_prev = width
    hw = (cfg.input_size // 2**cfg.levels) ** 2
    out_ch = {1: cfg.widths[-1]}
    total += conv(cfg.widths[-1], cfg.widths[-1] + hw) + bn(cfg.widths[-1])
    for module in range(2, cfg.levels + 1):
        level = cfg.levels + 2 - module
        sources = list(range(1, module)) if cfg.dense_connections else [module - 1]
        in_ch = cfg.widths[level - 1] + ADAPTER_CHANNELS * len(sources)
        total += conv(cfg.widths[level - 1], in_ch) + bn(cfg.widths[level - 1])
        out_ch[module] = cfg.widths[level - 1]
    last = cfg.levels + 1
    sources = list(range(1, last)) if cfg.dense_connections else [last - 1]
    for module in range(2, last + 1):
        for src in list(range(1, module)) if cfg.dense_connections else [module - 1]:
            c_in = out_ch[src]
            for _ in range(module - src):
                total += c_in * ADAPTER_CHANNELS * 4 + ADAPTER_CHANNELS + bn(ADAPTER_CHANNELS)
                c_in = ADAPTER_CHANNELS
    head_in = cfg.widths[0] + ADAPTER_CHANNELS * len(sources) + 3
    total += conv(1, head_in)
    return total


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        NetConfig(input_size=60, widths=(4, 4, 4), levels=3).validate()
    with pytest.raises(InvalidConfigError):
        NetConfig(widths=(4, 4), levels=3).validate()
    with pytest.raises(InvalidConfigError):
        NetConfig(widths=(4, 0, 4)).validate()
    NetConfig().validate()


def test_init_deterministic():
    a = init_params(SMALL, seed=5)
    b = init_params(SMALL, seed=5)
    assert set(a.values) == set(b.values)
    for name in a.values:
        assert np.array_equal(a.values[name], b.values[name])
    c = init_params(SMALL, seed=6)
    assert any(not np.array_equal(a.values[n], c.values[n]) for n in a.values)


@pytest.mark.parametrize("dense", [True, False])
def test_parameter_count_matches_shape_walk(dense):
    for cfg in (
        NetConfig(input_size=64, widths=(16, 32, 64), levels=3, dense_connections=dense),
        NetConfig(input_size=16, widths=(4, 6), levels=2, dense_connections=dense),
    ):
        params = init_params(cfg, seed=0)
        assert params.count() == expected_parameter_count(cfg)


def test_dense_toggle_keeps_encoder_identical():
    dense = init_params(NetConfig(dense_connections=True), seed=3)
    plain = init_params(NetConfig(dense_connections=False), seed=3)
    enc_dense = {n: v.shape for n, v in dense.values.items() if n.startswith("enc")}
    enc_plain = {n: v.shape for n, v in plain.values.items() if n.startswith("enc")}
    assert enc_dense == enc_plain
    assert {n for n in dense.values if n.startswith("adapt")} != {n for n in plain.values if n.startswith("adapt")}


def test_decoder_input_channel_wiring():
    cfg = NetConfig().validate()
    params = init_params(cfg, seed=0)
    hw = cfg.correlation_channels
    assert params.values["dec1.conv.weight"].shape[1] == cfg.widths[-1] + hw
    assert params.values["dec2.conv.weight"].shape[1] == cfg.widths[2] + ADAPTER_CHANNELS
    assert params.values["dec3.conv.weight"].shape[1] == cfg.widths[1] + 2 * ADAPTER_CHANNELS
    assert params.values["head.conv.weight"].shape[1] == cfg.widths[0] + 3 * ADAPTER_CHANNELS + 3


def test_forward_shapes_and_tanh_range():
    params = init_params(SMALL, seed=1)
    img_a, img_b = batch_of_pairs(16, 2)
    pred_a, pred_b = forward_pair(img_a, img_b, params, SMALL)
    assert pred_a.shape == (2, 16, 16) and pred_b.shape == (2, 16, 16)
    for trial in range(100):
        img_a, img_b = batch_of_pairs(16, 2, seed=10 + 2 * trial)
        pred_a, pred_b = forward_pair(img_a, img_b, params, SMALL)
        for pred in (pred_a, pred_b):
            assert pred.min() > -1.0 and pred.max() < 1.0


def test_swap_equivariance_eval_bit_exact():
    cfg = NetConfig()
    params = init_params(cfg, seed=2)
    img_a, img_b = batch_of_pairs(64, 2)
    pred_a, pred_b = forward_pair(img_a, img_b, params, cfg)
    swapped_b, swapped_a = forward_pair(img_b, img_a, params, cfg)
    assert np.array_equal(pred_a, swapped_a)
    assert np.array_equal(pred_b, swapped_b)


def test_batch_too_small_in_train_mode():
    params = init_params(SMALL, seed=0)
    img_a, img_b = batch_of_pairs(16, 1)
    with pytest.raises(BatchTooSmallError):
        build_forward(img_a, img_b, params, SMALL, mode="train")
    forward_pair(img_a, img_b, params, SMALL)  # eval is fine


def test_eval_forward_records_no_graph():
    params = init_params(SMALL, seed=0)
    before = params.clone()
    img_a, img_b = batch_of_pairs(16, 2)
    pred, param_tensors = build_forward(img_a, img_b, params, SMALL, mode="eval")
    assert pred.shape == (4, 1, 16, 16)
    assert not any(t.requires_grad for t in param_tensors.values())
    assert not pred.requires_grad and not pred._parents
    with pytest.raises(NoForwardPassError):
        weighted_sum(pred).backward()
    for name, value in before.buffers.items():  # eval leaves the running statistics alone
        assert np.array_equal(params.buffers[name], value), name
    # the eval relu runs in place on conv outputs; it must never reach the inputs or the parameters
    images = [img.copy() for img in (img_a, img_b)]
    forward_pair(img_a, img_b, params, SMALL)
    for got, want in zip((img_a, img_b), images):
        assert got.tobytes() == want.tobytes()
    for kind in ("values", "buffers"):
        for name, value in getattr(before, kind).items():
            assert getattr(params, kind)[name].tobytes() == value.tobytes(), (kind, name)


def test_shape_mismatch_errors():
    params = init_params(SMALL, seed=0)
    img_a, img_b = batch_of_pairs(16, 2)
    with pytest.raises(ShapeMismatchError):
        forward_pair(img_a[:, :8], img_b[:, :8], params, SMALL)
    with pytest.raises(ShapeMismatchError):
        forward_pair(img_a, img_b[:1], params, SMALL)


def _train_batch(cfg, seed=50):
    """Two pairs at the config's size with their joint SNDM targets: the A maps, then the B maps."""
    from sndmseg.sndm import sndm_encode

    samples = [gen_pair(seed + i, GenConfig(image_size=cfg.input_size)) for i in range(2)]
    img_a = np.stack([s.img_a for s in samples])
    img_b = np.stack([s.img_b for s in samples])
    masks = [s.mask_a for s in samples] + [s.mask_b for s in samples]
    return img_a, img_b, np.stack([sndm_encode(m) for m in masks])


def test_gradient_reaches_every_parameter():
    from sndmseg.losses import LossConfig, loss_dice, loss_iou3d_edge

    for dense, loss_fn in ((True, loss_iou3d_edge), (False, loss_dice)):
        cfg = NetConfig(input_size=16, widths=(4, 6), levels=2, dense_connections=dense)
        params = init_params(cfg, seed=4)
        img_a, img_b, gt = _train_batch(cfg)
        pred, param_tensors = build_forward(img_a, img_b, params, cfg, mode="train")
        ad.map_loss(pred, gt, loss_fn, LossConfig()).backward()
        for name, tensor in param_tensors.items():
            assert tensor.grad is not None, name
            assert np.abs(tensor.grad).max() > 0.0, name


def test_train_step_gradients_share_no_memory():
    from sndmseg.losses import LossConfig, loss_iou3d_edge

    cfg = SMALL
    params = init_params(cfg, seed=5)
    img_a, img_b, gt = _train_batch(cfg)
    pred, param_tensors = build_forward(img_a, img_b, params, cfg, mode="train")
    ad.map_loss(pred, gt, loss_iou3d_edge, LossConfig()).backward()
    grads = {name: t.grad for name, t in param_tensors.items()}
    arrays = {**params.values, **params.buffers}
    for name, grad in grads.items():
        assert grad is not None and grad.shape == params.values[name].shape, name
        for other, g in grads.items():
            assert other == name or not np.shares_memory(grad, g), (name, other)
        for other, value in arrays.items():
            assert not np.shares_memory(grad, value), (name, other)


def test_backward_frees_the_train_step_graph():
    """Backward peaks near the forward's own size and leaves only the leaves' gradients alive."""
    from sndmseg.losses import LossConfig, loss_iou3d_edge

    cfg = NetConfig()
    params = init_params(cfg, seed=3)
    img_a, img_b, gt = _train_batch(cfg)
    tracemalloc.start()
    try:
        pred, param_tensors = build_forward(img_a, img_b, params, cfg, mode="train")
        loss = ad.map_loss(pred, gt, loss_iou3d_edge, LossConfig())
        forward_bytes = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.backward()
        alive_bytes, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(t.grad is not None for t in param_tensors.values())
    # without release: peak about 2x the forward, and the whole graph plus its gradients still alive
    assert backward_peak <= 1.5 * forward_bytes, (backward_peak, forward_bytes)
    assert alive_bytes <= 0.1 * forward_bytes, (alive_bytes, forward_bytes)


@pytest.mark.parametrize("loss_id", ["iou3d-edge", "dice"])
def test_joint_loss_matches_mean_of_branch_losses(loss_id):
    """One loss over the joint prediction gives the gradients of the mean of two per-branch losses, bit for bit."""
    from sndmseg.losses import LOSSES, LossConfig

    loss_fn = LOSSES[loss_id]
    cfg = SMALL
    img_a, img_b, gt = _train_batch(cfg, seed=70)
    batch = img_a.shape[0]

    def run(construction):
        params = init_params(cfg, seed=8)
        pred, param_tensors = build_forward(img_a, img_b, params, cfg, mode="train")
        loss = construction(pred)
        loss.backward()
        return loss.data, {name: t.grad for name, t in param_tensors.items()}

    def joint(pred):
        return ad.map_loss(pred, gt, loss_fn, LossConfig())

    def per_branch(pred):
        loss_a = ad.map_loss(ad.slice_batch(pred, 0, batch), gt[:batch], loss_fn, LossConfig())
        loss_b = ad.map_loss(ad.slice_batch(pred, batch, 2 * batch), gt[batch:], loss_fn, LossConfig())
        return weighted_total([loss_a, loss_b], 0.5)

    joint_loss, joint_grads = run(joint)
    branch_loss, branch_grads = run(per_branch)
    assert joint_loss.dtype == branch_loss.dtype == np.float32
    ulps = abs(int(joint_loss.view(np.int32)) - int(branch_loss.view(np.int32)))
    assert ulps <= 2, (joint_loss, branch_loss)
    assert joint_grads.keys() == branch_grads.keys()
    for name, grad in joint_grads.items():
        assert grad.dtype == np.float32 and np.array_equal(grad, branch_grads[name]), name


def _correlate(feat_a, feat_b):
    """Correlation of two (C, H, W) float64 maps as a joint batch of one pair."""
    corr = correlation(ad.Tensor(np.stack([feat_a, feat_b]).astype(np.float64))).data
    return corr[0], corr[1]


def test_correlation_properties():
    # orthonormal spatial vectors: similarity is the identity pattern
    eye = np.eye(4, dtype=np.float64).reshape(4, 2, 2)
    corr_a, corr_b = _correlate(eye, eye)
    assert corr_a.shape == (4, 2, 2)
    assert np.allclose(corr_a.reshape(4, 4), np.eye(4), atol=1e-9)
    # constant identical features: all ones
    const = np.ones((3, 2, 2))
    corr_a, _ = _correlate(const, const)
    assert np.allclose(corr_a, 1.0, atol=1e-9)
    # transpose symmetry on random input
    rng = np.random.Generator(np.random.Philox(83))
    fa = rng.normal(size=(5, 3, 3))
    fb = rng.normal(size=(5, 3, 3))
    corr_a, corr_b = _correlate(fa, fb)
    assert np.allclose(corr_a.reshape(9, 9), corr_b.reshape(9, 9).T, atol=1e-12)
    assert corr_a.min() >= -1.0 - 1e-9 and corr_a.max() <= 1.0 + 1e-9
    # cosine similarity against a direct computation
    unit_a = fa.reshape(5, 9) / np.linalg.norm(fa.reshape(5, 9), axis=0)
    unit_b = fb.reshape(5, 9) / np.linalg.norm(fb.reshape(5, 9), axis=0)
    assert np.allclose(corr_a.reshape(9, 9), unit_b.T @ unit_a, atol=1e-12)


def test_checkpoint_round_trip(tmp_path):
    cfg = SMALL
    params = init_params(cfg, seed=9)
    path = tmp_path / "net.ckpt"
    save_net(str(path), cfg, params)
    cfg2, params2 = load_net(str(path))
    assert cfg2 == cfg
    assert set(params2.values) == set(params.values)
    for name in params.values:
        assert np.array_equal(params2.values[name], params.values[name])
    for name in params.buffers:
        assert np.array_equal(params2.buffers[name], params.buffers[name])
    img_a, img_b = batch_of_pairs(16, 2)
    assert np.array_equal(
        forward_pair(img_a, img_b, params, cfg)[0], forward_pair(img_a, img_b, params2, cfg2)[0]
    )


@st.composite
def net_configs(draw):
    levels = draw(st.integers(1, 4))
    return NetConfig(
        input_size=draw(st.integers(1, 16)) * 2**levels,
        widths=tuple(draw(st.lists(st.integers(1, 512), min_size=levels, max_size=levels))),
        levels=levels,
        dense_connections=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(net_configs())
def test_config_header_round_trip(config):
    assert config_from_header(config_to_header(config)) == config
    # headers written while the network had a second, sigmoid head still load
    assert config_from_header(config_to_header(config) + "output_head = mask-sigmoid\n") == config


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.builds(lambda c, extra: config_to_header(c) + extra, net_configs(), st.text())))
def test_config_header_parses_or_is_corrupt(text):
    try:
        config = config_from_header(text)
    except CheckpointCorruptError:
        return
    assert config == config.validate()


def test_checkpoint_rejects_mismatched_names(tmp_path):
    cfg = SMALL
    bn_var_shape = init_params(cfg, seed=9).buffers["enc1.bn1.running_var"].shape
    damages = {
        "missing parameter": lambda p: p.values.pop("head.conv.bias"),
        "missing buffer": lambda p: p.buffers.pop("enc1.bn1.running_mean"),
        "wrong buffer shape": lambda p: p.buffers.update({"enc1.bn1.running_var": np.ones(bn_var_shape[0] + 1, np.float32)}),
        "extra buffer": lambda p: p.buffers.update({"enc1.bn1.stray": np.zeros(1, np.float32)}),
    }
    for name, damage in damages.items():
        params = init_params(cfg, seed=9)
        damage(params)
        path = tmp_path / "net.ckpt"
        save_net(str(path), cfg, params)
        try:
            load_net(str(path))
        except CheckpointCorruptError:
            continue
        pytest.fail(f"{name}: damaged checkpoint loaded")


def test_grad_check_net_small():
    assert grad_check_net(trials=12, seed=1) < 1e-3


def test_grad_check_net_fails_on_non_finite_loss(monkeypatch):
    import sndmseg.losses

    def nan_loss(pred, gt, weigh, cfg):
        return sndmseg.losses.LossReport(np.nan, np.full(np.shape(pred), np.nan))

    # grad_check_net imports the weighted loss when it runs, so the patch reaches it
    monkeypatch.setattr(sndmseg.losses, "loss_iou3d_weighted", nan_loss)
    assert np.isnan(grad_check_net(trials=2, seed=1))


def test_grad_check_net_rejects_bad_trials_and_seed():
    for trials in (0, -1):
        with pytest.raises(InvalidConfigError, match="trials must be >= 1"):
            grad_check_net(trials=trials)
    with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
        grad_check_net(trials=1, seed=-1)
