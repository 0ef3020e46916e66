import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sndmseg import autodiff as ad
from sndmseg import network
from sndmseg.errors import (
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
    forward_pair,
    init_params,
    load_net,
    save_net,
)
from sndmseg.raster import parse_key_values
from sndmseg.synth import GenConfig, gen_pair
from sndmseg.train import grad_check_net
from strategies import bn_relu_composite, noisy_forward, save_with_lying_header, weighted_sum, weighted_total, with_examples

SMALL = NetConfig(input_size=16, widths=(4, 6), levels=2)
ONE_LEVEL = NetConfig(input_size=8, widths=(3,), levels=1)
FOUR_LEVELS = NetConfig(input_size=32, widths=(4, 5, 6, 7), levels=4)


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
        NetConfig(input_size=60, widths=(4, 4, 4), levels=3)
    with pytest.raises(InvalidConfigError):
        NetConfig(widths=(4, 4), levels=3)
    with pytest.raises(InvalidConfigError):
        NetConfig(widths=(4, 0, 4))
    NetConfig()


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
        replace(ONE_LEVEL, dense_connections=dense),
        replace(FOUR_LEVELS, dense_connections=dense),
    ):
        params = init_params(cfg, seed=0)
        assert sum(v.size for v in params.values.values()) == expected_parameter_count(cfg)


def test_dense_toggle_keeps_encoder_identical():
    dense = init_params(NetConfig(dense_connections=True), seed=3)
    plain = init_params(NetConfig(dense_connections=False), seed=3)
    enc_dense = {n: v.shape for n, v in dense.values.items() if n.startswith("enc")}
    enc_plain = {n: v.shape for n, v in plain.values.items() if n.startswith("enc")}
    assert enc_dense == enc_plain
    assert {n for n in dense.values if n.startswith("adapt")} != {n for n in plain.values if n.startswith("adapt")}


def test_decoder_input_channel_wiring():
    cfg = NetConfig()
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
    # one pair is enough: train-mode batch norm takes its statistics over both branches
    pred, _ = build_forward(img_a, img_b, params, SMALL, mode="train")
    assert pred.shape == (2, 1, 16, 16) and np.isfinite(pred.data).all()
    for mode in ("train", "eval"):
        with pytest.raises(ShapeMismatchError, match="nonempty"):
            build_forward(img_a[:0], img_b[:0], params, SMALL, mode=mode)


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
    with pytest.raises(ShapeMismatchError, match=r"\(B, H, W, 3\)"):  # one unbatched pair
        forward_pair(img_a[0], img_b[0], params, SMALL)
    with pytest.raises(ShapeMismatchError, match="uint8"):  # 0-255 values, not 0-1
        forward_pair((img_a * 255).astype(np.uint8), (img_b * 255).astype(np.uint8), params, SMALL)


def _train_batch(cfg, seed=50):
    """Two pairs at the config's size with their joint SNDM targets: the A maps, then the B maps."""
    from sndmseg.sndm import sndm_encode

    samples = [gen_pair(seed + i, GenConfig(image_size=cfg.input_size)) for i in range(2)]
    img_a = np.stack([s.img_a for s in samples])
    img_b = np.stack([s.img_b for s in samples])
    masks = [s.mask_a for s in samples] + [s.mask_b for s in samples]
    return img_a, img_b, np.stack([sndm_encode(m) for m in masks])


def test_default_train_step_graph_holds_128_nodes():
    from sndmseg.losses import LOSSES, LossConfig

    cfg = NetConfig()
    img_a, img_b, gt = _train_batch(cfg)
    pred, _ = build_forward(img_a, img_b, init_params(cfg), cfg, mode="train")
    loss = ad.map_loss(pred, gt, LOSSES["iou3d-edge"], LossConfig())
    assert len(ad._topo_order(loss)) == 128


@pytest.mark.parametrize("cfg", [ONE_LEVEL, FOUR_LEVELS])
@pytest.mark.parametrize("dense", [True, False])
def test_one_and_four_level_nets_run_eval_and_a_train_step(cfg, dense):
    from sndmseg.losses import LossConfig, loss_iou3d_edge
    from sndmseg.sndm import sndm_encode

    cfg, size = replace(cfg, dense_connections=dense), cfg.input_size
    rng = np.random.default_rng(8)  # an 8 px net is below the synthetic pairs' 16 px minimum
    img_a, img_b = rng.random((2, 2, size, size, 3), dtype=np.float32)
    square = np.zeros((size, size), dtype=bool)
    square[size // 4 : 3 * size // 4, size // 4 : 3 * size // 4] = True
    gt = np.stack([sndm_encode(np.roll(square, shift, axis=1)) for shift in range(4)])
    params = init_params(cfg, seed=3)
    pred_a, pred_b = forward_pair(img_a, img_b, params, cfg)
    assert pred_a.shape == pred_b.shape == (2, size, size)
    assert np.isfinite(pred_a).all() and np.isfinite(pred_b).all()
    pred, param_tensors = build_forward(img_a, img_b, params, cfg, mode="train")
    assert pred.data.shape == (4, 1, size, size)
    ad.map_loss(pred, gt, loss_iou3d_edge, LossConfig()).backward()
    assert param_tensors.keys() == params.values.keys()
    for name, tensor in param_tensors.items():
        assert tensor.grad is not None and tensor.grad.shape == tensor.data.shape, name
        assert np.isfinite(tensor.grad).all(), name


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
    # each fused batch norm + relu holds the conv output and its own output, not a third array per block
    assert forward_bytes <= 24e6, forward_bytes
    # without release: peak about 2x the forward, and the whole graph plus its gradients still alive
    assert backward_peak <= 1.5 * forward_bytes, (backward_peak, forward_bytes)
    assert alive_bytes <= 0.1 * forward_bytes, (alive_bytes, forward_bytes)


def test_train_step_matches_the_composite_batch_norm_relu(monkeypatch):
    from sndmseg.losses import LossConfig, loss_iou3d_edge

    params = init_params(SMALL, seed=6).astype(np.float64)
    img_a, img_b, gt = (arr.astype(np.float64) for arr in _train_batch(SMALL))

    def step():
        run = params.clone()
        pred, param_tensors = build_forward(img_a, img_b, run, SMALL, mode="train")
        ad.map_loss(pred, gt, loss_iou3d_edge, LossConfig()).backward()
        return {**{name: t.grad for name, t in param_tensors.items()}, **run.buffers}

    fused = step()
    monkeypatch.setattr(ad, "batch_norm_relu", bn_relu_composite)
    composite = step()
    assert fused.keys() == composite.keys()
    largest = max(np.max(np.abs(want)) for want in composite.values())
    for name, want in composite.items():
        got = fused[name]
        if name.endswith(".bias") and name != "head.conv.bias":
            # a batch norm removes its input's mean, so the bias before it has zero gradient: both hold rounding noise
            assert max(np.max(np.abs(got)), np.max(np.abs(want))) <= 1e-12 * largest, name
        else:
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), name


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
    corr = ad.correlation(ad.Tensor(np.stack([feat_a, feat_b]).astype(np.float64))).data
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


# save_net(path, cfg, init_params(cfg, seed=0)): (file size, sha256) of the written checkpoint
CHECKPOINT_PINS = [
    (NetConfig(), 964529, "d7ec141f305cce69c99d23de81c80788a5244eef265ae5b64c001f27a2942b76"),
    (NetConfig(dense_connections=False), 875461, "53dbefda0e0f5d0e7ba49e37dbf4e6b8a7c3f231c6c9d82791e31fd858bd3995"),
    (SMALL, 27000, "cbe752677d0450a08e75bb57bf560892ef1e8cdfa8101e4284c84fe4ca87d52f"),
    (ONE_LEVEL, 5737, "bf64b1cc2e96d6c0905b76e486ef3840112f8e41b27301fa29c59b6125a37e26"),
    (replace(ONE_LEVEL, dense_connections=False), 5737, "1e873ae190c0c2d2bf48fc4efd8749ae19e872ab56f1228b7c69c392bec0e60e"),
    (FOUR_LEVELS, 110172, "ff2784477a82ea17774825eed3c8dc91804d5999a4bd63887147aa1d1678ae80"),
    (replace(FOUR_LEVELS, dense_connections=False), 38748, "daab7050cce1a1a1d56307796c943a2a3aa506add2ed303b4f4b382c16d9b54a"),
]


@pytest.mark.parametrize("cfg, size, digest", CHECKPOINT_PINS)
def test_save_net_bytes_are_pinned(tmp_path, cfg, size, digest):
    path = tmp_path / "net.ckpt"
    save_net(str(path), cfg, init_params(cfg, seed=0))
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


@st.composite
def net_configs(draw, max_levels=4, max_scale=16, max_width=512):
    levels = draw(st.integers(1, max_levels))
    return NetConfig(
        input_size=draw(st.integers(1, max_scale)) * 2**levels,
        widths=tuple(draw(st.lists(st.integers(1, max_width), min_size=levels, max_size=levels))),
        levels=levels,
        dense_connections=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None)
@given(net_configs())
def test_config_header_round_trip(config):
    assert config_from_header(config_to_header(config)) == config
    # headers written while the network had a second, sigmoid head still load
    assert config_from_header(config_to_header(config) + "output_head = mask-sigmoid\n") == config


# each case is the SMALL header with one field's value replaced
NONCANONICAL_HEADER_FIELDS = [
    ("dense_connections", "7"),
    ("dense_connections", "-1"),
    ("dense_connections", "true"),
    ("input_size", "1_6"),
    ("input_size", "+16"),
    ("input_size", "\uff11\uff16"),  # fullwidth digits, which int() reads as 16
    ("levels", "-2"),
    ("widths", "+4, 6"),
    ("widths", "4, 6"),
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.builds(lambda c, extra: config_to_header(c) + extra, net_configs(), st.text())))
@with_examples(
    [
        "".join(f"{name} = {value if name == key else old}\n" for name, old in parse_key_values(config_to_header(SMALL)).items())
        for key, value in NONCANONICAL_HEADER_FIELDS
    ]
)
def test_config_header_parses_or_is_corrupt(text):
    try:
        config = config_from_header(text)
    except CheckpointCorruptError:
        return
    # only the digits config_to_header writes load: no sign, underscore, inner space or non-ASCII digit
    fields = parse_key_values(text)
    assert fields["dense_connections"] in ("0", "1")
    for value in (fields["input_size"], fields["levels"], *fields["widths"].split(",")):
        assert value.isascii() and value.isdigit(), value
    assert config_from_header(config_to_header(config)) == config


def test_config_header_with_a_repeated_key_is_corrupt():
    # read key by key, this header is valid whichever dense_connections line wins
    header = config_to_header(SMALL) + f"dense_connections = {int(not SMALL.dense_connections)}\n"
    with pytest.raises(CheckpointCorruptError, match="5: repeated key 'dense_connections'"):
        config_from_header(header)


CHECKPOINT_DAMAGES = {
    "missing parameter": lambda p: p.values.pop("head.conv.bias"),
    "missing buffer": lambda p: p.buffers.pop("enc1.bn1.running_mean"),
    "wrong buffer shape": lambda p: p.buffers.update({"enc1.bn1.running_var": np.ones(SMALL.widths[0] + 1, np.float32)}),
    "extra buffer": lambda p: p.buffers.update({"enc1.bn1.stray": np.zeros(1, np.float32)}),
}


def damaged_params(damage):
    params = init_params(SMALL, seed=9)
    CHECKPOINT_DAMAGES[damage](params)
    return params


def test_checkpoint_rejects_mismatched_names(tmp_path, monkeypatch):
    path = tmp_path / "net.ckpt"
    for damage in CHECKPOINT_DAMAGES:
        params = damaged_params(damage)
        # save_net writes only what its layout declares, so the write alone declares the damaged tensors
        layout = {name: ("values", name, value.shape) for name, value in params.values.items()}
        layout.update({f"buffer:{name}": ("buffers", name, value.shape) for name, value in params.buffers.items()})
        with monkeypatch.context() as patch:
            patch.setattr(network, "_layout", lambda config: layout)
            save_net(str(path), SMALL, params)
        try:
            load_net(str(path))
        except CheckpointCorruptError:
            continue
        pytest.fail(f"{damage}: damaged checkpoint loaded")


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGES))
def test_save_net_refuses_params_the_config_does_not_declare(tmp_path, damage):
    path = tmp_path / "net.ckpt"
    with pytest.raises(ShapeMismatchError):
        save_net(str(path), SMALL, damaged_params(damage))
    assert not path.exists()


@pytest.fixture(scope="module")
def round_trip_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("round_trip") / "net.ckpt")


@settings(max_examples=60, deadline=None)
@given(config=net_configs(max_levels=3, max_scale=2, max_width=8), bits_seed=st.integers(0, 2**32 - 1))
def test_checkpoint_round_trip_is_bit_exact(round_trip_path, config, bits_seed):
    # every float32 bit pattern, NaN payloads, infinities and subnormals included, comes back unchanged
    rng = np.random.Generator(np.random.Philox(bits_seed))
    params = init_params(config)
    for store in (params.values, params.buffers):
        for name, value in store.items():
            store[name] = rng.integers(0, 2**32, size=value.shape, dtype=np.uint32).view(np.float32)
    save_net(round_trip_path, config, params)
    config_back, back = load_net(round_trip_path)
    assert config_back == config
    for store, store_back in ((params.values, back.values), (params.buffers, back.buffers)):
        assert list(store_back) == list(store)
        for name, value in store.items():
            assert store_back[name].dtype == np.float32 and store_back[name].flags.writeable, name
            assert np.array_equal(store_back[name].view(np.uint32), value.view(np.uint32)), name


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A scratch checkpoint path plus the bytes of the 16 px network's checkpoint."""
    path = tmp_path_factory.mktemp("small") / "net.ckpt"
    save_net(str(path), SMALL, init_params(SMALL, seed=9))
    return path, path.read_bytes()


def test_checkpoint_corruption(small_checkpoint):
    path, valid = small_checkpoint
    name_at = 12 + int.from_bytes(valid[8:12], "little") + 8  # the first tensor name follows the count and its length
    damaged = {
        "bad magic": b"NOPE" + valid[4:],
        "unsupported version": valid[:4] + (2).to_bytes(4, "little") + valid[8:],
        "truncated": valid[:-8],
        "trailing bytes": valid + b"junk",
        "empty": b"",
        "header not UTF-8": valid[:12] + b"\xff" + valid[13:],
        "tensor name not UTF-8": valid[:name_at] + b"\xff" + valid[name_at + 1 :],
    }
    for name, data in damaged.items():
        path.write_bytes(data)
        try:
            load_net(str(path))
        except CheckpointCorruptError:
            continue
        pytest.fail(f"{name}: damaged checkpoint loaded")


def test_checkpoint_with_a_repeated_tensor_is_corrupt(small_checkpoint):
    path, valid = small_checkpoint
    header_len = int.from_bytes(valid[8:12], "little")
    count_at = 12 + header_len
    count = int.from_bytes(valid[count_at : count_at + 4], "little")
    # the first record is enc1.conv1.weight: name length, name, ndim, shape, float32 payload
    name = b"enc1.conv1.weight"
    first = count_at + 4
    assert valid[first + 4 : first + 4 + len(name)] == name
    shape = init_params(SMALL).values["enc1.conv1.weight"].shape
    record = valid[first : first + 4 + len(name) + 4 + 4 * len(shape) + 4 * int(np.prod(shape))]
    repeated = valid[:count_at] + (count + 1).to_bytes(4, "little") + valid[count_at + 4 :] + record
    path.write_bytes(repeated)
    with pytest.raises(CheckpointCorruptError, match="enc1.conv1.weight"):
        load_net(str(path))


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(("noise", "after-magic", "mutated")),
    noise=st.binary(max_size=256),
    at=st.integers(0, 2**20),
    byte=st.integers(0, 255),
    cut=st.integers(0, 2**20),
)
def test_load_net_parses_or_raises_checkpoint_corrupt(small_checkpoint, kind, noise, at, byte, cut):
    path, valid = small_checkpoint
    if kind == "noise":
        data = noise
    elif kind == "after-magic":
        data = valid[:8] + noise
    else:  # the valid checkpoint with one byte set and a random cut
        mutated = bytearray(valid)
        mutated[at % len(mutated)] = byte
        data = bytes(mutated[: cut % (len(mutated) + 1)])
    path.write_bytes(data)
    try:
        load_net(str(path))
    except CheckpointCorruptError:
        pass


@pytest.mark.parametrize("input_size", [4096, 1048576])
def test_load_net_checks_shapes_without_building_the_declared_net(tmp_path, monkeypatch, input_size):
    path = str(tmp_path / "net.ckpt")
    save_with_lying_header(monkeypatch, path, input_size)
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointCorruptError, match="dec1.conv.weight"):
            load_net(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the declared dec1 weight alone is 604 MB at 4096
    assert peak < 20e6, peak


def test_grad_check_net_small():
    for seed in range(4):
        assert grad_check_net(trials=12, seed=seed) < 1e-3, seed


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_grad_check_net_at_one_pair_per_batch(monkeypatch, seed):
    import sndmseg.train as train_module

    real_stack_batch = train_module._stack_batch
    pairs = []

    def first_pair_only(records, targets, indices):
        img_a, img_b, gt = real_stack_batch(records, targets, indices[:1])
        pairs.append((len(img_a), img_a.dtype, len(gt)))
        return img_a, img_b, gt

    # grad_check_net stacks its pairs once; keeping one runs its float64 train-mode check at B = 1
    monkeypatch.setattr(train_module, "_stack_batch", first_pair_only)
    assert grad_check_net(trials=12, seed=seed) < 1e-3
    assert pairs == [(1, np.float32, 2)]


def test_grad_check_net_fails_on_non_finite_loss(monkeypatch):
    import sndmseg.losses

    def nan_loss(pred, gt, weigh, cfg):
        return sndmseg.losses.LossReport(np.nan, np.full(np.shape(pred), np.nan))

    # the edge loss looks up loss_iou3d_weighted in its module's globals, so the patch reaches it
    monkeypatch.setattr(sndmseg.losses, "loss_iou3d_weighted", nan_loss)
    assert np.isnan(grad_check_net(trials=2, seed=1))


def test_grad_check_net_fails_when_too_few_probes_are_checked(monkeypatch):
    # the noise swamps every central difference, so no probe passes the step-halving test
    noisy_forward(monkeypatch)
    assert grad_check_net(trials=3, seed=0) == np.inf


def test_grad_check_net_rejects_bad_trials_and_seed():
    for trials in (0, -1):
        with pytest.raises(InvalidConfigError, match="trials must be >= 1"):
            grad_check_net(trials=trials)
    with pytest.raises(InvalidConfigError, match="seed must be >= 0"):
        grad_check_net(trials=1, seed=-1)
