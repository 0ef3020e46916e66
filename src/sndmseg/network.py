"""Toy dense Siamese U-Net for co-object map regression.

Two images pass through one shared convolutional encoder (two 3x3
conv+BN+ReLU blocks per level, 2x2 max pool). At the bottleneck a
correlation block (:func:`autodiff.correlation`, one graph node)
computes, for every spatial position of one branch, its cosine
similarity to every position of the other branch; each branch then
decodes its own features. Decoder module 1 consumes the bottleneck
features concatenated with the branch's correlation map; every later
module consumes the matching encoder skip plus, through small
deconv+BN+ReLU resolution adapters, the outputs of preceding decoder
modules — all of them when dense connections are on, only the immediately
preceding one otherwise. The final 3x3 convolution reads the level-1
skip, one adapter output per source module and the raw input image as
its input's channel pieces, with no concatenated copy, and tanh maps its
output to the signed normalized distance map every loss trains on; the
mask is the sign of that map (:func:`sndm.sndm_decode`). One function,
:func:`_decoder`, states this wiring; :func:`_declare` and
:func:`build_forward` both read it. In train mode each batch norm and
the relu after it run as one fused graph node
(:func:`autodiff.batch_norm_relu`). In eval mode each batch norm is folded
into the weights and bias of the conv or deconv before it, and the relu
after it runs in place on the conv's output.

Both branches share every parameter, so swapping the two input images
swaps the two outputs exactly. They run as one joint batch from the input
to the prediction: branch A in items [0, B), branch B in items [B, 2B).
Training takes one loss over that joint prediction, the mean over both
branches; only the correlation block and :func:`forward_pair` split it.

A checkpoint (:func:`save_net`, :func:`load_net`) is the magic b"CKPT",
then the format version 1 and the header's byte length as 32-bit
little-endian unsigned integers, the UTF-8 ``key = value`` header of the
:class:`NetConfig`, and the tensor count. Each tensor follows as the byte
length and UTF-8 bytes of its name, its ndim, its shape (all 32-bit
little-endian unsigned) and its row-major little-endian float32 payload.
The parameter values come first and the batch-norm buffers, named with
the prefix ``buffer:``, second, each in ``_declare`` order; :func:`load_net`
takes the records in any order, but each declared tensor exactly once.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import (
    CheckpointCorruptError,
    InvalidConfigError,
    ShapeMismatchError,
    require_field_types,
)
from .raster import _atomic_write, _read_bytes, parse_key_values
from .seeding import seeded_rng

ADAPTER_CHANNELS = 16  # width of every dense-connection resolution adapter
CHECKPOINT_MAGIC = b"CKPT"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class NetConfig:
    input_size: int = 64
    widths: tuple = (16, 32, 64)
    levels: int = 3
    dense_connections: bool = True

    def __post_init__(self):
        require_field_types(self)
        if self.levels < 1 or len(self.widths) != self.levels:
            raise InvalidConfigError(f"need one width per level, got {self.widths} for {self.levels} levels")
        if any(w < 1 for w in self.widths):
            raise InvalidConfigError(f"widths must be positive, got {self.widths}")
        if self.input_size < 2**self.levels or self.input_size % 2**self.levels:
            raise InvalidConfigError(
                f"input_size {self.input_size} must be a positive multiple of 2^levels = {2**self.levels}"
            )

    @property
    def correlation_channels(self) -> int:  # one per bottleneck position
        return (self.input_size // 2**self.levels) ** 2


@dataclass
class NetParams:
    """Named trainable arrays plus batch-norm running-statistic buffers."""

    values: dict = field(default_factory=dict)
    buffers: dict = field(default_factory=dict)

    def clone(self) -> "NetParams":
        return NetParams(
            {k: v.copy() for k, v in self.values.items()},
            {k: v.copy() for k, v in self.buffers.items()},
        )

    def astype(self, dtype) -> "NetParams":
        return NetParams(
            {k: v.astype(dtype) for k, v in self.values.items()},
            {k: v.astype(dtype) for k, v in self.buffers.items()},
        )


def _decoder(cfg: NetConfig) -> list:
    """Decoder modules 1..L, then the head as module L + 1, each as ``(name, c_in, c_out, skip, sources)``.

    Module 1 reads the bottleneck and its correlation map (``skip`` None).
    Module m >= 2 reads encoder output ``skip`` and each source module src,
    ``(src, its width, the names of its m - src adapters)``: every earlier
    module when dense, else only m - 1. The head also reads the input image.
    """
    last = cfg.levels + 1
    modules = [("dec1", cfg.widths[-1] + cfg.correlation_channels, cfg.widths[-1], None, [])]
    for m in range(2, last + 1):
        skip = last - m  # encoder level L + 2 - m
        froms = range(1, m) if cfg.dense_connections else [m - 1]
        sources = [(src, modules[src - 1][2], [f"adapt.{src}to{m}.{s}" for s in range(m - src)]) for src in froms]
        c_in = cfg.widths[skip] + ADAPTER_CHANNELS * len(sources)
        modules.append(("head", c_in + 3, 1, skip, sources) if m == last else (f"dec{m}", c_in, cfg.widths[skip], skip, sources))
    return modules


def _declare(cfg: NetConfig) -> list:
    """Every parameter and buffer as ``(store, name, shape, init)``, in draw order.

    ``store`` is "values" or "buffers"; ``init`` is ``np.zeros``, ``np.ones``
    or the std of a normal draw. Shapes are tuples, so declaring a network
    of any size allocates no array.
    """
    specs = []

    def conv(name, c_out, c_in, k=3, gain=2.0):
        specs.append(("values", f"{name}.weight", (c_out, c_in, k, k), np.sqrt(gain / (c_in * k * k))))
        specs.append(("values", f"{name}.bias", (c_out,), np.zeros))

    def deconv(name, c_in, c_out):
        specs.append(("values", f"{name}.weight", (c_in, c_out, 2, 2), np.sqrt(2.0 / (c_in * 4))))
        specs.append(("values", f"{name}.bias", (c_out,), np.zeros))

    def bn(name, channels):
        specs.append(("values", f"{name}.gamma", (channels,), np.ones))
        specs.append(("values", f"{name}.beta", (channels,), np.zeros))
        specs.append(("buffers", f"{name}.running_mean", (channels,), np.zeros))
        specs.append(("buffers", f"{name}.running_var", (channels,), np.ones))

    c_prev = 3
    for i, width in enumerate(cfg.widths, start=1):
        conv(f"enc{i}.conv1", width, c_prev)
        bn(f"enc{i}.bn1", width)
        conv(f"enc{i}.conv2", width, width)
        bn(f"enc{i}.bn2", width)
        c_prev = width

    decoder = _decoder(cfg)
    for name, c_in, c_out, _, _ in decoder[:-1]:
        conv(f"{name}.conv", c_out, c_in)
        bn(f"{name}.bn", c_out)

    for *_, sources in decoder:
        for _, c_in, names in sources:
            for name in names:
                deconv(f"{name}.deconv", c_in, ADAPTER_CHANNELS)
                bn(f"{name}.bn", ADAPTER_CHANNELS)
                c_in = ADAPTER_CHANNELS

    name, c_in, c_out, *_ = decoder[-1]
    conv(f"{name}.conv", c_out, c_in, gain=1.0)
    return specs


def init_params(config: NetConfig, seed: int = 0) -> NetParams:
    """Deterministic fan-in-scaled initialization of all parameters."""
    rng = seeded_rng(seed)
    params = NetParams()
    for store, name, shape, init in _declare(config):
        value = init(shape, dtype=np.float32) if callable(init) else rng.normal(0.0, init, size=shape).astype(np.float32)
        getattr(params, store)[name] = value
    return params


def _as_batch(images, size: int, name: str) -> np.ndarray:
    """One branch's (B, H, W, 3) float images at ``size``; B >= 1 in both modes, since batch norm pools both branches."""
    arr = np.asarray(images)
    if arr.ndim != 4 or arr.shape[0] < 1 or arr.shape[3] != 3 or arr.dtype not in (np.float32, np.float64):
        raise ShapeMismatchError(f"{name} must be a nonempty float32 or float64 (B, H, W, 3) batch, got {arr.dtype} {arr.shape}")
    if arr.shape[1] != size or arr.shape[2] != size:
        raise ShapeMismatchError(f"{name} spatial shape {arr.shape[1:3]} != configured {size}x{size}")
    return arr


def build_forward(img_a, img_b, params: NetParams, config: NetConfig, mode: str = "eval"):
    """Run both branches as one joint batch; return ``(pred, param_tensors)``.

    ``pred`` is the (2B, 1, H, W) prediction tensor with branch A in items
    [0, B) and branch B in items [B, 2B), so one loss over ``pred`` and the
    A targets stacked on the B targets is the mean over both branches.
    ``param_tensors`` maps each parameter name to its graph node.

    Train mode records the graph for every parameter and runs each batch
    norm with the relu after it as one fused op, which normalizes with
    batch statistics and updates the running buffers in place. Eval mode
    records no graph: it folds every batch norm into the conv or deconv
    before it and runs no batch-norm pass.
    """
    if mode not in ("train", "eval"):
        raise InvalidConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    training = mode == "train"
    a = _as_batch(img_a, config.input_size, "img_a")
    b = _as_batch(img_b, config.input_size, "img_b")
    if a.shape != b.shape:
        raise ShapeMismatchError(f"image batches differ: {a.shape} vs {b.shape}")
    dtype = a.dtype

    pt = {name: ad.Tensor(value, requires_grad=training) for name, value in params.values.items()}

    def normalized(op, x, layer, bn, out_axis):
        """relu(batch_norm(op(x))) for the conv or deconv ``layer`` and its batch norm ``bn``."""
        weight, bias, gamma, beta = pt[f"{layer}.weight"], pt[f"{layer}.bias"], pt[f"{bn}.gamma"], pt[f"{bn}.beta"]
        mean, var = params.buffers[f"{bn}.running_mean"], params.buffers[f"{bn}.running_var"]
        if not training:
            folded = ad.fold_batch_norm(weight.data, bias.data, gamma.data, beta.data, mean, var, out_axis)
            y = op(x, *map(ad.Tensor, folded))
            np.maximum(y.data, 0, out=y.data)  # the fresh conv output has no other reader
            return y
        return ad.batch_norm_relu(op(x, weight, bias), gamma, beta, mean, var)

    def conv_bn_relu(x, conv_name, bn_name):
        return normalized(ad.conv2d, x, conv_name, bn_name, out_axis=0)

    def adapter(x, names):
        for name in names:
            x = normalized(ad.conv_transpose2d, x, f"{name}.deconv", f"{name}.bn", out_axis=1)
        return x

    # joint batch: branch A occupies items [0, B), branch B items [B, 2B)
    joint = np.concatenate([a, b], axis=0).transpose(0, 3, 1, 2).astype(dtype, copy=False)
    x = ad.Tensor(joint)
    skips = []
    for i in range(1, config.levels + 1):
        x = conv_bn_relu(x, f"enc{i}.conv1", f"enc{i}.bn1")
        x = conv_bn_relu(x, f"enc{i}.conv2", f"enc{i}.bn2")
        skips.append(x)
        x = ad.max_pool2(x)
    bottleneck = x

    outputs = []
    for name, _, _, skip, sources in _decoder(config):
        pieces = [bottleneck, ad.correlation(bottleneck)] if skip is None else [skips[skip]]
        pieces += [adapter(outputs[src - 1], names) for src, _, names in sources]
        if name != "head":
            outputs.append(conv_bn_relu(ad.concat(pieces, axis=1), f"{name}.conv", f"{name}.bn"))
    # the head's pieces: the level-1 skip, then one adapter output per source module
    head = ad.head_conv([*pieces, ad.Tensor(joint)], pt["head.conv.weight"], pt["head.conv.bias"])
    return ad.tanh(head), pt


def forward_pair(img_a, img_b, params: NetParams, config: NetConfig):
    """Eval-mode predicted maps for both images as (B, H, W) float arrays.

    Splits the joint prediction of :func:`build_forward`: its first B items
    are branch A, the rest branch B.
    """
    pred, _ = build_forward(img_a, img_b, params, config, mode="eval")
    batch = pred.data.shape[0] // 2
    return pred.data[:batch, 0], pred.data[batch:, 0]


# ---------------------------------------------------------------------------
# checkpoint


def config_to_header(config: NetConfig) -> str:
    widths = ",".join(str(w) for w in config.widths)
    return (
        f"input_size = {config.input_size}\nwidths = {widths}\n"
        f"levels = {config.levels}\ndense_connections = {int(config.dense_connections)}\n"
    )


def config_from_header(text: str) -> NetConfig:
    """Keys the config does not read are ignored, so older headers that still name an output head load."""
    try:
        fields = parse_key_values(text)
        # only what config_to_header writes: int() would also take a sign, "1_6" or non-ASCII digits
        numbers = [fields["input_size"], fields["levels"], *fields["widths"].split(",")]
        bad = [v for v in numbers if not (v.isascii() and v.isdigit())]
        if bad or fields["dense_connections"] not in ("0", "1"):
            raise ValueError(f"integers must be ASCII decimal digits and dense_connections 0 or 1, got {bad or fields['dense_connections']!r}")
        input_size, levels, *widths = map(int, numbers)
        return NetConfig(input_size=input_size, widths=tuple(widths), levels=levels, dense_connections=fields["dense_connections"] == "1")
    except (KeyError, ValueError, InvalidConfigError) as exc:
        raise CheckpointCorruptError(f"bad checkpoint header: {exc}") from exc


def _layout(config: NetConfig) -> dict:
    """File key -> ``(store, name, shape)`` of every declared tensor: values, then ``buffer:`` buffers, each in ``_declare`` order."""
    return {
        name if store == "values" else f"buffer:{name}": (store, name, shape)
        for store, name, shape, _ in sorted(_declare(config), key=lambda spec: spec[0] == "buffers")
    }


def save_net(path: str, config: NetConfig, params: NetParams) -> None:
    """Write ``config`` and ``params`` in the checkpoint layout of the module docstring.

    ``params`` must hold exactly the tensors ``config`` declares, each in
    its declared shape; otherwise nothing is written and the call raises
    ``ShapeMismatch``.
    """
    layout = _layout(config)
    tensors = {**params.values, **{f"buffer:{name}": value for name, value in params.buffers.items()}}
    if tensors.keys() != layout.keys():
        missing, extra = sorted(layout.keys() - tensors.keys()), sorted(tensors.keys() - layout.keys())
        raise ShapeMismatchError(f"params do not match the config: missing {missing[:3]}, undeclared {extra[:3]}")
    header = config_to_header(config).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(header)), header, struct.pack("<I", len(layout))]
    for key, (_, _, shape) in layout.items():
        arr = np.asarray(tensors[key], dtype="<f4")  # tobytes() is row-major
        if arr.shape != shape:
            raise ShapeMismatchError(f"tensor {key!r} has shape {arr.shape}, the config declares {shape}")
        encoded = key.encode("utf-8")
        chunks += [struct.pack(f"<I{len(encoded)}sI{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape), arr.tobytes()]
    _atomic_write(path, b"".join(chunks))


def load_net(path: str):
    """Read a checkpoint into ``(config, params)`` in one pass.

    Each tensor record is checked against the header config's ``_layout``
    before its payload is copied, so an undeclared, repeated or
    mis-shaped tensor fails at its own record, and a huge declared network
    allocates nothing.
    """
    stream = io.BytesIO(_read_bytes(path))

    def take(size: int) -> bytes:
        chunk = stream.read(size)
        if len(chunk) != size:
            raise CheckpointCorruptError(f"{path}: truncated after byte {stream.tell()}")
        return chunk

    def uints(count: int) -> tuple:
        return struct.unpack(f"<{count}I", take(4 * count))

    try:
        if take(8) != CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION):
            raise CheckpointCorruptError(f"{path}: not a version {CHECKPOINT_VERSION} checkpoint (bad magic or version)")
        (header_len,) = uints(1)
        config = config_from_header(take(header_len).decode("utf-8"))
        pending = _layout(config)  # each tensor record pops its entry
        params = NetParams()
        (count,) = uints(1)
        for _ in range(count):
            (name_len,) = uints(1)
            key = take(name_len).decode("utf-8")
            (ndim,) = uints(1)
            shape = uints(ndim)
            if key not in pending:
                raise CheckpointCorruptError(f"{path}: tensor {key!r} is repeated or not declared by the header")
            store, name, declared = pending.pop(key)
            if shape != declared:
                raise CheckpointCorruptError(f"{path}: tensor {key!r} has shape {shape}, header declares {declared}")
            payload = np.frombuffer(take(4 * math.prod(shape)), dtype="<f4")
            getattr(params, store)[name] = payload.reshape(shape).astype(np.float32)
    except UnicodeDecodeError as exc:
        raise CheckpointCorruptError(f"{path}: {exc}") from exc
    if pending:
        raise CheckpointCorruptError(f"{path}: missing tensors {sorted(pending)[:3]}")
    if stream.read(1):
        raise CheckpointCorruptError(f"{path}: trailing bytes after the last tensor")
    return config, params
