"""Hypothesis strategies and helpers shared by the test modules."""

import numpy as np
from hypothesis import example
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sndmseg.autodiff as ad
from sndmseg import network
from sndmseg.losses import LossReport
from sndmseg.synth import GenConfig, gen_dataset


@st.composite
def masks(draw, max_side=40):
    """Masks of odd and even sizes down to 1-px strips: random bits, or a rectangle that may touch the border."""
    height, width = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    if draw(st.booleans()):
        return draw(hnp.arrays(np.bool_, (height, width)))
    top, left = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
    mask = np.zeros((height, width), dtype=bool)
    mask[top : draw(st.integers(top + 1, height)), left : draw(st.integers(left + 1, width))] = True
    return mask


def two_class_masks(max_side=40):
    """Masks with both foreground and background, the domain of the SNDM codec."""
    return masks(max_side).filter(lambda m: m.any() and not m.all())


def with_examples(cases):
    """Run each fixed case as a Hypothesis ``@example``."""

    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test

    return decorate


def weighted_sum(y, mult=1.0):
    """sum(mult * y) as a scalar graph node: ``map_loss`` of y's values with a linear loss whose gradient is ``mult``."""
    n = y.data.size
    weights = np.broadcast_to(mult, y.shape).reshape(1, n)

    def linear(pred, gt):
        return LossReport(float(np.sum(weights * pred)), weights)

    return ad.map_loss(reshape(y, (1, 1, 1, n)), np.zeros((1, 1, n)), linear)


def reshape(x, shape):
    """``x`` viewed in ``shape`` as a graph node; its gradient is the output's, viewed back."""
    old = x.data.shape
    return ad._node(x.data.reshape(shape), (x,), lambda g: x.accumulate(g.reshape(old)))


def transpose(x, axes):
    """``x`` with its axes permuted as a graph node; its gradient is the output's, permuted back."""
    inverse = tuple(np.argsort(axes))
    return ad._node(x.data.transpose(axes), (x,), lambda g: x.accumulate(g.transpose(inverse)))


def bn_relu_composite(x, gamma, beta, running_mean, running_var):
    """The two-node reference of ``ad.batch_norm_relu``: ``relu(batch_norm(x, training=True))``."""
    return ad.relu(ad.batch_norm(x, gamma, beta, running_mean, running_var, training=True))


def correlation_composite(joint):
    """The eight-node reference of ``ad.correlation``: normalize, flatten, swap the branches, one batched matmul."""
    items, channels, height, width = joint.data.shape
    batch, hw = items // 2, height * width
    flat = reshape(ad.l2_normalize(joint, axis=1), (items, channels, hw))
    other = ad.concat([ad.slice_batch(flat, batch, items), ad.slice_batch(flat, 0, batch)], axis=0)
    return reshape(ad.matmul(transpose(other, (0, 2, 1)), flat), (items, hw, height, width))


def weighted_total(scalars, weights):
    """sum(w * s) over scalar nodes, joined by a concat of their (1, 1) reshapes in the given order."""
    return weighted_sum(ad.concat([reshape(s, (1, 1)) for s in scalars]), weights)


def save_with_lying_header(monkeypatch, path, input_size):
    """The default network's checkpoint, written by the real ``save_net`` under a header that declares ``input_size``."""
    honest = network.config_to_header

    def lying(config):
        return honest(config).replace("input_size = 64\n", f"input_size = {input_size}\n")

    with monkeypatch.context() as patch:
        patch.setattr(network, "config_to_header", lying)
        network.save_net(path, network.NetConfig(), network.init_params(network.NetConfig()))


def mixed_size_dataset(root):
    """A dataset directory under ``root`` whose manifest lists a 16 px pair, then a 32 px pair."""
    data, big = root / "data", root / "big"
    (small_row,) = gen_dataset(3, GenConfig(image_size=16), 1, str(data))
    (big_row,) = gen_dataset(3, GenConfig(image_size=32), 1, str(big))
    for name in big_row[1:]:
        (data / f"big_{name}").write_bytes((big / name).read_bytes())
    rows = [small_row, ("pair_0001", *(f"big_{name}" for name in big_row[1:]))]
    (data / "manifest.tsv").write_text("".join("\t".join(row) + "\n" for row in rows))
    return data


def noisy_forward(monkeypatch, scale=1e-7):
    """Give every ``build_forward`` call of ``sndmseg.train`` (the train-mode forwards) fresh noise, as a nondeterministic kernel would."""
    import sndmseg.train as train_module

    real_build_forward = train_module.build_forward
    rng = np.random.default_rng(0)

    def build_forward_with_noise(*args, **kwargs):
        pred, tensors = real_build_forward(*args, **kwargs)
        pred.data += scale * rng.standard_normal(pred.data.shape)
        return pred, tensors

    monkeypatch.setattr(train_module, "build_forward", build_forward_with_noise)
