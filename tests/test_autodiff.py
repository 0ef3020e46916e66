import os
import signal
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import sndmseg.autodiff as ad
from sndmseg.errors import NoForwardPassError, ShapeMismatchError
from sndmseg.losses import LossReport
from strategies import bn_relu_composite, correlation_composite, reshape, transpose, weighted_sum, weighted_total

def seeded(seed: int) -> np.random.Generator:
    """A test's own generator, so what it draws does not depend on which tests ran before it."""
    return np.random.Generator(np.random.Philox(seed))


def finite_difference_check(make_graph, arrays, rng, samples=6, step=1e-6):
    """Max error of analytic grads vs central differences at probe points drawn from ``rng``, float64 arrays."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    make_graph(tensors).backward()
    worst = 0.0
    for which, tensor in enumerate(tensors):
        for _ in range(min(samples, tensor.data.size)):
            idx = np.unravel_index(int(rng.integers(tensor.data.size)), tensor.data.shape)

            def value(eps):
                probe = [a.copy() for a in arrays]
                probe[which][idx] += eps
                return float(make_graph([ad.Tensor(p) for p in probe]).data)

            numeric = (value(step) - value(-step)) / (2 * step)
            analytic = float(tensor.grad[idx])
            worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-4))
    return worst


def test_relu_tanh_fixtures():
    x = ad.Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    y = weighted_sum(ad.relu(x))
    assert y.data == 2.0
    y.backward()
    assert x.grad.tolist() == [0.0, 1.0]
    assert ad.tanh(ad.Tensor(np.array([0.0]))).data.tolist() == [0.0]


def test_conv_delta_kernel_is_identity():
    rng = seeded(101)
    x = ad.Tensor(rng.normal(size=(1, 1, 6, 6)))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0
    y = ad.conv2d(x, ad.Tensor(w), ad.Tensor(np.zeros(1)))
    assert np.allclose(y.data, x.data, atol=1e-12)


def test_accumulate_keeps_the_array_it_is_handed_then_adds_in_place():
    x = ad.Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
    first, second = np.ones((2, 3), np.float32), np.full((2, 3), 2.0, np.float32)
    x.accumulate(first)
    assert x.grad is first
    x.accumulate(second)
    assert x.grad is first and np.array_equal(first, np.full((2, 3), 3.0, np.float32))


def test_backward_requires_scalar():
    rng = seeded(102)
    x = ad.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ShapeMismatchError):
        ad.relu(x).backward()


def test_backward_requires_recorded_graph():
    with pytest.raises(NoForwardPassError):
        ad.Tensor(np.array(1.0), requires_grad=True).backward()


def test_elementwise_and_structural_gradients():
    rng = seeded(103)
    x = rng.normal(size=(2, 3, 6, 6))
    mult = rng.normal(size=(2, 3, 6, 6))
    checks = {
        "relu": lambda ts: weighted_sum(ad.relu(ts[0]), mult),
        "tanh": lambda ts: weighted_sum(ad.tanh(ts[0]), mult),
        "l2norm": lambda ts: weighted_sum(ad.l2_normalize(ts[0], axis=1), mult),
    }
    for name, graph in checks.items():
        assert finite_difference_check(graph, [x], rng) < 1e-6, name


def test_concat_slice_transpose_reshape_gradients():
    rng = seeded(104)
    x = rng.normal(size=(2, 3, 4, 4))
    y = rng.normal(size=(2, 2, 4, 4))
    mult = rng.normal(size=(1, 5, 4, 4))
    graph = lambda ts: weighted_sum(ad.slice_batch(ad.concat([ts[0], ts[1]], axis=1), 0, 1), mult)  # noqa: E731
    assert finite_difference_check(graph, [x, y], rng) < 1e-6
    tr = rng.normal(size=(2, 3, 5))
    mult2 = rng.normal(size=(2, 15))
    graph2 = lambda ts: weighted_sum(reshape(transpose(ts[0], (0, 2, 1)), (2, 15)), mult2)  # noqa: E731
    assert finite_difference_check(graph2, [tr], rng) < 1e-6


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch, channels, height, width", [(1, 5, 3, 3), (4, 8, 4, 4), (4, 6, 2, 5)])
def test_correlation_matches_the_composite_bitwise(dtype, batch, channels, height, width):
    rng = seeded(112)
    x = rng.normal(size=(2 * batch, channels, height, width)).astype(dtype)
    mult = rng.normal(size=(2 * batch, channels + height * width, height, width)).astype(dtype)
    results = []
    for op in (ad.correlation, correlation_composite):
        joint = ad.Tensor(x.copy(), requires_grad=True)
        corr = op(joint)
        # as in the network, the output's gradient arrives as a channel slice of a concat's gradient
        weighted_sum(ad.concat([ad.Tensor(x), corr], axis=1), mult).backward()
        results.append((corr.data, joint.grad))
    (data, grad), (want_data, want_grad) = results
    assert data.dtype == grad.dtype == dtype and data.shape == (2 * batch, height * width, height, width)
    assert data.tobytes() == want_data.tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_correlation_gradients():
    rng = seeded(113)
    x = rng.normal(size=(4, 5, 2, 3))
    mult = rng.normal(size=(4, 6, 2, 3))
    assert finite_difference_check(lambda ts: weighted_sum(ad.correlation(ts[0]), mult), [x], rng) < 1e-6


def test_concat_piece_with_a_second_consumer():
    rng = seeded(105)
    # an encoder skip feeds both a decoder concat and the next max pool
    x = rng.normal(size=(2, 3, 4, 4))
    y = rng.normal(size=(2, 2, 4, 4))
    mult = rng.normal(size=(2, 5, 4, 4))
    mult_pool = rng.normal(size=(2, 3, 2, 2))

    def branches(ts):
        skip = ad.tanh(ts[0])
        joined = weighted_sum(ad.concat([skip, ts[1]], axis=1), mult)
        pooled = weighted_sum(ad.max_pool2(skip), mult_pool)
        return [joined, pooled]

    # both orders, so either backward can be the one that finds the gradient already set
    assert finite_difference_check(lambda ts: weighted_total(branches(ts), 1.0), [x, y], rng) < 1e-6
    assert finite_difference_check(lambda ts: weighted_total(branches(ts)[::-1], 1.0), [x, y], rng) < 1e-6
    # the pieces keep views of the one gradient buffer the concat received instead of copies
    a, b = ad.Tensor(x, requires_grad=True), ad.Tensor(y, requires_grad=True)
    joined = ad.concat([a, b], axis=1)
    weighted_sum(joined, mult).backward()
    assert a.grad.base is not None and a.grad.base is b.grad.base
    assert np.array_equal(a.grad, mult[:, :3]) and np.array_equal(b.grad, mult[:, 3:])


def test_backward_releases_the_graph():
    rng = seeded(106)

    def sq(pred, gt, cfg):
        diff = pred - gt
        return LossReport(float((diff * diff).sum()), 2.0 * diff)

    arrays = [
        rng.normal(size=(2, 2, 4, 4)),  # x
        rng.normal(size=(3, 2, 3, 3)) * 0.5,  # conv weight
        rng.normal(size=(3,)),  # conv bias
        rng.normal(size=(3,)),  # gamma
        rng.normal(size=(3,)),  # beta
        rng.normal(size=(3, 2, 2, 2)) * 0.5,  # deconv weight
        rng.normal(size=(2,)),  # deconv bias
        rng.normal(size=(1, 5, 3, 3)) * 0.5,  # head weight
        rng.normal(size=(1,)),  # head bias
    ]
    targets = rng.normal(size=(2, 4, 4))

    # the two-node batch norm + relu of the reference, then the fused op the network trains with
    for block, op_count in ((bn_relu_composite, 9), (ad.batch_norm_relu, 8)):
        built = []

        def graph(ts):
            x, w, b, gamma, beta, wt, bt, wh, bh = ts
            # the skip h feeds both the concat and the max pool, as an encoder level does
            h = block(ad.conv2d(x, w, b), gamma, beta, np.zeros(3), np.ones(3))
            up = ad.conv_transpose2d(ad.max_pool2(h), wt, bt)
            loss = ad.map_loss(ad.tanh(ad.conv2d(ad.concat([h, up]), wh, bh)), targets, sq, None)
            built.append((loss, [n for n in ad._topo_order(loss) if n._backward is not None]))
            return loss

        assert finite_difference_check(graph, arrays, rng) < 1e-6, block
        loss, ops = built[0]
        assert len(ops) == op_count, block
        for node in ops:
            assert node.grad is None and node._backward is None and node._parents == ()
        with pytest.raises(NoForwardPassError):
            loss.backward()


def test_matmul_gradients():
    rng = seeded(107)
    a = rng.normal(size=(2, 4, 3))
    b = rng.normal(size=(2, 3, 5))
    mult = rng.normal(size=(2, 4, 5))
    graph = lambda ts: weighted_sum(ad.matmul(ts[0], ts[1]), mult)  # noqa: E731
    assert finite_difference_check(graph, [a, b], rng) < 1e-6


def test_conv2d_gradients_both_routes():
    rng = seeded(108)
    x = rng.normal(size=(2, 5, 6, 6))
    mult_wide = rng.normal(size=(2, 4, 6, 6))
    w_wide = rng.normal(size=(4, 5, 3, 3)) * 0.5
    b_wide = rng.normal(size=(4,))
    graph = lambda ts: weighted_sum(ad.conv2d(ts[0], ts[1], ts[2]), mult_wide)  # noqa: E731
    assert finite_difference_check(graph, [x, w_wide, b_wide], rng) < 1e-6
    # single-output-channel head route
    mult_head = rng.normal(size=(2, 1, 6, 6))
    w_head = rng.normal(size=(1, 5, 3, 3)) * 0.5
    b_head = rng.normal(size=(1,))
    graph2 = lambda ts: weighted_sum(ad.head_conv([ts[0]], ts[1], ts[2]), mult_head)  # noqa: E731
    assert finite_difference_check(graph2, [x, w_head, b_head], rng) < 1e-6
    # conv2d with one output channel takes the patch route and agrees with the head
    via_patches = ad.conv2d(*map(ad.Tensor, (x, w_head, b_head))).data
    via_head = ad.head_conv([ad.Tensor(x)], ad.Tensor(w_head), ad.Tensor(b_head)).data
    assert np.max(np.abs(via_patches - via_head)) <= 1e-12 * np.max(np.abs(via_head))


@pytest.mark.parametrize("c_in, c_out", [(3, 6), (6, 3)])
def test_conv2d_gradients_non_square(c_in, c_out):
    rng = seeded(109)
    # the patch workspace holds C_in taps forward and C_out taps for dX
    x = rng.normal(size=(3, c_in, 5, 7))
    w = rng.normal(size=(c_out, c_in, 3, 3)) * 0.5
    b = rng.normal(size=(c_out,))
    mult = rng.normal(size=(3, c_out, 5, 7))
    graph = lambda ts: weighted_sum(ad.conv2d(ts[0], ts[1], ts[2]), mult)  # noqa: E731
    assert finite_difference_check(graph, [x, w, b], rng, samples=12) < 1e-6


def test_conv2d_im2col_float32_matches_float64():
    rng = seeded(110)
    x = rng.normal(size=(3, 7, 10, 12))
    w = rng.normal(size=(5, 7, 3, 3)) * 0.5
    b = rng.normal(size=(5,))
    mult = rng.normal(size=(3, 5, 10, 12))

    def run(dtype):
        ts = [ad.Tensor(a.astype(dtype), requires_grad=True) for a in (x, w, b)]
        y = ad.conv2d(*ts)
        weighted_sum(y, mult.astype(dtype)).backward()
        return [y.data] + [t.grad for t in ts]

    for got, want in zip(run(np.float32), run(np.float64)):
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


def _padded_head_reference(x, w, b, g):
    """The head conv, its input gradient and its weight gradient over an explicitly zero-padded input."""
    batch, _, height, width = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.zeros((batch, 1, height, width)) + b[0]
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for di in range(3):
        for dj in range(3):
            window = xp[:, :, di : di + height, dj : dj + width]
            y[:, 0] += np.einsum("c,bchw->bhw", w[0, :, di, dj], window)
            dw[0, :, di, dj] = np.einsum("bhw,bchw->c", g[:, 0], window)
            dxp[:, :, di : di + height, dj : dj + width] += np.einsum("c,bhw->bchw", w[0, :, di, dj], g[:, 0])
    return y, dxp[:, :, 1:-1, 1:-1], dw


@pytest.mark.parametrize("height, width", [(1, 1), (1, 5), (5, 1), (3, 7), (64, 64)])
def test_conv2d_head_matches_padded_reference(height, width):
    rng = seeded(height * 100 + width)
    x = rng.normal(size=(3, 5, height, width))
    w = rng.normal(size=(1, 5, 3, 3))
    b = rng.normal(size=(1,))
    g = rng.normal(size=(3, 1, height, width))
    want_y, want_dx, want_dw = _padded_head_reference(x, w, b, g)
    # head_conv on the whole input as one piece, then on pieces whose channels make it up;
    # piece index 1 of the three is frozen data and must get no gradient
    for sizes in ((5,), (2, 1, 2), (4, 1)):
        cuts = np.cumsum(sizes)[:-1]
        frozen = 1 if len(sizes) == 3 else None
        pieces = [ad.Tensor(p, requires_grad=k != frozen) for k, p in enumerate(np.split(x, cuts, axis=1))]
        wt, bt = ad.Tensor(w, requires_grad=True), ad.Tensor(b, requires_grad=True)
        y = ad.head_conv(pieces, wt, bt)
        y._backward(g)
        checks = [(y.data, want_y), (wt.grad, want_dw)]
        for k, (piece, want) in enumerate(zip(pieces, np.split(want_dx, cuts, axis=1))):
            if k == frozen:
                assert piece.grad is None, sizes
            else:
                checks.append((piece.grad, want))
                # dX is the unpadded piece's shape, laid out contiguously
                assert piece.grad.flags.c_contiguous, sizes
        for got, want in checks:
            assert got.shape == want.shape, sizes
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0), sizes
        assert np.isclose(bt.grad[0], g.sum(), rtol=1e-12), sizes


def test_head_conv_rejects_pieces_that_do_not_fit():
    w, b = ad.Tensor(np.ones((1, 5, 3, 3))), ad.Tensor(np.zeros(1))
    good = ad.Tensor(np.ones((2, 3, 4, 4)))
    for other in (np.ones((2, 3, 4, 4)), np.ones((2, 2, 4, 5)), np.ones((1, 2, 4, 4)), np.ones((2, 2, 4))):
        with pytest.raises(ShapeMismatchError):
            ad.head_conv([good, ad.Tensor(other)], w, b)
    with pytest.raises(ShapeMismatchError):  # a wide weight is not a head
        ad.head_conv([good, ad.Tensor(np.ones((2, 2, 4, 4)))], ad.Tensor(np.ones((2, 5, 3, 3))), ad.Tensor(np.zeros(2)))


@pytest.mark.parametrize(
    "op",
    [
        lambda x: ad.conv2d(x, ad.Tensor(np.ones((2, 3, 3, 3))), ad.Tensor(np.zeros(2))),
        lambda x: ad.head_conv([x], ad.Tensor(np.ones((1, 3, 3, 3))), ad.Tensor(np.zeros(1))),
        lambda x: ad.conv_transpose2d(x, ad.Tensor(np.ones((3, 2, 2, 2))), ad.Tensor(np.zeros(2))),
        ad.max_pool2,
    ],
    ids=["conv2d", "head_conv", "conv_transpose2d", "max_pool2"],
)
@pytest.mark.parametrize("shape", [(3, 4, 4), (1, 3, 4, 4, 1)])
def test_spatial_ops_reject_input_that_is_not_4d(op, shape):
    with pytest.raises(ShapeMismatchError, match="must be"):
        op(ad.Tensor(np.ones(shape)))


@pytest.mark.parametrize("op, weight_shape, out_axis", [(ad.conv2d, (4, 3, 3, 3), 0), (ad.conv_transpose2d, (3, 4, 2, 2), 1)])
def test_fold_batch_norm_matches_eval_batch_norm(op, weight_shape, out_axis):
    rng = seeded(61)
    x = rng.normal(size=(2, 3, 5, 6))
    w = rng.normal(size=weight_shape)
    b = rng.normal(size=4)
    gamma = rng.normal(size=4) * 1.5
    beta = rng.normal(size=4)
    mean = rng.normal(size=4) * 2.0
    var = np.abs(rng.normal(size=4)) * 3.0 + 0.05
    for dtype, tol in ((np.float64, 1e-12), (np.float32, 1e-5)):
        cast = [a.astype(dtype) for a in (x, w, b, gamma, beta, mean, var)]
        xt, wt, bt, gt, bet = map(ad.Tensor, cast[:5])
        oracle = ad.batch_norm(op(xt, wt, bt), gt, bet, cast[5].copy(), cast[6].copy(), training=False).data
        folded_w, folded_b = ad.fold_batch_norm(*cast[1:], out_axis=out_axis)
        assert folded_w.dtype == dtype and folded_b.dtype == dtype
        got = op(xt, ad.Tensor(folded_w), ad.Tensor(folded_b)).data
        assert np.max(np.abs(got - oracle)) <= tol * np.max(np.abs(oracle)), dtype


def test_max_pool_without_gradient_gives_the_same_bytes():
    rng = seeded(111)
    x = rng.normal(size=(2, 3, 6, 8)).astype(np.float32)
    x[0, 0, :2, :2] = 1.5  # a tied window
    with_grad = ad.max_pool2(ad.Tensor(x, requires_grad=True))
    without = ad.max_pool2(ad.Tensor(x))
    assert without.data.tobytes() == with_grad.data.tobytes()
    assert without._backward is None and with_grad._backward is not None


def test_conv2d_batch_item_equals_item_alone_bitwise():
    # the Siamese A/B swap is bit-exact only if an item's conv ignores its batch neighbors
    rng = seeded(3)
    x = rng.normal(size=(4, 6, 9, 8)).astype(np.float32)
    w = ad.Tensor(rng.normal(size=(5, 6, 3, 3)).astype(np.float32))
    b = ad.Tensor(rng.normal(size=(5,)).astype(np.float32))
    g = rng.normal(size=(4, 5, 9, 8)).astype(np.float32)

    def run(items):
        xt = ad.Tensor(x[items], requires_grad=True)
        y = ad.conv2d(xt, w, b)
        y._backward(g[items])
        return y.data, xt.grad

    y_all, dx_all = run(slice(None))
    for i in range(4):
        y_one, dx_one = run(slice(i, i + 1))
        assert np.array_equal(y_all[i : i + 1], y_one) and np.array_equal(dx_all[i : i + 1], dx_one)


def test_conv2d_memory_stays_below_one_batch_patch_matrix():
    rng = seeded(5)
    batch, channels, size = 8, 16, 64
    x = ad.Tensor(rng.normal(size=(batch, channels, size, size)).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(channels, channels, 3, 3)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(np.zeros(channels, np.float32), requires_grad=True)
    g = np.ones((batch, channels, size, size), np.float32)
    patch_matrix_bytes = batch * channels * 9 * size * size * 4  # about 19 MB
    tracemalloc.start()
    try:
        y = ad.conv2d(x, w, b)
        y._backward(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.grad is not None and w.grad is not None
    assert peak < patch_matrix_bytes / 2, peak


def test_conv_transpose_gradients():
    rng = seeded(112)
    x = rng.normal(size=(2, 3, 5, 4))
    w = rng.normal(size=(3, 4, 2, 2)) * 0.5
    b = rng.normal(size=(4,))
    mult = rng.normal(size=(2, 4, 10, 8))
    graph = lambda ts: weighted_sum(ad.conv_transpose2d(ts[0], ts[1], ts[2]), mult)  # noqa: E731
    assert finite_difference_check(graph, [x, w, b], rng) < 1e-6
    y = ad.conv_transpose2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
    assert y.data.shape == (2, 4, 10, 8)


def _conv_transpose_one_gemm(x, w, b):
    """The transposed conv as one (C_out*2*2, C_in) GEMM per item, then a strided bias add per output phase."""
    batch, channels, height, width = x.shape
    c_out = w.shape[1]
    ym = np.matmul(w.reshape(channels, c_out * 4).T, x.reshape(batch, channels, height * width))
    ym = ym.reshape(batch, c_out, 2, 2, height, width)
    out = np.empty((batch, c_out, 2 * height, 2 * width), dtype=ym.dtype)
    for i in range(2):
        for j in range(2):
            np.add(ym[:, :, i, j], b.reshape(1, -1, 1, 1), out=out[:, :, i::2, j::2])
    return out


@pytest.mark.parametrize("batch, c_in, c_out, height, width", [(2, 3, 4, 5, 4), (16, 64, 16, 8, 8), (4, 16, 16, 16, 16), (3, 7, 2, 1, 3)])
def test_conv_transpose_forward_matches_one_gemm_bitwise(batch, c_in, c_out, height, width):
    rng = seeded(c_in * 100 + c_out)
    x = rng.normal(size=(batch, c_in, height, width)).astype(np.float32)
    w = rng.normal(size=(c_in, c_out, 2, 2)).astype(np.float32)
    b = rng.normal(size=(c_out,)).astype(np.float32)
    got = ad.conv_transpose2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
    assert got.dtype == np.float32
    assert got.tobytes() == _conv_transpose_one_gemm(x, w, b).tobytes()


def test_max_pool_gradients_and_shape():
    rng = seeded(113)
    x = rng.normal(size=(2, 3, 6, 8))
    mult = rng.normal(size=(2, 3, 3, 4))
    graph = lambda ts: weighted_sum(ad.max_pool2(ts[0]), mult)  # noqa: E731
    assert finite_difference_check(graph, [x], rng) < 1e-6
    with pytest.raises(ShapeMismatchError):
        ad.max_pool2(ad.Tensor(rng.normal(size=(1, 1, 5, 4))))


def test_max_pool_ties_route_to_first_maximum():
    # all-zero windows (as after relu), then the maximum repeated at each pair of positions
    windows = [[0, 0, 0, 0]] + [[1 if k in (i, j) else 0 for k in range(4)] for i in range(4) for j in range(i, 4)]
    x = np.zeros((1, 1, 2, 2 * len(windows)), dtype=np.float32)
    for n, window in enumerate(windows):
        x[0, 0, :, 2 * n : 2 * n + 2] = np.reshape(window, (2, 2))
    xt = ad.Tensor(x, requires_grad=True)
    y = ad.max_pool2(xt)
    assert np.array_equal(y.data[0, 0, 0], [max(w) for w in windows])
    weighted_sum(y).backward()
    for n, window in enumerate(windows):
        expected = np.zeros(4, dtype=np.float32)
        expected[int(np.argmax(window))] = 1.0
        assert np.array_equal(xt.grad[0, 0, :, 2 * n : 2 * n + 2].ravel(), expected), window


def test_max_pool_nan_window_routes_to_the_last_position():
    # a window holding NaN pools to NaN, which equals none of its entries, so position 3 takes its gradient
    x = seeded(29).normal(size=(1, 1, 2, 8)).astype(np.float32)
    for n in range(4):  # window n holds its NaN at position n
        x[0, 0, n // 2, 2 * n + n % 2] = np.nan
    xt = ad.Tensor(x, requires_grad=True)
    y = ad.max_pool2(xt)
    assert np.isnan(y.data).all()
    y._backward(np.array([[[[1.0, 2.0, 3.0, 4.0]]]], dtype=np.float32))
    for n in range(4):
        assert np.array_equal(xt.grad[0, 0, :, 2 * n : 2 * n + 2].ravel(), [0.0, 0.0, 0.0, n + 1.0]), n


@pytest.mark.parametrize("form", ["batch_norm", "batch_norm_relu"])
def test_batch_norm_float32_matches_float64_far_from_zero_mean(form):
    # large channel means stress the statistics: the composite's sum(x^2) - sum(x)^2 / n, and the fused
    # op's float32 per-item sums of x and of g * x
    rng = seeded(37)
    x = rng.normal(50.0, 1.0, size=(4, 3, 8, 8))
    gamma = np.array([1.0, 0.5, 2.0])
    beta = np.array([0.0, 0.3, -0.2])
    mult = rng.normal(size=x.shape)
    op = {"batch_norm": lambda *args: ad.batch_norm(*args, training=True), "batch_norm_relu": ad.batch_norm_relu}[form]

    def run(dtype):
        ts = [ad.Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta)]
        rm, rv = np.zeros(3, dtype), np.ones(3, dtype)
        y = op(*ts, rm, rv)
        weighted_sum(y, mult.astype(dtype)).backward()
        return [y.data, rm, rv] + [t.grad for t in ts]

    for got, want in zip(run(np.float32), run(np.float64)):
        assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))


def test_batch_norm_relu_matches_the_composite_in_float64():
    rng = seeded(23)
    x = rng.normal(0.3, 1.5, size=(3, 4, 6, 6))
    gamma = rng.normal(size=4)  # a negative gamma flips which side the relu keeps
    beta = rng.normal(size=4)
    other = rng.normal(size=(3, 2, 6, 6))
    mult_cat = rng.normal(size=(3, 6, 6, 6))
    mult_pool = rng.normal(size=(3, 4, 3, 3))

    def run(block):
        ts = [ad.Tensor(a.copy(), requires_grad=True) for a in (x, gamma, beta)]
        rm, rv = np.full(4, 0.2), np.full(4, 1.3)
        y = block(*ts, rm, rv)
        # the output feeds a concat and a max pool, as an encoder skip does
        joined = weighted_sum(ad.concat([y, ad.Tensor(other)]), mult_cat)
        weighted_total([joined, weighted_sum(ad.max_pool2(y), mult_pool)], 1.0).backward()
        return {"output": y.data, "running_mean": rm, "running_var": rv, "x": ts[0].grad, "gamma": ts[1].grad, "beta": ts[2].grad}

    fused, composite = run(ad.batch_norm_relu), run(bn_relu_composite)
    assert (fused["output"] == 0).any() and (fused["output"] > 0).any()  # the relu both blocks and passes
    for key, want in composite.items():
        assert np.max(np.abs(fused[key] - want)) <= 1e-10 * np.max(np.abs(want)), key


def test_conv2d_head_float32_matches_float64():
    rng = seeded(114)
    x = rng.normal(size=(2, 7, 10, 12))
    w = rng.normal(size=(1, 7, 3, 3)) * 0.5
    b = rng.normal(size=(1,))
    mult = rng.normal(size=(2, 1, 10, 12))

    def run(dtype):
        ts = [ad.Tensor(a.astype(dtype), requires_grad=True) for a in (x, w, b)]
        y = ad.head_conv([ts[0]], ts[1], ts[2])
        weighted_sum(y, mult.astype(dtype)).backward()
        return [y.data] + [t.grad for t in ts]

    for got, want in zip(run(np.float32), run(np.float64)):
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


def test_batch_norm_train_and_eval_gradients():
    rng = seeded(115)
    x = rng.normal(size=(3, 4, 5, 5))
    gamma = np.abs(rng.normal(size=4)) + 0.5
    beta = rng.normal(size=4) * 0.3
    mult = rng.normal(size=(3, 4, 5, 5))
    rm, rv = np.zeros(4), np.ones(4)
    graph_train = lambda ts: weighted_sum(ad.batch_norm(ts[0], ts[1], ts[2], rm.copy(), rv.copy(), training=True), mult)  # noqa: E731
    assert finite_difference_check(graph_train, [x, gamma, beta], rng) < 1e-6
    rm2 = rng.normal(size=4) * 0.2
    rv2 = np.abs(rng.normal(size=4)) + 0.4
    graph_eval = lambda ts: weighted_sum(ad.batch_norm(ts[0], ts[1], ts[2], rm2, rv2, training=False), mult)  # noqa: E731
    assert finite_difference_check(graph_eval, [x, gamma, beta], rng) < 1e-6


def test_batch_norm_eval_is_pure_affine():
    rng = seeded(116)
    x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
    gamma = np.array([1.0, 2.0, 0.5], dtype=np.float32)
    beta = np.array([0.1, -0.2, 0.0], dtype=np.float32)
    rm = np.array([0.3, -0.1, 0.0], dtype=np.float32)
    rv = np.array([1.5, 0.7, 2.0], dtype=np.float32)
    y = ad.batch_norm(ad.Tensor(x), ad.Tensor(gamma), ad.Tensor(beta), rm, rv, training=False)
    scale = gamma / np.sqrt(rv + 1e-5)
    expected = x * scale[None, :, None, None] + (beta - rm * scale)[None, :, None, None]
    assert np.allclose(y.data, expected, atol=1e-6)
    # eval mode never touches the buffers
    assert np.array_equal(rm, np.array([0.3, -0.1, 0.0], dtype=np.float32))


def test_batch_norm_running_stats_update():
    rng = seeded(117)
    x = rng.normal(size=(4, 2, 3, 3)).astype(np.float32) * 2 + 1
    rm, rv = np.zeros(2, dtype=np.float32), np.ones(2, dtype=np.float32)
    ad.batch_norm(ad.Tensor(x), ad.Tensor(np.ones(2, np.float32)), ad.Tensor(np.zeros(2, np.float32)), rm, rv, training=True)
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    assert np.allclose(rm, 0.1 * mean, atol=1e-5)
    assert np.allclose(rv, 0.9 + 0.1 * var, atol=1e-5)


def test_map_loss_bridges_value_and_gradient():
    rng = seeded(118)

    def sq(pred, gt, cfg):
        diff = pred - gt
        return LossReport(float((diff * diff).sum()), 2.0 * diff)

    pred = ad.Tensor(rng.normal(size=(3, 1, 4, 4)), requires_grad=True)
    gts = rng.normal(size=(3, 4, 4))
    loss = ad.map_loss(pred, gts, sq, None)
    expected = np.mean([((pred.data[i, 0] - gts[i]) ** 2).sum() for i in range(3)])
    assert abs(float(loss.data) - expected) < 1e-12
    loss.backward()
    assert np.allclose(pred.grad, 2.0 * (pred.data - gts[:, None]) / 3.0, atol=1e-12)


def _square_loss(pred, gt, cfg):
    return LossReport(float((pred * pred).sum()), 2.0 * pred)


# op -> (graph over its operand tensors, operand shapes)
GRADIENT_RULE_OPS = {
    "relu": (lambda ts: ad.relu(ts[0]), [(2, 3, 4, 4)]),
    "tanh": (lambda ts: ad.tanh(ts[0]), [(2, 3, 4, 4)]),
    "l2_normalize": (lambda ts: ad.l2_normalize(ts[0]), [(2, 3, 4, 4)]),
    "slice_batch": (lambda ts: ad.slice_batch(ts[0], 1, 3), [(4, 3, 2, 2)]),
    "correlation": (lambda ts: ad.correlation(ts[0]), [(4, 3, 2, 2)]),
    "max_pool2": (lambda ts: ad.max_pool2(ts[0]), [(2, 3, 4, 4)]),
    "map_loss": (lambda ts: ad.map_loss(ts[0], np.zeros((2, 4, 4)), _square_loss, None), [(2, 1, 4, 4)]),
    "concat": (lambda ts: ad.concat(ts, axis=1), [(2, 3, 4, 4), (2, 2, 4, 4)]),
    "matmul": (lambda ts: ad.matmul(*ts), [(2, 3, 4), (2, 4, 5)]),
    "conv2d": (lambda ts: ad.conv2d(*ts), [(2, 3, 5, 5), (4, 3, 3, 3), (4,)]),
    "head_conv": (lambda ts: ad.head_conv(ts[:2], *ts[2:]), [(2, 3, 5, 5), (2, 2, 5, 5), (1, 5, 3, 3), (1,)]),
    "conv_transpose2d": (lambda ts: ad.conv_transpose2d(*ts), [(2, 3, 3, 3), (3, 4, 2, 2), (4,)]),
    "batch_norm_train": (lambda ts: ad.batch_norm(*ts, np.zeros(3), np.ones(3), training=True), [(2, 3, 4, 4), (3,), (3,)]),
    "batch_norm_eval": (lambda ts: ad.batch_norm(*ts, np.zeros(3), np.ones(3), training=False), [(2, 3, 4, 4), (3,), (3,)]),
    "batch_norm_relu": (lambda ts: ad.batch_norm_relu(*ts, np.zeros(3), np.ones(3)), [(2, 3, 4, 4), (3,), (3,)]),
}


@pytest.mark.parametrize(
    "op, frozen", [(op, k) for op, (_, shapes) in GRADIENT_RULE_OPS.items() for k in range(len(shapes))]
)
def test_an_operand_that_requires_no_gradient_gets_none(op, frozen):
    """``Tensor.accumulate`` drops what its tensor does not require, and the other operands' gradients do not change."""
    graph, shapes = GRADIENT_RULE_OPS[op]
    rng = seeded(120)
    arrays = [rng.normal(size=shape) for shape in shapes]
    mult = rng.normal(size=graph([ad.Tensor(a) for a in arrays]).shape)

    def grads(frozen=None):
        ts = [ad.Tensor(a.copy(), requires_grad=k != frozen) for k, a in enumerate(arrays)]
        out = graph(ts)
        if out.requires_grad:
            weighted_sum(out, mult).backward()
        else:  # the op's only operand was frozen, so no graph was recorded
            assert out._backward is None and len(ts) == 1
        return [t.grad for t in ts]

    want, got = grads(), grads(frozen)
    assert got[frozen] is None
    for k, (g, w) in enumerate(zip(got, want)):
        if k != frozen:
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), k


def test_determinism_bitwise():
    def run():
        rng = seeded(7)
        x = ad.Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        w = ad.Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = ad.Tensor(np.zeros(4, np.float32), requires_grad=True)
        mult = rng.normal(size=(2, 8, 8, 8)).astype(np.float32)
        # two consumers of x, w and b, so their gradients accumulate
        loss = weighted_sum(ad.concat([ad.tanh(ad.conv2d(x, w, b)), ad.tanh(ad.conv2d(x, w, b))]), mult)
        loss.backward()
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first = run()
    second = run()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# batch items over threads


def test_split_items_covers_the_items_in_contiguous_ranges(monkeypatch):
    ranges = []
    enough = ad.MIN_RANGE_FLOPS  # work per item that lets every item be a range of its own
    cases = [
        ("3", 8, enough, [(0, 2), (2, 5), (5, 8)]),
        ("3", 2, enough, [(0, 1), (1, 2)]),
        ("2", 1, enough, [(0, 1)]),
        ("1", 5, enough, [(0, 5)]),
        # too little work for a second range, then for a third
        ("3", 8, enough / 8, [(0, 8)]),
        ("3", 8, enough / 4, [(0, 4), (4, 8)]),
    ]
    for threads, items, item_flops, want in cases:
        monkeypatch.setenv("SNDM_THREADS", threads)
        ranges.clear()
        ad.split_items(lambda lo, hi: ranges.append((lo, hi)), items, item_flops)
        assert sorted(ranges) == want, (threads, items, item_flops)


def test_split_items_runs_the_other_ranges_on_a_worker_thread(monkeypatch):
    monkeypatch.setenv("SNDM_THREADS", "2")
    threads = {}
    ad.split_items(lambda lo, hi: threads.__setitem__(lo, threading.get_ident()), 2, ad.MIN_RANGE_FLOPS)
    assert threads[1] == threading.get_ident() and threads[0] != threading.get_ident()


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_split_items_raises_only_once_the_other_range_has_finished(monkeypatch, failing):
    monkeypatch.setenv("SNDM_THREADS", "2")
    written = np.zeros(2)

    def fn(lo, hi):
        side = "worker" if lo == 0 else "caller"  # the caller runs the last range
        if side == failing:
            raise ValueError(side)
        time.sleep(0.2)
        written[lo:hi] = 1.0

    with pytest.raises(ValueError, match=failing):
        ad.split_items(fn, 2, ad.MIN_RANGE_FLOPS)
    assert written.tolist() == ([0.0, 1.0] if failing == "worker" else [1.0, 0.0])
    # the pool still runs the next split
    ad.split_items(lambda lo, hi: written.__setitem__(slice(lo, hi), 2.0), 2, ad.MIN_RANGE_FLOPS)
    assert written.tolist() == [2.0, 2.0]


def test_split_items_works_in_a_forked_child(monkeypatch):
    # the child inherits the parent's pool object but none of its threads
    monkeypatch.setenv("SNDM_THREADS", "2")
    ad.split_items(lambda lo, hi: None, 2, ad.MIN_RANGE_FLOPS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # fork of a process that has threads
        pid = os.fork()
    if pid == 0:
        done = np.zeros(2)
        try:
            ad.split_items(lambda lo, hi: done.__setitem__(slice(lo, hi), 1.0), 2, ad.MIN_RANGE_FLOPS)
        finally:
            os._exit(0 if done.all() else 1)
    deadline = time.monotonic() + 20.0
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert status[0] == pid and os.waitstatus_to_exitcode(status[1]) == 0, "the child's split did not finish"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3])
def test_conv_kernels_are_bit_identical_at_any_thread_count(monkeypatch, dtype, batch):
    monkeypatch.setattr(ad, "MIN_RANGE_FLOPS", 1.0)  # split even these small convs
    rng = seeded(119)
    x = rng.normal(size=(batch, 5, 6, 7)).astype(dtype)
    other = rng.normal(size=(batch, 2, 6, 7)).astype(dtype)
    shapes = {"conv": (4, 5, 3, 3), "deconv": (5, 3, 2, 2), "head": (1, 7, 3, 3)}
    weights = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
    biases = {name: rng.normal(size=shape[1 if name == "deconv" else 0]).astype(dtype) for name, shape in shapes.items()}
    grads = {"conv": (batch, 4, 6, 7), "deconv": (batch, 3, 12, 14), "head": (batch, 1, 6, 7)}
    grads = {name: rng.normal(size=shape).astype(dtype) for name, shape in grads.items()}
    ops = {
        "conv": lambda ins, w, b: ad.conv2d(ins[0], w, b),
        "deconv": lambda ins, w, b: ad.conv_transpose2d(ins[0], w, b),
        "head": lambda ins, w, b: ad.head_conv(ins, w, b),
    }

    def run():
        out = []
        for name, op in ops.items():
            ins = [ad.Tensor(x, requires_grad=True)] + ([ad.Tensor(other, requires_grad=True)] if name == "head" else [])
            w, b = ad.Tensor(weights[name], requires_grad=True), ad.Tensor(biases[name], requires_grad=True)
            y = op(ins, w, b)
            y._backward(grads[name])
            out += [a.tobytes() for a in (y.data, w.grad, b.grad, *(t.grad for t in ins))]
        return out

    runs = {}
    for threads in ("1", "2", "3"):
        monkeypatch.setenv("SNDM_THREADS", threads)
        runs[threads] = run()
    assert runs["2"] == runs["1"] and runs["3"] == runs["1"]
