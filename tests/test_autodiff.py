import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sndmseg.autodiff as ad
from sndmseg.errors import CheckpointCorruptError, NoForwardPassError, ShapeMismatchError, SndmError
from strategies import weighted_sum, weighted_total

RNG = np.random.Generator(np.random.Philox(101))


def finite_difference_check(make_graph, arrays, samples=6, step=1e-6):
    """Max error of analytic grads vs central differences, float64 arrays."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    make_graph(tensors).backward()
    worst = 0.0
    for which, tensor in enumerate(tensors):
        for _ in range(min(samples, tensor.data.size)):
            idx = np.unravel_index(int(RNG.integers(tensor.data.size)), tensor.data.shape)

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
    x = ad.Tensor(RNG.normal(size=(1, 1, 6, 6)))
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
    # an array of another dtype is stored as a cast copy
    y = ad.Tensor(np.zeros(3, np.float32), requires_grad=True)
    handed = np.ones(3)
    y.accumulate(handed)
    assert y.grad.dtype == np.float32 and not np.shares_memory(y.grad, handed)


def test_backward_requires_scalar():
    x = ad.Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ShapeMismatchError):
        ad.relu(x).backward()


def test_backward_requires_recorded_graph():
    with pytest.raises(NoForwardPassError):
        ad.Tensor(np.array(1.0), requires_grad=True).backward()


def test_elementwise_and_structural_gradients():
    x = RNG.normal(size=(2, 3, 6, 6))
    mult = RNG.normal(size=(2, 3, 6, 6))
    checks = {
        "relu": lambda ts: weighted_sum(ad.relu(ts[0]), mult),
        "tanh": lambda ts: weighted_sum(ad.tanh(ts[0]), mult),
        "l2norm": lambda ts: weighted_sum(ad.l2_normalize(ts[0], axis=1), mult),
    }
    for name, graph in checks.items():
        assert finite_difference_check(graph, [x]) < 1e-6, name


def test_concat_slice_transpose_reshape_gradients():
    x = RNG.normal(size=(2, 3, 4, 4))
    y = RNG.normal(size=(2, 2, 4, 4))
    mult = RNG.normal(size=(1, 5, 4, 4))
    graph = lambda ts: weighted_sum(ad.slice_batch(ad.concat([ts[0], ts[1]], axis=1), 0, 1), mult)  # noqa: E731
    assert finite_difference_check(graph, [x, y]) < 1e-6
    tr = RNG.normal(size=(2, 3, 5))
    mult2 = RNG.normal(size=(2, 15))
    graph2 = lambda ts: weighted_sum(ad.reshape(ad.transpose(ts[0], (0, 2, 1)), (2, 15)), mult2)  # noqa: E731
    assert finite_difference_check(graph2, [tr]) < 1e-6


def test_concat_piece_with_a_second_consumer():
    # an encoder skip feeds both a decoder concat and the next max pool
    x = RNG.normal(size=(2, 3, 4, 4))
    y = RNG.normal(size=(2, 2, 4, 4))
    mult = RNG.normal(size=(2, 5, 4, 4))
    mult_pool = RNG.normal(size=(2, 3, 2, 2))

    def branches(ts):
        skip = ad.tanh(ts[0])
        joined = weighted_sum(ad.concat([skip, ts[1]], axis=1), mult)
        pooled = weighted_sum(ad.max_pool2(skip), mult_pool)
        return [joined, pooled]

    # both orders, so either backward can be the one that finds the gradient already set
    assert finite_difference_check(lambda ts: weighted_total(branches(ts), 1.0), [x, y]) < 1e-6
    assert finite_difference_check(lambda ts: weighted_total(branches(ts)[::-1], 1.0), [x, y]) < 1e-6
    # the pieces keep views of the one gradient buffer the concat received instead of copies
    a, b = ad.Tensor(x, requires_grad=True), ad.Tensor(y, requires_grad=True)
    joined = ad.concat([a, b], axis=1)
    weighted_sum(joined, mult).backward()
    assert a.grad.base is not None and a.grad.base is b.grad.base
    assert np.array_equal(a.grad, mult[:, :3]) and np.array_equal(b.grad, mult[:, 3:])


def test_backward_releases_the_graph():
    from sndmseg.losses import LossReport

    def sq(pred, gt, cfg):
        diff = pred - gt
        return LossReport(float((diff * diff).sum()), 2.0 * diff)

    arrays = [
        RNG.normal(size=(2, 2, 4, 4)),  # x
        RNG.normal(size=(3, 2, 3, 3)) * 0.5,  # conv weight
        RNG.normal(size=(3,)),  # conv bias
        RNG.normal(size=(3,)),  # gamma
        RNG.normal(size=(3,)),  # beta
        RNG.normal(size=(3, 2, 2, 2)) * 0.5,  # deconv weight
        RNG.normal(size=(2,)),  # deconv bias
        RNG.normal(size=(1, 5, 3, 3)) * 0.5,  # head weight
        RNG.normal(size=(1,)),  # head bias
    ]
    targets = RNG.normal(size=(2, 4, 4))
    built = []

    def graph(ts):
        x, w, b, gamma, beta, wt, bt, wh, bh = ts
        # the skip h feeds both the concat and the max pool, as an encoder level does
        h = ad.relu(ad.batch_norm(ad.conv2d(x, w, b), gamma, beta, np.zeros(3), np.ones(3), training=True))
        up = ad.conv_transpose2d(ad.max_pool2(h), wt, bt)
        loss = ad.map_loss(ad.tanh(ad.conv2d(ad.concat([h, up]), wh, bh)), targets, sq, None)
        built.append((loss, [n for n in ad._topo_order(loss) if n._backward is not None]))
        return loss

    assert finite_difference_check(graph, arrays) < 1e-6
    loss, ops = built[0]
    assert len(ops) == 9
    for node in ops:
        assert node.grad is None and node._backward is None and node._parents == ()
    with pytest.raises(NoForwardPassError):
        loss.backward()


def test_matmul_gradients():
    a = RNG.normal(size=(2, 4, 3))
    b = RNG.normal(size=(2, 3, 5))
    mult = RNG.normal(size=(2, 4, 5))
    graph = lambda ts: weighted_sum(ad.matmul(ts[0], ts[1]), mult)  # noqa: E731
    assert finite_difference_check(graph, [a, b]) < 1e-6


def test_conv2d_gradients_both_routes():
    x = RNG.normal(size=(2, 5, 6, 6))
    mult_wide = RNG.normal(size=(2, 4, 6, 6))
    w_wide = RNG.normal(size=(4, 5, 3, 3)) * 0.5
    b_wide = RNG.normal(size=(4,))
    graph = lambda ts: weighted_sum(ad.conv2d(ts[0], ts[1], ts[2]), mult_wide)  # noqa: E731
    assert finite_difference_check(graph, [x, w_wide, b_wide]) < 1e-6
    # single-output-channel head route
    mult_head = RNG.normal(size=(2, 1, 6, 6))
    w_head = RNG.normal(size=(1, 5, 3, 3)) * 0.5
    b_head = RNG.normal(size=(1,))
    graph2 = lambda ts: weighted_sum(ad.head_conv([ts[0]], ts[1], ts[2]), mult_head)  # noqa: E731
    assert finite_difference_check(graph2, [x, w_head, b_head]) < 1e-6
    # conv2d with one output channel takes the patch route and agrees with the head
    via_patches = ad.conv2d(*map(ad.Tensor, (x, w_head, b_head))).data
    via_head = ad.head_conv([ad.Tensor(x)], ad.Tensor(w_head), ad.Tensor(b_head)).data
    assert np.max(np.abs(via_patches - via_head)) <= 1e-12 * np.max(np.abs(via_head))


@pytest.mark.parametrize("c_in, c_out", [(3, 6), (6, 3)])
def test_conv2d_gradients_non_square(c_in, c_out):
    # the patch workspace holds C_in taps forward and C_out taps for dX
    x = RNG.normal(size=(3, c_in, 5, 7))
    w = RNG.normal(size=(c_out, c_in, 3, 3)) * 0.5
    b = RNG.normal(size=(c_out,))
    mult = RNG.normal(size=(3, c_out, 5, 7))
    graph = lambda ts: weighted_sum(ad.conv2d(ts[0], ts[1], ts[2]), mult)  # noqa: E731
    assert finite_difference_check(graph, [x, w, b], samples=12) < 1e-6


def test_conv2d_im2col_float32_matches_float64():
    x = RNG.normal(size=(3, 7, 10, 12))
    w = RNG.normal(size=(5, 7, 3, 3)) * 0.5
    b = RNG.normal(size=(5,))
    mult = RNG.normal(size=(3, 5, 10, 12))

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
    rng = np.random.Generator(np.random.Philox(height * 100 + width))
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


@pytest.mark.parametrize("op, weight_shape, out_axis", [(ad.conv2d, (4, 3, 3, 3), 0), (ad.conv_transpose2d, (3, 4, 2, 2), 1)])
def test_fold_batch_norm_matches_eval_batch_norm(op, weight_shape, out_axis):
    rng = np.random.Generator(np.random.Philox(61))
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
    x = RNG.normal(size=(2, 3, 6, 8)).astype(np.float32)
    x[0, 0, :2, :2] = 1.5  # a tied window
    with_grad = ad.max_pool2(ad.Tensor(x, requires_grad=True))
    without = ad.max_pool2(ad.Tensor(x))
    assert without.data.tobytes() == with_grad.data.tobytes()
    assert without._backward is None and with_grad._backward is not None


def test_conv2d_batch_item_equals_item_alone_bitwise():
    # the Siamese A/B swap is bit-exact only if an item's conv ignores its batch neighbors
    rng = np.random.Generator(np.random.Philox(3))
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
    rng = np.random.Generator(np.random.Philox(5))
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
    x = RNG.normal(size=(2, 3, 5, 4))
    w = RNG.normal(size=(3, 4, 2, 2)) * 0.5
    b = RNG.normal(size=(4,))
    mult = RNG.normal(size=(2, 4, 10, 8))
    graph = lambda ts: weighted_sum(ad.conv_transpose2d(ts[0], ts[1], ts[2]), mult)  # noqa: E731
    assert finite_difference_check(graph, [x, w, b]) < 1e-6
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
    rng = np.random.Generator(np.random.Philox(c_in * 100 + c_out))
    x = rng.normal(size=(batch, c_in, height, width)).astype(np.float32)
    w = rng.normal(size=(c_in, c_out, 2, 2)).astype(np.float32)
    b = rng.normal(size=(c_out,)).astype(np.float32)
    got = ad.conv_transpose2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
    assert got.dtype == np.float32
    assert got.tobytes() == _conv_transpose_one_gemm(x, w, b).tobytes()


def test_max_pool_gradients_and_shape():
    x = RNG.normal(size=(2, 3, 6, 8))
    mult = RNG.normal(size=(2, 3, 3, 4))
    graph = lambda ts: weighted_sum(ad.max_pool2(ts[0]), mult)  # noqa: E731
    assert finite_difference_check(graph, [x]) < 1e-6
    with pytest.raises(ShapeMismatchError):
        ad.max_pool2(ad.Tensor(RNG.normal(size=(1, 1, 5, 4))))


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


def test_batch_norm_float32_matches_float64_far_from_zero_mean():
    # large channel means stress the sum(x^2) - sum(x)^2 / n form of the statistics
    x = RNG.normal(50.0, 1.0, size=(4, 3, 8, 8))
    gamma = np.array([1.0, 0.5, 2.0])
    beta = np.array([0.0, 0.3, -0.2])
    mult = RNG.normal(size=x.shape)

    def run(dtype):
        ts = [ad.Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta)]
        rm, rv = np.zeros(3, dtype), np.ones(3, dtype)
        y = ad.batch_norm(*ts, rm, rv, training=True)
        weighted_sum(y, mult.astype(dtype)).backward()
        return [y.data, rm, rv] + [t.grad for t in ts]

    for got, want in zip(run(np.float32), run(np.float64)):
        assert np.max(np.abs(got - want)) <= 1e-4 * np.max(np.abs(want))


def test_conv2d_head_float32_matches_float64():
    x = RNG.normal(size=(2, 7, 10, 12))
    w = RNG.normal(size=(1, 7, 3, 3)) * 0.5
    b = RNG.normal(size=(1,))
    mult = RNG.normal(size=(2, 1, 10, 12))

    def run(dtype):
        ts = [ad.Tensor(a.astype(dtype), requires_grad=True) for a in (x, w, b)]
        y = ad.head_conv([ts[0]], ts[1], ts[2])
        weighted_sum(y, mult.astype(dtype)).backward()
        return [y.data] + [t.grad for t in ts]

    for got, want in zip(run(np.float32), run(np.float64)):
        assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))


def test_batch_norm_train_and_eval_gradients():
    x = RNG.normal(size=(3, 4, 5, 5))
    gamma = np.abs(RNG.normal(size=4)) + 0.5
    beta = RNG.normal(size=4) * 0.3
    mult = RNG.normal(size=(3, 4, 5, 5))
    rm, rv = np.zeros(4), np.ones(4)
    graph_train = lambda ts: weighted_sum(ad.batch_norm(ts[0], ts[1], ts[2], rm.copy(), rv.copy(), training=True), mult)  # noqa: E731
    assert finite_difference_check(graph_train, [x, gamma, beta]) < 1e-6
    rm2 = RNG.normal(size=4) * 0.2
    rv2 = np.abs(RNG.normal(size=4)) + 0.4
    graph_eval = lambda ts: weighted_sum(ad.batch_norm(ts[0], ts[1], ts[2], rm2, rv2, training=False), mult)  # noqa: E731
    assert finite_difference_check(graph_eval, [x, gamma, beta]) < 1e-6


def test_batch_norm_eval_is_pure_affine():
    x = RNG.normal(size=(2, 3, 4, 4)).astype(np.float32)
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
    x = RNG.normal(size=(4, 2, 3, 3)).astype(np.float32) * 2 + 1
    rm, rv = np.zeros(2, dtype=np.float32), np.ones(2, dtype=np.float32)
    ad.batch_norm(ad.Tensor(x), ad.Tensor(np.ones(2, np.float32)), ad.Tensor(np.zeros(2, np.float32)), rm, rv, training=True)
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    assert np.allclose(rm, 0.1 * mean, atol=1e-5)
    assert np.allclose(rv, 0.9 + 0.1 * var, atol=1e-5)


def test_map_loss_bridges_value_and_gradient():
    from sndmseg.losses import LossReport

    def sq(pred, gt, cfg):
        diff = pred - gt
        return LossReport(float((diff * diff).sum()), 2.0 * diff)

    pred = ad.Tensor(RNG.normal(size=(3, 1, 4, 4)), requires_grad=True)
    gts = RNG.normal(size=(3, 4, 4))
    loss = ad.map_loss(pred, gts, sq, None)
    expected = np.mean([((pred.data[i, 0] - gts[i]) ** 2).sum() for i in range(3)])
    assert abs(float(loss.data) - expected) < 1e-12
    loss.backward()
    assert np.allclose(pred.grad, 2.0 * (pred.data - gts[:, None]) / 3.0, atol=1e-12)


def test_determinism_bitwise():
    def run():
        rng = np.random.Generator(np.random.Philox(7))
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


def _fixed_checkpoint():
    rng = np.random.Generator(np.random.Philox(101))
    return "key = value\n", {
        "a.weight": rng.normal(size=(3, 2, 3, 3)).astype(np.float32),
        "b.bias": rng.normal(size=(7,)).astype(np.float32),
    }


@pytest.fixture(scope="module")
def round_trip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip") / "model.ckpt"


@settings(max_examples=150, deadline=None)
@example(checkpoint=_fixed_checkpoint())
@given(
    checkpoint=st.tuples(
        st.text(),
        st.dictionaries(
            st.text(),
            hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=5), elements=st.floats(width=32)),
            max_size=4,
        ),
    )
)
def test_checkpoint_round_trip(round_trip_path, checkpoint):
    header, tensors = checkpoint
    ad.save_checkpoint(str(round_trip_path), header, tensors)
    header_back, back = ad.load_checkpoint(str(round_trip_path))
    assert header_back == header
    assert list(back) == list(tensors)
    for name, value in tensors.items():
        assert back[name].dtype == np.float32 and back[name].shape == value.shape
        assert np.array_equal(back[name].view(np.uint32), value.view(np.uint32)), name


def test_checkpoint_corruption(tmp_path):
    path = tmp_path / "model.ckpt"
    ad.save_checkpoint(str(path), "", {"x": np.ones(4, np.float32)})
    data = bytearray(path.read_bytes())
    bad_magic = tmp_path / "bad.ckpt"
    bad_magic.write_bytes(b"NOPE" + bytes(data[4:]))
    with pytest.raises(CheckpointCorruptError):
        ad.load_checkpoint(str(bad_magic))
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(bytes(data[:-8]))
    with pytest.raises(CheckpointCorruptError):
        ad.load_checkpoint(str(truncated))
    trailing = tmp_path / "trailing.ckpt"
    trailing.write_bytes(bytes(data) + b"junk")
    with pytest.raises(CheckpointCorruptError):
        ad.load_checkpoint(str(trailing))


@pytest.fixture(scope="module")
def checkpoint_fuzz(tmp_path_factory):
    """A fuzz target path plus the bytes of a small valid checkpoint."""
    path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
    ad.save_checkpoint(str(path), "k = v\n", {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "s": np.float32(1.0)})
    return path, path.read_bytes()


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(("noise", "after-magic", "mutated")),
    noise=st.binary(max_size=256),
    at=st.integers(0, 255),
    byte=st.integers(0, 255),
    cut=st.integers(0, 256),
)
def test_load_checkpoint_parses_or_raises_domain_error(checkpoint_fuzz, kind, noise, at, byte, cut):
    path, valid = checkpoint_fuzz
    if kind == "noise":
        data = noise
    elif kind == "after-magic":
        data = (valid[:8] + noise)[:256]
    else:  # the valid checkpoint with one byte set and a random cut
        mutated = bytearray(valid)
        mutated[at % len(mutated)] = byte
        data = bytes(mutated[:cut])
    path.write_bytes(data)
    try:
        ad.load_checkpoint(str(path))
    except SndmError:
        pass
