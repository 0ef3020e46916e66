"""Reverse-mode automatic differentiation over dense numpy tensors.

A :class:`Tensor` holds an ndarray; operations build a computation graph
on the fly by recording parents and a backward closure. Calling
``backward()`` on a scalar output walks the graph in reverse topological
order; each op hands every parent a gradient, which only a parent with
``requires_grad`` keeps.
The walk consumes the graph: each op output's gradient, closure and
parent links are released as soon as they have been used, so the saved
buffers and intermediate gradients of a training step do not outlive its
backward. A graph can therefore be backpropagated once, and only leaves
(parameters and user tensors) keep ``.grad``.

Gradients follow one ownership rule, :meth:`Tensor.accumulate`, the
only writer of a gradient slot besides ``backward``: an op hands each
parent an array of the parent's shape that nothing reads after the
hand-over (a fresh result, or a view of the op output's own gradient,
which the walk releases). A tensor without ``requires_grad`` drops it;
an empty slot keeps that very array and a filled one adds to it in
place. No op hands overlapping memory to two slots, so no two gradients
share memory. Op backwards never ask which parents need a gradient:
the image's, computed by the first conv and the head, is dropped too,
which costs a training step no measurable time.

The network runs these ops: 3x3 convolution (stride 1, zero padding 1),
2x2 stride-2 transposed convolution, train-mode batch normalization
fused with its relu, tanh, 2x2 max pooling, channel concatenation, and
the Siamese correlation block (:func:`correlation`), one node with a
hand-written backward for the all-pairs cosine similarity between the
two branches; the loss enters through :func:`map_loss`. The fused
:func:`batch_norm_relu` holds only its input and its output and writes
its input's gradient into the buffer of its own. :func:`batch_norm`,
:func:`relu`, :func:`matmul`, :func:`l2_normalize` and
:func:`slice_batch` are no part of the network: they are the generic
ops the fused op and the correlation block are tested against.

Convolutions are expressed as matrix multiplies so the heavy lifting
stays in BLAS. Both 3x3 convs take their zero padding from one tap rule,
:func:`_taps`, whose spans leave every read of padding unwritten at zero.
The 3x3 conv runs one GEMM per batch item over a patch workspace that
all items reuse; its backward builds one patch matrix of the output
gradient per item and takes both its input and its weight gradient from
it. The single-output head conv (:func:`head_conv`) takes its input as a
list of channel pieces, so the network's decoder outputs and image feed
it without a concatenated copy; it runs one GEMM per piece for all nine
taps over the unpadded input and adds each tap's plane over its spans.
The transposed conv computes one output phase at a time into a reused
block. The memory-bound ops (the fused batch norm, max pooling, the
placement around the transposed conv's GEMMs) are written to make as
few passes over their tensors as they can. The fused op's per-channel
reductions are per-(item, channel) sums in the input's dtype (float32
in training) combined in float64; the reference :func:`batch_norm`
accumulates its reductions in float64 throughout.

Every op runs on its caller's thread, so a train step runs on one
thread. The one split over threads is by pair, in
``network.forward_pair``: :func:`split_items` hands up to
``SNDM_THREADS`` contiguous pair ranges, by default one per usable core,
to a worker pool, and each range runs a whole eval forward; a call with
too little work for two ranges runs on the calling thread alone. The
conv kernels run each item's GEMMs on their own, whatever the batch, so
a pair's maps do not depend on the range that holds it, and outputs are
bit-identical at any thread count. A weight gradient is formed per item
and summed over the batch in batch order. BLAS itself runs on one thread:
OpenBLAS splits a GEMM's sums by thread, so its thread count would change
float32 roundings. Training, evaluation and the network gradient check
therefore run inside :func:`one_blas_thread`, which pins numpy's OpenBLAS
to one thread in process, and ``SNDM_THREADS`` is the only setting that
changes how many threads run; no setting changes the bits.

A forward-only pass does no training-only work: max pooling keeps no
argmax index (its backward finds the maxima again), and an eval forward
folds each batch norm into the conv before it (:func:`fold_batch_norm`),
so no batch-norm pass runs at all.

Training runs in float32; feed float64 arrays when checking gradients,
since 32-bit noise masks real defects.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .errors import InvalidConfigError, NoForwardPassError, ShapeMismatchError

BN_MOMENTUM = 0.9  # running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch
BN_EPS = 1e-5


class Tensor:
    """Graph node: value, optional gradient slot, parents, backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def accumulate(self, g) -> None:
        """Add ``g`` to the gradient; an empty slot keeps ``g`` itself, and a tensor that requires none drops it."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = g
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph, consuming it.

        Reverse topological order runs every consumer of a node before the
        node itself, so once an op output's closure has run (or been skipped
        because no gradient reached it) nothing reads its gradient, closure
        or parent links again, and the walk drops all three. Only leaves
        (parameters and user tensors) keep ``.grad``, and a graph can be
        backpropagated once; a second call raises ``NoForwardPassError``.
        """
        if self.data.size != 1:
            raise ShapeMismatchError(f"backward needs a scalar output, got shape {self.shape}")
        if not self._parents:
            raise NoForwardPassError("no recorded computation to backpropagate through")
        order = _topo_order(self)
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, None, ()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _node(data, parents, backward_fn) -> Tensor:
    """Create an op output; the graph is only recorded if a parent needs it."""
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


# ---------------------------------------------------------------------------
# batch items over threads


def thread_cap() -> int:
    """The ``SNDM_THREADS`` cap on the ranges of a pair split and on worker processes; by default the cores this process may run on."""
    env = os.environ.get("SNDM_THREADS", "").strip()
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1  # no affinity call on macOS or Windows
    # ASCII decimal digits only: int() alone would also take a sign, "1_6" or non-ASCII digits
    cap = int(env) if env.isascii() and env.isdigit() else 0
    if cap < 1:
        raise InvalidConfigError(f"SNDM_THREADS must be an integer >= 1 in ASCII decimal digits, got {env!r}")
    return cap


_pool = None  # (worker count, executor), made by the first split that needs a worker
_pool_lock = threading.Lock()


def _drop_pool() -> None:
    """A forked child has none of its parent's threads, so it makes a pool of its own."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # Windows has no fork
    os.register_at_fork(after_in_child=_drop_pool)


def _workers(count: int) -> ThreadPoolExecutor:
    """The process's worker pool, replaced by a larger one when a split needs more than ``count`` workers."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < count:
            if _pool is not None:
                _pool[1].shutdown(wait=False)  # its queued ranges still run
            _pool = (count, ThreadPoolExecutor(count, thread_name_prefix="sndmseg-items"))
        return _pool[1]


# A range hands over to the worker only with at least this many flops: handing a range over
# costs about 0.1 ms, and small ranges slow both threads down (the default network's eval
# forward at 8 pairs was fastest from 1e6 to 1e7)
MIN_RANGE_FLOPS = 1e7


def split_items(fn, items: int, item_flops: float) -> None:
    """Run ``fn(lo, hi)`` over contiguous ranges that cover ``range(items)``, one range per thread.

    There are ``thread_cap()`` ranges, or fewer: one per item at most, and
    at most one per ``MIN_RANGE_FLOPS`` of the split's work, which the
    caller gives as ``item_flops`` per item. The range sizes differ by at
    most one. A lazily made worker pool takes
    every range but the last, the caller runs the last, and the call
    returns only once every range has finished: it waits in a ``finally``,
    so an error from either side is raised only when no worker still writes
    into the caller's buffers. At one range ``fn(0, items)`` runs on the
    caller's thread alone. ``fn`` must write only the items of its range
    and compute each item as it would alone, so that outputs do not depend
    on the thread count. ``fn`` must not call ``split_items``: a range run
    by a worker could then wait on a range queued behind it for the same
    worker.

    A worker may call names that ``bench/tracing.py`` patches: a traced
    run records a span per call on either thread (one
    ``network.forward_eval`` per range of ``network.forward_pair``), but
    the tracer keeps one span stack for all threads, so a span opened
    while two threads run may get the other thread's span as its parent
    (ROADMAP item 1).
    """
    parts = max(1, min(thread_cap(), items, int(items * item_flops // MIN_RANGE_FLOPS)))
    if parts == 1:
        fn(0, items)
        return
    bounds = [items * k // parts for k in range(parts + 1)]
    pool = _workers(parts - 1)
    futures = [pool.submit(fn, lo, hi) for lo, hi in zip(bounds[:-2], bounds[1:-1])]
    try:
        fn(bounds[-2], bounds[-1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


@functools.cache
def _openblas_threads():
    """The thread-count (get, set) functions of numpy's bundled OpenBLAS, or None if numpy bundles none."""
    root = os.path.dirname(np.__file__)
    # numpy 2 bundles libscipy_openblas64_ (scipy_openblas_*64_ names), numpy 1.x libopenblas64_p (openblas_*64_ names)
    paths = glob.glob(os.path.join(root + ".libs", "*openblas*")) + glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        lib = ctypes.CDLL(path)  # the library numpy already loaded
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_blas_lock = threading.Lock()
_blas_pin = [0, 0]  # [entries now open, the count the outermost entry saved]


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its previous thread count.

    The count is process-global: numpy calls made from other threads meanwhile
    also run on one BLAS thread. Entries may nest and overlap across threads;
    the outermost saves the count and the last exit restores it. Without a
    bundled OpenBLAS (a numpy built on MKL, Accelerate or a system BLAS) the
    body runs unpinned, at whatever count that BLAS uses.
    """
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    with _blas_lock:
        if _blas_pin[0] == 0:
            _blas_pin[1] = get()
            set_(1)
        _blas_pin[0] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pin[0] -= 1
            if _blas_pin[0] == 0:
                set_(_blas_pin[1])


# ---------------------------------------------------------------------------
# elementwise and structural primitives


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0)

    def backward(g):
        x.accumulate(g * (x.data > 0))

    return _node(data, (x,), backward)


def tanh(x: Tensor) -> Tensor:
    data = np.tanh(x.data)

    def backward(g):
        x.accumulate(g * (1.0 - data * data))

    return _node(data, (x,), backward)


def concat(tensors, axis: int = 1) -> Tensor:
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def backward(g):
        # each piece may keep its slice of g as a view: the slices are disjoint
        for t, piece in zip(tensors, np.split(g, cuts, axis=axis)):
            t.accumulate(piece)

    return _node(data, tuple(tensors), backward)


def slice_batch(x: Tensor, start: int, stop: int) -> Tensor:
    data = x.data[start:stop]

    def backward(g):
        dx = np.zeros_like(x.data)
        dx[start:stop] = g
        x.accumulate(dx)

    return _node(data, (x,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix multiply; operands must have matching leading dims."""
    data = np.matmul(a.data, b.data)

    def backward(g):
        a.accumulate(np.matmul(g, np.swapaxes(b.data, -1, -2)))
        b.accumulate(np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _node(data, (a, b), backward)


def l2_normalize(x: Tensor, axis: int = 1, eps: float = 1e-12) -> Tensor:
    """Scale along ``axis`` to unit L2 norm (cosine-similarity precursor)."""
    norm = np.sqrt(np.sum(x.data * x.data, axis=axis, keepdims=True) + eps)
    data = x.data / norm

    def backward(g):
        dot = np.sum(g * x.data, axis=axis, keepdims=True)
        x.accumulate(g / norm - x.data * dot / (norm**3))

    return _node(data, (x,), backward)


def correlation(joint: Tensor) -> Tensor:
    """Correlation block: all-pairs cosine similarity between the two branches of a joint batch.

    joint: (2B, C, H, W) with branch A in items [0, B) and branch B in
    [B, 2B). Returns (2B, H*W, H, W) in the same layout: channel j of an
    item at position i is the cosine similarity between that branch's
    vector at i and the other branch's vector at j. Forward scales each
    position's channel vector to unit L2 norm, swaps the branches and runs
    one batched matmul; backward takes the unit vectors' gradient from
    both sides of that matmul and carries it through the normalization.
    """
    items, channels, height, width = joint.data.shape
    batch, hw = items // 2, height * width
    x = joint.data.reshape(items, channels, hw)
    norm = np.sqrt(np.sum(x * x, axis=1, keepdims=True) + 1e-12)
    unit = x / norm
    other = np.concatenate([unit[batch:], unit[:batch]])  # branches swapped
    data = np.matmul(other.transpose(0, 2, 1), unit)

    def backward(g):
        gm = g.reshape(items, hw, hw)
        dunit = np.matmul(other, gm)
        dother = np.matmul(gm, unit.transpose(0, 2, 1)).transpose(0, 2, 1)
        dunit[batch:] += dother[:batch]
        dunit[:batch] += dother[batch:]
        dot = np.sum(dunit * x, axis=1, keepdims=True)
        joint.accumulate((dunit / norm - x * dot / (norm**3)).reshape(joint.data.shape))

    return _node(data.reshape(items, hw, height, width), (joint,), backward)


# ---------------------------------------------------------------------------
# convolutional primitives

_BLOCK_OFFSETS = [(i, j) for i in range(2) for j in range(2)]


def _taps(height: int, width: int):
    """The nine taps of a zero-padded 3x3 window over an H x W map: ``(k, (dst_rows, src_rows), (dst_cols, src_cols))``.

    Tap k = 3 * di + dj makes output (r, c) read input (r + di - 1, c + dj - 1)
    over the spans whose reads stay inside the map; a read outside it is padding.
    """

    def span(shift, n):
        return slice(max(-shift, 0), n - max(shift, 0)), slice(max(shift, 0), n + min(shift, 0))

    return [(3 * di + dj, span(di - 1, height), span(dj - 1, width)) for di in range(3) for dj in range(3)]


def _item_patches(x: np.ndarray):
    """Yield each item's patch matrix: (C*9, H*W) columns of its zero-padded 3x3 windows.

    Every item is written into one workspace, allocated once per call, so
    a yielded matrix is only valid until the next one. A tap's rows and
    columns that fall outside the image are zeroed at allocation and never
    written, which stands in for the zero padding.
    """
    batch, channels, height, width = x.shape
    ws = np.zeros((channels, 9, height, width), dtype=x.dtype)
    cols = ws.reshape(channels * 9, height * width)
    taps = _taps(height, width)
    for i in range(batch):
        for k, (dst_rows, src_rows), (dst_cols, src_cols) in taps:
            ws[:, k, dst_rows, dst_cols] = x[i, :, src_rows, src_cols]
        yield cols


def head_conv(pieces, weight: Tensor, bias: Tensor) -> Tensor:
    """Single-output-channel 3x3 conv (the prediction head) over its input's channel pieces.

    The pieces are (B, C_p, H, W) tensors whose channels, in order, make
    up the conv's input; reading them in place spares the concatenated
    copy. Forward runs one (9, C_p) @ (C_p, H*W) GEMM per piece and sums
    the products into (B, 9, H, W) tap planes, each added into the output
    over its spans from :func:`_taps`. Backward lays the output gradient
    out over the same spans into zeroed planes, so each piece's dX and
    its channel block of dW are a single GEMM against them.
    """
    pieces = list(pieces)
    shapes = [p.data.shape for p in pieces]
    if any(len(shape) != 4 or shape[:1] + shape[2:] != shapes[0][:1] + shapes[0][2:] for shape in shapes):
        raise ShapeMismatchError(f"head_conv pieces must be (B, C_p, H, W) with one B, H and W, got {shapes}")
    batch, _, height, width = shapes[0]
    n = height * width
    c_out, channels, kh, kw = weight.data.shape
    sizes = [shape[1] for shape in shapes]
    if c_out != 1 or (kh, kw) != (3, 3) or sum(sizes) != channels:
        raise ShapeMismatchError(f"head_conv weight {weight.data.shape} incompatible with pieces of {sizes} channels")
    offsets = np.cumsum([0] + sizes)
    wmat = weight.data.reshape(channels, 9)
    flats = [p.data.reshape(batch, size, n) for p, size in zip(pieces, sizes)]
    taps = _taps(height, width)
    # taps_in[b, k, q] = the weights of tap k times input column q, summed over every piece's channels
    taps_in = np.matmul(wmat[offsets[0] : offsets[1]].T, flats[0])
    prod = np.empty_like(taps_in) if len(pieces) > 1 else None
    for lo, hi, xf in zip(offsets[1:-1], offsets[2:], flats[1:]):
        taps_in += np.matmul(wmat[lo:hi].T, xf, out=prod)
    planes = taps_in.reshape(batch, 9, height, width)
    acc = np.zeros((batch, height, width), dtype=taps_in.dtype)
    for k, (dst_rows, src_rows), (dst_cols, src_cols) in taps:
        acc[:, dst_rows, dst_cols] += planes[:, k, src_rows, src_cols]
    acc += bias.data
    data = acc.reshape(batch, 1, height, width)

    def backward(g):
        bias.accumulate(g.sum(axis=(0, 2, 3)))
        # laid[b, k, q] = g at the output that reads input q through tap k
        laid = np.zeros((batch, 9, n), dtype=g.dtype)
        planes = laid.reshape(batch, 9, height, width)
        dw_items = np.empty((batch, channels, 9), dtype=np.result_type(*flats, g))
        dxs = [np.empty(p.data.shape, dtype=np.result_type(wmat, g)) for p in pieces]
        for k, (dst_rows, src_rows), (dst_cols, src_cols) in taps:
            planes[:, k, src_rows, src_cols] = g[:, 0, dst_rows, dst_cols]
        for xf, dx, lo, hi in zip(flats, dxs, offsets[:-1], offsets[1:]):
            np.matmul(xf, laid.transpose(0, 2, 1), out=dw_items[:, lo:hi])
            np.matmul(wmat[lo:hi], laid, out=dx.reshape(batch, hi - lo, n))
        weight.accumulate(dw_items.sum(axis=0).reshape(weight.data.shape))
        for p, dx in zip(pieces, dxs):
            p.accumulate(dx)

    return _node(data, (*pieces, weight, bias), backward)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """3x3 convolution, stride 1, zero padding 1, of any output width.

    weight: (C_out, C_in, 3, 3); bias: (C_out,). Per item, one
    (C_out, C_in*9) @ (C_in*9, H*W) GEMM over a patch matrix; the network's
    single-output prediction head calls :func:`head_conv` on its input
    pieces instead. No patch matrix covers the whole batch: each item's
    patches go into one reused workspace (:func:`_item_patches`) and its
    GEMM and bias add write straight into the output. Backward builds one
    patch matrix of the output gradient per item and takes both gradients
    from it. dX is the forward conv of the output gradient with the
    flipped, transposed kernel (C_in, C_out*9), so it needs no col2im
    scatter. dW is the product of the same patches with the item's input,
    (C_out*9, H*W) @ (H*W, C_in), written per item into a
    (B, C_out*9, C_in) array and summed over items in batch order: gradient
    tap k reads the output at the offset that input tap 8 - k writes, so
    flipping the taps back gives (C_out, C_in, 3, 3).
    """
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"conv2d input must be (B, C, H, W), got {x.data.shape}")
    c_out, c_in, kh, kw = weight.data.shape
    if c_in != x.data.shape[1] or (kh, kw) != (3, 3):
        raise ShapeMismatchError(f"conv2d weight {weight.data.shape} incompatible with input {x.data.shape}")
    batch, channels, height, width = x.data.shape
    wmat = weight.data.reshape(c_out, channels * 9)
    out = np.empty((batch, c_out, height * width), dtype=np.result_type(x.data, wmat))
    bias_col = bias.data.reshape(-1, 1)
    for i, cols in enumerate(_item_patches(x.data)):
        np.matmul(wmat, cols, out=out[i])
        out[i] += bias_col
    data = out.reshape(batch, c_out, height, width)

    def backward(g):
        bias.accumulate(g.sum(axis=(0, 2, 3)))
        # flipped tap (di, dj) of output channel o reads weight[o, :, 2 - di, 2 - dj]
        wflip = weight.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(channels, c_out * 9)
        xm = x.data.reshape(batch, channels, height * width)
        dx = np.empty(x.data.shape, dtype=np.result_type(g, wflip))
        # dw_items[i]: (C_out*9, C_in), row (o, k) holds item i's dW[o, :, 2 - di, 2 - dj] for tap k = (di, dj)
        dw_items = np.empty((batch, c_out * 9, channels), dtype=np.result_type(g, xm))
        for i, cols in enumerate(_item_patches(g)):
            np.matmul(wflip, cols, out=dx[i].reshape(channels, -1))
            np.matmul(cols, xm[i].T, out=dw_items[i])
        x.accumulate(dx)
        dw = dw_items.sum(axis=0).reshape(c_out, 3, 3, channels)[:, ::-1, ::-1].transpose(0, 3, 1, 2)
        weight.accumulate(np.ascontiguousarray(dw))

    return _node(data, (x, weight, bias), backward)


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """2x2 transposed convolution with stride 2 (exact x2 upsampling).

    weight: (C_in, C_out, 2, 2); bias: (C_out,). Output blocks do not
    overlap, so forward and backward are plain matrix multiplies. Forward
    computes one output phase at a time into a reused block, so no GEMM
    output four times the block's size is held.
    """
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"conv_transpose2d input must be (B, C, H, W), got {x.data.shape}")
    batch, channels, height, width = x.data.shape
    c_in, c_out, kh, kw = weight.data.shape
    if c_in != channels or (kh, kw) != (2, 2):
        raise ShapeMismatchError(f"conv_transpose2d weight {weight.data.shape} incompatible with input {x.data.shape}")
    # phase (i, j) holds output pixels (2h+i, 2w+j): per item, (C_out, C_in) @ (C_in, H*W)
    xm = x.data.reshape(batch, channels, height * width)
    wmat = weight.data.reshape(channels, c_out * 4)
    phases = weight.data.transpose(2, 3, 0, 1).copy()  # phases[i, j].T is weight[:, :, i, j].T, BLAS-ready
    dtype = np.result_type(x.data, weight.data)
    data = np.empty((batch, c_out, 2 * height, 2 * width), dtype=dtype)
    block = np.empty((batch, c_out, height * width), dtype=dtype)
    bias_col = bias.data.reshape(-1, 1)
    for i, j in _BLOCK_OFFSETS:
        np.matmul(phases[i, j].T, xm, out=block)
        block += bias_col
        data[:, :, i::2, j::2] = block.reshape(batch, c_out, height, width)

    def backward(g):
        gm = np.empty((batch, c_out, 2, 2, height, width), dtype=g.dtype)
        gm_rows = gm.reshape(batch, c_out * 4, height * width)
        dw_items = np.empty((batch, channels, c_out * 4), dtype=np.result_type(xm, g))
        dx = np.empty(xm.shape, dtype=np.result_type(wmat, g))
        for i, j in _BLOCK_OFFSETS:
            gm[:, :, i, j] = g[:, :, i::2, j::2]
        np.matmul(xm, gm_rows.transpose(0, 2, 1), out=dw_items)
        np.matmul(wmat, gm_rows, out=dx)
        weight.accumulate(dw_items.sum(axis=0).reshape(weight.data.shape))
        bias.accumulate(g.sum(axis=(0, 2, 3)))
        x.accumulate(dx.reshape(x.data.shape))

    return _node(data, (x, weight, bias), backward)


def max_pool2(x: Tensor) -> Tensor:
    """2x2 max pooling, stride 2; ties route the gradient to the first maximum.

    The op keeps no argmax index. Backward compares each of the four
    window positions, in order, with the pooled output, and a window's
    gradient goes to the first position that equals it; a running
    "not yet taken" mask stops later ties from taking it again. Position
    3 takes every window left over, which includes a window holding NaN,
    whose maximum equals none of its entries.
    """
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"max_pool2 input must be (B, C, H, W), got {x.data.shape}")
    batch, channels, height, width = x.data.shape
    if height % 2 or width % 2:
        raise ShapeMismatchError(f"max_pool2 needs even spatial dims, got {height}x{width}")
    # window position k = 2 * row + col, each a strided view of x
    views = [x.data[:, :, i::2, j::2] for i, j in _BLOCK_OFFSETS]
    data = np.maximum(np.maximum(views[0], views[1]), np.maximum(views[2], views[3]))

    def backward(g):
        dx = np.empty(x.data.shape, dtype=g.dtype)
        free = np.ones(data.shape, dtype=bool)  # windows whose gradient no earlier position took
        hit = np.empty_like(free)
        for k, (i, j) in enumerate(_BLOCK_OFFSETS):
            if k < 3:
                np.equal(views[k], data, out=hit)
                hit &= free
                free ^= hit
            else:
                hit = free
            np.multiply(g, hit, out=dx[:, :, i::2, j::2])
        x.accumulate(dx)

    return _node(data, (x,), backward)


def _bn_affine(gamma, beta, mean, var):
    """(inv_std, scale, shift) of batch norm as one per-channel multiply-add x * scale + shift."""
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    scale = gamma * inv_std
    return inv_std, scale, beta - scale * mean


def fold_batch_norm(weight, bias, gamma, beta, running_mean, running_var, out_axis: int):
    """Eval-mode batch norm folded into the preceding conv: (weight * scale, bias * scale + shift).

    ``out_axis`` is the weight's output-channel axis: 0 for a conv2d
    weight, 1 for a conv_transpose2d weight. The conv with the returned
    arrays equals eval-mode :func:`batch_norm` of the conv's output, up to
    rounding. Statistics are cast to the weight's dtype, as
    :func:`batch_norm` casts them to its input's.
    """
    mean = running_mean.astype(weight.dtype, copy=False)
    var = running_var.astype(weight.dtype, copy=False)
    _, scale, shift = _bn_affine(gamma, beta, mean, var)
    broadcast = [1] * weight.ndim
    broadcast[out_axis] = -1
    return weight * scale.reshape(broadcast), bias * scale + shift


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """Per-channel batch normalization over (batch, H, W).

    In training mode the batch statistics normalize the input and update
    the running buffers in place with momentum ``BN_MOMENTUM``; the
    network trains with :func:`batch_norm_relu` instead, and this mode
    stays as the reference the fused op is tested against. In eval mode
    the op is a pure per-channel affine map of the running statistics;
    the network's eval forward does not call it but folds that same map
    into the preceding convolution (:func:`fold_batch_norm`), and this
    mode stays as the reference the fold is tested against.
    """
    n = x.data.size // x.data.shape[1]
    if training:
        # one pass each for sum(x) and sum(x^2), accumulated in float64
        mean = np.einsum("bchw->c", x.data, dtype=np.float64) / n
        var = np.maximum(np.einsum("bchw,bchw->c", x.data, x.data, dtype=np.float64) / n - mean * mean, 0.0)
        mean, var = mean.astype(x.dtype), var.astype(x.dtype)
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mean
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    else:
        mean = running_mean.astype(x.dtype, copy=False)
        var = running_var.astype(x.dtype, copy=False)
    inv_std, scale, shift = _bn_affine(gamma.data, beta.data, mean, var)
    data = x.data * scale[None, :, None, None] + shift[None, :, None, None]

    def backward(g):
        sum_g = np.einsum("bchw->c", g, dtype=np.float64)
        sum_gx = np.einsum("bchw,bchw->c", g, x.data, dtype=np.float64)
        dgamma = inv_std * (sum_gx - mean * sum_g)  # sum(g * xhat)
        beta.accumulate(sum_g.astype(beta.dtype))
        gamma.accumulate(dgamma.astype(gamma.dtype))
        dx = g * scale[None, :, None, None]
        if training:
            # dx = scale * (g - mean(g) - xhat * mean(g * xhat)) = scale * g + a * x + b
            a = -scale * inv_std * dgamma / n
            b = -scale * sum_g / n - a * mean
            dx += x.data * a.astype(dx.dtype)[None, :, None, None]
            dx += b.astype(dx.dtype)[None, :, None, None]
        x.accumulate(dx)

    return _node(data, (x, gamma, beta), backward)


def _channel_sums(rows: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """Per-channel sums of (B, C, N) ``rows``, or of ``rows * other``: per-(item, channel) sums in the rows' dtype, added in float64."""
    per_row = rows.sum(axis=2) if other is None else np.einsum("bcn,bcn->bc", rows, other)
    return per_row.sum(axis=0, dtype=np.float64)


def batch_norm_relu(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: np.ndarray, running_var: np.ndarray) -> Tensor:
    """Train-mode ``relu(batch_norm(x, training=True))`` as one node that holds only ``x`` and its output.

    Forward writes ``x - mean`` once into the output buffer, takes the
    variance from that centered buffer, and then scales, shifts and
    clamps it in place; the running buffers update as in
    :func:`batch_norm`. Backward masks the op's own gradient in place by
    ``output > 0``, which is where the relu passed its input, and builds
    ``dx`` in that same buffer, which ``x`` then receives: the walk reads
    an op output's gradient no more once its closure has run.
    """
    batch, channels = x.data.shape[:2]
    n = x.data.size // channels
    xr = x.data.reshape(batch, channels, -1)
    mean = (_channel_sums(xr) / n).astype(x.dtype)
    rows = xr - mean[:, None]
    var = (_channel_sums(rows, rows) / n).astype(x.dtype)
    running_mean *= BN_MOMENTUM
    running_mean += (1.0 - BN_MOMENTUM) * mean
    running_var *= BN_MOMENTUM
    running_var += (1.0 - BN_MOMENTUM) * var
    inv_std, scale, _ = _bn_affine(gamma.data, beta.data, mean, var)
    rows *= scale[:, None]
    rows += beta.data[:, None]
    np.maximum(rows, 0, out=rows)

    def backward(g):
        gr = g.reshape(rows.shape)
        gr *= rows > 0
        sum_g = _channel_sums(gr)
        dgamma = inv_std * (_channel_sums(gr, xr) - mean * sum_g)  # sum(g * xhat)
        beta.accumulate(sum_g.astype(beta.dtype))
        gamma.accumulate(dgamma.astype(gamma.dtype))
        # dx = scale * (g - mean(g) - xhat * mean(g * xhat)) = scale * g + a * x + c
        a = -scale * inv_std * dgamma / n
        c = -scale * sum_g / n - a * mean
        gr *= scale[:, None]
        gr += a.astype(gr.dtype)[:, None] * xr
        gr += c.astype(gr.dtype)[:, None]
        x.accumulate(gr.reshape(x.data.shape))

    return _node(rows.reshape(x.data.shape), (x, gamma, beta), backward)


def map_loss(pred: Tensor, targets: np.ndarray, loss_fn) -> Tensor:
    """Bridge a per-map loss (value + analytic gradient) into the graph.

    pred: (B, 1, H, W); targets: (B, H, W). Forward averages the
    per-sample loss values; backward injects the per-sample analytic
    gradients scaled by 1/B.
    """
    batch = pred.data.shape[0]
    if targets.shape[0] != batch or pred.data.shape[2:] != targets.shape[1:]:
        raise ShapeMismatchError(f"pred {pred.data.shape} incompatible with targets {targets.shape}")
    reports = [loss_fn(pred.data[i, 0], targets[i]) for i in range(batch)]
    value = np.asarray(sum(r.value for r in reports) / batch, dtype=pred.dtype)
    grads = np.stack([r.grad for r in reports])[:, None] / batch

    def backward(g):
        pred.accumulate(g * grads.astype(pred.dtype))

    return _node(value, (pred,), backward)


__all__ = [
    "Tensor",
    "relu",
    "tanh",
    "concat",
    "slice_batch",
    "matmul",
    "l2_normalize",
    "correlation",
    "conv2d",
    "head_conv",
    "conv_transpose2d",
    "max_pool2",
    "batch_norm",
    "batch_norm_relu",
    "fold_batch_norm",
    "map_loss",
]
