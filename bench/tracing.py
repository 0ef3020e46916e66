"""Spans around the calls into each sndmseg layer, recorded from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces
module attributes (and two methods) with wrappers that open a span, call
the original and close the span; ``Tracer.uninstall`` puts the originals
back. A span is (name, start, end, parent); spans stay in memory and are
written out once, when the run ends. Autodiff backward time is caught by
wrapping the backward closure of every node an op returns.

``layer_metrics`` turns the spans into the per-layer metrics: ``<x>_ms``
is the mean inclusive time of one call of layer x, ``<x>.calls`` the
number of calls of x per workload call.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import sndmseg.autodiff as ad
import sndmseg.distance
import sndmseg.losses
import sndmseg.metrics
import sndmseg.network
import sndmseg.raster
import sndmseg.sndm
import sndmseg.synth

# the package re-exports the function train(), which hides the module's name
train_module = importlib.import_module("sndmseg.train")

AUTODIFF_OPS = (
    "conv2d",
    "conv_transpose2d",
    "batch_norm",
    "max_pool2",
    "relu",
    "concat",
    "matmul",
    "l2_normalize",
    "tanh",
    "slice_batch",
    "map_loss",
)

# (module, attribute, span name): every place a workload's calls reach a layer
PLAIN_SPANS = (
    (train_module, "train", "train.train"),
    (train_module, "adam_step", "train.adam"),
    (train_module, "_dataset_loss", "train.val_pass"),
    (train_module, "sndm_encode", "sndm.encode"),
    (sndmseg.synth, "gen_pair", "synth.gen_pair"),
    (sndmseg.synth, "write_image", "raster.write"),
    (sndmseg.synth, "write_mask", "raster.write"),
    (sndmseg.synth, "read_image", "raster.read"),
    (sndmseg.synth, "read_mask", "raster.read"),
    (sndmseg.raster, "write_mask", "raster.write"),
    (sndmseg.raster, "read_mask", "raster.read"),
    (sndmseg.raster, "write_float_map", "raster.float_map_write"),
    (sndmseg.raster, "read_float_map", "raster.float_map_read"),
    (sndmseg.distance, "edt", "distance.edt"),
    (sndmseg.sndm, "edt", "distance.edt"),
    (sndmseg.sndm, "sndm_encode", "sndm.encode"),
    (sndmseg.sndm, "sndm_decode", "sndm.decode"),
)

# the five phases one train() call decomposes into
TRAIN_PHASES = ("network.forward", "autodiff.map_loss.fwd", "autodiff.backward", "train.adam", "train.val_pass")

# layers reported as "<span name>_ms" and "<span name>.calls"
TIMED_LAYERS = (
    "network.forward",
    "network.forward_eval",
    "losses.map_loss",
    "autodiff.backward",
    "train.adam",
    "train.val_pass",
    "synth.gen_pair",
    "raster.write",
    "raster.read",
    "distance.edt",
    "sndm.encode",
    "sndm.decode",
    "raster.float_map_write",
    "raster.float_map_read",
)


def _graph_size(root) -> int:
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self._saved = []

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return traced

    # -- installation -------------------------------------------------------

    def _patch(self, owner, key: str, value) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        for module, attr, name in PLAIN_SPANS:
            self._patch(module, attr, self.wrap(getattr(module, attr), name))
        for op in AUTODIFF_OPS:
            self._patch(ad, op, self._wrap_op(getattr(ad, op), op))
        for module in (train_module, sndmseg.network):
            self._patch(module, "build_forward", self._wrap_forward(module.build_forward))
        # train() looks its loss up in this table on every call
        losses = sndmseg.losses.LOSSES
        self._patch(losses, "iou3d-edge", self.wrap(losses["iou3d-edge"], "losses.map_loss"))
        self._patch(ad.Tensor, "backward", self._wrap_backward(ad.Tensor.backward))
        self._patch(sndmseg.metrics.MetricsReport, "add", self.wrap(sndmseg.metrics.MetricsReport.add, "metrics.add"))
        self._patch(sndmseg.synth, "_mask_ok", self._wrap_mask_ok(sndmseg.synth._mask_ok))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def _wrap_op(self, fn, op: str):
        fwd, bwd = f"autodiff.{op}.fwd", f"autodiff.{op}.bwd"

        def traced(*args, **kwargs):
            index = self.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if op == "conv2d":
                self._count_conv(*args[:2])
            backward = out._backward
            if backward is not None:
                out._backward = self.wrap(backward, bwd)
            return out

        return traced

    def _count_conv(self, x, weight) -> None:
        """Computed from shapes: GEMM flops and patch-matrix bytes of a recorded conv."""
        if not weight.requires_grad:
            return
        batch, c_in, height, width = x.data.shape
        c_out = weight.data.shape[0]
        gemms = 3 if x.requires_grad else 2  # forward, dW, and dx when the input needs it
        self.counts["conv2d_flop"] += gemms * 2.0 * batch * height * width * c_out * c_in * 9
        if c_out > 1:  # the single-output head uses shifted GEMMs, no patch matrix
            cols = batch * c_in * 9 * height * width * x.data.itemsize
            self.counts["im2col_bytes"] += cols * (2 if x.requires_grad else 1)

    def _wrap_forward(self, fn):
        train, evaluate = self.wrap(fn, "network.forward"), self.wrap(fn, "network.forward_eval")

        def traced(*args, **kwargs):
            return (train if kwargs.get("mode", "eval") == "train" else evaluate)(*args, **kwargs)

        return traced

    def _wrap_backward(self, fn):
        timed = self.wrap(fn, "autodiff.backward")

        def traced(tensor):
            self.counts["graph_nodes"] += _graph_size(tensor)
            return timed(tensor)

        return traced

    def _wrap_mask_ok(self, fn):
        def traced(mask):
            ok = fn(mask)
            self.counts["mask_ok_calls"] += 1
            self.counts["mask_ok_accepted"] += bool(ok)
            return ok

        return traced

    # -- output -------------------------------------------------------------

    def write(self, path: str, header: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {n: k for k, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "header": header,
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[code[n], round(a - t0, 7), round(b - t0, 7), p] for n, a, b, p in self.spans],
        }
        with open(path, "w", encoding="ascii") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def layer_metrics(tracer: Tracer, calls: int) -> dict:
    """Per-layer metrics from the spans of ``calls`` traced workload calls."""
    total = defaultdict(float)
    count = defaultdict(int)
    for name, start, end, _ in tracer.spans:
        total[name] += end - start
        count[name] += 1

    def mean_ms(name):
        return 1e3 * total[name] / count[name] if count[name] else 0.0

    out = {}
    for name in TIMED_LAYERS:
        out[f"{name}_ms"] = mean_ms(name)
        out[f"{name}.calls"] = count[name] / calls
    for op in AUTODIFF_OPS:
        out[f"autodiff.{op}.fwd_ms"] = mean_ms(f"autodiff.{op}.fwd")
        out[f"autodiff.{op}.bwd_ms"] = mean_ms(f"autodiff.{op}.bwd")
        out[f"autodiff.{op}.calls"] = count[f"autodiff.{op}.fwd"] / calls

    # MetricsReport.add scores one image; a pair is two of them
    pairs = count["metrics.add"] / 2
    out["metrics.pair_ms"] = 1e3 * total["metrics.add"] / pairs if pairs else 0.0
    out["metrics.pair.calls"] = pairs / calls

    c = tracer.counts
    out["synth.pose_accept_ratio"] = c["mask_ok_accepted"] / c["mask_ok_calls"] if c["mask_ok_calls"] else 0.0
    steps = count["autodiff.backward"]
    out["autodiff.graph_nodes"] = c["graph_nodes"] / steps if steps else 0.0
    out["autodiff.conv2d.gflop"] = c["conv2d_flop"] / steps / 1e9 if steps else 0.0
    out["autodiff.im2col_bytes"] = c["im2col_bytes"] / steps if steps else 0.0

    # share of traced train() time spent inside its five phases (direct children)
    spans = tracer.spans
    roots = {k for k, s in enumerate(spans) if s[0] == "train.train"}
    phases = sum(s[2] - s[1] for s in spans if s[3] in roots and s[0] in TRAIN_PHASES)
    wall = sum(spans[k][2] - spans[k][1] for k in roots)
    out["train.phase_coverage_pct"] = 100.0 * phases / wall if wall else 0.0
    return out
