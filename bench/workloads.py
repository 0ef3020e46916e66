"""The four benchmark workloads.

Each workload is a closed loop with one caller: ``call(i)`` runs one unit
of work through the public ``sndmseg`` API and returns its outputs, and
``check(i, out)`` verifies them outside the timed region. Inputs come only
from the workload seed. ``items`` is how many items one call processes,
the unit of ``items_per_s``.

Layers are reached through module attributes (``sndmseg.raster.write_mask``
rather than a name bound at import), so the traced run can wrap them.

The brute-force EDT oracle (``edt_squared_brute``) is never used here: it
allocates O(rows * W * |boundary|) per chunk, which at 512x512 would cost
more memory and time than the transform it checks. The codec check uses
the exact property that the distance is 0 precisely on boundary pixels.
"""

from __future__ import annotations

import importlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

import sndmseg
import sndmseg.distance
import sndmseg.raster
import sndmseg.sndm
import sndmseg.synth
from sndmseg import GenConfig, NetConfig, TrainConfig

# the package re-exports the function train(), which hides the module's name
train_module = importlib.import_module("sndmseg.train")

SCRATCH_ROOT = ".bench_run"  # all files a run writes live here, under the checkout


def _scratch_dir() -> str:
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="w-", dir=SCRATCH_ROOT)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class Workload:
    name = ""
    items = 1

    def setup(self) -> None:
        """Build inputs and warm caches; the warm-up call is not timed."""

    def call(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        if getattr(self, "dir", None):
            shutil.rmtree(self.dir, ignore_errors=True)
            self.dir = None


# ---------------------------------------------------------------------------
# train: forward, loss, backward, Adam and validation of the default network


@dataclass
class TrainSize:
    net: NetConfig = field(default_factory=NetConfig)
    n_train: int = 8
    n_val: int = 4
    epochs: int = 2
    batch: int = 4


class Train(Workload):
    """``train()`` at the default NetConfig and ``iou3d-edge`` loss, batch 4 at 64x64."""

    name = "train"

    def __init__(self, seed: int, size: TrainSize = TrainSize()):
        self.seed = seed
        self.size = size
        # every training pair is seen once per epoch, every val pair once per val pass
        self.items = (size.n_train + size.n_val) * size.epochs

    def setup(self) -> None:
        s = self.size
        gen = GenConfig(image_size=s.net.input_size)
        base = self.seed << 16
        self.train_set = sndmseg.make_pairs(base, gen, s.n_train)
        self.val_set = sndmseg.make_pairs(base + s.n_train, gen, s.n_val)
        self.config = TrainConfig(batch_size=s.batch, max_epochs=s.epochs, loss_id="iou3d-edge", seed=self.seed)
        ref = self.call(0)
        self.ref_val = ref.best_val_loss
        self.ref_digest = self._digest(ref)

    @staticmethod
    def _digest(result) -> bytes:
        return b"".join(_bits(result.params.values[k]) for k in sorted(result.params.values))

    def call(self, i: int):
        return train_module.train(self.train_set, self.val_set, self.size.net, self.config)

    def check(self, i: int, out) -> bool:
        # finite, and reproducible bit for bit
        return (
            np.isfinite(out.best_val_loss)
            and all(np.isfinite(v).all() for v in out.params.values.values())
            and out.best_val_loss == self.ref_val
            and self._digest(out) == self.ref_digest
        )


# ---------------------------------------------------------------------------
# infer: evaluate() on a checkpoint read back from disk


@dataclass
class InferSize:
    net: NetConfig = field(default_factory=NetConfig)
    n_pairs: int = 16
    batch: int = 8


class Infer(Workload):
    """``evaluate()`` of 8 pairs per call with a checkpoint saved and re-loaded in setup.

    Calls alternate between the pairs as generated and with images A and B
    swapped. Both branches share every parameter, so a swap swaps the two
    predictions bit for bit and each pair's metrics (the mean over its two
    views) stay bit-identical; every call is checked against the reference
    report of its batch.
    """

    name = "infer"

    def __init__(self, seed: int, size: InferSize = InferSize()):
        self.seed = seed
        self.size = size
        self.items = size.batch
        self.dir = None

    def setup(self) -> None:
        s = self.size
        records = sndmseg.make_pairs(self.seed << 16, GenConfig(image_size=s.net.input_size), s.n_pairs)
        self.dir = _scratch_dir()
        path = os.path.join(self.dir, "net.ckpt")
        sndmseg.save_net(path, s.net, sndmseg.init_params(s.net, seed=self.seed))
        self.net, self.params = sndmseg.load_net(path)
        self.batches = [records[k : k + s.batch] for k in range(0, len(records) - s.batch + 1, s.batch)]
        self.swapped = [[replace(r, img_a=r.img_b, img_b=r.img_a, mask_a=r.mask_b, mask_b=r.mask_a) for r in b] for b in self.batches]
        self.outputs_ok = all(self._outputs_ok(b) for b in self.batches)
        self.reference = [self._report_key(self._evaluate(b)) for b in self.batches]

    def _outputs_ok(self, batch) -> bool:
        img_a = np.stack([r.img_a for r in batch])
        img_b = np.stack([r.img_b for r in batch])
        pred_a, pred_b = sndmseg.forward_pair(img_a, img_b, self.params, self.net)
        swap_b, swap_a = sndmseg.forward_pair(img_b, img_a, self.params, self.net)
        return (
            _bits(pred_a) == _bits(swap_a)
            and _bits(pred_b) == _bits(swap_b)
            and all(np.isfinite(p).all() and np.abs(p).max() <= 1.0 for p in (pred_a, pred_b))
        )

    @staticmethod
    def _report_key(report) -> list:
        return [(m.precision, m.pixel_accuracy, m.jaccard) for m in report.items]

    def _evaluate(self, batch):
        return train_module.evaluate(self.params, self.net, batch, batch_size=self.size.batch)

    def _batch(self, i: int):
        k = (i // 2) % len(self.batches)
        return k, (self.swapped if i % 2 else self.batches)[k]

    def call(self, i: int):
        return self._evaluate(self._batch(i)[1])

    def check(self, i: int, out) -> bool:
        k, _ = self._batch(i)
        return self.outputs_ok and self._report_key(out) == self.reference[k]


# ---------------------------------------------------------------------------
# gen: the gen-data path plus the target preparation train does


@dataclass
class GenSize:
    image_size: int = 64
    pairs_per_call: int = 4


class Gen(Workload):
    """``gen_dataset`` into a directory, ``load_dataset`` back, ``sndm_encode`` every mask.

    Call i generates fresh pairs (seeds never repeat within a run), so no
    call reuses another's work.
    """

    name = "gen"

    def __init__(self, seed: int, size: GenSize = GenSize()):
        self.seed = seed
        self.size = size
        self.items = size.pairs_per_call
        self.gen = GenConfig(image_size=size.image_size)
        self.dir = None

    def setup(self) -> None:
        self.dir = _scratch_dir()
        self.check(-1, self.call(-1))

    def call(self, i: int):
        n = self.size.pairs_per_call
        sndmseg.synth.gen_dataset((self.seed << 20) + (i + 1) * n, self.gen, n, self.dir)
        records = sndmseg.synth.load_dataset(self.dir)
        codes = [(sndmseg.sndm.sndm_encode(r.mask_a), sndmseg.sndm.sndm_encode(r.mask_b)) for r in records]
        return records, codes

    def check(self, i: int, out) -> bool:
        records, codes = out
        if len(records) != self.size.pairs_per_call:
            return False
        for r, pair in zip(records, codes):
            for mask, code in zip((r.mask_a, r.mask_b), pair):
                mag = np.abs(code)
                if not (np.array_equal(sndmseg.sndm_decode(code), mask) and mag.min() >= 0.1 and mag.max() <= 1.0):
                    return False
        return True


# ---------------------------------------------------------------------------
# codec: the edt / sndm-encode / sndm-decode command-line paths at 512x512


@dataclass
class CodecSize:
    source_size: int = 128
    upscale: int = 4
    n_pairs: int = 6


class Codec(Workload):
    """One mask round trip per call through the file formats and the SNDM codec.

    Masks are synthetic 128x128 masks upscaled 4x with ``np.kron``. At 64x64
    the distance, codec and raster layers are about 2% of every other
    workload; this one makes them dominate.
    """

    name = "codec"

    def __init__(self, seed: int, size: CodecSize = CodecSize()):
        self.seed = seed
        self.size = size
        self.dir = None

    def setup(self) -> None:
        s = self.size
        gen = GenConfig(image_size=s.source_size)
        block = np.ones((s.upscale, s.upscale), dtype=bool)
        self.masks = []
        for k in range(s.n_pairs):
            pair = sndmseg.gen_pair((self.seed << 16) + k, gen)
            self.masks += [np.kron(pair.mask_a, block), np.kron(pair.mask_b, block)]
        self.dir = _scratch_dir()
        self.inputs = [os.path.join(self.dir, f"in{k}.pgm") for k in range(len(self.masks))]
        for mask, path in zip(self.masks, self.inputs):
            sndmseg.write_mask(mask, path)
        self.paths = {name: os.path.join(self.dir, name) for name in ("edt.map", "sndm.map", "out.pgm")}
        self.check(-1, self.call(-1))

    def call(self, i: int):
        raster, paths = sndmseg.raster, self.paths
        mask = raster.read_mask(self.inputs[i % len(self.inputs)])
        dist = sndmseg.distance.edt(mask)
        raster.write_float_map(dist, paths["edt.map"])
        code = sndmseg.sndm.sndm_encode(mask)
        raster.write_float_map(code, paths["sndm.map"])
        code_read = raster.read_float_map(paths["sndm.map"])
        decoded = sndmseg.sndm.sndm_decode(code_read)
        raster.write_mask(decoded, paths["out.pgm"])
        return mask, dist, code, code_read, decoded

    def check(self, i: int, out) -> bool:
        mask, dist, code, code_read, decoded = out
        return (
            np.array_equal(mask, self.masks[i % len(self.masks)])
            and np.array_equal(dist == 0.0, sndmseg.boundary_mask(mask))
            and _bits(code) == _bits(code_read)
            and np.array_equal(decoded, mask)
        )


WORKLOADS = {w.name: w for w in (Train, Infer, Gen, Codec)}
