"""Training, evaluation, the network gradient check and the ablation harness.

Each step runs the two branches of a batch of B pairs as one joint
forward and takes one loss over the joint prediction: the mean over the
2B maps of both branches. The validation loss is the same mean.
Optimization is Adam with decoupled weight decay. The learning rate
halves whenever the validation loss has not improved (lower by at least
``MIN_IMPROVEMENT``) for ``plateau_patience`` consecutive epochs; the stale
counter resets after each halving. The retained checkpoint is the one
with the minimum validation loss seen during the run. A non-finite
training-step loss, gradient norm or validation loss stops the run with
``NonFiniteError``.

Everything downstream of a (configuration, seed) pair is deterministic:
shuffling uses a counter-based generator, reductions keep a fixed order,
and history/metric files are written with repr-exact floats, so reruns
produce byte-identical outputs. The kernel threads of ``SNDM_THREADS``
do not change them: each thread runs whole batch items, and every sum
over items runs in batch order on the calling thread. That holds for one
numpy/scipy build and one BLAS thread count: BLAS splits its sums by
thread, so another BLAS thread count gives other float32 roundings, and
no artifact records the count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import sndm
from .errors import (
    DatasetEmptyError,
    InvalidConfigError,
    NonFiniteError,
    ShapeMismatchError,
    require_field_types,
)
from .losses import LOSSES, LossConfig
from .metrics import ItemMetrics, MetricsReport
from .network import NetConfig, NetParams, build_forward, forward_pair, init_params
from .raster import _atomic_write
from .seeding import seeded_rng
from .sndm import sndm_encode
from .synth import GenConfig, gen_pair, make_pairs

MIN_IMPROVEMENT = 1e-6  # a validation loss must fall by this much to reset the plateau counter


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings; ``batch_size`` counts pairs, and one pair per batch is enough."""

    batch_size: int = 4
    lr: float = 1e-3
    weight_decay: float = 5e-5
    plateau_patience: int = 10
    lr_factor: float = 0.5
    max_epochs: int = 40
    loss_id: str = "iou3d-edge"
    seed: int = 0

    def __post_init__(self):
        require_field_types(self)
        if self.batch_size < 1:
            raise InvalidConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        # every range test below is False for NaN
        if not 0.0 < self.lr < np.inf:
            raise InvalidConfigError(f"lr must be finite and positive, got {self.lr}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise InvalidConfigError(f"weight_decay must be finite and nonnegative, got {self.weight_decay}")
        if self.max_epochs < 1 or self.plateau_patience < 1 or self.seed < 0:
            raise InvalidConfigError("max_epochs and plateau_patience must be positive, seed nonnegative")
        if not 0.0 < self.lr_factor < 1.0:
            raise InvalidConfigError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.loss_id not in LOSSES:
            raise InvalidConfigError(f"unknown loss {self.loss_id!r}; choose from {sorted(LOSSES)}")


def reference_config(**overrides) -> TrainConfig:
    """Full-scale reference protocol: lr 1e-5 halved on 10-epoch plateaus, 120 epochs."""
    base = TrainConfig(lr=1e-5, max_epochs=120)
    return replace(base, **overrides)


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict, grads: dict, state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One Adam update (beta1=0.9, beta2=0.999, eps=1e-8) with decoupled decay.

    Mutates ``params`` and ``state`` in place; gradients are read only.
    ``grads`` must hold an array for every parameter (None counts as
    missing) and name no other, or the call raises ``ShapeMismatch``
    before any update.
    """
    missing = sorted(name for name in params if grads.get(name) is None)
    extra = sorted(grads.keys() - params.keys())
    if missing or extra:
        raise ShapeMismatchError(f"gradients do not match the parameters: missing {missing[:3]}, unknown {extra[:3]}")
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    bias1 = 1.0 - beta1**t
    bias2 = 1.0 - beta2**t
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ShapeMismatchError(f"gradient shape {g.shape} != parameter shape {theta.shape} for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(theta)
            state.v[name] = np.zeros_like(theta)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        theta -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(theta.dtype)
        if weight_decay:
            theta -= (lr * weight_decay) * theta


@dataclass
class PlateauScheduler:
    """Halve (by ``factor``) after ``patience`` consecutive epochs without improvement.

    Improvement means a validation loss at least ``MIN_IMPROVEMENT`` below
    the best seen so far; the stale counter resets after each reduction,
    so another full ``patience`` run of bad epochs is needed for the next.
    """

    lr: float
    patience: int
    factor: float
    best: float = np.inf
    stale: int = 0

    def update(self, val_loss: float) -> float:
        if val_loss <= self.best - MIN_IMPROVEMENT:
            self.stale = 0
        else:
            self.stale += 1
            if self.stale >= self.patience:
                self.lr *= self.factor
                self.stale = 0
        if val_loss < self.best:
            self.best = val_loss
        return self.lr


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float


@dataclass
class TrainResult:
    params: NetParams
    net_config: NetConfig
    history: list
    best_epoch: int
    best_val_loss: float


def _check_set_sizes(n_train: int, *n_held_out: int) -> None:
    """Every set needs a pair; one training pair is enough, since batch norm sees both of its images."""
    if n_train < 1 or min(n_held_out) < 1:
        raise DatasetEmptyError(f"every dataset must be nonempty, got {n_train} training and {list(n_held_out)} held-out pairs")


def _check_pair_sizes(size: int, *record_sets) -> None:
    """Name the first pair whose images or masks are not ``size`` x ``size``, before any work on the records."""
    for records in record_sets:
        for index, record in enumerate(records):
            sizes = [np.shape(arr)[:2] for arr in (record.img_a, record.mask_a, record.img_b, record.mask_b)]
            if any(shape != (size, size) for shape in sizes):
                raise ShapeMismatchError(f"pair {index} {record.pair_id!r}: image and mask sizes {sizes}, not {size}x{size}")


def _targets_for(records):
    return [(sndm_encode(r.mask_a), sndm_encode(r.mask_b)) for r in records]


def _stack_batch(records, targets, indices):
    """Images of both branches plus the joint targets: the A maps, then the B maps."""
    img_a = np.stack([records[i].img_a for i in indices])
    img_b = np.stack([records[i].img_b for i in indices])
    gt = np.stack([targets[i][0] for i in indices] + [targets[i][1] for i in indices])
    return img_a, img_b, gt


def _global_norm(grads) -> float:
    """L2 norm over all gradient arrays, accumulated in float64 (finite iff every entry is)."""
    total = sum(float(np.einsum("i,i->", g.ravel(), g.ravel(), dtype=np.float64)) for g in grads)
    return float(np.sqrt(total))


def _dataset_loss(records, targets, params, net_config, loss_fn, loss_cfg, batch_size):
    total = 0.0
    for start in range(0, len(records), batch_size):
        indices = range(start, min(start + batch_size, len(records)))
        img_a, img_b, gt = _stack_batch(records, targets, indices)
        pred, _ = build_forward(img_a, img_b, params, net_config, mode="eval")
        total += float(ad.map_loss(pred, gt, loss_fn, loss_cfg).data) * len(indices)
    return total / len(records)


def train(
    train_records,
    val_records,
    net_config: NetConfig,
    train_config: TrainConfig,
    loss_config: LossConfig = LossConfig(),
) -> TrainResult:
    """Optimize a fresh network on the given pair records.

    Each epoch steps through a fresh permutation of the pairs in batches
    of ``batch_size``; every batch takes a step, a short last one too, and
    the epoch's train loss is the mean over all pairs. Every image and
    mask must be ``net_config.input_size`` pixels on each side.
    """
    _check_set_sizes(len(train_records), len(val_records))
    _check_pair_sizes(net_config.input_size, train_records, val_records)

    loss_fn = LOSSES[train_config.loss_id]
    train_targets = _targets_for(train_records)
    val_targets = _targets_for(val_records)

    params = init_params(net_config, seed=train_config.seed)
    state = AdamState()
    rng = seeded_rng(train_config.seed)
    scheduler = PlateauScheduler(train_config.lr, train_config.plateau_patience, train_config.lr_factor)
    history: list[EpochStats] = []
    best_epoch = 0
    n = len(train_records)

    for epoch in range(1, train_config.max_epochs + 1):
        lr = scheduler.lr
        order = rng.permutation(n)
        loss_sum = 0.0
        for start in range(0, n, train_config.batch_size):
            indices = order[start : start + train_config.batch_size]
            img_a, img_b, gt = _stack_batch(train_records, train_targets, indices)
            pred, param_tensors = build_forward(img_a, img_b, params, net_config, mode="train")
            loss = ad.map_loss(pred, gt, loss_fn, loss_config)
            step_loss = float(loss.data)
            if not np.isfinite(step_loss):
                raise NonFiniteError(f"training loss is {step_loss} in epoch {epoch} at batch {start // train_config.batch_size}")
            loss.backward()
            # a parameter the backward never reached has no entry, which adam_step refuses
            grads = {name: tensor.grad for name, tensor in param_tensors.items() if tensor.grad is not None}
            norm = _global_norm(grads.values())
            if not np.isfinite(norm):
                raise NonFiniteError(f"gradient norm is {norm} in epoch {epoch} at batch {start // train_config.batch_size}")
            adam_step(params.values, grads, state, lr, train_config.weight_decay)
            loss_sum += step_loss * len(indices)
        train_loss = loss_sum / n
        val_loss = _dataset_loss(val_records, val_targets, params, net_config, loss_fn, loss_config, train_config.batch_size)
        if not np.isfinite(val_loss):
            raise NonFiniteError(f"validation loss is {val_loss} after epoch {epoch}")

        if val_loss < scheduler.best:  # always true in epoch 1: val_loss is finite, best starts at inf
            best_epoch = epoch
            best_params = params.clone()
        scheduler.update(val_loss)

        # lr column reports the rate used during this epoch; schedule
        # reductions take effect from the next row
        history.append(EpochStats(epoch, train_loss, val_loss, lr))

    return TrainResult(best_params, net_config, history, best_epoch, float(scheduler.best))


def write_history_csv(history, path: str) -> None:
    lines = ["epoch,train_loss,val_loss,lr\n"]
    lines += [f"{h.epoch},{h.train_loss!r},{h.val_loss!r},{h.lr!r}\n" for h in history]
    _atomic_write(path, "".join(lines).encode("ascii"))


def write_json(doc: dict, path: str) -> None:
    """Indented ASCII JSON with repr-exact floats (a metrics report or an ablation table)."""
    _atomic_write(path, (json.dumps(doc, indent=2) + "\n").encode("ascii"))


def evaluate(
    params: NetParams,
    net_config: NetConfig,
    records,
    batch_size: int = 8,
    forward_fn=None,
) -> MetricsReport:
    """Per-pair metrics (mean over the pair's two images) plus dataset means.

    Every image and mask must be ``net_config.input_size`` pixels on each
    side. Every predicted map is decoded to a mask by ``sndm_decode``.
    ``forward_fn`` defaults to the network itself; tests may inject an
    oracle that returns known maps.
    """
    if batch_size < 1:
        raise InvalidConfigError(f"batch_size must be >= 1, got {batch_size}")
    if not records:
        raise DatasetEmptyError("evaluation set is empty")
    _check_pair_sizes(net_config.input_size, records)
    if forward_fn is None:
        forward_fn = lambda a, b: forward_pair(a, b, params, net_config)  # noqa: E731
    report = MetricsReport()
    for start in range(0, len(records), batch_size):
        chunk = records[start : start + batch_size]
        pred_a, pred_b = forward_fn(np.stack([r.img_a for r in chunk]), np.stack([r.img_b for r in chunk]))
        for offset, record in enumerate(chunk):
            per_image = MetricsReport()
            per_image.add(record.pair_id, sndm.sndm_decode(pred_a[offset]), record.mask_a)
            per_image.add(record.pair_id, sndm.sndm_decode(pred_b[offset]), record.mask_b)
            report.items.append(ItemMetrics(record.pair_id, **per_image.mean()))
    return report


def grad_check_net(trials: int = 20, seed: int = 0) -> float:
    """Finite-difference check of the full network + loss gradient.

    Runs a small dense configuration in float64, train-mode batch norm and
    the correlation block included, with one loss over the joint
    prediction of both branches as in training. It perturbs ``trials``
    randomly chosen parameter entries by a central difference of step
    1e-6 and returns the worst error relative to max(|analytic|,
    |numeric|, 1e-3); a non-finite error makes the result NaN or inf.
    A probe whose step-h and step-h/4 differences disagree is drawn again,
    and if ``4 * trials`` draws check fewer than ``trials`` probes the result is inf.
    Every probe runs on its own clone of the parameters; train mode never
    reads the running buffers it updates.

    The penalized edge loss is discontinuous where a predicted pixel
    changes sign or crosses its label, so — as in the loss-level check —
    pixels within 1e-2 of those sets (at the unperturbed parameters) are
    masked out of the checked loss: their label is set to 0, which gives
    them edge weight sqrt(|0|) = 0. The mask is frozen data, keeping the
    function identical across the +/-h evaluations.
    """
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    cfg = NetConfig(input_size=16, widths=(4, 6), levels=2)
    step = 1e-6
    rng = seeded_rng(seed)
    params = init_params(cfg, seed=seed).astype(np.float64)

    samples = [gen_pair(int(rng.integers(1 << 30)), GenConfig(image_size=cfg.input_size)) for _ in range(2)]
    img_a, img_b, gt = (arr.astype(np.float64) for arr in _stack_batch(samples, _targets_for(samples), range(2)))

    base, _ = build_forward(img_a, img_b, params, cfg, mode="train")
    p0 = base.data[:, 0]
    safe = (np.abs(p0) > 1e-2) & (np.abs(p0 - gt) > 1e-2)
    gt = np.where(safe, gt, 0.0)

    def loss_value(p: NetParams):
        pred, pt = build_forward(img_a, img_b, p, cfg, mode="train")
        return ad.map_loss(pred, gt, LOSSES["iou3d-edge"], LossConfig()), pt

    loss, pt = loss_value(params)
    loss.backward()
    analytic = {name: tensor.grad for name, tensor in pt.items()}

    def central(name, idx, h):
        plus = params.clone()
        plus.values[name][idx] += h
        minus = params.clone()
        minus.values[name][idx] -= h
        n_plus, _ = loss_value(plus)
        n_minus, _ = loss_value(minus)
        return (float(n_plus.data) - float(n_minus.data)) / (2.0 * h)

    names = sorted(params.values)
    worst = 0.0
    checked = 0
    attempts = 0
    while checked < trials and attempts < 4 * trials:
        attempts += 1
        name = names[int(rng.integers(len(names)))]
        flat = int(rng.integers(params.values[name].size))
        idx = np.unravel_index(flat, params.values[name].shape)
        numeric = central(name, idx, step)
        refined = central(name, idx, step / 4.0)
        # relu/max kinks inside the difference window invalidate the
        # estimate; step-halving inconsistency detects them, and such
        # points are resampled just like the loss check's avoid-sets
        if abs(numeric - refined) > 1e-4 * max(abs(numeric), abs(refined), 1e-3):
            continue
        checked += 1
        a = float(analytic[name][idx])
        worst = float(np.maximum(worst, abs(a - refined) / max(abs(a), abs(refined), 1e-3)))  # NaN sticks
    return worst if checked == trials else float("inf")


# ---------------------------------------------------------------------------
# ablation harness

ABLATION_VARIANTS = (  # (name, dense connections, loss id); every variant has the tanh SNDM head
    ("baseline", False, "dice"),
    ("baseline_plus", True, "dice"),
    ("full", True, "iou3d-edge"),
)
ABLATION_METRICS = ("precision", "jaccard")  # the table's columns, in order: names from metrics.METRICS


@dataclass(frozen=True)
class AblationConfig:
    n_train: int = 96
    n_val: int = 24
    n_test: int = 32
    epochs: int = 18
    batch_size: int = 4
    lr: float = 1e-3
    image_size: int = 64

    def __post_init__(self):
        require_field_types(self)
        _check_set_sizes(self.n_train, self.n_val, self.n_test)


def _ablation_configs(seed: int, cfg: AblationConfig) -> list:
    """The (NetConfig, TrainConfig) of every variant at one seed, in variant order; building them checks them."""
    return [
        (
            NetConfig(input_size=cfg.image_size, dense_connections=dense),
            TrainConfig(batch_size=cfg.batch_size, lr=cfg.lr, max_epochs=cfg.epochs, loss_id=loss_id, seed=seed),
        )
        for _, dense, loss_id in ABLATION_VARIANTS
    ]


def _ablation_datasets(seed: int, gen: GenConfig, cfg: AblationConfig):
    base = seed << 20  # disjoint seed blocks per run
    train_set = make_pairs(base, gen, cfg.n_train)
    val_set = make_pairs(base + cfg.n_train, gen, cfg.n_val)
    test_set = make_pairs(base + cfg.n_train + cfg.n_val, gen, cfg.n_test)
    return train_set, val_set, test_set


def _ablation_job(job) -> dict:
    net_config, train_config, (train_set, val_set, test_set) = job
    result = train(train_set, val_set, net_config, train_config)
    return evaluate(result.params, net_config, test_set).mean()


def worker_count(total_jobs: int) -> int:
    """Worker processes for ``total_jobs`` jobs: at most ``ad.thread_cap()``, the SNDM_THREADS cap."""
    return max(1, min(ad.thread_cap(), total_jobs))


def ablation(runs: int, base_seed: int = 0, config: AblationConfig = AblationConfig()) -> dict:
    """Train every variant for ``runs`` seeds and tabulate the ``ABLATION_METRICS`` means.

    ``AblationConfig`` checks its set sizes when it is built; its other
    values are checked when the parent builds every job's (NetConfig,
    TrainConfig), before it generates a dataset or starts a process.
    Each seed's datasets are generated once and shared by its variants.
    Workers only train and evaluate, each in a spawned process pinned to
    a single BLAS thread and a single kernel thread (``SNDM_THREADS=1``),
    so the table does not depend on the worker count and the workers do
    not contend for the cores.
    """
    if runs < 1 or base_seed < 0:
        raise InvalidConfigError(f"runs must be >= 1 and base_seed >= 0, got {runs} and {base_seed}")
    gen = GenConfig(image_size=config.image_size)
    workers = worker_count(runs * len(ABLATION_VARIANTS))
    seeds = range(base_seed, base_seed + runs)
    configs = {seed: _ablation_configs(seed, config) for seed in seeds}
    jobs = []
    for seed, pairs in configs.items():
        datasets = _ablation_datasets(seed, gen, config)
        jobs += [(net_config, train_config, datasets) for net_config, train_config in pairs]
    # even one worker is a spawned process: BLAS threads change the summation order, and
    # one kernel thread per worker keeps the workers from contending for the cores
    saved = {key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SNDM_THREADS")}
    for key in saved:
        os.environ[key] = "1"
    try:
        context = multiprocessing.get_context("spawn")
        with context.Pool(processes=workers) as pool:
            means = pool.map(_ablation_job, jobs)  # in job order: seed-major, then variant
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value

    names = [name for name, _, _ in ABLATION_VARIANTS]
    by_run = [means[start : start + len(names)] for start in range(0, len(means), len(names))]
    per_run = [
        {"run": run, "seed": seed, **{name: {m: mean[m] for m in ABLATION_METRICS} for name, mean in zip(names, run_means)}}
        for run, (seed, run_means) in enumerate(zip(seeds, by_run))
    ]
    rows = [{"name": name, **{m: sum(entry[name][m] for entry in per_run) / runs for m in ABLATION_METRICS}} for name in names]
    return {"runs": runs, "base_seed": base_seed, "rows": rows, "per_run": per_run}
