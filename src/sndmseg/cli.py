"""Command line interface.

One binary, eight subcommands: gen-data, edt, sndm-encode, sndm-decode,
train, eval, gradcheck, ablation. Options may come from a flat
``key = value`` config file (``--config``); explicit flags win over file
values, file values over defaults, and every merged value is validated
before any work starts. Domain failures exit 1 with a single
machine-parseable line ``error: <code>: <detail>``; usage problems exit 2.

The environment variable SNDM_THREADS caps worker processes for the
ablation command (default: machine cores).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .distance import edt, edt_squared, edt_squared_brute
from .errors import (
    InvalidConfigError,
    MissingFileError,
    OracleMismatchError,
    SndmError,
)
from .losses import LOSSES, LossConfig, grad_check_loss
from .network import NetConfig, grad_check_net, save_net
from .raster import parse_key_values, read_float_map, read_mask, write_float_map, write_mask
from .sndm import sndm_decode, sndm_encode
from .synth import GenConfig, gen_dataset, load_dataset
from .train import (
    AblationConfig,
    TrainConfig,
    ablation,
    evaluate_checkpoint,
    reference_config,
    train,
    write_ablation_json,
    write_history_csv,
    write_metrics_json,
)

HEADS = {"sndm": "sndm-tanh", "mask": "mask-sigmoid"}
DEFAULT_LOSS_FOR_HEAD = {"sndm": "iou3d-edge", "mask": "dice"}
GRADCHECK_THRESHOLDS = {"loss": 1e-4, "net": 1e-3}


def _parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except FileNotFoundError as exc:
        raise MissingFileError(f"no such config file: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        return parse_key_values(text)
    except ValueError as exc:
        raise InvalidConfigError(f"{path}:{exc}") from exc


class _Settings:
    """Merged view: explicit flags override config-file values override defaults."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.file = _parse_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, name: str, default, cast=str):
        flag = getattr(self.args, name.replace("-", "_"), None)
        if flag is not None:
            return flag
        if name in self.file:
            raw = self.file[name]
            try:
                return cast(raw)
            except ValueError as exc:
                raise InvalidConfigError(f"config key {name!r}: cannot parse {raw!r}") from exc
        return default

    def require(self, name: str, cast=str):
        value = self.get(name, None, cast)
        if value is None:
            raise InvalidConfigError(f"missing required option --{name} (or config key {name!r})")
        return value


def _widths(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidConfigError(f"bad widths {text!r}; expected comma-separated integers") from exc


def _net_config(settings: _Settings, dense_default: bool = True) -> NetConfig:
    head = settings.get("head", "sndm")
    if head not in HEADS:
        raise InvalidConfigError(f"head must be one of {sorted(HEADS)}, got {head!r}")
    arch = settings.get("arch", "dense" if dense_default else "plain")
    if arch not in ("plain", "dense"):
        raise InvalidConfigError(f"arch must be 'plain' or 'dense', got {arch!r}")
    widths = settings.get("widths", (16, 32, 64), _widths)
    return NetConfig(
        input_size=settings.get("size", 64, int),
        widths=widths,
        levels=len(widths),
        dense_connections=arch == "dense",
        output_head=HEADS[head],
    ).validate()


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args) -> int:
    settings = _Settings(args)
    config = GenConfig(image_size=settings.get("size", 64, int)).validate()
    pairs = settings.require("pairs", int)
    out_dir = settings.require("out")
    seed = settings.get("seed", 0, int)
    rows = gen_dataset(seed, config, pairs, out_dir)
    print(f"wrote {len(rows)} pairs to {out_dir}")
    return 0


def _cmd_edt(args) -> int:
    settings = _Settings(args)
    mask = read_mask(args.mask)
    distance = edt(mask)
    if args.oracle:
        mine = edt_squared(mask)
        brute = edt_squared_brute(mask)
        if not np.array_equal(mine, brute):
            bad = int((mine != brute).sum())
            raise OracleMismatchError(f"{bad} pixels disagree with the brute-force oracle")
        print("oracle check passed: squared distances agree exactly")
    write_float_map(distance.astype(np.float32), settings.require("out"))
    return 0


def _cmd_sndm_encode(args) -> int:
    settings = _Settings(args)
    mask = read_mask(args.mask)
    write_float_map(sndm_encode(mask), settings.require("out"))
    return 0


def _cmd_sndm_decode(args) -> int:
    settings = _Settings(args)
    values = read_float_map(args.map)
    write_mask(sndm_decode(values), settings.require("out"))
    return 0


def _cmd_train(args) -> int:
    settings = _Settings(args)
    net_config = _net_config(settings)
    head = settings.get("head", "sndm")
    preset = settings.get("preset", "toy")
    if preset not in ("toy", "reference"):
        raise InvalidConfigError(f"preset must be 'toy' or 'reference', got {preset!r}")
    base = reference_config() if preset == "reference" else TrainConfig()
    train_cfg = TrainConfig(
        batch_size=settings.get("batch-size", base.batch_size, int),
        lr=settings.get("lr", base.lr, float),
        weight_decay=settings.get("weight-decay", base.weight_decay, float),
        plateau_patience=settings.get("patience", base.plateau_patience, int),
        lr_factor=settings.get("lr-factor", base.lr_factor, float),
        max_epochs=settings.get("epochs", base.max_epochs, int),
        loss_id=settings.get("loss", DEFAULT_LOSS_FOR_HEAD[head]),
        seed=settings.get("seed", 0, int),
    ).validate()
    loss_cfg = LossConfig(
        lam=settings.get("lam", 5.0, float),
        epsilon=settings.get("epsilon", 1e-8, float),
    ).validate()
    train_set = load_dataset(settings.require("data"))
    val_set = load_dataset(settings.require("val"))
    out_path = settings.require("out")
    result = train(train_set, val_set, net_config, train_cfg, loss_cfg)
    save_net(out_path, net_config, result.params)
    history_path = settings.get("history", out_path + ".history.csv")
    write_history_csv(result.history, history_path)
    print(
        f"trained {train_cfg.max_epochs} epochs; best val loss {result.best_val_loss!r} "
        f"at epoch {result.best_epoch}; checkpoint {out_path}; history {history_path}"
    )
    return 0


def _cmd_eval(args) -> int:
    settings = _Settings(args)
    ckpt = settings.require("ckpt")
    report = evaluate_checkpoint(ckpt, load_dataset(settings.require("data")))
    report_path = settings.get("report", None)
    if report_path:
        write_metrics_json(report, report_path)
    mean = report.mean()
    print(
        f"pairs={len(report.items)} precision={mean['precision']:.4f} "
        f"pixel_accuracy={mean['pixel_accuracy']:.4f} jaccard={mean['jaccard']:.4f}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    settings = _Settings(args)
    target = settings.get("target", "loss")
    if target not in GRADCHECK_THRESHOLDS:
        raise InvalidConfigError(f"target must be 'loss' or 'net', got {target!r}")
    trials = settings.get("trials", 100 if target == "loss" else 20, int)
    seed = settings.get("seed", 0, int)
    if target == "loss":
        loss_id = settings.get("loss", "iou3d-edge")
        cfg = LossConfig(lam=settings.get("lam", 5.0, float)).validate()
        worst = grad_check_loss(loss_id, trials=trials, seed=seed, cfg=cfg)
        label = f"loss {loss_id}"
    else:
        worst = grad_check_net(trials=trials, seed=seed)
        label = "network"
    threshold = GRADCHECK_THRESHOLDS[target]
    print(f"gradcheck {label}: max relative error {worst:.3e} (threshold {threshold:.0e})")
    return 0 if worst < threshold else 1


def _cmd_ablation(args) -> int:
    settings = _Settings(args)
    config = AblationConfig(
        n_train=settings.get("train-pairs", AblationConfig.n_train, int),
        n_val=settings.get("val-pairs", AblationConfig.n_val, int),
        n_test=settings.get("test-pairs", AblationConfig.n_test, int),
        epochs=settings.get("epochs", AblationConfig.epochs, int),
        batch_size=settings.get("batch-size", AblationConfig.batch_size, int),
        lr=settings.get("lr", AblationConfig.lr, float),
        image_size=settings.get("size", AblationConfig.image_size, int),
    )
    table = ablation(settings.require("runs", int), settings.get("seed", 0, int), config)
    out_path = settings.get("out", None)
    if out_path:
        write_ablation_json(table, out_path)
    for row in table["rows"]:
        print(f"{row['name']:>13}: precision={row['precision']:.4f} jaccard={row['jaccard']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_config_flag(parser):
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sndmseg",
        description="Signed-map co-segmentation toolkit.",
        epilog="SNDM_THREADS caps worker processes (default: machine cores).",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("gen-data", help="generate a synthetic co-object pair dataset", formatter_class=fmt)
    p.add_argument("--pairs", type=int, help="number of pairs to generate")
    p.add_argument("--seed", type=int, help="base seed (pair i uses seed+i)")
    p.add_argument("--size", type=int, help="image side length (default 64)")
    p.add_argument("--out", help="output directory")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("edt", help="exact Euclidean distance transform of a mask", formatter_class=fmt)
    p.add_argument("mask", help="input PGM (P5) mask")
    p.add_argument("--out", help="output float-map file")
    p.add_argument("--oracle", action="store_true", help="verify against the brute-force oracle")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_edt)

    p = sub.add_parser("sndm-encode", help="encode a mask into a signed normalized distance map", formatter_class=fmt)
    p.add_argument("mask", help="input PGM (P5) mask")
    p.add_argument("--out", help="output float-map file")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_sndm_encode)

    p = sub.add_parser("sndm-decode", help="decode a signed map back into a mask", formatter_class=fmt)
    p.add_argument("map", help="input float-map file")
    p.add_argument("--out", help="output PGM mask")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_sndm_decode)

    p = sub.add_parser("train", help="train the co-segmentation network", formatter_class=fmt)
    p.add_argument("--data", help="training dataset directory (with manifest.tsv)")
    p.add_argument("--val", help="validation dataset directory")
    p.add_argument("--arch", choices=("plain", "dense"), help="decoder wiring (default dense)")
    p.add_argument("--head", choices=("sndm", "mask"), help="output head (default sndm)")
    p.add_argument("--loss", choices=sorted(LOSSES), help="loss id (default per head)")
    p.add_argument("--preset", choices=("toy", "reference"), help="hyperparameter preset (default toy)")
    p.add_argument("--seed", type=int, help="seed for init and shuffling")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--batch-size", type=int, help="pairs per batch")
    p.add_argument("--lr", type=float, help="initial learning rate")
    p.add_argument("--weight-decay", type=float, help="decoupled weight decay")
    p.add_argument("--patience", type=int, help="plateau epochs before halving the lr")
    p.add_argument("--lr-factor", type=float, help="plateau multiplier")
    p.add_argument("--lam", type=float, help="sign-mismatch penalty multiplier")
    p.add_argument("--size", type=int, help="input resolution")
    p.add_argument("--widths", type=_widths, help="encoder widths, comma separated")
    p.add_argument("--out", help="checkpoint output path")
    p.add_argument("--history", help="history CSV path (default <out>.history.csv)")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset", formatter_class=fmt)
    p.add_argument("--ckpt", help="checkpoint path")
    p.add_argument("--data", help="dataset directory")
    p.add_argument("--report", help="metrics JSON output path")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification", formatter_class=fmt)
    p.add_argument("--target", choices=("loss", "net"), help="what to check (default loss)")
    p.add_argument("--loss", choices=sorted(LOSSES), help="loss id for --target loss")
    p.add_argument("--trials", type=int, help="random trials / sampled parameters")
    p.add_argument("--seed", type=int, help="seed")
    p.add_argument("--lam", type=float, help="penalty multiplier for penalized losses")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablation", help="train baseline / baseline+ / full and tabulate metrics", formatter_class=fmt)
    p.add_argument("--runs", type=int, help="seeds per variant")
    p.add_argument("--seed", type=int, help="base seed")
    p.add_argument("--out", help="table JSON output path")
    p.add_argument("--epochs", type=int, help="epochs per job")
    p.add_argument("--train-pairs", type=int, help="training pairs per run")
    p.add_argument("--val-pairs", type=int, help="validation pairs per run")
    p.add_argument("--test-pairs", type=int, help="held-out pairs per run")
    p.add_argument("--batch-size", type=int, help="pairs per batch")
    p.add_argument("--lr", type=float, help="learning rate")
    p.add_argument("--size", type=int, help="image side length")
    _add_config_flag(p)
    p.set_defaults(func=_cmd_ablation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except SndmError as exc:
        detail = " ".join(str(exc).split()) or exc.code
        print(f"error: {exc.code}: {detail}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
