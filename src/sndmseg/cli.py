"""Command line interface.

One binary, eight subcommands: gen-data, edt, sndm-encode, sndm-decode,
train, eval, gradcheck, ablation. Argparse declares every option once.
``--config FILE`` names a flat ``key = value`` file whose keys are the
subcommand's valued flags without the leading dashes (``batch-size = 8``);
each value goes through that flag's own type and choices. A key that is
no valued flag of the subcommand (a positional, ``--oracle``, ``--config``
or a typo) fails, and so does a key given twice. The file is read like
every other path argument: a missing one is ``MissingFile``, a
directory or an unreadable file ``IoFailure``. Flags win over file
values; an option set by neither
keeps the default of the class or function that owns it. Every loss
trains the same network, whose tanh head regresses the SNDM; ``gradcheck
--target net`` takes neither ``--loss`` nor ``--lam``. Every config
checks its values when it is built from the flags and the file, so a bad
value fails before any work starts; ``ablation`` builds every job's
configs before it generates a dataset or starts a worker. Each output
that a long command writes last (``train --out``/``--history``, ``eval
--report``, ``ablation --out``) must name a file path in an existing
directory, and name neither another output nor an input (the ``--ckpt``
or ``--config`` file, a ``--data``/``--val`` dataset's manifest), before
any data is read. ``eval`` prints one ``name=value`` per entry of
``metrics.METRICS``, in its order. Domain failures exit 1 with a single
machine-parseable line ``error: <code>: <detail>``; usage problems exit 2.

The environment variable SNDM_THREADS caps the cores a command uses
(default: the cores this process may run on): the threads over which
``train``, ``eval`` and ``gradcheck`` split each batch's items, and the
worker processes of ``ablation``, which run one thread each. These
commands check it before any work; the thread count does not change any
output. It is the only thread setting: every command runs numpy's
OpenBLAS on one thread in process, whatever ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` say, unless numpy was built on another BLAS.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
from dataclasses import replace

import numpy as np

from .autodiff import thread_cap
from .distance import edt, edt_squared, edt_squared_brute
from .errors import InvalidConfigError, IoFailureError, OracleMismatchError, SndmError
from .losses import LOSSES, LossConfig, grad_check_loss
from .network import NetConfig, load_net, save_net
from .raster import _read_bytes, parse_key_values, read_float_map, read_mask, write_float_map, write_mask
from .sndm import sndm_decode, sndm_encode
from .synth import GenConfig, gen_dataset, load_dataset, manifest_path
from .train import (
    ABLATION_METRICS,
    AblationConfig,
    TrainConfig,
    ablation,
    evaluate,
    grad_check_net,
    reference_config,
    train,
    write_history_csv,
    write_json,
)

ARCHS = {"plain": False, "dense": True}  # --arch -> NetConfig.dense_connections
GRADCHECK_THRESHOLDS = {"loss": 1e-4, "net": 1e-3}


def _apply_config_file(args) -> None:
    """Set every flag that the command line left unset from the ``--config`` file."""
    if args.config is None:
        return
    path = args.config
    # argparse has no public list of a parser's actions
    flags = {
        option[2:]: action
        for action in args.command_parser._actions
        for option in action.option_strings
        if option.startswith("--") and action.nargs != 0 and action.dest != "config"
    }
    try:  # UTF-8 `key = value` lines, read like every other path argument
        entries = parse_key_values(_read_bytes(path).decode("utf-8"))
    except ValueError as exc:  # a bad line, or UnicodeDecodeError
        raise InvalidConfigError(f"{path}:{exc}") from exc
    for key, raw in entries.items():
        action = flags.get(key)
        if action is None:
            raise InvalidConfigError(f"{path}: unknown key {key!r} for {args.command}")
        try:
            value = action.type(raw) if action.type else raw
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise InvalidConfigError(f"{path}: key {key!r}: cannot parse {raw!r}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise InvalidConfigError(f"{path}: key {key!r}: {raw!r} is not one of {', '.join(action.choices)}")
        if getattr(args, action.dest) is None:
            setattr(args, action.dest, value)


def _given(args, **dests) -> dict:
    """Owner field -> value of each named option that is set; the rest keep the owner's default."""
    return {name: getattr(args, dest) for name, dest in dests.items() if getattr(args, dest) is not None}


def _default_of(fn, name: str):
    return inspect.signature(fn).parameters[name].default


def _name_of(table: dict, value) -> str:
    return next(name for name, entry in table.items() if entry == value)


def _check_out_dirs(outputs, inputs) -> None:
    """Fail before any work when an output path is a directory, its directory does not exist, or it names another output or an input file."""
    given = [path for path in outputs if path is not None]
    for path in given:
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise IoFailureError(f"cannot write {path}: not a file path in an existing directory")
    if len({os.path.realpath(path) for path in given}) < len(given):
        raise InvalidConfigError(f"outputs {', '.join(given)} name the same file")
    read = {os.path.realpath(path) for path in inputs if path is not None}
    for path in given:
        if os.path.realpath(path) in read:
            raise InvalidConfigError(f"output {path} names an input file of this command")


def _widths(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad widths {text!r}; expected comma-separated integers") from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_data(args) -> int:
    config = replace(GenConfig(), **_given(args, image_size="size"))
    rows = gen_dataset(args.seed or 0, config, args.pairs, args.out)
    print(f"wrote {len(rows)} pairs to {args.out}")
    return 0


def _cmd_edt(args) -> int:
    mask = read_mask(args.mask)
    distance = edt(mask)
    if args.oracle:
        mine = edt_squared(mask)
        brute = edt_squared_brute(mask)
        if not np.array_equal(mine, brute):
            bad = int((mine != brute).sum())
            raise OracleMismatchError(f"{bad} pixels disagree with the brute-force oracle")
        print("oracle check passed: squared distances agree exactly")
    write_float_map(distance.astype(np.float32), args.out)
    return 0


def _cmd_sndm_encode(args) -> int:
    write_float_map(sndm_encode(read_mask(args.mask)), args.out)
    return 0


def _cmd_sndm_decode(args) -> int:
    write_mask(sndm_decode(read_float_map(args.map)), args.out)
    return 0


def _cmd_train(args) -> int:
    thread_cap()  # a bad SNDM_THREADS fails here, before any data is read
    net = _given(args, input_size="size", widths="widths")
    if args.widths is not None:
        net["levels"] = len(args.widths)
    if args.arch is not None:
        net["dense_connections"] = ARCHS[args.arch]
    net_config = replace(NetConfig(), **net)
    train_cfg = replace(
        reference_config() if args.preset == "reference" else TrainConfig(),
        **_given(args, batch_size="batch_size", lr="lr", weight_decay="weight_decay", plateau_patience="patience"),
        **_given(args, lr_factor="lr_factor", max_epochs="epochs", loss_id="loss", seed="seed"),
    )
    loss_cfg = replace(LossConfig(), **_given(args, lam="lam", epsilon="epsilon"))
    history_path = args.history or args.out + ".history.csv"
    _check_out_dirs((args.out, history_path), (args.config, manifest_path(args.data), manifest_path(args.val)))
    train_set = load_dataset(args.data)
    val_set = load_dataset(args.val)
    result = train(train_set, val_set, net_config, train_cfg, loss_cfg)
    save_net(args.out, net_config, result.params)
    write_history_csv(result.history, history_path)
    print(
        f"trained {train_cfg.max_epochs} epochs; best val loss {result.best_val_loss!r} "
        f"at epoch {result.best_epoch}; checkpoint {args.out}; history {history_path}"
    )
    return 0


def _cmd_eval(args) -> int:
    thread_cap()
    _check_out_dirs((args.report,), (args.config, args.ckpt, manifest_path(args.data)))
    records = load_dataset(args.data)
    net_config, params = load_net(args.ckpt)
    report = evaluate(params, net_config, records)
    if args.report:
        write_json(report.to_json_dict(), args.report)
    print(f"pairs={len(report.items)} " + " ".join(f"{name}={value:.4f}" for name, value in report.mean().items()))
    return 0


def _cmd_gradcheck(args) -> int:
    thread_cap()
    target = args.target or "loss"
    given = _given(args, trials="trials", seed="seed")
    if target == "loss":
        loss_id = args.loss or TrainConfig.loss_id
        cfg = replace(LossConfig(), **_given(args, lam="lam"))
        worst = grad_check_loss(loss_id, cfg=cfg, **given)
        label = f"loss {loss_id}"
    elif args.loss is not None or args.lam is not None:
        raise InvalidConfigError("--loss and --lam apply to --target loss only; the network check uses its own loss")
    else:
        worst = grad_check_net(**given)
        label = "network"
    threshold = GRADCHECK_THRESHOLDS[target]
    print(f"gradcheck {label}: max relative error {worst:.3e} (threshold {threshold:.0e})")
    return 0 if worst < threshold else 1


def _cmd_ablation(args) -> int:
    config = replace(
        AblationConfig(),
        **_given(args, n_train="train_pairs", n_val="val_pairs", n_test="test_pairs", epochs="epochs"),
        **_given(args, batch_size="batch_size", lr="lr", image_size="size"),
    )
    _check_out_dirs((args.out,), (args.config,))
    table = ablation(args.runs, config=config, **_given(args, base_seed="seed"))
    if args.out:
        write_json(table, args.out)
    for row in table["rows"]:
        print(f"{row['name']:>13}: " + " ".join(f"{metric}={row[metric]:.4f}" for metric in ABLATION_METRICS))
    return 0


# ---------------------------------------------------------------------------
# parser


def _subcommand(sub, name: str, func, help_text: str, required: tuple = ()):
    """A subcommand parser with ``--config``; ``required`` options must come from a flag or the file."""
    parser = sub.add_parser(name, help=help_text, description=help_text)
    parser.add_argument("--config", metavar="FILE", help="key = value file of this command's valued flags; flags override it")
    parser.set_defaults(func=func, command_parser=parser, required=required)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sndmseg",
        description="Signed-map co-segmentation toolkit.",
        epilog="SNDM_THREADS caps the cores used: kernel threads, or ablation worker processes (default: usable cores).",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = _subcommand(sub, "gen-data", _cmd_gen_data, "generate a synthetic co-object pair dataset", ("pairs", "out"))
    p.add_argument("--pairs", type=int, help="number of pairs to generate (required)")
    p.add_argument("--seed", type=int, help="base seed; pair i uses seed+i (default 0)")
    p.add_argument("--size", type=int, help=f"image side length (default {GenConfig.image_size})")
    p.add_argument("--out", help="output directory (required)")

    p = _subcommand(sub, "edt", _cmd_edt, "exact Euclidean distance transform of a mask", ("out",))
    p.add_argument("mask", help="input PGM (P5) mask")
    p.add_argument("--out", help="output float-map file (required)")
    p.add_argument("--oracle", action="store_true", help="verify against the brute-force oracle")

    p = _subcommand(sub, "sndm-encode", _cmd_sndm_encode, "encode a mask into a signed normalized distance map", ("out",))
    p.add_argument("mask", help="input PGM (P5) mask")
    p.add_argument("--out", help="output float-map file (required)")

    p = _subcommand(sub, "sndm-decode", _cmd_sndm_decode, "decode a signed map back into a mask", ("out",))
    p.add_argument("map", help="input float-map file")
    p.add_argument("--out", help="output PGM mask (required)")

    reference = reference_config()
    p = _subcommand(sub, "train", _cmd_train, "train the co-segmentation network", ("data", "val", "out"))
    p.add_argument("--data", help="training dataset directory with manifest.tsv (required)")
    p.add_argument("--val", help="validation dataset directory (required)")
    p.add_argument("--arch", choices=tuple(ARCHS), help=f"decoder wiring (default {_name_of(ARCHS, NetConfig.dense_connections)})")
    p.add_argument(
        "--loss",
        choices=sorted(LOSSES),
        help=f"loss id; every loss trains the tanh SNDM head (default {TrainConfig.loss_id})",
    )
    p.add_argument("--preset", choices=("toy", "reference"), help="hyperparameter preset (default toy)")
    p.add_argument("--seed", type=int, help=f"seed for init and shuffling (default {TrainConfig.seed})")
    p.add_argument("--epochs", type=int, help=f"training epochs (default {TrainConfig.max_epochs}; reference {reference.max_epochs})")
    p.add_argument("--batch-size", type=int, help=f"pairs per batch (default {TrainConfig.batch_size})")
    p.add_argument("--lr", type=float, help=f"initial learning rate (default {TrainConfig.lr}; reference {reference.lr})")
    p.add_argument("--weight-decay", type=float, help=f"decoupled weight decay (default {TrainConfig.weight_decay})")
    p.add_argument("--patience", type=int, help=f"plateau epochs before the lr drops (default {TrainConfig.plateau_patience})")
    p.add_argument("--lr-factor", type=float, help=f"plateau multiplier (default {TrainConfig.lr_factor})")
    p.add_argument("--lam", type=float, help=f"sign-mismatch penalty multiplier (default {LossConfig.lam})")
    p.add_argument("--epsilon", type=float, help=f"loss denominator guard (default {LossConfig.epsilon})")
    p.add_argument("--size", type=int, help=f"input resolution (default {NetConfig.input_size})")
    p.add_argument("--widths", type=_widths, help=f"encoder widths, one per level (default {','.join(map(str, NetConfig.widths))})")
    p.add_argument("--out", help="checkpoint output path (required)")
    p.add_argument("--history", help="history CSV path (default <out>.history.csv)")

    p = _subcommand(sub, "eval", _cmd_eval, "evaluate a checkpoint on a dataset", ("ckpt", "data"))
    p.add_argument("--ckpt", help="checkpoint path (required)")
    p.add_argument("--data", help="dataset directory (required)")
    p.add_argument("--report", help="metrics JSON output path")

    p = _subcommand(sub, "gradcheck", _cmd_gradcheck, "finite-difference gradient verification")
    p.add_argument("--target", choices=tuple(GRADCHECK_THRESHOLDS), help="what to check (default loss)")
    p.add_argument("--loss", choices=sorted(LOSSES), help=f"loss id for --target loss (default {TrainConfig.loss_id})")
    p.add_argument(
        "--trials",
        type=int,
        help=f"random trials or sampled parameters (default {_default_of(grad_check_loss, 'trials')} "
        f"for loss, {_default_of(grad_check_net, 'trials')} for net)",
    )
    p.add_argument("--seed", type=int, help=f"seed (default {_default_of(grad_check_loss, 'seed')})")
    p.add_argument("--lam", type=float, help=f"penalty multiplier for penalized losses, --target loss only (default {LossConfig.lam})")

    p = _subcommand(sub, "ablation", _cmd_ablation, "train baseline / baseline+ / full and tabulate metrics", ("runs",))
    p.add_argument("--runs", type=int, help="seeds per variant (required)")
    p.add_argument("--seed", type=int, help=f"base seed (default {_default_of(ablation, 'base_seed')})")
    p.add_argument("--out", help="table JSON output path")
    p.add_argument("--epochs", type=int, help=f"epochs per job (default {AblationConfig.epochs})")
    p.add_argument("--train-pairs", type=int, help=f"training pairs per run (default {AblationConfig.n_train})")
    p.add_argument("--val-pairs", type=int, help=f"validation pairs per run (default {AblationConfig.n_val})")
    p.add_argument("--test-pairs", type=int, help=f"held-out pairs per run (default {AblationConfig.n_test})")
    p.add_argument("--batch-size", type=int, help=f"pairs per batch (default {AblationConfig.batch_size})")
    p.add_argument("--lr", type=float, help=f"learning rate (default {AblationConfig.lr})")
    p.add_argument("--size", type=int, help=f"image side length (default {AblationConfig.image_size})")

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
        _apply_config_file(args)
        missing = [name for name in args.required if getattr(args, name) is None]
        if missing:
            raise InvalidConfigError(f"missing required option --{missing[0]} (or config key {missing[0]!r})")
        return args.func(args)
    except SndmError as exc:
        detail = " ".join(str(exc).split()) or exc.code
        print(f"error: {exc.code}: {detail}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
