import functools
import hashlib
import inspect
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from sndmseg import cli, synth
from sndmseg.cli import main
from sndmseg.losses import LossConfig
from sndmseg.network import NetConfig, init_params, load_net, save_net
from sndmseg.raster import read_float_map, read_mask, write_float_map, write_mask
from sndmseg.sndm import sndm_encode
from sndmseg.synth import gen_dataset, GenConfig, load_dataset
from sndmseg.train import AblationConfig, TrainConfig, ablation, reference_config
from strategies import mixed_size_dataset, save_with_lying_header


@pytest.fixture
def mask_file(tmp_path):
    mask = np.zeros((9, 9), dtype=bool)
    mask[2:7, 3:6] = True
    path = tmp_path / "mask.pgm"
    write_mask(mask, str(path))
    return path, mask


def test_missing_file_is_domain_error(tmp_path, capsys):
    code = main(["sndm-encode", str(tmp_path / "missing.pgm"), "--out", str(tmp_path / "o.sndmf")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: MissingFile: ")
    assert "\n" == captured.err[captured.err.index("\n") :]  # single line


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_help_lists_flags(capsys):
    for command in ("gen-data", "edt", "sndm-encode", "sndm-decode", "train", "eval", "gradcheck", "ablation"):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--config" in out
        assert "(default: None)" not in out
    assert main(["train", "--help"]) == 0
    assert f"(default {TrainConfig.max_epochs}; reference {reference_config().max_epochs})" in capsys.readouterr().out


def test_edt_with_oracle(mask_file, tmp_path, capsys):
    path, mask = mask_file
    out = tmp_path / "d.sndmf"
    assert main(["edt", str(path), "--out", str(out), "--oracle"]) == 0
    assert "oracle check passed" in capsys.readouterr().out
    from sndmseg.distance import edt

    assert np.allclose(read_float_map(str(out)), edt(mask).astype(np.float32))


def test_sndm_encode_decode_round_trip(mask_file, tmp_path):
    path, mask = mask_file
    encoded_path = tmp_path / "m.sndmf"
    decoded_path = tmp_path / "back.pgm"
    assert main(["sndm-encode", str(path), "--out", str(encoded_path)]) == 0
    assert np.array_equal(read_float_map(str(encoded_path)), sndm_encode(mask))
    assert main(["sndm-decode", str(encoded_path), "--out", str(decoded_path)]) == 0
    assert np.array_equal(read_mask(str(decoded_path)), mask)


def test_encode_degenerate_mask_errors(tmp_path, capsys):
    path = tmp_path / "full.pgm"
    write_mask(np.ones((4, 4), dtype=bool), str(path))
    assert main(["sndm-encode", str(path), "--out", str(tmp_path / "o.sndmf")]) == 1
    assert capsys.readouterr().err.startswith("error: DegenerateMask: ")


def test_decode_rejects_non_finite_and_overlong_maps(tmp_path, capsys):
    header = b"SNDM" + (2).to_bytes(4, "little") + (1).to_bytes(4, "little")
    cases = (
        (np.array([0.5, np.nan], dtype="<f4").tobytes(), "error: NonFinite: "),
        (np.array([0.5, -0.5], dtype="<f4").tobytes() + b"junk", "error: TruncatedPayload: "),
    )
    for payload, prefix in cases:
        path = tmp_path / "m.sndmf"
        path.write_bytes(header + payload)
        out = tmp_path / "back.pgm"
        assert main(["sndm-decode", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists()


def test_gen_data_writes_dataset(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-data", "--pairs", "3", "--seed", "5", "--size", "32", "--out", str(out)]) == 0
    assert (out / "manifest.tsv").exists()
    assert len(list(out.iterdir())) == 13


def test_gen_data_requires_pairs(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig: ")


def test_gen_data_rejects_fewer_than_one_pair(tmp_path, capsys):
    for pairs in ("0", "-1"):
        assert main(["gen-data", "--pairs", pairs, "--out", str(tmp_path / "d")]) == 1
        assert capsys.readouterr().err.startswith(f"error: InvalidConfig: need at least one pair, got {pairs}")
        assert not (tmp_path / "d").exists()


def test_eval_bad_manifest_is_domain_error(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    manifest = data / "manifest.tsv"
    for payload, detail in (
        (b"pair_0000\ta.ppm\tb.pgm\n", ":1: expected 5 tab-separated fields, got 3"),
        (b"\n\npair_0000\xff\ta\tb\tc\td\n", ":3: not UTF-8 text"),
    ):
        manifest.write_bytes(payload)
        assert main(["eval", "--ckpt", str(tmp_path / "none.ckpt"), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: MalformedHeader: {manifest}{detail}\n"


def test_eval_manifest_path_out_of_the_dataset_is_domain_error(tmp_path, capsys):
    data = tmp_path / "data"
    (row,) = gen_dataset(3, GenConfig(image_size=16), 1, str(data))
    (data / "sub").mkdir()
    for target in (tmp_path / row[1], data / "sub" / row[1]):  # real images where the bad fields point
        target.write_bytes((data / row[1]).read_bytes())
    for field in (str(tmp_path / row[1]), f"../{row[1]}", f"sub/{row[1]}"):
        (data / "manifest.tsv").write_text("\t".join((row[0], field, *row[2:])) + "\n")
        assert main(["eval", "--ckpt", str(tmp_path / "none.ckpt"), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: MalformedHeader: {data / 'manifest.tsv'}:1: file field '{field}'")
        assert err.count("\n") == 1


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A valid mask, float map, config file, dataset and checkpoint, keyed by what each path argument takes."""
    root = tmp_path_factory.mktemp("inputs")
    mask = np.zeros((9, 9), dtype=bool)
    mask[2:7, 3:6] = True
    write_mask(mask, str(root / "mask.pgm"))
    write_float_map(sndm_encode(mask), str(root / "map.sndmf"))
    (root / "settings.cfg").write_text("# no keys\n")
    gen_dataset(100, GenConfig(image_size=16), 2, str(root / "data"))
    net = NetConfig(input_size=16, widths=(4, 6), levels=2)
    save_net(str(root / "net.ckpt"), net, init_params(net))
    return {"mask": root / "mask.pgm", "map": root / "map.sndmf", "config": root / "settings.cfg", "data": root / "data", "ckpt": root / "net.ckpt"}


# (command line with PATH for the argument under test and OUT for the output, what the argument takes)
PATH_ARGUMENTS = {
    "edt mask": (["edt", "PATH", "--out", "OUT"], "mask"),
    "sndm-encode mask": (["sndm-encode", "PATH", "--out", "OUT"], "mask"),
    "sndm-decode map": (["sndm-decode", "PATH", "--out", "OUT"], "map"),
    "eval --ckpt": (["eval", "--ckpt", "PATH", "--data", "data", "--report", "OUT"], "ckpt"),
    "eval --data": (["eval", "--ckpt", "ckpt", "--data", "PATH", "--report", "OUT"], "data"),
    "train --data": (["train", "--data", "PATH", "--val", "data", "--size", "16", "--widths", "4,6", "--out", "OUT"], "data"),
    "train --val": (["train", "--data", "data", "--val", "PATH", "--size", "16", "--widths", "4,6", "--out", "OUT"], "data"),
    "--config": (["sndm-encode", "mask", "--out", "OUT", "--config", "PATH"], "config"),
}


@pytest.mark.parametrize(
    "argument, kind",
    # an empty config file sets no key, which is valid
    [(a, k) for a in PATH_ARGUMENTS for k in ("empty", "directory", "unreadable") if (a, k) != ("--config", "empty")],
)
def test_bad_path_argument_is_one_error_line(tmp_path, capsys, valid_inputs, argument, kind):
    argv, takes = PATH_ARGUMENTS[argument]
    if kind == "unreadable" and os.geteuid() == 0:
        pytest.skip("root reads files and directories whose mode is 000")
    bad = tmp_path / "bad"
    if kind == "empty":
        bad.write_bytes(b"")
    elif kind == "directory":
        bad.mkdir()
    else:  # a valid input that its mode makes unreadable
        source = valid_inputs[takes]
        (shutil.copytree if source.is_dir() else shutil.copyfile)(source, bad)
        bad.chmod(0)
    out = tmp_path / "out"
    names = {"PATH": str(bad), "OUT": str(out), **{key: str(path) for key, path in valid_inputs.items()}}
    try:
        code = main([names.get(word, word) for word in argv])
    finally:
        bad.chmod(0o700)
    captured = capsys.readouterr()
    assert code == 1
    assert re.fullmatch(r"error: [A-Za-z]+: [^\n]+\n", captured.err), captured.err
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_gradcheck_loss_cli(capsys):
    assert main(["gradcheck", "--target", "loss", "--loss", "iou3d-edge", "--trials", "20", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


def test_train_eval_cycle(tmp_path, capsys):
    data = tmp_path / "train"
    val = tmp_path / "val"
    gen_dataset(100, GenConfig(image_size=32), 6, str(data))
    gen_dataset(200, GenConfig(image_size=32), 3, str(val))
    ckpt = tmp_path / "model.ckpt"
    code = main(
        [
            "train",
            "--data", str(data),
            "--val", str(val),
            "--size", "32",
            "--widths", "6,10",
            "--epochs", "2",
            "--seed", "3",
            "--out", str(ckpt),
        ]
    )
    assert code == 0
    assert ckpt.exists()
    history = tmp_path / "model.ckpt.history.csv"
    assert history.exists()
    assert len(history.read_text().splitlines()) == 3
    report = tmp_path / "report.json"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(val), "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert len(payload["items"]) == 3
    out = capsys.readouterr().out
    assert "jaccard=" in out


def test_eval_line_and_report_bytes_are_pinned(tmp_path, capsys):
    gen_dataset(100, GenConfig(image_size=16), 2, str(tmp_path / "data"))
    net = NetConfig(input_size=16, widths=(4, 6), levels=2)
    save_net(str(tmp_path / "net.ckpt"), net, init_params(net, seed=1))
    report = tmp_path / "report.json"
    assert main(["eval", "--ckpt", str(tmp_path / "net.ckpt"), "--data", str(tmp_path / "data"), "--report", str(report)]) == 0
    assert capsys.readouterr().out == "pairs=2 precision=0.1174 pixel_accuracy=0.2695 jaccard=0.1131\n"
    assert hashlib.sha256(report.read_bytes()).hexdigest() == "b0f8795e2aa01e520e53d6de1d9f81260161699fdb7d0311158adc904ac9382b"


def test_eval_of_a_checkpoint_declaring_a_huge_net_is_one_error_line(tmp_path, monkeypatch, capsys):
    gen_dataset(100, GenConfig(image_size=16), 1, str(tmp_path / "data"))
    path = str(tmp_path / "net.ckpt")
    save_with_lying_header(monkeypatch, path, 1048576)
    assert main(["eval", "--ckpt", path, "--data", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: CheckpointCorrupt: [^\n]*\n", err), err


def test_edt_of_a_pgm_with_a_5000_digit_width_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "big.pgm"
    path.write_bytes(b"P5\n" + b"1" * 5000 + b" 1\n255\n\0")
    assert main(["edt", str(path), "--out", str(tmp_path / "o.map")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: MalformedHeader: [^\n]*bad header token[^\n]*\n", err), err


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "{data}", "--val", "{data}", "--out", "{missing}/m.ckpt"],
        ["train", "--data", "{data}", "--val", "{data}", "--out", "{tmp}/m.ckpt", "--history", "{missing}/h.csv"],
        ["eval", "--ckpt", "{tmp}/net.ckpt", "--data", "{data}", "--report", "{missing}/r.json"],
        ["ablation", "--runs", "1", "--out", "{missing}/t.json"],
        ["ablation", "--runs", "1", "--out", "{tmp}"],
    ],
)
def test_bad_output_path_fails_before_any_data(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setattr(cli, "load_dataset", lambda directory: pytest.fail("a dataset was read"))
    monkeypatch.setattr(cli, "load_net", lambda path: pytest.fail("a checkpoint was read"))
    monkeypatch.setattr(synth, "gen_pair", lambda seed, config: pytest.fail("a pair was generated"))
    names = {"data": tmp_path / "data", "tmp": tmp_path, "missing": tmp_path / "missing"}
    assert main([word.format(**names) for word in argv]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: IoFailure: cannot write [^\n]*\n", err), err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("history", ["{tmp}/m.ckpt", "{tmp}/./m.ckpt"])
def test_train_outputs_naming_one_file_fail_before_any_data(tmp_path, monkeypatch, capsys, history):
    monkeypatch.setattr(cli, "load_dataset", lambda directory: pytest.fail("a dataset was read"))
    argv = ["train", "--data", "{tmp}/data", "--val", "{tmp}/data", "--out", "{tmp}/m.ckpt", "--history", history]
    assert main([word.format(tmp=tmp_path) for word in argv]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: InvalidConfig: outputs [^\n]* name the same file\n", err), err
    assert not list(tmp_path.iterdir())


def test_dataset_of_mixed_sizes_is_one_error_line(tmp_path, capsys):
    data = mixed_size_dataset(tmp_path)
    for argv in (
        ["train", "--data", str(data), "--val", str(data), "--out", str(tmp_path / "m.ckpt")],
        ["eval", "--ckpt", str(tmp_path / "none.ckpt"), "--data", str(data)],
    ):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: ShapeMismatch: {re.escape(str(data / 'manifest.tsv'))}:2: [^\n]*\n", err), err
    assert not (tmp_path / "m.ckpt").exists()


def test_train_on_images_smaller_than_the_network_is_one_error_line(tmp_path, capsys):
    gen_dataset(100, GenConfig(image_size=16), 2, str(tmp_path / "data"))
    data, ckpt = str(tmp_path / "data"), tmp_path / "t.ckpt"
    # the default widths at this size would need a 72 TiB dec1 weight
    assert main(["train", "--data", data, "--val", data, "--out", str(ckpt), "--size", "1048576"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: ShapeMismatch: pair 0 'pair_0000': [^\n]*, not 1048576x1048576\n", err), err
    assert not ckpt.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--ckpt", "{tmp}/net.ckpt", "--data", "{tmp}/data", "--report", "{tmp}/net.ckpt"],
        ["eval", "--ckpt", "{tmp}/net.ckpt", "--data", "{tmp}/data", "--report", "{tmp}/data/manifest.tsv"],
        ["train", "--data", "{tmp}/data", "--val", "{tmp}/val", "--out", "{tmp}/val/./manifest.tsv"],
        ["train", "--data", "{tmp}/data", "--val", "{tmp}/val", "--out", "{tmp}/m.ckpt", "--history", "{tmp}/data/manifest.tsv"],
        ["ablation", "--runs", "1", "--config", "{tmp}/run.cfg", "--out", "{tmp}/run.cfg"],
    ],
)
def test_output_naming_an_input_fails_before_any_data(tmp_path, monkeypatch, capsys, argv):
    net = NetConfig(input_size=16, widths=(4, 6), levels=2)
    save_net(str(tmp_path / "net.ckpt"), net, init_params(net))
    gen_dataset(100, GenConfig(image_size=16), 1, str(tmp_path / "data"))
    gen_dataset(200, GenConfig(image_size=16), 1, str(tmp_path / "val"))
    (tmp_path / "run.cfg").write_text("epochs = 1\n")
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    monkeypatch.setattr(cli, "load_dataset", lambda directory: pytest.fail("a dataset was read"))
    monkeypatch.setattr(cli, "load_net", lambda path: pytest.fail("a checkpoint was read"))
    monkeypatch.setattr(synth, "gen_pair", lambda seed, config: pytest.fail("a pair was generated"))
    assert main([word.format(tmp=tmp_path) for word in argv]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: InvalidConfig: output [^\n]* names an input file of this command\n", err), err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


def test_train_non_finite_input_is_domain_error(tmp_path, capsys, monkeypatch):
    data = tmp_path / "train"
    val = tmp_path / "val"
    gen_dataset(100, GenConfig(image_size=32), 4, str(data))
    gen_dataset(200, GenConfig(image_size=32), 2, str(val))

    def load_with_nan(directory):
        records = load_dataset(directory)
        if directory == str(data):
            records[0].img_a[3, 4, 0] = np.nan  # PPM cannot hold NaN; inject it after reading
        return records

    monkeypatch.setattr(cli, "load_dataset", load_with_nan)
    ckpt = tmp_path / "model.ckpt"
    args = ["train", "--data", str(data), "--val", str(val), "--size", "32", "--widths", "6,10", "--epochs", "1"]
    assert main(args + ["--out", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("error: NonFinite: training loss is nan")
    assert not ckpt.exists()


def test_train_non_finite_gradient_is_domain_error(tmp_path, capsys, monkeypatch):
    from sndmseg.losses import LOSSES, LossReport

    data = tmp_path / "train"
    val = tmp_path / "val"
    gen_dataset(100, GenConfig(image_size=32), 4, str(data))
    gen_dataset(200, GenConfig(image_size=32), 2, str(val))
    monkeypatch.setitem(LOSSES, "iou3d-edge", lambda pred, gt, cfg: LossReport(0.5, np.full(pred.shape, np.nan)))
    ckpt = tmp_path / "model.ckpt"
    args = ["train", "--data", str(data), "--val", str(val), "--size", "32", "--widths", "6,10", "--epochs", "1"]
    assert main(args + ["--out", str(ckpt)]) == 1
    assert capsys.readouterr().err.startswith("error: NonFinite: gradient norm is nan")
    assert not ckpt.exists()


def test_config_file_merging(tmp_path, capsys):
    config = tmp_path / "settings.cfg"
    config.write_text("# comment line\npairs = 2\nsize = 32\nseed = 9\n")
    out = tmp_path / "data"
    assert main(["gen-data", "--config", str(config), "--pairs", "3", "--out", str(out)]) == 0
    # flag overrides the file value
    assert len((out / "manifest.tsv").read_text().splitlines()) == 3


def test_config_file_bad_line(tmp_path, mask_file, capsys):
    config = tmp_path / "settings.cfg"
    out = tmp_path / "out"
    gen_data = ["gen-data", "--out", str(out)]
    train = ["train", "--data", "d", "--val", "v", "--out", str(out)]
    edt = ["edt", str(mask_file[0]), "--out", str(out)]
    for argv, text, detail in (
        (gen_data, b"pairs 2\n", ":"),
        (gen_data, b"# header\n = 2\n", ":"),
        (gen_data, b"pairs = 2\n\xff\xfe\n", ":"),
        (gen_data, b"pairs = 2\nsede = 9\n", ": unknown key 'sede' for gen-data"),
        (gen_data, b"pairs = 2\nconfig = other.cfg\n", ": unknown key 'config' for gen-data"),
        (gen_data, b"pairs = x\n", ": key 'pairs': cannot parse 'x'"),
        (train, b"widths = a,b\n", ": key 'widths': cannot parse 'a,b'"),
        (train, b"arch = wide\n", ": key 'arch': 'wide' is not one of plain, dense"),
        (train, b"epochs = x\n", ": key 'epochs': cannot parse 'x'"),
        (train, b"head = mask\n", ": unknown key 'head' for train"),  # --loss picks the head
        (edt, b"mask = m.pgm\n", ": unknown key 'mask' for edt"),  # positionals are no keys
        (edt, b"oracle = 1\n", ": unknown key 'oracle' for edt"),  # nor are switches
    ):
        config.write_bytes(text)
        assert main(argv + ["--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidConfig: ") and f"{config}{detail}" in err
        assert not out.exists()


def test_bad_widths_flag_is_usage_error(capsys):
    assert main(["train", "--widths", "a,b"]) == 2
    err = capsys.readouterr().err
    assert "argument --widths: bad widths 'a,b'" in err and "Traceback" not in err


class _Called(Exception):
    pass


def _capture_call(monkeypatch, name):
    """Replace ``cli.<name>`` by a stub that records its bound arguments and stops the command."""
    real = getattr(cli, name)
    calls = []

    @functools.wraps(real)  # keeps the signature that --help reads defaults from
    def stub(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        raise _Called

    monkeypatch.setattr(cli, name, stub)
    return calls


def test_options_reach_their_owner_configs(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "load_dataset", lambda directory: [])
    calls = _capture_call(monkeypatch, "train")
    required = ["train", "--data", "d", "--val", "v", "--out", str(tmp_path / "m.ckpt")]
    config = tmp_path / "settings.cfg"
    config.write_text("lr = 0.5\nepsilon = 1e-6\nbatch-size = 6\nwidths = 8,16\narch = plain\n")
    for extra in ([], ["--preset", "reference"], ["--loss", "dice"], ["--config", str(config), "--lr", "0.25"]):
        with pytest.raises(_Called):
            main(required + extra)
    plain, reference, dice, from_file = calls
    # unset options keep the defaults of the classes that own them
    assert (plain["net_config"], plain["train_config"], plain["loss_config"]) == (NetConfig(), TrainConfig(), LossConfig())
    assert reference["train_config"] == reference_config()
    # the loss picks nothing else: every loss trains the default network
    assert dice["net_config"] == NetConfig() and dice["train_config"] == TrainConfig(loss_id="dice")
    # file values fill only the flags not given
    assert from_file["train_config"] == TrainConfig(lr=0.25, batch_size=6)
    assert from_file["loss_config"] == LossConfig(epsilon=1e-6)
    assert from_file["net_config"] == NetConfig(widths=(8, 16), levels=2, dense_connections=False)

    calls = _capture_call(monkeypatch, "ablation")
    with pytest.raises(_Called):
        main(["ablation", "--runs", "1"])
    default_seed = inspect.signature(ablation).parameters["base_seed"].default
    assert calls == [{"runs": 1, "base_seed": default_seed, "config": AblationConfig()}]


def test_gradcheck_bad_lam_is_domain_error(capsys):
    for argv in (
        ["--lam", "0.5", "--trials", "1"],
        ["--lam", "inf", "--trials", "1"],
        ["--trials", "0"],
        ["--target", "net", "--trials", "0"],
        # the network check takes neither option, not even a valid value
        ["--target", "net", "--lam", "0.5", "--loss", "dice", "--trials", "1"],
        ["--target", "net", "--lam", "5", "--trials", "1"],
        ["--target", "net", "--loss", "iou3d-edge", "--trials", "1"],
    ):
        assert main(["gradcheck", *argv]) == 1, argv
        assert capsys.readouterr().err.startswith("error: InvalidConfig: "), argv


def test_module_entry_point_reports_one_error_line():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["gradcheck", "--target", "net", "--lam", "0.5", "--loss", "dice", "--trials", "1"]
    done = subprocess.run([sys.executable, "-m", "sndmseg.cli", *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert re.fullmatch(r"error: InvalidConfig: [^\n]*\n", done.stderr), done.stderr
    assert done.stdout == ""


def test_config_file_missing(tmp_path, capsys):
    assert main(["gen-data", "--config", str(tmp_path / "nope.cfg"), "--pairs", "1", "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err.startswith("error: MissingFile: ")
    # read like every other path argument: a directory is an I/O failure, not a bad config
    assert main(["gen-data", "--config", str(tmp_path), "--pairs", "1", "--out", str(tmp_path / "d")]) == 1
    assert capsys.readouterr().err.startswith(f"error: IoFailure: cannot read {tmp_path}")


def test_train_loss_dice_alone_trains_the_sndm_head(tmp_path, capsys):
    gen_dataset(100, GenConfig(image_size=16), 4, str(tmp_path / "train"))
    gen_dataset(200, GenConfig(image_size=16), 2, str(tmp_path / "val"))
    ckpt = tmp_path / "model.ckpt"
    args = ["train", "--data", str(tmp_path / "train"), "--val", str(tmp_path / "val"), "--size", "16", "--widths", "4,6"]
    assert main(args + ["--epochs", "1", "--loss", "dice", "--out", str(ckpt)]) == 0
    assert load_net(str(ckpt))[0] == NetConfig(input_size=16, widths=(4, 6), levels=2)
    assert b"output_head" not in ckpt.read_bytes()


def test_train_on_one_pair_at_batch_one(tmp_path, capsys):
    gen_dataset(100, GenConfig(image_size=16), 1, str(tmp_path / "train"))
    gen_dataset(200, GenConfig(image_size=16), 2, str(tmp_path / "val"))
    ckpt = tmp_path / "model.ckpt"
    args = ["train", "--data", str(tmp_path / "train"), "--val", str(tmp_path / "val"), "--size", "16", "--widths", "4,6"]
    assert main(args + ["--epochs", "2", "--batch-size", "1", "--out", str(ckpt)]) == 0
    assert capsys.readouterr().err == ""
    assert load_net(str(ckpt))[0] == NetConfig(input_size=16, widths=(4, 6), levels=2)
    rows = (tmp_path / "model.ckpt.history.csv").read_text().splitlines()[1:]
    assert len(rows) == 2 and all(np.isfinite([float(v) for v in row.split(",")]).all() for row in rows)


def test_ablation_without_test_pairs_fails_before_any_data(monkeypatch, capsys):
    monkeypatch.setattr(synth, "gen_pair", lambda seed, config: pytest.fail("a pair was generated"))
    assert main(["ablation", "--runs", "2", "--test-pairs", "0"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: DatasetEmpty: [^\n]*\n", err), err


def test_ablation_prints_the_rows_it_writes(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SNDM_THREADS", "1")
    out = tmp_path / "table.json"
    argv = ["ablation", "--runs", "1", "--epochs", "1", "--train-pairs", "2", "--val-pairs", "1", "--test-pairs", "1"]
    assert main(argv + ["--batch-size", "2", "--size", "16", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [row["name"] for row in rows] == ["baseline", "baseline_plus", "full"]
    expected = [f"{row['name']:>13}: precision={row['precision']:.4f} jaccard={row['jaccard']:.4f}" for row in rows]
    assert capsys.readouterr().out.splitlines() == expected


def test_head_flag_is_gone(capsys):
    assert main(["train", "--head", "mask", "--data", "d", "--val", "v", "--out", "o"]) == 2
    assert "unrecognized arguments: --head" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-data", "--pairs", "1", "--out", "OUT"],
        ["train", "--data", "d", "--val", "v", "--out", "OUT"],
        ["gradcheck", "--target", "loss", "--trials", "1"],
        ["gradcheck", "--target", "net", "--trials", "1"],
        ["ablation", "--runs", "1"],
    ],
)
def test_negative_seed_is_invalid_config(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([str(out) if word == "OUT" else word for word in argv] + ["--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: InvalidConfig: [^\n]*seed[^\n]*\n", err), err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--lr", "nan"), ("--lr", "inf"), ("--weight-decay", "nan"), ("--lam", "inf")])
def test_non_finite_hyperparameter_fails_before_any_work(monkeypatch, capsys, flag, value):
    monkeypatch.setattr(cli, "load_dataset", lambda directory: pytest.fail("a dataset was read"))
    assert main(["train", "--data", "d", "--val", "v", "--out", "o", flag, value]) == 1
    assert capsys.readouterr().err.startswith("error: InvalidConfig: ")


@pytest.mark.parametrize("target, loss", [("loss", "dice"), ("loss", "iou3d-edge"), ("net", None)])
def test_gradcheck_fails_on_nan_loss(monkeypatch, capsys, target, loss):
    import sndmseg.losses
    from sndmseg.losses import LOSSES, LossReport

    def nan_report(pred, *rest):
        return LossReport(np.nan, np.full(np.shape(pred), np.nan))

    if target == "loss":
        monkeypatch.setitem(LOSSES, loss, nan_report)
    else:
        monkeypatch.setattr(sndmseg.losses, "loss_iou3d_weighted", nan_report)
    argv = ["gradcheck", "--target", target, "--trials", "2"] + (["--loss", loss] if loss else [])
    assert main(argv) == 1
    assert "max relative error nan" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "d", "--val", "v", "--out", "OUT"],
        ["eval", "--ckpt", "c", "--data", "d", "--report", "OUT"],
        ["gradcheck", "--target", "loss", "--trials", "1"],
        ["gradcheck", "--target", "net", "--trials", "1"],
    ],
)
@pytest.mark.parametrize("threads", ["0", "two"])
def test_bad_thread_cap_is_one_error_line_before_any_work(tmp_path, monkeypatch, capsys, argv, threads):
    monkeypatch.setenv("SNDM_THREADS", threads)
    for name in ("load_dataset", "load_net", "grad_check_loss", "grad_check_net"):
        # wraps keeps the signature, whose defaults the parser reads
        refused = functools.wraps(getattr(cli, name))(lambda *args, **kwargs: pytest.fail("work started"))
        monkeypatch.setattr(cli, name, refused)
    out = tmp_path / "out"
    assert main([str(out) if word == "OUT" else word for word in argv]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: InvalidConfig: SNDM_THREADS[^\n]*\n", err), err
    assert not out.exists()
