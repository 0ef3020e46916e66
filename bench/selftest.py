"""Self-test of the benchmark, at tiny sizes. Run from the repository root:

    python3 bench/selftest.py

It runs every workload untraced and traced, checks that each metric
BENCHMARK.json declares is reported with its unit and direction, that one
flipped mask pixel makes calls fail their check, and that the benchmark
refuses to run without the package sources.
"""

import run  # noqa: I001  first: pins the BLAS threads before numpy loads

import json
import os
import shutil
import subprocess
import sys
import tempfile

from sndmseg import NetConfig
from workloads import (
    SCRATCH_ROOT,
    WORKLOADS,
    Codec,
    CodecSize,
    Gen,
    GenSize,
    Infer,
    InferSize,
    Train,
    TrainSize,
)

TINY_NET = NetConfig(input_size=16, widths=(4, 6), levels=2)
TINY = {
    "train": (Train, TrainSize(net=TINY_NET, n_train=4, n_val=2, epochs=2, batch=2)),
    "infer": (Infer, InferSize(net=TINY_NET, n_pairs=4, batch=2)),
    "gen": (Gen, GenSize(image_size=16, pairs_per_call=2)),
    "codec": (Codec, CodecSize(source_size=16, upscale=2, n_pairs=2)),
}
SECONDS = 0.5
SEED = 3


def tiny(name, cls=None):
    base, size = TINY[name]
    return lambda: (cls or base)(SEED, size)


def test_spec_declares_units_and_directions():
    with open(run.SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] and m["better"] in ("lower", "higher"), m
    assert {"setup_s", "items_per_s", "call_ms_p50", "call_ms_p90", "peak_rss_mb"} <= set(names)


def test_every_workload_reports_every_metric():
    for name in WORKLOADS:
        for trace in (False, True):
            result = run.report(run.run(tiny(name), SECONDS, trace), trace)
            assert result["correct"] and result["attempted"] >= 1, (name, trace, result)
            declared = {d["name"]: d["unit"] for d in run.declared(trace)}
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
            if not trace:
                assert all(v["value"] > 0 for v in result["metrics"].values()), (name, result)


def test_traced_train_phases_cover_train_time():
    metrics = run.run(tiny("train"), SECONDS, True)["metrics"]
    assert metrics["train.phase_coverage_pct"] >= 90.0, metrics["train.phase_coverage_pct"]
    assert metrics["autodiff.graph_nodes"] > 0 and metrics["autodiff.conv2d.gflop"] > 0


# one flipped mask pixel, in an input after the reference was taken or in an output


class FlippedTrainMask(Train):
    def setup(self):
        super().setup()
        self.train_set[0].mask_a[0, 0] ^= True


class FlippedInferMask(Infer):
    def setup(self):
        super().setup()
        for batch in self.batches:
            batch[0].mask_a[0, 0] ^= True


class FlippedGenMask(Gen):
    def call(self, i):
        records, codes = super().call(i)
        records[0].mask_a[0, 0] ^= True
        return records, codes


class FlippedCodecMask(Codec):
    def call(self, i):
        out = super().call(i)
        out[-1][0, 0] ^= True
        return out


def test_flipped_pixel_fails_the_check():
    flipped = {"train": FlippedTrainMask, "infer": FlippedInferMask, "gen": FlippedGenMask, "codec": FlippedCodecMask}
    for name, cls in flipped.items():
        result = run.report(run.run(tiny(name, cls), SECONDS, False), False)
        assert not result["correct"] and result["failed"] == result["attempted"], (name, result)


def test_same_seed_same_inputs():
    a, b = tiny("codec")(), tiny("codec")()
    a.setup()
    b.setup()
    try:
        assert all((x == y).all() for x, y in zip(a.masks, b.masks))
    finally:
        a.close()
        b.close()


def test_refuses_to_run_without_sources():
    """In a directory holding only BENCHMARK.json and bench/, exit non-zero and print no result."""
    os.makedirs(SCRATCH_ROOT, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=SCRATCH_ROOT)
    try:
        shutil.copy(run.SPEC_PATH, bare)
        here = os.path.dirname(os.path.abspath(__file__))
        shutil.copytree(here, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
        cmd = [sys.executable, "bench/run.py", "--workload", "codec", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
