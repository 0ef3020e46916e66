"""sndmseg benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 bench/run.py --workload train --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of BENCHMARK.json. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it print the environment and every metric with its unit. The exit code is
1 when any output check failed, 2 when the package sources are missing.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS before numpy loads: the thread count changes the summation
# order, hence the numerics of train(), and one thread was no slower.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
sys.dont_write_bytecode = True  # write nothing outside the run's scratch directory

SRC = os.path.join(os.getcwd(), "src")
SETUP_REPEATS = 3
MIN_P90_SAMPLES = 100  # ten or more samples lie beyond the 90th percentile


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "sndmseg", "__init__.py")):
        print(f"error: no sndmseg sources under {SRC}; run from the repository root", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


_import_package()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
from workloads import SCRATCH_ROOT, WORKLOADS  # noqa: E402

SPEC_PATH = "BENCHMARK.json"


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "blas_threads": BLAS_THREADS,
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(wl, seconds: float) -> dict:
    """Call ``wl`` back to back for ``seconds``; only the calls are timed."""
    samples, failed = [], 0
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        i = len(samples)
        t0 = time.perf_counter()
        try:
            out = wl.call(i)
        except Exception:  # a failing call is counted, and the loop goes on
            samples.append(time.perf_counter() - t0)
            traceback.print_exc()
            failed += 1
            continue
        samples.append(time.perf_counter() - t0)
        failed += not wl.check(i, out)
    return {"samples": samples, "failed": failed}


def run(factory, seconds: float, trace: bool, out_path: str | None = None) -> dict:
    """Set up (several times), measure, and return metrics and counts.

    ``factory()`` builds a fresh workload. In a traced run the first half
    of the time is measured untraced and the second half traced, which
    gives the tracing overhead.
    """
    setup_times, wl = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if wl is not None:
                wl.close()
            wl = factory()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        if not trace:
            m = measure(wl, seconds)
            samples = m["samples"]
            median = statistics.median(samples)
            metrics = {
                "setup_s": statistics.median(setup_times),
                # at the median call, so that bursts of load from other tenants
                # of a shared machine do not set the figure
                "items_per_s": wl.items / median,
                "call_ms_p50": 1e3 * median,
                "call_ms_p90": 1e3 * statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 else 1e3 * samples[0],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            return {"metrics": metrics, "attempted": len(samples), "failed": m["failed"]}
        plain = measure(wl, seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(wl, seconds / 2)
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer, len(traced["samples"]))
        slowdown = statistics.median(traced["samples"]) / statistics.median(plain["samples"])
        metrics["trace_overhead_pct"] = 100.0 * (slowdown - 1.0)
        metrics["train.val_loss"] = getattr(wl, "ref_val", 0.0)
        if out_path:
            tracer.write(out_path, {"workload": wl.name, "calls": len(traced["samples"])})
        return {
            "metrics": metrics,
            "attempted": len(plain["samples"]) + len(traced["samples"]),
            "failed": plain["failed"] + traced["failed"],
        }
    finally:
        if wl is not None:
            wl.close()


def declared(trace: bool) -> list:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def report(outcome: dict, trace: bool) -> dict:
    """Order and unit the metrics as BENCHMARK.json declares them."""
    decl = declared(trace)
    names = [d["name"] for d in decl]
    if sorted(names) != sorted(outcome["metrics"]):
        missing = sorted(set(names) - set(outcome["metrics"]))
        extra = sorted(set(outcome["metrics"]) - set(names))
        raise SystemExit(f"error: metrics differ from {SPEC_PATH}: missing {missing}, undeclared {extra}")
    metrics = {d["name"]: {"value": float(outcome["metrics"][d["name"]]), "unit": d["unit"]} for d in decl}
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(SPEC_PATH):
        print(f"error: no {SPEC_PATH} in {os.getcwd()}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env))
    trace_path = None
    if args.trace:
        os.makedirs(SCRATCH_ROOT, exist_ok=True)
        trace_path = os.path.join(SCRATCH_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
    factory = lambda: WORKLOADS[args.workload](args.seed)  # noqa: E731
    outcome = run(factory, args.seconds, bool(args.trace), trace_path)
    result = report(outcome, bool(args.trace))

    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'ops_failed_ratio':36s} {result['failed'] / result['attempted']:>16.6g} ({result['failed']}/{result['attempted']})")
    if not args.trace and result["attempted"] < MIN_P90_SAMPLES:
        print(f"note: {result['attempted']} calls; call_ms_p90 has fewer than ten samples beyond it")
    if trace_path:
        print(f"spans: {trace_path}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
