"""The benchmark's tracer patches package attributes by name; every name it patches must exist."""

import importlib
import os
import sys

import sndmseg.autodiff as ad

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_every_name_the_tracer_patches_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache files under bench/
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    tracing = importlib.import_module("tracing")
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.PLAIN_SPANS if not hasattr(module, attr)]
    missing += [f"{ad.__name__}.{op}" for op in tracing.AUTODIFF_OPS if not hasattr(ad, op)]
    assert not missing, missing
