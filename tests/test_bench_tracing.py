"""The benchmark's tracer patches package attributes by name; every name it patches must exist."""

import ast
import importlib
import os
import re
import sys
from pathlib import Path

import pytest

import sndmseg.autodiff as ad

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
SRC = Path(ROOT, "src", "sndmseg")


@pytest.fixture
def tracing(monkeypatch):
    """``bench/tracing.py`` imported read-only: it patches nothing until a tracer is installed."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave no cache files under bench/
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.delitem(sys.modules, "tracing", raising=False)
    return importlib.import_module("tracing")


def test_every_name_the_tracer_patches_resolves(tracing):
    missing = [f"{module.__name__}.{attr}" for module, attr, _ in tracing.PLAIN_SPANS if not hasattr(module, attr)]
    missing += [f"{ad.__name__}.{op}" for op in tracing.AUTODIFF_OPS if not hasattr(ad, op)]
    assert not missing, missing


def test_every_autodiff_export_has_a_user(tracing):
    """Each name in ``ad.__all__`` is used as ``ad.<name>`` in the package or patched by the tracer."""
    text = "".join(path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py")))
    used = set(re.findall(r"\bad\.(\w+)", text)) | set(tracing.AUTODIFF_OPS)
    unused = [name for name in ad.__all__ if name not in used]
    assert not unused, unused


def test_only_tensor_writes_a_gradient_slot():
    """``.grad =``, ``.grad +=`` and ``.grad[`` appear in ``autodiff.py`` only inside class ``Tensor``: ops go through ``accumulate``."""
    text = (SRC / "autodiff.py").read_text(encoding="utf-8")
    (tensor,) = [node for node in ast.parse(text).body if isinstance(node, ast.ClassDef) and node.name == "Tensor"]
    writes = [n for n, line in enumerate(text.splitlines(), 1) if re.search(r"\.grad\s*(\[|[-+*/]?=(?!=))", line)]
    outside = [n for n in writes if not tensor.lineno <= n <= tensor.end_lineno]
    assert writes and not outside, outside
