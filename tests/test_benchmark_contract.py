"""The library names the benchmark's tracer wraps: perfbench/spans.py
patches each (module, function) of WRAPPED at every import site, and a
traced run dies on a name the package no longer has."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


spans = load_spans()


@pytest.mark.parametrize("name", sorted(spans.WRAPPED))
def test_every_wrapped_function_resolves(name):
    home, attr = spans.WRAPPED[name]
    assert callable(getattr(importlib.import_module(f"spreadbent.{home}"), attr))


def test_every_traced_module_and_the_root_span_resolve():
    for module in spans.MODULES:
        importlib.import_module(f"spreadbent.{module}")
    home, attr = spans.ROOT.split(".")
    assert callable(getattr(importlib.import_module(f"spreadbent.{home}"), attr))
