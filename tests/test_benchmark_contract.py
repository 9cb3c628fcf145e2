"""The library names the benchmark reads: perfbench/spans.py patches each
(module, function) of WRAPPED at every import site, and a traced run dies
on a name the package no longer has; perfbench/workloads.py builds its
inputs and checks its replies through module attributes, keyword
arguments and FamilySpec fields, and a renamed one fails only its run.
The span observers read some arguments by position, so a traced build and
verify run here too."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from spreadbent.cli import main
from spreadbent.families import FamilySpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the modules workloads.py imports whole, as `from spreadbent import ...`
MODULES = ("boolfun", "cli", "families", "gf2e", "lrs", "rank2")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


spans = load_spans()
workloads = ast.parse((PERFBENCH / "workloads.py").read_text())


def module_attributes():
    """Every `module.attr` workloads.py reads, as (module, attr)."""
    return sorted({
        (node.value.id, node.attr)
        for node in ast.walk(workloads)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    })


def keyword_calls():
    """Every keyword that workloads.py passes to a `module.function(...)`,
    as (module, function, keyword)."""
    return sorted({
        (node.func.value.id, node.func.attr, kw.arg)
        for node in ast.walk(workloads)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id in MODULES
        for kw in node.keywords
    })


@pytest.mark.parametrize("name", sorted(spans.WRAPPED))
def test_every_wrapped_function_resolves(name):
    home, attr = spans.WRAPPED[name]
    assert callable(getattr(importlib.import_module(f"spreadbent.{home}"), attr))


def test_every_traced_module_and_the_root_span_resolve():
    for module in spans.MODULES:
        importlib.import_module(f"spreadbent.{module}")
    home, attr = spans.ROOT.split(".")
    assert callable(getattr(importlib.import_module(f"spreadbent.{home}"), attr))


@pytest.mark.parametrize("module, attr", module_attributes())
def test_every_attribute_the_workloads_read_resolves(module, attr):
    assert hasattr(importlib.import_module(f"spreadbent.{module}"), attr)


def test_every_keyword_the_workloads_pass_is_a_parameter():
    calls = keyword_calls()
    assert ("boolfun", "from_spread", "plus_type") in calls
    for module, function, keyword in calls:
        target = getattr(importlib.import_module(f"spreadbent.{module}"), function)
        assert keyword in inspect.signature(target).parameters, (module, function, keyword)


def test_family_spec_has_the_fields_the_workloads_read():
    fields = {f.name for f in dataclasses.fields(FamilySpec)}
    for name in ("polys", "spread_type", "family_id", "l", "b", "m"):
        assert name in fields or isinstance(getattr(FamilySpec, name, None), property), name


def test_a_traced_build_and_verify_feed_every_computed_metric(capsys):
    # the observers read rank_gf2's args[1], enumerate_families' args[0]
    # and args[1], and development_matrix's args[0].n by position, which
    # the name checks above do not reach
    tracer = spans.Tracer()
    with tracer.installed():
        for argv in (["build", "--l", "2", "--b", "2", "--family-id", "5"], ["verify"]):
            with tracer.span(spans.ROOT):
                assert main(argv) == 0
    capsys.readouterr()
    metrics = tracer.metrics(1.0)
    for name in spans.COMPUTED:
        assert metrics[name] > 0, name
