"""Every name the benchmark tracer rebinds exists where the tracer looks for it.

``perfbench/tracing.py`` wraps module globals and class-level methods by
name; a renamed or moved function would otherwise surface only in a traced
benchmark run.
"""
import importlib

import pytest

from perfbench import tracing


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, name, _ in tracing.SPANS + tracing.LEAVES]
)
def test_traced_global_is_a_module_global(module, name):
    assert name in vars(importlib.import_module(module))


@pytest.mark.parametrize("cls, method", [(cls, method) for cls, method, _ in tracing.COUNTED])
def test_counted_method_is_defined_on_its_class(cls, method):
    algebra = importlib.import_module("tribrackets.algebra")
    assert method in vars(getattr(algebra, cls))
