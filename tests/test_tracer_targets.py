"""Every target the benchmark tracer wraps still exists in the package.

``perfbench.tracer.Tracer.install`` skips a target it cannot find, so a
renamed or deleted function would silently record no spans and read as a
zero per-layer metric. These tests read the tracer's target tables and
change nothing in the benchmark.
"""

import importlib
import inspect

from perfbench.tracer import FUNCTIONS, GENERATORS, METHODS


def _resolve(module: str, *path: str):
    obj = importlib.import_module(module)
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj


def test_function_targets_resolve():
    missing = [(m, a) for m, a, _ in FUNCTIONS + GENERATORS if not callable(_resolve(m, a))]
    assert missing == []


def test_generator_targets_are_generator_functions():
    # the tracer drives each one with next() and closes it when the caller stops
    wrong = [(m, a) for m, a, _ in GENERATORS if not inspect.isgeneratorfunction(_resolve(m, a))]
    assert wrong == []


def test_method_targets_resolve():
    missing = [(m, c, a) for m, c, a, _ in METHODS if not callable(_resolve(m, c, a))]
    assert missing == []
