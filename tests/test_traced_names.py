"""The benchmark's traced run wraps package functions by the name each caller module imports them as.

``perfbench/traced_cli.py`` replaces ``module.attr`` for every row of its
``WRAPPED`` table, so a module that stops importing one of those names
breaks the traced run.  The table is read here without installing any
wrapper.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def wrapped_table():
    sys.path.insert(0, PERFBENCH)  # traced_cli imports bench_spans from its own directory
    try:
        import traced_cli
    finally:
        sys.path.remove(PERFBENCH)
    return traced_cli.WRAPPED


WRAPPED = wrapped_table()


@pytest.mark.parametrize("module, attr", [(module, attr) for module, attr, _ in WRAPPED],
                         ids=[f"{module.__name__.rsplit('.', 1)[-1]}.{attr}" for module, attr, _ in WRAPPED])
def test_every_traced_name_resolves(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__} no longer has {attr!r}"
