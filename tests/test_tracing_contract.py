"""The benchmark tracer (perfbench/tracing.py) wraps library functions and
methods by name; every name it lists must still exist, so a rename or a
deletion fails here rather than in ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from flatpencil.exprparse import parse_expr
from flatpencil.geometry import ContraMetric, levi_civita
from flatpencil.qpoly import QPoly

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing_contract", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("layer, module, functions", tracing.TIMED_LAYERS, ids=[t[0] for t in tracing.TIMED_LAYERS])
def test_timed_layer_functions_exist(layer, module, functions):
    mod = importlib.import_module(f"flatpencil.{module}")
    for name in functions:
        assert callable(getattr(mod, name, None)), f"{layer}: flatpencil.{module}.{name} is gone"


@pytest.mark.parametrize(
    "layer, module, cls, method", tracing.COUNTED_LAYERS, ids=[t[0] for t in tracing.COUNTED_LAYERS]
)
def test_counted_layer_methods_exist(layer, module, cls, method):
    owner = getattr(importlib.import_module(f"flatpencil.{module}"), cls, None)
    assert owner is not None, f"{layer}: flatpencil.{module}.{cls} is gone"
    assert method in vars(owner), f"{layer}: {cls}.{method} is gone"


def test_levi_civita_observer_reads_gamma_terms():
    # The tracer's levi_civita observer reads args[0].g and the num/den terms
    # of every result.gamma entry.
    g = ContraMetric([[parse_expr("t1", 1)]])
    assert [[str(x) for x in row] for row in g.g] == [["t1"]]
    conn = levi_civita(g)
    assert sum(len(x.num.terms) + len(x.den.terms) for k in conn.gamma for row in k for x in row) == 2


def test_levi_civita_observer_counts_qpoly_entries(a3):
    # On a polynomial pencil the entries are QPoly, which read as the
    # fraction self/1: the observer's term count is that of the RatFunc
    # entries over the constant 1 they replaced.
    bundle, _recon = a3
    counts = []
    for g in (bundle.pencil.g1, bundle.pencil.g2):
        conn = levi_civita(g)
        assert all(isinstance(x, QPoly) for k in conn.gamma for row in k for x in row)
        counts.append(sum(len(x.num.terms) + len(x.den.terms) for k in conn.gamma for row in k for x in row))
    assert counts == [40, 27]
