"""The benchmark tracer (perfbench/tracing.py) wraps library functions and
methods by name; every name it lists must still exist, so a rename or a
deletion fails here rather than in ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from flatpencil.exprparse import parse_expr
from flatpencil.geometry import ContraMetric, levi_civita
from flatpencil.qpoly import QPoly

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_frobenius_pencil_traces_one_call_per_forward_layer():
    # install() rebinds module globals for the rest of the process, so the
    # traced run gets an interpreter of its own.
    code = textwrap.dedent(
        """
        import contextlib, importlib.util, io, json, sys
        from flatpencil import cli
        spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
        tracer.install()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["frobenius", "pencil", sys.argv[2]])
        print(json.dumps({"exit": code, "layers": tracer.metrics()}))
        """
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    source = ROOT / "perfbench" / "sources" / "a3-frobenius.json"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(TRACING), str(source)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit"] == 0
    for layer in ("frobenius.check_wdvv", "frobenius.intersection_form", "frobenius.to_flat_pencil"):
        assert result["layers"][f"{layer}.calls"] == 1, layer
