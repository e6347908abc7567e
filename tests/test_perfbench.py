"""The benchmark's traced call graph, replayed on a few requests.

`perfbench/run.py` fails its self-check when a binding listed in
`spans.EXPECTED_BINDINGS` is never called on its workload, and its tracer
refuses to start when a module-level container holds a traced function.
Each test here replays two requests of one workload under that tracer and
checks their outputs, so a change that would break the benchmark fails
here first.  The perfbench files are loaded as they are and not written to.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    try:
        return _load("spans"), _load("workloads")
    finally:
        sys.dont_write_bytecode = write_bytecode


@pytest.mark.parametrize("name", ["sweep", "scan", "chain"])
def test_replayed_requests_pass_and_hit_every_expected_binding(perfbench, name):
    spans, workloads = perfbench
    wl = workloads.WORKLOADS[name]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, row in enumerate(wl.inputs(np.random.default_rng([1, 0]), 2)):
            req = wl.prepare(row, i)
            assert wl.check(req, tracer.request(i, wl.run, req)) == []
    finally:
        tracer.uninstall()
    assert [b for b in spans.EXPECTED_BINDINGS[name] if not tracer.hits[b]] == []
