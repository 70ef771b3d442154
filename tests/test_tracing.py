"""perfbench's tracer against the library it wraps.

``perfbench/tracing.py`` finds the functions it traces by name, among them
the search kernels behind ``word_length``.  Here it is installed at each of
its depths around one small search and removed again, so a name the library
drops fails in seconds, not only in a traced benchmark run."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from wordbound import groups as gr
from wordbound import metric
from wordbound.gensets import make_symmetric

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("depth", ["coarse", "mul", "contains"])
def test_tracer_wraps_one_search_and_restores_the_library(depth):
    tracing = _load_tracing()
    before = dict(vars(metric))
    laws = {cls: dict(vars(cls)) for cls in vars(gr).values()
            if inspect.isclass(cls) and issubclass(cls, gr.Group)}
    G = gr.IntVector(2)
    S = make_symmetric(G, [(1, 0), (0, 1)])
    tracer = tracing.Tracer(depth).install()
    try:
        cert = metric.word_length(G, S, (3, 2), 8)
    finally:
        tracer.uninstall()
    assert cert.length == 5
    if depth == "contains":
        assert tracer.calls("groups.contains.int-vector") > 0
    else:
        assert tracer.calls("metric._length_bidirectional") == 1
        assert tracer.measure("metric._length_bidirectional") == cert.explored - 2
    if depth == "coarse":
        assert tracer.calls("metric.word_length") == 1
    if depth == "mul":
        assert tracer.calls("groups.mul.int-vector") >= tracer.search_muls > 0
    assert vars(metric) == before
    assert {cls: dict(vars(cls)) for cls in laws} == laws
