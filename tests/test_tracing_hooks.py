"""The benchmark's tracer (perfbench/tracing.py) wraps circnet functions by
module attribute. A refactor that renames, drops or stops calling one of
them would leave a traced benchmark run silently incomplete; these tests pin
every hook it relies on. The tracer is imported from its file, unedited."""

import importlib
import sys
from pathlib import Path

import pytest

from circnet import search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_traced_name_resolves(tracing):
    for module, attr, _name, _counts in tracing.TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_install_and_remove_restore_the_originals(tracing):
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in tracing.TRACED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, attr, original in originals:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.remove()
    for module, attr, original in originals:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_traced_search_counts_its_classes(tracing):
    # (32, 4) has three ties, (1, 7), (1, 9) and (1, 12), in two
    # unit-multiplication classes; each class is measured once under
    # run_search, which is called through the module attribute the tracer wraps
    tracer = tracing.Tracer()
    tracer.job = "search-32-4"
    tracer.install()
    try:
        search.run_search(32, 4, search.SearchConfig(workers=1))
    finally:
        tracer.remove()
    layers = tracing.layer_metrics(tracer.spans, "search")
    assert layers["search.scanned"] == 14
    assert layers["search.ties"] == 3
    assert layers["search.classes"] == 2
    assert layers["metrics.exact_calls"] == 2
    assert layers["metrics.bfs_s"] > 0
