"""The benchmark's span list must name functions that exist.

`perfbench/spans.py` patches each (module, attribute) of its BOUNDARIES
through the module's ``__dict__``, so a renamed or removed function makes
`perfbench/run.py --trace 1` fail with a KeyError.  This test catches
that first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans_module()


@pytest.mark.parametrize("module_name,attr,name", SPANS.BOUNDARIES,
                         ids=[f"{m}.{a}" for m, a, _ in SPANS.BOUNDARIES])
def test_span_boundary_resolves(module_name, attr, name):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(owner.__dict__[leaf])


def test_tracer_patches_and_restores_every_boundary():
    import smdc.cli

    before = smdc.cli.entry
    with SPANS.Tracer():
        assert smdc.cli.entry is not before
    assert smdc.cli.entry is before
