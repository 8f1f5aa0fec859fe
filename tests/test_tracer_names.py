"""Every name the benchmark's layer tracer (perfbench/layertrace.py) wraps
resolves in the package: the tracer looks each one up by string only when
it installs, so a renamed or deleted name would show up there alone."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

_LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_every_name_the_tracer_wraps_exists():
    if not _LAYERTRACE.is_file():
        pytest.skip("perfbench/ is not in this checkout")
    spec = importlib.util.spec_from_file_location("_layertrace_names", _LAYERTRACE)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    module = importlib.import_module
    owners = [(module(mod), attr) for mod, attr, *_ in tracer._FUNCTIONS]
    owners += [(getattr(module(mod), cls, None), attr) for mod, cls, attr, *_ in tracer._METHODS]
    owners += [(module("oel.harness"), attr) for attr in tracer._CASE_LOOKUPS]
    owners += [(np.linalg, attr) for attr in tracer._EIGEN]
    for owner, attr in owners:
        assert callable(getattr(owner, attr, None)), f"{getattr(owner, '__name__', owner)}.{attr}"
