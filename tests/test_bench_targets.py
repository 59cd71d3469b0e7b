"""The benchmark's tracer wraps scrc functions by name: every name it lists
must still exist, or a traced run stops with AttributeError."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("target", load_tracer().TARGETS, ids=lambda t: f"{t[0]}.{t[1]}")
def test_target_resolves(target):
    module_name, attr, _ = target
    owner = importlib.import_module(f"scrc.{module_name}")
    if "." in attr:  # a method, which the tracer takes from its class's own namespace
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        assert attr in vars(owner), f"{cls_name}.{attr} is not defined on {cls_name}"
    assert callable(getattr(owner, attr, None)), f"scrc.{module_name} has no {attr}"
