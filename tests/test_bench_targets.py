"""The benchmark's layer tracer patches the functions named in
``perfbench/tracing.py`` ``TARGETS``; a simplification that deletes or
renames one of them breaks the traced benchmark runs. Check that every
target still resolves."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402


@pytest.mark.parametrize("target", tracing.TARGETS, ids=[t[0] for t in tracing.TARGETS])
def test_trace_target_resolves(target):
    _, module_name, path, _ = target
    owner = importlib.import_module(module_name)
    if "." in path:  # a class member, patched in the class namespace
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, path))
