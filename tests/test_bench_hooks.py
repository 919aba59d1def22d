"""The traced benchmark (bench/tracing.py) wraps grouge functions and
methods by name. Every name it hooks must still exist, so that renaming one
fails here rather than silently dropping a layer from the trace."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.append(str(BENCH))

import tracing  # noqa: E402
from grouge.ppr import PprEngine  # noqa: E402


def test_every_patched_attribute_resolves():
    for owner_path, attr, _ in tracing._PATCHES:
        owner = tracing._owner(owner_path)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"


def test_every_walk_method_resolves():
    for method in tracing._WALK_METHODS:
        assert callable(getattr(PprEngine, method, None)), f"PprEngine.{method}"
