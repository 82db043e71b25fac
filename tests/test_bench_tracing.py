"""The benchmark's span tracer (bench/tracing.py) wraps flatdetect functions
by name; a renamed or removed layer must fail here, not in a traced run."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracing.Tracer()  # raises AttributeError when a target no longer exists
