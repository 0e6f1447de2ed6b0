"""The benchmark tracer wraps ``hpyparse`` names by attribute; a refactor
that drops or renames one breaks ``hpybench/run.py --trace 1``. Installing
the tracer here catches that in the unit suite."""

from pathlib import Path

import hpyparse.events
import hpyparse.model

HPYBENCH = Path(__file__).resolve().parent.parent / "hpybench"


def test_the_benchmark_tracer_finds_every_name_it_wraps(monkeypatch):
    monkeypatch.syspath_prepend(str(HPYBENCH))
    import tracing

    restore = tracing.install(tracing.Tracer())
    try:
        assert hpyparse.model.extract_events.__wrapped__ is hpyparse.events.extract_events
    finally:
        restore()
    assert hpyparse.model.extract_events is hpyparse.events.extract_events
