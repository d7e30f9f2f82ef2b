"""The benchmark's tracer (perfbench/tracing.py) wraps kwcflow names by lookup.

``Tracer.installed`` reads every ``LAYER_CALLS`` entry with ``vars(owner)[attr]``,
so a name that a refactor stops binding breaks ``perfbench/run.py --trace 1``.
perfbench's own tests are not in this suite; this test guards the names here.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_bound(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracing.LAYER_CALLS if attr not in vars(owner)]
    assert not missing
