"""Every public name the bench tracer wraps still exists.

``bench/tracing.py`` replaces the functions and methods listed in its
``TARGETS`` during a traced round; a deleted or renamed name would end every
traced run with an ``AttributeError``.  The tracer's source is executed into
a fresh module object, so nothing is written under ``bench/``.
"""

import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_trace_targets_resolve():
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    assert tracing.TARGETS
    for owner, attr, *_ in tracing.TARGETS:
        if isinstance(owner, type):
            # A class must define the method itself: hasattr would also find
            # inherited names such as type.__call__.
            assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
        else:
            assert hasattr(owner, attr), f"{owner.__name__}.{attr}"
