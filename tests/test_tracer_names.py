"""The benchmark's tracer wraps splicezeta functions by name: every name it
lists must still resolve, so a renamed function fails here, not only in the
traced benchmark run."""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module() -> types.ModuleType:
    """perfbench/tracer.py, executed from its text: nothing is written
    beside it, no bytecode cache included."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    # as Tracer.install finds them: a method in its class's own namespace,
    # any other function as an attribute of its module
    tracer = _tracer_module()
    assert tracer.TRACED == [(mod, qual) for mod, quals in tracer.LAYERS.items() for qual in quals]
    missing = []
    for mod, qual in tracer.TRACED:
        home = importlib.import_module(f"splicezeta.{mod}")
        if "." in qual:
            cls_name, attr = qual.split(".")
            found = vars(getattr(home, cls_name, object)).get(attr)
        else:
            found = getattr(home, qual, None)
        if not callable(found):
            missing.append(f"{mod}.{qual}")
    assert not missing, missing
    assert len(tracer.TRACED) >= 20
