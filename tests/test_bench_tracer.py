"""The benchmark tracer still finds every name it wraps in the package.

bench/tracer.py wraps package functions by name from outside; a rename or
a deletion in the package makes its install raise.  This runs the install
and the uninstall in the tier-1 suite and requires every original back.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_tracer_installs_on_every_traced_name_and_uninstalls_cleanly():
    t = _load_tracer().Tracer()
    try:
        t.install()
    finally:
        saved = list(t._saved)
        t.uninstall()
    names = {f"{getattr(owner, '__name__', 'dict')}.{attr}" for owner, attr, _ in saved}
    assert {"opineq.linalg.sqrt_factors", "opineq.means.tsallis_entropy",
            "opineq.means.tsallis_from_mean", "numpy.linalg.eigh"} <= names
    assert all(_current(owner, attr) is raw for owner, attr, raw in saved)
    assert not t._saved
