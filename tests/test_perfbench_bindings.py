"""Every callable the benchmark's tracer wraps still exists where it looks.

perfbench/tracing.py reads each traced name with ``owner.__dict__[attr]``
when the benchmark runs with ``--trace 1``; a deleted or inherited name
would fail only there, so it is checked here.
"""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def test_every_traced_function_is_bound_on_its_owner():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = tracing._traced_functions()
    assert traced
    missing = [(getattr(owner, "__name__", owner), attr)
               for _, owner, attr, _ in traced if attr not in owner.__dict__]
    assert missing == []
