"""The benchmark's traced names resolve in the package, so that a renamed
or moved function cannot silently drop out of `--trace 1`."""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "benchmark",
                       "tracing.py")


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for modname, attr in tracing.TRACED:
        obj = importlib.import_module(f"{tracing.PACKAGE}.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            assert obj is not None, (modname, attr)
        assert callable(obj), (modname, attr)
