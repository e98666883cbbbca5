"""Spans around calls into the program's layers, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper in every
`linvariant` module namespace that holds it, because callers look the name
up there (`pipeline` calls `harmonic_basis` through its own global, for
instance); `Lift.moments` is replaced on its class.  `Tracer.uninstall`
puts the originals back, so untraced rounds run the program unchanged.

Each span records its name, start, end and parent.  A layer's self time is
its span's duration minus that of its child spans; its total counts only
the outermost span of that name, so a call nested in a call of the same
name is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute) of every traced call; "Lift.moments" is a method.
TRACED = [
    ("pipeline", "compute_l_result"),
    ("pipeline", "build_context"),
    ("pipeline", "size_parameters"),
    ("quaternions", "build_algebra"),
    ("quaternions", "maximal_order"),
    ("quaternions", "eichler_order"),
    ("splitting", "splitting_map"),
    ("domain", "compute_fundamental_domain"),
    ("cocycles", "harmonic_basis"),
    ("cocycles", "involution_matrix"),
    ("cocycles", "normalizing_element"),
    ("lifting", "make_lift"),
    ("lifting", "sigma_series_matrix"),
    ("lifting", "Lift.moments"),
    ("integration", "base_point"),
    ("integration", "covering"),
    ("integration", "log_kernel_series"),
    ("integration", "lambda_values"),
    ("loperator", "l_matrix"),
    ("loperator", "psi_values"),
    ("loperator", "eigenspace"),
    ("loperator", "restrict_operator"),
    ("loperator", "l_invariant_simple"),
    ("padics", "solve_linear"),
    ("padics", "charpoly"),
    ("padics", "newton_slopes"),
    ("padics", "hensel_root"),
]

PACKAGE = "linvariant"


class Tracer:
    def __init__(self):
        # one [name, start, end, parent index, nested in same name] per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        nested = self._active.get(name, 0) > 0
        self.spans.append([name, 0.0, 0.0, parent, nested])
        self._stack.append(idx)
        self._active[name] = self._active.get(name, 0) + 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()
            rec = self.spans[idx]
            rec[1], rec[2] = start, end

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for modname, attr in TRACED:
            mod = importlib.import_module(f"{PACKAGE}.{modname}")
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(name, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, orig, wrapper)

    def _patch(self, owner, key, orig, new):
        setattr(owner, key, new)
        self._patches.append((owner, key, orig))

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds of outermost spans, self seconds and
        number of calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, nested) in enumerate(self.spans):
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            dur = end - start
            if not nested:
                agg["s"] += dur
            agg["self_s"] += dur - child[i]
            agg["calls"] += 1
        return out
