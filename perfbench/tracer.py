"""Per-layer tracing of ``ncdirac`` from outside the package.

A :class:`Tracer` wraps the public functions and methods of every
``ncdirac.<module>`` as the module is imported, and replaces each original
everywhere it is bound: on the module, on the classes the module defines,
and under every name another ``ncdirac`` module imported it by (``checks``
and the package ``__init__`` re-export most of them).  Nothing under
``src/`` is edited; the wrappers live only in the traced process.

The layer of a function is the module that defines it.  Every wrapped call
is counted.  A call opens a span when it crosses into another layer (or
when its function is listed in ``always_span``); spans nest on a stack, so
each one knows its parent.  When a span closes, its duration minus the time
its child spans covered is added to its layer's self time, and, for
``always_span`` functions, its duration is added to that function's
inclusive time.  Calls that stay inside one layer are counted but
open no span, which keeps the per-call cost of the hottest scalar methods to
one counter increment.

Module execution at import time is a span of the module's layer too, so a
layer's self time includes the third-party imports it is first to make
(``numpy`` in ``matrices``, ``scipy.linalg`` in ``clifford``).

Time spent while the tracer is paused (input generation, output checks) is
not part of the traced wall; time outside every span but inside the traced
wall is reported as ``outside``.  By construction::

    sum(self_time.values()) + outside == wall
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "ncdirac"

# Dunder methods left unwrapped: object protocol hooks whose wrapping would
# change behaviour or that only format output.
_SKIP_DUNDERS = frozenset({
    "__repr__", "__str__", "__format__", "__setattr__", "__delattr__",
    "__getattribute__", "__getattr__", "__init_subclass__", "__class_getitem__",
    "__new__", "__reduce__", "__reduce_ex__", "__getstate__", "__setstate__",
    "__dir__", "__sizeof__", "__subclasshook__", "__slots__",
})


def _wanted(name: str) -> bool:
    if name.startswith("__") and name.endswith("__"):
        return name not in _SKIP_DUNDERS
    return not name.startswith("_")


class Tracer:
    """Counts and layer self times for one traced process."""

    OUTSIDE = "outside"

    def __init__(self, always_span=()):
        self.always_span = frozenset(always_span)
        self.counts: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.inclusive: dict[str, float] = defaultdict(float)
        # each stack frame is [layer, time covered by child spans]
        self._stack = [[self.OUTSIDE, 0.0]]
        self._active = False
        self._started = None
        self.wall = 0.0
        self._replaced: dict[int, object] = {}

    # -- clock ----------------------------------------------------------------

    def start(self):
        if self._active:
            raise RuntimeError("tracer already running")
        self._started = time.perf_counter()
        self._active = True

    def stop(self):
        if not self._active:
            raise RuntimeError("tracer is not running")
        if len(self._stack) != 1:
            raise RuntimeError("tracer stopped inside an open span")
        self._active = False
        self.wall += time.perf_counter() - self._started

    def outside(self) -> float:
        """Traced wall time covered by no span."""
        return self.wall - self._stack[0][1]

    # -- spans ----------------------------------------------------------------

    def _span(self, layer: str, key: str | None, fn, args, kwargs):
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            stack[-1][1] += dt
            self.self_time[layer] += dt - frame[1]
            if key is not None:
                self.inclusive[key] += dt

    def _wrap(self, fn, layer: str, key: str):
        if inspect.isgeneratorfunction(fn):
            # the work runs while the caller iterates: count only
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self._active:
                    counts[key] += 1
                return fn(*args, **kwargs)

            return counted

        counts = self.counts
        stack = self._stack
        span = self._span
        always = key if key in self.always_span else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            counts[key] += 1
            if always is None and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            return span(layer, always, fn, args, kwargs)

        return traced

    # -- installation -----------------------------------------------------------

    def _wrap_module(self, module):
        layer = module.__name__.rpartition(".")[2]
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                if not name.startswith("_"):
                    wrapped = self._wrap(obj, layer, f"{layer}.{name}")
                    self._replaced[id(obj)] = wrapped
                    setattr(module, name, wrapped)
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                self._wrap_class(obj, layer)

    def _wrap_class(self, cls, layer: str):
        for name, attr in list(vars(cls).items()):
            if not _wanted(name):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer, key)))
            elif isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self._wrap(attr.__func__, layer, key)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self._wrap(attr, layer, key))

    def _rebind_imports(self, module):
        """Point names that `module` imported from traced modules at the
        wrappers (``from .clifford import build_majorana_rep``)."""
        for name, obj in list(vars(module).items()):
            wrapped = self._replaced.get(id(obj)) if inspect.isfunction(obj) else None
            if wrapped is not None:
                setattr(module, name, wrapped)

    def install(self):
        """Wrap every ``ncdirac`` module when it is imported.  Call before
        the first ``import ncdirac``; the import itself is then traced."""
        if PACKAGE in sys.modules:
            raise RuntimeError("install the tracer before importing ncdirac")
        sys.meta_path.insert(0, _TracingFinder(self))

    def finish_install(self):
        """Rebind names bound after their module was wrapped (the package
        ``__init__`` re-exports)."""
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                self._rebind_imports(module)


class _TracingLoader(importlib.abc.Loader):
    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def create_module(self, spec):
        return self._inner.create_module(spec)

    def exec_module(self, module):
        tracer = self._tracer
        name = module.__name__
        if name == PACKAGE or not tracer._active:
            self._inner.exec_module(module)
        else:
            layer = name.rpartition(".")[2]
            tracer._span(layer, None, self._inner.exec_module, (module,), {})
        tracer._rebind_imports(module)
        if name != PACKAGE:
            tracer._wrap_module(module)


class _TracingFinder(importlib.abc.MetaPathFinder):
    def __init__(self, tracer: Tracer):
        self._tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname != PACKAGE and not fullname.startswith(PACKAGE + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        spec.loader = _TracingLoader(self._tracer, spec.loader)
        return spec
