"""Spans around calls into the gaudinrsk modules, recorded from outside.

A `Tracer` replaces a function with a timing wrapper at every attribute
where a caller looks it up: the defining module, every gaudinrsk module
that imported it by name, or the class that owns a method. Nothing under
src/ is edited; `Tracer.restore` puts the original objects back.

Each span records its name, start, end and the index of the span that was
open when it began. A name's self time is the sum of its span durations
minus the time its direct child spans cover. Calls run on one thread, so
child spans never overlap and that cover is the sum of their durations.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "gaudinrsk"

class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s", "info")

    def __init__(self, name, parent):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.child_s = 0.0
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Records spans for the functions it wraps until `restore` is called."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._open = []
        self._patched = []

    def reset(self):
        """Drop recorded spans; keep the wrappers in place."""
        self.spans.clear()
        self._open.clear()

    def wrapper(self, name, fn, info=None):
        """A function that calls fn inside a span called name.

        info(args, kwargs, result), if given, is stored on the span after
        the call returns; it runs outside the timed interval of the span.
        """
        clock = self.clock
        spans = self.spans
        open_ = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = open_[-1] if open_ else -1
            index = len(spans)
            span = Span(name, parent)
            spans.append(span)
            open_.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                open_.pop()
                if parent >= 0:
                    spans[parent].child_s += span.end - span.start
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, info=None):
        """Wrap owner.attr (a module or class attribute) in place."""
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrapper(name, original, info))

    def patch_function(self, fn, name, info=None):
        """Wrap fn at every module of PACKAGE that holds it by name."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, name, info)
                    hits += 1
        if not hits:
            raise LookupError(f"{name}: no module of {PACKAGE} holds {fn!r}")

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def summary(self):
        """{name: (calls, total_s, self_s)} over the recorded spans."""
        out = {}
        for span in self.spans:
            calls, total, own = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (calls + 1, total + span.duration, own + span.self_s)
        return out

    def has_ancestor(self, span, name):
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].name == name:
                return True
            parent = self.spans[parent].parent
        return False
