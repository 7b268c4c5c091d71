"""Spans and counts recorded at the program's layer boundaries.

A Tracer replaces module attributes, such as `optimize.inner_loop` or
`streaming.lfilter`, with wrappers that record a span around each call.
It only wraps names that one module looks up in another at call time, so the
program itself is not edited, and it puts every original back on exit.  A
name that no longer exists is recorded as absent instead of failing.
"""

import time
from collections import Counter, defaultdict

_MISSING = object()


class Tracer:
    """Spans (name, parent, start, end) kept in memory, plus named sums.

    Use as a context manager: `wrap` installs wrappers, and leaving the
    block restores the original attributes.
    """

    def __init__(self):
        self.spans = []
        self.sums = defaultdict(float)
        self.maxima = defaultdict(float)
        self.absent = []
        self.objects = {}
        self._stack = []
        self._patched = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def span(self, name):
        return _Span(self, name)

    def wrap(self, module, attr, name, after=None):
        """Record a span `name` around every call of module.attr.

        after(tracer, args, kwargs, result) runs once the call returns, to
        record counts from the arguments or the result.
        """
        original = getattr(module, attr, _MISSING)
        if original is _MISSING:
            self.absent.append("%s.%s" % (module.__name__, attr))
            return

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def totals(self):
        """{name: (calls, total seconds, self seconds)} over all spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the program is one thread.
        """
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = Counter()
        total = defaultdict(float)
        own = defaultdict(float)
        for index, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[index]
        return {name: (calls[name], total[name], own[name]) for name in calls}


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer._stack.pop()
        tracer.spans[self.index] = (self.index, self.parent, self.name, self.start, end)
        return False
