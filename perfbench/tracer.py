"""In-memory spans around the calls the runner and estimator modules make.

The tracer replaces module attributes with timing wrappers, so it sees every
call that goes through a name ``plyap.runner`` or ``plyap.estimators`` looks
up at call time.  Spans are kept in a list and summarised when the run ends.
Each span records its name, start, end, parent span and op id.  A span opened
on a thread with no open span of its own (a ``figure()`` pool worker) takes
the innermost open span of the op's own thread as its parent: ops run one at
a time, and that thread waits inside ``figure()`` while the pool works.
"""

import functools
import inspect
import itertools
import threading
import time

OP = "op"


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op_id, counts)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op = None  # (op_id, span stack of the op's thread) while an op runs
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, sid, name, start, end, parent, counts):
        op_id = self._op[0] if self._op else None
        with self._lock:
            self.spans.append((sid, name, start, end, parent, op_id, counts))

    def _open(self):
        stack = self._stack()
        origin = stack or (self._op[1] if self._op else None)
        parent = origin[-1] if origin else None
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def call_op(self, op_id, fn, *args):
        """Run fn(*args) as op op_id under a root span; returns fn's result."""
        sid, parent = self._open()
        self._op = (op_id, self._stack())
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._record(sid, OP, start, end, parent, None)
            self._op = None

    def wrap(self, module, attr, name, counter=None):
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            counts = None
            try:
                result = original(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                self._stack().pop()
                self._record(sid, name, start, end, parent, counts)

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self, counters):
        """Wrap every plyap function that runner and estimators bind.

        Imported names are traced under their defining module
        (``ensembles.transfer_step``); the runner's own entry points and its
        one write boundary, ``_write_result``, are traced as ``runner.<name>``.
        counters maps a span name to a function (args, kwargs, result) -> dict
        of counts added up per op.
        """
        from plyap import estimators, runner

        for module in (runner, estimators):
            for attr, obj in sorted(vars(module).items()):
                if not inspect.isfunction(obj):
                    continue
                home = obj.__module__
                own = home == module.__name__
                if not home.startswith("plyap.") or (
                    own and attr not in ("run", "figure", "ingest", "_write_result")
                ):
                    continue
                name = f"{home.split('.', 1)[1]}.{attr}"
                self.wrap(module, attr, name, counters.get(name))

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _union_length(intervals, lo, hi):
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def per_op_layers(spans):
    """{op_id: {name: {"self_s", "calls", <counts>...}}} from a span list.

    Self time is a span's duration minus the union of its children's
    intervals; children that ran concurrently on pool threads are merged
    before they are subtracted.
    """
    children = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    out = {}
    for sid, name, start, end, _parent, op_id, counts in spans:
        if op_id is None:
            continue
        busy = _union_length(children.get(sid, ()), start, end)
        rec = out.setdefault(op_id, {}).setdefault(name, {"self_s": 0.0, "calls": 0})
        rec["self_s"] += (end - start) - busy
        rec["calls"] += 1
        for key, value in (counts or {}).items():
            rec[key] = rec.get(key, 0) + value
    return out
