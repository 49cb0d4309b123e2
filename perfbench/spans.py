"""In-memory span recorder that times calls into the program from outside.

Each hook names a function by the module attribute its caller looks it up
through, e.g. ``relaxtik.admm.primal_update`` is the name ``admm_solve``
resolves at call time.  `install` replaces that attribute with a timing
wrapper and `restore` puts the original back.  A hook whose module or
attribute no longer exists is reported as ``absent`` rather than raising, so
the benchmark keeps running after the program is refactored.

Spans are recorded only inside `request`; calls made outside a request (input
generation, result checks) go straight through.  A span is the tuple
``(id, parent_id, request_id, name, start, end, self_seconds)``, where self
time is the duration minus the time covered by its direct child spans.
"""

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass

REQUEST_SPAN = "request"


@dataclass(frozen=True)
class Hook:
    target: str  # dotted module path plus attribute, e.g. "relaxtik.model.apply_Q"
    span: str  # span name, "<layer>.<what>"


class SpanRecorder:
    def __init__(self, hooks):
        self.hooks = list(hooks)
        self.spans = []
        self.status = {}  # target -> "wrapped" | "absent"
        self._saved = []  # (owner, attribute, original)
        self._stack = []  # open spans: [span_id, child_seconds]
        self._next_id = 0
        self._request = None

    def install(self):
        for hook in self.hooks:
            module_name, _, attr = hook.target.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            original = getattr(owner, attr, None)
            if not callable(original):
                self.status[hook.target] = "absent"
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, hook.span))
            self.status[hook.target] = "wrapped"

    def restore(self):
        """Put every wrapped attribute back and check that it is the original."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        for owner, attr, original in self._saved:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} was not restored")
        self._saved.clear()

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        return span_id, parent, frame

    def _close(self, span_id, parent, frame, name, start):
        end = time.perf_counter()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans.append(
            (span_id, parent, self._request, name, start, end, duration - frame[1])
        )
        return duration

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            span_id, parent, frame = self._open()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span_id, parent, frame, name, start)

        return wrapper

    @contextmanager
    def request(self, request_id):
        """Root span of one request; every hooked call inside it is recorded."""
        self._request = request_id
        span_id, parent, frame = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(span_id, parent, frame, REQUEST_SPAN, start)
            self._request = None

    def totals(self, request_ids):
        """Per span name: [count, total seconds, self seconds] over the given requests."""
        wanted = set(request_ids)
        out = {}
        for _, _, rid, name, start, end, self_s in self.spans:
            if rid in wanted:
                acc = out.setdefault(name, [0, 0.0, 0.0])
                acc[0] += 1
                acc[1] += end - start
                acc[2] += self_s
        return out

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,request,name,start,end,self_s\n")
            for span_id, parent, rid, name, start, end, self_s in self.spans:
                parent = "" if parent is None else parent
                fh.write(f"{span_id},{parent},{rid},{name},{start:.9f},{end:.9f},{self_s:.9f}\n")
