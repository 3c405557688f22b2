"""In-memory spans recorded around calls into the program's public functions.

A traced run rebinds a function where it is looked up (a module attribute or
a class attribute) to a wrapper that records a span, and restores the
original afterwards. Nothing in the program is edited. Spans carry the id of
the span that caused them; a span opened on a worker thread with no open span
of its own takes the innermost open span of the thread that installed the
tracer (for example ``run_simulation`` for the trials it dispatches).
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    item: int | None
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover.

    Children that run in parallel on several threads are counted once, so a
    span is never charged negative self time.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: s.duration - union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]
        )
        for s in spans
    }


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)
    item: int | None = None


class Tracer:
    """Records spans from wrapped functions while installed and enabled."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "items"
        self.enabled = True
        self._ids = itertools.count()
        self._states: dict[int, _ThreadState] = {}
        self._main_ident = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    def state(self) -> _ThreadState:
        ident = threading.get_ident()
        st = self._states.get(ident)
        if st is None:
            st = self._states.setdefault(ident, _ThreadState())
        return st

    def set_item(self, item) -> None:
        """Tag the calling thread's following spans with a trial or query id."""
        self.state().item = item

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def _default_parent(self) -> int | None:
        main = self._states.get(self._main_ident)
        return main.stack[-1] if main is not None and main.stack else None

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        """Wrapper recording a span named ``name`` around each call of ``fn``.

        ``on_call(state, args, kwargs)`` runs before the span opens and
        ``on_result(args, kwargs, result)`` after it closes.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            st = tracer.state()
            if on_call is not None:
                on_call(st, args, kwargs)
            sid = next(tracer._ids)
            parent = st.stack[-1] if st.stack else tracer._default_parent()
            st.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, st.item, tracer.phase))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, attr: str, name: str, on_call=None, on_result=None) -> None:
        """Rebind ``owner.attr`` to a span-recording wrapper until ``restore``."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_call, on_result))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
