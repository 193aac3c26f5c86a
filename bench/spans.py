"""In-memory span tracer that times calls into the program from outside.

Each wrapped call records a span (name, start, end, parent) in flat arrays,
so a traced sweep pass with a few hundred thousand spans stays small. A
span's self time is its duration minus the time its child spans cover.
Wrappers only record while ``active`` is set, so the benchmark's own
correctness checks, which call the same functions, stay out of the trace.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.active = False
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed out of order (top was {popped})")

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record an already finished span as a child of the current one."""
        self.name_id.append(self._nid(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(start)
        self.end.append(end)

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``on_result(tracer, args, result)`` runs after a successful call; an
        exception is counted as ``<name>.raised.<ExceptionType>`` and re-raised.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            tracer.close(idx)
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        self.patch(owner, attr, traced)

    def wrap_everywhere(self, modules, func, name: str, on_result=None) -> None:
        """Wrap every module-level binding of ``func``: its home module's
        global (which its siblings call) and each ``from ... import`` copy."""
        bound = [(m, a) for m in modules for a, v in vars(m).items() if v is func]
        if not bound:
            raise RuntimeError(f"no binding found for {name}")
        self.wrap(*bound[0], name, on_result)
        wrapper = getattr(*bound[0])
        for owner, attr in bound[1:]:
            self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def summarize(self) -> tuple[dict[str, int], dict[str, float], dict[str, float], list[str]]:
        """Calls, self time and total time per span name, plus the nesting
        violations found. Total time double-counts a span nested in a span
        of the same name; no wrapped call does that."""
        n = len(self.start)
        problems: list[str] = []
        if self.stack:
            problems.append(f"{len(self.stack)} spans never closed")
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                continue
            if not (self.start[p] <= self.start[i] <= self.end[i] <= self.end[p]):
                problems.append(
                    f"span {self.names[self.name_id[i]]} lies outside its parent "
                    f"{self.names[self.name_id[p]]}"
                )
            child_time[p] += self.end[i] - self.start[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_id[i]]
            duration = self.end[i] - self.start[i]
            own = duration - child_time[i]
            if own < -1e-9:
                problems.append(f"span {name} has negative self time {own}")
            calls[name] += 1
            self_s[name] += own
            total_s[name] += duration
        return dict(calls), dict(self_s), dict(total_s), problems

    def root_of(self, idx: int) -> int:
        while self.parent[idx] >= 0:
            idx = self.parent[idx]
        return idx

    def spans_named(self, name: str) -> list[int]:
        nid = self._ids.get(name)
        if nid is None:
            return []
        return [i for i in range(len(self.start)) if self.name_id[i] == nid]
