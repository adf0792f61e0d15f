"""Per-query span trees with ring-buffer retention.

A :class:`QueryTracer` records one :class:`Span` tree per traced query.
Spans nest naturally: when the hybrid engine answers a query it opens a
span, and the frozen base it consults (sharing the same tracer) opens a
child span inside it — so a trace shows the actual routing decision,
not a guess.

Span annotations carry the paper-level explanation of the answer:

``engine``
    which engine class produced this span.
``hit``
    how Lemma 1 resolved — ``"tree-interval"`` when the destination's
    postorder number fell inside the source's own subtree interval,
    ``"propagated-interval"`` when a propagated (non-tree) interval
    covered it, ``"miss"`` otherwise.
``overlay``
    whether the hybrid delta overlay was consulted, and whether it
    produced the answer.
``cutoffs``
    subsumption cutoffs taken during an update's propagation (Section 4).

Tracing is opt-in and cheap: engines hold ``self._tracer`` (default
``None``) and skip all of this when unset.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["Span", "QueryTracer", "format_trace"]


class Span:
    """One timed node in a query's trace tree."""

    __slots__ = ("name", "annotations", "children", "started_ns",
                 "duration_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.annotations: Dict[str, Any] = {}
        self.children: List["Span"] = []
        self.started_ns = 0
        self.duration_ns = 0

    def annotate(self, key: str, value: Any) -> None:
        self.annotations[key] = value

    @property
    def duration_us(self) -> float:
        return self.duration_ns / 1e3

    def as_dict(self) -> dict:
        """JSON-safe form, used by ``repro trace --json``."""
        return {
            "name": self.name,
            "duration_us": round(self.duration_us, 3),
            "annotations": {key: _jsonable(value)
                            for key, value in self.annotations.items()},
            "children": [child.as_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, {len(self.children)} children)"


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    return repr(value)


class QueryTracer:
    """Collects span trees for the most recent ``capacity`` queries.

    Concurrency: the open-span stack is a context variable holding an
    immutable tuple, so each thread *and each asyncio task* gets its own
    (a request suspended at an ``await`` with a span open never adopts
    another task's spans); the finished ring buffer is shared under a
    lock.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be > 0, got {capacity}")
        self.capacity = capacity
        self._traces: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stack: ContextVar[Tuple[Span, ...]] = ContextVar(
            "repro_tracer_stack", default=())

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **annotations: Any) -> Iterator[Span]:
        """Open a span; nested calls attach as children automatically."""
        node = Span(name)
        node.annotations.update(annotations)
        stack = self._stack.get()
        if stack:
            stack[-1].children.append(node)
        token = self._stack.set(stack + (node,))
        node.started_ns = time.perf_counter_ns()
        try:
            yield node
        finally:
            node.duration_ns = time.perf_counter_ns() - node.started_ns
            self._stack.reset(token)
            if not stack:  # a completed root: retain it
                with self._lock:
                    self._traces.append(node)

    def current(self) -> Optional[Span]:
        """The innermost open span in this thread or task, if any."""
        stack = self._stack.get()
        return stack[-1] if stack else None

    def annotate(self, key: str, value: Any) -> None:
        """Annotate the innermost open span; no-op outside any span."""
        node = self.current()
        if node is not None:
            node.annotations[key] = value

    # ------------------------------------------------------------------
    # retention / inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def traces(self, last: Optional[int] = None) -> List[Span]:
        """Retained root spans, oldest first (optionally only the last N)."""
        with self._lock:
            items = list(self._traces)
        if last is not None:
            items = items[-last:]
        return items

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    def as_dicts(self, last: Optional[int] = None) -> List[dict]:
        return [root.as_dict() for root in self.traces(last)]


def format_trace(root: Span, *, indent: str = "  ") -> str:
    """Render one span tree as an indented text block.

    ::

        reachable engine=HybridTCIndex overlay=miss  (12.4us)
          reachable engine=FrozenTCIndex hit=tree-interval  (3.1us)
    """
    lines: List[str] = []

    def walk(node: Span, depth: int) -> None:
        notes = " ".join(f"{key}={_terse(value)}"
                         for key, value in sorted(node.annotations.items()))
        label = f"{node.name} {notes}".rstrip()
        lines.append(f"{indent * depth}{label}  ({node.duration_us:.1f}us)")
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 0)
    return "\n".join(lines)


def _terse(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(map(str, value))) + "}"
    return str(value)
