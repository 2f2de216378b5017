"""Spans for the traced run, recorded around the engine's entry points.

The benchmark does not change the engine: :func:`install` replaces each
entry point *where it is looked up* (``repro.db.parse_statement``,
``repro.core.aggregates.group_lineages``, class methods on the classes
that own them) with a wrapper that appends one span

    (span id, parent span id, operation id, name, start, end, counts)

to an in-memory list; ``counts`` holds what an observer read off the
call (rows returned, clauses built, strategies chosen, bytes written).
Spans are written out when the run ends.  A layer's self time is its
span's duration minus the part of it covered by its child spans
(:func:`self_times`).
"""

from __future__ import annotations

import functools
import itertools
import json
import select
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Span = Tuple[int, int, int, str, float, float, Optional[Dict[str, float]]]

#: The span names and the engine entry points they wrap, per process.
#: ``(module path, attribute path, span name)``; an attribute path with a
#: dot is a method on a class of that module.
ENGINE_POINTS = (
    ("repro.db", "parse_statement", "sql.parse"),
    ("repro.sql.analyzer", "Analyzer.analyze_statement", "sql.analyze"),
    ("repro.sql.executor", "Executor.execute", "sql.exec"),
    ("repro.engine.planner", "run", "planner.run"),
    ("repro.core.aggregates", "group_lineages", "lineage.build"),
    # counted, not timed: lineage builds are reported per conf() call
    ("repro.core.aggregates", "conf", "count.conf"),
    ("repro.core.confidence.dispatch", "ConfidenceDispatcher.probability", "dispatch"),
    ("repro.core.confidence.dispatch", "ConfidenceDispatcher.approximate", "dispatch"),
    ("repro.engine.parallel", "ParallelExecutionPool.conf_groups", "parallel.call"),
    ("repro.engine.parallel", "ParallelExecutionPool.aconf_groups", "parallel.call"),
    ("repro.engine.parallel", "ParallelExecutionPool.expectation_groups", "parallel.call"),
    ("repro.engine.parallel", "ParallelExecutionPool.table_pipeline", "parallel.call"),
    ("repro.engine.parallel", "ParallelExecutionPool.hash_join", "parallel.call"),
    ("repro.engine.storage", "SnapshotManager.capture", "storage.capture"),
    ("repro.engine.transactions", "LockManager.acquire_shared", "transactions.lock_wait"),
    ("repro.engine.transactions", "LockManager.acquire_exclusive", "transactions.lock_wait"),
    ("repro.engine.durability", "DurabilityManager.append", "durability.append"),
    ("repro.engine.durability", "DurabilityManager.prepare_checkpoint", "durability.checkpoint"),
    ("repro.engine.durability", "DurabilityManager.commit_checkpoint", "durability.checkpoint"),
)

#: Extra points in the server process: the wire protocol, and the
#: per-request handler that roots one operation's spans.
SERVER_POINTS = (
    ("repro.server.protocol", "encode_result", "protocol.encode"),
    ("repro.server.protocol", "send_message", "protocol.send"),
    ("repro.server.protocol", "recv_message", "protocol.recv"),
    ("repro.server.server", "MayBMSServer._respond", "op"),
)


class Tracer:
    """Collects spans in memory; thread-safe under the GIL (``list.append``
    and ``next`` on a counter are atomic)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; returns its result.
        A registered observer of ``name`` may attach counts to the span,
        taken from the call's arguments and result."""
        observe = _OBSERVERS.get(name)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            extra = observe(args, result) if observe is not None else None
            op = getattr(self._local, "op", 0)
            self.spans.append((sid, parent, op, name, start, end, extra))

    def op(self, op_id: int, fn: Callable, *args, **kwargs):
        """Run one operation: its root span is called ``op``."""
        previous = getattr(self._local, "op", 0)
        self._local.op = op_id
        try:
            return self.span("op", fn, *args, **kwargs)
        finally:
            self._local.op = previous

    def mark(self, name: str) -> None:
        """A zero-length span: counts an event without taking time."""
        stack = self._stack()
        now = time.perf_counter()
        op = getattr(self._local, "op", 0)
        self.spans.append((next(self._ids), stack[-1] if stack else 0, op, name, now, now, None))

    # -- installing wrappers ------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name == "op":
            ids = itertools.count(1)

            @functools.wraps(fn)
            def root(*args, **kwargs):
                return tracer.op(next(ids), fn, *args, **kwargs)

            return root
        if name == "protocol.recv":

            @functools.wraps(fn)
            def recv(sock, *args, **kwargs):
                # Waiting for the peer's next request is idle time, not
                # protocol work: wait outside the span.
                select.select([sock], [], [])
                return tracer.span(name, fn, sock, *args, **kwargs)

            return recv
        if name.startswith("count."):

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.mark(name)
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self, points: Iterable[Tuple[str, str, str]]) -> None:
        for module, attribute, name in points:
            owner, attr = _resolve(module, attribute)
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------
    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in list(self.spans):
                handle.write(json.dumps(span))
                handle.write("\n")


def read_trace(path: str) -> List[Span]:
    with open(path) as handle:
        return [tuple(json.loads(line)) for line in handle if line.strip()]  # type: ignore[misc]


def _resolve(module: str, attribute: str):
    import importlib

    owner = importlib.import_module(module)
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


# -- counts taken from wrapped calls' arguments and results ----------------


def _observe_planner(args, result):
    return {"rows_out": len(result)} if result is not None else None


def _observe_lineage(args, result):
    if result is None:
        return None
    return {"clauses": sum(len(lineage) for lineage in result)}


def _observe_dispatch(args, result):
    if result is None:
        return None
    counts: Dict[str, int] = {}
    for decision in result.decisions:
        counts[decision.strategy] = counts.get(decision.strategy, 0) + 1
    return counts


def _observe_append(args, result):
    from repro.engine.durability import encode_frame

    return {"wal_bytes": sum(len(encode_frame(record)) for record in args[1])}


def _observe_checkpoint(args, result):
    # commit_checkpoint returns the manifest path; prepare_checkpoint a
    # capture object.  Only a committed checkpoint carries sizes.
    if not isinstance(result, str):
        return None
    manager = args[0]
    return {
        "committed": 1,
        "bytes": manager.checkpoint_bytes,
        "segments_reused": manager.segments_reused,
        "segments_written": manager.tables_snapshotted,
    }


def _observe_send(args, result):
    return {"bytes": len(json.dumps(args[1], separators=(",", ":")))}


_OBSERVERS: Dict[str, Callable] = {
    "planner.run": _observe_planner,
    "lineage.build": _observe_lineage,
    "dispatch": _observe_dispatch,
    "durability.append": _observe_append,
    "durability.checkpoint": _observe_checkpoint,
    "protocol.send": _observe_send,
}


# -- self-time arithmetic ---------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[1], []).append((span[4], span[5]))
    return {
        span[0]: (span[5] - span[4]) - covered(children.get(span[0], ()), span[4], span[5])
        for span in spans
    }


def layer_breakdown(
    spans: Sequence[Span], window: Optional[Tuple[float, float]] = None
) -> Dict[str, object]:
    """Totals over the spans inside ``window`` (all when None): per span
    name the self seconds, wall seconds, call count and summed counts;
    over the ``op`` root spans the number of operations, their summed
    wall time, and the part of it the wrapped calls cover."""
    if window is not None:
        lo, hi = window
        spans = [s for s in spans if s[4] >= lo and s[5] <= hi]
    selfs = self_times(spans)
    layers: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = layers.setdefault(span[3], {"self_s": 0.0, "wall_s": 0.0, "calls": 0})
        entry["self_s"] += selfs[span[0]]
        entry["wall_s"] += span[5] - span[4]
        entry["calls"] += 1
        for key, value in (span[6] or {}).items():
            entry[key] = entry.get(key, 0) + value
    ops = [s for s in spans if s[3] == "op"]
    op_wall = sum(s[5] - s[4] for s in ops)
    return {
        "layers": layers,
        "ops": len(ops),
        "op_wall_s": op_wall,
        "op_covered_s": op_wall - sum(selfs[s[0]] for s in ops),
    }
