"""Lightweight span tracing with JSONL and Chrome ``trace_event`` export.

The unit of intrinsic parallelism in Parma is the Kirchhoff loop
(β₁ = |E| − |V| + 1 independent meshes, paper §III), and the units of
*work* are the pair blocks and partition shares built on top of them —
so those are the natural span granularity: a traced run shows, per
worker and per phase, exactly where an ``n = 60`` campaign spent its
time.

Design constraints:

* **cheap** — a span is one ``perf_counter`` pair, a small dataclass
  and a list append; no I/O happens until export;
* **thread-safe** — the open-span stack is ``threading.local``; the
  finished-span buffer is guarded by one lock;
* **fork-safe** — PyMP workers are *forked processes*: spans they
  record live in their copy-on-write heap and die with them.  Workers
  therefore flush their region-local spans to a spool directory
  (:meth:`Tracer.flush_to_spool`) before the region joins, and the
  parent merges the spool (:meth:`Tracer.merge_spool`) after the join.
  Span timestamps use ``time.perf_counter``, which on Linux is
  CLOCK_MONOTONIC and hence comparable across processes of one boot —
  parent and worker spans land on one consistent timeline.

Exports: :func:`write_jsonl` / :func:`read_jsonl` round-trip the raw
span stream; :func:`write_chrome_trace` emits the Chrome
``trace_event`` JSON (an object with a ``traceEvents`` array) loadable
by ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_;
:func:`build_span_tree` and :func:`phase_rollup` reconstruct the call
structure for ``parma trace summarize``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

#: Span kinds: ``span`` has a duration; ``event`` is instantaneous
#: (resilience events — retries, rung transitions, checkpoint writes —
#: are events on the same stream).
SPAN_KINDS = ("span", "event")

#: File suffix for per-worker spool files (see :meth:`Tracer.flush_to_spool`).
SPOOL_SUFFIX = ".spans.jsonl"


@dataclass(frozen=True)
class Span:
    """One finished span (or instantaneous event) on the trace stream."""

    name: str
    ts: float  # perf_counter seconds at entry (monotonic, cross-process)
    dur: float  # seconds; 0.0 for events
    pid: int
    tid: int
    span_id: str
    parent_id: str | None = None
    kind: str = "span"
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "ts": self.ts,
            "dur": self.dur,
            "pid": self.pid,
            "tid": self.tid,
            "span_id": self.span_id,
            "kind": self.kind,
        }
        if self.parent_id is not None:
            d["parent_id"] = self.parent_id
        if self.attrs:
            d["attrs"] = self.attrs
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=str(d["name"]),
            ts=float(d["ts"]),
            dur=float(d["dur"]),
            pid=int(d["pid"]),
            tid=int(d["tid"]),
            span_id=str(d["span_id"]),
            parent_id=d.get("parent_id"),
            kind=str(d.get("kind", "span")),
            attrs=dict(d.get("attrs", {})),
        )


def _jsonable(value: Any) -> Any:
    """Coerce attr values to JSON-safe primitives (tuples -> lists)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    try:  # numpy scalars
        return value.item()
    except AttributeError:
        return str(value)


class _SpanHandle:
    """Context manager for one open span; returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start", "_id", "_parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._start = 0.0
        self._id = ""
        self._parent: str | None = None

    def set(self, **attrs: Any) -> None:
        """Add attributes known only once the span's work is done."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_SpanHandle":
        self._id, self._parent = self._tracer._push()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = time.perf_counter()
        if exc_type is not None:
            self._attrs["error"] = exc_type.__name__
        self._tracer._pop(
            Span(
                name=self._name,
                ts=self._start,
                dur=end - self._start,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=self._id,
                parent_id=self._parent,
                kind="span",
                attrs={k: _jsonable(v) for k, v in self._attrs.items()},
            )
        )


class Tracer:
    """Collects spans in memory; workers spill to a spool directory."""

    def __init__(self) -> None:
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seq = 0
        self.spool_dir: Path | None = None

    # -- recording -----------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """``with tracer.span("form", pair=(i, j)): ...``"""
        return _SpanHandle(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> Span:
        """Record an instantaneous event at the current position."""
        stack = getattr(self._local, "stack", None)
        parent = stack[-1] if stack else None
        with self._lock:
            self._seq += 1
            span_id = f"{os.getpid()}:{self._seq}"
            span = Span(
                name=name,
                ts=time.perf_counter(),
                dur=0.0,
                pid=os.getpid(),
                tid=threading.get_ident(),
                span_id=span_id,
                parent_id=parent,
                kind="event",
                attrs={k: _jsonable(v) for k, v in attrs.items()},
            )
            self._spans.append(span)
        return span

    def add_span(
        self,
        name: str,
        ts: float,
        dur: float,
        pid: int | None = None,
        tid: int = 0,
        **attrs: Any,
    ) -> Span:
        """Append a synthesized span (e.g. rebuilt from a remote rank's
        reported timing).  Parented under the caller's currently open
        span, so an MPI launcher can nest per-rank spans inside its
        ``formation`` span even though the ranks never saw the tracer.
        """
        stack = getattr(self._local, "stack", None)
        parent = stack[-1] if stack else None
        with self._lock:
            self._seq += 1
            span = Span(
                name=name,
                ts=float(ts),
                dur=float(dur),
                pid=int(pid) if pid is not None else os.getpid(),
                tid=int(tid),
                span_id=f"{os.getpid()}:{self._seq}",
                parent_id=parent,
                kind="span",
                attrs={k: _jsonable(v) for k, v in attrs.items()},
            )
            self._spans.append(span)
        return span

    def _push(self) -> tuple[str, str | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._seq += 1
            span_id = f"{os.getpid()}:{self._seq}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def _pop(self, span: Span) -> None:
        stack = self._local.stack
        stack.pop()
        with self._lock:
            self._spans.append(span)

    # -- access --------------------------------------------------------------

    @property
    def spans(self) -> tuple[Span, ...]:
        with self._lock:
            return tuple(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def mark(self) -> int:
        """Buffer length now; workers flush only spans after the mark."""
        with self._lock:
            return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    # -- fork support --------------------------------------------------------

    def ensure_spool(self, directory: str | Path) -> Path:
        """Create (and remember) the spool directory for worker flushes.

        Must be called in the *parent* before forking so every region
        member inherits the same path.
        """
        self.spool_dir = Path(directory)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        return self.spool_dir

    def flush_to_spool(self, since: int = 0, worker: int | None = None) -> int:
        """Write spans recorded after ``since`` to a per-process spool file.

        Called by forked workers just before region exit (their heap —
        and with it, their span buffer — vanishes at ``os._exit``).
        The write lands under a temporary name and is renamed into
        place so the parent's merge never reads a torn file.  Returns
        the number of spans flushed.
        """
        if self.spool_dir is None:
            return 0
        with self._lock:
            spans = self._spans[since:]
        if not spans:
            return 0
        tag = f"{os.getpid()}" if worker is None else f"w{worker}-{os.getpid()}"
        path = self.spool_dir / f"{tag}{SPOOL_SUFFIX}"
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return len(spans)

    def merge_spool(self) -> int:
        """Absorb (and delete) every spool file; returns spans merged.

        Called by the parent after the fork region joins.  Safe when
        the spool is empty or absent.
        """
        if self.spool_dir is None or not self.spool_dir.exists():
            return 0
        merged = 0
        for path in sorted(self.spool_dir.glob(f"*{SPOOL_SUFFIX}")):
            spans = read_jsonl(path)
            with self._lock:
                self._spans.extend(spans)
            merged += len(spans)
            path.unlink()
        return merged


# -- serialization ------------------------------------------------------------


def write_jsonl(spans: Iterable[Span], path: str | Path) -> int:
    """Write one span per line; returns the number written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_dict()) + "\n")
            count += 1
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return count


def read_jsonl(path: str | Path) -> list[Span]:
    """Parse a span JSONL file (skipping blank lines)."""
    spans: list[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def chrome_trace_events(spans: Sequence[Span]) -> list[dict]:
    """Spans -> Chrome ``trace_event`` dicts (``X`` complete, ``i`` instant).

    Timestamps are microseconds from the earliest span, so the trace
    starts at t=0 regardless of the monotonic clock's epoch.
    """
    if not spans:
        return []
    t0 = min(s.ts for s in spans)
    events: list[dict] = []
    names: dict[int, None] = {}
    for s in spans:
        names.setdefault(s.pid, None)
        ev: dict[str, Any] = {
            "name": s.name,
            "cat": s.kind,
            "ts": (s.ts - t0) * 1e6,
            "pid": s.pid,
            "tid": s.tid,
            "args": dict(s.attrs),
        }
        if s.kind == "event":
            ev["ph"] = "i"
            ev["s"] = "t"  # thread-scoped instant
        else:
            ev["ph"] = "X"
            ev["dur"] = s.dur * 1e6
        events.append(ev)
    meta = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": f"parma pid {pid}"},
        }
        for pid in sorted(names)
    ]
    return meta + events


def write_chrome_trace(spans: Sequence[Span], path: str | Path) -> int:
    """Write the Perfetto-loadable trace file; returns event count."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    events = chrome_trace_events(spans)
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return len(events)


# -- reconstruction -----------------------------------------------------------


@dataclass
class SpanNode:
    """One span plus its reconstructed children."""

    span: Span
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        """Duration not covered by child *spans* (events cost nothing)."""
        child_time = sum(
            c.span.dur for c in self.children if c.span.kind == "span"
        )
        return max(0.0, self.span.dur - child_time)


def build_span_tree(spans: Sequence[Span]) -> list[SpanNode]:
    """Reconstruct the span forest from parent links.

    Spans whose parent is missing from the stream (e.g. a worker span
    whose parent lived in another process and was not flushed) become
    roots.  Events participate as leaf nodes.
    """
    nodes = {s.span_id: SpanNode(span=s) for s in spans}
    roots: list[SpanNode] = []
    for s in spans:
        node = nodes[s.span_id]
        parent = nodes.get(s.parent_id) if s.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda c: c.span.ts)
    roots.sort(key=lambda r: r.span.ts)
    return roots


def phase_rollup(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Aggregate per span name: count, total seconds, self seconds.

    ``self`` excludes time covered by child spans, so the rollup's
    self-column sums to (approximately) the union of root durations —
    the "where did the time actually go" view.
    """
    roots = build_span_tree([s for s in spans if s.kind == "span"])
    rollup: dict[str, dict[str, float]] = {}

    def visit(node: SpanNode) -> None:
        entry = rollup.setdefault(
            node.span.name, {"count": 0, "total": 0.0, "self": 0.0}
        )
        entry["count"] += 1
        entry["total"] += node.span.dur
        entry["self"] += node.self_seconds
        for child in node.children:
            if child.span.kind == "span":
                visit(child)

    for root in roots:
        visit(root)
    return rollup
