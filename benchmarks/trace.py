"""Benchmark-side tracing: spans recorded *around* calls into the
program's public functions, never inside them.

A span is ``{name, start, end, parent, op_id}`` plus one count ``n``
taken at the same boundary (keys in a lookup, rows out of an execute).
Spans live in parallel arrays -- a traced run records a few spans per
15 us operation, so one Python object per span would cost more memory
than the program under test -- and are written out only when the run
ends.  A span's self time is its duration minus the part of it its
child spans cover.

``op_id >= 0`` marks the spans of operation ``op_id`` itself; the spans
of the *probes* the traced loops issue next to an operation (the same
layer function called again in isolation, e.g. ``parse_query(text)``)
carry ``~op_id``, so they never count towards the operation's time.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter_ns

from repro.relational.backends.base import StorageBackend


class Tracer:
    """An in-memory span recorder; ``begin``/``end`` cost ~0.3 us each."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.stop = array("q")
        self.parent = array("i")
        self.op = array("q")
        self.n = array("q")
        self.top = -1
        self.op_id = 0
        #: Backend spans are recorded only while active: the traced loops
        #: switch it on around their operations and probes (set-up, warm-up
        #: and oracle work go through the timed backend too, unrecorded).
        self.active = False

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def begin(self, name_id: int, n: int = 0) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.top)
        self.op.append(self.op_id)
        self.n.append(n)
        self.stop.append(0)
        self.top = index
        self.start.append(perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.stop[index] = perf_counter_ns()
        self.top = self.parent[index]

    def __len__(self) -> int:
        return len(self.start)

    # -- reading the trace ----------------------------------------------

    def aggregate(self) -> dict[tuple[str, bool], dict[str, float]]:
        """Per ``(span name, is_probe)``: span count, total duration,
        total self time (both ns) and the sum of the ``n`` counts.  The
        key ``("", False)`` holds the operations' root spans, whatever
        their names."""
        count = len(self.start)
        start, stop, parent = self.start, self.stop, self.parent
        children = [0] * count
        for i in range(count):
            p = parent[i]
            if p >= 0:
                children[p] += stop[i] - start[i]
        out: dict[tuple[str, bool], dict[str, float]] = {}
        names, name, op, n = self.names, self.name, self.op, self.n
        for i in range(count):
            key = (names[name[i]], op[i] < 0)
            slot = out.get(key)
            if slot is None:
                slot = out[key] = {"count": 0, "total": 0, "self": 0, "n": 0}
            duration = stop[i] - start[i]
            slot["count"] += 1
            slot["total"] += duration
            slot["self"] += duration - children[i]
            slot["n"] += n[i]
            if parent[i] < 0 and op[i] >= 0:
                root = out.setdefault(("", False), {"count": 0, "total": 0, "self": 0, "n": 0})
                root["count"] += 1
                root["total"] += duration
        return out

    def dump(self, path: str, max_ops: int) -> int:
        """Write the spans of the first ``max_ops`` operations (and their
        probes) as JSON lines; times are ns since the first span."""
        written = 0
        origin = self.start[0] if len(self.start) else 0
        with open(path, "w") as handle:
            for i in range(len(self.start)):
                op = self.op[i]
                if (op if op >= 0 else ~op) >= max_ops:
                    continue
                handle.write(
                    json.dumps(
                        {
                            "span": i,
                            "name": self.names[self.name[i]],
                            "start": self.start[i] - origin,
                            "end": self.stop[i] - origin,
                            "parent": self.parent[i],
                            "op_id": op if op >= 0 else ~op,
                            "probe": op < 0,
                            "n": self.n[i],
                        }
                    )
                    + "\n"
                )
                written += 1
        return written


class TimedBackend(StorageBackend):
    """A storage backend that delegates every method to ``inner`` and
    records a span around each charged read and each mutation.

    It charges nothing itself: ``attach`` hands the database's cumulative
    stats to ``inner``, which keeps charging them (plus any ``stats``
    argument) exactly as it would unwrapped, so accounting is identical
    with and without the proxy.
    """

    def __init__(self, inner: StorageBackend, tracer: Tracer):
        super().__init__()
        self.inner = inner
        self.tracer = tracer
        self.returns_live_groups = inner.returns_live_groups
        self._lookup = tracer.name_id("backend.lookup_keys")
        self._contains = tracer.name_id("backend.contains_rows")
        self._scan = tracer.name_id("backend.scan")
        self._insert = tracer.name_id("backend.insert_rows")
        self._delete = tracer.name_id("backend.delete_rows")

    def attach(self, schema, stats) -> None:
        super().attach(schema, stats)
        self.inner.attach(schema, stats)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def lookup_keys(self, relation, positions, keys, stats=None):
        tracer = self.tracer
        if not tracer.active:
            return self.inner.lookup_keys(relation, positions, keys, stats)
        span = tracer.begin(self._lookup, len(keys))
        try:
            return self.inner.lookup_keys(relation, positions, keys, stats)
        finally:
            tracer.end(span)

    def contains_rows(self, relation, rows, stats=None):
        tracer = self.tracer
        if not tracer.active:
            return self.inner.contains_rows(relation, rows, stats)
        span = tracer.begin(self._contains, len(rows))
        try:
            return self.inner.contains_rows(relation, rows, stats)
        finally:
            tracer.end(span)

    def scan(self, relation, stats=None):
        tracer = self.tracer
        if not tracer.active:
            return self.inner.scan(relation, stats)
        span = tracer.begin(self._scan)
        try:
            return self.inner.scan(relation, stats)
        finally:
            tracer.end(span)

    def insert_rows(self, relation, rows):
        tracer = self.tracer
        if not tracer.active:
            return self.inner.insert_rows(relation, rows)
        span = tracer.begin(self._insert, len(rows))
        try:
            return self.inner.insert_rows(relation, rows)
        finally:
            tracer.end(span)

    def delete_rows(self, relation, rows):
        tracer = self.tracer
        if not tracer.active:
            return self.inner.delete_rows(relation, rows)
        span = tracer.begin(self._delete, len(rows))
        try:
            return self.inner.delete_rows(relation, rows)
        finally:
            tracer.end(span)

    def load_rows(self, relation, rows):
        return self.inner.load_rows(relation, rows)

    def probe_rows(self, relation, rows):
        return self.inner.probe_rows(relation, rows)

    def count(self, relation):
        return self.inner.count(relation)

    def iter_rows(self, relation):
        return self.inner.iter_rows(relation)
