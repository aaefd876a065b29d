"""Spans around the benchmark's calls into the engine's public functions.

A span records a layer name, start, end, parent span and the id of the
request it belongs to. Spans stay in memory and are written out once, when
the run ends. A disabled tracer hands out one shared no-op context, so the
untraced runs that give the end-to-end metrics pay nearly nothing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext

_NOOP = nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        # (span_id, name, start, end, parent_id, request_id)
        self.spans: list[tuple] = []
        self._stack: list[tuple[int, int | None]] = []  # (span, request)

    def span(self, name: str, rid: int | None = None):
        """Context manager timing one call; a no-op when disabled."""
        return self._span(name, rid) if self.enabled else _NOOP

    @contextmanager
    def _span(self, name: str, rid: int | None):
        sid = len(self.spans)
        parent, parent_rid = self._stack[-1] if self._stack else (None, None)
        if rid is None:
            rid = parent_rid
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append((sid, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, rid)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "rid"), s))))
                f.write("\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_of(name: str) -> str:
    """``query.shards.search`` -> ``query.shards``: the module the span's
    call belongs to (the last dotted part names the function)."""
    return name.rsplit(".", 1)[0]


def self_times(spans: list[tuple]) -> dict[str, float]:
    """Per layer: summed span durations minus the time their children
    cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[4] is not None:
            children.setdefault(s[4], []).append((s[2], s[3]))
    out: dict[str, float] = {}
    for sid, name, start, end, _, _ in spans:
        own = (end - start) - _union(children.get(sid, []))
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + own
    return out


def coverage(spans: list[tuple], windows: list[tuple[float, float]]
             ) -> float:
    """Share of the timed windows that top-level spans cover."""
    covered = sum(_union([(max(s[2], start), min(s[3], end)) for s in spans
                          if s[4] is None and s[3] > start and s[2] < end])
                  for start, end in windows)
    length = sum(end - start for start, end in windows)
    return covered / length if length > 0 else 0.0
