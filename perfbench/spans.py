"""In-memory span recorder for the traced run.

A span has a name, start, end, parent span and request id.  Spans are
kept in a list and written out once, when the run ends.  A layer's self
time is its span's duration minus the durations of its child spans.

Spans marked ``aside`` time work the benchmark does beside the workload:
correctness checks, and *replays*, where the benchmark re-runs in its own
process a public call that the program ran inside a Ray worker.  A replay
is attributed as a child of the call that contained it, so the call's self
time becomes the dispatch or RPC share.  Aside time is not part of the
workload's wall time.  A disabled tracer records nothing.

A replay runs seconds after the call it explains, and the host's speed can
change in between, so raw durations of the two do not compare.  Once the
phase has ended, ``rescale`` gives every span its duration as work at the
reference host speed, and every total and self time uses those.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "rid", "aside")

    def __init__(self, sid: int, name: str, start: float,
                 parent: Optional[int], rid: Optional[int], aside: bool):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rid = rid
        self.aside = aside

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        #: per-span durations set by ``rescale``, indexed like ``spans``
        self._durs: Optional[List[float]] = None

    def rescale(self, norm: Callable[[Sequence[Tuple[float, float]]],
                                     List[float]]) -> None:
        """Use ``norm`` of each span's ``(start, end)`` as its duration."""
        self._durs = norm([(s.start, s.end) for s in self.spans])

    def durs(self) -> List[float]:
        """Per-span duration, indexed like ``spans``."""
        if self._durs is not None:
            return self._durs
        return [s.dur for s in self.spans]

    @contextmanager
    def span(self, name: str, rid: Optional[int] = None,
             aside: bool = False, parent: Optional[int] = None
             ) -> Iterator[Optional[Span]]:
        """Time the body as span ``name``.  ``parent`` overrides the
        enclosing span, for replays attributed to an earlier call."""
        if not self.enabled:
            yield None
            return
        if parent is None and self._stack:
            parent = self._stack[-1]
        if rid is None and parent is not None:
            rid = self.spans[parent].rid
        s = Span(len(self.spans), name, time.perf_counter(), parent, rid,
                 aside)
        self.spans.append(s)
        self._stack.append(s.sid)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _self(self) -> List[float]:
        """Per-span self time, indexed like ``spans``."""
        durs = self.durs()
        out = list(durs)
        for s, d in zip(self.spans, durs):
            if s.parent is not None:
                out[s.parent] -= d
        return out

    def self_times(self) -> Dict[str, float]:
        """name -> summed self time in seconds."""
        out: Dict[str, float] = {}
        for s, t in zip(self.spans, self._self()):
            out[s.name] = out.get(s.name, 0.0) + t
        return out

    def totals(self) -> Dict[str, float]:
        """name -> summed span duration in seconds."""
        out: Dict[str, float] = {}
        for s, d in zip(self.spans, self.durs()):
            out[s.name] = out.get(s.name, 0.0) + d
        return out

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + 1
        return out

    def layer_sum(self, root: Span) -> float:
        """Summed self time of every layer under ``root``: the workload
        calls and the replays that explain them, other aside spans
        excluded.  Self times telescope, so this equals the summed
        duration of the root's workload calls."""
        return sum(d for s, d in zip(self.spans, self.durs())
                   if s.parent == root.sid and not s.aside)

    def min_self(self) -> float:
        """Most negative self time of any span (a replay slower than the
        call it explains shows here)."""
        return min(self._self(), default=0.0)

    def dump(self, path: str) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            json.dump([
                {"id": s.sid, "name": s.name, "parent": s.parent,
                 "rid": s.rid, "start_s": s.start - t0, "end_s": s.end - t0,
                 "work_s": d, "aside": s.aside}
                for s, d in zip(self.spans, self.durs())
            ], f)
