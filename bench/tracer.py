"""In-memory tracer: spans at coarse boundaries, aggregated counters at leaves.

Every traced call pushes a frame on one stack (the program is single
threaded).  When a frame ends, its duration is added to its parent's child
time, so a frame's self time is its duration minus the durations of its
traced children.  Summed over every frame, self times telescope to the root
span's duration exactly (integer nanoseconds).

A *span* boundary records one record per call (name, start, end, parent,
run id).  A *leaf* boundary, for functions called millions of times, keeps
only a call count and summed self time per (parent span, name), so the
trace stays small and is written once, at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter_ns


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self.leaves: dict[tuple[int, str], list[int]] = {}  # (span id, name) -> [calls, self ns]
        # frame: [name, start ns, child ns, span id or None for a leaf]
        self._stack: list[list] = []
        self._span_ids: list[int] = [-1]  # innermost open span; -1 is "none"

    # -- frames ---------------------------------------------------------------

    def _push(self, name: str, is_span: bool) -> None:
        sid = None
        if is_span:
            sid = len(self.spans)
            self.spans.append(
                {"id": sid, "name": name, "parent": self._span_ids[-1], "run": self.run_id,
                 "start_ns": 0, "end_ns": 0, "self_ns": 0}
            )
            self._span_ids.append(sid)
        self._stack.append([name, perf_counter_ns(), 0, sid])

    def _pop(self) -> None:
        end = perf_counter_ns()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        if sid is None:
            acc = self.leaves.get((self._span_ids[-1], name))
            if acc is None:
                self.leaves[(self._span_ids[-1], name)] = [1, dur - child]
            else:
                acc[0] += 1
                acc[1] += dur - child
        else:
            self._span_ids.pop()
            rec = self.spans[sid]
            rec["start_ns"], rec["end_ns"], rec["self_ns"] = start, end, dur - child

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager recording one span."""
        self._push(name, True)
        try:
            yield
        finally:
            self._pop()

    def wrap(self, fn, name: str, *, span: bool = False):
        """``fn`` with each call traced as a leaf (default) or a span."""
        push, pop = self._push, self._pop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            push(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()

        return traced

    # -- results --------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, int]]:
        """Per boundary name: ``calls`` and ``self_ns`` over spans and leaves."""
        out: dict[str, dict[str, int]] = {}
        for rec in self.spans:
            acc = out.setdefault(rec["name"], {"calls": 0, "self_ns": 0})
            acc["calls"] += 1
            acc["self_ns"] += rec["self_ns"]
        for (_, name), (calls, self_ns) in self.leaves.items():
            acc = out.setdefault(name, {"calls": 0, "self_ns": 0})
            acc["calls"] += calls
            acc["self_ns"] += self_ns
        return out

    def self_sum_ns(self) -> int:
        return sum(r["self_ns"] for r in self.spans) + sum(v[1] for v in self.leaves.values())

    def write(self, path, extra: dict | None = None) -> None:
        if self._stack:
            raise RuntimeError("trace written with frames still open")
        doc = {
            "run": self.run_id,
            "spans": self.spans,
            "leaves": [
                {"span": sid, "name": name, "calls": calls, "self_ns": self_ns}
                for (sid, name), (calls, self_ns) in sorted(self.leaves.items())
            ],
            **(extra or {}),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)

