"""Per-layer wall-time split from a profiler hook, with no change to ``src/``.

``LayerProfiler`` installs a ``sys.setprofile`` hook for the traced
region.  On every Python call and return it charges the wall time since
the previous event to the layer on top of its own layer stack:

- a frame from ``src/repro/<package>/`` belongs to layer ``<package>``;
- a frame from this benchmark's own files belongs to ``bench``;
- any other Python frame (stdlib, third party) inherits its caller's
  layer, and time in C functions stays with the calling frame, so
  every traced second is charged to exactly one layer.

The hook's own cost is left out of every layer.  The part inside the
hook is timed directly.  The part around it (the interpreter's call
into the hook before its first clock read, and the unwind after its
last) lands in the interval charged to the layer on top; every charged
interval holds exactly one such leftover, so :func:`calibrate` measures
it per event on an empty function, with and without the hook, and
:meth:`LayerProfiler.table` takes that much per charged interval back
out of each layer.  Layer self times plus the hook time plus the
leftover is the traced wall time, which is how the printed table
reconciles.

A *boundary call* is a call whose callee's layer differs from its
caller's; the profiler counts them per layer and per function and times
each as a span from call to return (one resume, for a generator).  The
spans of a few control-path functions are kept individually for their
percentiles; everything else is aggregated in memory and written out
once, at the end.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional

#: The layers reported, in table order: the ``src/repro`` packages on
#: the paper's stack, then this benchmark's own code.
LAYERS = ("sim", "netsim", "transport", "orchestration", "media", "ansa",
          "obs", "core")
BENCH = "bench"

#: Functions whose calls are counted, by ``module:qualname``.
COUNTED = {
    "repro.sim.scheduler:Simulator._push": "sim.push",
    "repro.sim.scheduler:Process._resume": "sim.resume",
    "repro.sim.scheduler:Process._throw": "sim.resume",
    "repro.sim.sync:TimedSemaphore.acquire": "sim.sem_acquire",
    "repro.orchestration.llo:LLOInstance.regulate_request":
        "orchestration.regulate_request",
}

#: Functions whose individual spans are kept, by ``module:qualname``.
SPANNED = {
    "repro.netsim.reservation:ReservationManager.reserve": "netsim.reserve",
}

#: Cap on individually kept spans, so memory stays bounded.
MAX_SPANS = 100_000


class LayerProfiler:
    """Self time, boundary calls and counts per layer for one region."""

    def __init__(self, src_root: str, bench_root: str):
        self._repro_root = os.path.join(os.path.abspath(src_root), "repro")
        self._bench_root = os.path.abspath(bench_root)
        self._code_info: Dict[object, tuple] = {}
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls_in: Counter = Counter()
        #: (callee layer, function) -> [calls, inclusive wall seconds]
        self.boundary: Dict[tuple, List[float]] = {}
        self.counts: Counter = Counter()
        self.spans: Dict[str, List[float]] = defaultdict(list)
        #: Charged intervals (hook events) per layer.
        self.events: Counter = Counter()
        #: Wall seconds per event outside the hook's timed region, as
        #: measured by :func:`calibrate`; 0 leaves self times raw.
        self.leftover_per_event_s = 0.0
        self.wall_s = 0.0
        self.hook_s = 0.0
        # Stack entries: (layer, span start or None, boundary key or None).
        self._stack: List[tuple] = [(BENCH, None, None)]
        self._last = 0.0

    # -- classification ------------------------------------------------------

    def _info(self, code) -> tuple:
        """(layer or None, function key, counted name, spanned name)."""
        info = self._code_info.get(code)
        if info is not None:
            return info
        path = os.path.abspath(code.co_filename)
        layer: Optional[str] = None
        module = ""
        if path.startswith(self._repro_root + os.sep):
            rel = os.path.relpath(path, os.path.dirname(self._repro_root))
            parts = rel[:-3].split(os.sep) if rel.endswith(".py") else []
            if parts and parts[-1] == "__init__":
                parts = parts[:-1]
            module = ".".join(parts)
            layer = parts[1] if len(parts) > 1 else "other"
        elif path.startswith(self._bench_root + os.sep):
            layer = BENCH
        key = f"{module}:{code.co_qualname}" if module else None
        info = (layer, key, COUNTED.get(key), SPANNED.get(key))
        self._code_info[code] = info
        return info

    # -- the hook -------------------------------------------------------------

    def _hook(self, frame, event, arg) -> None:
        clock = time.perf_counter
        t_in = clock()
        stack = self._stack
        top = stack[-1]
        self.self_s[top[0]] += t_in - self._last
        self.events[top[0]] += 1
        if event == "call":
            layer, key, counted, spanned = self._info(frame.f_code)
            if counted is not None:
                self.counts[counted] += 1
            if layer is None or layer == top[0]:
                stack.append((top[0], t_in if spanned else None, None))
            else:
                self.calls_in[layer] += 1
                stack.append((layer, t_in, (layer, key, spanned)))
        elif event == "return" and len(stack) > 1:
            _layer, start, boundary = stack.pop()
            if start is not None:
                span = t_in - start
                if boundary is not None:
                    row = self.boundary.get(boundary[:2])
                    if row is None:
                        row = self.boundary[boundary[:2]] = [0, 0.0]
                    row[0] += 1
                    row[1] += span
                    spanned = boundary[2]
                else:
                    spanned = self._info(frame.f_code)[3]
                if spanned is not None:
                    kept = self.spans[spanned]
                    if len(kept) < MAX_SPANS:
                        kept.append(span)
        t_out = clock()
        self.hook_s += t_out - t_in
        self._last = t_out

    def __enter__(self) -> "LayerProfiler":
        self._began = time.perf_counter()
        self._last = time.perf_counter()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        now = time.perf_counter()
        self.self_s[self._stack[-1][0]] += now - self._last
        self.wall_s = now - self._began

    # -- results ----------------------------------------------------------------

    def leftover(self) -> Dict[str, float]:
        """Per layer, the calibrated hook leftover taken out of it (never
        more than the layer was charged)."""
        per_event = self.leftover_per_event_s
        return {name: min(self.self_s[name], per_event * self.events[name])
                for name in self.self_s}

    def table(self) -> List[dict]:
        """One row per layer: self seconds, share, boundary calls in.

        Self seconds are net of the calibrated hook leftover.  Shares
        are of the attributed time (the wall time less the hook's
        cost), so they sum to 100 %.
        """
        leftover = self.leftover()
        own = {name: spent - leftover[name]
               for name, spent in self.self_s.items()}
        attributed = sum(own.values())
        names = list(LAYERS) + sorted(
            set(own) - set(LAYERS) - {BENCH}) + [BENCH]
        return [
            {
                "layer": name,
                "self_s": own.get(name, 0.0),
                "self_share": (100.0 * own.get(name, 0.0) / attributed
                               if attributed else 0.0),
                "calls_in": self.calls_in.get(name, 0),
                "raw_self_s": self.self_s.get(name, 0.0),
                "events": self.events.get(name, 0),
            }
            for name in names
        ]

    def document(self) -> dict:
        """Everything recorded, as a JSON-serialisable dict."""
        boundary = sorted(
            ({"layer": layer, "function": key, "calls": int(calls),
              "inclusive_s": incl}
             for (layer, key), (calls, incl) in self.boundary.items()),
            key=lambda row: -row["inclusive_s"],
        )
        return {
            "wall_s": self.wall_s,
            "hook_s": self.hook_s,
            "leftover_per_event_s": self.leftover_per_event_s,
            "hook_leftover_s": sum(self.leftover().values()),
            "layers": self.table(),
            "counts": dict(self.counts),
            "boundary_calls": boundary,
            "spans_s": {name: spans for name, spans in self.spans.items()},
        }


def _empty() -> None:
    pass


def calibrate(src_root: str, bench_root: str, calls: int = 20_000,
              repeats: int = 7) -> float:
    """Wall seconds per hook event spent outside the hook's timed region.

    Times ``calls`` calls of an empty function without the hook and
    under a throw-away profiler; what the hooked loop took beyond the
    plain loop and the hook's own timed time, per event, is the
    leftover.  The median of ``repeats`` tries, never negative.
    """
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            _empty()
        plain = clock() - t0
        prof = LayerProfiler(src_root, bench_root)
        with prof:
            for _ in range(calls):
                _empty()
        events = sum(prof.events.values())
        samples.append((prof.wall_s - prof.hook_s - plain) / events)
    samples.sort()
    return max(0.0, samples[len(samples) // 2])
