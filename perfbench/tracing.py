"""Span recorder for the benchmark's traced run.

The recorder wraps the public entry points of each ``repro`` layer from
the outside (nothing under ``src/`` knows it exists), records one span per
call -- name, layer, start, end, parent span and operation id -- and keeps
the spans in memory until the run ends.  A layer's self time is the
duration of its spans minus the time their direct child spans cover, so
nested layers (``Engine.execute`` -> ``ArchModel.simulate`` ->
``place_block`` -> ``CFG.dominators``) are never counted twice.

:func:`instrument` installs every wrapper; :meth:`SpanRecorder.restore`
puts the original attributes back, so untraced iterations of the same
process run unwrapped code.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: The benchmark's own span (one per traced workload iteration).  Its self
#: time is benchmark glue, so it is excluded from layer coverage.
ITERATION = "bench.iteration"


@dataclass
class Span:
    """One recorded call of a wrapped entry point."""

    id: int
    parent: Optional[int]
    name: str      # the wrapped callable, e.g. "Engine.execute"
    layer: str     # the per-layer metric stem, e.g. "engine.execute"
    op: Optional[str]  # the workload operation the span belongs to
    start: float
    end: float = 0.0


class SpanRecorder:
    """In-memory span store plus the counters recorded beside the spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.operation: Optional[str] = None
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def open(self, name: str, layer: str) -> Span:
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1].id if self._stack else None,
            name=name, layer=layer, op=self.operation,
            start=time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    # -- patching ------------------------------------------------------
    def patch(self, owner: object, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until restore."""
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        original = raw.__func__ if isinstance(raw, classmethod) else raw
        replacement = functools.wraps(original)(make(original))
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, classmethod(replacement)
                if isinstance(raw, classmethod) else replacement)

    def wrap(self, owner: object, attr: str, layer: str) -> None:
        """Record a span around every call of ``owner.attr``."""
        name = (f"{owner.__name__}.{attr}" if isinstance(owner, type)
                else attr)

        def make(original):
            def traced(*args, **kwargs):
                span = self.open(name, layer)
                try:
                    return original(*args, **kwargs)
                finally:
                    self.close(span)
            return traced

        self.patch(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer over every recorded span."""
        covered: Dict[int, float] = Counter()
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        totals: Dict[str, float] = Counter()
        for span in self.spans:
            totals[span.layer] += span.end - span.start - covered[span.id]
        return dict(totals)

    def calls(self) -> Dict[str, int]:
        return dict(Counter(span.layer for span in self.spans))


def _record_bytes(path: os.PathLike) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def instrument(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point the per-layer metrics read.

    ``place_block`` is wrapped at both import sites: the defining module
    (which ``baselines.base`` imports from at call time) and the name
    ``compiler.schedule`` bound at import time.
    """
    from repro.baselines.base import ArchModel, KernelInstance
    from repro.compiler import config_gen, place, schedule
    from repro.engine.cache import TraceCache
    from repro.engine.distributed.backend import LocalBackend
    from repro.engine.executor import Engine
    from repro.experiments import report
    from repro.ir.cfg import CFG
    from repro.ir.trace import DynamicTrace
    from repro.kernels import package, runner
    from repro.sim.array import ArraySimulator
    from repro.workloads.base import Workload, WorkloadInstance

    counts = recorder.counts

    # Counting hooks go on first, so the span wrappers enclose them.
    def count_block_execs(run):
        def counted(self, *args, **kwargs):
            before = self._result
            result = run(self, *args, **kwargs)
            if result is not before:  # a fresh interpretation, not the memo
                counts["ir.block_execs"] += result.trace.total_block_execs
            return result
        return counted

    def count_hits(get):
        def counted(self, key):
            payload = get(self, key)
            if payload is not None:
                counts["engine.cache.hits"] += 1
            return payload
        return counted

    def count_record(backend, digest, record, direction):
        size = _record_bytes(backend._path(digest))
        counts[f"engine.cache.bytes_{direction}"] += size
        if record.get("key", {}).get("kind") == "trace":
            counts["ir.trace.payload_bytes"] += size

    def count_read(get):
        def counted(self, digest):
            record = get(self, digest)
            if isinstance(record, dict):
                count_record(self, digest, record, "read")
            return record
        return counted

    def count_written(put):
        def counted(self, digest, envelope):
            put(self, digest, envelope)
            count_record(self, digest, envelope, "written")
        return counted

    recorder.patch(WorkloadInstance, "run", count_block_execs)
    recorder.patch(TraceCache, "get", count_hits)
    recorder.patch(LocalBackend, "get", count_read)
    recorder.patch(LocalBackend, "put", count_written)

    for owner, attr, layer in (
        (Workload, "instance", "workloads.instance"),
        (WorkloadInstance, "run", "ir.interp"),
        (WorkloadInstance, "check", "ir.interp"),
        (DynamicTrace, "to_payload", "ir.trace.to_payload"),
        (DynamicTrace, "from_payload", "ir.trace.from_payload"),
        (CFG, "dominators", "ir.cfg.analysis"),
        (CFG, "back_edges", "ir.cfg.analysis"),
        (TraceCache, "put", "engine.cache.put"),
        (TraceCache, "get", "engine.cache.get"),
        (Engine, "execute", "engine.execute"),
        (KernelInstance, "__init__", "baselines.kernel_load"),
        (ArchModel, "simulate", "baselines.simulate"),
        (place, "place_block", "compiler.place"),
        (schedule, "place_block", "compiler.place"),
        (schedule.MarionetteScheduler, "schedule", "compiler.schedule"),
        (config_gen, "generate_program", "compiler.config_gen"),
        (runner, "generate_program", "compiler.config_gen"),
        (report, "run_all", "experiments.assemble"),
        (report, "render_results", "experiments.assemble"),
        (runner, "run_kernel", "kernels.load"),
        (package.KernelPackage, "build_cdfg", "kernels.load"),
        (ArraySimulator, "__init__", "sim.run"),
        (ArraySimulator, "run", "sim.run"),
    ):
        recorder.wrap(owner, attr, layer)
