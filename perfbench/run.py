"""The repo benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-cold --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics from the spans (see ``tracing.py``), plus the tracing
overhead (traced / untraced ``wall_s``) and span coverage.

Every end-to-end metric of the workload is printed by name and unit on
standard error; the last line of standard output is the JSON summary
``{"correct", "attempted", "failed", "metrics"}`` whose ``metrics`` are
the gated metrics listed in ``BENCHMARK.json``.  The full result record,
with the host fingerprint, is written under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, List, Optional

#: Set-up runs per benchmark run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Where result records, span dumps and scratch caches go (gitignored).
OUTPUT = Path(".perfbench")
MB = 1e6

#: The gated end-to-end metrics: defined and non-zero on every workload.
GATED = ("wall_s", "peak_rss_mb", "setup_s")

#: Every end-to-end metric: name -> unit.  Workload-specific ones print as
#: n/a on the workloads that do not have them.
END_TO_END_UNITS = {
    "wall_s": "s", "specs_per_s": "1/s", "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s", "fail_ratio": "ratio",
    "cache_mb": "MB", "sota_gap": "x",
}

#: Per-layer metric -> unit, in the order they are reported.
PER_LAYER_UNITS = {
    "workloads.instance_s": "s", "workloads.instance_calls": "count",
    "ir.interp_s": "s", "ir.block_execs": "count",
    "ir.block_execs_per_s": "1/s",
    "ir.trace.to_payload_s": "s", "ir.trace.from_payload_s": "s",
    "ir.trace.payload_mb": "MB",
    "ir.cfg.analysis_calls": "count", "ir.cfg.analysis_s": "s",
    "engine.cache.put_s": "s", "engine.cache.get_s": "s",
    "engine.cache.puts": "count", "engine.cache.gets": "count",
    "engine.cache.hit_ratio": "ratio", "engine.cache.mb_written": "MB",
    "engine.cache.mb_read": "MB",
    "engine.execute_s": "s", "engine.traces_computed": "count",
    "engine.trace_cache_hits": "count", "engine.simulations": "count",
    "engine.sim_cache_hits": "count", "engine.sim_memo_hits": "count",
    "baselines.kernel_load_s": "s", "baselines.simulate_s": "s",
    "baselines.simulate_calls": "count",
    "compiler.place_s": "s", "compiler.place_calls": "count",
    "compiler.schedule_s": "s", "compiler.schedule_calls": "count",
    "compiler.config_gen_s": "s",
    "experiments.assemble_s": "s",
    "kernels.load_s": "s",
    "sim.run_s": "s", "sim.cycles": "count", "sim.ctrl_msgs": "count",
    "sim.ctrl_conflicts": "count", "sim.mean_utilization": "ratio",
    "trace.overhead": "ratio", "trace.coverage": "ratio",
    "trace.spans": "count",
}

#: Metrics that count work rather than time it: each must repeat exactly
#: across two runs of one seed, so later changes may cite them as counts.
COUNT_METRICS = (
    "ir.block_execs", "compiler.place_calls", "ir.cfg.analysis_calls",
    "engine.cache.puts", "engine.cache.gets", "engine.cache.hit_ratio",
    "engine.cache.mb_written", "engine.cache.mb_read",
    "engine.traces_computed", "engine.trace_cache_hits",
    "engine.simulations", "engine.sim_cache_hits", "engine.sim_memo_hits",
    "ir.trace.payload_mb", "sim.cycles", "sim.ctrl_msgs",
    "cache_mb", "sota_gap",
)

#: Per-layer self-time metric -> the span layer it sums.
SELF_TIME_LAYERS = {
    "workloads.instance_s": "workloads.instance",
    "ir.interp_s": "ir.interp",
    "ir.trace.to_payload_s": "ir.trace.to_payload",
    "ir.trace.from_payload_s": "ir.trace.from_payload",
    "ir.cfg.analysis_s": "ir.cfg.analysis",
    "engine.cache.put_s": "engine.cache.put",
    "engine.cache.get_s": "engine.cache.get",
    "engine.execute_s": "engine.execute",
    "baselines.kernel_load_s": "baselines.kernel_load",
    "baselines.simulate_s": "baselines.simulate",
    "compiler.place_s": "compiler.place",
    "compiler.schedule_s": "compiler.schedule",
    "compiler.config_gen_s": "compiler.config_gen",
    "experiments.assemble_s": "experiments.assemble",
    "kernels.load_s": "kernels.load",
    "sim.run_s": "sim.run",
}

#: Per-layer call-count metric -> the span layer it counts.
CALL_LAYERS = {
    "workloads.instance_calls": "workloads.instance",
    "ir.cfg.analysis_calls": "ir.cfg.analysis",
    "engine.cache.puts": "engine.cache.put",
    "engine.cache.gets": "engine.cache.get",
    "baselines.simulate_calls": "baselines.simulate",
    "compiler.place_calls": "compiler.place",
    "compiler.schedule_calls": "compiler.schedule",
}


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


def git_commit(root: Path) -> str:
    """HEAD's commit id read from ``.git``, or "unknown" outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root: Path, seed: int) -> Dict[str, object]:
    """What must match before two result records may be compared."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(root),
    }


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def measure(workload, seconds: float, trace: bool, probe=None):
    """Run iterations for ``seconds`` (at least one of each kind).

    Untraced runs only untraced iterations.  Traced runs alternate an
    untraced and a traced iteration, so the overhead compares like with
    like under the same machine load; the contention ``probe`` pauses
    during traced iterations so that no span absorbs its time.  Returns
    (untraced samples, traced samples, recorder or None).
    """
    from tracing import ITERATION, SpanRecorder, instrument

    recorder = SpanRecorder() if trace else None
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        untraced.append(workload.iteration())
        if not trace:
            continue
        index = len(traced)

        def mark(label: str, index=index) -> None:
            recorder.operation = f"{index}/{label}"

        if probe is not None:
            probe.stop()
        instrument(recorder)
        try:
            recorder.operation = str(index)
            span = recorder.open(ITERATION, ITERATION)
            try:
                traced.append(workload.iteration(on_operation=mark))
            finally:
                recorder.close(span)
        finally:
            recorder.restore()
            if probe is not None:
                probe.start()
    return untraced, traced, recorder


def _mean_count(samples, key: str) -> float:
    values = [sample.counts.get(key, 0) for sample in samples]
    return sum(values) / len(values) if values else 0.0


def end_to_end(samples, walls: List[float],
               setup_s: float) -> Dict[str, Optional[float]]:
    """All eight end-to-end metrics; None where the workload has none.

    ``walls`` are the samples' timed regions in normalized host seconds.
    """
    attempted = sum(sample.attempted for sample in samples)
    failed = sum(sample.failed for sample in samples)
    specs = samples[0].specs
    has = lambda key: all(key in sample.counts for sample in samples)
    return {
        "wall_s": _median(walls),
        "specs_per_s": _median([s.specs / wall
                                for s, wall in zip(samples, walls)])
        if specs else None,
        "sim_cycles_per_s": _median(
            [s.counts["sim.cycles"] / wall
             for s, wall in zip(samples, walls)])
        if has("sim.cycles") else None,
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_s,
        "fail_ratio": failed / attempted,
        "cache_mb": _mean_count(samples, "cache_bytes") / MB
        if has("cache_bytes") else None,
        "sota_gap": _mean_count(samples, "sota_gap")
        if has("sota_gap") else None,
    }


def per_layer(untraced_walls: List[float], traced,
              recorder) -> Dict[str, float]:
    """Per-iteration layer metrics from the traced iterations' spans.

    ``untraced_walls`` are the untraced iterations' raw host seconds
    (net of probes), the base of the tracing overhead.
    """
    from tracing import ITERATION

    n = len(traced)
    selfs = recorder.self_times()
    calls = recorder.calls()
    counts = recorder.counts
    metrics: Dict[str, float] = {}
    for metric, layer in SELF_TIME_LAYERS.items():
        metrics[metric] = selfs.get(layer, 0.0) / n
    for metric, layer in CALL_LAYERS.items():
        metrics[metric] = calls.get(layer, 0) / n
    metrics["ir.block_execs"] = counts["ir.block_execs"] / n
    metrics["ir.block_execs_per_s"] = (
        metrics["ir.block_execs"] / metrics["ir.interp_s"]
        if metrics["ir.interp_s"] else 0.0)
    metrics["ir.trace.payload_mb"] = counts["ir.trace.payload_bytes"] / n / MB
    gets = calls.get("engine.cache.get", 0)
    metrics["engine.cache.hit_ratio"] = (
        counts["engine.cache.hits"] / gets if gets else 0.0)
    metrics["engine.cache.mb_written"] = (
        counts["engine.cache.bytes_written"] / n / MB)
    metrics["engine.cache.mb_read"] = counts["engine.cache.bytes_read"] / n / MB
    for key in ("engine.traces_computed", "engine.trace_cache_hits",
                "engine.simulations", "engine.sim_cache_hits",
                "engine.sim_memo_hits", "sim.cycles", "sim.ctrl_msgs",
                "sim.ctrl_conflicts", "sim.mean_utilization"):
        metrics[key] = _mean_count(traced, key)
    traced_wall = sum(sample.wall_s for sample in traced)
    layer_self = sum(seconds for layer, seconds in selfs.items()
                     if layer != ITERATION)
    metrics["trace.overhead"] = (_median([s.wall_s for s in traced])
                                 / _median(untraced_walls))
    metrics["trace.coverage"] = layer_self / traced_wall
    metrics["trace.spans"] = len(recorder.spans) / n
    return {name: metrics[name] for name in PER_LAYER_UNITS}


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _print_table(title: str, values: Dict[str, Optional[float]],
                 units: Dict[str, str]) -> None:
    print(title, file=sys.stderr)
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:28s} {shown:>14s} {units[name]}", file=sys.stderr)


def write_record(record: Dict[str, object], stem: str) -> Path:
    path = OUTPUT / "results" / f"{stem}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def run(workload, seconds: float, trace: bool, probe, started: float,
        imported: float, root: Path) -> Dict[str, object]:
    """Set up, measure and check one workload; returns the summary line.

    End-to-end host times are normalized by ``probe`` to the reference
    host speed (see ``probe.py``); the import phase is [started, imported).
    """
    from probe import REFERENCE_S

    workload_name, seed = workload.name, workload.seed
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.append((start, time.perf_counter()))
        untraced, traced, recorder = measure(workload, seconds, trace, probe)
    finally:
        workload.teardown()
        probe.stop()

    setup_s = probe.normalized(started, imported) + _median(
        [probe.normalized(start, end) for start, end in setups])
    walls = [probe.normalized(s.start, s.end) for s in untraced]
    measured = untraced + traced
    attempted = sum(sample.attempted for sample in measured)
    failed = sum(sample.failed for sample in measured)
    e2e = end_to_end(untraced, walls, setup_s)
    record: Dict[str, object] = {
        "schema": "perfbench.result/1",
        "workload": workload_name,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_fingerprint(root, seed),
        "end_to_end": e2e,
        "units": END_TO_END_UNITS,
        "wall_s_samples": walls,
        "wall_raw_s_samples": [probe.net(s.start, s.end)
                               for s in untraced],
        "setup_raw_s_samples": [end - start for start, end in setups],
        "import_raw_s": imported - started,
        "probe": {"samples": len(probe.samples),
                  "mean_s": probe.mean_probe_s(),
                  "reference_s": REFERENCE_S},
        "attempted": attempted,
        "failed": failed,
        "counts": {key: _mean_count(untraced, key)
                   for key in sorted(untraced[0].counts)},
        "notes": sorted({note for sample in measured
                         for note in sample.notes}),
    }
    _print_table(f"{workload_name} seed {seed}: end-to-end over "
                 f"{len(untraced)} untraced iterations (wall_s max "
                 f"{max(walls):.6g} s; raw host median "
                 f"{_median(record['wall_raw_s_samples']):.6g} s)",
                 e2e, END_TO_END_UNITS)
    if trace:
        layers = per_layer(record["wall_raw_s_samples"], traced, recorder)
        record["per_layer"] = layers
        record["traced_wall_raw_s_samples"] = [s.wall_s for s in traced]
        _print_table(f"per layer, per iteration ({len(traced)} traced "
                     f"iterations, raw host time)", layers, PER_LAYER_UNITS)
        metrics = {name: {"value": layers[name],
                          "unit": PER_LAYER_UNITS[name]}
                   for name in PER_LAYER_UNITS}
    else:
        metrics = {name: {"value": e2e[name],
                          "unit": END_TO_END_UNITS[name]}
                   for name in GATED}
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    path = write_record(record, stem)
    if trace:
        spans = OUTPUT / "results" / f"{stem}.spans.json"
        spans.write_text(json.dumps(
            [asdict(span) for span in recorder.spans]) + "\n",
            encoding="utf-8")
    for note in record["notes"]:
        print(f"FAILED: {note}", file=sys.stderr)
    print(f"record: {path}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-cold", "sweep-warm", "kernel-run"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    needed = ("src/repro", "examples/arch", "examples/kernels",
              "tests/golden")
    missing = [name for name in needed if not (root / name).is_dir()]
    if missing:
        print(f"error: run from the root of a repro checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    from probe import Probe

    probe = Probe()
    probe.start()
    scratch = OUTPUT / f"scratch-{os.getpid()}"
    try:
        sys.path.insert(0, str(root / "src"))
        from workloads import WORKLOADS  # imports repro, numpy: set-up

        imported = time.perf_counter()
        scratch.mkdir(parents=True, exist_ok=True)
        workload = WORKLOADS[args.workload](seed=args.seed, scratch=scratch)
        summary = run(workload, args.seconds, bool(args.trace), probe,
                      started, imported, root)
    finally:
        probe.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
