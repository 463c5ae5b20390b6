"""Self-tests of the benchmark, at small input sizes.

* A deliberately corrupted output is counted as a failed operation, on
  every workload's check path.
* Every count-type metric repeats exactly across two runs of one seed.
* Traced layer self times cover the traced wall time.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import (  # noqa: E402
    SLUGS, KernelRun, PaperCold, SweepWarm, canonical,
)

ARCH_DIR = ROOT / "examples" / "arch"
KERNEL_DIR = ROOT / "examples" / "kernels"


@pytest.fixture
def two_variants(tmp_path) -> Path:
    """The default architecture plus one variant (keeps the sweep short)."""
    arch = tmp_path / "arch"
    arch.mkdir()
    for name in ("marionette_default.json", "latency_skewed.json"):
        shutil.copy(ARCH_DIR / name, arch / name)
    return arch


def _paper(tmp_path, golden_dir=None) -> PaperCold:
    return PaperCold(seed=0, scratch=tmp_path, scale="tiny",
                     golden_dir=golden_dir)


def _sweep(tmp_path, arch_dir) -> SweepWarm:
    return SweepWarm(seed=0, scratch=tmp_path, scale="tiny",
                     golden_dir=None, arch_dir=arch_dir)


def _kernels(tmp_path, **kwargs) -> KernelRun:
    return KernelRun(seed=0, scratch=tmp_path, elements=64,
                     kernel_dir=KERNEL_DIR, arch_dir=ARCH_DIR, **kwargs)


# ----------------------------------------------------------------------
# Corrupted outputs count as failures
# ----------------------------------------------------------------------
@pytest.fixture
def corrupt_fig17(monkeypatch):
    """Calling it makes Figure 17 report a wrong Marionette speedup."""
    from repro.experiments import fig17_sota

    def corrupt():
        honest = fig17_sota.run

        def run_fig17(*args, **kwargs):
            result = honest(*args, **kwargs)
            result.rows[0]["marionette"] += 1.0
            return result

        monkeypatch.setattr(fig17_sota, "run", run_fig17)

    return corrupt


def test_corrupted_report_table_is_a_failure(tmp_path, corrupt_fig17):
    from repro.engine import Engine
    from repro.experiments import report

    golden = tmp_path / "golden"
    golden.mkdir()
    results = report.run_all("tiny", 0, engine=Engine())
    for slug, result in zip(SLUGS, results):
        (golden / f"{slug}.json").write_text(json.dumps(canonical(result)))

    workload = _paper(tmp_path, golden_dir=golden)
    workload.setup()
    assert workload.iteration().failed == 0
    corrupt_fig17()
    sample = workload.iteration()
    assert sample.failed == 1 + len(workload.operations["fig17"])
    assert sample.notes == ["table fig17 differs from its golden"]


def test_corrupted_sweep_output_is_a_failure(tmp_path, two_variants,
                                             corrupt_fig17):
    workload = _sweep(tmp_path, two_variants)
    workload.setup()
    try:
        assert workload.iteration().failed == 0
        corrupt_fig17()
        sample = workload.iteration()
    finally:
        workload.teardown()
    per_variant = 1 + len(workload.operations[workload.default]["fig17"])
    assert sample.failed == 2 * per_variant
    assert len(sample.notes) == 2


def test_corrupted_kernel_output_is_a_failure(tmp_path, monkeypatch):
    from repro.sim.array import SimulationResult

    honest = SimulationResult.array_out

    def array_out(self, program, name):
        values = honest(self, program, name).copy()
        values[0] += 1
        return values

    workload = _kernels(tmp_path)
    workload.setup()
    monkeypatch.setattr(SimulationResult, "array_out", array_out)
    sample = workload.iteration()
    assert sample.attempted == 16
    assert sample.failed == 16


def test_clean_kernel_run_passes(tmp_path):
    workload = _kernels(tmp_path)
    workload.setup()
    sample = workload.iteration()
    assert sample.failed == 0 and sample.counts["sim.cycles"] > 0


# ----------------------------------------------------------------------
# Determinism of count metrics, span coverage
# ----------------------------------------------------------------------
def _counts(workload) -> dict:
    workload.setup()
    try:
        untraced, traced, recorder = run.measure(workload, 0.0, trace=True)
    finally:
        workload.teardown()
    assert all(sample.failed == 0 for sample in untraced + traced)
    walls = [sample.wall_s for sample in untraced]
    layers = run.per_layer(walls, traced, recorder)
    e2e = run.end_to_end(untraced, walls, setup_s=1.0)
    assert layers["trace.coverage"] >= 0.9
    merged = {**layers, **e2e}
    return {name: merged[name] for name in run.COUNT_METRICS}


@pytest.mark.parametrize("make", ["paper", "sweep", "kernels"])
def test_count_metrics_repeat_exactly(make, tmp_path, two_variants):
    build = {
        "paper": lambda: _paper(tmp_path),
        "sweep": lambda: _sweep(tmp_path, two_variants),
        "kernels": lambda: _kernels(tmp_path),
    }[make]
    first, second = _counts(build()), _counts(build())
    assert first == second
    if make == "paper":
        assert first["ir.block_execs"] > 0 and first["cache_mb"] > 0
    if make == "sweep":
        assert first["engine.traces_computed"] == 0
        assert first["compiler.place_calls"] > 0
    if make == "kernels":
        assert first["sim.cycles"] > 0 and first["engine.simulations"] == 0


def test_self_time_subtracts_child_spans():
    from tracing import SpanRecorder

    recorder = SpanRecorder()
    outer = recorder.open("outer", "a")
    inner = recorder.open("inner", "b")
    recorder.close(inner)
    recorder.close(outer)
    outer.start, outer.end, inner.start, inner.end = 0.0, 10.0, 2.0, 5.0
    assert recorder.self_times() == {"a": 7.0, "b": 3.0}
    assert recorder.calls() == {"a": 1, "b": 1}


def test_instrumentation_is_removed_after_a_traced_run(tmp_path):
    from repro.compiler import place, schedule
    from repro.engine.executor import Engine

    before = (place.place_block, schedule.place_block, Engine.execute)
    _counts(_kernels(tmp_path))
    assert (place.place_block, schedule.place_block,
            Engine.execute) == before


def test_fingerprint_names_the_host():
    fingerprint = run.host_fingerprint(ROOT, seed=3)
    assert set(fingerprint) == {"cpu_count", "python", "numpy", "platform",
                                "seed", "commit"}
    assert fingerprint["seed"] == 3


def test_probe_rescales_to_reference_speed():
    from probe import REFERENCE_S, Probe

    probe = Probe()
    probe.samples = [(0.5, 2 * REFERENCE_S), (1.5, 2 * REFERENCE_S)]
    net = 2.0 - 4 * REFERENCE_S     # the probes' own time is not counted
    assert probe.net(0.0, 2.0) == pytest.approx(net)
    assert probe.normalized(0.0, 2.0) == pytest.approx(net / 2)
