"""The benchmark's three workloads: set-up, one timed iteration, checks.

Every workload runs in this process with ``jobs=1``: no pool, no threads,
no network, so host time measures the pipeline and not the scheduler.

* ``paper-cold`` -- the full evaluation report (``run_all`` +
  ``render_results``) at paper scale on the default architecture, into an
  empty on-disk cache.  Interpretation and trace serialization dominate.
* ``sweep-warm`` -- the arch sweep over ``examples/arch/*.json`` at small
  scale through one shared engine, on a cache that set-up filled with one
  default-arch run: traces are only read, the default variant replays
  cycle records, the other variants price.  Placement dominates.
* ``kernel-run`` -- ``run_kernel`` (event strategy) on the four shipped
  example programs, resized to fill the default scratchpad with seeded
  inputs, on every ``examples/arch`` file.  The only path through the
  cycle-level simulator.

Each iteration returns a :class:`Sample`; a failing or wrong operation is
counted in ``failed``, never raised, so one bad seed still yields a
result line with ``correct: false``.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.arch.params import DEFAULT_PARAMS
from repro.arch.spec import load_arch_sweep
from repro.engine import Engine, result_payload
from repro.experiments import report
from repro.kernels import package as kernel_package
from repro.kernels import runner

#: Paper Fig. 17 geomean speedups of Marionette over each rival
#: (intensive kernels), the targets ``sota_gap`` measures the model against.
PAPER_FIG17 = {"softbrain": 2.88, "tia": 3.38, "revel": 1.55,
               "riptide": 2.66}

#: Elements per resized example kernel: two 2,000-word arrays fill most of
#: the default 16 KB (4,096-word) data scratchpad.
KERNEL_ELEMENTS = 2000
KERNEL_NAMES = ("saxpy", "dot_product", "axpb", "sigmoid")


def _slug(module) -> str:
    """``repro.experiments.fig11_pe_models`` -> ``fig11`` (golden name)."""
    return module.__name__.rsplit(".", 1)[1].split("_")[0]


SLUGS = tuple(_slug(module) for module in report.EXPERIMENT_MODULES)


@dataclass
class Sample:
    """One timed workload iteration: its timed region is [start, end)."""

    start: float
    end: float
    attempted: int
    failed: int
    specs: int = 0
    counts: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def canonical(result) -> dict:
    """An experiment's JSON round-tripped payload (the golden format)."""
    return json.loads(json.dumps(result_payload(result)))


def sota_gap(fig17_summary: Dict[str, float]) -> float:
    """Geomean over the rivals of max(r, 1/r), r = model / paper speedup."""
    logs = [
        abs(math.log(fig17_summary[f"geomean speedup vs {rival}"] / paper))
        for rival, paper in PAPER_FIG17.items()
    ]
    return math.exp(sum(logs) / len(logs))


def golden_payloads(golden_dir: Optional[Path]) -> Optional[List[dict]]:
    if golden_dir is None:
        return None
    return [json.loads((golden_dir / f"{slug}.json").read_text("utf-8"))
            for slug in SLUGS]


def wrong_tables(payloads: Sequence[dict],
                 expected: Optional[Sequence[dict]]) -> List[str]:
    """Slugs of the experiment tables that differ from ``expected``."""
    if expected is None:
        return []
    return [slug for slug, got, want in zip(SLUGS, payloads, expected)
            if got != want]


def report_operations(scale: str, seed: int, params) -> Dict[str, set]:
    """Per experiment slug, the run specs its table reads."""
    return {
        _slug(module): set(module.specs(scale, seed, params))
        for module in report.EXPERIMENT_MODULES
    }


def failed_operations(bad: Sequence[str],
                      operations: Dict[str, set]) -> int:
    """Wrong tables plus every distinct spec a wrong table read.

    A report's operations are its run specs and its assembled tables, so
    a wrong table that reads no spec (the area tables) still counts.
    """
    return len(bad) + len(set().union(*(operations[slug] for slug in bad)))


def directory_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _report_failure(what: str) -> None:
    print(f"perfbench: {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _engine_counts(engine: Engine) -> Dict[str, float]:
    stats = engine.stats
    return {
        "engine.traces_computed": stats.traces_computed,
        "engine.trace_cache_hits": stats.trace_cache_hits,
        "engine.simulations": stats.simulations,
        "engine.sim_cache_hits": stats.sim_cache_hits,
        "engine.sim_memo_hits": stats.sim_memo_hits,
    }


# ----------------------------------------------------------------------
# paper-cold
# ----------------------------------------------------------------------
class PaperCold:
    """Full report at paper scale into an empty on-disk cache."""

    name = "paper-cold"

    def __init__(self, seed: int, scratch: Path, scale: str = "paper",
                 golden_dir: Optional[Path] = Path("tests/golden/paper")
                 ) -> None:
        self.seed = seed
        self.scratch = scratch
        self.scale = scale
        self.golden_dir = golden_dir

    def setup(self) -> None:
        self.expected = (golden_payloads(self.golden_dir)
                         if self.seed == 0 else None)
        #: sota_gap of the golden Fig. 17, which seed 0 must reproduce.
        self.golden_gap = (sota_gap(self.expected[SLUGS.index("fig17")]
                                    ["summary"])
                           if self.expected else None)
        self.operations = report_operations(self.scale, self.seed,
                                            DEFAULT_PARAMS)
        self.specs = len(report.all_specs(self.scale, self.seed))

    def iteration(self, on_operation: Optional[Callable[[str], None]] = None
                  ) -> Sample:
        attempted = self.specs + len(SLUGS)
        cache_dir = Path(tempfile.mkdtemp(prefix="paper-", dir=self.scratch))
        try:
            start = time.perf_counter()
            try:
                engine = Engine(cache_dir=cache_dir, jobs=1)
                results = report.run_all(self.scale, self.seed,
                                         engine=engine)
                report.render_results(results, self.scale, self.seed)
            except Exception:
                _report_failure(f"{self.name} seed {self.seed}")
                return Sample(start, time.perf_counter(), attempted,
                              attempted, self.specs)
            end = time.perf_counter()
            payloads = [canonical(result) for result in results]
            bad = wrong_tables(payloads, self.expected)
            counts = _engine_counts(engine)
            counts["cache_bytes"] = directory_bytes(cache_dir)
            counts["sota_gap"] = sota_gap(payloads[SLUGS.index("fig17")]
                                          ["summary"])
            if self.golden_gap is not None:
                counts["sota_gap_golden"] = self.golden_gap
            return Sample(start, end, attempted,
                          failed_operations(bad, self.operations),
                          self.specs, counts,
                          [f"table {slug} differs from its golden"
                           for slug in bad])
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# sweep-warm
# ----------------------------------------------------------------------
class SweepWarm:
    """Arch sweep at small scale over a cache one default run filled."""

    name = "sweep-warm"

    def __init__(self, seed: int, scratch: Path, scale: str = "small",
                 golden_dir: Optional[Path] = Path("tests/golden"),
                 arch_dir: Path = Path("examples/arch")) -> None:
        self.seed = seed
        self.scratch = scratch
        self.scale = scale
        self.golden_dir = golden_dir
        self.arch_dir = arch_dir
        self.template: Optional[Path] = None
        self.reference: Dict[str, List[dict]] = {}

    def setup(self) -> None:
        """Fill a fresh cache template with one default-arch run."""
        self.variants = load_arch_sweep(self.arch_dir)
        defaults = [desc.name for _path, desc in self.variants
                    if desc.params == DEFAULT_PARAMS]
        if len(defaults) != 1:
            raise RuntimeError(f"{self.arch_dir} must hold exactly one "
                               f"default-architecture variant")
        self.default = defaults[0]
        self.operations = {
            desc.name: report_operations(self.scale, self.seed, desc.params)
            for _path, desc in self.variants
        }
        self.specs = {
            desc.name: len(report.all_specs(self.scale, self.seed,
                                            desc.params))
            for _path, desc in self.variants
        }
        template = Path(tempfile.mkdtemp(prefix="template-",
                                         dir=self.scratch))
        engine = Engine(cache_dir=template, jobs=1)
        filled = [canonical(result) for result in report.run_all(
            self.scale, self.seed, engine=engine)]
        if self.template is not None:
            shutil.rmtree(self.template, ignore_errors=True)
        self.template = template
        self.template_bytes = directory_bytes(template)
        self.golden_default = (golden_payloads(self.golden_dir)
                               if self.seed == 0 else None)
        # The default variant must replay exactly what set-up computed;
        # the others must repeat across iterations.
        self.reference = {self.default: filled}

    def iteration(self, on_operation: Optional[Callable[[str], None]] = None
                  ) -> Sample:
        attempted = sum(self.specs.values()) + len(SLUGS) * len(self.specs)
        cache_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=self.scratch))
        shutil.rmtree(cache_dir)
        shutil.copytree(self.template, cache_dir)
        try:
            outputs = {}
            start = time.perf_counter()
            try:
                engine = Engine(cache_dir=cache_dir, jobs=1)
                for _path, desc in self.variants:
                    if on_operation is not None:
                        on_operation(desc.name)
                    results = report.run_all(self.scale, self.seed,
                                             engine=engine,
                                             params=desc.params)
                    report.render_results(results, self.scale, self.seed)
                    outputs[desc.name] = results
            except Exception:
                _report_failure(f"{self.name} seed {self.seed}")
                return Sample(start, time.perf_counter(), attempted,
                              attempted, sum(self.specs.values()))
            end = time.perf_counter()
            failed, notes = 0, []
            for variant, results in outputs.items():
                payloads = [canonical(result) for result in results]
                expected = self.reference.setdefault(variant, payloads)
                bad = wrong_tables(payloads, expected)
                if variant == self.default:
                    bad = sorted(set(bad) | set(
                        wrong_tables(payloads, self.golden_default)))
                failed += failed_operations(bad, self.operations[variant])
                notes += [f"{variant}: table {slug} differs from its "
                          f"reference" for slug in bad]
            counts = _engine_counts(engine)
            counts["cache_bytes"] = (directory_bytes(cache_dir)
                                     - self.template_bytes)
            return Sample(start, end, attempted, failed,
                          sum(self.specs.values()), counts, notes)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def teardown(self) -> None:
        if self.template is not None:
            shutil.rmtree(self.template, ignore_errors=True)


# ----------------------------------------------------------------------
# kernel-run
# ----------------------------------------------------------------------
def _reference(name: str, memory: Dict[str, np.ndarray],
               params: Dict[str, int]) -> Dict[str, np.ndarray]:
    """The benchmark's own numpy reference for each example program."""
    x = memory["x"]
    if name == "saxpy":
        return {"y": params["a"] * x + memory["y"]}
    if name == "dot_product":
        return {"out": np.array([int(np.dot(x, memory["y"]))])}
    if name == "axpb":
        return {"y": 1.5 * x + 0.25}
    if name == "sigmoid":
        return {"y": 1.0 / (1.0 + np.exp(-x))}
    raise KeyError(name)


def resized_package(source: Path, elements: int,
                    rng: np.random.Generator):
    """An example package resized to ``elements`` with seeded inputs.

    Vector arrays grow to ``elements``; the loop bound follows (the ``n``
    parameter, or the literal stop).  Inputs are drawn small enough that
    no integer result leaves 32 bits; expected outputs come from
    :func:`_reference`, so the simulator is graded against code it shares
    nothing with.
    """
    document = kernel_package.load_kernel(source).to_document()
    for entry in document["arrays"]:
        if entry["shape"][0] > 1:
            entry["shape"] = [elements]
    if "n" in document["params"]:
        document["params"]["n"] = elements
    else:
        document["loop"]["stop"] = elements
    memory = {}
    for entry in document["arrays"]:
        length = entry["shape"][0]
        if entry["role"] == "output":
            memory[entry["name"]] = np.zeros(length, dtype=entry["dtype"])
        elif entry["dtype"].startswith("int"):
            memory[entry["name"]] = rng.integers(-100, 100, length)
        else:
            memory[entry["name"]] = rng.uniform(-4.0, 4.0, length)
    expected = _reference(document["name"], memory, document["params"])
    document["memory"] = {name: values.tolist()
                          for name, values in memory.items()}
    document["expected"] = {name: values.tolist()
                            for name, values in expected.items()}
    return kernel_package.from_document(document, source=str(source))


class KernelRun:
    """``run_kernel`` on every resized example package x arch file."""

    name = "kernel-run"

    def __init__(self, seed: int, scratch: Path,
                 elements: int = KERNEL_ELEMENTS,
                 kernel_dir: Path = Path("examples/kernels"),
                 arch_dir: Path = Path("examples/arch")) -> None:
        # ``scratch`` is unused: kernel runs write no files.
        self.seed = seed
        self.elements = elements
        self.kernel_dir = kernel_dir
        self.arch_dir = arch_dir

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.packages = [
            resized_package(self.kernel_dir / name, self.elements, rng)
            for name in KERNEL_NAMES
        ]
        self.variants = load_arch_sweep(self.arch_dir)

    def iteration(self, on_operation: Optional[Callable[[str], None]] = None
                  ) -> Sample:
        runs = [(pkg, desc) for pkg in self.packages
                for _path, desc in self.variants]
        reports, failed, notes = [], 0, []
        start = time.perf_counter()
        for pkg, desc in runs:
            if on_operation is not None:
                on_operation(f"{pkg.name}@{desc.name}")
            try:
                reports.append(runner.run_kernel(
                    pkg, params=desc.params, arch_name=desc.name,
                    strategy="event",
                ))
            except Exception:
                _report_failure(f"{self.name} {pkg.name} on {desc.name}")
                failed += 1
                notes.append(f"{pkg.name} on {desc.name} raised")
        end = time.perf_counter()
        for result in reports:
            if not (result.passed and result.halted):
                failed += 1
                notes.append(f"{result.name} on {result.arch}: "
                             f"wrong output or runaway")
        counts = {
            "sim.cycles": sum(r.cycles for r in reports),
            "sim.ctrl_msgs": sum(r.ctrl_msgs_delivered for r in reports),
            "sim.ctrl_conflicts": sum(r.ctrl_network_conflicts
                                      for r in reports),
            "sim.mean_utilization": (
                sum(r.mean_utilization for r in reports) / len(reports)
                if reports else 0.0),
        }
        return Sample(start, end, len(runs), failed, 0, counts, notes)

    def teardown(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (PaperCold, SweepWarm, KernelRun)}
