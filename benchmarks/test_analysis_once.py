"""Count gate: the control-flow analyses run once per sealed CDFG.

A CDFG never changes after ``KernelBuilder.build()``, so its loop-nest
tree and its branch regions are derived once and kept on it.  Each costs
one dominator pass, so pricing a kernel on every execution model and
profiling it may run ``CFG.dominators`` at most twice per CDFG, however
many models and nests ask.  The gate counts calls, not time, so it is
deterministic on any host.
"""

from __future__ import annotations

from collections import Counter

from repro.arch.params import ArchParams
from repro.baselines.base import KernelInstance
from repro.engine.spec import MODEL_REGISTRY
from repro.ir import analysis
from repro.ir.cfg import CFG
from repro.workloads.suite import ALL_WORKLOADS

#: One dominator pass for the loop nests, one for the branch regions.
MAX_DOMINATOR_PASSES = 2


def test_dominators_run_at_most_twice_per_cdfg(monkeypatch):
    calls: Counter = Counter()
    original = CFG.dominators

    def counted(cfg):
        calls[id(cfg)] += 1
        return original(cfg)

    monkeypatch.setattr(CFG, "dominators", counted)
    params = ArchParams()
    cfgs = []
    for workload in ALL_WORKLOADS:
        instance = workload.instance("small")
        trace = instance.run().trace
        kernel = KernelInstance(instance.cdfg, trace)
        for model in MODEL_REGISTRY.values():
            model(params).simulate(kernel)
        analysis.profile(instance.cdfg, trace)
        cfgs.append(instance.cdfg.cfg)

    per_cdfg = {
        workload.short: calls[id(cfg)]
        for workload, cfg in zip(ALL_WORKLOADS, cfgs)
    }
    assert all(per_cdfg.values()), per_cdfg  # the counter saw the passes
    assert max(per_cdfg.values()) <= MAX_DOMINATOR_PASSES, per_cdfg
