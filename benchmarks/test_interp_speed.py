"""Interpreter speed gate: the compiled engine against the walking oracle.

Interpretation is most of a cold paper-scale report, so the compiled
engine (one generated Python function per kernel) must stay well ahead of
the walking engine it is checked against.  Both engines run the same
kernel in the same process, so host speed cancels out of the ratio.
Viterbi is the suite's longest interpretation: a min-selection branch in
an imperfect triple loop, 2.3M block executions at paper scale.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ir.interp import Interpreter
from repro.workloads.suite import get_workload

#: Margin the compiled engine must clear over the walking engine on
#: Viterbi at small scale.  A per-block compiled engine reaches about
#: 4.5x; whole-kernel compilation measured above 20x on a 2-CPU host.
SPEEDUP_FLOOR = 10.0


def _best_of(interpreter, instance, reps):
    """Fastest of ``reps`` runs, and the last result."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        result = interpreter.run(instance.memory, instance.params)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_compiled_engine_beats_walking_engine_on_viterbi():
    instance = get_workload("viterbi").instance("small")
    # Construction compiles the kernel; only execution is timed.
    compiled = Interpreter(instance.cdfg, engine="compiled")
    walking = Interpreter(instance.cdfg, engine="walking")
    fast, fast_result = _best_of(compiled, instance, reps=5)
    slow, slow_result = _best_of(walking, instance, reps=3)

    # Identical results first: a fast wrong interpreter is worthless.
    assert fast_result.steps == slow_result.steps
    assert fast_result.trace.exec_counts == slow_result.trace.exec_counts
    assert fast_result.trace.edge_counts == slow_result.trace.edge_counts
    for name, expected in slow_result.memory.items():
        assert fast_result.memory[name].dtype == expected.dtype
        assert np.array_equal(fast_result.memory[name], expected)

    speedup = slow / fast
    print(f"\nviterbi small, {slow_result.steps} block executions: "
          f"walking {slow * 1000:.1f} ms, compiled {fast * 1000:.1f} ms "
          f"({speedup:.1f}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"compiled engine only {speedup:.1f}x over walking "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
