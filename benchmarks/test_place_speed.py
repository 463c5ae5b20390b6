"""Placement speed gate: the incremental swap pass against its reference.

Every execution model asks for per-block placements, and the pairwise
swap pass is most of what ``place_block`` costs.  The shipped pass keeps
link loads and wirelength incrementally; the reference in
``tests/test_compiler_place.py`` re-routes the whole block for every
candidate swap.  Both run in the same process on the same blocks, so host
speed cancels out of the ratio.  The 8x8 mesh has the longest routes and
the most candidate PEs.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro.arch.spec import load_arch
from repro.compiler import place
from repro.workloads.suite import ALL_WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from test_compiler_place import reference_improve  # noqa: E402

#: Margin the incremental pass must clear over the full re-route
#: reference, best of three.  Measured 7x (8x8 mesh) to 10x (4x4) on a
#: 2-CPU host.
SPEEDUP_FLOOR = 3.0


def _best_of(blocks, params, reps):
    """Fastest of ``reps`` passes over ``blocks``, and the last results."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        placements = [place.place_block(block, params) for block in blocks]
        best = min(best, time.perf_counter() - start)
    return best, placements


@pytest.mark.parametrize("arch", ["marionette_default", "mesh_8x8"])
def test_incremental_swap_pass_beats_full_reroute(arch, monkeypatch):
    params = load_arch(ROOT / "examples" / "arch" / f"{arch}.json").params
    blocks = [
        block
        for workload in ALL_WORKLOADS
        for block in workload.instance("small").cdfg.blocks
        if block.op_count > 1
    ]
    fast, fast_placements = _best_of(blocks, params, reps=3)
    monkeypatch.setattr(place, "_improve", reference_improve)
    slow, slow_placements = _best_of(blocks, params, reps=3)

    # Identical placements first: a fast wrong placer is worthless.
    assert [(p.assignment, p.ii, p.depth_cycles) for p in fast_placements] \
        == [(p.assignment, p.ii, p.depth_cycles) for p in slow_placements]

    speedup = slow / fast
    print(f"\n{arch}, {len(blocks)} blocks: reference {slow * 1000:.1f} ms, "
          f"incremental {fast * 1000:.1f} ms ({speedup:.1f}x)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"incremental swap pass only {speedup:.1f}x over the reference "
        f"(floor {SPEEDUP_FLOOR}x)"
    )
