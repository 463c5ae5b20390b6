"""CDFG structural analyses: forward regions, under-branch sets,
imperfect-loop detection on crafted graph shapes."""

import contextlib

import pytest

from repro.ir import analysis
from repro.ir.builder import KernelBuilder
from repro.ir.cdfg import CDFG
from repro.ir.cfg import BlockRole, Branch, CFG, Halt, Jump
from repro.ir.ops import Opcode
from repro.workloads import ALL_WORKLOADS


def names_of(cdfg, ids):
    return {cdfg.block(b).name for b in ids}


class TestUnderBranch:
    def test_nested_branch_regions_union(self):
        k = KernelBuilder("nested")
        n = k.param("n")
        k.array("o")
        with k.loop("i", 0, n) as i:
            with k.branch(i < 4) as outer:
                with k.branch(i < 2) as inner:
                    k.set("v", 1)
                with inner.orelse():
                    k.set("v", 2)
            with outer.orelse():
                k.set("v", 3)
            k.store("o", i, k.get("v"))
        cdfg = k.build()
        under = names_of(cdfg, cdfg.under_branch_blocks())
        # Both levels of arms are under a branch.
        assert any("br1_then" in name for name in under)
        assert any("br2_then" in name for name in under)
        # The loop header is not.
        assert not any("head" in name for name in under)

    def test_loop_inside_branch_is_under_it(self):
        k = KernelBuilder("loop_in_branch")
        n = k.param("n")
        k.array("o")
        with k.loop("i", 0, n) as i:
            with k.branch(i < 3):
                with k.loop("t", 0, 4) as t:
                    k.store("o", t, t)
        cdfg = k.build()
        under = names_of(cdfg, cdfg.under_branch_blocks())
        assert any("loop_t" in name for name in under)

    def test_merge_point_not_under_branch(self, branchy_kernel):
        under = names_of(branchy_kernel,
                         branchy_kernel.under_branch_blocks())
        assert not any("merge" in name for name in under)


class TestImperfectDetection:
    def test_perfect_nest_not_imperfect(self):
        k = KernelBuilder("perfect")
        n = k.param("n")
        k.array("o")
        with k.loop("i", 0, n) as i:
            with k.loop("j", 0, n) as j:
                k.store("o", i * n + j, i + j)
        cdfg = k.build()
        # The outer level carries only the `i * n` style address math, but
        # that lives in the inner body here; nothing but control at level 1.
        assert cdfg.max_loop_depth() == 2

    def test_computation_in_outer_body_is_imperfect(self):
        k = KernelBuilder("imperfect")
        n = k.param("n")
        k.array("o")
        with k.loop("i", 0, n) as i:
            k.set("row", i * n + 1)
            with k.loop("j", 0, n) as j:
                k.store("o", j, k.get("row"))
        cdfg = k.build()
        assert cdfg.is_imperfect()

    def test_single_loop_never_imperfect(self, saxpy_kernel):
        assert not saxpy_kernel.is_imperfect()


class TestSummaries:
    def test_summary_string(self, imperfect_kernel):
        text = imperfect_kernel.summary()
        assert "spmv" in text
        assert "2 loops" in text
        assert "imperfect=True" in text

    def test_total_op_count(self, saxpy_kernel):
        assert saxpy_kernel.total_op_count == sum(
            b.op_count for b in saxpy_kernel.blocks
        )

    def test_validate_catches_undeclared_array(self):
        from repro.errors import IRError
        from repro.ir.cdfg import CDFG

        k = KernelBuilder("bad")
        k.array("a")
        k.store("a", 0, 1)
        good = k.build()
        # Rebuild a CDFG claiming no arrays: validation must fail.
        bad = CDFG("bad2", good.cfg, params=(), arrays=())
        with pytest.raises(IRError):
            bad.validate()


# ----------------------------------------------------------------------
# Parity: the regions derived once equal a per-branch walk
# ----------------------------------------------------------------------
def reference_regions(cdfg):
    """Divergent region per branch, walking each arm separately and
    recomputing the back edges on every walk."""

    def forward_region(start, stop):
        back = set(cdfg.cfg.back_edges())
        seen = set()
        stack = [start]
        while stack:
            bid = stack.pop()
            if bid in seen or bid == stop:
                continue
            seen.add(bid)
            for succ in cdfg.cfg.successors(bid):
                if (bid, succ) not in back:
                    stack.append(succ)
        return seen

    regions = {}
    for block in cdfg.branch_blocks():
        term = block.terminator
        regions[block.block_id] = (
            forward_region(term.if_true, block.block_id)
            ^ forward_region(term.if_false, block.block_id)
        )
    return regions


def reference_nesting_depth(regions):
    if not regions:
        return 0
    return max(
        1 + sum(1 for other, region in regions.items()
                if other != bid and bid in region)
        for bid in regions
    )


def nested_if_else():
    k = KernelBuilder("nested_if_else")
    n = k.param("n")
    k.array("o")
    with k.loop("i", 0, n) as i:
        with k.branch(i < 4) as outer:
            with k.branch(i < 2) as inner:
                k.set("v", 1)
            with inner.orelse():
                k.set("v", 2)
        with outer.orelse():
            with k.if_(i > 6):
                k.set("v", 3)
        k.store("o", i, k.get("v"))
    return k.build()


def loop_in_branch_in_loop():
    k = KernelBuilder("loop_in_branch")
    n = k.param("n")
    k.array("o")
    with k.loop("i", 0, n) as i:
        with k.branch(i < 3) as br:
            with k.loop("t", 0, 4) as t:
                with k.if_(t > i):
                    k.store("o", t, t)
        with br.orelse():
            k.store("o", i, i)
    return k.build()


def deep_then_only(depth):
    k = KernelBuilder("deep")
    n = k.param("n")
    k.array("a")
    k.array("o")
    with k.loop("i", 0, n) as i:
        k.set("x", k.load("a", i))
        k.set("d", 0)
        with contextlib.ExitStack() as scopes:
            for level in range(depth):
                scopes.enter_context(k.branch(k.get("x") > level))
                k.set("d", level + 1)
        k.store("o", i, k.get("d"))
    return k.build()


def straight_line():
    k = KernelBuilder("flat")
    k.array("o")
    k.store("o", 0, 1)
    return k.build()


def continue_in_loop():
    """Hand-built: a loop body whose branch jumps straight back to the
    header on one arm, so only the back edges keep the two arms apart."""
    cfg = CFG()
    entry = cfg.new_block("entry")
    head = cfg.new_block("head", BlockRole.LOOP_HEADER)
    body = cfg.new_block("body", BlockRole.LOOP_BODY)
    work = cfg.new_block("work", BlockRole.LOOP_BODY)
    exit_b = cfg.new_block("exit")
    cond = head.dfg.add(Opcode.LT, (head.dfg.input("i"), head.dfg.const(9)))
    skip = body.dfg.add(Opcode.LT, (body.dfg.input("i"), body.dfg.const(3)))
    entry.terminator = Jump(head.block_id)
    head.terminator = Branch(cond, body.block_id, exit_b.block_id,
                             is_loop_branch=True)
    body.terminator = Branch(skip, head.block_id, work.block_id)
    work.terminator = Jump(head.block_id)
    exit_b.terminator = Halt()
    return CDFG("continue", cfg)


CRAFTED = {
    "nested_if_else": nested_if_else,
    "loop_in_branch": loop_in_branch_in_loop,
    "continue_in_loop": continue_in_loop,
    "deep_5": lambda: deep_then_only(5),
    "straight_line": straight_line,
}


def assert_regions_match_walk(cdfg):
    regions = reference_regions(cdfg)
    assert cdfg.branch_regions() == regions
    assert cdfg.under_branch_blocks() == set().union(*regions.values())
    assert analysis.branch_nesting_depth(cdfg) == (
        reference_nesting_depth(regions)
    )


class TestRegionParity:
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    @pytest.mark.parametrize(
        "workload", ALL_WORKLOADS, ids=[w.short for w in ALL_WORKLOADS]
    )
    def test_every_workload_matches_walk(self, workload, scale):
        assert_regions_match_walk(workload.build(workload.sizes(scale)))

    @pytest.mark.parametrize("shape", sorted(CRAFTED))
    def test_crafted_shapes_match_walk(self, shape):
        assert_regions_match_walk(CRAFTED[shape]())

    def test_fixture_kernels_match_walk(self, branchy_kernel,
                                        imperfect_kernel, saxpy_kernel):
        for cdfg in (branchy_kernel, imperfect_kernel, saxpy_kernel):
            assert_regions_match_walk(cdfg)

    def test_nested_shapes_nest(self):
        assert analysis.branch_nesting_depth(nested_if_else()) == 2
        assert analysis.branch_nesting_depth(deep_then_only(5)) == 5
        assert analysis.branch_nesting_depth(straight_line()) == 0

    def test_regions_are_derived_once(self):
        cdfg = nested_if_else()
        assert cdfg.branch_regions() is cdfg.branch_regions()
