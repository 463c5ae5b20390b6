"""Unit tests for the per-block data flow graph."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IRError
from repro.ir.builder import KernelBuilder
from repro.ir.dfg import DFG
from repro.ir.ops import Opcode
from repro.workloads import ALL_WORKLOADS


def build_chain(length: int) -> DFG:
    dfg = DFG()
    node = dfg.const(1)
    prev = dfg.input("x")
    for _ in range(length):
        prev = dfg.add(Opcode.ADD, (prev, node))
    return dfg


class TestConstruction:
    def test_add_returns_dense_ids(self):
        dfg = DFG()
        a = dfg.const(1)
        b = dfg.const(2)
        c = dfg.add(Opcode.ADD, (a, b))
        assert [a, b, c] == [0, 1, 2]

    def test_const_deduplicated(self):
        dfg = DFG()
        assert dfg.const(7) == dfg.const(7)
        assert dfg.const(7) != dfg.const(8)

    def test_input_deduplicated(self):
        dfg = DFG()
        assert dfg.input("v") == dfg.input("v")
        assert dfg.input("v") != dfg.input("w")

    def test_arity_mismatch_raises(self):
        dfg = DFG()
        a = dfg.const(1)
        with pytest.raises(IRError):
            dfg.add(Opcode.ADD, (a,))

    def test_dangling_operand_raises(self):
        dfg = DFG()
        with pytest.raises(IRError):
            dfg.add(Opcode.NEG, (5,))

    def test_memory_requires_array(self):
        dfg = DFG()
        a = dfg.const(0)
        with pytest.raises(IRError):
            dfg.add(Opcode.LOAD, (a,))

    def test_store_has_no_result_consumers(self):
        dfg = DFG()
        a = dfg.const(0)
        v = dfg.const(42)
        s = dfg.add(Opcode.STORE, (a, v), array="mem")
        assert dfg.consumers()[s] == []


class TestQueries:
    def test_fu_nodes_exclude_meta(self):
        dfg = DFG()
        a = dfg.const(1)
        b = dfg.input("x")
        dfg.add(Opcode.ADD, (a, b))
        assert dfg.op_count == 1
        assert len(dfg) == 3

    def test_live_ins_in_first_use_order(self):
        dfg = DFG()
        dfg.input("b")
        dfg.input("a")
        assert dfg.live_ins == ["b", "a"]

    def test_critical_path_of_chain(self):
        dfg = build_chain(5)
        assert dfg.critical_path_length() == 10  # 5 ADDs x 2 cycles

    def test_critical_path_empty(self):
        assert DFG().critical_path_length() == 0

    def test_depth_of_intermediate(self):
        dfg = build_chain(3)
        assert dfg.depth_of(len(dfg.nodes) - 1) == 6

    def test_consumers(self):
        dfg = DFG()
        a = dfg.const(1)
        b = dfg.input("x")
        c = dfg.add(Opcode.ADD, (a, b))
        d = dfg.add(Opcode.MUL, (c, c))
        assert dfg.consumers()[c] == [d, d]

    def test_op_histogram(self):
        dfg = build_chain(4)
        assert dfg.op_histogram() == {Opcode.ADD: 4}

    def test_memory_and_nonlinear_counts(self):
        dfg = DFG()
        a = dfg.const(0)
        dfg.add(Opcode.LOAD, (a,), array="m")
        x = dfg.input("x")
        dfg.add(Opcode.EXP, (x,))
        assert dfg.memory_op_count() == 1
        assert dfg.nonlinear_op_count() == 1

    def test_validate_passes_on_well_formed(self):
        build_chain(3).validate()


class TestProperties:
    @given(st.integers(1, 40))
    def test_chain_critical_path_scales(self, length):
        assert build_chain(length).critical_path_length() == 2 * length

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
    def test_const_cache_is_injective(self, values):
        dfg = DFG()
        ids = {}
        for value in values:
            node = dfg.const(value)
            if value in ids:
                assert ids[value] == node
            ids[value] = node
        assert len({dfg.node(i).value for i in ids.values()}) == len(ids)


# ----------------------------------------------------------------------
# Parity: the facts DFG.add keeps equal a walk over the finished graph
# ----------------------------------------------------------------------
def reference_depths(dfg):
    """Accumulated latency per node, by one walk in creation order."""
    depth = {}
    for node in dfg.nodes:
        base = max((depth[o] for o in node.operands), default=0)
        depth[node.node_id] = base + node.info.latency
    return depth


def assert_matches_walk(dfg):
    expected_fu = [n for n in dfg.nodes if n.info.needs_fu]
    assert len(dfg.fu_nodes) == len(expected_fu)
    assert all(a is b for a, b in zip(dfg.fu_nodes, expected_fu))
    depth = reference_depths(dfg)
    assert dfg.critical_path_length() == max(depth.values(), default=0)
    for node_id, expected in depth.items():
        assert dfg.depth_of(node_id) == expected


@st.composite
def random_kernels(draw):
    """A loop whose body chains random ops, branches, a then-only arm and
    a nested loop."""
    k = KernelBuilder("fuzz")
    n = k.param("n")
    k.array("a")
    k.array("o")
    ops = draw(st.lists(
        st.sampled_from(["add", "mul", "min", "sin", "branch", "if", "nest"]),
        min_size=1, max_size=8,
    ))
    with k.loop("i", 0, n) as i:
        value = k.load("a", i)
        for op in ops:
            if op == "add":
                value = value + k.load("a", i + 1)
            elif op == "mul":
                value = value * 3
            elif op == "min":
                value = k.minimum(value, i)
            elif op == "sin":
                value = k.sin(value)
            elif op == "branch":
                with k.branch(value > 1) as br:
                    k.set("t", value * 2)
                with br.orelse():
                    k.set("t", value - 1)
                value = k.get("t")
            elif op == "if":
                k.set("u", value)
                with k.if_(value < 0):
                    k.set("u", -value)
                value = k.get("u")
            else:
                k.set("acc", value)
                with k.loop("j", 0, i) as j:
                    k.set("acc", k.get("acc") + j * value)
                value = k.get("acc")
        k.store("o", i, value)
    return k.build()


class TestIncrementalFacts:
    @pytest.mark.parametrize("scale", ["tiny", "small"])
    @pytest.mark.parametrize(
        "workload", ALL_WORKLOADS, ids=[w.short for w in ALL_WORKLOADS]
    )
    def test_every_workload_block_matches_walk(self, workload, scale):
        cdfg = workload.build(workload.sizes(scale))
        for block in cdfg.blocks:
            assert_matches_walk(block.dfg)

    @settings(max_examples=60, deadline=None)
    @given(random_kernels())
    def test_random_kernels_match_walk(self, cdfg):
        for block in cdfg.blocks:
            assert_matches_walk(block.dfg)

    def test_chain_and_empty_match_walk(self):
        assert_matches_walk(build_chain(7))
        assert_matches_walk(DFG())
