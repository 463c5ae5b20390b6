"""Unit + property tests for DynamicTrace's execution and edge counts."""

import json
from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.ir.interp import Interpreter
from repro.ir.trace import DynamicTrace

sequences = st.lists(st.integers(0, 5), max_size=200)


def _trace_of(sequence):
    trace = DynamicTrace("t")
    for block in sequence:
        trace.record(block)
    return trace


def _edge_degrees(trace):
    """``(in-edges, out-edges)`` per block, summed over edge counts."""
    into, out = Counter(), Counter()
    for (src, dst), n in trace.edge_counts.items():
        out[src] += n
        into[dst] += n
    return into, out


def assert_count_laws(trace, first, last):
    """The flow laws tying a trace's edge counts to its exec counts.

    Every execution but the first was entered over a counted edge, and
    every execution but the last left over one.
    """
    into, out = _edge_degrees(trace)
    assert set(into) | set(out) <= set(trace.exec_counts)
    for block, n in trace.exec_counts.items():
        assert into[block] + (block == first) == n
        assert out[block] + (block == last) == n
    assert sum(trace.edge_counts.values()) == trace.total_block_execs - 1


class TestRecording:
    def test_exec_counts(self):
        trace = _trace_of((0, 1, 0, 1, 1))
        assert trace.exec_counts == {0: 2, 1: 3}
        assert trace.total_block_execs == 5

    def test_edge_counts(self):
        trace = _trace_of((0, 1, 2, 1, 2))
        assert trace.edge_counts[(0, 1)] == 1
        assert trace.edge_counts[(1, 2)] == 2
        assert trace.edge_counts[(2, 1)] == 1

    def test_repeated_block_counts_a_self_edge(self):
        trace = _trace_of((1, 1, 1, 2, 1, 1))
        assert trace.exec_counts == {1: 5, 2: 1}
        assert trace.edge_counts == {(1, 1): 3, (1, 2): 1, (2, 1): 1}

    def test_empty_trace_has_no_counts(self):
        trace = DynamicTrace("t")
        assert trace.exec_counts == {}
        assert trace.edge_counts == {}
        assert trace.total_block_execs == 0


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(sequences)
    def test_in_edges_plus_entry_equal_exec_counts(self, sequence):
        trace = _trace_of(sequence)
        into, _ = _edge_degrees(trace)
        for block, n in trace.exec_counts.items():
            assert into[block] + (block == sequence[0]) == n

    @settings(max_examples=80, deadline=None)
    @given(sequences)
    def test_out_edges_plus_exit_equal_exec_counts(self, sequence):
        trace = _trace_of(sequence)
        _, out = _edge_degrees(trace)
        for block, n in trace.exec_counts.items():
            assert out[block] + (block == sequence[-1]) == n

    @settings(max_examples=80, deadline=None)
    @given(sequences)
    def test_edge_total_is_exec_total_minus_one(self, sequence):
        trace = _trace_of(sequence)
        assert trace.total_block_execs == len(sequence)
        if not sequence:
            assert trace.exec_counts == {} and trace.edge_counts == {}
        else:
            assert sum(trace.edge_counts.values()) == len(sequence) - 1

    @settings(max_examples=80, deadline=None)
    @given(sequences)
    def test_payload_round_trips(self, sequence):
        trace = _trace_of(sequence)
        payload = json.loads(json.dumps(trace.to_payload()))
        loaded = DynamicTrace.from_payload(payload)
        assert loaded.kernel == trace.kernel
        assert loaded.exec_counts == trace.exec_counts
        assert loaded.edge_counts == trace.edge_counts
        assert loaded.to_payload() == trace.to_payload()


class TestRecordSize:
    def test_payload_is_bounded_by_program_size(self, saxpy_kernel):
        """A trace record grows with the CFG, not with the trip count."""
        static_edges = len(saxpy_kernel.cfg.edges())
        sizes = []
        for n in (10, 10_000):
            result = Interpreter(saxpy_kernel).run(
                {"x": np.arange(n), "y": np.zeros(n, dtype=np.int64)},
                {"n": n},
            )
            payload = result.trace.to_payload()
            assert set(payload) == {"kernel", "exec_counts", "edge_counts"}
            assert len(payload["edge_counts"]) <= static_edges
            sizes.append(len(json.dumps(payload)))
        # Only the count digits may differ between the two records.
        assert abs(sizes[1] - sizes[0]) <= 64
