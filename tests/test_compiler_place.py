"""Placement, routing, reshape, and pipeline-arithmetic tests."""

import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CompilationError, PlacementError
from repro.arch.network.mesh import DataMesh
from repro.arch.params import ArchParams
from repro.arch.spec import load_arch
from repro.arch.topology import Coord, Grid
from repro.compiler import place
from repro.compiler.mapping import BBPlacement
from repro.compiler.pipeline import pipeline_cycles, serial_cycles, PipelineShape
from repro.compiler.place import place_block
from repro.compiler.reshape import pe_waste, reshape_placement, unroll_placement
from repro.compiler.route import route_placement
from repro.ir.builder import KernelBuilder
from repro.ir.ops import OpClass
from repro.workloads.suite import ALL_WORKLOADS

ARCH_DIR = Path(__file__).resolve().parents[1] / "examples" / "arch"


def body_block(cdfg, name_fragment="body"):
    for block in cdfg.blocks:
        if name_fragment in block.name and block.op_count > 0:
            return block
    raise AssertionError(f"no block matching {name_fragment}")


@pytest.fixture
def mac_block(saxpy_kernel):
    return body_block(saxpy_kernel)


class TestPlaceBlock:
    def test_every_op_mapped_once(self, mac_block, params):
        placement = place_block(mac_block, params)
        op_ids = [n.node_id for n in mac_block.dfg.fu_nodes]
        placement.validate(op_ids)

    def test_ii_at_least_one(self, mac_block, params):
        assert place_block(mac_block, params).ii >= 1

    def test_empty_block(self, params):
        k = KernelBuilder("empty")
        cdfg = k.build()
        placement = place_block(cdfg.blocks[0], params)
        assert placement.op_count == 0 and placement.ii == 1

    def test_empty_region_rejected(self, mac_block, params):
        with pytest.raises(PlacementError):
            place_block(mac_block, params, region=[])

    def test_small_region_folds(self, mac_block, params):
        region = [Coord(0, 0), Coord(0, 1)]
        placement = place_block(mac_block, params, region)
        assert placement.n_pes <= 2
        assert placement.ii >= mac_block.op_count // 2

    def test_nonlinear_ops_on_nonlinear_pes(self, params):
        k = KernelBuilder("nl")
        n = k.param("n")
        k.array("x")
        k.array("y")
        with k.loop("i", 0, n) as i:
            k.store("y", i, k.exp(k.load("x", i)))
        block = body_block(k.build())
        placement = place_block(block, params)
        grid = Grid(params.rows, params.cols)
        nonlinear_pool = list(grid)[-params.nonlinear_pes:]
        from repro.ir.ops import OpClass

        for node in block.dfg.fu_nodes:
            if node.info.op_class is OpClass.NONLINEAR:
                assert placement.assignment[node.node_id] in nonlinear_pool

    def test_nonlinear_without_pool_raises(self, params):
        k = KernelBuilder("nl2")
        k.array("x")
        k.array("y")
        with k.loop("i", 0, 4) as i:
            k.store("y", i, k.log(k.load("x", i)))
        block = body_block(k.build())
        region = [Coord(0, 0), Coord(0, 1)]  # no nonlinear PEs
        with pytest.raises(PlacementError):
            place_block(block, params, region)

    def test_depth_includes_transfers(self, mac_block, params):
        placement = place_block(mac_block, params)
        assert placement.depth_cycles >= (
            mac_block.dfg.critical_path_length()
        )


class TestRoutePlacement:
    def test_all_cross_pe_edges_routed(self, mac_block, params):
        placement = place_block(mac_block, params)
        routing = route_placement(mac_block, placement, params)
        cross = 0
        mapped = set(placement.assignment)
        for node in mac_block.dfg.fu_nodes:
            for operand in node.operands:
                if operand in mapped and (
                    placement.assignment[operand]
                    != placement.assignment[node.node_id]
                ):
                    cross += 1
        assert len(routing.edges) == cross
        assert routing.congestion_ii >= 1


def reference_improve(assignment, block, grid, params):
    """Slow reference for ``place._improve``: full re-route per candidate.

    Every candidate swap routes every edge of the block on a fresh
    :class:`DataMesh` to score ``(congestion II, wirelength)``; one more
    routing pass then reads the final congestion II and longest transfer.
    """
    edges = []
    mapped = set(assignment)
    for node in block.dfg.fu_nodes:
        for operand in node.operands:
            if operand in mapped:
                edges.append((operand, node.node_id))

    def route_all():
        mesh = DataMesh(grid, hop_latency=params.mesh_hop_latency)
        wire = 0
        longest = 0
        for a, b in edges:
            src, dst = assignment[a], assignment[b]
            if src == dst:
                continue
            routed = mesh.route(src, dst)
            wire += src.manhattan(dst)
            longest = max(longest, mesh.latency(routed))
        return mesh.congestion_ii(), wire, longest

    def swap_illegal(a, b):
        a_nl = block.dfg.node(a).info.op_class is OpClass.NONLINEAR
        b_nl = block.dfg.node(b).info.op_class is OpClass.NONLINEAR
        return a_nl != b_nl

    if edges:
        nodes = list(assignment)
        current = route_all()[:2]
        for _ in range(place._SWAP_ROUNDS):
            improved = False
            for i, a in enumerate(nodes):
                for b in nodes[i + 1:]:
                    if assignment[a] == assignment[b]:
                        continue
                    if swap_illegal(a, b):
                        continue
                    assignment[a], assignment[b] = (
                        assignment[b], assignment[a]
                    )
                    candidate = route_all()[:2]
                    if candidate < current:
                        current = candidate
                        improved = True
                    else:
                        assignment[a], assignment[b] = (
                            assignment[b], assignment[a]
                        )
            if not improved:
                break
    congestion_ii, _, longest = route_all()
    return congestion_ii, longest


def _outcome(block, params, region):
    """The placement, or the :class:`PlacementError` message."""
    try:
        return place_block(block, params, region)
    except PlacementError as exc:
        return str(exc)


def _comparable(outcome):
    if isinstance(outcome, str):
        return outcome
    return (outcome.assignment, outcome.ii, outcome.depth_cycles)


def place_both(block, params, region=None):
    """``place_block`` with the shipped swap pass and with the reference."""
    fast = _outcome(block, params, region)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(place, "_improve", reference_improve)
        slow = _outcome(block, params, region)
    return fast, slow


def _regions(params, seed):
    """The whole grid, a random region, and a random region without a
    nonlinear-capable PE."""
    coords = list(Grid(params.rows, params.cols))
    rng = random.Random(seed)
    plain = coords[:len(coords) - params.nonlinear_pes]
    return [
        None,
        rng.sample(coords, rng.randint(1, len(coords))),
        rng.sample(plain, rng.randint(1, len(plain))),
    ]


@pytest.fixture(scope="module")
def parity_sweep():
    """Every small-scale block x every ``examples/arch`` spec x regions:
    ``(block, params, shipped outcome, reference outcome)``."""
    sweep = []
    for path in sorted(ARCH_DIR.glob("*.json")):
        params = load_arch(path).params
        for workload in ALL_WORKLOADS:
            regions = _regions(params, f"{workload.name}/{path.stem}")
            for block in workload.instance("small").cdfg.blocks:
                for region in regions:
                    sweep.append(
                        (block, params) + place_both(block, params, region)
                    )
    return sweep


class TestSwapPassParity:
    def test_matches_full_reroute_reference(self, parity_sweep):
        mismatches = [
            (block.name, fast, slow)
            for block, _, fast, slow in parity_sweep
            if _comparable(fast) != _comparable(slow)
        ]
        assert not mismatches, mismatches[:3]
        outcomes = [fast for _, _, fast, _ in parity_sweep]
        assert any(isinstance(o, str) for o in outcomes)
        assert sum(isinstance(o, BBPlacement) and o.op_count > 1
                   for o in outcomes) > 100

    def test_ii_and_depth_match_an_independent_routing(self, parity_sweep):
        for block, params, placement, _ in parity_sweep:
            if isinstance(placement, str):
                continue
            routing = route_placement(block, placement, params)
            pe_load = max(Counter(placement.assignment.values()).values(),
                          default=1)
            assert placement.ii == max(1, pe_load, routing.congestion_ii)
            assert placement.depth_cycles == (
                block.dfg.critical_path_length()
                + routing.max_transfer_latency
            )

    _STEPS = st.lists(
        st.tuples(st.sampled_from(["add", "mul", "square", "min", "exp"]),
                  st.integers(0, 63), st.integers(0, 63)),
        min_size=1, max_size=14,
    )

    @settings(max_examples=25, deadline=None)
    @given(_STEPS, st.sampled_from([4, 8]), st.integers(0, 2 ** 16))
    def test_random_blocks_with_repeated_operands(self, steps, size, seed):
        k = KernelBuilder("rand")
        for name in ("a", "b", "out"):
            k.array(name)
        with k.loop("i", 0, 8) as i:
            values = [k.load("a", i), k.load("b", i)]
            for kind, x, y in steps:
                u, v = values[x % len(values)], values[y % len(values)]
                if kind == "add":
                    values.append(u + v)
                elif kind == "mul":
                    values.append(u * v)
                elif kind == "square":
                    values.append(u * u)
                elif kind == "min":
                    values.append(k.minimum(u, v))
                else:
                    values.append(k.exp(u))
            k.store("out", i, values[-1])
        block = body_block(k.build())
        params = ArchParams().scaled(size, size)
        for region in _regions(params, seed):
            fast, slow = place_both(block, params, region)
            assert _comparable(fast) == _comparable(slow)


class TestReshape:
    def _placement(self, n_ops: int) -> BBPlacement:
        grid = Grid(4, 4)
        coords = list(grid)
        return BBPlacement(
            block=0,
            assignment={i: coords[i] for i in range(n_ops)},
            ii=1, depth_cycles=8,
        )

    def test_fold_raises_ii(self):
        original = self._placement(8)
        folded = reshape_placement(original, [Coord(0, 0), Coord(0, 1)])
        assert folded.time_extended
        assert folded.ii == 4
        assert folded.n_pes == 2
        assert sorted(folded.assignment) == sorted(original.assignment)

    def test_fold_empty_target_rejected(self):
        with pytest.raises(CompilationError):
            reshape_placement(self._placement(4), [])

    def test_pe_waste_formula(self):
        original = self._placement(8)
        folded = reshape_placement(original, [Coord(0, 0), Coord(0, 1)])
        # PE_remapping * II - PE * Unroll = 2*4 - 8*1 = 0
        assert pe_waste(folded, original) == 0

    def test_unroll_adds_copies(self):
        original = self._placement(4)
        spare = [Coord(3, c) for c in range(4)] + [Coord(2, c) for c in range(4)]
        unrolled = unroll_placement(original, spare)
        assert unrolled is not None
        assert unrolled.unroll == 3  # 8 spare // 4 ops = 2 extra copies
        assert unrolled.op_count == 12

    def test_unroll_returns_none_when_no_room(self):
        original = self._placement(8)
        assert unroll_placement(original, [Coord(0, 0)]) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 16), st.integers(1, 16))
    def test_fold_preserves_ops_any_shape(self, n_ops, n_targets):
        original = self._placement(n_ops)
        targets = list(Grid(4, 4))[:n_targets]
        folded = reshape_placement(original, targets)
        assert sorted(folded.assignment) == sorted(original.assignment)
        assert folded.ii >= max(
            original.ii, -(-n_ops // n_targets)
        ) - 1  # allow rounding slack
        assert folded.ii * folded.n_pes >= n_ops


class TestPipelineArithmetic:
    def test_basic_formula(self):
        assert pipeline_cycles(10, ii=1, startup=5, drain=3) == 17

    def test_zero_iterations(self):
        assert pipeline_cycles(0, 1, 5, 3) == 5

    def test_unroll_divides_initiations(self):
        assert pipeline_cycles(10, 1, 0, 0, unroll=2) == 4

    def test_invalid_args(self):
        with pytest.raises(CompilationError):
            pipeline_cycles(-1, 1, 0, 0)
        with pytest.raises(CompilationError):
            pipeline_cycles(1, 0, 0, 0)

    def test_serial(self):
        assert serial_cycles(4, depth=5, gap=2) == 26
        assert serial_cycles(0, 5, 2) == 0

    def test_shape_object(self):
        shape = PipelineShape(ii=2, startup=4, drain=6)
        assert shape.cycles(5) == 4 + 8 + 6

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 1000), st.integers(1, 8), st.integers(0, 20),
           st.integers(0, 20), st.integers(1, 4))
    def test_pipeline_beats_serial(self, iters, ii, startup, drain, unroll):
        pipelined = pipeline_cycles(iters, ii, startup, drain, unroll)
        serial = serial_cycles(iters, depth=max(drain, ii), gap=startup)
        assert pipelined <= serial + startup + drain
