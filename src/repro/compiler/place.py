"""DFG placement onto the PE grid.

Greedy producer-proximity placement with a local-search improvement pass:

1. Nodes are visited in topological (creation) order; each is assigned to
   the free PE minimising the Manhattan distance to its producers' PEs
   (falling back to round-robin sharing once PEs run out — resource
   time-multiplexing raises the II).
2. A bounded pairwise-swap pass reduces total wirelength.
3. The placed edges are routed on the mesh (XY); the initiation interval is
   ``max(ops-per-PE, link congestion)`` and the drain is the DFG critical
   path plus the longest routed transfer.

Nonlinear operators (LOG/EXP/...) must land on nonlinear-capable PEs — the
prototype has four (Table 4); placement reserves the last PEs of the region
for them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PlacementError
from repro.arch.network.mesh import DataMesh
from repro.arch.params import ArchParams
from repro.arch.topology import Coord, Grid
from repro.ir.cfg import BasicBlock
from repro.ir.dfg import NodeId
from repro.ir.ops import OpClass
from repro.compiler.mapping import BBPlacement

#: Cap on the pairwise-swap improvement pass.
_SWAP_ROUNDS = 2


def _nonlinear_capable(grid: Grid, params: ArchParams) -> List[Coord]:
    """The nonlinear-fitting PEs: the tail of the row-major order."""
    coords = list(grid)
    return coords[len(coords) - params.nonlinear_pes:]


def placement_key(params: ArchParams) -> Tuple[int, int, int]:
    """Every parameter :func:`place_block` reads that can move the II.

    The grid geometry and the nonlinear-capable PE count decide where
    nodes may land; ``mesh_hop_latency`` moves only ``depth_cycles``,
    which a per-block II memo does not store.
    """
    return (params.rows, params.cols, params.nonlinear_pes)


def place_block(
    block: BasicBlock,
    params: ArchParams,
    region: Optional[Sequence[Coord]] = None,
) -> BBPlacement:
    """Place one block's DFG onto ``region`` (default: the whole array).

    Returns a :class:`BBPlacement` whose II reflects FU sharing and mesh
    congestion.  Raises :class:`PlacementError` when the region is empty or
    nonlinear ops cannot be honoured.
    """
    grid = Grid(params.rows, params.cols)
    region_list = list(region) if region is not None else list(grid)
    if not region_list:
        raise PlacementError(f"block {block.name!r}: empty placement region")

    fu_nodes = block.dfg.fu_nodes
    if not fu_nodes:
        return BBPlacement(block.block_id, {}, ii=1, depth_cycles=0)

    nonlinear_pool = [
        c for c in _nonlinear_capable(grid, params) if c in set(region_list)
    ]
    needs_nonlinear = [
        n for n in fu_nodes if n.info.op_class is OpClass.NONLINEAR
    ]
    if needs_nonlinear and not nonlinear_pool:
        raise PlacementError(
            f"block {block.name!r}: {len(needs_nonlinear)} nonlinear ops "
            "but no nonlinear-capable PE in region"
        )

    load: Dict[Coord, int] = {c: 0 for c in region_list}
    assignment: Dict[NodeId, Coord] = {}

    def candidates_for(node) -> List[Coord]:
        if node.info.op_class is OpClass.NONLINEAR:
            return nonlinear_pool
        return region_list

    def proximity_cost(coord: Coord, node) -> Tuple[int, int]:
        dist = 0
        for operand in node.operands:
            producer = assignment.get(operand)
            if producer is not None:
                dist += coord.manhattan(producer)
        return (load[coord], dist)

    for node in fu_nodes:
        pool = candidates_for(node)
        best = min(pool, key=lambda c: proximity_cost(c, node))
        assignment[node.node_id] = best
        load[best] += 1

    _improve(assignment, block, grid, params)

    mesh = DataMesh(grid, hop_latency=params.mesh_hop_latency)
    longest_transfer = 0
    op_ids = set(assignment)
    for node in fu_nodes:
        for operand in node.operands:
            if operand not in op_ids:
                continue
            src, dst = assignment[operand], assignment[node.node_id]
            if src == dst:
                continue
            edge = mesh.route(src, dst)
            longest_transfer = max(longest_transfer, mesh.latency(edge))

    resource_ii = max(load.values()) if load else 1
    ii = max(1, resource_ii, mesh.congestion_ii())
    depth = block.dfg.critical_path_length() + longest_transfer
    return BBPlacement(
        block.block_id, assignment, ii=ii, depth_cycles=depth,
    )


def _improve(assignment: Dict[NodeId, Coord], block: BasicBlock,
             grid: Grid, params: ArchParams) -> None:
    """Bounded pairwise swap pass minimising (link congestion, wirelength).

    Congestion is the binding term: a link shared by k routed edges forces
    the initiation interval to k, so trading wirelength for a lower maximum
    link load is always worth it.
    """
    edges: List[Tuple[NodeId, NodeId]] = []
    mapped = set(assignment)
    for node in block.dfg.fu_nodes:
        for operand in node.operands:
            if operand in mapped:
                edges.append((operand, node.node_id))
    if not edges:
        return

    def objective() -> Tuple[int, int]:
        mesh = DataMesh(grid, hop_latency=params.mesh_hop_latency)
        wire = 0
        for a, b in edges:
            src, dst = assignment[a], assignment[b]
            if src == dst:
                continue
            mesh.route(src, dst)
            wire += src.manhattan(dst)
        return (mesh.congestion_ii(), wire)

    nodes = list(assignment)
    current = objective()
    for _ in range(_SWAP_ROUNDS):
        improved = False
        for i, a in enumerate(nodes):
            for b in nodes[i + 1:]:
                if assignment[a] == assignment[b]:
                    continue
                if _swap_illegal(block, a, b):
                    continue
                assignment[a], assignment[b] = assignment[b], assignment[a]
                candidate = objective()
                if candidate < current:
                    current = candidate
                    improved = True
                else:
                    assignment[a], assignment[b] = (
                        assignment[b], assignment[a]
                    )
        if not improved:
            break


def _swap_illegal(block: BasicBlock, a: NodeId, b: NodeId) -> bool:
    """Nonlinear ops may not leave the nonlinear pool via swapping."""
    node_a = block.dfg.node(a)
    node_b = block.dfg.node(b)
    a_nl = node_a.info.op_class is OpClass.NONLINEAR
    b_nl = node_b.info.op_class is OpClass.NONLINEAR
    return a_nl != b_nl
