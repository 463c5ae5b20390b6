"""DFG placement onto the PE grid.

Greedy producer-proximity placement with a local-search improvement pass:

1. Nodes are visited in topological (creation) order; each is assigned to
   the free PE minimising the Manhattan distance to its producers' PEs
   (falling back to round-robin sharing once PEs run out — resource
   time-multiplexing raises the II).
2. A bounded pairwise-swap pass minimises ``(link congestion,
   wirelength)`` over the XY-routed edges.  The objective is kept
   incrementally: per-link loads and the total wirelength are updated for
   only the edges touching the swapped pair.
3. The initiation interval is ``max(ops-per-PE, link congestion)`` and the
   drain is the DFG critical path plus the longest routed transfer, both
   read from the swap pass's final link state.

Nonlinear operators (LOG/EXP/...) must land on nonlinear-capable PEs — the
prototype has four (Table 4); placement reserves the last PEs of the region
for them.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import PlacementError
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

    region_set = set(region_list)
    nonlinear_pool = [
        c for c in _nonlinear_capable(grid, params) if c in region_set
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

    congestion_ii, longest_transfer = _improve(
        assignment, block, grid, params,
    )

    resource_ii = max(load.values()) if load else 1
    ii = max(1, resource_ii, congestion_ii)
    depth = block.dfg.critical_path_length() + longest_transfer
    return BBPlacement(
        block.block_id, assignment, ii=ii, depth_cycles=depth,
    )


class _XYRoutes(dict):
    """XY routes of one grid, filled on first use.

    Key ``src * size + dst`` over row-major PE indices; value ``(hops,
    link ids)``.  The directed link leaving PE ``p`` eastward, westward,
    southward or northward has id ``4 * p`` + 0, 1, 2 or 3, so ids stay
    below ``4 * size`` and do not depend on the order routes are filled.
    Filling on use keeps a large grid from paying for the ``size ** 2``
    routes its placements never take.
    """

    def __init__(self, rows: int, cols: int) -> None:
        super().__init__()
        self.grid = Grid(rows, cols)

    def __missing__(self, key: int) -> Tuple[int, Tuple[int, ...]]:
        grid = self.grid
        src, dst = divmod(key, grid.size)
        path = [grid.index(c)
                for c in grid.xy_path(grid.coord(src), grid.coord(dst))]
        direction = {1: 0, -1: 1, grid.cols: 2, -grid.cols: 3}
        links = tuple(4 * p + direction[q - p]
                      for p, q in zip(path, path[1:]))
        route = self[key] = (len(links), links)
        return route


@functools.lru_cache(maxsize=None)
def _xy_routes(rows: int, cols: int) -> _XYRoutes:
    """The route table of a ``rows x cols`` grid, shared process-wide."""
    return _XYRoutes(rows, cols)


def _improve(assignment: Dict[NodeId, Coord], block: BasicBlock,
             grid: Grid, params: ArchParams) -> Tuple[int, int]:
    """Bounded pairwise swap pass minimising (link congestion, wirelength).

    Congestion is the binding term: a link shared by k routed edges forces
    the initiation interval to k, so trading wirelength for a lower maximum
    link load is always worth it.

    The search runs on integers: node ``i`` of ``list(assignment)`` sits
    on row-major PE ``pos[i]``, per-link loads live in a flat list, and
    the wirelength is a running sum of XY hop counts.  A candidate swap
    of ``a`` and ``b`` takes the edges touching either out of the loads
    and the wirelength, swaps, and puts them back; it is kept only if
    ``(max(1, max load), wirelength)`` strictly drops, and undone the same
    way otherwise.  Updates ``assignment`` in place and returns the final
    ``(congestion II, longest transfer latency)``.
    """
    nodes = list(assignment)
    slot = {node: i for i, node in enumerate(nodes)}
    srcs: List[int] = []
    dsts: List[int] = []
    touching: List[Set[int]] = [set() for _ in nodes]
    for node in block.dfg.fu_nodes:
        for operand in node.operands:
            if operand in slot:
                a, b = slot[operand], slot[node.node_id]
                touching[a].add(len(srcs))
                touching[b].add(len(srcs))
                srcs.append(a)
                dsts.append(b)
    if not srcs:
        return 1, 0

    size = grid.size
    routes = _xy_routes(grid.rows, grid.cols)
    coord_at = {grid.index(c): c for c in assignment.values()}
    pos = [grid.index(assignment[node]) for node in nodes]
    nonlinear = [
        block.dfg.node(node).info.op_class is OpClass.NONLINEAR
        for node in nodes
    ]
    loads = [0] * (4 * size)

    def shift(edges, sign: int) -> int:
        """Add (``sign=1``) or remove (``-1``) edges; the wirelength moved."""
        wire = 0
        for e in edges:
            hops, links = routes[pos[srcs[e]] * size + pos[dsts[e]]]
            wire += hops
            for link in links:
                loads[link] += sign
        return sign * wire

    wire = shift(range(len(srcs)), 1)
    current = (max(1, max(loads)), wire)
    for _ in range(_SWAP_ROUNDS):
        improved = False
        for a in range(len(nodes)):
            for b in range(a + 1, len(nodes)):
                # Nonlinear ops may not leave the nonlinear pool.
                if pos[a] == pos[b] or nonlinear[a] != nonlinear[b]:
                    continue
                moved = touching[a] | touching[b]
                wire += shift(moved, -1)
                pos[a], pos[b] = pos[b], pos[a]
                wire += shift(moved, 1)
                candidate = (max(1, max(loads)), wire)
                if candidate < current:
                    current = candidate
                    improved = True
                else:
                    wire += shift(moved, -1)
                    pos[a], pos[b] = pos[b], pos[a]
                    wire += shift(moved, 1)
        if not improved:
            break

    for node, p in zip(nodes, pos):
        assignment[node] = coord_at[p]
    longest = max(routes[pos[s] * size + pos[d]][0]
                  for s, d in zip(srcs, dsts))
    # Injection + hops + ejection, as DataMesh.latency prices one transfer.
    transfer = 1 + longest * params.mesh_hop_latency + 1 if longest else 0
    return current[0], transfer
