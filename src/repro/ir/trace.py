"""Dynamic execution traces.

The functional interpreter records how often each basic block executed
(``exec_counts``) and how often each CFG edge was taken (``edge_counts``).
These counts are all the architecture timing models read: block counts
weight the per-block costs and branch-divergence shares, and edge counts
give loop entries and iterations (:func:`repro.ir.analysis.loop_dynamics`).
A trace is therefore bounded by the program's size, not by how long it ran.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.ir.cdfg import CDFG
from repro.ir.cfg import BlockId


class DynamicTrace:
    """Block execution and edge transition counts of one kernel execution."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.exec_counts: Dict[BlockId, int] = {}
        self.edge_counts: Dict[Tuple[BlockId, BlockId], int] = {}
        self._last: Optional[BlockId] = None

    # ------------------------------------------------------------------
    # Recording (used by the interpreter)
    # ------------------------------------------------------------------
    def record(self, block: BlockId) -> None:
        """Record one execution of ``block`` and the edge that reached it."""
        # Called once per executed block: attributes are read into locals.
        counts = self.exec_counts
        counts[block] = counts.get(block, 0) + 1
        last = self._last
        if last is not None:
            edges = self.edge_counts
            edge = (last, block)
            edges[edge] = edges.get(edge, 0) + 1
        self._last = block

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total_block_execs(self) -> int:
        return sum(self.exec_counts.values())

    def execs_of(self, block: BlockId) -> int:
        return self.exec_counts.get(block, 0)

    def dynamic_op_count(self, cdfg: CDFG) -> int:
        """Total FU operations executed."""
        return sum(
            cdfg.block(bid).op_count * n for bid, n in self.exec_counts.items()
        )

    def dynamic_ops_in(self, cdfg: CDFG, blocks: Iterable[BlockId]) -> int:
        """FU operations executed within the given block set."""
        wanted: Set[BlockId] = set(blocks)
        return sum(
            cdfg.block(bid).op_count * n
            for bid, n in self.exec_counts.items()
            if bid in wanted
        )

    # ------------------------------------------------------------------
    # Serialization (the engine's on-disk trace cache)
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """JSON-safe image of the trace."""
        return {
            "kernel": self.kernel,
            "exec_counts": {
                str(b): n for b, n in sorted(self.exec_counts.items())
            },
            "edge_counts": [
                [src, dst, n]
                for (src, dst), n in sorted(self.edge_counts.items())
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "DynamicTrace":
        """Inverse of :meth:`to_payload`."""
        trace = cls(str(payload["kernel"]))
        trace.exec_counts = {
            int(b): int(n) for b, n in dict(payload["exec_counts"]).items()
        }
        trace.edge_counts = {
            (int(src), int(dst)): int(n)
            for src, dst, n in payload["edge_counts"]
        }
        return trace

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DynamicTrace({self.kernel}: {len(self.edge_counts)} edges, "
            f"{self.total_block_execs} block execs)"
        )
