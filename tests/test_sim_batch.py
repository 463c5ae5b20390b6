"""The grouping law of batch-granular dispatch.

``Coordinator.submit(group=True)`` ships simulation specs to workers in
batches: specs share a batch exactly when they run the same program on
the same geometry, because such specs share one placement pool
worker-side.  Seeds, latency parameters, and models may differ inside a
batch; workload, scale, rows, or cols differences split it.  Grouping
is a deterministic permutation: every spec lands in exactly one batch,
batches in first-member order, members in input order.

End-to-end grouped dispatch (leases, journal replay, byte identity with
a local engine) lives in ``tests/test_batch_dispatch.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arch.params import ArchParams
from repro.engine.distributed.coordinator import (
    _group_wire_specs,
    _wire_batch_key,
)
from repro.engine.spec import ModelSpec, RunSpec

MARIONETTE = ModelSpec.make("marionette")
VON_NEUMANN = ModelSpec.make("von_neumann")


def spec(workload="gemm", scale="tiny", seed=0, model=MARIONETTE,
         params=None):
    return RunSpec(workload=workload, scale=scale, seed=seed,
                   model=model, params=params or ArchParams())


def group(specs):
    return _group_wire_specs([s.to_payload() for s in specs])


class TestGroupingLaw:
    def test_key_is_program_plus_geometry(self):
        base = spec()
        assert _wire_batch_key(base.to_payload()) == (
            "gemm", "tiny", base.params.rows, base.params.cols)

    def test_seeds_models_and_latencies_share_a_batch(self):
        """Everything that does not move the program or the grid may
        ride in one batch."""
        slow = replace(ArchParams(), data_net_latency=9)
        specs = [
            spec(seed=0),
            spec(seed=3),
            spec(model=VON_NEUMANN),
            spec(params=slow),
        ]
        assert group(specs) == [[0, 1, 2, 3]]

    @pytest.mark.parametrize("other", [
        spec(workload="crc"),
        spec(scale="small"),
        spec(params=ArchParams().scaled(8, 8)),
        spec(params=ArchParams().scaled(4, 16)),
    ])
    def test_program_or_geometry_differences_split(self, other):
        assert group([spec(), other]) == [[0], [1]]

    def test_mixed_arch_sweep_splits_at_geometry_boundaries(self):
        """An arch sweep interleaving two geometries yields exactly two
        batches, each collecting its geometry's members in order."""
        small = ArchParams()
        large = ArchParams().scaled(8, 8)
        specs = [spec(seed=s, params=p)
                 for s in range(3) for p in (small, large)]
        batches = group(specs)
        assert batches == [[0, 2, 4], [1, 3, 5]]
        for batch in batches:
            keys = {_wire_batch_key(specs[i].to_payload()) for i in batch}
            assert len(keys) == 1

    def test_grouping_is_a_covering_permutation(self):
        specs = [spec(workload=w, seed=s)
                 for w in ("gemm", "crc", "fft") for s in range(2)]
        batches = group(specs)
        flattened = sorted(i for batch in batches for i in batch)
        assert flattened == list(range(len(specs)))
        for batch in batches:
            assert batch == sorted(batch)

    def test_empty_input(self):
        assert group([]) == []
