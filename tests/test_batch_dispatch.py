"""Cohort dispatch: grouping-law cohorts over the wire.

Every dispatched job's specs are partitioned by the grouping law:
specs share a cohort exactly when they run the same program on the
same geometry, because such specs share one placement pool
worker-side.  Seeds, latency parameters, and models may differ inside
a cohort; workload, scale, rows, or cols differences split it.  Each
cohort travels as one ``<job>:gN`` task blocked on *every* trace it
needs, workers execute it through one ``engine.execute`` call, and the
ack fans the per-spec payloads back out under the original indices.
Everything a driver can observe — result payloads, delivery order
guarantees, exactly-once semantics, journal replay, assembled reports —
must be byte-identical to a local ``Engine()`` run.
"""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.arch.params import DEFAULT_PARAMS, ArchParams
from repro.cli import main
from repro.engine import Engine, MemoryBackend, ModelSpec, RunSpec
from repro.engine.distributed.coordinator import (
    Coordinator,
    _group_wire_specs,
    _wire_batch_key,
)
from repro.engine.distributed.journal import JobJournal
from repro.engine.distributed.server import DistributedServer
from repro.engine.distributed.worker import (
    CoordinatorClient,
    dispatch_job,
    work_loop,
)

VN = ModelSpec.make("von_neumann")
MARIONETTE = ModelSpec.make("marionette")


def _specs():
    return [
        RunSpec(name, "tiny", seed, model, DEFAULT_PARAMS)
        for name in ("gemm", "crc")
        for seed in (0, 1)
        for model in (VN, MARIONETTE)
    ]


def _payloads(specs):
    return [spec.to_payload() for spec in specs]


def _drain(coordinator, job_id, *, worker="w"):
    """Lease and ack every task, returning delivered (index, payload)
    pairs; sim cohorts are executed as fake per-spec results."""
    landed = []
    cursor = 0
    while True:
        batch = coordinator.results_since(job_id, cursor)
        landed.extend(tuple(pair) for pair in batch["results"])
        cursor = batch["completed"]
        if batch["done"] or batch["failed"]:
            return landed, batch
        grant = coordinator.lease(worker)
        if grant.get("wait"):
            continue
        task = grant["task"]
        if task["kind"] == "trace":
            coordinator.ack(grant["id"], grant["lease"], computed=True)
        else:
            coordinator.ack(grant["id"], grant["lease"], result={
                "results": [{"cycles": 100 + index}
                            for index in task["indices"]],
            })


# ----------------------------------------------------------------------
# The grouping law over wire specs
# ----------------------------------------------------------------------
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
            spec(model=VN),
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


# ----------------------------------------------------------------------
# Coordinator semantics of cohort jobs
# ----------------------------------------------------------------------
class TestGroupedCoordinator:
    @staticmethod
    def _sim_grants(coordinator):
        """Ack every trace, then collect the sim-task grants."""
        grants = []
        while True:
            grant = coordinator.lease("w")
            if grant.get("wait"):
                break
            if grant["task"]["kind"] == "trace":
                coordinator.ack(grant["id"], grant["lease"],
                                computed=True)
            else:
                grants.append(grant)
        return grants

    def test_grouped_submit_follows_the_grouping_law(self):
        coordinator = Coordinator()
        receipt = coordinator.submit(_payloads(_specs()), scale="tiny",
                                     seed=0)
        # The receipt counts specs ...
        assert receipt["traces"] == 4       # (workload, seed) pairs
        assert receipt["sims"] == 8
        # ... but the work divides into one task per grouping-law
        # batch: 8 specs over 2 workloads x 1 geometry -> 2 groups.
        grants = self._sim_grants(coordinator)
        assert len(grants) == 2
        assert sorted(index for grant in grants
                      for index in grant["task"]["indices"]) == \
            list(range(8))

    def test_grouped_task_waits_for_every_needed_trace(self):
        """A group spanning two seeds needs two traces; it must stay
        blocked until the *last* one acks."""
        specs = [RunSpec("gemm", "tiny", seed, VN, DEFAULT_PARAMS)
                 for seed in (0, 1)]
        coordinator = Coordinator()
        coordinator.submit(_payloads(specs), scale="tiny", seed=0)
        first = coordinator.lease("w")
        assert first["task"]["kind"] == "trace"
        second = coordinator.lease("w")
        assert second["task"]["kind"] == "trace"
        coordinator.ack(first["id"], first["lease"], computed=True)
        # One trace down, one to go: the grouped sim is still blocked.
        assert coordinator.lease("w") == {"wait": True}
        coordinator.ack(second["id"], second["lease"], computed=True)
        grant = coordinator.lease("w")
        assert grant["task"]["kind"] == "sim"
        assert grant["task"]["indices"] == [0, 1]
        assert [spec["seed"] for spec in grant["task"]["specs"]] == [0, 1]

    def test_grouped_results_fan_out_per_spec(self):
        coordinator = Coordinator()
        receipt = coordinator.submit(_payloads(_specs()), scale="tiny",
                                     seed=0)
        landed, batch = _drain(coordinator, receipt["job"])
        assert batch["done"] and not batch["failed"]
        assert sorted(index for index, _payload in landed) == \
            list(range(8))
        for index, payload in landed:
            assert payload == {"cycles": 100 + index}

    def test_geometry_differences_split_grouped_tasks(self):
        specs = [RunSpec("gemm", "tiny", 0, VN, DEFAULT_PARAMS),
                 RunSpec("gemm", "tiny", 0, VN,
                         ArchParams().scaled(8, 8))]
        coordinator = Coordinator()
        receipt = coordinator.submit(_payloads(specs), scale="tiny",
                                     seed=0)
        assert receipt["sims"] == 2
        grants = self._sim_grants(coordinator)
        assert sorted(grant["task"]["indices"] for grant in grants) \
            == [[0], [1]]
        assert sorted(grant["id"].rsplit(":", 1)[1]
                      for grant in grants) == ["g0", "g1"]


# ----------------------------------------------------------------------
# Durability: cohort jobs replay from the journal
# ----------------------------------------------------------------------
class TestGroupedJournalReplay:
    def test_grouped_job_survives_a_restart(self, tmp_path):
        coordinator = Coordinator(journal=JobJournal(tmp_path))
        receipt = coordinator.submit(_payloads(_specs()), scale="tiny",
                                     seed=0)
        # Ack every trace plus one cohort, then "crash".
        done_one_group = False
        while not done_one_group:
            grant = coordinator.lease("w")
            if grant.get("wait"):
                break
            task = grant["task"]
            if task["kind"] == "trace":
                coordinator.ack(grant["id"], grant["lease"],
                                computed=True)
            else:
                coordinator.ack(grant["id"], grant["lease"], result={
                    "results": [{"cycles": 100 + index}
                                for index in task["indices"]],
                })
                done_one_group = True

        resumed, summary = Coordinator.resume(JobJournal(tmp_path))
        assert summary["jobs"] == 1
        landed, batch = _drain(resumed, receipt["job"])
        assert batch["done"] and not batch["failed"]
        assert sorted(index for index, _payload in landed) == \
            list(range(8))
        for index, payload in landed:
            assert payload == {"cycles": 100 + index}


# ----------------------------------------------------------------------
# End-to-end byte-identity through real workers
# ----------------------------------------------------------------------
@pytest.fixture()
def server():
    instance = DistributedServer(
        MemoryBackend(), Coordinator(lease_timeout=30.0)
    ).start()
    yield instance
    instance.stop()


def _fleet(url, count=2):
    workers = [
        threading.Thread(
            target=work_loop, args=(url,),
            kwargs={"poll": 0.05, "max_idle": 30.0,
                    "worker_id": f"fleet-{n}"},
        )
        for n in range(count)
    ]
    for worker in workers:
        worker.start()
    return workers


class TestBatchDispatchEndToEnd:
    def test_grouped_payloads_match_local_ungrouped_engine(self, server):
        """The acceptance wall: batch-granular dispatched results are
        byte-identical, spec for spec, to a local Engine run."""
        specs = _specs()
        local = Engine()
        reference = [run.result.to_payload()
                     for run in local.execute(specs)]

        workers = _fleet(server.url)
        client = CoordinatorClient(server.url)
        try:
            landed = dict(dispatch_job(
                client, _payloads(specs), scale="tiny", seed=0,
                poll=0.02,
            ))
        finally:
            client.shutdown()
            for worker in workers:
                worker.join(timeout=30.0)
        assert sorted(landed) == list(range(len(specs)))
        assert [landed[index] for index in range(len(specs))] == \
            reference

    def test_dispatched_bench_report_is_byte_identical(self, capsys,
                                                       server):
        """`repro bench --dispatch` ships cohort tasks; the report must
        stay byte-identical to a local run."""
        assert main(["bench", "--scale", "tiny",
                     "--format", "json"]) == 0
        local = capsys.readouterr().out
        workers = _fleet(server.url, count=1)
        client = CoordinatorClient(server.url)
        try:
            assert main(["bench", "--scale", "tiny", "--format", "json",
                         "--dispatch", server.url]) == 0
            grouped = capsys.readouterr()
        finally:
            client.shutdown()
            for worker in workers:
                worker.join(timeout=30.0)
        assert grouped.out == local
        assert "warning" not in grouped.err
