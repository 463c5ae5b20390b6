"""Batch-granular dispatch: grouped cohorts over the wire.

A coordinator task may carry a whole grouped cohort (``group=True`` on
submit): the job's specs are partitioned by program + geometry, each
group travels as one ``<job>:gN`` task blocked on *every* trace it
needs, workers execute the group through one ``engine.execute`` call,
and the ack fans the per-spec payloads back out under the original
indices.  Everything a
driver can observe — result payloads, delivery order guarantees,
exactly-once semantics, journal replay, assembled reports — must be
byte-identical to ungrouped dispatch and to a local ``Engine()`` run.
"""

from __future__ import annotations

import threading

import pytest

from repro.arch.params import DEFAULT_PARAMS, ArchParams
from repro.cli import main
from repro.engine import Engine, MemoryBackend, ModelSpec, RunSpec
from repro.engine.distributed.coordinator import Coordinator
from repro.engine.distributed.journal import JobJournal
from repro.engine.distributed.server import DistributedServer
from repro.engine.distributed.worker import (
    CoordinatorClient,
    dispatch_job,
    work_loop,
)
from repro.errors import DistributedError

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
    pairs; grouped sim tasks are executed as fake per-spec results."""
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
        elif "specs" in task:
            coordinator.ack(grant["id"], grant["lease"], result={
                "results": [{"cycles": 100 + task["indices"][i]}
                            for i in range(len(task["specs"]))],
            })
        else:
            coordinator.ack(grant["id"], grant["lease"],
                            result={"cycles": 100 + task["index"]})


# ----------------------------------------------------------------------
# Coordinator semantics of grouped jobs
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
                                     seed=0, group=True)
        # The receipt keeps the historical per-spec counts ...
        assert receipt["traces"] == 4       # (workload, seed) pairs
        assert receipt["sims"] == 8
        # ... but the work divides into one task per grouping-law
        # batch: 8 specs over 2 workloads x 1 geometry -> 2 groups.
        grants = self._sim_grants(coordinator)
        assert len(grants) == 2
        assert sorted(index for grant in grants
                      for index in grant["task"]["indices"]) == \
            list(range(8))

    def test_group_size_seals_batches(self):
        coordinator = Coordinator()
        coordinator.submit(_payloads(_specs()), scale="tiny",
                           seed=0, group=True, group_size=3)
        # Each workload's 4 members split 3+1.
        grants = self._sim_grants(coordinator)
        assert sorted(len(grant["task"]["specs"])
                      for grant in grants) == [1, 1, 3, 3]

    def test_group_size_must_be_positive(self):
        coordinator = Coordinator()
        with pytest.raises(DistributedError, match="group"):
            coordinator.submit(_payloads(_specs()[:2]), scale="tiny",
                               seed=0, group=True, group_size=0)

    def test_grouped_task_waits_for_every_needed_trace(self):
        """A group spanning two seeds needs two traces; it must stay
        blocked until the *last* one acks."""
        specs = [RunSpec("gemm", "tiny", seed, VN, DEFAULT_PARAMS)
                 for seed in (0, 1)]
        coordinator = Coordinator()
        coordinator.submit(_payloads(specs), scale="tiny", seed=0,
                           group=True)
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
                                     seed=0, group=True)
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
                                     seed=0, group=True)
        assert receipt["sims"] == 2

    def test_ungrouped_submit_shape_is_unchanged(self):
        """Protocol compatibility: without group=True the task ids,
        payload shapes, and receipt are exactly the historical ones."""
        coordinator = Coordinator()
        receipt = coordinator.submit(_payloads(_specs()[:2]),
                                     scale="tiny", seed=0)
        assert receipt["sims"] == 2
        trace = coordinator.lease("w")
        coordinator.ack(trace["id"], trace["lease"], computed=True)
        grant = coordinator.lease("w")
        assert grant["id"].rsplit(":", 1)[1].startswith("s")
        assert "spec" in grant["task"]
        assert "specs" not in grant["task"]
        assert "indices" not in grant["task"]


# ----------------------------------------------------------------------
# Durability: grouped jobs replay from the journal
# ----------------------------------------------------------------------
class TestGroupedJournalReplay:
    def test_grouped_job_survives_a_restart(self, tmp_path):
        coordinator = Coordinator(journal=JobJournal(tmp_path))
        receipt = coordinator.submit(_payloads(_specs()), scale="tiny",
                                     seed=0, group=True, group_size=3)
        # Ack every trace plus one grouped sim, then "crash".
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
                poll=0.02, group=True,
            ))
        finally:
            client.shutdown()
            for worker in workers:
                worker.join(timeout=30.0)
        assert sorted(landed) == list(range(len(specs)))
        assert [landed[index] for index in range(len(specs))] == \
            reference

    def test_group_size_one_equals_ungrouped_dispatch(self, server):
        specs = _specs()[:4]
        local = Engine()
        reference = [run.result.to_payload()
                     for run in local.execute(specs)]
        workers = _fleet(server.url, count=1)
        client = CoordinatorClient(server.url)
        try:
            grouped = dict(dispatch_job(
                client, _payloads(specs), scale="tiny", seed=0,
                poll=0.02, group=True, group_size=1,
            ))
            plain = dict(dispatch_job(
                client, _payloads(specs), scale="tiny", seed=0,
                poll=0.02,
            ))
        finally:
            client.shutdown()
            for worker in workers:
                worker.join(timeout=30.0)
        assert [grouped[i] for i in range(len(specs))] == reference
        assert [plain[i] for i in range(len(specs))] == reference

    def test_dispatched_bench_report_is_byte_identical(self, capsys,
                                                       server):
        """`repro bench --dispatch` submits grouped tasks; the report
        must stay byte-identical to a local run."""
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
