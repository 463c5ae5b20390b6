"""Durable-coordinator tests: the write-ahead job journal.

The contract under test is the tentpole of the serve layer's crash
story — ``repro serve --state-dir`` must make a server restart
*invisible* to the fleet:

* every acknowledged state transition survives a ``kill -9`` (the
  journal append is fsync'd before the coordinator replies), so a
  resumed table holds exactly the jobs, results, and verdicts the old
  process had acknowledged — no more, no less;
* delivered results stay pollable at their original cursors; pending
  and ready tasks re-enter their queues; in-flight leases are
  deliberately *not* restored, so the tasks re-lease and the old
  tokens bounce as stale — exactly-once delivery holds across the
  restart boundary;
* the journal tolerates its own crash signature (a torn final line),
  refuses real corruption and version skew loudly, and self-compacts
  so replay cost is bounded by the live table, not by history;
* end to end: a serve process killed mid-job and restarted on the same
  state dir and port resumes its fleet, and the dispatched report is
  byte-identical to a local run.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.arch.params import DEFAULT_PARAMS
from repro.engine import Engine, ModelSpec, RunSpec
from repro.engine.distributed.backend import HTTPBackend
from repro.engine.distributed.coordinator import (
    PROTOCOL_VERSION,
    Coordinator,
)
from repro.engine.distributed.journal import (
    JOURNAL_VERSION,
    JobJournal,
    open_journal,
)
from repro.engine.distributed.worker import (
    CoordinatorClient,
    dispatch_job,
    work_loop,
)
from repro.errors import DistributedError, DistributedUnavailable

VN = ModelSpec.make("von_neumann")

SRC_DIR = str(Path(repro.__file__).parents[1])


def _specs(scale: str = "tiny"):
    """Two geometries per workload: each spec is its own sim cohort,
    and each adjacent pair shares one trace."""
    return [
        RunSpec(name, scale, 0, VN, params)
        for name in ("gemm", "crc", "fft")
        for params in (DEFAULT_PARAMS, DEFAULT_PARAMS.scaled(8, 8))
    ]


def _payloads(specs):
    return [spec.to_payload() for spec in specs]


# ----------------------------------------------------------------------
# The journal file itself
# ----------------------------------------------------------------------
class TestJournalFile:
    def test_fresh_state_dir_replays_empty(self, tmp_path):
        journal = JobJournal(tmp_path / "state")
        events, torn = journal.replay()
        assert events == []
        assert not torn
        # Replay of a journal that never existed must not create one.
        assert not journal.path.exists()

    def test_append_replay_roundtrip_stamps_versions(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"event": "submit", "job": "j1-x"})
        journal.append({"event": "done", "task": "j1-x:t0"})
        events, torn = journal.replay()
        assert not torn
        assert [event["event"] for event in events] == ["submit", "done"]
        for event in events:
            assert event["v"] == JOURNAL_VERSION
            assert "protocol" in event

    def test_torn_final_line_is_dropped_not_fatal(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"event": "submit", "job": "j1-x"})
        journal.append({"event": "done", "task": "j1-x:t0"})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "event": "do')   # crash mid-append
        events, torn = journal.replay()
        assert torn
        assert [event["event"] for event in events] == ["submit", "done"]

    def test_mid_file_corruption_refuses_to_replay(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append({"event": "submit", "job": "j1-x"})
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
        journal.append({"event": "done", "task": "j1-x:t0"})
        with pytest.raises(DistributedError, match="line 2"):
            journal.replay()

    @pytest.mark.parametrize("protocol", [-1, PROTOCOL_VERSION - 1],
                             ids=["bogus-protocol", "previous-protocol"])
    def test_version_skew_refuses_to_replay(self, tmp_path, protocol):
        journal = JobJournal(tmp_path)
        record = journal._stamp({"event": "submit", "job": "j1-x"})
        record["v"] = JOURNAL_VERSION + 1
        journal.path.write_text(json.dumps(record) + "\n",
                                encoding="utf-8")
        with pytest.raises(DistributedError, match="incompatible build"):
            journal.replay()
        # The previous protocol acked per-spec ``:sN`` tasks: replayed
        # against cohort tasks, its results would silently vanish.
        done = {"event": "done", "task": "j1-x:s0", "kind": "sim",
                "result": {"cycles": 1}}
        journal.path.write_text(
            "".join(json.dumps(dict(event, v=JOURNAL_VERSION,
                                    protocol=protocol)) + "\n"
                    for event in (record, done)),
            encoding="utf-8")
        with pytest.raises(DistributedError, match="incompatible build"):
            journal.replay()

    def test_append_reports_when_compaction_is_due(self, tmp_path):
        journal = JobJournal(tmp_path, max_bytes=64)
        assert not journal.append({"event": "submit", "job": "j"})
        assert journal.append({"event": "submit", "job": "j" * 64})

    def test_compact_replaces_history_with_the_snapshot(self, tmp_path):
        journal = JobJournal(tmp_path)
        for index in range(10):
            journal.append({"event": "noise", "n": index})
        journal.compact([{"event": "submit", "job": "j1-x"}])
        events, torn = journal.replay()
        assert not torn
        assert [event["event"] for event in events] == ["submit"]

    def test_open_journal_maps_none_to_memory_mode(self, tmp_path):
        assert open_journal(None) is None
        assert isinstance(open_journal(tmp_path), JobJournal)


# ----------------------------------------------------------------------
# Coordinator resume (in-process: injected clock, direct calls)
# ----------------------------------------------------------------------
class TestCoordinatorResume:
    def _coordinator(self, tmp_path, **kwargs):
        journal = JobJournal(tmp_path / "state",
                             max_bytes=kwargs.pop("max_bytes",
                                                  4 << 20))
        return Coordinator(journal=journal, **kwargs), journal

    def _finish_trace(self, coordinator):
        grant = coordinator.lease("w")
        assert grant["task"]["kind"] == "trace"
        assert coordinator.ack(grant["id"], grant["lease"],
                               computed=True)
        return grant

    def test_restart_keeps_results_and_requeues_pending(self, tmp_path):
        coordinator, journal = self._coordinator(tmp_path)
        specs = _payloads(_specs()[:2])       # one trace, two sims
        receipt = coordinator.submit(specs, scale="tiny", seed=0)
        job = receipt["job"]
        self._finish_trace(coordinator)
        sim = coordinator.lease("w")
        assert coordinator.ack(sim["id"], sim["lease"],
                               result={"results": [{"cycles": 11}]})
        # -- crash here: only the journal carries the state across ----
        resumed, summary = Coordinator.resume(journal)
        assert summary["jobs"] == 1
        assert summary["active"] == 1
        assert summary["results"] == 1
        assert summary["requeued"] == 1       # the un-acked sim
        batch = resumed.results_since(job, 0)
        assert batch["results"] == [[sim["task"]["indices"][0],
                                     {"cycles": 11}]]
        assert not batch["done"]
        # The surviving sim re-leases and the job completes normally.
        retry = resumed.lease("w2")
        assert retry["task"]["kind"] == "sim"
        assert resumed.ack(retry["id"], retry["lease"],
                           result={"results": [{"cycles": 22}]})
        final = resumed.results_since(job, 0)
        assert final["done"]
        assert sorted(index for index, _payload in final["results"]) \
            == [0, 1]

    def test_leases_are_not_restored_and_old_tokens_bounce(
            self, tmp_path):
        coordinator, journal = self._coordinator(tmp_path)
        coordinator.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        doomed = coordinator.lease("old-worker")
        resumed, _summary = Coordinator.resume(journal)
        # The task is pending again (not leased), so the old process's
        # ack is stale by token — exactly-once across the restart.
        assert not resumed.ack(doomed["id"], doomed["lease"],
                               computed=True)
        retry = resumed.lease("new-worker")
        assert retry["task"] == doomed["task"]
        assert retry["lease"] != doomed["lease"]
        assert resumed.ack(retry["id"], retry["lease"], computed=True)
        assert resumed.status()["stats"]["stale_acks"] == 1

    def test_failed_job_replays_its_verdict(self, tmp_path):
        coordinator, journal = self._coordinator(tmp_path)
        receipt = coordinator.submit(_payloads(_specs()[:1]),
                                     scale="tiny", seed=0)
        grant = coordinator.lease("w")
        assert coordinator.ack(grant["id"], grant["lease"],
                               error="model crashed")
        resumed, summary = Coordinator.resume(journal)
        assert summary["active"] == 0
        batch = resumed.results_since(receipt["job"], 0)
        assert "model crashed" in batch["failed"]
        assert resumed.lease("w") == {"wait": True}

    def test_evicted_job_replays_into_lifetime_stats(self, tmp_path,
                                                     monkeypatch):
        from repro.engine.distributed import coordinator as module

        monkeypatch.setattr(module, "FINISHED_JOB_RETENTION", 0)
        coordinator, journal = self._coordinator(tmp_path)
        receipt = coordinator.submit(_payloads(_specs()[:1]),
                                     scale="tiny", seed=0)
        self._finish_trace(coordinator)
        sim = coordinator.lease("w")
        assert coordinator.ack(sim["id"], sim["lease"],
                               result={"results": [{"cycles": 1}]})
        assert coordinator.status()["jobs"] == []   # evicted on done
        resumed, summary = Coordinator.resume(journal)
        assert summary["jobs"] == 0
        assert resumed.status()["stats"]["traces_computed"] == 1
        with pytest.raises(DistributedError, match="unknown job"):
            resumed.results_since(receipt["job"], 0)

    def test_compaction_bounds_the_journal_under_load(self, tmp_path):
        coordinator, journal = self._coordinator(tmp_path,
                                                 max_bytes=4096)
        specs = _payloads(_specs()[:2])
        jobs = []
        for _round in range(8):
            jobs.append(coordinator.submit(specs, scale="tiny",
                                           seed=0)["job"])
            self._finish_trace(coordinator)
            for _sim in range(2):
                grant = coordinator.lease("w")
                assert coordinator.ack(grant["id"], grant["lease"],
                                       result={"results": [{"cycles": 7}]})
        # History would be ~8x the table; compaction keeps the file
        # within one snapshot of the budget, not proportional to it.
        assert journal.path.stat().st_size < 3 * 4096
        resumed, summary = Coordinator.resume(journal)
        assert summary["jobs"] == len(jobs)
        for job in jobs:
            batch = resumed.results_since(job, 0)
            assert batch["done"]
            assert sorted(i for i, _p in batch["results"]) == [0, 1]

    def test_cursors_mean_the_same_thing_after_restart(self, tmp_path):
        coordinator, journal = self._coordinator(tmp_path)
        receipt = coordinator.submit(_payloads(_specs()),
                                     scale="tiny", seed=0)
        job = receipt["job"]
        while True:
            grant = coordinator.lease("w")
            if grant == {"wait": True}:
                break
            if grant["task"]["kind"] == "trace":
                assert coordinator.ack(grant["id"], grant["lease"],
                                       computed=True)
            else:
                assert coordinator.ack(grant["id"], grant["lease"], result={
                    "results": [{"cycles": 100 + index}
                                for index in grant["task"]["indices"]],
                })
        before = coordinator.results_since(job, 2)
        # Force a compaction cycle before the restart so the snapshot's
        # result *order* (the cursor contract) is what replay sees.
        coordinator.journal.compact(coordinator._snapshot_events())
        resumed, _summary = Coordinator.resume(journal)
        after = resumed.results_since(job, 2)
        assert after["results"] == before["results"]
        assert after["done"] and before["done"]

    def test_drain_is_journaled_but_not_replayed(self, tmp_path):
        coordinator, journal = self._coordinator(tmp_path)
        coordinator.drain()
        with pytest.raises(DistributedError, match="shutting down"):
            coordinator.submit(_payloads(_specs()[:1]), scale="tiny",
                               seed=0)
        resumed, _summary = Coordinator.resume(journal)
        # The restart reopens the tap: draining is an operator action
        # on a process, not a property of the state dir.
        receipt = resumed.submit(_payloads(_specs()[:1]), scale="tiny",
                                 seed=0)
        assert receipt["job"]

    def test_job_counter_stays_monotonic_past_replayed_ids(
            self, tmp_path):
        coordinator, journal = self._coordinator(tmp_path)
        first = coordinator.submit(_payloads(_specs()[:1]),
                                   scale="tiny", seed=0)["job"]
        assert first.startswith("j1-")
        resumed, _summary = Coordinator.resume(journal)
        second = resumed.submit(_payloads(_specs()[:1]), scale="tiny",
                                seed=0)["job"]
        assert second.startswith("j2-")

    def test_resume_compacts_a_torn_tail_away(self, tmp_path):
        coordinator, journal = self._coordinator(tmp_path)
        coordinator.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"v": 1, "torn mid-app')
        _resumed, summary = Coordinator.resume(journal)
        assert summary["torn"]
        assert summary["jobs"] == 1
        # resume() rewrote the journal as a snapshot: the torn line is
        # gone and the *next* replay is clean.
        _events, torn = journal.replay()
        assert not torn

    def test_memory_mode_has_no_journal_io(self, tmp_path):
        coordinator = Coordinator()
        assert coordinator.durability == "memory"
        coordinator.submit(_payloads(_specs()[:1]), scale="tiny", seed=0)
        assert list(tmp_path.iterdir()) == []
        durable, _journal = self._coordinator(tmp_path)
        assert durable.durability.startswith("journal:")

    def test_journal_write_failure_errors_the_request(self, tmp_path):
        coordinator, journal = self._coordinator(tmp_path)
        # Yank the state dir out from under the coordinator: the
        # *submit* must fail (write-ahead: no reply without a record),
        # and the table must not have mutated behind the journal's back.
        journal.state_dir = tmp_path / "gone" / "deeper"
        with pytest.raises(DistributedError, match="cannot journal"):
            coordinator.submit(_payloads(_specs()[:1]), scale="tiny",
                               seed=0)
        assert coordinator.status()["jobs"] == []


# ----------------------------------------------------------------------
# Restart-survival end to end (real serve subprocess, kill -9)
# ----------------------------------------------------------------------
def _free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def _spawn_serve(port: int, state_dir: Path, cache_dir: Path
                 ) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--state-dir", str(state_dir),
         "--cache-dir", str(cache_dir), "--lease-timeout", "15"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _wait_healthy(url: str, timeout: float = 30.0) -> dict:
    deadline = time.monotonic() + timeout
    while True:
        try:
            return HTTPBackend(url).health()
        except DistributedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def test_serve_restart_survival_end_to_end(tmp_path):
    """Kill -9 a durable serve mid-job; the fleet resumes seamlessly.

    The dispatch client and the worker both outlive the server process:
    the journal replay brings the job back (delivered results intact,
    the rest re-leased), reconnect backoff re-attaches both sides, and
    the final report is byte-identical to a local run.
    """
    specs = _specs()
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    state_dir, cache_dir = tmp_path / "state", tmp_path / "cache"
    proc = _spawn_serve(port, state_dir, cache_dir)
    worker_done = threading.Event()
    try:
        health = _wait_healthy(url)
        assert health["durability"].startswith("journal:")

        def _serve_fleet():
            try:
                work_loop(url, poll=0.05, max_idle=60.0,
                          worker_id="survivor", reconnect=60.0)
            finally:
                worker_done.set()

        worker = threading.Thread(target=_serve_fleet, daemon=True)
        worker.start()
        client = CoordinatorClient(url)
        landed = []
        for index, payload in dispatch_job(
                client, _payloads(specs), scale="tiny", seed=0,
                poll=0.05, stall_timeout=60.0, reconnect=60.0):
            landed.append((index, payload))
            if len(landed) == 1:
                # First result delivered: kill the server mid-job and
                # restart it on the same port and state dir.
                proc.kill()
                proc.wait(timeout=30)
                proc = _spawn_serve(port, state_dir, cache_dir)
                _wait_healthy(url)
        # Every spec index exactly once, across the restart boundary.
        assert sorted(index for index, _payload in landed) \
            == list(range(len(specs)))
        # Byte-identical to a local run of the same specs.
        dispatched = {index: payload for index, payload in landed}
        local = [run.result.to_payload()
                 for run in Engine(jobs=2).execute(specs)]
        assert json.dumps([dispatched[i] for i in range(len(specs))],
                          sort_keys=True) \
            == json.dumps(local, sort_keys=True)
        with contextlib.suppress(DistributedError):
            client.shutdown()
        assert worker_done.wait(timeout=60.0)
    finally:
        worker_done.set()
        if proc is not None:
            with contextlib.suppress(ProcessLookupError):
                proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
