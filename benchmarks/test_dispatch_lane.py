"""Dispatched CI lane example: the ablation sweep on a worker fleet.

This is the dynamic counterpart of ``test_shard_lane.py``: instead of a
static fingerprint-prefix partition, a localhost ``repro serve``
coordinator hands the ablation sweep's specs to worker *processes* that
pull work as they go idle (two tasks per lease round trip, acks
piggybacked on the next lease) and share every trace and cycle record
through the HTTP cache backend.  The assembled tables must be
byte-identical to the unsharded golden run, every functional trace must
be computed exactly once across the fleet, and — when the host actually
has the cores for it — two workers must beat one on wall clock.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.engine import Engine, HTTPBackend, MemoryBackend, result_payload
from repro.engine.distributed.coordinator import Coordinator
from repro.engine.distributed.server import DistributedServer
from repro.engine.distributed.worker import CoordinatorClient, dispatch_job
from repro.experiments import ablations

SEED = 0
SRC_DIR = str(Path(repro.__file__).parents[1])


def _spawn_logged(argv, log: Path) -> subprocess.Popen:
    """Start ``python -m repro <argv>`` with stdout and stderr appended
    to ``log``, so a failing lane keeps the fleet's own account."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["PYTHONUNBUFFERED"] = "1"
    with open(log, "ab") as handle:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            env=env, stdout=handle, stderr=subprocess.STDOUT,
        )


def _spawn_worker(url: str, log: Path) -> subprocess.Popen:
    return _spawn_logged(
        ["worker", "--connect", url, "--poll", "0.05",
         "--max-idle", "300", "--lease-batch", "2"], log,
    )


def _fleet_run(specs, n_workers: int, log_dir: Path):
    """One cold dispatched run: elapsed seconds, tables, fleet stats."""
    server = DistributedServer(MemoryBackend(), Coordinator()).start()
    client = CoordinatorClient(server.url)
    workers = [_spawn_worker(server.url,
                             log_dir / f"worker-{n_workers}-{n}.log")
               for n in range(n_workers)]
    try:
        start = time.perf_counter()
        landed = list(dispatch_job(
            client, [spec.to_payload() for spec in specs],
            scale=specs[0].scale, seed=SEED, poll=0.05,
        ))
        elapsed = time.perf_counter() - start
        stats = client.status()["stats"]
        # Assemble the tables exactly as `repro bench --dispatch` does:
        # a local replay against the fleet's shared cache.
        replay = Engine(backend=HTTPBackend(server.url))
        results = ablations.run(specs[0].scale, SEED, engine=replay)
        assert replay.stats.simulations == 0       # pure cache replay
        assert replay.stats.traces_computed == 0
    finally:
        client.shutdown()
        for worker in workers:
            worker.wait(timeout=30)
        server.stop()
    assert len(landed) == len(specs)
    return elapsed, results, stats


def test_dispatch_lane_matches_golden_and_scales(scale, tmp_path):
    specs = ablations.specs(scale, SEED)
    golden = [
        result_payload(result)
        for result in ablations.run(scale, SEED, engine=Engine(jobs=2))
    ]

    one_worker, results_one, stats_one = _fleet_run(specs, 1, tmp_path)
    two_workers, results_two, stats_two = _fleet_run(specs, 2, tmp_path)

    # Byte-identical to the unsharded golden run, for both fleet sizes.
    for results in (results_one, results_two):
        payloads = [result_payload(result) for result in results]
        assert json.dumps(payloads, sort_keys=True) \
            == json.dumps(golden, sort_keys=True)

    # Every functional trace computed exactly once across the fleet.
    distinct_traces = len({spec.trace_key() for spec in specs})
    for stats in (stats_one, stats_two):
        assert stats["traces_computed"] == distinct_traces
        assert stats["requeues"] == 0

    for result in results_two:
        print(result.to_table())
        print()
    print(f"1 worker: {one_worker:.2f}s, 2 workers: {two_workers:.2f}s")

    # Work stealing only buys wall clock when there is hardware to
    # steal onto; on a single-core host the claim is untestable, and on
    # exactly two cores the worker subprocesses contend with the server
    # and the test runner, so the comparison is noise.
    if (os.cpu_count() or 1) < 3:
        pytest.skip("speedup assertion needs >= 3 CPUs")
    assert two_workers < 0.9 * one_worker, (
        f"2-worker dispatch ({two_workers:.2f}s) did not beat 1 worker "
        f"({one_worker:.2f}s) by the 10% margin at scale {scale!r}"
    )


def _spawn_durable_serve(port: int, state_dir: Path) -> subprocess.Popen:
    return _spawn_logged(
        ["serve", "--port", str(port),
         "--state-dir", str(state_dir / "queue"),
         "--cache-dir", str(state_dir / "cache")],
        state_dir / "serve.log",
    )


def _fleet_evidence(state_dir: Path, **processes) -> str:
    """The last lines of every fleet log, each process's exit status,
    and the journal directory listing — what a stalled lane leaves."""
    parts = [f"{name}: " + ("not running" if process is None
                            else "running" if process.poll() is None
                            else f"exited {process.returncode}")
             for name, process in processes.items()]
    for log in sorted(state_dir.glob("*.log")):
        tail = log.read_text(encoding="utf-8",
                             errors="replace").splitlines()[-40:]
        parts.append(f"--- last {len(tail)} lines of {log.name} ---")
        parts.extend(tail)
    parts.append("--- state dir ---")
    parts.extend(f"{path.relative_to(state_dir)} {path.stat().st_size} B"
                 for path in sorted((state_dir / "queue").rglob("*"))
                 if path.is_file())
    return "\n".join(parts)


def test_dispatch_lane_survives_a_server_restart(scale, tmp_path):
    """The dispatched lane with a serve crash in the middle.

    A durable (``--state-dir``) coordinator is SIGKILLed after the
    first result lands and restarted on the same port; the worker
    process and the dispatch client ride the outage out on reconnect
    backoff, the journal replays the job, and the assembled results
    are still byte-identical to the unsharded golden run.
    """
    import socket

    from repro.engine.distributed.backend import HTTPBackend
    from repro.errors import DistributedError

    specs = ablations.specs(scale, SEED)
    golden = [
        result_payload(result)
        for result in ablations.run(scale, SEED, engine=Engine(jobs=2))
    ]
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    url = f"http://127.0.0.1:{port}"

    def start_serve() -> subprocess.Popen:
        """Spawn the durable serve and wait until it answers /health.

        The probed port is free between the probe and the serve's bind
        (and again across the kill), so a short-lived client socket may
        hold it for a moment; a serve that exits before answering is
        started again on the same port until the deadline.
        """
        deadline = time.monotonic() + 30.0
        process = _spawn_durable_serve(port, tmp_path)
        while True:
            try:
                HTTPBackend(url).health()
                return process
            except DistributedError:
                if time.monotonic() >= deadline:
                    process.kill()
                    process.wait(timeout=30)
                    raise
                if process.poll() is not None:
                    process = _spawn_durable_serve(port, tmp_path)
                time.sleep(0.05)

    server = None
    worker = None
    client = CoordinatorClient(url)
    try:
        server = start_serve()
        worker = _spawn_worker(url, tmp_path / "worker.log")
        restarted = False
        start = time.perf_counter()
        landed = []
        for index, payload in dispatch_job(
                client, [spec.to_payload() for spec in specs],
                scale=scale, seed=SEED, poll=0.05,
                stall_timeout=120.0, reconnect=60.0):
            landed.append((index, payload))
            if not restarted:
                restarted = True
                server.kill()
                server.wait(timeout=30)
                server = None
                server = start_serve()
        elapsed = time.perf_counter() - start
        assert sorted(index for index, _payload in landed) \
            == list(range(len(specs)))
        # Byte-identical across the crash: replay the report assembly
        # against the fleet's (disk-backed, restart-surviving) cache.
        replay = Engine(backend=HTTPBackend(url))
        results = ablations.run(scale, SEED, engine=replay)
        assert replay.stats.simulations == 0
        payloads = [result_payload(result) for result in results]
        assert json.dumps(payloads, sort_keys=True) \
            == json.dumps(golden, sort_keys=True)
        print(f"restart-mid-dispatch lane: {len(specs)} specs across "
              f"one SIGKILL + journal replay in {elapsed:.2f}s")
    except Exception as error:
        evidence = _fleet_evidence(tmp_path, serve=server, worker=worker)
        raise AssertionError(f"{error}\n{evidence}") from error
    finally:
        import contextlib

        with contextlib.suppress(DistributedError):
            client.shutdown()
        if worker is not None:
            worker.wait(timeout=60)
        if server is not None:
            server.kill()
            server.wait(timeout=30)
