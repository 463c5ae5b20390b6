"""Failure injection and error-path tests across the stack."""

import numpy as np
import pytest

from repro.errors import ReproError, SimulationError
from repro.arch.params import ArchParams
from repro.compiler.config_gen import generate_program
from repro.ir.builder import KernelBuilder
from repro.sim.array import ArraySimulator
from repro.workloads import get_workload


def _tiny_program(params):
    k = KernelBuilder("tiny")
    n = k.param("n")
    k.array("x")
    k.array("o")
    with k.loop("i", 0, n) as i:
        k.store("o", i, k.load("x", i) + 1)
    return generate_program(
        k.build(), params, param_values={"n": 4},
        array_lengths={"x": 4, "o": 4},
    )


class TestArraySimulatorErrors:
    def test_unknown_array_load(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        with pytest.raises(SimulationError, match="not in program table"):
            sim.load_array("nonexistent", [1, 2, 3])

    def test_oversized_array_image(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        with pytest.raises(SimulationError, match="exceed"):
            sim.load_array("x", list(range(99)))

    def test_array_out_unknown_name(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        sim.load_array("x", [1, 2, 3, 4])
        result = sim.run(halt_messages=999)
        with pytest.raises(SimulationError) as excinfo:
            result.array_out(program, "nope")
        # The error names the array and lists what *is* declared.
        message = str(excinfo.value)
        assert "'nope'" in message
        assert "available" in message
        assert "x" in message and "o" in message

    def test_max_cycles_cutoff(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        sim.load_array("x", [1, 2, 3, 4])
        result = sim.run(max_cycles=3, halt_messages=1)
        assert result.cycles == 3
        assert not result.halted

    def test_quiescence_without_halt_message(self, params):
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        sim.load_array("x", [5, 6, 7, 8])
        result = sim.run(halt_messages=999)  # never reached
        assert not result.halted              # quiesced instead
        assert list(result.array_out(program, "o")) == [6, 7, 8, 9]

    def test_small_control_fifo_still_correct(self):
        params = ArchParams(control_fifo_depth=1)
        program = _tiny_program(params)
        sim = ArraySimulator(params, program)
        sim.load_array("x", [1, 2, 3, 4])
        result = sim.run(halt_messages=999)
        assert list(result.array_out(program, "o")) == [2, 3, 4, 5]


class TestWorkloadCheckCatchesCorruption:
    def test_corrupted_expected_output_detected(self):
        instance = get_workload("gray").instance("tiny")
        instance.expected["gray"] = instance.expected["gray"] + 1
        with pytest.raises(ReproError, match="mismatches reference"):
            instance.check()

    def test_corrupted_float_output_detected(self):
        instance = get_workload("sigmoid").instance("tiny")
        instance.expected["y"] = instance.expected["y"] * 1.5
        with pytest.raises(ReproError, match="mismatches reference"):
            instance.check()


class TestModelEdgeCases:
    def test_empty_kernel_models_do_not_crash(self):
        from repro.baselines import MarionetteModel
        from repro.baselines.base import KernelInstance
        from repro.ir.interp import Interpreter

        k = KernelBuilder("empty")
        cdfg = k.build()
        result = Interpreter(cdfg).run({}, {})
        kernel = KernelInstance(cdfg, result.trace)
        model_result = MarionetteModel(ArchParams()).simulate(kernel)
        assert model_result.cycles >= 1
        assert model_result.breakdowns == []

    def test_speedup_over(self):
        from repro.baselines import IdealModel, VonNeumannModel
        from repro.baselines.base import KernelInstance

        instance = get_workload("gemm").instance("tiny")
        kernel = KernelInstance(instance.cdfg, instance.run().trace)
        params = ArchParams()
        fast = IdealModel(params).simulate(kernel)
        slow = VonNeumannModel(params).simulate(kernel)
        assert fast.speedup_over(slow) >= 1.0
        assert slow.speedup_over(fast) <= 1.0


# ----------------------------------------------------------------------
# Coordinator crash recovery (kill -9 a durable serve, replay the
# journal, drive the lease/ack protocol by hand across the boundary)
# ----------------------------------------------------------------------
class TestCoordinatorCrashRecovery:
    @staticmethod
    def _spawn_serve(port, state_dir):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src = str(Path(repro.__file__).parents[1])
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--port", str(port), "--state-dir", str(state_dir)],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    @staticmethod
    def _wait_healthy(url, timeout=30.0):
        import time

        from repro.engine.distributed.backend import HTTPBackend
        from repro.errors import DistributedError

        deadline = time.monotonic() + timeout
        while True:
            try:
                return HTTPBackend(url).health()
            except DistributedError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def test_kill_dash_nine_mid_job_replays_to_a_live_table(
            self, tmp_path):
        """The full crash story over real HTTP and a real SIGKILL.

        Acked results survive; the half-done job's remaining task
        re-leases on the restarted server; the dead process's lease
        token bounces as stale — exactly-once across the boundary.
        """
        import contextlib
        import signal
        import socket

        from repro.arch.params import DEFAULT_PARAMS
        from repro.engine import ModelSpec, RunSpec
        from repro.engine.distributed.worker import CoordinatorClient

        # Two geometries: one trace, two sim cohorts.
        specs = [
            RunSpec("gemm", "tiny", 0, ModelSpec.make("von_neumann"),
                    params).to_payload()
            for params in (DEFAULT_PARAMS, DEFAULT_PARAMS.scaled(8, 8))
        ]
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        url = f"http://127.0.0.1:{port}"
        proc = self._spawn_serve(port, tmp_path)
        try:
            self._wait_healthy(url)
            client = CoordinatorClient(url)
            job = client.submit(specs, scale="tiny", seed=0)["job"]
            # Hand-drive the protocol: trace done, one sim done, one
            # sim leased-but-never-acked when the server dies.
            trace = client.lease("w")["tasks"][0]
            assert trace["task"]["kind"] == "trace"
            assert client.ack(trace["id"], trace["lease"],
                              computed=True)
            first_sim = client.lease("w")["tasks"][0]
            assert client.ack(first_sim["id"], first_sim["lease"],
                              result={"results": [{"cycles": 41}]})
            doomed = client.lease("w")["tasks"][0]

            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            proc = self._spawn_serve(port, tmp_path)
            self._wait_healthy(url)

            # Acked results are still pollable at their old cursor.
            batch = client.results_since(job, 0)
            assert batch["results"] \
                == [[first_sim["task"]["indices"][0], {"cycles": 41}]]
            assert not batch["done"]
            # The dead process's lease was not restored: its token is
            # stale, and the task re-leases with a fresh one.
            assert not client.ack(doomed["id"], doomed["lease"],
                                  result={"results": [{"cycles": 666}]})
            retry = client.lease("w2")["tasks"][0]
            assert retry["id"] == doomed["id"]
            assert retry["lease"] != doomed["lease"]
            assert client.ack(retry["id"], retry["lease"],
                              result={"results": [{"cycles": 42}]})
            final = client.results_since(job, 0)
            assert final["done"]
            assert sorted(
                (index, payload["cycles"])
                for index, payload in final["results"]
            ) == [(0, 41), (1, 42)] or sorted(
                (index, payload["cycles"])
                for index, payload in final["results"]
            ) == [(0, 42), (1, 41)]
        finally:
            with contextlib.suppress(ProcessLookupError):
                proc.kill()
            proc.wait(timeout=30)

    def test_journal_compaction_under_concurrent_submits(self,
                                                         tmp_path):
        """Many threads submit and ack against a tiny journal budget:
        compaction (snapshot + truncate) must never lose a transition,
        and the journal must stay bounded by the table, not history."""
        import threading

        from repro.arch.params import DEFAULT_PARAMS
        from repro.engine import ModelSpec, RunSpec
        from repro.engine.distributed.coordinator import Coordinator
        from repro.engine.distributed.journal import JobJournal

        spec = RunSpec("gemm", "tiny", 0,
                       ModelSpec.make("von_neumann"),
                       DEFAULT_PARAMS).to_payload()
        journal = JobJournal(tmp_path, max_bytes=2048)
        coordinator = Coordinator(journal=journal)
        jobs, errors = [], []
        lock = threading.Lock()

        def driver(worker):
            try:
                for _round in range(5):
                    job = coordinator.submit([dict(spec)],
                                             scale="tiny",
                                             seed=0)["job"]
                    with lock:
                        jobs.append(job)
                    while True:
                        grant = coordinator.lease(worker)
                        if grant == {"wait": True}:
                            break
                        if grant["task"]["kind"] == "trace":
                            coordinator.ack(grant["id"],
                                            grant["lease"],
                                            computed=True)
                        else:
                            coordinator.ack(grant["id"],
                                            grant["lease"],
                                            result={"results": [
                                                {"cycles": 9}]})
            except Exception as error:   # noqa: BLE001 - recorded
                errors.append(error)

        threads = [threading.Thread(target=driver, args=(f"w{n}",))
                   for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        # Workers race for leases, so any driver may finish any job;
        # what matters is that every job completed and survives replay.
        resumed, summary = Coordinator.resume(journal)
        assert summary["jobs"] == len(jobs) == 20
        assert summary["active"] == 0
        for job in jobs:
            batch = resumed.results_since(job, 0)
            assert batch["done"] and not batch["failed"]
            assert [index for index, _payload in batch["results"]] \
                == [0]
        # Bounded: one compacted snapshot, not 20 jobs of history.
        assert journal.path.stat().st_size < 10 * 2048
