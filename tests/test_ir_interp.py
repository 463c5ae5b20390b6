"""Unit + property tests for the functional interpreter.

The compiled engine (one generated Python function per kernel) is
cross-checked against the walking engine (op-by-op, the oracle) on every
workload of the suite, on randomly generated kernels over int and float
arrays, and on a kernel nested deeper than the compiler inlines.  The
error-parity tests run on both engines: each check must fire with the same
message at the same point.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InterpreterError
from repro.ir.builder import KernelBuilder
from repro.ir.cfg import Halt
from repro.ir.interp import Interpreter
from repro.workloads.suite import ALL_WORKLOADS

from test_ir_trace import assert_count_laws


def _entry_and_exit(cdfg):
    """The block every run starts in and the one it halts in."""
    (halt,) = [b.block_id for b in cdfg.blocks
               if isinstance(b.terminator, Halt)]
    return cdfg.entry, halt


class TestBasics:
    def test_missing_param_raises(self, saxpy_kernel):
        with pytest.raises(InterpreterError, match="missing parameters"):
            Interpreter(saxpy_kernel).run(
                {"x": np.zeros(4), "y": np.zeros(4)}
            )

    def test_missing_array_raises(self, saxpy_kernel):
        with pytest.raises(InterpreterError, match="missing array"):
            Interpreter(saxpy_kernel).run({"x": np.zeros(4)}, {"n": 4})

    def test_non_1d_array_rejected(self, saxpy_kernel):
        with pytest.raises(InterpreterError, match="1-D"):
            Interpreter(saxpy_kernel).run(
                {"x": np.zeros((2, 2)), "y": np.zeros(4)}, {"n": 4}
            )

    def test_memory_is_copied(self, saxpy_kernel):
        x = np.ones(4, dtype=np.int64)
        y = np.ones(4, dtype=np.int64)
        Interpreter(saxpy_kernel).run({"x": x, "y": y}, {"n": 4})
        assert list(y) == [1, 1, 1, 1]  # caller's array untouched

    def test_out_of_bounds_load(self, saxpy_kernel):
        with pytest.raises(InterpreterError, match="out-of-bounds"):
            Interpreter(saxpy_kernel).run(
                {"x": np.zeros(2), "y": np.zeros(2)}, {"n": 5}
            )

    def test_max_steps_guard(self):
        k = KernelBuilder("spin")
        k.set("x", 1)
        with k.while_(lambda: k.get("x") > 0):
            k.set("x", k.get("x") + 1)
        with pytest.raises(InterpreterError, match="exceeded"):
            Interpreter(k.build()).run({}, max_steps=100)

    def test_unknown_engine(self, saxpy_kernel):
        with pytest.raises(InterpreterError):
            Interpreter(saxpy_kernel, engine="quantum")

    def test_result_exposes_env_and_steps(self, saxpy_kernel):
        result = Interpreter(saxpy_kernel).run(
            {"x": np.arange(3), "y": np.zeros(3)}, {"n": 3}
        )
        assert result.env["i"] == 3
        assert result.steps == result.trace.total_block_execs


class TestTrace:
    def test_trace_counts_match(self, imperfect_kernel, spmv_inputs):
        memory, params, expected = spmv_inputs
        result = Interpreter(imperfect_kernel).run(memory, params)
        assert_count_laws(result.trace, *_entry_and_exit(imperfect_kernel))
        assert np.array_equal(result.array("out"), expected)
        # Outer loop body executes once per row.
        bodies = [
            b.block_id for b in imperfect_kernel.blocks
            if b.name == "loop_i1_body"
        ]
        assert result.trace.execs_of(bodies[0]) == 4

    def test_edge_counts_sum_to_transitions(self, branchy_kernel):
        result = Interpreter(branchy_kernel).run(
            {"a": np.arange(8), "b": np.arange(8)[::-1].copy(),
             "o": np.zeros(8)}, {"n": 8},
        )
        trace = result.trace
        assert sum(trace.edge_counts.values()) == result.steps - 1
        assert_count_laws(trace, *_entry_and_exit(branchy_kernel))


ENGINES = ("compiled", "walking")

INT_DTYPES = (np.int32, np.int64)
FLOAT_DTYPES = (np.float32, np.float64)


def _outcome(cdfg, engine, memory, params):
    """The run's result, or the ``(type, message)`` of what it raised."""
    try:
        return Interpreter(cdfg, engine=engine).run(memory, params)
    except Exception as exc:  # noqa: BLE001 - both engines must agree
        return type(exc), str(exc)


def assert_same_run(compiled, walking):
    """Identical memory (values and dtypes), env, steps and trace."""
    assert compiled.memory.keys() == walking.memory.keys()
    for name, expected in walking.memory.items():
        actual = compiled.memory[name]
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected, equal_nan=True), name
    assert compiled.env == walking.env
    assert compiled.steps == walking.steps
    assert compiled.trace.exec_counts == walking.trace.exec_counts
    assert compiled.trace.edge_counts == walking.trace.edge_counts


def assert_engines_agree(cdfg, memory, params):
    compiled, walking = (_outcome(cdfg, engine, memory, params)
                         for engine in ENGINES)
    if isinstance(walking, tuple):
        assert compiled == walking
    else:
        assert not isinstance(compiled, tuple), compiled
        assert_same_run(compiled, walking)
        assert_count_laws(compiled.trace, *_entry_and_exit(cdfg))


@st.composite
def random_kernel_and_memory(draw):
    """A random kernel over int and float arrays of drawn dtypes.

    An outer loop chains straight-line ops, C-style div/mod, nonlinear
    ops, if/else joins, then-only branches and a nested loop, and stores
    the result into an int and a float array, so float values are also
    stored into int arrays (numpy's truncating cast).
    """
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**16))
    k = KernelBuilder("fuzz")
    size = k.param("n")
    for name in ("a", "f", "o", "g"):
        k.array(name)
    ops = draw(st.lists(
        st.sampled_from(["add", "mul", "sub", "min", "max", "branch", "if",
                         "div", "mod", "float", "sin", "sqrt", "nest"]),
        min_size=1, max_size=6,
    ))
    with k.loop("i", 0, size) as i:
        value = k.load("a", i)
        for op in ops:
            if op == "add":
                value = value + 3
            elif op == "mul":
                value = value * 2
            elif op == "sub":
                value = value - 1
            elif op == "min":
                value = k.minimum(value, 100)
            elif op == "max":
                value = k.maximum(value, -100)
            elif op == "div":
                value = value // -3
            elif op == "mod":
                value = value % 7
            elif op == "float":
                value = value + k.load("f", i)
            elif op == "sin":
                value = k.sin(value) * 40
            elif op == "sqrt":
                value = k.sqrt(k.absolute(value))
            elif op == "branch":
                with k.branch(value > 10) as br:
                    k.set("t", value - 10)
                with br.orelse():
                    k.set("t", value)
                value = k.get("t")
            elif op == "if":
                k.set("u", value)
                with k.if_(value < 0):
                    k.set("u", -value)
                value = k.get("u")
            else:
                k.set("acc", value)
                with k.loop("j", 0, i + 1) as j:
                    k.set("acc", k.get("acc") + j)
                value = k.get("acc")
        k.store("o", i, value)
        k.store("g", i, value)
    cdfg = k.build()
    rng = np.random.default_rng(seed)
    memory = {
        # uint16 and float16 have no exact memoryview: read through numpy.
        "a": rng.integers(-50, 50, n).astype(
            draw(st.sampled_from(INT_DTYPES + (np.uint16,)))),
        "f": rng.uniform(-5, 5, n).astype(
            draw(st.sampled_from(FLOAT_DTYPES + (np.float16,)))),
        "o": np.zeros(n, dtype=draw(st.sampled_from(INT_DTYPES))),
        "g": np.zeros(n, dtype=draw(st.sampled_from(FLOAT_DTYPES))),
    }
    return cdfg, memory, {"n": n}


def _deep_kernel(depth):
    """``depth`` branches nested in one another inside a loop."""
    k = KernelBuilder("deep")
    n = k.param("n")
    k.array("a")
    k.array("o")
    with k.loop("i", 0, n) as i:
        k.set("x", k.load("a", i))
        k.set("d", 0)
        with contextlib.ExitStack() as scopes:
            for level in range(depth):
                scopes.enter_context(k.branch(k.get("x") > level))
                k.set("d", level + 1)
        k.store("o", i, k.get("d"))
    return k.build()


class TestEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(random_kernel_and_memory())
    def test_compiled_matches_walking(self, case):
        cdfg, memory, params = case
        assert_engines_agree(cdfg, memory, params)

    @pytest.mark.parametrize(
        "workload", ALL_WORKLOADS, ids=[w.name for w in ALL_WORKLOADS]
    )
    def test_every_workload_matches_walking(self, workload):
        instance = workload.instance("tiny")
        compiled, walking = (
            Interpreter(instance.cdfg, engine=engine).run(
                instance.memory, instance.params)
            for engine in ENGINES
        )
        assert_same_run(compiled, walking)

    # 120 levels would pass CPython's 100-level indentation limit if every
    # arm were inlined; the compiler dispatches arms past its cap instead.
    @pytest.mark.parametrize("depth", [60, 120])
    def test_deeply_nested_branches(self, depth):
        cdfg = _deep_kernel(depth)
        values = [0, 1, depth // 2, depth - 1, depth, depth + 9]
        memory = {"a": np.array(values), "o": np.zeros(6, dtype=np.int64)}
        result = Interpreter(cdfg).run(memory, {"n": 6})
        assert list(result.array("o")) == [
            0, 1, depth // 2, depth - 1, depth, depth]
        assert_engines_agree(cdfg, memory, {"n": 6})


def _store_kernel(value):
    k = KernelBuilder("poke")
    k.array("o")
    k.store("o", 1, value)
    return k.build()


@pytest.mark.parametrize("engine", ENGINES)
class TestErrorParity:
    """Every check fires with the same message on both engines."""

    def test_out_of_bounds_load(self, engine, saxpy_kernel):
        with pytest.raises(
            InterpreterError,
            match=r"^saxpy/loop_i1_body: out-of-bounds access x\[2\]$",
        ):
            Interpreter(saxpy_kernel, engine=engine).run(
                {"x": np.zeros(2), "y": np.zeros(5)}, {"n": 5}
            )

    def test_out_of_bounds_store(self, engine, saxpy_kernel):
        with pytest.raises(
            InterpreterError,
            match=r"^saxpy/loop_i1_body: out-of-bounds access y\[3\]$",
        ):
            Interpreter(saxpy_kernel, engine=engine).run(
                {"x": np.zeros(5), "y": np.zeros(3)}, {"n": 5}
            )

    def test_negative_index(self, engine):
        k = KernelBuilder("neg")
        k.array("o")
        k.store("o", k.const(-1), 7)
        with pytest.raises(InterpreterError,
                           match=r"^neg/entry: out-of-bounds access o\[-1\]$"):
            Interpreter(k.build(), engine=engine).run({"o": np.zeros(2)})

    def test_read_of_never_assigned_variable(self, engine):
        k = KernelBuilder("ghostly")
        k.array("o")
        k.store("o", 0, k.get("ghost"))
        with pytest.raises(
            InterpreterError,
            match=r"^ghostly/entry: variable 'ghost' read before assignment$",
        ):
            Interpreter(k.build(), engine=engine).run({"o": np.zeros(1)})

    def test_read_of_variable_assigned_on_one_path(self, engine):
        k = KernelBuilder("late")
        n = k.param("n")
        k.array("o")
        with k.branch(n > 0):
            k.set("v", 5)
        k.store("o", 0, k.get("v"))
        cdfg = k.build()
        # Assigned on the taken path: no error.
        result = Interpreter(cdfg, engine=engine).run(
            {"o": np.zeros(1)}, {"n": 1})
        assert result.array("o")[0] == 5
        with pytest.raises(
            InterpreterError,
            match=r"^late/br1_merge: variable 'v' read before assignment$",
        ):
            Interpreter(cdfg, engine=engine).run({"o": np.zeros(1)}, {"n": 0})

    def test_extra_param_counts_as_assigned(self, engine):
        k = KernelBuilder("implicit")
        k.array("o")
        k.store("o", 0, k.get("seeded"))
        result = Interpreter(k.build(), engine=engine).run(
            {"o": np.zeros(1)}, {"seeded": 4})
        assert result.array("o")[0] == 4
        assert result.env == {"seeded": 4}

    def test_max_steps_is_exact(self, engine, branchy_kernel):
        memory = {"a": np.arange(6), "b": np.arange(6)[::-1].copy(),
                  "o": np.zeros(6)}
        interp = Interpreter(branchy_kernel, engine=engine)
        steps = interp.run(memory, {"n": 6}).steps
        assert interp.run(memory, {"n": 6}, max_steps=steps).steps == steps
        with pytest.raises(
            InterpreterError,
            match=rf"^kernel 'absdiff' exceeded {steps - 1} block executions",
        ):
            interp.run(memory, {"n": 6}, max_steps=steps - 1)

    @pytest.mark.parametrize("dtype, value", [
        (np.int64, 2**63), (np.int64, -(2**63) - 1), (np.int32, 2**31),
    ])
    def test_out_of_range_int_store_overflows(self, engine, dtype, value):
        with pytest.raises(OverflowError):
            Interpreter(_store_kernel(value), engine=engine).run(
                {"o": np.zeros(2, dtype=dtype)})

    @pytest.mark.parametrize("dtype", INT_DTYPES)
    def test_float_store_into_int_array_truncates(self, engine, dtype):
        result = Interpreter(_store_kernel(-2.75), engine=engine).run(
            {"o": np.zeros(2, dtype=dtype)})
        assert result.array("o").dtype == dtype
        assert list(result.array("o")) == [0, -2]

    def test_float32_store_overflow_warns_like_numpy(self, engine):
        with pytest.warns(RuntimeWarning, match="overflow"):
            result = Interpreter(_store_kernel(1e40), engine=engine).run(
                {"o": np.zeros(2, dtype=np.float32)})
        assert result.array("o")[1] == np.inf
