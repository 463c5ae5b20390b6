"""Functional interpreter for CDFGs, with dynamic trace capture.

Two execution engines share one semantics:

* the **compiled** engine translates a whole CDFG into one generated Python
  function, once per CDFG object — fast enough to run the paper-sized
  workloads of Table 5.  Program variables live in Python locals, arrays
  are read through ``memoryview`` s of the copied numpy arrays, a block with
  a single incoming edge is emitted inline after that edge, and only the
  remaining blocks (the entry and control-flow joins) go through a ``_b``
  dispatch.  Each static CFG edge bumps its own local counter; the trace's
  edge counts are those counters and its block counts are the in-edge sums
  plus the entry block;
* the **walking** engine dispatches on :mod:`repro.ir.ops` evaluate
  functions node by node — slow, but independent, and used by tests as the
  oracle for the compiled engine.

Both engines execute blocks in node-creation order (a topological order that
equals program order), apply live-out bindings to the environment at block
end, and follow terminators until ``Halt``.  They raise the same errors at
the same points: missing inputs, out-of-bounds accesses, a variable read
before assignment, and the ``max_steps`` block budget.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.errors import InterpreterError
from repro.ir.cdfg import CDFG
from repro.ir.cfg import BasicBlock, BlockId, Branch, Jump
from repro.ir.ops import Opcode, op_info
from repro.ir.trace import DynamicTrace

#: opcodes inlined as Python operators by the kernel compiler
_INLINE_BINOPS = {
    Opcode.ADD: "+",
    Opcode.SUB: "-",
    Opcode.MUL: "*",
    Opcode.LT: "<",
    Opcode.LE: "<=",
    Opcode.GT: ">",
    Opcode.GE: ">=",
    Opcode.EQ: "==",
    Opcode.NE: "!=",
}

_COMPARE_OPS = {Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE,
                Opcode.EQ, Opcode.NE}

#: Branch-arm inlining depth cap.  Every inlined arm indents the generated
#: source one level and CPython's tokenizer allows 100; deeper arms are
#: dispatched through ``_b`` like join blocks.
_MAX_INLINE_DEPTH = 48

#: dtypes whose ``memoryview`` reads return exactly ``array[i].item()``
_VIEW_LOADS = frozenset(
    np.dtype(t) for t in (np.int32, np.int64, np.float32, np.float64)
)
#: dtypes whose ``memoryview`` stores either match numpy's assignment cast
#: or raise one of :data:`_VIEW_STORE_ERRORS`, after which the numpy store
#: is replayed for numpy's own result or error.  ``float32`` is absent:
#: numpy warns when a cast overflows to infinity and a view does not.
_VIEW_STORES = frozenset(np.dtype(t) for t in (np.int32, np.int64, np.float64))
_VIEW_STORE_ERRORS = (TypeError, ValueError, OverflowError)


@dataclass
class ExecutionResult:
    """Outcome of a kernel interpretation."""

    memory: Dict[str, np.ndarray]
    env: Dict[str, float]
    trace: DynamicTrace
    steps: int

    def array(self, name: str) -> np.ndarray:
        return self.memory[name]


def _oob(kernel: str, block: str, array: str, index: int) -> None:
    raise InterpreterError(
        f"{kernel}/{block}: out-of-bounds access {array}[{index}]"
    )


def _unbound(kernel: str, block: str, var: str) -> None:
    raise InterpreterError(
        f"{kernel}/{block}: variable {var!r} read before assignment"
    )


def _over_budget(kernel: str, max_steps: int) -> None:
    raise InterpreterError(
        f"kernel {kernel!r} exceeded {max_steps} block executions; "
        "non-terminating?"
    )


#: Value of a compiled-kernel local whose variable is unassigned
_UNSET = object()


class _ItemView:
    """Python-scalar reads of an array whose dtype has no exact view."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array

    def __getitem__(self, index: int):
        return self.array[index].item()


def _views(array: np.ndarray) -> Tuple[object, object]:
    """``(load, store)`` subscript targets for a compiled kernel's array."""
    view = memoryview(array) if array.dtype in _VIEW_LOADS else None
    load = view if view is not None else _ItemView(array)
    store = view if array.dtype in _VIEW_STORES else array
    return load, store


class _KernelSource:
    """Generates the source of one CDFG's compiled function.

    ``_kernel(env, mem, max_steps)`` runs the kernel against ``env`` (read
    on entry, written back on exit) and ``mem`` and returns one taken
    count per edge of :attr:`edges`.
    """

    def __init__(self, cdfg: CDFG) -> None:
        self.cdfg = cdfg
        self.kernel = cdfg.name
        self.namespace: Dict[str, object] = {
            "_oob": _oob,
            "_unbound": _unbound,
            "_over_budget": _over_budget,
            "_views": _views,
            "_UNSET": _UNSET,
            "_VIEW_STORE_ERRORS": _VIEW_STORE_ERRORS,
        }
        self.lines: List[str] = []

        blocks = cdfg.blocks
        #: the reachable blocks; no other block is emitted
        self.order = cdfg.cfg.reverse_postorder()
        #: one taken-count per reachable edge, sorted as the trace payload
        self.edges: List[Tuple[BlockId, BlockId]] = sorted({
            (bid, succ) for bid in self.order
            for succ in blocks[bid].successors()
        })
        self.counter = {edge: f"_e{k}" for k, edge in enumerate(self.edges)}
        self.defined = self._must_define()

        names: Set[str] = set(cdfg.params)
        arrays: Set[str] = set()
        for bid in self.order:
            block = blocks[bid]
            names.update(block.outputs)
            for node in block.dfg.nodes:
                if node.opcode is Opcode.INPUT:
                    names.add(node.var)
                elif node.array is not None:
                    arrays.add(node.array)
        self.vars = {var: f"x{k}" for k, var in enumerate(sorted(names))}
        self.arrays = {name: k for k, name in enumerate(sorted(arrays))}
        self.roots = self._dispatch_roots()

    # ------------------------------------------------------------------
    # Analyses
    # ------------------------------------------------------------------
    def _must_define(self) -> Dict[BlockId, Set[str]]:
        """Variables assigned on every path to each reachable block's
        entry; reads of any other variable are guarded at run time."""
        blocks = self.cdfg.blocks
        entry = self.cdfg.entry
        preds: Dict[BlockId, List[BlockId]] = {bid: [] for bid in self.order}
        universe: Set[str] = set(self.cdfg.params)
        for bid in self.order:
            universe.update(blocks[bid].outputs)
            for succ in blocks[bid].successors():
                preds[succ].append(bid)
        defined = {bid: set(universe) for bid in self.order}
        defined[entry] = set(self.cdfg.params)
        changed = True
        while changed:
            changed = False
            for bid in self.order:
                if bid == entry:
                    continue
                new = set.intersection(*(
                    defined[p] | blocks[p].outputs.keys() for p in preds[bid]
                ))
                if new != defined[bid]:
                    defined[bid] = new
                    changed = True
        return defined

    def _dispatch_roots(self) -> Set[BlockId]:
        """The entry, every block with other than one incoming arm, and
        every arm past the inlining depth cap."""
        blocks = self.cdfg.blocks
        arms: Dict[BlockId, int] = {}
        for bid in self.order:
            for succ in blocks[bid].successors():
                arms[succ] = arms.get(succ, 0) + 1
        roots = {self.cdfg.entry}
        roots.update(bid for bid, n in arms.items() if n != 1)
        pending = [(bid, 0) for bid in sorted(roots)]
        while pending:
            bid, depth = pending.pop()
            term = blocks[bid].terminator
            nested = depth + isinstance(term, Branch)
            for succ in blocks[bid].successors():
                if succ in roots:
                    continue
                if nested > _MAX_INLINE_DEPTH:
                    roots.add(succ)
                    pending.append((succ, 0))
                else:
                    pending.append((succ, nested))
        return roots

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self) -> str:
        """The complete source of ``_kernel``."""
        emit = self.lines.append
        emit("def _kernel(env, mem, max_steps):")
        emit("    _U = _UNSET")
        for var, local in self.vars.items():
            emit(f"    {local} = env.get({var!r}, _U)")
        for name, k in self.arrays.items():
            emit(f"    A{k} = mem[{name!r}]")
            emit(f"    L{k}, S{k} = _views(A{k})")
            emit(f"    n{k} = A{k}.shape[0]")
        for local in self.counter.values():
            emit(f"    {local} = 0")
        emit("    _s = max_steps")
        emit(f"    _b = {self.cdfg.entry}")
        emit("    while True:")
        self._emit_dispatch(sorted(self.roots), 2)
        for var, local in self.vars.items():
            emit(f"    if {local} is not _U: env[{var!r}] = {local}")
        counters = "".join(f"{c}, " for c in self.counter.values())
        emit(f"    return ({counters})")
        return "\n".join(self.lines) + "\n"

    def _emit_dispatch(self, roots: List[BlockId], indent: int) -> None:
        """A binary ``if`` tree on ``_b`` over the sorted dispatch roots."""
        if len(roots) == 1:
            self._emit_block(roots[0], indent)
            return
        mid = len(roots) // 2
        pad = "    " * indent
        self.lines.append(f"{pad}if _b < {roots[mid]}:")
        self._emit_dispatch(roots[:mid], indent + 1)
        self.lines.append(f"{pad}else:")
        self._emit_dispatch(roots[mid:], indent + 1)

    def _emit_block(self, bid: BlockId, indent: int) -> None:
        """``bid`` and the chain of blocks inlined after it."""
        while True:
            block = self.cdfg.blocks[bid]
            self._emit_body(block, indent)
            term = block.terminator
            pad = "    " * indent
            if isinstance(term, Jump):
                self.lines.append(
                    f"{pad}{self.counter[(bid, term.target)]} += 1"
                )
                if term.target in self.roots:
                    self._emit_goto(term.target, indent)
                    return
                bid = term.target
            elif isinstance(term, Branch):
                self.lines.append(f"{pad}if {self._value(block, term.cond)}:")
                self._emit_arm(bid, term.if_true, indent + 1)
                self.lines.append(f"{pad}else:")
                self._emit_arm(bid, term.if_false, indent + 1)
                return
            else:
                self.lines.append(f"{pad}break")
                return

    def _emit_arm(self, src: BlockId, dst: BlockId, indent: int) -> None:
        pad = "    " * indent
        self.lines.append(f"{pad}{self.counter[(src, dst)]} += 1")
        if dst in self.roots:
            self._emit_goto(dst, indent)
        else:
            self._emit_block(dst, indent)

    def _emit_goto(self, dst: BlockId, indent: int) -> None:
        pad = "    " * indent
        self.lines.append(f"{pad}_b = {dst}")
        self.lines.append(f"{pad}continue")

    def _value(self, block: BasicBlock, node_id: int) -> str:
        """The Python expression holding a node's value."""
        node = block.dfg.nodes[node_id]
        if node.opcode is Opcode.CONST:
            return self._literal(node.value)
        if node.opcode is Opcode.INPUT:
            return self.vars[node.var]
        return f"v{node_id}"

    def _literal(self, value: object) -> str:
        if type(value) in (int, bool) or (
                type(value) is float and math.isfinite(value)):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        name = f"_c{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def _emit_body(self, block: BasicBlock, indent: int) -> None:
        pad = "    " * indent
        lines = self.lines
        where = f"{self.kernel!r}, {block.name!r}"
        lines.append(f"{pad}_s -= 1")
        lines.append(
            f"{pad}if _s < 0: _over_budget({self.kernel!r}, max_steps)"
        )
        defined = self.defined[block.block_id]
        for node in block.dfg.nodes:
            v = f"v{node.node_id}"
            ops = [self._value(block, o) for o in node.operands]
            opcode = node.opcode
            if opcode is Opcode.CONST:
                continue
            if opcode is Opcode.INPUT:
                if node.var not in defined:
                    lines.append(
                        f"{pad}if {self.vars[node.var]} is _U: "
                        f"_unbound({where}, {node.var!r})"
                    )
                continue
            if opcode in (Opcode.LOAD, Opcode.STORE):
                k = self.arrays[node.array]
                lines.append(f"{pad}_i = int({ops[0]})")
                lines.append(
                    f"{pad}if not 0 <= _i < n{k}: "
                    f"_oob({where}, {node.array!r}, _i)"
                )
                if opcode is Opcode.LOAD:
                    lines.append(f"{pad}{v} = L{k}[_i]")
                else:
                    lines.append(f"{pad}try: S{k}[_i] = {ops[1]}")
                    lines.append(
                        f"{pad}except _VIEW_STORE_ERRORS: A{k}[_i] = {ops[1]}"
                    )
                continue
            if opcode in _COMPARE_OPS:
                expr = (f"1 if {ops[0]} {_INLINE_BINOPS[opcode]} {ops[1]} "
                        "else 0")
            elif opcode in _INLINE_BINOPS:
                expr = f"{ops[0]} {_INLINE_BINOPS[opcode]} {ops[1]}"
            elif opcode is Opcode.SELECT:
                expr = f"{ops[1]} if {ops[0]} else {ops[2]}"
            # ``min``/``max`` keep the first operand unless the second
            # compares strictly smaller/larger.
            elif opcode is Opcode.MIN:
                expr = f"{ops[1]} if {ops[1]} < {ops[0]} else {ops[0]}"
            elif opcode is Opcode.MAX:
                expr = f"{ops[1]} if {ops[1]} > {ops[0]} else {ops[0]}"
            elif opcode is Opcode.ABS:
                expr = f"abs({ops[0]})"
            elif opcode is Opcode.NEG:
                expr = f"-{ops[0]}"
            else:
                # Delegate to the canonical evaluate function so both
                # engines share one definition of the tricky semantics
                # (C-style div/mod, 32-bit logic, nonlinear ops).
                helper = f"_op_{opcode.value}"
                self.namespace[helper] = op_info(opcode).evaluate
                expr = f"{helper}({', '.join(ops)})"
            lines.append(f"{pad}{v} = {expr}")

        writes = [(self.vars[var], self._value(block, node_id))
                  for var, node_id in block.outputs.items()]
        writes = [(local, expr) for local, expr in writes if local != expr]
        targets = {local for local, _ in writes}
        if any(expr in targets for _, expr in writes):
            # A swap-like rebinding reads variables it also writes.
            lines.append(
                f"{pad}{', '.join(l for l, _ in writes)} = "
                f"{', '.join(e for _, e in writes)}"
            )
        else:
            lines.extend(f"{pad}{local} = {expr}" for local, expr in writes)


class _CompiledKernel:
    """One CDFG compiled to a single Python function."""

    def __init__(self, cdfg: CDFG) -> None:
        self.kernel = cdfg.name
        self.entry = cdfg.entry
        self.n_blocks = len(cdfg.blocks)
        source = _KernelSource(cdfg)
        self.edges = source.edges
        code = compile(source.emit(), f"<kernel {cdfg.name}>", "exec")
        exec(code, source.namespace)  # noqa: S102 - generated from trusted IR
        self.fn: Callable = source.namespace["_kernel"]

    def run(self, env: Dict[str, float], mem: Dict[str, np.ndarray],
            max_steps: int) -> Tuple[DynamicTrace, int]:
        counts = self.fn(env, mem, max_steps)
        execs = {self.entry: 1}
        edge_counts: Dict[Tuple[BlockId, BlockId], int] = {}
        for edge, n in zip(self.edges, counts):
            if n:
                edge_counts[edge] = n
                execs[edge[1]] = execs.get(edge[1], 0) + n
        trace = DynamicTrace(self.kernel)
        trace.exec_counts = dict(sorted(execs.items()))
        trace.edge_counts = edge_counts
        return trace, 1 + sum(counts)


#: Compiled kernels, cached per CDFG object across Interpreter instances.
#: Workload instances, repeated ``run()`` calls, and tests re-interpret the
#: same (immutable-after-build) CDFG many times; code generation is the
#: dominant setup cost, so pay it once.  Weak keys let a discarded kernel
#: free its compiled code.
_COMPILED_CACHE: "weakref.WeakKeyDictionary[CDFG, _CompiledKernel]" = (
    weakref.WeakKeyDictionary()
)


def _compiled_kernel(cdfg: CDFG) -> _CompiledKernel:
    kernel = _COMPILED_CACHE.get(cdfg)
    if kernel is None or kernel.n_blocks != len(cdfg.blocks):
        kernel = _CompiledKernel(cdfg)
        _COMPILED_CACHE[cdfg] = kernel
    return kernel


class Interpreter:
    """Executes a CDFG against concrete memory and parameters."""

    def __init__(self, cdfg: CDFG, *, engine: str = "compiled") -> None:
        if engine not in ("compiled", "walking"):
            raise InterpreterError(f"unknown engine {engine!r}")
        self.cdfg = cdfg
        self.engine = engine
        self._kernel: Optional[_CompiledKernel] = None
        if engine == "compiled":
            self._kernel = _compiled_kernel(cdfg)

    # ------------------------------------------------------------------
    def run(
        self,
        memory: Mapping[str, np.ndarray],
        params: Optional[Mapping[str, float]] = None,
        *,
        max_steps: int = 50_000_000,
    ) -> ExecutionResult:
        """Execute the kernel.

        Args:
            memory: array name -> 1-D numpy array; copied before execution.
            params: runtime scalar parameters (must cover ``cdfg.params``).
            max_steps: block-execution budget (guards non-termination).

        Returns:
            :class:`ExecutionResult` with final memory, environment, and
            the trace's per-block execution and per-edge transition counts.
        """
        params = dict(params or {})
        missing = [p for p in self.cdfg.params if p not in params]
        if missing:
            raise InterpreterError(
                f"kernel {self.cdfg.name!r} missing parameters: {missing}"
            )
        mem: Dict[str, np.ndarray] = {}
        for name in self.cdfg.arrays:
            if name not in memory:
                raise InterpreterError(
                    f"kernel {self.cdfg.name!r} missing array {name!r}"
                )
            array = np.asarray(memory[name])
            if array.ndim != 1:
                raise InterpreterError(
                    f"array {name!r} must be 1-D (got shape {array.shape})"
                )
            mem[name] = array.copy()

        env: Dict[str, float] = dict(params)
        if self._kernel is not None:
            trace, steps = self._kernel.run(env, mem, max_steps)
        else:
            trace, steps = self._walk(env, mem, max_steps)
        return ExecutionResult(mem, env, trace, steps)

    # ------------------------------------------------------------------
    def _walk(
        self,
        env: Dict[str, float],
        mem: Dict[str, np.ndarray],
        max_steps: int,
    ) -> Tuple[DynamicTrace, int]:
        """Reference (slow) engine: a block loop over :meth:`_walk_block`."""
        trace = DynamicTrace(self.cdfg.name)
        steps = 0
        bid: Optional[BlockId] = self.cdfg.entry
        blocks = self.cdfg.blocks
        while bid is not None:
            steps += 1
            if steps > max_steps:
                _over_budget(self.cdfg.name, max_steps)
            trace.record(bid)
            block = blocks[bid]
            cond = self._walk_block(block, env, mem)
            term = block.terminator
            if isinstance(term, Jump):
                bid = term.target
            elif isinstance(term, Branch):
                bid = term.if_true if cond else term.if_false
            else:
                bid = None
        return trace, steps

    def _walk_block(
        self,
        block: BasicBlock,
        env: Dict[str, float],
        mem: Dict[str, np.ndarray],
    ):
        """Per-node dispatch via op_info."""
        dfg = block.dfg
        vals: List[float] = [0] * len(dfg)
        for node in dfg.nodes:
            opcode = node.opcode
            if opcode is Opcode.CONST:
                vals[node.node_id] = node.value
            elif opcode is Opcode.INPUT:
                try:
                    vals[node.node_id] = env[node.var]
                except KeyError:
                    _unbound(self.cdfg.name, block.name, node.var)
            elif opcode is Opcode.LOAD:
                array = mem[node.array]
                idx = int(vals[node.operands[0]])
                if not 0 <= idx < array.shape[0]:
                    _oob(self.cdfg.name, block.name, node.array, idx)
                vals[node.node_id] = array[idx].item()
            elif opcode is Opcode.STORE:
                array = mem[node.array]
                idx = int(vals[node.operands[0]])
                if not 0 <= idx < array.shape[0]:
                    _oob(self.cdfg.name, block.name, node.array, idx)
                array[idx] = vals[node.operands[1]]
            else:
                fn = op_info(opcode).evaluate
                assert fn is not None
                vals[node.node_id] = fn(*(vals[o] for o in node.operands))
        for var, node_id in block.outputs.items():
            env[var] = vals[node_id]
        term = block.terminator
        if isinstance(term, Branch):
            return vals[term.cond]
        return None
