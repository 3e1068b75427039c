"""Layer spans for the traced benchmark run.

The traced run measures each layer from outside.  Before any machine or
server is built, :func:`install_sim` / :func:`install_serve` replace the
public boundary calls of every layer — at the class or module level, so
objects built afterwards (and the continuations they pre-bind) pick the
wrappers up — with timing wrappers that push a span on a per-thread
stack.  Nothing under ``src/`` changes; :meth:`SpanRecorder.uninstall`
restores every original.

Spans are aggregated in memory per layer: ``calls``, ``total_s`` (time
from entering the layer from a different one until leaving it, so
re-entrant calls are not double counted), ``self_s`` (span time minus the
time its child spans cover) and the layers it was called from.  Every
wrapped function also keeps its own call count, which is how the per-op
dispatch count is taken.  The wrappers only observe: simulated results,
and every count the simulator keeps, are identical with and without them
(the traced run checks this).

A wrapper costs well under a microsecond, but the simulator's boundaries
are crossed millions of times per pass, so that cost would pile up in
whichever layer makes the calls.  :meth:`SpanRecorder.calibrate`
measures the wrapper's cost inside a span and around it, and
:meth:`SpanRecorder.snapshot` subtracts it from each layer's self time
(``raw_self_s`` keeps the uncorrected figure), as deterministic
profilers do.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import time
from typing import Any, Callable

#: Name given to the caller of an outermost span: the benchmark itself.
HARNESS = "harness"

#: Simulator layers and the boundary calls that enter them.  Each entry is
#: ``(module, class, methods, layer)``.
SIM_BOUNDARIES: list[tuple[str, str, tuple[str, ...], str]] = [
    ("repro.sim.machine", "Machine", ("__init__",), "machine"),
    ("repro.sim.engine", "Simulator",
     ("run", "schedule", "schedule_at", "try_advance"), "engine"),
    # Engine-to-core continuations (pre-bound by Core.__init__) and the
    # per-op dispatch, whose call count is core.per_op_dispatches.
    ("repro.sim.core", "Core",
     ("start", "_begin_next", "_resume", "_retry", "_dispatch"), "core"),
    ("repro.ostruct.manager", "OStructureManager",
     ("load_version", "load_latest", "store_version", "lock_load_version",
      "lock_load_latest", "unlock_version", "add_waiter", "remove_waiter"),
     "manager"),
    ("repro.sim.hierarchy", "MemoryHierarchy",
     ("access", "write_no_fetch", "invalidate_everywhere"), "hierarchy"),
    # The fused interpreter probes the L1 and the directory directly.
    ("repro.sim.cache", "Cache", ("lookup", "contains", "mark_dirty"), "hierarchy"),
    ("repro.sim.coherence", "Directory", ("acquire_exclusive",), "hierarchy"),
    ("repro.ostruct.gc", "GarbageCollector",
     ("maybe_trigger", "register_shadowed", "start_phase", "emergency_collect",
      "reclaim_pending", "_on_task_end"), "gc"),
    ("repro.ostruct.free_list", "FreeList", ("allocate", "release"), "gc"),
]

#: Serving layers (installed inside the server process).
SERVE_BOUNDARIES: list[tuple[str, str, tuple[str, ...], str]] = [
    ("repro.serve.protocol", "FrameDecoder", ("feed",), "protocol"),
    ("repro.serve.store", "ShardedStore",
     ("load_version", "load_latest", "store_version", "lock_load_version",
      "lock_load_latest", "unlock_version", "probe_version", "probe_latest",
      "probe_lock_version", "probe_lock_latest", "task_begin", "task_end",
      "stats"), "store"),
    ("repro.serve.store", "Shard", ("reclaim",), "store.reclaim"),
]


class SpanRecorder:
    """Per-thread span stacks, aggregated per layer in memory."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Every thread's ``{layer: [calls, total_s, self_s, {caller: n}]}``.
        self._tables: list[dict[str, list]] = []
        self._counters: list[tuple[str, list[int]]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: Wrapper cost inside a span and around it (seconds per call).
        self.bias_in = 0.0
        self.bias_out = 0.0

    def _thread_state(self) -> tuple[list, dict]:
        stack: list[list] = []
        table: dict[str, list] = {}
        self._local.state = (stack, table)
        with self._lock:
            self._tables.append(table)
        return stack, table

    def timed(self, layer: str, fn: Callable, name: str) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        clock = time.perf_counter
        local = self._local
        new_state = self._thread_state
        calls = [0]
        self._counters.append((name, calls))

        def span(*args, **kwargs):
            try:
                stack, table = local.state
            except AttributeError:
                stack, table = new_state()
            frame = [layer, 0.0]
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                agg = table.get(layer)
                if agg is None:
                    agg = table[layer] = [0, 0.0, 0.0, {}]
                agg[0] += 1
                agg[2] += dt - frame[1]
                if parent is None:
                    caller = HARNESS
                else:
                    parent[1] += dt
                    caller = parent[0]
                if caller != layer:
                    agg[1] += dt
                callers = agg[3]
                callers[caller] = callers.get(caller, 0) + 1
                calls[0] += 1

        span.__name__ = getattr(fn, "__name__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def calibrate(self, n: int = 20_000, repeats: int = 5) -> None:
        """Measure the wrapper's cost inside (``bias_in``) and around
        (``bias_out``) the span it records, per call."""
        clock = time.perf_counter
        ins, outs = [], []
        for _ in range(repeats):
            probe = SpanRecorder()

            def noop():
                pass

            child = probe.timed("child", noop, "noop")

            def empty():
                for _ in range(n):
                    pass

            def plain():
                for _ in range(n):
                    noop()

            def wrapped():
                for _ in range(n):
                    child()

            t0 = clock()
            empty()
            t1 = clock()
            plain()
            t2 = clock()
            probe.timed("parent", wrapped, "loop")()
            loop_s, call_s = t1 - t0, (t2 - t1) - (t1 - t0)
            layers = probe.snapshot()["layers"]
            ins.append((layers["child"]["raw_self_s"] - call_s) / n)
            outs.append((layers["parent"]["raw_self_s"] - loop_s) / n)
        self.bias_in = max(0.0, statistics.median(ins))
        self.bias_out = max(0.0, statistics.median(outs))

    # -- installing wrappers ------------------------------------------------

    def patch(self, owner: Any, attr: str, layer: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        setattr(owner, attr, self.timed(layer, original, label))
        self._patches.append((owner, attr, original))

    def patch_factory(self, owner: Any, attr: str, layer: str) -> None:
        """Wrap the callables a factory returns (e.g. per-core closures)."""
        original = getattr(owner, attr)
        label = f"{getattr(owner, '__name__', owner)}.{attr}()"
        timed = self.timed

        def factory(*args, **kwargs):
            return timed(layer, original(*args, **kwargs), label)

        setattr(owner, attr, factory)
        self._patches.append((owner, attr, original))

    def install(self, boundaries) -> None:
        for module, cls, methods, layer in boundaries:
            owner = getattr(importlib.import_module(module), cls)
            for method in methods:
                self.patch(owner, method, layer)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates of every thread, as a JSON-able dict."""
        layers: dict[str, dict] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for layer, (calls, total, self_s, callers) in list(table.items()):
                row = layers.setdefault(
                    layer,
                    {"calls": 0, "total_s": 0.0, "raw_self_s": 0.0, "callers": {}},
                )
                row["calls"] += calls
                row["total_s"] += total
                row["raw_self_s"] += self_s
                for caller, n in callers.items():
                    row["callers"][caller] = row["callers"].get(caller, 0) + n
        children: dict[str, int] = {}
        for row in layers.values():
            for caller, n in row["callers"].items():
                children[caller] = children.get(caller, 0) + n
        for layer, row in layers.items():
            bias = row["calls"] * self.bias_in + children.get(layer, 0) * self.bias_out
            row["self_s"] = max(0.0, row["raw_self_s"] - bias)
        functions: dict[str, int] = {}
        for name, calls in self._counters:
            functions[name] = functions.get(name, 0) + calls[0]
        return {
            "layers": layers,
            "functions": functions,
            "bias_in_s": self.bias_in,
            "bias_out_s": self.bias_out,
        }


class _TimedGenerator:
    """A task generator whose ``send`` runs inside a ``workloads`` span."""

    __slots__ = ("send", "throw", "close")

    def __init__(self, gen, send) -> None:
        self.send = send
        self.throw = gen.throw
        self.close = gen.close


def install_sim(recorder: SpanRecorder) -> None:
    """Wrap every simulator layer boundary (call before building machines)."""
    recorder.calibrate()
    recorder.install(SIM_BOUNDARIES)
    core = importlib.import_module("repro.sim.core")
    # Each core builds its fused-block interpreter once, as a closure.
    recorder.patch_factory(core, "make_interpreter", "fuse")
    task_cls = importlib.import_module("repro.runtime.task").Task
    original = task_cls.__dict__["make_generator"]
    timed = recorder.timed

    def make_generator(task):
        gen = original(task)
        return _TimedGenerator(gen, timed("workloads", gen.send, "generator.send"))

    task_cls.make_generator = make_generator
    recorder._patches.append((task_cls, "make_generator", original))


def install_serve(recorder: SpanRecorder) -> None:
    """Wrap the serving layers (call in the server process before it boots)."""
    recorder.calibrate()
    recorder.install(SERVE_BOUNDARIES)
    protocol = importlib.import_module("repro.serve.protocol")
    recorder.patch(protocol, "encode_response", "protocol")
