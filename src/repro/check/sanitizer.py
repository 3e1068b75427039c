"""The sanitizer: op-level differential checking plus invariant checkpoints.

:class:`Sanitizer` attaches to a machine as a subscriber of the
machine's ``op``, ``reclaim`` and ``drop`` events (see
:mod:`repro.sim.events`).  The manager emits ``op`` after the hardware
model has run one of the seven versioned operations (or
``free_ostructure``), with its arguments and its result or raised
error; the sanitizer diffs it against the version-table reference of
the :class:`~repro.check.oracle.DifferentialOracle`, and every ``interval``
checked ops it validates the structural invariants of
:mod:`repro.check.invariants` as well.  The ``reclaim`` subscriber
audits Section III-B safety for every reclaimed block before mirroring
the reclaim into the reference.

The manager's *internal* calls are reported too — a renaming
``unlock_version`` emits the rename's store before the unlock itself,
so the rename is applied to the reference exactly once, in order.

On any disagreement a :class:`CheckViolation` is raised carrying a
structured report: the violated facts, the offending op, the simulated
cycle, the tail of the auto-attached :class:`~repro.sim.trace.Tracer`
(the interleaving *is* the bug report), and the wait-graph post-mortem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from .invariants import check_invariants
from .oracle import DifferentialOracle

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.machine import Machine


class CheckViolation(SimulationError):
    """The sanitizer observed a divergence or invariant violation."""

    def __init__(
        self,
        kind: str,
        problems: list[str],
        *,
        op: tuple | None = None,
        cycle: int = 0,
        ops_checked: int = 0,
        trace_tail: list[str] | None = None,
        post_mortem: str = "",
    ):
        self.kind = kind
        self.problems = list(problems)
        self.op = op
        self.cycle = cycle
        self.ops_checked = ops_checked
        self.trace_tail = list(trace_tail or [])
        self.post_mortem = post_mortem
        super().__init__(self.render())

    def __reduce__(self):
        # Keyword-only fields need explicit reconstruction, or crossing a
        # process-pool boundary re-raises a TypeError instead of this.
        return (
            _rebuild_violation,
            (
                self.kind,
                self.problems,
                self.op,
                self.cycle,
                self.ops_checked,
                self.trace_tail,
                self.post_mortem,
            ),
        )

    def render(self) -> str:
        lines = [
            f"sanitizer violation [{self.kind}] at cycle {self.cycle} "
            f"({self.ops_checked} ops checked)"
        ]
        if self.op is not None:
            lines.append(f"  op: {self.op!r}")
        for p in self.problems:
            lines.append(f"  - {p}")
        if self.trace_tail:
            lines.append("  trace tail:")
            lines.extend(f"    {t}" for t in self.trace_tail)
        if self.post_mortem:
            lines.append("  wait graph:")
            lines.extend(f"    {t}" for t in self.post_mortem.splitlines())
        return "\n".join(lines)


def _rebuild_violation(kind, problems, op, cycle, ops_checked, trace_tail, post_mortem):
    return CheckViolation(
        kind,
        problems,
        op=op,
        cycle=cycle,
        ops_checked=ops_checked,
        trace_tail=trace_tail,
        post_mortem=post_mortem,
    )


class Sanitizer:
    """Differential + invariant checker wired into one machine."""

    def __init__(
        self,
        machine: "Machine",
        *,
        interval: int = 256,
        trace_tail: int = 24,
    ):
        self.machine = machine
        self.oracle = DifferentialOracle()
        #: Structural invariants are validated every ``interval`` checked
        #: ops (0 disables periodic checkpoints; the final sweep remains).
        self.interval = interval
        self.trace_tail = trace_tail
        self.ops_checked = 0
        self.checkpoints_run = 0
        self._subscriptions = (
            ("op", self._on_op),
            ("reclaim", self._on_reclaim),
            ("drop", self._on_abort_drop),
        )
        for event, fn in self._subscriptions:
            machine.events.subscribe(event, fn)
        # The interleaving record for violation reports.
        from ..sim.trace import Tracer

        self.tracer = Tracer(machine, capacity=4096, only_versioned=True)

    # -- lifecycle -----------------------------------------------------------

    def detach(self) -> None:
        """Stop checking: unsubscribe everything (fault-injection tests)."""
        for event, fn in self._subscriptions:
            self.machine.events.unsubscribe(event, fn)
        self.tracer.detach()

    def finish(self) -> None:
        """Terminal sweep: full invariants plus a whole-state model diff."""
        problems = check_invariants(self.machine)
        problems += self.oracle.compare_all(self.machine.manager)
        self._require(not problems, "final-sweep", problems, None)
        self.checkpoints_run += 1

    def check_now(self) -> None:
        """On-demand checkpoint (equivalent to the periodic one)."""
        self._checkpoint(force=True)

    # -- internals -----------------------------------------------------------

    def _require(
        self, ok: bool, kind: str, problems: list[str], op: tuple | None
    ) -> None:
        if ok:
            return
        from ..sim import waitgraph

        tail = [str(e) for e in self.tracer.last(self.trace_tail)]
        try:
            pm = waitgraph.post_mortem(self.machine)
        except Exception as exc:  # pragma: no cover - diagnostics only
            pm = f"(post-mortem unavailable: {exc})"
        raise CheckViolation(
            kind,
            problems,
            op=op,
            cycle=self.machine.sim.now,
            ops_checked=self.ops_checked,
            trace_tail=tail,
            post_mortem=pm,
        )

    def _checkpoint(self, force: bool = False) -> None:
        self.ops_checked += 1
        if not force and (
            self.interval <= 0 or self.ops_checked % self.interval
        ):
            return
        problems = check_invariants(self.machine)
        self._require(not problems, "invariant-checkpoint", problems, None)
        self.checkpoints_run += 1

    # -- the ``op`` subscriber -----------------------------------------------

    def _on_op(
        self, name: str, args: tuple, result: Any, exc: Exception | None
    ) -> None:
        problems = self.oracle.check_op(name, args, result, exc)
        self._require(not problems, "divergence", problems, (name, *args))
        if exc is None:
            self._checkpoint()

    # -- GC auditing ---------------------------------------------------------
    def _on_reclaim(self, vaddr: int, version: int) -> None:
        # Live tasks above max_seen are future consumers the renaming
        # protocols address by exact version; the GC contract protects
        # latest-reads only for ids within the begun window.
        problems = self.oracle.check_reclaim(
            vaddr,
            version,
            self.machine.tracker.live_ids,
            max_protected=self.machine.tracker.max_seen,
        )
        self._require(
            not problems, "gc-safety", problems, ("gc_reclaim", vaddr, version)
        )
        self.oracle.mirror_reclaim(vaddr, version)

    def _on_abort_drop(self, vaddr: int, version: int) -> None:
        # Abort rollback is exempt from the reclaim liveness audit (the
        # drop is deliberate; waiters re-stall until the retry recreates
        # the version) but must still track the reference model.
        problems = self.oracle.mirror_drop(vaddr, version)
        self._require(
            not problems, "abort-rollback", problems, ("abort_drop", vaddr, version)
        )
