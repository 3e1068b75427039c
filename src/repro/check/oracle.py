"""Differential oracle: the hardware model vs the version-table rules.

The oracle keeps one :class:`~repro.sw.table.VersionTable` per versioned
address — the executable statement of the Section II-A rules — and
checks every operation the hardware-model manager reports against it.
The manager runs single-threaded inside the event simulator, so the
tables need no locks: :meth:`DifferentialOracle.check_op` asks "what
would the rules do with this op right now?" at exactly the point of the
simulated interleaving where the hardware ran it.

Every method returns a list of problem strings (empty on agreement); the
:class:`~repro.check.sanitizer.Sanitizer` turns non-empty results into a
:class:`~repro.check.sanitizer.CheckViolation`.

Rules worth spelling out:

- **Outcomes must agree.**  Each op ends in a value or in a refusal — a
  stall, a duplicate version, or an unlock by a task that is not the
  holder — and the hardware and the table must end the same way.  A
  hardware stall the table would have served is a lost wake-up or
  stale-cache bug; a hardware completion the table would have blocked
  is a premature read (e.g. of a locked or reclaimed version).
- **Compare, then apply.**  A lock is taken in the table only when the
  hardware granted the same version, so a divergence never leaves the
  table holding a lock the hardware does not.
- **Renaming unlocks apply in two steps.**  The manager's
  ``unlock_version(new_version=...)`` reports its internal
  ``store_version`` first, so the store applies the rename and the
  unlock only releases the lock.
- **GC reclaims are checked before they are applied**: at reclaim time
  the version must be shadowed, unlocked, and invisible to every live
  task's LOAD-LATEST — the paper's Section III-B safety argument,
  enforced mechanically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from ..errors import NotLockedError, SimulationError, VersionExistsError
from ..ostruct import isa
from ..ostruct.manager import StallSignal
from ..sw.table import VersionTable

if TYPE_CHECKING:  # pragma: no cover
    from ..ostruct.manager import OStructureManager


#: The error each op may be refused with; the table must refuse alike,
#: and the error class stands for the refusal in the comparison.  Other
#: errors (a protection fault, or a renaming unlock's duplicate target,
#: which its internal store already reported) leave nothing to compare.
#: A refused free changes nothing.
_REFUSALS: dict[str, Any] = {
    isa.LOAD_VERSION: StallSignal,
    isa.LOAD_LATEST: StallSignal,
    isa.STORE_VERSION: VersionExistsError,
    isa.LOCK_LOAD_VERSION: StallSignal,
    isa.LOCK_LOAD_LATEST: StallSignal,
    isa.UNLOCK_VERSION: NotLockedError,
    "free_ostructure": (),
}

_EXACT = (isa.LOAD_VERSION, isa.LOCK_LOAD_VERSION)
_LOCKING = (isa.LOCK_LOAD_VERSION, isa.LOCK_LOAD_LATEST)


def _show(outcome: Any) -> str:
    """An outcome for a problem report: a value's repr or a refusal's name."""
    return outcome.__name__ if isinstance(outcome, type) else repr(outcome)


class DifferentialOracle:
    """Version-table shadow of every O-structure the manager serves."""

    def __init__(self) -> None:
        #: vaddr -> reference table.
        self.tables: dict[int, VersionTable] = {}
        #: Completed hardware ops applied to the tables.
        self.ops_mirrored = 0

    def _table(self, vaddr: int) -> VersionTable:
        table = self.tables.get(vaddr)
        if table is None:
            table = self.tables[vaddr] = VersionTable(f"sw@0x{vaddr:x}")
        return table

    # -- the ``op`` check ----------------------------------------------------

    def check_op(
        self, name: str, args: tuple, result: Any, exc: Exception | None
    ) -> list[str]:
        """Diff one hardware op against the table and apply it there.

        ``name``, ``args``, ``result`` and ``exc`` are the manager's
        ``op`` event payload: ``args`` is the call's positional
        arguments (``(core_id, vaddr, version-or-cap, ...)``, or
        ``(vaddr,)`` for ``free_ostructure``) and ``result`` its return
        value, or ``exc`` the error it raised.  A store or unlock the
        table accepts is applied; a lock only when the hardware granted
        the same version.
        """
        refusal = _REFUSALS[name]
        if exc is not None and not isinstance(exc, refusal):
            return []
        if exc is None:
            self.ops_mirrored += 1
        if name == "free_ostructure":
            vaddr = args[0]
            table = self.tables.pop(vaddr, None)
            tracked = len(table.values) if table is not None else 0
            if tracked == result:
                return []
            return [
                f"free_ostructure(0x{vaddr:x}) released {result} block(s) "
                f"but the reference tracked {tracked} version(s)"
            ]
        vaddr, key = args[1], args[2]
        table = self._table(vaddr)
        hw = refusal if exc is not None else result[1]
        if name == isa.STORE_VERSION:
            ref = self._apply(table.store, refusal, key, args[3])
        elif name == isa.UNLOCK_VERSION:
            # A renaming unlock's store was reported, and applied, first.
            ref = self._apply(table.unlock, refusal, key, args[3])
        else:
            exact = name in _EXACT
            ready = table.ready_exact(key) if exact else table.ready_latest(key)
            ref = StallSignal if ready is None else ready[0] if exact else ready
            if name in _LOCKING and ready is not None and hw == ref:
                table.lock(key if exact else ready[0], args[3])
        if hw == ref:
            return []
        problem = (
            f"{name} {key} of 0x{vaddr:x}: hw={_show(hw)} reference={_show(ref)}"
        )
        if ref is StallSignal:
            problem += f" ({self._why_stalled(table, key, name in _EXACT)})"
        elif hw is StallSignal:
            problem += " (lost wake-up or stale lookup state)"
        return [problem]

    @staticmethod
    def _apply(mutator, refusal: Any, *args: Any) -> Any:
        """Apply one table mutator: its result, or ``refusal`` if refused."""
        try:
            return mutator(*args)
        except refusal:
            return refusal

    @staticmethod
    def _why_stalled(table: VersionTable, key: int, exact: bool) -> str:
        version = key if exact else table.latest(key)
        if version is None:
            return f"the reference has no version <= {key}"
        if version not in table.values:
            return (
                f"the reference says version {version} does not exist "
                f"(reclaimed or never created)"
            )
        return (
            f"the reference says version {version} is locked by task "
            f"{table.lockers[version]}"
        )

    # -- GC / lifecycle mirrors ----------------------------------------------

    def check_reclaim(
        self,
        vaddr: int,
        version: int,
        live_tasks: Iterable[int],
        max_protected: int | None = None,
    ) -> list[str]:
        """Safety audit of one GC reclaim, *before* it is mirrored.

        A reclaim is flagged when a live task could still select
        ``version`` through a capped LOAD-LATEST.  ``max_protected``
        bounds which live tasks count: the GC's phase contract only
        covers ids up to ``tracker.max_seen`` — versions *above* that
        bound were renamed into existence for designated future
        consumers (e.g. the ticket protocol renaming the root to the
        next mutator's id), and intermediate tasks coordinate with such
        addresses by exact version, not latest.  ``None`` protects every
        live task (the conservative default for direct use).
        """
        table = self.tables.get(vaddr)
        if table is None or version not in table.values:
            return [
                f"gc reclaimed version {version} of 0x{vaddr:x} unknown "
                f"to the reference model"
            ]
        problems = []
        holder = table.lockers.get(version)
        if holder is not None:
            problems.append(
                f"gc reclaimed locked version {version} of 0x{vaddr:x} "
                f"(held by task {holder})"
            )
        if version == max(table.values):
            problems.append(
                f"gc reclaimed the latest version {version} of 0x{vaddr:x} "
                f"(nothing shadows it)"
            )
        readers = [
            t for t in live_tasks if max_protected is None or t <= max_protected
        ]
        for task in table.visible(version, readers):
            problems.append(
                f"gc reclaimed version {version} of 0x{vaddr:x} while "
                f"live task {task} can still read it via LOAD-LATEST "
                f"(Section III-B safety violation)"
            )
        return problems

    def mirror_reclaim(self, vaddr: int, version: int) -> None:
        """Apply a GC reclaim that :meth:`check_reclaim` passed."""
        table = self.tables.get(vaddr)
        if table is not None:
            table.drop(version)

    def mirror_drop(self, vaddr: int, version: int) -> list[str]:
        """Hardware rolled back an aborted task's uncommitted version.

        Unlike a GC reclaim this is not subject to the Section III-B
        liveness audit — the abort path *deliberately* destroys a
        version other tasks may have been waiting for (they re-stall
        until the retry recreates it).  The drop must still target a
        version the reference knows and that is unlocked (the abort
        releases the victim's locks first).
        """
        table = self.tables.get(vaddr)
        try:
            if table is not None and table.drop(version):
                return []
        except SimulationError:
            return [
                f"abort dropped version {version} of 0x{vaddr:x} while "
                f"still locked by task {table.lockers[version]}"
            ]
        return [
            f"abort dropped version {version} of 0x{vaddr:x} unknown "
            f"to the reference model"
        ]

    # -- full-state sweep ----------------------------------------------------

    def compare_all(self, manager: "OStructureManager") -> list[str]:
        """Diff the complete version state of both models."""
        problems = []
        for vaddr in sorted(set(manager.lists) | set(self.tables)):
            lst = manager.lists.get(vaddr)
            hw = (
                {b.version: (b.value, b.locked_by) for b in lst}
                if lst is not None
                else {}
            )
            table = self.tables.get(vaddr)
            sw = table.dump() if table is not None else {}
            if hw == sw:
                continue
            only_hw = sorted(set(hw) - set(sw))
            only_sw = sorted(set(sw) - set(hw))
            if only_hw:
                problems.append(
                    f"0x{vaddr:x}: versions {only_hw} exist in hw only"
                )
            if only_sw:
                problems.append(
                    f"0x{vaddr:x}: versions {only_sw} exist in reference only"
                )
            for v in sorted(set(hw) & set(sw)):
                if hw[v] != sw[v]:
                    problems.append(
                        f"0x{vaddr:x} v{v}: hw (value, locker)={hw[v]!r} "
                        f"reference={sw[v]!r}"
                    )
        return problems
