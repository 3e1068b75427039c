"""A thread-safe software O-structure.

One :class:`SWOStructure` is one versioned memory location.  All seven
operations of Section II-A are provided with blocking semantics delivered
through a condition variable: loads of uncreated versions wait, loads of
locked versions wait, lock attempts on locked versions wait.  Timeouts
turn latent deadlocks into diagnosable errors instead of hangs; a
timeout bounds the whole wait, however often other changes wake it.

The rules themselves — which version a load selects, when a store or a
renaming unlock conflicts, what reclamation keeps — live in the
structure's :class:`~repro.sw.table.VersionTable`; this class adds only
the lock, the waiting and the :class:`SWTimeout` context.

Besides the blocking API, each read/lock operation has a non-blocking
``try_*`` twin that returns ``None`` where the blocking form would wait
(the serving layer answers zero-deadline requests with them).  Both
forms run the same readiness-plus-lock step, so blocking and probing can
never disagree.
"""

from __future__ import annotations

import threading
from typing import Any

from ..errors import SimulationError
from .table import VersionTable


class SWTimeout(SimulationError):
    """A blocking operation exceeded its timeout (likely a protocol bug).

    Carries structured context so callers above the structure — the
    serving layer's deadline mapping in particular — can report *why*
    the wait never completed instead of parroting a bare message:
    ``address`` (the structure's name), ``op``, the ``wanted`` exact
    version or ``cap`` for latest-loads, the ``latest`` version present
    at expiry, the lock ``holder`` blocking the candidate version (if
    any), and the ``timeout`` that expired.  ``str()`` output is
    unchanged from the pre-context era.
    """

    def __init__(
        self,
        message: str,
        *,
        address: str | None = None,
        op: str | None = None,
        wanted: int | None = None,
        cap: int | None = None,
        latest: int | None = None,
        holder: int | None = None,
        timeout: float | None = None,
    ):
        self.address = address
        self.op = op
        self.wanted = wanted
        self.cap = cap
        self.latest = latest
        self.holder = holder
        self.timeout = timeout
        super().__init__(message)

    @property
    def context(self) -> dict:
        """The non-None structured fields as a JSON-able dict."""
        fields = {
            "address": self.address,
            "op": self.op,
            "wanted": self.wanted,
            "cap": self.cap,
            "latest": self.latest,
            "holder": self.holder,
            "timeout": self.timeout,
        }
        return {k: v for k, v in fields.items() if v is not None}

    def describe(self) -> str:
        """The message plus the context fields (diagnostic rendering)."""
        ctx = self.context
        if not ctx:
            return str(self)
        detail = ", ".join(f"{k}={v}" for k, v in ctx.items())
        return f"{self} [{detail}]"


class SWClosed(SimulationError):
    """A blocking operation's wait was ended by :meth:`SWOStructure.close`."""


class SWOStructure:
    """One software-versioned memory location."""

    def __init__(self, name: str = "ostruct"):
        self.name = name
        self._changed = threading.Condition(threading.Lock())
        #: Set by :meth:`close`; guarded by ``_changed``.
        self._closed = False
        #: The version list and its rules; guarded by ``_changed``.
        self._table = VersionTable(name)

    def _acquire(
        self,
        op: str,
        timeout: float | None,
        version: int | None = None,
        cap: int | None = None,
        task_id: int | None = None,
    ) -> tuple | None:
        """The readiness-plus-lock step behind all eight read/lock ops.

        Selects ``version`` exactly, or the latest <= ``cap``; when ready
        returns ``(value,)`` or ``(version, value)`` and, given a
        ``task_id``, locks that version in the same critical section.
        ``timeout=None`` probes: a version that is not ready yields None.
        Otherwise waits up to ``timeout`` seconds in total (one deadline,
        however many changes wake the wait), then raises
        :class:`SWTimeout` with context gathered under the lock: the
        latest version present and the task holding the candidate the
        caller was after (exact ``version``, or the latest <= ``cap``).
        On a closed structure the wait raises :class:`SWClosed` instead.
        """
        table = self._table

        def take() -> tuple | None:
            got = (
                table.ready_exact(version) if cap is None
                else table.ready_latest(cap)
            )
            if got is not None and task_id is not None:
                table.lock(version if cap is None else got[0], task_id)
            return got

        with self._changed:
            if timeout is None:
                return take()
            got = self._changed.wait_for(lambda: self._closed or take(), timeout)
            if self._closed:
                raise SWClosed(f"{self.name}: closed while {op} waited")
            if got is not None:
                return got
            candidate = version if cap is None else table.latest(cap)
            raise SWTimeout(
                f"{self.name}: blocked operation timed out after {timeout}s",
                address=self.name,
                op=op,
                wanted=version,
                cap=cap,
                latest=max(table.values, default=None),
                holder=table.lockers.get(candidate),
                timeout=timeout,
            )

    # -- the seven operations -----------------------------------------------------

    def store_version(self, version: int, value: Any) -> None:
        """STORE-VERSION: create an immutable version."""
        with self._changed:
            self._table.store(version, value)
            self._changed.notify_all()

    def load_version(self, version: int, timeout: float = 10.0) -> Any:
        """LOAD-VERSION: blocks until ``version`` exists and is unlocked."""
        return self._acquire("load-version", timeout, version=version)[0]

    def load_latest(self, cap: int, timeout: float = 10.0) -> tuple[int, Any]:
        """LOAD-LATEST: highest version <= cap, blocking while locked.

        Re-evaluates after every change, so a version created while
        waiting is picked up (the renaming-unlock handoff).
        """
        return self._acquire("load-latest", timeout, cap=cap)

    def lock_load_version(self, version: int, task_id: int, timeout: float = 10.0) -> Any:
        """LOCK-LOAD-VERSION: exact load plus lock (atomic at grant time)."""
        return self._acquire(
            "lock-load-version", timeout, version=version, task_id=task_id
        )[0]

    def lock_load_latest(
        self, cap: int, task_id: int, timeout: float = 10.0
    ) -> tuple[int, Any]:
        """LOCK-LOAD-LATEST: capped load plus lock."""
        return self._acquire("lock-load-latest", timeout, cap=cap, task_id=task_id)

    def unlock_version(
        self, version: int, task_id: int, new_version: int | None = None
    ) -> None:
        """UNLOCK-VERSION: release; optionally rename to ``new_version``.

        A refused unlock (wrong holder, or an existing rename target)
        leaves the lock held.
        """
        with self._changed:
            self._table.unlock(version, task_id, new_version)
            self._changed.notify_all()

    def close(self) -> None:
        """End every wait, now and later, with :class:`SWClosed`.

        Probes, stores and unlocks still run; only waiting stops.
        """
        with self._changed:
            self._closed = True
            self._changed.notify_all()

    # -- non-blocking probes (differential-oracle support) --------------------

    def try_load_version(self, version: int) -> tuple[Any] | None:
        """``(value,)`` if LOAD-VERSION would complete now, else None."""
        return self._acquire("load-version", None, version=version)

    def try_load_latest(self, cap: int) -> tuple[int, Any] | None:
        """``(version, value)`` if LOAD-LATEST would complete now, else None."""
        return self._acquire("load-latest", None, cap=cap)

    def try_lock_load_version(self, version: int, task_id: int) -> tuple[Any] | None:
        """Atomically lock-and-load ``version`` iff it is ready now."""
        return self._acquire(
            "lock-load-version", None, version=version, task_id=task_id
        )

    def try_lock_load_latest(self, cap: int, task_id: int) -> tuple[int, Any] | None:
        """Atomically lock-and-load the latest <= ``cap`` iff ready now."""
        return self._acquire("lock-load-latest", None, cap=cap, task_id=task_id)

    # -- introspection / GC support --------------------------------------------------

    def versions(self) -> list[int]:
        with self._changed:
            return sorted(self._table.values)

    def dump(self) -> dict[int, tuple[Any, int | None]]:
        """``version -> (value, locked_by)`` snapshot (oracle comparisons)."""
        with self._changed:
            return self._table.dump()

    def drop_version(self, version: int) -> bool:
        """Remove one version (mirrors a hardware GC reclaim).

        Returns whether the version was present; refuses (raises) if the
        version is currently locked — reclaiming a locked version is a
        protocol violation on the hardware side too.
        """
        with self._changed:
            return self._table.drop(version)

    def is_locked(self, version: int) -> bool:
        with self._changed:
            return version in self._table.lockers

    def locker_of(self, version: int) -> int | None:
        with self._changed:
            return self._table.lockers.get(version)

    def reclaim_below(self, floor: int) -> int:
        """Drop shadowed versions no task at or above ``floor`` can read.

        Keeps the highest version <= floor (it is the LOAD-LATEST target
        for cap == floor) and everything >= floor; returns count removed.
        Locked versions are never reclaimed.
        """
        with self._changed:
            return self._table.reclaim_below(floor)
