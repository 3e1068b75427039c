"""The version-table kernel: the Section II-A rules for one address.

A :class:`VersionTable` is the executable specification of one
O-structure's version list, with no timing, no locking and no waiting.
It holds ``values`` (version -> immutable value) and ``lockers``
(version -> locking task id), and its methods are the only code in the
software tiers that decides:

- which version a load selects (:meth:`latest`, :meth:`ready_exact`,
  :meth:`ready_latest`);
- whether a store or a renaming unlock conflicts (:meth:`store`,
  :meth:`unlock`), and who may unlock (:meth:`unlock`);
- which versions a reader can still reach (:meth:`visible`) and which a
  reclamation pass may drop (:meth:`reclaim_below`), the Section III-B
  rule.

Every software tier is built on it: :class:`~repro.sw.ostructure.SWOStructure`
adds a condition variable around one table, the serving store's shards
hold those structures, and the differential oracle keeps bare tables as
its reference model.  The simulator's hardware model
(:mod:`repro.ostruct`) deliberately does **not** use it: the oracle
audits that model against these rules, so sharing them would make the
audit check the code against itself.

Mutators check every precondition before they change anything, so an
op that raises leaves the table as it found it.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..errors import NotLockedError, SimulationError, VersionExistsError

#: Sentinel distinguishing "absent" from a stored ``None`` value.
_MISSING = object()


class VersionTable:
    """The versions and locks of one address, with the paper's rules."""

    __slots__ = ("name", "values", "lockers")

    def __init__(self, name: str = "ostruct") -> None:
        #: Prefix of error messages.
        self.name = name
        #: version -> value (versions are immutable once created).
        self.values: dict[int, Any] = {}
        #: version -> locking task id.
        self.lockers: dict[int, int] = {}

    # -- reads ---------------------------------------------------------------

    def latest(self, cap: int) -> int | None:
        """The highest version <= ``cap`` (LOAD-LATEST's target), or None."""
        best = None
        for v in self.values:
            if v <= cap and (best is None or v > best):
                best = v
        return best

    def ready_exact(self, version: int) -> tuple[Any] | None:
        """``(value,)`` if LOAD-VERSION would complete now, else None."""
        if version in self.values and version not in self.lockers:
            return (self.values[version],)
        return None

    def ready_latest(self, cap: int) -> tuple[int, Any] | None:
        """``(version, value)`` if LOAD-LATEST would complete now, else None."""
        v = self.latest(cap)
        if v is None or v in self.lockers:
            return None
        return (v, self.values[v])

    def visible(self, version: int, readers: Iterable[int]) -> list[int]:
        """The readers whose LOAD-LATEST selects ``version`` (in order)."""
        return [r for r in readers if self.latest(r) == version]

    def dump(self) -> dict[int, tuple[Any, int | None]]:
        """``version -> (value, locked_by)`` snapshot."""
        return {v: (val, self.lockers.get(v)) for v, val in self.values.items()}

    # -- writes --------------------------------------------------------------

    def store(self, version: int, value: Any) -> None:
        """STORE-VERSION: create ``version``; an existing one conflicts."""
        if version in self.values:
            raise VersionExistsError(f"{self.name}: version {version} already exists")
        self.values[version] = value

    def lock(self, version: int, task_id: int) -> None:
        """Record ``task_id`` as the locker (callers check readiness first)."""
        self.lockers[version] = task_id

    def unlock(
        self, version: int, task_id: int, new_version: int | None = None
    ) -> None:
        """UNLOCK-VERSION: release, optionally renaming to ``new_version``.

        Both refusals are checked first: a task that does not hold the
        lock, and a rename target that already exists.  Either leaves
        the lock held, as the hardware manager does.
        """
        if self.lockers.get(version) != task_id:
            raise NotLockedError(
                f"{self.name}: task {task_id} does not hold version {version}"
            )
        if new_version is not None:
            if new_version in self.values:
                raise VersionExistsError(
                    f"{self.name}: rename target {new_version} already exists"
                )
            self.values[new_version] = self.values[version]
        del self.lockers[version]

    def drop(self, version: int) -> bool:
        """Remove one version; False if absent.  Locked versions refuse."""
        if version in self.lockers:
            raise SimulationError(
                f"{self.name}: cannot drop locked version {version}"
            )
        return self.values.pop(version, _MISSING) is not _MISSING

    def reclaim_below(self, floor: int) -> int:
        """Drop what no reader at or above ``floor`` can reach; return count.

        Keeps the highest version <= ``floor`` (LOAD-LATEST(floor)'s
        target), everything >= ``floor`` and every locked version.
        """
        keep = self.latest(floor)
        doomed = [
            v for v in self.values
            if v < floor and v != keep and v not in self.lockers
        ]
        for v in doomed:
            del self.values[v]
        return len(doomed)
