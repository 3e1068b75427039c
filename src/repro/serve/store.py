"""Hash-sharded MVCC store over software O-structures.

One :class:`ShardedStore` owns ``num_shards`` independent shards; each
shard maps string keys to one :class:`~repro.sw.ostructure.SWOStructure`
per key.  Shard routing is a stable CRC32 of the key — *not* Python's
salted ``hash()`` — so a key lands on the same shard across processes,
restarts and test runs (the loadgen's shard-routing determinism test
pins golden values).

Reclamation follows the version-based-reclamation (VBR) shape the
related MVCC work uses: task sessions (TASK-BEGIN / TASK-END frames)
advance a global *floor* — the lowest task id still live — and each
shard independently reclaims shadowed versions below that floor once
its stores-since-last-reclaim counter crosses a watermark.  A pass calls
each key's ``SWOStructure.reclaim_below(floor)``, which applies the
version table's reclaim rule under that structure's lock: per key it
keeps the version a ``LOAD-LATEST(floor)`` would return, everything at
or above the floor and every locked version.
"""

from __future__ import annotations

import threading
import zlib
from typing import Any

from ..errors import SimulationError
from ..sw.ostructure import SWOStructure


def shard_of(key: str, num_shards: int) -> int:
    """Stable shard index of ``key`` (CRC32, not the salted ``hash()``)."""
    return zlib.crc32(key.encode("utf-8")) % num_shards


class Shard:
    """One independent slice of the keyspace with its own reclamation."""

    def __init__(self, index: int, reclaim_watermark: int = 0):
        self.index = index
        #: Stores between reclamation passes; 0 disables reclamation.
        self.reclaim_watermark = reclaim_watermark
        self._lock = threading.Lock()
        self._ostructs: dict[str, SWOStructure] = {}
        #: Set by :meth:`close`; keys created after it start closed.
        self.closed = False
        self._stores_since_reclaim = 0
        self.reclaim_passes = 0
        self.reclaimed_versions = 0

    def ostructure(self, key: str) -> SWOStructure:
        """Get-or-create the O-structure backing ``key``."""
        with self._lock:
            o = self._ostructs.get(key)
            if o is None:
                o = self._ostructs[key] = SWOStructure(f"shard{self.index}/{key}")
                if self.closed:
                    o.close()
            return o

    def get(self, key: str) -> SWOStructure | None:
        with self._lock:
            return self._ostructs.get(key)

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._ostructs)

    def close(self) -> None:
        """End every wait on this shard's keys, now and later."""
        with self._lock:
            self.closed = True
            structs = list(self._ostructs.values())
        for o in structs:
            o.close()

    def note_store(self) -> bool:
        """Count one store; True when the watermark trips (reset included)."""
        if self.reclaim_watermark <= 0:
            return False
        with self._lock:
            self._stores_since_reclaim += 1
            if self._stores_since_reclaim >= self.reclaim_watermark:
                self._stores_since_reclaim = 0
                return True
            return False

    def reclaim(self, floor: int) -> int:
        """Drop shadowed versions no session at or above ``floor`` reads.

        Per key, keeps the highest version <= ``floor`` (the LOAD-LATEST
        target of the oldest live session) and everything above the
        floor; locked versions survive.  Returns versions dropped.
        """
        with self._lock:
            structs = list(self._ostructs.values())
        removed = sum(o.reclaim_below(floor) for o in structs)
        with self._lock:
            self.reclaim_passes += 1
            self.reclaimed_versions += removed
        return removed


class TaskTracker:
    """Live task sessions; the minimum live id is the reclamation floor."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._live: dict[int, int] = {}  # task id -> begin count (refcounted)
        self.begun = 0
        self.ended = 0

    def begin(self, task_id: int) -> None:
        with self._lock:
            self._live[task_id] = self._live.get(task_id, 0) + 1
            self.begun += 1

    def end(self, task_id: int) -> bool:
        """True if the id was live; refcount supports duplicate begins."""
        with self._lock:
            count = self._live.get(task_id)
            if count is None:
                return False
            if count <= 1:
                del self._live[task_id]
            else:
                self._live[task_id] = count - 1
            self.ended += 1
            return True

    def floor(self) -> int | None:
        """Lowest live task id, or None when no session is open."""
        with self._lock:
            return min(self._live) if self._live else None

    def live_count(self) -> int:
        with self._lock:
            return len(self._live)


class ShardedStore:
    """The service's data plane: N shards + session-driven reclamation.

    Stores, unlocks, sessions and the ``probe_*`` methods never wait:
    they take only short shard and key locks, so the server calls them
    on its event loop.  The probes run the O-structures' ``try_*``
    twins, which answer ``None`` where the blocking form would wait.
    Only the four blocking read/lock methods wait on an O-structure
    condition variable, for at most ``timeout`` seconds, and the server
    calls them on a pool thread, after a missed probe.  :meth:`close`
    ends every such wait with :class:`~repro.sw.ostructure.SWClosed`.
    """

    def __init__(self, num_shards: int = 8, reclaim_watermark: int = 0):
        if num_shards <= 0:
            raise SimulationError("need at least one shard")
        self.num_shards = num_shards
        self.shards = [Shard(i, reclaim_watermark) for i in range(num_shards)]
        self.tracker = TaskTracker()

    # -- routing -----------------------------------------------------------

    def shard_for(self, key: str) -> Shard:
        return self.shards[shard_of(key, self.num_shards)]

    def ostructure(self, key: str) -> SWOStructure:
        return self.shard_for(key).ostructure(key)

    # -- the versioned ops -------------------------------------------------

    def load_version(self, key: str, version: int, timeout: float) -> Any:
        return self.ostructure(key).load_version(version, timeout=timeout)

    def load_latest(self, key: str, cap: int, timeout: float) -> tuple[int, Any]:
        return self.ostructure(key).load_latest(cap, timeout=timeout)

    def store_version(self, key: str, version: int, value: Any) -> int:
        """Store, then reclaim if this store tripped the shard watermark.

        Returns the number of versions reclaimed (usually 0).
        """
        shard = self.shard_for(key)
        shard.ostructure(key).store_version(version, value)
        if shard.note_store():
            floor = self.tracker.floor()
            if floor is not None:
                return shard.reclaim(floor)
        return 0

    def lock_load_version(
        self, key: str, version: int, task_id: int, timeout: float
    ) -> Any:
        return self.ostructure(key).lock_load_version(
            version, task_id, timeout=timeout
        )

    def lock_load_latest(
        self, key: str, cap: int, task_id: int, timeout: float
    ) -> tuple[int, Any]:
        return self.ostructure(key).lock_load_latest(cap, task_id, timeout=timeout)

    def unlock_version(
        self, key: str, version: int, task_id: int, new_version: int | None = None
    ) -> None:
        self.ostructure(key).unlock_version(version, task_id, new_version)

    # -- non-blocking probes (deadline == 0 requests) ----------------------

    def probe_version(self, key: str, version: int) -> tuple[Any] | None:
        return self.ostructure(key).try_load_version(version)

    def probe_latest(self, key: str, cap: int) -> tuple[int, Any] | None:
        return self.ostructure(key).try_load_latest(cap)

    def probe_lock_version(
        self, key: str, version: int, task_id: int
    ) -> tuple[Any] | None:
        return self.ostructure(key).try_lock_load_version(version, task_id)

    def probe_lock_latest(
        self, key: str, cap: int, task_id: int
    ) -> tuple[int, Any] | None:
        return self.ostructure(key).try_lock_load_latest(cap, task_id)

    # -- sessions ----------------------------------------------------------

    def task_begin(self, task_id: int) -> None:
        self.tracker.begin(task_id)

    def task_end(self, task_id: int) -> bool:
        return self.tracker.end(task_id)

    def close(self) -> None:
        """End every wait, now and later (the server's shutdown)."""
        for shard in self.shards:
            shard.close()

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """JSON-able counters (served by the STATS op)."""
        return {
            "shards": self.num_shards,
            "keys": sum(len(s.keys()) for s in self.shards),
            "versions": sum(
                len(s.get(k).versions()) for s in self.shards for k in s.keys()
            ),
            "reclaim_passes": sum(s.reclaim_passes for s in self.shards),
            "reclaimed_versions": sum(s.reclaimed_versions for s in self.shards),
            "live_tasks": self.tracker.live_count(),
            "tasks_begun": self.tracker.begun,
            "tasks_ended": self.tracker.ended,
        }
