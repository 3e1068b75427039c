"""Epoch checkpoints: capture, CRC-guarded images, marker verification.

One :class:`Checkpoint` is a full structural snapshot of a machine taken
at a deterministic point — the N-th versioned operation, the same
ordinal clock the fault injector triggers on — covering every mutable
subsystem: the event engine's counters, the stats, the whole version
store (lists, compressed lines, page table, free list), the GC's
shadowed/pending queues, the task tracker, the cores' scheduling state,
and any rwlocks.  The snapshot is pure data (ints, strings, tuples), so
it pickles; its SHA-256 digest is the run's identity at that marker.

On-disk image format (``ckpt-NNNNNN.img``)::

    MAGIC (8 bytes) | CRC32 of payload (4 bytes, big-endian) | payload

where the payload is the pickled checkpoint dict.  The CRC detects the
``corrupt-block`` fault (and real bit rot): a damaged image reads as
:class:`CheckpointError` and recovery falls back to the previous valid
image.  Images are written atomically — temp file, flush+fsync, rename,
directory fsync — so a writer killed at any instruction leaves either
the old state or the new state, never a truncated image (the same
guarantee the sweep runner's row cache makes, hardened here too).

The :class:`Checkpointer` drives capture from inside a live machine.  It
subscribes to the machine's ``tick`` event (emitted once per completed
versioned op with the manager's op ordinal — the same clock the fault
injector triggers on) and, at every multiple of ``every``, defers a
*marker event* via ``sim.schedule(0, ...)`` so the version store is
quiescent when the walk happens.  At a marker it
always does the same three deterministic things — bump
``stats.checkpoints_reached``, pin the GC's reclaim bound at the current
version frontier, capture the state — and then either *writes* the image
(capture mode) or *compares digests* against a surviving image of a
previous incarnation of the same run (verify mode, used during restore).
Because both modes schedule the same events and mutate the same state,
a verified replay is byte-identical to the run that wrote the images.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..errors import CheckpointError, ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.machine import Machine

#: Image file magic ("repro o-structure checkpoint", format version 1).
MAGIC = b"ROCKPT1\n"

#: Pickle protocol pinned for digest stability across interpreter runs.
_PICKLE_PROTOCOL = 4


# ---------------------------------------------------------------------------
# State walk.
# ---------------------------------------------------------------------------


def _canon(value: Any) -> Any:
    """A canonical, picklable stand-in for one stored value.

    Workloads store ints (keys and simulated pointers); anything exotic
    falls back to ``repr`` so the walk never fails mid-capture.
    """
    if value is None or isinstance(value, (int, float, str, bool, bytes)):
        return value
    if isinstance(value, tuple):
        return tuple(_canon(v) for v in value)
    return repr(value)


def capture_state(machine: "Machine") -> dict[str, Any]:
    """Walk every mutable subsystem into a plain, deterministic dict.

    The walk is read-only (it must not perturb the run it snapshots) and
    emits only primitives in deterministic order, so pickling the result
    yields identical bytes for identical machine states.
    """
    sim = machine.sim
    mgr = machine.manager
    gc = machine.gc
    tracker = machine.tracker
    free = machine.free_list

    version_store = {
        vaddr: tuple(
            (
                block.version,
                _canon(block.value),
                block.locked_by,
                block.shadowed,
                block.shadowed_by,
                vlist.head is block,
                block.paddr,
            )
            for block in vlist
        )
        for vaddr, vlist in mgr.lists.items()
    }
    compressed = tuple(
        tuple(
            sorted(
                (vaddr, tuple(line.versions()))
                for lines in core_direct.values()
                for vaddr, line in lines.items()
            )
        )
        for core_direct in mgr._direct
    )
    return {
        # Engine bookkeeping (event sequence numbers, pending-queue size)
        # is deliberately NOT captured: an environment fault's event —
        # e.g. the deferred crash-machine raise — can sit scheduled but
        # unfired when a same-cycle marker captures, and the replay,
        # whose config no longer carries the already-fired crash, must
        # still digest-match.  The clock and the executed-event count
        # are real state; the queue internals are not.
        "engine": {
            "now": sim.now,
            "executed_total": sim.executed_total,
        },
        "stats": machine.stats.snapshot(),
        "retired_ops": machine.retired_ops,
        "version_store": version_store,
        "compressed_lines": compressed,
        "waiters": tuple(
            (vaddr, len(cbs))
            for vaddr, cbs in sorted(mgr._waiters.items())
            if cbs
        ),
        "created": tuple(
            (task, tuple(pairs)) for task, pairs in sorted(mgr._created.items())
        ),
        "roots": tuple(sorted(mgr.roots)),
        "page_table": tuple(sorted(machine.page_table._versioned_pages)),
        "free_list": {
            "free": tuple(free.paddrs()),
            "bump": free._bump,
            "refills_left": free.refills_left,
        },
        "gc": {
            "shadowed": tuple(
                (vlist.vaddr, block.version) for block, vlist in gc._shadowed
            ),
            "pending": tuple(
                (vlist.vaddr, block.version) for block, vlist in gc._pending
            ),
            "phase_active": gc.phase_active,
            "recorded_youngest": gc._recorded_youngest,
            "enabled": gc.enabled,
            "pin": tuple(sorted(gc.epoch_pin)) if gc.epoch_pin is not None else None,
            "pin_drops": gc.pin_drops,
        },
        "tracker": {
            "live": tuple(sorted(tracker.live_ids)),
            "active": tuple(sorted(tracker.active_ids)),
            "max_seen": tracker.max_seen,
            "begun": tracker.begun,
            "ended": tracker.ended,
        },
        "cores": tuple(
            (
                core.core_id,
                core.busy_cycles,
                core.current.task_id if core.current is not None else None,
                tuple(task.task_id for task in core.queue),
                core.blocked,
                core._blocked_addr if core.blocked else None,
            )
            for core in machine.cores
        ),
        "rwlocks": tuple(
            (
                lock.name,
                lock.addr,
                tuple(sorted(lock._readers)),
                lock._writer,
                tuple((mode, core_id) for mode, core_id, _cb, _t in lock._queue),
            )
            for lock in machine.rwlocks
        ),
        "heap": {
            "conventional_used": machine.heap.conventional_used,
            "versioned_used": machine.heap.versioned_used,
        },
        "mem": tuple(
            (addr, _canon(value)) for addr, value in sorted(machine.mem.items())
        ),
    }


def state_digest(state: dict[str, Any]) -> str:
    """SHA-256 over the canonical pickle of a captured state."""
    return hashlib.sha256(
        pickle.dumps(state, protocol=_PICKLE_PROTOCOL)
    ).hexdigest()


# ---------------------------------------------------------------------------
# Images.
# ---------------------------------------------------------------------------


def _fsync_dir(directory: Path) -> None:
    """Best-effort fsync of a directory so a rename survives power loss."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see old bytes or new bytes.

    temp file in the same directory -> write -> flush -> fsync ->
    rename -> fsync(dir).  A writer killed (``kill -9``) at any point
    leaves at most a ``*.tmp`` straggler, never a partial ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        _fsync_dir(path.parent)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Checkpoint:
    """One epoch image: replay coordinates + structural state + digest."""

    def __init__(
        self,
        *,
        marker: int,
        every: int,
        op_index: int,
        cycle: int,
        digest: str,
        state: dict[str, Any],
        pinned: tuple[tuple[int, int], ...],
        code_version: str,
    ):
        self.marker = marker
        self.every = every
        self.op_index = op_index
        self.cycle = cycle
        self.digest = digest
        self.state = state
        self.pinned = pinned
        self.code_version = code_version

    @classmethod
    def capture(
        cls, machine: "Machine", *, marker: int = 0, every: int = 0
    ) -> "Checkpoint":
        """Snapshot ``machine`` right now (read-only walk)."""
        from ..harness.runner import code_version

        state = capture_state(machine)
        pin = machine.gc.epoch_pin
        return cls(
            marker=marker,
            every=every,
            op_index=machine.manager.ticks,
            cycle=machine.sim.now,
            digest=state_digest(state),
            state=state,
            pinned=tuple(sorted(pin)) if pin is not None else (),
            code_version=code_version(),
        )

    def verify(self, machine: "Machine") -> bool:
        """Does ``machine``'s current state digest match this image?"""
        return state_digest(capture_state(machine)) == self.digest

    # -- serialisation -------------------------------------------------------

    def _payload(self) -> dict[str, Any]:
        return {
            "marker": self.marker,
            "every": self.every,
            "op_index": self.op_index,
            "cycle": self.cycle,
            "digest": self.digest,
            "state": self.state,
            "pinned": self.pinned,
            "code_version": self.code_version,
        }

    def write(self, path: str | Path) -> Path:
        """Atomically write the CRC-guarded image; returns the path."""
        payload = pickle.dumps(self._payload(), protocol=_PICKLE_PROTOCOL)
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        atomic_write_bytes(Path(path), MAGIC + crc.to_bytes(4, "big") + payload)
        return Path(path)

    @classmethod
    def read(cls, path: str | Path) -> "Checkpoint":
        """Read and validate an image; :class:`CheckpointError` on damage."""
        try:
            raw = Path(path).read_bytes()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint image {path}: {exc}")
        if len(raw) < len(MAGIC) + 4 or not raw.startswith(MAGIC):
            raise CheckpointError(f"checkpoint image {path} has a bad header")
        crc = int.from_bytes(raw[len(MAGIC) : len(MAGIC) + 4], "big")
        payload = raw[len(MAGIC) + 4 :]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CheckpointError(
                f"checkpoint image {path} failed its CRC check (corrupt)"
            )
        try:
            doc = pickle.loads(payload)
        except Exception as exc:  # pickle raises a zoo of types
            raise CheckpointError(f"checkpoint image {path} unpicklable: {exc}")
        try:
            return cls(**doc)
        except TypeError as exc:
            raise CheckpointError(f"checkpoint image {path} malformed: {exc}")


def image_path(directory: str | Path, marker: int) -> Path:
    return Path(directory) / f"ckpt-{marker:06d}.img"


def load_images(
    directory: str | Path, *, every: int | None = None
) -> tuple[dict[int, Checkpoint], int]:
    """Read every valid image in ``directory``; ``(by_marker, corrupt)``.

    Corrupt or unreadable images are skipped and counted — that is the
    fallback path for the ``corrupt-block`` fault.  Images written by a
    different code version or a different marker cadence are *stale*,
    not corrupt: they describe a run this one cannot be compared to, so
    they are silently ignored.
    """
    from ..harness.runner import code_version

    directory = Path(directory)
    if not directory.is_dir():
        return {}, 0
    images: dict[int, Checkpoint] = {}
    corrupt = 0
    current = code_version()
    for path in sorted(directory.glob("ckpt-*.img")):
        try:
            ck = Checkpoint.read(path)
        except CheckpointError:
            corrupt += 1
            continue
        if ck.code_version != current:
            continue
        if every is not None and ck.every != every:
            continue
        images[ck.marker] = ck
    return images, corrupt


def find_latest_valid_image(
    directory: str | Path, *, every: int | None = None
) -> Checkpoint | None:
    """The highest-marker valid image in ``directory``, or ``None``."""
    images, _corrupt = load_images(directory, every=every)
    return images[max(images)] if images else None


# ---------------------------------------------------------------------------
# The in-machine driver.
# ---------------------------------------------------------------------------


class Checkpointer:
    """Captures (or verifies) an epoch checkpoint every N versioned ops.

    A ``tick`` subscriber, like the fault injector: both read the
    manager's op ordinal, so they count the same ops.  The actual marker
    work is deferred to a fresh delay-0 event because ``tick`` fires
    mid-dispatch, while the version store is still being mutated by the
    op in flight.  Subscribers fire in attach order, so when a marker
    and a deferred fault fall on the same op, whichever subscribed first
    schedules its event first (a machine arms its config fault plan
    after its observers, so an observer-attached checkpointer wins).

    ``verify`` maps marker numbers to images from a previous incarnation
    of the same run; at those markers the checkpointer compares digests
    instead of writing, raising :class:`CheckpointError` on divergence
    (determinism is the entire restore guarantee, so a mismatch must be
    loud).  Markers with no image to verify are captured as usual.
    """

    def __init__(
        self,
        machine: "Machine",
        directory: str | Path,
        every: int,
        *,
        verify: dict[int, Checkpoint] | None = None,
        announce: dict[str, Any] | None = None,
    ):
        if every < 1:
            raise ConfigError("checkpoint interval must be >= 1 versioned op")
        self.machine = machine
        self.directory = Path(directory)
        self.every = int(every)
        self.verify = dict(verify or {})
        #: Info dict emitted once as a ``recovery`` "restore" event at the
        #: first marker (repro.obs span integration for restores).
        self.announce = dict(announce) if announce else None
        self.marker = 0
        #: Markers whose image this run wrote / verified.
        self.captured: list[int] = []
        self.verified: list[int] = []
        self._marker_pending = False
        machine.events.subscribe("tick", self._on_tick)
        machine.checkpointer = self

    def _on_tick(self, ordinal: int) -> None:
        if not self._marker_pending and ordinal % self.every == 0:
            # Defer to a fresh event: the op that brought us here is
            # still mid-dispatch and the store is not yet quiescent.
            self._marker_pending = True
            self.machine.sim.schedule(0, self._at_marker)

    # -- marker work ---------------------------------------------------------

    def _at_marker(self) -> None:
        self._marker_pending = False
        self.marker += 1
        marker = self.marker
        m = self.machine
        m.stats.checkpoints_reached += 1
        if self.announce is not None:
            info, self.announce = self.announce, None
            for fn in m.events.recovery:
                fn("restore", info)
        # Pin the GC's reclaim bound at this epoch's version frontier:
        # nothing live at this marker may be reclaimed until the next
        # marker advances the pin (see repro.ostruct.gc).
        m.gc.epoch_pin = frozenset(
            (vaddr, block.version)
            for vaddr, vlist in m.manager.lists.items()
            for block in vlist
        )
        ck = Checkpoint.capture(m, marker=marker, every=self.every)
        ref = self.verify.get(marker)
        if ref is not None:
            if ref.digest != ck.digest:
                raise CheckpointError(
                    f"replay diverged from checkpoint image at marker "
                    f"{marker} (op {m.manager.ticks}, cycle {m.sim.now}): "
                    f"digest {ck.digest[:12]} != recorded {ref.digest[:12]}"
                )
            self.verified.append(marker)
        else:
            ck.write(image_path(self.directory, marker))
            self.captured.append(marker)

    # -- lifecycle -----------------------------------------------------------

    def detach(self) -> None:
        """Stop checkpointing: unsubscribe, drop the back-pointer."""
        self.machine.events.unsubscribe("tick", self._on_tick)
        if self.machine.checkpointer is self:
            self.machine.checkpointer = None
