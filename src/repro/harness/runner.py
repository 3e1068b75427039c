"""Parallel sweep executor with a deterministic on-disk result cache.

Every figure of the paper's evaluation is a sweep of *independent*
simulations — benchmark x size x op-mix x core-count x config.  Each
simulation is seeded and self-contained, so the rows it produces do not
depend on where (or in which process) it runs.  That makes the sweep
embarrassingly parallel and memoisable:

- :class:`SweepRunner` fans a list of :class:`RunSpec` out over a
  ``ProcessPoolExecutor`` (worker count from ``REPRO_JOBS``, default
  ``os.cpu_count()``) and reassembles results in the order the specs were
  given — the paper order — so parallel output is **bit-identical** to
  the serial path.
- :class:`ResultCache` memoises finished runs as JSON under
  ``.repro_cache/<code-version>/``, keyed by a stable hash of the spec.
  Re-running a figure only simulates what changed; editing any file under
  ``src/repro`` changes the code-version component and invalidates the
  whole cache.  Escape hatches: ``REPRO_CACHE=0`` or ``--no-cache``.
- Duplicate specs inside one sweep are deduplicated before execution
  (several figures reuse their baseline run at multiple points).

The actual simulation entry points live in :mod:`repro.harness.sweeps`;
a :class:`RunSpec` names one of them plus picklable keyword arguments.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait as futures_wait,
)
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterator, Sequence

from ..errors import ConfigError, SweepFailure
from ..recovery.checkpoint import atomic_write_bytes

#: Default cache directory (under the current working directory).
CACHE_DIR_NAME = ".repro_cache"

#: Default checkpoint-image directory for ``checkpoint_every`` sweeps.
CKPT_DIR_NAME = ".repro_ckpt"


# ---------------------------------------------------------------------------
# Specs and results.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunSpec:
    """One self-contained simulation: a sweep function plus its arguments.

    ``params`` is a tuple of ``(name, value)`` pairs sorted by name so
    equal specs compare, hash and ``repr`` identically — the repr is the
    cache identity.  Values must be picklable (they cross the process
    pool) and have deterministic reprs (dataclasses, strings, numbers).
    """

    fn: str
    params: tuple[tuple[str, Any], ...]


def make_spec(fn: str, **params: Any) -> RunSpec:
    """Build a :class:`RunSpec` with canonically ordered parameters."""
    return RunSpec(fn, tuple(sorted(params.items())))


class StatsView:
    """Attribute access over a plain stats dict (picklable, JSON-able).

    Mirrors the fields and derived rates of
    :meth:`repro.sim.stats.SimStats.snapshot`, so harness code written
    against ``run.stats.gc_phases``-style access works unchanged on
    results that crossed a process or cache boundary.
    """

    def __init__(self, data: dict[str, Any]):
        self.__dict__.update(data)

    def as_dict(self) -> dict[str, Any]:
        return dict(self.__dict__)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StatsView) and self.__dict__ == other.__dict__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsView({self.__dict__!r})"


@dataclass
class RunResult:
    """Reduced, serialisable outcome of one simulation."""

    cycles: int
    stats: StatsView
    #: Aggregated :mod:`repro.obs` metrics snapshot (plain dicts), when
    #: the run's config enabled metrics; ``None`` otherwise.  Rides the
    #: cache/pool JSON round-trip like ``stats`` does.
    metrics: dict[str, Any] | None = None

    @classmethod
    def from_workload(cls, run: Any) -> "RunResult":
        """Build from a :class:`~repro.workloads.base.WorkloadRun`."""
        return cls(
            cycles=run.cycles,
            stats=StatsView(run.stats.snapshot()),
            metrics=getattr(run, "metrics", None),
        )

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"cycles": self.cycles, "stats": self.stats.as_dict()}
        if self.metrics is not None:
            doc["metrics"] = self.metrics
        return doc

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "RunResult":
        return cls(
            cycles=data["cycles"],
            stats=StatsView(data["stats"]),
            metrics=data.get("metrics"),
        )


# ---------------------------------------------------------------------------
# Code-version fingerprint (cache invalidation).
# ---------------------------------------------------------------------------

_code_version: str | None = None


def code_version() -> str:
    """Hash of every ``repro`` source file; changes invalidate the cache."""
    global _code_version
    if _code_version is None:
        h = hashlib.sha256()
        pkg = Path(__file__).resolve().parents[1]
        for path in sorted(pkg.rglob("*.py")):
            h.update(path.relative_to(pkg).as_posix().encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_version = h.hexdigest()[:16]
    return _code_version


# ---------------------------------------------------------------------------
# On-disk result cache.
# ---------------------------------------------------------------------------


class ResultCache:
    """JSON result files under ``<root>/<code-version>/<spec-hash>.json``."""

    def __init__(self, root: str | Path | None = None, version: str | None = None):
        env_root = os.environ.get("REPRO_CACHE_DIR")
        self.root = Path(root if root is not None else (env_root or CACHE_DIR_NAME))
        self.version = version or code_version()

    def path_for(self, spec: RunSpec) -> Path:
        digest = hashlib.sha256(repr(spec).encode()).hexdigest()[:32]
        return self.root / self.version / f"{digest}.json"

    def load(self, spec: RunSpec) -> RunResult | None:
        try:
            data = json.loads(self.path_for(spec).read_text())
        except (OSError, ValueError):
            return None
        if data.get("spec") != repr(spec):
            return None  # hash collision or corrupted file: treat as miss
        try:
            return RunResult.from_json(data)
        except (KeyError, TypeError):
            return None

    def store(self, spec: RunSpec, result: RunResult) -> None:
        payload = {"spec": repr(spec), **result.to_json()}
        # Write-flush-fsync-rename (shared with the checkpoint images) so
        # concurrent sweeps and ``kill -9``-ed ones never see partial
        # files: an aborted write leaves at most a ``*.tmp`` straggler,
        # never a truncated ``.json``.
        atomic_write_bytes(self.path_for(spec), json.dumps(payload).encode())

    def clean_stale_tmp(self) -> int:
        """Remove ``*.tmp`` stragglers from interrupted stores; count removed."""
        removed = 0
        version_dir = self.root / self.version
        if not version_dir.is_dir():
            return 0
        for tmp in version_dir.glob("*.tmp"):
            try:
                tmp.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        return removed


# ---------------------------------------------------------------------------
# The sweep runner.
# ---------------------------------------------------------------------------


@dataclass
class RunnerStats:
    """Cumulative accounting across every sweep a runner executed."""

    requested: int = 0
    deduped: int = 0
    cache_hits: int = 0
    simulated: int = 0
    #: Specs re-executed after a crash or timeout.
    retried: int = 0
    #: Runs that exceeded the per-run wall-clock timeout.
    timeouts: int = 0
    #: Pool-rebuild events caused by a worker process dying.
    crashes: int = 0

    def snapshot(self) -> "RunnerStats":
        return RunnerStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def since(self, earlier: "RunnerStats") -> "RunnerStats":
        return RunnerStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def describe(self) -> str:
        text = (
            f"{self.simulated} simulated, {self.cache_hits} cached, "
            f"{self.deduped} deduped of {self.requested} runs"
        )
        if self.retried or self.timeouts or self.crashes:
            text += (
                f" ({self.retried} retried, {self.timeouts} timed out, "
                f"{self.crashes} worker crash(es))"
            )
        return text


def _jobs_from_env() -> int:
    raw = os.environ.get("REPRO_JOBS")
    if raw:
        try:
            jobs = int(raw)
        except ValueError:
            raise ConfigError(f"REPRO_JOBS must be an integer, got {raw!r}") from None
        if jobs < 1:
            raise ConfigError("REPRO_JOBS must be >= 1")
        return jobs
    return os.cpu_count() or 1


def _cache_enabled_by_env() -> bool:
    return os.environ.get("REPRO_CACHE", "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


def _timeout_from_env() -> float | None:
    raw = os.environ.get("REPRO_RUN_TIMEOUT")
    if not raw:
        return None
    try:
        timeout = float(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_RUN_TIMEOUT must be a number of seconds, got {raw!r}"
        ) from None
    if timeout <= 0:
        raise ConfigError("REPRO_RUN_TIMEOUT must be > 0")
    return timeout


def _ckpt_every_from_env() -> int | None:
    raw = os.environ.get("REPRO_CKPT_EVERY")
    if not raw:
        return None
    try:
        every = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_CKPT_EVERY must be an integer, got {raw!r}"
        ) from None
    if every < 1:
        raise ConfigError("REPRO_CKPT_EVERY must be >= 1")
    return every


def _ckpt_dir_from_env() -> str:
    return os.environ.get("REPRO_CKPT_DIR") or CKPT_DIR_NAME


def _retries_from_env() -> int:
    raw = os.environ.get("REPRO_RUN_RETRIES")
    if not raw:
        return 2
    try:
        retries = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_RUN_RETRIES must be an integer, got {raw!r}"
        ) from None
    if retries < 0:
        raise ConfigError("REPRO_RUN_RETRIES must be >= 0")
    return retries


def _shutdown_pool(pool: ProcessPoolExecutor, *, kill: bool) -> None:
    """Tear a pool down without waiting on wedged or dead workers."""
    if kill:
        try:
            for proc in list(getattr(pool, "_processes", {}).values()):
                proc.terminate()
        except Exception:  # pragma: no cover - racing worker exit
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - pool already broken
        pass


def execute_spec(spec: RunSpec) -> RunResult:
    """Run one spec in this process (also the pool-worker entry point)."""
    from . import sweeps  # local import: sweeps imports this module

    return sweeps.execute(spec)


def execute_spec_checkpointed(
    spec: RunSpec, root: str, every: int
) -> RunResult:
    """Run one spec under epoch checkpointing (pool-worker entry point).

    Images live in a per-spec directory under ``root``.  A previous
    incarnation's images — left behind when a worker (or the parent) was
    killed mid-run — turn the re-run into a *verified replay*: the state
    digest is checked at every surviving marker, then fresh images are
    captured beyond the old frontier.  On success the per-spec directory
    is deleted (the finished row lives in the result cache; the images
    only matter while the run is in flight).
    """
    import shutil

    from ..recovery.checkpoint import Checkpointer, load_images
    from ..sim.machine import add_machine_observer, remove_machine_observer

    spec_dir = (
        Path(root) / hashlib.sha256(repr(spec).encode()).hexdigest()[:32]
    )
    images, _corrupt = load_images(spec_dir, every=every)
    state: dict = {}

    def observe(machine) -> None:
        if "ckpt" not in state:
            state["ckpt"] = Checkpointer(
                machine, spec_dir, every, verify=images
            )

    add_machine_observer(observe)
    try:
        result = execute_spec(spec)
    finally:
        remove_machine_observer(observe)
        ckpt = state.get("ckpt")
        if ckpt is not None:
            ckpt.detach()
    shutil.rmtree(spec_dir, ignore_errors=True)
    return result


class SweepRunner:
    """Executes sweeps of :class:`RunSpec` with caching and a process pool.

    ``jobs`` defaults to ``REPRO_JOBS`` or the host core count; caching
    defaults to on unless ``REPRO_CACHE`` disables it.  Results are always
    returned in spec order, so output is independent of worker count.

    The parallel path is crash-tolerant: every run carries an optional
    wall-clock ``timeout`` (``REPRO_RUN_TIMEOUT``), a worker that dies or
    hangs gets its pool rebuilt and its spec retried with exponential
    backoff up to ``retries`` times (``REPRO_RUN_RETRIES``, default 2),
    and completed rows are persisted to the cache *as they finish* — so
    an interrupted or crashed sweep resumes from its survivors
    (``resume=True`` / ``--resume``) instead of starting over.

    ``checkpoint_every`` (``REPRO_CKPT_EVERY``) additionally checkpoints
    each *in-flight* simulation every N versioned ops into per-spec
    image directories under ``checkpoint_dir`` (``REPRO_CKPT_DIR``,
    default ``.repro_ckpt/``): a worker — or the whole parent — killed
    mid-row leaves its images behind, and the resumed sweep replays that
    row under digest verification (see :mod:`repro.recovery`).
    Checkpointed rows live in their own cache namespace
    (``<code-version>-ckpt<N>``) because the epoch pin changes GC
    dynamics; disabled (the default), checkpointing costs nothing.

    Failures the worker *reports* (a raised simulation error) are
    deterministic and re-raise immediately; only process-level failures
    — a killed worker or a blown timeout — are retried.
    """

    #: Seconds between liveness/timeout scans of the in-flight futures.
    _poll_interval = 0.1

    def __init__(
        self,
        jobs: int | None = None,
        use_cache: bool | None = None,
        cache_dir: str | Path | None = None,
        *,
        timeout: float | None = None,
        retries: int | None = None,
        retry_backoff: float = 0.05,
        resume: bool = False,
        checkpoint_every: int | None = None,
        checkpoint_dir: str | Path | None = None,
    ):
        self.jobs = jobs if jobs is not None else _jobs_from_env()
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        self.timeout = timeout if timeout is not None else _timeout_from_env()
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError("timeout must be > 0")
        self.retries = retries if retries is not None else _retries_from_env()
        if self.retries < 0:
            raise ConfigError("retries must be >= 0")
        self.retry_backoff = retry_backoff
        self.resume = resume
        self.checkpoint_every = (
            checkpoint_every
            if checkpoint_every is not None
            else _ckpt_every_from_env()
        )
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ConfigError("checkpoint_every must be >= 1")
        self.checkpoint_dir = str(
            checkpoint_dir if checkpoint_dir is not None else _ckpt_dir_from_env()
        )
        if resume:
            use_cache = True  # resuming *is* reading the partial cache
        elif use_cache is None:
            use_cache = _cache_enabled_by_env()
        # The epoch pin makes checkpointed runs reclaim (slightly) less
        # aggressively than plain runs — same correctness, different
        # stats — so checkpointed rows get their own cache namespace
        # keyed by the cadence: a plain re-run never reads them.
        version = code_version()
        if self.checkpoint_every is not None:
            version = f"{version}-ckpt{self.checkpoint_every}"
        self.cache = ResultCache(cache_dir, version=version) if use_cache else None
        if resume and self.cache is not None:
            self.cache.clean_stale_tmp()
        self.stats = RunnerStats()

    def run(self, specs: Sequence[RunSpec]) -> list[RunResult]:
        """Run every spec; returns results aligned with ``specs``."""
        self.stats.requested += len(specs)
        positions: dict[RunSpec, list[int]] = {}
        for i, spec in enumerate(specs):
            positions.setdefault(spec, []).append(i)
        self.stats.deduped += len(specs) - len(positions)

        results: list[RunResult | None] = [None] * len(specs)
        missing: list[RunSpec] = []
        for spec in positions:
            cached = self.cache.load(spec) if self.cache is not None else None
            if cached is not None:
                self.stats.cache_hits += 1
                for i in positions[spec]:
                    results[i] = cached
            else:
                missing.append(spec)

        try:
            # Completion order, persisted row by row: a sweep killed at
            # any point keeps everything that already finished.
            for spec, result in self._execute_all(missing):
                self.stats.simulated += 1
                if self.cache is not None:
                    self.cache.store(spec, result)
                for i in positions[spec]:
                    results[i] = result
        except KeyboardInterrupt:
            # The executor generator's finally clause has already torn
            # the pool down; drop any half-written cache entries so the
            # next run (e.g. with --resume) sees only complete rows.
            if self.cache is not None:
                self.cache.clean_stale_tmp()
            raise
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def _execute_all(
        self, specs: list[RunSpec]
    ) -> Iterator[tuple[RunSpec, RunResult]]:
        # Timeouts need process isolation to enforce, so a timeout forces
        # the pool path even for a single job/spec.
        if (self.jobs > 1 and len(specs) > 1) or (self.timeout and specs):
            yield from self._execute_parallel(specs)
            return
        for spec in specs:
            yield spec, self._execute_one(spec)

    def _execute_one(self, spec: RunSpec) -> RunResult:
        if self.checkpoint_every is not None:
            return execute_spec_checkpointed(
                spec, self.checkpoint_dir, self.checkpoint_every
            )
        return execute_spec(spec)

    def _submit(self, pool: ProcessPoolExecutor, spec: RunSpec) -> Future:
        if self.checkpoint_every is not None:
            return pool.submit(
                execute_spec_checkpointed,
                spec,
                self.checkpoint_dir,
                self.checkpoint_every,
            )
        return pool.submit(execute_spec, spec)

    def _execute_parallel(
        self, specs: list[RunSpec]
    ) -> Iterator[tuple[RunSpec, RunResult]]:
        """Crash-tolerant fan-out over a (rebuildable) process pool."""
        queue: deque[RunSpec] = deque(specs)
        attempts: dict[RunSpec, int] = dict.fromkeys(specs, 0)
        workers = min(self.jobs, len(specs))
        pool = ProcessPoolExecutor(max_workers=workers)
        #: future -> (spec, monotonic deadline or None)
        inflight: dict[Future, tuple[RunSpec, float | None]] = {}
        try:
            while queue or inflight:
                # Submit-window dispatch (not pool.map): one future per
                # spec so a crash or timeout is attributable, and at most
                # ``workers`` in flight so a deadline measures *run* time,
                # not queue time.
                while queue and len(inflight) < workers:
                    spec = queue.popleft()
                    attempts[spec] += 1
                    deadline = (
                        time.monotonic() + self.timeout if self.timeout else None
                    )
                    try:
                        fut = self._submit(pool, spec)
                    except BrokenExecutor:
                        # A worker died while we were dispatching: the
                        # pool refuses new work.  Requeue this spec
                        # uncharged; the broken pool's in-flight futures
                        # fail below and drive the rebuild — or, with
                        # nothing in flight to surface the crash,
                        # rebuild right here.
                        attempts[spec] -= 1
                        queue.appendleft(spec)
                        if not inflight:
                            self.stats.crashes += 1
                            _shutdown_pool(pool, kill=True)
                            pool = ProcessPoolExecutor(max_workers=workers)
                            continue
                        break
                    inflight[fut] = (spec, deadline)
                done, _ = futures_wait(
                    set(inflight),
                    timeout=self._poll_interval,
                    return_when=FIRST_COMPLETED,
                )
                crashed: list[tuple[RunSpec, str]] = []
                for fut in done:
                    spec, _deadline = inflight.pop(fut)
                    try:
                        result = fut.result()
                    except BrokenExecutor:
                        # The worker process died (a dead worker breaks
                        # every in-flight future of the pool).
                        crashed.append((spec, "worker process died"))
                        continue
                    # Any other exception is the simulation's own —
                    # deterministic, so retrying cannot help: re-raise.
                    yield spec, result
                now = time.monotonic()
                hung = [
                    fut
                    for fut, (_spec, deadline) in inflight.items()
                    if deadline is not None and now >= deadline
                ]
                if not crashed and not hung:
                    continue
                # Rebuild: terminate the pool (kills hung workers too),
                # charge the guilty specs an attempt, requeue the
                # innocent in-flight specs uncharged.
                if crashed:
                    self.stats.crashes += 1
                self.stats.timeouts += len(hung)
                for fut in hung:
                    spec, _deadline = inflight.pop(fut)
                    crashed.append(
                        (spec, f"run exceeded its {self.timeout}s timeout")
                    )
                innocents = [spec for spec, _deadline in inflight.values()]
                inflight.clear()
                _shutdown_pool(pool, kill=True)
                for spec, reason in crashed:
                    self._requeue(queue, attempts, spec, reason)
                for spec in innocents:
                    attempts[spec] -= 1
                    queue.append(spec)
                pool = ProcessPoolExecutor(max_workers=workers)
        finally:
            _shutdown_pool(pool, kill=True)

    def _requeue(
        self,
        queue: deque,
        attempts: dict[RunSpec, int],
        spec: RunSpec,
        reason: str,
    ) -> None:
        used = attempts[spec]
        if used > self.retries:
            raise SweepFailure(repr(spec), used, reason)
        self.stats.retried += 1
        if self.retry_backoff > 0:
            # Bounded exponential backoff before the retry attempt.
            time.sleep(min(self.retry_backoff * (2 ** (used - 1)), 2.0))
        queue.append(spec)


_default_runner: SweepRunner | None = None


def get_runner(runner: SweepRunner | None = None) -> SweepRunner:
    """Return ``runner``, or the lazily created process-wide default."""
    global _default_runner
    if runner is not None:
        return runner
    if _default_runner is None:
        _default_runner = SweepRunner()
    return _default_runner


def run_sweep(
    specs: Sequence[RunSpec], runner: SweepRunner | None = None
) -> list[RunResult]:
    """Convenience wrapper: run ``specs`` on ``runner`` or the default."""
    return get_runner(runner).run(specs)
