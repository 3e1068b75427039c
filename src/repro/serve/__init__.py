"""``repro.serve``: the software O-structure runtime as a network service.

The paper's Section II-C software prototype (:mod:`repro.sw`) is a
thread-safe MVCC cell; this package puts a fleet of them behind a
network boundary and measures the result like a datastore:

- :mod:`repro.serve.protocol` — length-prefixed frame codec mapping the
  paper's op vocabulary (the six versioned-memory ops plus TASK-BEGIN /
  TASK-END session frames) onto request/response messages with explicit
  error codes for timeout, overload, and version-not-found.
- :mod:`repro.serve.store` — a hash-sharded store of independent
  :class:`~repro.sw.ostructure.SWOStructure` keys with session-floor,
  watermark-driven version reclamation (the VBR shape).
- :mod:`repro.serve.server` — asyncio TCP front-end: ops that cannot
  wait run on the event loop, a bounded thread pool holds only the
  waits that must park, per-request deadlines mapped onto
  :class:`~repro.sw.ostructure.SWTimeout`, admission control that sheds
  with OVERLOAD instead of queueing unboundedly, graceful drain.
- :mod:`repro.serve.client` — pooled async client + sync wrapper.
- :mod:`repro.serve.loadgen` — seeded open/closed-loop load generator
  with four canonical mixes and a post-run read-validity checker.
- :mod:`repro.serve.cli` — ``python -m repro serve`` /
  ``python -m repro loadgen`` / ``serve --self-bench``.
"""

from .client import (
    AsyncServeClient,
    ServeError,
    ServeOverload,
    ServeTimeout,
    ServeVersionNotFound,
    SyncServeClient,
)
from .loadgen import MIXES, LoadGen, LoadReport, ReadChecker, flood
from .protocol import FrameDecoder, Message, ProtocolError
from .server import ServeServer, start_server
from .store import Shard, ShardedStore, TaskTracker, shard_of

__all__ = [
    "AsyncServeClient",
    "FrameDecoder",
    "LoadGen",
    "LoadReport",
    "Message",
    "MIXES",
    "ProtocolError",
    "ReadChecker",
    "ServeError",
    "ServeOverload",
    "ServeServer",
    "ServeTimeout",
    "ServeVersionNotFound",
    "Shard",
    "ShardedStore",
    "SyncServeClient",
    "TaskTracker",
    "flood",
    "shard_of",
    "start_server",
]
