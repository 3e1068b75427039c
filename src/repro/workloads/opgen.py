"""Deterministic operation-stream generation for the irregular workloads.

Section IV evaluates the irregular data structures by interleaving
lookups, inserts and deletes in fixed ratios on pre-populated structures,
with equal numbers of inserts and deletes so the memory footprint stays
stable.  The paper's two mixes:

- **read-intensive (4R-1W)**: 4 reads per write,
- **write-intensive (1R-1W)**: 1 read per write.

Figure 8 uses a 3:1 scan:insert mix instead.  Streams are produced with a
seeded NumPy generator, so every variant of a workload (unversioned,
versioned sequential, versioned parallel) replays the identical sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

#: Operation names used across workloads.
LOOKUP = "lookup"
INSERT = "insert"
DELETE = "delete"
SCAN = "scan"


@dataclass(frozen=True)
class OpMix:
    """Relative weights of read and write operations."""

    reads: int
    writes: int
    name: str

    def read_fraction(self) -> float:
        return self.reads / (self.reads + self.writes)


#: The paper's mixes (Figure 6 caption).
READ_INTENSIVE = OpMix(reads=4, writes=1, name="4R-1W")
WRITE_INTENSIVE = OpMix(reads=1, writes=1, name="1R-1W")


def initial_keys(n: int, key_space: int, seed: int) -> list[int]:
    """``n`` distinct keys drawn from ``[0, key_space)``."""
    if n > key_space:
        raise ConfigError("initial population larger than key space")
    rng = np.random.default_rng(seed)
    return [int(k) for k in rng.choice(key_space, size=n, replace=False)]


def generate_ops(
    n_ops: int,
    mix: OpMix,
    key_space: int,
    seed: int,
    *,
    read_op: str = LOOKUP,
    scan_range: int = 1,
) -> list[tuple[str, int, int]]:
    """Generate ``(op, key, extra)`` triples.

    Reads become ``read_op`` (``lookup`` or ``scan``; scans carry
    ``scan_range`` in the extra slot).  Writes alternate insert/delete so
    their counts stay equal and the structure size stays roughly stable
    (Section IV-D: "the number of insertions and deletions was set to be
    equal").
    """
    if n_ops <= 0:
        raise ConfigError("need at least one operation")
    if read_op not in (LOOKUP, SCAN):
        raise ConfigError(f"unknown read op {read_op!r}")
    rng = np.random.default_rng(seed + 1)
    keys = rng.integers(0, key_space, size=n_ops)
    is_read = rng.random(n_ops) < mix.read_fraction()
    ops: list[tuple[str, int, int]] = []
    write_toggle = False
    for i in range(n_ops):
        key = int(keys[i])
        if is_read[i]:
            ops.append((read_op, key, scan_range if read_op == SCAN else 0))
        else:
            ops.append((INSERT if not write_toggle else DELETE, key, 0))
            write_toggle = not write_toggle
    return ops


def reference_results(
    initial: list[int], ops: list[tuple[str, int, int]]
) -> tuple[list, list[int]]:
    """Sequential oracle: apply ``ops`` to a sorted-set model.

    Returns ``(per_op_results, final_contents_sorted)``.  Lookups yield
    bools, inserts/deletes yield success bools, scans yield the list of
    the first ``extra`` keys >= key.
    """
    import bisect

    contents = sorted(set(initial))
    results: list = []
    for op, key, extra in ops:
        if op == LOOKUP:
            i = bisect.bisect_left(contents, key)
            results.append(i < len(contents) and contents[i] == key)
        elif op == SCAN:
            i = bisect.bisect_left(contents, key)
            results.append(contents[i : i + extra])
        elif op == INSERT:
            i = bisect.bisect_left(contents, key)
            if i < len(contents) and contents[i] == key:
                results.append(False)
            else:
                contents.insert(i, key)
                results.append(True)
        elif op == DELETE:
            i = bisect.bisect_left(contents, key)
            if i < len(contents) and contents[i] == key:
                del contents[i]
                results.append(True)
            else:
                results.append(False)
        else:  # pragma: no cover - generate_ops never emits others
            raise ConfigError(f"unknown op {op!r}")
    return results, contents
