"""Golden-trace determinism: the timing-wheel kernel vs the heapq kernel.

The simulator's contract is that events fire in exact ``(time, sequence)``
order, so any kernel honouring it produces *byte-identical* results.  The
fixture file ``tests/fixtures/golden_traces.json`` holds
``RunResult.to_json()`` rows (cycles plus the full ``SimStats.snapshot()``)
for a small basket of workloads, generated on the original heapq-of-tuples
kernel **before** the timing-wheel rewrite landed.  These tests re-run the
same specs on the current kernel and require the serialized rows to match
character for character — any drift in event ordering (a wheel bucket
firing out of sequence, an overflow event migrating late, a solo-event
shortcut skipping a cycle) shows up as a cycle-count or stall-counter diff.

The basket deliberately covers every kernel path:

- a sequential (1-core) run — the solo-event fast path, where exactly one
  event is ever pending;
- 4- and 8-core versioned runs — wheel buckets with same-cycle batching,
  waiter wake-ups, coherence traffic;
- a regular (matmul) run — long compute delays that overflow the wheel
  into the far-future heap tier.

Those four keys were generated on the heapq kernel.  Three more keys pin
the manager branches the Table II config never takes, and were recorded
at commit 2293b84 (before compressed lines began holding block refs):

- ``rb_tree-...-nocompress`` — ``compression_enabled=False``, so every
  versioned access is a full lookup;
- ``binary_tree-...-nopollution`` — ``pollution_avoidance=False``, so
  traversed blocks install into the caches;
- ``linked_list-...-l1dm1k`` — a 1 KB direct-mapped L1, where the
  manager's own accesses evict root lines and compressed lines churn.

Regenerate (only when *workload semantics* legitimately change — never to
paper over a kernel ordering bug)::

    PYTHONPATH=src python tests/test_engine_equivalence.py --regen
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.config import TABLE2, CacheConfig
from repro.harness.presets import QUICK
from repro.harness.runner import make_spec
from repro.harness.sweeps import execute, irregular_spec, regular_spec

FIXTURE = Path(__file__).parent / "fixtures" / "golden_traces.json"

#: label -> RunSpec.  Labels are the fixture keys; keep them stable.
GOLDEN_SPECS = {
    "linked_list-large-4R1W-versioned-8c": irregular_spec(
        "linked_list", TABLE2, QUICK, "large", "4R-1W", "versioned", 8
    ),
    "hash_table-small-1R1W-versioned-4c": irregular_spec(
        "hash_table", TABLE2, QUICK, "small", "1R-1W", "versioned", 4
    ),
    "binary_tree-small-4R1W-unversioned-1c": irregular_spec(
        "binary_tree", TABLE2, QUICK, "small", "4R-1W", "unversioned"
    ),
    "matmul-small-versioned-4c": regular_spec(
        "matmul", TABLE2, QUICK, "small", "versioned", 4
    ),
    "rb_tree-large-1R1W-versioned-8c-nocompress": irregular_spec(
        "rb_tree", replace(TABLE2, compression_enabled=False), QUICK,
        "large", "1R-1W", "versioned", 8,
    ),
    "binary_tree-large-1R1W-versioned-8c-nopollution": irregular_spec(
        "binary_tree", replace(TABLE2, pollution_avoidance=False), QUICK,
        "large", "1R-1W", "versioned", 8,
    ),
    "linked_list-large-1R1W-versioned-8c-l1dm1k": irregular_spec(
        "linked_list",
        replace(TABLE2, l1=CacheConfig(size_bytes=1024, ways=1, hit_latency=4)),
        QUICK, "large", "1R-1W", "versioned", 8,
    ),
}


def _row(label: str) -> str:
    """One canonical serialized result row for ``label``."""
    return json.dumps(execute(GOLDEN_SPECS[label]).to_json(), sort_keys=True)


def _fixture() -> dict[str, str]:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("label", sorted(GOLDEN_SPECS))
def test_kernel_reproduces_heapq_golden_trace(label):
    golden = _fixture()
    assert label in golden, (
        f"fixture missing {label!r}; regenerate with "
        f"PYTHONPATH=src python {Path(__file__).name} --regen"
    )
    assert _row(label) == golden[label], (
        f"{label}: stats row diverged from the heapq-kernel golden trace "
        f"— the event kernel is not order-preserving"
    )


def _unfused(spec):
    """The same spec pinned to the per-op execution tier."""
    params = dict(spec.params)
    params["config"] = params["config"].with_fused(False)
    return make_spec(spec.fn, **params)


@pytest.mark.parametrize("label", sorted(GOLDEN_SPECS))
def test_unfused_tier_reproduces_heapq_golden_trace(label):
    """The per-op tier must hit the very same golden rows as the fused one.

    The fixtures were generated before macro-op fusion existed, so the
    default-tier test above already proves fused == golden; this one
    proves ``fused=False`` == golden, closing the fused == unfused
    byte-identity triangle on the committed traces (no regeneration).
    """
    golden = _fixture()
    row = json.dumps(execute(_unfused(GOLDEN_SPECS[label])).to_json(), sort_keys=True)
    assert row == golden[label], (
        f"{label}: per-op (fused=False) tier diverged from the golden "
        f"trace the fused tier reproduces — the execution tiers are not "
        f"byte-identical"
    )


def test_fixture_has_no_orphans():
    """Every committed row corresponds to a spec still in the basket."""
    assert set(_fixture()) == set(GOLDEN_SPECS)


def _regen() -> None:
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    rows = {label: _row(label) for label in sorted(GOLDEN_SPECS)}
    FIXTURE.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(rows)} golden rows to {FIXTURE}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
