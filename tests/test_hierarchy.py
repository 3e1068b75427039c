"""Tests for the memory hierarchy and coherence directory."""

from __future__ import annotations

from repro.config import MachineConfig
from repro.sim.hierarchy import MemoryHierarchy
from repro.sim.stats import SimStats


def make_hier(cores=2, **kw):
    cfg = MachineConfig(num_cores=cores, **kw)
    stats = SimStats()
    return MemoryHierarchy(cfg, stats), stats, cfg


def test_cold_miss_goes_to_dram():
    h, stats, cfg = make_hier()
    lat = h.access(0, 0x1000)
    assert lat == cfg.l1.hit_latency + cfg.l2_hit_latency + cfg.dram_latency_cycles
    assert stats.l1_misses == 1
    assert stats.l2_misses == 1
    assert stats.dram_accesses == 1


def test_l1_hit_after_fill():
    h, stats, cfg = make_hier()
    h.access(0, 0x1000)
    lat = h.access(0, 0x1000)
    assert lat == cfg.l1.hit_latency
    assert stats.l1_hits == 1


def test_l2_hit_when_other_core_fetched():
    h, stats, cfg = make_hier()
    h.access(0, 0x1000)
    lat = h.access(1, 0x1000)  # L1 miss for core 1, L2 hit
    assert lat == cfg.l1.hit_latency + cfg.l2_hit_latency
    assert stats.l2_hits == 1


def test_same_line_shares_residency():
    h, stats, _ = make_hier()
    h.access(0, 0x1000)
    h.access(0, 0x1020)  # same 64B line
    assert stats.l1_hits == 1


def test_write_invalidates_other_sharers():
    h, stats, _ = make_hier()
    h.access(0, 0x1000)
    h.access(1, 0x1000)
    assert h.directory.sharers_of(0x1000 >> 6) == {0, 1}
    h.access(0, 0x1000, write=True)
    assert stats.invalidations == 1
    assert h.directory.sharers_of(0x1000 >> 6) == {0}
    assert not h.l1s[1].contains(0x1000 >> 6)


def test_write_with_remote_sharer_pays_remote_penalty():
    h, stats, cfg = make_hier()
    h.access(0, 0x1000)
    h.access(1, 0x1000)
    lat_with_sharer = h.access(0, 0x1000, write=True)
    assert lat_with_sharer == cfg.l1.hit_latency + cfg.remote_penalty
    # Second write: exclusive already, no penalty.
    lat_exclusive = h.access(0, 0x1000, write=True)
    assert lat_exclusive == cfg.l1.hit_latency


def test_install_false_does_not_fill_caches():
    h, stats, _ = make_hier()
    h.access(0, 0x2000, install=False)
    assert not h.l1s[0].contains(0x2000 >> 6)
    assert not h.l2.contains(0x2000 >> 6)
    # Second access misses all over again.
    h.access(0, 0x2000, install=False)
    assert stats.l1_misses == 2
    assert stats.dram_accesses == 2


def test_directory_tracks_l1_eviction():
    h, _, cfg = make_hier()
    block = 0x1000 >> 6
    h.access(0, 0x1000)
    assert 0 in h.directory.sharers_of(block)
    h.l1s[0].invalidate(block)
    assert 0 not in h.directory.sharers_of(block)


def test_extra_evict_hook_invoked():
    h, _, _ = make_hier()
    dropped = []
    h.on_l1_evict = lambda core_id, block: dropped.append((core_id, block))
    h.access(0, 0x1000)
    h.l1s[0].invalidate(0x1000 >> 6)
    assert dropped == [(0, 0x1000 >> 6)]


def test_invalidate_everywhere():
    h, _, _ = make_hier()
    h.access(0, 0x3000)
    h.access(1, 0x3000)
    h.invalidate_everywhere(0x3000)
    block = 0x3000 >> 6
    assert not h.l1s[0].contains(block)
    assert not h.l1s[1].contains(block)
    assert not h.l2.contains(block)


def test_flush_all():
    h, _, _ = make_hier()
    for addr in range(0, 0x2000, 64):
        h.access(0, addr)
    h.flush_all()
    assert h.l1s[0].resident_blocks == 0
    assert h.l2.resident_blocks == 0


def test_read_after_remote_write_misses():
    h, stats, _ = make_hier()
    h.access(1, 0x1000)
    h.access(0, 0x1000, write=True)  # invalidates core 1
    before = stats.l1_misses
    h.access(1, 0x1000)
    assert stats.l1_misses == before + 1
