"""Tests for the parallel sweep runner and its on-disk result cache.

The two properties the rest of the repo leans on:

- **determinism**: a sweep's rows are byte-identical whether it runs
  serially, across pool workers, or out of the cache — every simulation
  is seeded and self-contained, so placement cannot matter;
- **memoisation**: a warm-cache re-run performs zero simulations (the
  runner's cache-hit counter proves it) and returns the same rows.
"""

from __future__ import annotations

import json

import pytest

from repro.config import TABLE2
from repro.errors import ConfigError
from repro.harness.experiments import fig6_speedup, gc_overhead
from repro.harness.presets import Scale
from repro.harness.runner import (
    ResultCache,
    RunResult,
    RunSpec,
    StatsView,
    SweepRunner,
    code_version,
    make_spec,
)
from repro.harness.sweeps import execute, irregular_spec
from repro.workloads.opgen import READ_INTENSIVE, WRITE_INTENSIVE

#: Tiny scale so runner tests stay fast (mirrors tests/test_harness.py).
TINY = Scale(
    name="tiny",
    small_elements=20,
    large_elements=40,
    n_ops=24,
    sens_ops=16,
    matmul_small=4,
    matmul_large=6,
    lev_small=6,
    lev_large=10,
    fig8_elements=40,
    fig8_ops=24,
    core_counts=(2, 4),
    max_cores=4,
    l1_sizes_kib=(8, 32),
    latencies=(2, 10),
    gc_ops=40,
)

#: The quick preset's Figure 6 shape at tiny sizes: a genuine slice of
#: the figure's sweep (benchmark x size x mix x variant).
def _fig6_slice(scale: Scale) -> list[RunSpec]:
    specs = []
    for bench in ("linked_list", "hash_table"):
        for size in ("small", "large"):
            for mix in (READ_INTENSIVE, WRITE_INTENSIVE):
                specs.append(irregular_spec(
                    bench, TABLE2, scale, size, mix.name, "unversioned"))
                specs.append(irregular_spec(
                    bench, TABLE2, scale, size, mix.name, "versioned",
                    scale.max_cores))
    return specs


def _dumps(results: list[RunResult]) -> str:
    return json.dumps([r.to_json() for r in results])


class TestSpecs:
    def test_make_spec_canonicalises_param_order(self):
        assert make_spec("f", a=1, b=2) == make_spec("f", b=2, a=1)
        assert hash(make_spec("f", a=1, b=2)) == hash(make_spec("f", b=2, a=1))

    def test_specs_with_config_are_hashable_and_stable(self):
        a = irregular_spec("linked_list", TABLE2, TINY, "small",
                           READ_INTENSIVE.name, "versioned", 4)
        b = irregular_spec("linked_list", TABLE2, TINY, "small",
                           READ_INTENSIVE.name, "versioned", 4)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_unknown_sweep_function_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep function"):
            execute(make_spec("nope"))


class TestStatsView:
    def test_attribute_access_and_roundtrip(self):
        spec = _fig6_slice(TINY)[0]
        result = execute(spec)
        assert result.stats.tasks_finished > 0
        assert 0.0 <= result.stats.l1_hit_rate <= 1.0
        back = RunResult.from_json(json.loads(json.dumps(result.to_json())))
        assert back.cycles == result.cycles
        assert back.stats == result.stats


class TestDeterminism:
    def test_parallel_rows_byte_identical_to_serial(self):
        """Figure 6 slice: 2 pool workers vs in-process, same bytes."""
        specs = _fig6_slice(TINY)
        serial = SweepRunner(jobs=1, use_cache=False).run(specs)
        parallel = SweepRunner(jobs=2, use_cache=False).run(specs)
        assert _dumps(serial) == _dumps(parallel)

    def test_fig6_experiment_identical_across_runners(self):
        a = fig6_speedup(TINY, runner=SweepRunner(jobs=1, use_cache=False))
        b = fig6_speedup(TINY, runner=SweepRunner(jobs=2, use_cache=False))
        assert a["rows"] == b["rows"]
        assert a["text"] == b["text"]


class TestCache:
    def test_cache_hit_returns_same_rows_without_simulating(self, tmp_path):
        specs = _fig6_slice(TINY)[:4]
        cold = SweepRunner(jobs=1, cache_dir=tmp_path, use_cache=True)
        cold_rows = cold.run(specs)
        assert cold.stats.simulated == len(specs)
        assert cold.stats.cache_hits == 0

        warm = SweepRunner(jobs=1, cache_dir=tmp_path, use_cache=True)
        warm_rows = warm.run(specs)
        assert warm.stats.simulated == 0
        assert warm.stats.cache_hits == len(specs)
        assert _dumps(cold_rows) == _dumps(warm_rows)

    def test_warm_figure_rerun_executes_zero_simulations(self, tmp_path):
        runner = SweepRunner(jobs=1, cache_dir=tmp_path, use_cache=True)
        first = gc_overhead(TINY, runner=runner)
        assert runner.stats.simulated == 3

        before = runner.stats.snapshot()
        second = gc_overhead(TINY, runner=runner)
        delta = runner.stats.since(before)
        assert delta.simulated == 0
        assert delta.cache_hits == 3
        assert first["rows"] == second["rows"]

    def test_corrupted_cache_file_is_a_miss(self, tmp_path):
        spec = _fig6_slice(TINY)[0]
        cache = ResultCache(tmp_path)
        assert cache.load(spec) is None
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_text("not json{")
        assert cache.load(spec) is None

    def test_cache_keyed_by_code_version(self, tmp_path):
        spec = _fig6_slice(TINY)[0]
        result = execute(spec)
        old = ResultCache(tmp_path, version="aaaa")
        old.store(spec, result)
        assert old.load(spec) is not None
        assert ResultCache(tmp_path, version="bbbb").load(spec) is None
        assert code_version() == code_version()  # memoised, stable

    def test_spec_digest_depends_on_fused_flag(self, tmp_path):
        # Rows produced by the two execution tiers must never alias:
        # ``config.fused`` is part of the spec repr and hence the digest.
        base = irregular_spec("linked_list", TABLE2, TINY, "small", "4R-1W", "versioned", 1)
        hatch = irregular_spec(
            "linked_list",
            TABLE2.with_fused(False),
            TINY,
            "small",
            "4R-1W",
            "versioned",
            1,
        )
        assert repr(base) != repr(hatch)
        cache = ResultCache(tmp_path)
        assert cache.path_for(base) != cache.path_for(hatch)

    def test_duplicate_specs_simulated_once(self):
        spec = _fig6_slice(TINY)[0]
        runner = SweepRunner(jobs=1, use_cache=False)
        results = runner.run([spec, spec, spec])
        assert runner.stats.simulated == 1
        assert runner.stats.deduped == 2
        assert results[0] is results[1] is results[2]


class TestEnvironment:
    def test_jobs_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert SweepRunner(use_cache=False).jobs == 3

    def test_invalid_jobs_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "zero")
        with pytest.raises(ConfigError):
            SweepRunner(use_cache=False)
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ConfigError):
            SweepRunner(use_cache=False)
        with pytest.raises(ConfigError):
            SweepRunner(jobs=0, use_cache=False)

    def test_cache_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert SweepRunner(jobs=1).cache is None
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", "unused-but-harmless")
        assert SweepRunner(jobs=1).cache is not None
