"""The ``repro bench --compare`` gate, driven with stub probes.

The real probes take seconds and their scores depend on the host; these
tests swap in instant, fixed-score probes and a fixed calibration so
each verdict of :func:`repro.perf.compare` is deterministic.
"""

from __future__ import annotations

import json

import pytest

from repro import perf

#: Calibration ops/s the stubs are normalised by.
CALIBRATION = 100.0


def _stub(units: int):
    """A probe scoring ``units`` per second, i.e. ``units / CALIBRATION``."""
    return lambda: (units, 1.0)


@pytest.fixture
def stubs(monkeypatch):
    probes = {"alpha": (_stub(100), "ops"), "beta": (_stub(300), "ops")}
    monkeypatch.setattr(perf, "PROBES", probes)
    monkeypatch.setattr(perf, "calibrate", lambda: CALIBRATION)
    return probes


def _baseline(tmp_path, normalized: dict[str, float]):
    path = tmp_path / "baselines.json"
    path.write_text(json.dumps({
        "calibration_ops_per_s": CALIBRATION,
        "probes": {name: {"normalized": v} for name, v in normalized.items()},
    }))
    return path


def _verdicts(report: str) -> dict[str, str]:
    rows = report.splitlines()[1:-1]
    return {row.split()[0]: row for row in rows}


def test_recorded_baseline_compares_ok(stubs, tmp_path):
    path = tmp_path / "baselines.json"
    perf.record(path)
    ok, report = perf.compare(path)
    assert ok, report
    assert all(row.endswith("ok") for row in _verdicts(report).values())


def test_regressed_probe_fails(stubs, tmp_path):
    # alpha scores 1.0 against a baseline of 2.0: a 50% drop, and the
    # retries re-measure the same stub, so it stays regressed.
    ok, report = perf.compare(_baseline(tmp_path, {"alpha": 2.0, "beta": 3.0}))
    assert not ok
    rows = _verdicts(report)
    assert rows["alpha"].endswith("REGRESSED")
    assert rows["beta"].endswith("ok")


def test_drop_within_tolerance_passes(stubs, tmp_path):
    ok, report = perf.compare(
        _baseline(tmp_path, {"alpha": 1.2, "beta": 3.0}), tolerance=0.25
    )
    assert ok, report


def test_probe_missing_from_baseline_fails(stubs, tmp_path):
    ok, report = perf.compare(_baseline(tmp_path, {"alpha": 1.0}))
    assert not ok
    assert _verdicts(report)["beta"].endswith("MISSING FROM BASELINE")


def test_baselined_probe_missing_from_probes_fails(stubs, tmp_path):
    # A probe deleted from PROBES but still in the baseline would
    # otherwise drop out of the gate without a word.
    ok, report = perf.compare(
        _baseline(tmp_path, {"alpha": 1.0, "beta": 3.0, "gamma": 5.0})
    )
    assert not ok
    rows = _verdicts(report)
    assert rows["gamma"].endswith("MISSING FROM PROBES")
    assert rows["alpha"].endswith("ok") and rows["beta"].endswith("ok")


def test_no_baseline_fails(stubs, tmp_path):
    ok, report = perf.compare(tmp_path / "absent.json")
    assert not ok
    assert "no baseline" in report
