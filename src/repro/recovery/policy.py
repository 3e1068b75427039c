"""Crash auto-recovery: restore the latest checkpoint and replay.

:class:`RecoveryPolicy` turns a dying simulation into a restartable one.
It owns a checkpoint directory and wraps a *run function* (anything that
builds a machine internally — the sweep entry points, a workload
variant): each attempt attaches a
:class:`~repro.recovery.checkpoint.Checkpointer` to the machine through
the machine-observer registry, loads whatever valid images a previous
incarnation left behind, and replays under digest *verification* up to
the last surviving marker, capturing new images beyond it.

When an injected ``crash-machine`` fault (or anything else raising
:class:`~repro.errors.MachineCrash`) kills the run, the policy restores:
it strips the crash faults that already fired from the config — the
crash happened; replaying it forever would loop — and re-runs.  The
replayed run verifies byte-identical state at every surviving marker and
then continues to completion, so the final stats and trace are exactly
what an uninterrupted run produces.  Corrupt images (the
``corrupt-block`` fault) are detected by their CRC at load time, counted,
and skipped — recovery falls back to the previous valid image and
re-verifies/re-captures from there.

Recovery is *observable*: the first marker of a restored run fires a
``recovery`` event (``"restore"``) on ``machine.events``, so a
:class:`repro.obs.SpanRecorder` shows restores on the same track as
watchdog recoveries, and the returned :class:`RecoveryReport` carries
the counters.
"""

from __future__ import annotations

import dataclasses
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..errors import MachineCrash
from .checkpoint import Checkpointer, load_images


@dataclass
class RecoveryReport:
    """What one :meth:`RecoveryPolicy.execute` call went through."""

    #: Crashes caught (== restores performed when the run completed).
    crashes: int = 0
    #: Restores performed (crashes that were followed by a re-run).
    restores: int = 0
    #: Images skipped because magic/CRC validation failed.
    corrupt_images: int = 0
    #: Marker each restore resumed verification from (0 = from scratch).
    restore_markers: list[int] = field(default_factory=list)
    #: Markers whose digest was verified against a surviving image.
    verified_markers: int = 0
    #: Fresh images written across all attempts.
    captured_images: int = 0
    #: Did the final attempt run to completion?
    completed: bool = False

    def describe(self) -> str:
        frontier = (
            ", ".join(f"marker {m}" for m in self.restore_markers) or "none"
        )
        return (
            f"crashes={self.crashes} restores={self.restores} "
            f"(from: {frontier}), markers verified={self.verified_markers}, "
            f"images captured={self.captured_images}, "
            f"corrupt images skipped={self.corrupt_images}, "
            f"completed={self.completed}"
        )


class RecoveryPolicy:
    """Run-to-completion under crash faults, restoring from checkpoints."""

    def __init__(
        self,
        directory: str | Path,
        every: int,
        *,
        max_restores: int = 4,
    ):
        self.directory = Path(directory)
        self.every = int(every)
        self.max_restores = max_restores

    def execute(
        self,
        run_fn: Callable[[Any], Any],
        config: Any,
    ) -> tuple[Any, RecoveryReport]:
        """Call ``run_fn(config)`` with checkpointing; restore on crash.

        ``run_fn`` must build its machine(s) *during* the call (every
        workload entry point does) so the checkpointer can attach via
        the machine-observer registry.  Returns ``(result, report)``;
        re-raises :class:`MachineCrash` once the restore budget is
        exhausted, and propagates every other exception untouched.
        """
        from ..sim.machine import add_machine_observer, remove_machine_observer

        report = RecoveryReport()
        cfg = config
        while True:
            images, corrupt = load_images(self.directory, every=self.every)
            report.corrupt_images += corrupt
            announce = None
            if report.restores:
                restore_marker = max(images) if images else 0
                report.restore_markers.append(restore_marker)
                announce = {
                    "marker": restore_marker,
                    "restore": report.restores,
                }
            state: dict = {}

            def observe(machine, _state=state, _imgs=images, _ann=announce):
                if "ckpt" not in _state:
                    _state["ckpt"] = Checkpointer(
                        machine,
                        self.directory,
                        self.every,
                        verify=_imgs,
                        announce=_ann,
                    )

            add_machine_observer(observe)
            try:
                result = run_fn(cfg)
            except MachineCrash as exc:
                report.crashes += 1
                if report.restores >= self.max_restores:
                    raise
                report.restores += 1
                cfg = self._strip_fired_crashes(cfg, exc.op_index)
                continue
            finally:
                remove_machine_observer(observe)
                ckpt = state.get("ckpt")
                if ckpt is not None:
                    ckpt.detach()
                    report.verified_markers += len(ckpt.verified)
                    report.captured_images += len(ckpt.captured)
            report.completed = True
            return result, report

    @staticmethod
    def _strip_fired_crashes(config: Any, op_index: int) -> Any:
        """Drop crash faults that already fired from a machine config.

        A crash at op N happened in the *environment*; the restored run
        must not re-inject it or recovery would loop.  Later crash
        faults (``at > op_index``) are kept: multiple crashes during one
        run are a legitimate chaos scenario.
        """
        faults = getattr(config, "faults", ())
        kept = tuple(
            f
            for f in faults
            if not (f.kind == "crash-machine" and f.at <= op_index)
        )
        if len(kept) == len(faults):
            return config
        return dataclasses.replace(config, faults=kept)

    def clean(self) -> None:
        """Delete the checkpoint directory (after a verified success)."""
        shutil.rmtree(self.directory, ignore_errors=True)
