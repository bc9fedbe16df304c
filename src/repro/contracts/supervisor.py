"""Stage supervision: isolation boundaries around analysis stages.

A multi-iteration study must not die because one analysis stage hit a
record shape it could not digest.  :class:`StageSupervisor` makes one
attempt at each stage invocation: an error becomes a typed
:class:`StageFailure` recorded on the supervisor and the stage's report
degrades to ``None`` — the run continues.  Stages are deterministic
functions of the dataset, so a second attempt would fail the same way.

Supervisor decisions are pure functions of the stage callables and the
(seeded, deterministic) dataset, so a resumed run replays the exact same
``stage.*`` events and failures as an uninterrupted one.

``fail_stages`` injects a deterministic failure into named stages — the
CLI's ``--fail-stage`` flag uses it for degraded-run drills.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


class InjectedStageError(RuntimeError):
    """Deliberate failure injected via ``fail_stages`` / ``--fail-stage``."""


@dataclass
class StageFailure:
    """Typed record of one supervised stage that did not produce a report.

    ``attempts`` and ``disposition`` are fields of manifests, traces and
    registry documents; the supervisor always writes 1 and "skipped".
    """

    stage: str
    kind: str  # exception class name
    detail: str
    attempts: int = 1
    disposition: str = "skipped"

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "kind": self.kind,
            "detail": self.detail,
            "attempts": self.attempts,
            "disposition": self.disposition,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StageFailure":
        return cls(
            stage=data["stage"],
            kind=data.get("kind", "Exception"),
            detail=data.get("detail", ""),
            attempts=data.get("attempts", 1),
            disposition=data.get("disposition", "skipped"),
        )


class StageSupervisor:
    """Runs stage callables inside an isolation boundary.

    Collected :class:`StageFailure`s land in ``failures`` in execution
    order.  With ``strict=True`` the first stage failure propagates
    instead — CI uses this to prove a healthy pipeline has none.
    """

    def __init__(self, telemetry=None, strict: bool = False,
                 fail_stages: Tuple[str, ...] = ()) -> None:
        self.strict = strict
        self.fail_stages = tuple(fail_stages)
        self.failures: List[StageFailure] = []
        self._telemetry = telemetry
        self._failures_metric = None
        if telemetry is not None:
            self._failures_metric = telemetry.metrics.counter(
                "stage_failures_total",
                "supervised stages that degraded instead of reporting",
                labels=("stage", "kind"),
            )

    def failure_for(self, stage: str) -> Optional[StageFailure]:
        for failure in self.failures:
            if failure.stage == stage:
                return failure
        return None

    def run(self, stage: str, fn: Callable, *args, **kwargs):
        """Invoke ``fn(*args, **kwargs)`` under supervision.

        Returns the stage's report, or ``None`` when the stage failed
        and was degraded.
        """
        try:
            if stage in self.fail_stages:
                raise InjectedStageError(
                    f"stage {stage!r} failed by --fail-stage injection"
                )
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the boundary itself
            failure = StageFailure(
                stage=stage, kind=type(exc).__name__, detail=str(exc),
            )
            self.failures.append(failure)
            if self._failures_metric is not None:
                self._failures_metric.inc(stage=stage, kind=failure.kind)
            self._emit("stage.failed", "error", stage=stage,
                       error_kind=failure.kind, detail=failure.detail,
                       attempts=failure.attempts)
            if self.strict:
                raise
            return None
        self._emit("stage.ok", "debug", stage=stage, attempts=1)
        return result

    def _emit(self, kind: str, level: str, **fields) -> None:
        if self._telemetry is not None:
            self._telemetry.events.emit(kind, level=level, **fields)


__all__ = ["InjectedStageError", "StageFailure", "StageSupervisor"]
