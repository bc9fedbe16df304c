"""``repro monitor status``: what a monitor state directory holds.

Read-only: replays the schedule ledger into per-cycle states, reads
the lock file and registry, and surfaces the latest cycle's alert
report — the at-a-glance view an operator checks before blaming the
daemon for anything.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

from repro.monitor.daemon import CYCLES_DIRNAME, run_id_for_cycle
from repro.monitor.ledger import LEDGER_FILENAME, ScheduleLedger
from repro.monitor.lock import LOCK_FILENAME, default_pid_alive
from repro.obs.alerts import ALERTS_FILENAME, alerts_section
from repro.obs.registry import REGISTRY_FILENAME, RegistryError, RunRegistry
from repro.obs.summary import format_text


def _lock_line(state_dir: str) -> str:
    path = os.path.join(state_dir, LOCK_FILENAME)
    if not os.path.exists(path):
        return "lock: free"
    try:
        with open(path, "r", encoding="utf-8") as handle:
            pid = int(handle.read().strip())
    except (OSError, ValueError):
        return "lock: held (unreadable owner)"
    alive = default_pid_alive(pid)
    return f"lock: held by pid {pid} ({'alive' if alive else 'STALE — dead owner'})"


def _registry_line(state_dir: str) -> str:
    path = os.path.join(state_dir, REGISTRY_FILENAME)
    if not os.path.exists(path):
        return "registry: none yet"
    try:
        with RunRegistry.open_existing(path) as registry:
            rows = registry.runs()
    except RegistryError as exc:
        return f"registry: UNREADABLE ({exc})"
    return f"registry: {len(rows)} run(s) ingested"

def _latest_alert_lines(state_dir: str,
                        ledger: ScheduleLedger) -> List[str]:
    live = ledger.live_ingested_cycles()
    if not live:
        return []
    cycle = live[-1]
    path = os.path.join(state_dir, CYCLES_DIRNAME, run_id_for_cycle(cycle),
                        ALERTS_FILENAME)
    if not os.path.exists(path):
        return []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except (OSError, ValueError):
        return [f"alerts ({run_id_for_cycle(cycle)}): unreadable"]
    return format_text([alerts_section(report)]).splitlines()


def render_status(state_dir: str) -> str:
    """The human status view of one monitor state directory."""
    ledger = ScheduleLedger.read(os.path.join(state_dir, LEDGER_FILENAME))
    states = ledger.cycle_states()
    lines = [
        f"monitor state dir {state_dir}",
        f"series config hash: {ledger.header.get('config_hash')}",
        _lock_line(state_dir),
        _registry_line(state_dir),
    ]
    counts = {}
    for state in states.values():
        counts[state.status] = counts.get(state.status, 0) + 1
    if counts:
        summary = ", ".join(
            f"{count} {status}" for status, count in sorted(counts.items())
        )
        lines.append(f"cycles: {len(states)} recorded ({summary})")
    else:
        lines.append("cycles: none recorded yet")
    for cycle in sorted(states):
        state = states[cycle]
        flags = []
        if state.quarantined:
            flags.append("quarantined-partial")
        if state.retired:
            flags.append("retired")
        extra: Optional[str] = None
        if state.status == "ingested":
            extra = (f"seq {state.detail.get('seq')}, "
                     f"{state.detail.get('alerts', 0)} alert(s)")
        elif state.status == "failed":
            extra = state.detail.get("reason")
        elif state.status == "skipped":
            extra = state.detail.get("reason")
        elif state.torn:
            extra = "TORN — daemon died mid-cycle"
        parts = [f"  {run_id_for_cycle(cycle)}: {state.status}"]
        if extra:
            parts.append(f"({extra})")
        if flags:
            parts.append(f"[{', '.join(flags)}]")
        lines.append(" ".join(parts))
    lines.extend(_latest_alert_lines(state_dir, ledger))
    return "\n".join(lines)


__all__ = ["render_status"]
