"""The schedule ledger: durability, torn-tail tolerance, state replay."""

import json
import os

import pytest

from repro.monitor.errors import MonitorError
from repro.monitor.ledger import ScheduleLedger
from repro.obs.schemas import MONITOR_LEDGER_SCHEMA


@pytest.fixture()
def path(tmp_path):
    return str(tmp_path / "ledger.jsonl")


class TestOpenAndHeader:
    def test_create_writes_header(self, path):
        ScheduleLedger.open(path, "abc123")
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        header = json.loads(lines[0])
        assert header["schema"] == MONITOR_LEDGER_SCHEMA
        assert header["config_hash"] == "abc123"

    def test_reopen_same_config(self, path):
        first = ScheduleLedger.open(path, "abc123")
        first.append({"cycle": 0, "status": "planned"})
        second = ScheduleLedger.open(path, "abc123")
        assert second.entries == [{"cycle": 0, "status": "planned"}]

    def test_reopen_different_config_refuses(self, path):
        ScheduleLedger.open(path, "abc123")
        with pytest.raises(MonitorError, match="refusing to mix"):
            ScheduleLedger.open(path, "other")

    def test_wrong_schema_refuses(self, path):
        with open(path, "w") as handle:
            handle.write(json.dumps({"schema": "bogus/v9",
                                     "config_hash": "abc123"}) + "\n")
        with pytest.raises(MonitorError, match="schema"):
            ScheduleLedger.open(path, "abc123")

    def test_read_skips_config_validation(self, path):
        ScheduleLedger.open(path, "abc123")
        ledger = ScheduleLedger.read(path)
        assert ledger.header["config_hash"] == "abc123"

    def test_read_missing_file(self, path):
        with pytest.raises(MonitorError, match="no monitor ledger"):
            ScheduleLedger.read(path)

    def test_empty_file_is_headerless(self, path):
        open(path, "w").close()
        with pytest.raises(MonitorError, match="no header"):
            ScheduleLedger.open(path, "abc123")


class TestDurability:
    def test_append_survives_reload(self, path):
        ledger = ScheduleLedger.open(path, "h")
        ledger.append({"cycle": 0, "status": "planned"})
        ledger.append({"cycle": 0, "status": "running", "attempt": 1})
        reloaded = ScheduleLedger.open(path, "h")
        assert len(reloaded.entries) == 2

    def test_torn_final_line_is_dropped(self, path):
        ledger = ScheduleLedger.open(path, "h")
        ledger.append({"cycle": 0, "status": "planned"})
        with open(path, "a") as handle:
            handle.write('{"cycle":0,"status":"run')  # crash mid-append
        reloaded = ScheduleLedger.open(path, "h")
        assert reloaded.entries == [{"cycle": 0, "status": "planned"}]

    def test_append_after_torn_tail_stays_readable(self, path):
        # Restart after a crash mid-append: the next append must land
        # after the last complete line, not on the torn bytes.
        ledger = ScheduleLedger.open(path, "h")
        ledger.append({"cycle": 0, "status": "planned"})
        with open(path, "a") as handle:
            handle.write('{"cycle":0,"status":"run')  # crash mid-append
        ScheduleLedger.open(path, "h").append(
            {"cycle": 0, "status": "quarantined"})
        content = open(path).read()
        assert content.endswith("\n")
        assert all(json.loads(line) for line in content.splitlines())
        assert ScheduleLedger.open(path, "h").entries == [
            {"cycle": 0, "status": "planned"},
            {"cycle": 0, "status": "quarantined"},
        ]

    def test_corrupt_middle_line_is_fatal(self, path):
        ledger = ScheduleLedger.open(path, "h")
        ledger.append({"cycle": 0, "status": "planned"})
        with open(path, "a") as handle:
            handle.write("GARBAGE\n")
        ledger2 = ScheduleLedger(path, {})
        ledger2._append_line({"cycle": 1, "status": "planned"})
        with pytest.raises(MonitorError, match="corrupt ledger line"):
            ScheduleLedger.open(path, "h")

    def test_unknown_status_rejected(self, path):
        ledger = ScheduleLedger.open(path, "h")
        with pytest.raises(MonitorError, match="unknown ledger status"):
            ledger.append({"cycle": 0, "status": "exploded"})

    def test_append_is_canonical_json(self, path):
        ledger = ScheduleLedger.open(path, "h")
        ledger.append({"cycle": 0, "status": "planned", "a": 1})
        last = open(path).read().splitlines()[-1]
        assert last == '{"a":1,"cycle":0,"status":"planned"}'


class TestStateReplay:
    def _ledger(self, path):
        return ScheduleLedger.open(path, "h")

    def test_lifecycle(self, path):
        ledger = self._ledger(path)
        ledger.append({"cycle": 0, "status": "planned"})
        ledger.append({"cycle": 0, "status": "running", "attempt": 1})
        ledger.append({"cycle": 0, "status": "ingested", "attempts": 1,
                       "run_id": "cycle-000000", "seq": 1})
        state = ledger.cycle_states()[0]
        assert state.status == "ingested"
        assert state.terminal
        assert not state.torn
        assert state.detail["run_id"] == "cycle-000000"

    def test_torn_cycle_detection(self, path):
        ledger = self._ledger(path)
        ledger.append({"cycle": 0, "status": "planned"})
        ledger.append({"cycle": 0, "status": "running", "attempt": 1})
        assert ledger.torn_cycles() == [0]
        assert ledger.cycle_states()[0].torn

    def test_quarantine_then_replan_resets_attempts(self, path):
        ledger = self._ledger(path)
        ledger.append({"cycle": 0, "status": "planned"})
        ledger.append({"cycle": 0, "status": "running", "attempt": 1})
        ledger.append({"cycle": 0, "status": "quarantined"})
        state = ledger.cycle_states()[0]
        assert state.quarantined
        assert state.attempts == 0
        assert not state.torn
        ledger.append({"cycle": 0, "status": "planned"})
        ledger.append({"cycle": 0, "status": "running", "attempt": 1})
        assert ledger.cycle_states()[0].attempts == 1

    def test_retired_flag_survives(self, path):
        ledger = self._ledger(path)
        ledger.append({"cycle": 0, "status": "planned"})
        ledger.append({"cycle": 0, "status": "running", "attempt": 1})
        ledger.append({"cycle": 0, "status": "ingested", "attempts": 1})
        ledger.append({"cycle": 0, "status": "retired"})
        state = ledger.cycle_states()[0]
        assert state.status == "ingested"
        assert state.retired
        assert ledger.live_ingested_cycles() == []

    def test_terminal_and_live_views(self, path):
        ledger = self._ledger(path)
        for cycle, status in ((0, "ingested"), (1, "failed"),
                              (2, "skipped"), (3, "ingested")):
            ledger.append({"cycle": cycle, "status": "planned"})
            ledger.append({"cycle": cycle, "status": "running",
                           "attempt": 1})
            ledger.append({"cycle": cycle, "status": status, "attempts": 1})
        assert ledger.terminal_cycles() == [0, 1, 2, 3]
        assert ledger.terminal_cycles("failed") == [1]
        assert ledger.live_ingested_cycles() == [0, 3]
