"""The shared JSONL framing: one encoding, one torn-tail rule, atomic
whole-file streams and self-repairing append logs."""

import errno
import os

import pytest

from repro.obs.events import EventLog
from repro.util.jsonl import (
    DiskFullError,
    DiskWriteError,
    RecordLog,
    dump_line,
    read_records,
    split_lines,
    write_records,
)


class _TornFaults:
    """A stub fault injector: the next ``failures`` writes land half
    their text and then raise ``error``."""

    def __init__(self, error: OSError, failures: int = 0) -> None:
        self.error = error
        self.failures = failures

    def write(self, handle, path, text, data=False):
        if self.failures:
            self.failures -= 1
            handle.write(text[:len(text) // 2])
            raise self.error
        handle.write(text)

    def fsync(self, path, fileno):
        os.fsync(fileno)


class TestEncoding:
    def test_dump_line_is_sorted_compact_and_terminated(self):
        assert dump_line({"b": [1, 2], "a": {"y": None, "x": "é"}}) == \
            '{"a":{"x":"\\u00e9","y":null},"b":[1,2]}\n'


class TestSplitLines:
    def test_empty_payload(self):
        assert split_lines(b"") == ([], b"")

    def test_blank_lines_are_kept_as_lines(self):
        assert split_lines(b'{"a":1}\n\n{"b":2}\n') == \
            ([b'{"a":1}', b"", b'{"b":2}'], b"")

    def test_torn_tail_is_the_bytes_after_the_last_newline(self):
        assert split_lines(b'{"a":1}\n{"b":2}') == ([b'{"a":1}'], b'{"b":2}')
        assert split_lines(b'{"a"') == ([], b'{"a"')


class TestWholeFileStreams:
    def test_round_trip_skips_blank_lines(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        write_records(path, [{"a": 1}, {"b": [2]}])
        assert open(path, "rb").read() == b'{"a":1}\n{"b":[2]}\n'
        with open(path, "a") as handle:
            handle.write("\n")
        assert read_records(path) == [{"a": 1}, {"b": [2]}]

    def test_read_raises_on_torn_tail(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":2}')
        with pytest.raises(ValueError, match="torn"):
            read_records(str(path))

    def test_read_raises_on_non_object_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"a":1}\n[1,2]\n')
        with pytest.raises(ValueError, match="not an object"):
            read_records(str(path))

    def test_failed_encode_leaves_target_untouched(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        write_records(path, [{"a": 1}])
        with pytest.raises(TypeError):
            write_records(path, [{"a": 2}, {"b": {1, 2}}])
        assert open(path, "rb").read() == b'{"a":1}\n'
        assert os.listdir(tmp_path) == ["r.jsonl"]


class TestRecordLog:
    def test_open_truncates_torn_tail(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"a":1}\n{"b":')
        with RecordLog(str(path)) as log:
            assert log.size == 8
            assert path.read_bytes() == b'{"a":1}\n'
            assert log.append({"c": 3}) == b'{"c":3}\n'
            log.sync()
        assert read_records(str(path)) == [{"a": 1}, {"c": 3}]

    def test_torn_write_is_truncated_back_and_retried_once(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        events = EventLog()
        faults = _TornFaults(DiskWriteError("injected torn write"))
        with RecordLog(path, faults=faults, events=events) as log:
            log.append({"a": 1})
            faults.failures = 1
            log.append({"b": 2})
            assert log.size == 16
        assert open(path, "rb").read() == b'{"a":1}\n{"b":2}\n'
        assert events.counts_by_kind() == {"log.write_retry": 1}
        assert events.events[0].fields["file"] == "log.jsonl"

    def test_enospc_raises_disk_full_at_last_complete_line(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        events = EventLog()
        faults = _TornFaults(OSError(errno.ENOSPC, "no space left"))
        with RecordLog(path, faults=faults, events=events) as log:
            log.append({"a": 1})
            faults.failures = 1
            with pytest.raises(DiskFullError):
                log.append({"b": 2})
            assert open(path, "rb").read() == b'{"a":1}\n'
            log.append({"c": 3})  # the log stays usable
        assert read_records(path) == [{"a": 1}, {"c": 3}]
        assert len(events) == 0

    def test_second_failure_raises_disk_write_error(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        events = EventLog()
        faults = _TornFaults(DiskWriteError("injected torn write"))
        with RecordLog(path, faults=faults, events=events) as log:
            log.append({"a": 1})
            faults.failures = 2
            with pytest.raises(DiskWriteError, match="failed twice"):
                log.append({"b": 2})
        assert open(path, "rb").read() == b'{"a":1}\n'
        assert events.counts_by_kind() == {"log.write_retry": 1}
