"""Index-record schema: serialization determinism and round-trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archive.records import ROLE_EXCHANGE, ROLE_OUTCOME, ExchangeRecord

_labels = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)
_small_maps = st.dictionaries(_labels, _labels, max_size=4)


def _records() -> st.SearchStrategy:
    return st.builds(
        ExchangeRecord,
        seq=st.integers(min_value=0, max_value=10**6),
        role=st.sampled_from([ROLE_EXCHANGE, ROLE_OUTCOME]),
        phase=st.sampled_from(["iteration_0000", "iteration_0013", "post_collection"]),
        client=st.sampled_from(["crawler", "manual-analyst"]),
        method=st.sampled_from(["GET", "POST"]),
        url=_labels,
        params=_small_maps,
        form=_small_maps,
        status=st.one_of(st.none(), st.integers(min_value=100, max_value=599)),
        sha256=st.one_of(st.none(), st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)),
        size=st.integers(min_value=0, max_value=10**9),
        headers=_small_maps,
        set_cookies=_small_maps,
        response_url=_labels,
        elapsed=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        sim_at=st.floats(min_value=0, max_value=1e9, allow_nan=False),
        error=st.one_of(
            st.none(),
            st.fixed_dictionaries({"type": _labels, "message": _labels}),
        ),
        note=st.sampled_from(["", "robots", "timeout_discarded"]),
    )


class TestRoundTrip:
    @given(record=_records())
    @settings(max_examples=80, deadline=None)
    def test_json_round_trip_preserves_every_field(self, record):
        assert ExchangeRecord.from_dict(json.loads(record.to_json())) == record

    @given(record=_records())
    @settings(max_examples=40, deadline=None)
    def test_serialization_is_deterministic(self, record):
        # Sorted keys, fixed field set: the same record always produces
        # the same bytes, which is what makes index files hashable.
        assert record.to_json() == record.to_json()
        assert list(json.loads(record.to_json())) == sorted(
            json.loads(record.to_json())
        )


class TestSchemaEvolution:
    def test_unknown_keys_are_dropped(self):
        line = ExchangeRecord(
            seq=3, role=ROLE_OUTCOME, phase="iteration_0000",
            client="crawler", method="GET", url="http://a.example/x",
        ).to_json()
        payload = json.loads(line)
        payload["future_field"] = {"nested": True}
        record = ExchangeRecord.from_dict(payload)
        assert record.seq == 3 and record.url == "http://a.example/x"
        assert not hasattr(record, "future_field")

    def test_non_object_line_raises(self):
        with pytest.raises(TypeError):
            ExchangeRecord.from_dict(json.loads('["not", "an", "object"]'))

    def test_is_response_tracks_status(self):
        record = ExchangeRecord(
            seq=0, role=ROLE_EXCHANGE, phase="p", client="c",
            method="GET", url="u",
        )
        assert not record.is_response
        record.status = 200
        assert record.is_response
