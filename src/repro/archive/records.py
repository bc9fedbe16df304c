"""The archive's index-record schema: one line per archived HTTP exchange.

Two roles share the schema:

``exchange``
    A response (or transport failure) exactly as observed on the wire —
    recorded by the client *before* retry, timeout, or redirect handling
    touches it.  Intermediate 503s, truncated bodies, robots.txt
    fetches: all of them land here as observed, never as repaired.

``outcome``
    What one top-level :meth:`HttpClient.request` call delivered to its
    caller — the final response after redirects and retries, or the
    error it raised.  The per-client outcome sequence is the replay
    script: :mod:`repro.archive.replay` feeds it back to the crawlers
    verbatim.

Serialization is :func:`~repro.util.jsonl.dump_line` over a fixed field
set (sorted keys, compact separators), so two same-seed runs write
byte-identical index lines.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional

from repro.util.jsonl import dump_line

ROLE_EXCHANGE = "exchange"
ROLE_OUTCOME = "outcome"


class ArchiveError(Exception):
    """An archive directory is missing, unsealed, corrupt, or misused."""


@dataclass
class ExchangeRecord:
    """One archived HTTP exchange (see module docstring for roles)."""

    seq: int
    role: str  # ROLE_EXCHANGE | ROLE_OUTCOME
    phase: str  # "iteration_0000", ..., "post_collection"
    client: str  # HttpClient.client_id
    method: str
    url: str
    params: Dict[str, str] = field(default_factory=dict)
    form: Dict[str, str] = field(default_factory=dict)
    #: Response fields (None/empty when the exchange was an error).
    status: Optional[int] = None
    sha256: Optional[str] = None
    size: int = 0
    headers: Dict[str, str] = field(default_factory=dict)
    set_cookies: Dict[str, str] = field(default_factory=dict)
    response_url: str = ""
    elapsed: float = 0.0
    #: Simulated clock when the exchange completed.
    sim_at: float = 0.0
    #: Error the exchange/outcome surfaced instead of a response:
    #: ``{"type": "RequestTimeout", "message": "..."}``.
    error: Optional[Dict[str, str]] = None
    #: Free-form observation flag: "", "robots", "timeout_discarded".
    note: str = ""

    @property
    def is_response(self) -> bool:
        return self.status is not None

    def to_json(self) -> str:
        """The record's index line, without its newline."""
        return dump_line(asdict(self))[:-1]

    @classmethod
    def from_dict(cls, payload: dict) -> "ExchangeRecord":
        if not isinstance(payload, dict):
            raise TypeError(
                f"expected a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})


__all__ = ["ArchiveError", "ExchangeRecord", "ROLE_EXCHANGE", "ROLE_OUTCOME"]
