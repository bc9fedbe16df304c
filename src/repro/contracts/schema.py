"""Record contracts: per-record-type field schemas with dispositions.

Everything downstream of extraction — the nine analysis stages, the NLP
pipeline, the scorecard — assumes records are well-shaped.  This module
is the boundary that makes the assumption true: every record type in
:mod:`repro.core.dataset` gets a contract declaring its field types,
value ranges, well-formedness rules (URL / ISO date), and cross-field
invariants (``first_seen_iteration <= last_seen_iteration``).

Each violation carries one of three dispositions:

* **repair** — deterministic normalization: coerce numeric strings,
  clamp out-of-range counts, strip control characters, truncate
  oversized text.  Counted, not flagged on the record.
* **degrade** — null the offending field and append a
  ``contract:<rule>`` flag to the record's provenance trail, so
  analyses see an honest ``None`` instead of garbage.
* **quarantine** — the record is unusable (identity field missing or
  malformed): it leaves the dataset for the dead-letter store with a
  machine-readable rule.

Validation is a single linear pass and is deterministic: same records
in, same repairs/degrades/quarantines out, byte-for-byte.
"""

from __future__ import annotations

import datetime as _dt
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.dataset import (
    ListingRecord,
    MeasurementDataset,
    PostRecord,
    ProfileRecord,
    SellerRecord,
    UndergroundRecord,
    add_provenance,
    record_to_dict,
)
from repro.contracts.quarantine import QuarantineStore

#: The three dispositions a violated rule can carry.
REPAIR = "repair"
DEGRADE = "degrade"
QUARANTINE = "quarantine"

#: Control characters stripped from text fields (tab/newline survive:
#: post bodies legitimately contain them).
_CONTROL_RE = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f]")

#: Hard cap applied to any text field without an explicit ``max_len``;
#: an oversized string is an extraction bug, not data.
DEFAULT_MAX_LEN = 20_000


def strip_control_chars(text: str) -> str:
    return _CONTROL_RE.sub("", text)


def is_well_formed_url(value: str) -> bool:
    """http(s) URL with a non-empty host."""
    if not value.startswith(("http://", "https://")):
        return False
    rest = value.split("://", 1)[1]
    host = rest.split("/", 1)[0]
    return bool(host) and " " not in value


def is_well_formed_iso_date(value: str) -> bool:
    try:
        _dt.date.fromisoformat(value)
    except (TypeError, ValueError):
        return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Schema of one record field.

    ``kind`` is one of ``str`` / ``float`` / ``int`` / ``bool``.  A
    ``required`` field that is missing, None, or uncoercible quarantines
    the whole record; an optional one degrades to None.
    """

    name: str
    kind: str
    required: bool = False
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    max_len: Optional[int] = None
    well_formed: Optional[str] = None  # "url" | "iso_date"
    #: Disposition when the value is out of range: REPAIR clamps to the
    #: bound, DEGRADE nulls the field (e.g. a negative price is a lie,
    #: not a clampable measurement).
    on_bad_range: str = REPAIR
    #: Disposition for malformed URL / ISO-date strings.
    on_malformed: str = DEGRADE
    #: For non-nullable dataclass fields (``quantity: int = 1``): the
    #: value a missing/rejected field normalizes to instead of ``None``,
    #: so downstream arithmetic never meets a null where the record type
    #: promises a number.
    default: object = None


@dataclass(frozen=True)
class Invariant:
    """A cross-field invariant with an optional deterministic repair."""

    name: str
    check: Callable[[object], bool]
    disposition: str = REPAIR
    repair: Optional[Callable[[object], None]] = None
    detail: str = ""


@dataclass
class RecordOutcome:
    """What the contract did to one record."""

    repairs: List[str] = field(default_factory=list)  # rule names
    degrades: List[str] = field(default_factory=list)
    quarantine_rule: Optional[str] = None
    quarantine_reason: str = ""

    @property
    def quarantined(self) -> bool:
        return self.quarantine_rule is not None


class RecordContract:
    """Field schema + invariants of one record type."""

    def __init__(self, record_type: str, fields: Tuple[FieldSpec, ...],
                 invariants: Tuple[Invariant, ...] = ()) -> None:
        self.record_type = record_type
        self.fields = fields
        self.invariants = invariants

    def apply(self, record: object) -> RecordOutcome:
        """Validate ``record`` in place; returns what happened.

        A quarantine outcome short-circuits: the record is already known
        unusable, so remaining fields are not inspected.
        """
        outcome = RecordOutcome()
        for spec in self.fields:
            self._apply_field(record, spec, outcome)
            if outcome.quarantined:
                return outcome
        for invariant in self.invariants:
            try:
                holds = bool(invariant.check(record))
            except Exception:
                holds = False
            if holds:
                continue
            rule = f"invariant.{invariant.name}"
            if invariant.disposition == REPAIR and invariant.repair is not None:
                invariant.repair(record)
                outcome.repairs.append(rule)
            elif invariant.disposition == QUARANTINE:
                outcome.quarantine_rule = rule
                outcome.quarantine_reason = invariant.detail or rule
                return outcome
            else:
                outcome.degrades.append(rule)
                add_provenance(record, f"contract:{rule}")
        return outcome

    # -- field dispatch ----------------------------------------------------

    def _apply_field(self, record: object, spec: FieldSpec,
                     outcome: RecordOutcome) -> None:
        value = getattr(record, spec.name, None)
        if value is None:
            if spec.required:
                self._quarantine(outcome, f"{spec.name}.missing",
                                 f"required field {spec.name!r} is missing")
            elif spec.default is not None:
                setattr(record, spec.name, spec.default)
                outcome.repairs.append(f"{spec.name}.defaulted")
            return
        handler = getattr(self, f"_check_{spec.kind}")
        handler(record, spec, value, outcome)

    def _reject(self, record: object, spec: FieldSpec,
                outcome: RecordOutcome, code: str, reason: str) -> None:
        """Null an optional field (degrade) or quarantine a required one.

        A field with a ``default`` degrades to that default instead of
        ``None`` (its dataclass type is not nullable).
        """
        rule = f"{spec.name}.{code}"
        if spec.required:
            self._quarantine(outcome, rule, reason)
            return
        setattr(record, spec.name, spec.default)
        outcome.degrades.append(rule)
        add_provenance(record, f"contract:{rule}")

    @staticmethod
    def _quarantine(outcome: RecordOutcome, rule: str, reason: str) -> None:
        outcome.quarantine_rule = rule
        outcome.quarantine_reason = reason

    # -- per-kind checks ---------------------------------------------------

    def _check_str(self, record, spec: FieldSpec, value, outcome) -> None:
        if isinstance(value, bytes):
            value = value.decode("utf-8", errors="replace")
            setattr(record, spec.name, value)
            outcome.repairs.append(f"{spec.name}.decoded_bytes")
        elif not isinstance(value, str):
            self._reject(record, spec, outcome, "bad_type",
                         f"{spec.name} is {type(value).__name__}, expected str")
            return
        cleaned = strip_control_chars(value)
        if cleaned != value:
            setattr(record, spec.name, cleaned)
            outcome.repairs.append(f"{spec.name}.control_chars")
            value = cleaned
        limit = spec.max_len or DEFAULT_MAX_LEN
        if len(value) > limit:
            setattr(record, spec.name, value[:limit])
            outcome.repairs.append(f"{spec.name}.truncated")
            value = value[:limit]
        if spec.well_formed == "url" and not is_well_formed_url(value):
            self._reject(record, spec, outcome, "malformed_url",
                         f"{spec.name} is not a well-formed URL")
        elif spec.well_formed == "iso_date" and not is_well_formed_iso_date(value):
            self._reject(record, spec, outcome, "malformed_date",
                         f"{spec.name} is not an ISO date")

    def _check_float(self, record, spec: FieldSpec, value, outcome) -> None:
        number = self._coerce_number(value)
        if number is None:
            self._reject(record, spec, outcome, "bad_type",
                         f"{spec.name} is {type(value).__name__}, expected number")
            return
        if not math.isfinite(number):
            self._reject(record, spec, outcome, "non_finite",
                         f"{spec.name} is {number!r}")
            return
        if number != value or not isinstance(value, float):
            outcome.repairs.append(f"{spec.name}.coerced")
        setattr(record, spec.name, number)
        self._check_range(record, spec, number, outcome)

    def _check_int(self, record, spec: FieldSpec, value, outcome) -> None:
        number = self._coerce_number(value)
        if number is None or not math.isfinite(number):
            self._reject(record, spec, outcome, "bad_type",
                         f"{spec.name} is {value!r}, expected integer")
            return
        as_int = int(number)
        if as_int != value:
            outcome.repairs.append(f"{spec.name}.coerced")
        setattr(record, spec.name, as_int)
        self._check_range(record, spec, as_int, outcome)

    def _check_bool(self, record, spec: FieldSpec, value, outcome) -> None:
        if isinstance(value, bool):
            return
        # Anything else normalizes through truthiness — deterministic,
        # and a bool field has no meaningful null to degrade to.
        setattr(record, spec.name, bool(value))
        outcome.repairs.append(f"{spec.name}.coerced")

    @staticmethod
    def _coerce_number(value) -> Optional[float]:
        if isinstance(value, bool):
            return None
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value.strip())
            except ValueError:
                return None
        return None

    def _check_range(self, record, spec: FieldSpec, number, outcome) -> None:
        low, high = spec.min_value, spec.max_value
        bound = None
        if low is not None and number < low:
            bound = low
        elif high is not None and number > high:
            bound = high
        if bound is None:
            return
        rule = f"{spec.name}.out_of_range"
        if spec.on_bad_range == REPAIR:
            clamped = int(bound) if spec.kind == "int" else float(bound)
            setattr(record, spec.name, clamped)
            outcome.repairs.append(rule)
        else:
            self._reject(record, spec, outcome, "out_of_range",
                         f"{spec.name}={number!r} outside "
                         f"[{low if low is not None else '-inf'}, "
                         f"{high if high is not None else 'inf'}]")


# ---------------------------------------------------------------------------
# the contracts themselves
# ---------------------------------------------------------------------------

def _swap_seen_order(record) -> None:
    record.first_seen_iteration, record.last_seen_iteration = (
        min(record.first_seen_iteration, record.last_seen_iteration),
        max(record.first_seen_iteration, record.last_seen_iteration),
    )


def _normalize_status(record) -> None:
    record.status = "error"


_KNOWN_STATUSES = frozenset({"active", "forbidden", "not_found", "error"})

SELLER_CONTRACT = RecordContract("sellers", (
    FieldSpec("seller_url", "str", required=True, well_formed="url"),
    FieldSpec("marketplace", "str", required=True),
    FieldSpec("name", "str", max_len=300),
    FieldSpec("country", "str", max_len=100),
    FieldSpec("rating", "float", min_value=0.0, max_value=5.0),
    FieldSpec("joined", "str", well_formed="iso_date"),
))

LISTING_CONTRACT = RecordContract("listings", (
    FieldSpec("offer_url", "str", required=True, well_formed="url"),
    FieldSpec("marketplace", "str", required=True),
    FieldSpec("title", "str", max_len=500, default=""),
    FieldSpec("platform", "str", max_len=50),
    # A negative or non-finite price is fabricated, not clampable —
    # degrade it so price aggregates can never ingest NaN (§4.1).
    FieldSpec("price_usd", "float", min_value=0.0, on_bad_range=DEGRADE),
    FieldSpec("category", "str", max_len=100),
    FieldSpec("followers_claimed", "int", min_value=0),
    FieldSpec("monthly_revenue_usd", "float", min_value=0.0,
              on_bad_range=DEGRADE),
    FieldSpec("income_source", "str", max_len=2000),
    FieldSpec("description", "str", max_len=10_000),
    FieldSpec("seller_url", "str", well_formed="url"),
    FieldSpec("seller_name", "str", max_len=300),
    FieldSpec("profile_url", "str", well_formed="url"),
    FieldSpec("verified_claim", "bool", default=False),
    FieldSpec("first_seen_iteration", "int", min_value=0, default=0),
    FieldSpec("last_seen_iteration", "int", min_value=0, default=0),
), invariants=(
    Invariant(
        "seen_order",
        check=lambda r: r.first_seen_iteration <= r.last_seen_iteration,
        disposition=REPAIR,
        repair=_swap_seen_order,
        detail="first_seen_iteration must not exceed last_seen_iteration",
    ),
))

PROFILE_CONTRACT = RecordContract("profiles", (
    FieldSpec("profile_url", "str", required=True, well_formed="url"),
    FieldSpec("platform", "str", required=True, max_len=50),
    FieldSpec("handle", "str", required=True, max_len=200),
    FieldSpec("account_id", "str", max_len=100),
    FieldSpec("name", "str", max_len=300),
    FieldSpec("description", "str", max_len=10_000),
    FieldSpec("created", "str", well_formed="iso_date"),
    FieldSpec("followers", "int", min_value=0),
    FieldSpec("account_type", "str", max_len=50),
    FieldSpec("location", "str", max_len=200),
    FieldSpec("category", "str", max_len=100),
    FieldSpec("email", "str", max_len=300),
    FieldSpec("phone", "str", max_len=50),
    FieldSpec("website", "str", max_len=500),
), invariants=(
    Invariant(
        "status_known",
        check=lambda r: r.status in _KNOWN_STATUSES,
        disposition=REPAIR,
        repair=_normalize_status,
        detail="status must be an ApiStatus value",
    ),
))

POST_CONTRACT = RecordContract("posts", (
    FieldSpec("post_id", "str", required=True, max_len=100),
    FieldSpec("platform", "str", required=True, max_len=50),
    FieldSpec("handle", "str", required=True, max_len=200),
    FieldSpec("text", "str", required=True, max_len=10_000),
    FieldSpec("date", "str", well_formed="iso_date"),
    FieldSpec("likes", "int", min_value=0, default=0),
    FieldSpec("views", "int", min_value=0, default=0),
))

UNDERGROUND_CONTRACT = RecordContract("underground", (
    FieldSpec("url", "str", required=True, well_formed="url"),
    FieldSpec("market", "str", required=True, max_len=100),
    FieldSpec("title", "str", max_len=500, default=""),
    FieldSpec("body", "str", required=True, max_len=20_000),
    FieldSpec("author", "str", required=True, max_len=200),
    FieldSpec("platform", "str", max_len=50),
    FieldSpec("date", "str", well_formed="iso_date"),
    FieldSpec("price_usd", "float", min_value=0.0, on_bad_range=DEGRADE),
    FieldSpec("quantity", "int", min_value=1, default=1),
    FieldSpec("replies", "int", min_value=0, default=0),
))

#: record-type name (= dataset attribute) -> contract.
CONTRACTS: Dict[str, RecordContract] = {
    "sellers": SELLER_CONTRACT,
    "listings": LISTING_CONTRACT,
    "profiles": PROFILE_CONTRACT,
    "posts": POST_CONTRACT,
    "underground": UNDERGROUND_CONTRACT,
}


# ---------------------------------------------------------------------------
# dataset-level validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Tally of one validation pass over a dataset."""

    checked: Dict[str, int] = field(default_factory=dict)
    kept: Dict[str, int] = field(default_factory=dict)
    repaired_by_rule: Dict[str, int] = field(default_factory=dict)
    degraded_by_rule: Dict[str, int] = field(default_factory=dict)
    quarantined: int = 0

    @property
    def checked_total(self) -> int:
        return sum(self.checked.values())

    @property
    def kept_total(self) -> int:
        return sum(self.kept.values())

    @property
    def repaired_total(self) -> int:
        return sum(self.repaired_by_rule.values())

    @property
    def degraded_total(self) -> int:
        return sum(self.degraded_by_rule.values())

    def coverage(self) -> float:
        """Share of checked records that survived quarantine."""
        if not self.checked_total:
            return 1.0
        return self.kept_total / self.checked_total

    def summary(self) -> dict:
        """The manifest section for this pass (deterministic ordering)."""
        return {
            "checked": dict(sorted(self.checked.items())),
            "kept": dict(sorted(self.kept.items())),
            "repaired": self.repaired_total,
            "repaired_by_rule": dict(sorted(self.repaired_by_rule.items())),
            "degraded": self.degraded_total,
            "degraded_by_rule": dict(sorted(self.degraded_by_rule.items())),
            "quarantined": self.quarantined,
            "coverage": round(self.coverage(), 6),
        }


def validate_dataset(
    dataset: MeasurementDataset,
    store: QuarantineStore,
    telemetry=None,
) -> ValidationReport:
    """Run every record through its contract, in place.

    Repaired/degraded records stay (mutated); quarantined records are
    removed from the dataset and dead-lettered into ``store``.  Metrics:
    ``contracts_checked_total{record_type}``,
    ``contracts_repaired_total{record_type,rule}``,
    ``contracts_degraded_total{record_type,rule}`` (quarantine counting
    lives in the store).
    """
    report = ValidationReport()
    checked_metric = repaired_metric = degraded_metric = None
    if telemetry is not None:
        checked_metric = telemetry.metrics.counter(
            "contracts_checked_total", "records run through their contract",
            labels=("record_type",),
        )
        repaired_metric = telemetry.metrics.counter(
            "contracts_repaired_total", "field repairs applied by contracts",
            labels=("record_type", "rule"),
        )
        degraded_metric = telemetry.metrics.counter(
            "contracts_degraded_total", "fields nulled by contracts",
            labels=("record_type", "rule"),
        )
    for record_type, contract in CONTRACTS.items():
        records = getattr(dataset, record_type)
        kept = []
        report.checked[record_type] = len(records)
        if checked_metric is not None and records:
            checked_metric.inc(len(records), record_type=record_type)
        for record in records:
            outcome = contract.apply(record)
            for rule in outcome.repairs:
                key = f"{record_type}/{rule}"
                report.repaired_by_rule[key] = (
                    report.repaired_by_rule.get(key, 0) + 1
                )
                if repaired_metric is not None:
                    repaired_metric.inc(record_type=record_type, rule=rule)
            for rule in outcome.degrades:
                key = f"{record_type}/{rule}"
                report.degraded_by_rule[key] = (
                    report.degraded_by_rule.get(key, 0) + 1
                )
                if degraded_metric is not None:
                    degraded_metric.inc(record_type=record_type, rule=rule)
                if telemetry is not None:
                    telemetry.events.emit(
                        "contract.degrade", level="info",
                        record_type=record_type, rule=rule,
                    )
            if outcome.quarantined:
                report.quarantined += 1
                store.quarantine(
                    record_type,
                    outcome.quarantine_rule,
                    outcome.quarantine_reason,
                    record=record_to_dict(record),
                )
            else:
                kept.append(record)
        report.kept[record_type] = len(kept)
        setattr(dataset, record_type, kept)
    return report


__all__ = [
    "CONTRACTS",
    "DEGRADE",
    "FieldSpec",
    "Invariant",
    "LISTING_CONTRACT",
    "POST_CONTRACT",
    "PROFILE_CONTRACT",
    "QUARANTINE",
    "REPAIR",
    "RecordContract",
    "RecordOutcome",
    "SELLER_CONTRACT",
    "UNDERGROUND_CONTRACT",
    "ValidationReport",
    "is_well_formed_iso_date",
    "is_well_formed_url",
    "strip_control_chars",
    "validate_dataset",
]
