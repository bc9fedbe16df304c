"""Records produced by the measurement pipeline, and their container.

These are deliberately distinct from :mod:`repro.synthetic.model`: the
pipeline only knows what it extracted from HTML and API payloads.  All
records are JSON-serializable dataclasses; a :class:`MeasurementDataset`
persists as a segmented store (:func:`repro.store.save_dataset` /
:func:`repro.store.load_dataset`) so analyses re-run offline — the
workflow the paper's "share the data on request" model implies.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Provenance value of a record with no degradation flags.
PROVENANCE_COMPLETE = "complete"


def provenance_flags(record) -> List[str]:
    """The record's provenance trail as a list (empty when complete).

    Handles both the historical single-value form (``"partial:<reason>"``)
    and the comma-joined trail: a single value is simply a one-flag trail.
    """
    value = getattr(record, "provenance", PROVENANCE_COMPLETE)
    if not value or value == PROVENANCE_COMPLETE:
        return []
    return [flag for flag in value.split(",") if flag]


def add_provenance(record, flag: str) -> None:
    """Append ``flag`` to the record's provenance trail.

    Idempotent (a repeated flag is not duplicated) and a no-op on record
    types without a ``provenance`` field (posts, underground).
    """
    if not hasattr(record, "provenance"):
        return
    flags = provenance_flags(record)
    if flag in flags:
        return
    flags.append(flag)
    record.provenance = ",".join(flags)


@dataclass
class SellerRecord:
    """A marketplace seller as extracted from their public page."""

    seller_url: str
    marketplace: str
    name: Optional[str] = None
    country: Optional[str] = None
    rating: Optional[float] = None
    joined: Optional[str] = None  # ISO date


@dataclass
class ListingRecord:
    """One account-for-sale offer as extracted from its offer page."""

    offer_url: str
    marketplace: str
    title: str = ""
    platform: Optional[str] = None
    price_usd: Optional[float] = None
    category: Optional[str] = None
    followers_claimed: Optional[int] = None
    monthly_revenue_usd: Optional[float] = None
    income_source: Optional[str] = None
    description: Optional[str] = None
    seller_url: Optional[str] = None
    seller_name: Optional[str] = None
    profile_url: Optional[str] = None
    verified_claim: bool = False
    #: Collection-iteration bookkeeping (Figure 2).
    first_seen_iteration: int = 0
    last_seen_iteration: int = 0
    #: Data lineage: ``"complete"`` for a clean extraction, or a
    #: comma-joined trail of flags (``"partial:<reason>"``,
    #: ``"contract:<rule>"``, ...) appended via :func:`add_provenance`.
    #: Pre-trail files holding a single flag load unchanged.
    provenance: str = PROVENANCE_COMPLETE

    @property
    def has_visible_profile(self) -> bool:
        return self.profile_url is not None


@dataclass
class ProfileRecord:
    """A social media profile as returned by the platform API."""

    profile_url: str
    platform: str
    handle: str
    status: str = "active"  # ApiStatus value
    account_id: Optional[str] = None
    name: Optional[str] = None
    description: Optional[str] = None
    created: Optional[str] = None  # ISO date
    followers: Optional[int] = None
    account_type: Optional[str] = None
    location: Optional[str] = None
    category: Optional[str] = None
    email: Optional[str] = None
    phone: Optional[str] = None
    website: Optional[str] = None
    #: Data lineage trail (see :func:`add_provenance`): ``"complete"``,
    #: or flags like ``"partial:<reason>"`` when a subsidiary fetch
    #: (e.g. the timeline) failed and fields are missing.
    provenance: str = PROVENANCE_COMPLETE

    @property
    def is_active(self) -> bool:
        return self.status == "active"


@dataclass
class PostRecord:
    """One collected profile post."""

    post_id: str
    platform: str
    handle: str
    text: str
    date: Optional[str] = None  # ISO date
    likes: int = 0
    views: int = 0


@dataclass
class UndergroundRecord:
    """One underground-forum posting as recorded manually."""

    url: str
    market: str
    title: str
    body: str
    author: str
    platform: Optional[str] = None
    date: Optional[str] = None
    price_usd: Optional[float] = None
    quantity: int = 1
    replies: int = 0


_RECORD_TYPES = {
    "sellers": SellerRecord,
    "listings": ListingRecord,
    "profiles": ProfileRecord,
    "posts": PostRecord,
    "underground": UndergroundRecord,
}


@dataclass
class MeasurementDataset:
    """Everything one study run collected."""

    sellers: List[SellerRecord] = field(default_factory=list)
    listings: List[ListingRecord] = field(default_factory=list)
    profiles: List[ProfileRecord] = field(default_factory=list)
    posts: List[PostRecord] = field(default_factory=list)
    underground: List[UndergroundRecord] = field(default_factory=list)

    # -- views ---------------------------------------------------------------

    def listings_by_marketplace(self) -> Dict[str, List[ListingRecord]]:
        grouped: Dict[str, List[ListingRecord]] = {}
        for record in self.listings:
            grouped.setdefault(record.marketplace, []).append(record)
        return grouped

    def profiles_by_platform(self) -> Dict[str, List[ProfileRecord]]:
        grouped: Dict[str, List[ProfileRecord]] = {}
        for record in self.profiles:
            grouped.setdefault(record.platform, []).append(record)
        return grouped

    def visible_listings(self) -> List[ListingRecord]:
        return [l for l in self.listings if l.has_visible_profile]

    def summary(self) -> Dict[str, int]:
        return {name: len(getattr(self, name)) for name in _RECORD_TYPES}


#: Each record type's field names, in declaration order.
_FIELD_NAMES = {
    record_type: tuple(f.name for f in dataclasses.fields(record_type))
    for record_type in _RECORD_TYPES.values()
}


def record_to_dict(record) -> dict:
    """The record as a JSON payload, field by field in declaration order.

    Every record type holds flat scalars, so this is
    ``dataclasses.asdict(record)`` without its recursive deep copy.
    """
    return {name: getattr(record, name) for name in _FIELD_NAMES[type(record)]}


def record_from_dict(record_type, payload: dict):
    """Build a record from a JSON payload, dropping unknown keys.

    Forward compatibility: a dataset written by a newer schema (extra
    fields) still loads; a payload that is not a dict or misses required
    fields raises ``TypeError`` for the caller to quarantine.
    """
    if not isinstance(payload, dict):
        raise TypeError(
            f"expected a JSON object, got {type(payload).__name__}"
        )
    known = {f.name for f in dataclasses.fields(record_type)}
    return record_type(**{k: v for k, v in payload.items() if k in known})


__all__ = [
    "ListingRecord",
    "MeasurementDataset",
    "PROVENANCE_COMPLETE",
    "PostRecord",
    "ProfileRecord",
    "SellerRecord",
    "UndergroundRecord",
    "add_provenance",
    "provenance_flags",
    "record_from_dict",
    "record_to_dict",
]
