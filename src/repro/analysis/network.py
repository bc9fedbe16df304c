"""Section 7: tracking and network analysis (Table 7, Figure 5).

Profiles are grouped into clusters when they share identity-bearing
metadata, with the attribute set the paper used per platform: TikTok
descriptions, YouTube names, Instagram biographies, Facebook contact
details (email / phone / website), and X names or descriptions.  Buckets
with two or more distinct accounts form clusters; the rest are
singletons.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.dataset import MeasurementDataset, ProfileRecord
from repro.util.stats import median
from repro.util.unionfind import UnionFind

#: platform -> attributes used for clustering (Table 7's first column).
CLUSTER_ATTRIBUTES: Dict[str, Tuple[str, ...]] = {
    "TikTok": ("description",),
    "YouTube": ("name",),
    "Instagram": ("description",),  # "biography" in the paper's wording
    "Facebook": ("email", "phone", "website"),
    "X": ("name", "description"),
}


@dataclass
class ProfileCluster:
    """One attribute-sharing cluster of profiles."""

    cluster_id: str
    platform: str
    attribute: str
    value: str
    members: List[ProfileRecord] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class PlatformClusterStats:
    """One row of Table 7."""

    platform: str
    attributes: str
    clusters: int
    cluster_accounts: int
    singletons: int
    min_size: int
    max_size: int
    median_size: float

    @property
    def cluster_fraction(self) -> float:
        total = self.cluster_accounts + self.singletons
        return self.cluster_accounts / total if total else 0.0


@dataclass
class NetworkReport:
    per_platform: Dict[str, PlatformClusterStats]
    clusters: List[ProfileCluster]
    total_clusters: int
    total_cluster_accounts: int
    total_singletons: int

    @property
    def overall_fraction(self) -> float:
        total = self.total_cluster_accounts + self.total_singletons
        return self.total_cluster_accounts / total if total else 0.0

    def largest_cluster(self) -> Optional[ProfileCluster]:
        if not self.clusters:
            return None
        return max(self.clusters, key=lambda c: c.size)

    def exemplars(self, n: int = 3) -> List[ProfileCluster]:
        """Figure-5-style exemplar clusters: the largest, by size."""
        return sorted(self.clusters, key=lambda c: (-c.size, c.cluster_id))[:n]

    def membership(self) -> Dict[Tuple[str, str], str]:
        """(platform, handle) -> predicted cluster id, for scoring
        against the synthetic world's ground-truth ``cluster_id``."""
        members: Dict[Tuple[str, str], str] = {}
        for cluster in self.clusters:
            for profile in cluster.members:
                members[(cluster.platform, profile.handle)] = cluster.cluster_id
        return members


def _attribute_value(profile: ProfileRecord, attribute: str) -> Optional[str]:
    value = getattr(profile, attribute, None)
    if value is None:
        return None
    value = str(value).strip()
    return value or None


class NetworkAnalysis:
    """Buckets profiles by shared attributes and summarizes (Table 7)."""

    def run(self, dataset: MeasurementDataset) -> NetworkReport:
        per_platform: Dict[str, PlatformClusterStats] = {}
        all_clusters: List[ProfileCluster] = []
        total_cluster_accounts = 0
        total_singletons = 0
        for platform, profiles in sorted(dataset.profiles_by_platform().items()):
            active = [p for p in profiles if p.is_active]
            attributes = CLUSTER_ATTRIBUTES.get(platform, ("name",))
            clusters = self._cluster_platform(platform, active, attributes)
            clustered_ids = {
                id(member) for cluster in clusters for member in cluster.members
            }
            singletons = len(active) - len(clustered_ids)
            sizes = [c.size for c in clusters]
            per_platform[platform] = PlatformClusterStats(
                platform=platform,
                attributes="/".join(attributes),
                clusters=len(clusters),
                cluster_accounts=len(clustered_ids),
                singletons=singletons,
                min_size=min(sizes) if sizes else 0,
                max_size=max(sizes) if sizes else 0,
                median_size=median(sizes) if sizes else 0.0,
            )
            all_clusters.extend(clusters)
            total_cluster_accounts += len(clustered_ids)
            total_singletons += singletons
        return NetworkReport(
            per_platform=per_platform,
            clusters=all_clusters,
            total_clusters=len(all_clusters),
            total_cluster_accounts=total_cluster_accounts,
            total_singletons=total_singletons,
        )

    def _cluster_platform(
        self,
        platform: str,
        profiles: List[ProfileRecord],
        attributes: Tuple[str, ...],
    ) -> List[ProfileCluster]:
        """Union profiles sharing any clustering attribute's exact value."""
        sets = UnionFind(len(profiles))
        buckets: Dict[Tuple[str, str], List[int]] = {}
        for index, profile in enumerate(profiles):
            for attribute in attributes:
                value = _attribute_value(profile, attribute)
                if value is not None:
                    buckets.setdefault((attribute, value), []).append(index)
        for (_attribute, _value), indices in buckets.items():
            for other in indices[1:]:
                sets.union(indices[0], other)
        clusters: List[ProfileCluster] = []
        for root, indices in sorted(sets.groups().items()):
            if len(indices) < 2:  # a singleton, not a cluster
                continue
            attribute, value = self._shared_attribute(profiles, indices, attributes)
            clusters.append(
                ProfileCluster(
                    cluster_id=f"{platform.lower()}-net-{len(clusters) + 1:03d}",
                    platform=platform,
                    attribute=attribute,
                    value=value,
                    members=[profiles[i] for i in indices],
                )
            )
        return clusters

    @staticmethod
    def _shared_attribute(
        profiles: List[ProfileRecord],
        indices: List[int],
        attributes: Tuple[str, ...],
    ) -> Tuple[str, str]:
        """The most-shared (attribute, value) pair inside a cluster."""
        counts: Counter = Counter()
        for index in indices:
            for attribute in attributes:
                value = _attribute_value(profiles[index], attribute)
                if value is not None:
                    counts[(attribute, value)] += 1
        if not counts:
            return attributes[0], ""
        (attribute, value), _n = counts.most_common(1)[0]
        return attribute, value


__all__ = [
    "CLUSTER_ATTRIBUTES",
    "NetworkAnalysis",
    "NetworkReport",
    "PlatformClusterStats",
    "ProfileCluster",
]
