"""Density clustering (the HDBSCAN role).

Two clusterers share the label convention ``-1 = noise``:

* :class:`DBSCAN` — the classic algorithm, exact, O(n²) distances
  computed blockwise; right for corpora up to a few thousand posts and
  for validating the scalable path against ground truth;
* :class:`ScalableDensityClusterer` — for the full 200K-post corpus:
  full-batch Lloyd k-means with k-means++ seeding, single-link merging of
  centroids within a merge radius (recovering irregular dense regions the
  way a density method does), a refine pass that re-clusters each large
  cluster with a local k-means, then small clusters demoted to noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.unionfind import UnionFind


#: Rows per slice for the elementwise passes over point-sized arrays.
_SLICE_ROWS = 1024
#: Rows per product block of a k-means assignment: each block's
#: distances come from one ``block @ centers.T``.
_BLOCK_ROWS = 8192


def _pairwise_sq_dists(block: np.ndarray, points: np.ndarray,
                       block_norms: Optional[np.ndarray] = None) -> np.ndarray:
    """Squared Euclidean distances between block rows and all points.

    ``block_norms`` is ``(block * block).sum(axis=1)[:, None]``, for a
    caller that measures the same block many times.
    """
    cross = block @ points.T
    if block_norms is None:
        block_norms = (block * block).sum(axis=1)[:, None]
    return _sq_dists_from_cross(cross, block_norms,
                                (points * points).sum(axis=1)[None, :])


def _sq_dists_from_cross(cross: np.ndarray, block_norms: np.ndarray,
                         point_norms: np.ndarray) -> np.ndarray:
    """``(block_norms + point_norms) - 2.0 * cross``, clipped at zero.

    Scales ``cross`` in place instead of allocating ``2.0 * cross``: one
    distance-sized temporary, not three.
    """
    d2 = block_norms + point_norms
    cross *= 2.0
    d2 -= cross
    np.maximum(d2, 0.0, out=d2)
    return d2


def _row_sq_norms(points: np.ndarray) -> np.ndarray:
    """``(points * points).sum(axis=1)[:, None]``, one row slice at a time.

    Every row is reduced by the same call on the same values, so the
    result is identical; the ``points * points`` temporary stays one
    slice big.
    """
    norms = np.empty((len(points), 1), dtype=points.dtype)
    for start in range(0, len(points), _SLICE_ROWS):
        rows = points[start : start + _SLICE_ROWS]
        norms[start : start + _SLICE_ROWS, 0] = (rows * rows).sum(axis=1)
    return norms


class DBSCAN:
    """Exact DBSCAN with blockwise distance computation.

    >>> import numpy as np
    >>> pts = np.array([[0, 0], [0, 0.1], [5, 5], [5, 5.1], [9, 9]])
    >>> DBSCAN(eps=0.5, min_samples=2).fit_predict(pts).tolist()
    [0, 0, 1, 1, -1]
    """

    def __init__(self, eps: float, min_samples: int, block_size: int = 512,
                 telemetry: Optional[Telemetry] = None) -> None:
        if eps <= 0:
            raise ValueError("eps must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.eps = eps
        self.min_samples = min_samples
        self.block_size = block_size
        self.telemetry = telemetry or NULL_TELEMETRY

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        with self.telemetry.tracer.span("nlp.cluster.dbscan", n=len(points)):
            return self._fit_predict(points)

    def _fit_predict(self, points: np.ndarray) -> np.ndarray:
        n = len(points)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        eps2 = self.eps * self.eps
        # Neighbor lists, computed blockwise to bound memory.
        neighbors: List[np.ndarray] = []
        for start in range(0, n, self.block_size):
            block = points[start : start + self.block_size]
            d2 = _pairwise_sq_dists(block, points)
            for row in d2:
                neighbors.append(np.nonzero(row <= eps2)[0])
        labels = np.full(n, -1, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        cluster = 0
        for i in range(n):
            if visited[i]:
                continue
            visited[i] = True
            if len(neighbors[i]) < self.min_samples:
                continue  # noise (may later be claimed as a border point)
            # Grow a new cluster from this core point.
            labels[i] = cluster
            queue = list(neighbors[i])
            head = 0
            while head < len(queue):
                j = queue[head]
                head += 1
                if labels[j] == -1:
                    labels[j] = cluster  # border point
                if visited[j]:
                    continue
                visited[j] = True
                labels[j] = cluster
                if len(neighbors[j]) >= self.min_samples:
                    queue.extend(neighbors[j])
            cluster += 1
        return labels


def _kmeans_pp_init(points: np.ndarray, point_norms: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding; ``point_norms`` is ``_row_sq_norms(points)``."""
    n = len(points)
    centers = np.empty((k, points.shape[1]), dtype=points.dtype)
    first = rng.integers(0, n)
    centers[0] = points[first]
    closest = _pairwise_sq_dists(points, centers[0:1], point_norms).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[c:] = points[rng.integers(0, n, size=k - c)]
            break
        probs = closest / total
        index = rng.choice(n, p=probs)
        centers[c] = points[index]
        d2 = _pairwise_sq_dists(points, centers[c : c + 1], point_norms).ravel()
        np.minimum(closest, d2, out=closest)
    return centers


def _product_rows(products: np.ndarray, rows: int, columns: int) -> np.ndarray:
    """The first ``rows x columns`` entries of a flat product buffer, as a
    C-contiguous matrix ``np.matmul`` can write into."""
    return products[: rows * columns].reshape(rows, columns)


def _assign_blockwise(points: np.ndarray, point_norms: np.ndarray,
                      centers: np.ndarray, products: Optional[np.ndarray] = None,
                      best: Optional[np.ndarray] = None) -> np.ndarray:
    """argmin-distance assignment computed in row blocks (memory-bounded);
    ``point_norms`` is ``_row_sq_norms(points)``.

    Each block's products come from one ``block @ centers.T``, so BLAS
    sees the same shapes whatever the slicing below; the distances and
    their argmin then run one row slice at a time, so only the block's
    products are block-sized.  The products land in ``products``, a flat
    buffer of at least ``min(n, 8192) * k`` entries (allocated here when
    not given).  ``best``, when given, receives each point's squared
    distance to its centre.
    """
    n, k = len(points), len(centers)
    if products is None:
        products = np.empty(min(n, _BLOCK_ROWS) * k, dtype=points.dtype)
    assignments = np.empty(n, dtype=np.int64)
    center_norms = (centers * centers).sum(axis=1)[None, :]
    for start in range(0, n, _BLOCK_ROWS):
        block = points[start : start + _BLOCK_ROWS]
        cross = np.matmul(block, centers.T,
                          out=_product_rows(products, len(block), k))
        for offset in range(0, len(block), _SLICE_ROWS):
            first = start + offset
            last = min(first + _SLICE_ROWS, start + len(block))
            d2 = _sq_dists_from_cross(cross[offset : offset + _SLICE_ROWS],
                                      point_norms[first:last], center_norms)
            nearest = d2.argmin(axis=1)
            assignments[first:last] = nearest
            if best is not None:
                best[first:last] = d2[np.arange(len(d2)), nearest]
    return assignments


def _offsets(rows: np.ndarray, centers: np.ndarray, center_norms: np.ndarray,
             products: np.ndarray) -> np.ndarray:
    """``|c|^2 - 2 x.c`` for every row ``x`` and centre ``c``, in ``products``.

    A row's squared distances are its squared norm plus these; computed
    that way they carry the same error bound as ``_sq_dists_from_cross``
    (see ``_assign_certified``), though not its bits.
    """
    offsets = np.matmul(rows, centers.T,
                        out=_product_rows(products, len(rows), len(centers)))
    offsets *= -2.0
    offsets += center_norms
    return offsets


def _screen(points: np.ndarray, norms: np.ndarray, limits: np.ndarray,
            centers: np.ndarray, center_norms: np.ndarray,
            products: np.ndarray) -> np.ndarray:
    """Mask of the points some of ``centers`` may be as near as ``limits``.

    A point is cleared when its squared distance to each of ``centers``
    exceeds its ``limits`` entry.  Blocks of points are taken in row
    order, not gathered, so the points already marked for a full row are
    measured here too.
    """
    nearest = np.empty(len(points), dtype=points.dtype)
    for start in range(0, len(points), _BLOCK_ROWS):
        block = points[start : start + _BLOCK_ROWS]
        _offsets(block, centers, center_norms, products).min(
            axis=1, out=nearest[start : start + len(block)])
    nearest += norms
    return nearest <= limits


def _assign_rows(points: np.ndarray, norms: np.ndarray, rows: np.ndarray,
                 margins: np.ndarray, centers: np.ndarray,
                 center_norms: np.ndarray, assignments: np.ndarray,
                 best: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Give each of ``rows`` its nearest centre unless a runner-up lies
    within its ``margins`` entry; returns the rows left undecided."""
    ties = []
    for start in range(0, len(rows), _SLICE_ROWS):
        chunk = rows[start : start + _SLICE_ROWS]
        offsets = _offsets(points[chunk], centers, center_norms, products)
        nearest = offsets.argmin(axis=1)
        picked = np.arange(len(chunk)), nearest
        closest = offsets[picked] + norms[chunk]
        offsets[picked] = np.inf
        runner_up = offsets.min(axis=1)
        runner_up += norms[chunk]
        sure = runner_up > closest + margins[chunk]
        assignments[chunk[sure]] = nearest[sure]
        best[chunk[sure]] = closest[sure]
        ties.append(chunk[~sure])
    return np.concatenate(ties) if ties else rows


def _assign_exactly(points: np.ndarray, point_norms: np.ndarray,
                    rows: np.ndarray, centers: np.ndarray,
                    center_norms: np.ndarray, assignments: np.ndarray,
                    best: np.ndarray, products: np.ndarray) -> None:
    """Assign ``rows`` (ascending) with ``_assign_blockwise``'s own
    arithmetic: each row's products come from its whole 8,192-row block,
    so its distances carry the same bits."""
    k = len(centers)
    blocks = rows // _BLOCK_ROWS
    for block_index in np.unique(blocks):
        start = int(block_index) * _BLOCK_ROWS
        block = points[start : start + _BLOCK_ROWS]
        cross = np.matmul(block, centers.T,
                          out=_product_rows(products, len(block), k))
        members = rows[blocks == block_index]
        for first in range(0, len(members), _SLICE_ROWS):
            chunk = members[first : first + _SLICE_ROWS]
            d2 = _sq_dists_from_cross(cross[chunk - start], point_norms[chunk],
                                      center_norms[None, :])
            nearest = d2.argmin(axis=1)
            assignments[chunk] = nearest
            best[chunk] = d2[np.arange(len(chunk)), nearest]


def _assign_certified(points: np.ndarray, point_norms: np.ndarray,
                      centers: np.ndarray, assignments: np.ndarray,
                      best: np.ndarray, moved: np.ndarray,
                      products: np.ndarray) -> np.ndarray:
    """What ``_assign_blockwise`` returns for ``centers``, measuring mostly
    the centres that ``moved`` (bitwise) since ``assignments`` were made.

    ``best`` holds each point's squared distance to its centre, within
    ``2E`` of ``_assign_blockwise``'s value, and is updated in place.
    ``E = (d + 3) u (|x| + max |c|)^2``, with ``u`` half the dtype's
    machine epsilon, bounds the rounding error of any ``|x|^2 + |c|^2 -
    2 x.c`` against the exact distance (the analysis gives ``d + 2``; the
    spare ``u`` covers rounding the bounds themselves), so two computed
    distances of one pair differ by at most ``2E``.

    * A centre that did not move gives every point the same bits as last
      time, so a point whose own centre held still keeps it when each
      moved centre is more than ``4E`` farther than ``best``.
    * Every other point takes a full row of distances; its nearest centre
      stands when the runner-up is more than ``4E`` farther.
    * The rest are near ties, which ``_assign_exactly`` settles with the
      reference arithmetic.
    """
    norms = point_norms[:, 0]
    center_norms = (centers * centers).sum(axis=1)
    unit = np.finfo(points.dtype).eps / 2
    margins = np.sqrt(norms)
    margins += np.sqrt(center_norms.max())
    margins *= margins
    margins *= 4 * (points.shape[1] + 3) * unit
    new = assignments.copy()
    recheck = _screen(points, norms, best + margins, centers[moved],
                      center_norms[moved], products)
    recheck |= moved[assignments]
    ties = _assign_rows(points, norms, np.nonzero(recheck)[0], margins,
                        centers, center_norms, new, best, products)
    if len(ties):
        _assign_exactly(points, point_norms, ties, centers, center_norms, new,
                        best, products)
    return new


def kmeans(points: np.ndarray, k: int, iterations: int = 25,
           seed: int = 0) -> np.ndarray:
    """Full-batch Lloyd's k-means; returns per-point center assignments.

    Assignment steps run blockwise, so a 200K x 192 corpus never
    materializes a full distance matrix.  Once at most half the centres
    moved in the last update, an assignment measures the points against
    the moved centres only and certifies the rest (``_assign_certified``);
    the labels are the same either way.
    """
    n = len(points)
    k = min(k, n)
    rng = np.random.default_rng(seed)
    # Each row's squared norm is one reduction over the same values
    # wherever it is taken, so it is taken once, for seeding and for
    # every assignment.
    point_norms = _row_sq_norms(points)
    # Seed k-means++ on a sample for large corpora: the seeding pass is
    # O(n*k) distance evaluations and the sample preserves density.
    if n > 50_000:
        sample = rng.choice(n, size=20_000, replace=False)
        centers = _kmeans_pp_init(points[sample], point_norms[sample], k, rng)
    else:
        centers = _kmeans_pp_init(points, point_norms, k, rng)
    products = np.empty(min(n, _BLOCK_ROWS) * k, dtype=points.dtype)
    # On one slice of points the certified path's bookkeeping costs more
    # than the products it saves, so no distances are kept for it.
    best = np.empty(n, dtype=points.dtype) if n > _SLICE_ROWS else None
    assignments = np.zeros(n, dtype=np.int64)
    # The seeds are no centre's mean, so the first update touches all.
    touched = np.ones(k, dtype=bool)
    moved = touched
    for _ in range(iterations):
        if best is None or 2 * np.count_nonzero(moved) > k:
            new_assignments = _assign_blockwise(points, point_norms, centers,
                                                products, best)
        else:
            new_assignments = _assign_certified(points, point_norms, centers,
                                                assignments, best, moved,
                                                products)
        switched = np.nonzero(new_assignments != assignments)[0]
        if not len(switched):
            break
        touched[assignments[switched]] = True
        touched[new_assignments[switched]] = True
        assignments = new_assignments
        moved = _update_centers(points, assignments, centers, touched)
        if not moved.any():
            break  # the next assignment would repeat this one
        touched = np.zeros(k, dtype=bool)
    return assignments


def _update_centers(points: np.ndarray, assignments: np.ndarray,
                    centers: np.ndarray, touched: np.ndarray) -> np.ndarray:
    """Move each ``touched`` centre with members to their mean; returns
    the mask of centres whose vector changed bitwise.

    An untouched centre kept its member set, so its mean would repeat the
    bits it already holds.
    """
    rows = None if touched.all() else np.nonzero(touched[assignments])[0]
    sums, counts = _sum_by_center(points, assignments, len(centers), rows)
    counts = counts.astype(points.dtype)
    occupied = counts > 0
    means = sums[occupied] / counts[occupied, None]
    unsigned = np.dtype(f"u{points.itemsize}")
    moved = np.zeros(len(centers), dtype=bool)
    moved[occupied] = (means.view(unsigned)
                       != centers[occupied].view(unsigned)).any(axis=1)
    centers[occupied] = means
    return moved


def _sum_by_center(points: np.ndarray, assignments: np.ndarray, k: int,
                   rows: Optional[np.ndarray] = None) -> tuple:
    """Per-centre row sums and member counts, over ``rows`` (ascending
    row indices) when given and over every row otherwise.

    Each centre's sum starts at zero and adds its rows in row order, the
    order ``np.add.at`` uses, so the floating-point result is the same;
    ``np.add.reduceat`` would sum in another order.  Step ``r`` adds
    every centre's ``r``-th member at once: one fancy-indexed ``+=`` per
    rank instead of one per row.
    """
    members = assignments if rows is None else assignments[rows]
    sums = np.zeros((k, points.shape[1]), dtype=points.dtype)
    counts = np.bincount(members, minlength=k)
    order = np.argsort(members, kind="stable")
    if rows is not None:
        order = rows[order]
    starts = np.cumsum(counts) - counts
    for rank in range(int(counts.max(initial=0))):
        groups = np.nonzero(counts > rank)[0]
        sums[groups] += points[order[starts[groups] + rank]]
    return sums, counts


@dataclass
class ClusterStats:
    """Shape of a clustering result."""

    n_clusters: int
    n_noise: int
    sizes: List[int]


class ScalableDensityClusterer:
    """Large-corpus density clustering: k-means -> centroid merge -> prune.

    Parameters
    ----------
    k:
        Over-segmentation target for the k-means stage; ``None`` picks
        ``min(max_k, n // 40 + 8)``.
    merge_eps:
        Centroids within this Euclidean distance are merged (single
        link), re-joining template families k-means split.
    min_cluster_size:
        Merged clusters smaller than this are demoted to noise, like
        HDBSCAN's minimum cluster size.
    refine_min / refine_divisor:
        Clusters of at least ``refine_min`` points are re-clustered with a
        local k-means (``k = size // refine_divisor``) whose sub-centroids
        are then re-merged under ``merge_eps``.  Homogeneous clusters
        survive intact (their sub-centroids merge back together); mixed
        clusters split, letting small template families surface.  Set
        ``refine_min=None`` to disable.
    """

    def __init__(self, k: Optional[int] = None, merge_eps: float = 0.35,
                 min_cluster_size: int = 8, max_k: int = 256, seed: int = 0,
                 refine_min: Optional[int] = 24, refine_divisor: int = 12,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.k = k
        self.merge_eps = merge_eps
        self.min_cluster_size = min_cluster_size
        self.max_k = max_k
        self.seed = seed
        self.refine_min = refine_min
        self.refine_divisor = refine_divisor
        self.telemetry = telemetry or NULL_TELEMETRY

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        with self.telemetry.tracer.span("nlp.cluster.scalable", n=len(points)):
            return self._fit_predict(points)

    def _fit_predict(self, points: np.ndarray) -> np.ndarray:
        n = len(points)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        k = self.k if self.k is not None else min(self.max_k, n // 40 + 8)
        k = max(1, min(k, n))
        assignments = kmeans(points, k, seed=self.seed)
        centers = np.vstack([
            points[assignments == c].mean(axis=0) if (assignments == c).any()
            else np.full(points.shape[1], np.inf)
            for c in range(k)
        ])
        merged = self._merge_centroids(centers)
        labels = merged[assignments]
        if self.refine_min is not None:
            labels = self._refine(points, labels)
        return self._prune_small(labels)

    def _refine(self, points: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Split heterogeneous clusters; re-merge what belongs together."""
        output = labels.copy()
        next_label = int(labels.max()) + 1 if len(labels) else 0
        for label in np.unique(labels):
            if label < 0:
                continue
            indices = np.nonzero(labels == label)[0]
            if len(indices) < self.refine_min:
                continue
            k = max(2, len(indices) // self.refine_divisor)
            sub = kmeans(points[indices], k, seed=self.seed + int(label) + 1)
            sub_centers = np.vstack([
                points[indices[sub == c]].mean(axis=0) if (sub == c).any()
                else np.full(points.shape[1], np.inf)
                for c in range(k)
            ])
            merged = self._merge_centroids(sub_centers)
            for group in np.unique(merged[sub]):
                members = indices[merged[sub] == group]
                output[members] = next_label
                next_label += 1
        return output

    def _merge_centroids(self, centers: np.ndarray) -> np.ndarray:
        """Union-find single-link merge of centroids within merge_eps.

        Empty clusters are marked by all-inf centroids; distances are
        computed over the finite rows only (inf arithmetic would produce
        NaNs).
        """
        k = len(centers)
        sets = UnionFind(k)
        finite_indices = np.nonzero(np.isfinite(centers).all(axis=1))[0]
        if len(finite_indices) > 1:
            finite_centers = centers[finite_indices]
            d2 = _pairwise_sq_dists(finite_centers, finite_centers)
            eps2 = self.merge_eps * self.merge_eps
            for a in range(len(finite_indices)):
                for b in range(a + 1, len(finite_indices)):
                    if d2[a, b] <= eps2:
                        sets.union(int(finite_indices[a]), int(finite_indices[b]))
        roots = {}
        mapping = np.empty(k, dtype=np.int64)
        for i in range(k):
            mapping[i] = roots.setdefault(sets.find(i), len(roots))
        return mapping

    def _prune_small(self, labels: np.ndarray) -> np.ndarray:
        """Demote undersized clusters to noise and relabel densely."""
        if len(labels) == 0:
            return labels
        valid = labels >= 0
        if not valid.any():
            return np.full(len(labels), -1, dtype=np.int64)
        counts = np.bincount(labels[valid])
        keep = counts >= self.min_cluster_size
        # Dense relabeling: surviving labels -> 0..k-1, everything else -> -1.
        relabel = np.full(len(counts), -1, dtype=np.int64)
        relabel[keep] = np.arange(int(keep.sum()))
        output = np.full(len(labels), -1, dtype=np.int64)
        output[valid] = relabel[labels[valid]]
        return output


def cluster_stats(labels: np.ndarray) -> ClusterStats:
    """Summarize a label array (-1 = noise)."""
    valid = labels >= 0
    if valid.any():
        counts = np.bincount(labels[valid])
        sizes = sorted((int(c) for c in counts if c > 0), reverse=True)
    else:
        sizes = []
    return ClusterStats(
        n_clusters=len(sizes),
        n_noise=int((labels == -1).sum()),
        sizes=sizes,
    )


__all__ = ["ClusterStats", "DBSCAN", "ScalableDensityClusterer", "cluster_stats", "kmeans"]
