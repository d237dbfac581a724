"""Hierarchical agglomerative clustering and clustering quality metrics.

HAC supports single/complete/average linkage over Euclidean distances with
two stopping rules: a known cluster count, or a merge-height threshold.  It
keeps one M x M distance matrix (O(M^2) memory), built by one
``scipy.spatial.distance.cdist`` call, with a cached nearest neighbour per
row, updated by Lance-Williams after each merge; equal-height
candidates merge lowest (a, b) pair first.
Metrics: NMI (arithmetic normalisation, natural logs), weighted clustering
purity, cluster-count difference, and the S-Dbw internal validity index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LINKAGES = ("single", "complete", "average")


class ClusterError(Exception):
    pass


@dataclass(frozen=True)
class KnownK:
    k: int


@dataclass(frozen=True)
class Threshold:
    t: float


@dataclass(frozen=True)
class ClusterAssignment:
    labels: tuple[int, ...]  # per input vector, 0..k-1
    k: int
    # (height, member_index_a, member_index_b) per merge, in merge order;
    # members identified by their smallest original index.
    merges: tuple[tuple[float, int, int], ...]

    def as_array(self) -> np.ndarray:
        return np.asarray(self.labels, dtype=np.int64)


def _distance_matrix(x: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``x``, infinite on the
    diagonal, from one ``cdist`` call.  ``cdist`` sums the squared
    differences in order, so entries agree with the full broadcast
    ``sqrt(sum(diff**2))`` within rounding, and exactly below 8 dimensions
    (where numpy's ``sum`` runs sequentially too)."""
    # Imported here: scipy.spatial adds about 0.1 s and 12 MB to importing
    # trackcentre, and only clustering needs it.
    from scipy.spatial.distance import cdist

    dist = cdist(x, x)
    if not np.all(np.isfinite(dist)):
        raise ClusterError("pairwise distances overflow float64")
    np.fill_diagonal(dist, np.inf)
    return dist


def hac(vectors, linkage: str = "average", stop=None) -> ClusterAssignment:
    """Agglomerative clustering of row vectors under Euclidean distance.

    Each merge joins the closest pair of clusters; ties between
    equal-height candidates are broken by the lowest
    (min_index_a, min_index_b) pair so results are deterministic.  Cluster
    distances follow the Lance-Williams update of the chosen linkage.

    The distance matrix is the only O(M^2) structure.  Every row i caches
    its minimum over columns j > i and the first column attaining it, so a
    merge reads the M row minima, updates two rows and rescans only the
    rows whose cached neighbour was one of the merged clusters.
    """
    if linkage not in LINKAGES:
        raise ClusterError(f"unknown linkage {linkage!r}")
    if stop is None:
        raise ClusterError("stop criterion required: KnownK(k) or Threshold(t)")
    x = np.asarray(vectors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ClusterError("need a non-empty 2-D array of vectors")
    if not np.all(np.isfinite(x)):
        raise ClusterError("non-finite values in vectors")
    m = x.shape[0]
    if isinstance(stop, KnownK):
        if not (1 <= stop.k <= m):
            raise ClusterError(f"k={stop.k} outside [1, {m}]")
        target_k, threshold = stop.k, None
    elif isinstance(stop, Threshold):
        target_k, threshold = 1, float(stop.t)
    else:
        raise ClusterError(f"unsupported stop criterion {stop!r}")

    # Inactive clusters hold inf in their row and column.  All active
    # distances are finite, so the closest pair is always an active one.
    d = _distance_matrix(x)
    # near[i]: first column j > i attaining near_d[i] = min_{j>i} d[i, j];
    # -1 (with near_d inf) for the last row and for inactive rows.
    near = np.full(m, -1, dtype=np.int64)
    near_d = np.full(m, np.inf)

    def rescan(i: int) -> None:
        j = int(d[i, i + 1 :].argmin())
        near[i] = i + 1 + j
        near_d[i] = d[i, i + 1 + j]

    for i in range(m - 1):
        rescan(i)

    # Active clusters: representative = smallest member index.
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    merges: list[tuple[float, int, int]] = []

    while len(members) > target_k:
        # The first row attaining the global minimum, and its first column,
        # give the lowest (a, b) among equal-height pairs.
        a = int(near_d.argmin())
        b = int(near[a])
        h = near_d[a]
        if threshold is not None and h > threshold:
            break
        merges.append((float(h), a, b))
        na, nb = len(members[a]), len(members[b])
        if linkage == "single":
            nd = np.minimum(d[a], d[b])
        elif linkage == "complete":
            nd = np.maximum(d[a], d[b])
        else:
            nd = (na * d[a] + nb * d[b]) / (na + nb)
        nd[a] = nd[b] = np.inf
        d[a, :] = nd
        d[:, a] = nd
        d[b, :] = np.inf
        d[:, b] = np.inf
        members[a].extend(members[b])
        del members[b]
        near[b] = -1
        near_d[b] = np.inf

        # Rows above a whose neighbour survives see one changed entry,
        # d[c, a]; it takes over when lower, or equal at a lower column.
        col = nd[:a]
        take = (col < near_d[:a]) | ((col == near_d[:a]) & (a < near[:a]))
        near[:a][take] = a
        near_d[:a][take] = col[take]
        # Rows whose neighbour was a or b, row a itself among them.
        for c in np.flatnonzero((near == a) | (near == b)).tolist():
            rescan(c)

    reps = sorted(members)
    labels = np.empty(m, dtype=np.int64)
    for lab, rep in enumerate(reps):
        labels[members[rep]] = lab
    return ClusterAssignment(
        labels=tuple(int(v) for v in labels),
        k=len(reps),
        merges=tuple(merges),
    )


def _contingency(pred, truth) -> np.ndarray:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ClusterError(
            f"partition universes differ: {pred.shape} vs {truth.shape}"
        )
    if pred.size == 0:
        raise ClusterError("empty partitions")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def nmi(pred, truth) -> float:
    """Normalised mutual information, 2 I(Y,P) / (H(P) + H(Y)), natural logs.

    Defined as 1.0 when both partitions are single-cluster, and 0.0 when
    the mutual information is zero.
    """
    table = _contingency(pred, truth)
    n = table.sum()
    pj = table.sum(axis=1) / n
    tj = table.sum(axis=0) / n
    hp = -np.sum(pj[pj > 0] * np.log(pj[pj > 0]))
    ht = -np.sum(tj[tj > 0] * np.log(tj[tj > 0]))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    p = table / n
    nz = p > 0
    outer = pj[:, None] * tj[None, :]
    mi = float(np.sum(p[nz] * np.log(p[nz] / outer[nz])))
    if mi <= 0.0:
        return 0.0
    return float(2.0 * mi / (hp + ht))


def wcp(pred, truth) -> float:
    """Weighted clustering purity: size-weighted majority-class fraction."""
    table = _contingency(pred, truth)
    return float(table.max(axis=1).sum() / table.sum())


def c_dif(pred_k: int, true_k: int) -> int:
    """Absolute difference between predicted and true cluster counts."""
    if pred_k < 1 or true_k < 1:
        raise ClusterError("cluster counts must be >= 1")
    return abs(pred_k - true_k)


def sdbw(vectors, labels) -> float:
    """S-Dbw validity index (scattering + inter-cluster density); lower is
    better.  Requires at least two non-empty clusters."""
    x = np.asarray(vectors, dtype=np.float64)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    k = len(uniq)
    if k < 2:
        raise ClusterError("S-Dbw undefined for k<2")

    clusters = [x[labels == u] for u in uniq]
    centroids = np.array([c.mean(axis=0) for c in clusters])
    var_all = x.var(axis=0)  # per-dimension, biased
    norm_all = np.linalg.norm(var_all)
    cluster_var_norms = np.array(
        [np.linalg.norm(c.var(axis=0)) for c in clusters]
    )
    scat = float(cluster_var_norms.mean() / norm_all) if norm_all > 0 else 0.0

    stdev = float(np.sqrt(cluster_var_norms).mean())

    def density(point, pts) -> int:
        return int((np.linalg.norm(pts - point, axis=1) <= stdev).sum())

    dens_terms = []
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            union = np.vstack([clusters[i], clusters[j]])
            mid = 0.5 * (centroids[i] + centroids[j])
            denom = max(density(centroids[i], union), density(centroids[j], union))
            num = density(mid, union)
            dens_terms.append(num / denom if denom > 0 else 0.0)
    dens_bw = float(np.mean(dens_terms))
    return scat + dens_bw
