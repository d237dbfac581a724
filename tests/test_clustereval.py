"""HAC and the clustering metrics against independent oracles."""

import itertools
import math

import numpy as np
import pytest

from trackcentre import KnownK, Threshold, c_dif, hac, nmi, sdbw, wcp
from trackcentre import clustereval
from trackcentre.clustereval import LINKAGES, ClusterAssignment, ClusterError


def oracle_nmi(pred, truth):
    """Contingency-table NMI written independently with plain loops."""
    n = len(pred)
    p_ids = sorted(set(pred))
    t_ids = sorted(set(truth))
    table = {
        (a, b): sum(1 for x, y in zip(pred, truth) if x == a and y == b)
        for a in p_ids
        for b in t_ids
    }
    hp = 0.0
    for a in p_ids:
        q = sum(table[(a, b)] for b in t_ids) / n
        if q > 0:
            hp -= q * math.log(q)
    ht = 0.0
    for b in t_ids:
        q = sum(table[(a, b)] for a in p_ids) / n
        if q > 0:
            ht -= q * math.log(q)
    if hp == 0.0 and ht == 0.0:
        return 1.0
    mi = 0.0
    for a in p_ids:
        pa = sum(table[(a, b)] for b in t_ids) / n
        for b in t_ids:
            pb = sum(table[(x, b)] for x in p_ids) / n
            joint = table[(a, b)] / n
            if joint > 0:
                mi += joint * math.log(joint / (pa * pb))
    if mi <= 0.0:
        return 0.0
    return 2.0 * mi / (hp + ht)


def oracle_wcp(pred, truth):
    total = 0
    for a in set(pred):
        members = [t for p, t in zip(pred, truth) if p == a]
        total += max(members.count(b) for b in set(members))
    return total / len(pred)


def oracle_hac(vectors, linkage, stop):
    """The straight-line HAC loop: rescans the whole matrix per merge."""
    x = np.asarray(vectors, dtype=np.float64)
    m = x.shape[0]
    if isinstance(stop, KnownK):
        target_k, threshold = stop.k, None
    else:
        target_k, threshold = 1, float(stop.t)

    diff = x[:, None, :] - x[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)

    # Active clusters: representative = smallest member index.
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    d = dist.copy()
    merges: list[tuple[float, int, int]] = []

    while len(members) > target_k:
        h = d.min()
        ties = np.argwhere(d == h)
        ties = ties[ties[:, 0] < ties[:, 1]]
        a, b = min((int(r), int(c)) for r, c in ties)
        if threshold is not None and h > threshold:
            break
        merges.append((float(h), a, b))
        na, nb = len(members[a]), len(members[b])
        for c in members:
            if c in (a, b):
                continue
            if linkage == "single":
                nd = min(d[a, c], d[b, c])
            elif linkage == "complete":
                nd = max(d[a, c], d[b, c])
            else:
                nd = (na * d[a, c] + nb * d[b, c]) / (na + nb)
            d[a, c] = d[c, a] = nd
        members[a].extend(members[b])
        del members[b]
        d[b, :] = np.inf
        d[:, b] = np.inf

    reps = sorted(members)
    labels = np.empty(m, dtype=np.int64)
    for lab, rep in enumerate(reps):
        labels[members[rep]] = lab
    return ClusterAssignment(
        labels=tuple(int(v) for v in labels),
        k=len(reps),
        merges=tuple(merges),
    )


def random_partition_pair(rng, max_m=50):
    m = int(rng.integers(2, max_m + 1))
    kp = int(rng.integers(1, m + 1))
    kt = int(rng.integers(1, m + 1))
    pred = rng.integers(0, kp, size=m)
    truth = rng.integers(0, kt, size=m)
    return list(pred), list(truth)


def test_nmi_identical():
    assert nmi([0, 0, 1, 1], [5, 5, 9, 9]) == 1.0
    assert nmi([0, 1, 2], [7, 8, 9]) == 1.0


def test_nmi_constant_prediction():
    assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0


def test_nmi_both_trivial():
    assert nmi([0, 0, 0], [4, 4, 4]) == 1.0


def test_nmi_hand_case():
    pred = [0, 0, 1, 1]
    truth = ["A", "A", "A", "B"]
    assert nmi(pred, truth) == pytest.approx(oracle_nmi(pred, truth), abs=1e-12)


def test_nmi_wcp_oracle_1000_random():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        pred, truth = random_partition_pair(rng)
        assert nmi(pred, truth) == pytest.approx(
            oracle_nmi(pred, truth), abs=1e-12
        )
        assert wcp(pred, truth) == pytest.approx(
            oracle_wcp(pred, truth), abs=1e-12
        )


def test_nmi_symmetry_and_relabeling():
    rng = np.random.default_rng(8)
    for _ in range(200):
        pred, truth = random_partition_pair(rng, max_m=20)
        assert nmi(pred, truth) == pytest.approx(nmi(truth, pred), abs=1e-12)
        relabeled = [p + 100 for p in pred]
        assert nmi(relabeled, truth) == pytest.approx(nmi(pred, truth), abs=1e-12)
        assert wcp(relabeled, truth) == pytest.approx(wcp(pred, truth), abs=1e-12)


def test_nmi_universe_mismatch():
    with pytest.raises(ClusterError):
        nmi([0, 1], [0, 1, 2])


def test_wcp_hand_counts():
    # clusters {A, A, B} and {B, B} -> (2 + 2) / 5
    assert wcp([0, 0, 0, 1, 1], ["A", "A", "B", "B", "B"]) == pytest.approx(0.8)
    # one cluster over 3 A and 1 B -> 3/4
    assert wcp([0, 0, 0, 0], ["A", "A", "A", "B"]) == pytest.approx(0.75)
    assert wcp([0, 0, 1, 1], ["A", "A", "B", "B"]) == 1.0


def test_c_dif():
    assert c_dif(3, 3) == 0
    assert c_dif(5, 3) == 2
    assert c_dif(3, 5) == 2
    with pytest.raises(ClusterError):
        c_dif(0, 3)


def test_hac_singletons(rng):
    x = rng.standard_normal((6, 3))
    a = hac(x, stop=KnownK(6))
    assert a.k == 6
    assert sorted(a.labels) == list(range(6))
    assert a.merges == ()


def test_hac_threshold_inf(rng):
    x = rng.standard_normal((6, 3))
    a = hac(x, stop=Threshold(np.inf))
    assert a.k == 1
    assert set(a.labels) == {0}


def test_hac_two_tight_pairs_all_linkages():
    x = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
    for linkage in ("single", "complete", "average"):
        a = hac(x, linkage=linkage, stop=KnownK(2))
        assert a.labels[0] == a.labels[1]
        assert a.labels[2] == a.labels[3]
        assert a.labels[0] != a.labels[2]


def test_hac_average_matches_exhaustive():
    """4 points: the chosen merge sequence is the best of all sequences."""
    rng = np.random.default_rng(9)
    x = rng.standard_normal((4, 2))
    a = hac(x, linkage="average", stop=KnownK(2))

    def avg_dist(ca, cb):
        return float(
            np.mean(
                [np.linalg.norm(x[i] - x[j]) for i in ca for j in cb]
            )
        )

    # first merge must be the globally closest pair
    pairs = list(itertools.combinations(range(4), 2))
    best = min(pairs, key=lambda p: np.linalg.norm(x[p[0]] - x[p[1]]))
    h0, a0, b0 = a.merges[0]
    assert (a0, b0) == best
    assert h0 == pytest.approx(np.linalg.norm(x[best[0]] - x[best[1]]))
    # second merge height equals the average-linkage distance it reports
    clusters = [[i] for i in range(4)]
    clusters[best[0]].extend(clusters[best[1]])
    del clusters[best[1]]
    h1, a1, b1 = a.merges[1]
    ca = next(c for c in clusters if min(c) == a1)
    cb = next(c for c in clusters if min(c) == b1)
    assert h1 == pytest.approx(avg_dist(ca, cb))


def test_hac_known_k_all_values():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((12, 3))
    for k in range(1, 13):
        assert hac(x, stop=KnownK(k)).k == k


def test_hac_threshold_monotone():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((15, 3))
    grid = np.linspace(0.0, 5.0, 40)
    ks = [hac(x, stop=Threshold(t)).k for t in grid]
    assert all(b <= a for a, b in zip(ks, ks[1:]))


def test_hac_merge_heights_nondecreasing():
    rng = np.random.default_rng(12)
    for linkage in ("single", "complete", "average"):
        x = rng.standard_normal((10, 2))
        a = hac(x, linkage=linkage, stop=KnownK(1))
        heights = [h for h, _, _ in a.merges]
        assert all(b >= a_ - 1e-12 for a_, b in zip(heights, heights[1:]))


def test_hac_deterministic_ties():
    # four corners of a square: all nearest-neighbour distances equal
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    a = hac(x, stop=KnownK(2))
    b = hac(x, stop=KnownK(2))
    assert a == b
    # lexicographic tie-break merges (0, 1) first
    assert a.merges[0][1:] == (0, 1)


def test_hac_matches_oracle_randomized():
    """Same labels, k and merge heights bit for bit as the straight-line
    loop, on Gaussian points and on integer grids full of equal distances."""
    rng = np.random.default_rng(15)
    for case in range(400):
        m = int(rng.integers(1, 61))
        dim = int(rng.integers(1, 5))
        if case % 2:
            x = rng.integers(0, 3, size=(m, dim)).astype(np.float64)
        else:
            x = rng.standard_normal((m, dim))
        for linkage in LINKAGES:
            if case % 4 < 2:
                stop = KnownK(int(rng.integers(1, m + 1)))
            else:
                stop = Threshold(float(rng.choice([0.0, 1.0, 1.5, np.inf, rng.uniform(0, 3)])))
            assert hac(x, linkage, stop) == oracle_hac(x, linkage, stop), (case, linkage, stop)


@pytest.mark.parametrize("dim", [1, 3, 7])
def test_distance_matrix_matches_full_broadcast(dim):
    """Below 8 dimensions cdist and numpy's sum both add the squared
    differences in order, so every entry equals the full broadcast
    exactly, columns of very different scales included."""
    scale = np.array([1.0, 1e3, 1e-3] * 3)[:dim]
    x = np.random.default_rng(3).standard_normal((11, dim)) * scale
    expect = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(expect, np.inf)
    assert np.array_equal(clustereval._distance_matrix(x), expect)


def test_hac_matches_oracle_at_32_dims():
    """At 32 dimensions numpy's sum splits each row over several
    accumulators, so distances differ from the broadcast in the last bit;
    on five separated clusters HAC still makes the oracle's merges."""
    rng = np.random.default_rng(21)
    centres = rng.standard_normal((5, 32)) * 10.0
    x = centres[rng.integers(0, 5, size=200)] + rng.standard_normal((200, 32))
    expect = np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(expect, np.inf)
    got = clustereval._distance_matrix(x)
    off = ~np.eye(200, dtype=bool)
    assert np.all(np.isinf(got[~off]))
    assert np.max(np.abs(got[off] - expect[off]) / expect[off]) <= 1e-15
    for linkage in LINKAGES:
        for stop in (KnownK(5), Threshold(30.0)):
            a, b = hac(x, linkage, stop), oracle_hac(x, linkage, stop)
            assert (a.labels, a.k) == (b.labels, b.k), (linkage, stop)
            assert [m[1:] for m in a.merges] == [m[1:] for m in b.merges]
            assert np.allclose([m[0] for m in a.merges], [m[0] for m in b.merges],
                               rtol=1e-14, atol=0.0)
            assert a.k == 5


def test_hac_rejects_non_finite():
    x = np.zeros((4, 2))
    x[1] = [0.0, 1.0]
    for bad in (np.nan, np.inf, -np.inf):
        y = x.copy()
        y[2, 1] = bad
        for stop in (KnownK(1), Threshold(np.inf)):
            with pytest.raises(ClusterError, match="non-finite"):
                hac(y, stop=stop)
    # Finite vectors whose squared distance overflows.
    with pytest.raises(ClusterError, match="overflow"):
        hac(np.array([[1e200], [-1e200], [0.0]]), stop=KnownK(1))


def test_hac_validation(rng):
    x = rng.standard_normal((3, 2))
    with pytest.raises(ClusterError):
        hac(x, stop=KnownK(4))
    with pytest.raises(ClusterError):
        hac(x, stop=None)
    with pytest.raises(ClusterError):
        hac(x, linkage="ward", stop=KnownK(2))
    with pytest.raises(ClusterError):
        hac(np.empty((0, 2)), stop=KnownK(1))


def test_sdbw_separated_vs_shuffled():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((30, 3)) * 0.1
    b = rng.standard_normal((30, 3)) * 0.1 + 10.0
    x = np.vstack([a, b])
    labels = np.array([0] * 30 + [1] * 30)
    tight = sdbw(x, labels)
    shuffled = labels[rng.permutation(60)]
    assert tight < sdbw(x, shuffled)


def test_sdbw_duplication_invariance():
    rng = np.random.default_rng(14)
    x = rng.standard_normal((20, 3))
    labels = np.array([0] * 10 + [1] * 10)
    base = sdbw(x, labels)
    doubled = sdbw(np.vstack([x, x]), np.concatenate([labels, labels]))
    assert doubled == pytest.approx(base, rel=1e-12)


def test_sdbw_single_cluster_error():
    with pytest.raises(ClusterError, match="k<2"):
        sdbw(np.zeros((4, 2)), np.zeros(4, dtype=int))
