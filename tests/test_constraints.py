"""Cannot-link derivation and constraint pair sampling."""

from collections import Counter

import numpy as np
import pytest

from trackcentre import (
    CannotLinkMatrix,
    TrackSet,
    derive_cannot_links,
    sample_pairs,
)
from trackcentre.constraints import ConstraintError

from conftest import make_track, random_trackset


def brute_force_cannot_links(trackset):
    """Oracle: explicit shared-frame-index enumeration per track pair."""
    tracks = trackset.tracks
    m = len(tracks)
    bits = np.zeros((m, m), dtype=np.uint8)
    frame_sets = [
        set(range(t.start_frame, t.end_frame + 1)) for t in tracks
    ]
    for a in range(m):
        for b in range(m):
            if a != b and frame_sets[a] & frame_sets[b]:
                bits[a, b] = 1
    return bits


def test_overlapping_spans(rng):
    ts = TrackSet(
        tracks=(
            make_track(0, 0, 11, 3, rng),   # frames [0, 10]
            make_track(1, 5, 8, 3, rng),    # frames [5, 12]
        ),
        dim=3,
        video_id="v",
    )
    n = derive_cannot_links(ts)
    assert n.bits[0, 1] == 1 and n.bits[1, 0] == 1


def test_disjoint_spans(rng):
    ts = TrackSet(
        tracks=(
            make_track(0, 0, 5, 3, rng),    # frames [0, 4]
            make_track(1, 5, 5, 3, rng),    # frames [5, 9]
        ),
        dim=3,
        video_id="v",
    )
    n = derive_cannot_links(ts)
    assert n.bits[0, 1] == 0 and n.bits[1, 0] == 0


def test_brute_force_oracle():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        ts = random_trackset(
            rng, n_tracks=int(rng.integers(2, 30)), frame_range=60
        )
        n = derive_cannot_links(ts)
        assert np.array_equal(n.bits, brute_force_cannot_links(ts))


def test_large_trackset_oracle():
    rng = np.random.default_rng(999)
    ts = random_trackset(rng, n_tracks=200, frame_range=400)
    n = derive_cannot_links(ts)
    assert np.array_equal(n.bits, brute_force_cannot_links(ts))


def test_matrix_symmetry_and_diagonal():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = derive_cannot_links(random_trackset(rng))
        assert np.array_equal(n.bits, n.bits.T)
        assert not np.any(np.diag(n.bits))


def test_matrix_validation():
    bad = np.array([[0, 1], [0, 0]], dtype=np.uint8)
    with pytest.raises(ConstraintError, match="symmetric"):
        CannotLinkMatrix(bits=bad, track_ids=(0, 1))
    diag = np.array([[1, 0], [0, 0]], dtype=np.uint8)
    with pytest.raises(ConstraintError, match="diagonal"):
        CannotLinkMatrix(bits=diag, track_ids=(0, 1))


def test_single_track_length_two(rng):
    ts = TrackSet(
        tracks=(make_track(0, 0, 2, 3, rng),), dim=3, video_id="v"
    )
    n = derive_cannot_links(ts)
    pairs = sample_pairs(ts, n, np.random.default_rng(0), 1, 0)
    assert pairs.shape == (1, 5) and pairs.dtype == np.int64
    ((ta, fa, tb, fb, y),) = pairs
    assert y == 1
    assert ta == tb == 0
    assert {fa, fb} == {0, 1}


def test_no_cannot_links_error(rng):
    ts = TrackSet(
        tracks=(make_track(0, 0, 3, 2, rng), make_track(1, 10, 3, 2, rng)),
        dim=2,
        video_id="v",
    )
    n = derive_cannot_links(ts)
    with pytest.raises(ConstraintError, match="no cannot-links available"):
        sample_pairs(ts, n, np.random.default_rng(0), 0, 5)


def test_all_length_one_error(rng):
    ts = TrackSet(
        tracks=(make_track(0, 0, 1, 2, rng), make_track(1, 0, 1, 2, rng)),
        dim=2,
        video_id="v",
    )
    n = derive_cannot_links(ts)
    with pytest.raises(ConstraintError, match="no must-link pairs"):
        sample_pairs(ts, n, np.random.default_rng(0), 3, 0)


def test_sampled_pair_support(rng):
    """Empirical support of 1e5 draws equals the enumerated valid pairs,
    each drawn equally often (within 5%): every ordered pair of distinct
    frames of one track, every frame pair of cannot-linked tracks."""
    ts = TrackSet(
        tracks=(
            make_track(0, 0, 3, 2, rng),   # frames [0, 2]
            make_track(1, 2, 2, 2, rng),   # frames [2, 3], overlaps 0
            make_track(2, 10, 2, 2, rng),  # disjoint
        ),
        dim=2,
        video_id="v",
    )
    n = derive_cannot_links(ts)
    pairs = sample_pairs(ts, n, np.random.default_rng(1), 50_000, 50_000)
    assert pairs.shape == (100_000, 5)
    counts = Counter(map(tuple, pairs.tolist()))

    expected_pos = {
        (ti, i, ti, j, 1)
        for ti, t in enumerate(ts.tracks)
        for i in range(t.length)
        for j in range(t.length)
        if i != j
    }
    expected_neg = {(0, i, 1, j, 0) for i in range(3) for j in range(2)}
    assert set(counts) == expected_pos | expected_neg
    for expected in (expected_pos, expected_neg):
        mean = 50_000 / len(expected)
        assert all(abs(counts[p] - mean) <= 0.05 * mean for p in expected)


def test_pair_label_consistency():
    rng = np.random.default_rng(3)
    ts = random_trackset(rng, n_tracks=10, frame_range=20)
    n = derive_cannot_links(ts)
    n_neg = 5000 if n.any_links() else 0
    pairs = sample_pairs(ts, n, rng, 5000, n_neg)
    assert pairs.shape == (5000 + n_neg, 5) and pairs.dtype == np.int64
    ta, fa, tb, fb, y = pairs.T
    assert np.array_equal(y, np.repeat([1, 0], [5000, n_neg]))
    lengths = np.array([t.length for t in ts.tracks])
    assert np.all((0 <= fa) & (fa < lengths[ta]))
    assert np.all((0 <= fb) & (fb < lengths[tb]))
    pos = y == 1
    assert np.array_equal(ta[pos], tb[pos])
    assert np.all(fa[pos] != fb[pos])
    assert np.all(n.bits[ta[~pos], tb[~pos]] == 1)
