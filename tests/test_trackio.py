"""Track data model, container round-trips and the synthetic generator."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackcentre import (
    EmbeddingTrack,
    SyntheticSpec,
    TrackSet,
    derive_cannot_links,
    generate_synthetic,
    load_trackset,
    save_trackset,
)
from trackcentre.trackio import TrackIOError, _time_groups

from conftest import random_trackset


def test_track_invariants(rng):
    t = EmbeddingTrack(0, 5, 8, rng.standard_normal((4, 3)))
    assert t.length == 4
    assert t.dim == 3

    with pytest.raises(TrackIOError):
        EmbeddingTrack(0, 5, 4, rng.standard_normal((0, 3)))
    with pytest.raises(TrackIOError):
        EmbeddingTrack(0, 0, 1, rng.standard_normal((3, 3)))
    with pytest.raises(TrackIOError):
        EmbeddingTrack(-1, 0, 0, rng.standard_normal((1, 3)))
    bad = np.ones((2, 3))
    bad[1, 2] = np.nan
    with pytest.raises(TrackIOError):
        EmbeddingTrack(0, 0, 1, bad)


def test_trackset_invariants(rng):
    a = EmbeddingTrack(1, 0, 1, rng.standard_normal((2, 4)))
    b = EmbeddingTrack(1, 5, 6, rng.standard_normal((2, 4)))
    with pytest.raises(TrackIOError, match="duplicate track id"):
        TrackSet(tracks=(a, b), dim=4, video_id="v")
    with pytest.raises(TrackIOError, match="empty trackset"):
        TrackSet(tracks=(), dim=4, video_id="v")
    c = EmbeddingTrack(2, 0, 1, rng.standard_normal((2, 3)))
    with pytest.raises(TrackIOError, match="dimension mismatch"):
        TrackSet(tracks=(a, c), dim=4, video_id="v")


def test_roundtrip_two_tracks(tmp_path, rng):
    ts = random_trackset(rng, n_tracks=2)
    save_trackset(ts, tmp_path / "x")
    assert load_trackset(tmp_path / "x") == ts


def test_roundtrip_random(tmp_path):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ts = random_trackset(rng, n_tracks=int(rng.integers(1, 8)))
        save_trackset(ts, tmp_path / f"t{seed}")
        assert load_trackset(tmp_path / f"t{seed}") == ts


def test_roundtrip_preserves_labels_and_distractors(tmp_path, rng):
    t = EmbeddingTrack(
        3, 0, 2, rng.standard_normal((3, 4)), label=7, distractor_frames=(1,)
    )
    ts = TrackSet(tracks=(t,), dim=4, video_id="v")
    save_trackset(ts, tmp_path / "d")
    back = load_trackset(tmp_path / "d")
    assert back.tracks[0].label == 7
    assert back.tracks[0].distractor_frames == (1,)


def test_save_deterministic(tmp_path, rng):
    ts = random_trackset(rng)
    save_trackset(ts, tmp_path / "a")
    save_trackset(ts, tmp_path / "b")
    for suffix in (".manifest.json", ".emb"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (
            tmp_path / f"b{suffix}"
        ).read_bytes()


def test_load_dimension_mismatch(tmp_path, rng):
    ts = random_trackset(rng, n_tracks=1, dim=8, max_len=1)
    save_trackset(ts, tmp_path / "x")
    blob = (tmp_path / "x.emb").read_bytes()
    (tmp_path / "x.emb").write_bytes(blob[:-4])
    with pytest.raises(TrackIOError, match="dimension mismatch"):
        load_trackset(tmp_path / "x")


def test_load_duplicate_id(tmp_path, rng):
    ts = random_trackset(rng, n_tracks=2, dim=2, max_len=2)
    save_trackset(ts, tmp_path / "x")
    manifest = (tmp_path / "x.manifest.json").read_text()
    manifest = manifest.replace('"track_id": 1', '"track_id": 0')
    (tmp_path / "x.manifest.json").write_text(manifest)
    with pytest.raises(TrackIOError, match="duplicate track id"):
        load_trackset(tmp_path / "x")


def test_load_missing_files(tmp_path):
    with pytest.raises(TrackIOError, match="missing"):
        load_trackset(tmp_path / "nothing")


def test_synthetic_single_identity():
    spec = SyntheticSpec(identity_count=1, tracks_per_identity=5, dim=4, seed=1)
    ts = generate_synthetic(spec)
    assert set(ts.labels()) == {0}


def test_synthetic_zero_noise():
    spec = SyntheticSpec(
        identity_count=3,
        tracks_per_identity=2,
        dim=6,
        noise_scale=0.0,
        distractor_prob=0.0,
        seed=2,
    )
    ts = generate_synthetic(spec)
    centroids = {}
    for t in ts.tracks:
        row0 = t.embeddings[0]
        assert np.linalg.norm(row0) == pytest.approx(1.0, abs=1e-12)
        assert np.all(t.embeddings == row0)
        centroids.setdefault(t.label, row0)
        assert np.array_equal(centroids[t.label], row0)
        assert np.max(np.abs(t.embeddings.mean(axis=0) - row0)) <= 1e-12


def test_synthetic_deterministic(tmp_path):
    spec = SyntheticSpec(seed=5)
    save_trackset(generate_synthetic(spec), tmp_path / "a")
    save_trackset(generate_synthetic(spec), tmp_path / "b")
    assert (tmp_path / "a.emb").read_bytes() == (tmp_path / "b.emb").read_bytes()
    assert (tmp_path / "a.manifest.json").read_bytes() == (
        tmp_path / "b.manifest.json"
    ).read_bytes()


def test_synthetic_overlap_never_shares_label():
    for seed in range(5):
        spec = SyntheticSpec(
            identity_count=4, tracks_per_identity=6, dim=4,
            cooccurrence_density=0.4, seed=seed,
        )
        ts = generate_synthetic(spec)
        for a in ts.tracks:
            for b in ts.tracks:
                if a.track_id >= b.track_id:
                    continue
                overlap = (
                    a.start_frame <= b.end_frame and b.start_frame <= a.end_frame
                )
                if overlap:
                    assert a.label != b.label


def test_synthetic_overlap_density_bounded_and_nonzero():
    # With K identities, overlapping tracks must carry distinct labels, so
    # at most (K - 1) / (M - 1) of the pairs can overlap (0.040 here, far
    # below the requested 0.3); the generator warns, produces that maximum
    # and never exceeds the request.
    spec = SyntheticSpec(
        identity_count=5, tracks_per_identity=20, dim=8,
        cooccurrence_density=0.3, seed=0,
    )
    with pytest.warns(UserWarning, match="unreachable"):
        ts = generate_synthetic(spec)
    m = len(ts)
    partners = {t.track_id: 0 for t in ts.tracks}
    count = 0
    for a in ts.tracks:
        for b in ts.tracks:
            if a.track_id < b.track_id and (
                a.start_frame <= b.end_frame and b.start_frame <= a.end_frame
            ):
                count += 1
                partners[a.track_id] += 1
                partners[b.track_id] += 1
    density = count / (m * (m - 1) / 2)
    assert 0.02 <= density <= 0.3
    # every track co-occurs with someone, so repel sampling covers all tracks
    assert all(v > 0 for v in partners.values())


def test_synthetic_unreachable_density_warns():
    """5 identities x 20 tracks allow at most 4/99 of the pairs to overlap:
    larger requests warn and all give that maximum, 200 pairs."""
    for density in (0.05, 0.3, 0.9):
        with pytest.warns(UserWarning, match="produced 0.0404"):
            ts = generate_synthetic(SyntheticSpec(cooccurrence_density=density, seed=5))
        assert derive_cannot_links(ts).bits.sum() // 2 == 200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = generate_synthetic(SyntheticSpec(cooccurrence_density=0.02, seed=5))
    assert 0 < derive_cannot_links(ts).bits.sum() // 2 <= 0.02 * 4950


def test_synthetic_distractors_recorded():
    spec = SyntheticSpec(
        identity_count=2, tracks_per_identity=3, dim=4,
        min_length=20, max_length=30,
        distractor_prob=0.3, distractor_scale=2.0, seed=3,
    )
    ts = generate_synthetic(spec)
    total = sum(len(t.distractor_frames) for t in ts.tracks)
    assert total > 0
    for t in ts.tracks:
        for f in t.distractor_frames:
            assert 0 <= f < t.length


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(identity_count=0)
    with pytest.raises(ValueError):
        SyntheticSpec(min_length=5, max_length=4)
    with pytest.raises(ValueError):
        SyntheticSpec(cooccurrence_density=1.5)


def rescanning_groups(labels, order, k, target_pairs):
    """Straight-line grouping oracle: each group rescans every pending track
    in order and takes it if its label is new to the group and the pair
    budget allows one more member."""
    groups, made_pairs, pending = [], 0.0, [int(i) for i in order]
    while pending:
        group, used, rest = [], set(), []
        for idx in pending:
            grown = len(group)
            lab = int(labels[idx])
            if lab not in used and made_pairs + grown <= target_pairs and grown < k:
                group.append(idx)
                used.add(lab)
                made_pairs += grown
            else:
                rest.append(idx)
        groups.append(group)
        pending = rest
    return groups, made_pairs


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 10),
    per_identity=st.integers(1, 15),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_groups_match_rescanning_oracle(k, per_identity, density, seed):
    """The heap grouping of generate_synthetic makes the groups, in order,
    and the pair count of the rescanning loop, at reachable and unreachable
    densities."""
    m = k * per_identity
    labels = np.repeat(np.arange(k), per_identity)
    order = np.random.default_rng(seed).permutation(m)
    target = density * m * (m - 1) / 2
    assert _time_groups(labels, order, k, target) == rescanning_groups(
        labels, order, k, target
    )
