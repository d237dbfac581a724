"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from trackcentre import EmbeddingTrack, SyntheticSpec, TrackSet, generate_synthetic


def make_track(track_id, start, length, dim, rng, label=None):
    # Embeddings pass through float32 so on-disk round-trips are exact.
    emb = rng.standard_normal((length, dim)).astype(np.float32).astype(np.float64)
    return EmbeddingTrack(
        track_id=track_id,
        start_frame=start,
        end_frame=start + length - 1,
        embeddings=emb,
        label=label,
    )


def random_trackset(rng, n_tracks=6, dim=4, max_len=8, frame_range=40):
    tracks = []
    for i in range(n_tracks):
        length = int(rng.integers(1, max_len + 1))
        start = int(rng.integers(0, frame_range))
        tracks.append(make_track(i, start, length, dim, rng))
    return TrackSet(tracks=tuple(tracks), dim=dim, video_id="rand")


def loss_batch(rng, rows=240, dim=3, g=0.8):
    """Rows (a, b, y) for the batched losses plus their margin g: attract
    (y=1) and repel (y=0) rows at zero distance, inside the margin and
    beyond it (an inactive hinge), every combination equally often."""
    a = rng.standard_normal((rows, dim))
    direction = rng.standard_normal((rows, dim))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    kind = np.arange(rows) % 3
    dist = np.select(
        [kind == 0, kind == 1],
        [0.0, rng.uniform(0.05, 0.95, rows) * g],
        rng.uniform(1.05, 3.0, rows) * g,
    )
    b = a + dist[:, None] * direction
    ys = (np.arange(rows) // 3) % 2
    return a, b, ys, g


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def small_trackset(rng):
    return random_trackset(rng)


@pytest.fixture
def separable_trackset():
    """Two identities, well separated, every track overlapping a partner."""
    spec = SyntheticSpec(
        identity_count=2,
        tracks_per_identity=4,
        dim=8,
        min_length=3,
        max_length=6,
        noise_scale=0.05,
        cooccurrence_density=0.5,
        seed=7,
    )
    return generate_synthetic(spec)
