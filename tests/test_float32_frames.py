"""Loaded containers hold float32 frames; every method widens them where
its arithmetic starts, so its results equal those of the same frames held
as float64, bit for bit."""

import dataclasses

import numpy as np
import pytest

from trackcentre import (
    EncoderConfig,
    SyntheticSpec,
    TrackSet,
    TrainConfig,
    attention_profile,
    derive_cannot_links,
    generate_synthetic,
    init_params,
    load_trackset,
    save_trackset,
    temporal_average,
    train,
    train_pairwise,
)
from trackcentre.baselines import init_mlp, track_representation_mlp
from trackcentre.encoder import forward_eval_batch


@pytest.fixture
def pair(tmp_path):
    """(loaded trackset with float32 frames, the same tracks as float64)."""
    spec = SyntheticSpec(identity_count=2, tracks_per_identity=4, dim=8, min_length=3,
                         max_length=14, distractor_prob=0.2, cooccurrence_density=0.5,
                         seed=11)
    save_trackset(generate_synthetic(spec), tmp_path / "v")
    loaded = load_trackset(tmp_path / "v")
    assert all(t.embeddings.dtype == np.float32 for t in loaded.tracks)
    wide = TrackSet(
        tracks=tuple(dataclasses.replace(t, embeddings=t.embeddings.astype(np.float64))
                     for t in loaded.tracks),
        dim=loaded.dim, video_id=loaded.video_id,
    )
    return loaded, wide


ENCODERS = [
    EncoderConfig(model_dim=8, heads=2, layers=2),
    EncoderConfig(model_dim=8, heads=2, layers=1, use_positional_embedding=True,
                  max_positions=16),
]
TRAIN = TrainConfig(epochs=2, warmup_epochs=1, max_lr=1e-2, batch_size=32,
                    attract_per_track=4, repel_per_track=4, clip_cap=8,
                    centre_recompute_interval=1, seed=3)


def test_temporal_average_sums_in_float64(pair, rng):
    loaded, wide = pair
    for a, b in zip(loaded.tracks, wide.tracks):
        assert np.array_equal(temporal_average(a), temporal_average(b))
    for n in range(1, 40):
        for d in (1, 3, 8, 17, 32, 129):
            x = rng.standard_normal((n, d)).astype(np.float32)
            assert np.array_equal(x.mean(axis=0, dtype=np.float64),
                                  x.astype(np.float64).mean(axis=0))


def test_mlp_representation(pair, rng):
    loaded, wide = pair
    params = init_mlp(8, 4, 2, rng)
    for a, b in zip(loaded.tracks, wide.tracks):
        assert np.array_equal(track_representation_mlp(params, a),
                              track_representation_mlp(params, b))


@pytest.mark.parametrize("cfg", ENCODERS, ids=["plain", "positional"])
def test_encoder_eval_and_attention(pair, rng, cfg):
    loaded, wide = pair
    p = init_params(cfg, rng)
    assert np.array_equal(forward_eval_batch(p, [t.embeddings for t in loaded.tracks]),
                          forward_eval_batch(p, [t.embeddings for t in wide.tracks]))
    for a, b in zip(loaded.tracks, wide.tracks):
        scores_a, sigma_a = attention_profile(p, a.embeddings)
        scores_b, sigma_b = attention_profile(p, b.embeddings)
        assert np.array_equal(scores_a, scores_b) and sigma_a == sigma_b


def same_model(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[n], b[n]) for n in a)


@pytest.mark.parametrize("cfg", ENCODERS, ids=["plain", "positional"])
def test_vc_training(pair, cfg):
    (p_a, table_a, hist_a), (p_b, table_b, hist_b) = (
        train(ts, derive_cannot_links(ts), cfg, TRAIN) for ts in pair
    )
    assert hist_a == hist_b
    assert np.array_equal(table_a.centres, table_b.centres)
    assert same_model(p_a.tensors, p_b.tensors)


@pytest.mark.parametrize("kind", ["transformer", "mlp"])
def test_pairwise_training(pair, kind):
    (p_a, hist_a), (p_b, hist_b) = (
        train_pairwise(kind, ts, derive_cannot_links(ts), TRAIN, encoder_config=ENCODERS[0])
        for ts in pair
    )
    assert hist_a == hist_b
    assert same_model(p_a.tensors, p_b.tensors)
