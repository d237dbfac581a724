"""Temporal averaging and pairwise contrastive baselines."""

import dataclasses

import numpy as np
import pytest

from trackcentre import (
    EncoderConfig,
    TrainConfig,
    derive_cannot_links,
    pairwise_contrastive_loss,
    temporal_average,
    train_pairwise,
)
from trackcentre import baselines, vcl
from trackcentre.baselines import (
    SiameseMlpParams,
    _pair_loss_grads,
    init_mlp,
    mlp_backward,
    mlp_forward,
    track_representation_mlp,
)
from trackcentre.trackio import TrackSet
from trackcentre.vcl import OneCycleSGD, TrainError

from conftest import loss_batch, make_track


def test_temporal_average_constant(rng):
    row = rng.standard_normal(4)
    t = make_track(0, 0, 3, 4, rng)
    object.__setattr__(t, "embeddings", np.tile(row, (3, 1)))
    assert np.allclose(temporal_average(t), row, atol=1e-15)


def test_temporal_average_arithmetic(rng):
    t = make_track(0, 0, 2, 2, rng)
    object.__setattr__(t, "embeddings", np.array([[0.0, 2.0], [2.0, 0.0]]))
    assert np.array_equal(temporal_average(t), [1.0, 1.0])


def test_temporal_average_oracle(rng):
    t = make_track(0, 0, 7, 5, rng)
    mean = temporal_average(t)
    naive = np.zeros(5)
    for row in t.embeddings:
        naive = naive + row
    naive /= 7
    assert np.max(np.abs(mean - naive)) <= 1e-12


def test_pairwise_loss_values():
    z = np.array([1.0, 2.0])
    assert pairwise_contrastive_loss(z, z, 1, 1.0) == 0.0
    assert pairwise_contrastive_loss(z, z, 0, 1.0) == pytest.approx(0.5)
    far = z + np.array([2.0, 0.0])
    assert pairwise_contrastive_loss(z, far, 1, 1.0) == pytest.approx(2.0)
    with pytest.raises(TrainError):
        pairwise_contrastive_loss(np.array([np.nan, 0.0]), z, 1, 1.0)
    with pytest.raises(TrainError):
        pairwise_contrastive_loss(z, z, 1, -1.0)


def test_pairwise_loss_symmetry(rng):
    for _ in range(100):
        zi = rng.standard_normal(3)
        zj = rng.standard_normal(3)
        y = int(rng.integers(2))
        g = float(rng.uniform(0.1, 2.0))
        assert pairwise_contrastive_loss(zi, zj, y, g) == pytest.approx(
            pairwise_contrastive_loss(zj, zi, y, g), rel=1e-15
        )


def test_pair_loss_grads_match_scalar_reference():
    """The batched pair losses of tsiam and ct training equal
    pairwise_contrastive_loss row by row, and their gradients match central
    finite differences of it (zero at zero distance)."""
    zi, zj, ys, g = loss_batch(np.random.default_rng(12))
    losses, dzi, dzj = _pair_loss_grads(zi, zj, ys, g)
    assert np.any((ys == 0) & (losses == 0))  # some hinges are inactive
    h = 1e-6
    step = h * np.eye(zi.shape[1])
    for r in range(len(ys)):
        y = int(ys[r])

        def loss(a, b):
            return pairwise_contrastive_loss(a, b, y, g)

        assert losses[r] == pytest.approx(loss(zi[r], zj[r]), rel=1e-12)
        if np.array_equal(zi[r], zj[r]):
            assert not dzi[r].any() and not dzj[r].any()
            continue
        for k, e in enumerate(step):
            num_i = (loss(zi[r] + e, zj[r]) - loss(zi[r] - e, zj[r])) / (2 * h)
            num_j = (loss(zi[r], zj[r] + e) - loss(zi[r], zj[r] - e)) / (2 * h)
            assert dzi[r, k] == pytest.approx(num_i, abs=1e-7)
            assert dzj[r, k] == pytest.approx(num_j, abs=1e-7)


def test_mlp_forward_backward_gradcheck(rng):
    params = init_mlp(5, 3, 2, rng)
    x = rng.standard_normal((4, 5))
    dout = rng.standard_normal((4, 2))
    out, cache = mlp_forward(params, x)
    grads = mlp_backward(params, x, cache, dout)
    h = 1e-6
    for name, tensor in params.tensors.items():
        for fi in rng.choice(tensor.size, size=min(4, tensor.size), replace=False):
            ix = np.unravel_index(fi, tensor.shape)
            orig = tensor[ix]
            tensor[ix] = orig + h
            fp = float((mlp_forward(params, x)[0] * dout).sum())
            tensor[ix] = orig - h
            fm = float((mlp_forward(params, x)[0] * dout).sum())
            tensor[ix] = orig
            num = (fp - fm) / (2 * h)
            ana = grads[name][ix]
            assert abs(num - ana) / max(abs(num), abs(ana), 1e-6) <= 1e-4


def test_mlp_track_representation_composition(rng):
    """Track representation == temporal average of per-frame projections."""
    params = init_mlp(4, 2, 2, rng)
    t = make_track(0, 0, 5, 4, rng)
    rep = track_representation_mlp(params, t)
    frames, _ = mlp_forward(params, t.embeddings)
    assert np.max(np.abs(rep - frames.mean(axis=0))) <= 1e-12


def baseline_config(epochs=3):
    return TrainConfig(
        epochs=epochs,
        warmup_epochs=max(1, epochs // 2),
        max_lr=1e-3,
        batch_size=64,
        attract_per_track=4,
        repel_per_track=4,
        seed=0,
    )


def test_unknown_model_kind(separable_trackset):
    n = derive_cannot_links(separable_trackset)
    with pytest.raises(TrainError, match="unknown model kind"):
        train_pairwise("cnn", separable_trackset, n, baseline_config())


def test_transformer_mode_requires_config(separable_trackset):
    n = derive_cannot_links(separable_trackset)
    with pytest.raises(TrainError, match="encoder_config"):
        train_pairwise("transformer", separable_trackset, n, baseline_config())


@pytest.mark.parametrize("kind, best_epoch", [("mlp", 3), ("transformer", 2)],
                         ids=["tsiam", "ct"])
def test_pairwise_best_sdbw_keeps_lowest_sdbw_epoch(kind, best_epoch):
    """Under best_sdbw, tsiam and ct return the params of their
    lowest-S_Dbw epoch, here not the last: the same trajectory as under the
    final policy, but a different model, whose representations score the
    history's lowest sdbw."""
    from trackcentre import KnownK, SyntheticSpec, generate_synthetic, hac, sdbw

    ts = generate_synthetic(SyntheticSpec(
        identity_count=3, tracks_per_identity=6, dim=8, distractor_prob=0.3,
        distractor_scale=1.0, cooccurrence_density=0.1, seed=1,
    ))
    n = derive_cannot_links(ts)
    cfg = TrainConfig(epochs=6, warmup_epochs=2, max_lr=0.5, batch_size=64,
                      attract_per_track=4, repel_per_track=4, seed=0)
    enc_cfg = EncoderConfig(model_dim=ts.dim, heads=2, layers=1)
    final, final_history = train_pairwise(kind, ts, n, cfg, encoder_config=enc_cfg)
    best, history = train_pairwise(
        kind, ts, n, dataclasses.replace(cfg, checkpoint_policy="best_sdbw"),
        encoder_config=enc_cfg,
    )
    sdbws = [row["sdbw"] for row in history]
    assert int(np.argmin(sdbws)) + 1 == best_epoch < cfg.epochs
    assert [{**row, "sdbw": None} for row in history] == final_history
    assert not all(np.array_equal(best.tensors[k], final.tensors[k]) for k in best.tensors)
    reps = baselines.representations(best, ts.tracks)
    assert sdbw(reps, hac(reps, linkage="average", stop=KnownK(3)).as_array()) == min(sdbws)


def test_mlp_mode_separable_end_to_end(separable_trackset):
    from trackcentre import KnownK, hac, nmi

    ts = separable_trackset
    n = derive_cannot_links(ts)
    cfg = TrainConfig(
        epochs=40, warmup_epochs=18, max_lr=5e-3, batch_size=128,
        attract_per_track=6, repel_per_track=8, seed=0,
    )
    params, history = train_pairwise("mlp", ts, n, cfg)
    reps = np.stack([track_representation_mlp(params, t) for t in ts.tracks])
    assign = hac(reps, stop=KnownK(2))
    truth = np.array(ts.labels())
    assert nmi(assign.as_array(), truth) == pytest.approx(1.0)


def test_transformer_mode_runs_and_loss_drops(separable_trackset):
    ts = separable_trackset
    n = derive_cannot_links(ts)
    cfg = TrainConfig(
        epochs=10, warmup_epochs=4, max_lr=1e-3, batch_size=128,
        attract_per_track=3, repel_per_track=4, seed=0,
    )
    enc_cfg = EncoderConfig(model_dim=ts.dim, heads=2, layers=1, head_out_dim=2)
    params, history = train_pairwise(
        "transformer", ts, n, cfg, encoder_config=enc_cfg
    )
    assert len(history) == 10
    assert history[-1]["mean_loss"] <= history[0]["mean_loss"]


def test_attract_only_single_track(rng):
    import warnings

    ts = TrackSet(tracks=(make_track(0, 0, 8, 4, rng),), dim=4, video_id="v")
    n = derive_cannot_links(ts)
    cfg = baseline_config(5)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        params, history = train_pairwise("mlp", ts, n, cfg)
        assert any("positives only" in str(x.message) for x in w)
    # Mean must-link loss over all 28 frame pairs of the track, not over the
    # few pairs each epoch samples.
    a, b = np.triu_indices(8, k=1)

    def attract_loss(p):
        z, _ = mlp_forward(p, ts.tracks[0].embeddings)
        return np.mean([pairwise_contrastive_loss(z[i], z[j], 1, cfg.margin)
                        for i, j in zip(a, b)])

    initial = init_mlp(4, 2, 2, np.random.default_rng(cfg.seed))
    assert attract_loss(params) < attract_loss(initial)


def test_transformer_schedule_ends_with_partnerless_tracks():
    """ct's OneCycle schedule reaches max_lr/1e4 at its last step even when
    some tracks have no cannot-link partner and so draw no negatives."""
    from trackcentre import SyntheticSpec, generate_synthetic

    ts = generate_synthetic(SyntheticSpec(
        identity_count=3, tracks_per_identity=6, dim=8,
        cooccurrence_density=0.05, seed=0,
    ))
    n = derive_cannot_links(ts)
    with_partner = sum(1 for i in range(len(ts)) if len(n.partners(i)) > 0)
    assert 0 < with_partner < len(ts)
    cfg = TrainConfig(epochs=4, warmup_epochs=2, max_lr=1e-3, batch_size=64, seed=0)
    enc_cfg = EncoderConfig(model_dim=ts.dim, heads=2, layers=1, head_out_dim=2)
    _, history = train_pairwise("transformer", ts, n, cfg, encoder_config=enc_cfg)
    assert history[-1]["lr"] == pytest.approx(cfg.max_lr / 1e4)


def test_train_pairwise_deterministic(separable_trackset):
    ts = separable_trackset
    n = derive_cannot_links(ts)
    a, _ = train_pairwise("mlp", ts, n, baseline_config())
    b, _ = train_pairwise("mlp", ts, n, baseline_config())
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])

    enc_cfg = EncoderConfig(model_dim=ts.dim, heads=2, layers=1, head_out_dim=2)
    c, _ = train_pairwise("transformer", ts, n, baseline_config(), encoder_config=enc_cfg)
    d, _ = train_pairwise("transformer", ts, n, baseline_config(), encoder_config=enc_cfg)
    for name in c.tensors:
        assert np.array_equal(c.tensors[name], d.tensors[name])


class RecordingSGD(OneCycleSGD):
    """OneCycleSGD that records, per batch, the batch, the tensors before
    its update and the gradients the update received."""

    def __init__(self, *args):
        super().__init__(*args)
        self.seen = []
        RecordingSGD.last = self

    def batches(self, items):
        for batch in super().batches(items):
            self.seen.append([batch, {n: t.copy() for n, t in self.tensors.items()}])
            yield batch

    def step(self, grads):
        self.seen[-1].append({n: g.copy() for n, g in grads.items()})
        return super().step(grads)


def two_pass_reference(forward, backward, side_a, side_b, ys, g, n):
    """The pair step as two separate passes: forward each side, backward
    each side with its share of dL/dz (the batch of ``n`` pairs), sum the
    gradients."""
    za, cache_a = forward(side_a)
    zb, cache_b = forward(side_b)
    _, dza, dzb = _pair_loss_grads(za, zb, ys, g)
    ga = backward(cache_a, dza / n)
    gb = backward(cache_b, dzb / n)
    return za, zb, {name: ga[name] + gb[name] for name in ga}


def pair_dataset():
    from trackcentre import SyntheticSpec, generate_synthetic

    ts = generate_synthetic(SyntheticSpec(
        identity_count=3, tracks_per_identity=4, dim=8, min_length=2,
        max_length=30, cooccurrence_density=0.15, seed=3,
    ))
    return ts, derive_cannot_links(ts)


@pytest.mark.parametrize("kind", ["transformer", "transformer+pe", "mlp"])
def test_one_pass_pair_step_matches_two_pass_reference(monkeypatch, kind):
    """tsiam runs both sides of a batch's pairs through one forward and one
    backward call; ct streams a batch in groups of 128 pairs, ordered by
    each pair's longer clip, each group's clips in length-sorted chunks.
    For every group the z of both sides equal, within 1e-12, those of two
    separate passes, one per side, and the batch's gradients equal the sum
    of the groups' two-pass gradients."""
    from trackcentre import encoder as enc

    ts, n_matrix = pair_dataset()
    tracks = ts.tracks
    cfg = TrainConfig(epochs=2, warmup_epochs=1, max_lr=1e-2, batch_size=160,
                      attract_per_track=12, repel_per_track=12, seed=0)
    calls = []

    def spy(zi, zj, ys, g):
        calls.append((len(RecordingSGD.last.seen) - 1, zi.copy(), zj.copy()))
        return _pair_loss_grads(zi, zj, ys, g)

    monkeypatch.setattr(baselines, "_pair_loss_grads", spy)
    monkeypatch.setattr(vcl, "OneCycleSGD", RecordingSGD)
    if kind == "mlp":
        train_pairwise("mlp", ts, n_matrix, cfg)
    else:
        enc_cfg = EncoderConfig(model_dim=8, heads=2, layers=2, head_out_dim=2,
                                use_positional_embedding=kind.endswith("+pe"))
        train_pairwise("transformer", ts, n_matrix, cfg, encoder_config=enc_cfg)
    seen = RecordingSGD.last.seen
    assert len(seen) == 4
    assert max(len(batch) for batch, *_ in seen) > 128

    for b, (batch, before, grads) in enumerate(seen):
        n = len(batch)
        if kind == "mlp":
            p = SiameseMlpParams(tensors=before)

            def forward(x):
                z, cache = mlp_forward(p, x)
                return z, (x, cache)

            def backward(cache, dz):
                return mlp_backward(p, *cache, dz)

            def side(rows, cols):
                return np.stack([tracks[t].embeddings[f] for t, f in rows[:, cols]])

            a_cols, b_cols = [0, 1], [2, 3]
            groups = [np.arange(n)]
        else:
            p = enc.EncoderParams(config=enc_cfg, tensors=before)

            def forward(clips):
                return enc.forward_train_batch(p, clips)

            def backward(cache, dz):
                return enc.backward(p, cache, dz)

            def side(rows, cols):
                return [tracks[t].embeddings[s : s + m] for t, s, m in rows[:, cols]]

            a_cols, b_cols = [0, 1, 2], [3, 4, 5]
            longer = np.maximum(batch[:, 2], batch[:, 5])
            order = np.argsort(longer, kind="stable")
            groups = [order[g0 : g0 + 128] for g0 in range(0, n, 128)]
        batch_calls = [c for c in calls if c[0] == b]
        assert len(batch_calls) == len(groups)
        total = None
        for pairs, (_, zi, zj) in zip(groups, batch_calls):
            rows = batch[pairs]
            side_a, side_b = side(rows, a_cols), side(rows, b_cols)
            if kind != "mlp" and len(pairs) == 128:
                # several length-sorted chunks of mixed lengths
                lengths = [c.shape[0] for c in side_a + side_b]
                assert len(enc.token_chunks(lengths, enc.CHUNK_TOKENS)) > 1
                assert len({c.shape[0] for c in side_a + side_b}) > 5
            za, zb, ref = two_pass_reference(forward, backward, side_a, side_b,
                                             rows[:, -1], cfg.margin, n)
            assert np.max(np.abs(zi - za)) <= 1e-12
            assert np.max(np.abs(zj - zb)) <= 1e-12
            total = ref if total is None else {k: total[k] + ref[k] for k in ref}
        assert grads.keys() == total.keys()
        for name in total:
            assert np.max(np.abs(grads[name] - total[name])) <= 1e-12, name


def test_ct_forwards_at_most_one_group_before_backward(monkeypatch):
    """ct keeps at most one group of 128 pairs (256 clips) of forward caches
    alive: between two backward phases at most 256 clips are forwarded,
    although every batch holds more than 128 pairs."""
    from trackcentre import encoder as enc

    ts, n_matrix = pair_dataset()
    cfg = TrainConfig(epochs=2, warmup_epochs=1, max_lr=1e-2, batch_size=512,
                      attract_per_track=16, repel_per_track=16, seed=0)
    runs = [0]  # clips forwarded since the last backward call
    forward, backward = enc.forward_train_batch, enc.backward

    def counting_forward(params, clips):
        runs[-1] += len(clips)
        return forward(params, clips)

    def counting_backward(params, cache, dz):
        if runs[-1]:
            runs.append(0)
        return backward(params, cache, dz)

    monkeypatch.setattr(enc, "forward_train_batch", counting_forward)
    monkeypatch.setattr(enc, "backward", counting_backward)
    monkeypatch.setattr(vcl, "OneCycleSGD", RecordingSGD)
    enc_cfg = EncoderConfig(model_dim=8, heads=2, layers=1, head_out_dim=2)
    train_pairwise("transformer", ts, n_matrix, cfg, encoder_config=enc_cfg)
    assert min(len(batch) for batch, *_ in RecordingSGD.last.seen) > 128
    assert max(runs) == 2 * 128


def test_tsiam_evaluates_gelu_gate_once_per_batch(monkeypatch):
    """tsiam's backward reads the GELU gate its forward computed: one ndtr
    call per batch."""
    from trackcentre import encoder as enc

    ts, n_matrix = pair_dataset()
    cfg = TrainConfig(epochs=2, warmup_epochs=1, max_lr=1e-2, batch_size=64,
                      attract_per_track=4, repel_per_track=4, seed=0)
    counted = []

    def spy_on(module):
        ndtr = module.ndtr

        def spy(x):
            counted.append(x.shape)
            return ndtr(x)

        monkeypatch.setattr(module, "ndtr", spy)

    spy_on(enc)
    if hasattr(baselines, "ndtr"):
        spy_on(baselines)
    monkeypatch.setattr(vcl, "OneCycleSGD", RecordingSGD)
    train_pairwise("mlp", ts, n_matrix, cfg)
    assert len(RecordingSGD.last.seen) == 4
    assert len(counted) == 4
