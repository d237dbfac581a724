"""Clip sampler, epoch rows, vc loss/gradients, centres, schedule and trainer."""

import warnings

import numpy as np
import pytest

from trackcentre import (
    EncoderConfig,
    TrainConfig,
    derive_cannot_links,
    grad_z,
    init_params,
    onecycle_lr,
    sample_clip_consecutive,
    train,
    update_centre,
    vc_loss,
)
from trackcentre import encoder as enc
from trackcentre.trackio import TrackSet
from trackcentre.vcl import (
    TrainError,
    _batch_loss_and_gradz,
    _draw_samples,
    _CHUNK,
    _update_centres,
    clips_of,
    init_centres,
    streamed_step,
    write_history_csv,
)

from conftest import loss_batch, make_track


def test_sampler_n1():
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert sample_clip_consecutive(1, 90, rng) == (0, 1)


def test_sampler_n2():
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert sample_clip_consecutive(2, 90, rng) == (0, 2)


def test_sampler_support_enumeration():
    """1e5 draws at n=10 hit exactly {(s, l): 0<=s<=8, 2<=l<=10-s}."""
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(100_000):
        start, length = sample_clip_consecutive(10, 90, rng)
        assert type(start) is int and type(length) is int
        seen.add((start, length))
    expected = {(s, l) for s in range(0, 9) for l in range(2, 11 - s)}
    assert seen == expected


def test_sampler_cap():
    rng = np.random.default_rng(2)
    for _ in range(2000):
        start, length = sample_clip_consecutive(50, 5, rng)
        assert 2 <= length <= 5 and start + length <= 50


def test_vc_loss_values():
    assert vc_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 1, 1.0) == 0.0
    assert vc_loss(np.array([3.0, 4.0]), np.zeros(2), 1, 1.0) == pytest.approx(2.5)
    assert vc_loss(np.array([0.5, 0.0]), np.zeros(2), 0, 1.0) == pytest.approx(0.25)
    assert vc_loss(np.array([1.2, 0.0]), np.zeros(2), 0, 1.0) == 0.0
    with pytest.raises(TrainError):
        vc_loss(np.array([np.nan, 0.0]), np.zeros(2), 1, 1.0)
    with pytest.raises(TrainError):
        vc_loss(np.zeros(2), np.zeros(2), 1, 0.0)


def test_vc_loss_nonnegative_and_hinge_boundary(rng):
    for _ in range(200):
        z = rng.standard_normal(3)
        c = rng.standard_normal(3)
        y = int(rng.integers(2))
        g = float(rng.uniform(0.1, 2.0))
        val = vc_loss(z, c, y, g)
        assert val >= 0.0
        if y == 0:
            dist = np.linalg.norm(z - c)
            assert (val == 0.0) == (dist >= g)


def test_grad_z_values():
    g = grad_z(np.array([3.0, 4.0]), np.zeros(2), 1, 1.0)
    assert np.allclose(g, [0.3, 0.4], atol=1e-15)
    g = grad_z(np.array([1.5, 0.0]), np.zeros(2), 0, 1.0)
    assert np.array_equal(g, np.zeros(2))
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        g = grad_z(np.zeros(2), np.zeros(2), 1, 1.0)
        assert np.array_equal(g, np.zeros(2))
        assert any("non-differentiable" in str(x.message) for x in w)


def test_grad_z_finite_differences():
    """1000 random strictly active/inactive instances vs central FD."""
    rng = np.random.default_rng(4)
    h = 1e-7
    checked = 0
    while checked < 1000:
        dim = int(rng.integers(1, 6))
        z = rng.standard_normal(dim)
        c = rng.standard_normal(dim)
        y = int(rng.integers(2))
        g = float(rng.uniform(0.2, 2.0))
        dist = float(np.linalg.norm(z - c))
        if dist < 1e-3 or abs(g - dist) < 1e-3:
            continue  # keep clear of the kink and the hinge boundary
        ana = grad_z(z, c, y, g)
        num = np.empty(dim)
        for i in range(dim):
            zp = z.copy(); zp[i] += h
            zm = z.copy(); zm[i] -= h
            num[i] = (vc_loss(zp, c, y, g) - vc_loss(zm, c, y, g)) / (2 * h)
        denom = max(np.linalg.norm(num), np.linalg.norm(ana), 1e-9)
        assert np.linalg.norm(num - ana) / denom <= 1e-6
        checked += 1


def test_batch_loss_matches_scalar_reference():
    """The batched loss and dL/dz of vc training equal vc_loss and grad_z
    row by row, at zero distance and on both sides of the margin."""
    z, c, ys, g = loss_batch(np.random.default_rng(11))
    losses, gz = _batch_loss_and_gradz(z, c, ys, g)
    assert np.any((ys == 0) & (losses == 0))  # some hinges are inactive
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # grad_z warns at zero distance
        for r in range(len(ys)):
            y = int(ys[r])
            assert losses[r] == pytest.approx(vc_loss(z[r], c[r], y, g), rel=1e-12)
            assert np.allclose(gz[r], grad_z(z[r], c[r], y, g), rtol=1e-12, atol=1e-15)


def test_update_centre_values():
    c = update_centre(np.array([2.0, 0.0]), np.zeros(2), 1, 1.0, 1.0)
    assert np.allclose(c, [1.5, 0.0], atol=1e-15)
    c = update_centre(np.array([2.0, 0.0]), np.zeros(2), 0, 1.0, 1.0)
    assert np.array_equal(c, [2.0, 0.0])  # hinge inactive at distance 2
    c = update_centre(np.array([0.0, 0.5]), np.zeros(2), 0, 0.2, 1.0)
    assert np.allclose(c, [0.0, 0.6], atol=1e-15)


def test_update_centre_attract_step_geometry(rng):
    """Attract step moves the centre exactly eta/2 along the chord."""
    for _ in range(50):
        c = rng.standard_normal(3)
        z = rng.standard_normal(3)
        dist = np.linalg.norm(z - c)
        eta = float(rng.uniform(0.01, 2.0 * dist * 0.99))
        c2 = update_centre(c, z, 1, eta, 1.0)
        assert np.linalg.norm(c2 - c) == pytest.approx(eta / 2, rel=1e-12)
        assert np.linalg.norm(z - c2) < dist


def scalar_update_centre(c, z, y, eta, g):
    """Reference: one centre, one straight-line step."""
    diff = z - c
    dist = float(np.linalg.norm(diff))
    if dist <= 1e-12:
        return c.copy()
    unit = diff / dist
    if y == 1:
        return c + eta * 0.5 * unit
    if g - dist > 0:
        return c - eta * 0.5 * unit
    return c.copy()


def test_update_centres_match_sequential_scalar_steps(rng):
    """Batched rounds equal stepping the rows one by one, with centres
    repeated up to five times, a zero-distance row and inactive hinges."""
    centres = rng.standard_normal((6, 2))
    ci = np.array([3, 0, 3, 5, 3, 1, 0, 3, 2, 3, 5, 0])
    ys = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1])
    z = rng.standard_normal((len(ci), 2))
    z[0] = centres[3]  # zero distance: centre 3's first step is skipped
    z[10] = centres[5] + [4.0, 0.0]  # beyond the margin: an inactive hinge
    eta, g = 0.3, 1.0
    expect = centres.copy()
    active = []
    for i in range(len(ci)):
        before = expect[ci[i]].copy()
        expect[ci[i]] = scalar_update_centre(before, z[i], ys[i], eta, g)
        active.append(not np.array_equal(expect[ci[i]], before))
    assert not active[0] and not active[10]
    assert any(a and y == 0 for a, y in zip(active, ys))  # an active repel too
    got = centres.copy()
    with pytest.warns(UserWarning, match="non-differentiable"):
        _update_centres(got, ci, z, ys, eta, g)
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-14)


def bucketed_reference(p, clips, centres, ys, g):
    """vc's batch step as one forward over all length-sorted chunks, with
    every chunk's cache kept, then one backward per chunk in order."""
    z = np.empty((len(clips), p.config.head_out_dim))
    caches = []
    for idx in enc.length_chunks([c.shape[0] for c in clips], _CHUNK):
        z[idx], cache = enc.forward_train_batch(p, [clips[i] for i in idx])
        caches.append((idx, cache))
    losses, gz = _batch_loss_and_gradz(z, centres, ys, g)
    gz /= len(clips)
    grads = None
    for idx, cache in caches:
        chunk = enc.backward(p, cache, gz[idx])
        grads = chunk if grads is None else {n: grads[n] + chunk[n] for n in grads}
    return z, losses, grads


def test_streamed_step_bit_identical_to_bucketed(rng):
    """The streamed step with one length-sorted chunk per group, as vc runs
    it, gives the same z, losses and gradients, bit for bit, as one forward
    over all chunks followed by one backward per chunk."""
    lengths = rng.integers(1, 13, size=75)  # three chunks, ragged last one
    for cfg in (
        EncoderConfig(model_dim=8, heads=2, layers=2),
        EncoderConfig(model_dim=8, heads=2, layers=3, use_positional_embedding=True,
                      max_positions=12),
    ):
        p = init_params(cfg, rng)
        clips = [rng.standard_normal((int(n), 8)) for n in lengths]
        centres = rng.standard_normal((len(clips), 2))
        ys = rng.integers(0, 2, size=len(clips))
        losses = np.empty(len(clips))

        def loss(idx, z):
            losses[idx], gz = _batch_loss_and_gradz(z, centres[idx], ys[idx], 1.0)
            return gz / len(clips)

        groups = enc.length_chunks(lengths, _CHUNK)
        z, grads = streamed_step(p, clips, groups, loss)

        z_ref, loss_ref, grads_ref = bucketed_reference(p, clips, centres, ys, 1.0)
        assert np.array_equal(z, z_ref)
        assert np.array_equal(losses, loss_ref)
        assert list(grads) == list(grads_ref) == list(p.tensors)
        for name in grads:
            assert np.array_equal(grads[name], grads_ref[name]), name


def test_init_centres_match_single_track_head(rng):
    """Centres from the length-chunked forward plus the head equal the
    training head on each whole track alone, within rounding: 19 tracks of
    mixed lengths (two of length 1) make one ragged chunk."""
    lengths = [5, 1, 9, 3, 12, 7, 2, 11, 4, 8, 6, 10, 1, 3, 9, 2, 12, 5, 7]
    tracks = tuple(make_track(i, 0, n, 8, rng) for i, n in enumerate(lengths))
    ts = TrackSet(tracks=tracks, dim=8, video_id="v")
    for cfg in (
        EncoderConfig(model_dim=8, heads=2, layers=2),
        EncoderConfig(model_dim=8, heads=2, layers=3, use_positional_embedding=True,
                      max_positions=12),
    ):
        p = init_params(cfg, rng)
        centres = init_centres(p, ts).centres
        assert centres.shape == (len(tracks), cfg.head_out_dim)
        for i, t in enumerate(tracks):
            single = enc.forward_train_batch(p, [t.embeddings])[0][0]
            np.testing.assert_allclose(centres[i], single, rtol=0, atol=1e-12)


def test_epoch_rows(separable_trackset):
    """Every row of one vc epoch: the clip lies inside its track and is at
    most clip_cap frames long, attract rows point at their own track's
    centre and repel rows at a cannot-link partner's."""
    ts = separable_trackset
    n = derive_cannot_links(ts)
    cfg = TrainConfig(epochs=2, warmup_epochs=1, clip_cap=4, seed=0)
    partner_lists = [n.partners(i) for i in range(len(ts))]
    rows = _draw_samples(ts.tracks, partner_lists, cfg, np.random.default_rng(3))
    assert rows.dtype == np.int64 and rows.shape[1] == 5
    track, start, length, ys, centre = rows.T
    lengths = np.array([t.length for t in ts.tracks])
    assert np.all((start >= 0) & (length >= 1) & (length <= cfg.clip_cap))
    assert np.all(start + length <= lengths[track])
    assert np.all(length >= np.minimum(2, lengths[track]))
    assert set(ys.tolist()) == {0, 1}
    assert np.array_equal(centre[ys == 1], track[ys == 1])
    assert all(n.bits[t, c] for t, c in zip(track[ys == 0], centre[ys == 0]))
    attract = np.bincount(track[ys == 1], minlength=len(ts))
    repel = np.bincount(track[ys == 0], minlength=len(ts))
    assert np.all(attract == cfg.attract_per_track)
    assert np.array_equal(repel, [cfg.repel_per_track * (len(p) > 0) for p in partner_lists])
    for (t, s, l), clip in zip(rows[:, :3], clips_of(ts.tracks, rows)):
        assert clip.base is not None  # a view, not a copy
        assert np.array_equal(clip, ts.tracks[t].embeddings[s : s + l])


def test_onecycle_endpoints():
    cfg = TrainConfig(epochs=9, warmup_epochs=4, max_lr=1e-3)
    total = 90
    last = total - 1
    warm = round(last * 4 / 9)
    assert onecycle_lr(0, total, cfg) == pytest.approx(1e-3 / 25, rel=1e-12)
    assert onecycle_lr(warm, total, cfg) == pytest.approx(1e-3, rel=1e-12)
    assert onecycle_lr(last, total, cfg) == pytest.approx(1e-3 / 1e4, rel=1e-12)
    # monotone up then down
    vals = [onecycle_lr(s, total, cfg) for s in range(total)]
    assert all(b >= a for a, b in zip(vals[: warm], vals[1 : warm + 1]))
    assert all(b <= a for a, b in zip(vals[warm:], vals[warm + 1 :]))
    with pytest.raises(TrainError):
        onecycle_lr(total, total, cfg)


def test_optimiser_rejects_non_finite():
    from trackcentre.vcl import OneCycleSGD

    cfg = TrainConfig(epochs=2, warmup_epochs=1, batch_size=2)
    opt = OneCycleSGD({"w": np.zeros((2, 2))}, cfg, np.random.default_rng(0))
    batches = opt.batches(np.arange(3))
    assert len(next(batches)) == 2
    assert opt.total_steps == 4
    with pytest.raises(TrainError, match="non-finite loss at epoch 1, batch 0"):
        opt.add_losses(np.array([0.5, np.nan]))
    with pytest.raises(TrainError, match="non-finite values in parameter w"):
        opt.step({"w": np.full((2, 2), np.inf)})


def test_config_validation():
    with pytest.raises(TrainError):
        TrainConfig(epochs=10, warmup_epochs=10)
    with pytest.raises(TrainError):
        TrainConfig(momentum=1.0)
    with pytest.raises(TrainError):
        TrainConfig(checkpoint_policy="best")
    with pytest.raises(TrainError):
        TrainConfig(margin=0.0)


def small_config(epochs=3, **kw):
    return TrainConfig(
        epochs=epochs,
        warmup_epochs=max(1, epochs // 2),
        max_lr=1e-3,
        batch_size=64,
        attract_per_track=4,
        repel_per_track=4,
        seed=0,
        **kw,
    )


def small_encoder(dim):
    return EncoderConfig(model_dim=dim, heads=2, layers=1, head_out_dim=2)


def test_train_attract_only_single_track(rng):
    ts = TrackSet(tracks=(make_track(0, 0, 6, 4, rng),), dim=4, video_id="v")
    n = derive_cannot_links(ts)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        params, table, history = train(ts, n, small_encoder(4), small_config(4))
        assert any("attract samples only" in str(x.message) for x in w)
    assert len(history) == 4
    assert history[-1]["mean_loss"] <= history[0]["mean_loss"]
    assert table.centres.shape == (1, 2)


def test_train_separable_end_to_end(separable_trackset):
    from trackcentre import KnownK, hac, nmi

    ts = separable_trackset
    n = derive_cannot_links(ts)
    cfg = TrainConfig(
        epochs=50, warmup_epochs=22, max_lr=1e-3, batch_size=128,
        attract_per_track=6, repel_per_track=8, seed=0,
    )
    params, _, history = train(ts, n, small_encoder(ts.dim), cfg)
    from trackcentre.encoder import forward_eval_batch

    reps = forward_eval_batch(params, [t.embeddings for t in ts.tracks])
    assign = hac(reps, stop=KnownK(2))
    truth = np.array(ts.labels())
    assert nmi(assign.as_array(), truth) == pytest.approx(1.0)


def test_train_deterministic(separable_trackset):
    ts = separable_trackset
    n = derive_cannot_links(ts)
    out = []
    for _ in range(2):
        params, table, history = train(ts, n, small_encoder(ts.dim), small_config())
        out.append((params, table, history))
    p0, t0, h0 = out[0]
    p1, t1, h1 = out[1]
    for name in p0.tensors:
        assert np.array_equal(p0.tensors[name], p1.tensors[name])
    assert np.array_equal(t0.centres, t1.centres)
    assert h0 == h1


def test_centre_recompute_consistency(separable_trackset):
    """After each scheduled recompute the table matches full recomputation."""
    ts = separable_trackset
    n = derive_cannot_links(ts)
    cfg = TrainConfig(
        epochs=6, warmup_epochs=2, max_lr=1e-3, batch_size=128,
        attract_per_track=3, repel_per_track=3,
        centre_recompute_interval=2, seed=1,
    )
    checked = []

    def on_epoch_end(epoch, params, table):
        if epoch % cfg.centre_recompute_interval == 0:
            cls = enc.forward_eval_batch(params, [t.embeddings for t in ts.tracks])
            assert np.array_equal(table.centres, enc.head_forward(params, cls))
            checked.append(epoch)

    train(ts, n, small_encoder(ts.dim), cfg, on_epoch_end=on_epoch_end)
    assert checked == [2, 4, 6]


def test_train_sample_budget(separable_trackset, monkeypatch):
    """Per-epoch sample count = 10 Ma + 16 Mr under the default budgets."""
    import trackcentre.vcl as vcl_mod

    ts = separable_trackset
    n = derive_cannot_links(ts)
    m = len(ts)
    repel_tracks = sum(1 for i in range(m) if len(n.partners(i)) > 0)
    cfg = TrainConfig(epochs=2, warmup_epochs=1, max_lr=1e-3, seed=0)
    assert cfg.attract_per_track == 10 and cfg.repel_per_track == 16

    rows = []
    real = vcl_mod._batch_loss_and_gradz

    def counting(z_batch, centres, ys, g):
        rows.append(len(z_batch))
        return real(z_batch, centres, ys, g)

    monkeypatch.setattr(vcl_mod, "_batch_loss_and_gradz", counting)
    seen = []
    train(ts, n, small_encoder(ts.dim), cfg,
          on_epoch_end=lambda epoch, params, table: seen.append(sum(rows)))
    # every sampled clip passes through the loss exactly once per epoch
    expected = 10 * m + 16 * repel_tracks
    assert np.diff([0] + seen).tolist() == [expected] * cfg.epochs


def test_best_sdbw_policy(separable_trackset):
    ts = separable_trackset
    n = derive_cannot_links(ts)
    cfg = TrainConfig(
        epochs=4, warmup_epochs=2, max_lr=1e-3, batch_size=128,
        attract_per_track=3, repel_per_track=3, seed=0,
        checkpoint_policy="best_sdbw",
    )
    params, _, history = train(ts, n, small_encoder(ts.dim), cfg)
    sdbws = [h["sdbw"] for h in history]
    assert all(v is not None for v in sdbws)
    assert np.all(np.isfinite(sdbws))


def test_history_csv_roundtrip(tmp_path):
    rows = [
        dict(epoch=1, mean_loss=0.5, lr=1e-3, sdbw=None),
        dict(epoch=2, mean_loss=0.25, lr=2e-3, sdbw=0.75),
        dict(epoch=3, mean_loss=np.float64(0.125), lr=np.float64(2.04e-05),
             sdbw=np.float64(0.5)),
    ]
    path = tmp_path / "h.csv"
    write_history_csv(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_loss,lr,sdbw"
    assert lines[1].split(",") == ["1", "0.5", "0.001", ""]
    assert float(lines[2].split(",")[3]) == 0.75
    assert lines[3].split(",") == ["3", "0.125", "2.04e-05", "0.5"]
