"""Encoder forward/backward correctness.

The forward pass is checked against a deliberately naive straight-line
re-implementation (python loops, math.erf, no shared helper code); the
backward pass against central finite differences.
"""

import math

import numpy as np
import pytest

from trackcentre import (
    EncoderConfig,
    attention_profile,
    backward,
    forward_eval,
    forward_train,
    init_params,
)
from trackcentre import encoder as enc
from trackcentre.encoder import EncoderError, forward_eval_batch, forward_train_batch

GRAD_FLOOR = 1e-6  # relative error floor; some bias gradients are ~0 by symmetry


def naive_forward(params, clip):
    """Independent oracle: the same architecture written as plain loops."""
    cfg = params.config
    t = params.tensors
    d, h, dh = cfg.model_dim, cfg.heads, cfg.model_dim // cfg.heads

    def ln(row, g, b):
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        inv = 1.0 / math.sqrt(var + 1e-6)
        return [g[i] * (row[i] - mu) * inv + b[i] for i in range(len(row))]

    def gelu_scalar(v):
        return 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))

    def matvec(w, row):
        # row (fan_in,), w (fan_in, fan_out)
        fan_in, fan_out = len(row), len(w[0])
        return [
            sum(row[i] * w[i][j] for i in range(fan_in)) for j in range(fan_out)
        ]

    tokens = [list(t["class_token"])]
    for frame in clip:
        tokens.append(list(frame))
    s = len(tokens)

    for li in range(cfg.layers):
        p = f"layers.{li}"
        normed = [ln(tok, t[f"{p}.ln1.g"], t[f"{p}.ln1.b"]) for tok in tokens]
        # q, k and v are the three column blocks of the fused projection.
        wqkv, bqkv = t[f"{p}.attn.wqkv"], t[f"{p}.attn.bqkv"]
        wq, wk, wv = wqkv[:, :d], wqkv[:, d : 2 * d], wqkv[:, 2 * d :]
        bq, bk, bv = bqkv[:d], bqkv[d : 2 * d], bqkv[2 * d :]
        q = [[a + b for a, b in zip(matvec(wq, n), bq)] for n in normed]
        k = [[a + b for a, b in zip(matvec(wk, n), bk)] for n in normed]
        v = [[a + b for a, b in zip(matvec(wv, n), bv)] for n in normed]
        merged = []
        for qi in range(s):
            out_row = [0.0] * d
            for head in range(h):
                lo = head * dh
                scores = []
                for ki in range(s):
                    dot = sum(
                        q[qi][lo + a] * k[ki][lo + a] for a in range(dh)
                    )
                    scores.append(dot / math.sqrt(dh))
                mx = max(scores)
                exps = [math.exp(sc - mx) for sc in scores]
                z = sum(exps)
                probs = [e / z for e in exps]
                for a in range(dh):
                    out_row[lo + a] = sum(
                        probs[ki] * v[ki][lo + a] for ki in range(s)
                    )
            merged.append(out_row)
        attn = [
            [a + b for a, b in zip(matvec(t[f"{p}.attn.wo"], row), t[f"{p}.attn.bo"])]
            for row in merged
        ]
        tokens = [
            [tokens[i][j] + attn[i][j] for j in range(d)] for i in range(s)
        ]
        normed2 = [ln(tok, t[f"{p}.ln2.g"], t[f"{p}.ln2.b"]) for tok in tokens]
        hidden = [
            [
                gelu_scalar(a + b)
                for a, b in zip(matvec(t[f"{p}.mlp.w1"], n), t[f"{p}.mlp.b1"])
            ]
            for n in normed2
        ]
        mlp = [
            [a + b for a, b in zip(matvec(t[f"{p}.mlp.w2"], row), t[f"{p}.mlp.b2"])]
            for row in hidden
        ]
        tokens = [
            [tokens[i][j] + mlp[i][j] for j in range(d)] for i in range(s)
        ]

    cls = tokens[0]
    head_in = ln(cls, t["head.ln.g"], t["head.ln.b"])
    z_head = [
        a + b for a, b in zip(matvec(t["head.w"], head_in), t["head.b"])
    ]
    return np.array(cls), np.array(z_head)


def rel_err(num, ana):
    return abs(num - ana) / max(abs(num), abs(ana), GRAD_FLOOR)


def test_config_validation():
    EncoderConfig(model_dim=32, heads=16)  # per-head dim 2, fine
    with pytest.raises(EncoderError):
        EncoderConfig(model_dim=30, heads=16)
    with pytest.raises(EncoderError):
        EncoderConfig(model_dim=8, heads=2, layers=0)
    with pytest.raises(EncoderError):
        EncoderConfig(model_dim=8, heads=2, head_out_dim=0)


def test_init_deterministic():
    cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
    a = init_params(cfg, np.random.default_rng(3))
    b = init_params(cfg, np.random.default_rng(3))
    assert a.tensors.keys() == b.tensors.keys()
    for name in a.tensors:
        assert np.array_equal(a.tensors[name], b.tensors[name])


def test_init_ln_gains():
    cfg = EncoderConfig(model_dim=8, heads=2, layers=3)
    p = init_params(cfg, np.random.default_rng(0))
    for i in range(3):
        assert np.all(p.tensors[f"layers.{i}.ln1.g"] == 1.0)
        assert np.all(p.tensors[f"layers.{i}.ln2.g"] == 1.0)
        assert np.all(p.tensors[f"layers.{i}.ln1.b"] == 0.0)
    assert np.all(p.tensors["head.ln.g"] == 1.0)


def test_forward_matches_naive_oracle():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        cfg = EncoderConfig(model_dim=4, heads=2, layers=1, head_out_dim=2)
        p = init_params(cfg, rng)
        clip = rng.standard_normal((3, 4))
        cls_ref, z_ref = naive_forward(p, clip)
        z, _ = forward_train(p, clip)
        cls = forward_eval(p, clip)
        assert np.max(np.abs(z - z_ref)) <= 1e-12
        assert np.max(np.abs(cls - cls_ref)) <= 1e-12


def test_forward_matches_naive_oracle_bigger():
    rng = np.random.default_rng(11)
    cfg = EncoderConfig(model_dim=6, heads=3, layers=2, mlp_hidden=10, head_out_dim=4)
    p = init_params(cfg, rng)
    clip = rng.standard_normal((5, 6))
    cls_ref, z_ref = naive_forward(p, clip)
    z, _ = forward_train(p, clip)
    assert np.max(np.abs(z - z_ref)) <= 1e-12
    assert np.max(np.abs(forward_eval(p, clip) - cls_ref)) <= 1e-12


def test_eval_train_decomposition(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
    p = init_params(cfg, rng)
    clip = rng.standard_normal((4, 8))
    cls = forward_eval(p, clip)
    t = p.tensors
    mu = cls.mean()
    inv = 1.0 / np.sqrt(((cls - mu) ** 2).mean() + 1e-6)
    hn = t["head.ln.g"] * (cls - mu) * inv + t["head.ln.b"]
    z_manual = hn @ t["head.w"] + t["head.b"]
    z, _ = forward_train(p, clip)
    assert np.max(np.abs(z - z_manual)) <= 1e-12


def test_permutation_invariance(rng):
    cfg = EncoderConfig(model_dim=8, heads=4, layers=2)
    p = init_params(cfg, rng)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        clip = rng.standard_normal((n, 8))
        perm = rng.permutation(n)
        base = forward_eval(p, clip)
        shuffled = forward_eval(p, clip[perm])
        assert np.max(np.abs(base - shuffled)) <= 1e-9
    z0, _ = forward_train(p, clip)
    z1, _ = forward_train(p, clip[perm])
    assert np.max(np.abs(z0 - z1)) <= 1e-9


def test_positional_embedding_breaks_invariance(rng):
    cfg = EncoderConfig(
        model_dim=8, heads=4, layers=1, use_positional_embedding=True
    )
    p = init_params(cfg, rng)
    clip = rng.standard_normal((5, 8))
    perm = np.array([4, 3, 2, 1, 0])
    assert np.max(np.abs(forward_eval(p, clip) - forward_eval(p, clip[perm]))) > 1e-9


def test_length_one_clip(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=1)
    p = init_params(cfg, rng)
    z, _ = forward_train(p, rng.standard_normal((1, 8)))
    assert z.shape == (2,)
    assert np.all(np.isfinite(z))


def test_forward_deterministic(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
    p = init_params(cfg, rng)
    clip = rng.standard_normal((3, 8))
    z0, _ = forward_train(p, clip)
    z1, _ = forward_train(p, clip)
    assert np.array_equal(z0, z1)


def test_input_validation(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=1)
    p = init_params(cfg, rng)
    with pytest.raises(EncoderError):
        forward_train(p, rng.standard_normal((3, 7)))
    bad = rng.standard_normal((3, 8))
    bad[0, 0] = np.inf
    with pytest.raises(EncoderError):
        forward_train(p, bad)


def test_zero_upstream_gradient(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
    p = init_params(cfg, rng)
    _, cache = forward_train(p, rng.standard_normal((3, 8)))
    grads = backward(p, cache, np.zeros(2))
    for g in grads.values():
        assert np.all(g == 0.0)


def test_gradcheck_finite_differences():
    """Every parameter gradient vs central differences, 20 random configs."""
    h_step = 1e-5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        d = int(rng.choice([4, 8, 16]))
        heads = int(rng.choice([1, 2]))
        layers = int(rng.integers(1, 3))
        cfg = EncoderConfig(
            model_dim=d, heads=heads, layers=layers,
            mlp_hidden=int(rng.integers(3, 9)),
            head_out_dim=int(rng.integers(1, 4)),
        )
        p = init_params(cfg, rng)
        clip = rng.standard_normal((int(rng.integers(1, 7)), d))
        dz = rng.standard_normal(cfg.head_out_dim)
        _, cache = forward_train(p, clip)
        grads = backward(p, cache, dz)

        def scalar():
            z, _ = forward_train(p, clip)
            return float(dz @ z)

        for name, tensor in p.tensors.items():
            flat_idx = rng.choice(
                tensor.size, size=min(4, tensor.size), replace=False
            )
            for fi in flat_idx:
                ix = np.unravel_index(fi, tensor.shape)
                orig = tensor[ix]
                tensor[ix] = orig + h_step
                fp = scalar()
                tensor[ix] = orig - h_step
                fm = scalar()
                tensor[ix] = orig
                num = (fp - fm) / (2 * h_step)
                worst = max(worst, rel_err(num, grads[name][ix]))
    assert worst <= 1e-4, f"worst relative gradient error {worst}"


def test_gradcheck_positional_embedding(rng):
    cfg = EncoderConfig(
        model_dim=4, heads=2, layers=1, use_positional_embedding=True
    )
    p = init_params(cfg, rng)
    clip = rng.standard_normal((3, 4))
    dz = rng.standard_normal(2)
    _, cache = forward_train(p, clip)
    grads = backward(p, cache, dz)
    pe = p.tensors["pos_embedding"]
    h_step = 1e-5
    for ix in [(0, 0), (1, 2), (2, 3)]:
        orig = pe[ix]
        pe[ix] = orig + h_step
        fp = float(dz @ forward_train(p, clip)[0])
        pe[ix] = orig - h_step
        fm = float(dz @ forward_train(p, clip)[0])
        pe[ix] = orig
        num = (fp - fm) / (2 * h_step)
        assert rel_err(num, grads["pos_embedding"][ix]) <= 1e-4


def worst_gradient_error_padded_batch(rng, cfg):
    """Worst relative error over every gradient entry of a padded batch
    (lengths 1, 5 and 3) against central differences; returns it with the
    gradients.  LayerNorm gains and all biases are moved off their initial
    1 and 0, so that the LayerNorm outputs ``g * xhat + b`` that backward
    recomputes differ from ``xhat``."""
    p = init_params(cfg, rng)
    for name, tensor in p.tensors.items():
        if tensor.ndim == 1 and name != "class_token":
            tensor += rng.normal(0.0, 0.5, size=tensor.shape)
    clips = [rng.standard_normal((n, 4)) for n in (1, 5, 3)]
    dz = rng.standard_normal((3, 2))
    _, cache = forward_train_batch(p, clips)
    grads = backward(p, cache, dz)
    h_step = 1e-5
    worst = 0.0
    for name, tensor in p.tensors.items():
        for ix in np.ndindex(tensor.shape):
            orig = tensor[ix]
            tensor[ix] = orig + h_step
            fp = float(np.sum(dz * forward_train_batch(p, clips)[0]))
            tensor[ix] = orig - h_step
            fm = float(np.sum(dz * forward_train_batch(p, clips)[0]))
            tensor[ix] = orig
            num = (fp - fm) / (2 * h_step)
            worst = max(worst, rel_err(num, grads[name][ix]))
    return worst, grads


def test_gradcheck_every_entry_padded_deep_batch(rng):
    """Every gradient entry of a padded batch through three blocks (the
    last runs its query, attention output and MLP on the class token
    only) with positional embedding, against central differences."""
    cfg = EncoderConfig(
        model_dim=4, heads=2, layers=3, mlp_hidden=6, head_out_dim=2,
        use_positional_embedding=True, max_positions=6,
    )
    worst, grads = worst_gradient_error_padded_batch(rng, cfg)
    assert worst <= 1e-4, f"worst relative gradient error {worst}"
    # positions past the longest clip get no gradient
    assert np.all(grads["pos_embedding"][5:] == 0.0)


@pytest.mark.parametrize("layers", [1, 3])
def test_gradcheck_every_entry_padded_batch_no_positional(rng, layers):
    """As above without positional embedding, where block 0 takes an input
    gradient for the class token alone."""
    cfg = EncoderConfig(model_dim=4, heads=2, layers=layers, mlp_hidden=6, head_out_dim=2)
    worst, _ = worst_gradient_error_padded_batch(rng, cfg)
    assert worst <= 1e-4, f"worst relative gradient error {worst}"


def per_clip_stack(params, clips):
    """Reference: validate and pad one clip at a time."""
    cfg = params.config
    d = cfg.model_dim
    if len(clips) == 0:
        raise EncoderError("empty batch")
    checked = []
    for c in clips:
        c = np.asarray(c, dtype=np.float64)
        if c.ndim != 2 or c.shape[1] != d:
            raise EncoderError(f"clip shape {c.shape} incompatible with model_dim {d}")
        if c.shape[0] < 1:
            raise EncoderError("empty clip")
        if not np.all(np.isfinite(c)):
            raise EncoderError("non-finite values in clip embeddings")
        checked.append(c)
    s = 1 + max(c.shape[0] for c in checked)
    x = np.zeros((len(checked), s, d))
    mask = np.zeros((len(checked), s), dtype=bool)
    x[:, 0, :] = params.tensors["class_token"]
    mask[:, 0] = True
    for i, frames in enumerate(checked):
        n = frames.shape[0]
        if cfg.use_positional_embedding:
            pe = params.tensors["pos_embedding"]
            if n > pe.shape[0]:
                raise EncoderError(f"clip length {n} exceeds max_positions {pe.shape[0]}")
            frames = frames + pe[:n]
        x[i, 1 : 1 + n, :] = frames
        mask[i, 1 : 1 + n] = True
    return x, mask


def outcome(fn, *args):
    try:
        return fn(*args)
    except EncoderError as exc:
        return str(exc)


@pytest.mark.parametrize("positional", [False, True])
def test_stack_clips_matches_per_clip_reference(rng, positional):
    cfg = EncoderConfig(model_dim=4, heads=2, layers=1,
                        use_positional_embedding=positional, max_positions=6)
    p = init_params(cfg, rng)
    clips = [rng.standard_normal((n, 4)) for n in (1, 4, 1, 6, 2)]
    late_nan = [c.copy() for c in clips]
    late_nan[3][5, 2] = np.nan
    cases = [
        clips,
        [clips[0]],  # one length-1 clip
        [c.tolist() for c in clips],  # nested lists are converted
        clips + [rng.standard_normal((n, 4)) for n in (7, 9)],  # two past max_positions
        late_nan,
        [clips[1], rng.standard_normal((3, 5))],
        [clips[1], np.zeros((0, 4))],
        [],
    ]
    for case in cases:
        got = outcome(enc._stack_clips, p, case)
        expect = outcome(per_clip_stack, p, case)
        if isinstance(expect, str):
            assert got == expect
        else:
            assert np.array_equal(got[0], expect[0]) and np.array_equal(got[1], expect[1])
    assert outcome(enc._stack_clips, p, late_nan) == "non-finite values in clip embeddings"
    if positional:
        assert outcome(enc._stack_clips, p, cases[3]) == "clip length 7 exceeds max_positions 6"


def test_batched_forward_matches_single(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
    p = init_params(cfg, rng)
    clips = [rng.standard_normal((int(rng.integers(1, 7)), 8)) for _ in range(5)]
    z_batch, _ = forward_train_batch(p, clips)
    cls_batch = forward_eval_batch(p, clips)
    for i, clip in enumerate(clips):
        z_single, _ = forward_train(p, clip)
        assert np.max(np.abs(z_batch[i] - z_single)) <= 1e-12
        assert np.max(np.abs(cls_batch[i] - forward_eval(p, clip))) <= 1e-12


def test_eval_batch_chunks_keep_input_order(rng):
    """More tracks than one chunk, lengths shuffled: each row belongs to its
    own input track."""
    cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
    p = init_params(cfg, rng)
    lengths = rng.permutation(np.arange(150) % 23 + 1)
    tracks = [rng.standard_normal((int(n), 8)) for n in lengths]
    assert len(tracks) > enc._EVAL_CHUNK
    reps = forward_eval_batch(p, tracks)
    assert reps.shape == (150, 8)
    for i, track in enumerate(tracks):
        assert np.max(np.abs(reps[i] - forward_eval(p, track))) <= 1e-12


def test_eval_batch_empty(rng):
    p = init_params(EncoderConfig(model_dim=8, heads=2, layers=1), rng)
    with pytest.raises(EncoderError, match="empty batch"):
        forward_eval_batch(p, [])


def test_batched_backward_matches_sum_of_singles(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
    p = init_params(cfg, rng)
    clips = [rng.standard_normal((int(rng.integers(1, 6)), 8)) for _ in range(4)]
    dz = rng.standard_normal((4, 2))
    _, cache = forward_train_batch(p, clips)
    batched = backward(p, cache, dz)
    total = {name: np.zeros_like(t) for name, t in p.tensors.items()}
    for clip, g in zip(clips, dz):
        _, c = forward_train(p, clip)
        single = backward(p, c, g)
        for name in total:
            total[name] += single[name]
    for name in total:
        scale = max(np.max(np.abs(total[name])), 1.0)
        assert np.max(np.abs(batched[name] - total[name])) <= 1e-10 * scale


def test_cache_params_mismatch(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=1)
    p1 = init_params(cfg, np.random.default_rng(0))
    p2 = init_params(cfg, np.random.default_rng(1))
    _, cache = forward_train(p1, rng.standard_normal((2, 8)))
    with pytest.raises(EncoderError):
        backward(p2, cache, np.zeros(2))


def test_softmax_and_ln_internals(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
    p = init_params(cfg, rng)
    clip = rng.standard_normal((5, 8))
    _, cache = forward_train(p, clip)
    for layer in cache.layers:
        probs = layer["probs"]
        sums = probs.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-12
        xhat = layer["xhat1"][cache.mask]
        assert np.max(np.abs(xhat.mean(axis=-1))) <= 1e-9


def test_ln_unit_variance(rng):
    # On unit-scale rows the eps term is negligible and the normalised
    # output has variance 1 to 1e-6.
    x = 10.0 * rng.standard_normal((20, 16))
    y, _, _ = enc._ln_forward(x, np.ones(16), np.zeros(16))
    assert np.max(np.abs(y.mean(axis=-1))) <= 1e-9
    assert np.max(np.abs(y.var(axis=-1) - 1.0)) <= 1e-6


def test_attention_profile_norm(rng):
    cfg = EncoderConfig(model_dim=8, heads=4, layers=2)
    p = init_params(cfg, rng)
    for _ in range(10):
        n = int(rng.integers(1, 15))
        scores, sigma = attention_profile(p, rng.standard_normal((n, 8)))
        assert scores.shape == (n,)
        assert np.linalg.norm(scores) == pytest.approx(1.0, abs=1e-9)
        assert sigma == pytest.approx(float(np.std(scores)))


def test_attention_profile_degenerate(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=1)
    p = init_params(cfg, rng)
    scores, sigma = attention_profile(p, rng.standard_normal((1, 8)))
    assert scores.shape == (1,)
    assert scores[0] == pytest.approx(1.0, abs=1e-12)
    assert sigma == 0.0


def test_attention_profile_identical_frames(rng):
    cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
    p = init_params(cfg, rng)
    k = 6
    frame = rng.standard_normal(8)
    scores, sigma = attention_profile(p, np.tile(frame, (k, 1)))
    assert np.max(np.abs(scores - 1.0 / np.sqrt(k))) <= 1e-9
    assert sigma <= 1e-9


def test_duplicated_frame_symmetric_gradients(rng):
    """Identical tokens at two positions receive identical input gradients."""
    cfg = EncoderConfig(model_dim=4, heads=2, layers=1)
    p = init_params(cfg, rng)
    frame = rng.standard_normal(4)
    clip = np.stack([frame, rng.standard_normal(4), frame])
    dz = rng.standard_normal(2)
    _, cache = forward_train(p, clip)
    backward(p, cache, dz)
    # Finite differences on the two duplicate input positions must agree.
    h_step = 1e-6

    def scalar(c):
        z, _ = forward_train(p, c)
        return float(dz @ z)

    for j in range(4):
        g = []
        for pos in (0, 2):
            cp = clip.copy()
            cp[pos, j] += h_step
            up = scalar(cp)
            cp[pos, j] -= 2 * h_step
            dn = scalar(cp)
            g.append((up - dn) / (2 * h_step))
        assert g[0] == pytest.approx(g[1], rel=1e-6, abs=1e-9)
