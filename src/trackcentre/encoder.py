"""Transformer encoder over embedding clips, with exact reverse-mode gradients.

A clip of n frame embeddings is prepended with a learnable class token and
passed through L pre-LN residual blocks (multi-head self-attention + MLP).
The training head (LayerNorm + linear projection to a low-dimensional
latent space) acts on the final class-token state; evaluation uses the
class-token state itself, head discarded.

The forward/backward passes operate on padded batches with a key mask so
that a whole training batch of variable-length clips is processed in a few
dense GEMMs.  Padded positions are masked out of attention and contribute
exact zeros to every gradient.  The arithmetic is float64: clips may be
float32 or float64 and are widened as they are copied into the padded
batch.

Every batched caller runs its inputs in the chunks of ``token_chunks``:
length-sorted, each padding to at most CHUNK_TOKENS tokens, so a chunk's
attention buffers are bounded however long or many its inputs are.

Only the final class-token state reaches an output, so the last block runs
as class-token attention pooling: its query is the class token's alone,
folded into the key weights, and the tokens are pooled before the value
projection.  Its stored weights keep the fused q/k/v layout of every other
block.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

LN_EPS = 1e-6
_MASKED_BIAS = -1e30
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Padded tokens (clips x (1 + longest clip)) per chunk of token_chunks.
# Against 256 and 1024, 512 ran the eval forward and vc and ct training
# fastest (256 slowed vc training by a tenth); the eval forward of a
# 1000-track video then peaks at about 5 MB.
CHUNK_TOKENS = 512


class EncoderError(Exception):
    pass


@dataclass(frozen=True)
class EncoderConfig:
    model_dim: int
    layers: int = 4
    heads: int = 16
    mlp_hidden: int | None = None  # defaults to 4 * model_dim
    head_out_dim: int = 2
    use_positional_embedding: bool = False
    max_positions: int = 512  # only relevant when positional embedding is on

    def __post_init__(self):
        if self.model_dim < 1 or self.model_dim % self.heads != 0:
            raise EncoderError(
                f"model_dim {self.model_dim} must be a positive multiple of "
                f"heads {self.heads}"
            )
        if self.layers < 1:
            raise EncoderError("layers must be >= 1")
        if self.head_out_dim < 1:
            raise EncoderError("head_out_dim must be >= 1")
        if self.mlp_hidden is not None and self.mlp_hidden < 1:
            raise EncoderError("mlp_hidden must be >= 1")

    @property
    def hidden(self) -> int:
        return self.mlp_hidden if self.mlp_hidden is not None else 4 * self.model_dim

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads


@dataclass
class EncoderParams:
    """All learnable tensors, keyed by dotted name."""

    config: EncoderConfig
    tensors: dict[str, np.ndarray]


@dataclass
class ForwardCache:
    """What ``backward`` reads of one batched forward pass, and the mask.

    Per block it keeps the LayerNorm states (``xhat``, ``inv``), the
    attention output ``o``, the MLP pre-activation and its GELU gate
    ``phi``, and the attention's own tensors: in every block but the last
    q, k, v (B, h, S, dh) and the probabilities (B, h, S, S); in the last,
    the class token's query ``q`` (B, h, dh), its folded keys ``u`` (B, h,
    d), its probabilities (B, h, S) and the pooled tokens ``y`` (B, h, d).
    What ``backward`` can recompute bit for bit is not kept: the LayerNorm
    outputs ``g * xhat + b``, the GELU output ``pre * phi`` and the padded
    input, of which only the shape is needed.
    """

    params: EncoderParams
    mask: np.ndarray  # (B, S) True where valid
    layers: list[dict] = field(default_factory=list)
    head_xhat: np.ndarray | None = None
    head_inv: np.ndarray | None = None
    head_hn: np.ndarray | None = None

    @property
    def x0(self) -> np.ndarray:
        """A read-only zero array of the padded (B, S, d) input's shape,
        which takes no memory; the input itself is not kept.  perfbench
        reads its shape."""
        return np.broadcast_to(0.0, (*self.mask.shape, self.params.config.model_dim))


def init_params(config: EncoderConfig, rng: np.random.Generator) -> EncoderParams:
    """Initialise parameters: uniform(+-1/sqrt(fan_in)) projections,
    LN gain 1 / bias 0, class token N(0, 0.02^2), zero biases."""
    d, m, z = config.model_dim, config.hidden, config.head_out_dim

    def proj(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    t: dict[str, np.ndarray] = {}
    t["class_token"] = rng.normal(0.0, 0.02, size=d)
    if config.use_positional_embedding:
        t["pos_embedding"] = rng.normal(0.0, 0.02, size=(config.max_positions, d))
    for i in range(config.layers):
        p = f"layers.{i}"
        t[f"{p}.ln1.g"] = np.ones(d)
        t[f"{p}.ln1.b"] = np.zeros(d)
        t[f"{p}.attn.wqkv"] = np.concatenate([proj(d, d) for _ in "qkv"], axis=1)
        t[f"{p}.attn.bqkv"] = np.zeros(3 * d)
        t[f"{p}.attn.wo"] = proj(d, d)
        t[f"{p}.attn.bo"] = np.zeros(d)
        t[f"{p}.ln2.g"] = np.ones(d)
        t[f"{p}.ln2.b"] = np.zeros(d)
        t[f"{p}.mlp.w1"] = proj(d, m)
        t[f"{p}.mlp.b1"] = np.zeros(m)
        t[f"{p}.mlp.w2"] = proj(m, d)
        t[f"{p}.mlp.b2"] = np.zeros(d)
    t["head.ln.g"] = np.ones(d)
    t["head.ln.b"] = np.zeros(d)
    t["head.w"] = proj(d, z)
    t["head.b"] = np.zeros(z)
    return EncoderParams(config=config, tensors=t)


def gelu_grad(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Derivative of gelu(x) = x * phi, given the gate phi = ndtr(x)."""
    return phi + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _ln_forward(x, g, b):
    """Row-wise layer norm over the last axis; returns (y, xhat, inv_std)."""
    xc = x - x.mean(axis=-1, keepdims=True)
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, xhat, inv


def _ln_backward(dy, xhat, inv, g, dx_rows=None):
    """Returns (dx, dg, db); dg/db summed over all leading axes.  With
    ``dx_rows``, dx covers only the first ``dx_rows`` entries of axis 1."""
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    if dx_rows is not None:
        dy, xhat, inv = dy[:, :dx_rows], xhat[:, :dx_rows], inv[:, :dx_rows]
    dxh = dy * g
    dx = inv * (
        dxh
        - dxh.mean(axis=-1, keepdims=True)
        - xhat * (dxh * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def token_chunks(lengths, tokens: int) -> list[np.ndarray]:
    """Index arrays covering ``range(len(lengths))`` in stable length order.

    A chunk takes items while its padded size, count x (1 + its longest
    length), stays within ``tokens``; an item longer than that runs alone.
    So each chunk pads only to its own longest item and its memory is
    bounded by ``tokens``, not by the item count.
    """
    order = np.argsort(lengths, kind="stable")
    if len(order) == 0:
        return []
    padded = (np.asarray(lengths)[order] + 1).tolist()
    chunks, start = [], 0
    for i in range(1, len(order)):
        if (i - start + 1) * padded[i] > tokens:
            chunks.append(order[start:i])
            start = i
    chunks.append(order[start:])
    return chunks


def _check_clips(params: EncoderParams, clips) -> list[np.ndarray]:
    """Validate a non-empty batch of (n, model_dim) clips; returns them as
    arrays, float32 clips as they are and any other as float64."""
    d = params.config.model_dim
    if len(clips) == 0:
        raise EncoderError("empty batch")
    out = [np.asarray(c) for c in clips]
    out = [c if c.dtype == np.float32 else np.asarray(c, dtype=np.float64) for c in out]
    for c in out:
        if c.ndim != 2 or c.shape[1] != d:
            raise EncoderError(
                f"clip shape {c.shape} incompatible with model_dim {d}"
            )
        if c.shape[0] < 1:
            raise EncoderError("empty clip")
        if not np.isfinite(c).all():
            raise EncoderError("non-finite values in clip embeddings")
    return out


def _pad_clips(params: EncoderParams, clips: list[np.ndarray]):
    """Build the float64 (B, S, d) input with class token plus the validity
    mask from clips already passed through _check_clips.  Float32 frames
    are widened, exactly, as they are added to the positional embedding or
    copied into the batch."""
    lens = np.array([c.shape[0] for c in clips])
    s = 1 + int(lens.max())
    mask = np.zeros((len(clips), s), dtype=bool)
    mask[:, 0] = True
    mask[:, 1:] = np.arange(s - 1) < lens[:, None]
    rows, pos = np.nonzero(mask[:, 1:])  # clip-major, as the frames below
    frames = np.concatenate(clips)
    if params.config.use_positional_embedding:
        pe = params.tensors["pos_embedding"]
        if s - 1 > pe.shape[0]:
            n = int(lens[lens > pe.shape[0]][0])
            raise EncoderError(f"clip length {n} exceeds max_positions {pe.shape[0]}")
        frames = frames + pe[pos]
    x = np.zeros((len(clips), s, params.config.model_dim))
    x[:, 0, :] = params.tensors["class_token"]
    x[rows, 1 + pos] = frames
    return x, mask


def _stack_clips(params: EncoderParams, clips: list[np.ndarray]):
    """Validate clips and build the padded (B, S, d) input and mask."""
    return _pad_clips(params, _check_clips(params, clips))


def _split_heads(w: np.ndarray, h: int) -> np.ndarray:
    """A (d, d) projection as its h per-head column blocks, (h, d, d/h)."""
    d = w.shape[0]
    return w.reshape(d, h, -1).transpose(1, 0, 2)


def _merge_heads(g: np.ndarray) -> np.ndarray:
    """Inverse of _split_heads: (h, d, d/h) -> (d, d)."""
    return g.transpose(1, 0, 2).reshape(g.shape[1], -1)


def _softmax(scores: np.ndarray, scale: float, bias: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of ``scale * scores + bias``, in place."""
    scores *= scale
    scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def _attention(t, p, cfg: EncoderConfig, xn1, bias):
    """Multi-head self-attention of every token; returns the merged heads'
    output (B, S, d) and what backward reads."""
    b, s, d = xn1.shape
    h, dh = cfg.heads, cfg.head_dim
    qkv = xn1.reshape(b * s, d) @ t[f"{p}.attn.wqkv"] + t[f"{p}.attn.bqkv"]
    # (B*S, 3d) -> three (B, h, S, dh)
    q, k, v = qkv.reshape(b, s, 3, h, dh).transpose(2, 0, 3, 1, 4)
    probs = _softmax(q @ k.transpose(0, 1, 3, 2), 1.0 / np.sqrt(dh), bias[:, :, None])
    o = (probs @ v).transpose(0, 2, 1, 3).reshape(b, s, d)
    return o, dict(q=q, k=k, v=v, probs=probs)


def _pooled_attention(t, p, cfg: EncoderConfig, xn1, bias):
    """The class token's attention alone, as attention pooling: returns its
    merged heads' output (B, 1, d) and what backward reads.

    Head h's query ``q_h`` is folded into its key weights, ``u_h = Wk_h @
    q_h``, so the scores are ``scale * xn1_j . u_h``; the key bias adds the
    same ``q_h . bk_h`` to every score of a row and cancels in the softmax.
    As the probabilities sum to 1, the tokens are pooled before the value
    projection: ``o_h = (sum_j P_hj xn1_j) @ Wv_h + bv_h``.  No token but
    the class token is projected.
    """
    b, _, d = xn1.shape
    h, dh = cfg.heads, cfg.head_dim
    w, bqkv = t[f"{p}.attn.wqkv"], t[f"{p}.attn.bqkv"]
    q = (xn1[:, 0] @ w[:, :d] + bqkv[:d]).reshape(b, h, dh)
    u = (_split_heads(w[:, d : 2 * d], h) @ q[..., None])[..., 0]  # (B, h, d)
    probs = _softmax(u @ xn1.transpose(0, 2, 1), 1.0 / np.sqrt(dh), bias)  # (B, h, S)
    y = probs @ xn1  # (B, h, d)
    o = (y[:, :, None] @ _split_heads(w[:, 2 * d :], h))[:, :, 0]  # (B, h, dh)
    o = (o + bqkv[2 * d :].reshape(h, dh)).reshape(b, 1, d)
    return o, dict(q=q, u=u, probs=probs, y=y)


def _forward_core(params: EncoderParams, x, mask, need_cache: bool):
    """Run the L residual blocks; returns (final class-token states (B, d),
    cache or None).

    Projections run as single (rows, d) GEMMs; only the attention scores
    use head-split tensors.  Only the class token of the last block reaches
    any output, so that block runs as class-token attention pooling
    (``_pooled_attention``) and its attention output, LayerNorm and MLP on
    the class token alone; the earlier blocks run every token.
    """
    cfg = params.config
    t = params.tensors
    # Additive key-mask bias (B, 1, S): 0 at valid positions, a large
    # negative at padding so masked attention probabilities underflow to
    # exact zero.
    bias = np.where(mask, 0.0, _MASKED_BIAS)[:, None, :]
    cache = ForwardCache(params=params, mask=mask) if need_cache else None

    for i in range(cfg.layers):
        p = f"layers.{i}"
        last = i == cfg.layers - 1
        xn1, xhat1, inv1 = _ln_forward(x, t[f"{p}.ln1.g"], t[f"{p}.ln1.b"])
        o, layer = (_pooled_attention if last else _attention)(t, p, cfg, xn1, bias)
        attn_out = (o.reshape(-1, cfg.model_dim) @ t[f"{p}.attn.wo"]).reshape(o.shape)
        attn_out += t[f"{p}.attn.bo"]
        x_mid = (x[:, :1] if last else x) + attn_out
        xn2, xhat2, inv2 = _ln_forward(x_mid, t[f"{p}.ln2.g"], t[f"{p}.ln2.b"])
        pre = xn2.reshape(-1, cfg.model_dim) @ t[f"{p}.mlp.w1"] + t[f"{p}.mlp.b1"]
        phi = ndtr(pre)  # standard normal CDF; gelu(pre) = pre * phi
        mlp_out = (pre * phi) @ t[f"{p}.mlp.w2"] + t[f"{p}.mlp.b2"]
        x = x_mid + mlp_out.reshape(x_mid.shape)
        if need_cache:
            layer.update(
                xhat1=xhat1, inv1=inv1, o=o, xhat2=xhat2, inv2=inv2, pre=pre, phi=phi
            )
            cache.layers.append(layer)
    return x[:, 0, :], cache


def head_forward(params: EncoderParams, cls, cache: ForwardCache | None = None):
    """Training head on final class-token states (B, d): LayerNorm and the
    projection to (B, z_dim).  With ``cache``, records what ``backward``
    reads."""
    t = params.tensors
    hn, xhat, inv = _ln_forward(cls, t["head.ln.g"], t["head.ln.b"])
    z = hn @ t["head.w"] + t["head.b"]
    if cache is not None:
        cache.head_xhat = xhat
        cache.head_inv = inv
        cache.head_hn = hn
    return z


def forward_train_batch(params: EncoderParams, clips: list[np.ndarray]):
    """Batched training forward: returns (Z (B, z_dim), ForwardCache)."""
    x, mask = _stack_clips(params, clips)
    cls, cache = _forward_core(params, x, mask, need_cache=True)
    z = head_forward(params, cls, cache)
    return z, cache


def forward_train(params: EncoderParams, clip_embeddings: np.ndarray):
    """Single-clip training forward: returns (z_head (z_dim,), ForwardCache)."""
    z, cache = forward_train_batch(params, [clip_embeddings])
    return z[0], cache


def forward_eval(params: EncoderParams, track_embeddings: np.ndarray) -> np.ndarray:
    """Evaluation representation: final class-token state, head discarded."""
    x, mask = _stack_clips(params, [track_embeddings])
    cls, _ = _forward_core(params, x, mask, need_cache=False)
    return cls[0]


def forward_eval_batch(params: EncoderParams, tracks: list[np.ndarray]) -> np.ndarray:
    """Evaluation representations (B, d) of many tracks, in input order.

    Tracks run in the length-sorted chunks of ``token_chunks``, at most
    CHUNK_TOKENS padded tokens each (a longer track alone), so the
    attention buffers are bounded by the budget rather than by the track
    count times the longest track squared, and each chunk pads only to its
    own longest track.  Rows equal one padded batch within rounding.
    """
    tracks = _check_clips(params, tracks)
    out = np.empty((len(tracks), params.config.model_dim))
    for idx in token_chunks([t.shape[0] for t in tracks], CHUNK_TOKENS):
        x, mask = _pad_clips(params, [tracks[i] for i in idx])
        out[idx], _ = _forward_core(params, x, mask, need_cache=False)
    return out


def _attention_backward(t, p, cfg: EncoderConfig, c, do, grads):
    """Backward of _attention: gradients of the fused projection into
    ``grads``; returns dL/d(xn1) (B, S, d)."""
    b, h, s, dh = c["q"].shape
    d = cfg.model_dim
    scale = 1.0 / np.sqrt(dh)
    do = do.reshape(b, s, h, dh).transpose(0, 2, 1, 3)
    probs = c["probs"]
    dprobs = do @ c["v"].transpose(0, 1, 3, 2)
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    # (B*S, 3d) as the fused qkv projection, split as the forward splits it
    dqkv = np.empty((b, s, 3, h, dh))
    dq, dk, dv = dqkv.transpose(2, 0, 3, 1, 4)
    dq[...] = (dscores @ c["k"]) * scale
    dk[...] = (dscores.transpose(0, 1, 3, 2) @ c["q"]) * scale
    dv[...] = probs.transpose(0, 1, 3, 2) @ do
    dqkv = dqkv.reshape(b * s, 3 * d)
    xn1 = t[f"{p}.ln1.g"] * c["xhat1"] + t[f"{p}.ln1.b"]
    grads[f"{p}.attn.wqkv"] = xn1.reshape(b * s, d).T @ dqkv
    grads[f"{p}.attn.bqkv"] = dqkv.sum(axis=0)
    return (dqkv @ t[f"{p}.attn.wqkv"].T).reshape(b, s, d)


def _pooled_attention_backward(t, p, cfg: EncoderConfig, c, do, grads):
    """Backward of _pooled_attention: gradients of the fused projection
    into ``grads`` (the key bias gets exactly 0); returns dL/d(xn1)
    (B, S, d)."""
    b, h, dh = c["q"].shape
    d = cfg.model_dim
    w = t[f"{p}.attn.wqkv"]
    wk, wv = _split_heads(w[:, d : 2 * d], h), _split_heads(w[:, 2 * d :], h)
    xn1 = t[f"{p}.ln1.g"] * c["xhat1"] + t[f"{p}.ln1.b"]
    probs, u, y = c["probs"], c["u"], c["y"]
    do = do.reshape(b, h, dh)
    # o_h = y_h @ Wv_h + bv_h
    dwv = y.transpose(1, 2, 0) @ do.transpose(1, 0, 2)  # (h, d, dh)
    dy = (wv @ do[..., None])[..., 0]  # (B, h, d)
    # y_h = sum_j P_hj xn1_j, P_h = softmax_j(scale * xn1_j . u_h)
    dprobs = dy @ xn1.transpose(0, 2, 1)
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dscores *= 1.0 / np.sqrt(dh)
    du = dscores @ xn1
    dxn1 = probs.transpose(0, 2, 1) @ dy
    dxn1 += dscores.transpose(0, 2, 1) @ u
    # u_h = Wk_h @ q_h, q = xn1[:, 0] @ Wq + bq
    dwk = du.transpose(1, 2, 0) @ c["q"].transpose(1, 0, 2)  # (h, d, dh)
    dq = (wk.transpose(0, 2, 1) @ du[..., None]).reshape(b, d)
    dxn1[:, 0] += dq @ w[:, :d].T
    grads[f"{p}.attn.wqkv"] = np.concatenate(
        [xn1[:, 0].T @ dq, _merge_heads(dwk), _merge_heads(dwv)], axis=1
    )
    grads[f"{p}.attn.bqkv"] = np.concatenate(
        [dq.sum(axis=0), np.zeros(d), do.sum(axis=0).reshape(d)]
    )
    return dxn1


def backward(
    params: EncoderParams, cache: ForwardCache, grad_z_head: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of sum_b grad_z_head[b] . z_head[b] w.r.t. every parameter."""
    if cache.params is not params:
        raise EncoderError("cache was produced by different parameters")
    cfg = params.config
    t = params.tensors
    b, s = cache.mask.shape
    d = cfg.model_dim
    dz = np.asarray(grad_z_head, dtype=np.float64)
    if dz.ndim == 1:
        dz = dz[None, :]
    if dz.shape != (b, cfg.head_out_dim):
        raise EncoderError(
            f"grad_z_head shape {dz.shape} incompatible with batch "
            f"({b}, {cfg.head_out_dim})"
        )
    grads = {}

    # Head: z = LN(cls) @ W + b
    grads["head.w"] = cache.head_hn.T @ dz
    grads["head.b"] = dz.sum(axis=0)
    dhn = dz @ t["head.w"].T
    dcls, dg, db = _ln_backward(dhn, cache.head_xhat, cache.head_inv, t["head.ln.g"])
    grads["head.ln.g"] = dg
    grads["head.ln.b"] = db

    # dL/d(block output); the last block outputs the class token only.
    dx = dcls[:, None, :]

    for i in reversed(range(cfg.layers)):
        p = f"layers.{i}"
        c = cache.layers[i]

        # MLP branch: x_out = x_mid + gelu(xn2 @ w1 + b1) @ w2 + b2
        d_out2 = dx.reshape(-1, d)
        pre, phi = c["pre"], c["phi"]
        grads[f"{p}.mlp.w2"] = (pre * phi).T @ d_out2
        grads[f"{p}.mlp.b2"] = d_out2.sum(axis=0)
        dact = d_out2 @ t[f"{p}.mlp.w2"].T
        dpre = dact * gelu_grad(pre, phi)
        xn2 = t[f"{p}.ln2.g"] * c["xhat2"] + t[f"{p}.ln2.b"]
        grads[f"{p}.mlp.w1"] = xn2.reshape(-1, d).T @ dpre
        grads[f"{p}.mlp.b1"] = dpre.sum(axis=0)
        dxn2 = (dpre @ t[f"{p}.mlp.w1"].T).reshape(dx.shape)
        dmid_ln, dg, db = _ln_backward(dxn2, c["xhat2"], c["inv2"], t[f"{p}.ln2.g"])
        grads[f"{p}.ln2.g"] = dg
        grads[f"{p}.ln2.b"] = db
        d_mid = dx + dmid_ln

        # Attention branch: x_mid = x_in + (merged heads @ wo + bo)
        d_mid2 = d_mid.reshape(-1, d)
        grads[f"{p}.attn.wo"] = c["o"].reshape(-1, d).T @ d_mid2
        grads[f"{p}.attn.bo"] = d_mid2.sum(axis=0)
        do = d_mid2 @ t[f"{p}.attn.wo"].T
        last = i == cfg.layers - 1
        dxn1 = (_pooled_attention_backward if last else _attention_backward)(
            t, p, cfg, c, do, grads
        )
        # Without positional embedding only the class-token row of block
        # 0's input gradient is read.
        rows = 1 if i == 0 and not cfg.use_positional_embedding else None
        dx, dg, db = _ln_backward(
            dxn1, c["xhat1"], c["inv1"], t[f"{p}.ln1.g"], dx_rows=rows
        )
        grads[f"{p}.ln1.g"] = dg
        grads[f"{p}.ln1.b"] = db
        # The residual: d_mid covers the class token alone in the last
        # block and dx the class token alone in block 0 without positional
        # embedding.
        n = min(dx.shape[1], d_mid.shape[1])
        dx[:, :n] += d_mid[:, :n]

    grads["class_token"] = dx[:, 0, :].sum(axis=0)
    if cfg.use_positional_embedding:
        pe_grad = grads["pos_embedding"] = np.zeros_like(t["pos_embedding"])
        pe_grad[: s - 1] = dx[:, 1:].sum(axis=0)  # padded rows of dx are 0
    return {name: grads[name] for name in t}


def attention_profile(params: EncoderParams, track_embeddings: np.ndarray):
    """Per-frame attention scores of the class token at the final layer.

    Raw score of frame t is the head-averaged attention weight from the
    class-token query to token t; the returned vector is L2-normalised and
    ``sigma`` is the standard deviation of the normalised scores.
    """
    x, mask = _stack_clips(params, [track_embeddings])
    _, cache = _forward_core(params, x, mask, need_cache=True)
    probs = cache.layers[-1]["probs"]  # (1, h, S): class-token query only
    raw = probs[0, :, 1:].mean(axis=0)  # class-token query -> frame tokens
    norm = np.linalg.norm(raw)
    scores = raw / norm
    sigma = float(scores.std())
    return scores, sigma
