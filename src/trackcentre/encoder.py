"""Transformer encoder over embedding clips, with exact reverse-mode gradients.

A clip of n frame embeddings is prepended with a learnable class token and
passed through L pre-LN residual blocks (multi-head self-attention + MLP).
The training head (LayerNorm + linear projection to a low-dimensional
latent space) acts on the final class-token state; evaluation uses the
class-token state itself, head discarded.

The forward/backward passes operate on padded batches with a key mask so
that a whole training batch of variable-length clips is processed in a few
dense GEMMs.  Padded positions are masked out of attention and contribute
exact zeros to every gradient.  Everything is float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

LN_EPS = 1e-6
_MASKED_BIAS = -1e30
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
# Tracks per chunk of forward_eval_batch.
_EVAL_CHUNK = 16


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

    Per block it keeps the LayerNorm states (``xhat``, ``inv``), q, k, v,
    the attention probabilities and output, the MLP pre-activation and its
    GELU gate ``phi``.  What ``backward`` can recompute bit for bit is not
    kept: the LayerNorm outputs ``g * xhat + b``, the GELU output
    ``pre * phi`` and the padded input, of which only the shape is needed.
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


def length_chunks(lengths, size: int) -> list[np.ndarray]:
    """Index arrays covering ``range(len(lengths))`` in stable length order,
    ``size`` indices at a time, so each chunk pads only to its own longest
    item."""
    order = np.argsort(lengths, kind="stable")
    return [order[c0 : c0 + size] for c0 in range(0, len(order), size)]


def _check_clips(params: EncoderParams, clips) -> list[np.ndarray]:
    """Validate a non-empty batch of (n, model_dim) clips; returns them as
    float64 arrays."""
    d = params.config.model_dim
    if len(clips) == 0:
        raise EncoderError("empty batch")
    out = [np.asarray(c, dtype=np.float64) for c in clips]
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
    """Build (B, S, d) input with class token plus the validity mask from
    clips already passed through _check_clips."""
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


def _forward_core(params: EncoderParams, x, mask, need_cache: bool):
    """Run the L residual blocks; returns (final class-token states (B, d),
    cache or None).

    Projections run as single (B*S, d) GEMMs; only the attention scores
    use head-split 4-D tensors.  Only the class token of the last block
    reaches any output, so that block keys and values every token but
    runs its query, attention output and MLP on the class token alone
    (``sq`` query rows: S in earlier blocks, 1 in the last).
    """
    cfg = params.config
    t = params.tensors
    h, dh = cfg.heads, cfg.head_dim
    b, s, d = x.shape
    scale = 1.0 / np.sqrt(dh)
    # Additive key-mask bias: 0 at valid positions, a large negative at
    # padding so masked attention probabilities underflow to exact zero.
    bias = np.where(mask, 0.0, _MASKED_BIAS)[:, None, None, :]
    cache = ForwardCache(params=params, mask=mask) if need_cache else None

    for i in range(cfg.layers):
        p = f"layers.{i}"
        sq = 1 if i == cfg.layers - 1 else s
        xn1, xhat1, inv1 = _ln_forward(x, t[f"{p}.ln1.g"], t[f"{p}.ln1.b"])
        qkv = xn1.reshape(b * s, d) @ t[f"{p}.attn.wqkv"] + t[f"{p}.attn.bqkv"]
        # (B*S, 3d) -> three (B, h, S, dh)
        qkv = qkv.reshape(b, s, 3, h, dh).transpose(2, 0, 3, 1, 4)
        q, k, v = qkv[0][:, :, :sq], qkv[1], qkv[2]
        scores = q @ k.transpose(0, 1, 3, 2)
        scores *= scale
        scores += bias
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        scores /= scores.sum(axis=-1, keepdims=True)
        probs = scores
        o = (probs @ v).transpose(0, 2, 1, 3).reshape(b, sq, d)
        attn_out = (o.reshape(b * sq, d) @ t[f"{p}.attn.wo"]).reshape(b, sq, d)
        attn_out += t[f"{p}.attn.bo"]
        x_mid = x[:, :sq] + attn_out
        xn2, xhat2, inv2 = _ln_forward(x_mid, t[f"{p}.ln2.g"], t[f"{p}.ln2.b"])
        pre = xn2.reshape(b * sq, d) @ t[f"{p}.mlp.w1"] + t[f"{p}.mlp.b1"]
        phi = ndtr(pre)  # standard normal CDF; gelu(pre) = pre * phi
        mlp_out = (pre * phi) @ t[f"{p}.mlp.w2"] + t[f"{p}.mlp.b2"]
        x_out = x_mid + mlp_out.reshape(b, sq, d)
        if need_cache:
            cache.layers.append(
                dict(
                    xhat1=xhat1, inv1=inv1, q=q, k=k, v=v, probs=probs, o=o,
                    xhat2=xhat2, inv2=inv2, pre=pre, phi=phi,
                )
            )
        x = x_out
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

    Tracks run in length-sorted chunks of _EVAL_CHUNK, so memory is bounded
    by the chunk size times the longest track rather than by the whole
    batch, and each chunk pads only to its own longest track.  Rows equal
    one padded batch within rounding.
    """
    tracks = _check_clips(params, tracks)
    out = np.empty((len(tracks), params.config.model_dim))
    for idx in length_chunks([t.shape[0] for t in tracks], _EVAL_CHUNK):
        x, mask = _pad_clips(params, [tracks[i] for i in idx])
        out[idx], _ = _forward_core(params, x, mask, need_cache=False)
    return out


def backward(
    params: EncoderParams, cache: ForwardCache, grad_z_head: np.ndarray
) -> dict[str, np.ndarray]:
    """Gradients of sum_b grad_z_head[b] . z_head[b] w.r.t. every parameter."""
    if cache.params is not params:
        raise EncoderError("cache was produced by different parameters")
    cfg = params.config
    t = params.tensors
    h, dh = cfg.heads, cfg.head_dim
    b, s = cache.mask.shape
    d = cfg.model_dim
    scale = 1.0 / np.sqrt(dh)
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

    # dL/d(block output) over the block's sq query rows; the last block
    # outputs the class token only.
    dx = dcls[:, None, :]

    for i in reversed(range(cfg.layers)):
        p = f"layers.{i}"
        c = cache.layers[i]
        sq = 1 if i == cfg.layers - 1 else s

        # MLP branch: x_out = x_mid + gelu(xn2 @ w1 + b1) @ w2 + b2
        d_out2 = dx.reshape(b * sq, d)
        pre, phi = c["pre"], c["phi"]
        grads[f"{p}.mlp.w2"] = (pre * phi).T @ d_out2
        grads[f"{p}.mlp.b2"] = d_out2.sum(axis=0)
        dact = d_out2 @ t[f"{p}.mlp.w2"].T
        dpre = dact * gelu_grad(pre, phi)
        xn2 = t[f"{p}.ln2.g"] * c["xhat2"] + t[f"{p}.ln2.b"]
        grads[f"{p}.mlp.w1"] = xn2.reshape(b * sq, d).T @ dpre
        grads[f"{p}.mlp.b1"] = dpre.sum(axis=0)
        dxn2 = (dpre @ t[f"{p}.mlp.w1"].T).reshape(b, sq, d)
        dmid_ln, dg, db = _ln_backward(dxn2, c["xhat2"], c["inv2"], t[f"{p}.ln2.g"])
        grads[f"{p}.ln2.g"] = dg
        grads[f"{p}.ln2.b"] = db
        d_mid = dx + dmid_ln

        # Attention branch: x_mid = x_in + (merge(P @ V) @ wo + bo)
        d_mid2 = d_mid.reshape(b * sq, d)
        grads[f"{p}.attn.wo"] = c["o"].reshape(b * sq, d).T @ d_mid2
        grads[f"{p}.attn.bo"] = d_mid2.sum(axis=0)
        do = (d_mid2 @ t[f"{p}.attn.wo"].T).reshape(b, sq, h, dh).transpose(0, 2, 1, 3)
        dprobs = do @ c["v"].transpose(0, 1, 3, 2)
        dv = c["probs"].transpose(0, 1, 3, 2) @ do
        dscores = c["probs"] * (
            dprobs - (dprobs * c["probs"]).sum(axis=-1, keepdims=True)
        )
        dq = (dscores @ c["k"]) * scale
        dk = (dscores.transpose(0, 1, 3, 2) @ c["q"]) * scale
        # (B, h, rows, dh) -> (B*S, 3d) fused with the qkv projection;
        # query rows past sq had no query and get zero gradient.
        dqkv = np.zeros((b, s, 3 * d))
        dqkv[:, :sq, :d] = dq.transpose(0, 2, 1, 3).reshape(b, sq, d)
        dqkv[:, :, d : 2 * d] = dk.transpose(0, 2, 1, 3).reshape(b, s, d)
        dqkv[:, :, 2 * d :] = dv.transpose(0, 2, 1, 3).reshape(b, s, d)
        dqkv = dqkv.reshape(b * s, 3 * d)
        xn1 = t[f"{p}.ln1.g"] * c["xhat1"] + t[f"{p}.ln1.b"]
        grads[f"{p}.attn.wqkv"] = xn1.reshape(b * s, d).T @ dqkv
        grads[f"{p}.attn.bqkv"] = dqkv.sum(axis=0)
        dxn1 = (dqkv @ t[f"{p}.attn.wqkv"].T).reshape(b, s, d)
        # Without positional embedding only the class-token row of block
        # 0's input gradient is read.
        rows = 1 if i == 0 and not cfg.use_positional_embedding else None
        dx, dg, db = _ln_backward(
            dxn1, c["xhat1"], c["inv1"], t[f"{p}.ln1.g"], dx_rows=rows
        )
        grads[f"{p}.ln1.g"] = dg
        grads[f"{p}.ln1.b"] = db
        sq = min(sq, dx.shape[1])
        dx[:, :sq] += d_mid[:, :sq]

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
    probs = cache.layers[-1]["probs"]  # (1, h, 1, S): class-token query only
    raw = probs[0, :, 0, 1:].mean(axis=0)  # class-token query -> frame tokens
    norm = np.linalg.norm(raw)
    scores = raw / norm
    sigma = float(scores.std())
    return scores, sigma
