"""Comparison systems: temporal averaging and pairwise contrastive
training of a Siamese MLP (frame level) or the transformer (clip level).

tsiam draws each epoch's frame pairs as one index array
(``constraints.sample_pairs``) and gathers their frames with one fancy index
into one concatenation of the tracks' frames; ct draws one int64 row per
pair of clips and slices their frames with ``vcl.clips_of``.  Both
interleave the two sides of each pair (a0, b0, a1, b1, ...), so a batch runs
through one forward and one backward call.  Both pairwise modes train with
``vcl.OneCycleSGD``, the optimiser of vc, so all three methods share one
schedule, sized from the epoch's drawn items.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from .constraints import CannotLinkMatrix, sample_pairs
from .trackio import EmbeddingTrack, TrackSet
from .vcl import (
    DIST_EPS,
    OneCycleSGD,
    TrainConfig,
    TrainError,
    bucketed_backward,
    bucketed_forward,
    clips_of,
    sample_clip_consecutive,
)


@dataclass
class SiameseMlpParams:
    """Two affine layers d -> h -> z with a GELU between."""

    tensors: dict[str, np.ndarray]

    @property
    def in_dim(self) -> int:
        return self.tensors["w1"].shape[0]


def init_mlp(
    dim: int, hidden: int, out_dim: int, rng: np.random.Generator
) -> SiameseMlpParams:
    def proj(fan_in, fan_out):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=(fan_in, fan_out))

    return SiameseMlpParams(
        tensors={
            "w1": proj(dim, hidden),
            "b1": np.zeros(hidden),
            "w2": proj(hidden, out_dim),
            "b2": np.zeros(out_dim),
        }
    )


def mlp_forward(params: SiameseMlpParams, x: np.ndarray):
    """x: (..., d) -> (out, pre-activation cache)."""
    t = params.tensors
    pre = x @ t["w1"] + t["b1"]
    out = enc.gelu(pre) @ t["w2"] + t["b2"]
    return out, pre


def mlp_backward(params: SiameseMlpParams, x, pre, dout):
    t = params.tensors
    act = enc.gelu(pre)
    x2 = x.reshape(-1, x.shape[-1])
    dout2 = dout.reshape(-1, dout.shape[-1])
    act2 = act.reshape(-1, act.shape[-1])
    grads = {
        "w2": act2.T @ dout2,
        "b2": dout2.sum(axis=0),
    }
    dact = dout @ t["w2"].T
    dpre = dact * enc.gelu_grad(pre)
    dpre2 = dpre.reshape(-1, dpre.shape[-1])
    grads["w1"] = x2.T @ dpre2
    grads["b1"] = dpre2.sum(axis=0)
    return grads


def temporal_average(track: EmbeddingTrack) -> np.ndarray:
    """Arithmetic mean of the track's frame embeddings."""
    return track.embeddings.mean(axis=0)


def pairwise_contrastive_loss(z_i, z_j, y: int, g: float) -> float:
    """(y/2)||zi-zj||^2 + ((1-y)/2) max(g - ||zi-zj||, 0)^2."""
    z_i = np.asarray(z_i, dtype=np.float64)
    z_j = np.asarray(z_j, dtype=np.float64)
    if not (np.all(np.isfinite(z_i)) and np.all(np.isfinite(z_j))):
        raise TrainError("non-finite inputs to pairwise_contrastive_loss")
    if g <= 0:
        raise TrainError("margin must be positive")
    dist = float(np.linalg.norm(z_i - z_j))
    if y == 1:
        return 0.5 * dist**2
    return 0.5 * max(g - dist, 0.0) ** 2


def _pair_loss_grads(zi, zj, ys, g):
    """Vectorised losses and (dL/dzi, dL/dzj) for batches of pairs."""
    diff = zi - zj
    dist = np.linalg.norm(diff, axis=1)
    att = ys == 1
    hinge = np.maximum(g - dist, 0.0)
    losses = np.where(att, 0.5 * dist**2, 0.5 * hinge**2)
    safe = dist > DIST_EPS
    unit = np.zeros_like(diff)
    unit[safe] = diff[safe] / dist[safe, None]
    dzi = np.where(att[:, None], diff, -hinge[:, None] * unit)
    return losses, dzi, -dzi


def track_representation_mlp(params: SiameseMlpParams, track: EmbeddingTrack):
    """Temporal average of the per-frame MLP projections."""
    out, _ = mlp_forward(params, track.embeddings)
    return out.mean(axis=0)


def train_pairwise(
    model_kind: str,
    trackset: TrackSet,
    n_matrix: CannotLinkMatrix,
    config: TrainConfig,
    encoder_config: enc.EncoderConfig | None = None,
    mlp_hidden: int | None = None,
    mlp_out_dim: int = 2,
):
    """Pairwise contrastive training; returns (params, history).

    "mlp": frame-level Siamese MLP on the frame pairs of ``sample_pairs``.
    "transformer": clip-vs-clip training of the encoder head outputs.
    """
    cfg = config
    tracks = trackset.tracks
    m = len(tracks)
    rng = np.random.default_rng(cfg.seed)
    have_negatives = n_matrix.any_links()

    if model_kind == "mlp":
        hidden = mlp_hidden if mlp_hidden is not None else max(1, trackset.dim // 2)
        params = init_mlp(trackset.dim, hidden, mlp_out_dim, rng)
        neg_per_epoch = cfg.repel_per_track * m if have_negatives else 0
        frames = np.concatenate([t.embeddings for t in tracks])
        offsets = np.cumsum([0] + [t.length for t in tracks[:-1]])

        def draw():
            return sample_pairs(
                trackset, n_matrix, rng, cfg.attract_per_track * m, neg_per_epoch
            )

        def inputs(batch):
            return frames[(offsets[batch[:, [0, 2]]] + batch[:, [1, 3]]).ravel()]

        def forward(x):
            z, pre = mlp_forward(params, x)
            return z, (x, pre)

        def backward(cache, dz):
            return mlp_backward(params, *cache, dz)

    elif model_kind == "transformer":
        if encoder_config is None:
            raise TrainError("transformer mode requires an encoder_config")
        params = enc.init_params(encoder_config, rng)

        def draw():
            # One int64 row (track_a, start_a, length_a, track_b, start_b,
            # length_b, y) per pair of clips.
            rows = []
            for ti, track in enumerate(tracks):
                partners = n_matrix.partners(ti)
                for _ in range(cfg.attract_per_track):
                    ca = sample_clip_consecutive(track.length, cfg.clip_cap, rng)
                    cb = sample_clip_consecutive(track.length, cfg.clip_cap, rng)
                    rows.append((ti, *ca, ti, *cb, 1))
                if len(partners) > 0:
                    for _ in range(cfg.repel_per_track):
                        other = int(partners[rng.integers(len(partners))])
                        ca = sample_clip_consecutive(track.length, cfg.clip_cap, rng)
                        cb = sample_clip_consecutive(
                            tracks[other].length, cfg.clip_cap, rng
                        )
                        rows.append((ti, *ca, other, *cb, 0))
            return np.array(rows, dtype=np.int64)

        def inputs(batch):
            return clips_of(tracks, batch[:, :6].reshape(-1, 3))

        def forward(clips):
            return bucketed_forward(params, clips)

        def backward(caches, dz):
            return bucketed_backward(params, caches, dz)

    else:
        raise TrainError(f"unknown model kind {model_kind!r}")
    if not have_negatives:
        warnings.warn("no cannot-links available; training with positives only")

    opt = OneCycleSGD(params.tensors, cfg, rng)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        for batch in opt.batches(draw()):
            n = len(batch)
            z, cache = forward(inputs(batch))
            z = z.reshape(n, 2, -1)
            losses, dzi, dzj = _pair_loss_grads(z[:, 0], z[:, 1], batch[:, -1], cfg.margin)
            opt.add_losses(losses)
            opt.step(backward(cache, np.stack((dzi, dzj), axis=1).reshape(2 * n, -1) / n))
            del cache  # freed before the next batch's forward pass
        history.append(dict(epoch=epoch, mean_loss=opt.mean_loss, lr=opt.lr, sdbw=None))
    return params, history
