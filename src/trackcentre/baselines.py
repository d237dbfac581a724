"""Comparison systems: temporal averaging and pairwise contrastive
training of a Siamese MLP (frame level) or the transformer (clip level).

tsiam draws each epoch's frame pairs as one index array
(``constraints.sample_pairs``) and gathers their frames with one fancy index
into one concatenation of the tracks' frames; ct draws one int64 row per
pair of clips and slices their frames with ``vcl.clips_of``.  Both
interleave the two sides of each pair (a0, b0, a1, b1, ...).  tsiam runs a
batch through one forward and one backward call of the MLP, whose cache
keeps the GELU gate for the backward call.  ct streams a batch through
``vcl.streamed_step`` in groups of _GROUP_PAIRS pairs ordered by each
pair's longer clip, so its memory is bounded by one group's activations.
Frames are widened to float64 where the arithmetic starts: the averages
sum in float64 and tsiam's frame table and the MLP's track input are
float64 copies.
Both pairwise modes train with ``vcl.OneCycleSGD``, the optimiser of vc, so
all three methods share one schedule, sized from the epoch's drawn items.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from . import encoder as enc
from .constraints import CannotLinkMatrix, sample_pairs
from .trackio import EmbeddingTrack, TrackSet
from .vcl import (
    DIST_EPS,
    OneCycleSGD,
    TrainConfig,
    TrainError,
    clips_of,
    sample_clip_consecutive,
    streamed_step,
)

# Pairs per group of ct's streamed step.  A group's caches are alive from
# its forward to its backward pass, so this bounds ct's memory; larger
# groups pad a little less (measured valid/padded tokens: 0.84 at 64 pairs,
# 0.89 at 128, 0.92 at 256 and for a whole 512-pair batch).
_GROUP_PAIRS = 128


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
    """x: (..., d) -> (out, cache): the cache holds the pre-activation and
    its GELU gate phi = ndtr(pre), gelu(pre) = pre * phi."""
    t = params.tensors
    pre = x @ t["w1"] + t["b1"]
    phi = ndtr(pre)
    out = (pre * phi) @ t["w2"] + t["b2"]
    return out, (pre, phi)


def mlp_backward(params: SiameseMlpParams, x, cache, dout):
    t = params.tensors
    pre, phi = cache
    x2 = x.reshape(-1, x.shape[-1])
    dout2 = dout.reshape(-1, dout.shape[-1])
    act2 = (pre * phi).reshape(-1, pre.shape[-1])
    grads = {
        "w2": act2.T @ dout2,
        "b2": dout2.sum(axis=0),
    }
    dact = dout @ t["w2"].T
    dpre = dact * enc.gelu_grad(pre, phi)
    dpre2 = dpre.reshape(-1, dpre.shape[-1])
    grads["w1"] = x2.T @ dpre2
    grads["b1"] = dpre2.sum(axis=0)
    return grads


def temporal_average(track: EmbeddingTrack) -> np.ndarray:
    """Arithmetic mean of the track's frame embeddings, summed in float64."""
    return track.embeddings.mean(axis=0, dtype=np.float64)


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


def _interleaved_pair_loss(z, ys, g, n: int):
    """Losses and dL/dz of the pairs whose two sides are interleaved rows
    (a0, b0, a1, b1, ...) of ``z``; dL/dz is divided by ``n``, the batch's
    pair count, so that the gradients are those of the batch mean."""
    z = z.reshape(len(ys), 2, -1)
    losses, dzi, dzj = _pair_loss_grads(z[:, 0], z[:, 1], ys, g)
    return losses, np.stack((dzi, dzj), axis=1).reshape(2 * len(ys), -1) / n


def _pair_groups(batch: np.ndarray) -> list[np.ndarray]:
    """ct's groups of a batch of pair rows: _GROUP_PAIRS pairs at a time in
    the stable order of each pair's longer clip, as indices of the
    interleaved clips (2p for side a of pair p, 2p + 1 for side b)."""
    order = np.argsort(np.maximum(batch[:, 2], batch[:, 5]), kind="stable")
    groups = [order[g0 : g0 + _GROUP_PAIRS] for g0 in range(0, len(order), _GROUP_PAIRS)]
    return [np.stack((2 * p, 2 * p + 1), axis=1).ravel() for p in groups]


def track_representation_mlp(params: SiameseMlpParams, track: EmbeddingTrack):
    """Temporal average of the per-frame MLP projections."""
    out, _ = mlp_forward(params, np.asarray(track.embeddings, dtype=np.float64))
    return out.mean(axis=0)


def check_final_policy(cfg: TrainConfig) -> None:
    """Pairwise training keeps its final model: any other checkpoint policy
    raises TrainError naming it."""
    if cfg.checkpoint_policy != "final":
        raise TrainError(f"checkpoint policy {cfg.checkpoint_policy!r} is for vc only; "
                         "pairwise training keeps the final model")


def train_pairwise(
    model_kind: str,
    trackset: TrackSet,
    n_matrix: CannotLinkMatrix,
    config: TrainConfig,
    encoder_config: enc.EncoderConfig | None = None,
    mlp_out_dim: int = 2,
):
    """Pairwise contrastive training; returns (params, history).

    "mlp": frame-level Siamese MLP (hidden width dim // 2) on the frame
    pairs of ``sample_pairs``.
    "transformer": clip-vs-clip training of the encoder head outputs.
    Both return the final model; any other checkpoint policy raises
    ``TrainError``.
    """
    cfg = config
    check_final_policy(cfg)
    tracks = trackset.tracks
    m = len(tracks)
    rng = np.random.default_rng(cfg.seed)
    have_negatives = n_matrix.any_links()

    if model_kind == "mlp":
        params = init_mlp(trackset.dim, max(1, trackset.dim // 2), mlp_out_dim, rng)
        neg_per_epoch = cfg.repel_per_track * m if have_negatives else 0
        frames = np.concatenate([t.embeddings for t in tracks], dtype=np.float64)
        offsets = np.cumsum([0] + [t.length for t in tracks[:-1]])

        def draw():
            return sample_pairs(
                trackset, n_matrix, rng, cfg.attract_per_track * m, neg_per_epoch
            )

        def step(batch):
            x = frames[(offsets[batch[:, [0, 2]]] + batch[:, [1, 3]]).ravel()]
            z, cache = mlp_forward(params, x)
            losses, dz = _interleaved_pair_loss(z, batch[:, -1], cfg.margin, len(batch))
            return losses, mlp_backward(params, x, cache, dz)

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

        def step(batch):
            losses = np.empty(len(batch))

            def loss(group, z):
                pairs = group[::2] // 2
                losses[pairs], dz = _interleaved_pair_loss(
                    z, batch[pairs, -1], cfg.margin, len(batch)
                )
                return dz

            clips = clips_of(tracks, batch[:, :6].reshape(-1, 3))
            _, grads = streamed_step(params, clips, _pair_groups(batch), loss)
            return losses, grads

    else:
        raise TrainError(f"unknown model kind {model_kind!r}")
    if not have_negatives:
        warnings.warn("no cannot-links available; training with positives only")

    opt = OneCycleSGD(params.tensors, cfg, rng)
    history = []
    for epoch in range(1, cfg.epochs + 1):
        for batch in opt.batches(draw()):
            losses, grads = step(batch)
            opt.add_losses(losses)
            opt.step(grads)
        history.append(dict(epoch=epoch, mean_loss=opt.mean_loss, lr=opt.lr, sdbw=None))
    return params, history
