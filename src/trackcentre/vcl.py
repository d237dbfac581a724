"""Video-centralised learning: clip sampling, attract/repel losses, centre
table maintenance, the training optimiser and the full training loop.

Each track owns a latent-space centre.  Clip representations are attracted
to their own centre and repelled (hinge with margin g) from centres of
cannot-linked tracks.  Parameters are trained with SGD + momentum under a
OneCycle schedule; centres take SGD steps at a proportional rate eta = p*xi
and are periodically re-established from whole tracks: the length-chunked
evaluation forward followed by the training head.

vc draws each epoch as one int64 array, one row
(track, start, length, y, centre) per clip, and ct as rows of two clips;
``clips_of`` slices the frames of such rows.

``OneCycleSGD`` is the one optimiser of vc and of both pairwise baselines
(ct, tsiam): it shuffles and batches each epoch's drawn items, sizes the
schedule from the first epoch's item count and applies the momentum and
weight-decay update, so the three methods train under the same schedule.

``streamed_step`` is the one training step of vc and ct: it runs a batch in
groups of clips, each forwarded in length-sorted chunks, handed to the
method's loss and backpropagated before the next group starts, so only one
group's activations are alive.  vc's groups are single chunks; ct's hold
128 pairs, because its pair loss couples the two clips of a pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import encoder as enc
from .clustereval import KnownK, hac, sdbw as sdbw_index
from .constraints import CannotLinkMatrix
from .trackio import TrackSet

DIST_EPS = 1e-12


class TrainError(Exception):
    pass


@dataclass
class CentreTable:
    """One latent centre per track, in track index order."""

    centres: np.ndarray  # (M, z)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 900
    warmup_epochs: int = 400
    max_lr: float = 5.1e-4
    momentum: float = 0.9
    weight_decay: float = 1e-5
    batch_size: int = 512
    clip_cap: int = 90
    attract_per_track: int = 10
    repel_per_track: int = 16
    margin: float = 1.0
    centre_lr_factor: float = 1.0  # p in eta = p * xi
    centre_recompute_interval: int = 50  # epochs between full recomputes
    seed: int = 0
    checkpoint_policy: str = "final"  # "final" | "best_sdbw"

    def __post_init__(self):
        positive = {
            "epochs": self.epochs,
            "warmup_epochs": self.warmup_epochs,
            "max_lr": self.max_lr,
            "batch_size": self.batch_size,
            "clip_cap": self.clip_cap,
            "attract_per_track": self.attract_per_track,
            "repel_per_track": self.repel_per_track,
            "margin": self.margin,
            "centre_lr_factor": self.centre_lr_factor,
            "centre_recompute_interval": self.centre_recompute_interval,
        }
        for name, v in positive.items():
            if v <= 0:
                raise TrainError(f"{name} must be positive, got {v}")
        if not (0 <= self.momentum < 1):
            raise TrainError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise TrainError("weight_decay must be >= 0")
        if self.warmup_epochs >= self.epochs:
            raise TrainError("warmup_epochs must be < epochs")
        if self.checkpoint_policy not in ("final", "best_sdbw"):
            raise TrainError(f"unknown checkpoint policy {self.checkpoint_policy!r}")
        if self.clip_cap < 2:
            raise TrainError("clip_cap must be >= 2")


def sample_clip_consecutive(n: int, cap: int, rng: np.random.Generator) -> tuple[int, int]:
    """Sample consecutive frames of an n-frame track as (start, length),
    start 0-indexed: start uniform on {0..n-2}, then length - 1 uniform on
    {1..min(n-1-start, cap-1)}.  A length-1 track yields (0, 1)."""
    if n < 1:
        raise TrainError("track length must be >= 1")
    if cap < 2:
        raise TrainError("clip cap must be >= 2")
    if n == 1:
        return 0, 1
    i = int(rng.integers(1, n))
    j = int(rng.integers(1, min(n - i, cap - 1) + 1))
    return i - 1, j + 1


def clips_of(tracks, rows: np.ndarray) -> list[np.ndarray]:
    """Frame views of the clips of ``rows``, whose first three columns are
    (track, start, length); tracks are positions in ``tracks``."""
    return [tracks[t].embeddings[s : s + n] for t, s, n in rows[:, :3].tolist()]


def vc_loss(z, c, y: int, g: float) -> float:
    """Attract (y=1): 0.5*||z-c||.  Repel (y=0): 0.5*max(g-||z-c||, 0)."""
    z = np.asarray(z, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(c))):
        raise TrainError("non-finite inputs to vc_loss")
    if g <= 0:
        raise TrainError("margin must be positive")
    dist = float(np.linalg.norm(z - c))
    if y == 1:
        return 0.5 * dist
    return 0.5 * max(g - dist, 0.0)


def grad_z(z, c, y: int, g: float) -> np.ndarray:
    """Analytic gradient of vc_loss w.r.t. z; zero (with a warning) at the
    non-differentiable point ||z-c|| <= eps."""
    z = np.asarray(z, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    diff = z - c
    dist = float(np.linalg.norm(diff))
    if dist <= DIST_EPS:
        warnings.warn("grad_z at non-differentiable point ||z-c||=0; returning 0")
        return np.zeros_like(diff)
    unit = diff / dist
    if y == 1:
        return 0.5 * unit
    if g - dist > 0:
        return -0.5 * unit
    return np.zeros_like(diff)


def update_centre(c, z, y, eta: float, g: float) -> np.ndarray:
    """One SGD step on each centre row of ``c``, treating the matching row
    of ``z`` as constant; ``y`` holds one label per row.  A single centre
    (1-D ``c`` and ``z``, scalar ``y``) works the same way."""
    if eta <= 0:
        raise TrainError("eta must be positive")
    c = np.asarray(c, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y)
    diff = z - c
    dist = np.linalg.norm(diff, axis=-1)
    moving = dist > DIST_EPS
    if not np.all(moving):
        warnings.warn("centre update at non-differentiable point ||z-c||=0")
    # Attract: grad_c = -0.5 * unit, (c - z) / ||z - c|| scaled by y/2;
    # an active repel hinge: +0.5 * unit; an inactive one leaves c as is.
    moving &= (y == 1) | (g - dist > 0)
    sign = np.where(y == 1, -0.5, 0.5)
    unit = diff / np.where(moving, dist, 1.0)[..., None]
    return np.where(moving[..., None], c - eta * (sign[..., None] * unit), c)


def onecycle_lr(step: int, total_steps: int, cfg: TrainConfig) -> float:
    """Cosine one-cycle schedule: max_lr/25 -> max_lr over the warm-up
    fraction of steps, then cosine decay to max_lr/1e4 at the last step."""
    if not (0 <= step < total_steps):
        raise TrainError(f"step {step} outside [0, {total_steps})")
    last = total_steps - 1
    warm_steps = int(round(last * cfg.warmup_epochs / cfg.epochs))
    start = cfg.max_lr / 25.0
    final = cfg.max_lr / 1e4
    if step <= warm_steps:
        if warm_steps == 0:
            return cfg.max_lr
        p = step / warm_steps
        return start + (cfg.max_lr - start) * 0.5 * (1.0 - np.cos(np.pi * p))
    q = (step - warm_steps) / (last - warm_steps)
    return final + (cfg.max_lr - final) * 0.5 * (1.0 + np.cos(np.pi * q))


class OneCycleSGD:
    """SGD with momentum and weight decay on the projection matrices
    (2-D tensors) under ``onecycle_lr``; updates ``tensors`` in place.

    Per epoch, ``batches(items)`` shuffles the drawn items (an array with
    one row per item) with ``rng`` and yields them in batches of
    ``cfg.batch_size``.  The schedule lasts
    ``cfg.epochs`` epochs of as many batches as the first epoch holds.  For
    each batch the caller runs its own forward pass, hands the per-item
    losses to ``add_losses`` and the summed gradients to ``step``.
    ``mean_loss`` and ``lr`` describe the epoch in progress.
    """

    def __init__(self, tensors: dict[str, np.ndarray], cfg: TrainConfig,
                 rng: np.random.Generator):
        self.tensors = tensors
        self.cfg = cfg
        self.rng = rng
        self.velocity = {n: np.zeros_like(t) for n, t in tensors.items()}
        self.decayed = {n for n, t in tensors.items() if t.ndim == 2}
        self.total_steps = None
        self.steps = 0
        self.epoch = 0
        self.batch = 0
        self.items = 0
        self.loss_sum = 0.0
        self.lr = 0.0

    def batches(self, items: np.ndarray):
        items = items[self.rng.permutation(len(items))]
        size = self.cfg.batch_size
        if self.total_steps is None:
            self.total_steps = self.cfg.epochs * -(-len(items) // size)
        self.epoch += 1
        self.items = len(items)
        self.loss_sum = 0.0
        for b0 in range(0, len(items), size):
            self.batch = b0 // size
            yield items[b0 : b0 + size]

    def add_losses(self, losses: np.ndarray) -> None:
        if not np.all(np.isfinite(losses)):
            raise TrainError(f"non-finite loss at epoch {self.epoch}, batch {self.batch}")
        self.loss_sum += float(losses.sum())

    @property
    def mean_loss(self) -> float:
        return self.loss_sum / self.items

    def step(self, grads: dict[str, np.ndarray]) -> float:
        """Apply one update and return its learning rate."""
        cfg = self.cfg
        self.lr = onecycle_lr(self.steps, self.total_steps, cfg)
        for name, g in grads.items():
            w = self.tensors[name]
            if name in self.decayed and cfg.weight_decay > 0:
                g = g + cfg.weight_decay * w
            self.velocity[name] = cfg.momentum * self.velocity[name] + g
            w -= self.lr * self.velocity[name]
        for name, w in self.tensors.items():
            if not np.all(np.isfinite(w)):
                raise TrainError(f"non-finite values in parameter {name}")
        self.steps += 1
        return self.lr


# Clips per length-sorted chunk of a training batch: small enough that each
# chunk pads little past its own clips, large enough that the GEMMs stay
# efficient.
_CHUNK = 32


def _add_grads(total, grads):
    """Add one chunk's gradients into the running total (None at first)."""
    if total is None:
        return grads
    for name in total:
        total[name] += grads[name]
    return total


def streamed_step(params: enc.EncoderParams, clips: list[np.ndarray], groups, loss):
    """Gradients of one batch, one group of clips at a time.

    ``groups`` are index arrays into ``clips``.  For each group the step
    forwards its clips in length-sorted chunks of _CHUNK, calls
    ``loss(group, z)`` with the group's head outputs (rows in group order),
    which returns dL/dz of those rows, backpropagates every chunk and drops
    the group's caches before the next group starts.  So at most one
    group's caches are alive, and a loss may couple any clips of a group.
    Returns (z of all clips, gradients summed over the chunks in order).
    """
    z = np.empty((len(clips), params.config.head_out_dim))
    total = None
    for group in groups:
        caches = []
        for pos in enc.length_chunks([clips[i].shape[0] for i in group], _CHUNK):
            idx = group[pos]
            z[idx], cache = enc.forward_train_batch(params, [clips[i] for i in idx])
            caches.append((pos, cache))
        gz = loss(group, z[group])
        for pos, cache in caches:
            total = _add_grads(total, enc.backward(params, cache, gz[pos]))
        del caches, cache  # freed before the next group's forward pass
    return z, total


def _batch_loss_and_gradz(z_batch, centres, ys, g):
    """Vectorised per-sample losses and dL/dz over one batch."""
    diff = z_batch - centres
    dist = np.linalg.norm(diff, axis=1)
    att = ys == 1
    losses = np.where(att, 0.5 * dist, 0.5 * np.maximum(g - dist, 0.0))
    safe = dist > DIST_EPS
    unit = np.zeros_like(diff)
    unit[safe] = diff[safe] / dist[safe, None]
    sign = np.where(att, 0.5, np.where((g - dist > 0), -0.5, 0.0))
    return losses, sign[:, None] * unit


def _update_centres(centres, ci, z, ys, eta: float, g: float) -> None:
    """Step ``centres[ci[i]]`` toward or away from ``z[i]`` for every row i
    of a batch, in place, with the result of stepping the rows one by one.

    Round r steps each centre's r-th occurrence in batch order, so a round
    touches each centre at most once and needs one ``update_centre`` call.
    """
    order = np.argsort(ci, kind="stable")
    first = np.searchsorted(ci[order], ci[order])
    occurrence = np.empty_like(ci)
    occurrence[order] = np.arange(len(ci)) - first
    for r in range(occurrence.max() + 1):
        rows = np.flatnonzero(occurrence == r)
        centres[ci[rows]] = update_centre(centres[ci[rows]], z[rows], ys[rows], eta, g)


def init_centres(params: enc.EncoderParams, trackset: TrackSet) -> CentreTable:
    """Whole-track centres: the training head on the class-token states of
    the length-chunked evaluation forward."""
    cls = enc.forward_eval_batch(params, [t.embeddings for t in trackset.tracks])
    return CentreTable(centres=enc.head_forward(params, cls))


def _draw_samples(tracks, partner_lists, cfg: TrainConfig,
                  rng: np.random.Generator) -> np.ndarray:
    """One epoch of vc samples as int64 rows (track, start, length, y,
    centre).  Per track: its attract clips (y=1, its own centre), then per
    repel sample a clip and a random cannot-link partner (y=0, the
    partner's centre)."""
    rows = []
    for ti, track in enumerate(tracks):
        for _ in range(cfg.attract_per_track):
            clip = sample_clip_consecutive(track.length, cfg.clip_cap, rng)
            rows.append((ti, *clip, 1, ti))
        partners = partner_lists[ti]
        if len(partners) > 0:
            for _ in range(cfg.repel_per_track):
                clip = sample_clip_consecutive(track.length, cfg.clip_cap, rng)
                rows.append((ti, *clip, 0, partners[rng.integers(len(partners))]))
    return np.array(rows, dtype=np.int64)


def train(
    trackset: TrackSet,
    n_matrix: CannotLinkMatrix,
    encoder_config: enc.EncoderConfig,
    train_config: TrainConfig,
    on_epoch_end=None,
):
    """Run the two-step iterative optimisation and return
    (selected EncoderParams, CentreTable, history rows).

    History rows are dicts with keys epoch, mean_loss, lr, sdbw (sdbw is
    None unless checkpoint_policy == "best_sdbw").  ``on_epoch_end``, if
    given, is called as on_epoch_end(epoch, params, centre_table) after
    any scheduled centre recompute.
    """
    cfg = train_config
    tracks = trackset.tracks
    m = len(tracks)
    rng = np.random.default_rng(cfg.seed)
    params = enc.init_params(encoder_config, rng)
    opt = OneCycleSGD(params.tensors, cfg, rng)

    partner_lists = [n_matrix.partners(i) for i in range(m)]
    if not n_matrix.any_links():
        warnings.warn("no cannot-links available; training with attract samples only")

    table = init_centres(params, trackset)
    history: list[dict] = []
    best_sdbw = np.inf
    best_tensors = None
    sdbw_k = None
    if cfg.checkpoint_policy == "best_sdbw":
        labels = [t.label for t in tracks]
        if any(l is None for l in labels):
            raise TrainError("best_sdbw checkpoint policy requires labeled tracks")
        sdbw_k = len(set(labels))
        if sdbw_k < 2:
            raise TrainError("best_sdbw checkpoint policy needs >= 2 identities")

    for epoch in range(1, cfg.epochs + 1):
        for batch in opt.batches(_draw_samples(tracks, partner_lists, cfg, rng)):
            ys, ci = batch[:, 3], batch[:, 4]
            centres = table.centres[ci]
            losses = np.empty(len(batch))

            def loss(idx, z):
                losses[idx], gz = _batch_loss_and_gradz(z, centres[idx], ys[idx], cfg.margin)
                return gz / len(batch)

            # One length-sorted chunk per group: the vc loss of a clip
            # involves that clip alone.
            groups = enc.length_chunks(batch[:, 2], _CHUNK)
            z_batch, grads = streamed_step(params, clips_of(tracks, batch), groups, loss)
            opt.add_losses(losses)
            lr = opt.step(grads)

            _update_centres(table.centres, ci, z_batch, ys,
                            cfg.centre_lr_factor * lr, cfg.margin)

        if epoch % cfg.centre_recompute_interval == 0:
            table = init_centres(params, trackset)

        sdbw_val = None
        if cfg.checkpoint_policy == "best_sdbw":
            reps = enc.forward_eval_batch(params, [t.embeddings for t in tracks])
            assign = hac(reps, linkage="average", stop=KnownK(sdbw_k))
            sdbw_val = sdbw_index(reps, assign.as_array())
            if sdbw_val < best_sdbw:
                best_sdbw = sdbw_val
                best_tensors = {n: t.copy() for n, t in params.tensors.items()}

        history.append(
            dict(
                epoch=epoch,
                mean_loss=opt.mean_loss,
                lr=opt.lr,
                sdbw=sdbw_val,
            )
        )
        if on_epoch_end is not None:
            on_epoch_end(epoch, params, table)

    if cfg.checkpoint_policy == "best_sdbw" and best_tensors is not None:
        params = enc.EncoderParams(config=params.config, tensors=best_tensors)
    return params, table, history


def write_history_csv(path, history) -> None:
    import csv

    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "mean_loss", "lr", "sdbw"])
        for row in history:
            writer.writerow(
                [
                    row["epoch"],
                    repr(float(row["mean_loss"])),
                    repr(float(row["lr"])),
                    "" if row["sdbw"] is None else repr(float(row["sdbw"])),
                ]
            )
