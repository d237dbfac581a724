"""Video-centralised learning: clip sampling, attract/repel losses, centre
table maintenance, the training optimiser and the epoch loop of every
trained method.

Each track owns a latent-space centre.  Clip representations are attracted
to their own centre and repelled (hinge with margin g) from centres of
cannot-linked tracks.  Parameters are trained with SGD + momentum under a
OneCycle schedule; centres take SGD steps at a proportional rate eta = p*xi
and are periodically re-established from whole tracks: the token-chunked
evaluation forward followed by the training head.

vc draws each epoch as one int64 array, one row
(track, start, length, y, centre) per clip, and ct as rows of two clips;
``clips_of`` slices the frames of such rows.

``fit`` is the one epoch loop of vc, ct and tsiam: it owns the optimiser,
the history rows and the best_sdbw selection, and a method supplies its
params, draw, batch step and representations.  ``OneCycleSGD``, that
optimiser, shuffles and batches each epoch's drawn items and sizes the
schedule from the first epoch's item count.

``streamed_step`` is the one training step of vc and ct: it runs a batch in
groups of clips, each forwarded in the token-bounded chunks of
``encoder.token_chunks``, handed to the method's loss and backpropagated
chunk by chunk before the next group starts, each chunk's activations
dropped once backpropagated, so at most one group's activations are alive.
vc's groups are single chunks; ct's hold 128 pairs, because its pair loss
couples the two clips of a pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import encoder as enc
from .clustereval import KnownK, hac, sdbw as sdbw_index
from .constraints import CannotLinkMatrix
from .trackio import TrackSet, _atomic_open

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
        if not 0 <= self.warmup_epochs < self.epochs:
            raise TrainError(f"warmup_epochs must be in [0, epochs), got {self.warmup_epochs}")
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
    forwards its clips in the length-sorted chunks of
    ``encoder.token_chunks``, at most ``encoder.CHUNK_TOKENS`` padded tokens
    each (a longer clip alone), calls ``loss(group, z)`` with the group's
    head outputs (rows in group order), which returns dL/dz of those rows,
    then backpropagates the chunks shortest first, dropping each chunk's
    cache once it is backpropagated.
    So at most one group's caches are alive, the longest chunk's backward
    runs beside its own cache only, and a loss may couple any clips of a
    group.  Returns (z of all clips, gradients summed over the chunks in
    order).
    """
    z = np.empty((len(clips), params.config.head_out_dim))
    total = None
    for group in groups:
        caches = []
        for pos in enc.token_chunks([clips[i].shape[0] for i in group], enc.CHUNK_TOKENS):
            idx = group[pos]
            z[idx], cache = enc.forward_train_batch(params, [clips[i] for i in idx])
            caches.append((pos, cache))
        gz = loss(group, z[group])
        caches.reverse()
        while caches:
            # rebinding ``cache`` frees the previous chunk's
            pos, cache = caches.pop()
            total = _add_grads(total, enc.backward(params, cache, gz[pos]))
        del cache  # freed before the next group's forward pass
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
    the token-chunked evaluation forward."""
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


def sdbw_identities(trackset: TrackSet, cfg: TrainConfig) -> int | None:
    """The cluster count of the best_sdbw policy's per-epoch HAC, the
    tracks' identity count; None under the final policy.  Raises TrainError
    unless every track is labeled and there are two identities or more."""
    if cfg.checkpoint_policy != "best_sdbw":
        return None
    labels = trackset.labels()
    if any(l is None for l in labels):
        raise TrainError("best_sdbw checkpoint policy requires labeled tracks")
    k = len(set(labels))
    if k < 2:
        raise TrainError("best_sdbw checkpoint policy needs >= 2 identities")
    return k


def fit(trackset: TrackSet, cfg: TrainConfig, rng: np.random.Generator, params,
        draw, step, represent, after_step=None, end_epoch=None):
    """The epoch loop of vc, ct and tsiam; returns (selected params, history).

    ``OneCycleSGD`` trains ``params.tensors`` in place, shuffling each
    ``draw()`` with ``rng``; ``step(batch)`` returns a batch's per-item
    losses and summed gradients.  The optional hooks ``after_step(lr)`` and
    ``end_epoch(epoch)`` run after each update and after each history row
    (dicts of epoch, mean_loss, lr, sdbw).  Under best_sdbw, sdbw scores
    the average-linkage HAC of ``represent(params)`` into the tracks'
    identities, and the params of the lowest-scoring epoch are returned.
    """
    sdbw_k = sdbw_identities(trackset, cfg)
    opt = OneCycleSGD(params.tensors, cfg, rng)
    history: list[dict] = []
    best_sdbw, best_tensors = np.inf, None
    for epoch in range(1, cfg.epochs + 1):
        for batch in opt.batches(draw()):
            losses, grads = step(batch)
            opt.add_losses(losses)
            lr = opt.step(grads)
            if after_step is not None:
                after_step(lr)
        sdbw_val = None
        if sdbw_k is not None:
            reps = represent(params)
            assign = hac(reps, linkage="average", stop=KnownK(sdbw_k))
            sdbw_val = sdbw_index(reps, assign.as_array())
            if sdbw_val < best_sdbw:
                best_sdbw = sdbw_val
                best_tensors = {n: t.copy() for n, t in params.tensors.items()}
        history.append(dict(epoch=epoch, mean_loss=opt.mean_loss, lr=opt.lr, sdbw=sdbw_val))
        if end_epoch is not None:
            end_epoch(epoch)
    if best_tensors is not None:
        params = replace(params, tensors=best_tensors)
    return params, history


def train(
    trackset: TrackSet,
    n_matrix: CannotLinkMatrix,
    encoder_config: enc.EncoderConfig,
    train_config: TrainConfig,
    on_epoch_end=None,
):
    """Run the two-step iterative optimisation through ``fit`` and return
    (selected EncoderParams, CentreTable, history rows).

    Each batch's centre updates follow its parameter update, at eta = p * lr.
    ``on_epoch_end``, if given, is called as on_epoch_end(epoch, params,
    centre_table) after any scheduled centre recompute.
    """
    cfg = train_config
    tracks = trackset.tracks
    rng = np.random.default_rng(cfg.seed)
    params = enc.init_params(encoder_config, rng)
    partner_lists = [n_matrix.partners(i) for i in range(len(tracks))]
    if not n_matrix.any_links():
        warnings.warn("no cannot-links available; training with attract samples only")
    table = init_centres(params, trackset)
    moved = None  # (centre rows, z, y) of the batch just stepped

    def step(batch):
        nonlocal moved
        ys, ci = batch[:, 3], batch[:, 4]
        centres = table.centres[ci]
        losses = np.empty(len(batch))

        def loss(idx, z):
            losses[idx], gz = _batch_loss_and_gradz(z, centres[idx], ys[idx], cfg.margin)
            return gz / len(batch)

        # One chunk per group: the vc loss of a clip involves that clip alone.
        groups = enc.token_chunks(batch[:, 2], enc.CHUNK_TOKENS)
        z_batch, grads = streamed_step(params, clips_of(tracks, batch), groups, loss)
        moved = (ci, z_batch, ys)
        return losses, grads

    def after_step(lr):
        _update_centres(table.centres, *moved, cfg.centre_lr_factor * lr, cfg.margin)

    def end_epoch(epoch):
        nonlocal table
        if epoch % cfg.centre_recompute_interval == 0:
            table = init_centres(params, trackset)
        if on_epoch_end is not None:
            on_epoch_end(epoch, params, table)

    params, history = fit(
        trackset, cfg, rng, params,
        lambda: _draw_samples(tracks, partner_lists, cfg, rng), step,
        lambda p: enc.forward_eval_batch(p, [t.embeddings for t in tracks]),
        after_step, end_epoch,
    )
    return params, table, history


def write_history_csv(path, history) -> None:
    import csv

    with _atomic_open(path, newline="") as f:
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
