"""Benchmark workloads: inputs made from a seed, set-up, the measured
training and evaluation steps and the checks on their outputs.

A training step trains every job of the workload once.  An evaluation
step, per trained model, round-trips it through a checkpoint, embeds every
track of the video, clusters the representations with average-linkage HAC
(known k and a threshold stop) and scores the clustering.  The library is
always reached through module attributes at call time, so a tracer that
patches those attributes sees every call.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist

from trackcentre import baselines, checkpoint, clustereval, constraints, trackio, vcl
from trackcentre import encoder as enc

ENCODER = dict(layers=2, heads=4, head_out_dim=2)
# Below every job's epoch count, so vcl.train recomputes its centres.
CENTRE_RECOMPUTE_INTERVAL = 2
# The threshold stop cuts the dendrogram at this fraction of the median
# pairwise distance between representations; no labels are used.
THRESHOLD_FRACTION = 0.5


@dataclass(frozen=True)
class Job:
    method: str  # "vc", "ct" (clip-level transformer) or "tsiam" (frame MLP)
    epochs: int
    clip_cap: int = 90


@dataclass(frozen=True)
class Workload:
    name: str
    identities: int
    tracks_per_identity: int
    min_length: int
    max_length: int
    jobs: tuple[Job, ...]
    # Evaluations of each trained model per evaluation step; cheap
    # evaluations are repeated so that a step times about a second.
    eval_repeats: int
    # Train on this many earliest-starting tracks; None trains on all.
    window: int | None = None
    dim: int = 32


WORKLOADS = {
    w.name: w
    for w in (
        Workload("vc-train", 5, 20, 5, 40, (Job("vc", 4),), eval_repeats=10),
        # Clips of the training window are capped at 40 frames, so that a
        # training step takes a few seconds and a run holds several.
        Workload("cluster-long-video", 10, 100, 5, 120, (Job("vc", 4, clip_cap=40),),
                 eval_repeats=1, window=100),
        Workload("compare-baselines", 5, 20, 5, 40, (Job("ct", 4), Job("tsiam", 40)),
                 eval_repeats=8),
    )
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class State:
    video: trackio.TrackSet
    train_set: trackio.TrackSet
    train_links: constraints.CannotLinkMatrix
    encoder_config: enc.EncoderConfig


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def train_config(job: Job, seed: int) -> vcl.TrainConfig:
    return vcl.TrainConfig(
        epochs=job.epochs,
        clip_cap=job.clip_cap,
        warmup_epochs=max(1, round(job.epochs * 4 / 9)),
        centre_recompute_interval=CENTRE_RECOMPUTE_INTERVAL,
        seed=seed,
    )


def samples_per_epoch(method: str, links: constraints.CannotLinkMatrix,
                      cfg: vcl.TrainConfig) -> int:
    """Clip samples (vc) or pairs (ct, tsiam) one training epoch draws."""
    m = links.size
    if method == "tsiam":
        return cfg.attract_per_track * m + (cfg.repel_per_track * m if links.any_links() else 0)
    with_partners = int((links.bits.sum(axis=1) > 0).sum())
    return cfg.attract_per_track * m + cfg.repel_per_track * with_partners


class Runner:
    """Runs one workload for one seed and counts attempted and failed
    operations (a set-up, a training call or an evaluation each)."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        # Per-epoch losses and clustering quality of the first training call
        # and evaluation of each method; later ones with the same seed must
        # reproduce them bit for bit.
        self.references: dict[tuple[str, str], object] = {}

    def _phase(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def _op(self, what: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failed += 1
            print(f"# FAILED {what}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def setup(self) -> State | None:
        with self._phase("bench.setup"):
            return self._op("setup", self._setup)

    def _setup(self) -> State:
        w = self.workload
        spec = trackio.SyntheticSpec(
            identity_count=w.identities,
            tracks_per_identity=w.tracks_per_identity,
            dim=w.dim,
            min_length=w.min_length,
            max_length=w.max_length,
            seed=self.seed,
        )
        stem = self.workdir / "video"
        generated = trackio.generate_synthetic(spec)
        trackio.save_trackset(generated, stem)
        video = trackio.load_trackset(stem)
        _check(
            [t.track_id for t in video.tracks] == [t.track_id for t in generated.tracks]
            and [t.length for t in video.tracks] == [t.length for t in generated.tracks],
            "reloaded track container differs from the saved one",
        )
        links = constraints.derive_cannot_links(video)
        train_set, train_links = video, links
        if w.window is not None:
            tracks = video.tracks
            first = sorted(range(len(tracks)), key=lambda i: (tracks[i].start_frame, i))
            idx = sorted(first[: w.window])
            train_set = trackio.TrackSet(
                tracks=tuple(tracks[i] for i in idx), dim=video.dim,
                video_id=f"{video.video_id}-window",
            )
            train_links = constraints.CannotLinkMatrix(
                bits=links.bits[np.ix_(idx, idx)],
                track_ids=tuple(tracks[i].track_id for i in idx),
            )
        config = enc.EncoderConfig(model_dim=video.dim, **ENCODER)
        # The parameters and centres every training call starts from.
        params = enc.init_params(config, np.random.default_rng(self.seed))
        if any(job.method == "vc" for job in w.jobs):
            centres = vcl.init_centres(params, train_set)
            _check(np.all(np.isfinite(centres.centres)), "non-finite initial centres")
        return State(video, train_set, train_links, config)

    def train_step(self, state: State, models: dict) -> tuple[float, int]:
        """Train every job once; each trained model replaces the job's entry
        in ``models`` (method -> (params, per-epoch losses)).

        Returns the wall time and the samples or pairs of the training calls
        that succeeded."""
        train_s, items = 0.0, 0
        for job in self.workload.jobs:
            with self._phase("bench.train"):
                trained = self._op(f"train {job.method}", lambda: self._train(state, job))
            if trained is not None:
                params, seconds, count, losses = trained
                models[job.method] = (params, losses)
                train_s += seconds
                items += count
        return train_s, items

    def eval_step(self, state: State, models: dict, quality: dict) -> tuple[float, int]:
        """Evaluate each model in ``models`` ``eval_repeats`` times; the last
        loss and clustering quality of each go to ``quality`` (method -> dict).

        Returns the wall time and the tracks of the evaluations that
        succeeded."""
        eval_s, tracks = 0.0, 0
        for job in self.workload.jobs:
            if job.method not in models:
                continue
            params, losses = models[job.method]
            for _ in range(self.workload.eval_repeats):
                with self._phase("bench.eval"):
                    evaluated = self._op(
                        f"eval {job.method}", lambda: self._evaluate(state, job, params)
                    )
                if evaluated is not None:
                    seconds, count, scores = evaluated
                    eval_s += seconds
                    tracks += count
                    quality[job.method] = dict(final_loss=losses[-1], **scores)
        return eval_s, tracks

    def iterate(self, state: State) -> None:
        """One training step, then one evaluation step of its models."""
        models: dict = {}
        self.train_step(state, models)
        self.eval_step(state, models, {})

    def _train(self, state: State, job: Job):
        cfg = train_config(job, self.seed)
        t0 = time.perf_counter()
        if job.method == "vc":
            params, _, history = vcl.train(
                state.train_set, state.train_links, state.encoder_config, cfg
            )
        elif job.method == "ct":
            params, history = baselines.train_pairwise(
                "transformer", state.train_set, state.train_links, cfg,
                encoder_config=state.encoder_config,
            )
        else:
            params, history = baselines.train_pairwise(
                "mlp", state.train_set, state.train_links, cfg,
                mlp_out_dim=state.encoder_config.head_out_dim,
            )
        train_s = time.perf_counter() - t0
        losses = [row["mean_loss"] for row in history]
        _check(len(losses) == job.epochs, f"{len(losses)} history rows for {job.epochs} epochs")
        _check(all(math.isfinite(x) for x in losses), "non-finite training loss")
        _check(losses[-1] < losses[0],
               f"last-epoch loss {losses[-1]!r} not below first-epoch loss {losses[0]!r}")
        reference = self.references.setdefault(("losses", job.method), losses)
        _check(losses == reference, "per-epoch losses differ from the first run of this seed")
        items = job.epochs * samples_per_epoch(job.method, state.train_links, cfg)
        return params, train_s, items, losses

    def _evaluate(self, state: State, job: Job, params):
        tracks = state.video.tracks
        k = self.workload.identities
        t0 = time.perf_counter()
        path = self.workdir / f"{job.method}.tcv1"
        if job.method == "tsiam":
            checkpoint.save_checkpoint(path, {"kind": "mlp", "config": None}, params.tensors)
            _, tensors = checkpoint.load_checkpoint(path)
            loaded = baselines.SiameseMlpParams(tensors=tensors)
            reps = np.stack([baselines.track_representation_mlp(loaded, t) for t in tracks])
        else:
            meta = {"kind": "encoder", "config": asdict(params.config)}
            checkpoint.save_checkpoint(path, meta, params.tensors)
            meta, tensors = checkpoint.load_checkpoint(path)
            loaded = enc.EncoderParams(config=enc.EncoderConfig(**meta["config"]), tensors=tensors)
            reps = enc.forward_eval_batch(loaded, [t.embeddings for t in tracks])
        known = clustereval.hac(reps, linkage="average", stop=clustereval.KnownK(k))
        threshold = THRESHOLD_FRACTION * float(np.median(pdist(reps)))
        cut = clustereval.hac(reps, linkage="average", stop=clustereval.Threshold(threshold))
        truth = np.array(state.video.labels())
        pred = known.as_array()
        quality = {
            "nmi": clustereval.nmi(pred, truth),
            "wcp": clustereval.wcp(pred, truth),
            "c_dif": clustereval.c_dif(cut.k, k),
            "sdbw": clustereval.sdbw(reps, pred),
        }
        eval_s = time.perf_counter() - t0

        _check(tensors.keys() == params.tensors.keys()
               and all(np.array_equal(tensors[n], params.tensors[n]) for n in tensors),
               "checkpoint round trip changed the parameters")
        _check(reps.shape[0] == len(tracks) and np.all(np.isfinite(reps)),
               "missing or non-finite track representations")
        _check(known.k == k and len(set(known.labels)) == k,
               f"KnownK({k}) gave {known.k} clusters")
        _check(1 <= cut.k <= len(tracks), f"threshold stop gave {cut.k} clusters")
        _check(0.0 <= quality["nmi"] <= 1.0, f"nmi {quality['nmi']} outside [0, 1]")
        _check(0.0 < quality["wcp"] <= 1.0, f"wcp {quality['wcp']} outside (0, 1]")
        _check(math.isfinite(quality["sdbw"]) and quality["sdbw"] >= 0.0,
               f"sdbw {quality['sdbw']} not a finite non-negative number")
        reference = self.references.setdefault(("quality", job.method), quality)
        _check(quality == reference, "clustering quality differs from the first evaluation")
        return eval_s, len(tracks), quality
