"""Track data model, on-disk container and synthetic track generation.

A track container is a pair of files: ``<name>.manifest.json`` describing
the tracks and ``<name>.emb`` holding the raw frame embeddings as
little-endian float32, row-major frames x dim, no header.  Embeddings are
widened to float64 on load; all in-memory computation is done in float64.
"""

from __future__ import annotations

import heapq
import json
import warnings
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class TrackIOError(Exception):
    """Raised for malformed or inconsistent track containers."""


@dataclass(frozen=True)
class EmbeddingTrack:
    """One face track: an ordered sequence of per-frame embedding vectors."""

    track_id: int
    start_frame: int
    end_frame: int
    embeddings: np.ndarray  # (n, d) float64
    label: int | None = None
    # Frames flagged as distractors by the synthetic generator.  Diagnostic
    # only; never consulted by training code.
    distractor_frames: tuple[int, ...] = ()

    def __post_init__(self):
        emb = np.ascontiguousarray(np.asarray(self.embeddings, dtype=np.float64))
        object.__setattr__(self, "embeddings", emb)
        if self.track_id < 0:
            raise TrackIOError(f"track_id must be non-negative, got {self.track_id}")
        n = self.end_frame - self.start_frame + 1
        if n < 1:
            raise TrackIOError(
                f"track {self.track_id}: empty frame span "
                f"[{self.start_frame}, {self.end_frame}]"
            )
        if emb.ndim != 2 or emb.shape[0] != n:
            raise TrackIOError(
                f"track {self.track_id}: expected {n} embedding rows, "
                f"got shape {emb.shape}"
            )
        if emb.shape[1] < 1:
            raise TrackIOError(f"track {self.track_id}: embedding dim must be >= 1")
        if not np.all(np.isfinite(emb)):
            raise TrackIOError(f"track {self.track_id}: non-finite embedding values")

    @property
    def length(self) -> int:
        return self.end_frame - self.start_frame + 1

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def __eq__(self, other):
        if not isinstance(other, EmbeddingTrack):
            return NotImplemented
        return (
            self.track_id == other.track_id
            and self.start_frame == other.start_frame
            and self.end_frame == other.end_frame
            and self.label == other.label
            and self.distractor_frames == other.distractor_frames
            and self.embeddings.shape == other.embeddings.shape
            and np.array_equal(self.embeddings, other.embeddings)
        )


@dataclass(frozen=True)
class TrackSet:
    """All tracks of one video, sharing a common embedding dimension."""

    tracks: tuple[EmbeddingTrack, ...]
    dim: int
    video_id: str

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(self.tracks))
        if len(self.tracks) < 1:
            raise TrackIOError("empty trackset")
        ids = [t.track_id for t in self.tracks]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise TrackIOError(f"duplicate track id {dup[0]}")
        for t in self.tracks:
            if t.dim != self.dim:
                raise TrackIOError(
                    f"dimension mismatch: track {t.track_id} has dim {t.dim}, "
                    f"trackset declares {self.dim}"
                )

    def __len__(self) -> int:
        return len(self.tracks)

    def labels(self) -> list[int | None]:
        return [t.label for t in self.tracks]


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic track generator."""

    identity_count: int = 5
    tracks_per_identity: int = 20
    dim: int = 32
    min_length: int = 5
    max_length: int = 40
    noise_scale: float = 0.1
    distractor_prob: float = 0.0
    distractor_scale: float = 0.5
    cooccurrence_density: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.identity_count < 1:
            raise ValueError("identity_count must be >= 1")
        if self.tracks_per_identity < 1:
            raise ValueError("tracks_per_identity must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not (1 <= self.min_length <= self.max_length):
            raise ValueError("need 1 <= min_length <= max_length")
        if self.noise_scale < 0 or self.distractor_scale < 0:
            raise ValueError("noise scales must be >= 0")
        if not (0.0 <= self.distractor_prob <= 1.0):
            raise ValueError("distractor_prob must be in [0, 1]")
        if not (0.0 <= self.cooccurrence_density <= 1.0):
            raise ValueError("cooccurrence_density must be in [0, 1]")


def _paths(path) -> tuple[Path, Path]:
    base = Path(path)
    return base.with_suffix(base.suffix + ".manifest.json"), base.with_suffix(
        base.suffix + ".emb"
    )


def save_trackset(trackset: TrackSet, path) -> None:
    """Write the manifest + embedding blob for ``trackset``.

    Output bytes are a pure function of the trackset contents.
    """
    manifest_path, blob_path = _paths(path)
    entries = []
    offset = 0
    blobs = []
    for t in trackset.tracks:
        entry = {
            "track_id": t.track_id,
            "start_frame": t.start_frame,
            "end_frame": t.end_frame,
            "label": t.label,
            "offset": offset,
            "count": t.length,
        }
        if t.distractor_frames:
            entry["distractor_frames"] = list(t.distractor_frames)
        entries.append(entry)
        blobs.append(t.embeddings.astype("<f4").tobytes())
        offset += t.length
    manifest = {
        "video_id": trackset.video_id,
        "dim": trackset.dim,
        "tracks": entries,
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    blob_path.write_bytes(b"".join(blobs))


def load_trackset(path) -> TrackSet:
    """Load a track container written by :func:`save_trackset`."""
    manifest_path, blob_path = _paths(path)
    if not manifest_path.exists():
        raise TrackIOError(f"missing manifest file: {manifest_path}")
    if not blob_path.exists():
        raise TrackIOError(f"missing embedding blob: {blob_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise TrackIOError(f"corrupt manifest {manifest_path}: {exc}") from exc
    try:
        dim = int(manifest["dim"])
        video_id = str(manifest["video_id"])
        entries = manifest["tracks"]
    except (KeyError, TypeError) as exc:
        raise TrackIOError(f"corrupt manifest {manifest_path}: {exc}") from exc

    raw = np.frombuffer(blob_path.read_bytes(), dtype="<f4")
    total = sum(int(e["count"]) for e in entries)
    if raw.size != total * dim:
        raise TrackIOError(
            f"dimension mismatch: blob holds {raw.size} values, "
            f"manifest implies {total * dim}"
        )
    tracks = []
    for e in entries:
        off, cnt = int(e["offset"]), int(e["count"])
        emb = raw[off * dim : (off + cnt) * dim].astype(np.float64).reshape(cnt, dim)
        tracks.append(
            EmbeddingTrack(
                track_id=int(e["track_id"]),
                start_frame=int(e["start_frame"]),
                end_frame=int(e["end_frame"]),
                label=None if e["label"] is None else int(e["label"]),
                embeddings=emb,
                distractor_frames=tuple(e.get("distractor_frames", ())),
            )
        )
    return TrackSet(tracks=tuple(tracks), dim=dim, video_id=video_id)


def _time_groups(labels: np.ndarray, order: np.ndarray, k: int, target_pairs: float):
    """Split tracks into groups whose members overlap pairwise and that are
    disjoint in time; returns (groups, overlapping pairs made).

    Each group takes the earliest pending track of each label in ``order``,
    earliest first, while the pairs it adds (a group of n makes n(n-1)/2)
    stay within ``target_pairs``; its first track always fits.  A heap
    holds each label's earliest pending position, so the work is
    O(M log k) for M tracks of k labels.
    """
    label_at = labels[order]
    queues = [deque(np.flatnonzero(label_at == lab).tolist()) for lab in range(k)]
    heads = [(q[0], lab) for lab, q in enumerate(queues) if q]
    heapq.heapify(heads)
    groups: list[list[int]] = []
    made_pairs = 0.0
    while heads:
        taken = []
        while heads and made_pairs + len(taken) <= target_pairs:
            made_pairs += len(taken)
            taken.append(heapq.heappop(heads)[1])
        groups.append([int(order[queues[lab].popleft()]) for lab in taken])
        for lab in taken:
            if queues[lab]:
                heapq.heappush(heads, (queues[lab][0], lab))
    return groups, made_pairs


def generate_synthetic(spec: SyntheticSpec) -> TrackSet:
    """Generate a labeled synthetic trackset.

    Each identity gets a unit-norm centroid; frames are the centroid plus
    isotropic Gaussian noise (a larger distractor scale with probability
    ``distractor_prob``).  Tracks are laid out in time groups of distinct
    labels, so only tracks with different labels ever overlap, and as many
    track pairs overlap in span as ``cooccurrence_density`` asks, up to the
    (identity_count - 1) / (M - 1) of all pairs that groups of at most
    identity_count tracks allow.  A larger request warns and gets that
    maximum.
    """
    rng = np.random.default_rng(spec.seed)
    k, d = spec.identity_count, spec.dim
    centroids = rng.standard_normal((k, d))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)

    m = k * spec.tracks_per_identity
    labels = np.repeat(np.arange(k), spec.tracks_per_identity)
    order = rng.permutation(m)

    target_pairs = spec.cooccurrence_density * m * (m - 1) / 2
    groups, made_pairs = _time_groups(labels, order, k, target_pairs)
    if m > 1 and spec.cooccurrence_density > (k - 1) / (m - 1):
        warnings.warn(
            f"cooccurrence_density {spec.cooccurrence_density} is unreachable with "
            f"{k} identities and {m} tracks; produced "
            f"{made_pairs / (m * (m - 1) / 2):.4f}",
            UserWarning,
        )

    lengths = rng.integers(spec.min_length, spec.max_length + 1, size=m)
    tracks = []
    cursor = 0
    for group in groups:
        group_end = cursor
        for idx in group:
            n = int(lengths[idx])
            start = cursor
            end = start + n - 1
            group_end = max(group_end, end)
            noise = rng.standard_normal((n, d)) * spec.noise_scale
            distractors: tuple[int, ...] = ()
            if spec.distractor_prob > 0:
                mask = rng.random(n) < spec.distractor_prob
                if mask.any():
                    noise[mask] = (
                        rng.standard_normal((int(mask.sum()), d))
                        * spec.distractor_scale
                    )
                    distractors = tuple(int(i) for i in np.flatnonzero(mask))
            emb = centroids[labels[idx]] + noise
            tracks.append(
                EmbeddingTrack(
                    track_id=int(idx),
                    start_frame=start,
                    end_frame=end,
                    label=int(labels[idx]),
                    embeddings=emb,
                    distractor_frames=distractors,
                )
            )
        cursor = group_end + 1
    tracks.sort(key=lambda t: t.track_id)
    return TrackSet(tracks=tuple(tracks), dim=d, video_id=f"synthetic-{spec.seed}")
