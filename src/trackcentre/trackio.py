"""Track data model, on-disk container and synthetic track generation.

A track container is a pair of files: ``<name>.manifest.json`` describing
the tracks and ``<name>.emb`` holding the raw frame embeddings as
little-endian float32, row-major frames x dim, no header.  A loaded
container keeps its frames as they are stored: one float32 (frames, dim)
array, of which each track's embeddings are a view.  Frames become float64
where arithmetic happens (the encoder's padded batch, temporal averages,
the MLP's inputs); widening float32 is exact, so results are those of
float64 frames bit for bit.
"""

from __future__ import annotations

import heapq
import json
import os
import warnings
from collections import deque
from contextlib import contextmanager
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
    embeddings: np.ndarray  # (n, d) float32 or float64, as given
    label: int | None = None
    # Frames flagged as distractors by the synthetic generator.  Diagnostic
    # only; never consulted by training code.
    distractor_frames: tuple[int, ...] = ()

    def __post_init__(self):
        emb = np.asarray(self.embeddings)
        if emb.dtype not in (np.float32, np.float64):
            emb = emb.astype(np.float64)
        emb = np.ascontiguousarray(emb)
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


@contextmanager
def _atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing, and move it onto
    ``path`` when the block exits cleanly; on an error it is removed.  So
    ``path`` holds its old or its new contents in full, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_trackset(trackset: TrackSet, path) -> None:
    """Write the manifest + embedding blob for ``trackset``, each file
    atomically; the blob is written one track at a time.

    Output bytes are a pure function of the trackset contents.
    """
    manifest_path, blob_path = _paths(path)
    entries = []
    offset = 0
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
        offset += t.length
    manifest = {
        "video_id": trackset.video_id,
        "dim": trackset.dim,
        "tracks": entries,
    }
    with _atomic_open(manifest_path, encoding="utf-8") as f:
        f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with _atomic_open(blob_path, "wb") as f:
        for t in trackset.tracks:
            f.write(t.embeddings.astype("<f4", copy=False))


_ENTRY_INTS = ("track_id", "start_frame", "end_frame", "offset", "count")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _entry_error(e, offset: int) -> str | None:
    """What is wrong with a manifest track entry whose rows should start
    at blob row ``offset``, or None."""
    if not isinstance(e, dict):
        return "not an object"
    for key in _ENTRY_INTS:
        if not _is_int(e.get(key)):
            return f"{key!r} must be an integer, got {e.get(key)!r}"
    if e["count"] < 1:
        return f"'count' must be >= 1, got {e['count']}"
    if e["offset"] != offset:
        return f"offset {e['offset']} is not {offset}, where the previous track ends"
    if "label" not in e or not (e["label"] is None or _is_int(e["label"])):
        return "'label' must be an integer or null"
    frames = e.get("distractor_frames", [])
    if not (isinstance(frames, list)
            and all(_is_int(f) and 0 <= f < e["count"] for f in frames)):
        return "'distractor_frames' must list frames of the track"
    return None


def load_trackset(path) -> TrackSet:
    """Load a track container written by :func:`save_trackset`.

    Every manifest entry must carry its integer fields, and the entries'
    offsets must run in order, without gaps or overlap, to the end of the
    blob.  Any violation raises :class:`TrackIOError` naming the manifest.
    The blob is read once into one float32 (frames, dim) array; each
    track's embeddings are a view of its rows.
    """
    manifest_path, blob_path = _paths(path)
    if not manifest_path.exists():
        raise TrackIOError(f"missing manifest file: {manifest_path}")
    if not blob_path.exists():
        raise TrackIOError(f"missing embedding blob: {blob_path}")

    def corrupt(what) -> TrackIOError:
        return TrackIOError(f"corrupt manifest {manifest_path}: {what}")

    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise corrupt(exc) from exc
    if not isinstance(manifest, dict):
        raise corrupt("not a JSON object")
    dim, video_id, entries = (manifest.get(k) for k in ("dim", "video_id", "tracks"))
    if not (_is_int(dim) and dim >= 1):
        raise corrupt(f"'dim' must be a positive integer, got {dim!r}")
    if not isinstance(video_id, str):
        raise corrupt(f"'video_id' must be a string, got {video_id!r}")
    if not isinstance(entries, list):
        raise corrupt(f"'tracks' must be a list, got {entries!r}")
    total = 0
    for i, e in enumerate(entries):
        error = _entry_error(e, total)
        if error is not None:
            raise corrupt(f"track entry {i}: {error}")
        total += e["count"]

    def mismatch(nbytes) -> TrackIOError:
        return TrackIOError(
            f"{manifest_path}: dimension mismatch: blob holds {nbytes} bytes, "
            f"manifest implies {total * dim} float32 values"
        )

    size = blob_path.stat().st_size
    if size != total * dim * 4:
        raise mismatch(size)
    if total == 0:
        raise TrackIOError(f"{manifest_path}: empty trackset")
    frames = np.fromfile(blob_path, dtype="<f4")
    if frames.size != total * dim:  # the blob changed since its size was read
        raise mismatch(frames.size * 4)
    frames = frames.reshape(total, dim)
    try:
        tracks = tuple(
            EmbeddingTrack(
                track_id=e["track_id"],
                start_frame=e["start_frame"],
                end_frame=e["end_frame"],
                label=e["label"],
                embeddings=frames[e["offset"] : e["offset"] + e["count"]],
                distractor_frames=tuple(e.get("distractor_frames", ())),
            )
            for e in entries
        )
        return TrackSet(tracks=tracks, dim=dim, video_id=video_id)
    except TrackIOError as exc:
        raise TrackIOError(f"{manifest_path}: {exc}") from exc


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
