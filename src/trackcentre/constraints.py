"""Must-link / cannot-link supervision derived from track metadata.

Cannot-links come from temporal co-occurrence: two tracks whose frame
spans intersect must belong to different people.  Must-links are implicit
in track membership: any two frames of one track share an identity.
``sample_pairs`` draws both kinds as one integer array of frame pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .trackio import TrackSet


class ConstraintError(Exception):
    pass


@dataclass(frozen=True)
class CannotLinkMatrix:
    """Symmetric binary co-occurrence matrix over the tracks of one video."""

    bits: np.ndarray  # (M, M) uint8
    track_ids: tuple[int, ...]

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=np.uint8)
        object.__setattr__(self, "bits", b)
        m = len(self.track_ids)
        if b.shape != (m, m):
            raise ConstraintError(f"bits shape {b.shape} != ({m}, {m})")
        if not np.array_equal(b, b.T):
            raise ConstraintError("cannot-link matrix must be symmetric")
        if np.any(np.diag(b)):
            raise ConstraintError("cannot-link matrix must have zero diagonal")

    @property
    def size(self) -> int:
        return len(self.track_ids)

    def partners(self, index: int) -> np.ndarray:
        """Indices (not track ids) of tracks cannot-linked with ``index``."""
        return np.flatnonzero(self.bits[index])

    def any_links(self) -> bool:
        return bool(self.bits.any())


def derive_cannot_links(trackset: TrackSet) -> CannotLinkMatrix:
    """bits[a][b] = 1 iff the frame spans of tracks a and b intersect."""
    tracks = trackset.tracks
    starts = np.array([t.start_frame for t in tracks])
    ends = np.array([t.end_frame for t in tracks])
    overlap = (starts[:, None] <= ends[None, :]) & (starts[None, :] <= ends[:, None])
    np.fill_diagonal(overlap, False)
    return CannotLinkMatrix(
        bits=overlap.astype(np.uint8),
        track_ids=tuple(t.track_id for t in tracks),
    )


def sample_pairs(
    trackset: TrackSet,
    n_matrix: CannotLinkMatrix,
    rng: np.random.Generator,
    count_pos: int,
    count_neg: int,
) -> np.ndarray:
    """Sample labeled frame pairs for pairwise contrastive training.

    Returns an int64 array of shape (count_pos + count_neg, 5), one row
    ``(track_a, frame_a, track_b, frame_b, y)`` per pair: tracks are
    positions in ``trackset.tracks``, frames are 0-based, y=1 marks a
    must-link (positives first), y=0 a cannot-link.  Positives are uniform
    over all within-track unordered pairs of distinct frames; negatives are
    uniform over all frame pairs of cannot-linked tracks.
    """
    lengths = np.array([t.length for t in trackset.tracks], dtype=np.int64)
    parts = [np.empty((0, 5), dtype=np.int64)]

    if count_pos > 0:
        weights = lengths * (lengths - 1) / 2
        total = weights.sum()
        if total == 0:
            raise ConstraintError("no must-link pairs available: all tracks length 1")
        t = rng.choice(len(lengths), size=count_pos, p=weights / total)
        fa = rng.integers(lengths[t])
        fb = rng.integers(lengths[t] - 1)
        fb += fb >= fa
        parts.append(np.stack([t, fa, t, fb, np.ones_like(t)], axis=1))

    if count_neg > 0:
        a_idx, b_idx = np.nonzero(np.triu(n_matrix.bits, k=1))
        if len(a_idx) == 0:
            raise ConstraintError("no cannot-links available")
        weights = (lengths[a_idx] * lengths[b_idx]).astype(np.float64)
        chosen = rng.choice(len(a_idx), size=count_neg, p=weights / weights.sum())
        ta, tb = a_idx[chosen], b_idx[chosen]
        fa = rng.integers(lengths[ta])
        fb = rng.integers(lengths[tb])
        parts.append(np.stack([ta, fa, tb, fb, np.zeros_like(ta)], axis=1))

    return np.concatenate(parts)
