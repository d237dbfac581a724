"""Track data model, container round-trips and the synthetic generator."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from trackcentre import (
    EmbeddingTrack,
    SyntheticSpec,
    TrackSet,
    derive_cannot_links,
    generate_synthetic,
    load_trackset,
    save_trackset,
)
from trackcentre.trackio import TrackIOError, _time_groups

from conftest import random_trackset


def test_track_invariants(rng):
    t = EmbeddingTrack(0, 5, 8, rng.standard_normal((4, 3)))
    assert t.length == 4
    assert t.dim == 3

    with pytest.raises(TrackIOError):
        EmbeddingTrack(0, 5, 4, rng.standard_normal((0, 3)))
    with pytest.raises(TrackIOError):
        EmbeddingTrack(0, 0, 1, rng.standard_normal((3, 3)))
    with pytest.raises(TrackIOError):
        EmbeddingTrack(-1, 0, 0, rng.standard_normal((1, 3)))
    bad = np.ones((2, 3))
    bad[1, 2] = np.nan
    with pytest.raises(TrackIOError):
        EmbeddingTrack(0, 0, 1, bad)


def test_trackset_invariants(rng):
    a = EmbeddingTrack(1, 0, 1, rng.standard_normal((2, 4)))
    b = EmbeddingTrack(1, 5, 6, rng.standard_normal((2, 4)))
    with pytest.raises(TrackIOError, match="duplicate track id"):
        TrackSet(tracks=(a, b), dim=4, video_id="v")
    with pytest.raises(TrackIOError, match="empty trackset"):
        TrackSet(tracks=(), dim=4, video_id="v")
    c = EmbeddingTrack(2, 0, 1, rng.standard_normal((2, 3)))
    with pytest.raises(TrackIOError, match="dimension mismatch"):
        TrackSet(tracks=(a, c), dim=4, video_id="v")


def test_roundtrip_two_tracks(tmp_path, rng):
    ts = random_trackset(rng, n_tracks=2)
    save_trackset(ts, tmp_path / "x")
    assert load_trackset(tmp_path / "x") == ts


def test_roundtrip_random(tmp_path):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ts = random_trackset(rng, n_tracks=int(rng.integers(1, 8)))
        save_trackset(ts, tmp_path / f"t{seed}")
        assert load_trackset(tmp_path / f"t{seed}") == ts


def test_roundtrip_preserves_labels_and_distractors(tmp_path, rng):
    t = EmbeddingTrack(
        3, 0, 2, rng.standard_normal((3, 4)), label=7, distractor_frames=(1,)
    )
    ts = TrackSet(tracks=(t,), dim=4, video_id="v")
    save_trackset(ts, tmp_path / "d")
    back = load_trackset(tmp_path / "d")
    assert back.tracks[0].label == 7
    assert back.tracks[0].distractor_frames == (1,)


def test_save_deterministic(tmp_path, rng):
    ts = random_trackset(rng)
    save_trackset(ts, tmp_path / "a")
    save_trackset(ts, tmp_path / "b")
    for suffix in (".manifest.json", ".emb"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (
            tmp_path / f"b{suffix}"
        ).read_bytes()


def test_load_dimension_mismatch(tmp_path, rng):
    ts = random_trackset(rng, n_tracks=1, dim=8, max_len=1)
    save_trackset(ts, tmp_path / "x")
    blob = (tmp_path / "x.emb").read_bytes()
    (tmp_path / "x.emb").write_bytes(blob[:-4])
    with pytest.raises(TrackIOError, match="dimension mismatch"):
        load_trackset(tmp_path / "x")


@pytest.mark.parametrize("cut", [1, -4, -1], ids=["short-byte", "long", "long-byte"])
def test_load_blob_of_wrong_size(tmp_path, rng, cut):
    """A blob shorter or longer than the manifest implies, by a value or by a
    byte, raises TrackIOError naming the manifest."""
    save_trackset(random_trackset(rng, n_tracks=3, dim=4), tmp_path / "x")
    blob = tmp_path / "x.emb"
    data = blob.read_bytes()
    blob.write_bytes(data[:-cut] if cut > 0 else data + bytes(-cut))
    with pytest.raises(TrackIOError, match="dimension mismatch") as info:
        load_trackset(tmp_path / "x")
    assert "x.manifest.json" in str(info.value)
    assert f"blob holds {len(data) - cut} bytes" in str(info.value)


@pytest.mark.parametrize("dim", [4, 2**70])
def test_load_container_without_tracks(tmp_path, dim):
    """A manifest listing no tracks, beside an empty blob, raises
    TrackIOError naming the manifest, whatever its dim."""
    (tmp_path / "x.manifest.json").write_text(
        json.dumps({"video_id": "v", "dim": dim, "tracks": []}))
    (tmp_path / "x.emb").write_bytes(b"")
    with pytest.raises(TrackIOError, match="x.manifest.json: empty trackset"):
        load_trackset(tmp_path / "x")


def test_loaded_tracks_are_float32_views_of_one_array(tmp_path, rng):
    """The blob is read into one float32 (frames, dim) array; each track's
    embeddings are its rows, in manifest order, not a copy."""
    ts = random_trackset(rng, n_tracks=5, dim=3)
    save_trackset(ts, tmp_path / "x")
    loaded = load_trackset(tmp_path / "x")
    frames = loaded.tracks[0].embeddings.base
    assert frames.dtype == np.float32
    assert frames.size == sum(t.length for t in ts.tracks) * 3
    offset = 0
    for t in loaded.tracks:
        assert t.embeddings.dtype == np.float32 and t.embeddings.base is frames
        assert np.shares_memory(t.embeddings, frames)
        assert np.array_equal(t.embeddings, frames.reshape(-1, 3)[offset : offset + t.length])
        offset += t.length


def test_resaving_a_loaded_container_is_byte_identical(tmp_path):
    """Float64 frames saved, loaded as float32 and saved again give both
    files byte for byte."""
    spec = SyntheticSpec(identity_count=3, tracks_per_identity=4, dim=6,
                         distractor_prob=0.2, seed=4)
    save_trackset(generate_synthetic(spec), tmp_path / "a")
    save_trackset(load_trackset(tmp_path / "a"), tmp_path / "b")
    for suffix in (".manifest.json", ".emb"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_track_keeps_float32_and_float64_and_widens_others(rng):
    x = rng.standard_normal((2, 3))
    for given_dtype, kept in ((np.float32, np.float32), (np.float64, np.float64),
                              (np.float16, np.float64), (np.int64, np.float64)):
        t = EmbeddingTrack(0, 0, 1, x.astype(given_dtype))
        assert t.embeddings.dtype == kept
    assert EmbeddingTrack(0, 0, 0, [[1, 2]]).embeddings.dtype == np.float64


def test_load_duplicate_id(tmp_path, rng):
    ts = random_trackset(rng, n_tracks=2, dim=2, max_len=2)
    save_trackset(ts, tmp_path / "x")
    manifest = (tmp_path / "x.manifest.json").read_text()
    manifest = manifest.replace('"track_id": 1', '"track_id": 0')
    (tmp_path / "x.manifest.json").write_text(manifest)
    with pytest.raises(TrackIOError, match="duplicate track id"):
        load_trackset(tmp_path / "x")


def test_load_missing_files(tmp_path):
    with pytest.raises(TrackIOError, match="missing"):
        load_trackset(tmp_path / "nothing")


def edit_manifest(path, edit):
    """Rewrite the manifest of container ``path`` through ``edit(dict)``."""
    mpath = Path(f"{path}.manifest.json")
    manifest = json.loads(mpath.read_text())
    edit(manifest)
    mpath.write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "edit, match",
    [
        (lambda m: m["tracks"][1].pop("count"), "'count' must be an integer"),
        (lambda m: m["tracks"][1].update(offset=10**6), "offset 1000000 is not"),
        (lambda m: m.update(tracks=5), "'tracks' must be a list"),
        (lambda m: m["tracks"][1].update(offset=0), "offset 0 is not"),
    ],
    ids=["missing-count", "offset-past-blob", "tracks-not-a-list", "shared-offset"],
)
def test_load_rejects_malformed_manifest(tmp_path, rng, edit, match):
    """Each probe raised KeyError, ValueError or TypeError, or (a shared
    offset) loaded silently, before the manifest was validated."""
    save_trackset(random_trackset(rng, n_tracks=3, dim=2), tmp_path / "x")
    edit_manifest(tmp_path / "x", edit)
    with pytest.raises(TrackIOError, match=match) as info:
        load_trackset(tmp_path / "x")
    assert "x.manifest.json" in str(info.value)


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False), st.text(max_size=3),
    st.lists(st.integers(-3, 10), max_size=3), st.dictionaries(st.text(max_size=2), st.none(), max_size=1),
)
ENTRY_KEYS = ["track_id", "start_frame", "end_frame", "label", "offset", "count",
              "distractor_frames"]


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(
        st.tuples(st.integers(-1, 3), st.sampled_from(["dim", "video_id", "tracks"] + ENTRY_KEYS),
                  st.one_of(st.just("drop"), JSON_VALUES)),
        max_size=3,
    ),
    cut=st.integers(0, 9),
)
def test_load_damaged_container_raises_only_trackio_error(edits, cut):
    """Dropped or retyped manifest fields and a truncated blob either load
    or raise TrackIOError, never another exception."""
    rng = np.random.default_rng(5)
    tracks = tuple(
        EmbeddingTrack(i, 3 * i, 3 * i + 2, rng.standard_normal((3, 2)).astype(np.float32),
                       label=i % 2, distractor_frames=(1,))
        for i in range(3)
    )
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c"
        save_trackset(TrackSet(tracks=tracks, dim=2, video_id="v"), path)

        def edit(manifest):
            entries = manifest["tracks"]
            for where, key, value in edits:
                target = manifest if where < 0 else entries[where % 3]
                if value == "drop":
                    target.pop(key, None)
                else:
                    target[key] = value

        edit_manifest(path, edit)
        blob = Path(f"{path}.emb")
        blob.write_bytes(blob.read_bytes()[: len(blob.read_bytes()) - cut])
        try:
            load_trackset(path)
        except TrackIOError as exc:
            assert "c.manifest.json" in str(exc)


class FailingFile:
    """Writes the first half of its first write, then fails."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[: len(data) // 2])
        raise OSError("No space left on device")


def write_container(path, seed):
    save_trackset(random_trackset(np.random.default_rng(seed), n_tracks=2), path)


def write_checkpoint(path, seed):
    from trackcentre.checkpoint import save_checkpoint

    save_checkpoint(path, {"seed": seed}, {"w": np.full(3, float(seed))})


def write_history(path, seed):
    from trackcentre.vcl import write_history_csv

    write_history_csv(path, [{"epoch": 1, "mean_loss": seed, "lr": 0.1, "sdbw": None}])


def write_metrics(path, seed):
    from trackcentre.cli import METRIC_COLUMNS, _write_metrics

    _write_metrics(path, [dict.fromkeys(METRIC_COLUMNS, seed)])


@pytest.mark.parametrize("writer", [write_container, write_checkpoint, write_history,
                                    write_metrics])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    """A write that fails part-way leaves the previous file whole and no
    temporary file behind."""
    writer(tmp_path / "out", 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_open = open
    monkeypatch.setattr("builtins.open", lambda *a, **k: FailingFile(real_open(*a, **k)))
    with pytest.raises(OSError, match="No space"):
        writer(tmp_path / "out", 2)
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    writer(tmp_path / "out", 2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} != before


def test_synthetic_single_identity():
    spec = SyntheticSpec(identity_count=1, tracks_per_identity=5, dim=4, seed=1)
    ts = generate_synthetic(spec)
    assert set(ts.labels()) == {0}


def test_synthetic_zero_noise():
    spec = SyntheticSpec(
        identity_count=3,
        tracks_per_identity=2,
        dim=6,
        noise_scale=0.0,
        distractor_prob=0.0,
        seed=2,
    )
    ts = generate_synthetic(spec)
    centroids = {}
    for t in ts.tracks:
        row0 = t.embeddings[0]
        assert np.linalg.norm(row0) == pytest.approx(1.0, abs=1e-12)
        assert np.all(t.embeddings == row0)
        centroids.setdefault(t.label, row0)
        assert np.array_equal(centroids[t.label], row0)
        assert np.max(np.abs(t.embeddings.mean(axis=0) - row0)) <= 1e-12


def test_synthetic_deterministic(tmp_path):
    spec = SyntheticSpec(seed=5)
    save_trackset(generate_synthetic(spec), tmp_path / "a")
    save_trackset(generate_synthetic(spec), tmp_path / "b")
    assert (tmp_path / "a.emb").read_bytes() == (tmp_path / "b.emb").read_bytes()
    assert (tmp_path / "a.manifest.json").read_bytes() == (
        tmp_path / "b.manifest.json"
    ).read_bytes()


def test_synthetic_overlap_never_shares_label():
    for seed in range(5):
        spec = SyntheticSpec(
            identity_count=4, tracks_per_identity=6, dim=4,
            cooccurrence_density=0.4, seed=seed,
        )
        ts = generate_synthetic(spec)
        for a in ts.tracks:
            for b in ts.tracks:
                if a.track_id >= b.track_id:
                    continue
                overlap = (
                    a.start_frame <= b.end_frame and b.start_frame <= a.end_frame
                )
                if overlap:
                    assert a.label != b.label


def test_synthetic_overlap_density_bounded_and_nonzero():
    # With K identities, overlapping tracks must carry distinct labels, so
    # at most (K - 1) / (M - 1) of the pairs can overlap (0.040 here, far
    # below the requested 0.3); the generator warns, produces that maximum
    # and never exceeds the request.
    spec = SyntheticSpec(
        identity_count=5, tracks_per_identity=20, dim=8,
        cooccurrence_density=0.3, seed=0,
    )
    with pytest.warns(UserWarning, match="unreachable"):
        ts = generate_synthetic(spec)
    m = len(ts)
    partners = {t.track_id: 0 for t in ts.tracks}
    count = 0
    for a in ts.tracks:
        for b in ts.tracks:
            if a.track_id < b.track_id and (
                a.start_frame <= b.end_frame and b.start_frame <= a.end_frame
            ):
                count += 1
                partners[a.track_id] += 1
                partners[b.track_id] += 1
    density = count / (m * (m - 1) / 2)
    assert 0.02 <= density <= 0.3
    # every track co-occurs with someone, so repel sampling covers all tracks
    assert all(v > 0 for v in partners.values())


def test_synthetic_unreachable_density_warns():
    """5 identities x 20 tracks allow at most 4/99 of the pairs to overlap:
    larger requests warn and all give that maximum, 200 pairs."""
    for density in (0.05, 0.3, 0.9):
        with pytest.warns(UserWarning, match="produced 0.0404"):
            ts = generate_synthetic(SyntheticSpec(cooccurrence_density=density, seed=5))
        assert derive_cannot_links(ts).bits.sum() // 2 == 200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = generate_synthetic(SyntheticSpec(cooccurrence_density=0.02, seed=5))
    assert 0 < derive_cannot_links(ts).bits.sum() // 2 <= 0.02 * 4950


def test_synthetic_distractors_recorded():
    spec = SyntheticSpec(
        identity_count=2, tracks_per_identity=3, dim=4,
        min_length=20, max_length=30,
        distractor_prob=0.3, distractor_scale=2.0, seed=3,
    )
    ts = generate_synthetic(spec)
    total = sum(len(t.distractor_frames) for t in ts.tracks)
    assert total > 0
    for t in ts.tracks:
        for f in t.distractor_frames:
            assert 0 <= f < t.length


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(identity_count=0)
    with pytest.raises(ValueError):
        SyntheticSpec(min_length=5, max_length=4)
    with pytest.raises(ValueError):
        SyntheticSpec(cooccurrence_density=1.5)


def rescanning_groups(labels, order, k, target_pairs):
    """Straight-line grouping oracle: each group rescans every pending track
    in order and takes it if its label is new to the group and the pair
    budget allows one more member."""
    groups, made_pairs, pending = [], 0.0, [int(i) for i in order]
    while pending:
        group, used, rest = [], set(), []
        for idx in pending:
            grown = len(group)
            lab = int(labels[idx])
            if lab not in used and made_pairs + grown <= target_pairs and grown < k:
                group.append(idx)
                used.add(lab)
                made_pairs += grown
            else:
                rest.append(idx)
        groups.append(group)
        pending = rest
    return groups, made_pairs


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 10),
    per_identity=st.integers(1, 15),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_time_groups_match_rescanning_oracle(k, per_identity, density, seed):
    """The heap grouping of generate_synthetic makes the groups, in order,
    and the pair count of the rescanning loop, at reachable and unreachable
    densities."""
    m = k * per_identity
    labels = np.repeat(np.arange(k), per_identity)
    order = np.random.default_rng(seed).permutation(m)
    target = density * m * (m - 1) / 2
    assert _time_groups(labels, order, k, target) == rescanning_groups(
        labels, order, k, target
    )
