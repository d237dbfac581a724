"""End-to-end CLI behaviour at desk scale."""

import csv
import json

import numpy as np
import pytest

from trackcentre.cli import main
from trackcentre.trackio import generate_synthetic, save_trackset, SyntheticSpec


@pytest.fixture
def tracks_path(tmp_path):
    """A small labeled synthetic container on disk."""
    spec = SyntheticSpec(
        identity_count=2, tracks_per_identity=3, dim=8,
        min_length=3, max_length=6, noise_scale=0.05,
        cooccurrence_density=0.5, seed=7,
    )
    path = tmp_path / "toy"
    save_trackset(generate_synthetic(spec), path)
    return path


def run(argv):
    return main([str(a) for a in argv])


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def train_args(tracks, out, method="vc", epochs=6, extra=()):
    return [
        "train", "--tracks", tracks, "--method", method, "--out", out,
        "--epochs", epochs, "--warmup-epochs", max(1, epochs // 2),
        "--batch-size", 64, "--layers", 1, "--heads", 2, "--seed", 0,
        *extra,
    ]


def test_synth_roundtrip(tmp_path):
    out = tmp_path / "s"
    assert run(["synth", "--out", out, "--k", 2, "--tracks-per-identity", 2,
                "--dim", 4, "--seed", 3]) == 0
    assert (tmp_path / "s.manifest.json").exists()
    assert (tmp_path / "s.emb").exists()


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["synth", "--out", out, "--k", 2, "--dim", 4,
                    "--tracks-per-identity", 2, "--seed", 5]) == 0
    assert a.with_suffix(".emb").read_bytes() == b.with_suffix(".emb").read_bytes()


def test_synth_single_identity(tmp_path):
    out = tmp_path / "one"
    assert run(["synth", "--out", out, "--k", 1, "--tracks-per-identity", 3,
                "--dim", 4, "--seed", 0]) == 0
    from trackcentre import load_trackset

    assert set(load_trackset(out).labels()) == {0}


def test_train_avg_rejected(tracks_path, tmp_path, capsys):
    assert run(train_args(tracks_path, tmp_path / "o", method="avg")) == 1
    assert "avg requires no training" in capsys.readouterr().err


def test_train_eval_pipeline(tracks_path, tmp_path):
    out = tmp_path / "run"
    assert run(train_args(tracks_path, out, epochs=8)) == 0
    assert (out / "checkpoint.tcv1").exists()
    assert (out / "history.csv").exists()
    assert (out / "run_manifest.json").exists()

    metrics = tmp_path / "metrics.csv"
    assert run(["eval", "--tracks", tracks_path, "--checkpoint",
                out / "checkpoint.tcv1", "--method", "vc",
                "--known-k", 2, "--out", metrics]) == 0
    rows = read_csv(metrics)
    assert len(rows) == 1
    row = rows[0]
    assert list(row.keys()) == [
        "video_id", "method", "k_pred", "k_true", "nmi", "wcp", "c_dif", "sdbw"
    ]
    assert row["k_pred"] == "2"
    assert 0.0 <= float(row["nmi"]) <= 1.0
    assert 0.0 < float(row["wcp"]) <= 1.0


def test_train_manifest_reproduction(tracks_path, tmp_path):
    out1 = tmp_path / "r1"
    assert run(train_args(tracks_path, out1, epochs=5)) == 0
    manifest = json.loads((out1 / "run_manifest.json").read_text())
    manifest["out_dir"] = str(tmp_path / "r2")
    mpath = tmp_path / "repro.json"
    mpath.write_text(json.dumps(manifest))
    assert run(["train", "--manifest", mpath]) == 0
    assert (out1 / "checkpoint.tcv1").read_bytes() == (
        tmp_path / "r2" / "checkpoint.tcv1"
    ).read_bytes()
    assert (out1 / "history.csv").read_bytes() == (
        tmp_path / "r2" / "history.csv"
    ).read_bytes()


@pytest.mark.parametrize("key", ["method", "tracks", "train_config", "encoder_config",
                                 "out_dir"])
def test_train_manifest_missing_or_bad_key(tracks_path, tmp_path, capsys, key):
    """A run manifest without a key, or with one of the wrong type, is
    reported with the file and the key instead of a bare KeyError."""
    out = tmp_path / "r1"
    assert run(train_args(tracks_path, out, epochs=2)) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    for bad in ({k: v for k, v in manifest.items() if k != key}, {**manifest, key: 5}):
        mpath = tmp_path / "bad.json"
        mpath.write_text(json.dumps(bad))
        capsys.readouterr()
        assert run(["train", "--manifest", mpath]) == 1
        err = capsys.readouterr().err
        assert "bad.json" in err and repr(key) in err, err


def test_eval_avg_needs_no_checkpoint(tracks_path, tmp_path):
    metrics = tmp_path / "m.csv"
    assert run(["eval", "--tracks", tracks_path, "--method", "avg",
                "--known-k", 2, "--out", metrics]) == 0
    assert float(read_csv(metrics)[0]["nmi"]) >= 0.0


def test_eval_stop_flag_validation(tracks_path, tmp_path, capsys):
    base = ["eval", "--tracks", tracks_path, "--method", "avg",
            "--out", tmp_path / "m.csv"]
    assert run(base) == 1
    assert run(base + ["--known-k", 0]) == 1
    assert run(base + ["--known-k", 2, "--threshold", 0.5]) == 1


def test_eval_threshold_unlabeled(tmp_path, rng):
    from trackcentre import EmbeddingTrack, TrackSet

    tracks = tuple(
        EmbeddingTrack(i, 10 * i, 10 * i + 2,
                       rng.standard_normal((3, 4)).astype(np.float32))
        for i in range(4)
    )
    path = tmp_path / "unlabeled"
    save_trackset(TrackSet(tracks=tracks, dim=4, video_id="u"), path)
    metrics = tmp_path / "m.csv"
    assert run(["eval", "--tracks", path, "--method", "avg",
                "--threshold", 1.0, "--out", metrics]) == 0
    row = read_csv(metrics)[0]
    assert row["k_pred"] != ""
    assert row["nmi"] == "" and row["wcp"] == "" and row["c_dif"] == ""


def test_attn_schema(tracks_path, tmp_path):
    out = tmp_path / "run"
    assert run(train_args(tracks_path, out, epochs=3)) == 0
    attn = tmp_path / "attn.csv"
    assert run(["attn", "--tracks", tracks_path, "--checkpoint",
                out / "checkpoint.tcv1", "--out", attn]) == 0
    rows = read_csv(attn)
    assert list(rows[0].keys()) == [
        "track_id", "frame", "score", "sigma", "is_distractor"
    ]
    from trackcentre import load_trackset

    ts = load_trackset(tracks_path)
    assert len(rows) == sum(t.length for t in ts.tracks)
    by_track = {}
    for r in rows:
        by_track.setdefault(r["track_id"], []).append(float(r["score"]))
    for scores in by_track.values():
        assert np.linalg.norm(scores) == pytest.approx(1.0, abs=1e-9)


def test_compare_report(tracks_path, tmp_path):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--tracks", tracks_path, "--out", out,
                "--epochs", 4, "--warmup-epochs", 2, "--batch-size", 64,
                "--layers", 1, "--heads", 2, "--seed", 0]) == 0
    rows = read_csv(out)
    assert [r["method"] for r in rows] == ["avg", "tsiam", "ct", "vc"]
    assert len({r["k_true"] for r in rows}) == 1


def test_tsiam_train_and_eval(tracks_path, tmp_path):
    out = tmp_path / "mlp"
    assert run(train_args(tracks_path, out, method="tsiam", epochs=4)) == 0
    metrics = tmp_path / "m.csv"
    assert run(["eval", "--tracks", tracks_path, "--checkpoint",
                out / "checkpoint.tcv1", "--method", "tsiam",
                "--known-k", 2, "--out", metrics]) == 0
    assert read_csv(metrics)[0]["method"] == "tsiam"


def test_eval_rejects_method_of_another_checkpoint_kind(tracks_path, tmp_path, capsys):
    """A checkpoint is evaluated only under a method of its own kind: tsiam
    needs an mlp checkpoint, vc and ct an encoder checkpoint."""
    mlp, encoder = tmp_path / "mlp", tmp_path / "vc"
    assert run(train_args(tracks_path, mlp, method="tsiam", epochs=2)) == 0
    assert run(train_args(tracks_path, encoder, method="vc", epochs=2)) == 0
    capsys.readouterr()
    metrics = tmp_path / "m.csv"
    cases = [
        (mlp, [], "method vc needs an encoder checkpoint, got an mlp checkpoint"),
        (mlp, ["--method", "ct"], "method ct needs an encoder checkpoint"),
        (encoder, ["--method", "tsiam"], "method tsiam needs an mlp checkpoint"),
    ]
    for model, method, message in cases:
        assert run(["eval", "--tracks", tracks_path, "--checkpoint",
                    model / "checkpoint.tcv1", *method,
                    "--known-k", 2, "--out", metrics]) == 1
        assert message in capsys.readouterr().err
    assert not metrics.exists()
    assert run(["eval", "--tracks", tracks_path, "--checkpoint",
                encoder / "checkpoint.tcv1", "--method", "ct",
                "--known-k", 2, "--out", metrics]) == 0
    assert read_csv(metrics)[0]["method"] == "ct"


def test_eval_rejects_checkpoint_of_another_layout(tracks_path, tmp_path, capsys):
    """An encoder checkpoint in the split q/k/v layout written before the
    fused ``attn.wqkv``/``attn.bqkv`` tensors, or one of an unknown kind,
    makes eval exit 1 with a message naming the file."""
    from trackcentre.checkpoint import load_checkpoint, save_checkpoint

    model = tmp_path / "vc"
    assert run(train_args(tracks_path, model, epochs=2)) == 0
    meta, tensors = load_checkpoint(model / "checkpoint.tcv1")
    split = {}
    for name, tensor in tensors.items():
        if name.endswith(("attn.wqkv", "attn.bqkv")):
            prefix, kind = name[:-4], name[-4]  # "layers.0.attn.", "w" or "b"
            for part, block in zip("qkv", np.split(tensor, 3, axis=-1)):
                split[f"{prefix}{kind}{part}"] = block
        else:
            split[name] = tensor
    old, unknown = tmp_path / "old.tcv1", tmp_path / "unknown.tcv1"
    save_checkpoint(old, meta, split)
    save_checkpoint(unknown, {"kind": "cnn", "config": None}, tensors)
    capsys.readouterr()
    metrics = tmp_path / "m.csv"
    cases = [
        (old, "tensor 'layers.0.attn.bk' is (8,); an encoder of this config needs no such tensor"),
        (unknown, "unknown model kind 'cnn'"),
    ]
    for path, message in cases:
        assert run(["eval", "--tracks", tracks_path, "--checkpoint", path,
                    "--known-k", 2, "--out", metrics]) == 1
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err
    assert not metrics.exists()


def test_eval_rejects_malformed_mlp_checkpoint(tracks_path, tmp_path, capsys):
    """An mlp checkpoint must hold exactly w1 (d, h), b1 (h,), w2 (h, z) and
    b2 (z,); otherwise eval exits 1 with a message that starts with the
    file's path and names the tensor."""
    from trackcentre.checkpoint import load_checkpoint, save_checkpoint

    model = tmp_path / "mlp"
    assert run(train_args(tracks_path, model, method="tsiam", epochs=2)) == 0
    meta, tensors = load_checkpoint(model / "checkpoint.tcv1")
    d, h = tensors["w1"].shape
    z = tensors["w2"].shape[1]
    cases = [
        ({"b1": np.zeros(h)}, "tensor 'b2' is missing; an mlp needs (z,)"),
        ({**tensors, "w1": np.zeros(d)}, f"tensor 'w1' is ({d},); an mlp needs (d, h)"),
        ({**tensors, "b1": np.zeros(h + 1)},
         f"tensor 'b1' is ({h + 1},); an mlp needs ({h},)"),
        ({**tensors, "w2": np.zeros((h + 1, z))},
         f"tensor 'w2' is ({h + 1}, {z}); an mlp needs ({h}, {z})"),
        ({**tensors, "b2": np.zeros(z + 1)},
         f"tensor 'b2' is ({z + 1},); an mlp needs ({z},)"),
        ({**tensors, "w3": np.zeros(z)}, f"tensor 'w3' is ({z},); an mlp needs no such tensor"),
    ]
    capsys.readouterr()
    metrics = tmp_path / "m.csv"
    for i, (bad, message) in enumerate(cases):
        path = tmp_path / f"bad{i}.tcv1"
        save_checkpoint(path, meta, bad)
        assert run(["eval", "--tracks", tracks_path, "--checkpoint", path,
                    "--method", "tsiam", "--known-k", 2, "--out", metrics]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: {message}" in err, err
    assert not metrics.exists()


def test_eval_and_attn_reject_checkpoint_of_another_dim(tracks_path, tmp_path, capsys):
    """eval and attn exit 1, writing nothing, when the checkpoint's input dim
    differs from the tracks' dim; attn also rejects an mlp checkpoint."""
    other = tmp_path / "dim4"
    save_trackset(generate_synthetic(SyntheticSpec(
        identity_count=2, tracks_per_identity=2, dim=4, seed=1)), other)
    mlp, encoder = tmp_path / "mlp", tmp_path / "vc"
    assert run(train_args(tracks_path, mlp, method="tsiam", epochs=2)) == 0
    assert run(train_args(tracks_path, encoder, method="vc", epochs=2)) == 0
    capsys.readouterr()
    out = tmp_path / "out.csv"
    cases = [
        (["eval", "--method", "vc", "--known-k", 2], encoder, other,
         "checkpoint dim 8 != tracks dim 4"),
        (["eval", "--method", "tsiam", "--known-k", 2], mlp, other,
         "checkpoint dim 8 != tracks dim 4"),
        (["attn"], encoder, other, "checkpoint dim 8 != tracks dim 4"),
        (["attn"], mlp, tracks_path,
         "attn needs an encoder checkpoint, got an mlp checkpoint"),
    ]
    for command, model, tracks, message in cases:
        assert run([*command, "--tracks", tracks, "--checkpoint",
                    model / "checkpoint.tcv1", "--out", out]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("missing", [["--tracks"], ["--out"], ["--tracks", "--out"]])
def test_train_names_missing_flags(tracks_path, tmp_path, capsys, missing):
    out = tmp_path / "o"
    argv = train_args(tracks_path, out, epochs=2)
    for flag in missing:
        i = argv.index(flag)
        del argv[i:i + 2]
    assert run(argv) == 1
    assert (f"error: train needs {' and '.join(missing)} unless --manifest is given"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("method, message", [("avg", "avg requires no training"),
                                             ("foo", "unknown method 'foo'")])
def test_train_manifest_of_untrainable_method_writes_nothing(tracks_path, tmp_path,
                                                             capsys, method, message):
    model = tmp_path / "vc"
    assert run(train_args(tracks_path, model, epochs=2)) == 0
    manifest = json.loads((model / "run_manifest.json").read_text())
    out = tmp_path / "repro"
    mpath = tmp_path / "repro.json"
    mpath.write_text(json.dumps({**manifest, "method": method, "out_dir": str(out)}))
    capsys.readouterr()
    assert run(["train", "--manifest", mpath]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["ct", "tsiam"])
def test_pairwise_methods_reject_best_sdbw(tracks_path, tmp_path, capsys, method):
    """best_sdbw keeps vc's best epoch; ct and tsiam have no such policy and
    fail, before writing anything, instead of training under a policy their
    manifest would misreport."""
    out = tmp_path / method
    assert run(train_args(tracks_path, out, method=method, epochs=2,
                          extra=["--checkpoint-policy", "best_sdbw"])) == 1
    assert "checkpoint policy 'best_sdbw' is for vc only" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("labels, message", [
    ((None, None, None), "best_sdbw checkpoint policy requires labeled tracks"),
    ((1, 1, 1), "best_sdbw checkpoint policy needs >= 2 identities"),
], ids=["unlabeled", "one-identity"])
def test_vc_best_sdbw_without_identities_writes_nothing(tmp_path, rng, capsys,
                                                        labels, message):
    """vc's best_sdbw policy clusters into the tracks' identities: without
    labels, or with one identity, train exits 1 before writing anything."""
    from trackcentre import EmbeddingTrack, TrackSet

    tracks = tuple(
        EmbeddingTrack(i, 4 * i, 4 * i + 2, rng.standard_normal((3, 4)), label=label)
        for i, label in enumerate(labels)
    )
    path = tmp_path / "tracks"
    save_trackset(TrackSet(tracks=tracks, dim=4, video_id="v"), path)
    out = tmp_path / "vc"
    assert run(train_args(path, out, epochs=2,
                          extra=["--checkpoint-policy", "best_sdbw"])) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_compare_rejects_best_sdbw(tracks_path, tmp_path, capsys):
    out = tmp_path / "cmp.csv"
    assert run(["compare", "--tracks", tracks_path, "--out", out, "--epochs", 2,
                "--batch-size", 64, "--layers", 1, "--heads", 2,
                "--checkpoint-policy", "best_sdbw"]) == 1
    assert "checkpoint policy 'best_sdbw' is for vc only" in capsys.readouterr().err
    assert not out.exists()
