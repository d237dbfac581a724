"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The end-to-end fixture (criteria 7, 8, 11) is trained once per seed in a
session fixture and shared between the criteria that consume it.
"""

import math
import time

import numpy as np
import pytest

from trackcentre import (
    EncoderConfig,
    KnownK,
    SyntheticSpec,
    Threshold,
    TrainConfig,
    attention_profile,
    backward,
    derive_cannot_links,
    forward_eval,
    forward_train,
    generate_synthetic,
    grad_z,
    hac,
    init_params,
    nmi,
    sdbw,
    temporal_average,
    train,
    vc_loss,
    wcp,
)
from trackcentre.encoder import forward_eval_batch, head_forward

from conftest import random_trackset
from test_clustereval import oracle_nmi, oracle_wcp, random_partition_pair
from test_constraints import brute_force_cannot_links


def _announce(capsys, number, desc, passed):
    with capsys.disabled():
        print(f"\nacceptance criterion {number:2d} "
              f"[{'PASS' if passed else 'FAIL'}] {desc}")


class _Criterion:
    def __init__(self, capsys, number, desc):
        self.capsys = capsys
        self.number = number
        self.desc = desc

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _announce(self.capsys, self.number, self.desc, exc_type is None)
        return False


FIXTURE_SEEDS = (0, 1, 2)


def _fixture_spec(seed):
    return SyntheticSpec(
        identity_count=5,
        tracks_per_identity=20,
        dim=32,
        min_length=5,
        max_length=40,
        noise_scale=0.1,
        cooccurrence_density=0.3,
        seed=seed,
    )


@pytest.fixture(scope="session")
def fixture_runs():
    """Train the separable end-to-end fixture for 3 seeds; ~2 min each."""
    results = []
    t0 = time.perf_counter()
    for seed in FIXTURE_SEEDS:
        ts = generate_synthetic(_fixture_spec(seed))
        n_matrix = derive_cannot_links(ts)
        enc_cfg = EncoderConfig(model_dim=32, layers=2, heads=4, head_out_dim=2)
        train_cfg = TrainConfig(epochs=200, warmup_epochs=89, seed=seed)
        params, _, history = train(ts, n_matrix, enc_cfg, train_cfg)

        truth = np.array(ts.labels())
        k = len(set(ts.labels()))
        reps_vc = forward_eval_batch(params, [t.embeddings for t in ts.tracks])
        assign_vc = hac(reps_vc, stop=KnownK(k))
        reps_avg = np.stack([temporal_average(t) for t in ts.tracks])
        assign_avg = hac(reps_avg, stop=KnownK(k))
        results.append(
            dict(
                seed=seed,
                vc_nmi=nmi(assign_vc.as_array(), truth),
                vc_wcp=wcp(assign_vc.as_array(), truth),
                avg_nmi=nmi(assign_avg.as_array(), truth),
                loss_10=history[9]["mean_loss"],
                loss_200=history[199]["mean_loss"],
            )
        )
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_1_gradient_correctness(capsys):
    desc = "encoder+loss backward matches finite differences (rel <= 1e-4)"
    with _Criterion(capsys, 1, desc):
        t0 = time.perf_counter()
        h_step = 1e-5
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            d = int(rng.choice([4, 8, 16]))
            cfg = EncoderConfig(
                model_dim=d,
                heads=int(rng.choice([1, 2])),
                layers=int(rng.integers(1, 3)),
                mlp_hidden=int(rng.integers(3, 9)),
                head_out_dim=2,
            )
            params = init_params(cfg, rng)
            clip = rng.standard_normal((int(rng.integers(1, 7)), d))
            centre = rng.standard_normal(2)
            y = int(rng.integers(2))

            z, cache = forward_train(params, clip)
            gz = grad_z(z, centre, y, 1.0)
            grads = backward(params, cache, gz)

            def loss():
                zz, _ = forward_train(params, clip)
                return vc_loss(zz, centre, y, 1.0)

            for name, tensor in params.tensors.items():
                idx = rng.choice(
                    tensor.size, size=min(3, tensor.size), replace=False
                )
                for fi in idx:
                    ix = np.unravel_index(fi, tensor.shape)
                    orig = tensor[ix]
                    tensor[ix] = orig + h_step
                    fp = loss()
                    tensor[ix] = orig - h_step
                    fm = loss()
                    tensor[ix] = orig
                    num = (fp - fm) / (2 * h_step)
                    ana = grads[name][ix]
                    worst = max(
                        worst, abs(num - ana) / max(abs(num), abs(ana), 1e-6)
                    )
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-4, f"worst relative error {worst}"
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_2_analytic_loss_gradients(capsys):
    desc = "grad_z and centre gradients match finite differences (rel <= 1e-6)"
    with _Criterion(capsys, 2, desc):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2)
        h = 1e-7
        checked = 0
        while checked < 1000:
            dim = int(rng.integers(1, 6))
            z = rng.standard_normal(dim)
            c = rng.standard_normal(dim)
            y = int(rng.integers(2))
            g = float(rng.uniform(0.2, 2.0))
            dist = float(np.linalg.norm(z - c))
            if dist < 1e-3 or abs(g - dist) < 1e-3:
                continue

            ana_z = grad_z(z, c, y, g)
            num_z = np.empty(dim)
            num_c = np.empty(dim)
            for i in range(dim):
                zp = z.copy(); zp[i] += h
                zm = z.copy(); zm[i] -= h
                num_z[i] = (vc_loss(zp, c, y, g) - vc_loss(zm, c, y, g)) / (2 * h)
                cp = c.copy(); cp[i] += h
                cm = c.copy(); cm[i] -= h
                num_c[i] = (vc_loss(z, cp, y, g) - vc_loss(z, cm, y, g)) / (2 * h)
            # the stated centre gradients: attract (y/2)(c-z)/||z-c||,
            # repel ((1-y)/2) 1(.) (z-c)/||z-c||
            unit = (z - c) / dist
            if y == 1:
                ana_c = -0.5 * unit
            elif g - dist > 0:
                ana_c = 0.5 * unit
            else:
                ana_c = np.zeros(dim)

            for num, ana in ((num_z, ana_z), (num_c, ana_c)):
                denom = max(np.linalg.norm(num), np.linalg.norm(ana), 1e-9)
                assert np.linalg.norm(num - ana) / denom <= 1e-6
            checked += 1
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"took {elapsed:.1f}s"


def test_criterion_3_permutation_invariance(capsys):
    desc = "forward_eval invariant to frame permutation (<= 1e-9), 100 tracks"
    with _Criterion(capsys, 3, desc):
        rng = np.random.default_rng(3)
        cfg = EncoderConfig(model_dim=16, heads=4, layers=2)
        params = init_params(cfg, rng)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            track = rng.standard_normal((n, 16))
            perm = rng.permutation(n)
            a = forward_eval(params, track)
            b = forward_eval(params, track[perm])
            assert np.max(np.abs(a - b)) <= 1e-9


def test_criterion_4_centre_consistency(capsys):
    desc = "CentreTable bitwise equals full recompute at epochs 50/100/150"
    with _Criterion(capsys, 4, desc):
        spec = SyntheticSpec(
            identity_count=2, tracks_per_identity=4, dim=8,
            min_length=3, max_length=6, noise_scale=0.05,
            cooccurrence_density=0.5, seed=4,
        )
        ts = generate_synthetic(spec)
        n_matrix = derive_cannot_links(ts)
        cfg = TrainConfig(
            epochs=150, warmup_epochs=66, max_lr=1e-3, batch_size=128,
            attract_per_track=3, repel_per_track=3,
            centre_recompute_interval=50, seed=0,
        )
        enc_cfg = EncoderConfig(model_dim=8, heads=2, layers=1, head_out_dim=2)
        checked = []

        def on_epoch_end(epoch, params, table):
            if epoch % 50 == 0:
                cls = forward_eval_batch(params, [t.embeddings for t in ts.tracks])
                assert np.array_equal(table.centres, head_forward(params, cls))
                checked.append(epoch)

        train(ts, n_matrix, enc_cfg, cfg, on_epoch_end=on_epoch_end)
        assert checked == [50, 100, 150]


def test_criterion_5_constraint_oracle(capsys):
    desc = "derive_cannot_links equals brute-force frame-set intersection"
    with _Criterion(capsys, 5, desc):
        for seed in range(50):
            rng = np.random.default_rng(500 + seed)
            ts = random_trackset(
                rng,
                n_tracks=int(rng.integers(2, 201)),
                dim=2,
                max_len=10,
                frame_range=300,
            )
            n_matrix = derive_cannot_links(ts)
            assert np.array_equal(n_matrix.bits, brute_force_cannot_links(ts))


def test_criterion_6_metrics_oracle(capsys):
    desc = "nmi/wcp vs contingency oracle (1e-12); hac stop-rule contracts"
    with _Criterion(capsys, 6, desc):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            pred, truth = random_partition_pair(rng)
            assert nmi(pred, truth) == pytest.approx(
                oracle_nmi(pred, truth), abs=1e-12
            )
            assert wcp(pred, truth) == pytest.approx(
                oracle_wcp(pred, truth), abs=1e-12
            )
        x = rng.standard_normal((20, 3))
        for k in range(1, 21):
            assert hac(x, stop=KnownK(k)).k == k
        grid = np.linspace(0.0, 6.0, 50)
        ks = [hac(x, stop=Threshold(t)).k for t in grid]
        assert all(b <= a for a, b in zip(ks, ks[1:]))


def test_criterion_7_end_to_end_fixture(capsys, fixture_runs):
    desc = "separable fixture: median VC NMI/WCP >= 0.90, VC >= avg, < 10 min"
    with _Criterion(capsys, 7, desc):
        results, elapsed = fixture_runs
        vc_nmi = float(np.median([r["vc_nmi"] for r in results]))
        vc_wcp = float(np.median([r["vc_wcp"] for r in results]))
        avg_nmi = float(np.median([r["avg_nmi"] for r in results]))
        assert vc_nmi >= 0.90, f"median VC NMI {vc_nmi}"
        assert vc_wcp >= 0.90, f"median VC WCP {vc_wcp}"
        assert vc_nmi >= avg_nmi, f"VC {vc_nmi} < avg {avg_nmi}"
        assert elapsed < 600.0, f"3 seeds took {elapsed:.0f}s"


def test_criterion_8_training_sanity(capsys, fixture_runs):
    desc = "epoch-200 mean loss <= 50% of epoch-10 mean loss, each seed"
    with _Criterion(capsys, 8, desc):
        results, _ = fixture_runs
        for r in results:
            assert r["loss_200"] <= 0.5 * r["loss_10"], (
                f"seed {r['seed']}: {r['loss_200']} vs {r['loss_10']}"
            )


def test_criterion_9_determinism(capsys, tmp_path):
    desc = "identical cmd_train runs produce byte-identical artifacts"
    with _Criterion(capsys, 9, desc):
        from trackcentre.cli import main
        from trackcentre.trackio import save_trackset

        spec = SyntheticSpec(
            identity_count=2, tracks_per_identity=3, dim=8,
            min_length=3, max_length=6, noise_scale=0.05,
            cooccurrence_density=0.5, seed=9,
        )
        tracks = tmp_path / "tracks"
        save_trackset(generate_synthetic(spec), tracks)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            args = [
                "train", "--tracks", str(tracks), "--method", "vc",
                "--out", str(out), "--epochs", "6", "--warmup-epochs", "3",
                "--batch-size", "64", "--layers", "1", "--heads", "2",
                "--seed", "0",
            ]
            assert main(args) == 0
            outs.append(out)
        a, b = outs
        assert (a / "checkpoint.tcv1").read_bytes() == (
            b / "checkpoint.tcv1"
        ).read_bytes()
        assert (a / "history.csv").read_bytes() == (
            b / "history.csv"
        ).read_bytes()


def test_criterion_10_attention_profile(capsys, tmp_path):
    desc = "attention scores unit-norm, uniform tracks sigma 0, attn schema"
    with _Criterion(capsys, 10, desc):
        import csv

        from trackcentre.cli import main
        from trackcentre.trackio import save_trackset

        rng = np.random.default_rng(10)
        cfg = EncoderConfig(model_dim=8, heads=2, layers=2)
        params = init_params(cfg, rng)
        for _ in range(20):
            n = int(rng.integers(1, 15))
            scores, _ = attention_profile(params, rng.standard_normal((n, 8)))
            assert abs(np.linalg.norm(scores) - 1.0) <= 1e-9
        frame = rng.standard_normal(8)
        _, sigma = attention_profile(params, np.tile(frame, (7, 1)))
        assert sigma <= 1e-9

        spec = SyntheticSpec(
            identity_count=2, tracks_per_identity=2, dim=8,
            min_length=3, max_length=5, noise_scale=0.05,
            cooccurrence_density=0.5, seed=10,
        )
        tracks = tmp_path / "tracks"
        save_trackset(generate_synthetic(spec), tracks)
        out = tmp_path / "run"
        assert main([
            "train", "--tracks", str(tracks), "--method", "vc",
            "--out", str(out), "--epochs", "2", "--warmup-epochs", "1",
            "--batch-size", "64", "--layers", "1", "--heads", "2",
            "--seed", "0",
        ]) == 0
        attn_csv = tmp_path / "attn.csv"
        assert main([
            "attn", "--tracks", str(tracks),
            "--checkpoint", str(out / "checkpoint.tcv1"),
            "--out", str(attn_csv),
        ]) == 0
        with open(attn_csv, newline="") as f:
            header = next(csv.reader(f))
        assert header == ["track_id", "frame", "score", "sigma", "is_distractor"]


def test_criterion_11_sdbw_sanity(capsys):
    desc = "S-Dbw of true labels < shuffled labels on the fixture, 5/5 seeds"
    with _Criterion(capsys, 11, desc):
        for seed in range(5):
            ts = generate_synthetic(_fixture_spec(seed))
            reps = np.stack([temporal_average(t) for t in ts.tracks])
            truth = np.array(ts.labels())
            rng = np.random.default_rng(seed)
            shuffled = truth[rng.permutation(len(truth))]
            assert sdbw(reps, truth) < sdbw(reps, shuffled)
