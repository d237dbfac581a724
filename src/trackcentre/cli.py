"""Command-line interface: synth / train / eval / attn / compare.

Every training run writes a JSON run manifest capturing the full config
and seed, sufficient to reproduce the run bit-exactly.  Reports are plain
CSV; plotting is left to external tools.  BLAS threads are capped the
usual way, with OPENBLAS_NUM_THREADS or OMP_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import baselines, checkpoint, vcl
from . import encoder as enc
from .clustereval import KnownK, Threshold, c_dif, hac, nmi, sdbw, wcp
from .constraints import derive_cannot_links
from .trackio import SyntheticSpec, TrackSet, generate_synthetic, load_trackset, save_trackset

METHODS = ("vc", "ct", "tsiam", "avg")


class CliError(Exception):
    pass


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    defaults = vcl.TrainConfig()
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--warmup-epochs", type=int, default=None,
                   help="default: scaled 4/9 of --epochs as in the full schedule")
    p.add_argument("--max-lr", type=float, default=defaults.max_lr)
    p.add_argument("--momentum", type=float, default=defaults.momentum)
    p.add_argument("--weight-decay", type=float, default=defaults.weight_decay)
    p.add_argument("--batch-size", type=int, default=defaults.batch_size)
    p.add_argument("--clip-cap", type=int, default=defaults.clip_cap)
    p.add_argument("--margin", type=float, default=defaults.margin)
    p.add_argument("--centre-lr-factor", type=float, default=defaults.centre_lr_factor)
    p.add_argument("--centre-recompute-interval", type=int,
                   default=defaults.centre_recompute_interval)
    p.add_argument("--checkpoint-policy", choices=("final", "best_sdbw"),
                   default="final")
    p.add_argument("--layers", type=int, default=4)
    p.add_argument("--heads", type=int, default=16)
    p.add_argument("--mlp-hidden", type=int, default=None)
    p.add_argument("--head-out-dim", type=int, default=2)
    p.add_argument("--positional-embedding", action="store_true")


def _train_config_from_args(args) -> vcl.TrainConfig:
    warmup = args.warmup_epochs
    if warmup is None:
        warmup = max(1, round(args.epochs * 4 / 9))
    return vcl.TrainConfig(
        epochs=args.epochs,
        warmup_epochs=warmup,
        max_lr=args.max_lr,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        batch_size=args.batch_size,
        clip_cap=args.clip_cap,
        margin=args.margin,
        centre_lr_factor=args.centre_lr_factor,
        centre_recompute_interval=args.centre_recompute_interval,
        seed=args.seed,
        checkpoint_policy=args.checkpoint_policy,
    )


def _encoder_config_from_args(args, dim: int) -> enc.EncoderConfig:
    return enc.EncoderConfig(
        model_dim=dim,
        layers=args.layers,
        heads=args.heads,
        mlp_hidden=args.mlp_hidden,
        head_out_dim=args.head_out_dim,
        use_positional_embedding=args.positional_embedding,
    )


def _manifest_dict(method, tracks_path, seed, train_cfg, enc_cfg, out_dir) -> dict:
    return {
        "method": method,
        "tracks": str(tracks_path),
        "seed": seed,
        "train_config": asdict(train_cfg),
        "encoder_config": asdict(enc_cfg) if enc_cfg is not None else None,
        "out_dir": str(out_dir),
    }


def _run_training(method: str, trackset: TrackSet, train_cfg: vcl.TrainConfig,
                  enc_cfg: enc.EncoderConfig):
    """Dispatch one training method; returns (kind, params, history)."""
    n_matrix = derive_cannot_links(trackset)
    if method == "vc":
        params, _, history = vcl.train(trackset, n_matrix, enc_cfg, train_cfg)
        return "encoder", params, history
    if method == "ct":
        params, history = baselines.train_pairwise(
            "transformer", trackset, n_matrix, train_cfg, encoder_config=enc_cfg
        )
        return "encoder", params, history
    if method == "tsiam":
        params, history = baselines.train_pairwise(
            "mlp", trackset, n_matrix, train_cfg,
            mlp_out_dim=enc_cfg.head_out_dim,
        )
        return "mlp", params, history
    raise CliError(f"method {method!r} requires no training" if method == "avg"
                   else f"unknown method {method!r}")


def _save_model(path, kind: str, params) -> None:
    if kind == "encoder":
        meta = {"kind": "encoder", "config": asdict(params.config)}
    else:
        meta = {"kind": "mlp", "config": None}
    checkpoint.save_checkpoint(path, meta, params.tensors)


def _shape(shape) -> str:
    return f"({', '.join(map(str, shape))}{',' if len(shape) == 1 else ''})"


def _check_tensors(path, tensors, want, model: str) -> None:
    """Raise CheckpointError naming the file and the first tensor that is
    missing or not in ``want`` (name -> shape), in name order, or else the
    first, in ``want`` order, whose shape differs."""
    names = sorted(want.keys() ^ tensors.keys()) + list(want)
    for name in names:
        got = _shape(tensors[name].shape) if name in tensors else "missing"
        need = _shape(want[name]) if name in want else "no such tensor"
        if got != need:
            raise checkpoint.CheckpointError(
                f"{path}: tensor {name!r} is {got}; {model} needs {need}"
            )


def _load_model(path):
    """Load a checkpoint as (kind, params).  An encoder checkpoint must hold
    exactly the tensors, and shapes, that ``init_params`` makes for its
    config, an mlp checkpoint exactly w1 (d, h), b1 (h,), w2 (h, z) and
    b2 (z,); any other layout raises ``CheckpointError`` naming the file."""
    meta, tensors = checkpoint.load_checkpoint(path)
    kind = meta.get("kind") if isinstance(meta, dict) else None
    if kind == "mlp":
        w1, w2 = tensors.get("w1"), tensors.get("w2")
        d, h = w1.shape if w1 is not None and w1.ndim == 2 else ("d", "h")
        z = w2.shape[1] if w2 is not None and w2.ndim == 2 else "z"
        want = {"w1": (d, h), "b1": (h,), "w2": (h, z), "b2": (z,)}
        _check_tensors(path, tensors, want, "an mlp")
        return "mlp", baselines.SiameseMlpParams(tensors=tensors)
    if kind != "encoder":
        raise checkpoint.CheckpointError(f"{path}: unknown model kind {kind!r}")
    try:
        cfg = enc.EncoderConfig(**meta["config"])
    except (KeyError, TypeError, enc.EncoderError) as exc:
        raise checkpoint.CheckpointError(f"{path}: bad encoder config: {exc}") from exc
    want = enc.init_params(cfg, np.random.default_rng(0)).tensors
    _check_tensors(path, tensors, {n: t.shape for n, t in want.items()},
                   "an encoder of this config")
    return "encoder", enc.EncoderParams(config=cfg, tensors=tensors)


def _representations(kind: str, params, trackset: TrackSet) -> np.ndarray:
    if kind == "encoder":
        return enc.forward_eval_batch(params, [t.embeddings for t in trackset.tracks])
    if kind == "mlp":
        return np.stack(
            [baselines.track_representation_mlp(params, t) for t in trackset.tracks]
        )
    return np.stack([baselines.temporal_average(t) for t in trackset.tracks])


def _metrics_row(video_id, method, reps, trackset, stop) -> dict:
    assign = hac(reps, linkage="average", stop=stop)
    labels = trackset.labels()
    have_labels = all(l is not None for l in labels)
    k_true = len(set(labels)) if have_labels else ""
    row = {
        "video_id": video_id,
        "method": method,
        "k_pred": assign.k,
        "k_true": k_true,
        "nmi": "",
        "wcp": "",
        "c_dif": "",
        "sdbw": "",
    }
    if have_labels:
        truth = np.array(labels)
        row["nmi"] = nmi(assign.as_array(), truth)
        row["wcp"] = wcp(assign.as_array(), truth)
        row["c_dif"] = c_dif(assign.k, k_true)
    if assign.k >= 2:
        row["sdbw"] = sdbw(reps, assign.as_array())
    return row


METRIC_COLUMNS = ["video_id", "method", "k_pred", "k_true", "nmi", "wcp", "c_dif", "sdbw"]


def _write_metrics(path, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=METRIC_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def cmd_synth(args) -> int:
    spec = SyntheticSpec(
        identity_count=args.k,
        tracks_per_identity=args.tracks_per_identity,
        dim=args.dim,
        min_length=args.min_length,
        max_length=args.max_length,
        noise_scale=args.noise,
        distractor_prob=args.distractor_prob,
        distractor_scale=args.distractor_scale,
        cooccurrence_density=args.cooccurrence,
        seed=args.seed,
    )
    trackset = generate_synthetic(spec)
    save_trackset(trackset, args.out)
    print(f"wrote {args.out}.manifest.json / .emb: "
          f"M={len(trackset)} K={spec.identity_count} dim={trackset.dim}")
    return 0


def _stop_from_args(args):
    if args.known_k is not None and args.threshold is not None:
        raise CliError("--known-k and --threshold are mutually exclusive")
    if args.known_k is not None:
        if args.known_k < 1:
            raise CliError("--known-k must be >= 1")
        return KnownK(args.known_k)
    if args.threshold is not None:
        return Threshold(args.threshold)
    raise CliError("one of --known-k or --threshold is required")


def cmd_train(args) -> int:
    if args.method == "avg":
        raise CliError("avg requires no training")
    if args.manifest:
        manifest = json.loads(Path(args.manifest).read_text())
        method = manifest["method"]
        tracks_path = manifest["tracks"]
        train_cfg = vcl.TrainConfig(**manifest["train_config"])
        enc_cfg = enc.EncoderConfig(**manifest["encoder_config"])
        out_dir = Path(manifest["out_dir"])
    else:
        method = args.method
        tracks_path = args.tracks
        train_cfg = _train_config_from_args(args)
        out_dir = Path(args.out)
    trackset = load_trackset(tracks_path)
    if not args.manifest:
        enc_cfg = _encoder_config_from_args(args, trackset.dim)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest_dict(method, tracks_path, train_cfg.seed, train_cfg,
                              enc_cfg, out_dir)
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    kind, params, history = _run_training(method, trackset, train_cfg, enc_cfg)
    _save_model(out_dir / "checkpoint.tcv1", kind, params)
    vcl.write_history_csv(out_dir / "history.csv", history)
    print(f"trained {method} for {train_cfg.epochs} epochs; "
          f"final mean loss {history[-1]['mean_loss']:.6f}")
    return 0


def cmd_eval(args) -> int:
    trackset = load_trackset(args.tracks)
    stop = _stop_from_args(args)
    if args.method == "avg":
        kind, params = "avg", None
    else:
        if not args.checkpoint:
            raise CliError("--checkpoint required unless --method avg")
        kind, params = _load_model(args.checkpoint)
        want = "mlp" if args.method == "tsiam" else "encoder"
        if kind != want:
            raise CliError(
                f"method {args.method} needs an {want} checkpoint, got an {kind} checkpoint"
            )
        dim = params.config.model_dim if kind == "encoder" else params.in_dim
        if dim != trackset.dim:
            raise CliError(f"checkpoint dim {dim} != tracks dim {trackset.dim}")
    reps = _representations(kind, params, trackset)
    row = _metrics_row(trackset.video_id, args.method, reps, trackset, stop)
    _write_metrics(args.out, [row])
    print(f"wrote {args.out}: k_pred={row['k_pred']} nmi={row['nmi']} wcp={row['wcp']}")
    return 0


def cmd_attn(args) -> int:
    trackset = load_trackset(args.tracks)
    kind, params = _load_model(args.checkpoint)
    if kind != "encoder":
        raise CliError("attn requires an encoder checkpoint")
    if params.config.model_dim != trackset.dim:
        raise CliError(
            f"checkpoint dim {params.config.model_dim} != tracks dim {trackset.dim}"
        )
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["track_id", "frame", "score", "sigma", "is_distractor"])
        for t in trackset.tracks:
            scores, sigma = enc.attention_profile(params, t.embeddings)
            distractors = set(t.distractor_frames)
            for i, s in enumerate(scores):
                writer.writerow(
                    [t.track_id, i, repr(float(s)), repr(sigma),
                     int(i in distractors)]
                )
    print(f"wrote {args.out}: {len(trackset)} tracks")
    return 0


def cmd_compare(args) -> int:
    trackset = load_trackset(args.tracks)
    if not all(l is not None for l in trackset.labels()):
        raise CliError("compare requires labeled tracks")
    k_true = len(set(trackset.labels()))
    stop = KnownK(k_true) if args.known_k is None and args.threshold is None \
        else _stop_from_args(args)
    train_cfg = _train_config_from_args(args)
    enc_cfg = _encoder_config_from_args(args, trackset.dim)
    rows = []
    for method in ("avg", "tsiam", "ct", "vc"):
        if method == "avg":
            kind, params = "avg", None
        else:
            kind, params, _ = _run_training(method, trackset, train_cfg, enc_cfg)
        reps = _representations(kind, params, trackset)
        rows.append(_metrics_row(trackset.video_id, method, reps, trackset, stop))
    _write_metrics(args.out, rows)
    for row in rows:
        print(f"{row['method']:>6}: k_pred={row['k_pred']} "
              f"nmi={row['nmi']:.4f} wcp={row['wcp']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trackcentre",
        description="Self-supervised video-level track representation "
                    "learning and clustering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic track container")
    p.add_argument("--out", required=True, help="output path stem")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--tracks-per-identity", type=int, default=20)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--min-length", type=int, default=5)
    p.add_argument("--max-length", type=int, default=40)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--distractor-prob", type=float, default=0.0)
    p.add_argument("--distractor-scale", type=float, default=0.5)
    p.add_argument("--cooccurrence", type=float, default=0.3,
                   help="requested fraction of track pairs that overlap in "
                        "time; at most (k - 1) / (tracks - 1) is reachable "
                        "and a larger request warns")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a representation model")
    p.add_argument("--tracks", help="track container path stem")
    p.add_argument("--method", choices=METHODS, default="vc")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    p.add_argument("--manifest", help="reproduce a run from its manifest file")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cluster representations and emit metrics")
    p.add_argument("--tracks", required=True)
    p.add_argument("--checkpoint")
    p.add_argument("--method", choices=METHODS, default="vc")
    p.add_argument("--known-k", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True, help="metrics CSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("attn", help="per-frame attention profile CSV")
    p.add_argument("--tracks", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attn)

    p = sub.add_parser("compare", help="run all four methods with one seed")
    p.add_argument("--tracks", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--known-k", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--out", required=True, help="combined metrics CSV path")
    _add_train_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
