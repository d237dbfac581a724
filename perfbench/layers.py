"""Which library functions the traced run wraps, the counters recorded at
those boundaries, and the per-layer metrics computed from the spans of one
traced round (one set-up, one training step and one evaluation step)."""

from __future__ import annotations

import os

from trackcentre import baselines, checkpoint, clustereval, constraints, trackio, vcl
from trackcentre import encoder as enc

from tracing import totals, under


def forward_flops(cfg: enc.EncoderConfig, batch: int, seq: int, head: bool) -> int:
    """Multiply-adds x2 of the dense products of one padded forward pass,
    computed from the shapes (not measured)."""
    d, m = cfg.model_dim, cfg.hidden
    # q, k, v and output projections, the two MLP products, then scores and
    # the probability-weighted values over all heads.
    per_layer = 2 * batch * seq * d * (4 * d + 2 * m) + 4 * batch * seq * seq * d
    return cfg.layers * per_layer + (2 * batch * d * cfg.head_out_dim if head else 0)


def _token_counts(params, lengths, head):
    b, s = len(lengths), 1 + max(lengths)
    return {
        "valid_tokens": b + sum(lengths),  # frames plus one class token per clip
        "padded_tokens": b * s,
        "flops": forward_flops(params.config, b, s, head),
    }


def _forward_train_counts(args, kwargs, result):
    return _token_counts(args[0], [c.shape[0] for c in args[1]], head=True)


def _forward_eval_batch_counts(args, kwargs, result):
    return _token_counts(args[0], [c.shape[0] for c in args[1]], head=False)


def _forward_eval_counts(args, kwargs, result):
    return _token_counts(args[0], [args[1].shape[0]], head=False)


def _backward_counts(args, kwargs, result):
    b, s, _ = args[1].x0.shape
    # Each forward product has two backward products (input and weight).
    return {"flops": 2 * forward_flops(args[0].config, b, s, head=True)}


TARGETS = [
    (trackio, "generate_synthetic", "trackio.generate", None),
    (trackio, "save_trackset", "trackio.save", None),
    (trackio, "load_trackset", "trackio.load",
     lambda a, k, r: {"frames": sum(t.length for t in r.tracks)}),
    (constraints, "derive_cannot_links", "constraints.derive",
     lambda a, k, r: {"pairs": int(r.bits.sum()) // 2}),
    (constraints, "sample_pairs", "constraints.sample_pairs",
     lambda a, k, r: {"pairs": len(r)}),
    (enc, "init_params", "encoder.init_params", None),
    (enc, "forward_train_batch", "encoder.forward_train", _forward_train_counts),
    (enc, "forward_eval_batch", "encoder.forward_eval", _forward_eval_batch_counts),
    (enc, "forward_eval", "encoder.forward_eval", _forward_eval_counts),
    (enc, "backward", "encoder.backward", _backward_counts),
    (vcl, "train", "vcl.train", None),
    (vcl, "sample_clip_consecutive", "vcl.sample_clip", None),
    (vcl, "update_centre", "vcl.update_centre", None),
    (vcl, "init_centres", "vcl.init_centres", None),
    (baselines, "train_pairwise", "baselines.train", None),
    (baselines, "mlp_forward", "baselines.mlp", None),
    (baselines, "mlp_backward", "baselines.mlp", None),
    (clustereval, "hac", "clustereval.hac", lambda a, k, r: {"merges": len(r.merges)}),
    (clustereval, "nmi", "clustereval.metrics", None),
    (clustereval, "wcp", "clustereval.metrics", None),
    (clustereval, "c_dif", "clustereval.metrics", None),
    (clustereval, "sdbw", "clustereval.metrics", None),
    (checkpoint, "save_checkpoint", "checkpoint.save",
     lambda a, k, r: {"bytes": os.path.getsize(a[0])}),
    (checkpoint, "load_checkpoint", "checkpoint.load", None),
]


def per_layer(spans) -> dict:
    """Per-layer metrics of one traced round; ``trace.overhead_s`` is added
    by the caller, which times untraced rounds too."""
    dur, own, calls, counts = totals(spans)
    forwards = ("encoder.forward_train", "encoder.forward_eval")
    valid = sum(counts[n]["valid_tokens"] for n in forwards)
    padded = sum(counts[n]["padded_tokens"] for n in forwards)

    def inside(name, ancestor):
        return [i for i, s in enumerate(spans) if s[0] == name and under(spans, i, ancestor)]

    recompute = inside("vcl.init_centres", "vcl.train")
    # tsiam trains on sampled frame pairs, ct on pairs of sampled clips.
    pairs = sum(spans[i][4]["pairs"] for i in inside("constraints.sample_pairs", "baselines.train"))
    pairs += len(inside("vcl.sample_clip", "baselines.train")) // 2
    return {
        "encoder.forward_train_s": dur["encoder.forward_train"],
        "encoder.backward_s": dur["encoder.backward"],
        "encoder.forward_eval_s": dur["encoder.forward_eval"],
        "encoder.calls": sum(calls[n] for n in forwards + ("encoder.backward",)),
        "encoder.valid_tokens": int(valid),
        "encoder.padded_tokens": int(padded),
        "encoder.pad_efficiency": valid / padded if padded else 0.0,
        "encoder.flops": int(sum(counts[n]["flops"] for n in forwards + ("encoder.backward",))),
        "vcl.train_s": dur["vcl.train"],
        "vcl.self_s": own["vcl.train"],
        "vcl.sample_clip_s": dur["vcl.sample_clip"],
        "vcl.sample_clip_calls": calls["vcl.sample_clip"],
        "vcl.update_centre_s": dur["vcl.update_centre"],
        "vcl.update_centre_calls": calls["vcl.update_centre"],
        "vcl.centre_recompute_s": sum(spans[i][2] - spans[i][1] for i in recompute),
        "baselines.train_s": dur["baselines.train"],
        "baselines.self_s": own["baselines.train"],
        "baselines.mlp_s": dur["baselines.mlp"],
        "baselines.pairs": pairs,
        "constraints.derive_s": dur["constraints.derive"],
        "constraints.cannot_link_pairs": int(counts["constraints.derive"]["pairs"]),
        "constraints.sample_pairs_s": dur["constraints.sample_pairs"],
        "constraints.sample_pairs_calls": calls["constraints.sample_pairs"],
        "clustereval.hac_s": dur["clustereval.hac"],
        "clustereval.hac_merges": int(counts["clustereval.hac"]["merges"]),
        "clustereval.metrics_s": dur["clustereval.metrics"],
        "trackio.save_s": dur["trackio.save"],
        "trackio.load_s": dur["trackio.load"],
        "trackio.frames": int(counts["trackio.load"]["frames"]),
        "checkpoint.save_s": dur["checkpoint.save"],
        "checkpoint.load_s": dur["checkpoint.load"],
        "checkpoint.bytes": int(counts["checkpoint.save"]["bytes"]),
    }
