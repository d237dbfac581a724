"""Self-tests of the benchmark: tiny-size smoke runs of every workload.

Run from the repository root:  python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = run.load_spec()
SEED = 3


def tiny(name):
    w = workloads.WORKLOADS[name]
    return dataclasses.replace(
        w, tracks_per_identity=6, max_length=12, window=30 if w.window else None
    )


def check_metrics(result, lines, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        printed = [line.split() for line in lines]
        assert any(p[0] == m["name"] and p[-1] == m["unit"] for p in printed if p), m["name"]
    assert json.loads(json.dumps(result)) == result


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    result, lines = run.execute(tiny(name), SEED, 0, False, SPEC)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    check_metrics(result, lines, SPEC["end_to_end"])
    assert all(result["metrics"][n]["value"] > 0 for n in result["metrics"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_spans_nest_and_self_times_are_non_negative(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    w = tiny(name)
    result, lines = run.execute(w, SEED, 0, True, SPEC)
    assert result["correct"] and result["failed"] == 0
    check_metrics(result, lines, SPEC["per_layer"])

    (trace_file,) = (tmp_path / "traces").glob("*.jsonl")
    spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert {s["run"] for s in spans} == {trace_file.stem}
    by_id = {(s["round"], s["id"]): s for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        assert s["self"] >= -1e-9, s
        if s["parent"] >= 0:
            parent = by_id[(s["round"], s["parent"])]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s
    names = {s["name"] for s in spans}
    for layer in ("trackio", "constraints", "encoder", "clustereval", "checkpoint"):
        assert any(n.startswith(layer + ".") for n in names), layer

    values = {k: v["value"] for k, v in result["metrics"].items()}
    methods = {job.method for job in w.jobs}
    assert (values["vcl.train_s"] > 0) == ("vc" in methods)
    assert (values["vcl.update_centre_calls"] > 0) == ("vc" in methods)
    assert (values["baselines.train_s"] > 0) == bool(methods & {"ct", "tsiam"})
    assert values["vcl.self_s"] >= 0 and values["baselines.self_s"] >= 0
    assert 0 < values["encoder.pad_efficiency"] <= 1
    assert values["trackio.frames"] > 0 and values["checkpoint.bytes"] > 0

    # The traced pair count agrees with the count behind train_samples_per_s.
    runner = workloads.Runner(w, SEED, tmp_path)
    state = runner.setup()
    expected = sum(
        job.epochs * workloads.samples_per_epoch(
            job.method, state.train_links, workloads.train_config(job, SEED))
        for job in w.jobs if job.method != "vc"
    )
    assert values["baselines.pairs"] == expected


def test_tracer_patches_every_reference_and_restores_them():
    import numpy as np

    import trackcentre
    from trackcentre import baselines, constraints, vcl

    before = (vcl.sample_clip_consecutive, baselines.sample_clip_consecutive,
              constraints.sample_pairs, baselines.sample_pairs, vcl.train, trackcentre.train)
    tracer = tracing.Tracer("patch-test")
    tracer.install(layers.TARGETS)
    try:
        assert baselines.sample_clip_consecutive is vcl.sample_clip_consecutive
        assert vcl.sample_clip_consecutive is not before[0]
        assert baselines.sample_pairs is constraints.sample_pairs is not before[2]
        assert trackcentre.train is vcl.train is not before[4]
        baselines.sample_clip_consecutive(10, 4, np.random.default_rng(0))
    finally:
        tracer.uninstall()
    after = (vcl.sample_clip_consecutive, baselines.sample_clip_consecutive,
             constraints.sample_pairs, baselines.sample_pairs, vcl.train, trackcentre.train)
    assert all(a is b for a, b in zip(before, after))
    assert [s[0] for s in tracer.end_round()] == ["vcl.sample_clip"]


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["child", 1.0, 4.0, 0, None],
        ["grandchild", 2.0, 3.0, 1, None],
        ["child", 5.0, 6.0, 0, None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.under(spans, 2, "root") and not tracing.under(spans, 0, "root")


def test_exits_nonzero_without_library_sources(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vc-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
