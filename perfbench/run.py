"""Benchmark of the trackcentre library, run in-process on synthetic videos.

Run from the repository root:

    python3 perfbench/run.py --workload compare-baselines --seed 1 --seconds 56 --trace 0

Workloads, metrics and bounds are declared in BENCHMARK.json at the
repository root; perfbench/NOTES.md says why each workload exists and which
end-to-end metric each layer should move.  The library is imported from
``src/`` next to this directory, so the benchmark measures the checkout it
sits in.

With ``--trace 0`` the run alternates training steps (every job of the
workload trained once) and evaluation steps (every trained model
checkpointed, embedded, clustered and scored) while the next still fits in
``--seconds``, sets the workload up a few times before each step, and
reports medians over the set-ups and the steps.  With ``--trace 1`` it
alternates untraced and traced rounds (set-up, one training step and one
evaluation step) while one more fits, reports the per-layer metrics of the
traced rounds and the tracing overhead, and writes every span to
``.perfbench_work/traces/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report.
"""

import os

# BLAS and OpenMP read these once, when numpy loads its libraries, so they
# are pinned before anything imports numpy.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
# Timed set-ups before each measured step; setup_s is their median.
SETUPS_PER_STEP = 3
# Evaluation time after each training step, as a share of that step's time.
EVAL_SHARE = 1 / 3


def load_spec() -> dict:
    with open(SPEC, encoding="utf-8") as f:
        return json.load(f)


def openblas_threads():
    """Thread count OpenBLAS reports at run time, or None if unreadable."""
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": openblas_threads(),
        "pinned": ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS),
    }


def host_probe_ms() -> tuple[float, float]:
    """Milliseconds for a fixed BLAS task and a fixed pure-Python loop.

    Printed with each result so that runs on a host whose speed drifts can
    be told apart; the metrics are not adjusted by it."""
    import numpy

    a = numpy.random.default_rng(0).standard_normal((256, 256))
    t0 = time.perf_counter()
    for _ in range(20):
        a @ a
    t1 = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i
    t2 = time.perf_counter()
    return 1000 * (t1 - t0), 1000 * (t2 - t1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _spread(values) -> str:
    return (f"median {statistics.median(values):.6g} n={len(values)}: "
            + " ".join(f"{v:.6g}" for v in values))


def more_time(start: float, durations, seconds: float) -> bool:
    """Whether one more repetition, as long as the median of the (non-empty)
    ``durations`` so far, still ends within ``seconds`` of ``start``."""
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def run_untraced(runner, seconds: float):
    """Returns (metrics, report lines) or None when nothing succeeded.

    Each training step is followed by evaluation steps that take about
    ``EVAL_SHARE`` of its time (at least one), so both kinds of step are
    sampled across the whole run; the run ends when the next step would
    end after ``seconds``.  Every step is preceded by ``SETUPS_PER_STEP``
    timed set-ups."""
    setup_times = []
    state = None

    def set_up():
        nonlocal state
        for _ in range(SETUPS_PER_STEP):
            t0 = time.perf_counter()
            new_state = runner.setup()
            if new_state is not None:
                setup_times.append(time.perf_counter() - t0)
                state = new_state
        return state is not None

    models, quality = {}, {}
    rates = {"train": [], "eval": []}
    durations = {"train": [], "eval": []}

    def step(kind):
        t0 = time.perf_counter()
        if kind == "train":
            busy_s, items = runner.train_step(state, models)
        else:
            busy_s, items = runner.eval_step(state, models, quality)
        durations[kind].append(time.perf_counter() - t0)
        if items:
            rates[kind].append(items / busy_s)
        return durations[kind][-1]

    start = time.perf_counter()
    while not durations["train"] or more_time(start, durations["train"], seconds):
        if not set_up():
            break
        train_s = step("train")
        eval_s = 0.0
        while eval_s == 0.0 or eval_s < EVAL_SHARE * train_s:
            if durations["eval"] and not more_time(start, durations["eval"], seconds):
                break
            set_up()
            eval_s += step("eval")
    headline = quality.get(runner.workload.jobs[0].method)
    if not (rates["train"] and rates["eval"] and headline):
        return None
    metrics = {
        "setup_s": statistics.median(setup_times),
        "train_samples_per_s": statistics.median(rates["train"]),
        "eval_tracks_per_s": statistics.median(rates["eval"]),
        "peak_rss_mb": peak_rss_mb(),
        "nmi": headline["nmi"],
        "wcp": headline["wcp"],
    }
    lines = [
        f"setup_s              {_spread(setup_times)}",
        f"train_samples_per_s  {_spread(rates['train'])}",
        f"eval_tracks_per_s    {_spread(rates['eval'])}",
        "quality per trained model (nmi, wcp: known-k clustering; c_dif: threshold stop;"
        " sdbw: known-k clustering; final_loss: last-epoch mean loss):",
    ]
    for method, q in quality.items():
        lines.append(
            f"  {method:<6} final_loss {q['final_loss']!r} - | nmi {q['nmi']!r} - | "
            f"wcp {q['wcp']!r} - | c_dif {q['c_dif']} clusters | sdbw {q['sdbw']!r} -"
        )
    return metrics, lines


def run_traced(runner, tracer, seconds: float):
    """Alternate untraced and traced rounds; returns (metrics, report lines)
    or None when no traced round succeeded."""
    import layers

    plain, traced, summaries, rounds = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = t0 = time.perf_counter()
        state = runner.setup()
        if state is not None:
            runner.iterate(state)
        plain.append(time.perf_counter() - t0)

        failed_before = runner.failed
        tracer.install(layers.TARGETS)
        runner.tracer = tracer
        try:
            t0 = time.perf_counter()
            state = runner.setup()
            if state is not None:
                runner.iterate(state)
            wall = time.perf_counter() - t0
        finally:
            runner.tracer = None
            tracer.uninstall()
        spans = tracer.end_round()
        if state is not None and runner.failed == failed_before:
            traced.append(wall)
            summaries.append(layers.per_layer(spans))
        rounds.append(time.perf_counter() - round_start)
        if not more_time(start, rounds, seconds):
            break
    if not summaries:
        return None
    metrics = {name: statistics.median(s[name] for s in summaries) for name in summaries[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    lines = [
        f"round wall untraced  {_spread(plain)}",
        f"round wall traced    {_spread(traced)}",
    ]
    return metrics, lines


def execute(workload, seed: int, seconds: float, trace: bool, spec: dict):
    """Run one workload; returns (result dict, report lines) or None."""
    import tracing
    from workloads import Runner

    run_id = f"{workload.name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    workdir = WORK / run_id
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, workdir)
        tracer = tracing.Tracer(run_id)
        if trace:
            measured = run_traced(runner, tracer, seconds)
            declared = spec["per_layer"]
        else:
            measured = run_untraced(runner, seconds)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if measured is None:
        return None
    values, lines = measured
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from declared {sorted(names)}")
    if trace:
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{run_id}.jsonl")
        lines.append(f"spans written to {trace_dir / (run_id + '.jsonl')}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    lines.append(f"operations attempted {runner.attempted} failed {runner.failed} "
                 f"error_rate {runner.failed / runner.attempted!r} ratio")
    for m in declared:
        lines.append(f"{m['name']:<32} {values[m['name']]!r} {m['unit']}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "trackcentre" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC / 'trackcentre'}", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"error: {SPEC} not found", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if env["blas_threads"] not in (None, 1):
        print(f"warning: BLAS reports {env['blas_threads']} threads", file=sys.stderr)
    probe_before = host_probe_ms()
    outcome = execute(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spec)
    probe_after = host_probe_ms()
    print("# host probe before/after (ms): blas %.2f/%.2f python %.2f/%.2f"
          % (probe_before[0], probe_after[0], probe_before[1], probe_after[1]))
    if outcome is None:
        print("error: no operation succeeded, no result", file=sys.stderr)
        return 1
    result, lines = outcome
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
