"""Benchmark of tensorcast's rolling backtests and CSV pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload backtest-tfm --seed 0 --seconds 40 --trace 0

Workloads are backtest-tfm, backtest-baselines and csv-pipeline (see
perfbench/NOTES.md). The run imports tensorcast from ./src with BLAS pinned to
one thread, generates the workload's inputs from the seed and warms it up,
then repeats measured passes until the next one would end after --seconds (at
least one). Set-up is also timed in fresh processes before and after the
passes, and the median of all set-ups is reported. With --trace 1,
untraced and traced passes alternate and the per-layer metrics come from the
traced ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names are those BENCHMARK.json
declares for the mode. The lines before it print every metric with its unit
and sample count, and the run manifest. Results also go to
perfbench/out/results/. Option --record-reference rewrites the reference
outputs for seed 0 from the current code; option --setup-only sets up once,
prints the set-up timings and exits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
# setup_s is the median of this process's own set-up and of set-ups in fresh
# processes before and after the measured passes: on each side at least
# SETUP_MIN_BEFORE or SETUP_MIN_AFTER of them, and more until the side has
# taken SETUP_SHARE of --seconds. The host's speed drifts by up to half for
# seconds at a time and a backtest set-up lasts about 0.3 s, so one set-up
# reads the host at one moment; many spread over the run read it on average.
SETUP_MIN_BEFORE, SETUP_MIN_AFTER = 1, 2
SETUP_SHARE = 0.05

MODULES = ("panel", "tensor", "factor_model", "forecast", "benchmarks", "evaluation", "cli")

# Covariance sizes of the (9, 7, 24) problem: N, S1, S2, N*S1, S1*S2, N*S2.
EIGH_SIZES = (9, 7, 24, 63, 168, 216)

# Spans that must fire in every traced pass of a workload. _EVERYWHERE are the
# spans every workload fires; their times are the ones BENCHMARK.json declares.
_EVERYWHERE = [
    "panel.cell_standardization", "tensor.top_eigenvectors", "tensor.mode_product",
    "factor_model.initial_loadings", "factor_model.projected_loadings",
    "factor_model.extract_factors", "forecast.forecast_factors",
    "forecast.forecast_observations", "forecast.forecast_series",
    "forecast.classical_decompose", "forecast.fit_ar1", "forecast.forecast_ar1",
]
_BACKTEST = ["evaluation.rolling_evaluate", "evaluation.emit_report", "evaluation.window"]
_FIT = ["factor_model.fit_factor_model", "factor_model.select_ranks"]
EXPECTED_SPANS = {
    "backtest-tfm": _EVERYWHERE + _BACKTEST + _FIT,
    "backtest-baselines": _EVERYWHERE + _BACKTEST + [
        "benchmarks.split_providers", "benchmarks.mfm_forecast", "benchmarks.vfm_forecast",
        "benchmarks.fpca_forecast", "forecast.fit_ar_aic", "forecast.fit_ar", "forecast.forecast_ar",
    ],
    "csv-pipeline": _EVERYWHERE + _FIT + [
        "cli.load_config", "cli.ingest", "cli.fit", "cli.forecast", "panel.ingest_csv",
        "panel.fold", "panel.write_npz", "panel.load_tensor_series",
    ],
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write the seed-0 reference outputs and exit")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once, print the set-up timings as JSON and exit")
    return parser.parse_args(argv)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def manifest(args, workload) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 1.26 prints instead
        blas = {"name": "unknown", "version": "unknown"}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tensorcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "commit": commit, "source_sha256": digest.hexdigest(), "sizes": workload.sizes(),
    }


def set_up(workload, recorder=None) -> dict[str, float]:
    """Generate the workload's inputs (with ``recorder`` installed, if given)
    and warm it up once; seconds of each."""
    if recorder is not None:
        recorder.install()
    try:
        t0 = perf_counter()
        workload.generate()
        generate_s = perf_counter() - t0
    finally:
        if recorder is not None:
            recorder.uninstall()
    t0 = perf_counter()
    workload.warm_up()
    return {"generate_s": generate_s, "warm_up_s": perf_counter() - t0}


def set_up_in_child(args) -> dict[str, float]:
    """One set-up in a fresh process (import, inputs, warm-up) and the wall
    time of that process."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    start = perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RuntimeError(f"set-up process exited with {done.returncode}: {done.stderr[-2000:]}")
    return {**json.loads(done.stdout.splitlines()[-1]), "process_s": perf_counter() - start}


def set_up_in_children(args, at_least: int) -> list[dict[str, float]]:
    """Set-ups in fresh processes, one after another, until there are
    ``at_least`` of them and they have taken SETUP_SHARE of --seconds."""
    samples, start = [], perf_counter()
    while len(samples) < at_least or perf_counter() - start < SETUP_SHARE * args.seconds:
        samples.append(set_up_in_child(args))
    return samples


def run_passes(workload, seconds: float, recorder=None) -> tuple[list, list, list[int]]:
    """Measured passes until the next would end after ``seconds``; with a
    recorder, untraced and traced passes alternate. Returns (untraced, traced,
    first span index of each traced pass)."""
    untraced, traced, marks = [], [], []
    start = perf_counter()
    while True:
        untraced.append(workload.run_pass())
        if recorder is not None:
            recorder.install()
            try:
                marks.append(len(recorder.names))
                traced.append(workload.run_pass(recorder))
            finally:
                recorder.uninstall()
        cycle = statistics.median(p.wall_s for p in untraced)
        if traced:
            cycle += statistics.median(p.wall_s for p in traced)
        if perf_counter() - start + cycle > seconds:
            return untraced, traced, marks


def end_to_end(name: str, setup: dict, passes: list) -> dict[str, tuple[float, str, str]]:
    """Every end-to-end figure: name -> (value, unit, sample description)."""
    refit = [t for p in passes for t in p.refit_s]
    walls = [p.wall_s for p in passes]
    out = {
        "setup_s": (setup["setup_s"], "s",
                    f"median of {len(setup['samples'])} set-ups (import, inputs, warm-up)"),
        "pass_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "refit_p50_ms": (1e3 * statistics.median(refit), "ms", f"median of {len(refit)} refits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB",
                        "ru_maxrss of the process"),
    }
    # Per-model and per-command figures, printed with their sample counts but not gated.
    if name == "csv-pipeline":
        for step in ("ingest", "fit", "forecast"):
            times = [t for p in passes for t in p.latencies[step]]
            out[f"cli_{step}_ms"] = (1e3 * statistics.median(times), "ms",
                                     f"median of {len(times)} calls")
    else:
        out["refit_p90_ms"] = (1e3 * percentile(refit, 90), "ms", f"p90 of {len(refit)} refits")
        for model in passes[0].latencies:
            lat = [t for p in passes for t in p.latencies[model]]
            key = model.lower().replace("-", "_")
            out[f"{key}_s"] = (sum(lat) / len(passes), "s", f"{len(lat) // len(passes)} windows per pass")
            out[f"{key}_p50_ms"] = (1e3 * statistics.median(lat), "ms", f"median of {len(lat)} windows")
            out[f"{key}_p90_ms"] = (1e3 * percentile(lat, 90), "ms", f"p90 of {len(lat)} windows")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    out["error_rate"] = (failed / attempted, "failed/attempted", f"{failed} of {attempted}")
    return out


def per_layer(workload, recorder, traced, untraced, setup_recorder) -> dict:
    """Per-layer figures of the traced passes, each per pass: name -> (value, unit, note)."""
    from spans import TRACED, WINDOW

    n = len(traced)
    table = recorder.table()
    out: dict[str, tuple[float, str, str]] = {}
    for _, _, span in TRACED + [(None, None, WINDOW)]:
        row = table.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{span}.calls"] = (row["calls"] / n, "count", "per pass")
        out[f"{span}.s"] = (row["s"] / n, "s", "inclusive, per pass")
        out[f"{span}.self_s"] = (row["self_s"] / n, "s", "minus child spans, per pass")
    for module in MODULES:
        total = sum(r["self_s"] for s, r in table.items() if s.startswith(module + "."))
        out[f"{module}.self_s"] = (total / n, "s", "sum of the module's span self times, per pass")

    counts = recorder.counts
    rows = counts["panel.ingest_csv.rows"]
    ingest_s = table.get("panel.ingest_csv", {}).get("s", 0.0)
    out["panel.ingest_csv.rows_per_s"] = (rows / ingest_s if ingest_s else 0.0, "rows/s", "CSV data rows")
    out["panel.write_npz.bytes"] = (counts["panel.write_npz.bytes"] / n, "bytes", "per pass")
    out["evaluation.emit_report.bytes"] = (counts["evaluation.emit_report.bytes"] / n, "bytes", "per pass")
    out["cli.forecast.csv_bytes"] = (counts["cli.forecast.csv_bytes"] / n, "bytes", "per pass")
    out["evaluation.window.failed"] = (recorder.failed[WINDOW] / n, "count", "per pass")
    gflop = counts["factor_model.initial_loadings.flop"] / n / 1e9
    moments_s = table.get("factor_model.initial_loadings", {}).get("s", 0.0) / n
    out["factor_model.initial_loadings.gflop"] = (gflop, "GFLOP", "computed from shapes, per pass")
    out["factor_model.initial_loadings.gbyte"] = (
        counts["factor_model.initial_loadings.bytes"] / n / 1e9, "GB", "computed from shapes, per pass")
    out["factor_model.initial_loadings.gflops"] = (
        gflop / moments_s if moments_s else 0.0, "GFLOP/s", "computed flops over the span's time")
    out["tensor.top_eigenvectors.gflop"] = (
        counts["tensor.top_eigenvectors.flop"] / n / 1e9, "GFLOP", "computed as 9 n^3 per call, per pass")
    for size in sorted(set(EIGH_SIZES) | set(recorder.eigh_sizes)):
        out[f"tensor.top_eigenvectors.n{size}.calls"] = (recorder.eigh_sizes[size] / n, "count",
                                                         f"{size}x{size} problems, per pass")

    windows = table.get(WINDOW, {}).get("calls", 0) // n
    for span in ("factor_model.initial_loadings", "forecast.forecast_series"):
        overall, by_model = recorder.calls_per_window(span, getattr(workload, "models", ()))
        out[f"{span}.calls_per_window"] = (overall, "count", f"over {windows} windows per pass")
        for model, value in by_model.items():
            out[f"{span}.calls_per_window.{model}"] = (value, "count", "per window")

    simulate = setup_recorder.table().get("evaluation.simulate", {"s": 0.0, "calls": 1})
    out["evaluation.simulate.s"] = (simulate["s"] / max(simulate["calls"], 1), "s", "one set-up")
    overhead = statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced)
    out["trace.overhead_s"] = (overhead, "s", f"traced minus untraced pass, medians of {n} and {len(untraced)}")
    return out


def check_spans(name: str, recorder, marks: list[int], setup_recorder) -> list[str]:
    """Spans expected on the workload that did not fire, and passes whose call
    counts differ from the first traced pass."""
    problems = []
    if "evaluation.simulate" not in setup_recorder.names:
        problems.append("set-up: expected span evaluation.simulate never fired")
    per_pass = recorder.calls_by_pass(marks)
    for i, counts in enumerate(per_pass):
        missing = [s for s in EXPECTED_SPANS[name] if counts[s] == 0]
        if missing:
            problems.append(f"traced pass {i}: expected spans never fired: {', '.join(missing)}")
        if counts != per_pass[0]:
            problems.append(f"traced pass {i}: call counts differ from traced pass 0")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "tensorcast" / "__init__.py").is_file():
        print(f"error: no tensorcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

    start = perf_counter()
    import tensorcast.cli  # noqa: F401  (the CLI is not imported by the package)
    import_s = perf_counter() - start

    import workloads
    from spans import SpanRecorder

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != workloads.REFERENCE_SEED:
        print(f"error: references are recorded for seed {workloads.REFERENCE_SEED} only",
              file=sys.stderr)
        return 2
    # A set-up process works in a directory of its own.
    work_dir = OUT_DIR / (args.workload + ("-setup" if args.setup_only else ""))
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.make_workload(args.workload, args.seed, work_dir)

    if args.record_reference:
        workload.generate()
        print(workload.record_reference())
        return 0
    setup_recorder = SpanRecorder()
    own = {"import_s": import_s, **set_up(workload, setup_recorder if args.trace else None)}
    own["setup_s"] = sum(own.values())
    if args.setup_only:
        print(json.dumps(own))
        return 0
    samples, reserve = [own], 0.0
    if not args.trace:  # a traced run reports no setup_s
        samples += set_up_in_children(args, SETUP_MIN_BEFORE)
        child_s = statistics.median(s["process_s"] for s in samples[1:])
        reserve = max(SETUP_MIN_AFTER * child_s, SETUP_SHARE * args.seconds + child_s)

    recorder = SpanRecorder() if args.trace else None
    csv_inputs = getattr(workload, "csv", None)
    if recorder is not None and csv_inputs is not None:
        recorder.csv_rows = {p.name: rows for p, rows in csv_inputs.rows_by_file.items()}
    untraced, traced, marks = run_passes(workload, args.seconds - reserve, recorder)
    if not args.trace:
        samples += set_up_in_children(args, SETUP_MIN_AFTER)
    setup = {"setup_s": statistics.median(s["setup_s"] for s in samples), "samples": samples}
    passes = untraced + traced
    figures = end_to_end(args.workload, setup, untraced)
    problems = [msg for p in passes for msg in p.problems]
    if recorder is not None:
        span_problems = check_spans(args.workload, recorder, marks, setup_recorder)
        figures = per_layer(workload, recorder, traced, untraced, setup_recorder)
        recorder.write(OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-spans.csv")
        if span_problems:
            for msg in span_problems:
                print(f"error: {msg}", file=sys.stderr)
            return 1

    info = manifest(args, workload)
    info["setup"] = setup
    mode = "per_layer" if args.trace else "end_to_end"
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"# manifest {json.dumps(info, sort_keys=True)}")
    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes; {failed} of {attempted} checked operations failed")
    for msg in problems[:20]:
        print(f"# failed: {msg}")
    for name, (value, unit, samples) in figures.items():
        print(f"{name:58s} {value:16.6f} {unit:16s} {samples}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[mode]
    mismatched = [m["name"] for m in declared
                  if m["name"] not in figures or figures[m["name"]][1] != m["unit"]]
    if mismatched:
        print(f"error: declared metrics not computed with their unit: {mismatched}",
              file=sys.stderr)
        return 1
    results = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": figures[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    (OUT_DIR / "results").mkdir(parents=True, exist_ok=True)
    (OUT_DIR / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"manifest": info, "figures": figures, "problems": problems, "result": results,
                    "samples": {"pass_s": [p.wall_s for p in untraced],
                                "refit_s": [t for p in untraced for t in p.refit_s]}},
                   indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
