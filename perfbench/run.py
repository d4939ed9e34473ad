"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload pme1d_source --seed 1 --seconds 40 --trace 0

Run from the repository root.  With ``--trace 0`` it times set-up (several
fresh processes, median) and repeats the untraced pipeline closed-loop, one
at a time, for ``--seconds``, checking every output; the last stdout line is
a JSON object with the end-to-end metrics.  With ``--trace 1`` it alternates
untraced and traced pipelines and reports the per-layer metrics instead,
writing the spans of the first traced pipeline to ``.bench_out/`` at exit.
``--short`` shrinks every grid (used by the self-tests).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:  # one thread, set before numpy is imported
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "holderlab"
OUT_DIR = Path(".bench_out")
SETUP_REPEATS = 7
LAYERS = ("exponents", "fields", "solvers", "geometry", "lab")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--short", action="store_true", help="small grids, for the self-tests")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"error: holderlab sources not found at {PACKAGE}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def time_setup(args) -> list[float]:
    """Wall time of fresh processes that import the package and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    if args.short:
        cmd.append("--short")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def run_once(workload, tracer=None):
    """One pipeline (timed) and its checks.  Returns (seconds, output, info, failures)."""
    out = None
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run()
        else:
            tracer.install()
            try:
                with tracer.span("pipeline"):
                    out = workload.run(tracer)
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        info, failures = workload.check(out)
        info["cpu_s"] = cpu
    except Exception as exc:  # a failed pipeline is counted, not fatal
        return time.perf_counter() - start, out, {}, [f"{type(exc).__name__}: {exc}"]
    return elapsed, out, info, failures


def per_layer_metrics(workload, out_counts, summary, overhead_s):
    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    layer_self = {layer: sum(row["self_s"] for name, row in summary.items()
                             if name.startswith(layer + "."))
                  for layer in LAYERS}
    sharp = "exponents.sharp_exponents"
    return {
        "exponents.sharp_exponents_us": (1e6 * total(sharp) / max(calls(sharp), 1), "us"),
        "exponents.self_s": (layer_self["exponents"], "s"),
        "fields.self_s": (layer_self["fields"], "s"),
        "fields.interp_calls": (calls("fields.SpaceTimeField.interp"), "count"),
        "fields.interp_s": (self_s("fields.SpaceTimeField.interp"), "s"),
        "fields.eval_nodes_calls": (calls("fields.SourceTerm.eval_nodes"), "count"),
        "fields.io_mb": (out_counts["io_bytes"] / 1e6, "MB"),
        "solvers.self_s": (layer_self["solvers"], "s"),
        "solvers.substeps": (workload.substeps(summary), "count"),
        "geometry.self_s": (layer_self["geometry"], "s"),
        "geometry.apply_scaling_calls": (calls("geometry.apply_scaling"), "count"),
        "geometry.sup_oscillation_s": (total("geometry.sup_oscillation"), "s"),
        "lab.self_s": (layer_self["lab"], "s"),
        "lab.ladder_levels": (out_counts["ladder_levels"], "count"),
        "lab.oscillation_profile_self_s": (self_s("lab.oscillation_profile"), "s"),
        "lab.fit_exponent_s": (total("lab.fit_exponent"), "s"),
        "bench.glue_s": (self_s("pipeline"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (sum(row["calls"] for row in summary.values()), "count"),
    }


def environment(args) -> dict:
    import numpy as np

    return {"machine": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__, "seed": args.seed,
            "threads": {var: os.environ[var] for var in THREAD_VARS}}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    make = WORKLOADS[args.workload]
    if args.setup_only:
        make(args.seed, short=args.short, workdir=OUT_DIR)
        return 0

    setup_times = time_setup(args) if args.trace == 0 else []
    workload = make(args.seed, short=args.short, workdir=OUT_DIR)
    print(json.dumps({"environment": environment(args)}))

    from spans import Tracer, write_spans

    tracer = Tracer()
    untraced, traced, rows, failed = [], [], [], 0
    first_summary = first_counts = first_spans = None
    min_rows = 2 if args.trace == 1 else 1  # a traced run needs one of each kind
    start, lap = time.perf_counter(), 0.0
    # stop before a pipeline that would end past --seconds, judged by the last one
    while len(rows) < min_rows or time.perf_counter() - start + lap <= args.seconds:
        lap_start = time.perf_counter()
        use_trace = args.trace == 1 and len(rows) % 2 == 1
        if use_trace:
            tracer.reset()
        seconds, out, info, failures = run_once(workload, tracer if use_trace else None)
        lap = time.perf_counter() - lap_start
        # keep only counts, so one pipeline's output is alive at a time
        out_counts = out and {"io_bytes": out.extra.get("io_bytes", 0),
                              "ladder_levels": len(out.profile.levels)}
        del out
        failed += bool(failures)
        rows.append({"traced": use_trace, "pipeline_s": seconds, **info, "failures": failures})
        print(json.dumps(rows[-1]), flush=True)
        if failures:
            continue
        (traced if use_trace else untraced).append(seconds)
        if use_trace:
            summary = tracer.summary()
            if first_summary is None:
                first_summary, first_counts, first_spans = summary, out_counts, tracer.spans
            traced_layers = per_layer_metrics(workload, out_counts, summary, 0.0)
            rows[-1]["layers"] = {k: v for k, (v, _unit) in traced_layers.items()}

    attempted = len(rows)
    correct = failed == 0
    if args.trace == 0:
        ok = [r for r in rows if not r["failures"]] or rows
        metrics = {
            "pipeline_s": (statistics.median(untraced or [r["pipeline_s"] for r in rows]), "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "solution_err": (statistics.median(r.get("solution_err", float("nan")) for r in ok), "1"),
            "exponent_err": (statistics.median(r.get("exponent_err", float("nan")) for r in ok), "1"),
            "pass_share": ((attempted - failed) / attempted, "1"),
        }
    else:
        if first_summary is None or not untraced:
            print("error: no successful traced and untraced pipeline pair", file=sys.stderr)
            return 1
        layer_rows = [r["layers"] for r in rows if "layers" in r]
        traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
        metrics = per_layer_metrics(workload, first_counts, first_summary, traced_s - untraced_s)
        for name, (value, unit) in metrics.items():
            if unit in ("s", "us") and name != "trace.overhead_s":
                metrics[name] = (statistics.median(r[name] for r in layer_rows), unit)
        for name, row in sorted(first_summary.items()):
            print(json.dumps({"span": name, **row}))
        write_spans(first_spans, OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        layer_total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        print(json.dumps({"accounting": {
            "untraced_pipeline_s": untraced_s, "traced_pipeline_s": traced_s,
            "layer_self_s": layer_total, "bench.glue_s": metrics["bench.glue_s"][0],
            "trace.overhead_s": metrics["trace.overhead_s"][0]}}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
