"""One workload in its own process: set-up, timed passes, then a result file.

``run.py`` starts this script with the package on ``PYTHONPATH`` and the
BLAS thread count fixed.  The script imports the package and builds the
workload's inputs (the set-up), prints ``ready`` on stdout so the parent can
time the set-up, and with ``--setup-only`` exits there.  Otherwise it runs
passes until ``--seconds`` have gone by and the workload's minimum number of
passes is done, and writes metrics, checks and details as JSON to ``--out``.

With ``--trace 1`` passes alternate untraced and traced (untraced first);
the untraced ones give the wall time the tracing overhead is taken against
and the traced ones give the per-layer metrics.  The ``ou_d1`` traced run
also computes the ROADMAP determinism fingerprints.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from tracer import MODULES, Tracer
from workloads import WORKLOADS

# tracer groups reported as <group>.calls and <group>.self_s; times are medians
# over traced passes, counts come from one pass and repeat exactly for a seed
CALL_GROUPS = (
    "numeric_core.shuffle", "numeric_core.pca", "mlp.forward", "mlp.backward", "mlp.sgd_step",
    "estimation.eval", "estimation.extract", "sde_model.simulate_ensemble",
    "sde_model.fields",
    "cli_io.save_trajectories", "cli_io.load_trajectories", "cli_io.save_model",
    "cli_io.load_model", "cli_io.toy_embed",
    "cli.train", "cli.losses", "cli.diagnose", "cli.field", "cli.importance", "cli.simulate",
    "cli.answer",
)
SELF_GROUPS = CALL_GROUPS + (
    "numeric_core.normals", "estimation.fit",
    "diagnostics.moment_mc", "diagnostics.regularity", "diagnostics.lyapunov",
    "diagnostics.vector_field",
)
COUNTS = {
    "numeric_core.shuffle.items": "count",
    "numeric_core.normals.count": "count",
    "numeric_core.pca.dim": "count",
    "mlp.forward.rows": "count",
    "sde_model.simulate_ensemble.path_steps": "count",
    "cli_io.save_trajectories.bytes": "bytes",
    "cli_io.load_trajectories.bytes": "bytes",
    "cli_io.save_model.bytes": "bytes",
    "cli_io.load_model.bytes": "bytes",
}
# counts computed from shapes or file sizes, not timed: they repeat exactly
COMPUTED = ("mlp.gflop", "numeric_core.normals.count", "cli_io.save_trajectories.bytes",
            "cli_io.load_trajectories.bytes", "cli_io.save_model.bytes", "cli_io.load_model.bytes")


def layer_snapshot(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass."""
    values = {}
    for group in CALL_GROUPS:
        values[f"{group}.calls"] = (tracer.calls[group], "count")
    values["sde_model.simulate.calls"] = (tracer.calls["sde_model.simulate"], "count")
    for group in SELF_GROUPS:
        values[f"{group}.self_s"] = (tracer.self_s[group], "s")
    for layer in MODULES:
        values[f"{layer}.self_s"] = (
            sum(v for g, v in tracer.self_s.items() if g.split(".")[0] == layer), "s")
    for name, unit in COUNTS.items():
        values[name] = (tracer.counts[name], unit)
    gflop = tracer.counts["mlp.flop"] / 1e9
    mlp_s = tracer.self_s["mlp.forward"] + tracer.self_s["mlp.backward"]
    values["mlp.gflop"] = (gflop, "gflop")
    values["mlp.gflop_per_s"] = (gflop / mlp_s if mlp_s > 0 else 0.0, "gflop/s")
    values["estimation.batches"] = (tracer.calls["mlp.sgd_step"] / 2, "count")
    return values


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def end_to_end(passes: list) -> dict:
    sims = [steps / seconds for r in passes for steps, seconds in r.sim]
    answers_ms = [1e3 * s for r in passes for s in r.answer_s]
    return {
        "wall_s": (statistics.median(r.wall_s for r in passes), "s"),
        "fit_samples_per_s": (
            statistics.median(r.fit_samples / r.fit_s for r in passes), "transitions/s"),
        "sim_path_steps_per_s": (statistics.median(sims), "path-steps/s"),
        "verify_s": (statistics.median(r.verify_s for r in passes), "s"),
        "answer_p50_ms": (percentile(answers_ms, 50), "ms"),
        "answer_p90_ms": (percentile(answers_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(traced: list, untraced: list, tracer: Tracer) -> dict:
    snaps = [r.layers for r in traced]
    values = {}
    for name, (value, unit) in snaps[0].items():
        if unit in ("s", "gflop/s"):
            value = statistics.median(s[name][0] for s in snaps)
        values[name] = (value, unit)
    untraced_wall = statistics.median(r.wall_s for r in untraced)
    traced_wall = statistics.median(r.wall_s for r in traced)
    values["trace_overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")
    values["trace.absent"] = (len(tracer.absent), "count")
    return values


def run_passes(workload, seconds: float, tracer: Tracer | None, log) -> tuple[list, list, int]:
    """Run passes until about ``seconds`` have gone by.

    Returns (untraced, traced, failed passes).
    """
    untraced, traced, failed = [], [], 0
    start = time.perf_counter()
    index = 0
    while True:
        trace_this = tracer is not None and index % 2 == 1
        index += 1
        if trace_this:
            tracer.reset_totals()
            tracer.install()
        try:
            result = workload.run_pass()
        except Exception:  # a failed pass is counted, reported and the run goes on
            failed += 1
            traceback.print_exc(file=log)
            result = None
        finally:
            if trace_this:
                tracer.uninstall()
        if result is not None:
            if trace_this:
                result.layers = layer_snapshot(tracer)
                traced.append(result)
            else:
                untraced.append(result)
        done = len(untraced) + len(traced) + failed
        enough = (len(traced) >= 1 and len(untraced) >= 1) if tracer is not None \
            else done >= workload.min_passes
        elapsed = time.perf_counter() - start
        # stop once a next pass would end more than half a pass after the time is up
        if enough and elapsed * (done + 0.5) / done >= seconds:
            return untraced, traced, failed
        if done >= 4 * max(workload.min_passes, 2) and not (untraced or traced):
            return untraced, traced, failed  # every pass fails: stop early


def environment(seed: int) -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        untraced, traced, failed_passes = run_passes(workload, args.seconds, tracer, sys.stderr)
        fingerprints = workload.fingerprints() if args.trace and hasattr(
            workload, "fingerprints") else None
    passes = untraced + traced
    if not untraced or (tracer and not traced):
        print(f"{args.workload}: every pass of a kind failed", file=sys.stderr)
        return 1

    checks = [c for r in passes for c in r.checks]
    for key in passes[0].hashes:
        found = sorted({r.hashes[key] for r in passes})
        checks.append((f"repeat_{key}_hash", len(found) == 1, ",".join(found)))
    failed_checks = [c for c in checks if not c[1]]
    ops = sum(r.ops for r in passes) + failed_passes
    attempted = ops + len(checks)
    failed = failed_passes + len(failed_checks)

    metrics = per_layer(traced, untraced, tracer) if tracer else end_to_end(untraced)
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed),
        "passes": {"untraced": len(untraced), "traced": len(traced), "failed": failed_passes},
        "pass_wall_s": [r.wall_s for r in passes],
        "answer_samples": sum(len(r.answer_s) for r in untraced),
        "fail_ratio": failed / attempted,
        "failed_checks": failed_checks,
        "checks_first_pass": passes[0].checks,
        "hashes": passes[0].hashes,
    }
    if tracer:
        detail["absent"] = tracer.absent
        detail["counter_errors"] = tracer.counter_errors
        detail["computed"] = list(COMPUTED)
        detail["spans"] = tracer.n_spans
        detail["counts_repeat"] = all(
            r.layers[name] == traced[0].layers[name]
            for r in traced for name, (_, unit) in r.layers.items()
            if unit in ("count", "bytes", "gflop"))
    if fingerprints is not None:
        detail["fingerprints"] = fingerprints
    result = {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    if tracer:
        tracer.write_spans(args.out[: -len(".json")] + "-spans.jsonl")
    return 0


if __name__ == "__main__":
    sys.exit(main())
