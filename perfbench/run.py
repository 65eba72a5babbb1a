"""embsde benchmark: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ou_d1 --seed 1 --seconds 30 --trace 0

``--workload`` is ``ou_d1``, ``ensemble_d64``, ``corpus_d768`` or ``all``.
Inputs are generated from ``--seed``.  Passes run for about ``--seconds``
and at least the workload's minimum number of passes run.  With
``--trace 0`` the result carries the end-to-end metrics, with ``--trace 1``
the per-layer metrics from a traced run (see ``BENCHMARK.json``).

Each workload runs in a fresh worker process with one BLAS thread, the same
on every machine.  The set-up (interpreter start, imports, input
generation) is timed from process start to the worker's ``ready`` line; an
untraced run starts four set-up-only processes before the measuring one and
reports the median of the five.  Details (environment, checks, fail ratio,
fingerprints, absent trace names) go to stdout as one JSON line and, with
the spans of a traced run, to ``.perfbench_out/``; the last stdout line is
the result::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ou_d1", "ensemble_d64", "corpus_d768")
BLAS_THREADS = "1"
SETUP_PROBES = 4
TIMEOUT_S = 170.0


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def start_worker(args: list[str], env: dict, deadline: float):
    """Start a worker and wait for its ``ready`` line; returns (process, set-up s)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        finish(proc, deadline)
        raise RuntimeError(f"worker did not start (exit code {proc.returncode})")
    return proc, setup_s


def finish(proc, deadline: float) -> int:
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()
    return proc.returncode


def run_workload(name: str, seed: int, seconds: float, trace: int, root: str) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    env = child_env(root)
    out_dir = os.path.join(root, ".perfbench_out")
    workdir = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(workdir, exist_ok=True)
    out = os.path.join(out_dir, f"{name}-seed{seed}-trace{trace}.json")
    if os.path.exists(out):
        os.remove(out)
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    try:
        setups = []
        for _ in range(0 if trace else SETUP_PROBES):
            proc, setup_s = start_worker([*common, "--setup-only"], env, deadline)
            setups.append(setup_s)
            if finish(proc, deadline) != 0:
                raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        proc, setup_s = start_worker(
            [*common, "--seconds", str(seconds), "--trace", str(trace), "--out", out],
            env, deadline)
        setups.append(setup_s)
        if finish(proc, deadline) != 0 or not os.path.exists(out):
            raise RuntimeError(f"worker exited with {proc.returncode}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    if not trace:
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    result["detail"]["setup_samples_s"] = setups
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="embsde benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "embsde", "__init__.py")):
        print("perfbench: run from the repository root (src/embsde not found)", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, root)
        except RuntimeError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(result["detail"], sort_keys=True))
        for metric, (value, unit) in sorted(result["metrics"].items()):
            print(f"{name} {metric} {value:.6g} {unit}")
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()},
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
