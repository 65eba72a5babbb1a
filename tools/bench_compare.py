"""Paired benchmark runs of a base revision and the working tree, written as one JSON file.

Usage, from the repository root::

    python3 tools/bench_compare.py --base REV --runs 10 --seeds 101 --out BENCH_<N>.json

Both sides are extracted under the ignored ``.perfbench_work/`` into
``base/`` (``git archive REV``) and ``head/`` (the files ``git ls-files``
lists as tracked or untracked-but-not-ignored, as they are on disk), so the
two checkouts sit at paths of equal length.  Pair ``i`` runs each
checkout's ``perfbench/run.py --workload all --trace 0`` for
``BENCHMARK.json``'s ``run_seconds`` at seed ``seeds[i]``, the base first
when ``i`` is even; one ``--seeds`` value ``S`` stands for ``S, S+1, ...``.
Each side then makes one traced run (base first) at the seed after the
largest, which gives the per-layer metrics and the ``ou_d1`` fingerprints.
Last, each side runs ``tools/equivalence.py``, where it has one.

The output follows ``BENCH_25.json``: per workload and end-to-end metric,
both sides' runs, medians and quartiles, the ratio of medians, whether it
lies within the ``BENCHMARK.json`` bound, the change's wins out of the pairs
(ties count for neither) and whether the gap of medians exceeds the base's
interquartile range; per pair, whether outputs and failed checks agree; the
traced runs; and both equivalence manifest digests.  The tool reports these
facts and decides nothing: its exit code says only whether every run
completed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench_work"
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def extract(rev: str) -> dict[str, Path]:
    """Fresh ``base`` (``rev``) and ``head`` (working tree) checkouts under ``WORK``."""
    dirs = {"parent": WORK / "base", "change": WORK / "head"}
    for path in dirs.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dirs["parent"])], check=True,
                   input=git("archive", "--format=tar", rev))
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0"):
        source = ROOT / os.fsdecode(name)
        if name and source.is_file():
            target = dirs["change"] / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return dirs


def run_bench(checkout: Path, seed: int, seconds: float, trace: int) -> dict:
    """``{workload: {"detail", "result"}}`` from one ``perfbench/run.py`` run of every workload."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return parse_run_output(proc.stdout)


def parse_run_output(stdout: str) -> dict:
    """Pair each workload's JSON detail line with the result line that follows it."""
    out, detail = {}, None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "correct" in record:
            out[detail["workload"]] = {"detail": detail, "result": record}
        else:
            detail = record
    return out


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def compare_metric(spec: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric over paired runs, as facts against ``spec``'s bound."""
    lower = spec["better"] == "lower"
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    ratio = sides["change"]["median"] / sides["parent"]["median"]
    wins = sum(c < p if lower else c > p for p, c in zip(parent, change, strict=True))
    gap = abs(sides["change"]["median"] - sides["parent"]["median"])
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"], **sides,
        "ratio_change_over_parent": ratio,
        "within_bound": ratio <= 1 + spec["bound"] if lower else ratio >= 1 - spec["bound"],
        "change_wins": f"{wins}/{len(parent)}",
        "median_gap_exceeds_parent_iqr": gap > sides["parent"]["q3"] - sides["parent"]["q1"],
    }


def end_to_end(specs: list[dict], pairs: list[dict]) -> dict:
    out = {}
    for workload in pairs[0]["parent"]:
        metrics = {side: [p[side][workload]["result"]["metrics"] for p in pairs] for side in SIDES}
        out[workload] = {
            spec["name"]: compare_metric(
                spec, *([m[spec["name"]]["value"] for m in metrics[side]] for side in SIDES))
            for spec in specs if spec["name"] in metrics["parent"][0]
        }
    return out


def same_outputs(seeds: list[int], pairs: list[dict]) -> dict:
    out = {}
    for workload in pairs[0]["parent"]:
        rows = []
        for seed, pair in zip(seeds, pairs):
            parent, change = (pair[side][workload] for side in SIDES)
            rows.append({
                "seed": seed,
                "hashes_equal": parent["detail"]["hashes"] == change["detail"]["hashes"],
                "failed_checks_equal":
                    parent["detail"]["failed_checks"] == change["detail"]["failed_checks"],
                "failed_checks": change["detail"]["failed_checks"],
                "attempted": [pair[side][workload]["result"]["attempted"] for side in SIDES],
                "failed": [pair[side][workload]["result"]["failed"] for side in SIDES],
            })
        out[workload] = rows
    return out


def traced_summary(seed: int, runs: dict) -> dict:
    out = {}
    for side in SIDES:
        details = {w: r["detail"] for w, r in runs[side].items()}
        out[side] = {
            "seed": seed,
            "fingerprints": details.get("ou_d1", {}).get("fingerprints"),
            "absent": {w: d.get("absent") for w, d in details.items()},
            "per_layer": {w: {m: v["value"] for m, v in r["result"]["metrics"].items()}
                          for w, r in runs[side].items()},
        }
    # counted, not timed: these repeat exactly for a seed, so any difference is a change in work
    out["counts_equal"] = {
        w: {m: v["value"] == runs["change"][w]["result"]["metrics"].get(m, {}).get("value")
            for m, v in r["result"]["metrics"].items() if v["unit"] in ("count", "bytes", "gflop")}
        for w, r in runs["parent"].items()
    }
    return out


def equivalence(dirs: dict[str, Path]) -> dict | None:
    manifests = {}
    for side, checkout in dirs.items():
        tool = checkout / "tools" / "equivalence.py"
        if not tool.is_file():
            return None
        out = checkout / ".perfbench_out" / "equivalence.json"
        out.parent.mkdir(exist_ok=True)
        subprocess.run([sys.executable, str(tool), "--out", str(out)], cwd=checkout, check=True,
                       capture_output=True)
        manifests[side] = out.read_bytes()
    parent, change = (json.loads(manifests[side]) for side in SIDES)
    return {
        "command": "python3 tools/equivalence.py --out PATH, run in each extracted checkout",
        "entries": len(change),
        **{f"{side}_manifest_sha256": hashlib.sha256(manifests[side]).hexdigest()
           for side in SIDES},
        "identical": manifests["parent"] == manifests["change"],
        "differing": sorted(k for k in parent.keys() | change.keys()
                            if parent.get(k) != change.get(k)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--runs", type=int, required=True, help="number of pairs")
    parser.add_argument("--seeds", type=int, nargs="+", required=True,
                        help="one seed per pair, or the first of consecutive seeds")
    parser.add_argument("--out", required=True, help="where to write the JSON report")
    args = parser.parse_args(argv)
    seeds = args.seeds if len(args.seeds) > 1 else [args.seeds[0] + i for i in range(args.runs)]
    if len(seeds) != args.runs:
        parser.error(f"{len(seeds)} seeds for {args.runs} runs")
    traced_seed = max(seeds) + 1
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    base = git("rev-parse", "--short", args.base).decode().strip()
    head = git("rev-parse", "--short", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain").strip())
    dirs = extract(args.base)
    try:
        pairs = []
        for i, seed in enumerate(seeds):
            pair = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                pair[side] = run_bench(dirs[side], seed, seconds, 0)
                print(f"pair {i} seed {seed}: {side} done", file=sys.stderr, flush=True)
            pairs.append(pair)
        traced = traced_summary(traced_seed, {
            side: run_bench(dirs[side], traced_seed, seconds, 1) for side in SIDES})
        manifests = equivalence(dirs)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 1
    finally:
        for path in dirs.values():
            shutil.rmtree(path, ignore_errors=True)

    command = f"python3 perfbench/run.py --workload all --seed S --seconds {seconds:g} --trace"
    environment = next(iter(pairs[0]["change"].values()))["detail"]["environment"]
    report = {
        "parent": base,
        "change": f"{head} with uncommitted changes" if dirty else head,
        "environment": {k: v for k, v in environment.items() if k != "seed"},
        "commands": {
            "untraced_pair": f"{command} 0",
            "traced": f"{command} 1".replace(" S ", f" {traced_seed} "),
            "procedure": f"python3 tools/bench_compare.py --base {args.base} --runs {args.runs} "
                         f"--seeds {' '.join(map(str, args.seeds))}: parent = git archive of "
                         f"{base}, change = the working tree's tracked and unignored files, "
                         "each extracted under .perfbench_work/ at paths of equal length; "
                         "after the pairs, one traced run per side (parent first)",
        },
        "pairs": {"count": len(seeds), "seeds": seeds,
                  "order": "pair i (0-based) runs the parent first when i is even"},
        "fingerprints": {side: traced[side]["fingerprints"] for side in SIDES},
        "end_to_end": end_to_end(benchmark["end_to_end"], pairs),
        "same_outputs": same_outputs(seeds, pairs),
        "traced": traced,
        "equivalence": manifests,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for workload, metrics in report["end_to_end"].items():
        for name, m in metrics.items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g}"
                  f" (x{m['ratio_change_over_parent']:.3f}, wins {m['change_wins']}, "
                  f"parent IQR {m['parent']['q3'] - m['parent']['q1']:.3g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
