"""Seed sweep: how often each stochastic check passes, and by how much.

Usage, from the repository root::

    python3 tools/seed_sweep.py [--seeds 1-40]

For each sweep seed ``s`` it runs

* one pass of the ``ou_d1`` benchmark workload, built by
  ``perfbench.workloads.OuD1(s, ...)`` (imported, never edited), and reads
  its checks;
* acceptance criteria 02-05 with their tolerances from
  ``tests/test_acceptance.py``, with every library seed set to ``s << 20``
  in place of the fixed seeds there.  Path ``p`` draws from stream
  ``seed XOR p``, so seeds that differ only in their low bits share most
  paths; shifting by 20 bits keeps the 100,000 paths of criterion 05 and
  the 2,000 of criterion 02 disjoint between sweep seeds.  The criteria's
  time limits are not swept.

It prints a Markdown table: per check, the pass rate, the worst margin and
its seed (margin = distance to the nearest bound, negative when failing, in
the check's own unit) and the median measured value; then each failing
seed with the check's detail.  Bounds and seeds are those of the checks: the
sweep reports, it changes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from embsde.diagnostics import moment_monte_carlo  # noqa: E402
from embsde.estimation import fit  # noqa: E402
from embsde.sde_model import (  # noqa: E402
    LinearSdeSpec,
    linear_sde_model,
    sample_linear_trajectories,
    simulate_ensemble,
)
from perfbench.workloads import OuD1  # noqa: E402
from tests.test_acceptance import OU_CONFIG, _epoch0_train_total  # noqa: E402

OU = LinearSdeSpec(a=-1.0, b=0.5, dim=1)
SEED_SHIFT = 20


def _within(value: float, low: float, high: float) -> float:
    return min(value - low, high - value)


# ou_d1 check -> margin of the first number in its detail text
OU_D1_MARGINS = {
    "drift_mae": lambda v: 0.15 - v,
    "sigma_avg": lambda v: _within(v, 0.375, 0.625),
    "mc_var_vs_ode": lambda v: OuD1.var_tolerance - v,
}
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def ou_d1_checks(seed: int, workdir: str) -> list[tuple[str, bool, float | None, float | None]]:
    """``(name, ok, value, margin)`` for every check of one ``ou_d1`` pass."""
    out = []
    for name, ok, detail in OuD1(seed, workdir).run_pass().checks:
        value = margin = None
        if name in OU_D1_MARGINS:
            value = float(_NUMBER.search(detail).group())
            margin = OU_D1_MARGINS[name](value)
        out.append((f"ou_d1 {name}", ok, value, margin))
    return out


def acceptance_checks(seed: int) -> list[tuple[str, bool, float, float]]:
    """Criteria 02-05 at library seed ``seed``, each part as ``(name, ok, value, margin)``."""
    config = dataclasses.replace(OU_CONFIG, seed=seed)
    data = sample_linear_trajectories(OU, 2000, 50, 0.02, seed=seed)
    model, records = fit(data, config)
    grid = np.linspace(-2.0, 2.0, 41)[:, None]
    mu, sigma = model.fields(grid, np.full(41, 0.5))
    drift_mae = float(np.mean(np.abs(mu + grid)))
    sigma_avg = float(np.mean(sigma))

    train = {r.epoch: r.total for r in records if r.split == "train"}
    val = {r.epoch: r.total for r in records if r.split == "validation"}
    epoch0 = _epoch0_train_total(data, config)
    lowered = epoch0 - train[max(train)]
    best = min(val, key=val.get)
    ratio = val[best] / train[best]

    report = moment_monte_carlo(linear_sde_model(OU), x0_mean=1.0, x0_var=0.0,
                                t_grid=np.linspace(0.0, 2.0, 401), n_paths=10_000,
                                seed=seed, reference=OU)
    se = math.sqrt(report.var_mc[200] / report.n_paths)
    mean_se = abs(float(report.mean_mc[200]) - math.exp(-1.0)) / se
    var_rel = abs(float(report.var_mc[400] - report.var_ode[400])) / float(report.var_ode[400])
    m, v = float(report.mean_mc[400]), float(report.var_mc[400])
    e3, e4 = float(report.higher_moments_mc[3][400]), float(report.higher_moments_mc[4][400])
    kurtosis = (e4 - 4 * m * e3 + 6 * m * m * (v + m * m) - 3 * m**4) / v**2

    dts = [0.1, 0.05, 0.025]
    errors = [abs(float(simulate_ensemble(linear_sde_model(OU), np.array([1.0]), 100_000,
                                          round(1.0 / dt), dt, seed=seed)[:, -1, 0].mean())
                  - math.exp(-1.0)) for dt in dts]
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])

    parts = [
        ("02 drift MAE", drift_mae, 0.15 - drift_mae),
        ("02 sigma avg", sigma_avg, _within(sigma_avg, 0.375, 0.625)),
        ("03 epoch-0 minus final train total", lowered, lowered),
        ("03 val/train at best epoch", ratio, _within(ratio, 0.5, 2.0)),
        ("04 mean error in SE", mean_se, 3.0 - mean_se),
        ("04 var rel error", var_rel, 0.10 - var_rel),
        ("04 kurtosis", kurtosis, _within(kurtosis, 2.5, 3.5)),
        ("05 weak-order slope", slope, _within(slope, 0.6, 1.4)),
    ]
    return [(f"criterion {name}", margin > 0, value, margin) for name, value, margin in parts]


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def table(rows: dict[str, list[tuple[int, bool, float | None, float | None]]]) -> str:
    lines = ["| check | pass rate | worst margin (seed) | median value |",
             "| --- | --- | --- | --- |"]
    for name, results in rows.items():
        passed = sum(ok for _, ok, _, _ in results)
        measured = [(margin, seed, value) for seed, _, value, margin in results
                    if margin is not None]
        if measured:
            margin, seed, _ = min(measured)
            worst = f"{margin:.4g} ({seed})"
            median = f"{statistics.median(value for _, _, value in measured):.4g}"
        else:
            worst = median = "-"
        lines.append(f"| {name} | {passed}/{len(results)} | {worst} | {median} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-40", help="first-last sweep seeds (default 1-40)")
    args = parser.parse_args(argv)

    rows: dict[str, list] = {}
    failures = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        for seed in seed_range(args.seeds):
            checks = ou_d1_checks(seed, workdir) + acceptance_checks(seed << SEED_SHIFT)
            for name, ok, value, margin in checks:
                rows.setdefault(name, []).append((seed, ok, value, margin))
                if not ok:
                    failures.append(f"seed {seed}: {name}" if value is None else
                                    f"seed {seed}: {name} = {value:.4g}, margin {margin:.4g}")
            print(f"seed {seed} done, {time.perf_counter() - start:.0f} s", file=sys.stderr)
    print(table(rows))
    print("\n".join(failures) or "no failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
