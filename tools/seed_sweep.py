"""Seed sweep: how often each stochastic check passes, and by how much.

Usage, from the repository root::

    python3 tools/seed_sweep.py [--seeds 1-40]

For each sweep seed ``s`` it runs

* one pass of the ``ou_d1`` benchmark workload, built by
  ``perfbench.workloads.OuD1(s, ...)`` (imported, never edited), and reads
  its checks;
* acceptance criteria 02-05 through the functions of
  ``tests/test_acceptance.py`` that measure and judge them, so their bounds,
  formulas and comparisons are the tests' own, with every library seed set
  to ``s << 20`` in place of the fixed seeds there.  Path ``p`` draws from
  stream ``seed XOR p``, so seeds that differ only in their low bits share
  most paths; shifting by 20 bits keeps the 100,000 paths of criterion 05
  and the 2,000 of criterion 02 disjoint between sweep seeds.  The
  criteria's time limits are not swept.

An ``ou_d1`` check's verdict is the workload's own; its value and bound are
read from the numbers in the check's detail text (``v < hi``, ``v <= hi`` or
``v in [lo, hi]``).  It prints a Markdown table: per check, the pass rate,
the worst margin and its seed (margin = distance to the nearest bound,
negative on the failing side, in the check's own unit) and the median
measured value; then each failing seed with the check's detail.  Bounds and
seeds are those of the checks: the sweep reports, it changes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import OuD1  # noqa: E402
from tests.test_acceptance import (  # noqa: E402
    OU_CONFIG,
    criterion_02_parts,
    criterion_03_parts,
    criterion_04_parts,
    criterion_05_parts,
    ou_fit,
)

SEED_SHIFT = 20
_NUMBER = r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?"
_BOUNDED = re.compile(rf"({_NUMBER}) (?:<=? ({_NUMBER})|in \[({_NUMBER}), ({_NUMBER})\])")


def value_and_margin(detail: str) -> tuple[float, float]:
    """The value a check's detail text states and its distance to the stated bound."""
    match = _BOUNDED.search(detail)
    if match is None:  # a reworded check stops the sweep rather than leave its table
        raise ValueError(f"no bound in check detail {detail!r}")
    value, high, low, top = (None if g is None else float(g) for g in match.groups())
    return value, high - value if high is not None else min(value - low, top - value)


def ou_d1_checks(seed: int, workdir: str) -> list[tuple[str, bool, float | None, float | None]]:
    """``(name, ok, value, margin)`` for every check of one ``ou_d1`` pass."""
    return [(f"ou_d1 {name}", ok, *(value_and_margin(detail) if detail else (None, None)))
            for name, ok, detail in OuD1(seed, workdir).run_pass().checks]


def acceptance_checks(seed: int) -> list[tuple[str, bool, float, float]]:
    """Criteria 02-05 at library seed ``seed``, each part as ``(name, ok, value, margin)``."""
    config = dataclasses.replace(OU_CONFIG, seed=seed)
    data, model, records = ou_fit(seed, config)
    criteria = {"02": criterion_02_parts(model), "03": criterion_03_parts(data, records, config),
                "04": criterion_04_parts(seed), "05": criterion_05_parts(seed)}
    return [(f"criterion {num} {part.name}", part.ok, part.value, part.margin)
            for num, (parts, _) in criteria.items() for part in parts]


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
