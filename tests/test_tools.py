"""The benchmark comparison and seed sweep tools: their pure summaries."""

import importlib.util
import json
from pathlib import Path

import pytest


def _tool(name: str):
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench_compare():
    return _tool("bench_compare")


class TestBenchCompare:
    def test_lower_is_better_counts_wins_without_ties(self, bench_compare):
        spec = {"unit": "ms", "better": "lower", "bound": 0.25}
        row = bench_compare.compare_metric(spec, [10.0, 11.0, 12.0, 13.0, 14.0],
                                           [9.0, 11.0, 11.0, 12.0, 13.0])
        assert row["change_wins"] == "4/5"
        assert (row["parent"]["median"], row["parent"]["q1"], row["parent"]["q3"]) == (12, 11, 13)
        assert row["ratio_change_over_parent"] == 11 / 12
        assert row["within_bound"] and not row["median_gap_exceeds_parent_iqr"]

    def test_higher_is_better_judged_against_its_bound(self, bench_compare):
        spec = {"unit": "1/s", "better": "higher", "bound": 0.25}
        worse = bench_compare.compare_metric(spec, [100.0, 100.0], [74.0, 74.0])
        assert worse["change_wins"] == "0/2" and not worse["within_bound"]
        assert worse["median_gap_exceeds_parent_iqr"]
        assert bench_compare.compare_metric(spec, [100.0, 100.0], [76.0, 76.0])["within_bound"]

    def test_parse_run_output_pairs_each_detail_with_its_result(self, bench_compare):
        lines = []
        for name in ("ou_d1", "corpus_d768"):
            lines += [json.dumps({"workload": name, "hashes": {"x": name}}),
                      f"{name} wall_s 1.5 s",
                      json.dumps({"correct": True, "attempted": 3, "failed": 0,
                                  "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}})]
        parsed = bench_compare.parse_run_output("\n".join(lines))
        assert list(parsed) == ["ou_d1", "corpus_d768"]
        assert parsed["corpus_d768"]["detail"]["hashes"] == {"x": "corpus_d768"}
        assert parsed["ou_d1"]["result"]["metrics"]["wall_s"]["value"] == 1.5


def test_seed_sweep_table_reports_pass_rate_and_worst_margin():
    sweep = _tool("seed_sweep")
    assert sweep.seed_range("3-5") == [3, 4, 5] and sweep.seed_range("7") == [7]
    table = sweep.table({
        "drift": [(1, True, 0.1, 0.05), (2, False, 0.2, -0.05), (3, True, 0.12, 0.03)],
        "finite": [(1, True, None, None), (2, True, None, None)],
    }).splitlines()
    assert table[2] == "| drift | 2/3 | -0.05 (2) | 0.12 |"
    assert table[3] == "| finite | 2/2 | - | - |"
