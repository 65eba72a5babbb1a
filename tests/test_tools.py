"""The benchmark comparison, seed sweep and equivalence tools: their pure parts."""

import ast
import json
import sys
from pathlib import Path

import numpy as np
import pytest


@pytest.fixture(scope="module")
def bench_compare(tool):
    return tool("bench_compare")


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


@pytest.fixture(scope="module")
def seed_sweep(tool):
    return tool("seed_sweep")


class TestSeedSweep:
    def test_table_reports_pass_rate_and_worst_margin(self, seed_sweep):
        assert seed_sweep.seed_range("3-5") == [3, 4, 5] and seed_sweep.seed_range("7") == [7]
        table = seed_sweep.table({
            "drift": [(1, True, 0.1, 0.05), (2, False, 0.2, -0.05), (3, True, 0.12, 0.03)],
            "finite": [(1, True, None, None), (2, True, None, None)],
        }).splitlines()
        assert table[2] == "| drift | 2/3 | -0.05 (2) | 0.12 |"
        assert table[3] == "| finite | 2/2 | - | - |"

    @pytest.mark.parametrize("detail, value, margin", [
        ("0.1429 < 0.15", 0.1429, 0.15 - 0.1429),
        ("0.5198 in [0.375, 0.625]", 0.5198, 0.625 - 0.5198),
        ("0.3800 in [0.375, 0.625]", 0.38, 0.38 - 0.375),
        ("max relative error 0.3546 <= 0.25", 0.3546, 0.25 - 0.3546),
    ])
    def test_ou_d1_detail_gives_value_and_margin(self, seed_sweep, detail, value, margin):
        assert seed_sweep.value_and_margin(detail) == (value, margin)

    def test_detail_without_a_bound_is_an_error(self, seed_sweep):
        with pytest.raises(ValueError, match="exit code 0"):
            seed_sweep.value_and_margin("exit code 0")

    @pytest.mark.parametrize("sample", [0.1, 0.2, 0.5, 0.7])
    def test_reads_the_ou_d1_checks_as_the_workload_words_them(self, seed_sweep, sample):
        # the verdict and detail expressions of every OuD1 check with detail text, compiled
        # from perfbench/workloads.py, so rewording a check there breaks this test
        source = (Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py").read_text()
        ou_d1 = next(node for node in ast.parse(source).body
                     if isinstance(node, ast.ClassDef) and node.name == "OuD1")
        checks = {call.args[0].value: call.args[1:] for call in ast.walk(ou_d1)
                  if isinstance(call, ast.Call) and getattr(call.func, "attr", "") == "check"
                  and len(call.args) == 3}
        assert set(checks) == {"drift_mae", "sigma_avg", "mc_var_vs_ode"}
        for name, (verdict, detail) in checks.items():
            scope = {node.id: sample for node in ast.walk(detail) if isinstance(node, ast.Name)}
            scope["self"] = seed_sweep.OuD1
            ok, text = (eval(compile(ast.Expression(expr), "workloads.py", "eval"), scope)
                        for expr in (verdict, detail))
            value, margin = seed_sweep.value_and_margin(text)
            assert value == pytest.approx(sample, abs=5e-5), name
            assert (margin > 0) == ok, name

    def test_parts_at_a_bound_are_judged_as_the_tests_judge_them(self, seed_sweep):
        acceptance = sys.modules[seed_sweep.criterion_02_parts.__module__]

        class AtSigmaBound:  # drift exactly -x, sigma exactly the inclusive lower bound
            def drift(self, xs, ts):
                return -xs

            def diffusion(self, xs, ts):
                return np.full_like(xs, 0.375)

        parts, _ = seed_sweep.criterion_02_parts(AtSigmaBound())
        assert parts == [("drift MAE", 0.0, True, 0.15), ("sigma avg", 0.375, True, 0.0)]
        # an upper limit is strict: a drift MAE of exactly 0.15 fails
        assert acceptance._below("drift MAE", 0.15, 0.15) == ("drift MAE", 0.15, False, 0.0)


def test_readme_block_holds_the_walkthrough_lines(tool):
    equivalence = tool("equivalence")
    block = equivalence.readme_block("## CLI walkthrough", "sh")
    assert block.startswith("# 200 one-dimensional") and block.endswith("--seed 4\n")
    lines = equivalence.readme_walkthrough()
    assert [line.split()[1] for line in lines] == [
        "synth-ou", "train", "train", "losses", "diagnose", "'[0.5]'", "simulate", "answer"]
    flat = " ".join(block.replace("\\\n", " ").split())
    assert all(" ".join(line.split()) in flat for line in lines)
