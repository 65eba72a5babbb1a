"""End-to-end CLI tests: exit codes, artifacts, determinism, seed override."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import embsde
from embsde.cli import main
from embsde.cli_io import (
    load_model,
    load_trajectories,
    save_model,
    save_trajectories,
    toy_embed,
)
from embsde.sde_model import LinearSdeSpec, linear_sde_model


def _synth(tmp_path, name="data.jsonl", dim=1, n_traj=40, steps=20, seed=5):
    path = str(tmp_path / name)
    rc = main([
        "synth-ou", "--out", path, "--dim", str(dim), "--n-traj", str(n_traj),
        "--steps", str(steps), "--dt", "0.05", "--seed", str(seed),
    ])
    assert rc == 0
    return path

def _linear_model(tmp_path, a=-1.0, b=0.5, dim=1, name="model.json"):
    path = str(tmp_path / name)
    save_model(path, linear_sde_model(LinearSdeSpec(a=a, b=b, dim=dim)))
    return path


class TestArgumentHandling:
    def test_no_command_exits_1(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1

    def test_unknown_flag_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["synth-ou", "--out", str(tmp_path / "x.jsonl"), "--nope"])
        assert info.value.code == 1

    def test_bad_int_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["synth-ou", "--out", str(tmp_path / "x.jsonl"), "--steps", "many"])
        assert info.value.code == 1

    def test_simulate_requires_one_init(self, tmp_path):
        model = _linear_model(tmp_path)
        out = str(tmp_path / "traj.jsonl")
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--model", model, "--steps", "3", "--out", out])
        assert info.value.code == 1
        vec = tmp_path / "v.json"
        vec.write_text("[0.0]")
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--model", model, "--init", "a", "--init-vec", str(vec),
                  "--steps", "3", "--out", out])
        assert info.value.code == 1


class TestIoErrors:
    @pytest.mark.parametrize("target", ["missing/x.jsonl", "a_directory"])
    def test_unwritable_out_exits_1_naming_the_path(self, tmp_path, capsys, target):
        (tmp_path / "a_directory").mkdir()
        out = str(tmp_path / target)
        rc = main(["synth-ou", "--out", out, "--n-traj", "2", "--steps", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "i/o error" in err and out in err
        assert ".tmp-" not in err
        assert not list(tmp_path.glob(".tmp-*"))


class TestPipeline:
    def test_synth_train_losses(self, tmp_path, capsys):
        data = _synth(tmp_path)
        trajectories = load_trajectories(data)
        assert len(trajectories) == 40
        assert trajectories[0].dim == 1
        assert len(trajectories[0]) == 21

        model_path = str(tmp_path / "model.json")
        rc = main([
            "train", "--data", data, "--out", model_path,
            "--epochs", "3", "--hidden", "8", "--seed", "3",
        ])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        bundle = load_model(model_path)
        assert bundle.model.dim == 1
        assert [r.epoch for r in bundle.loss_history] == [1, 2, 3]
        assert bundle.training_config["epochs"] == 3
        assert bundle.training_config["hidden_dims"] == [8]

        losses_path = str(tmp_path / "losses.csv")
        assert main(["losses", "--model", model_path, "--out", losses_path]) == 0
        lines = open(losses_path).read().splitlines()
        assert lines[0] == "epoch,split,total,drift,diffusion"
        assert len(lines) == 4

    def test_dim_check_reports_without_training(self, tmp_path, capsys):
        data = _synth(tmp_path, n_traj=3, steps=4)
        rc = main(["train", "--data", data, "--dim-check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "data OK" in out and "dim=1" in out and "12 transitions" in out
        assert not (tmp_path / "model.json").exists()

    def test_train_without_out_exits_1(self, tmp_path, capsys):
        data = _synth(tmp_path, n_traj=2, steps=3)
        assert main(["train", "--data", data]) == 1
        assert "--out" in capsys.readouterr().err

    def test_missing_data_exits_1(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "absent.jsonl"), "--dim-check"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err

    def test_empty_data_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["train", "--data", str(path), "--dim-check"]) == 1
        assert capsys.readouterr().err == f"embsde: error: {path}: no trajectories to train on\n"

    @pytest.mark.parametrize("command, suffix", [
        (["diagnose", "--out-dir", "diag"], " to diagnose against"),
        (["field", "--out", "field.csv"], " for the plane fit"),
        (["importance", "--out", "importance.csv"], ""),
    ])
    def test_empty_data_exits_1_with_its_message(self, tmp_path, capsys, command, suffix):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        model = ["--model", _linear_model(tmp_path, dim=2)] if command[0] != "importance" else []
        assert main([*command, "--data", str(path), *model]) == 1
        assert capsys.readouterr().err == f"embsde: error: {path}: no trajectories{suffix}\n"


class TestSimulate:
    def test_init_tokens_start_at_mean_embedding(self, tmp_path):
        model = _linear_model(tmp_path, b=0.0, dim=4)
        out = str(tmp_path / "traj.jsonl")
        rc = main(["simulate", "--model", model, "--init", "hello world",
                   "--steps", "5", "--dt", "0.1", "--seed", "2", "--out", out])
        assert rc == 0
        (traj,) = load_trajectories(out)
        assert len(traj) == 6
        expected = toy_embed("hello world", 4).states.mean(axis=0)
        assert_array_equal(traj.states[0], expected)
        # b = 0 linear drift contracts every step by exactly (1 + a dt)
        assert_allclose(traj.states[1], expected * 0.9, rtol=1e-15)

    def test_init_vec_file(self, tmp_path):
        model = _linear_model(tmp_path, b=0.0, dim=2)
        vec = tmp_path / "v.json"
        vec.write_text("[0.5, -0.25]")
        out = str(tmp_path / "traj.jsonl")
        rc = main(["simulate", "--model", model, "--init-vec", str(vec),
                   "--steps", "2", "--dt", "0.5", "--seed", "0", "--out", out])
        assert rc == 0
        (traj,) = load_trajectories(out)
        assert_array_equal(traj.states[0], [0.5, -0.25])

    def test_init_vec_wrong_length_exits_1(self, tmp_path, capsys):
        model = _linear_model(tmp_path, dim=2)
        vec = tmp_path / "v.json"
        vec.write_text("[0.5]")
        rc = main(["simulate", "--model", model, "--init-vec", str(vec),
                   "--steps", "2", "--out", str(tmp_path / "t.jsonl")])
        assert rc == 1
        assert "model dim 2" in capsys.readouterr().err

    def test_blowup_exits_2(self, tmp_path, capsys):
        model = _linear_model(tmp_path, a=50.0, b=0.0, dim=1)
        vec = tmp_path / "v.json"
        vec.write_text("[1.0]")
        rc = main(["simulate", "--model", model, "--init-vec", str(vec),
                   "--steps", "60", "--dt", "1.0", "--out", str(tmp_path / "t.jsonl")])
        assert rc == 2
        assert "numerical error" in capsys.readouterr().err

    def test_seed_changes_path_and_env_overrides(self, tmp_path, monkeypatch):
        model = _linear_model(tmp_path, b=0.5, dim=1)
        vec = tmp_path / "v.json"
        vec.write_text("[1.0]")
        paths = {name: str(tmp_path / name) for name in ("a", "b", "c", "d")}
        base = ["simulate", "--model", model, "--init-vec", str(vec),
                "--steps", "10", "--dt", "0.1"]
        monkeypatch.delenv("SDE_TRAJ_SEED", raising=False)
        assert main(base + ["--seed", "123", "--out", paths["a"]]) == 0
        assert main(base + ["--seed", "123", "--out", paths["b"]]) == 0
        assert main(base + ["--seed", "0", "--out", paths["c"]]) == 0
        monkeypatch.setenv("SDE_TRAJ_SEED", "123")
        assert main(base + ["--seed", "0", "--out", paths["d"]]) == 0

        a, b, c, d = (open(paths[k], "rb").read() for k in ("a", "b", "c", "d"))
        assert a == b          # reruns are byte-identical
        assert a != c          # the seed matters
        assert d == a          # the environment seed wins over --seed

    def test_bad_env_seed_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SDE_TRAJ_SEED", "lots")
        rc = main(["synth-ou", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert "SDE_TRAJ_SEED" in capsys.readouterr().err


class TestAnswer:
    def test_stdout_jsonl_record(self, tmp_path, capsys):
        model = _linear_model(tmp_path, b=0.0, dim=3)
        rc = main(["answer", "--model", model, "--question", "why is it so",
                   "--steps", "3", "--dt", "0.25", "--seed", "1"])
        assert rc == 0
        record = json.loads(capsys.readouterr().out)
        assert record["id"] == "answer-0"
        assert len(record["embeddings"]) == 4
        start = np.asarray(record["embeddings"][0])
        assert_array_equal(start, toy_embed("why is it so", 3).states.mean(axis=0))

    def test_stdout_line_is_the_out_file(self, tmp_path, capsys):
        model = _linear_model(tmp_path, b=0.5, dim=3)
        argv = ["answer", "--model", model, "--question", "why is it so",
                "--steps", "6", "--dt", "0.1", "--seed", "2"]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "answer.jsonl"
        assert main([*argv, "--out", str(out)]) == 0
        capsys.readouterr()
        assert printed.encode() == out.read_bytes()

    def test_out_file(self, tmp_path):
        model = _linear_model(tmp_path, dim=2)
        out = str(tmp_path / "answer.jsonl")
        rc = main(["answer", "--model", model, "--question", "hi there",
                   "--steps", "4", "--out", out])
        assert rc == 0
        (traj,) = load_trajectories(out)
        assert len(traj) == 5


class TestModelFileErrors:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_weight_exits_1_in_one_line(self, tmp_path, capsys, value):
        model = tmp_path / "bad.json"
        document = json.loads(Path(_linear_model(tmp_path)).read_text())
        document["drift_net"]["weights"][0][0] = value
        model.write_text(json.dumps(document))
        rc = main(["answer", "--model", str(model), "--question", "a b", "--steps", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"embsde: error: {model}: ") and err.count("\n") == 1


class TestDiagnose:
    def test_artifacts_with_oracle(self, tmp_path):
        data = _synth(tmp_path, n_traj=20, steps=10)
        model = _linear_model(tmp_path)
        out_dir = tmp_path / "diag"
        rc = main(["diagnose", "--model", model, "--data", data,
                   "--out-dir", str(out_dir), "--oracle=-1.0,0.5",
                   "--paths", "200", "--seed", "4"])
        assert rc == 0
        for name in ("diagnostics.json", "trajectory_compare.csv",
                     "heatmap.csv", "moments.csv"):
            assert (out_dir / name).exists()
        summary = json.loads((out_dir / "diagnostics.json").read_text())
        # the exact linear fixture has Lipschitz constant |a| = 1, and its
        # squared-norm generator -2x^2 + b^2 peaks at b^2 = 0.25 near x = 0
        assert summary["regularity"]["lipschitz_k"] == pytest.approx(1.0, abs=1e-9)
        assert summary["lyapunov"]["stable"] is False
        assert 0.0 < summary["lyapunov"]["max_generator"] <= 0.25
        lines = (out_dir / "moments.csv").read_text().splitlines()
        assert lines[0] == "t,mean_ode,var_ode,mean_mc,var_mc"
        assert len(lines) == 12

    def test_no_oracle_skips_moments(self, tmp_path):
        data = _synth(tmp_path, n_traj=5, steps=6)
        model = _linear_model(tmp_path)
        out_dir = tmp_path / "diag"
        rc = main(["diagnose", "--model", model, "--data", data,
                   "--out-dir", str(out_dir)])
        assert rc == 0
        assert not (out_dir / "moments.csv").exists()
        assert (out_dir / "diagnostics.json").exists()

    def test_bad_oracle_string_exits_1(self, tmp_path, capsys):
        # --oracle is checked before the output directory or any estimate exists
        data = _synth(tmp_path, n_traj=3, steps=4)
        model = _linear_model(tmp_path)
        out_dir = tmp_path / "d"
        rc = main(["diagnose", "--model", model, "--data", data,
                   "--out-dir", str(out_dir), "--oracle", "eleven"])
        assert rc == 1
        assert "--oracle" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_model_dim_mismatch_exits_1_writing_nothing(self, tmp_path, capsys):
        data = _synth(tmp_path, n_traj=3, steps=4)
        model = _linear_model(tmp_path, dim=3)
        out_dir = tmp_path / "d"
        rc = main(["diagnose", "--model", model, "--data", data, "--out-dir", str(out_dir)])
        assert rc == 1
        assert capsys.readouterr().err == "embsde: error: probe dim 1, model dim 3\n"
        assert not out_dir.exists()

    def test_oracle_on_dim2_data_exits_1_writing_nothing(self, tmp_path, capsys):
        data = _synth(tmp_path, dim=2, n_traj=3, steps=4)
        model = _linear_model(tmp_path, dim=2)
        out_dir = tmp_path / "d"
        rc = main(["diagnose", "--model", model, "--data", data,
                   "--out-dir", str(out_dir), "--oracle=-1,0.5"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "embsde: error: --oracle moment analysis needs dim-1 data\n"
        )
        assert not out_dir.exists()


class TestFieldAndImportance:
    def test_field_writes_grid(self, tmp_path):
        data = _synth(tmp_path, dim=2, n_traj=10, steps=8)
        model = _linear_model(tmp_path, a=-0.5, b=0.3, dim=2)
        out = str(tmp_path / "field.csv")
        rc = main(["field", "--model", model, "--data", data, "--res", "4",
                   "--out", out])
        assert rc == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "gx,gy,ux,uy,diffusion_mag"
        assert len(lines) == 17

    def test_field_dim1_exits_1(self, tmp_path, capsys):
        data = _synth(tmp_path, n_traj=4, steps=4)
        model = _linear_model(tmp_path)
        rc = main(["field", "--model", model, "--data", data,
                   "--out", str(tmp_path / "f.csv")])
        assert rc == 1
        capsys.readouterr()

    def test_importance_uses_tokens(self, tmp_path):
        data = str(tmp_path / "tokens.jsonl")
        save_trajectories(data, [toy_embed("the cat sat", 4)])
        out = str(tmp_path / "imp.csv")
        assert main(["importance", "--data", data, "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "position,token,l2_norm"
        assert [line.split(",")[1] for line in lines[1:]] == ["the", "cat", "sat"]

    def test_importance_without_tokens_warns_in_one_line(self, tmp_path, capsys):
        data = tmp_path / "plain.jsonl"
        data.write_text(json.dumps({"embeddings": [[3.0, 4.0], [0.0, 1.0]]}) + "\n")
        out = tmp_path / "imp.csv"
        assert main(["importance", "--data", str(data), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "embsde: warning: trajectory has no token labels; using position indices\n"
        )
        assert out.read_text().splitlines()[1:] == ["0,0,5.0", "1,1,1.0"]

    @pytest.mark.parametrize("command", [
        ["field", "--out", "f.csv"],
        ["diagnose", "--out-dir", "d"],
    ])
    def test_coincident_states_exit_2(self, tmp_path, monkeypatch, capsys, command):
        # a failed estimate is a numerical error: no PCA plane, no distinct probe pair
        monkeypatch.chdir(tmp_path)
        data = tmp_path / "same.jsonl"
        data.write_text(json.dumps({"embeddings": [[1.0, 2.0]] * 4}) + "\n")
        rc = main([*command, "--model", _linear_model(tmp_path, dim=2), "--data", str(data)])
        assert rc == 2
        assert "numerical error" in capsys.readouterr().err

    def test_overflowing_states_exit_2(self, tmp_path, capsys):
        # finite embeddings whose squares overflow float64 have no PCA plane
        data = tmp_path / "huge.jsonl"
        rows = [[1e200, -2e200], [-3e200, 1e200], [2e200, 3e200]]
        data.write_text(json.dumps({"embeddings": rows}) + "\n")
        out = tmp_path / "f.csv"
        rc = main(["field", "--model", _linear_model(tmp_path, dim=2), "--data", str(data),
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "embsde: numerical error: point cloud too large: squared coordinates overflow float64\n"
        )
        assert not out.exists()

    def test_losses_without_history_exits_1(self, tmp_path, capsys):
        model = _linear_model(tmp_path)
        rc = main(["losses", "--model", model, "--out", str(tmp_path / "l.csv")])
        assert rc == 1
        assert "loss history" in capsys.readouterr().err


def _run_module(*args):
    # the child finds the package where this process imported it from
    src = str(Path(embsde.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, "-m", "embsde.cli", *args], capture_output=True, text=True, env=env
    )


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        out = str(tmp_path / "data.jsonl")
        proc = _run_module("synth-ou", "--out", out, "--n-traj", "2", "--steps", "3")
        assert proc.returncode == 0, proc.stderr
        assert len(load_trajectories(out)) == 2

    def test_module_invocation_bad_args(self):
        proc = _run_module("frobnicate")
        assert proc.returncode == 1
        assert "frobnicate" in proc.stderr  # the CLI ran and rejected the subcommand


def _readme_walkthrough() -> list[str]:
    """The shell lines of the README's CLI walkthrough, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI walkthrough", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")]


class TestReadmeWalkthrough:
    def test_every_command_exits_0(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SDE_TRAJ_SEED", raising=False)
        ran = []
        for line in _readme_walkthrough():
            if line.startswith("embsde "):
                argv = shlex.split(line, comments=True)[1:]
                assert main(argv) == 0, line
                ran.append(argv[0])
            else:  # a shell step that prepares an input, such as the start vector
                subprocess.run(line, shell=True, check=True)
        capsys.readouterr()
        assert ran == ["synth-ou", "train", "train", "losses", "diagnose", "simulate", "answer"]
