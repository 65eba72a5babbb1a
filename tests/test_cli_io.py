"""File-format tests: trajectory JSONL, model JSON, toy embedder, CSV writers."""

import json
import math
import os
import warnings

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from embsde.cli_io import (
    load_model,
    load_trajectories,
    save_model,
    save_trajectories,
    toy_embed,
    write_comparison_csv,
    write_heatmap_csv,
    write_importance_csv,
    write_losses_csv,
    write_moments_csv,
    write_vector_field_csv,
)
from embsde.diagnostics import MomentReport, VectorFieldGrid
from embsde.errors import DataFormatError, ModelFormatError, ValidationError
from embsde.estimation import LossRecord
from embsde.mlp import glorot_init
from embsde.numeric_core import RngStream
from embsde.sde_model import EmbeddingTrajectory, SdeModel, TimeEncoding


def _random_model(dim: int = 3, seed: int = 11) -> SdeModel:
    stream = RngStream(seed)
    encoding = TimeEncoding(kind="scalar_normalized", horizon=2.0)
    width = dim + encoding.width
    drift = glorot_init([width, 8, dim], stream)
    diffusion = glorot_init([width, 8, dim], stream, output_activation="softplus")
    return SdeModel(dim=dim, drift_net=drift, diffusion_net=diffusion, time_encoding=encoding)


# ---------------------------------------------------------------------------
# Trajectory JSONL
# ---------------------------------------------------------------------------


class TestTrajectoryRoundTrip:
    def test_round_trip_is_identity(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        first = EmbeddingTrajectory(
            states=np.array([[0.1, -0.2], [0.3, 0.4], [1.0 / 3.0, 2.0 / 7.0]]),
            times=np.array([0.0, 0.05, 0.1]),
            tokens=["a", "b", "c"],
        )
        second = EmbeddingTrajectory(
            states=np.array([[1.5, 2.5]]), times=np.array([0.0])
        )
        save_trajectories(path, [first, second])
        loaded = load_trajectories(path)
        assert len(loaded) == 2
        assert_array_equal(loaded[0].states, first.states)
        assert_array_equal(loaded[0].times, first.times)
        assert loaded[0].tokens == ["a", "b", "c"]
        assert loaded[1].tokens is None
        assert_array_equal(loaded[1].states, second.states)

    def test_default_and_custom_ids(self, tmp_path):
        path = str(tmp_path / "data.jsonl")
        traj = EmbeddingTrajectory(states=np.array([[1.0]]), times=np.array([0.0]))
        save_trajectories(path, [traj, traj])
        with open(path) as handle:
            ids = [json.loads(line)["id"] for line in handle]
        assert ids == ["traj-0", "traj-1"]
        save_trajectories(path, [traj], ids=["mine"])
        with open(path) as handle:
            assert json.loads(handle.readline())["id"] == "mine"

    def test_id_count_mismatch(self, tmp_path):
        traj = EmbeddingTrajectory(states=np.array([[1.0]]), times=np.array([0.0]))
        with pytest.raises(ValidationError):
            save_trajectories(str(tmp_path / "x.jsonl"), [traj], ids=["a", "b"])

    def test_times_default_to_arange(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "t", "embeddings": [[1.0], [2.0], [3.0]]}\n')
        (traj,) = load_trajectories(str(path))
        assert_array_equal(traj.times, [0.0, 1.0, 2.0])

    def test_dimension_mismatch_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            '{"embeddings": [[1.0, 2.0]]}\n{"embeddings": [[1.0]]}\n'
        )
        with pytest.raises(DataFormatError, match="line 2"):
            load_trajectories(str(path))

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"embeddings": [[1.0]]}\n\n{nope}\n')
        with pytest.raises(DataFormatError, match="line 3"):
            load_trajectories(str(path))

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"embeddings": [[1.0, 2.0], [3.0]]}\n')
        with pytest.raises(DataFormatError, match="line 1"):
            load_trajectories(str(path))

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"embeddings": [[1.0], [NaN]]}\n')
        with pytest.raises(DataFormatError, match="line 1"):
            load_trajectories(str(path))

    def test_tokens_must_be_strings(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"embeddings": [[1.0]], "tokens": [7]}\n')
        with pytest.raises(DataFormatError, match="tokens"):
            load_trajectories(str(path))

    def test_id_must_be_string(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": 3, "embeddings": [[1.0]]}\n')
        with pytest.raises(DataFormatError, match="id"):
            load_trajectories(str(path))

    def test_empty_file_loads_as_empty_list(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_trajectories(str(path)) == []

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"embeddings": [[1.0]]}\n\n{"embeddings": [[2.0]]}\n')
        assert len(load_trajectories(str(path))) == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataFormatError, match="cannot read"):
            load_trajectories(str(tmp_path / "absent.jsonl"))


class TestToyEmbed:
    def test_repeated_token_repeats_vector(self):
        traj = toy_embed("Paris Paris", 8)
        assert_array_equal(traj.states[0], traj.states[1])

    def test_token_count_and_labels(self):
        traj = toy_embed("the cat sat on the mat", 4)
        assert traj.states.shape == (6, 4)
        assert traj.tokens == ["the", "cat", "sat", "on", "the", "mat"]
        assert_array_equal(traj.times, np.arange(6.0))
        assert_array_equal(traj.states[0], traj.states[4])

    def test_deterministic_across_calls(self):
        assert_array_equal(toy_embed("alpha beta", 16).states,
                           toy_embed("alpha beta", 16).states)

    def test_distinct_tokens_differ(self):
        traj = toy_embed("alpha beta", 16)
        assert not np.array_equal(traj.states[0], traj.states[1])

    def test_component_range(self):
        states = toy_embed("a b c d e", 32).states
        assert np.all(states > -1.0) and np.all(states <= 1.0)

    def test_rejects_bad_dim(self):
        with pytest.raises(ValidationError):
            toy_embed("word", 0)

    def test_rejects_empty_text(self):
        with pytest.raises(ValidationError):
            toy_embed("   ", 4)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------


class TestModelPersistence:
    def test_forward_outputs_survive_round_trip(self, tmp_path):
        path = str(tmp_path / "model.json")
        model = _random_model(dim=3)
        save_model(path, model)
        restored = load_model(path).model

        stream = RngStream(99)
        xs = stream.normals(15).reshape(5, 3)
        ts = np.array([0.0, 0.3, 0.7, 1.1, 2.0])
        assert_array_equal(restored.drift(xs, ts), model.drift(xs, ts))
        assert_array_equal(restored.diffusion(xs, ts), model.diffusion(xs, ts))
        assert restored.time_encoding == model.time_encoding
        assert restored.dim == model.dim

    def test_metadata_round_trip(self, tmp_path):
        path = str(tmp_path / "model.json")
        history = [
            LossRecord(epoch=0, split="train", total=1.5, drift=1.0, diffusion=0.5),
            LossRecord(epoch=0, split="validation", total=-0.25, drift=0.5, diffusion=-0.75),
        ]
        config = {"epochs": 2, "learning_rate": 0.05}
        save_model(path, _random_model(), training_config=config, loss_history=history)
        bundle = load_model(path)
        assert bundle.training_config == config
        assert bundle.loss_history == history

    def test_future_version_rejected(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(path, _random_model())
        document = json.loads(open(path).read())
        document["format_version"] = 99
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ModelFormatError, match="format_version 99"):
            load_model(path)

    def test_missing_version_rejected(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(path, _random_model())
        document = json.loads(open(path).read())
        del document["format_version"]
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(path, _random_model())
        text = open(path).read()
        with open(path, "w") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model(path)

    def test_edited_weight_fails_checksum(self, tmp_path):
        path = str(tmp_path / "model.json")
        save_model(path, _random_model())
        document = json.loads(open(path).read())
        document["drift_net"]["weights"][0][0] += 1.0
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load_model(str(tmp_path / "absent.json"))

    def test_nonfinite_weights_rejected_on_save(self, tmp_path):
        model = _random_model()
        model.drift_net.weights[0][0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            save_model(str(tmp_path / "model.json"), model)


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def _empty_moments():
    empty = np.zeros(0)
    return MomentReport(empty, empty, empty, 0, mean_ode=empty, var_ode=empty)


def _empty_grid():
    return VectorFieldGrid(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros((0, 2)),
                           np.zeros(0), np.zeros(0))


class TestCsvWriters:
    # the header of each file, as the README's CSV table freezes it
    @pytest.mark.parametrize("write, args, header", [
        (write_losses_csv, ([],), "epoch,split,total,drift,diffusion"),
        (write_comparison_csv, (np.array([0.0]), []), "step,t,error"),
        (write_vector_field_csv, (_empty_grid(),), "gx,gy,ux,uy,diffusion_mag"),
        (write_heatmap_csv, ([], None), "position,token,magnitude,log_magnitude"),
        (write_importance_csv, ([],), "position,token,l2_norm"),
        (write_moments_csv, (_empty_moments(),), "t,mean_ode,var_ode,mean_mc,var_mc"),
    ], ids=["losses", "comparison", "vector_field", "heatmap", "importance", "moments"])
    def test_empty_input_writes_only_the_header(self, tmp_path, write, args, header):
        path = tmp_path / "empty.csv"
        write(str(path), *args)
        assert path.read_bytes() == (header + "\n").encode()

    def test_losses_schema_and_byte_determinism(self, tmp_path):
        records = [
            LossRecord(epoch=0, split="train", total=0.1, drift=0.075, diffusion=0.025),
            LossRecord(epoch=1, split="validation", total=-2.5, drift=0.5, diffusion=-3.0),
        ]
        first, second = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_losses_csv(first, records)
        write_losses_csv(second, records)
        content = open(first, "rb").read()
        assert content == open(second, "rb").read()
        lines = content.decode().splitlines()
        assert lines[0] == "epoch,split,total,drift,diffusion"
        assert lines[1] == "0,train,0.1,0.075,0.025"
        assert lines[2] == "1,validation,-2.5,0.5,-3.0"
        assert content.endswith(b"\n") and b"\r" not in content

    def test_comparison_rows_align_steps_with_times(self, tmp_path):
        path = str(tmp_path / "cmp.csv")
        write_comparison_csv(path, np.array([0.0, 0.5, 1.0]), [0.25, 0.0625])
        lines = open(path).read().splitlines()
        assert lines[0] == "step,t,error"
        assert lines[1] == "1,0.5,0.25"
        assert lines[2] == "2,1.0,0.0625"

    def test_vector_field_schema(self, tmp_path):
        grid = VectorFieldGrid(
            plane_basis=np.eye(2),
            plane_mean=np.zeros(2),
            grid_points=np.array([[0.0, 1.0], [2.0, 3.0]]),
            drift_arrows=np.array([[0.5, -0.5], [0.25, -0.25]]),
            drift_magnitudes=np.array([1.0, 1.0]),
            diffusion_magnitudes=np.array([2.0, 4.0]),
        )
        path = str(tmp_path / "field.csv")
        write_vector_field_csv(path, grid)
        lines = open(path).read().splitlines()
        assert lines[0] == "gx,gy,ux,uy,diffusion_mag"
        assert lines[1] == "0.0,1.0,0.5,-0.5,2.0"
        assert lines[2] == "2.0,3.0,0.25,-0.25,4.0"

    def test_heatmap_uses_token_labels_or_positions(self, tmp_path):
        entries = [(0, 2.0, math.log(2.0)), (1, 1.0, 0.0)]
        path = str(tmp_path / "heat.csv")
        write_heatmap_csv(path, entries, ["hello", "world"])
        lines = open(path).read().splitlines()
        assert lines[0] == "position,token,magnitude,log_magnitude"
        assert lines[1] == f"0,hello,2.0,{math.log(2.0)!r}"
        write_heatmap_csv(path, entries, None)
        assert open(path).read().splitlines()[2] == "1,1,1.0,0.0"

    def test_importance_rows(self, tmp_path):
        path = str(tmp_path / "imp.csv")
        write_importance_csv(path, [("cat", 5.0), ("dog", 0.5)])
        lines = open(path).read().splitlines()
        assert lines[0] == "position,token,l2_norm"
        assert lines[1] == "0,cat,5.0"
        assert lines[2] == "1,dog,0.5"

    def test_moments_requires_oracle_curves(self, tmp_path):
        report = MomentReport(
            t_grid=np.array([0.0, 1.0]),
            mean_mc=np.array([0.0, 0.0]),
            var_mc=np.array([0.0, 1.0]),
            n_paths=100,
        )
        with pytest.raises(ValidationError, match="oracle"):
            write_moments_csv(str(tmp_path / "m.csv"), report)

    def test_moments_rows(self, tmp_path):
        report = MomentReport(
            t_grid=np.array([0.0, 1.0]),
            mean_mc=np.array([0.125, 0.25]),
            var_mc=np.array([0.0, 1.0]),
            n_paths=100,
            mean_ode=np.array([0.125, 0.3]),
            var_ode=np.array([0.0, 0.9]),
        )
        path = str(tmp_path / "m.csv")
        write_moments_csv(path, report)
        lines = open(path).read().splitlines()
        assert lines[0] == "t,mean_ode,var_ode,mean_mc,var_mc"
        assert lines[1] == "0.0,0.125,0.0,0.125,0.0"
        assert lines[2] == "1.0,0.3,0.9,0.25,1.0"

    def test_atomic_writes_leave_no_temp_files(self, tmp_path):
        path = str(tmp_path / "out.csv")
        write_importance_csv(path, [("a", 1.0)])
        write_importance_csv(path, [("b", 2.0)])
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]
        assert "b,2.0" in open(path).read()
