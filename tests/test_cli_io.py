"""File-format tests: trajectory JSONL, model JSON, toy embedder, CSV writers."""

import hashlib
import json
import math
import os
import re
import tracemalloc
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from embsde.cli_io import (
    _checksum,
    _parse_lifted,
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
from embsde.mlp import MlpNetwork, glorot_init
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
        with pytest.raises(DataFormatError, match="line 1: embeddings must be an array of numbers"):
            load_trajectories(str(path))

    @pytest.mark.parametrize("record", [
        '{"embeddings": [[1.0], [NaN]]}',
        '{"embeddings": [[1.0], [2.0]], "times": {"a": 1}}',
        '{"embeddings": [[1.0], [2.0]], "times": [{}, 1]}',
        '{"embeddings": [[1.0], [2.0]], "times": [0, 1%s]}' % ("0" * 400),
        '{"embeddings": [[1.0], [1%s]]}' % ("0" * 400),
        '{"embeddings": [[], []]}',
        '{"embeddings": [[1.0], [2.0]], "times": [0, NaN]}',
        '{"embeddings": [[1.0], [2.0]], "times": []}',
        '{"embeddings": [["1.5"], [2.0]]}',
        '{"embeddings": [[true], [false]]}',
        '{"embeddings": [[1.5], [true]]}',
        '{"embeddings": [[1.0], [2.0]], "times": ["0", "1e0"]}',
        '{"embeddings": [[1.0], [2.0]], "times": [0, true]}',
    ], ids=["nan", "times-object", "times-object-item", "times-huge-int", "huge-int", "dim-0",
            "times-nan", "times-empty", "string", "booleans", "boolean-among-numbers",
            "times-strings", "times-boolean"])
    def test_values_that_are_not_finite_numbers_rejected(self, tmp_path, record):
        path = tmp_path / "data.jsonl"
        path.write_text("\n" + record + "\n")
        with pytest.raises(DataFormatError, match="line 2"):
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

    @pytest.mark.parametrize("dim", [1, 7, 768])
    def test_matches_a_stream_per_token(self, dim):
        text = "the river runs the Ærø river 北京 naïve the"
        want = []
        for token in text.split():
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            want.append(2.0 * RngStream(int.from_bytes(digest, "big")).uniforms(dim) - 1.0)
        states = toy_embed(text, dim).states
        assert states.shape == (9, dim)
        assert states.tobytes() == np.stack(want).tobytes()

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

    @pytest.mark.parametrize("encoding", ["none", [1.0, 2.0], None])
    def test_time_encoding_must_be_an_object(self, tmp_path, encoding):
        path = tmp_path / "model.json"
        save_model(str(path), _random_model())
        document = json.loads(path.read_text())
        del document["checksum"]
        document["time_encoding"] = encoding
        tree, literals, _ = _parse_lifted(json.dumps(document).encode())
        document["checksum"] = _checksum(tree, literals)
        path.write_text(json.dumps(document))
        with pytest.raises(ModelFormatError, match=re.escape(str(path))):
            load_model(str(path))

    def test_nonfinite_weights_rejected_on_save(self, tmp_path):
        model = _random_model()
        model.drift_net.weights[0][0, 0] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            save_model(str(tmp_path / "model.json"), model)


def _seeded_model(seed: int) -> tuple[SdeModel, dict, list[LossRecord]]:
    """The ``seed``-th model of a family that covers every persisted shape.

    Weights and biases mix magnitudes from 1e-300 to 1e300 with subnormals
    and signed zeros, so their literals use every form of a shortest float.
    """
    stream = RngStream(1000 + seed)
    dim = (1, 2, 3, 4, 5, 64)[seed % 6]
    hidden = ((8,), (16, 8))[seed % 2]
    kind = ("none", "scalar_normalized", "sinusoidal")[seed % 3]
    activation = ("tanh", "relu")[seed // 2 % 2]
    encoding = TimeEncoding(kind=kind, horizon=0.5 + seed, n_pairs=1 + seed % 4)
    dims = [dim + encoding.width, *hidden, dim]

    def values(n: int) -> np.ndarray:
        scale = np.array([1e-300, 1e-5, 1.0, 1e5, 1e300])[(np.arange(n) + seed) % 5]
        out = stream.normals(n) * scale
        out[::7] = np.resize([5e-324, -0.0, 0.0, -2.5e-310, 0.1, 1e22, -1e23], out[::7].size)
        return out

    def net(output_activation: str) -> MlpNetwork:
        weights = [values(m * n).reshape(m, n) for n, m in zip(dims, dims[1:])]
        biases = [values(m) for m in dims[1:]]
        return MlpNetwork(dims, weights, biases, activation, output_activation)

    model = SdeModel(dim, net("identity"), net("softplus"), encoding)
    config = {
        "note": 'x [1, 2] "q" \\ café ∑ [3]',
        "nested": [[0.1, -2.5e-07], [3.0], [], [[1, 2], "[4]"]],
        "epochs": seed,
        "hidden_dims": list(hidden),
        "learning_rate": 0.05 * (seed + 1),
        "grad_clip": None,
        "shuffle": seed % 2 == 0,
        "flags": [True, False, None],
        "big": 12345678901234567890,
    }
    history = [
        LossRecord(epoch=e, split=split, total=t, drift=-t / 3, diffusion=t * 1e-9)
        for e, t in enumerate(stream.normals(seed % 3 * 2).tolist())
        for split in ("train", "validation")
    ]
    return model, config, history


def _reference_bytes(model: SdeModel, config, history) -> bytes:
    """The model file by its defining formula: the sha256 of the payload as
    sorted-key compact JSON, then the payload and checksum dumped with indent=2."""

    def net(n: MlpNetwork) -> dict:
        return {
            "layer_dims": list(n.layer_dims),
            "hidden_activation": n.hidden_activation,
            "output_activation": n.output_activation,
            "weights": [w.ravel().tolist() for w in n.weights],
            "biases": [b.tolist() for b in n.biases],
        }

    payload = {
        "format_version": 1,
        "dim": model.dim,
        "time_encoding": {"kind": model.time_encoding.kind, "horizon": model.time_encoding.horizon,
                          "n_pairs": model.time_encoding.n_pairs},
        "drift_net": net(model.drift_net),
        "diffusion_net": net(model.diffusion_net),
        "training_config": config,
        "loss_history": [asdict(r) for r in history],
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    payload["checksum"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    return (json.dumps(payload, indent=2, allow_nan=False) + "\n").encode("utf-8")


def _params(model: SdeModel) -> list[np.ndarray]:
    nets = (model.drift_net, model.diffusion_net)
    return [np.ascontiguousarray(a).view(np.uint64) for n in nets for a in (*n.weights, *n.biases)]


def _with_literal(path, document: dict, place, literal: str, checksum: str | None = None) -> None:
    """Write ``document`` with ``literal`` as raw JSON text at ``place(document)``.

    The checksum defaults to the sha256 of the sorted-key compact text with
    the literal in it, so the file passes or fails on the literal alone.
    """
    payload = {k: v for k, v in document.items() if k != "checksum"}
    place(payload, "@@")
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":")).replace('"@@"', literal)
    payload["checksum"] = checksum or hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    path.write_text(json.dumps(payload, indent=2).replace('"@@"', literal), encoding="utf-8")


def _first_weight(payload, value):
    payload["drift_net"]["weights"][0][0] = value


def _first_weight_list(payload, value):
    payload["drift_net"]["weights"][0] = value


def _non_shortest(value: float) -> str:
    """A longer literal of the same float: ``0.5`` -> ``0.50``, ``1e-05`` -> ``1.0e-05``."""
    mantissa, e, exponent = repr(value).partition("e")
    return mantissa + ("0" if "." in mantissa else ".0") + e + exponent


_SEEDS = range(22)

# list texts: JSON numbers in several spellings, or fragments that may not be
# numbers at all, between random whitespace
_JSON_NUMBER = st.one_of(
    st.integers().map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:.3E}"),
)
_FRAGMENT = st.text(alphabet="0123456789-+.eE ", max_size=6)
_BLANK = st.text(alphabet=" \t\n\r", max_size=2)
_ITEM = st.tuples(_BLANK, st.one_of(_JSON_NUMBER, _FRAGMENT), _BLANK).map("".join)
_LIST_TEXT = st.lists(_ITEM, max_size=4).map(lambda items: "[" + ",".join(items) + "]")


class TestModelFileLiterals:
    """The checksum reads lists of numbers as written; saved bytes follow the formula."""

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_bytes_match_the_reference_formula(self, tmp_path, seed):
        model, config, history = _seeded_model(seed)
        path = tmp_path / "model.json"
        save_model(str(path), model, training_config=config, loss_history=history)
        assert path.read_bytes() == _reference_bytes(model, config, history)

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_load_is_bit_exact(self, tmp_path, seed):
        model, config, history = _seeded_model(seed)
        path = str(tmp_path / "model.json")
        save_model(path, model, training_config=config, loss_history=history)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bundle = load_model(path)
        for loaded, saved in zip(_params(bundle.model), _params(model), strict=True):
            assert_array_equal(loaded, saved)
        assert bundle.model.time_encoding == model.time_encoding
        assert bundle.training_config == config
        assert bundle.loss_history == history

    @pytest.mark.parametrize("seed", _SEEDS[::3])
    def test_compact_redump_still_loads(self, tmp_path, seed):
        model, config, history = _seeded_model(seed)
        path, compact = tmp_path / "model.json", tmp_path / "compact.json"
        save_model(str(path), model, training_config=config, loss_history=history)
        with open(path) as f, open(compact, "w") as g:
            json.dump(json.load(f), g)
        bundle = load_model(str(compact))
        for loaded, saved in zip(_params(bundle.model), _params(model), strict=True):
            assert_array_equal(loaded, saved)
        assert bundle.training_config == config

    @pytest.mark.parametrize("seed", _SEEDS[::3])
    def test_non_shortest_weight_fails_checksum(self, tmp_path, seed):
        # the same float in a longer literal loaded before; now it is an edit
        model, config, history = _seeded_model(seed)
        path = tmp_path / "model.json"
        save_model(str(path), model, training_config=config, loss_history=history)
        document = json.loads(path.read_text())
        literal = _non_shortest(document["drift_net"]["weights"][0][0])
        assert float(literal) == document["drift_net"]["weights"][0][0]
        _with_literal(path, document, _first_weight, literal, checksum=document["checksum"])
        with pytest.raises(ModelFormatError, match="checksum"):
            load_model(str(path))

    @settings(max_examples=300, deadline=None)
    @given(_LIST_TEXT)
    def test_lists_are_lifted_exactly_when_json_reads_numbers(self, text):
        try:
            expected = json.loads(text)
        except ValueError:
            with pytest.raises(ValueError):
                _parse_lifted(text.encode())
            return
        tree, literals, arrays = _parse_lifted(text.encode())
        if not expected:
            assert (tree, literals, arrays) == ([], [], [])
            return
        assert tree == [0] and len(literals) == len(arrays) == 1
        assert literals[0] == "".join(text.split()).encode()
        assert json.loads(literals[0]) == expected
        floats = np.array([float(item) for item in literals[0][1:-1].split(b",")])
        assert arrays[0].dtype == np.float64
        assert_array_equal(arrays[0].view(np.uint64), floats.view(np.uint64))

    def test_lifted_zeros_keep_their_sign(self):
        _, _, arrays = _parse_lifted(b"[-0, 0]")
        assert arrays[0].view(np.uint64).tolist() == [1 << 63, 0]

    def test_load_memory_stays_near_the_file_size(self, tmp_path):
        # json makes a Python float per weight, but one list at a time, each
        # turned into an array before the next: the traced peak stays a small
        # multiple of the text (about 2.5x), where keeping a float object per
        # weight alive would need about 4.7x
        stream = RngStream(3)
        encoding = TimeEncoding()
        dims = [256 + encoding.width, 32, 256]
        model = SdeModel(256, glorot_init(dims, stream), glorot_init(dims, stream), encoding)
        path = str(tmp_path / "model.json")
        save_model(path, model)
        load_model(path)
        tracemalloc.start()
        try:
            load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * os.path.getsize(path)


class TestMalformedModelNumbers:
    """Bad numbers in a model file raise ModelFormatError naming the file."""

    @pytest.fixture
    def document(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(str(path), _random_model())
        return json.loads(path.read_text())

    @pytest.mark.parametrize("place, literal", [
        (_first_weight, "NaN"),
        (_first_weight, "Infinity"),
        (_first_weight, "-Infinity"),
        (_first_weight, "1e999"),
        (_first_weight, "-1e400"),
        (_first_weight_list, "[1,,2]"),
        (_first_weight_list, "[1e]"),
        (_first_weight_list, "[0.5, 1 2]"),
        (lambda p, v: p.__setitem__("training_config", {"lr": v}), "1e999"),
        (lambda p, v: p.__setitem__("training_config", {"lrs": [v]}), "1e999"),
        (lambda p, v: p["loss_history"].append(v), "NaN"),
        # an integer literal beyond float64 range, where a Python int would not overflow
        (_first_weight, "1" * 400),
        (lambda p, v: p["drift_net"]["layer_dims"].__setitem__(0, v), "1" * 400),
    ])
    def test_bad_number_raises_model_format_error(self, tmp_path, document, place, literal):
        path = tmp_path / "bad.json"
        _with_literal(path, document, place, literal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelFormatError, match=re.escape(str(path))):
                load_model(str(path))

    def test_weight_count_must_match_layer_dims(self, tmp_path, document):
        path = tmp_path / "short.json"
        shorter = document["drift_net"]["weights"][0][:-1]
        _with_literal(path, document, _first_weight_list, json.dumps(shorter))
        with pytest.raises(ModelFormatError, match=re.escape(str(path))):
            load_model(str(path))

    @pytest.mark.parametrize("literal", [b"[1,,2]", b'"\xff is not UTF-8"'])
    def test_invalid_file_reports_the_place_in_the_file(self, tmp_path, document, literal):
        path = tmp_path / "bad.json"
        _with_literal(path, document, _first_weight_list, "@@@")
        path.write_bytes(path.read_bytes().replace(b"@@@", literal))
        with pytest.raises(ValueError) as parsed:
            json.loads(path.read_bytes())
        with pytest.raises(ModelFormatError) as loaded:
            load_model(str(path))
        assert str(loaded.value) == f"{path}: invalid JSON ({parsed.value})"


# ---------------------------------------------------------------------------
# CSV writers
# ---------------------------------------------------------------------------


def _empty_moments():
    empty = np.zeros(0)
    return MomentReport(empty, empty, empty, 0, mean_ode=empty, var_ode=empty)


def _empty_grid():
    return VectorFieldGrid(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))


class TestCsvWriters:
    # the header of each file, as the README's CSV table freezes it
    @pytest.mark.parametrize("write, args, header", [
        (write_losses_csv, ([],), "epoch,split,total,drift,diffusion"),
        (write_comparison_csv, (np.array([0.0]), np.zeros(0)), "step,t,error"),
        (write_vector_field_csv, (_empty_grid(),), "gx,gy,ux,uy,diffusion_mag"),
        (write_heatmap_csv, (np.zeros(0), np.zeros(0), None),
         "position,token,magnitude,log_magnitude"),
        (write_importance_csv, ([], np.zeros(0)), "position,token,l2_norm"),
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
        write_comparison_csv(path, np.array([0.0, 0.5, 1.0]), np.array([0.25, 0.0625]))
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
            diffusion_magnitudes=np.array([2.0, 4.0]),
        )
        path = str(tmp_path / "field.csv")
        write_vector_field_csv(path, grid)
        lines = open(path).read().splitlines()
        assert lines[0] == "gx,gy,ux,uy,diffusion_mag"
        assert lines[1] == "0.0,1.0,0.5,-0.5,2.0"
        assert lines[2] == "2.0,3.0,0.25,-0.25,4.0"

    def test_heatmap_uses_token_labels_or_positions(self, tmp_path):
        mags, logs = np.array([2.0, 1.0]), np.array([math.log(2.0), 0.0])
        path = str(tmp_path / "heat.csv")
        write_heatmap_csv(path, mags, logs, ["hello", "world"])
        lines = open(path).read().splitlines()
        assert lines[0] == "position,token,magnitude,log_magnitude"
        assert lines[1] == f"0,hello,2.0,{math.log(2.0)!r}"
        write_heatmap_csv(path, mags, logs, None)
        assert open(path).read().splitlines()[2] == "1,1,1.0,0.0"

    def test_importance_rows(self, tmp_path):
        path = str(tmp_path / "imp.csv")
        write_importance_csv(path, ["cat", "dog"], np.array([5.0, 0.5]))
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
        write_importance_csv(path, ["a"], np.array([1.0]))
        write_importance_csv(path, ["b"], np.array([2.0]))
        assert sorted(os.listdir(tmp_path)) == ["out.csv"]
        assert "b,2.0" in open(path).read()
