"""File formats: trajectory JSONL, model JSON, plot-data CSV.

Trajectories travel as JSON Lines, one record per line with fields ``id``,
``embeddings``, optional ``tokens`` and ``times`` (times default to
``0, 1, 2, ...``).  Models persist as a single JSON document whose numbers
use Python's shortest round-trip float representation, so a load reproduces
forward outputs exactly; a sha256 checksum over the canonicalized payload,
with each list of numbers as the file spells it (``0.50`` for ``0.5`` fails),
guards against truncation and bit rot.  Plot data leaves as small CSV files
with frozen column sets, written atomically (temp file plus rename) with
``\\n`` line endings so identical runs produce identical bytes.  Each CSV
writer names its columns and hands them to one column writer, which writes
numpy arrays as shortest round-trip floats and every other column via ``str``.

The toy embedder stands in for a real embedding model in demos and tests:
purely hash-based, deterministic, and explicitly non-semantic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataFormatError, ModelFormatError, ValidationError
from .estimation import LossRecord
from .mlp import MlpNetwork
from .numeric_core import _GAMMA, _mix64, _words_to_unit
from .sde_model import EmbeddingTrajectory, SdeModel, TimeEncoding

FORMAT_VERSION = 1


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        # name the caller's path, not the temporary file written beside it
        raise OSError(exc.errno, exc.strerror, path) from exc


# ---------------------------------------------------------------------------
# Trajectory JSONL
# ---------------------------------------------------------------------------


def load_trajectories(path: str) -> list[EmbeddingTrajectory]:
    """Read a JSONL trajectory file, validating every record.

    Blank lines are skipped; a file without records loads as ``[]``.  All
    records must share one dimension; errors name the offending 1-based line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise DataFormatError(f"cannot read {path}: {exc}") from exc

    out: list[EmbeddingTrajectory] = []
    dim: int | None = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path} line {lineno}: invalid JSON ({exc})") from exc
        traj = _trajectory_from_record(record, f"{path} line {lineno}")
        if dim is None:
            dim = traj.dim
        elif traj.dim != dim:
            raise DataFormatError(
                f"{path} line {lineno}: dimension {traj.dim} differs from {dim}"
            )
        out.append(traj)
    return out


def _trajectory_from_record(record, where: str) -> EmbeddingTrajectory:
    if not isinstance(record, dict):
        raise DataFormatError(f"{where}: expected an object")
    if "id" in record and not isinstance(record["id"], str):
        raise DataFormatError(f"{where}: id must be a string")
    embeddings = record.get("embeddings")
    if not isinstance(embeddings, list) or not embeddings:
        raise DataFormatError(f"{where}: embeddings must be a nonempty array")
    try:
        states = np.asarray(embeddings, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: embeddings are not a numeric matrix ({exc})") from exc
    if states.ndim != 2:
        raise DataFormatError(f"{where}: embeddings rows have inconsistent lengths")
    if not np.all(np.isfinite(states)):
        raise DataFormatError(f"{where}: embeddings contain non-finite values")
    times = record.get("times")
    if times is None:
        times = np.arange(states.shape[0], dtype=np.float64)
    tokens = record.get("tokens")
    if tokens is not None and not (
        isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)
    ):
        raise DataFormatError(f"{where}: tokens must be an array of strings")
    try:
        return EmbeddingTrajectory(states=states, times=np.asarray(times, dtype=np.float64),
                                   tokens=tokens)
    except (ValidationError, ValueError) as exc:
        raise DataFormatError(f"{where}: {exc}") from exc


def save_trajectories(
    path: str, trajectories: list[EmbeddingTrajectory], ids: list[str] | None = None
) -> None:
    """Write trajectories as JSONL; ids default to ``traj-<index>``."""
    if ids is None:
        ids = [f"traj-{i}" for i in range(len(trajectories))]
    elif len(ids) != len(trajectories):
        raise ValidationError(f"{len(ids)} ids for {len(trajectories)} trajectories")
    lines = [_trajectory_record(traj, id_) + "\n" for traj, id_ in zip(trajectories, ids)]
    _atomic_write_text(path, "".join(lines))


def _trajectory_record(traj: EmbeddingTrajectory, traj_id: str) -> str:
    """One JSONL line (without its newline) for a trajectory."""
    record = {"id": traj_id, "embeddings": traj.states.tolist(), "times": traj.times.tolist()}
    if traj.tokens is not None:
        record["tokens"] = list(traj.tokens)
    return json.dumps(record, allow_nan=False)


def toy_embed(text: str, dim: int) -> EmbeddingTrajectory:
    """Deterministic hash-based token embeddings for demos and tests.

    Whitespace-tokenizes; each token seeds a stream off its blake2b digest
    (big-endian), whose first ``dim`` uniforms ``u`` give the components
    ``2u - 1`` in ``(-1, 1]``.  Identical tokens map to identical vectors
    across processes and platforms.  Carries no semantics whatsoever.
    """
    if dim < 1:
        raise ValidationError(f"dim must be positive, got {dim}")
    tokens = text.split()
    if not tokens:
        raise ValidationError("text has no tokens")
    digests = b"".join(hashlib.blake2b(t.encode("utf-8"), digest_size=8).digest() for t in tokens)
    seeds = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    words = _mix64(seeds[:, None] + np.arange(1, dim + 1, dtype=np.uint64) * _GAMMA)
    states = 2.0 * _words_to_unit(words) - 1.0
    return EmbeddingTrajectory(states=states, times=np.arange(len(tokens), dtype=np.float64),
                               tokens=tokens)


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelBundle:
    """A loaded model plus the training metadata stored alongside it."""

    model: SdeModel
    training_config: dict | None
    loss_history: list[LossRecord]


def _net_payload(net: MlpNetwork) -> dict:
    return {
        "layer_dims": list(net.layer_dims),
        "hidden_activation": net.hidden_activation,
        "output_activation": net.output_activation,
        "weights": [w.ravel().tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _net_from_payload(payload: dict, where: str, literals: list[bytes]) -> MlpNetwork:
    try:
        dims = [int(d) for d in _float_array(payload["layer_dims"], literals)]
        weights = [
            _float_array(flat, literals).reshape(dims[i + 1], dims[i])
            for i, flat in enumerate(payload["weights"])
        ]
        biases = [_float_array(b, literals) for b in payload["biases"]]
        return MlpNetwork(
            dims, weights, biases, payload["hidden_activation"], payload["output_activation"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{where}: malformed network payload ({exc})") from exc


# A JSON string, skipped whole, or a list holding only number characters and
# whitespace (group 1: its items).  No such list holds another list, so one
# scan from the left finds each of them outside the strings.
_STRING_OR_LIST = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"|\[([-+.0-9eE \t\n\r,]*)\]', re.DOTALL)

# Such a list in character classes: brackets and commas to ",", nonzero
# digits to "1", "E" to "e", whitespace to " ".  It is a JSON list of numbers
# iff each "," but the last starts a JSON number followed by " *,"; this
# matches a "," that does not.  The grammar's optional parts are spelled out
# as branches, which the regex engine runs several times faster.
_NUMBER_CLASSES = bytes.maketrans(b"23456789E[]\t\n\r", b"11111111e,,   ")
_EXPONENT = rb"e[-+]?[01]+ *,"
_NOT_A_NUMBER = re.compile(
    rb",(?!\Z| *-?(?:0|1[01]*)(?: *,|\.[01]+(?: *,|%s)|%s))" % (_EXPONENT, _EXPONENT)
)


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number: {literal}")
    return value


def _parse_lifted(text: bytes) -> tuple[object, list[bytes]]:
    """Parse JSON with each list of numbers lifted out as its text, whitespace removed.

    Each such list becomes ``[k]`` in the returned tree, ``k`` indexing the
    returned texts; as every one is lifted, a list of one int in the tree is
    always an index.  Non-finite numbers outside the lifted lists raise
    ``ValueError``.
    """
    literals: list[bytes] = []

    def lift(match: re.Match) -> bytes:
        found = match.group(0)
        if match.lastindex is None or _NOT_A_NUMBER.search(found.translate(_NUMBER_CLASSES)):
            return found  # a string, an empty list, or invalid JSON for json to report
        literals.append(found.translate(None, b" \t\n\r"))
        return b"[%d]" % (len(literals) - 1)

    skeleton = _STRING_OR_LIST.sub(lift, text)
    try:
        tree = json.loads(
            skeleton.decode("utf-8"), parse_float=_finite_float, parse_constant=_finite_float
        )
    except ValueError:
        json.loads(text)  # report a syntax error where it is in the file, not in the skeleton
        raise
    return tree, literals


def _spelled(text: bytes, literals: list[bytes]) -> bytes:
    """JSON text of a lifted tree with each lifted list spelled as in the file."""
    return _STRING_OR_LIST.sub(lambda m: literals[int(m[1])] if m[1] else m[0], text)


def _checksum(tree, literals: list[bytes]) -> str:
    canonical = json.dumps(tree, sort_keys=True, separators=(",", ":")).encode("ascii")
    return hashlib.sha256(_spelled(canonical, literals)).hexdigest()


def _float_array(node, literals: list[bytes]) -> np.ndarray:
    """A lifted list of numbers as a float64 array, read by one numpy call."""
    if not (isinstance(node, list) and len(node) == 1 and type(node[0]) is int):
        raise ValueError("expected a list of numbers")
    # checked as JSON numbers when lifted, so numpy reads every item; from str,
    # it reads them twice as fast as from bytes
    values = np.fromstring(literals[node[0]][1:-1].decode("ascii"), sep=",")
    if not np.isfinite(values).all():
        raise ValueError("number out of float64 range")
    return values


def save_model(
    path: str,
    model: SdeModel,
    training_config: dict | None = None,
    loss_history: list[LossRecord] | None = None,
) -> None:
    """Persist a model (plus optional config echo and loss history) as JSON."""
    payload = {
        "format_version": FORMAT_VERSION,
        "dim": model.dim,
        "time_encoding": model.time_encoding.to_dict(),
        "drift_net": _net_payload(model.drift_net),
        "diffusion_net": _net_payload(model.diffusion_net),
        "training_config": training_config,
        "loss_history": [asdict(r) for r in loss_history or []],
    }
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"model contains non-finite numbers: {exc}") from exc
    # one encode: the checksum is read off this text, and spliced in before its closing "\n}"
    checksum = _checksum(*_parse_lifted(text.encode("ascii")))
    _atomic_write_text(path, f'{text[:-2]},\n  "checksum": "{checksum}"\n}}\n')


def load_model(path: str) -> ModelBundle:
    """Load a model file, verifying version and checksum.

    Forward outputs of the restored model match the saved one exactly: the
    JSON float representation is lossless.  Each weight and bias list is
    read by one numpy call, with no Python float per number.
    """
    try:
        with open(path, "rb") as handle:
            payload, literals = _parse_lifted(handle.read())
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")

    version = payload.get("format_version")
    if not isinstance(version, int):
        raise ModelFormatError(f"{path}: missing format_version")
    if version > FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format_version {version} is newer than supported {FORMAT_VERSION}"
        )
    if version < 1:
        raise ModelFormatError(f"{path}: invalid format_version {version}")

    if payload.pop("checksum", None) != _checksum(payload, literals):
        raise ModelFormatError(f"{path}: checksum mismatch (file corrupt or edited)")

    try:
        encoding = TimeEncoding.from_dict(payload["time_encoding"])
        model = SdeModel(
            dim=int(payload["dim"]),
            drift_net=_net_from_payload(payload["drift_net"], path, literals),
            diffusion_net=_net_from_payload(payload["diffusion_net"], path, literals),
            time_encoding=encoding,
        )
        history = [
            LossRecord(
                epoch=int(r["epoch"]),
                split=str(r["split"]),
                total=float(r["total"]),
                drift=float(r["drift"]),
                diffusion=float(r["diffusion"]),
            )
            for r in payload.get("loss_history", [])
        ]
        config_text = json.dumps(payload.get("training_config")).encode("ascii")
        training_config = json.loads(_spelled(config_text, literals), parse_float=_finite_float)
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc
    return ModelBundle(model=model, training_config=training_config, loss_history=history)


# ---------------------------------------------------------------------------
# Plot-data CSV (frozen schemas)
# ---------------------------------------------------------------------------


def _write_csv(path: str, header: str, columns: list) -> None:
    """Write equal-length columns as the rows under ``header``.

    A numpy array column is written as floats in shortest round-trip form,
    any other column through ``str``.
    """
    texts = [
        [repr(float(v)) for v in column] if isinstance(column, np.ndarray)
        else [str(v) for v in column]
        for column in columns
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(zip(*texts, strict=True))
    _atomic_write_text(path, buffer.getvalue())


def write_losses_csv(path: str, records: list[LossRecord]) -> None:
    losses = np.array([(r.total, r.drift, r.diffusion) for r in records]).reshape(-1, 3)
    columns = [[r.epoch for r in records], [r.split for r in records], *losses.T]
    _write_csv(path, "epoch,split,total,drift,diffusion", columns)


def write_comparison_csv(path: str, times, errors: np.ndarray) -> None:
    """Per-step prediction error norms; step ``k`` lands at ``times[k]``."""
    n = len(errors)
    _write_csv(path, "step,t,error", [range(1, n + 1), np.asarray(times)[1 : n + 1], errors])


def write_vector_field_csv(path: str, grid) -> None:
    points, arrows = grid.grid_points, grid.drift_arrows
    columns = [points[:, 0], points[:, 1], arrows[:, 0], arrows[:, 1], grid.diffusion_magnitudes]
    _write_csv(path, "gx,gy,ux,uy,diffusion_mag", columns)


def write_heatmap_csv(
    path: str, magnitudes: np.ndarray, log_magnitudes: np.ndarray, tokens: list[str] | None
) -> None:
    """Diffusion norms by position; positions stand in for absent token labels."""
    positions = range(len(magnitudes))
    columns = [positions, positions if tokens is None else tokens, magnitudes, log_magnitudes]
    _write_csv(path, "position,token,magnitude,log_magnitude", columns)


def write_importance_csv(path: str, labels: list[str], norms: np.ndarray) -> None:
    _write_csv(path, "position,token,l2_norm", [range(len(labels)), labels, norms])


def write_moments_csv(path: str, report) -> None:
    """Frozen moment schema needs both the oracle and MC curves present."""
    if report.mean_ode is None or report.var_ode is None:
        raise ValidationError("moment report has no oracle curves; supply a linear reference")
    columns = [report.t_grid, report.mean_ode, report.var_ode, report.mean_mc, report.var_mc]
    _write_csv(path, "t,mean_ode,var_ode,mean_mc,var_mc", columns)
