"""File formats: trajectory JSONL, model JSON, plot-data CSV.

Trajectories travel as JSON Lines, one record per line with fields ``id``,
``embeddings``, optional ``tokens`` and ``times`` (times default to
``0, 1, 2, ...``).  Models persist as a single JSON document whose numbers
use Python's shortest round-trip float representation, so a load reproduces
forward outputs exactly; a sha256 checksum over the canonicalized payload
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
import os
import tempfile
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DataFormatError, ModelFormatError, ValidationError
from .estimation import LossRecord
from .mlp import MlpNetwork
from .numeric_core import RngStream
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
    and draws ``dim`` components in ``(-1, 1]``.  Identical tokens map to
    identical vectors across processes and platforms.  Carries no semantics
    whatsoever.
    """
    if dim < 1:
        raise ValidationError(f"dim must be positive, got {dim}")
    tokens = text.split()
    if not tokens:
        raise ValidationError("text has no tokens")
    states = np.empty((len(tokens), dim))
    for i, token in enumerate(tokens):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        stream = RngStream(int.from_bytes(digest, "big"))
        states[i] = 2.0 * stream.uniforms(dim) - 1.0
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


def _net_from_payload(payload: dict, where: str) -> MlpNetwork:
    try:
        dims = [int(d) for d in payload["layer_dims"]]
        weights = [
            np.asarray(flat, dtype=np.float64).reshape(dims[i + 1], dims[i])
            for i, flat in enumerate(payload["weights"])
        ]
        biases = [np.asarray(b, dtype=np.float64) for b in payload["biases"]]
        return MlpNetwork(
            dims, weights, biases, payload["hidden_activation"], payload["output_activation"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{where}: malformed network payload ({exc})") from exc


def _canonical_checksum(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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
        payload_with_sum = {**payload, "checksum": _canonical_checksum(payload)}
        text = json.dumps(payload_with_sum, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"model contains non-finite numbers: {exc}") from exc
    _atomic_write_text(path, text)


def load_model(path: str) -> ModelBundle:
    """Load a model file, verifying version and checksum.

    Forward outputs of the restored model match the saved one exactly: the
    JSON float representation is lossless.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ModelFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise ModelFormatError(f"{path}: expected a JSON object")

    version = document.get("format_version")
    if not isinstance(version, int):
        raise ModelFormatError(f"{path}: missing format_version")
    if version > FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: format_version {version} is newer than supported {FORMAT_VERSION}"
        )
    if version < 1:
        raise ModelFormatError(f"{path}: invalid format_version {version}")

    stored_sum = document.get("checksum")
    payload = {k: v for k, v in document.items() if k != "checksum"}
    if stored_sum != _canonical_checksum(payload):
        raise ModelFormatError(f"{path}: checksum mismatch (file corrupt or edited)")

    try:
        encoding = TimeEncoding.from_dict(payload["time_encoding"])
        model = SdeModel(
            dim=int(payload["dim"]),
            drift_net=_net_from_payload(payload["drift_net"], path),
            diffusion_net=_net_from_payload(payload["diffusion_net"], path),
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
    except ModelFormatError:
        raise
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ModelFormatError(f"{path}: malformed model payload ({exc})") from exc
    return ModelBundle(
        model=model,
        training_config=payload.get("training_config"),
        loss_history=history,
    )


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


def write_comparison_csv(path: str, times, per_step_errors: list[float]) -> None:
    """Per-step prediction error norms; step ``k`` lands at ``times[k]``."""
    n = len(per_step_errors)
    columns = [range(1, n + 1), np.asarray(times)[1 : n + 1], np.asarray(per_step_errors)]
    _write_csv(path, "step,t,error", columns)


def write_vector_field_csv(path: str, grid) -> None:
    points, arrows = grid.grid_points, grid.drift_arrows
    columns = [points[:, 0], points[:, 1], arrows[:, 0], arrows[:, 1], grid.diffusion_magnitudes]
    _write_csv(path, "gx,gy,ux,uy,diffusion_mag", columns)


def write_heatmap_csv(
    path: str, entries: list[tuple[int, float, float]], tokens: list[str] | None
) -> None:
    positions = [pos for pos, _, _ in entries]
    labels = positions if tokens is None else [tokens[pos] for pos in positions]
    magnitudes = np.array([(mag, log_mag) for _, mag, log_mag in entries]).reshape(-1, 2)
    _write_csv(path, "position,token,magnitude,log_magnitude", [positions, labels, *magnitudes.T])


def write_importance_csv(path: str, pairs: list[tuple[str, float]]) -> None:
    columns = [range(len(pairs)), [token for token, _ in pairs], np.array([n for _, n in pairs])]
    _write_csv(path, "position,token,l2_norm", columns)


def write_moments_csv(path: str, report) -> None:
    """Frozen moment schema needs both the oracle and MC curves present."""
    if report.mean_ode is None or report.var_ode is None:
        raise ValidationError("moment report has no oracle curves; supply a linear reference")
    columns = [report.t_grid, report.mean_ode, report.var_ode, report.mean_mc, report.var_mc]
    _write_csv(path, "t,mean_ode,var_ode,mean_mc,var_mc", columns)
