"""Fitting the drift and diffusion networks from observed trajectories.

Training data are one-step transitions ``(x, x_next, t, dt)`` pooled from
trajectories.  Two per-sample losses drive the two networks:

* drift: squared error of the predicted increment,
  ``|x_next - (x + mu(x, t) dt)|^2``;
* diffusion: Gaussian transition negative log-likelihood of the residual
  ``r = x_next - x - mu(x, t) dt`` under ``N(0, diag(sigma^2) dt)``, with
  the constant ``(d/2) log 2 pi`` dropped:
  ``sum_j [ r_j^2 / (2 sigma_j^2 dt) + log(sigma_j sqrt(dt)) ]``.

The residual inside the diffusion loss is treated as a constant with respect
to the drift parameters (stop-gradient): the drift trains purely on its
squared error, the diffusion fits the spread of whatever residuals the
current drift leaves.  The combined objective is
``drift_weight * L_drift + diffusion_weight * L_diffusion``; because the
likelihood's log term can go negative, the total can too.

Validation splits are made by trajectory, not by transition: transitions
within one trajectory are correlated, and splitting them across train and
validation would leak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TrainingDivergenceError, ValidationError
from .mlp import glorot_init, sgd_step
from .numeric_core import RngStream
from .sde_model import EmbeddingTrajectory, SdeModel, TimeEncoding


@dataclass(frozen=True)
class Transitions:
    """Observed one-step transitions, one row per step.

    Row ``i`` is state ``x[i]`` at time ``t[i]`` moving to ``x_next[i]`` at
    ``t[i] + dt[i]``; ``x`` and ``x_next`` have shape ``(n, d)``, ``t`` and
    ``dt`` shape ``(n,)``.
    """

    x: np.ndarray
    x_next: np.ndarray
    t: np.ndarray
    dt: np.ndarray

    def __len__(self) -> int:
        return self.dt.shape[0]


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters of the fitting procedure.

    ``hidden_dims``, ``hidden_activation`` and the time-encoding choice fix
    the architecture of both networks; everything else controls the SGD
    loop.  ``validation_fraction`` is the share of trajectories (not
    transitions) held out.
    """

    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 0.05
    drift_weight: float = 1.0
    diffusion_weight: float = 1.0
    seed: int = 0
    validation_fraction: float = 0.0
    grad_clip: float | None = None
    hidden_dims: tuple[int, ...] = (32,)
    hidden_activation: str = "tanh"
    time_encoding_kind: str = "scalar_normalized"
    time_encoding_pairs: int = 4

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValidationError("epochs and batch_size must be positive")
        if not (self.learning_rate > 0.0):
            raise ValidationError("learning_rate must be positive")
        if self.drift_weight < 0.0 or self.diffusion_weight < 0.0:
            raise ValidationError("loss weights must be nonnegative")
        if self.drift_weight + self.diffusion_weight <= 0.0:
            raise ValidationError("at least one loss weight must be positive")
        if not (0.0 <= self.validation_fraction < 1.0):
            raise ValidationError("validation_fraction must lie in [0, 1)")
        if self.grad_clip is not None and not (self.grad_clip > 0.0):
            raise ValidationError("grad_clip must be positive when set")


@dataclass(frozen=True)
class LossRecord:
    """Per-sample average losses after one epoch on one split."""

    epoch: int
    split: str
    total: float
    drift: float
    diffusion: float


def extract_transitions(trajectories: list[EmbeddingTrajectory]) -> Transitions:
    """Consecutive-state pairs of every trajectory, trajectory by trajectory.

    A single-state trajectory contributes none.  The trajectories must share
    one state dimension.
    """
    if not trajectories:
        raise ValidationError("no trajectories given")
    _check_dims(trajectories)
    return Transitions(
        x=np.concatenate([traj.states[:-1] for traj in trajectories]),
        x_next=np.concatenate([traj.states[1:] for traj in trajectories]),
        t=np.concatenate([traj.times[:-1] for traj in trajectories]),
        dt=np.concatenate([np.diff(traj.times) for traj in trajectories]),
    )


def _check_dims(trajectories: list[EmbeddingTrajectory]) -> int:
    """The state dimension the trajectories share; names the first that differs."""
    dim = trajectories[0].dim
    for i, traj in enumerate(trajectories):
        if traj.dim != dim:
            raise DimensionMismatchError(f"trajectory {i} has dim {traj.dim}, expected {dim}")
    return dim


def _loss_kernel(mu, sigma, x, x_next, dt, with_grads=False):
    """Drift and diffusion losses of one batch from the nets' outputs.

    ``mu`` and ``sigma`` are the drift and diffusion outputs at the rows'
    ``(x, t)``.  Returns ``(drift, diffusion)``, and with ``with_grads`` also
    the gradients of both losses w.r.t. ``mu`` and ``sigma``.  The residual
    enters the diffusion gradient as data (stop-gradient).  Raises when
    ``sigma`` is not strictly positive.
    """
    if np.any(sigma <= 0.0):
        raise ValidationError("diffusion must be strictly positive on the batch")
    n = x.shape[0]
    dt = dt[:, None]
    resid = x_next - x - mu * dt
    # (n, d) temporaries in place: on a whole split they set the evaluation's peak memory
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if with_grads:  # before resid is squared in place
            grad_mu = (-2.0 / n) * resid * dt
            grad_sigma = (1.0 / n) * (-(resid**2) / (sigma**3 * dt) + 1.0 / sigma)
        terms = np.square(resid, out=resid)
        drift = float(np.mean(np.sum(terms, axis=1)))
        scale = sigma**2 * 2.0
        scale *= dt
        terms /= scale
        terms += np.log(sigma, out=scale)
        terms += 0.5 * np.log(dt)
        diffusion = float(np.mean(np.sum(terms, axis=1)))
    return (drift, diffusion, grad_mu, grad_sigma) if with_grads else (drift, diffusion)


def transition_losses(model: SdeModel, transitions: Transitions) -> tuple[float, float]:
    """Average drift and diffusion losses of ``model`` over ``transitions``.

    The drift loss is the mean squared increment error; the diffusion loss
    is the mean residual negative log-likelihood (constant term dropped), so
    it can be negative.  Raises on an empty set or a diffusion that is not
    strictly positive.
    """
    if len(transitions) == 0:
        raise ValidationError("no transitions to evaluate")
    return _split_losses(model, transitions, _split_input(model, transitions))


def _split_input(model: SdeModel, transitions: Transitions) -> np.ndarray:
    """The net input rows of every transition, shared by both nets."""
    return model._net_input(transitions.x, model.time_encoding.encode_batch(transitions.t))


def _split_losses(model: SdeModel, transitions: Transitions, inputs: np.ndarray):
    """``(drift, diffusion)`` losses over ``transitions`` from their net input rows."""
    return _loss_kernel(
        model.drift_net.forward(inputs), model.diffusion_net.forward(inputs),
        transitions.x, transitions.x_next, transitions.dt,
    )


def split_by_trajectory(
    trajectories: list[EmbeddingTrajectory],
    validation_fraction: float,
    rng: RngStream,
) -> tuple[list[EmbeddingTrajectory], list[EmbeddingTrajectory]]:
    """Deterministic train/validation split at trajectory granularity."""
    order = rng.shuffled_indices(len(trajectories))
    n_val = int(round(validation_fraction * len(trajectories)))
    n_val = min(n_val, len(trajectories) - 1)
    val_idx = set(order[:n_val].tolist())
    train = [t for i, t in enumerate(trajectories) if i not in val_idx]
    val = [t for i, t in enumerate(trajectories) if i in val_idx]
    return train, val


def fit(
    trajectories: list[EmbeddingTrajectory],
    config: TrainingConfig | None = None,
) -> tuple[SdeModel, list[LossRecord]]:
    """Train drift and diffusion networks on trajectory transitions.

    Deterministic given ``config.seed``: initialization, the validation
    split, and per-epoch shuffling all derive from one stream.  Raises
    :class:`TrainingDivergenceError` (carrying the records so far and the
    last epoch that was still finite) when a loss stops being finite.
    """
    config = config if config is not None else TrainingConfig()
    if not trajectories:
        raise ValidationError("no trajectories given")
    dim = _check_dims(trajectories)

    rng = RngStream(config.seed)
    train_trajs, val_trajs = split_by_trajectory(trajectories, config.validation_fraction, rng)
    t_max = max(float(traj.times[-1]) for traj in trajectories)
    encoding = TimeEncoding(
        kind=config.time_encoding_kind,
        horizon=t_max if t_max > 0.0 else 1.0,
        n_pairs=config.time_encoding_pairs,
    )
    layer_dims = [dim + encoding.width, *config.hidden_dims, dim]
    drift_net = glorot_init(layer_dims, rng, config.hidden_activation, "identity")
    diffusion_net = glorot_init(layer_dims, rng, config.hidden_activation, "softplus")
    model = SdeModel(dim, drift_net, diffusion_net, encoding)
    # the split arrays come after the long-lived nets, so the heap above the nets holds
    # nothing that outlives the fit and the allocator can give it back on return
    train = extract_transitions(train_trajs)
    if len(train) == 0:
        raise ValidationError("no transitions to train on (all trajectories have length 1?)")
    feats_all = _split_input(model, train)
    splits = [("train", train, feats_all)]
    if val_trajs and len(val := extract_transitions(val_trajs)):
        splits.append(("validation", val, _split_input(model, val)))

    records: list[LossRecord] = []
    last_good = 0
    for epoch in range(1, config.epochs + 1):
        order = rng.shuffled_indices(len(train))
        # overflow surfaces as a non-finite loss, which the finiteness checks catch
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(order), config.batch_size):
                idx = order[start : start + config.batch_size]
                feats = feats_all[idx]
                mu, drift_cache = drift_net.forward_with_cache(feats)
                sigma, diffusion_cache = diffusion_net.forward_with_cache(feats)
                l_mu, l_sigma, grad_mu, grad_sigma = _loss_kernel(
                    mu, sigma, train.x[idx], train.x_next[idx], train.dt[idx], with_grads=True
                )
                if not (math.isfinite(l_mu) and math.isfinite(l_sigma)):
                    raise TrainingDivergenceError(
                        f"non-finite batch loss in epoch {epoch}",
                        last_good_epoch=last_good,
                        records=records,
                    )
                if config.drift_weight > 0.0:
                    grad = config.drift_weight * drift_net.backward(drift_cache, grad_mu)
                    sgd_step(drift_net, grad, config.learning_rate, config.grad_clip)
                if config.diffusion_weight > 0.0:
                    grad = diffusion_net.backward(diffusion_cache, grad_sigma)
                    grad = config.diffusion_weight * grad
                    sgd_step(diffusion_net, grad, config.learning_rate, config.grad_clip)

            epoch_records = []
            for split, data, inputs in splits:
                l_mu, l_sigma = _split_losses(model, data, inputs)
                total = config.drift_weight * l_mu + config.diffusion_weight * l_sigma
                epoch_records.append(LossRecord(epoch, split, total, l_mu, l_sigma))
        if not all(math.isfinite(r.total) for r in epoch_records):
            raise TrainingDivergenceError(
                f"non-finite loss after epoch {epoch}",
                last_good_epoch=last_good,
                records=records,
            )
        records.extend(epoch_records)
        last_good = epoch
    return model, records
