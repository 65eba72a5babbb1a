"""Verification and analysis battery for fitted models.

Everything here treats the model as a black-box pair of fields and asks
whether it behaves like a well-posed, stable SDE:

* regularity: empirical Lipschitz and linear-growth constants over probe
  states (lower bounds on the true constants, never certificates);
* Lyapunov: sign of the generator ``LV(x) = 2 x'P mu + sum_j P_jj sigma_j^2``
  of the quadratic ``V(x) = x'Px`` at probe states;
* moments: Monte Carlo mean/variance/raw-moment curves, paired with the
  closed-form linear-oracle curves where those exist;
* plot data: teacher-forced trajectory comparison, drift vector fields on a
  PCA plane, per-position diffusion magnitudes, per-token embedding norms.

Closed-form moment curves are only computed for linear specs; for learned
nonlinear fields the Monte Carlo route is the only one offered.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EstimationError, ValidationError
from .numeric_core import RngStream, pca_fit
from .sde_model import (
    EmbeddingTrajectory,
    LinearSdeSpec,
    SdeModel,
    simulate_ensemble,
)

# pairs closer than this in state space are skipped in Lipschitz ratios
_MIN_PAIR_DISTANCE = 1e-9


@dataclass(frozen=True)
class RegularityEstimate:
    """Empirical regularity constants over a probed region.

    ``lipschitz_k`` bounds ``|d mu| + |d sigma| <= K |dX|`` from below;
    ``growth_c`` bounds ``|mu|^2 + |sigma|^2 <= C (1 + |X|^2)``.  Both are
    maxima over the probes actually evaluated, nothing more.
    """

    lipschitz_k: float
    growth_c: float
    n_probe_pairs: int
    state_region: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class LyapunovReport:
    """Generator of ``V(x) = x'Px`` evaluated at probe states."""

    p_matrix: np.ndarray
    generator_values: list[tuple[np.ndarray, float]]
    max_generator: float
    stable_flag: bool


@dataclass(frozen=True)
class MomentReport:
    """Moment curves over a shared time grid.

    ``mean_ode`` and ``var_ode`` are present only when a linear reference
    spec was supplied; ``higher_moments_mc`` maps raw-moment order to its
    Monte Carlo curve.
    """

    t_grid: np.ndarray
    mean_mc: np.ndarray
    var_mc: np.ndarray
    n_paths: int
    mean_ode: np.ndarray | None = None
    var_ode: np.ndarray | None = None
    higher_moments_mc: dict[int, np.ndarray] | None = None


@dataclass(frozen=True)
class VectorFieldGrid:
    """Drift arrows and diffusion magnitudes on a 2-D PCA plane.

    Grid rows are ordered by the second plane coordinate, then the first.
    ``drift_arrows`` are the plane projections of the drift;
    ``drift_magnitudes`` are the full-dimensional norms, recorded separately
    so neither projection is conflated with the other.
    """

    plane_basis: np.ndarray
    plane_mean: np.ndarray
    grid_points: np.ndarray
    drift_arrows: np.ndarray
    drift_magnitudes: np.ndarray
    diffusion_magnitudes: np.ndarray


def estimate_regularity(model: SdeModel, probe_states, t: float) -> RegularityEstimate:
    """Max regularity ratios over all probe pairs at a fixed time.

    Pairs closer than 1e-9 in state space are skipped; if every pair is
    that degenerate the estimate is refused.
    """
    probes = np.atleast_2d(np.asarray(probe_states, dtype=np.float64))
    if probes.shape[0] < 2:
        raise ValidationError("need at least two probe states")
    if probes.shape[1] != model.dim:
        raise DimensionMismatchError(f"probe dim {probes.shape[1]}, model dim {model.dim}")

    mu = model.drift(probes, t)
    sigma = model.diffusion(probes, t)

    iu, ju = np.triu_indices(probes.shape[0], k=1)
    dx = np.linalg.norm(probes[iu] - probes[ju], axis=1)
    keep = dx >= _MIN_PAIR_DISTANCE
    if not np.any(keep):
        raise EstimationError("all probe pairs are degenerate (states coincide)")
    dmu = np.linalg.norm(mu[iu] - mu[ju], axis=1)
    dsigma = np.linalg.norm(sigma[iu] - sigma[ju], axis=1)
    lipschitz_k = float(np.max((dmu[keep] + dsigma[keep]) / dx[keep]))

    growth = (np.sum(mu**2, axis=1) + np.sum(sigma**2, axis=1)) / (
        1.0 + np.sum(probes**2, axis=1)
    )
    return RegularityEstimate(
        lipschitz_k=lipschitz_k,
        growth_c=float(np.max(growth)),
        n_probe_pairs=int(np.count_nonzero(keep)),
        state_region=(probes.min(axis=0), probes.max(axis=0)),
    )


def lyapunov_check(
    model: SdeModel, probe_states, t: float, p_matrix: np.ndarray | None = None
) -> LyapunovReport:
    """Evaluate the generator of ``x'Px`` at probes; stable when max <= 0.

    ``p_matrix`` defaults to the identity and must be symmetric positive
    definite.  With diagonal diffusion the trace term reduces to
    ``sum_j P_jj sigma_j^2``.
    """
    probes = np.atleast_2d(np.asarray(probe_states, dtype=np.float64))
    if probes.shape[1] != model.dim:
        raise DimensionMismatchError(f"probe dim {probes.shape[1]}, model dim {model.dim}")
    p = np.eye(model.dim) if p_matrix is None else np.asarray(p_matrix, dtype=np.float64)
    if p.shape != (model.dim, model.dim):
        raise DimensionMismatchError(f"P shape {p.shape}, model dim {model.dim}")
    if float(np.max(np.abs(p - p.T))) > 1e-12:
        raise ValidationError("P must be symmetric")
    if np.linalg.eigvalsh(p)[0] <= 0.0:
        raise ValidationError("P must be positive definite")

    mu = model.drift(probes, t)
    sigma = model.diffusion(probes, t)
    p_diag = np.diag(p)
    values = 2.0 * np.sum(probes * (mu @ p.T), axis=1) + np.sum(p_diag * sigma**2, axis=1)
    pairs = [(probes[i].copy(), float(values[i])) for i in range(probes.shape[0])]
    max_gen = float(np.max(values))
    return LyapunovReport(
        p_matrix=p,
        generator_values=pairs,
        max_generator=max_gen,
        stable_flag=max_gen <= 0.0,
    )


def moment_ode_solve(
    spec: LinearSdeSpec, m0: float, v0: float, t_grid
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form mean and variance curves of the linear SDE.

    ``m(t) = m0 e^{at}``.  The second moment solves
    ``dE[X^2]/dt = 2a E[X^2] + b^2``; subtracting the mean equation turns
    that into ``dv/dt = 2av + b^2``, whose solution
    ``v(t) = v0 e^{2at} + b^2 (e^{2at} - 1) / (2a)`` (limit ``v0 + b^2 t``
    as ``a -> 0``) is evaluated directly: both terms are nonnegative, so no
    cancellation can push the curve below zero.
    """
    if v0 < 0.0:
        raise ValidationError(f"v0 must be nonnegative, got {v0}")
    t = np.atleast_1d(np.asarray(t_grid, dtype=np.float64))
    if t.size > 1 and np.any(np.diff(t) <= 0.0):
        raise ValidationError("t_grid must be strictly increasing")
    a, b = spec.a, spec.b
    mean = m0 * np.exp(a * t)
    if a != 0.0:
        var = v0 * np.exp(2.0 * a * t) + b**2 * np.expm1(2.0 * a * t) / (2.0 * a)
    else:
        var = v0 + b**2 * t
    return mean, var


def moment_monte_carlo(
    model: SdeModel,
    x0_mean: float,
    x0_var: float,
    t_grid,
    n_paths: int,
    seed: int,
    max_order: int = 4,
    reference: LinearSdeSpec | None = None,
) -> MomentReport:
    """Monte Carlo moment curves for a scalar model on a uniform grid.

    Start states are ``N(x0_mean, x0_var)`` from a stream derived off the
    path seed; paths then follow the model's own noise streams
    (``seed XOR path``).  Supplying a linear ``reference`` adds the
    closed-form curves with matching initial moments.
    """
    if model.dim != 1:
        raise ValidationError("moment analysis is defined for scalar models only")
    if n_paths < 100:
        raise ValidationError(f"need at least 100 paths, got {n_paths}")
    if x0_var < 0.0:
        raise ValidationError(f"x0_var must be nonnegative, got {x0_var}")
    if max_order < 2:
        raise ValidationError(f"max_order must be at least 2, got {max_order}")
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1 or t.size < 2:
        raise ValidationError("t_grid needs at least two points")
    deltas = np.diff(t)
    if np.any(deltas <= 0.0) or np.max(np.abs(deltas - deltas[0])) > 1e-9 * deltas[0]:
        raise ValidationError("t_grid must be uniform and increasing")
    if abs(t[0]) > 1e-12:
        raise ValidationError("t_grid must start at 0")

    dt = float(deltas[0])
    start_stream = RngStream(RngStream(seed).next_uint64())
    starts = x0_mean + math.sqrt(x0_var) * start_stream.normals(n_paths)
    ens = simulate_ensemble(
        model, starts[:, None], n_paths=n_paths, n_steps=t.size - 1, dt=dt, seed=seed
    )
    vals = ens[:, :, 0]
    mean_mc = vals.mean(axis=0)
    var_mc = vals.var(axis=0, ddof=1)
    higher = {order: (vals**order).mean(axis=0) for order in range(3, max_order + 1)}

    mean_ode = var_ode = None
    if reference is not None:
        mean_ode, var_ode = moment_ode_solve(reference, m0=x0_mean, v0=x0_var, t_grid=t)
    return MomentReport(
        t_grid=t,
        mean_mc=mean_mc,
        var_mc=var_mc,
        n_paths=n_paths,
        mean_ode=mean_ode,
        var_ode=var_ode,
        higher_moments_mc=higher,
    )


def compare_trajectories(
    actual: EmbeddingTrajectory, model: SdeModel, seed: int = 0
) -> tuple[EmbeddingTrajectory, list[float]]:
    """Teacher-forced one-step drift prediction against an observed path.

    Each prediction starts from the true previous state and applies only the
    drift: ``x_hat_{i+1} = x_i + mu(x_i, t_i) dt_i``.  The ``seed`` is
    accepted for interface symmetry with the stochastic ops but unused; the
    prediction is deterministic.  Returns the predicted trajectory (same
    times, starting at the true start) and per-step error norms.
    """
    del seed
    if len(actual) < 2:
        raise ValidationError("need at least two states to compare")
    if actual.dim != model.dim:
        raise DimensionMismatchError(f"trajectory dim {actual.dim}, model dim {model.dim}")
    x = actual.states[:-1]
    ts = actual.times[:-1]
    dts = np.diff(actual.times)
    preds = x + model.drift(x, ts) * dts[:, None]
    errors = np.linalg.norm(preds - actual.states[1:], axis=1)
    predicted = EmbeddingTrajectory(
        states=np.vstack([actual.states[:1], preds]),
        times=actual.times.copy(),
        tokens=list(actual.tokens) if actual.tokens is not None else None,
    )
    return predicted, [float(e) for e in errors]


def drift_vector_field(
    model: SdeModel,
    trajectories: list[EmbeddingTrajectory],
    grid_resolution: int,
    t: float,
) -> VectorFieldGrid:
    """Drift arrows on the top-2 PCA plane of the pooled trajectory states.

    Each grid point ``g`` (a regular lattice over the projected data range)
    is lifted to state space via ``mean + basis' g``, the fields evaluated
    there, and the drift projected back to the plane.
    """
    if model.dim < 2:
        raise ValidationError("vector fields need state dimension >= 2")
    if grid_resolution < 2:
        raise ValidationError(f"grid_resolution must be >= 2, got {grid_resolution}")
    if not trajectories:
        raise ValidationError("no trajectories given")
    pooled = np.vstack([traj.states for traj in trajectories])
    if pooled.shape[1] != model.dim:
        raise DimensionMismatchError(f"data dim {pooled.shape[1]}, model dim {model.dim}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # degenerate cloud surfaces as an exception
        try:
            pca = pca_fit(pooled, 2)
        except UserWarning as exc:
            raise EstimationError("need at least 2 distinct states for the plane") from exc

    coords = (pooled - pca.mean) @ pca.basis.T
    axes = [np.linspace(coords[:, j].min(), coords[:, j].max(), grid_resolution) for j in (0, 1)]
    gx, gy = np.meshgrid(axes[0], axes[1])  # rows ordered by gy, then gx
    grid = np.column_stack([gx.ravel(), gy.ravel()])

    lifted = pca.mean + grid @ pca.basis
    mu = model.drift(lifted, t)
    sigma = model.diffusion(lifted, t)
    return VectorFieldGrid(
        plane_basis=pca.basis,
        plane_mean=pca.mean,
        grid_points=grid,
        drift_arrows=mu @ pca.basis.T,
        drift_magnitudes=np.linalg.norm(mu, axis=1),
        diffusion_magnitudes=np.linalg.norm(sigma, axis=1),
    )


def uncertainty_heatmap(
    model: SdeModel, trajectory: EmbeddingTrajectory
) -> list[tuple[int, float, float]]:
    """Diffusion norm (and its natural log) at every trajectory position."""
    if trajectory.dim != model.dim:
        raise DimensionMismatchError(f"trajectory dim {trajectory.dim}, model dim {model.dim}")
    sigma = model.diffusion(trajectory.states, trajectory.times)
    mags = np.linalg.norm(sigma, axis=1)
    with np.errstate(divide="ignore"):  # zero-diffusion fixtures give -inf
        logs = np.log(mags)
    return [(i, float(mags[i]), float(logs[i])) for i in range(len(trajectory))]


def word_importance(trajectory: EmbeddingTrajectory) -> list[tuple[str, float]]:
    """Euclidean norm of each token's embedding, in trajectory order.

    Tokens without labels fall back to their position index, with a warning.
    """
    if trajectory.tokens is None:
        warnings.warn("trajectory has no token labels; using position indices")
        labels = [str(i) for i in range(len(trajectory))]
    else:
        labels = list(trajectory.tokens)
    norms = np.linalg.norm(trajectory.states, axis=1)
    return [(labels[i], float(norms[i])) for i in range(len(trajectory))]
