"""Verification and analysis battery for fitted models.

Everything here treats the model as a black-box pair of fields, read through
``SdeModel.fields`` (its dimension check, and overflow as inf rather than a
warning), and asks whether it behaves like a well-posed, stable SDE:

* regularity: empirical Lipschitz and linear-growth constants over probe
  states (lower bounds on the true constants, never certificates);
* Lyapunov: sign of the generator ``LV(x) = 2 x'mu + |sigma|^2`` of
  ``V(x) = |x|^2`` at probe states;
* moments: Monte Carlo mean/variance curves and raw moments 3 and 4, paired
  with the closed-form linear-oracle curves where those exist;
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
from .numeric_core import RngStream, pca_fit, stream_words
from .sde_model import (
    EmbeddingTrajectory,
    LinearSdeSpec,
    SdeModel,
    simulate_ensemble,
)

# pairs closer than this in state space are skipped in Lipschitz ratios
_MIN_PAIR_DISTANCE = 1e-9
# pair-difference floats per block in estimate_regularity: bounds its memory
_PAIR_BLOCK = 2**16


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


@dataclass(frozen=True)
class LyapunovReport:
    """Generator of ``V(x) = |x|^2`` at probe states: ``generator_values[i]`` at row ``i``."""

    generator_values: np.ndarray
    max_generator: float
    stable_flag: bool


@dataclass(frozen=True)
class MomentReport:
    """Moment curves over a shared time grid.

    ``mean_ode`` and ``var_ode`` are present only when a linear reference
    spec was supplied; ``higher_moments_mc`` maps raw-moment orders 3 and 4
    to their Monte Carlo curves.
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
    ``drift_arrows`` are the plane projections of the drift and
    ``diffusion_magnitudes`` the full-dimensional norms of the diffusion.
    """

    plane_basis: np.ndarray
    plane_mean: np.ndarray
    grid_points: np.ndarray
    drift_arrows: np.ndarray
    diffusion_magnitudes: np.ndarray


def estimate_regularity(model: SdeModel, probe_states, t: float) -> RegularityEstimate:
    """Max regularity ratios over all probe pairs at a fixed time.

    Pairs closer than 1e-9 in state space are skipped; if every pair is
    that degenerate, or a constant is not finite, the estimate is refused.
    The pairs are walked in blocks of at most ``2**16 // d``, so memory
    grows with the number of probes, not with the number of pairs.
    """
    probes = np.atleast_2d(np.asarray(probe_states, dtype=np.float64))
    if probes.shape[0] < 2:
        raise ValidationError("need at least two probe states")

    mu, sigma = model.fields(probes, t)
    iu, ju = np.triu_indices(probes.shape[0], k=1)
    block = max(1, _PAIR_BLOCK // model.dim)
    lipschitz_k, n_pairs = -np.inf, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, iu.size, block):
            i, j = iu[start : start + block], ju[start : start + block]
            dx = np.linalg.norm(probes[i] - probes[j], axis=1)
            keep = dx >= _MIN_PAIR_DISTANCE
            i, j = i[keep], j[keep]
            dmu = np.linalg.norm(mu[i] - mu[j], axis=1)
            dsigma = np.linalg.norm(sigma[i] - sigma[j], axis=1)
            ratio = (dmu + dsigma) / dx[keep]
            # np.maximum and np.max propagate NaN, as one max over all pairs would
            lipschitz_k = np.maximum(lipschitz_k, np.max(ratio, initial=-np.inf))
            n_pairs += i.size
        growth = np.sum(mu**2, axis=1) + np.sum(sigma**2, axis=1)
        growth /= 1.0 + np.sum(probes**2, axis=1)
    if n_pairs == 0:
        raise EstimationError("all probe pairs are degenerate (states coincide)")
    lipschitz_k, growth_c = float(lipschitz_k), float(np.max(growth))
    if not (math.isfinite(lipschitz_k) and math.isfinite(growth_c)):
        raise EstimationError(f"non-finite regularity constants K={lipschitz_k} C={growth_c}")
    return RegularityEstimate(lipschitz_k=lipschitz_k, growth_c=growth_c, n_probe_pairs=n_pairs)


def lyapunov_check(model: SdeModel, probe_states, t: float) -> LyapunovReport:
    """Evaluate the generator of ``V(x) = |x|^2`` at probes; stable when max <= 0.

    With diagonal diffusion the generator is ``LV(x) = 2 x'mu + |sigma|^2``.
    A non-finite maximum is refused.
    """
    probes = np.atleast_2d(np.asarray(probe_states, dtype=np.float64))
    mu, sigma = model.fields(probes, t)
    with np.errstate(over="ignore", invalid="ignore"):
        values = 2.0 * np.sum(probes * mu, axis=1) + np.sum(sigma**2, axis=1)
    max_gen = float(np.max(values))
    if not math.isfinite(max_gen):
        raise EstimationError(f"non-finite Lyapunov generator: max LV = {max_gen}")
    return LyapunovReport(values, max_gen, stable_flag=max_gen <= 0.0)


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


def check_path_count(n_paths: int) -> None:
    """Refuse a Monte Carlo moment run on fewer than 100 paths."""
    if n_paths < 100:
        raise ValidationError(f"need at least 100 paths, got {n_paths}")


def moment_monte_carlo(
    model: SdeModel,
    x0_mean: float,
    x0_var: float,
    t_grid,
    n_paths: int,
    seed: int,
    reference: LinearSdeSpec | None = None,
) -> MomentReport:
    """Monte Carlo moment curves for a scalar model on a uniform grid.

    Start states are ``N(x0_mean, x0_var)`` from the stream seeded with word
    0 of stream ``seed``; paths then follow the model's own noise streams
    (``seed XOR path``).  Supplying a linear ``reference`` adds the
    closed-form curves with matching initial moments.
    """
    if model.dim != 1:
        raise ValidationError("moment analysis is defined for scalar models only")
    check_path_count(n_paths)
    if x0_var < 0.0:
        raise ValidationError(f"x0_var must be nonnegative, got {x0_var}")
    t = np.asarray(t_grid, dtype=np.float64)
    if t.ndim != 1 or t.size < 2:
        raise ValidationError("t_grid needs at least two points")
    deltas = np.diff(t)
    if np.any(deltas <= 0.0) or np.max(np.abs(deltas - deltas[0])) > 1e-9 * deltas[0]:
        raise ValidationError("t_grid must be uniform and increasing")
    if abs(t[0]) > 1e-12:
        raise ValidationError("t_grid must start at 0")

    dt = float(deltas[0])
    start_stream = RngStream(int(stream_words(seed, 0, 1)[0]))
    starts = x0_mean + math.sqrt(x0_var) * start_stream.normals(n_paths)
    ens = simulate_ensemble(
        model, starts[:, None], n_paths=n_paths, n_steps=t.size - 1, dt=dt, seed=seed
    )
    vals = ens[:, :, 0]
    mean_mc = vals.mean(axis=0)
    var_mc = vals.var(axis=0, ddof=1)
    higher = {order: (vals**order).mean(axis=0) for order in (3, 4)}

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
    actual: EmbeddingTrajectory, model: SdeModel
) -> tuple[EmbeddingTrajectory, np.ndarray]:
    """Teacher-forced one-step drift prediction against an observed path.

    Each prediction starts from the true previous state and applies only the
    drift: ``x_hat_{i+1} = x_i + mu(x_i, t_i) dt_i``, so the prediction is
    deterministic.  Returns the predicted trajectory (same times, starting at
    the true start) and an array of per-step error norms, inf on overflow.
    """
    if len(actual) < 2:
        raise ValidationError("need at least two states to compare")
    x = actual.states[:-1]
    mu, _ = model.fields(x, actual.times[:-1])
    with np.errstate(over="ignore", invalid="ignore"):
        preds = x + mu * np.diff(actual.times)[:, None]
        errors = np.linalg.norm(preds - actual.states[1:], axis=1)
    predicted = EmbeddingTrajectory(
        states=np.vstack([actual.states[:1], preds]),
        times=actual.times.copy(),
        tokens=list(actual.tokens) if actual.tokens is not None else None,
    )
    return predicted, errors


def drift_vector_field(
    model: SdeModel,
    trajectories: list[EmbeddingTrajectory],
    grid_resolution: int,
    t: float,
) -> VectorFieldGrid:
    """Drift arrows on the top-2 PCA plane of the pooled trajectory states.

    Each grid point ``g`` (a regular lattice over the projected data range)
    is lifted to state space via ``mean + basis' g``, the fields evaluated
    there, and the drift projected back to the plane.  States with no plane
    to fit raise :func:`pca_fit`'s :class:`EstimationError`, and so does an
    arrow or diffusion magnitude that is not finite.
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
    pca = pca_fit(pooled, 2)
    coords = (pooled - pca.mean) @ pca.basis.T
    axes = [np.linspace(coords[:, j].min(), coords[:, j].max(), grid_resolution) for j in (0, 1)]
    gx, gy = np.meshgrid(axes[0], axes[1])  # rows ordered by gy, then gx
    grid = np.column_stack([gx.ravel(), gy.ravel()])

    mu, sigma = model.fields(pca.mean + grid @ pca.basis, t)
    with np.errstate(over="ignore", invalid="ignore"):
        arrows, diffusion = mu @ pca.basis.T, np.linalg.norm(sigma, axis=1)
    if not (np.isfinite(arrows).all() and np.isfinite(diffusion).all()):
        raise EstimationError("non-finite drift arrows or diffusion magnitudes on the plane")
    return VectorFieldGrid(plane_basis=pca.basis, plane_mean=pca.mean, grid_points=grid,
                           drift_arrows=arrows, diffusion_magnitudes=diffusion)


def uncertainty_heatmap(
    model: SdeModel, trajectory: EmbeddingTrajectory
) -> tuple[np.ndarray, np.ndarray]:
    """Diffusion norms at the trajectory positions, in order, and their natural logs."""
    _, sigma = model.fields(trajectory.states, trajectory.times)
    # an overflowing norm is inf; zero-diffusion fixtures log to -inf
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mags = np.linalg.norm(sigma, axis=1)
        return mags, np.log(mags)


def word_importance(trajectory: EmbeddingTrajectory) -> tuple[list[str], np.ndarray]:
    """Token labels and the Euclidean norms of their embeddings, in trajectory order.

    Tokens without labels fall back to their position index, with a warning:
    unlike the refusals elsewhere in this module, the result is still usable.
    """
    if trajectory.tokens is None:
        warnings.warn("trajectory has no token labels; using position indices")
        labels = [str(i) for i in range(len(trajectory))]
    else:
        labels = list(trajectory.tokens)
    return labels, np.linalg.norm(trajectory.states, axis=1)
