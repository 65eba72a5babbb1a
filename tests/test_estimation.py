import math
import warnings

import numpy as np
import pytest

from embsde.errors import DimensionMismatchError, TrainingDivergenceError, ValidationError
from embsde.estimation import (
    TrainingConfig,
    Transitions,
    _loss_kernel,
    extract_transitions,
    fit,
    split_by_trajectory,
    transition_losses,
)
from embsde.mlp import glorot_init
from embsde.numeric_core import RngStream
from embsde.sde_model import (
    EmbeddingTrajectory,
    LinearSdeSpec,
    TimeEncoding,
    linear_sde_model,
    sample_linear_trajectories,
    simulate,
)


def constant_trajectory(value, n, dim):
    return EmbeddingTrajectory(np.tile(value, (n, dim)), np.arange(n, dtype=float))


def scalar_transitions(x, x_next, dt=1.0):
    """Scalar-state transitions ``x[i] -> x_next[i]`` starting at time 0."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x_next = np.atleast_1d(np.asarray(x_next, dtype=np.float64))
    return Transitions(x[:, None], x_next[:, None], np.zeros(x.size), np.full(x.size, dt))


class TestTrainingConfig:
    def test_defaults_valid(self):
        cfg = TrainingConfig()
        assert cfg.epochs >= 1 and cfg.drift_weight == cfg.diffusion_weight == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"drift_weight": -1.0},
            {"drift_weight": 0.0, "diffusion_weight": 0.0},
            {"validation_fraction": 1.0},
            {"grad_clip": 0.0},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            TrainingConfig(**kwargs)


class TestExtractTransitions:
    def test_two_states_one_sample(self):
        traj = EmbeddingTrajectory([[0.0], [1.0]], [0.0, 1.0])
        assert len(extract_transitions([traj])) == 1

    def test_seven_states_six_samples(self):
        traj = EmbeddingTrajectory(np.arange(7.0)[:, None], np.arange(7.0))
        assert len(extract_transitions([traj])) == 6

    def test_pairing_and_dt(self):
        first = EmbeddingTrajectory([[0.0], [1.0], [3.0]], [0.0, 1.0, 2.0])
        second = EmbeddingTrajectory([[5.0], [6.0]], [0.5, 0.75])
        data = extract_transitions([first, second])
        np.testing.assert_array_equal(data.x[:, 0], [0.0, 1.0, 5.0])
        np.testing.assert_array_equal(data.x_next[:, 0], [1.0, 3.0, 6.0])
        np.testing.assert_array_equal(data.t, [0.0, 1.0, 0.5])
        np.testing.assert_array_equal(data.dt, [1.0, 1.0, 0.25])

    def test_single_state_empty(self):
        data = extract_transitions([EmbeddingTrajectory([[1.0]], [0.0])])
        assert len(data) == 0 and data.x.shape == (0, 1)

    def test_mixed_dims_rejected(self):
        trajs = [constant_trajectory(0.0, 3, 1), constant_trajectory(0.0, 3, 2)]
        with pytest.raises(DimensionMismatchError, match="trajectory 1 has dim 2"):
            extract_transitions(trajs)


class TestDriftLoss:
    # the drift loss does not depend on b; b > 0 keeps sigma strictly positive
    def test_perfect_predictor_zero(self):
        enc = TimeEncoding(kind="none")
        noiseless = linear_sde_model(LinearSdeSpec(a=-0.8, b=0.0, dim=2), enc)
        traj = simulate(noiseless, np.array([1.0, -0.5]), n_steps=20, dt=0.1, seed=0)
        model = linear_sde_model(LinearSdeSpec(a=-0.8, b=0.3, dim=2), enc)
        drift, _ = transition_losses(model, extract_transitions([traj]))
        assert drift < 1e-25

    def test_zero_drift_unit_increment(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=1.0, dim=1), TimeEncoding(kind="none"))
        assert transition_losses(model, scalar_transitions(0.0, 1.0))[0] == 1.0

    def test_constant_half_drift(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=1.0, dim=1), TimeEncoding(kind="none"))
        model.drift_net.biases[0][:] = 0.5
        assert transition_losses(model, scalar_transitions(0.0, 1.0))[0] == 0.25

    def test_nonnegative(self):
        model = linear_sde_model(LinearSdeSpec(a=-2.0, b=1.0, dim=1))
        u = np.linspace(-2, 2, 9)
        assert transition_losses(model, scalar_transitions(u, -u, dt=0.5))[0] >= 0.0

    def test_empty_batch_rejected(self):
        model = linear_sde_model(LinearSdeSpec(0.0, 1.0, 1))
        with pytest.raises(ValidationError):
            transition_losses(model, scalar_transitions([], []))


class TestDiffusionLoss:
    def test_zero_residual_unit_scale(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=1.0, dim=1), TimeEncoding(kind="none"))
        assert abs(transition_losses(model, scalar_transitions(0.5, 0.5))[1]) < 1e-12

    def test_unit_residual_half(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=1.0, dim=1), TimeEncoding(kind="none"))
        assert abs(transition_losses(model, scalar_transitions(0.0, 1.0))[1] - 0.5) < 1e-12

    def test_ml_recovery_by_grid_scan(self):
        # residuals from N(0, 0.25); constant-sigma loss minimized near 0.5
        resid = 0.5 * RngStream(123).normals(10_000)
        data = scalar_transitions(np.zeros_like(resid), resid)
        grid = np.round(np.arange(0.30, 0.71, 0.01), 2)
        losses = [
            transition_losses(
                linear_sde_model(LinearSdeSpec(a=0.0, b=s, dim=1), TimeEncoding(kind="none")),
                data,
            )[1]
            for s in grid
        ]
        best = grid[int(np.argmin(losses))]
        assert 0.45 <= best <= 0.55
        # closed-form ML estimate agrees
        assert 0.45 <= math.sqrt(float(np.mean(resid**2))) <= 0.55

    def test_nonpositive_sigma_rejected(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=0.0, dim=1))  # identity head, sigma == 0
        with pytest.raises(ValidationError):
            transition_losses(model, scalar_transitions(0.0, 1.0))


def fd_grad(loss_at, theta, h=1e-6):
    """Central finite-difference gradient of ``loss_at`` at ``theta``."""
    fd = np.empty_like(theta)
    for i in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[i] += h
        dn[i] -= h
        fd[i] = (loss_at(up) - loss_at(dn)) / (2 * h)
    return fd


class TestLossGradients:
    def test_drift_grads_match_fd_of_drift_loss(self):
        rng = RngStream(7)
        net = glorot_init([2, 3, 1], rng, output_activation="identity")
        x, x_next = rng.normals(5)[:, None], rng.normals(5)[:, None]
        dt = np.full(5, 0.5)
        feats = np.concatenate([x, TimeEncoding(horizon=4.0).encode_batch(np.arange(5.0))], axis=1)
        mu, cache = net.forward_with_cache(feats)
        sigma = np.ones_like(mu)
        _, _, grad_mu, _ = _loss_kernel(mu, sigma, x, x_next, dt, with_grads=True)

        def loss_at(theta):
            probe = net.copy()
            probe.unflatten_params(theta)
            r = x_next - x - probe.forward(feats) * dt[:, None]
            return float(np.mean(np.sum(r * r, axis=1)))

        fd = fd_grad(loss_at, net.flatten_params())
        np.testing.assert_allclose(net.backward(cache, grad_mu), fd, rtol=1e-3, atol=1e-9)

    def test_diffusion_grads_match_fd(self):
        # the drift residual enters the diffusion loss as data (stop-gradient)
        rng = RngStream(8)
        net = glorot_init([2, 3, 1], rng, output_activation="softplus")
        feats = rng.normals(5 * 2).reshape(5, 2)
        x = rng.normals(5)[:, None]
        resid = 0.3 * rng.normals(5)[:, None]
        dt = np.full(5, 0.5)
        sigma, cache = net.forward_with_cache(feats)
        mu = np.zeros_like(sigma)
        _, _, _, grad_sigma = _loss_kernel(mu, sigma, x, x + resid, dt, with_grads=True)

        def loss_at(theta):
            probe = net.copy()
            probe.unflatten_params(theta)
            s = probe.forward(feats)
            terms = resid**2 / (2 * s**2 * dt[:, None]) + np.log(s) + 0.5 * np.log(dt)[:, None]
            return float(np.mean(np.sum(terms, axis=1)))

        fd = fd_grad(loss_at, net.flatten_params())
        np.testing.assert_allclose(net.backward(cache, grad_sigma), fd, rtol=1e-3, atol=1e-9)


class TestSplit:
    def make(self, n):
        return [constant_trajectory(float(i), 3, 1) for i in range(n)]

    def test_disjoint_and_complete(self):
        trajs = self.make(10)
        train, val = split_by_trajectory(trajs, 0.2, RngStream(0))
        assert len(train) == 8 and len(val) == 2
        ids = {id(t) for t in train} | {id(t) for t in val}
        assert ids == {id(t) for t in trajs}
        assert not ({id(t) for t in train} & {id(t) for t in val})

    def test_never_empty_train(self):
        train, val = split_by_trajectory(self.make(2), 0.9, RngStream(1))
        assert len(train) >= 1

    def test_deterministic(self):
        trajs = self.make(7)
        a = split_by_trajectory(trajs, 0.3, RngStream(3))
        b = split_by_trajectory(trajs, 0.3, RngStream(3))
        assert [id(t) for t in a[0]] == [id(t) for t in b[0]]


class TestFit:
    def test_learns_zero_increment_drift(self):
        trajs = [
            constant_trajectory(v, 6, 2)
            for v in np.linspace(-1.0, 1.0, 8)
        ]
        cfg = TrainingConfig(
            epochs=150,
            batch_size=16,
            learning_rate=0.1,
            drift_weight=1.0,
            diffusion_weight=0.0,
            hidden_dims=(8,),
            seed=2,
        )
        model, records = fit(trajs, cfg)
        finals = [r for r in records if r.split == "train"]
        assert finals[0].drift > finals[-1].drift
        assert finals[-1].drift < 1e-3

    def test_deterministic_records_and_params(self):
        trajs = sample_linear_trajectories(LinearSdeSpec(-1.0, 0.5, 1), 20, 10, 0.1, seed=4)
        cfg = TrainingConfig(epochs=3, batch_size=32, seed=11, validation_fraction=0.25)
        m1, r1 = fit(trajs, cfg)
        m2, r2 = fit(trajs, cfg)
        assert r1 == r2
        np.testing.assert_array_equal(
            m1.drift_net.flatten_params(), m2.drift_net.flatten_params()
        )
        np.testing.assert_array_equal(
            m1.diffusion_net.flatten_params(), m2.diffusion_net.flatten_params()
        )

    def test_record_structure_and_composition(self):
        trajs = sample_linear_trajectories(LinearSdeSpec(-1.0, 0.5, 1), 8, 10, 0.1, seed=4)
        cfg = TrainingConfig(
            epochs=2, seed=1, validation_fraction=0.25, drift_weight=2.0, diffusion_weight=0.5
        )
        _, records = fit(trajs, cfg)
        assert [(r.epoch, r.split) for r in records] == [
            (1, "train"), (1, "validation"), (2, "train"), (2, "validation"),
        ]
        for r in records:
            assert abs(r.total - (2.0 * r.drift + 0.5 * r.diffusion)) < 1e-12

    def test_last_epoch_records_equal_transition_losses(self):
        # the per-epoch evaluation reuses each split's net input; transition_losses builds its own
        trajs = sample_linear_trajectories(LinearSdeSpec(-1.0, 0.5, 2), 12, 10, 0.1, seed=4)
        cfg = TrainingConfig(
            epochs=2, batch_size=16, seed=6, validation_fraction=0.25, drift_weight=3.0,
            hidden_dims=(8, 4), time_encoding_kind="sinusoidal",
        )
        model, records = fit(trajs, cfg)
        train, val = split_by_trajectory(trajs, 0.25, RngStream(6))
        for record, part in zip(records[-2:], (train, val)):
            l_mu, l_sigma = transition_losses(model, extract_transitions(part))
            assert (record.drift, record.diffusion) == (l_mu, l_sigma)
            assert record.total == 3.0 * l_mu + 1.0 * l_sigma

    def test_loss_decreases_on_ou_data(self):
        trajs = sample_linear_trajectories(LinearSdeSpec(-1.0, 0.5, 1), 200, 20, 0.05, seed=9)
        cfg = TrainingConfig(epochs=8, batch_size=256, learning_rate=0.05, seed=3)
        _, records = fit(trajs, cfg)
        train = [r for r in records if r.split == "train"]
        assert train[-1].total < train[0].total

    def test_horizon_set_from_data(self):
        trajs = sample_linear_trajectories(LinearSdeSpec(-1.0, 0.1, 1), 4, 20, 0.05, seed=0)
        model, _ = fit(trajs, TrainingConfig(epochs=1, seed=0))
        assert model.time_encoding.kind == "scalar_normalized"
        assert model.time_encoding.horizon == pytest.approx(1.0)

    def test_divergence_reports_last_good_epoch(self):
        # epoch 1 diverges: no epoch finished, so no records are carried
        trajs = sample_linear_trajectories(LinearSdeSpec(-1.0, 0.5, 1), 5, 10, 0.1, seed=1)
        for validation_fraction in (0.0, 0.2):
            cfg = TrainingConfig(
                epochs=5, learning_rate=1e12, seed=0, validation_fraction=validation_fraction
            )
            with pytest.raises(TrainingDivergenceError) as exc:
                fit(trajs, cfg)
            assert exc.value.last_good_epoch == 0
            assert exc.value.records == []

    def test_divergence_carries_only_finished_epochs(self):
        # diverges after some finite epochs; the records stop at the last good one
        trajs = sample_linear_trajectories(LinearSdeSpec(-1.0, 0.5, 1), 5, 10, 0.1, seed=1)
        cfg = TrainingConfig(
            epochs=20, batch_size=8, learning_rate=300.0, seed=0, validation_fraction=0.2
        )
        with pytest.raises(TrainingDivergenceError) as exc:
            fit(trajs, cfg)
        good = exc.value.last_good_epoch
        assert good >= 1
        assert [(r.epoch, r.split) for r in exc.value.records] == [
            (e, split) for e in range(1, good + 1) for split in ("train", "validation")
        ]
        assert all(math.isfinite(r.total) for r in exc.value.records)

    def test_divergence_raises_without_runtime_warnings(self):
        # overflow on the way to a non-finite loss is numpy's business, not the caller's
        trajs = sample_linear_trajectories(LinearSdeSpec(-1.0, 0.5, 1), 5, 20, 0.05, seed=0)
        cfg = TrainingConfig(epochs=20, batch_size=8, learning_rate=300.0, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergenceError):
                fit(trajs, cfg)

    def test_empty_and_mismatched_inputs(self):
        with pytest.raises(ValidationError):
            fit([], TrainingConfig())
        with pytest.raises(DimensionMismatchError):
            fit(
                [constant_trajectory(0.0, 3, 1), constant_trajectory(0.0, 3, 2)],
                TrainingConfig(),
            )
        with pytest.raises(ValidationError):
            fit([EmbeddingTrajectory([[1.0]], [0.0])], TrainingConfig())
