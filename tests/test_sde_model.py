import math
import warnings

import numpy as np
import pytest

from embsde.errors import (
    DimensionMismatchError,
    SimulationBlowupError,
    ValidationError,
)
from embsde.mlp import MlpNetwork, glorot_init
from embsde.numeric_core import RngStream, indexed_normals
from embsde.sde_model import (
    BLOWUP_LIMIT,
    TIME_ENCODING_KINDS,
    _NOISE_BLOCK,
    EmbeddingTrajectory,
    LinearSdeSpec,
    SdeModel,
    TimeEncoding,
    generate_answer,
    linear_sde_model,
    sample_linear_trajectories,
    simulate,
    simulate_ensemble,
)


def zero_model(dim=2, encoding=None):
    enc = encoding if encoding is not None else TimeEncoding(kind="none")
    w = enc.width
    net = lambda: MlpNetwork([dim + w, dim], [np.zeros((dim, dim + w))], [np.zeros(dim)])
    return SdeModel(dim, net(), net(), enc)


class TestTimeEncoding:
    def test_widths(self):
        assert TimeEncoding(kind="none").width == 0
        assert TimeEncoding(kind="scalar_normalized").width == 1
        assert TimeEncoding(kind="sinusoidal", n_pairs=3).width == 6

    def test_scalar_normalized_value(self):
        enc = TimeEncoding(kind="scalar_normalized", horizon=20.0)
        np.testing.assert_allclose(enc.encode_batch([5.0])[0], [0.25])

    def test_sinusoidal_at_zero(self):
        feats = TimeEncoding(kind="sinusoidal", n_pairs=2).encode_batch([0.0])[0]
        np.testing.assert_allclose(feats, [0.0, 1.0, 0.0, 1.0])

    def test_sinusoidal_ladder(self):
        # slowest pair completes half a cycle at the horizon, next doubles
        enc = TimeEncoding(kind="sinusoidal", horizon=4.0, n_pairs=2)
        feats = enc.encode_batch([4.0])[0]
        np.testing.assert_allclose(feats, [0.0, -1.0, 0.0, 1.0], atol=1e-12)

    def test_batch_matches_scalar(self):
        enc = TimeEncoding(kind="sinusoidal", horizon=3.0, n_pairs=4)
        ts = [0.0, 0.7, 1.9]
        batch = enc.encode_batch(ts)
        for i, t in enumerate(ts):
            np.testing.assert_array_equal(batch[i], enc.encode_batch([t])[0])

    def test_dict_round_trip(self):
        enc = TimeEncoding(kind="sinusoidal", horizon=7.5, n_pairs=2)
        assert TimeEncoding.from_dict(enc.to_dict()) == enc

    def test_validation(self):
        with pytest.raises(ValidationError):
            TimeEncoding(kind="fourier")
        with pytest.raises(ValidationError):
            TimeEncoding(horizon=0.0)
        with pytest.raises(ValidationError):
            TimeEncoding(kind="sinusoidal", n_pairs=0)


class TestEmbeddingTrajectory:
    def test_basic_properties(self):
        traj = EmbeddingTrajectory(np.zeros((3, 2)), [0.0, 1.0, 2.0], ["a", "b", "c"])
        assert len(traj) == 3
        assert traj.dim == 2

    def test_times_must_increase(self):
        with pytest.raises(ValidationError):
            EmbeddingTrajectory(np.zeros((2, 1)), [0.0, 0.0])

    @pytest.mark.parametrize("times, message", [
        ([0.0, math.inf], "finite"),
        ([0.0, 1e308, math.inf], "finite"),
        ([-math.inf, 0.0], "finite"),
        ([0.0, math.nan], "finite"),
        ([math.nan], "finite"),
        ([0.0, math.nan, 1.0], "strictly increasing"),
        ([0.0, math.inf, math.inf, 5.0], "strictly increasing"),
        ([0.0, -math.inf, -math.inf, 5.0], "strictly increasing"),
    ])
    def test_nonfinite_times_refused(self, times, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=f"times must be {message}"):
                EmbeddingTrajectory(np.zeros((len(times), 1)), times)

    def test_length_mismatches(self):
        with pytest.raises(DimensionMismatchError):
            EmbeddingTrajectory(np.zeros((2, 1)), [0.0])
        with pytest.raises(DimensionMismatchError):
            EmbeddingTrajectory(np.zeros((2, 1)), [0.0, 1.0], tokens=["x"])

    def test_single_state(self):
        traj = EmbeddingTrajectory(np.ones((1, 4)), [0.0])
        assert len(traj) == 1


class TestNoisePath:
    """The Wiener increments of a path, read off a model with zero drift."""

    def test_replayable(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=1.0, dim=3))
        a = simulate_ensemble(model, np.zeros(3), n_paths=4, n_steps=10, dt=0.5, seed=9)
        b = simulate_ensemble(model, np.zeros(3), n_paths=4, n_steps=10, dt=0.5, seed=9)
        np.testing.assert_array_equal(a, b)
        assert np.diff(a, axis=1).shape == (4, 10, 3)

    def test_scaling(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=1.0, dim=4))
        ens = simulate_ensemble(model, np.zeros(4), n_paths=250, n_steps=20, dt=0.04, seed=3)
        assert abs(np.diff(ens, axis=1).var() - 0.04) < 0.002

    def test_block_addressing(self):
        # step k, component j of path p is normal k*d + j of the stream seed XOR p
        d, n_paths, n_steps, dt, seed = 3, 4, 7, 0.25, 21
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=0.8, dim=d))
        ens = simulate_ensemble(model, np.zeros(d), n_paths, n_steps, dt, seed=seed)
        b = model.diffusion(np.zeros(d), 0.0)
        for p in range(n_paths):
            z = indexed_normals(np.uint64(seed ^ p), np.arange(n_steps * d)).reshape(n_steps, d)
            increments = b * (math.sqrt(dt) * z)
            np.testing.assert_array_equal(ens[p, 1:], np.cumsum(increments, axis=0))

    def test_validation(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=1.0, dim=2))
        with pytest.raises(ValidationError):
            simulate_ensemble(model, np.zeros(2), 1, -1, 1.0, 0)
        with pytest.raises(ValidationError):
            simulate_ensemble(model, np.zeros(2), 1, 5, 0.0, 0)


class TestSdeModel:
    def test_dimension_checks(self):
        enc = TimeEncoding(kind="scalar_normalized")
        good = glorot_init([3, 2], RngStream(0))
        with pytest.raises(DimensionMismatchError):
            SdeModel(2, good, glorot_init([2, 2], RngStream(0)), enc)
        SdeModel(2, good, glorot_init([3, 2], RngStream(1), output_activation="softplus"), enc)

    @pytest.mark.parametrize("dim", [1, 2, 8])
    def test_output_shapes(self, dim):
        enc = TimeEncoding(kind="scalar_normalized")
        model = SdeModel(
            dim,
            glorot_init([dim + 1, 6, dim], RngStream(dim)),
            glorot_init([dim + 1, 6, dim], RngStream(dim + 50), output_activation="softplus"),
            enc,
        )
        x = RngStream(7).normals(dim)
        assert model.drift(x, 0.3).shape == (dim,)
        assert model.diffusion(x, 0.3).shape == (dim,)
        xs = RngStream(8).normals(5 * dim).reshape(5, dim)
        assert model.drift(xs, 0.3).shape == (5, dim)

    def test_zero_drift_net(self):
        model = zero_model(3)
        np.testing.assert_array_equal(model.drift(np.ones(3), 2.0), 0.0)

    def test_softplus_diffusion_positive(self):
        model = SdeModel(
            2,
            glorot_init([2, 4, 2], RngStream(1)),
            glorot_init([2, 4, 2], RngStream(2), output_activation="softplus"),
            TimeEncoding(kind="none"),
        )
        for t in (0.0, 5.0):
            assert np.all(model.diffusion(RngStream(3).normals(2), t) > 0.0)

    def test_state_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            zero_model(2).drift(np.ones(3), 0.0)


class TestFields:
    @pytest.mark.parametrize("kind", TIME_ENCODING_KINDS)
    def test_halves_are_the_nets_on_hand_built_rows(self, kind):
        dim, enc = 3, TimeEncoding(kind=kind, horizon=2.0, n_pairs=2)
        model = SdeModel(
            dim,
            glorot_init([dim + enc.width, 5, dim], RngStream(1)),
            glorot_init([dim + enc.width, 5, dim], RngStream(2), output_activation="softplus"),
            enc,
        )
        xs = RngStream(3).normals(4 * dim).reshape(4, dim)
        ts = np.array([0.0, 0.3, 1.1, 1.9])
        rows = np.concatenate([xs, enc.encode_batch(ts)], axis=1)
        mu, sigma = model.fields(xs, ts)
        np.testing.assert_array_equal(mu, model.drift_net.forward(rows))
        np.testing.assert_array_equal(sigma, model.diffusion_net.forward(rows))
        np.testing.assert_array_equal(model.drift(xs, ts), mu)
        np.testing.assert_array_equal(model.diffusion(xs, ts), sigma)

        row = np.concatenate([xs[1], enc.encode_batch(0.3)[0]])[None, :]
        mu, sigma = model.fields(xs[1], 0.3)
        assert mu.shape == sigma.shape == (dim,)
        np.testing.assert_array_equal(mu, model.drift_net.forward(row)[0])
        np.testing.assert_array_equal(sigma, model.diffusion_net.forward(row)[0])
        np.testing.assert_array_equal(model.drift(xs[1], 0.3), mu)
        np.testing.assert_array_equal(model.diffusion(xs[1], 0.3), sigma)

    def test_overflow_gives_inf_without_warnings(self):
        model = linear_sde_model(LinearSdeSpec(a=1e300, b=0.5, dim=2))
        x = np.array([[1e300, -1e300], [1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mu, sigma = model.fields(x, 0.0)
            assert np.array_equal(model.drift(x, 0.0), mu, equal_nan=True)
        assert mu[0, 0] == np.inf and mu[0, 1] == -np.inf
        np.testing.assert_array_equal(mu[1], [1e300, 2e300])
        np.testing.assert_allclose(sigma, 0.5)


class TestEulerStep:
    """One step ``x + mu(x,t) dt + sigma(x,t) dW`` through a one-step simulate."""

    def test_zero_fields_leave_state(self):
        x = np.array([1.5, -2.0])
        out = simulate(zero_model(2), x, n_steps=1, dt=0.1, seed=5).states[1]
        np.testing.assert_array_equal(out, x)

    def test_pure_drift_arithmetic(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=0.0, dim=1))
        model.drift_net.biases[0][:] = 1.0  # mu == 1 regardless of x
        out = simulate(model, np.array([0.0]), n_steps=1, dt=0.1, seed=5).states[1]
        np.testing.assert_allclose(out, [0.1])

    def test_drift_plus_noise_arithmetic(self):
        model = linear_sde_model(LinearSdeSpec(a=-1.0, b=0.5, dim=1))
        out = simulate(model, np.array([1.0]), n_steps=1, dt=0.04, seed=13).states[1]
        dW = indexed_normals(np.uint64(13), np.arange(1))[0] * math.sqrt(0.04)
        np.testing.assert_allclose(out, [1.0 - 0.04 + 0.5 * dW], atol=1e-12)

    def test_shape_and_dt_validation(self):
        with pytest.raises(DimensionMismatchError):
            simulate(zero_model(2), np.ones(3), n_steps=1, dt=0.1)
        for dt in (0.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                simulate(zero_model(2), np.ones(2), n_steps=1, dt=dt)

    def test_overflowing_time_grid_refused_up_front(self):
        # every step is finite, but the grid's last time (and a time feature) overflows
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=0.0, dim=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match="time grid overflows"):
                simulate(model, np.zeros(1), n_steps=3, dt=1e308)
            with pytest.raises(ValidationError, match="time grid overflows"):
                sample_linear_trajectories(LinearSdeSpec(0.0, 0.0), 2, 3, 1e308, seed=1)
            last = simulate(model, np.zeros(1), n_steps=1, dt=1e308)
        assert last.times.tolist() == [0.0, 1e308]

    def test_nonfinite_raises(self):
        model = linear_sde_model(LinearSdeSpec(a=1.0, b=0.0, dim=1))
        with pytest.raises(SimulationBlowupError) as exc:
            simulate(model, np.array([1e308]), n_steps=1, dt=10.0)
        assert exc.value.step == 1 and exc.value.paths == [0]


class TestSimulate:
    def test_constant_when_fields_zero(self):
        traj = simulate(zero_model(2), np.array([0.3, -0.7]), n_steps=20, dt=0.5, seed=4)
        assert len(traj) == 21
        np.testing.assert_array_equal(traj.states, np.tile([0.3, -0.7], (21, 1)))
        np.testing.assert_allclose(traj.times, 0.5 * np.arange(21))

    def test_deterministic_linear_decay(self):
        model = linear_sde_model(LinearSdeSpec(a=-1.0, b=0.0, dim=1))
        traj = simulate(model, np.array([1.0]), n_steps=100, dt=0.01, seed=0)
        assert abs(traj.states[-1, 0] - 0.99**100) <= 1e-12

    def test_stepwise_matches_exact_recurrence(self):
        model = linear_sde_model(LinearSdeSpec(a=-0.7, b=0.0, dim=3))
        x0 = np.array([1.0, -2.0, 0.5])
        traj = simulate(model, x0, n_steps=50, dt=0.05, seed=0)
        expected = x0.copy()
        for k in range(1, 51):
            expected = expected * (1.0 - 0.7 * 0.05)
            np.testing.assert_allclose(traj.states[k], expected, atol=1e-12)

    def test_same_seed_bitwise_identical(self):
        model = linear_sde_model(LinearSdeSpec(a=-0.5, b=0.3, dim=2))
        a = simulate(model, np.zeros(2), 30, 0.1, seed=77)
        b = simulate(model, np.zeros(2), 30, 0.1, seed=77)
        np.testing.assert_array_equal(a.states, b.states)

    def test_different_seeds_differ(self):
        model = linear_sde_model(LinearSdeSpec(a=-0.5, b=0.3, dim=2))
        a = simulate(model, np.zeros(2), 10, 0.1, seed=1)
        b = simulate(model, np.zeros(2), 10, 0.1, seed=2)
        assert np.abs(a.states - b.states).max() > 1e-3

    def test_blowup_carries_prefix(self):
        model = linear_sde_model(LinearSdeSpec(a=3.0, b=0.0, dim=1))
        with pytest.raises(SimulationBlowupError) as exc:
            simulate(model, np.array([1.0]), n_steps=50, dt=1.0, seed=0)
        err = exc.value
        assert err.step >= 1 and err.paths == [0]
        assert err.prefix_states.shape == (1, err.step, 1)
        np.testing.assert_array_equal(err.prefix_times, np.arange(err.step))
        assert np.all(np.isfinite(err.prefix_states))
        # the prefix is the path itself, up to the last finite state
        prefix = simulate(model, np.array([1.0]), n_steps=err.step - 1, dt=1.0, seed=0)
        np.testing.assert_array_equal(err.prefix_states[0], prefix.states)

    def test_zero_steps(self):
        traj = simulate(zero_model(1), np.array([2.0]), n_steps=0, dt=1.0, seed=0)
        assert len(traj) == 1 and traj.times[0] == 0.0


class TestSimulateEnsemble:
    def test_shape(self):
        model = linear_sde_model(LinearSdeSpec(a=-1.0, b=0.5, dim=2))
        ens = simulate_ensemble(model, np.zeros(2), n_paths=7, n_steps=5, dt=0.1, seed=3)
        assert ens.shape == (7, 6, 2)

    def test_single_path_matches_simulate(self):
        model = linear_sde_model(LinearSdeSpec(a=-1.0, b=0.5, dim=2))
        ens = simulate_ensemble(model, np.ones(2), 1, 20, 0.1, seed=11)
        traj = simulate(model, np.ones(2), 20, 0.1, seed=11)
        np.testing.assert_array_equal(ens[0], traj.states)

    def test_path_p_reproducible_via_seed_xor(self):
        model = linear_sde_model(LinearSdeSpec(a=-0.8, b=0.4, dim=3))
        seed = 2001
        ens = simulate_ensemble(model, np.ones(3), n_paths=5, n_steps=15, dt=0.2, seed=seed)
        for p in range(5):
            solo = simulate(model, np.ones(3), 15, 0.2, seed=seed ^ p)
            np.testing.assert_allclose(ens[p], solo.states, rtol=1e-13, atol=1e-14)

    def test_paths_distinct(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=1.0, dim=1))
        ens = simulate_ensemble(model, np.zeros(1), 4, 3, 1.0, seed=0)
        finals = ens[:, -1, 0]
        assert len(set(finals.tolist())) == 4

    def test_blowup_names_every_bad_path(self):
        # paths 0 and 1 grow identically and leave the guard at the same step; path 2 stays at 0
        model = linear_sde_model(LinearSdeSpec(a=3.0, b=0.0, dim=1))
        x0 = np.array([[1.0], [1.0], [0.0]])
        with pytest.raises(SimulationBlowupError, match="2 of 3 paths") as exc:
            simulate_ensemble(model, x0, n_paths=3, n_steps=50, dt=1.0, seed=0)
        err = exc.value
        assert err.paths == [0, 1]
        assert err.prefix_states.shape == (3, err.step, 1)
        np.testing.assert_array_equal(err.prefix_times, np.arange(err.step))
        np.testing.assert_array_equal(err.prefix_states[:, :, 0], 4.0 ** np.arange(err.step) * x0)
        assert 4.0**err.step > BLOWUP_LIMIT >= 4.0 ** (err.step - 1)

    def test_start_states_are_read_not_written(self):
        model = glorot_model(3, "scalar_normalized")
        x0 = np.random.default_rng(4).standard_normal((5, 3))
        before = x0.copy()
        ens = simulate_ensemble(model, x0, 5, 6, dt=0.1, seed=2)
        assert x0.tobytes() == before.tobytes()
        frozen = x0.copy()
        frozen.flags.writeable = False
        np.testing.assert_array_equal(simulate_ensemble(model, frozen, 5, 6, dt=0.1, seed=2), ens)
        shared = np.broadcast_to(x0[0], (5, 3))  # read-only, zero row stride
        np.testing.assert_array_equal(
            simulate_ensemble(model, shared, 5, 6, dt=0.1, seed=2),
            simulate_ensemble(model, x0[0].copy(), 5, 6, dt=0.1, seed=2),
        )
        assert x0.tobytes() == before.tobytes()

    def test_weak_convergence_order_one(self):
        # |E[X(1)] - x0 e^{-1}| against dt on a log-log scale, slope ~ 1
        spec = LinearSdeSpec(a=-1.0, b=0.5, dim=1)
        model = linear_sde_model(spec)
        x0 = np.array([1.0])
        errors = []
        dts = [0.1, 0.05, 0.025]
        for dt in dts:
            n = round(1.0 / dt)
            ens = simulate_ensemble(model, x0, n_paths=100_000, n_steps=n, dt=dt, seed=314)
            errors.append(abs(float(ens[:, -1, 0].mean()) - math.exp(-1.0)))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert 0.6 <= slope <= 1.4

    def test_validation(self):
        model = zero_model(2)
        with pytest.raises(DimensionMismatchError):
            simulate_ensemble(model, np.zeros(3), 1, 1, 1.0, 0)
        with pytest.raises(ValidationError):
            simulate_ensemble(model, np.zeros(2), 0, 1, 1.0, 0)
        with pytest.raises(ValidationError):
            simulate_ensemble(model, np.zeros(2), 1, 1, -1.0, 0)


def glorot_model(dim, kind, seed=3):
    enc = TimeEncoding(kind=kind, horizon=2.0, n_pairs=3)
    dims = [dim + enc.width, 16, dim]
    stream = RngStream(seed)
    return SdeModel(
        dim, glorot_init(dims, stream, "tanh", "identity"),
        glorot_init(dims, stream, "tanh", "softplus"), enc,
    )


def per_step_reference(model, x0, seed, n_steps, dt):
    """Euler-Maruyama one step at a time: one noise draw, one drift and one diffusion call.

    Returns ``(states, step, paths)``: the states up to the last finite step,
    and for a blow-up the offending step and paths (``None`` and ``[]``
    otherwise).
    """
    n, d = x0.shape
    seeds = (np.uint64(seed) ^ np.arange(n, dtype=np.uint64))[:, None]
    states = [x0]
    x = x0
    for k in range(n_steps):
        z = indexed_normals(seeds, np.uint64(k * d) + np.arange(d, dtype=np.uint64))
        with np.errstate(over="ignore", invalid="ignore"):
            x = x + model.drift(x, k * dt) * dt + model.diffusion(x, k * dt) * (math.sqrt(dt) * z)
        bad = np.flatnonzero(~(np.abs(x) <= BLOWUP_LIMIT).all(axis=1)).tolist()
        if bad:
            return np.stack(states, axis=1), k + 1, bad
        states.append(x)
    return np.stack(states, axis=1), None, []


class TestBlockedNoiseKernel:
    """The integrator draws noise in blocks of steps; the paths must not depend on it."""

    D = 64
    # (paths, dim, steps): one block for all steps; several blocks with a partial
    # last one (3 steps per block, 8 steps); one step's noise at and above the bound
    SIZES = [
        (7, 3, 40),
        (_NOISE_BLOCK // (3 * D), D, 8),
        (_NOISE_BLOCK // D, D, 3),
        (_NOISE_BLOCK // D + 1, D, 3),
    ]

    @pytest.mark.parametrize("kind", TIME_ENCODING_KINDS)
    @pytest.mark.parametrize("n, d, n_steps", SIZES)
    def test_matches_per_step_reference(self, n, d, n_steps, kind):
        model = glorot_model(d, kind)
        x0 = np.random.default_rng(n).standard_normal((n, d))
        ens = simulate_ensemble(model, x0, n, n_steps, dt=0.05, seed=29)
        ref, step, _ = per_step_reference(model, x0, 29, n_steps, 0.05)
        assert step is None
        np.testing.assert_array_equal(ens, ref)

    def test_blowup_inside_a_block_matches_reference(self):
        n, d, dt = _NOISE_BLOCK // (3 * self.D), self.D, 0.1
        model = glorot_model(d, "sinusoidal")
        model.drift_net.biases[-1][:] = 1e6  # every path drifts out; the first five earlier
        x0 = np.random.default_rng(1).standard_normal((n, d))
        x0[:5] += 2.5e5
        with pytest.raises(SimulationBlowupError) as exc:
            simulate_ensemble(model, x0, n, 20, dt, seed=3)
        err = exc.value
        prefix, step, paths = per_step_reference(model, x0, 3, 20, dt)
        assert (err.step - 1) % (_NOISE_BLOCK // (n * d)) != 0  # not the block's first step
        assert (err.step, err.paths) == (step, paths)
        np.testing.assert_array_equal(err.prefix_states, prefix)

    def test_nan_blowup_inside_a_block_matches_reference(self):
        n, d, dt = _NOISE_BLOCK // (3 * self.D), self.D, 0.1
        model = glorot_model(d, "sinusoidal")
        # hidden unit 0 is tanh(1e308 x_0 - inf): -1 while 1e308 x_0 is finite, NaN once it
        # overflows (x_0 > 1.8), so a path turns NaN with every other state in the box
        model.drift_net.weights[0][0] = 0.0
        model.drift_net.weights[0][0, 0] = 1e308
        model.drift_net.biases[0][0] = -np.inf
        model.drift_net.biases[-1][0] = 3.0  # x_0 climbs about 0.3 a step
        x0 = np.random.default_rng(2).standard_normal((n, d))
        x0[:, 0] = -8.0
        x0[:4, 0] = 0.5
        with pytest.raises(SimulationBlowupError) as exc:
            simulate_ensemble(model, x0, n, 20, dt, seed=3)
        err = exc.value
        prefix, step, paths = per_step_reference(model, x0, 3, 20, dt)
        assert (err.step - 1) % (_NOISE_BLOCK // (n * d)) != 0  # not the block's first step
        assert (err.step, err.paths) == (step, paths)
        assert 0 < len(paths) <= 4
        np.testing.assert_array_equal(err.prefix_states, prefix)
        last = prefix[:, -1]
        assert np.abs(last).max() <= BLOWUP_LIMIT
        mu = model.drift(last, (err.step - 1) * dt)
        assert np.flatnonzero(np.isnan(mu).any(axis=1)).tolist() == paths
        assert np.isfinite(np.delete(mu, paths, axis=0)).all()
        assert np.isfinite(model.diffusion(last, (err.step - 1) * dt)).all()


class TestGenerateAnswer:
    def test_singleton_starts_at_question(self):
        q = np.array([[0.2, -0.4]])
        traj = generate_answer(zero_model(2), q, n_steps=3, dt=1.0, seed=0)
        np.testing.assert_array_equal(traj.states[0], q[0])

    def test_start_is_exact_mean(self):
        qs = np.array([[0.0, 0.0], [2.0, 4.0]])
        traj = generate_answer(zero_model(2), qs, n_steps=1, dt=1.0, seed=0)
        np.testing.assert_array_equal(traj.states[0], [1.0, 2.0])

    def test_deterministic_unroll(self):
        model = linear_sde_model(LinearSdeSpec(a=-0.3, b=0.0, dim=2))
        qs = RngStream(5).normals(6 * 2).reshape(6, 2)
        traj = generate_answer(model, qs, n_steps=6, dt=1.0, seed=9)
        x = qs.mean(axis=0)
        for k in range(6):
            x = x + model.drift(x, k * 1.0) * 1.0  # b = 0: no noise term
            np.testing.assert_allclose(traj.states[k + 1], x, atol=1e-13)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            generate_answer(zero_model(2), np.zeros((0, 2)), 1, 1.0, 0)


class TestLinearFixtures:
    def test_drift_is_ax(self):
        model = linear_sde_model(LinearSdeSpec(a=-1.0, b=0.0, dim=3))
        x = np.array([0.5, -1.0, 2.0])
        for t in (0.0, 3.0, 17.0):
            np.testing.assert_allclose(model.drift(x, t), -x, atol=1e-15)

    def test_diffusion_constant_b(self):
        model = linear_sde_model(LinearSdeSpec(a=0.0, b=0.5, dim=2))
        np.testing.assert_allclose(model.diffusion(np.ones(2) * 9.0, 1.0), 0.5, atol=1e-12)

    def test_zero_b_exact(self):
        model = linear_sde_model(LinearSdeSpec(a=1.0, b=0.0, dim=2))
        np.testing.assert_array_equal(model.diffusion(np.ones(2), 0.0), 0.0)

    def test_time_features_ignored(self):
        enc = TimeEncoding(kind="sinusoidal", horizon=10.0, n_pairs=3)
        model = linear_sde_model(LinearSdeSpec(a=2.0, b=0.1, dim=1), enc)
        np.testing.assert_array_equal(model.drift([1.0], 0.0), model.drift([1.0], 7.3))

    def test_negative_b_rejected(self):
        with pytest.raises(ValidationError):
            LinearSdeSpec(a=0.0, b=-0.1)

    @pytest.mark.parametrize("a, b", [
        (math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5), (-1.0, math.nan), (-1.0, math.inf),
    ])
    def test_nonfinite_coefficients_rejected(self, a, b):
        with pytest.raises(ValidationError):
            LinearSdeSpec(a=a, b=b)


class TestSampleLinearTrajectories:
    def test_counts_and_shape(self):
        trajs = sample_linear_trajectories(
            LinearSdeSpec(a=-1.0, b=0.5, dim=2), n_trajectories=5, n_steps=10, dt=0.1, seed=42
        )
        assert len(trajs) == 5
        assert all(len(t) == 11 and t.dim == 2 for t in trajs)

    def test_deterministic(self):
        spec = LinearSdeSpec(a=-1.0, b=0.5, dim=1)
        a = sample_linear_trajectories(spec, 3, 5, 0.1, seed=7)
        b = sample_linear_trajectories(spec, 3, 5, 0.1, seed=7)
        for ta, tb in zip(a, b):
            np.testing.assert_array_equal(ta.states, tb.states)

    def test_start_states_in_range(self):
        trajs = sample_linear_trajectories(
            LinearSdeSpec(a=0.0, b=0.1, dim=4), 20, 1, 1.0, seed=0
        )
        starts = np.stack([t.states[0] for t in trajs])
        assert np.all(starts > -2.0) and np.all(starts <= 2.0)
        assert starts.std() > 0.5  # actually spread out

    @pytest.mark.parametrize("dim", [1, 3])
    def test_path_i_is_simulate_with_seed_xor_i_plus_1(self, dim):
        spec, n, seed = LinearSdeSpec(a=-0.6, b=0.4, dim=dim), 5, 2024
        trajs = sample_linear_trajectories(spec, n, 12, 0.1, seed=seed)
        # start states: one base-stream draw of n * dim uniforms, row i for path i
        starts = -2.0 + 4.0 * RngStream(seed).uniforms(n * dim).reshape(n, dim)
        model = linear_sde_model(spec, TimeEncoding(kind="none"))
        for i, traj in enumerate(trajs):
            np.testing.assert_array_equal(traj.states[0], starts[i])
            solo = simulate(model, starts[i], n_steps=12, dt=0.1, seed=seed ^ (i + 1))
            np.testing.assert_array_equal(traj.states, solo.states)
            np.testing.assert_array_equal(traj.times, solo.times)

    def test_paths_differ(self):
        trajs = sample_linear_trajectories(LinearSdeSpec(0.0, 1.0, 1), 3, 4, 1.0, seed=1)
        finals = [t.states[-1, 0] for t in trajs]
        assert len(set(finals)) == 3

