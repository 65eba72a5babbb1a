import math
import tracemalloc

import numpy as np
import pytest

from embsde.diagnostics import (
    _PAIR_BLOCK,
    compare_trajectories,
    drift_vector_field,
    estimate_regularity,
    lyapunov_check,
    moment_monte_carlo,
    moment_ode_solve,
    uncertainty_heatmap,
    word_importance,
)
from embsde.errors import DimensionMismatchError, EstimationError, ValidationError
from embsde.mlp import MlpNetwork, glorot_init
from embsde.numeric_core import RngStream
from embsde.sde_model import (
    EmbeddingTrajectory,
    LinearSdeSpec,
    SdeModel,
    TimeEncoding,
    linear_sde_model,
    sample_linear_trajectories,
    simulate,
)

NO_TIME = TimeEncoding(kind="none")


def fixture_model(a, b, dim=1):
    return linear_sde_model(LinearSdeSpec(a=a, b=b, dim=dim), NO_TIME)


def random_model(dim, seed=0, hidden=16):
    """A nonlinear model: tanh drift and softplus diffusion nets with a time feature."""
    rng = RngStream(seed)
    layers = [dim + 1, hidden, dim]
    return SdeModel(dim, glorot_init(layers, rng), glorot_init(layers, rng, "tanh", "softplus"))


def all_pairs_regularity(model, probes, t):
    """Lipschitz ratio and pair count from all pairs at once, without blocks."""
    mu, sigma = model.drift(probes, t), model.diffusion(probes, t)
    iu, ju = np.triu_indices(probes.shape[0], k=1)
    dx = np.linalg.norm(probes[iu] - probes[ju], axis=1)
    keep = dx >= 1e-9
    dmu = np.linalg.norm(mu[iu] - mu[ju], axis=1)
    dsigma = np.linalg.norm(sigma[iu] - sigma[ju], axis=1)
    return float(np.max((dmu[keep] + dsigma[keep]) / dx[keep])), int(np.count_nonzero(keep))


class TestEstimateRegularity:
    def test_linear_drift_constant_sigma(self):
        model = fixture_model(a=-2.0, b=0.5)
        probes = np.linspace(-2.0, 2.0, 46)[:, None]
        est = estimate_regularity(model, probes, t=0.0)
        assert 1.99 <= est.lipschitz_k <= 2.01
        assert est.n_probe_pairs == 46 * 45 // 2

    def test_zero_fields(self):
        model = fixture_model(a=0.0, b=0.0, dim=2)
        probes = RngStream(1).normals(10 * 2).reshape(10, 2)
        est = estimate_regularity(model, probes, t=0.0)
        assert est.lipschitz_k == 0.0 and est.growth_c == 0.0

    def test_growth_maximized_on_unit_sphere(self):
        model = fixture_model(a=1.0, b=0.0, dim=2)
        angles = np.linspace(0.0, 2 * math.pi, 20, endpoint=False)
        boundary = np.column_stack([np.cos(angles), np.sin(angles)])
        interior = 0.5 * boundary
        est = estimate_regularity(model, np.vstack([boundary, interior]), t=0.0)
        assert 0.49 <= est.growth_c <= 0.51

    def test_monotone_in_probes(self):
        model = fixture_model(a=-1.5, b=0.2)
        small = np.linspace(-1.0, 1.0, 5)[:, None]
        large = np.linspace(-1.5, 1.5, 11)[:, None]
        est_small = estimate_regularity(model, small, 0.0)
        est_large = estimate_regularity(model, np.vstack([small, large]), 0.0)
        assert est_large.lipschitz_k >= est_small.lipschitz_k
        assert est_large.growth_c >= est_small.growth_c

    def test_errors(self):
        model = fixture_model(a=-1.0, b=0.1)
        with pytest.raises(ValidationError):
            estimate_regularity(model, np.ones((1, 1)), 0.0)
        with pytest.raises(EstimationError):
            estimate_regularity(model, np.ones((5, 1)), 0.0)
        with pytest.raises(DimensionMismatchError):
            estimate_regularity(model, np.ones((3, 2)), 0.0)

    @pytest.mark.parametrize("dim, n_probes", [(1, 64), (64, 256), (768, 64)])
    def test_blocks_match_all_pairs(self, dim, n_probes):
        model = random_model(dim, seed=dim)
        probes = RngStream(dim + 1).normals(n_probes * dim).reshape(n_probes, dim)
        est = estimate_regularity(model, probes, t=0.3)
        assert (est.lipschitz_k, est.n_probe_pairs) == all_pairs_regularity(model, probes, 0.3)

    @pytest.mark.parametrize("dim, n_probes", [(64, 256), (768, 64)])
    def test_coincident_pairs_across_a_block_boundary(self, dim, n_probes):
        # the last pair of block 0 and the first of block 1 both coincide
        model = random_model(dim, seed=5)
        probes = RngStream(6).normals(n_probes * dim).reshape(n_probes, dim)
        iu, ju = np.triu_indices(n_probes, k=1)
        block = _PAIR_BLOCK // dim
        for pair in (block - 1, block):
            probes[ju[pair]] = probes[iu[pair]]
        est = estimate_regularity(model, probes, t=0.0)
        assert (est.lipschitz_k, est.n_probe_pairs) == all_pairs_regularity(model, probes, 0.0)
        assert est.n_probe_pairs < iu.size

    def test_memory_grows_with_probes_not_pairs(self):
        model = random_model(768, hidden=32)
        probes = RngStream(2).normals(256 * 768).reshape(256, 768)
        tracemalloc.start()
        try:
            estimate_regularity(model, probes, t=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6  # three all-pairs difference arrays took 405.8 MB

    def test_overflowing_fields_refused(self):
        # |mu|^2 overflows float64: the constants are refused, with no RuntimeWarning
        model = fixture_model(a=1e300, b=0.5)
        with pytest.raises(EstimationError, match="non-finite"):
            estimate_regularity(model, np.linspace(-2.0, 2.0, 5)[:, None], 0.0)


class TestLyapunovCheck:
    def test_contractive_drift_exact_generator(self):
        model = fixture_model(a=-1.0, b=0.0, dim=2)
        report = lyapunov_check(model, np.array([[1.0, 0.0]]), t=0.0)
        assert abs(report.generator_values[0] + 2.0) < 1e-12
        assert report.stable_flag

    def test_generator_is_minus_two_norm_squared(self):
        model = fixture_model(a=-1.0, b=0.0, dim=3)
        probes = RngStream(4).normals(100 * 3).reshape(100, 3)
        report = lyapunov_check(model, probes, t=0.0)
        assert report.generator_values.shape == (100,)
        for state, value in zip(probes, report.generator_values):
            assert abs(value + 2.0 * float(state @ state)) < 1e-9

    def test_pure_noise_unstable(self):
        model = fixture_model(a=0.0, b=1.0)
        report = lyapunov_check(model, np.array([[0.0], [1.0], [-2.0]]), t=0.0)
        assert report.generator_values.shape == (3,)
        assert all(abs(v - 1.0) < 1e-12 for v in report.generator_values)
        assert not report.stable_flag

    def test_mixed_fields_closed_form(self):
        # LV = -4 x^2 + 0.25 at the probes {+-1, +-0.5}; max at |x| = 0.5
        model = fixture_model(a=-2.0, b=0.5)
        probes = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        report = lyapunov_check(model, probes, t=0.0)
        assert abs(report.max_generator + 0.75) < 1e-12
        assert report.stable_flag

    def test_overflowing_generator_refused(self):
        model = fixture_model(a=1e300, b=0.5)
        with pytest.raises(EstimationError, match="non-finite"):
            lyapunov_check(model, np.array([[1e10], [-3.0]]), t=0.0)

    def test_probe_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            lyapunov_check(fixture_model(a=-1.0, b=0.0, dim=2), np.ones((1, 3)), 0.0)


class TestMomentOdeSolve:
    def test_mean_decay(self):
        mean, _ = moment_ode_solve(LinearSdeSpec(-1.0, 0.0, 1), m0=1.0, v0=0.0, t_grid=[0.0, 1.0])
        assert abs(mean[1] - math.exp(-1.0)) < 1e-15

    def test_deterministic_variance_zero(self):
        _, var = moment_ode_solve(
            LinearSdeSpec(-0.5, 0.0, 1), m0=2.0, v0=0.0, t_grid=np.linspace(0, 3, 7)
        )
        np.testing.assert_array_equal(var, 0.0)

    def test_stationary_variance(self):
        _, var = moment_ode_solve(LinearSdeSpec(-1.0, 0.5, 1), m0=1.0, v0=0.0, t_grid=[0.0, 50.0])
        assert abs(var[1] - 0.125) < 1e-12

    def test_zero_drift_limit(self):
        t = np.linspace(0.0, 2.0, 5)
        mean, var = moment_ode_solve(LinearSdeSpec(0.0, 0.3, 1), m0=1.5, v0=0.1, t_grid=t)
        np.testing.assert_allclose(mean, 1.5)
        np.testing.assert_allclose(var, 0.1 + 0.09 * t, rtol=1e-12)

    def test_variance_monotone_toward_stationary(self):
        t = np.linspace(0.0, 10.0, 200)
        _, var = moment_ode_solve(LinearSdeSpec(-1.0, 0.5, 1), m0=1.0, v0=0.0, t_grid=t)
        assert np.all(var >= 0.0)
        assert np.all(np.diff(var) > -1e-15)
        assert var[-1] <= 0.125 + 1e-9

    def test_validation(self):
        with pytest.raises(ValidationError):
            moment_ode_solve(LinearSdeSpec(-1.0, 0.5, 1), 0.0, -0.1, [0.0, 1.0])
        with pytest.raises(ValidationError):
            moment_ode_solve(LinearSdeSpec(-1.0, 0.5, 1), 0.0, 0.0, [0.0, 1.0, 0.5])


class TestMomentMonteCarlo:
    def test_frozen_system_exact_zero_variance(self):
        model = fixture_model(a=0.0, b=0.0)
        report = moment_monte_carlo(
            model, x0_mean=1.0, x0_var=0.0, t_grid=np.linspace(0, 1, 6), n_paths=100, seed=0
        )
        np.testing.assert_array_equal(report.var_mc, 0.0)
        np.testing.assert_array_equal(report.mean_mc, 1.0)
        np.testing.assert_array_equal(report.higher_moments_mc[3], 1.0)

    def test_ou_mean_within_clt_band(self):
        model = fixture_model(a=-1.0, b=0.5)
        n = 10_000
        report = moment_monte_carlo(
            model,
            x0_mean=1.0,
            x0_var=0.0,
            t_grid=np.linspace(0.0, 1.0, 101),
            n_paths=n,
            seed=33,
            reference=LinearSdeSpec(-1.0, 0.5, 1),
        )
        se = math.sqrt(float(report.var_mc[-1]) / n)
        assert abs(float(report.mean_mc[-1]) - math.exp(-1.0)) < 3.0 * se
        assert report.mean_ode is not None
        assert abs(float(report.mean_ode[-1]) - math.exp(-1.0)) < 1e-14

    def test_ou_variance_matches_oracle(self):
        report = moment_monte_carlo(
            fixture_model(a=-1.0, b=0.5),
            x0_mean=1.0,
            x0_var=0.0,
            t_grid=np.linspace(0.0, 2.0, 101),
            n_paths=3_000,
            seed=5,
            reference=LinearSdeSpec(-1.0, 0.5, 1),
        )
        assert abs(report.var_mc[-1] / report.var_ode[-1] - 1.0) < 0.15

    def test_randomized_start_variance(self):
        report = moment_monte_carlo(
            fixture_model(a=0.0, b=0.0),
            x0_mean=0.0,
            x0_var=0.09,
            t_grid=np.linspace(0.0, 1.0, 3),
            n_paths=5_000,
            seed=8,
        )
        assert abs(report.var_mc[0] - 0.09) < 0.01  # frozen fields keep x0 spread

    def test_more_paths_reduce_mean_error(self):
        spec = LinearSdeSpec(-1.0, 0.5, 1)
        model = fixture_model(a=-1.0, b=0.5)
        grid = np.linspace(0.0, 1.0, 51)
        errs = {}
        for n in (100, 10_000):
            report = moment_monte_carlo(
                model, 1.0, 0.0, grid, n_paths=n, seed=13, reference=spec
            )
            errs[n] = float(np.max(np.abs(report.mean_mc - report.mean_ode)))
        assert errs[10_000] < errs[100]

    def test_validation(self):
        model = fixture_model(a=0.0, b=0.1)
        grid = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValidationError):
            moment_monte_carlo(fixture_model(0.0, 0.1, dim=2), 0.0, 0.0, grid, 100, 0)
        with pytest.raises(ValidationError):
            moment_monte_carlo(model, 0.0, 0.0, grid, 99, 0)
        with pytest.raises(ValidationError):
            moment_monte_carlo(model, 0.0, 0.0, [0.5, 1.0], 100, 0)
        with pytest.raises(ValidationError):
            moment_monte_carlo(model, 0.0, 0.0, [0.0, 0.5, 0.7], 100, 0)
        with pytest.raises(ValidationError):
            moment_monte_carlo(model, 0.0, -1.0, grid, 100, 0)


class TestCompareTrajectories:
    def test_self_consistency_on_deterministic_path(self):
        model = fixture_model(a=-0.6, b=0.0, dim=2)
        traj = simulate(model, np.array([1.0, -1.0]), n_steps=15, dt=0.1, seed=0)
        predicted, errors = compare_trajectories(traj, model)
        assert errors.shape == (15,) and errors.max() < 1e-9
        np.testing.assert_array_equal(predicted.times, traj.times)

    def test_zero_drift_unit_increments(self):
        model = fixture_model(a=0.0, b=0.0)
        traj = EmbeddingTrajectory(np.arange(5.0)[:, None], np.arange(5.0))
        _, errors = compare_trajectories(traj, model)
        np.testing.assert_array_equal(errors, [1.0] * 4)

    def test_prediction_starts_at_actual(self):
        model = fixture_model(a=-1.0, b=0.0, dim=2)
        traj = EmbeddingTrajectory(RngStream(0).normals(8).reshape(4, 2), np.arange(4.0))
        predicted, _ = compare_trajectories(traj, model)
        np.testing.assert_array_equal(predicted.states[0], traj.states[0])

    def test_trained_beats_zero_drift_baseline(self, ou_trained):
        spec, model, _ = ou_trained
        held_out = sample_linear_trajectories(spec, 20, 30, 0.05, seed=909)
        baseline = fixture_model(a=0.0, b=spec.b)
        model_errs = np.concatenate([compare_trajectories(traj, model)[1] for traj in held_out])
        base_errs = np.concatenate([compare_trajectories(traj, baseline)[1] for traj in held_out])
        assert np.mean(model_errs) < np.mean(base_errs)

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError):
            compare_trajectories(
                EmbeddingTrajectory([[1.0]], [0.0]), fixture_model(a=0.0, b=0.0)
            )

    def test_overflowing_prediction_gives_inf_without_warnings(self):
        # the prediction 1 + 1e308 * 0.5 is finite, its squared norm is not: no RuntimeWarning
        model = fixture_model(a=1e308, b=0.5)
        traj = EmbeddingTrajectory([[1.0], [0.0], [1.0]], [0.0, 0.5, 1.0])
        _, errors = compare_trajectories(traj, model)
        assert errors[0] == math.inf


def cross_data(scale_x=2.0, scale_y=1.0):
    """Four points spanning the axes: PCA plane is exactly the identity."""
    states = np.array(
        [[scale_x, 0.0], [-scale_x, 0.0], [0.0, scale_y], [0.0, -scale_y]]
    )
    return [EmbeddingTrajectory(states, np.arange(4.0))]


class TestDriftVectorField:
    def test_linear_drift_arrows_point_inward(self):
        model = fixture_model(a=-1.0, b=0.0, dim=2)
        grid = drift_vector_field(model, cross_data(), grid_resolution=5, t=0.0)
        np.testing.assert_allclose(grid.drift_arrows, -grid.grid_points, atol=1e-9)

    def test_zero_drift_zero_arrows(self):
        model = fixture_model(a=0.0, b=0.3, dim=2)
        grid = drift_vector_field(model, cross_data(), 3, 0.0)
        np.testing.assert_array_equal(grid.drift_arrows, 0.0)

    def test_constant_sigma_uniform_magnitude(self):
        model = fixture_model(a=-1.0, b=0.4, dim=2)
        grid = drift_vector_field(model, cross_data(), 4, 0.0)
        np.testing.assert_allclose(grid.diffusion_magnitudes, 0.4 * math.sqrt(2.0), atol=1e-9)

    def test_grid_ordering_and_extent(self):
        model = fixture_model(a=-1.0, b=0.0, dim=2)
        grid = drift_vector_field(model, cross_data(scale_x=2.0, scale_y=1.0), 3, 0.0)
        assert grid.grid_points.shape == (9, 2)
        np.testing.assert_allclose(grid.grid_points[0], [-2.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(grid.grid_points[1], [0.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(grid.grid_points[-1], [2.0, 1.0], atol=1e-12)

    def test_errors(self):
        model2 = fixture_model(a=-1.0, b=0.0, dim=2)
        with pytest.raises(ValidationError):
            drift_vector_field(fixture_model(a=0.0, b=0.0, dim=1), cross_data(), 3, 0.0)
        with pytest.raises(ValidationError):
            drift_vector_field(model2, cross_data(), 1, 0.0)
        degenerate = [EmbeddingTrajectory(np.ones((3, 2)), np.arange(3.0))]
        with pytest.raises(EstimationError):
            drift_vector_field(model2, degenerate, 3, 0.0)

    def test_nonfinite_arrows_refused(self):
        # 1e308 x overflows at the grid's corners: refused, with no RuntimeWarning
        with pytest.raises(EstimationError, match="non-finite"):
            drift_vector_field(fixture_model(a=1e308, b=0.5, dim=2), cross_data(), 3, 0.0)

    def test_nonfinite_diffusion_magnitudes_refused(self):
        # every sigma component is 1e200, but the squares in its norm overflow
        linear = fixture_model(a=-1.0, b=0.0, dim=2)
        huge = MlpNetwork([2, 2], [np.zeros((2, 2))], [np.full(2, 1e200)])
        model = SdeModel(2, linear.drift_net, huge, NO_TIME)
        with pytest.raises(EstimationError, match="non-finite"):
            drift_vector_field(model, cross_data(), 3, 0.0)


class TestUncertaintyHeatmap:
    def test_unit_sigma_norm(self):
        model = fixture_model(a=0.0, b=1.0, dim=4)
        traj = EmbeddingTrajectory(np.zeros((3, 4)), np.arange(3.0))
        mags, _ = uncertainty_heatmap(model, traj)
        assert mags.shape == (3,)
        assert np.all(np.abs(mags - 2.0) < 1e-12)

    def test_log_magnitude(self):
        model = fixture_model(a=0.0, b=math.e, dim=1)
        _, logs = uncertainty_heatmap(model, EmbeddingTrajectory([[0.0]], [0.0]))
        assert abs(logs[0] - 1.0) < 1e-12

    def test_trained_ou_magnitudes(self, ou_trained):
        spec, model, _ = ou_trained
        traj = sample_linear_trajectories(spec, 1, 30, 0.05, seed=777)[0]
        mags, _ = uncertainty_heatmap(model, traj)
        target = spec.b  # d = 1, so the norm is sigma itself
        assert mags.shape == (31,) and np.all(np.abs(mags - target) / target < 0.25)

    def test_zero_sigma_gives_neg_inf_log(self):
        model = fixture_model(a=0.0, b=0.0)
        mags, logs = uncertainty_heatmap(model, EmbeddingTrajectory([[1.0]], [0.0]))
        assert mags[0] == 0.0 and logs[0] == -math.inf

    def test_overflowing_norm_gives_inf_without_warnings(self):
        # each component 1e200 is finite, the squared norm is not: no RuntimeWarning
        model = fixture_model(a=0.0, b=0.0, dim=2)
        model.diffusion_net.biases[0][:] = 1e200
        traj = EmbeddingTrajectory(np.zeros((3, 2)), np.arange(3.0))
        mags, logs = uncertainty_heatmap(model, traj)
        assert np.all(mags == math.inf) and np.all(logs == math.inf)


@pytest.mark.parametrize("check", [
    lambda model, states: estimate_regularity(model, states, 0.0),
    lambda model, states: lyapunov_check(model, states, 0.0),
    lambda model, states: compare_trajectories(EmbeddingTrajectory(states, np.arange(3.0)), model),
    lambda model, states: uncertainty_heatmap(model, EmbeddingTrajectory(states, np.arange(3.0))),
], ids=["regularity", "lyapunov", "compare", "heatmap"])
def test_wrong_state_dim_refused(check):
    states = RngStream(4).normals(9).reshape(3, 3)
    with pytest.raises(DimensionMismatchError, match="state dim 3, model dim 2"):
        check(fixture_model(a=-1.0, b=0.5, dim=2), states)


class TestWordImportance:
    def test_norms(self):
        traj = EmbeddingTrajectory(
            [[0.0, 0.0], [3.0, 4.0]], [0.0, 1.0], tokens=["zero", "pyth"]
        )
        labels, norms = word_importance(traj)
        assert labels == ["zero", "pyth"]
        np.testing.assert_array_equal(norms, [0.0, 5.0])

    def test_rotation_invariance(self):
        theta = 0.7
        rot = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        states = RngStream(2).normals(10).reshape(5, 2)
        base = EmbeddingTrajectory(states, np.arange(5.0), tokens=list("abcde"))
        spun = EmbeddingTrajectory(states @ rot.T, np.arange(5.0), tokens=list("abcde"))
        _, base_norms = word_importance(base)
        _, spun_norms = word_importance(spun)
        assert base_norms.shape == (5,)
        assert np.all(np.abs(base_norms - spun_norms) < 1e-12)

    def test_missing_labels_warns(self):
        traj = EmbeddingTrajectory([[1.0], [2.0]], [0.0, 1.0])
        with pytest.warns(UserWarning):
            labels, norms = word_importance(traj)
        assert labels == ["0", "1"]
        np.testing.assert_array_equal(norms, [1.0, 2.0])
