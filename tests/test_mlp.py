import math

import numpy as np
import pytest

from embsde.cli_io import load_model, save_model
from embsde.errors import DimensionMismatchError, ValidationError
from embsde.mlp import MlpNetwork, _apply_activation, glorot_init, sgd_step
from embsde.numeric_core import RngStream
from embsde.sde_model import SdeModel, TimeEncoding


def small_net(output_activation="identity", seed=3):
    return glorot_init([3, 8, 2], RngStream(seed), "tanh", output_activation)


class TestForward:
    def test_single_equals_batch_row(self):
        net = small_net()
        xs = RngStream(1).normals(4 * 3).reshape(4, 3)
        batch = net.forward(xs)
        for i, x in enumerate(xs):
            # matmul kernels may differ by an ulp across batch shapes
            np.testing.assert_allclose(net.forward(x), batch[i], rtol=1e-14, atol=1e-15)

    def test_identity_head_range_unbounded(self):
        net = small_net("identity")
        net.weights[-1] *= 50.0
        out = net.forward(np.ones(3) * 3.0)
        assert out.min() < 0 or out.max() > 0  # sign untouched by head

    def test_softplus_head_strictly_positive(self):
        net = small_net("softplus")
        net.biases[-1] -= 800.0  # drive pre-activation far negative
        out = net.forward(np.zeros(3))
        assert np.all(out > 0.0)

    def test_softplus_leaves_its_input_and_matches_the_formula(self):
        # built in place on its own output; z is also the pre-activation that backward reads
        z = np.concatenate([
            [-1e300, -1000.0, -745.5, -745.0, -744.0, -50.0, -1e-3, -0.0, 0.0, 1e-3, 3.0],
            [36.0, 700.0, 709.0, 710.0, 1e300],
            RngStream(2).normals(48) * 30.0,
        ]).reshape(8, 8)
        before = z.copy()
        out = _apply_activation("softplus", z)
        np.testing.assert_array_equal(z, before)
        expected = np.maximum(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0), 1e-300)
        assert out.tobytes() == expected.tobytes()

    def test_relu_hidden(self):
        net = glorot_init([2, 5, 1], RngStream(0), "relu")
        assert np.isfinite(net.forward(np.array([0.3, -0.7]))).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            small_net().forward(np.zeros(4))

    def test_linear_net_is_affine_map(self):
        w = np.array([[2.0, 0.0], [0.0, -1.0]])
        b = np.array([0.5, 1.0])
        net = MlpNetwork([2, 2], [w], [b])
        np.testing.assert_allclose(net.forward(np.array([1.0, 3.0])), [2.5, -2.0])


class TestInit:
    def test_deterministic(self):
        a = glorot_init([4, 6, 3], RngStream(7))
        b = glorot_init([4, 6, 3], RngStream(7))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_glorot_bounds(self):
        net = glorot_init([10, 20], RngStream(5))
        bound = math.sqrt(6.0 / 30.0)
        assert np.all(np.abs(net.weights[0]) <= bound)
        assert np.any(np.abs(net.weights[0]) > 0.5 * bound)

    def test_zero_biases(self):
        net = glorot_init([3, 4, 2], RngStream(1))
        for b in net.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ValidationError):
            glorot_init([3], RngStream(0))
        with pytest.raises(ValidationError):
            glorot_init([3, 2], RngStream(0), hidden_activation="sigmoid")
        with pytest.raises(ValidationError):
            glorot_init([3, 2], RngStream(0), output_activation="tanh")


class TestBackward:
    @pytest.mark.parametrize("output_activation", ["identity", "softplus"])
    @pytest.mark.parametrize("hidden_activation", ["tanh", "relu"])
    def test_gradient_matches_finite_difference(self, hidden_activation, output_activation):
        net = glorot_init([3, 6, 4, 2], RngStream(11), hidden_activation, output_activation)
        xs = RngStream(12).normals(5 * 3).reshape(5, 3)
        coef = RngStream(13).normals(5 * 2).reshape(5, 2)

        def objective(params):
            probe = net.copy()
            probe.unflatten_params(params)
            return float(np.sum(coef * probe.forward(xs)))

        out, cache = net.forward_with_cache(xs)
        grads = net.backward(cache, coef)

        theta = net.flatten_params()
        eps = 1e-6
        fd = np.empty_like(theta)
        for i in range(len(theta)):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            fd[i] = (objective(up) - objective(down)) / (2 * eps)
        np.testing.assert_allclose(grads, fd, rtol=1e-5, atol=1e-7)

    def test_batch_gradient_is_sum_of_singles(self):
        net = small_net()
        xs = RngStream(2).normals(3 * 3).reshape(3, 3)
        coef = np.ones((3, 2))
        _, cache = net.forward_with_cache(xs)
        batch_grad = net.backward(cache, coef)
        total = np.zeros_like(batch_grad)
        for x in xs:
            _, c1 = net.forward_with_cache(x)
            total += net.backward(c1, np.ones((1, 2)))
        np.testing.assert_allclose(batch_grad, total, rtol=1e-12)


class TestParamsRoundTrip:
    def test_flatten_unflatten(self):
        net = small_net()
        theta = net.flatten_params()
        other = glorot_init([3, 8, 2], RngStream(77))
        other.unflatten_params(theta)
        np.testing.assert_array_equal(other.flatten_params(), theta)
        for wa, wb in zip(net.weights, other.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_n_params(self):
        net = small_net()
        assert net.n_params == 3 * 8 + 8 + 8 * 2 + 2
        assert net.flatten_params().shape == (net.n_params,)

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatchError):
            small_net().unflatten_params(np.zeros(5))

    def test_weights_and_biases_stay_views_of_params(self, tmp_path):
        def assert_views(net):
            net.params[:] = np.arange(net.n_params)
            laid_out = [part for w, b in zip(net.weights, net.biases) for part in (w.ravel(), b)]
            np.testing.assert_array_equal(np.concatenate(laid_out), net.params)

        net = small_net()
        net.unflatten_params(np.ones(net.n_params))
        assert_views(net)
        sgd_step(net, np.ones(net.n_params), lr=0.1)
        assert_views(net)
        clone = net.copy()
        assert not np.shares_memory(clone.params, net.params)
        assert_views(clone)
        path = str(tmp_path / "model.json")
        save_model(path, SdeModel(2, small_net(), small_net("softplus"), TimeEncoding()))
        loaded = load_model(path).model
        assert_views(loaded.drift_net)
        assert_views(loaded.diffusion_net)


class TestSgd:
    def test_descends_quadratic(self):
        # fit y = 2x on scalar affine net: loss decreases monotonically
        net = MlpNetwork([1, 1], [np.array([[0.0]])], [np.array([0.0])])
        xs = np.linspace(-1, 1, 16)[:, None]
        ys = 2.0 * xs
        losses = []
        for _ in range(60):
            out, cache = net.forward_with_cache(xs)
            resid = out - ys
            losses.append(float(np.mean(resid**2)))
            grads = net.backward(cache, 2.0 * resid / len(xs))
            sgd_step(net, grads, lr=0.3)
        assert losses[-1] < 1e-6
        assert all(b <= a + 1e-15 for a, b in zip(losses, losses[1:]))
        np.testing.assert_allclose(net.weights[0][0, 0], 2.0, atol=1e-3)

    def test_clip_rescales_to_global_norm(self):
        net = MlpNetwork([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        returned = sgd_step(net, np.array([30.0, 40.0]), lr=1.0, clip_norm=5.0)  # norm 50
        assert returned == 50.0
        np.testing.assert_allclose(net.weights[0][0, 0], 1.0 - 3.0)
        np.testing.assert_allclose(net.biases[0][0], -4.0)

    def test_wrong_size_rejected(self):
        net = MlpNetwork([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        with pytest.raises(DimensionMismatchError):
            sgd_step(net, np.array([1.0]), lr=0.1)  # would broadcast over both params

    def test_no_clip_below_threshold(self):
        net = MlpNetwork([1, 1], [np.array([[1.0]])], [np.array([0.0])])
        sgd_step(net, np.array([0.5, 0.0]), lr=0.1, clip_norm=5.0)
        np.testing.assert_allclose(net.weights[0][0, 0], 0.95)

