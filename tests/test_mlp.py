import math
import tracemalloc
import warnings

import numpy as np
import pytest

from embsde.cli_io import load_model, save_model
from embsde.errors import DimensionMismatchError, ValidationError
from embsde.mlp import MlpNetwork, _apply_activation, _sigmoid, glorot_init, sgd_step
from embsde.numeric_core import RngStream
from embsde.sde_model import SdeModel, TimeEncoding


def masked_softplus(z):
    """The softplus head as it once ran: max(z, 0) added only where z > 0, as the bit reference."""
    out = -np.abs(z)
    np.log1p(np.exp(out, out=out), out=out)
    np.add(out, z, out=out, where=z > 0.0)
    return np.maximum(out, 1e-300, out=out)


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
        edges = np.concatenate([
            # quiet NaNs of both signs, with and without payloads
            np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000ABC,
                      0xFFF80000DEADBEEF, 0x7FFFFFFFFFFFFFFF, 0xFFF8000000000001],
                     dtype=np.uint64).view(np.float64),
            [np.inf, -np.inf, 5e-324, -5e-324, 2.2e-310, -2.2e-310],
            [2.2250738585072014e-308, -2.2250738585072014e-308, 1.7976931348623157e308,
             -1.7976931348623157e308],
        ])
        z = np.concatenate([
            [-1e300, -1000.0, -745.5, -745.0, -744.0, -50.0, -1e-3, -0.0, 0.0, 1e-3, 3.0],
            [36.0, 700.0, 709.0, 710.0, 1e300],
            edges,
            RngStream(2).normals(48) * 30.0,
        ]).reshape(10, 8)
        before = z.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _apply_activation("softplus", z)
            expected = np.maximum(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0), 1e-300)
            masked = masked_softplus(z)
        assert z.tobytes() == before.tobytes()
        assert out.tobytes() == expected.tobytes()
        assert out.tobytes() == masked.tobytes()

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
            net.params[:] = params
            return float(np.sum(coef * net.forward(xs)))

        cache = []
        net.forward(xs, cache)
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
        cache = []
        net.forward(xs, cache)
        batch_grad = net.backward(cache, coef)
        total = np.zeros_like(batch_grad)
        for x in xs:
            c1 = []
            net.forward(x, c1)
            total += net.backward(c1, np.ones((1, 2)))
        np.testing.assert_allclose(batch_grad, total, rtol=1e-12)


def _masked_sigmoid(z):
    """The two-branch sigmoid: exp(-z) where z >= 0, exp(z) / (1 + exp(z)) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


_REFERENCE_ACTIVATIONS = {
    "tanh": (np.tanh, lambda z, a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: (z > 0.0).astype(np.float64)),
    "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
    "softplus": (
        lambda z: np.maximum(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0), 1e-300),
        lambda z, a: _masked_sigmoid(z),
    ),
}


def _reference_pass(net, xs, grad_output):
    """Out-of-place forward and backward: every layer keeps its own pre-activation."""
    names = [net.hidden_activation] * (len(net.weights) - 1) + [net.output_activation]
    a, cache = xs, []
    for w, b, name in zip(net.weights, net.biases, names):
        z = a @ w.T + b
        out = _REFERENCE_ACTIVATIONS[name][0](z)
        cache.append((a, z, out))
        a = out
    parts, delta = [], grad_output
    for i in range(len(net.weights) - 1, -1, -1):
        a_in, z, out = cache[i]
        delta = delta * _REFERENCE_ACTIVATIONS[names[i]][1](z, out)
        parts = [np.ravel(delta.T @ a_in), delta.sum(axis=0), *parts]
        if i:
            delta = delta @ net.weights[i]
    return a, np.concatenate(parts)


class TestInPlaceActivations:
    # hidden activations overwrite their pre-activation; the bits must not move

    @pytest.mark.parametrize("rows", [None, 1, 7, 300])
    @pytest.mark.parametrize("output_activation", ["identity", "softplus"])
    @pytest.mark.parametrize("hidden_activation", ["tanh", "relu"])
    def test_forward_and_backward_equal_the_out_of_place_pass(
        self, hidden_activation, output_activation, rows
    ):
        net = glorot_init([3, 16, 8, 2], RngStream(21), hidden_activation, output_activation)
        net.biases[0][:] = RngStream(22).normals(16)  # some relu units on each side of 0
        n = 1 if rows is None else rows
        xs = 2.0 * RngStream(23).normals(n * 3).reshape(n, 3)
        coef = RngStream(24).normals(n * 2).reshape(n, 2)
        x = xs[0] if rows is None else xs
        want_out, want_grad = _reference_pass(net, xs, coef)

        cache = []
        out = net.forward(x, cache)
        assert out.shape == (want_out[0] if rows is None else want_out).shape
        assert out.tobytes() == want_out.tobytes()
        assert len(cache) == len(net.weights)
        assert net.backward(cache, coef).tobytes() == want_grad.tobytes()
        forward = net.forward(x)  # no cache: the same bits
        assert forward.shape == out.shape
        assert forward.tobytes() == out.tobytes()

    def test_sigmoid_equals_the_masked_formula(self):
        nan_payloads = np.array(
            [0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64
        ).view(np.float64)
        z = np.concatenate([
            [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300],
            np.arange(745.0, 801.0), -np.arange(745.0, 801.0), [745.5, -745.5],
            [np.inf, -np.inf, np.nan, -np.nan, 1e300, -1e300], nan_payloads,
            RngStream(25).normals(64) * 40.0,
        ])
        for shaped in (z, z[:-2].reshape(-1, 4)):
            assert _sigmoid(shaped).tobytes() == _masked_sigmoid(shaped).tobytes()

    @pytest.mark.parametrize("output_activation", ["identity", "softplus"])
    @pytest.mark.parametrize("hidden_activation", ["tanh", "relu"])
    def test_forward_holds_one_hidden_array(self, hidden_activation, output_activation):
        net = glorot_init([2, 32, 2], RngStream(26), hidden_activation, output_activation)
        xs = RngStream(27).normals(20000 * 2).reshape(20000, 2)
        hidden_bytes = 20000 * 32 * 8
        tracemalloc.start()
        try:
            net.forward(xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * hidden_bytes


class TestParamsRoundTrip:
    def test_n_params(self):
        net = small_net()
        assert net.n_params == 3 * 8 + 8 + 8 * 2 + 2
        assert net.flatten_params().shape == (net.n_params,)

    def test_weights_and_biases_stay_views_of_params(self, tmp_path):
        def assert_views(net):
            net.params[:] = np.arange(net.n_params)
            laid_out = [part for w, b in zip(net.weights, net.biases) for part in (w.ravel(), b)]
            np.testing.assert_array_equal(np.concatenate(laid_out), net.params)

        net = small_net()
        net.params[:] = 1.0
        assert_views(net)
        sgd_step(net, np.ones(net.n_params), lr=0.1)
        assert_views(net)
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
            cache = []
            out = net.forward(xs, cache)
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

