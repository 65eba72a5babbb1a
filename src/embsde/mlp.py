"""Small dense networks with explicit forward/backward passes.

The drift and diffusion fields are parameterized by fully-connected networks
kept deliberately minimal: weight matrices (shape ``(fan_out, fan_in)``) and
bias vectors, one hidden activation, one output activation.  All parameters
of a network live in one contiguous vector ``params``, laid out layer by
layer as the row-major weight matrix followed by the bias; ``weights`` and
``biases`` are views into it, so writing through either changes the other.
Training uses plain stochastic gradient descent; the backward pass is
hand-written so that gradients are exact for the losses built on top (and can
be checked against finite differences in tests).  One forward pass serves
evaluation and training: given a list, :meth:`MlpNetwork.forward` fills it
with the per-layer cache that :meth:`MlpNetwork.backward` reads.  It applies
the hidden activations in place on each layer's fresh pre-activation, so a
layer holds one ``(n, width)`` array, not two.  A signalling NaN, which
arithmetic never makes, is outside softplus's contract: its NaN's sign may vary.

Inputs may be a single vector or an ``(n, d)`` batch; batched evaluation
agrees with row-at-a-time evaluation to floating-point roundoff (the matmul
kernel may differ by an ulp across batch shapes).  Gradients returned by
:meth:`MlpNetwork.backward` are summed over the batch and share the layout
of ``params``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .numeric_core import RngStream

# softplus underflows to exactly 0.0 below about -745; diffusion magnitudes
# enter a likelihood through log(sigma), so keep them strictly positive
_SOFTPLUS_FLOOR = 1e-300

HIDDEN_ACTIVATIONS = ("tanh", "relu")
OUTPUT_ACTIVATIONS = ("identity", "softplus")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows and serves both branches; min(z, -z) keeps a NaN's sign
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    # hidden activations overwrite z: callers pass a pre-activation made for this call
    if name == "tanh":
        return np.tanh(z, out=z)
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "identity":
        return z
    if name == "softplus":
        # in place on its own array, never on z: whole-split evaluation peaks here
        out = -np.abs(z)
        np.log1p(np.exp(out, out=out), out=out)
        out += np.maximum(z, 0.0)
        return np.maximum(out, _SOFTPLUS_FLOOR, out=out)
    raise ValidationError(f"unknown activation {name!r}")


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return 1.0 - a * a
    if name == "relu":
        return (a > 0.0).astype(np.float64)  # max(z, 0) > 0 exactly where z > 0
    if name == "identity":
        return np.ones_like(z)
    if name == "softplus":
        return _sigmoid(z)
    raise ValidationError(f"unknown activation {name!r}")


def _layer_views(vec: np.ndarray, layer_dims: list[int]) -> tuple[list, list]:
    """Weight and bias views into a flat vector laid out like ``params``."""
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(vec[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(vec[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


class MlpNetwork:
    """Dense network ``layer_dims[0] -> ... -> layer_dims[-1]``.

    ``weights[i]`` has shape ``(layer_dims[i+1], layer_dims[i])`` and acts on
    the left of column vectors; evaluation is row-major,
    ``a @ W.T + b``.  The constructor copies the given arrays into the flat
    ``params`` vector; ``weights`` and ``biases`` are views into it.
    """

    __slots__ = (
        "layer_dims", "params", "weights", "biases", "hidden_activation", "output_activation"
    )

    def __init__(
        self,
        layer_dims: list[int],
        weights: list[np.ndarray],
        biases: list[np.ndarray],
        hidden_activation: str = "tanh",
        output_activation: str = "identity",
    ):
        if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
            raise ValidationError(f"bad layer_dims {layer_dims}")
        if hidden_activation not in HIDDEN_ACTIVATIONS:
            raise ValidationError(f"unknown hidden activation {hidden_activation!r}")
        if output_activation not in OUTPUT_ACTIVATIONS:
            raise ValidationError(f"unknown output activation {output_activation!r}")
        if len(weights) != len(layer_dims) - 1 or len(biases) != len(weights):
            raise DimensionMismatchError("weights/biases do not match layer_dims")
        for i, (w, b) in enumerate(zip(weights, biases)):
            want = (layer_dims[i + 1], layer_dims[i])
            if w.shape != want or b.shape != (layer_dims[i + 1],):
                raise DimensionMismatchError(
                    f"layer {i}: weight {w.shape} / bias {b.shape}, expected {want}"
                )
        self.layer_dims = list(layer_dims)
        self.params = np.concatenate(
            [part for w, b in zip(weights, biases) for part in (np.ravel(w), b)], dtype=np.float64
        )
        self.weights, self.biases = _layer_views(self.params, self.layer_dims)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_params(self) -> int:
        return self.params.size

    def _layer_activation(self, layer: int) -> str:
        return self.output_activation if layer == len(self.weights) - 1 else self.hidden_activation

    def forward(self, x, cache: list | None = None) -> np.ndarray:
        """Evaluate the network on one vector or an ``(n, d)`` batch.

        Given a list, appends to ``cache`` one ``(a_in, z, out)`` triple per layer
        for :meth:`backward`; ``a_in`` is a batch, and a hidden ``z`` is its ``out``.
        """
        a, single = self._promote(x)
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w.T
            z += b  # in place: one array per layer at the peak of whole-split evaluation
            out = _apply_activation(self._layer_activation(i), z)
            if cache is not None:
                cache.append((a, z, out))
            a = out
        return a[0] if single else a

    def backward(self, cache: list, grad_output: np.ndarray) -> np.ndarray:
        """Flat gradient of ``sum_n grad_output[n] . output[n]`` w.r.t. ``params``.

        ``cache`` is the list a :meth:`forward` call filled; ``grad_output``
        has shape ``(n, out_dim)``; gradients are summed over the batch axis.
        The result has the layout of ``params``.
        """
        grad = np.empty_like(self.params)
        grad_w, grad_b = _layer_views(grad, self.layer_dims)
        delta = np.asarray(grad_output, dtype=np.float64)
        for i in range(len(self.weights) - 1, -1, -1):
            a_in, z, out = cache[i]
            delta = delta * _activation_grad(self._layer_activation(i), z, out)
            grad_w[i][...] = delta.T @ a_in
            grad_b[i][...] = delta.sum(axis=0)
            if i:
                delta = delta @ self.weights[i]
        return grad

    def _promote(self, x) -> tuple[np.ndarray, bool]:
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        if single:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.input_dim:
            raise DimensionMismatchError(
                f"input shape {np.shape(x)} incompatible with input_dim {self.input_dim}"
            )
        return arr, single

    def flatten_params(self) -> np.ndarray:
        return self.params.copy()


def glorot_init(
    layer_dims: list[int],
    rng: RngStream,
    hidden_activation: str = "tanh",
    output_activation: str = "identity",
) -> MlpNetwork:
    """Network with Glorot-uniform weights and zero biases.

    Each weight is drawn from ``U(-a, a]`` with
    ``a = sqrt(6 / (fan_in + fan_out))``; draw order is row-major per layer,
    so the result is a pure function of ``(layer_dims, rng.seed, position)``.
    """
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        u = rng.uniforms(fan_out * fan_in)
        weights.append(((2.0 * u - 1.0) * bound).reshape(fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return MlpNetwork(layer_dims, weights, biases, hidden_activation, output_activation)


def sgd_step(net: MlpNetwork, grad: np.ndarray, lr: float, clip_norm: float | None = None) -> float:
    """In-place step ``params -= factor * grad``; returns the pre-clip gradient norm.

    ``grad`` is a flat gradient in the layout of ``net.params``.  The factor
    is ``lr``, or with ``clip_norm`` set and exceeded by the gradient's
    Euclidean norm, ``lr * clip_norm / norm`` (direction preserved).
    """
    if grad.shape != net.params.shape:
        raise DimensionMismatchError(f"expected {net.n_params} gradients, got {grad.shape}")
    norm = math.sqrt(float(grad @ grad))
    factor = lr
    if clip_norm is not None and norm > clip_norm:
        factor = lr * (clip_norm / norm)
    net.params -= factor * grad
    return norm
