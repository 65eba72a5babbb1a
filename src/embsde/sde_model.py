"""The SDE: neural drift and diffusion fields, integration, generation.

A model is the pair of networks in

    dX(t) = mu(X(t), t) dt + sigma(X(t), t) (.) dW(t)

with diagonal diffusion: ``sigma`` returns a d-vector multiplied
componentwise into the Wiener increment.  ``SdeModel.fields`` evaluates both
from one net input, checks the state dimension, and lets overflow give inf or
NaN, never a warning.  Integration is explicit Euler-Maruyama; each path owns a
noise stream derived from the caller's seed XOR the path index, which makes
single-path and ensemble simulation produce the same numbers and lets paths be
generated independently.  Noise is drawn in blocks of steps (at most 2**16
normals) at addresses fixed by path and step.  The step works in place: the
states live in the one net input both networks read, and the update runs in
their output arrays, with the bits of ``x + mu*dt + sigma*dW``.

Also here: the question-to-answer generation procedure (start from the mean
of the question embeddings, integrate forward one token per step), and the
analytic linear fixtures used as ground truth in tests and the bundled
synthetic dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    SimulationBlowupError,
    ValidationError,
)
from .mlp import MlpNetwork
from .numeric_core import RngStream, indexed_normals

# abort integration when any state component leaves this box
BLOWUP_LIMIT = 1e6
# normals per indexed_normals call in _euler_maruyama: bounds the noise block's memory
_NOISE_BLOCK = 2**16

TIME_ENCODING_KINDS = ("none", "scalar_normalized", "sinusoidal")


@dataclass(frozen=True)
class TimeEncoding:
    """Feature map from integration time to extra network inputs.

    ``scalar_normalized`` appends the single feature ``t / horizon``;
    ``sinusoidal`` appends ``n_pairs`` pairs ``sin(w_i t), cos(w_i t)`` with
    the frequency ladder ``w_i = pi * 2**i / horizon`` (the slowest component
    completes half a cycle over the horizon, each next doubles).
    """

    kind: str = "scalar_normalized"
    horizon: float = 1.0
    n_pairs: int = 4

    def __post_init__(self):
        if self.kind not in TIME_ENCODING_KINDS:
            raise ValidationError(f"unknown time encoding kind {self.kind!r}")
        if not (self.horizon > 0.0):
            raise ValidationError(f"horizon must be positive, got {self.horizon}")
        if self.kind == "sinusoidal" and self.n_pairs < 1:
            raise ValidationError("sinusoidal encoding needs n_pairs >= 1")

    @property
    def width(self) -> int:
        if self.kind == "none":
            return 0
        if self.kind == "scalar_normalized":
            return 1
        return 2 * self.n_pairs

    def encode_batch(self, ts) -> np.ndarray:
        """Features for an array of times, shape ``(n, width)``."""
        ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
        if self.kind == "none":
            return np.zeros((ts.shape[0], 0))
        if self.kind == "scalar_normalized":
            return (ts / self.horizon)[:, None]
        freqs = np.pi * (2.0 ** np.arange(self.n_pairs)) / self.horizon
        angles = ts[:, None] * freqs[None, :]
        out = np.empty((ts.shape[0], 2 * self.n_pairs))
        out[:, 0::2] = np.sin(angles)
        out[:, 1::2] = np.cos(angles)
        return out

    def to_dict(self) -> dict:
        return {"kind": self.kind, "horizon": self.horizon, "n_pairs": self.n_pairs}

    @classmethod
    def from_dict(cls, d: dict) -> "TimeEncoding":
        return cls(
            kind=d.get("kind", "scalar_normalized"),
            horizon=float(d.get("horizon", 1.0)),
            n_pairs=int(d.get("n_pairs", 4)),
        )


@dataclass(frozen=True)
class EmbeddingTrajectory:
    """A sequence of d-dimensional states at strictly increasing times."""

    states: np.ndarray
    times: np.ndarray
    tokens: list[str] | None = None

    def __post_init__(self):
        states = np.atleast_2d(np.asarray(self.states, dtype=np.float64))
        times = np.atleast_1d(np.asarray(self.times, dtype=np.float64))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "times", times)
        if states.ndim != 2 or states.shape[0] < 1:
            raise ValidationError("trajectory needs at least one state")
        if times.shape != (states.shape[0],):
            raise DimensionMismatchError(
                f"{states.shape[0]} states but {times.shape} times"
            )
        if not (math.isfinite(times[0]) and math.isfinite(times[-1])):
            raise ValidationError("times must be finite")
        # compared, not subtracted: no inf - inf, NaN fails, and finite ends bound the rest
        if not (times[1:] > times[:-1]).all():
            raise ValidationError("times must be strictly increasing")
        if self.tokens is not None and len(self.tokens) != states.shape[0]:
            raise DimensionMismatchError(
                f"{states.shape[0]} states but {len(self.tokens)} tokens"
            )

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]


class SdeModel:
    """Neural drift and diffusion over d-dimensional embeddings.

    Immutable by convention after construction; simulation methods never
    mutate the model, so instances are safe to share across parallel path
    generation.
    """

    def __init__(
        self,
        dim: int,
        drift_net: MlpNetwork,
        diffusion_net: MlpNetwork,
        time_encoding: TimeEncoding | None = None,
    ):
        if dim < 1:
            raise ValidationError(f"dim must be positive, got {dim}")
        enc = time_encoding if time_encoding is not None else TimeEncoding()
        want_in = dim + enc.width
        for name, net in (("drift", drift_net), ("diffusion", diffusion_net)):
            if net.input_dim != want_in or net.output_dim != dim:
                raise DimensionMismatchError(
                    f"{name} net is {net.input_dim}->{net.output_dim}, "
                    f"model needs {want_in}->{dim}"
                )
        self.dim = dim
        self.drift_net = drift_net
        self.diffusion_net = diffusion_net
        self.time_encoding = enc

    def _net_input(self, x, features) -> np.ndarray:
        """Input rows ``[x | time features]`` of both nets; ``features`` broadcast over rows."""
        xs = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if xs.shape[1] != self.dim:
            raise DimensionMismatchError(f"state dim {xs.shape[1]}, model dim {self.dim}")
        out = np.empty((xs.shape[0], self.dim + self.time_encoding.width))
        out[:, : self.dim] = xs
        out[:, self.dim :] = features
        return out

    def _fields(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both nets on the same input rows; overflow gives inf or NaN, not warnings."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.drift_net.forward(inputs), self.diffusion_net.forward(inputs)

    def fields(self, x, t) -> tuple[np.ndarray, np.ndarray]:
        """Drift and diffusion at ``(x, t)`` from one net input; batched when ``x`` is ``(n, d)``.

        ``t`` is one time or one per row.  Overflow gives inf or NaN, not warnings.
        """
        mu, sigma = self._fields(self._net_input(x, self.time_encoding.encode_batch(t)))
        return (mu[0], sigma[0]) if np.ndim(x) == 1 else (mu, sigma)

    def drift(self, x, t) -> np.ndarray:
        """The drift half of :meth:`fields`."""
        return self.fields(x, t)[0]

    def diffusion(self, x, t) -> np.ndarray:
        """The diffusion half of :meth:`fields`; positive for softplus heads."""
        return self.fields(x, t)[1]


def simulate(
    model: SdeModel,
    x0,
    n_steps: int,
    dt: float = 1.0,
    seed: int = 0,
) -> EmbeddingTrajectory:
    """Integrate one path from ``x0``; pure in ``(model, x0, n_steps, dt, seed)``.

    Equivalent to row 0 of :func:`simulate_ensemble` with one path and the
    same seed.  Raises :class:`SimulationBlowupError` carrying the finite
    prefix when a state leaves ``|x| <= BLOWUP_LIMIT``.
    """
    ens = simulate_ensemble(model, x0, n_paths=1, n_steps=n_steps, dt=dt, seed=seed)
    return EmbeddingTrajectory(states=ens[0], times=dt * np.arange(n_steps + 1))


def simulate_ensemble(
    model: SdeModel,
    x0,
    n_paths: int,
    n_steps: int,
    dt: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Integrate ``n_paths`` independent paths.

    ``x0`` is either one shared start state ``(d,)`` or one per path
    ``(n_paths, d)``.  Returns states of shape ``(n_paths, n_steps + 1, d)``.
    Path ``p`` uses the noise stream seeded ``seed XOR p``, so any single
    path can be reproduced in isolation with :func:`simulate`.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (model.dim,) and x0.shape != (n_paths, model.dim):
        raise DimensionMismatchError(f"x0 shape {x0.shape}, model dim {model.dim}")
    if n_paths < 1:
        raise ValidationError(f"bad request n_paths={n_paths}")
    x0 = np.broadcast_to(x0, (n_paths, model.dim))
    return _euler_maruyama(model, x0, _path_seeds(seed, np.arange(n_paths)), n_steps, dt)


def _path_seeds(seed: int, paths: np.ndarray) -> np.ndarray:
    """Noise-stream seed of each path id: ``seed XOR path``."""
    return np.uint64(int(seed) & (2**64 - 1)) ^ paths.astype(np.uint64)


def _euler_maruyama(
    model: SdeModel, x0: np.ndarray, seeds: np.ndarray, n_steps: int, dt: float
) -> np.ndarray:
    """Euler-Maruyama paths from the start states ``x0`` of shape ``(n, d)``.

    Step ``k`` of path ``p`` adds ``sqrt(dt)`` times normals ``k*d .. k*d+d-1``
    of the stream seeded ``seeds[p]``, whatever the blocking: one
    :func:`indexed_normals` call draws a block of steps (at most 2**16 normals,
    at least one step), whose time features are encoded once.  Returns
    ``(n, n_steps + 1, d)`` states; raises :class:`SimulationBlowupError`
    with every offending path once a state leaves ``|x| <= BLOWUP_LIMIT``.
    """
    if n_steps < 0:
        raise ValidationError(f"bad request n_steps={n_steps}")
    if not (0.0 < dt < math.inf):
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(dt * n_steps):  # refused before any step: the last time overflows
        raise ValidationError(f"time grid overflows: {n_steps} steps of dt={dt}")
    n, d = x0.shape
    out = np.empty((n, n_steps + 1, d))
    out[:, 0, :] = x0
    inp = np.empty((n, d + model.time_encoding.width))  # [x | time features], both nets' input
    x = inp[:, :d]
    x[...] = x0
    block = max(1, _NOISE_BLOCK // (n * d))
    with np.errstate(over="ignore", invalid="ignore"):  # blow-up handled below
        for start in range(0, n_steps, block):
            ks = np.arange(start, min(start + block, n_steps))
            idx = np.arange(start * d, (start + ks.size) * d, dtype=np.uint64)
            dW = indexed_normals(seeds[:, None], idx).reshape(n, ks.size, d)
            dW *= math.sqrt(dt)
            feats = model.time_encoding.encode_batch(ks * dt)
            for i, k in enumerate(ks.tolist()):
                inp[:, d:] = feats[i]
                mu, sigma = model.drift_net.forward(inp), model.diffusion_net.forward(inp)
                # x + mu*dt + sigma*dW in that operand order, in the forwards' own arrays
                mu *= dt
                mu += x
                sigma *= dW[:, i]
                np.add(mu, sigma, out=x)
                if not np.abs(x).max() <= BLOWUP_LIMIT:  # NaN fails the comparison too
                    paths = np.flatnonzero(~(np.abs(x) <= BLOWUP_LIMIT).all(axis=1)).tolist()
                    raise SimulationBlowupError(
                        f"{len(paths)} of {n} paths left |x| <= {BLOWUP_LIMIT:g} at step {k + 1}",
                        step=k + 1,
                        prefix_states=out[:, : k + 1].copy(),
                        prefix_times=dt * np.arange(k + 1),
                        paths=paths,
                    )
                out[:, k + 1, :] = x
    return out


def generate_answer(
    model: SdeModel,
    question_embeddings,
    n_steps: int,
    dt: float = 1.0,
    seed: int = 0,
) -> EmbeddingTrajectory:
    """Answer trajectory: integrate from the mean of the question embeddings.

    The start state is the exact componentwise arithmetic mean; the rest is
    :func:`simulate`.
    """
    q = np.atleast_2d(np.asarray(question_embeddings, dtype=np.float64))
    if q.size == 0:
        raise ValidationError("need at least one question embedding")
    if q.shape[1] != model.dim:
        raise DimensionMismatchError(f"question dim {q.shape[1]}, model dim {model.dim}")
    return simulate(model, q.mean(axis=0), n_steps=n_steps, dt=dt, seed=seed)


# ---------------------------------------------------------------------------
# Analytic linear fixtures
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearSdeSpec:
    """Constant-coefficient linear SDE ``dX = a X dt + b dW``."""

    a: float
    b: float
    dim: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.a) and 0.0 <= self.b < math.inf):
            raise ValidationError(f"need finite a and finite b >= 0, got a={self.a}, b={self.b}")
        if self.dim < 1:
            raise ValidationError(f"dim must be positive, got {self.dim}")


def linear_sde_model(spec: LinearSdeSpec, time_encoding: TimeEncoding | None = None) -> SdeModel:
    """Exact network realization of a linear spec.

    The drift net is a single affine layer ``[a I | 0]`` (time features get
    zero weight); the diffusion net is constant at ``b``.  For ``b > 0`` the
    bias is ``log(expm1(b))`` under a softplus head; ``b = 0`` needs an
    identity head since softplus cannot reach zero.  These identity-head
    fixtures are the one place a model's diffusion may be non-positive.
    """
    enc = time_encoding if time_encoding is not None else TimeEncoding()
    d, w = spec.dim, enc.width
    drift_w = np.concatenate([spec.a * np.eye(d), np.zeros((d, w))], axis=1)
    drift_net = MlpNetwork([d + w, d], [drift_w], [np.zeros(d)], output_activation="identity")
    if spec.b > 0.0:
        head, bias = "softplus", math.log(math.expm1(spec.b))
    else:
        head, bias = "identity", 0.0
    diffusion_net = MlpNetwork(
        [d + w, d], [np.zeros((d, d + w))], [np.full(d, bias)], output_activation=head
    )
    return SdeModel(d, drift_net, diffusion_net, enc)


def sample_linear_trajectories(
    spec: LinearSdeSpec,
    n_trajectories: int,
    n_steps: int,
    dt: float,
    seed: int,
) -> list[EmbeddingTrajectory]:
    """Euler paths of a linear SDE with uniform random start states in ``(-2, 2]``.

    The bundled synthetic dataset: one draw of ``n_trajectories * dim``
    uniforms ``u`` in ``(0, 1]`` off the base stream gives the start states
    ``-2 + 4u`` (row ``i`` for path ``i``); path ``i`` integrates with the
    stream ``seed XOR (i + 1)``, so it equals :func:`simulate` from its start
    state with that seed.
    """
    if n_trajectories < 1:
        raise ValidationError("need at least one trajectory")
    model = linear_sde_model(spec, TimeEncoding(kind="none"))
    base = RngStream(seed)
    u = base.uniforms(n_trajectories * spec.dim).reshape(n_trajectories, spec.dim)
    seeds = _path_seeds(base.seed, np.arange(1, n_trajectories + 1))
    states = _euler_maruyama(model, -2.0 + 4.0 * u, seeds, n_steps, dt)
    times = dt * np.arange(n_steps + 1)
    return [EmbeddingTrajectory(states=s, times=times.copy()) for s in states]
