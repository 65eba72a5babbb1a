"""Deterministic numeric substrate: seeded RNG and PCA.

Vectors and matrices throughout the package are plain ``float64`` numpy
arrays.  This module pins down the two pieces whose exact behaviour the rest
of the package depends on:

* a counter-based random number generator with a frozen, documented
  algorithm, so that every simulated noise path can be replayed bit-for-bit
  from its seed (and indexed out of order for parallel path generation);
* principal component analysis on ``numpy.linalg.eigh`` of the sample
  covariance, with a deterministic ordering (descending variance, ties in
  eigh's order) and sign convention.

Frozen RNG algorithm
--------------------
The word stream is SplitMix64: the ``n``-th 64-bit word (0-based) of the
stream with seed ``s`` is ``mix64((s + (n + 1) * GAMMA) mod 2**64)`` where
``GAMMA = 0x9E3779B97F4A7C15`` and ``mix64`` is the xor-shift/multiply
finalizer with constants ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``.
A word maps to a uniform in ``(0, 1]`` via ``((w >> 11) + 1) * 2**-53``.
Standard normals use the trigonometric Box-Muller transform, one normal per
pair of consecutive words::

    z_k = sqrt(-2 ln u_{2k}) * cos(2 pi u_{2k+1})

The sine companion is intentionally discarded: each normal is then a pure
function of ``(seed, k)``, which is what makes ensemble noise generation a
bulk array computation rather than a sequential draw.

A permutation of ``range(n)`` is the Fisher-Yates shuffle driven by the next
``n - 1`` uniforms ``u_1 .. u_{n-1}`` of the stream: for ``i = n-1, ..., 1``
in that order it swaps positions ``i`` and ``min(floor(u_{n-i} (i + 1)), i)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EstimationError, ValidationError

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_C1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C2 = np.uint64(0x94D049BB133111EB)

_TWO_PI = 2.0 * math.pi
_INV_2_53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    # uint64 arrays wrap mod 2**64 silently; 0-d operands warn, so callers promote them
    z = z ^ (z >> np.uint64(30))
    z = z * _MIX_C1
    z = z ^ (z >> np.uint64(27))
    z = z * _MIX_C2
    z = z ^ (z >> np.uint64(31))
    return z


def stream_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words ``start .. start+count-1`` of the stream with the given seed."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    states = np.uint64(int(seed) % 2**64) + idx * _GAMMA
    return _mix64(states)


def _words_to_unit(words: np.ndarray) -> np.ndarray:
    return ((words >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53


def _box_muller(w1: np.ndarray, w2: np.ndarray) -> np.ndarray:
    u1 = _words_to_unit(w1)
    u2 = _words_to_unit(w2)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)


def indexed_normals(seeds, normal_indices) -> np.ndarray:
    """Standard normals addressed by (stream seed, normal index).

    ``seeds`` and ``normal_indices`` broadcast against each other (two
    scalars give a 0-d result); entry ``(s, k)`` is normal ``k`` of a fresh
    ``RngStream(s)``.  Used for bulk Wiener-increment generation where every
    path owns its own stream.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    idx = np.asarray(normal_indices, dtype=np.uint64)
    shape = np.broadcast_shapes(seeds.shape, idx.shape)
    seeds, idx = np.atleast_1d(seeds, idx)
    # word offsets (2k+1) GAMMA and (2k+2) GAMMA, computed on idx before it broadcasts
    states = seeds + (idx * np.uint64(2) + np.uint64(1)) * _GAMMA
    w1 = _mix64(states)
    states += _GAMMA
    return _box_muller(w1, _mix64(states)).reshape(shape)


class RngStream:
    """Deterministic random stream with explicit seed and word counter.

    Each draw reads the next words of the stream as one array, so
    ``normals(a)`` then ``normals(b)`` equals ``normals(a + b)``; the module
    docstring freezes the algorithm.  A stream is single-owner: share seeds,
    not stream objects, across concurrent work.
    """

    __slots__ = ("seed", "_count")

    def __init__(self, seed: int):
        self.seed = int(seed) % 2**64
        self._count = 0

    def normals(self, count: int) -> np.ndarray:
        """The next ``count`` standard normals, two words each."""
        if count < 0:
            raise ValidationError("normals count must be nonnegative")
        words = stream_words(self.seed, self._count, 2 * count)
        self._count += 2 * count
        return _box_muller(words[0::2], words[1::2])

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms in (0, 1], one word each."""
        if count < 0:
            raise ValidationError("uniforms count must be nonnegative")
        words = stream_words(self.seed, self._count, count)
        self._count += count
        return _words_to_unit(words)

    def shuffled_indices(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of ``range(n)`` from the next ``n - 1`` uniforms."""
        sizes = np.arange(n, 1, -1)
        u = self.uniforms(max(n - 1, 0))
        # float64 products of integers below 2**53 truncate exactly as int()
        picks = np.minimum((u * sizes).astype(np.int64), sizes - 1).tolist()
        idx = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), picks):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


def _canonical_signs(rows: np.ndarray) -> np.ndarray:
    rows = rows.copy()
    for i, row in enumerate(rows):
        nz = np.flatnonzero(np.abs(row) > 1e-12)
        if nz.size and row[nz[0]] < 0.0:
            rows[i] = -row
    return rows


@dataclass(frozen=True)
class PcaResult:
    """Fitted principal-component basis.

    ``basis`` rows are orthonormal directions in descending
    ``explained_variance`` order; :func:`pca_fit` raises for a cloud with none.
    """

    basis: np.ndarray
    mean: np.ndarray
    explained_variance: np.ndarray


def pca_fit(points, k: int) -> PcaResult:
    """Fit a ``k``-component PCA to a cloud of vectors.

    ``points`` is a sequence of equal-length vectors (or an ``(n, d)``
    array).  The basis is the top ``k`` eigenvectors of the sample
    covariance from one ``numpy.linalg.eigh`` call, in descending eigenvalue
    order (a stable sort, so ties keep eigh's order), each signed so its
    first component above 1e-12 in magnitude is positive.  A cloud with zero
    variance (one point, or all identical) or whose covariance overflows
    float64 raises :class:`EstimationError`.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.size == 0:
        raise DimensionMismatchError("points must be a nonempty (n, d) collection")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("points contain non-finite values")
    n, d = pts.shape
    if not (1 <= k <= min(d, n)):
        raise DimensionMismatchError(
            f"k={k} out of range for {n} points of dimension {d}"
        )

    # zero variance is spread <= 1e-24 * max(1, largest squared row norm); both
    # sides are compared over m**2, so neither can overflow
    m = max(1.0, float(np.max(np.abs(pts))))
    scale = max(1.0, float(np.max(np.sum(np.square(pts / m), axis=1))))
    with np.errstate(over="ignore", invalid="ignore"):
        mean = pts.mean(axis=0)
        centered = pts - mean
        cov = (centered.T @ centered) / max(n - 1, 1)
    if not np.isfinite(cov).all():
        raise EstimationError("point cloud too large: squared coordinates overflow float64")
    if float(np.sum(np.diag(cov) / m / m)) <= 1e-24 * scale:
        raise EstimationError("degenerate point cloud: zero variance in every direction")

    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(-vals, kind="stable")[:k]
    return PcaResult(
        basis=_canonical_signs(vecs.T[order]),
        mean=mean,
        explained_variance=np.maximum(vals[order], 0.0),
    )

