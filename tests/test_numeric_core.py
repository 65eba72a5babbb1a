import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embsde.errors import DimensionMismatchError, EstimationError, ValidationError
from embsde.numeric_core import (
    _GAMMA,
    PcaResult,
    RngStream,
    _box_muller,
    _mix64,
    indexed_normals,
    pca_fit,
    stream_words,
)


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------


MASK64 = 2**64 - 1


class ScalarSplitMix64:
    """The frozen stream drawn one word at a time with Python ints.

    Written from the module docstring's algorithm, independently of the
    package's array code, as the reference the array stream must equal.
    """

    def __init__(self, seed):
        self.seed = seed & MASK64
        self.count = 0

    def next_word(self):
        self.count += 1
        z = (self.seed + self.count * 0x9E3779B97F4A7C15) & MASK64
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) & MASK64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        return ((self.next_word() >> 11) + 1) * 2.0**-53

    def standard_normal(self):
        u1 = self.uniform()
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def shuffled_indices(self, n):
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = min(int(self.uniform() * (i + 1)), i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(1234)
        b = RngStream(1234)
        np.testing.assert_array_equal(a.uniforms(50), b.uniforms(50))
        ref = ScalarSplitMix64(1234)
        assert stream_words(1234, 0, 50).tolist() == [ref.next_word() for _ in range(50)]

    def test_different_seeds_differ(self):
        assert stream_words(1, 0, 8).tolist() != stream_words(2, 0, 8).tolist()
        ref = ScalarSplitMix64(2)
        assert stream_words(2, 0, 8).tolist() == [ref.next_word() for _ in range(8)]

    def test_known_first_word(self):
        # frozen algorithm: word 0 of seed 0 is mix64(GAMMA)
        z = 0x9E3779B97F4A7C15
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) % 2**64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) % 2**64
        z ^= z >> 31
        assert int(stream_words(0, 0, 1)[0]) == z
        assert ScalarSplitMix64(0).next_word() == z

    def test_uniform_range_and_mean(self):
        rng = RngStream(7)
        u = rng.uniforms(20_000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1.0 / 12.0) < 0.005

    def test_normal_moments(self):
        z = RngStream(99).normals(50_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03
        assert abs(((z - z.mean()) ** 3).mean()) < 0.05

    def test_vectorized_matches_scalar(self):
        ref = ScalarSplitMix64(42)
        vec = RngStream(42)
        expected = np.array([ref.standard_normal() for _ in range(257)])
        got = vec.normals(257)
        np.testing.assert_array_equal(got, expected)
        # both streams consumed the same number of words
        assert vec.uniforms(1)[0] == ref.uniform()

    def test_vectorized_uniforms_match_scalar(self):
        ref = ScalarSplitMix64(43)
        expected = np.array([ref.uniform() for _ in range(100)])
        np.testing.assert_array_equal(RngStream(43).uniforms(100), expected)

    def test_mixed_scalar_vector_draws_continue_stream(self):
        ref = ScalarSplitMix64(5)
        b = RngStream(5)
        seq_a = [ref.standard_normal() for _ in range(10)]
        first4 = b.normals(4)
        mid = b.normals(1)
        rest = b.normals(5)
        seq_b = list(first4) + list(mid) + list(rest)
        np.testing.assert_array_equal(np.array(seq_b), np.array(seq_a))

    def test_stream_words_windowing(self):
        whole = stream_words(11, 0, 100)
        np.testing.assert_array_equal(stream_words(11, 40, 20), whole[40:60])

    def test_indexed_normals_match_stream(self):
        seed = 2024
        direct = RngStream(seed).normals(64)
        got = indexed_normals(np.full(64, seed), np.arange(64))
        np.testing.assert_array_equal(got, direct)

    def test_indexed_normals_broadcast_per_seed(self):
        seeds = np.array([[3], [9]], dtype=np.uint64)
        idx = np.arange(5)
        block = indexed_normals(seeds, idx)
        np.testing.assert_array_equal(block[0], RngStream(3).normals(5))
        np.testing.assert_array_equal(block[1], RngStream(9).normals(5))

    @pytest.mark.parametrize("seed", [13, 2**63 + 5])
    def test_indexed_normals_scalar_is_0d_without_warnings(self, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            z = indexed_normals(np.uint64(seed), 0)
            block = indexed_normals(seed, np.arange(3))
        assert np.ndim(z) == 0
        assert z == RngStream(seed).normals(1)[0]
        np.testing.assert_array_equal(block, RngStream(seed).normals(3))

    @pytest.mark.parametrize("seeds, idx", [
        (np.arange(1000, dtype=np.uint64)[:, None] ^ np.uint64(77), np.arange(64)),
        (np.uint64(5), 3),
        (np.array([1, 2, 3], dtype=np.uint64), 9),
        (np.array([[4], [2**64 - 1]], dtype=np.uint64) + np.zeros((2, 3), dtype=np.uint64),
         np.array([0, 7, 2**40])),
        (2**64 - 1, np.arange(5)),
    ])
    def test_indexed_normals_equal_the_broadcast_first_formula(self, seeds, idx):
        ref_seeds, ref_idx = np.broadcast_arrays(
            np.asarray(seeds, dtype=np.uint64), np.asarray(idx, dtype=np.uint64)
        )
        shape = ref_seeds.shape
        ref_seeds, ref_idx = np.atleast_1d(ref_seeds, ref_idx)
        two_i = ref_idx * np.uint64(2)
        want = _box_muller(
            _mix64(ref_seeds + (two_i + np.uint64(1)) * _GAMMA),
            _mix64(ref_seeds + (two_i + np.uint64(2)) * _GAMMA),
        ).reshape(shape)
        got = indexed_normals(seeds, idx)
        assert got.shape == shape
        assert got.tobytes() == want.tobytes()

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(0).normals(-1)

    def test_negative_uniform_count_rejected_without_rewinding(self):
        s = RngStream(7)
        s.uniforms(2)
        with pytest.raises(ValidationError):
            s.uniforms(-2)
        np.testing.assert_array_equal(s.uniforms(2), RngStream(7).uniforms(4)[2:])

    def test_shuffled_indices_is_permutation(self):
        idx = RngStream(8).shuffled_indices(100)
        assert sorted(idx.tolist()) == list(range(100))
        assert idx.tolist() != list(range(100))

    @pytest.mark.parametrize("seed", [8, 2**63 + 5])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 1000])
    def test_shuffled_indices_match_scalar_fisher_yates(self, seed, n):
        ref = ScalarSplitMix64(seed)
        stream = RngStream(seed)
        idx = stream.shuffled_indices(n)
        assert idx.dtype == np.int64 and idx.shape == (n,)
        assert idx.tolist() == ref.shuffled_indices(n)
        # the stream continues where the scalar shuffle left it
        assert stream.uniforms(2).tolist() == [ref.uniform(), ref.uniform()]

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_normals_finite_for_any_seed(self, seed):
        z = RngStream(seed).normals(16)
        assert np.all(np.isfinite(z))


# ---------------------------------------------------------------------------
# Eigenpairs of pca_fit, checked against reference solvers written here so
# that the oracle does not share pca_fit's numpy.linalg.eigh call
# ---------------------------------------------------------------------------


def jacobi_reference(sym, max_sweeps=50):
    """Eigenvalues (descending) and eigenvector rows by cyclic Jacobi rotations."""
    a = np.array(sym, dtype=np.float64)
    d = a.shape[0]
    v = np.eye(d)
    for _ in range(max_sweeps):
        if np.sum(np.tril(a, -1) ** 2) <= 1e-30 * np.sum(a * a):
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                if a[p, q] == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                rot = np.eye(d)
                rot[p, p] = rot[q, q] = c
                rot[p, q], rot[q, p] = t * c, -t * c
                a = rot.T @ a @ rot
                v = v @ rot
    vals = a.diagonal()
    order = np.argsort(-vals, kind="stable")
    return vals[order], v.T[order]


def power_reference(sym, k, max_iter=20_000):
    """Top-``k`` eigenpairs of a PSD matrix by power iteration with deflation."""
    a = np.array(sym, dtype=np.float64)
    vals, vecs = np.empty(k), np.empty((k, a.shape[0]))
    for j in range(k):
        v = RngStream(j).normals(a.shape[0])
        v /= math.sqrt(v @ v)
        for _ in range(max_iter):
            w = a @ v
            w /= math.sqrt(w @ w)
            done = np.abs(w - v).max() < 1e-14
            v = w
            if done:
                break
        vals[j], vecs[j] = v @ a @ v, v
        a = a - vals[j] * np.outer(v, v)
    return vals, vecs


def assert_same_directions(rows, ref_rows, atol):
    for got, want in zip(rows, ref_rows):
        assert min(np.abs(got - want).max(), np.abs(got + want).max()) < atol


class TestJacobiEigh:
    def test_diagonal_matrix(self):
        # +-c_i e_i: zero mean, sample covariance diag(1, 3, 2)
        c = np.sqrt(2.5 * np.array([1.0, 3.0, 2.0]))
        pts = np.vstack([np.diag(c), -np.diag(c)])
        res = pca_fit(pts, 3)
        np.testing.assert_allclose(res.explained_variance, [3.0, 2.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(res.basis), np.eye(3)[[1, 2, 0]], atol=1e-14)
        ref_vals, _ = jacobi_reference(np.cov(pts.T, ddof=1))
        np.testing.assert_allclose(res.explained_variance, ref_vals, atol=1e-14)

    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 8, 20):
            pts = rng.standard_normal((3 * d, d)) @ rng.standard_normal((d, d))
            res = pca_fit(pts, d)
            cov = np.cov(pts.T, ddof=1)
            np.testing.assert_allclose(
                res.explained_variance, np.linalg.eigvalsh(cov)[::-1], rtol=1e-9
            )
            ref_vals, ref_vecs = jacobi_reference(cov)
            np.testing.assert_allclose(res.explained_variance, ref_vals, rtol=1e-9)
            assert_same_directions(res.basis, ref_vecs, atol=1e-6)
            # each row is an eigenvector: A v = lambda v
            for lam, v in zip(res.explained_variance, res.basis):
                np.testing.assert_allclose(cov @ v, lam * v, atol=1e-8 * ref_vals[0])

    def test_eigenvectors_orthonormal(self):
        pts = np.random.default_rng(17).standard_normal((40, 12))
        res = pca_fit(pts, 12)
        np.testing.assert_allclose(res.basis @ res.basis.T, np.eye(12), atol=1e-10)

    def test_sign_convention(self):
        # the dominant direction is +-(1, -1)/sqrt(2); the first nonzero entry is positive
        t = np.linspace(-1.0, 1.0, 21)
        pts = np.stack([-t, t], axis=1) + 0.1 * np.stack([t**2, t**2], axis=1)
        res = pca_fit(pts, 2)
        assert all(v[np.flatnonzero(np.abs(v) > 1e-12)[0]] > 0 for v in res.basis)
        np.testing.assert_allclose(res.basis[0], [1.0, -1.0] / np.sqrt(2.0), atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            pca_fit(np.zeros((2, 3, 4)), 1)

    def test_one_by_one(self):
        res = pca_fit(np.array([[1.0], [3.0], [2.0]]), 1)
        assert res.basis[0, 0] == 1.0 and res.explained_variance[0] == pytest.approx(1.0)


class TestPowerIteration:
    def test_matches_jacobi_topk(self):
        pts = np.random.default_rng(31).standard_normal((30, 10))
        res = pca_fit(pts, 3)
        cov = np.cov(pts.T, ddof=1)
        vals_p, vecs_p = power_reference(cov, 3)
        vals_j, vecs_j = jacobi_reference(cov)
        np.testing.assert_allclose(res.explained_variance, vals_p, rtol=1e-8)
        np.testing.assert_allclose(res.explained_variance, vals_j[:3], rtol=1e-8)
        assert_same_directions(res.basis, vecs_p, atol=1e-6)
        assert_same_directions(res.basis, vecs_j[:3], atol=1e-6)

    def test_rank_deficient_matrix(self):
        # a line through the origin: one nonzero variance, still an orthonormal basis
        t = np.linspace(-1.0, 1.0, 11)
        pts = t[:, None] * np.array([1.0, 2.0, 2.0])
        res = pca_fit(pts, 2)
        np.testing.assert_allclose(res.explained_variance[0], 9.0 * t.var(ddof=1), rtol=1e-10)
        np.testing.assert_allclose(res.explained_variance[0], power_reference(np.cov(pts.T), 1)[0])
        assert abs(res.explained_variance[1]) < 1e-8
        np.testing.assert_allclose(res.basis[0], [1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], atol=1e-12)
        np.testing.assert_allclose(res.basis @ res.basis.T, np.eye(2), atol=1e-8)


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------


class TestPcaFit:
    def test_line_recovered(self):
        t = np.linspace(-1, 1, 50)
        pts = np.stack([t, 2.0 * t], axis=1)
        res = pca_fit(pts, 1)
        direction = np.array([1.0, 2.0]) / math.sqrt(5.0)
        np.testing.assert_allclose(res.basis[0], direction, atol=1e-12)

    def test_variance_matches_numpy_oracle(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((200, 6)) * np.array([5, 3, 2, 1, 0.5, 0.1])
        res = pca_fit(pts, 4)
        cov = np.cov(pts.T, ddof=1)
        ref = np.linalg.eigvalsh(cov)[::-1][:4]
        np.testing.assert_allclose(res.explained_variance, ref, rtol=1e-9)

    def test_projection_residual_optimal(self):
        # residual variance after projecting onto top-k equals sum of trailing eigenvalues
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((300, 5)) @ np.diag([4, 2, 1, 0.5, 0.2])
        res = pca_fit(pts, 2)
        proj = (pts - res.mean) @ res.basis.T
        recon = res.mean + proj @ res.basis
        residual_var = np.sum((pts - recon) ** 2) / (len(pts) - 1)
        ref = np.sort(np.linalg.eigvalsh(np.cov(pts.T, ddof=1)))[:3].sum()
        np.testing.assert_allclose(residual_var, ref, rtol=1e-7)

    def test_mean_centering(self):
        pts = np.random.default_rng(4).standard_normal((40, 3)) + np.array([10.0, -5.0, 2.0])
        res = pca_fit(pts, 2)
        np.testing.assert_allclose(res.mean, pts.mean(axis=0))
        proj = (pts - res.mean) @ res.basis.T
        assert abs(proj.mean(axis=0)).max() < 1e-12

    @pytest.mark.parametrize("n", [1, 10])
    def test_zero_variance_cloud_refused(self, n):
        pts = np.tile([1.0, 2.0, 3.0], (n, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the refusal is the exception, never a warning
            with pytest.raises(EstimationError, match="zero variance"):
                pca_fit(pts, min(n, 2))

    @pytest.mark.parametrize("size", [1e160, 1e300])
    def test_overflowing_cloud_refused(self, size):
        # finite points whose squares overflow; the parent called the 1e160 cloud degenerate
        pts = size * np.random.default_rng(5).uniform(-1.0, 1.0, (20, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow RuntimeWarnings stay silent
            with pytest.raises(EstimationError, match="overflow"):
                pca_fit(pts, 2)

    def test_cloud_with_finite_covariance_fits(self):
        # squared row norms (3e310) overflow, the covariance (1e300) does not
        rng = np.random.default_rng(5)
        pts = 1e155 + 1e150 * rng.standard_normal((20, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pca_fit(pts, 2)
        np.testing.assert_allclose(res.basis @ res.basis.T, np.eye(2), atol=1e-12)
        ref = np.linalg.eigvalsh(np.cov(((pts - pts.mean(axis=0)) / 1e150).T))[::-1][:2]
        np.testing.assert_allclose(res.explained_variance / 1e300, ref, rtol=1e-9)

    def test_high_dim_uses_power_iteration(self):
        # d=80 with two planted dominant directions, against the power-iteration reference
        rng = np.random.default_rng(6)
        base = rng.standard_normal((2, 80))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        coef = rng.standard_normal((500, 2)) * np.array([6.0, 3.0])
        pts = coef @ base + 0.01 * rng.standard_normal((500, 80))
        res = pca_fit(pts, 2)
        vals, vecs = power_reference(np.cov(pts.T, ddof=1), 2)
        np.testing.assert_allclose(res.explained_variance, vals, rtol=1e-6)
        assert_same_directions(res.basis, vecs, atol=1e-6)

    def test_k_out_of_range(self):
        pts = np.zeros((3, 2))
        with pytest.raises(DimensionMismatchError):
            pca_fit(pts, 3)
        with pytest.raises(DimensionMismatchError):
            pca_fit(pts, 0)

    def test_nonfinite_rejected(self):
        pts = np.ones((4, 2))
        pts[1, 0] = np.nan
        with pytest.raises(ValidationError):
            pca_fit(pts, 1)

    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda d: st.lists(
                st.lists(
                    st.floats(min_value=-100, max_value=100, allow_nan=False),
                    min_size=d,
                    max_size=d,
                ),
                min_size=d + 1,
                max_size=20,
            )
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_basis_always_orthonormal(self, rows):
        pts = np.array(rows)
        k = min(2, pts.shape[1])
        if np.all(pts == pts[0]):
            with pytest.raises(EstimationError, match="zero variance"):
                pca_fit(pts, k)
            return
        try:
            res = pca_fit(pts, k)
        except EstimationError:
            # distinct rows whose spread vanishes in float64 (subnormal differences)
            spread = np.sum((pts - pts.mean(axis=0)) ** 2)
            assert spread <= 1e-20 * max(1.0, np.max(np.sum(pts * pts, axis=1)))
            return
        np.testing.assert_allclose(res.basis @ res.basis.T, np.eye(k), atol=1e-8)
