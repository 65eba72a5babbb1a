import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embsde.errors import DimensionMismatchError, ValidationError
from embsde.numeric_core import (
    PcaResult,
    RngStream,
    indexed_normals,
    jacobi_eigh,
    pca_fit,
    pca_project,
    power_iteration_topk,
    stream_words,
)


# ---------------------------------------------------------------------------
# RNG
# ---------------------------------------------------------------------------


class TestRngStream:
    def test_same_seed_same_sequence(self):
        a = RngStream(1234)
        b = RngStream(1234)
        assert [a.next_uint64() for _ in range(50)] == [b.next_uint64() for _ in range(50)]

    def test_different_seeds_differ(self):
        a = RngStream(1)
        b = RngStream(2)
        assert [a.next_uint64() for _ in range(8)] != [b.next_uint64() for _ in range(8)]

    def test_known_first_word(self):
        # frozen algorithm: word 0 of seed 0 is mix64(GAMMA)
        z = 0x9E3779B97F4A7C15
        z ^= z >> 30
        z = (z * 0xBF58476D1CE4E5B9) % 2**64
        z ^= z >> 27
        z = (z * 0x94D049BB133111EB) % 2**64
        z ^= z >> 31
        assert RngStream(0).next_uint64() == z

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
        scalar = RngStream(42)
        vec = RngStream(42)
        expected = np.array([scalar.standard_normal() for _ in range(257)])
        got = vec.normals(257)
        np.testing.assert_array_equal(got, expected)
        # both streams consumed the same number of words
        assert scalar.uniform() == vec.uniform()

    def test_vectorized_uniforms_match_scalar(self):
        scalar = RngStream(43)
        vec = RngStream(43)
        expected = np.array([scalar.uniform() for _ in range(100)])
        np.testing.assert_array_equal(vec.uniforms(100), expected)

    def test_mixed_scalar_vector_draws_continue_stream(self):
        a = RngStream(5)
        b = RngStream(5)
        seq_a = [a.standard_normal() for _ in range(10)]
        first4 = b.normals(4)
        mid = b.standard_normal()
        rest = b.normals(5)
        seq_b = list(first4) + [mid] + list(rest)
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

    def test_spawn_is_seed_xor(self):
        rng = RngStream(0b1100)
        child = rng.spawn(0b1010)
        assert child.seed == 0b0110
        # spawned stream unaffected by parent's position
        rng.normals(17)
        np.testing.assert_array_equal(rng.spawn(0b1010).normals(4), child.normals(4))

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(0).normals(-1)

    def test_shuffled_indices_is_permutation(self):
        idx = RngStream(8).shuffled_indices(100)
        assert sorted(idx.tolist()) == list(range(100))
        assert idx.tolist() != list(range(100))

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_normals_finite_for_any_seed(self, seed):
        z = RngStream(seed).normals(16)
        assert np.all(np.isfinite(z))


# ---------------------------------------------------------------------------
# Eigendecomposition
# ---------------------------------------------------------------------------


class TestJacobiEigh:
    def test_diagonal_matrix(self):
        vals, vecs = jacobi_eigh(np.diag([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(vals, [3.0, 2.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(np.abs(vecs), np.eye(3)[[1, 2, 0]], atol=1e-14)

    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(5)
        for d in (2, 3, 8, 20):
            m = rng.standard_normal((d, d))
            sym = (m + m.T) / 2
            vals, vecs = jacobi_eigh(sym)
            ref_vals = np.linalg.eigvalsh(sym)[::-1]
            np.testing.assert_allclose(vals, ref_vals, atol=1e-9)
            # each row is an eigenvector: A v = lambda v
            for lam, v in zip(vals, vecs):
                np.testing.assert_allclose(sym @ v, lam * v, atol=1e-8)

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(17)
        m = rng.standard_normal((12, 12))
        _, vecs = jacobi_eigh(m @ m.T)
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(12), atol=1e-10)

    def test_sign_convention(self):
        _, vecs = jacobi_eigh(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert all(v[np.flatnonzero(np.abs(v) > 1e-12)[0]] > 0 for v in vecs)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatchError):
            jacobi_eigh(np.zeros((2, 3)))

    def test_one_by_one(self):
        vals, vecs = jacobi_eigh(np.array([[4.0]]))
        assert vals[0] == 4.0 and vecs[0, 0] == 1.0


class TestPowerIteration:
    def test_matches_jacobi_topk(self):
        rng = np.random.default_rng(31)
        m = rng.standard_normal((30, 10))
        cov = m.T @ m / 29
        vals_p, vecs_p = power_iteration_topk(cov, 3)
        vals_j, vecs_j = jacobi_eigh(cov)
        np.testing.assert_allclose(vals_p, vals_j[:3], rtol=1e-8)
        for vp, vj in zip(vecs_p, vecs_j[:3]):
            assert min(np.abs(vp - vj).max(), np.abs(vp + vj).max()) < 1e-6

    def test_rank_deficient_matrix(self):
        v = np.array([1.0, 2.0, 2.0])
        cov = np.outer(v, v)
        vals, vecs = power_iteration_topk(cov, 2)
        np.testing.assert_allclose(vals[0], 9.0, rtol=1e-10)
        assert abs(vals[1]) < 1e-8
        np.testing.assert_allclose(vecs @ vecs.T, np.eye(2), atol=1e-8)


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
        assert not res.degenerate

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
        proj = pca_project(res.basis, res.mean, pts)
        recon = res.mean + proj @ res.basis
        residual_var = np.sum((pts - recon) ** 2) / (len(pts) - 1)
        ref = np.sort(np.linalg.eigvalsh(np.cov(pts.T, ddof=1)))[:3].sum()
        np.testing.assert_allclose(residual_var, ref, rtol=1e-7)

    def test_mean_centering(self):
        pts = np.random.default_rng(4).standard_normal((40, 3)) + np.array([10.0, -5.0, 2.0])
        res = pca_fit(pts, 2)
        np.testing.assert_allclose(res.mean, pts.mean(axis=0))
        assert abs(pca_project(res.basis, res.mean, res.mean)).max() < 1e-12

    def test_degenerate_cloud_flagged(self):
        pts = np.tile([1.0, 2.0, 3.0], (10, 1))
        with pytest.warns(UserWarning):
            res = pca_fit(pts, 2)
        assert res.degenerate
        np.testing.assert_array_equal(res.explained_variance, 0.0)
        np.testing.assert_allclose(res.basis @ res.basis.T, np.eye(2), atol=1e-14)

    def test_high_dim_uses_power_iteration(self):
        rng = np.random.default_rng(6)
        # d=80 > jacobi cutoff; planted two dominant directions
        base = rng.standard_normal((2, 80))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        coef = rng.standard_normal((500, 2)) * np.array([6.0, 3.0])
        pts = coef @ base + 0.01 * rng.standard_normal((500, 80))
        res = pca_fit(pts, 2)
        cov = np.cov(pts.T, ddof=1)
        ref = np.linalg.eigvalsh(cov)[::-1][:2]
        np.testing.assert_allclose(res.explained_variance, ref, rtol=1e-6)

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

    def test_project_shape_checks(self):
        res = pca_fit(np.random.default_rng(0).standard_normal((10, 4)), 2)
        with pytest.raises(DimensionMismatchError):
            pca_project(res.basis, res.mean, np.zeros(5))

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # degenerate clouds are fine here
            res = pca_fit(pts, k)
        np.testing.assert_allclose(res.basis @ res.basis.T, np.eye(k), atol=1e-8)
