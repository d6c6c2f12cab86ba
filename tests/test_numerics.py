import numpy as np
import pytest

from dfuse.errors import DegenerateEmbeddingError, UsageError
from dfuse.numerics import l2_normalize_rows, similarity_matrix, softmax_pair
from naive import naive_similarity, naive_softmax_row


def softmax_rows(m):
    return softmax_pair(np.asarray(m, dtype=np.float64))[0]


class TestSoftmaxPair:
    def test_uniform_row(self):
        out = softmax_rows([[0.0, 0.0, 0.0]])
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.uniform(-5, 5, size=(6, 9))
        shifted = m + rng.uniform(-100, 100, size=(6, 1))
        np.testing.assert_allclose(softmax_rows(m), softmax_rows(shifted), atol=1e-12)

    def test_matches_naive_loop(self):
        row = [1.0, 2.0, 3.0]
        np.testing.assert_allclose(softmax_rows([row])[0], naive_softmax_row(row), atol=1e-14)

    def test_rows_sum_to_one_in_open_interval(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-30, 30, size=(20, 7))
        out = softmax_rows(m)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out > 0) and np.all(out < 1)

    def test_log_softmax_consistent(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(-20, 20, size=(5, 5))
        np.testing.assert_allclose(np.exp(softmax_pair(m)[1]), softmax_rows(m), atol=1e-12)


class TestL2NormalizeRows:
    def test_three_four_five(self):
        np.testing.assert_array_equal(l2_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]])

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(l2_normalize_rows(row), row)

    def test_output_norms(self):
        rng = np.random.default_rng(5)
        out = l2_normalize_rows(rng.standard_normal((30, 6)) * 10)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)

    def test_zero_row_degenerate(self):
        with pytest.raises(DegenerateEmbeddingError):
            l2_normalize_rows([[0.0, 0.0], [1.0, 0.0]])


class TestSimilarityMatrix:
    def test_orthonormal_identity(self):
        eye = np.eye(3)
        np.testing.assert_array_equal(similarity_matrix(eye, eye, 1.0), eye)

    def test_temperature_scales(self):
        rng = np.random.default_rng(6)
        a, b = rng.standard_normal((4, 5)), rng.standard_normal((3, 5))
        np.testing.assert_allclose(
            similarity_matrix(a, b, 0.05), similarity_matrix(a, b, 1.0) * 20.0, rtol=1e-12
        )

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal((4, 6)), rng.standard_normal((5, 6))
        np.testing.assert_allclose(
            similarity_matrix(a, b, 0.7), naive_similarity(a, b, 0.7), atol=1e-12
        )

    def test_transpose_identity_exact(self):
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((6, 4)), rng.standard_normal((3, 4))
        np.testing.assert_array_equal(
            similarity_matrix(a, b, 0.3).T, similarity_matrix(b, a, 0.3)
        )

    def test_bit_determinism(self):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
        first = similarity_matrix(a, b, 0.05)
        second = similarity_matrix(a, b, 0.05)
        assert first.tobytes() == second.tobytes()

    def test_rejects_bad_inputs(self):
        with pytest.raises(UsageError):
            similarity_matrix(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)
        with pytest.raises(UsageError):
            similarity_matrix(np.zeros((2, 3)), np.zeros((2, 3)), 0.0)
        with pytest.raises(UsageError):
            similarity_matrix(np.zeros((2, 3)), np.zeros((2, 3)), -1.0)
