import numpy as np
import pytest

from irs_swipt.errors import InvalidInput, NotPSD
from irs_swipt.linalg import herm_eig, is_hermitian, max_eigval, psd_sqrt

from shared import random_hermitian


def random_psd(rng, dim, rank=None):
    b = rng.standard_normal((dim, rank or dim)) + 1j * rng.standard_normal((dim, rank or dim))
    return b @ b.conj().T


class TestHermEig:
    def test_identity(self):
        vals, _ = herm_eig(np.eye(3))
        assert np.allclose(vals, [1.0, 1.0, 1.0])

    def test_diagonal_sorted_ascending(self):
        vals, _ = herm_eig(np.diag([1.0, 3.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_random_residuals(self):
        rng = np.random.default_rng(0)
        h = random_hermitian(rng, 6)
        vals, vecs = herm_eig(h)
        tol = 1e-10 * 6 * np.linalg.norm(h)
        for k in range(6):
            assert np.linalg.norm(h @ vecs[:, k] - vals[k] * vecs[:, k]) < tol

    def test_eigenvector_orthonormality(self):
        rng = np.random.default_rng(1)
        for dim in (2, 5, 11):
            _, vecs = herm_eig(random_hermitian(rng, dim))
            assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(dim)) < 1e-10

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(2)
        for dim in (1, 3, 8, 17):
            h = random_hermitian(rng, dim)
            vals, _ = herm_eig(h)
            tr = float(np.trace(h).real)
            assert abs(np.sum(vals) - tr) <= 1e-9 * (1.0 + abs(tr))

    def test_non_finite_rejected(self):
        h = np.eye(2, dtype=complex)
        h[0, 1] = np.nan
        with pytest.raises(InvalidInput):
            herm_eig(h)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidInput):
            herm_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))


class TestMaxEigval:
    def test_identity(self):
        assert max_eigval(np.eye(5)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert max_eigval(np.diag([-2.0, 5.0, 0.0])) == pytest.approx(5.0)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(3)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert max_eigval(np.outer(b, b.conj())) == pytest.approx(
            np.linalg.norm(b) ** 2, rel=1e-12)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction_random_psd(self):
        rng = np.random.default_rng(4)
        x = random_psd(rng, 7)
        s = psd_sqrt(x)
        assert np.linalg.norm(s @ s.conj().T - x) <= 1e-9 * np.linalg.norm(x)

    def test_reconstruction_sweep_dims(self):
        rng = np.random.default_rng(5)
        for trial in range(100):
            dim = int(rng.integers(1, 33))
            x = random_psd(rng, dim, rank=max(1, dim // 2))
            s = psd_sqrt(x)
            assert np.linalg.norm(s @ s.conj().T - x) <= 1e-9 * max(np.linalg.norm(x), 1e-30)

    def test_small_negative_eigenvalues_clipped(self):
        x = np.diag([1.0, -1e-12])
        s = psd_sqrt(x)
        assert np.allclose(s @ s.conj().T, np.diag([1.0, 0.0]), atol=1e-11)

    def test_clearly_indefinite_rejected(self):
        with pytest.raises(NotPSD):
            psd_sqrt(np.diag([1.0, -0.5]))


def test_is_hermitian_tolerance():
    assert is_hermitian(np.eye(3))
    assert not is_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))
