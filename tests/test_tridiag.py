import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from pintbounds import tridiag


def assemble(diag, off):
    n = len(diag)
    m = np.diag(np.asarray(diag, dtype=complex))
    for i in range(n - 1):
        m[i, i + 1] = off[i]
        m[i + 1, i] = np.conj(off[i])
    return m


class TestTridiagMinEig:
    def test_single_entry(self):
        assert tridiag.tridiag_min_eig([4.0], []) == pytest.approx(4.0)

    def test_small_dense_comparison(self):
        diag = [2.0, 3.0, 1.5, 4.0]
        off = [0.5, -0.25, 1.0]
        oracle = np.min(np.linalg.eigvalsh(assemble(diag, off)))
        assert tridiag.tridiag_min_eig(diag, off) == pytest.approx(oracle,
                                                                   abs=1e-12)

    def test_complex_offdiagonal_phase_invariance(self):
        # Hermitian tridiagonal matrices are unitarily similar to the real
        # symmetric matrix with |off|, so phases must not change the spectrum
        diag = [2.0, 3.0, 1.5]
        off = [0.5 * np.exp(0.7j), 0.8 * np.exp(-2.1j)]
        oracle = np.min(np.linalg.eigvalsh(assemble(diag, off)))
        assert tridiag.tridiag_min_eig(diag, off) == pytest.approx(oracle,
                                                                   abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(hst.integers(min_value=0, max_value=100_000))
    def test_matches_dense_eigensolver(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        diag = rng.uniform(-2.0, 5.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1) * np.exp(1j * rng.uniform(0, 7, n - 1))
        oracle = np.min(np.linalg.eigvalsh(assemble(diag, off)))
        assert tridiag.tridiag_min_eig(diag, off) == pytest.approx(oracle,
                                                                   abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            tridiag.tridiag_min_eig([1.0 + 1.0j, 2.0], [0.5])
        with pytest.raises(ValueError):
            tridiag.tridiag_min_eig([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            tridiag.tridiag_min_eig([], [])

    @pytest.mark.parametrize("n", [50, 200])
    def test_long_matrix_matches_dense_eigensolver(self, n):
        rng = np.random.default_rng(7)
        diag = rng.uniform(1.0, 3.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        oracle = np.min(np.linalg.eigvalsh(assemble(diag, off)))
        assert tridiag.tridiag_min_eig(diag, off) == pytest.approx(oracle,
                                                                   abs=1e-12)
