import warnings

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

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_batch_matches_dense_eigensolver_per_row(self, n):
        rng = np.random.default_rng(n)
        diag = rng.uniform(-2.0, 5.0, (6, n))
        diag[1] -= 10.0                      # all-negative diagonal
        off = rng.uniform(-1.0, 1.0, (6, n - 1)) \
            * np.exp(1j * rng.uniform(0, 7, (6, n - 1)))
        off[2] = 0.0                         # diagonal matrix
        diag[3] = 1.0                        # repeated diagonal entries
        off[4] *= 1e-8                       # nearly decoupled rows
        got = tridiag.tridiag_min_eig(diag, off)
        assert got.shape == (6,)
        for m in range(6):
            dense = assemble(diag[m], off[m])
            oracle = np.min(np.linalg.eigvalsh(dense))
            # the sweeps run to rounding level, well inside 1e-12
            assert abs(got[m] - oracle) <= 1e-14 * np.linalg.norm(dense, 1)
            assert got[m] == tridiag.tridiag_min_eig(diag[m], off[m])

    def test_batch_validation(self):
        with pytest.raises(ValueError):
            tridiag.tridiag_min_eig(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            tridiag.tridiag_min_eig(np.ones((2, 2, 2)), np.ones((2, 2, 1)))

    @pytest.mark.parametrize("n", [50, 200])
    def test_long_matrix_matches_dense_eigensolver(self, n):
        rng = np.random.default_rng(7)
        diag = rng.uniform(1.0, 3.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        oracle = np.min(np.linalg.eigvalsh(assemble(diag, off)))
        assert tridiag.tridiag_min_eig(diag, off) == pytest.approx(oracle,
                                                                   abs=1e-12)


class TestZeroPivots:
    """Shifts that meet an exact zero pivot: b^2 is floored at the smallest
    normal number, so the next pivot is -inf and 0/0 never occurs."""

    @pytest.mark.parametrize("diag, off", [
        ([1.0, 1.0, 1.0], [0.0, 0.0]),                  # decoupled 1 x 1 blocks
        ([2.0, 2.0, 2.0, 2.0], [1.0, 0.0, 1.0]),        # decoupled 2 x 2 blocks
        ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]),        # the zero matrix
        ([-1.0, 2.0, -3.0, 0.5], [1.0, 0.5, 2.0]),      # indefinite
        # brackets [0, 0.5], [0.1, 0.5] and [0, 0.25]: the first sweep's top
        # shift is a diagonal entry, which makes that row's pivot exactly
        # zero; in the last two the off-diagonal entry after it is zero too
        ([0.5, 4.0, 4.0], [0.5, 0.0]),
        ([0.5, 4.0, 0.6], [0.0, 0.5]),
        ([0.5, 4.0, 0.25, 4.0], [0.5, 0.0, 0.1]),
    ], ids=["decoupled-1x1", "decoupled-2x2", "zero", "indefinite",
            "shift-on-diagonal", "shift-on-diagonal-then-zero",
            "shift-on-decoupled-diagonal"])
    def test_matches_dense_eigensolver_without_warnings(self, diag, off):
        dense = assemble(diag, off)
        oracle = np.min(np.linalg.eigvalsh(dense))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tridiag.tridiag_min_eig(diag, off)
            batch = tridiag.tridiag_min_eig(np.array([diag, diag]),
                                            np.array([off, off]))
        scale = max(np.linalg.norm(dense, 1), 1.0)
        assert abs(got - oracle) <= 1e-14 * scale
        assert np.array_equal(batch, [got, got])
