import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from pintbounds import operators as ops
from pintbounds import toeplitz, tridiag


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


def sturm(diag, off):
    """The twisted negative-pivot test of one real matrix, b^2 floored as
    tridiag_min_eig floors it."""
    b = np.abs(np.asarray(off, dtype=float))
    return tridiag.TwistedSturm(np.array([diag], dtype=float),
                                np.maximum(b * b, np.finfo(float).tiny)[None])


class TestTwistedSturm:
    """The twist at r = n // 2: the top-down pivots of rows 0 ... r - 1 and
    the bottom-up ones of rows n - 1 ... r + 1 run together, the bottom half
    padded by one row for even n."""

    def test_cap_stays_at_160_bits(self):
        assert tridiag.MAX_SWEEPS * math.log2(tridiag.SHIFTS + 1) >= 160
        assert (tridiag.MAX_SWEEPS - 1) * math.log2(tridiag.SHIFTS + 1) < 160

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts_match_dense_at_every_shift(self, n):
        # n = 1 is the twist alone, n = 2 a top row and the twist at the
        # last row, n = 4 and 6 a padded bottom half, n = 3 and 5 two equal
        # halves
        rng = np.random.default_rng(n)
        for _ in range(20):
            diag = rng.uniform(-2.0, 3.0, n)
            off = rng.uniform(-1.5, 1.5, n - 1)
            eigs = np.linalg.eigvalsh(assemble(diag, off).real)
            x = np.sort(rng.uniform(-4.0, 5.0, 9))
            x = x[np.min(np.abs(x[:, None] - eigs), axis=1) > 1e-9]
            got = sturm(diag, off).below(x[None])[0]
            assert np.array_equal(got, x > eigs[0])

    @pytest.mark.parametrize("diag, off", [
        # x = 0: q+ = (1, 0), a zero pivot at row r - 1 = 1
        ([1.0, 1.0, 3.0, 2.0, 2.0], [1.0, 1.0, 0.5, 0.5]),
        # its mirror: q- = (1, 0) from the bottom, a zero pivot at row r + 1
        ([2.0, 2.0, 3.0, 1.0, 1.0], [0.5, 0.5, 1.0, 1.0]),
        # n = 4: the bottom half is the pad and row 3, whose pivot is zero
        ([2.0, 2.0, 3.0, 0.0], [0.5, 0.5, 1.0]),
        # both neighbours of the twist are zero pivots
        ([1.0, 1.0, 3.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
    ], ids=["zero-above-twist", "zero-below-twist", "zero-in-short-half",
            "zeros-both-sides"])
    def test_zero_pivot_next_to_the_twist(self, diag, off):
        eigs = np.linalg.eigvalsh(assemble(diag, off).real)
        assert eigs[0] < -1e-3         # x = 0 lies clearly above the minimum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sturm(diag, off).below(np.zeros((1, 1)))
            value = tridiag.tridiag_min_eig(diag, off)
        assert got[0, 0]
        assert abs(value - eigs[0]) <= 1e-14 * np.linalg.norm(
            assemble(diag, off), 1)

    def test_nan_twist_counts_as_negative(self):
        # at x = 0 the top pivot is +0 and the bottom one -0, so the twist
        # is 0.5 - inf + inf = NaN; neither neighbour counts as negative,
        # yet the matrix has eigenvalues 0 and (0.5 -+ sqrt(8.25)) / 2
        diag, off = [0.0, 0.5, -0.0], [1.0, 1.0]
        eigs = np.linalg.eigvalsh(assemble(diag, off).real)
        assert eigs[0] < -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sturm(diag, off).below(np.zeros((1, 1)))[0, 0]
            value = tridiag.tridiag_min_eig(diag, off)
        assert abs(value - eigs[0]) <= 1e-14 * 2.5

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 33, 64, 65, 130])
    def test_batch_equals_single_without_warnings(self, n):
        # the lengths cover both parities and blocks of rows that end early
        # or exactly at a block's end
        rng = np.random.default_rng(100 + n)
        diag = rng.uniform(-1.0, 2.0, (5, n))
        off = rng.uniform(-1.0, 1.0, (5, n - 1))
        off[1, n // 2 - 1:] = 0.0          # decoupled from the twist on
        diag[2, :] = np.round(diag[2, :])  # shifts meet diagonal entries
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = tridiag.tridiag_min_eig(diag, off)
            single = [tridiag.tridiag_min_eig(d, o) for d, o in zip(diag, off)]
        assert np.array_equal(batch, single)

    @pytest.mark.parametrize("seed", range(6))
    def test_graded_matches_dense_eigensolver(self, seed):
        # entries from 1e-8 to 1e8, graded along the matrix
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        g = 10.0 ** rng.uniform(-8.0, 8.0, n)
        diag = g * rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        off = np.sqrt(g[:-1] * g[1:]) * rng.uniform(-1.0, 1.0, n - 1)
        dense = assemble(diag, off).real
        oracle = np.linalg.eigvalsh(dense)[0]
        got = tridiag.tridiag_min_eig(diag, off)
        eps = np.finfo(float).eps
        assert abs(got - oracle) <= 4.0 * eps * np.linalg.norm(dense, 1)


def relaxed_gram(mu, n):
    """C C^* for C unit lower bidiagonal of order n with subdiagonal -mu:
    diagonal 1 + |mu|^2 with the first entry 1, off-diagonal -conj(mu)."""
    diag = np.full(n, 1.0 + abs(mu) ** 2)
    diag[0] = 1.0
    return diag, np.full(n - 1, -np.conj(mu))


MODULI = [0.0, 1e-3, 0.5, 0.93, 1 - 1e-4, 1 - 1e-7]


class TestRelaxedToeplitzMin:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 64, 1023])
    def test_matches_sturm_and_dense(self, n):
        phases = np.exp(1j * np.linspace(-3.0, 3.0, len(MODULI)))
        mu = np.array(MODULI) * phases
        lam, low, theta, certified = tridiag.relaxed_toeplitz_min(mu, n)
        assert certified.all()
        grams = [relaxed_gram(x, n) for x in mu]
        sturm = tridiag.tridiag_min_eig(np.array([g[0] for g in grams]),
                                        np.array([g[1] for g in grams]))
        for i, (diag, off) in enumerate(grams):
            # the Sturm oracle takes the complex entries; the dense one the
            # real symmetric matrix they are similar to, which is faster
            dense = assemble(diag, -np.abs(off)).real
            oracle = np.linalg.eigvalsh(dense)[0]
            # both oracles are accurate to rounding of the matrix norm
            scale = 1e-14 * np.linalg.norm(dense, 1)
            assert abs(lam[i] - oracle) <= scale
            assert abs(lam[i] - sturm[i]) <= scale
            assert lam[i] * (1 - 1e-12) <= low[i] <= lam[i]
            assert 0.0 < theta[i] < np.pi / (n + 1) * (1 + 1e-15)

    @pytest.mark.parametrize("m", [0.999, 1 - 1e-4, 1 - 1e-7])
    def test_matches_high_precision(self, m):
        mpmath = pytest.importorskip("mpmath")
        n = 1023
        with mpmath.workdps(50):
            mm = mpmath.mpf(m)
            root = mpmath.findroot(
                lambda t: mpmath.sin((n + 1) * t) - mm * mpmath.sin(n * t),
                (mpmath.pi / (2 * n + 1), mpmath.pi / (n + 1)),
                solver="anderson")
            ref = float((1 - mm) ** 2 + 4 * mm * mpmath.sin(root / 2) ** 2)
        lam, low, _, certified = tridiag.relaxed_toeplitz_min(
            np.array([m * np.exp(0.3j)]), n)
        assert certified[0]
        assert abs(lam[0] - ref) <= 1e-13 * ref
        assert low[0] <= ref

    def test_validation(self):
        with pytest.raises(ValueError):
            tridiag.relaxed_toeplitz_min(np.array([1.0]), 4)
        with pytest.raises(ValueError):
            tridiag.relaxed_toeplitz_min(np.array([0.5]), 0)
        with pytest.raises(ValueError):
            tridiag.relaxed_toeplitz_min(np.array([[0.5]]), 4)


def ulps(a, b):
    """Distance of a from b in units of the spacing of doubles at b."""
    return abs(a - b) / np.spacing(abs(b))


def stack_sweeps(monkeypatch):
    """The fan widths of the sweeps of TwistedSturm.below, one per call, as
    (matrices, shifts) pairs."""
    shapes = []
    original = tridiag.TwistedSturm.below

    def counted(self, x):
        shapes.append(x.shape)
        return original(self, x)

    monkeypatch.setattr(tridiag.TwistedSturm, "below", counted)
    return shapes


def random_stack(rng, kind, m, n):
    """(diag, off) of a stack of m matrices of order n."""
    if kind == "random":
        return (rng.uniform(-2.0, 5.0, (m, n)),
                rng.uniform(-1.0, 1.0, (m, n - 1))
                * np.exp(1j * rng.uniform(0, 7, (m, n - 1))))
    if kind == "graded":
        g = 10.0 ** rng.uniform(-8.0, 8.0, (m, n))
        return (g * rng.uniform(0.5, 2.0, (m, n)) * rng.choice([-1.0, 1.0], (m, n)),
                np.sqrt(g[:, :-1] * g[:, 1:]) * rng.uniform(-1.0, 1.0, (m, n - 1)))
    if kind == "gram":
        # C diag(1/scale) C^* with C unit lower bidiagonal
        sub = rng.uniform(0.2, 0.95, (m, n - 1)) \
            * np.exp(1j * rng.uniform(0, 7, (m, n - 1)))
        return tridiag.bidiagonal_gram(sub, rng.uniform(0.1, 2.0, (m, n)))
    return (rng.integers(-3, 4, (m, n)).astype(float),
            rng.integers(-2, 3, (m, n - 1)).astype(float))


class TestStackMin:
    """tridiag_stack_min against the minimum of the per-matrix kernel."""

    @pytest.mark.parametrize("kind", ["random", "graded", "gram", "integer"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_per_matrix_minimum(self, kind, seed):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 20)), int(rng.integers(1, 70))
        diag, off = random_stack(rng, kind, m, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tridiag.tridiag_stack_min(diag, off)
            want = np.min(tridiag.tridiag_min_eig(diag, off))
        assert isinstance(got, float)
        assert ulps(got, want) <= 2

    def test_single_matrix(self):
        diag, off = [2.0, 3.0, 1.5, 4.0], [0.5, -0.25, 1.0]
        assert ulps(tridiag.tridiag_stack_min(diag, off),
                    tridiag.tridiag_min_eig(diag, off)) <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            tridiag.tridiag_stack_min(np.ones((2, 3)), np.ones((2, 3)))
        with pytest.raises(ValueError):
            tridiag.tridiag_stack_min([], [])

    def test_identical_matrices_are_all_kept(self, monkeypatch):
        rng = np.random.default_rng(1)
        diag = np.tile(rng.uniform(1.0, 3.0, 40), (5, 1))
        off = np.tile(rng.uniform(-1.0, 1.0, 39), (5, 1))
        want = np.min(tridiag.tridiag_min_eig(diag, off))
        sweeps = stack_sweeps(monkeypatch)
        got = tridiag.tridiag_stack_min(diag, off)
        assert ulps(got, want) <= 2
        # no bracket lies above another, so no sweep drops a matrix, and
        # each keeps at least SHIFTS shifts
        assert sweeps and all(s[0] == 5 for s in sweeps)
        assert all(s[1] >= tridiag.SHIFTS for s in sweeps)

    def test_tied_minima_are_both_kept(self, monkeypatch):
        rng = np.random.default_rng(2)
        diag = rng.uniform(1.0, 3.0, (6, 30))
        off = rng.uniform(-1.0, 1.0, (6, 29))
        diag[1:] += 1.0                       # minima above row 0's
        diag[4], off[4] = diag[0], off[0]     # row 4 ties with row 0
        want = np.min(tridiag.tridiag_min_eig(diag, off))
        sweeps = stack_sweeps(monkeypatch)
        got = tridiag.tridiag_stack_min(diag, off)
        assert ulps(got, want) <= 2
        assert sweeps[-1][0] == 2
        assert min(s[0] for s in sweeps) == 2

    def test_minimizer_with_the_widest_bracket(self, monkeypatch):
        # row 0 has lambda_min = -2 cos(pi/21) = -1.978 and the start
        # bracket [-2, -1.9]; row 1 the narrow bracket [-1.952, -1.95]
        # inside it, which holds its minimum near -1.951; row 1 is dropped
        # once row 0's upper end falls below -1.952
        n = 20
        diag = np.array([np.zeros(n), np.full(n, -1.95)])
        off = np.array([np.ones(n - 1), np.full(n - 1, 1e-3)])
        lo = tridiag.gershgorin_min(diag, off)
        assert lo[0] < lo[1]
        sweeps = stack_sweeps(monkeypatch)
        got = tridiag.tridiag_stack_min(diag, off)
        want = tridiag.tridiag_min_eig(diag[0], off[0])
        assert ulps(got, want) <= 2
        assert abs(got + 2.0 * math.cos(math.pi / (n + 1))) <= 1e-14
        assert sweeps[0][0] == 2 and sweeps[-1][0] == 1

    def test_crossed_start_bracket_is_kept(self):
        # every row has d_i - r_i = -1, so -1 is the smallest eigenvalue,
        # with the constant vector; the Gershgorin end rounds to -1 and the
        # Rayleigh quotient to one unit below it, so the start bracket is
        # crossed, and a matrix that pruned itself would leave no stack
        diag, off = [-0.9, -0.7, -0.8], [0.1, 0.2]
        _, lo, hi = tridiag._start(np.array([diag]), np.array([off]))
        assert hi[0] < lo[0]
        for stack in ([diag], [diag, np.add(diag, 1.0)]):
            got = tridiag.tridiag_stack_min(np.array(stack),
                                            np.array([off] * len(stack)))
            assert ulps(got, tridiag.tridiag_min_eig(diag, off)) <= 2
            assert abs(got + 1.0) <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("diag, off", [
        ([1.0, 1.0, 3.0, 2.0, 2.0], [1.0, 1.0, 0.5, 0.5]),
        ([2.0, 2.0, 3.0, 1.0, 1.0], [0.5, 0.5, 1.0, 1.0]),
        ([2.0, 2.0, 3.0, 0.0], [0.5, 0.5, 1.0]),
        ([1.0, 1.0, 3.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
        ([0.0, 0.5, -0.0], [1.0, 1.0]),
        ([0.5, 4.0, 0.25, 4.0], [0.5, 0.0, 0.1]),
    ], ids=["zero-above-twist", "zero-below-twist", "zero-in-short-half",
            "zeros-both-sides", "nan-twist", "shift-on-decoupled-diagonal"])
    def test_zero_pivots_and_nan_twist(self, diag, off):
        eigs = np.linalg.eigvalsh(assemble(diag, off).real)
        scale = max(np.linalg.norm(assemble(diag, off), 1), 1.0)
        shifted = np.asarray(diag) + 0.5      # a second matrix, minimum above
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = tridiag.tridiag_stack_min(diag, off)
            stack = tridiag.tridiag_stack_min(np.array([shifted, diag]),
                                              np.array([off, off]))
            want = tridiag.tridiag_min_eig(diag, off)
        assert ulps(single, want) <= 2 and ulps(stack, want) <= 2
        assert abs(single - eigs[0]) <= 1e-14 * scale

    def test_horizon_sweep_takes_at_most_nine_sweeps(self, monkeypatch):
        # the 16 per-mode tridiagonals of the benchmark's horizon-sweep pair
        # (SDIRK2 heat, N_x = 16, dt = 0.002, k = 4) at N_c = 1024; the
        # per-matrix kernel takes 17 sweeps of 16 x 7 shifts on them
        spatial = ops.build_spatial("laplacian-1d-dirichlet", 16, 1.0 / 17)
        pair = ops.make_pair(
            ops.build_stepper(spatial, ops.SchemeSpec("sdirk2", 0.002)),
            ops.build_stepper(spatial, ops.SchemeSpec("sdirk2", 0.008)), 4)
        lam, mu, nc = pair.shared_eig.fine_values, pair.shared_eig.coarse_values, 1024
        spec = toeplitz.TimeDepSpec(np.tile(lam, (4 * (nc - 1), 1)),
                                    np.tile(mu, (nc - 1, 1)), 4)
        diag, off = toeplitz.timedep_tridiagonal(spec)
        assert diag.shape == (16, nc - 1)
        want = np.min(tridiag.tridiag_min_eig(diag, off))
        sweeps = stack_sweeps(monkeypatch)
        got = tridiag.tridiag_stack_min(diag, off)
        assert ulps(got, want) <= 2
        assert len(sweeps) <= 9
        assert all(s[0] * s[1] <= max(tridiag.LANES, 16 * tridiag.SHIFTS)
                   for s in sweeps)
