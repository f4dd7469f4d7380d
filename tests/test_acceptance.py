"""End-to-end acceptance checks.

Each test prints one `criterion-NN <name>: PASS/FAIL` line with its measured
margin before asserting, so a bare run still yields a scoreboard.
"""

import math
import time

import numpy as np
import pytest

from helpers import heat_pair, random_contraction, raw_pair
from pintbounds import cli, harness, operators as ops, spacetime as st
from pintbounds import tap
from pintbounds import toeplitz as tp


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"criterion-{num:02d} {name}: {status}  {detail}")
    return passed


def mp_residuals(a, ai):
    na = max(np.linalg.norm(a), 1e-300)
    ni = max(np.linalg.norm(ai), 1e-300)
    return max(np.linalg.norm(a @ ai @ a - a) / na,
               np.linalg.norm(ai @ a @ ai - ai) / ni,
               np.linalg.norm((a @ ai).conj().T - a @ ai),
               np.linalg.norm((ai @ a).conj().T - ai @ a))


def stable_block(rng, d, rho=0.9):
    m = 0.5 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return m / max(1.0, np.max(np.abs(np.linalg.eigvals(m))) / rho)


def shifted_block(rng, d):
    while True:
        m = stable_block(rng, d) + np.eye(d)
        if np.linalg.cond(m) <= 10.0:
            return m


def test_criterion_01_moore_penrose_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))        # blocks up to 3x3
        n = int(rng.integers(4, 13))       # n <= 12
        p = int(rng.integers(1, 4))        # p <= 3
        f, g, h = stable_block(rng, d), shifted_block(rng, d), shifted_block(rng, d)
        spec = tp.PinvSpec(f, g, h, n)
        for shape in ("A0", "A1"):
            worst = max(worst, mp_residuals(tp.assemble_a0(spec, shape),
                                            tp.pinv_a0(spec, shape)))
        if p < n / 2:
            sp = tp.PinvSpec(f, g, h, n, p)
            worst = max(worst, mp_residuals(
                np.linalg.matrix_power(tp.assemble_a0(sp), p), tp.pinv_power(sp)))
        nc, k = int(rng.integers(4, 9)), int(rng.integers(1, 4))
        shape_f, shape_c = (k * (nc - 1), 2), (nc - 1, 2)
        fv = (0.2 + 0.75 * rng.random(shape_f)) * \
            np.exp(2j * np.pi * rng.random(shape_f))
        cv = (0.2 + 0.7 * rng.random(shape_c)) * \
            np.exp(2j * np.pi * rng.random(shape_c))
        td = tp.TimeDepSpec(fv, cv, k)
        for i in range(2):
            worst = max(worst, mp_residuals(tp.assemble_timedep(td, i),
                                            tp.timedep_pinv(td, i)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    assert report(1, "moore-penrose", ok,
                  f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_norm_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(20):
        nx = int(rng.integers(1, 5))                   # N_x <= 4
        nc = int(rng.choice([8, 16, 32]))              # N_c <= 32
        k = int(rng.choice([2, 3]))
        pair = raw_pair(random_contraction(rng, nx),
                        random_contraction(rng, nx), k)
        sys = st.SpaceTimeSystem(pair, st.GridSpec(k * (nc - 1) + 1, k))
        props = st.build_propagators(sys)
        perm = sys.permutation
        ap = sys.full_matrix()[np.ix_(perm, perm)]
        for r, e in ((props.r_f, props.e_f), (props.r_fcf, props.e_fcf)):
            for p in (1, 2, 3):
                nr = st.operator_norm(np.linalg.matrix_power(r, p), "l2")
                ne = st.operator_norm(np.linalg.matrix_power(e, p),
                                      "AstarA", a=ap)
                worst = max(worst, abs(nr - ne) / max(nr, 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    assert report(2, "norm-identity", ok,
                  f"worst relative gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_schur_exactness():
    rng = np.random.default_rng(6)
    worst = 0.0
    for k in (2, 3, 4, 8):
        nx = int(rng.integers(1, 5))
        phi = random_contraction(rng, nx, norm_bound=0.9)   # ||Phi|| < 1
        pair = raw_pair(phi, random_contraction(rng, nx), k)
        grid = st.GridSpec(k * 4 + 1, k)
        sys = st.SpaceTimeSystem(pair, grid)
        closed = st.coarse_bidiagonal(pair, grid)
        diff = np.max(np.abs(st.schur_complement(sys) - closed))
        worst = max(worst, diff / max(np.max(np.abs(closed)), 1e-300))
    ok = worst <= 1e-13
    assert report(3, "schur-exactness", ok, f"worst entry gap {worst:.2e}")


def test_criterion_04_ideal_transfer_bound():
    rng = np.random.default_rng(7)
    margin = math.inf
    cases = []
    for k in (2, 3, 4, 8):
        nx = int(rng.integers(1, 5))
        cases.append((raw_pair(random_contraction(rng, nx, 0.9),
                               random_contraction(rng, nx), k), k))
    for k in (2, 4):
        cases.append((heat_pair(nx=6, dt=0.02, k=k), k))
    for pair, k in cases:
        sys = st.SpaceTimeSystem(pair, st.GridSpec(k * 4 + 1, k))
        r_ideal, p_ideal = st.ideal_transfer(sys)
        for m in (r_ideal, p_ideal):
            margin = min(margin, math.sqrt(k) - np.linalg.norm(m, 2))
    ok = margin > 0
    assert report(4, "ideal-transfer-bound", ok,
                  f"min margin below sqrt(k): {margin:.3e}")


def test_criterion_05_appendix_bracket():
    t0 = time.perf_counter()
    cases, violations = 0, 0
    margin = math.inf
    for mu in np.arange(0.05, 1.0, 0.1):
        for n in (10, 20, 50, 100, 200):
            v, lo, hi = tp.tridiag_perturbed_min_eig(float(mu), n)
            cases += 1
            if not lo <= v <= hi:
                violations += 1
            margin = min(margin, v - lo, hi - v)
    elapsed = time.perf_counter() - t0
    ok = cases == 50 and violations == 0 and elapsed < 10.0
    assert report(5, "appendix-bracket", ok,
                  f"{cases} cases, {violations} violations, "
                  f"min margin {margin:.2e}, {elapsed:.2f}s")


def test_criterion_06_diagonalizable_tightness():
    t0 = time.perf_counter()
    ok = True
    details = []
    for k in (2, 4, 8):
        pair = heat_pair(nx=16, dt=0.001, k=k)
        e = pair.shared_eig
        for nc in (32, 64):
            grid = st.GridSpec(k * (nc - 1) + 1, k)
            db = tp.diag_bounds(e.fine_values, e.coarse_values, k, nc)
            cgc_res, _, _ = st.coarse_defect_blocks(pair, grid)
            dense = float(np.linalg.norm(cgc_res, 2))
            inside = db.lower <= dense <= db.upper
            mu = abs(e.coarse_values[db.index])
            rel_width = (db.upper - db.lower) / db.lower
            width_ok = rel_width <= 2 * np.pi**2 / (6 * (1 - mu) ** 2 * nc**2)
            cfg = harness.ExperimentConfig.from_dict({
                "problem": {"kind": "laplacian-1d-dirichlet", "n": 16,
                            "h": 1.0 / 17},
                "fine": {"scheme": "backward-euler", "dt": 0.001},
                "coarse": "rediscretized", "k": k, "n_time": grid.n_time,
                "relaxations": ["F"], "norms": ["AstarA"], "iterations": 2,
                "initial_error": "worst-case", "seed": 3,
            })
            rec = harness.run_experiment(cfg)
            first = next(r["ratio"] for r in rec.trace
                         if r["norm"] == "AstarA" and r["iteration"] == 1)
            ratio_ok = first >= 0.95 * dense
            ok = ok and inside and width_ok and ratio_ok
            details.append(f"k={k},N_c={nc}:{'ok' if inside and width_ok and ratio_ok else 'BAD'}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert report(6, "diagonalizable-tightness", ok,
                  f"{' '.join(details)}, {elapsed:.1f}s")


def test_criterion_07_tap_teap_equivalence():
    worst = 0.0
    cases = [(4, 0.02, 2, "backward-euler", None),
             (5, 0.03, 2, "backward-euler", None),
             (6, 0.01, 4, "backward-euler", None),
             (3, 0.05, 2, "backward-euler", None),
             (4, 0.02, 3, "backward-euler", None),
             (5, 0.02, 2, "theta", 0.6),
             (4, 0.04, 2, "theta", 0.8),
             (6, 0.02, 2, "sdirk2", None),
             (3, 0.03, 4, "sdirk2", None),
             (4, 0.01, 2, "theta", 1.0)]
    assert len(cases) == 10
    for nx, dt, k, scheme, theta in cases:
        full = heat_pair(nx=nx, dt=dt, k=k, scheme=scheme, theta=theta)
        bare = harness._dense_twin(full)
        assert full.normal
        assert bare.commuting
        for relaxation in ("F", "FCF"):
            teap = tap.teap_constant(full, relaxation).value
            gen = tap.tap_constant(bare, relaxation).value
            worst = max(worst, abs(gen - teap) / max(teap, 1e-300))
    ok = worst <= 1e-8
    assert report(7, "tap-teap-equivalence", ok,
                  f"worst relative gap {worst:.2e}")


def test_criterion_08_rk4_defect_identity():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(5):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        dt = 0.5
        m = m / (dt * np.linalg.norm(m, 2))
        L = ops.SpatialOperator(m, "r")
        phi = ops.build_stepper(L, ops.SchemeSpec("rk4", dt)).matrix
        psi = ops.build_stepper(L, ops.SchemeSpec("rk4", 2 * dt)).matrix
        direct = psi - phi @ phi
        worst = max(worst, np.linalg.norm(ops.rk4_defect(L, dt) - direct)
                    / np.linalg.norm(direct))
    identity_ok = worst <= 1e-12

    # Targets are the roots of the defect cubic 1 + (5/18)z + (1/18)z^2 +
    # (1/144)z^3 to 3-4 significant digits.  By Vieta's formulas they must
    # sum to -8, have pairwise-product sum 40 and product -144.
    roots = np.roots([1 / 144, 1 / 18, 5 / 18, 1])
    targets = [-5.49, -1.254 + 4.965j, -1.254 - 4.965j]
    gaps = [min(abs(r - t) / abs(t) for r in roots) for t in targets]
    roots_ok = all(g <= 0.01 for g in gaps)
    t1, t2, t3 = targets
    vieta = (t1 + t2 + t3, t1 * t2 + t1 * t3 + t2 * t3, t1 * t2 * t3)
    vieta_ok = all(abs(v - e) <= 0.01 * abs(e)
                   for v, e in zip(vieta, (-8, 40, -144)))

    # The program's defect, and the stepper difference it stands for, must
    # vanish at each target relative to the leading factor |z|^5/4.
    residual = 0.0
    for z in targets:
        L = ops.SpatialOperator(np.array([[z / dt]]), "r")
        phi = ops.build_stepper(L, ops.SchemeSpec("rk4", dt)).matrix
        psi = ops.build_stepper(L, ops.SchemeSpec("rk4", 2 * dt)).matrix
        scale = abs(z) ** 5 / 4
        residual = max(residual,
                       abs(ops.rk4_defect(L, dt)[0, 0]) / scale,
                       abs((psi - phi @ phi)[0, 0]) / scale)
    residual_ok = residual <= 1e-2

    ok = identity_ok and roots_ok and vieta_ok and residual_ok
    report(8, "rk4-defect-identity", ok,
           f"identity gap {worst:.2e}; computed roots "
           f"{np.round(np.sort_complex(roots), 4)}, worst root gap "
           f"{max(gaps):.1e} vs targets {targets}; "
           f"defect at targets {residual:.1e}")
    assert identity_ok
    assert roots_ok
    assert vieta_ok
    assert residual_ok


def test_criterion_09_symbol_bounds():
    ok = True
    worst_excess = -math.inf
    pairs = [heat_pair(nx=3, dt=0.05, k=2), heat_pair(nx=4, dt=0.02, k=4),
             raw_pair([[0.7]], [[0.55]], 2)]
    for pair in pairs:
        for nc in (8, 16, 32, 64):
            grid = st.GridSpec(pair.k * (nc - 1) + 1, pair.k)
            cgc_res, cgc_err, relax = st.coarse_defect_blocks(pair, grid)
            assembled = {("F", "residual"): cgc_res,
                         ("FCF", "residual"): cgc_res @ relax,
                         ("F", "error"): cgc_err,
                         ("FCF", "error"): cgc_err @ relax}
            for (relaxation, side), block in assembled.items():
                bound = tp.symbol_max_sv(tp.build_symbol(
                    pair, grid, relaxation, side)).upper
                excess = np.linalg.norm(block, 2) - bound
                worst_excess = max(worst_excess, excess)
                ok = ok and excess <= 1e-10

    gap_ok = True
    for mu in (0.3, 0.5, 0.8):
        sym_min = tp.symbol_min_eig(mu, 1.0, 1).value
        prev = math.inf
        for n in (25, 50, 100, 200):
            gap = float(np.min(tp.tridiag_toeplitz_eigs(mu, n))) - sym_min
            gap_ok = gap_ok and 0 < gap <= np.pi**2 * mu / n**2 and gap < prev
            prev = gap
    ok = ok and gap_ok
    assert report(9, "symbol-bounds", ok,
                  f"worst norm excess {worst_excess:.2e}, "
                  f"eig gap monotone+O(1/n^2): {gap_ok}")


def test_criterion_10_timedep_exactness():
    rng = np.random.default_rng(10)
    worst = 0.0
    gersh_ok = True
    for _ in range(20):
        nc, k, modes = 16, int(rng.integers(1, 4)), int(rng.integers(1, 4))
        shape_f, shape_c = (k * (nc - 1), modes), (nc - 1, modes)
        fv = (0.2 + 0.75 * rng.random(shape_f)) * \
            np.exp(2j * np.pi * rng.random(shape_f))
        cv = (0.2 + 0.7 * rng.random(shape_c)) * \
            np.exp(2j * np.pi * rng.random(shape_c))
        spec = tp.TimeDepSpec(fv, cv, k)
        exact, bound = tp.timedep_exact_norm(spec)
        dense = max(np.linalg.norm(tp.assemble_timedep(spec, i), 2)
                    for i in range(modes))
        worst = max(worst, abs(exact - dense) / dense)
        gersh_ok = gersh_ok and bound >= exact * (1 - 1e-10)
    ok = worst <= 1e-8 and gersh_ok
    assert report(10, "timedep-exactness", ok,
                  f"worst relative gap {worst:.2e}, Gershgorin dominates: "
                  f"{gersh_ok}")


def test_criterion_11_sandwich_and_verify():
    violations = []
    for cfg in harness._default_configs():
        violations += harness.run_experiment(cfg).violations
    exit_code = cli.main(["verify"])
    ok = not violations and exit_code == 0
    assert report(11, "sandwich-and-verify", ok,
                  f"{len(violations)} bound violations, verify exit {exit_code}")
