"""Greeks surfaces, Monte Carlo cross-validation, and convergence rates.

Run:  python demos/05_greeks_mc_and_convergence.py
"""

import time

import numpy as np

from fxhhw import (
    AxisSpec,
    KrylovConfig,
    McConfig,
    ModelParams,
    OptionSpec,
    build_grid,
    greeks,
    pathwise_delta,
    price,
    roc,
    simulate_price,
)

model = ModelParams(
    s0=100.0, v0=0.04, rd0=0.1, rf0=0.1,
    kappa=0.5, vbar=0.1, gamma=0.3,
    lambda_d=0.01, lambda_f=0.05, eta_d=0.007, eta_f=0.012,
    theta_d_params=(0.05, 0.0, 0.0), theta_f_params=(0.05, 0.0, 0.0),
    correlation=np.array([
        [1.0, -0.4, -0.15, -0.15],
        [-0.4, 1.0, 0.3, 0.3],
        [-0.15, 0.3, 1.0, 0.25],
        [-0.15, 0.3, 0.25, 1.0],
    ]),
)
option = OptionSpec(kind="call", strike=100.0, maturity=1.0)

def make_grid(m1, m2=10, m3=8, m4=8):
    return build_grid(
        AxisSpec(m1, 0.0, 1400.0, 100.0, 0.1),
        AxisSpec(m2, 0.0, 10.0, 0.04, 50.0),
        AxisSpec(m3, -1.0, 1.0, 0.1, 500.0),
        AxisSpec(m4, -1.0, 1.0, 0.1, 500.0),
    )

print("=== Greeks slice at (r_d, r_f) = (0.1, 0.1) ===")
field = price(model, option, make_grid(20, 14), solver="krylov",
              boundary="dirichlet", krylov=KrylovConfig(dim=700))
gs = greeks(field, rd=0.1, rf=0.1)
iv = int(np.argmin(np.abs(field.grid.v_nodes - 0.04)))
print("  spot   value   delta    vega     vanna")
for i_s, s in enumerate(field.grid.s_nodes):
    if 40 <= s <= 320:
        print(f"{s:7.1f} {gs.value[iv, i_s]:7.3f} {gs.delta[iv, i_s]:7.4f} "
              f"{gs.vega[iv, i_s]:8.3f} {gs.vanna[iv, i_s]:8.4f}")

print()
print("=== Monte Carlo cross-check (full-truncation Euler) ===")
pde_v2 = field.interpolate((100.0, 0.04, 0.1, 0.1), "cubic")
t0 = time.time()
est = simulate_price(model, option, McConfig(paths=200_000, steps_per_year=200, seed=1))
print(f"PDE {pde_v2:.4f} vs MC {est.price:.4f} +/- {est.stderr:.4f} "
      f"({time.time() - t0:.0f}s, {est.paths} paths)")
dlt = pathwise_delta(model, option, McConfig(paths=200_000, steps_per_year=200, seed=2))
print(f"MC pathwise delta at the money: {dlt.price:.4f} +/- {dlt.stderr:.4f} "
      f"(PDE slice: {np.interp(100.0, field.grid.s_nodes, gs.delta[iv]):.4f})")

print()
print("=== spot-direction rate of convergence ===")
vals = []
for m1 in (8, 16, 32, 64):
    f = price(model, option, make_grid(m1, 8, 6, 6), solver="krylov",
              boundary="dirichlet",
              krylov=KrylovConfig(dim=1200, tol=1e-11))
    vals.append(f.interpolate((100.0, 0.04, 0.1, 0.1), "cubic"))
    print(f"  m1={m1:4d}: V2={vals[-1]:.6f}")
for k in range(2, len(vals)):
    print(f"  ROC ({vals[k-2]:.5f}, {vals[k-1]:.5f}, {vals[k]:.5f}) -> "
          f"{roc(*vals[k-2:k+1]):.2f}")
