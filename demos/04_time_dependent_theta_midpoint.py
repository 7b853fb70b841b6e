"""Time-dependent mean-reversion levels: midpoint stepping vs the constant
approximation.

With theta_d(tau) = 0.074 - 0.014 e^{-2.1 tau} and
theta_f(tau) = 1 - 0.5 e^{-0.5 tau} the system matrix changes along
backward time, so the matrix exponential no longer applies directly.  The
explicit modified midpoint scheme marches with a fixed step; replacing the
levels with their tau=1 evaluations restores a constant matrix and the
Krylov path.  Reference: V(T, E, v0, 0.024, 0.024) ~ 3.999 at T = 0.25.

Run:  python demos/04_time_dependent_theta_midpoint.py
"""

import time

from fxhhw import (
    AxisSpec,
    KrylovConfig,
    ModelParams,
    OptionSpec,
    build_grid,
    correlation_matrix,
    price,
    relative_error,
)

model = ModelParams(
    s0=100.0, v0=0.04, rd0=0.1, rf0=0.1,
    kappa=0.5, vbar=0.1, gamma=0.3,
    lambda_d=0.01, lambda_f=0.05, eta_d=0.007, eta_f=0.012,
    theta_d_params=(0.074, 0.014, 2.10), theta_f_params=(1.0, 0.5, 0.5),
    correlation=correlation_matrix(-0.4, -0.15, -0.15, 0.3, 0.3, 0.25),
)
option = OptionSpec(kind="call", strike=100.0, maturity=0.25)
point, ref = (100.0, 0.04, 0.024, 0.024), 3.999

print("levels along backward time:")
for tau in (0.0, 0.125, 0.25, 1.0):
    td, tf = model.levels(tau)
    print(f"  tau={tau:5.3f}: theta_d={td:.5f}  theta_f={tf:.5f}")
td, tf = model.levels(1.0)
print(f"constant approximation (tau = 1): theta_d*={td:.5f}  theta_f*={tf:.5f}")

grid = build_grid(
    AxisSpec(20, 0.0, 1400.0, 100.0, 0.1),
    AxisSpec(14, 0.0, 10.0, 0.04, 50.0),
    AxisSpec(10, -1.0, 1.0, 0.1, 500.0),
    AxisSpec(10, -1.0, 1.0, 0.1, 500.0),
)

print()
print("explicit modified midpoint (step ladder):")
from fxhhw import InstabilityError

for dt in (0.0025, 0.000625, 0.0003125):
    t0 = time.time()
    try:
        field = price(model, option, grid, solver="midpoint", boundary="dirichlet",
                      delta_tau=dt)
    except InstabilityError as err:
        # the explicit scheme has a finite stability interval; too large a
        # step aborts with the growth diagnostic instead of returning junk
        print(f"  dt={dt:9.6f}: aborted ({err})")
        continue
    val = field.interpolate(point, "cubic")
    print(f"  dt={dt:9.6f}: V1={val:.5f}  rel err {relative_error(val, ref):.2e} "
          f" [{time.time() - t0:.1f}s]")

print()
t0 = time.time()
field = price(model, option, grid, solver="krylov", boundary="dirichlet",
              theta_mode="constant_approx", krylov=KrylovConfig(dim=600))
val = field.interpolate(point, "cubic")
print(f"constant-theta Krylov: V1={val:.5f}  rel err {relative_error(val, ref):.2e} "
      f" [{time.time() - t0:.1f}s]")
