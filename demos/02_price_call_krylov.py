"""Price a 1y European FX call with the Krylov exponential integrator.

Constant mean-reversion levels make the assembled operator
time-independent, so the full backward evolution is a single action of the
matrix exponential on the payoff vector.  Reference values for this
parameter set: V(T, E, v0, 0.024, 0.024) ~ 8.420 and
V(T, E, v0, 0.1, 0.1) ~ 7.888.

Run:  python demos/02_price_call_krylov.py  [--fine]
"""

import sys
import time

from fxhhw import (
    AxisSpec,
    KrylovConfig,
    ModelParams,
    OptionSpec,
    build_grid,
    correlation_matrix,
    feller_check,
    price,
    relative_error,
)

model = ModelParams(
    s0=100.0, v0=0.04, rd0=0.1, rf0=0.1,
    kappa=0.5, vbar=0.1, gamma=0.3,
    lambda_d=0.01, lambda_f=0.05, eta_d=0.007, eta_f=0.012,
    theta_d_params=(0.05, 0.0, 0.0), theta_f_params=(0.05, 0.0, 0.0),
    correlation=correlation_matrix(-0.4, -0.15, -0.15, 0.3, 0.3, 0.25),
)
option = OptionSpec(kind="call", strike=100.0, maturity=1.0)
print("Feller:", feller_check(model))

m = (28, 20, 14, 14) if "--fine" in sys.argv else (10, 8, 6, 6)
grid = build_grid(
    AxisSpec(m[0], 0.0, 14 * option.strike, option.strike, 0.1),
    AxisSpec(m[1], 0.0, 10.0, model.v0, 50.0),
    AxisSpec(m[2], -1.0, 1.0, model.rd0, 500.0),
    AxisSpec(m[3], -1.0, 1.0, model.rf0, 500.0),
)
print(f"grid {m}: {grid.n} nodes")

t0 = time.time()
field = price(model, option, grid, solver="krylov", boundary="dirichlet",
              krylov=KrylovConfig(dim=700, tol=1e-9))
print(f"solved in {time.time() - t0:.1f}s")

for point, ref in [((100.0, 0.04, 0.024, 0.024), 8.420),
                   ((100.0, 0.04, 0.1, 0.1), 7.888)]:
    val = field.interpolate(point, method="cubic")
    print(f"V{point} = {val:.4f}   reference {ref}   "
          f"relative error {relative_error(val, ref):.2e}")

# a strip of prices across spot at the market state
print()
print("  spot   price")
for s in (60.0, 80.0, 100.0, 120.0, 150.0, 200.0):
    print(f"{s:6.0f}  {field.interpolate((s, 0.04, 0.1, 0.1), 'cubic'):7.3f}")
