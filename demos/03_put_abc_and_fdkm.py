"""PDE-discretized (ABC) boundary rows, and why the uniform FD baseline fails.

The 2y put keeps every boundary row as the PDE itself discretized with
one-sided stencils, which tracks the time-dependent s=0 value correctly.
The same experiment run with the uniform-grid central-difference baseline
at the same coarse resolution produces a wildly wrong price: 10 uniform
spot nodes on [0, 1400] leave ~155 currency units between nodes at the
strike, while the stretched RBF-FD grid has ~13 there.

Run:  python demos/03_put_abc_and_fdkm.py
"""

import numpy as np

from fxhhw import (
    AxisSpec,
    ModelParams,
    OptionSpec,
    build_grid,
    correlation_matrix,
    price,
    relative_error,
    uniform_grid,
)

model = ModelParams(
    s0=100.0, v0=0.04, rd0=0.1, rf0=0.1,
    kappa=0.5, vbar=0.1, gamma=0.3,
    lambda_d=0.01, lambda_f=0.05, eta_d=0.007, eta_f=0.012,
    theta_d_params=(0.05, 0.0, 0.0), theta_f_params=(0.05, 0.0, 0.0),
    correlation=correlation_matrix(-0.4, -0.15, -0.15, 0.3, 0.3, 0.25),
)
option = OptionSpec(kind="put", strike=100.0, maturity=2.0)
refs = {"V1": ((100.0, 0.04, 0.024, 0.024), 12.528),
        "V2": ((100.0, 0.04, 0.1, 0.1), 10.594)}

grid = build_grid(
    AxisSpec(10, 0.0, 1400.0, 100.0, 0.1),
    AxisSpec(8, 0.0, 10.0, 0.04, 50.0),
    AxisSpec(6, -1.0, 1.0, 0.1, 500.0),
    AxisSpec(6, -1.0, 1.0, 0.1, 500.0),
)
field = price(model, option, grid, boundary="abc")
print("stretched RBF-FD scheme, ABC boundary rows, grid 10x8x6x6:")
for label, (point, ref) in refs.items():
    val = field.interpolate(point, "cubic")
    print(f"  {label} = {val:8.4f}   ref {ref}   rel err {relative_error(val, ref):.2e}")

h_strike = np.min(np.diff(grid.s_nodes))
print(f"  finest spot increment near the strike: {h_strike:.2f}")

print()
print("uniform central-FD baseline, same sizes, same boundary handling:")
fd_field = price(model, option, uniform_grid((10, 8, 6, 6), 1400.0), boundary="abc",
                 fd_limit=True)
for label, (point, ref) in refs.items():
    val = fd_field.interpolate(point, "cubic")
    print(f"  {label} = {val:8.4f}   ref {ref}   rel err {relative_error(val, ref):.2e}")
print(f"  spot increment everywhere: {fd_field.grid.steps('s')[0]:.2f}")
