"""Closed-form RBF-FD weights and the stretched grids they live on.

Walks through the three building blocks of the spatial discretization:
the Gaussian-kernel stencil weights, their wide-shape classical limits,
and the sinh-stretched axes that concentrate nodes where the solution
has structure (strike, spot variance, spot rates).

Run:  python demos/01_rbf_weights_and_grids.py
"""

import numpy as np

from fxhhw import AxisSpec, build_grid, shape_parameters
from fxhhw.stencils import collocation_weights_oracle, first_weight_rows, second_weight_rows

np.set_printoptions(precision=6, suppress=True)

print("=== three-node first-derivative weights ===")
h, w, c = 0.1, 1.5, 2.0
offsets = np.array([-h, 0.0, w * h])
closed = first_weight_rows(h, w, c)
print("stencil offsets:", offsets)
print("closed-form weights:", closed)

oracle = collocation_weights_oracle(offsets, c, order=1)
print("dense collocation solve:", oracle)
gap = np.max(np.abs(closed - oracle)) / np.max(np.abs(oracle))
print(f"relative gap {gap:.2e}  (~K*(h/c)^2 with h/c = {h / c})")

print()
print("the gap closes quadratically as the kernel widens:")
for c in (2.0, 8.0, 32.0, 128.0):
    wc = first_weight_rows(h, w, c)
    o = collocation_weights_oracle(offsets, c, 1)
    print(f"  c = {c:6.1f}: gap {np.max(np.abs(wc - o)) / np.max(np.abs(o)):.2e}")

print()
print("wide-shape limit = classical non-uniform FD weights (c=None):")
print("  c -> inf :", first_weight_rows(h, w, 1e9))
print("  classical:", first_weight_rows(h, w))

print()
print("=== four-node second-derivative weights ===")
h, wm, wp = 0.1, 2.0, 1.0
offsets2 = np.array([-wm * h, -h, 0.0, wp * h])
w2 = second_weight_rows(h, wm, wp, 5.0)
print("offsets:", offsets2)
print("weights:", w2)
print("applied to x^2 ->", w2 @ offsets2**2, "(exact second derivative: 2)")
print("applied to 1   ->", w2 @ np.ones(4), "(constants annihilated identically)")

print()
print("=== sinh-stretched experiment grid ===")
grid = build_grid(
    AxisSpec(m=8, lower=0.0, upper=1400.0, focus=100.0, xi=0.1),
    AxisSpec(m=6, lower=0.0, upper=10.0, focus=0.04, xi=50.0),
    AxisSpec(m=6, lower=-1.0, upper=1.0, focus=0.1, xi=500.0),
    AxisSpec(m=6, lower=-1.0, upper=1.0, focus=0.1, xi=500.0),
)
print("spot axis      :", np.round(grid.s_nodes, 2))
print("variance axis  :", np.round(grid.v_nodes, 4))
print("domestic rates :", np.round(grid.rd_nodes, 4))
print("shape parameters:", "  ".join(f"c_{axis}={c:.2f}"
                                     for axis, c in shape_parameters(grid).items()))
print("(c_s ~ 1834.59 and c_rd ~ 3.09 on this 8x6x6x6 box)")
