"""Analytic parameter regions for the three gate classes.

Every kind's Hill-coefficient bound comes from ``n_bound``, its Method 1
per-axis K intervals (a box) from ``k_box``, and the exact curve-bounded
Method 2 region of AND and OR from ``CurvedRegion``, which strictly
contains the Method 1 box.  Each needs n above its closed-form bound and
the degradation rate alpha above a rate bound tied to the response-time
budget (``alpha_bound``).
"""

import numpy as np

from gatesynth import (
    CurvedRegion, GateKind, NumericGrid, Thresholds, alpha_bound,
    export_region_csv, k_box, n_bound, sample_region,
)

th = Thresholds(plus=0.75, minus=0.25, p=0.1)

print("Hill-coefficient lower bounds (thresholds 3/4 and 1/4, p = 0.1):")
AND, NOT, OR = GateKind.AND, GateKind.NOT, GateKind.OR
print(f"  AND  method 1: {n_bound(AND, (th, th, th), 'm1'):.4f}")
print(f"  AND  method 2: {n_bound(AND, (th, th, th), 'm2'):.4f}")
print(f"  NOT:           {n_bound(NOT, (th, th), 'm1'):.4f}")
print(f"  OR   method 1: {n_bound(OR, (th, th, th), 'm1'):.4f}")

print("\nK intervals (method 1):")
print(f"  AND at n=4: {k_box(AND, (th, th, th), 4).intervals['K1']}")
print(f"  NOT at n=3: {k_box(NOT, (th, th), 3).intervals['K1']}")
print(f"  OR  at n=4: {k_box(OR, (th, th, th), 4).intervals['K1']}")

print("\ndegradation-rate bounds:")
print(f"  delta = 12: alpha >= {alpha_bound(th, 12):.4f}")
print(f"  delta = 4:  alpha >= {alpha_bound(th, 4):.4f}")

# method 2 membership is an exact finite inequality check; sample it on
# a grid and export for plotting
region = CurvedRegion(AND, (th, th, th), 4)
grid = NumericGrid(axes={"K1": (0.02, 1.0, 120), "K2": (0.02, 1.0, 120)})
pts, inside, binding = sample_region(region, grid)
export_region_csv("and_region_m2.csv", pts, inside, binding)
frac = inside.mean()
box = k_box(AND, (th, th, th), 4)
box_frac = np.mean([
    box.contains({"K1": p[0], "K2": p[1]}) for p in pts
])
print(f"\nmethod 2 region covers {frac:.2%} of the grid "
      f"(method 1 box: {box_frac:.2%}); wrote and_region_m2.csv")
