"""Hill-kinetics gate models and their timed specification formulas.

Each gate obeys dx/dt = alpha * (drive - x) with a dimensionless drive
in [0, 1].  Under constant inputs the solution is exponential relaxation
toward the drive, which is what makes closed-form synthesis possible.
"""

import numpy as np

from gatesynth import (
    GateKind, GateParams, SimConfig, Thresholds, closed_form, gate_drive,
    simulate_gate, truth_table,
)

th = Thresholds(plus=0.75, minus=0.25, p=0.1)
g = GateParams(GateKind.AND, n=4, alpha=0.9222, hill_k=(0.40, 0.40))

print("AND gate drive at a few input levels:")
for u in [(0.25, 0.25), (0.75, 0.25), (0.75, 0.75), (1.0, 1.0)]:
    print(f"  inputs {u} -> drive {gate_drive(g, u):.3f}")

# constant-input response versus the exact solution
cfg = SimConfig(horizon=16.0, step=0.01, inputs={"u1": 0.75, "u2": 0.75})
trace = simulate_gate(g, cfg)
drive = gate_drive(g, (0.75, 0.75))
exact = closed_form(drive, g.alpha, 0.0, trace.times)
err = np.max(np.abs(trace.values["x"] - exact))
print(f"\nRK4 vs closed form: max |error| = {err:.2e}")
print(f"output crosses theta+ = {th.plus} at "
      f"t = {trace.times[np.argmax(trace.values['x'] >= th.plus)]:.2f} "
      "(before the delta = 4 deadline)")

# the extended truth table attaches a timed STL contract to every row
print("\nAND gate truth-table contracts (delta = 4, lambda = 12):")
ths = {"xA": th, "xB": th, "xC": th}
for row, formula in truth_table(GateKind.AND, ("xA", "xB"), "xC", 4.0, 12.0, ths):
    print(f"  {row.input_levels} -> {row.output_level:5s}  {formula}")
