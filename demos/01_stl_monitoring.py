"""Quantitative STL monitoring on sampled traces.

Parses formulas from text, computes robustness on a few hand-made
signals, and shows that the array-based monitor and the naive reference
agree exactly.
"""

import numpy as np

from gatesynth import Signal, parse, robustness, robustness_naive

# a ramp x(t) = t sampled at 0.1 over [0, 3]
times = np.arange(0, 3.001, 0.1)
ramp = Signal(times=times, values={"x": times.copy()})

for text in [
    "x >= 0.5",
    "G[0,2](x >= 0.5)",
    "F[0,1] G[0,1](x >= 0.5)",
    "x <= 0.5 U[0,2] x >= 2.0",
]:
    f = parse(text)
    rho = robustness(f, ramp)
    print(f"{text:32s} rho = {rho:+.3f}  satisfied = {rho >= 0}")

# differential check against the O(n*w) reference monitor
f = parse("F[0,1] (G[0,0.5] (x >= 0.4) & x <= 2.5)")
fast, naive = robustness(f, ramp), robustness_naive(f, ramp)
print(f"\nfast monitor {fast:.6f} vs naive reference {naive:.6f} "
      f"(difference {abs(fast - naive):.1e})")

# the wiring-compatibility implication is valid by construction:
# a signal high for lam+delta starting within delta is high on the
# shifted window of length lam
wiring = parse("F[0,4] G[0,16] (x >= 0.75) -> G[4,16] (x >= 0.75)")
rng = np.random.default_rng(7)
worst = min(
    robustness(wiring, Signal(times=np.arange(0, 20.01, 0.1),
                              values={"x": rng.uniform(0, 1, 201)}))
    for _ in range(200)
)
print(f"wiring formula on 200 random signals: min robustness {worst:.3f} (>= 0)")
