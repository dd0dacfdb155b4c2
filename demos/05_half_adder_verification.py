"""Full pipeline on the half-adder: timing -> synthesis -> verification.

Picks the middle of every gate's synthesized K interval, simulates all
four input combinations, and monitors the network truth-table contracts
for the sum and carry outputs.
"""

from gatesynth import (
    Circuit, GateParams, VerifyReport, propagate_timing, synthesize_circuit,
    verify_combos, write_trace_csv,
)

c = Circuit.from_json("circuits/half_adder.json")
tb = propagate_timing(c)

result = synthesize_circuit(c, tb, method="m1")
params = {}
print("synthesized parameters (box midpoints, alpha 5% above its bound):")
for gid, s in sorted(result.gates.items()):
    ks = tuple((lo + hi) / 2 for lo, hi in s.box.intervals.values())
    params[gid] = GateParams(kind=s.kind, n=s.n, alpha=1.05 * s.alpha_min,
                             hill_k=ks)
    print(f"  {gid}: n={s.n:g} alpha={1.05 * s.alpha_min:.4f} "
          f"K={tuple(round(k, 4) for k in ks)}")

# one combination at a time: keep every entry, write one trace to disk
key = "A=high,B=high"
entries = []
for combo, trace, combo_entries in verify_combos(c, params, tb):
    entries += combo_entries
    if combo == key:
        write_trace_csv(trace, "half_adder_high_high.csv")
report = VerifyReport(entries=tuple(entries))

print("\nverification of the 8 network contracts:")
for e in report.entries:
    combo = " ".join(f"{v}={lvl}" for v, lvl in e.combo.items())
    print(f"  {combo:22s} {e.output}={e.expected:5s} "
          f"rho={e.robustness:+.4f} {'PASS' if e.passed else 'FAIL'}")
print(f"\nall pass: {report.all_pass}")
print(f"wrote trace for {key} to half_adder_high_high.csv")
