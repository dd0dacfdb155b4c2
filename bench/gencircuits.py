"""Generated benchmark circuits: an n-bit ripple-carry adder and a NOT chain.

Both are built from AND/OR/NOT only, with XOR written as
(a AND NOT b) OR (NOT a AND b), the half-adder's thresholds on every
variable, and the half-adder's timing (delta = 12, lambda = 4, h = 0.01).
Each builder returns the circuit as a dict in the ``Circuit.from_dict``
format; :func:`validated` checks it with the library's own validation.
"""

from __future__ import annotations

THRESHOLDS = {"plus": 0.75, "minus": 0.25, "p": 0.1}
TIMING = {"delta": 12, "lambda": 4}
SIM = {"h": 0.01}


class _Builder:
    def __init__(self, inputs):
        self.inputs = list(inputs)
        self.gates = []

    def gate(self, kind, *inputs):
        gid = f"g{len(self.gates)}"
        self.gates.append(
            {"id": gid, "kind": kind, "inputs": list(inputs), "output": "x" + gid}
        )
        return "x" + gid

    def xor(self, a, b):
        return self.gate(
            "OR",
            self.gate("AND", a, self.gate("NOT", b)),
            self.gate("AND", self.gate("NOT", a), b),
        )

    def circuit(self, outputs):
        variables = self.inputs + [g["output"] for g in self.gates]
        produced = {g["output"]: g["id"] for g in self.gates}
        return {
            "gates": self.gates,
            "external_inputs": self.inputs,
            "outputs": [{"gate": produced[var], "name": name} for name, var in outputs],
            "thresholds": {v: dict(THRESHOLDS) for v in variables},
            "timing": dict(TIMING),
            "sim": dict(SIM),
        }


def ripple_carry_adder(bits: int) -> dict:
    """n-bit adder: a half adder for bit 0, full adders above (6 + 13(n-1) gates)."""
    inputs = [f"{ab}{i}" for i in range(bits) for ab in "ab"]
    b = _Builder(inputs)
    outputs = [("s0", b.xor("a0", "b0"))]
    carry = b.gate("AND", "a0", "b0")
    for i in range(1, bits):
        p = b.xor(f"a{i}", f"b{i}")
        outputs.append((f"s{i}", b.xor(p, carry)))
        carry = b.gate("OR", b.gate("AND", f"a{i}", f"b{i}"), b.gate("AND", carry, p))
    outputs.append(("cout", carry))
    return b.circuit(outputs)


def not_chain(stages: int) -> dict:
    """A single input through ``stages`` inverters in series."""
    b = _Builder(["a"])
    var = "a"
    for _ in range(stages):
        var = b.gate("NOT", var)
    return b.circuit([("out", var)])


def shuffled(data: dict, rng) -> dict:
    """Copy of ``data`` listing its gates in a seed-chosen order."""
    gates = list(data["gates"])
    order = rng.permutation(len(gates))
    return {**data, "gates": [gates[i] for i in order]}


def validated(data: dict):
    """``Circuit`` built from ``data``; raises if validation or timing fails."""
    from gatesynth.circuit import Circuit, propagate_timing

    c = Circuit.from_dict(data)
    propagate_timing(c)  # every gate must lie on an input-to-output path
    return c
