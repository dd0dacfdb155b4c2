"""Acyclic gate circuits: wiring, longest paths, timing budgets, wiring checks.

Network timing works on two quantities per gate M:

* ``delta(M) = delta / (lf(M) + lb(M) + 1)`` where ``lf`` is the longest
  edge-count path from M to an output gate and ``lb`` the longest path
  backwards from M to a gate receiving an external input.  Any
  input-to-output path then accumulates at most the network delta.
* ``lam(M)``: how long M's output must persist.  Output gates owe the
  network duration; upstream gates must additionally cover each
  consumer's own response time, giving the reverse-topological recursion
  ``lam(M) = max over consumers M' of (lam(M') + delta(M'))``.

External inputs must be held for ``lam(entry) + delta(entry)`` time units,
which works out to ``lambda + delta`` for every entry gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .formulas import Atom, Eventually, Formula, Globally, Implies
from .gates import GateKind, Thresholds, _check_finite_positive

__all__ = [
    "Gate", "Circuit", "TimingBudget", "WiringCheck", "GraphError", "CycleError",
    "longest_paths", "propagate_timing", "wiring_formulas",
]


class GraphError(ValueError):
    """Malformed wiring: a cycle, an undefined variable, a variable that
    two gates write, a gate output that shadows an external input, a
    repeated external input, or a gate off every input-to-output path."""


class CycleError(GraphError):
    """The gate graph contains a cycle."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("circuit contains a cycle: " + " -> ".join(self.cycle))


@dataclass(frozen=True)
class Gate:
    id: str
    kind: GateKind
    inputs: tuple[str, ...]  # variable names (external or other gates' outputs)
    output: str

    def __post_init__(self):
        object.__setattr__(self, "kind", GateKind(self.kind))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) != self.kind.arity:
            raise ValueError(
                f"gate {self.id!r}: {self.kind.value} takes {self.kind.arity} "
                f"input(s), got {len(self.inputs)}"
            )


@dataclass(frozen=True)
class Circuit:
    gates: dict[str, Gate]
    external_inputs: tuple[str, ...]
    outputs: tuple[tuple[str, str], ...]  # (gate id, network output name)
    thresholds: dict[str, Thresholds]
    delta: float
    lam: float
    sim: dict = field(default_factory=dict, compare=False)
    # gate output variable -> id of the gate that writes it
    _producer: dict[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "external_inputs", tuple(self.external_inputs))
        object.__setattr__(self, "outputs", tuple((g, n) for g, n in self.outputs))
        _check_finite_positive("network delta", self.delta)
        _check_finite_positive("network lambda", self.lam)
        if len(set(self.external_inputs)) != len(self.external_inputs):
            raise GraphError(f"repeated external input: {list(self.external_inputs)}")
        produced: dict[str, str] = {}
        for gid, g in self.gates.items():
            other = produced.setdefault(g.output, gid)
            if other != gid:
                raise GraphError(f"variable {g.output!r} is written by gates {other!r} and {gid!r}")
        object.__setattr__(self, "_producer", produced)
        dup = set(produced) & set(self.external_inputs)
        if dup:
            raise GraphError(f"variables produced by gates shadow external inputs: {sorted(dup)}")
        for gid, g in self.gates.items():
            for v in g.inputs:
                if v not in produced and v not in self.external_inputs:
                    raise GraphError(f"gate {gid!r} reads undefined variable {v!r}")
        for gid, _name in self.outputs:
            if gid not in self.gates:
                raise ValueError(f"network output references unknown gate {gid!r}")
        if not self.outputs:
            raise ValueError("circuit needs at least one network output")
        for var in self.variables():
            if var not in self.thresholds:
                raise ValueError(f"no thresholds given for variable {var!r}")
        self.topo_order()  # raises CycleError on cyclic wiring

    def variables(self) -> list[str]:
        return list(self.external_inputs) + [g.output for g in self.gates.values()]

    def edges(self) -> list[tuple[str, str]]:
        """Internal wires as (producer gate id, consumer gate id)."""
        produced = self._producer
        return [(produced[v], gid) for gid, g in self.gates.items()
                for v in g.inputs if v in produced]

    def output_gate_ids(self) -> set[str]:
        return {gid for gid, _ in self.outputs}

    def entry_gate_ids(self) -> set[str]:
        ext = set(self.external_inputs)
        return {gid for gid, g in self.gates.items() if ext & set(g.inputs)}

    def topo_order(self) -> list[str]:
        """Gate ids in topological order (inputs before consumers)."""
        succ: dict[str, list[str]] = {gid: [] for gid in self.gates}
        indeg = {gid: 0 for gid in self.gates}
        for a, b in self.edges():
            succ[a].append(b)
            indeg[b] += 1
        ready = sorted(gid for gid, d in indeg.items() if d == 0)
        order = []
        while ready:
            gid = ready.pop(0)
            order.append(gid)
            for nxt in succ[gid]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    # insertion sort keeps the traversal deterministic
                    ready.append(nxt)
                    ready.sort()
        if len(order) < len(self.gates):
            raise CycleError(self._find_cycle(succ, set(self.gates) - set(order)))
        return order

    @staticmethod
    def _find_cycle(succ, remaining):
        start = sorted(remaining)[0]
        seen: list[str] = []
        node = start
        while node not in seen:
            seen.append(node)
            node = next(n for n in succ[node] if n in remaining)
        i = seen.index(node)
        return seen[i:] + [node]

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        gates = {
            g["id"]: Gate(
                id=g["id"],
                kind=GateKind(g["kind"].upper()),
                inputs=tuple(g["inputs"]),
                output=g["output"],
            )
            for g in data["gates"]
        }
        thresholds = {
            var: Thresholds(
                plus=spec["plus"], minus=spec["minus"], p=spec.get("p", 0.1)
            )
            for var, spec in data["thresholds"].items()
        }
        timing = data["timing"]
        return cls(
            gates=gates,
            external_inputs=tuple(data["external_inputs"]),
            outputs=tuple((o["gate"], o["name"]) for o in data["outputs"]),
            thresholds=thresholds,
            delta=float(timing["delta"]),
            lam=float(timing["lambda"]),
            sim=dict(data.get("sim", {})),
        )

    @classmethod
    def from_json(cls, path) -> "Circuit":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "gates": [
                {
                    "id": g.id,
                    "kind": g.kind.value,
                    "inputs": list(g.inputs),
                    "output": g.output,
                }
                for g in self.gates.values()
            ],
            "external_inputs": list(self.external_inputs),
            "outputs": [{"gate": gid, "name": name} for gid, name in self.outputs],
            "thresholds": {
                v: {"plus": th.plus, "minus": th.minus, "p": th.p}
                for v, th in self.thresholds.items()
            },
            "timing": {"delta": self.delta, "lambda": self.lam},
            **({"sim": self.sim} if self.sim else {}),
        }


@dataclass(frozen=True)
class TimingBudget:
    """Network-level and derived per-gate timing constraints."""

    network_delta: float
    network_lambda: float
    delta: dict[str, float]  # gate id -> delta(M)
    lam: dict[str, float]  # gate id -> lam(M)
    input_hold: float  # required duration of external input signals


@dataclass(frozen=True)
class WiringCheck:
    """Instantiation of the output-to-input consistency formula for a wire."""

    nu1: float
    gamma1: float
    mu1: float
    nu2: float
    mu2: float
    threshold: float
    var: str

    def formula(self) -> Formula:
        atom = Atom(self.var, ">=", self.threshold)
        ante = Eventually(self.nu1, self.nu1 + self.gamma1, Globally(0.0, self.mu1, atom))
        cons = Globally(self.nu2, self.nu2 + self.mu2, atom)
        return Implies(ante, cons)


def longest_paths(c: Circuit) -> tuple[dict[str, int], dict[str, int]]:
    """Forward/backward longest edge-count paths (lf, lb) per gate.

    ``lf[g]``: longest path from g to any output gate (0 if g is one).
    ``lb[g]``: longest path from g back to any gate with an external input
    (0 if g has one itself).
    """
    order = c.topo_order()
    succ: dict[str, list[str]] = {gid: [] for gid in c.gates}
    pred: dict[str, list[str]] = {gid: [] for gid in c.gates}
    for a, b in c.edges():
        succ[a].append(b)
        pred[b].append(a)

    neg = -(10**9)
    outputs = c.output_gate_ids()
    lf = {gid: (0 if gid in outputs else neg) for gid in c.gates}
    for gid in reversed(order):
        for nxt in succ[gid]:
            lf[gid] = max(lf[gid], lf[nxt] + 1)

    entries = c.entry_gate_ids()
    lb = {gid: (0 if gid in entries else neg) for gid in c.gates}
    for gid in order:
        for prv in pred[gid]:
            lb[gid] = max(lb[gid], lb[prv] + 1)

    for gid in c.gates:
        if lf[gid] < 0 or lb[gid] < 0:
            raise GraphError(
                f"gate {gid!r} is not on any input-to-output path"
            )
    return lf, lb


def propagate_timing(c: Circuit) -> TimingBudget:
    """Per-gate (delta, lambda) budgets from the circuit's network targets."""
    delta, lam = c.delta, c.lam
    lf, lb = longest_paths(c)
    d = {gid: delta / (lf[gid] + lb[gid] + 1) for gid in c.gates}

    succ: dict[str, list[str]] = {gid: [] for gid in c.gates}
    for a, b in c.edges():
        succ[a].append(b)
    outputs = c.output_gate_ids()
    lam_of: dict[str, float] = {}
    for gid in reversed(c.topo_order()):
        need = [lam_of[nxt] + d[nxt] for nxt in succ[gid]]
        if gid in outputs:
            need.append(lam)
        lam_of[gid] = max(need)

    entries = c.entry_gate_ids()
    hold = max(lam_of[gid] + d[gid] for gid in entries)
    return TimingBudget(
        network_delta=delta,
        network_lambda=lam,
        delta=d,
        lam=lam_of,
        input_hold=hold,
    )


def wiring_formulas(c: Circuit, tb: TimingBudget) -> list[tuple[tuple[str, str], WiringCheck]]:
    """One consistency check per internal wire (M, M'), from nu1 = 0.

    The producer promises its output eventually holds for mu1 =
    lam(M)+delta(M) starting within gamma1 = delta(M); the consumer needs
    it held for mu2 = lam(M') from nu2 = delta(M) on.  Since
    lam(M) >= lam(M'), every instantiation is a valid formula.
    """
    checks = []
    for a, b in sorted(c.edges()):
        var = c.gates[a].output
        checks.append(
            (
                (a, b),
                WiringCheck(
                    nu1=0.0,
                    gamma1=tb.delta[a],
                    mu1=tb.lam[a] + tb.delta[a],
                    nu2=tb.delta[a],
                    mu2=tb.lam[b],
                    threshold=c.thresholds[var].plus,
                    var=var,
                ),
            )
        )
    return checks
