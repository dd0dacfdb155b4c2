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

External inputs must be held for the largest ``lam(entry) + delta(entry)``
over the entry gates.  That maximum is ``lambda + delta``: the gates on a
longest input-to-output path split delta evenly.  An entry gate off every
longest path may need less.

A :class:`Circuit` runs every check of a circuit file, off-path and
``sim`` rules included, and finds its gate order, lf and lb, once, when built.
"""

from __future__ import annotations

import heapq
import json
import numbers
from dataclasses import dataclass, field

from .formulas import Atom, Eventually, Formula, Globally, Implies, _is_variable
from .gates import GateKind, GateParams, Thresholds, _check_finite_positive, _check_initial

__all__ = [
    "Gate", "Circuit", "TimingBudget", "WiringCheck", "GraphError", "CycleError",
    "longest_paths", "propagate_timing", "wiring_formulas",
]


def _is_number(x) -> bool:  # JSON's true and false load as bools
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class GraphError(ValueError):
    """Malformed wiring: a cycle, an undefined variable, a variable two
    gates write, a gate output shadowing an external input, a repeated
    external input or gate id, or a gate off every input-to-output path."""


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
        self.kind.check_count(self.inputs, where=f"gate {self.id!r}: ")


@dataclass(frozen=True)
class Circuit:
    """A gate DAG; construction raises ``GraphError`` for bad wiring and
    ``ValueError`` for any other fault.  ``sim`` holds at most ``h``, a
    number > 0, and ``initial``, gate output -> number >= 0 (a boolean
    is no number)."""

    gates: dict[str, Gate]
    external_inputs: tuple[str, ...]
    outputs: tuple[tuple[str, str], ...]  # (gate id, network output name)
    thresholds: dict[str, Thresholds]
    delta: float
    lam: float
    sim: dict = field(default_factory=dict, compare=False)
    # gate output variable -> id of the gate that writes it
    _producer: dict[str, str] = field(init=False, repr=False, compare=False)
    # the graph index of _index: gate ids in topological order, each
    # gate's consumers (once per wire) and the longest paths lf, lb
    _order: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _consumers: dict[str, list[str]] = field(init=False, repr=False, compare=False)
    _lf: dict[str, int] = field(init=False, repr=False, compare=False)
    _lb: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "external_inputs", tuple(self.external_inputs))
        object.__setattr__(self, "outputs", tuple((g, n) for g, n in self.outputs))
        _check_finite_positive("network delta", self.delta)
        _check_finite_positive("network lambda", self.lam)
        if len(set(self.external_inputs)) != len(self.external_inputs):
            raise GraphError(f"repeated external input: {list(self.external_inputs)}")
        produced: dict[str, str] = {}
        for gid, g in self.gates.items():
            # a gate id names output files and is a `synth --n` key
            if not (isinstance(gid, str) and gid.isidentifier()):
                raise ValueError(f"gate id {gid!r} is not an identifier")
            if g.id != gid:  # to_dict writes g.id
                raise ValueError(f"gate {gid!r} holds a gate with id {g.id!r}")
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
        names = [name for _, name in self.outputs]
        if len(set(names)) != len(names):
            raise ValueError(f"repeated network output name: {names}")
        for var in self.variables():
            if not _is_variable(var):
                raise ValueError(
                    f"variable {var!r} is not a name the STL parser reads as a variable"
                )
            if var not in self.thresholds:
                raise ValueError(f"no thresholds given for variable {var!r}")
        for name, value in zip(("_order", "_consumers", "_lf", "_lb"), self._index()):
            object.__setattr__(self, name, value)
        unknown = set(self.sim) - {"h", "initial"}
        if unknown:
            raise ValueError(f"unknown sim keys {sorted(unknown)}: only 'h' and 'initial'")
        if "h" in self.sim:  # verify's default step when absent
            h = self.sim["h"]
            if not _is_number(h):
                raise ValueError(f"sim step h must be a number, got {h!r}")
            _check_finite_positive("sim step h", h)
        initial = self.sim.get("initial", {})
        if not (isinstance(initial, dict) and all(map(_is_number, initial.values()))):
            raise ValueError(f"sim initial must be an object of numbers, got {initial!r}")
        self.check_initial(initial)
        for var, x0 in initial.items():
            _check_initial(var, x0)

    def check_params(self, params: dict, every: bool = True) -> None:
        """``ValueError`` unless ``params`` names gates of this circuit, every
        one if ``every``, each :class:`GateParams` value of its gate's kind."""
        unknown = sorted(params.keys() - self.gates.keys())
        if unknown:
            raise ValueError(f"gate ids not in the circuit: {unknown}")
        missing = sorted(self.gates.keys() - params.keys())
        if every and missing:
            raise ValueError(f"no parameters for gates: {missing}")
        for gid, p in params.items():
            kind = self.gates[gid].kind
            if isinstance(p, GateParams) and p.kind is not kind:
                raise ValueError(f"gate {gid!r} is {kind.value}, "
                                 f"but its parameters are for {p.kind.value}")

    def check_inputs(self, programs: dict) -> None:
        """``ValueError`` unless ``programs`` names each external input, no other."""
        unknown = sorted(programs.keys() - set(self.external_inputs))
        if unknown:
            raise ValueError(f"input programs for no external input: {unknown}")
        missing = [v for v in self.external_inputs if v not in programs]
        if missing:
            raise ValueError(f"no input program for external inputs: {missing}")

    def check_initial(self, initial: dict) -> None:
        """``ValueError`` unless every name in ``initial`` is a gate output."""
        unknown = sorted(initial.keys() - self._producer.keys())
        if unknown:
            raise ValueError(f"initial values for no gate output: {unknown}")

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
        """Gate ids in topological order (inputs before consumers), the
        smallest ready id first."""
        return list(self._order)

    def _index(self):
        """The graph index (order, consumers, lf, lb) by Kahn's algorithm;
        ``CycleError`` on cyclic wiring, ``GraphError`` for a gate off
        every input-to-output path."""
        consumers: dict[str, list[str]] = {gid: [] for gid in self.gates}
        indeg = dict.fromkeys(self.gates, 0)
        for a, b in self.edges():
            consumers[a].append(b)
            indeg[b] += 1
        ready = sorted(gid for gid, d in indeg.items() if d == 0)  # sorted, so a heap
        order = []
        # every gate reads a variable, so one with no external input has
        # a producer that raises its lb above 0
        lb = dict.fromkeys(self.gates, 0)
        while ready:
            gid = heapq.heappop(ready)
            order.append(gid)
            for nxt in consumers[gid]:
                lb[nxt] = max(lb[nxt], lb[gid] + 1)
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    heapq.heappush(ready, nxt)
        if len(order) < len(self.gates):
            raise CycleError(self._find_cycle(set(self.gates) - set(order)))
        outputs = self.output_gate_ids()
        lf = {gid: (0 if gid in outputs else -(10**9)) for gid in self.gates}
        for gid in reversed(order):
            for nxt in consumers[gid]:
                lf[gid] = max(lf[gid], lf[nxt] + 1)
        for gid in self.gates:
            if lf[gid] < 0:
                raise GraphError(f"gate {gid!r} is not on any input-to-output path")
        return tuple(order), consumers, lf, lb

    def _find_cycle(self, remaining):
        """A cycle among the gates Kahn's pass left over, in producer ->
        consumer order from its smallest id.  Every leftover gate reads a
        leftover gate, so walking producers always closes a cycle."""
        seen: list[str] = []
        node = min(remaining)
        while node not in seen:
            seen.append(node)
            node = next(p for v in self.gates[node].inputs
                        if (p := self._producer.get(v)) in remaining)
        cycle = seen[seen.index(node):][::-1]
        i = cycle.index(min(cycle))
        return cycle[i:] + cycle[:i + 1]

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        """The circuit of a circuit file's JSON data.  Each ``timing`` value
        must be a number and ``sim`` an object: ``float()`` and ``dict()``
        would take ``true``, ``"12"`` or a list of pairs."""
        gates = {}
        for g in data["gates"]:
            if g["id"] in gates:
                raise GraphError(f"repeated gate id: {g['id']!r}")
            gates[g["id"]] = Gate(id=g["id"], kind=GateKind(g["kind"].upper()),
                                  inputs=tuple(g["inputs"]), output=g["output"])
        thresholds = {
            var: Thresholds(
                plus=spec["plus"], minus=spec["minus"], p=spec.get("p", 0.1)
            )
            for var, spec in data["thresholds"].items()
        }
        timing = data["timing"]
        for key in ("delta", "lambda"):
            if not _is_number(timing[key]):
                raise ValueError(f"timing {key} must be a number, got {timing[key]!r}")
        sim = data.get("sim", {})
        if not isinstance(sim, dict):
            raise ValueError(f"sim must be an object, got {sim!r}")
        return cls(
            gates=gates,
            external_inputs=tuple(data["external_inputs"]),
            outputs=tuple((o["gate"], o["name"]) for o in data["outputs"]),
            thresholds=thresholds,
            delta=float(timing["delta"]),
            lam=float(timing["lambda"]),
            sim=dict(sim),
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
    (0 if no gate feeds g).  Both are copies of the maps the circuit built
    when it was constructed.
    """
    return dict(c._lf), dict(c._lb)


def propagate_timing(c: Circuit) -> TimingBudget:
    """Per-gate (delta, lambda) budgets from the circuit's network targets."""
    delta, lam = c.delta, c.lam
    lf, lb = c._lf, c._lb
    d = {gid: delta / (lf[gid] + lb[gid] + 1) for gid in c.gates}

    outputs = c.output_gate_ids()
    lam_of: dict[str, float] = {}
    for gid in reversed(c._order):
        need = [lam_of[nxt] + d[nxt] for nxt in c._consumers[gid]]
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
