"""The names a run may use: every entry point refuses a bad per-gate or
per-input map with the same ``ValueError`` text, which ``Circuit`` owns."""

import json
from pathlib import Path

import pytest

from gatesynth.circuit import Circuit
from gatesynth.cli import main
from gatesynth.gates import GateKind, GateParams
from gatesynth.odesim import SimConfig, simulate_circuit, verify
from gatesynth.synth import NumericGrid, synthesize_circuit, synthesize_numeric

HALF_ADDER = "circuits/half_adder.json"
C = Circuit.from_json(HALF_ADDER)
PARAMS = {
    gid: GateParams(kind=s.kind, n=s.n, alpha=1.05 * s.alpha_min,
                    hill_k=tuple((lo + hi) / 2 for lo, hi in s.box.intervals.values()))
    for gid, s in synthesize_circuit(C).gates.items()
}
ZZ = GateParams(GateKind.NOT, n=3, alpha=1.0, hill_k=(0.5,))
INPUTS = {"A": 1.0, "B": 0.0}

# bad map -> the text every entry point refuses it with
MESSAGES = {
    "unknown-gate-id": "gate ids not in the circuit: ['ZZ']",
    "missing-gate-id": "no parameters for gates: ['S']",
    "wrong-kind": "gate 'S' is OR, but its parameters are for AND",
    "program-for-no-input": "input programs for no external input: ['nope', 'xD']",
    "missing-program": "no input program for external inputs: ['B']",
    "initial-for-no-output": "initial values for no gate output: ['A', 'nope']",
}

BAD_PARAMS = {
    "unknown-gate-id": {**PARAMS, "ZZ": ZZ},
    "missing-gate-id": {g: p for g, p in PARAMS.items() if g != "S"},
    "wrong-kind": {**PARAMS, "S": PARAMS["E"]},
}


def simulate(params=PARAMS, inputs=INPUTS, initial=None):
    cfg = SimConfig(horizon=1.0, inputs=inputs, initial=initial or {})
    return simulate_circuit(C, params, cfg)


def circuit_with_bad_initial():
    data = C.to_dict()
    data["sim"] = {"initial": {"nope": 0.5, "A": 0.5}}
    return data


def cli_verify(tmp_path, params=PARAMS, circuit=None):
    """``gatesynth verify``'s exit code on a params file of ``params``."""
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(
        {g: {"n": p.n, "alpha": p.alpha, "k": list(p.hill_k)} for g, p in params.items()}))
    circuit_path = Path(HALF_ADDER)
    if circuit is not None:
        circuit_path = tmp_path / "circuit.json"
        circuit_path.write_text(json.dumps(circuit))
    return main(["verify", str(circuit_path), str(params_path), "--out", str(tmp_path / "out")])


K_AXES = NumericGrid(axes={"K1": (0.3, 0.45, 2), "K2": (0.3, 0.45, 2)})

# (entry point, bad map) -> the call; a "gatesynth verify" call takes a
# directory and returns an exit code
CASES = {
    ("synthesize_circuit", "unknown-gate-id"): lambda: synthesize_circuit(C, n={"ZZ": 4.0}),
    ("synthesize_numeric", "unknown-gate-id"):
        lambda: synthesize_numeric(C, grid={"E": K_AXES}, params={"ZZ": ZZ}),
    ("synthesize_numeric", "wrong-kind"):
        lambda: synthesize_numeric(C, grid={"S": K_AXES}, params={"S": PARAMS["E"]}),
    **{("simulate_circuit", bad): (lambda p=p: simulate(params=p))
       for bad, p in BAD_PARAMS.items()},
    ("simulate_circuit", "program-for-no-input"):
        lambda: simulate(inputs={**INPUTS, "xD": 1.0, "nope": 0.5}),
    ("simulate_circuit", "missing-program"): lambda: simulate(inputs={"A": 1.0}),
    ("simulate_circuit", "initial-for-no-output"):
        lambda: simulate(initial={"nope": 0.5, "A": 0.5}),
    **{("verify", bad): (lambda p=p: verify(C, p)) for bad, p in BAD_PARAMS.items()},
    ("Circuit", "initial-for-no-output"): lambda: Circuit.from_dict(circuit_with_bad_initial()),
    ("gatesynth verify", "unknown-gate-id"):
        lambda tmp: cli_verify(tmp, params=BAD_PARAMS["unknown-gate-id"]),
    ("gatesynth verify", "missing-gate-id"):
        lambda tmp: cli_verify(tmp, params=BAD_PARAMS["missing-gate-id"]),
    ("gatesynth verify", "initial-for-no-output"):
        lambda tmp: cli_verify(tmp, circuit=circuit_with_bad_initial()),
}


@pytest.mark.parametrize("entry,bad", list(CASES), ids=[f"{e}-{b}" for e, b in CASES])
def test_every_entry_point_refuses_a_bad_map_alike(entry, bad, tmp_path, capsys):
    # at the parent the verify row ran ZZ's parameters nowhere and passed,
    # and simulate_circuit ignored the programs of xD and nope
    if entry == "gatesynth verify":
        assert CASES[entry, bad](tmp_path) == 1
        assert capsys.readouterr().err.rstrip().endswith(MESSAGES[bad])
        assert not (tmp_path / "out").exists()
        return
    with pytest.raises(ValueError) as info:
        CASES[entry, bad]()
    assert str(info.value) == MESSAGES[bad]
