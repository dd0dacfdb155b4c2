"""STL-constrained kinetic parameter synthesis for gene logic circuits.

The package covers the full pipeline: STL parsing and quantitative
monitoring, Hill-kinetics gate models, acyclic circuit timing analysis,
closed-form parameter-region synthesis, and ODE-based verification.
"""

__version__ = "0.1.0"

from .circuit import (
    Circuit, CycleError, Gate, GraphError, TimingBudget, WiringCheck,
    longest_paths, propagate_timing, wiring_formulas,
)
from .formulas import (
    And, Atom, Eventually, Formula, Globally, Implies, Not, Or, StlSyntaxError,
    TrueFormula, Until, parse, required_horizon,
)
from .gates import (
    ExtendedTruthRow, GateKind, GateParams, Thresholds, closed_form,
    gate_drive, hill_act, hill_rep, row_formula, truth_table,
)
from .monitor import (
    HorizonError, eval_boolean, robustness, robustness_naive, robustness_signal,
)
from .odesim import (
    SimConfig, VerifyEntry, VerifyReport, simulate_circuit,
    simulate_constant_drive, simulate_gate, verify,
)
from .signals import (
    OutOfRangeError, Signal, UnknownVariableError, read_trace_csv, write_trace_csv,
)
from .synth import (
    CurvedRegion, EmptyRegionError, GateSynthesis, NumericGateResult,
    NumericGrid, ParamBox, SynthesisResult, alpha_bound, export_region_csv,
    k_box, n_bound, sample_region, synthesize_circuit, synthesize_numeric,
    worst_case_output_robustness,
)
from .worstcase import MAX_LEVEL, WorstCaseAssignment, worst_case
