"""Heisenberg-picture quantum network simulator with branch foliation.

Qubits are represented by evolving observable triples against a fixed state
vector; measurement records define projector frames that decompose entangled
networks into autonomously evolving branch copies, down to ensembles of
classical registers. A Schrodinger-picture state-vector oracle cross-checks
every run.
"""

from .linalg import DEFAULT_TOL, Tolerances
from .network import (Gate, NetworkState, apply_gate, are_entangled,
                      build_gate_unitary, expectation, init_network, is_sharp,
                      run_gates)
from .relative import (RelativeDescriptor, RelativeFrame, autonomy_check,
                       branch_evolution_factor, foliate, make_pvm,
                       make_pvm_spectral, relative_descriptors,
                       relative_expectation)
from .registers import (ClassicalFunction, classical_branches,
                        compile_classical, register_descriptor,
                        verify_classical_step)
from .oracle import SchrodingerRun, cross_validate, evolve, gate_matrix

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL", "Tolerances", "Gate", "NetworkState",
    "apply_gate", "are_entangled", "build_gate_unitary", "expectation",
    "init_network", "is_sharp", "run_gates", "RelativeDescriptor",
    "RelativeFrame", "autonomy_check", "branch_evolution_factor", "foliate",
    "make_pvm", "make_pvm_spectral", "relative_descriptors",
    "relative_expectation", "ClassicalFunction", "classical_branches",
    "compile_classical", "register_descriptor", "verify_classical_step",
    "SchrodingerRun", "cross_validate", "evolve", "gate_matrix",
]
