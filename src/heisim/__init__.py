"""Heisenberg-picture quantum network simulator with branch foliation.

Qubits are represented by evolving observable triples against a fixed state
vector; measurement records define projector frames that decompose entangled
networks into autonomously evolving branch copies, down to ensembles of
classical registers. A Schrodinger-picture state-vector oracle cross-checks
every run.

The package root exports no names; import them from the submodules.
"""

# Every heisim command needs the numerical core, so ``import heisim`` loads it.
from . import linalg, network, oracle, registers, relative

__version__ = "0.1.0"
