"""Acceptance gate: every criterion must pass, and selftest is deterministic."""

import subprocess
import sys

import pytest

from heisim import acceptance, registers
from heisim.network import Gate


@pytest.mark.parametrize("criterion", acceptance.CRITERIA,
                         ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion(seed=0)
    print(f"{result['name']}: {result['detail']}")
    assert result["passed"], f"{result['name']} failed: {result['detail']}"


def test_selftest_deterministic():
    """Two selftest runs with the same seed exit 0 with identical bytes."""
    cmd = [sys.executable, "-m", "heisim.cli", "selftest", "--seed", "7"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.decode().strip().endswith(
        "9/9 criteria passed (seed=7)")


def test_criterion_8_does_not_pass_on_a_bug(monkeypatch):
    """An error inside the interaction check is a bug, not a detection."""
    def broken(gates, qubits):
        raise TypeError("broken interaction check")

    monkeypatch.setattr(registers, "couples", broken)
    try:
        result = acceptance.criterion_8(seed=0)
    except TypeError:
        return
    assert not result["passed"], result["detail"]


def test_criterion_8_fails_on_another_functions_gates(monkeypatch):
    """Gates that compute the identity where NOT is asked for leave every
    branch value where the classical twin no longer is."""
    compile_classical = registers.compile_classical

    def wrong(func, register):
        if func == registers.ClassicalFunction.bitwise_not(func.bits):
            func = registers.ClassicalFunction.identity(func.bits)
        return compile_classical(func, register)

    monkeypatch.setattr(registers, "compile_classical", wrong)
    result = acceptance.criterion_8(seed=0)
    assert not result["passed"], result["detail"]


@pytest.mark.parametrize("pair", [False, True], ids=["cnot", "cnot-pair"])
def test_criterion_8_fails_on_a_step_that_reads_the_reference(monkeypatch,
                                                              pair):
    """A CNOT from reference qubit 4 to register qubit 1, appended to every
    step of the two-bit scenario, couples the register to the reference. A
    pair of them cancels, so only the interaction check can see it. (In the
    one-bit scenario, one such CNOT would leave the register sharp, which
    raises before any branch is read.)"""
    compile_classical = registers.compile_classical

    def coupled(func, register):
        gates = compile_classical(func, register)
        if tuple(register) == (1, 2):
            gates += [Gate.cnot(4, 1)] * (2 if pair else 1)
        return gates

    monkeypatch.setattr(registers, "compile_classical", coupled)
    result = acceptance.criterion_8(seed=0)
    assert not result["passed"], result["detail"]
