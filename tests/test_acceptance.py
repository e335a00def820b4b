"""Acceptance gate: every criterion must pass, and selftest is deterministic."""

import subprocess
import sys

import pytest

from heisim import acceptance, registers


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
    verify = registers.verify_classical_step

    def broken(*args, step_gates=None, **kwargs):
        if step_gates is not None:
            raise TypeError("broken interaction check")
        return verify(*args, **kwargs)

    monkeypatch.setattr(registers, "verify_classical_step", broken)
    try:
        result = acceptance.criterion_8(seed=0)
    except TypeError:
        return
    assert not result["passed"], result["detail"]
