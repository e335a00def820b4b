"""Exception hierarchy for the simulator.

Every error that can surface through the CLI maps to one of four exit-status
families: parse/validation (1), tolerance violation (2), physics precondition
(3), internal (4).
"""


class HeisimError(Exception):
    """Base class for all simulator errors."""

    exit_status = 4


class ParseError(HeisimError):
    """Malformed circuit document."""

    exit_status = 1


class ValidationError(HeisimError):
    """Well-formed document violating a schema invariant."""

    exit_status = 1


class ToleranceViolation(HeisimError):
    """A residual summary exceeded its configured tolerance."""

    exit_status = 2


class PhysicsError(HeisimError):
    """A physical precondition failed (not a numerical issue)."""

    exit_status = 3


class NonUnitary(ToleranceViolation):
    pass


class NotHermitian(ToleranceViolation):
    pass


class DimMismatch(ValidationError):
    pass


class SizeLimit(ValidationError):
    pass


class NonCommuting(PhysicsError):
    """Frame projector fails to commute with a descriptor: invalid foliation."""


class ZeroWeightBranch(PhysicsError):
    """Conditioning on a branch of (numerically) zero amplitude."""


class BadSubset(ValidationError):
    pass


class NotReversible(ValidationError):
    pass


class SynthesisError(ValidationError):
    """Reversible synthesis would need a gate with more than two controls."""


class PreconditionFailed(PhysicsError):
    """Register foliation precondition not met."""


class BranchNotSharp(PhysicsError):
    """A nonzero-weight branch register has no sharp value."""


class CircuitMismatch(ValidationError):
    """Schrodinger run and Heisenberg timeline describe different circuits."""
