"""Exception hierarchy shared across the toolkit.

Two top-level families matter to callers (and to the CLI exit codes):
malformed or out-of-contract inputs raise :class:`ValidationError`, while
well-formed requests that have no answer (a degradation beyond the Doeblin
coefficient, fusion of beliefs with no common support, a coupling condition
that fails) raise :class:`InfeasibilityError`.
"""


class DoeblinError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(DoeblinError, ValueError):
    """Input violates a structural invariant (shape, sign, normalization, cap)."""


class InfeasibilityError(DoeblinError, ValueError):
    """The request is well-formed but mathematically unsatisfiable."""


class AlphabetMismatchError(ValidationError):
    """Operands do not share the required common alphabet."""


class ExpansionCapError(ValidationError):
    """A request would pass one of the fixed size caps (table cells, factor
    entries, the joint coupling's factor pool, relevant nodes, paths, letter
    subsets, LP variables, LP tableau cells or simplex pivots)."""


class NoConsensusError(InfeasibilityError):
    """Min-rule fusion is undefined: the beliefs share no common support."""


class CouplingConditionError(InfeasibilityError):
    """The minimal-coupling construction's validity condition fails."""


class DegradationError(InfeasibilityError):
    """No erasure-channel degradation exists at the requested erasure rate."""
