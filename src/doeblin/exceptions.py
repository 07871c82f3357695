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
    """A request would pass one of the fixed size caps, each checked on the counter it bounds:

    * ``coupling.DEFAULT_EXPANSION_CAP``: the cells of an expanded coupling table (m**n), of
      the subset-mass table (2**n * K * m) and of the joint coupling's free-factor pool;
    * ``bayesnet.COMPOSITE_STATE_CAP``: the entries of the largest factor that variable
      elimination creates;
    * ``bayesnet.EXACT_PERCOLATION_NODE_CAP``: the relevant nodes of exact percolation;
    * ``bayesnet.MC_DRAW_CAP``: Monte Carlo survival draws, trials times relevant nodes;
    * ``bayesnet.PATH_CAP``: the shortcut-free source-to-target paths;
    * ``bayesnet.LETTER_SUBSET_CAP``: the letter subsets of the memoryless-stage bound;
    * ``lp.VARIABLE_CAP``: the variables of a coupling LP;
    * ``lp.TABLEAU_CELL_CAP``: the cells of its simplex tableau;
    * ``lp._MAX_ITER``: the simplex pivots.
    """


class NoConsensusError(InfeasibilityError):
    """Min-rule fusion is undefined: the beliefs share no common support."""


class CouplingConditionError(InfeasibilityError):
    """The minimal-coupling construction's validity condition fails."""


class DegradationError(InfeasibilityError):
    """No erasure-channel degradation exists at the requested erasure rate."""
