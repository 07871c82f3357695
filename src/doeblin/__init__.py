"""Doeblin-type multi-way divergences, extremal couplings, and contraction
bounds for finite discrete channels."""

from .channel import (
    Channel,
    CoefficientReport,
    MinorizationSplit,
    Pmf,
    TraceResult,
    as_channel,
    compose,
    dobrushin_tv,
    doeblin,
    erasure_channel,
    erasure_degradation,
    max2_doeblin,
    max_doeblin,
    max_trace,
    min_trace,
    minorization_split,
    report,
    tensor,
    tv_distance,
)
from .coupling import (
    Coupling,
    JointCoupling,
    VerificationReport,
    maximal_coupling,
    minimal_coupling_max,
    simultaneous_joint_coupling,
    verify_coupling,
)
from .degroot import (
    complement_loss,
    identity_loss,
    max_degroot,
    min_degroot,
    optimal_estimator,
    prior_risk,
    risk,
)
from .bayesnet import (
    BayesNet,
    Node,
    PercolationResult,
    composite_channel,
    node_tau,
    percolation,
    recursion_bound,
    samorodnitsky_bound,
    shortcut_free_bound,
)
from .fusion import FusionResult, fuse_min
from .lp import (
    LpProblem,
    LpSolution,
    OracleResult,
    coupling_diag_opt,
    coupling_opt,
    coupling_union_opt,
    estimator_opt,
    solve,
)
from .exceptions import (
    AlphabetMismatchError,
    CouplingConditionError,
    DegradationError,
    DoeblinError,
    ExpansionCapError,
    InfeasibilityError,
    NoConsensusError,
    ValidationError,
)

__version__ = "0.1.0"
