"""Belief aggregation by the min-rule.

The fused PMF is the normalized pointwise minimum of the agents' beliefs:
the conditional law of any one agent given that all agents agree, under the
coupling that makes agreement as likely as possible.  The agreement
probability itself is the Doeblin coefficient of the stacked beliefs.  The
rule eliminates any state some agent rules out, and it presumes equally
trusted agents; with no common support there is no consensus to condition
on, which is a hard error rather than a fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .channel import Pmf, _family
from .exceptions import NoConsensusError


@dataclass(frozen=True)
class FusionResult:
    fused: Pmf
    agreement: float  # maximal probability that all agents agree


def fuse_min(pmfs: Sequence) -> FusionResult:
    """Normalized pointwise minimum of the beliefs, with the agreement mass."""
    mats = _family(pmfs, "fusion needs at least two beliefs").matrix
    colmin = mats.min(axis=0)
    agreement = float(colmin.sum())
    if agreement == 0.0:
        raise NoConsensusError(
            "beliefs share no common support: every state is ruled out by some "
            "agent, so the min-rule has no consensus event to condition on"
        )
    return FusionResult(fused=Pmf(colmin / agreement), agreement=agreement)
