"""Bayes risks via the trace formula, and the min-/max-DeGroot distances.

For a prior over n hypotheses and an observation channel, the value of
observing the output is the drop in Bayes risk.  Scoring correct guesses
(identity loss, to be minimized) yields the min-DeGroot distance; scoring
errors (complement loss) yields the max-DeGroot distance.  For two
hypotheses both collapse to the classical DeGroot statistical information.
"""

from __future__ import annotations

import numpy as np

from .channel import Channel, Pmf, _as_float_array, _family, _trace_extremum, as_channel
from .exceptions import ValidationError

_HYPOTHESES = "DeGroot distances need at least two hypotheses"
_LOSS_KINDS = {  # per loss kind: the Bayes rule's extremal row, and the risk before observing
    "identity": (np.argmin, lambda lam: lam.min()),
    "complement": (np.argmax, lambda lam: 1.0 - lam.max()),
}


def identity_loss(n: int) -> np.ndarray:
    """Loss 1 for guessing the true state (the avoid-detection objective)."""
    return np.eye(n)


def complement_loss(n: int) -> np.ndarray:
    """Loss 1 for every wrong guess (the usual 0-1 loss)."""
    return np.ones((n, n)) - np.eye(n)


def _as_prior(prior, n: int) -> np.ndarray:
    lam = prior.probs if isinstance(prior, Pmf) else Pmf(prior).probs
    if lam.size != n:
        raise ValidationError(f"prior has {lam.size} states, channel has {n} inputs")
    return lam


def risk(prior, channel, loss, estimator) -> float:
    """Expected loss Tr(L' diag(prior) W P) of a randomized estimator P."""
    ch = as_channel(channel)
    est = as_channel(estimator)
    lam = _as_prior(prior, ch.n)
    L = _as_float_array(loss, "loss matrix")
    if L.shape != (ch.n, ch.n):
        raise ValidationError(f"loss matrix must be {ch.n} x {ch.n}")
    if not np.all(np.isfinite(L)):
        raise ValidationError("loss matrix must be finite")
    if est.n != ch.m or est.m != ch.n:
        raise ValidationError(f"estimator must be {ch.m} x {ch.n}")
    return float(np.einsum("ji,j,jy,yi->", L, lam, ch.matrix, est.matrix))


def _loss_kind(loss_kind):
    kind = _LOSS_KINDS.get(loss_kind) if isinstance(loss_kind, str) else None
    if kind is None:
        raise ValidationError('loss_kind must be "identity" or "complement"')
    return kind


def _weighted(prior, ch: Channel) -> tuple[np.ndarray, np.ndarray]:
    """The prior lambda and the prior-weighted channel lambda_i W_i(y)."""
    lam = _as_prior(prior, ch.n)
    return lam, lam[:, None] * ch.matrix


def min_degroot(prior, channel) -> float:
    """Risk drop under the identity loss:
    min(prior) - sum_y min_i prior_i W_i(y)."""
    lam, weighted = _weighted(prior, _family(channel, _HYPOTHESES))
    return float(lam.min() - weighted.min(axis=0).sum())


def max_degroot(prior, channel) -> float:
    """Risk drop under the complement loss:
    sum_y max_i prior_i W_i(y) - max(prior)."""
    lam, weighted = _weighted(prior, _family(channel, _HYPOTHESES))
    return float(weighted.max(axis=0).sum() - lam.max())


def optimal_estimator(prior, channel, loss_kind: str = "identity") -> Channel:
    """Closed-form Bayes-optimal deterministic estimator: the extremal-trace
    kernel of the prior-weighted channel lambda_i W_i(y).

    Identity loss: per output, guess the least likely posterior state (the
    minimal trace).  Complement loss: per output, guess the most likely
    posterior state (the maximal trace).  Smallest index wins ties.
    """
    _, weighted = _weighted(prior, as_channel(channel))
    pick, _ = _loss_kind(loss_kind)
    return _trace_extremum(weighted, pick).kernel


def prior_risk(prior, n: int, loss_kind: str = "identity") -> float:
    """Bayes risk before any observation."""
    lam = _as_prior(prior, n)
    _, before = _loss_kind(loss_kind)
    return float(before(lam))
