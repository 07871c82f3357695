"""Bayesian-network input checks: Monte Carlo sample counts and the state cap."""

import numpy as np
import pytest

import doeblin as db
from doeblin import ExpansionCapError, bayesnet as bn


def _chain(length: int) -> db.BayesNet:
    nodes = [db.Node("N0", 2, (), None)]
    for i in range(1, length):
        nodes.append(db.Node(f"N{i}", 2, (i - 1,), np.array([[0.9, 0.1], [0.2, 0.8]])))
    return db.BayesNet(nodes=tuple(nodes), source=0)


@pytest.mark.parametrize("samples", [0, -5])
def test_mc_rejects_nonpositive_samples(samples):
    net = _chain(2)
    with pytest.raises(db.ValidationError, match="positive sample count"):
        bn.percolation(net, [1], mode="mc", samples=samples, seed=0)


def test_mc_accepts_one_sample():
    res = bn.percolation(_chain(2), [1], mode="mc", samples=1, seed=0)
    assert res.probability in (0.0, 1.0)


def test_composite_cap_raises_typed_error():
    net = _chain(5)  # 2^5 joint states over the source and the four ancestors
    with pytest.raises(ExpansionCapError):
        bn.composite_channel(net, [4], cap=16)
    assert bn.composite_channel(net, [4], cap=32).matrix.shape == (2, 2)

