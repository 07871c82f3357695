"""Min-rule fusion against the column minimum and the simplex LP oracle."""

import numpy as np
import pytest

import doeblin as db
from doeblin import lp
from doeblin.fusion import fuse_min

from helpers import random_channel


def test_fused_is_normalized_column_minimum():
    rng = np.random.default_rng(31)
    for _ in range(200):
        beliefs = random_channel(rng, int(rng.integers(2, 6)), int(rng.integers(1, 8)), alpha=2.0)
        res = fuse_min(beliefs)
        colmin = beliefs.min(axis=0)
        assert res.agreement == pytest.approx(colmin.sum(), abs=1e-12)
        assert np.abs(res.fused.probs - colmin / colmin.sum()).max() <= 1e-12


def test_agreement_is_maximal_diagonal_mass():
    # The agreement mass is the largest probability that every agent's
    # state coincides, over all couplings of the beliefs.
    rng = np.random.default_rng(32)
    for _ in range(30):
        beliefs = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5)), alpha=1.5)
        oracle = lp.coupling_diag_opt(list(beliefs), "max").value
        assert fuse_min(beliefs).agreement == pytest.approx(oracle, abs=1e-9)


def test_ruled_out_states_stay_out():
    res = fuse_min([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
    assert res.fused.to_list() == [0.5, 0.5, 0.0]
    assert res.agreement == 0.5


@pytest.mark.parametrize(
    "beliefs",
    [
        [[1.0, 0.0], [0.0, 1.0]],
        [[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]],
        [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]],  # pairwise overlaps only
    ],
)
def test_disjoint_supports_have_no_consensus(beliefs):
    with pytest.raises(db.NoConsensusError):
        fuse_min(beliefs)


@pytest.mark.parametrize("beliefs", [[[0.5, 0.5]], [db.Pmf([0.2, 0.8])]])
def test_single_belief_rejected(beliefs):
    with pytest.raises(db.ValidationError, match="at least two beliefs"):
        fuse_min(beliefs)
