"""Risk-formula and DeGroot-distance tests."""

import numpy as np
import pytest

import doeblin as db
from doeblin import ValidationError

from helpers import random_channel, random_pmf

W1 = [[0.5, 0.5], [0.25, 0.75]]


class TestRisk:
    def test_zero_loss(self):
        est = db.min_trace(W1).kernel
        assert db.risk([0.5, 0.5], W1, np.zeros((2, 2)), est) == 0.0

    def test_identity_loss_optimal_is_tau_over_n(self):
        est = db.min_trace(W1).kernel
        value = db.risk([0.5, 0.5], W1, db.identity_loss(2), est)
        assert value == pytest.approx(db.doeblin(W1) / 2, abs=1e-12)

    def test_complement_loss_optimal_is_one_minus_taumax_over_n(self):
        est = db.max_trace(W1).kernel
        value = db.risk([0.5, 0.5], W1, db.complement_loss(2), est)
        assert value == pytest.approx(1 - db.max_doeblin(W1) / 2, abs=1e-12)

    def test_dimension_mismatch(self):
        est = db.min_trace(W1).kernel
        with pytest.raises(ValidationError):
            db.risk([0.5, 0.3, 0.2], W1, db.identity_loss(2), est)
        with pytest.raises(ValidationError):
            db.risk([0.5, 0.5], W1, np.zeros((3, 3)), est)

    def test_ragged_loss_rejected(self):
        est = db.min_trace(W1).kernel
        with pytest.raises(ValidationError, match="loss matrix is not a numeric table"):
            db.risk([0.5, 0.5], W1, [[1.0, 0.0], [0.0]], est)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_rejected(self, bad):
        est = db.min_trace(W1).kernel
        with pytest.raises(ValidationError, match="loss matrix must be finite"):
            db.risk([0.5, 0.5], W1, [[0.0, bad], [1.0, 0.0]], est)

    def test_estimator_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match="estimator must be 2 x 2"):
            db.risk([0.5, 0.5], W1, db.identity_loss(2), [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def test_arbitrary_loss_matches_direct_sum(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            W = random_channel(rng, n, m)
            est = random_channel(rng, m, n)
            lam = random_pmf(rng, n)
            L = rng.normal(size=(n, n))
            direct = sum(
                L[i, j] * lam[i] * W[i, y] * est[y, j]
                for i in range(n)
                for y in range(m)
                for j in range(n)
            )
            assert db.risk(lam, W, L, est) == pytest.approx(direct, abs=1e-12)


class TestDeGroot:
    def test_uninformative_channel(self):
        W = [[0.3, 0.7]] * 2
        assert db.min_degroot([0.4, 0.6], W) == pytest.approx(0.0, abs=1e-12)
        assert db.max_degroot([0.4, 0.6], W) == pytest.approx(0.0, abs=1e-12)

    def test_worked_values(self):
        assert db.min_degroot([0.5, 0.5], W1) == pytest.approx(0.125, abs=1e-12)
        assert db.max_degroot([0.5, 0.5], W1) == pytest.approx(0.125, abs=1e-12)

    def test_two_state_collapse(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            lam = float(rng.uniform(0.05, 0.95))
            W = random_channel(rng, 2, int(rng.integers(2, 5)))
            classical = (
                0.5 * np.abs(lam * W[0] - (1 - lam) * W[1]).sum()
                - 0.5 * abs(1 - 2 * lam)
            )
            lo = db.min_degroot([lam, 1 - lam], W)
            hi = db.max_degroot([lam, 1 - lam], W)
            assert lo == pytest.approx(hi, abs=1e-12)
            assert lo == pytest.approx(classical, abs=1e-12)

    def test_uniform_prior_identity(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            W = random_channel(rng, n, m)
            uniform = np.full(n, 1.0 / n)
            assert db.max_degroot(uniform, W) == pytest.approx(
                (db.max_doeblin(W) - 1) / n, abs=1e-12
            )
            assert db.min_degroot(uniform, W) == pytest.approx(
                (1 - db.doeblin(W)) / n, abs=1e-12
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            W = random_channel(rng, n, m)
            lam = random_pmf(rng, n)
            assert db.min_degroot(lam, W) >= -1e-12
            assert db.max_degroot(lam, W) >= -1e-12


class TestBayesOptimality:
    def test_closed_form_beats_random_estimators(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            W = random_channel(rng, n, m)
            lam = random_pmf(rng, n)
            for kind, L in (("identity", db.identity_loss(n)), ("complement", db.complement_loss(n))):
                best = db.risk(lam, W, L, db.optimal_estimator(lam, W, kind))
                for _ in range(200):
                    other = db.risk(lam, W, L, random_channel(rng, m, n))
                    assert best <= other + 1e-12

    def test_prior_risk(self):
        assert db.prior_risk([0.2, 0.3, 0.5], 3, "identity") == pytest.approx(0.2)
        assert db.prior_risk([0.2, 0.3, 0.5], 3, "complement") == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ["squared", "Identity", ["identity"], None, 0])
    def test_unknown_loss_kind_rejected(self, kind):
        # An unhashable kind such as a list is invalid input, not a TypeError.
        with pytest.raises(ValidationError, match="loss_kind must be"):
            db.optimal_estimator([0.5, 0.5], W1, kind)
        with pytest.raises(ValidationError, match="loss_kind must be"):
            db.prior_risk([0.5, 0.5], 2, kind)

    def test_estimator_picks_the_extremal_weighted_row(self):
        # Per output, the first row attaining the extremum of prior_i W_i(y).
        rng = np.random.default_rng(46)
        for _ in range(50):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            W = np.round(random_channel(rng, n, m), 1)  # rounding makes ties
            W = W / W.sum(axis=1, keepdims=True)
            lam = random_pmf(rng, n)
            weighted = lam[:, None] * db.Channel(W).matrix
            for kind, extremum in (("identity", np.min), ("complement", np.max)):
                got = db.optimal_estimator(lam, W, kind).matrix
                assert got.shape == (m, n) and set(np.unique(got)) <= {0.0, 1.0}
                for y in range(m):
                    want = min(i for i in range(n) if weighted[i, y] == extremum(weighted[:, y]))
                    assert got[y].tolist() == [float(i == want) for i in range(n)]
