"""Channel-core tests: frozen worked values plus property suites."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import doeblin as db
from doeblin import ValidationError

from helpers import (
    mutual_information_nats,
    random_channel,
    random_positive_channel,
    reference_minorization_split,
    rowwise_normalized,
)

W1 = [[0.5, 0.5], [0.25, 0.75]]
TRIO = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
SYM08 = [[0.2, 0.4, 0.4], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]]


def bsc(delta):
    return [[1 - delta, delta], [delta, 1 - delta]]


@st.composite
def channels(draw, min_n=1, max_n=4, min_m=1, max_m=5, n=None, m=None):
    n = n if n is not None else draw(st.integers(min_n, max_n))
    m = m if m is not None else draw(st.integers(min_m, max_m))
    rows = []
    for _ in range(n):
        w = draw(
            st.lists(st.integers(0, 1000), min_size=m, max_size=m).filter(
                lambda xs: sum(xs) > 0
            )
        )
        total = sum(w)
        rows.append([x / total for x in w])
    return rows


# ---------------------------------------------------------------------------
# Construction and parsing
# ---------------------------------------------------------------------------


class TestValidation:
    def test_pmf_rejects_negative(self):
        with pytest.raises(ValidationError):
            db.Pmf([0.5, -0.1, 0.6])

    def test_pmf_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            db.Pmf([0.5, 0.6])

    def test_pmf_normalizes_exactly(self):
        p = db.Pmf([0.5 + 4e-10, 0.5])
        assert p.probs.sum() == 1.0

    def test_channel_needs_common_alphabet(self):
        with pytest.raises(db.AlphabetMismatchError):
            db.Channel([db.Pmf([1.0]), db.Pmf([0.5, 0.5])])

    def test_channel_takes_mixed_row_kinds(self):
        ch = db.Channel([db.Pmf([0.5, 0.5]), [0.25, 0.75], np.array([1.0, 0.0])])
        assert np.array_equal(ch.matrix, [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
        assert db.as_channel(ch) is ch

    @pytest.mark.parametrize("family", ["pmfs", "channel"])
    def test_validated_family_passes_through(self, monkeypatch, family):
        # Rows of Pmfs or of a Channel were validated where they entered; the
        # matrix is their stack, byte for byte, with no second validation.
        rng = np.random.default_rng(9)
        pmfs = [db.Pmf(rng.dirichlet(np.ones(5))) for _ in range(4)]
        rows = pmfs if family == "pmfs" else db.Channel(pmfs)
        calls = []
        real = db.channel._as_prob_vector
        monkeypatch.setattr(db.channel, "_as_prob_vector", lambda *a, **k: calls.append(a) or real(*a, **k))
        mat = db.Channel(rows).matrix
        assert calls == []
        assert mat.tobytes() == np.stack([p.probs for p in pmfs]).tobytes() and mat.shape == (4, 5)
        assert not mat.flags.writeable

    def test_mixed_family_still_validates_its_raw_rows(self, monkeypatch):
        pmf, raw = db.Pmf([0.5, 0.5]), [0.7 + 4e-10, 0.3]
        calls = []
        real = db.channel._as_prob_vector
        monkeypatch.setattr(db.channel, "_as_prob_vector", lambda *a, **k: calls.append(a) or real(*a, **k))
        mat = db.Channel([pmf, raw]).matrix
        assert len(calls) == 1
        assert mat.tobytes() == pmf.probs.tobytes() + rowwise_normalized([raw]).tobytes()
        assert not mat.flags.writeable
        with pytest.raises(ValidationError, match="^channel row 1 has a negative entry"):
            db.Channel([pmf, [1.5, -0.5]])

    def test_json_roundtrip(self):
        import json

        ch = db.Channel(W1, input_labels=["a", "b"], output_labels=["y0", "y1"])
        again = db.Channel.from_json(json.dumps(ch.to_dict()))
        assert np.allclose(again.matrix, ch.matrix)
        assert again.input_labels == ("a", "b")

    @pytest.mark.parametrize("labels", [3, "ab", ["a"], ("a", "b", "c")])
    def test_labels_must_be_a_list_of_the_right_length(self, labels):
        # A string is not split into characters; a scalar is not a label set.
        with pytest.raises(ValidationError, match="list or tuple of 2 labels"):
            db.Pmf([0.5, 0.5], labels=labels)
        with pytest.raises(ValidationError, match="^input_labels must"):
            db.Channel(W1, input_labels=labels)
        with pytest.raises(ValidationError, match="^output_labels must"):
            db.Channel(W1, output_labels=labels)

    def test_labels_kept_as_strings(self):
        ch = db.Channel(W1, input_labels=(0, 1), output_labels=["y0", None])
        assert ch.input_labels == ("0", "1") and ch.output_labels == ("y0", "None")
        assert db.Pmf([0.5, 0.5], labels=["a", "b"]).labels == ("a", "b")

    def test_json_rejects_negative(self):
        with pytest.raises(ValidationError):
            db.Channel.from_json('{"rows": [[1.2, -0.2], [0.5, 0.5]]}')

    def test_csv_header_discarded(self):
        ch = db.Channel.from_csv("y0,y1\n0.5,0.5\n0.25,0.75\n")
        assert np.allclose(ch.matrix, W1)

    def test_csv_rejects_negative(self):
        with pytest.raises(ValidationError):
            db.Channel.from_csv("1.5,-0.5\n0.5,0.5")

    def test_csv_rejects_ragged(self):
        with pytest.raises(ValidationError):
            db.Channel.from_csv("0.5,0.5\n1.0")

    def test_csv_rejects_a_non_numeric_line_after_the_header(self):
        with pytest.raises(ValidationError, match="non-numeric CSV entry on line 3"):
            db.Channel.from_csv("y0,y1\n0.5,0.5\n0.25,x\n")

    def test_pmf_rejects_a_table(self):
        with pytest.raises(ValidationError, match="pmf must be a nonempty 1-D sequence"):
            db.Pmf([[0.5, 0.5], [0.25, 0.75]])

    def test_pmf_size_and_length(self):
        p = db.Pmf([0.25, 0.25, 0.5])
        assert p.size == len(p) == 3
        assert type(p.size) is int

    def test_serializers_hold_floats_with_the_array_bits(self):
        rng = np.random.default_rng(20)
        ch = db.Channel(random_channel(rng, 3, 5))
        rows = ch.to_dict()["rows"]
        assert all(type(v) is float for row in rows for v in row)
        assert np.array(rows).tobytes() == ch.matrix.tobytes()
        p = db.Pmf(ch.matrix[0])
        probs = p.to_list()
        assert all(type(v) is float for v in probs)
        assert np.array(probs).tobytes() == p.probs.tobytes()
        rep = db.report(ch)
        out = rep.to_dict()
        assert list(out) == ["tau", "gamma", "tau_max", "gamma_max", "tau_max2", "eta_tv"]
        assert all(type(v) is float and v == getattr(rep, k) for k, v in out.items())

    @pytest.mark.parametrize(
        "bad_row, words",
        [
            ([0.5, 0.6], "entries sum to 1.1"),
            ([1.5, -0.5], "has a negative entry"),
            ([np.nan, 1.0], "contains non-finite entries"),
            ([np.inf, 0.0], "contains non-finite entries"),
            ([-np.inf, 1.0], "contains non-finite entries"),
        ],
    )
    def test_channel_names_first_bad_row(self, bad_row, words):
        # Row 3 fails as well; the first failing row is the one named.
        with pytest.raises(ValidationError, match=f"^channel row 2 {words}"):
            db.Channel([[0.5, 0.5], [0.25, 0.75], bad_row, [0.5, 0.6]])

    @pytest.mark.parametrize(
        "p, q, error",
        [
            ([1.0], [0.5, 0.5], db.AlphabetMismatchError),  # broadcast to 0.5 before
            ([2.0, 0.0], [0.5, 0.5], ValidationError),  # read as distance 1.0 before
            ([0.2, 0.3, 0.5], [0.5, 0.5], db.AlphabetMismatchError),
        ],
    )
    def test_tv_distance_validates_its_pair(self, p, q, error):
        with pytest.raises(error):
            db.tv_distance(p, q)

    def test_normalization_matches_rowwise_reference(self):
        # Rows off by up to 1e-11 and entries a little below zero are
        # clamped and renormalized exactly as one row at a time, whatever
        # the memory order of the input.
        rng = np.random.default_rng(2024)
        for trial in range(300):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 200))
            W = random_channel(rng, n, m) * (1.0 + rng.choice([-1e-11, 0.0, 1e-11], size=(n, 1)))
            for i in range(n):
                if m > 1 and rng.random() < 0.3:  # move one entry's mass, leaving -1e-13
                    j = int(rng.integers(m))
                    W[i, (j + 1) % m] += W[i, j] + 1e-13
                    W[i, j] = -1e-13
            if trial % 2:
                W = np.asfortranarray(W)
            assert np.array_equal(db.Channel(W).matrix, rowwise_normalized(W))


# ---------------------------------------------------------------------------
# Coefficients: frozen worked values
# ---------------------------------------------------------------------------


class TestCoefficients:
    def test_doeblin_worked(self):
        assert db.doeblin(W1) == pytest.approx(0.75, abs=1e-15)

    def test_doeblin_identity_is_zero(self):
        for n in (2, 3, 5):
            assert db.doeblin(np.eye(n)) == 0.0

    def test_doeblin_equal_rows_is_one(self):
        assert db.doeblin([[0.3, 0.7]] * 4) == pytest.approx(1.0, abs=1e-15)

    def test_max_doeblin_worked(self):
        assert db.max_doeblin(W1) == pytest.approx(1.25, abs=1e-15)
        assert db.max_doeblin([[0.3, 0.7]] * 4) == pytest.approx(1.0, abs=1e-15)
        assert db.max_doeblin(np.eye(4)) == 4.0

    def test_max2_worked(self):
        assert db.max2_doeblin(SYM08) == pytest.approx(1.2, abs=1e-12)
        assert db.max2_doeblin(db.erasure_channel(2, 0.3)) == pytest.approx(0.3, abs=1e-12)
        assert db.max2_doeblin(TRIO) == pytest.approx(0.9, abs=1e-12)

    def test_max2_ties_collapse_to_max(self):
        # Both rows tie at every column's maximum.
        assert db.max2_doeblin([[0.4, 0.6], [0.4, 0.6]]) == pytest.approx(1.0)

    def test_max2_rejects_single_row(self):
        with pytest.raises(ValidationError):
            db.max2_doeblin([[1.0]])

    def test_dobrushin_worked(self):
        assert db.dobrushin_tv(W1) == pytest.approx(0.25, abs=1e-15)
        assert db.dobrushin_tv([[0.3, 0.7]] * 3) == 0.0
        assert db.dobrushin_tv(np.eye(2)) == 1.0
        with pytest.raises(ValidationError):
            db.dobrushin_tv([[1.0]])

    def test_report_trio(self):
        rep = db.report(TRIO)
        assert rep.tau == pytest.approx(0.6, abs=1e-12)
        assert rep.tau_max == pytest.approx(1.5, abs=1e-12)
        assert rep.gamma_max == pytest.approx(0.25, abs=1e-12)
        assert rep.tau_max2 == pytest.approx(0.9, abs=1e-12)
        assert rep.gamma == pytest.approx(1 - rep.tau, abs=1e-15)
        assert rep.tau <= 1 - rep.eta_tv + 1e-12

    def test_report_maximum_minimums_identity(self):
        # tau_max = 3 - (tau_12 + tau_13 + tau_23) + tau for three rows.
        mats = np.asarray(TRIO)
        pair = lambda i, j: np.minimum(mats[i], mats[j]).sum()
        lhs = db.max_doeblin(TRIO)
        rhs = 3 - (pair(0, 1) + pair(0, 2) + pair(1, 2)) + db.doeblin(TRIO)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_report_trivial_cases(self):
        rep = db.report([[0.3, 0.7]] * 3)
        assert (rep.tau, rep.gamma, rep.tau_max, rep.gamma_max) == (1.0, 0.0, 1.0, 0.0)
        rep = db.report(np.eye(3))
        assert (rep.tau, rep.tau_max, rep.gamma_max) == (0.0, 3.0, 1.0)

    def test_report_rejects_single_row(self):
        with pytest.raises(ValidationError):
            db.report([[1.0]])


# ---------------------------------------------------------------------------
# Trace characterizations
# ---------------------------------------------------------------------------


class TestTrace:
    def test_min_trace_worked(self):
        res = db.min_trace(W1)
        assert res.value == pytest.approx(0.75, abs=1e-15)
        # Column 0 picks input 1 (0-based), column 1 picks input 0.
        assert res.kernel.matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        trace = float(np.trace(res.kernel.matrix @ np.asarray(W1)))
        assert abs(trace - res.value) <= 1e-12

    def test_max_trace_worked(self):
        res = db.max_trace(W1)
        assert res.value == pytest.approx(1.25, abs=1e-15)
        assert db.max_trace(np.eye(3)).value == 3.0

    def test_equal_rows(self):
        res = db.min_trace([[0.5, 0.5]] * 3)
        assert res.value == pytest.approx(1.0, abs=1e-15)

    def test_trace_against_generic_lp(self):
        # Independent check: solve min/max Tr(PW) as an explicit LP over the
        # row-stochastic polytope (variables P_jy, one simplex row per j).
        from doeblin import lp

        rng = np.random.default_rng(5)
        for _ in range(5):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            W = random_channel(rng, n, m)
            nvars = m * n
            obj = np.zeros(nvars)
            for j in range(m):
                for i in range(n):
                    obj[j * n + i] = W[i, j]
            rows = np.zeros((m, nvars))
            for j in range(m):
                rows[j, j * n : (j + 1) * n] = 1.0
            for sense, closed in (("min", db.min_trace), ("max", db.max_trace)):
                prob = lp.LpProblem(obj, rows, np.ones(m), sense)
                sol = lp.solve(prob)
                assert sol.value == pytest.approx(closed(W).value, abs=1e-9)


# ---------------------------------------------------------------------------
# Minorization split and erasure degradation
# ---------------------------------------------------------------------------


class TestMinorization:
    def test_split_worked(self):
        split = db.minorization_split(W1)
        assert split.alpha == pytest.approx(0.75, abs=1e-15)
        assert np.allclose(split.mu.probs, [1 / 3, 2 / 3], atol=1e-12)
        assert np.allclose(split.residual.matrix, np.eye(2), atol=1e-12)
        assert not split.degenerate

    def test_split_equal_rows(self):
        split = db.minorization_split([[0.2, 0.8]] * 3)
        assert split.alpha == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(split.mu.probs, [0.2, 0.8], atol=1e-12)
        assert split.degenerate

    def test_split_zero_overlap(self):
        split = db.minorization_split(np.eye(2))
        assert split.alpha == 0.0
        assert split.degenerate
        assert np.allclose(split.mu.probs, [0.5, 0.5])

    def test_split_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            W = random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 6)))
            s = db.minorization_split(W)
            rebuilt = s.alpha * s.mu.probs[None, :] + (1 - s.alpha) * s.residual.matrix
            assert np.abs(rebuilt - W).max() <= 1e-12
            assert np.all(W >= s.alpha * s.mu.probs[None, :] - 1e-12)

    def test_split_bits_match_reference(self):
        # Random channels, a fifth of them with all rows equal, plus the
        # zero-overlap identity: every field keeps the reference's bits.
        rng = np.random.default_rng(13)
        cases = [np.eye(3)]
        for _ in range(300):
            n, m = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            W = random_channel(rng, n, m)
            cases.append(np.tile(W[0], (n, 1)) if rng.random() < 0.2 else W)
        for W in cases:
            got, want = db.minorization_split(W), reference_minorization_split(W)
            assert got.alpha == want.alpha and got.degenerate == want.degenerate
            assert got.mu.probs.tobytes() == want.mu.probs.tobytes()
            assert got.residual.matrix.tobytes() == want.residual.matrix.tobytes()

    def test_degradation_near_identical_rows_at_tau(self):
        # At epsilon = tau near one, dividing by 1 - epsilon magnified the
        # rounding of W - epsilon * mu past the row-sum tolerance.
        W = [[0.5, 0.5], [0.5 + 1e-9, 0.5 - 1e-9]]
        tau = db.doeblin(W)
        deg = db.erasure_degradation(W, tau)
        E = db.erasure_channel(2, tau)
        assert np.abs(E.matrix @ deg.matrix - db.Channel(W).matrix).max() <= 1e-15
        rng = np.random.default_rng(14)
        for _ in range(200):
            p, d = rng.dirichlet(np.ones(4)), rng.normal(0.0, 1e-10, 4)
            W = db.Channel([p, p + (d - d.mean())])
            eps = db.doeblin(W)
            deg = db.erasure_degradation(W, eps)
            assert np.abs(db.erasure_channel(2, eps).matrix @ deg.matrix - W.matrix).max() <= 1e-12

    def test_degradation_at_zero(self):
        deg = db.erasure_degradation(W1, 0.0)
        assert np.allclose(deg.matrix[:2], W1)

    def test_degradation_of_identical_rows_at_one(self):
        # tau = epsilon = 1: the non-erased rows carry no mass and are uniform.
        W = [[0.25, 0.75]] * 3
        deg = db.erasure_degradation(W, 1.0)
        assert np.array_equal(deg.matrix[:3], np.full((3, 2), 0.5))
        assert np.array_equal(deg.matrix[3], [0.25, 0.75])

    def test_degradation_worked(self):
        deg = db.erasure_degradation(W1, 0.75)
        assert np.allclose(deg.matrix[-1], [1 / 3, 2 / 3], atol=1e-12)
        E = db.erasure_channel(2, 0.75)
        assert np.abs(E.matrix @ deg.matrix - np.asarray(W1)).max() <= 1e-12

    def test_degradation_roundtrip_random(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            W = random_channel(rng, n, m)
            eps = db.doeblin(W) / 2
            deg = db.erasure_degradation(W, eps)
            E = db.erasure_channel(n, eps)
            assert np.abs(E.matrix @ deg.matrix - W).max() <= 1e-12

    def test_degradation_infeasible(self):
        with pytest.raises(db.DegradationError):
            db.erasure_degradation(W1, 0.8)
        with pytest.raises(ValidationError):
            db.erasure_degradation(W1, -0.1)

    @pytest.mark.parametrize("r", [-1, 0, 2.5, True, "2", None])
    def test_erasure_channel_needs_a_positive_integer_input_count(self, r):
        with pytest.raises(ValidationError, match="positive integer input count"):
            db.erasure_channel(r, 0.5)

    @pytest.mark.parametrize("epsilon", ["0.1", None, True, [0.1], -0.1, 1.5, np.nan])
    def test_erasure_rate_must_be_a_number_in_the_unit_interval(self, epsilon):
        with pytest.raises(ValidationError, match="erasure probability"):
            db.erasure_channel(2, epsilon)
        with pytest.raises(ValidationError, match="erasure probability"):
            db.erasure_degradation(W1, epsilon)

    def test_numpy_scalars_are_accepted(self):
        assert db.erasure_channel(np.int64(2), np.float64(0.25)).matrix.tobytes() == (
            db.erasure_channel(2, 0.25).matrix.tobytes()
        )


# ---------------------------------------------------------------------------
# Channel algebra
# ---------------------------------------------------------------------------


class TestAlgebra:
    def test_compose_identity(self):
        assert np.allclose(db.compose(np.eye(2), W1).matrix, W1)

    def test_compose_bsc(self):
        assert np.allclose(db.compose(bsc(0.25), bsc(0.25)).matrix, bsc(0.375), atol=1e-12)

    def test_compose_mismatch(self):
        with pytest.raises(ValidationError):
            db.compose(W1, np.eye(3))

    def test_tensor_trivial(self):
        assert np.allclose(db.tensor(W1, [[1.0]]).matrix, W1)

    def test_tensor_tau(self):
        assert db.doeblin(db.tensor(W1, W1)) == pytest.approx(0.5625, abs=1e-12)

    def test_submultiplicativity_random(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            k, n, m = (int(rng.integers(2, 5)) for _ in range(3))
            V, W = random_channel(rng, k, n), random_channel(rng, n, m)
            lhs = 1 - db.doeblin(db.compose(V, W))
            rhs = (1 - db.doeblin(V)) * (1 - db.doeblin(W))
            assert lhs <= rhs + 1e-12

    def test_tensorization_random(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            W = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            V = random_channel(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            T = db.tensor(W, V)
            assert db.doeblin(T) == pytest.approx(db.doeblin(W) * db.doeblin(V), abs=1e-12)
            assert db.max_doeblin(T) == pytest.approx(
                db.max_doeblin(W) * db.max_doeblin(V), abs=1e-12
            )


# ---------------------------------------------------------------------------
# Property suites (hypothesis)
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(channels(min_n=2, min_m=1))
def test_normalization_bounds(rows):
    tau = db.doeblin(rows)
    gmax = (db.max_doeblin(rows) - 1) / (len(rows) - 1)
    assert -1e-12 <= tau <= 1 + 1e-12
    assert -1e-12 <= gmax <= 1 + 1e-12


@settings(max_examples=60, deadline=None)
@given(channels(min_n=2, min_m=2, max_n=3, max_m=4), st.floats(0, 1))
def test_concavity_convexity(rows, lam):
    rng = np.random.default_rng(0)
    other = random_channel(rng, len(rows), len(rows[0]))
    mix = lam * np.asarray(rows) + (1 - lam) * other
    assert db.doeblin(mix) >= lam * db.doeblin(rows) + (1 - lam) * db.doeblin(other) - 1e-12
    assert db.max_doeblin(mix) <= lam * db.max_doeblin(rows) + (1 - lam) * db.max_doeblin(other) + 1e-12


@settings(max_examples=60, deadline=None)
@given(channels(min_n=2, max_n=2, min_m=2, n=2))
def test_two_row_reduction(rows):
    p, q = np.asarray(rows)
    tv = db.tv_distance(p, q)
    assert db.doeblin(rows) == pytest.approx(1 - tv, abs=1e-12)
    assert db.max_doeblin(rows) == pytest.approx(1 + tv, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(channels(min_n=3, max_n=5, min_m=2, max_m=4))
def test_polyhedron_inequalities(rows):
    mats = np.asarray(rows)
    n = mats.shape[0] - 1  # first n rows vs the held-out last row
    head, extra = mats[:n], mats[n]
    gamma = lambda M: 1 - db.doeblin(M)
    gamma_max = lambda M: (db.max_doeblin(M) - 1) / (M.shape[0] - 1)
    for g in (gamma, gamma_max):
        lhs = (n - 1) * g(head)
        rhs = sum(
            g(np.vstack([np.delete(head, i, axis=0), extra[None, :]])) for i in range(n)
        )
        assert lhs <= rhs + 1e-12


@settings(max_examples=60, deadline=None)
@given(channels(min_n=2, min_m=2))
def test_tau_below_one_minus_eta(rows):
    assert db.doeblin(rows) <= 1 - db.dobrushin_tv(rows) + 1e-12


def test_monotonicity_random():
    rng = np.random.default_rng(15)
    for _ in range(100):
        k, n, m = (int(rng.integers(2, 5)) for _ in range(3))
        V, W = random_channel(rng, k, n), random_channel(rng, n, m)
        tm = db.max_doeblin(db.compose(V, W))
        assert tm <= min(db.max_doeblin(V), db.max_doeblin(W)) + 1e-12


def test_exp_mutual_information_bound():
    rng = np.random.default_rng(16)
    for _ in range(100):
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        W = random_positive_channel(rng, n, m)
        px = random_pmf_positive(rng, n)
        joint = px[:, None] * W
        assert db.max_doeblin(W) >= np.exp(mutual_information_nats(joint)) - 1e-9


def random_pmf_positive(rng, n):
    p = rng.dirichlet(np.ones(n)) + 0.05
    return p / p.sum()


def test_tau_one_iff_equal_rows():
    rng = np.random.default_rng(17)
    for _ in range(50):
        W = random_channel(rng, 3, 4)
        equal = np.abs(W - W[0]).max() <= 1e-12
        assert (db.doeblin(W) >= 1 - 1e-12) == equal
    assert db.doeblin([[0.25, 0.75]] * 5) == pytest.approx(1.0)


def test_tau_zero_iff_column_zeros():
    rng = np.random.default_rng(18)
    for _ in range(50):
        W = random_channel(rng, 2, 4).copy()
        # Zero out one entry per column, alternating rows so both keep mass.
        for j in range(4):
            W[j % 2, j] = 0.0
        W = W / W.sum(axis=1, keepdims=True)
        assert db.doeblin(W) == 0.0
        assert np.all(W.min(axis=0) == 0.0)


def test_gamma_max_one_iff_disjoint():
    disjoint = [[0.7, 0.3, 0, 0], [0, 0, 0.4, 0.6]]
    assert db.max_doeblin(disjoint) == pytest.approx(2.0, abs=1e-15)
    overlapping = [[0.7, 0.3, 0, 0], [0, 0.1, 0.4, 0.5]]
    assert db.max_doeblin(overlapping) < 2.0
