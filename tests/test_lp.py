"""Simplex solver unit tests and oracle cross-checks against closed forms."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import doeblin as db
from doeblin import ExpansionCapError, InfeasibilityError, ValidationError, lp

from helpers import (
    random_pmf,
    reference_coupling_opt,
    reference_simplex,
    table_diag_mass,
    table_union_mass,
)

TRIO = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
SYM08 = [[0.2, 0.4, 0.4], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]]
# Zero last cells: dropping the last symbol's row of the second family made
# the exact program infeasible by the gap between the two rows' totals.
ZERO_TAIL = [[4 / 7, 0.0, 3 / 7, 0.0], [1 / 6, 2 / 3, 1 / 6, 0.0]]

# The objectives of lp.coupling_diag_opt and lp.coupling_union_opt, one tuple
# at a time: the independent reference for their grid forms.
TUPLE_OBJECTIVES = {
    "diag": lambda t: 1.0 if len(set(t)) == 1 else 0.0,
    "union": lambda t: float(len(set(t))),
}


class TestSimplex:
    def test_known_min(self):
        # min x + y  s.t.  x + 2y = 4  ->  (0, 2)
        prob = lp.LpProblem(np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([4.0]), "min")
        sol = lp.solve(prob)
        assert sol.value == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(sol.x, [0.0, 2.0])

    def test_known_max(self):
        prob = lp.LpProblem(np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([4.0]), "max")
        sol = lp.solve(prob)
        assert sol.value == pytest.approx(4.0, abs=1e-12)
        assert np.allclose(sol.x, [4.0, 0.0])

    def test_negative_rhs_handled(self):
        # -x - 2y = -4 is the same feasible set as above.
        prob = lp.LpProblem(np.array([1.0, 1.0]), np.array([[-1.0, -2.0]]), np.array([-4.0]), "min")
        assert lp.solve(prob).value == pytest.approx(2.0, abs=1e-12)

    def test_infeasible(self):
        prob = lp.LpProblem(np.array([1.0]), np.array([[-1.0]]), np.array([1.0]), "min")
        with pytest.raises(InfeasibilityError):
            lp.solve(prob)

    def test_unbounded(self):
        # max x + y with only x - y = 0.
        prob = lp.LpProblem(np.array([1.0, 1.0]), np.array([[1.0, -1.0]]), np.array([0.0]), "max")
        with pytest.raises(InfeasibilityError):
            lp.solve(prob)

    def test_redundant_constraint(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        prob = lp.LpProblem(np.array([1.0, 1.0]), A, np.array([4.0, 8.0]), "min")
        assert lp.solve(prob).value == pytest.approx(2.0, abs=1e-12)

    def test_duality_and_duals(self):
        prob = lp.LpProblem(np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([4.0]), "min")
        sol = lp.solve(prob)
        assert sol.duality_gap <= 1e-10
        # dual: max 4y with y <= 1, 2y <= 1 -> y = 1/2.
        assert sol.duals[0] == pytest.approx(0.5, abs=1e-12)

    def test_exact_mode_matches_float(self):
        res_f = lp.coupling_union_opt(SYM08, "min")
        res_x = lp.coupling_union_opt(SYM08, "min", exact=True)
        assert res_x.value == pytest.approx(res_f.value, abs=1e-12)
        assert res_x.duality_gap == 0.0


class TestProblemInput:
    def test_plain_lists_accepted(self):
        prob = lp.LpProblem([1, 1], [[1, 2]], [4], "min")
        assert prob.eq_matrix.dtype == np.float64
        assert lp.solve(prob).value == pytest.approx(2.0, abs=1e-12)

    def test_nan_objective_rejected(self):
        with pytest.raises(ValidationError, match="objective contains non-finite"):
            lp.LpProblem(np.array([np.nan, 1.0]), np.array([[1.0, 2.0]]), np.array([4.0]), "min")

    def test_nan_rhs_rejected(self):
        with pytest.raises(ValidationError, match="eq_rhs contains non-finite"):
            lp.LpProblem(np.array([1.0, 1.0]), np.array([[1.0, 2.0]]), np.array([np.nan]), "min")

    def test_infinite_matrix_rejected(self):
        # Exact mode used to fail inside Fraction with a bare OverflowError.
        with pytest.raises(ValidationError, match="eq_matrix contains non-finite"):
            lp.LpProblem(np.array([1.0, 1.0]), np.array([[np.inf, 2.0]]), np.array([4.0]), "min")

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValidationError, match="not a numeric table"):
            lp.LpProblem([1.0, 1.0], [[1.0, 2.0], [1.0]], [4.0, 4.0], "min")

    def test_complex_objective_rejected(self):
        with pytest.raises(ValidationError, match="^LP objective is not a numeric table: entries of type complex128"):
            lp.LpProblem([1 + 1j], [[1.0]], [1.0], "min")

    def test_one_dimensional_matrix_rejected(self):
        with pytest.raises(ValidationError, match="two-dimensional"):
            lp.LpProblem([1.0, 1.0], [1.0, 2.0], [4.0], "min")

    @pytest.mark.parametrize(
        "objective, rhs",
        [([1.0, 1.0, 1.0], [4.0]), ([1.0, 1.0], [4.0, 4.0]), ([[1.0, 1.0]], [4.0])],
    )
    def test_inconsistent_dimensions_rejected(self, objective, rhs):
        with pytest.raises(ValidationError, match="LP dimensions are inconsistent"):
            lp.LpProblem(objective, [[1.0, 2.0]], rhs, "min")

    @pytest.mark.parametrize("exact", [False, True])
    def test_iteration_cap_raises(self, monkeypatch, exact):
        # Any program that needs a pivot passes a cap of zero pivots.
        monkeypatch.setattr(lp, "_MAX_ITER", 0)
        monkeypatch.setattr(lp, "_phase1", (None, None))
        prob = lp.LpProblem([1.0, 1.0], [[1.0, 2.0]], [4.0], "min")
        with pytest.raises(InfeasibilityError, match="simplex iteration cap exceeded"):
            lp.solve(prob, exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "k, nv, message",
        [
            (3200, 1, "LP tableau would need 10249602 cells (cap 10000000)"),
            (1, 100_001, "LP would need 100001 variables (cap 100000)"),
        ],
    )
    def test_size_caps_raise_before_the_tableau(self, k, nv, message, exact):
        prob = lp.LpProblem(np.ones(nv), np.ones((k, nv)), np.ones(k), "min")
        _assert_raises_lean(lambda: lp.solve(prob, exact=exact), message)


def _assert_raises_lean(call, message):
    """``call`` raises ExpansionCapError with ``message`` and allocates less
    than 10 MB on the way."""
    tracemalloc.start()
    try:
        with pytest.raises(ExpansionCapError) as raised:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == message
    assert peak < 10e6


def _assert_same_solution(got, want):
    """Bit-for-bit equality of two LpSolutions."""
    assert got.iterations == want.iterations
    for field in ("value", "max_residual", "duality_gap", "dual_feasibility_margin"):
        assert getattr(got, field).hex() == getattr(want, field).hex(), field
    assert got.x.dtype == want.x.dtype and got.x.tobytes() == want.x.tobytes()
    assert got.duals.dtype == want.duals.dtype and got.duals.tobytes() == want.duals.tobytes()


def _assert_certified(sol):
    """An exact optimum satisfies its certificates without rounding."""
    assert sol.duality_gap == 0.0
    assert sol.max_residual == 0.0
    assert sol.dual_feasibility_margin >= 0.0


def _assert_matches_reference(prob, exact):
    """Same bits as the reference, or the same error with the same message;
    an exact optimum must also certify itself."""
    try:
        want = reference_simplex(prob, exact=exact)
    except InfeasibilityError as exc:
        with pytest.raises(type(exc)) as raised:
            lp.solve(prob, exact=exact)
        assert str(raised.value) == str(exc)
        return
    got = lp.solve(prob, exact=exact)
    _assert_same_solution(got, want)
    if exact:
        _assert_certified(got)


@st.composite
def integer_weight_rows(draw, min_n=2, max_n=4, min_m=2, max_m=4):
    """Rows from small integer weights, so that ties and zero cells occur."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(min_m, max_m))
    rows = [
        draw(st.lists(st.integers(0, 4), min_size=m, max_size=m).filter(lambda w: sum(w) > 0))
        for _ in range(n)
    ]
    return np.array([[w / sum(row) for w in row] for row in rows])


class TestPivotsMatchReference:
    """``lp.solve`` takes the same pivots as the row-loop tableau in
    ``helpers.reference_simplex`` and returns the same bits."""

    @settings(max_examples=30, deadline=None)
    @given(integer_weight_rows(), st.sampled_from(["diag", "union"]), st.sampled_from(["min", "max"]))
    def test_coupling_programs(self, mats, kind, sense):
        n, m = mats.shape
        prob = _coupling_prob(mats, kind, sense)
        _assert_matches_reference(prob, exact=False)
        if m**n <= 81:
            _assert_matches_reference(prob, exact=True)

    @settings(max_examples=30, deadline=None)
    @given(integer_weight_rows(max_n=5, max_m=5), st.sampled_from(["min", "max"]), st.booleans())
    def test_estimator_programs(self, W, sense, exact):
        n, m = W.shape
        prob = lp.LpProblem(W.T.reshape(-1), np.kron(np.eye(m), np.ones(n)), np.ones(m), sense)
        _assert_matches_reference(prob, exact)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "objective, matrix, rhs, sense",
        [
            ([1.0, 1.0], [[-1.0, -2.0]], [-4.0], "min"),  # negative right-hand side
            ([1.0, 1.0], [[1.0, 2.0], [2.0, 4.0]], [4.0, 8.0], "min"),  # redundant row
            # degenerate: a zero right-hand side gives a zero-ratio pivot
            ([1.0, 2.0, 0.0], [[1.0, 1.0, 1.0], [1.0, -1.0, 0.0], [2.0, 0.0, 1.0]], [2.0, 0.0, 2.0], "max"),
            ([1.0], [[-1.0]], [1.0], "min"),  # infeasible
            ([1.0, 1.0], [[1.0, -1.0]], [0.0], "max"),  # unbounded
            # The drive-out pivots on -1, so the pivot row holds -0.0 and x[0]
            # is -0.0: updating the pivot row too (by a zero factor) reads +0.0.
            ([-1.0, 1.0], [[-1.0, 0.0], [2.0, 2.0]], [0.0, 1.0], "min"),
            # Row 1 is zero in a later pivot column and keeps its -0.0: a
            # full-width update of every row there gives x[1] = +0.0.
            ([-2.0, -2.0, -1.0], [[2.0, 0.0, 2.0], [0.0, -1.0, 0.0]], [2.0, 0.0], "max"),
        ],
    )
    def test_edge_cases(self, objective, matrix, rhs, sense, exact):
        prob = lp.LpProblem(np.array(objective), np.array(matrix), np.array(rhs), sense)
        _assert_matches_reference(prob, exact)

    @pytest.mark.parametrize(
        "n, m, exact",
        [
            pytest.param(4, 4, False, id="4-4"),
            pytest.param(3, 6, False, id="3-6"),
            pytest.param(5, 3, False, id="5-3"),
            pytest.param(3, 3, True, id="3-3-exact"),
        ],
    )
    def test_dirichlet_families(self, n, m, exact):
        # Real-valued marginals at the float and exact shapes of the
        # benchmark's lp_oracle workload; the hypothesis rows above hold small
        # integer weights only.
        rng = np.random.default_rng([n, m])
        for _ in range(3):
            mats = rng.dirichlet(np.ones(m), size=n)
            for kind, sense in (("diag", "max"), ("union", "min")):
                _assert_matches_reference(_coupling_prob(mats, kind, sense), exact=exact)

    def test_float_pivot_keeps_zero_rows(self):
        # Row 1 is zero in the pivot column and holds -0.0 in an artificial
        # column and in the right-hand side, where the pivot row is negative:
        # a plain full-width update would make both +0.0 (-0.0 - (0.0 * -1.0)).
        T = np.array([
            [2.0, 1.0, -1.0, 4.0, -2.0],
            [0.0, 3.0, -0.0, 0.0, -0.0],
            [1.0, -2.0, 0.5, 1.0, 3.0],
            [-1.0, 0.5, 0.0, 0.0, -1.0],
        ])
        want = T.copy()
        for i in range(len(T)):
            if i != 0 and T[i, 0] != 0:
                want[i] = T[i] - T[i, 0] * (T[0] / T[0, 0])
        want[0] = T[0] / T[0, 0]
        got, d = lp._Float.pivot(T.copy(), 1, 0, 0)
        assert d == 1 and got.tobytes() == want.tobytes()
        assert np.signbit(got[1, [2, 4]]).all()


def _coupling_prob(mats, kind, sense):
    n, m = mats.shape
    tuples = list(itertools.product(range(m), repeat=n))
    objective = np.array([TUPLE_OBJECTIVES[kind](t) for t in tuples])
    return lp._coupling_program(mats, np.array(tuples), objective, sense)


def _phase1_key(prob, exact=False):
    return (exact, prob.eq_matrix.shape, prob.eq_matrix.tobytes(), prob.eq_rhs.tobytes())


class TestPhaseOneMemo:
    """``lp.solve`` keeps the last phase 1 it solved, with its mode, and
    reuses it for the next program with the same constraints in the same
    mode; every solve still matches ``helpers.reference_simplex`` bit for
    bit."""

    def test_diag_then_union_reuses_phase_one(self):
        diag = _coupling_prob(np.array(TRIO), "diag", "max")
        union = _coupling_prob(np.array(TRIO), "union", "min")
        _assert_matches_reference(diag, exact=False)
        assert lp._phase1[0] == _phase1_key(union)  # the union solve is a hit
        _assert_matches_reference(union, exact=False)

    def test_exact_diag_then_union_reuses_phase_one(self):
        diag = _coupling_prob(np.array(TRIO), "diag", "max")
        union = _coupling_prob(np.array(TRIO), "union", "min")
        _assert_matches_reference(diag, exact=True)
        assert lp._phase1[0] == _phase1_key(union, exact=True)  # the union solve is a hit
        _assert_matches_reference(union, exact=True)

    @pytest.mark.parametrize("first", [False, True])
    def test_modes_never_share_phase_one(self, first):
        prob = _coupling_prob(np.array(TRIO), "union", "min")
        _assert_matches_reference(prob, exact=first)
        _assert_matches_reference(prob, exact=not first)
        assert lp._phase1[0] == _phase1_key(prob, exact=not first)

    def test_no_state_leaks_between_objectives(self):
        c1 = _coupling_prob(np.array(SYM08), "union", "min")
        c2 = _coupling_prob(np.array(SYM08), "diag", "max")
        first = lp.solve(c1)
        _assert_same_solution(first, reference_simplex(c1))
        _assert_same_solution(lp.solve(c2), reference_simplex(c2))
        _assert_same_solution(lp.solve(c1), first)

    def test_same_matrix_other_rhs_misses(self):
        p = _coupling_prob(np.array(TRIO), "diag", "max")
        q = _coupling_prob(np.array(SYM08), "diag", "max")
        assert p.eq_matrix.tobytes() == q.eq_matrix.tobytes()
        _assert_matches_reference(p, exact=False)
        _assert_matches_reference(q, exact=False)
        assert lp._phase1[0] == _phase1_key(q)

    def test_equal_bytes_other_shape_misses(self):
        # Equal right-hand sides fix the row count, so only a matrix without
        # rows has the bytes of another shape: here no bytes at all.
        narrow = lp.LpProblem(np.array([1.0, 2.0]), np.zeros((0, 2)), np.zeros(0), "min")
        wide = lp.LpProblem(np.array([1.0, 2.0, 3.0]), np.zeros((0, 3)), np.zeros(0), "min")
        _assert_matches_reference(narrow, exact=False)
        _assert_matches_reference(wide, exact=False)

    def test_infeasible_raises_twice(self):
        prob = lp.LpProblem(np.array([1.0]), np.array([[-1.0]]), np.array([1.0]), "min")
        for _ in range(2):
            with pytest.raises(InfeasibilityError, match=re.escape("LP infeasible (phase-1 objective 1.0)")):
                lp.solve(prob)
        assert lp._phase1[0] != _phase1_key(prob)
        _assert_matches_reference(prob, exact=False)


class TestDualMargin:
    def test_signed_zero_margin(self):
        """A zero dual-feasibility margin keeps the sign of the first minimal
        reduced cost, as the builtin ``min`` does; both signed zeros occur
        among the reduced costs of this program."""
        mats = np.array([[2.0, 3.0, 1.0], [1.0, 2.0, 3.0]]) / 6.0
        prob = _coupling_prob(mats, "diag", "max")
        _assert_matches_reference(prob, exact=False)
        assert lp.solve(prob).dual_feasibility_margin == 0.0


def _assert_rows_match_per_symbol_masks(mats):
    """The broadcast build writes the rows of one mask per (i, y); each
    family after the first drops the row of its last positive symbol."""
    n, m = mats.shape
    coords = np.array(list(itertools.product(range(m), repeat=n)))
    rows, rhs = [], []
    for i in range(n):
        dropped = None if i == 0 else max(y for y in range(m) if mats[i, y] > 0)
        for y in range(m):
            if y == dropped:
                continue
            row = np.zeros(len(coords))
            row[coords[:, i] == y] = 1.0
            rows.append(row)
            rhs.append(mats[i, y])
    prob = lp._coupling_program(mats, coords, np.zeros(len(coords)), "max")
    assert prob.eq_matrix.tobytes() == np.array(rows).tobytes()
    assert prob.eq_matrix.shape == (n * m - n + 1, m**n)
    assert prob.eq_rhs.tobytes() == np.array(rhs).tobytes()


class TestCouplingProgram:
    SHAPES = [(2, 2), (2, 5), (3, 3), (4, 2), (5, 3)]

    def test_rows_match_per_symbol_masks(self):
        rng = np.random.default_rng(25)
        for n, m in self.SHAPES:
            _assert_rows_match_per_symbol_masks(np.stack([random_pmf(rng, m) for _ in range(n)]))

    def test_zero_last_cells_keep_their_rows(self):
        # Rows 1, 3, ... end in zero cells; at m = 2 they become [1, 0].
        rng = np.random.default_rng(26)
        for n, m in self.SHAPES:
            mats = np.stack([random_pmf(rng, m) for _ in range(n)])
            mats[1::2, max(1, m - 2):] = 0.0
            _assert_rows_match_per_symbol_masks(mats / mats.sum(axis=1, keepdims=True))

    @pytest.mark.parametrize("kind", ["diag", "union"])
    @pytest.mark.parametrize("sense", ["min", "max"])
    def test_zero_tail_exact_is_feasible(self, kind, sense):
        fn = lp.coupling_diag_opt if kind == "diag" else lp.coupling_union_opt
        res = fn(ZERO_TAIL, sense, exact=True)
        _assert_certified(res.solution)
        assert res.value == pytest.approx(fn(ZERO_TAIL, sense).value, abs=1e-12)
        if kind == "diag" and sense == "max":
            assert res.value == pytest.approx(db.doeblin(ZERO_TAIL), abs=1e-12)


def _assert_same_oracle(got, want):
    """Bit-for-bit equality of two OracleResults, witness key order included."""
    for field in ("value", "max_marginal_residual", "min_mass", "duality_gap"):
        assert getattr(got, field).hex() == getattr(want, field).hex(), field
    assert list(got.witness) == list(want.witness)
    assert all(type(s) is int for key in got.witness for s in key)
    assert all(type(v) is float for v in got.witness.values())
    assert [v.hex() for v in got.witness.values()] == [v.hex() for v in want.witness.values()]
    _assert_same_solution(got.solution, want.solution)


@st.composite
def oracle_cases(draw):
    """``(family, exact)`` within 81 variables for exact mode and 1024 for
    float: integer-weight rows (ties and zero cells) or Dirichlet rows."""
    exact = draw(st.booleans())
    n = draw(st.integers(2, 5))
    m = draw(st.integers(2, max(k for k in range(2, 6) if k**n <= (81 if exact else 1024))))
    if draw(st.booleans()):
        return draw(integer_weight_rows(n, n, m, m)), exact
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).dirichlet(np.ones(m), size=n), exact


class TestGridOracle:
    """``lp.coupling_opt`` builds its objective, witness and marginal
    residual from one tuple grid; ``helpers.reference_coupling_opt`` does
    it one tuple at a time, and every field must agree bit for bit."""

    @pytest.mark.parametrize("kind", sorted(TUPLE_OBJECTIVES))
    def test_grid_objectives_match_tuple_formulas(self, kind):
        objective = lp._all_equal if kind == "diag" else lp._distinct_count
        for n in range(1, 6):
            for m in range(1, 6):
                grid = np.indices((m,) * n).reshape(n, -1).T
                want = [TUPLE_OBJECTIVES[kind](t) for t in itertools.product(range(m), repeat=n)]
                assert grid.tolist() == [list(t) for t in itertools.product(range(m), repeat=n)]
                assert np.asarray(objective(grid), dtype=np.float64).tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(oracle_cases(), st.sampled_from(["diag", "union"]), st.sampled_from(["min", "max"]))
    def test_fields_match_reference(self, case, kind, sense):
        mats, exact = case
        fn = lp.coupling_diag_opt if kind == "diag" else lp.coupling_union_opt
        try:
            want = reference_coupling_opt(mats, TUPLE_OBJECTIVES[kind], sense, exact=exact)
        except InfeasibilityError as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                fn(mats, sense, exact=exact)
            return
        _assert_same_oracle(fn(mats, sense, exact=exact), want)

    def test_custom_objective_called_once_on_grid(self):
        calls = []

        def objective(grid):
            calls.append(grid.copy())
            return grid[:, 0] - grid[:, 1]

        res = lp.coupling_opt(TRIO, objective, "max")
        want = reference_coupling_opt(TRIO, lambda t: t[0] - t[1], "max")
        _assert_same_oracle(res, want)
        assert len(calls) == 1
        assert calls[0].tolist() == [list(t) for t in itertools.product(range(3), repeat=3)]

    @pytest.mark.parametrize("mutate", [
        lambda grid: grid.__ifloordiv__(2),
        lambda grid: grid.sort(axis=1),
        lambda grid: grid.__setitem__((0, 0), 1),
    ], ids=["floordiv", "sort", "setitem"])
    def test_objective_cannot_write_grid(self, mutate):
        def objective(grid):
            mutate(grid)
            return grid[:, 0] - grid[:, 1]

        with pytest.raises(ValueError, match="read-only"):
            lp.coupling_opt(TRIO, objective, "max")


# Decimal fractions such as 0.1 have denominators up to 2**55.
_ENTRIES = st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.1, -0.3, 0.5, 0.7, -2.5])


@st.composite
def general_programs(draw):
    """Small programs with fractional and negative entries, negative and zero
    right-hand sides, and sometimes a duplicated row; half of them get a
    right-hand side ``A @ x`` with ``x >= 0``, so that they are feasible."""
    k = draw(st.integers(1, 4))
    nv = draw(st.integers(1, 5))
    A = np.array([draw(st.lists(_ENTRIES, min_size=nv, max_size=nv)) for _ in range(k)])
    if draw(st.booleans()):
        b = A @ np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 0.1]), min_size=nv, max_size=nv)))
    else:
        b = np.array(draw(st.lists(_ENTRIES, min_size=k, max_size=k)))
    if k >= 2 and draw(st.booleans()):
        A[-1], b[-1] = A[0], b[0]
    c = np.array(draw(st.lists(_ENTRIES, min_size=nv, max_size=nv)))
    return lp.LpProblem(c, A, b, draw(st.sampled_from(["min", "max"])))


class TestExactMode:
    """``lp.solve`` in both modes against ``helpers.reference_simplex``
    beyond 0/1 matrices: negative entries and zero right-hand sides make the
    signed zeros that a float pivot must keep in rows it leaves alone."""

    @pytest.mark.parametrize("exact", [False, True])
    @settings(max_examples=200, deadline=None)
    @given(prob=general_programs())
    # Found by drawing: the drive-out pivots on -1, so x[1] is -0.0 in row 2,
    # which is -0.0 in the next pivot column; updating it there too reads +0.0.
    @example(prob=lp.LpProblem(
        np.array([0.0, 0.0, 0.0, 1.0]),
        np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [0.0, -1.0, 0.0, 0.0]]),
        np.zeros(3),
        "max",
    ))
    def test_general_programs(self, prob, exact):
        _assert_matches_reference(prob, exact=exact)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize(
        "objective, matrix, rhs, sense, outcome",
        [
            ([1.0, 2.0], np.zeros((0, 2)), [], "min", 0.0),  # no constraints: x = 0
            ([1.0, 2.0], np.zeros((0, 2)), [], "max", "LP is unbounded"),
            ([], np.zeros((2, 0)), [0.0, 0.0], "max", 0.0),  # no variables, zero rhs
            ([], np.zeros((2, 0)), [1.0, 0.0], "min", "LP infeasible (phase-1 objective 1.0)"),
            ([], np.zeros((0, 0)), [], "min", 0.0),
        ],
    )
    def test_empty_dimensions(self, objective, matrix, rhs, sense, outcome, exact):
        prob = lp.LpProblem(np.array(objective), matrix, np.array(rhs), sense)
        _assert_matches_reference(prob, exact)
        if isinstance(outcome, str):
            with pytest.raises(InfeasibilityError, match=re.escape(outcome)):
                lp.solve(prob, exact=exact)
        else:
            assert lp.solve(prob, exact=exact).value == outcome


class TestCouplingOracle:
    def test_diag_two_rows_is_one_minus_tv(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            p, q = random_pmf(rng, 4), random_pmf(rng, 4)
            res = lp.coupling_diag_opt([p, q], "max")
            assert res.value == pytest.approx(1 - db.tv_distance(p, q), abs=1e-9)

    def test_diag_trio(self):
        res = lp.coupling_diag_opt(TRIO, "max")
        assert res.value == pytest.approx(0.6, abs=1e-9)

    def test_diag_identical(self):
        p = [0.2, 0.3, 0.5]
        res = lp.coupling_diag_opt([p, p, p], "max")
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_union_two_rows_is_one_plus_tv(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            p, q = random_pmf(rng, 3), random_pmf(rng, 3)
            res = lp.coupling_union_opt([p, q], "min")
            assert res.value == pytest.approx(1 + db.tv_distance(p, q), abs=1e-9)

    def test_union_supercritical_trio(self):
        res = lp.coupling_union_opt(SYM08, "min")
        assert res.value == pytest.approx(1.4, abs=1e-9)

    def test_union_identical(self):
        p = [0.2, 0.3, 0.5]
        res = lp.coupling_union_opt([p, p, p], "min")
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_witness_feasible(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            pmfs = [random_pmf(rng, m) for _ in range(n)]
            res = lp.coupling_diag_opt(pmfs, "max")
            assert res.max_marginal_residual < 1e-9
            assert res.min_mass >= -1e-12
            assert res.duality_gap <= 1e-8
            assert res.solution.dual_feasibility_margin >= -1e-8

    def test_witness_objective_consistent(self):
        res = lp.coupling_diag_opt(TRIO, "max")
        assert table_diag_mass(res.witness) == pytest.approx(res.value, abs=1e-9)
        res = lp.coupling_union_opt(TRIO, "min")
        assert table_union_mass(res.witness) == pytest.approx(res.value, abs=1e-9)

    def test_size_cap(self):
        pmfs = [np.full(10, 0.1)] * 6  # 10^6 variables
        with pytest.raises(ExpansionCapError, match="cap 100000"):
            lp.coupling_diag_opt(pmfs, "max")

    def test_tableau_cap(self):
        # 99,856 variables, under the variable cap, but 631 rows: a dense
        # 632 x 100,488 tableau of about 508 MB.
        pmfs = [np.full(316, 1 / 316)] * 2
        message = "coupling LP tableau would need 63508416 cells (cap 10000000)"
        _assert_raises_lean(lambda: lp.coupling_union_opt(pmfs, "min"), message)

    def test_single_marginal_rejected(self):
        with pytest.raises(ValidationError):
            lp.coupling_diag_opt([[0.5, 0.5]], "max")


class TestEstimatorOracle:
    def test_worked(self):
        W1 = [[0.5, 0.5], [0.25, 0.75]]
        value, kernel = lp.estimator_opt(W1, "min")
        assert value == pytest.approx(0.375, abs=1e-12)
        assert kernel.shape == (2, 2)
        value, _ = lp.estimator_opt(W1, "max")
        assert value == pytest.approx(0.625, abs=1e-12)

    def test_equal_rows(self):
        W = [[0.3, 0.7]] * 4
        lo, _ = lp.estimator_opt(W, "min")
        hi, _ = lp.estimator_opt(W, "max")
        assert lo == pytest.approx(0.25, abs=1e-12)
        assert hi == pytest.approx(0.25, abs=1e-12)

    def test_matches_trace_over_random(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            W = np.stack([random_pmf(rng, m) for _ in range(n)])
            lo, lo_kernel = lp.estimator_opt(W, "min")
            hi, hi_kernel = lp.estimator_opt(W, "max")
            assert lo == pytest.approx(db.doeblin(W) / n, abs=1e-12)
            assert hi == pytest.approx(db.max_doeblin(W) / n, abs=1e-12)
            # The LP's kernels attain the values they come with.
            assert np.trace(lo_kernel @ W) / n == pytest.approx(lo, abs=1e-12)
            assert np.trace(hi_kernel @ W) / n == pytest.approx(hi, abs=1e-12)

    def test_exact_mode_attains_closed_form(self):
        W1 = [[0.5, 0.5], [0.25, 0.75]]
        value, kernel = lp.estimator_opt(W1, "min", exact=True)
        assert value == db.doeblin(W1) / 2
        assert np.trace(kernel @ np.array(W1)) / 2 == value

    def test_size_cap(self):
        W = np.zeros((400, 300))
        W[:, 0] = 1.0  # 120,000 variables
        with pytest.raises(ExpansionCapError, match="estimator LP would need 120000 variables"):
            lp.estimator_opt(W, "min")

    def test_tableau_cap(self):
        # 100,000 variables and 1,000 rows: a 1,001 x 101,001 tableau of about 809 MB.
        W = np.full((100, 1000), 1e-3)
        message = "estimator LP tableau would need 101102001 cells (cap 10000000)"
        _assert_raises_lean(lambda: lp.estimator_opt(W, "min"), message)

    def test_rejects_unknown_sense(self):
        with pytest.raises(db.ValidationError):
            lp.estimator_opt([[0.5, 0.5], [0.25, 0.75]], "mid")
