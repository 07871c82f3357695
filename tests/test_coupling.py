"""Coupling-engine tests: constructions, their optimality, and verification."""

import copy
import dataclasses
import itertools
import json
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import doeblin as db
from doeblin import CouplingConditionError, ExpansionCapError, lp
from doeblin.coupling import DEFAULT_EXPANSION_CAP, minimal_union_mass

from helpers import (
    DenseCoupling,
    dense_view,
    dobrushin_table,
    feasible_minimal_instance,
    joint_coupling_table,
    max2_of,
    minimal_n3_components,
    random_pmf,
    reference_minimal_coupling_max,
    reference_mixture,
    supercritical_trio,
    table_diag_mass,
    table_from_components,
    table_intersection_mass,
    table_marginal,
    table_orthogonal,
    table_union_mass,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"
TRIO = [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]
# tau_max2 is one exactly but 1 + 2**-52 in floats; rows 1 and 2 are never a
# strict column maximum, so the components leaving them free are dropped.
BOUNDARY = [[1.0, 0.0, 0.0, 0.0, 0.0]] + [[x / 13 for x in (1, 3, 3, 3, 3)]] * 2
SYM08 = [[0.2, 0.4, 0.4], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]]


@st.composite
def pmf_families(draw, min_n=2, max_n=4, min_m=2, max_m=4):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(min_m, max_m))
    fam = []
    for _ in range(n):
        w = draw(
            st.lists(st.integers(0, 100), min_size=m, max_size=m).filter(lambda xs: sum(xs) > 0)
        )
        total = sum(w)
        fam.append([x / total for x in w])
    return fam


@st.composite
def supercritical_integer_trios(draw):
    """Three PMFs from small integer weights, so ties and zeros occur, with
    tau_max2 above one by construction.

    Every row totals sum(c) for a drawn base c.  Row i moves some units off
    its own symbol onto the other symbols; rows 0 and 1 move at least one
    unit each, and give one of them to symbol 2.  Each
    column's second-largest weight is then at least c_y, and symbol 2's is at
    least c_2 + 1, so tau_max2 >= 1 + 1 / sum(c).  A drawn permutation of the
    symbols places the light and the shared columns anywhere."""
    m = draw(st.integers(3, 5))
    c = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
    c[0], c[1] = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    perm = draw(st.permutations(range(m)))
    fam = []
    for i in range(3):
        w = list(c)
        moved = draw(st.integers(1 if i < 2 else 0, c[i]))
        w[i] -= moved
        if i < 2:
            w[2] += 1
            moved -= 1
        for _ in range(moved):
            w[draw(st.sampled_from([y for y in range(m) if y != i]))] += 1
        fam.append([w[y] / sum(w) for y in perm])
    return fam


@st.composite
def dirichlet_families(draw):
    """Two to five Dirichlet(0.5) rows on two to six symbols: tau_max2 lands on
    both sides of one, three rows past it included."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.dirichlet(np.full(m, 0.5), size=n)


@st.composite
def subcritical_integer_families(draw):
    """Two to seven PMFs from small integer weights with tau_max2 <= 1 in
    exact arithmetic, so ties, zeros and rows on the boundary tau_max2 = 1
    occur (the float sum may land just above one).

    Column y has a cap c_y and at most one owner row.  A row stays within
    the caps off the columns it owns and totals at least sum(c); a row that
    owns nothing is the caps themselves.  Every second-largest entry is then
    at most c_y / sum(c)."""
    n = draw(st.integers(2, 7))
    m = draw(st.integers(2, 6))
    caps = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(sum))
    owner = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))  # n: no owner
    fam = []
    for i in range(n):
        owned = [y for y in range(m) if owner[y] == i]
        if not owned:
            w = list(caps)
        else:
            w = [draw(st.integers(0, 4 if owner[y] == i else c)) for y, c in enumerate(caps)]
            w[owned[0]] += max(0, sum(caps) - sum(w))
        fam.append([x / sum(w) for x in w])
    return fam


# ---------------------------------------------------------------------------
# Maximal coupling
# ---------------------------------------------------------------------------


class TestMaximalCoupling:
    def test_all_equal_is_pure_diagonal(self):
        p = [0.2, 0.3, 0.5]
        c = db.maximal_coupling([p, p, p])
        assert len(c.components) == 1
        assert c.components[0]["glued"] == [0, 1, 2]
        assert c.diagonal_mass() == pytest.approx(1.0, abs=1e-12)

    def test_two_rows_worked(self):
        c = db.maximal_coupling([[0.5, 0.5], [0.25, 0.75]])
        assert c.diagonal_mass() == pytest.approx(0.75, abs=1e-12)

    def test_trio_diagonal_masses(self):
        c = db.maximal_coupling(TRIO)
        table = c.expand()
        for y in range(3):
            assert table[(y, y, y)] == pytest.approx(0.2, abs=1e-12)
        assert c.diagonal_mass() == pytest.approx(0.6, abs=1e-12)
        oracle = lp.coupling_diag_opt(TRIO, "max")
        assert c.diagonal_mass() == pytest.approx(oracle.value, abs=1e-9)

    def test_diagonal_mass_is_columnwise_min(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            pmfs = [random_pmf(rng, m) for _ in range(n)]
            table = db.maximal_coupling(pmfs).expand()
            colmin = np.min(np.stack(pmfs), axis=0)
            for y in range(m):
                assert table.get((y,) * n, 0.0) == pytest.approx(colmin[y], abs=1e-12)

    def test_mismatched_alphabets(self):
        with pytest.raises(db.ValidationError):
            db.maximal_coupling([[0.5, 0.5], [0.2, 0.3, 0.5]])

    @settings(max_examples=50, deadline=None)
    @given(pmf_families())
    def test_marginals_exact(self, fam):
        c = db.maximal_coupling(fam)
        table = c.expand()
        for i, p in enumerate(fam):
            assert np.abs(table_marginal(table, i, len(p)) - p).max() <= 1e-10


# ---------------------------------------------------------------------------
# Minimal (union) coupling, general n
# ---------------------------------------------------------------------------


class TestMinimalCoupling:
    def test_two_rows_reduces_to_dobrushin(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            p, q = random_pmf(rng, 4), random_pmf(rng, 4)
            table = db.minimal_coupling_max([p, q]).expand()
            reference = dobrushin_table(p, q)
            keys = set(table) | set(reference)
            for k in keys:
                assert table.get(k, 0.0) == pytest.approx(reference.get(k, 0.0), abs=1e-12)
            assert table_union_mass(table) == pytest.approx(1 + db.tv_distance(p, q), abs=1e-10)

    def test_trio_worked_weights(self):
        c = db.minimal_coupling_max(TRIO)
        by_pattern = {tuple(comp["glued"]): comp["weight"] for comp in c.components}
        assert by_pattern[(0, 1, 2)] == pytest.approx(0.6, abs=1e-12)
        for pair in [(1, 2), (0, 2), (0, 1)]:
            assert by_pattern[pair] == pytest.approx(0.1, abs=1e-12)
        assert by_pattern[()] == pytest.approx(0.1, abs=1e-12)  # 1 - tau_max2
        assert c.union_mass() == pytest.approx(1.5, abs=1e-10)
        oracle = lp.coupling_union_opt(TRIO, "min")
        assert c.union_mass() == pytest.approx(oracle.value, abs=1e-9)

    def test_erasure_rows(self):
        rows = db.erasure_channel(2, 0.3).matrix
        c = db.minimal_coupling_max(list(rows))
        assert c.union_mass() == pytest.approx(1.7, abs=1e-10)

    def test_rejects_supercritical(self):
        # Past tau_max2 = 1 only three marginals have a construction.
        rng = np.random.default_rng(33)
        quad = np.vstack([supercritical_trio(rng, 4), random_pmf(rng, 4)])
        assert max2_of(quad) > 1
        with pytest.raises(CouplingConditionError):
            db.minimal_coupling_max(list(quad))

    def test_union_and_intersections_random(self):
        rng = np.random.default_rng(34)
        for _ in range(30):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 6))
            mats = feasible_minimal_instance(rng, n, m)
            c = db.minimal_coupling_max(list(mats))
            table = c.expand()
            tmax = db.max_doeblin(mats)
            assert table_union_mass(table) == pytest.approx(tmax, abs=1e-10)
            # Every subset's intersection mass is that subset's min-sum.
            import itertools

            for size in range(2, n + 1):
                for coords in itertools.combinations(range(n), size):
                    expected = np.min(mats[list(coords)], axis=0).sum()
                    got = table_intersection_mass(table, coords)
                    assert got == pytest.approx(expected, abs=1e-10)
            # Simultaneity: the all-equal mass is the Doeblin coefficient.
            assert table_diag_mass(table) == pytest.approx(db.doeblin(mats), abs=1e-10)
            for i in range(n):
                assert np.abs(table_marginal(table, i, m) - mats[i]).max() <= 1e-10

    def test_residual_weight_is_one_minus_max2(self):
        rng = np.random.default_rng(35)
        for _ in range(20):
            mats = feasible_minimal_instance(rng, 3, 4)
            c = db.minimal_coupling_max(list(mats))
            product_weight = c.weights[~c.glued.any(axis=1)].sum()
            assert product_weight == pytest.approx(
                max(0.0, 1.0 - max2_of(mats)), abs=1e-10
            )
            assert c.weight_sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(subcritical_integer_families())
    @example(BOUNDARY)
    def test_arrays_match_glue_set_reference(self, fam):
        _assert_same_arrays(db.minimal_coupling_max(fam), reference_minimal_coupling_max(fam))

    @settings(max_examples=100, deadline=None)
    @given(subcritical_integer_families())
    @example(BOUNDARY)
    def test_components_are_strict_gap_prefixes(self, fam):
        mats = db.Channel(fam).matrix
        n, m = mats.shape
        c = db.minimal_coupling_max(fam)
        assert len(c.weights) <= m * (n - 1) + 1
        for rows, glued in zip(c.index, c.glued):
            if glued.any():
                for y in np.flatnonzero(c.pool[rows[glued][0]] > 0.0):
                    below = mats[~glued, y].max(initial=0.0)
                    assert mats[glued, y].min() > below

    def test_boundary_example_sits_in_the_tolerance_band(self):
        assert 1.0 < max2_of(np.array(BOUNDARY)) <= 1.0 + 1e-12

    def test_forty_marginals(self):
        rng = np.random.default_rng(43)
        mats = feasible_minimal_instance(rng, 40, 60)
        c = db.minimal_coupling_max(list(mats))
        assert len(c.weights) <= 60 * 39 + 1
        assert c.weight_sum() == pytest.approx(1.0, abs=1e-12)
        assert max(np.abs(c.marginal(i) - mats[i]).max() for i in range(40)) <= 1e-12


# ---------------------------------------------------------------------------
# Minimal coupling of three marginals, past tau_max2 = 1 too
# ---------------------------------------------------------------------------


class TestMinimalCouplingN3:
    def test_supercritical_worked(self):
        c = db.minimal_coupling_max(SYM08)
        assert c.union_mass() == pytest.approx(1.4, abs=1e-10)
        oracle = lp.coupling_union_opt(SYM08, "min")
        assert c.union_mass() == pytest.approx(oracle.value, abs=1e-9)
        rep = db.verify_coupling(c, SYM08)
        assert max(rep.marginal_residuals) <= 1e-10
        assert rep.orthogonal_components

    def test_supercritical_random(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            mats = supercritical_trio(rng, int(rng.integers(3, 6)))
            c = db.minimal_coupling_max(mats)
            expected = db.max_doeblin(mats) + (max2_of(mats) - 1.0)
            assert c.union_mass() == pytest.approx(expected, abs=1e-10)
            table = c.expand()
            for i in range(3):
                assert np.abs(table_marginal(table, i, mats.shape[1]) - mats[i]).max() <= 1e-10

    def test_boundary_constructions_coincide(self):
        # Exactly on the threshold the gap mixture is built; it must attain
        # the plain column-maximum total.
        mats = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert max2_of(mats) == pytest.approx(1.0, abs=1e-15)
        c = db.minimal_coupling_max(mats)
        assert c.union_mass() == pytest.approx(db.max_doeblin(mats), abs=1e-10)
        table = c.expand()
        for i in range(3):
            assert np.abs(table_marginal(table, i, 2) - mats[i]).max() <= 1e-10

    def test_all_equal(self):
        p = [0.2, 0.3, 0.5]
        c = db.minimal_coupling_max([p, p, p])
        assert c.union_mass() == pytest.approx(1.0, abs=1e-12)

    def test_wrong_arity(self):
        # The third marginal is a table, not a PMF.
        with pytest.raises(db.ValidationError):
            db.minimal_coupling_max([[0.5, 0.5], [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]])

    @settings(max_examples=60, deadline=None)
    @given(supercritical_integer_trios())
    def test_arrays_match_pairwise_reference(self, fam):
        ref = reference_mixture(*minimal_n3_components(db.Channel(fam).matrix))
        _assert_same_arrays(db.minimal_coupling_max(fam), ref)

    @pytest.mark.parametrize("excess, above", [(5e-13, False), (2e-12, True)])
    def test_regime_agrees_at_validity_threshold(self, excess, above):
        # tau_max2 = 3y = 1 + excess; the threshold sits at 1 + 1e-12, and the
        # construction and the closed form must take the same side of it.
        y = (1.0 + excess) / 3.0
        mats = [[1.0 - 2.0 * y, y, y], [y, 1.0 - 2.0 * y, y], [y, y, 1.0 - 2.0 * y]]
        tau_max2 = db.max2_doeblin(mats)
        assert tau_max2 == pytest.approx(1.0 + excess, abs=1e-15)
        built = db.minimal_coupling_max(mats)
        if above:
            assert minimal_union_mass(mats) == db.max_doeblin(mats) + (tau_max2 - 1.0)
            # tau_max alone would be off by the excess.
            assert built.union_mass() == pytest.approx(minimal_union_mass(mats), abs=excess / 4)
            assert not any(c["glued"] == [] for c in built.components)  # no full product
        else:
            # Ties at every column maximum leave no excess factor to normalize.
            rep = db.verify_coupling(built, mats)
            assert max(*rep.marginal_residuals, rep.weight_residual) <= 4 * excess
            assert minimal_union_mass(mats) == db.max_doeblin(mats)


# ---------------------------------------------------------------------------
# Sandwich bounds hold for arbitrary feasible couplings
# ---------------------------------------------------------------------------


class TestSandwichBounds:
    def test_random_vertices(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            pmfs = [random_pmf(rng, m) for _ in range(n)]
            coeffs = rng.normal(size=m**n)  # one per tuple of the grid
            res = lp.coupling_opt(pmfs, lambda grid: coeffs, "min")
            x = res.solution.x
            tuples = list(itertools.product(range(m), repeat=n))
            union = sum(float(v) * len(set(t)) for t, v in zip(tuples, x))
            diag = sum(float(v) for t, v in zip(tuples, x) if len(set(t)) == 1)
            assert union >= db.max_doeblin(pmfs) - 1e-9
            assert diag <= db.doeblin(pmfs) + 1e-9

    def test_strengthened_three_way_bound(self):
        rng = np.random.default_rng(38)
        for _ in range(25):
            m = int(rng.integers(2, 5))
            pmfs = [random_pmf(rng, m) for _ in range(3)]
            coeffs = rng.normal(size=m**3)  # one per tuple of the grid
            res = lp.coupling_opt(pmfs, lambda grid: coeffs, "max")
            tuples = itertools.product(range(m), repeat=3)
            union = sum(float(v) * len(set(t)) for t, v in zip(tuples, res.solution.x))
            floor = db.max_doeblin(pmfs) + max(0.0, max2_of(np.stack(pmfs)) - 1.0)
            assert union >= floor - 1e-9


# ---------------------------------------------------------------------------
# Simultaneously maximal coupling of bivariate targets
# ---------------------------------------------------------------------------


class TestSimultaneousJointCoupling:
    def test_identical_joints(self):
        j = np.array([[0.1, 0.2], [0.3, 0.4]])
        jc = db.simultaneous_joint_coupling([j, j, j])
        assert jc.prob_all_equal() == pytest.approx(1.0, abs=1e-12)
        assert jc.prob_x_equal() == pytest.approx(1.0, abs=1e-12)

    def test_random_vs_lp(self):
        rng = np.random.default_rng(39)
        for _ in range(10):
            joints = [rng.dirichlet(np.ones(4)).reshape(2, 2) for _ in range(2)]
            jc = db.simultaneous_joint_coupling(joints)
            flat = [j.reshape(-1) for j in joints]
            pair = lp.coupling_diag_opt(flat, "max")
            # Symbol s is the pair (s // 2, s % 2): all X coordinates equal.
            xdiag = lp.coupling_opt(flat, lambda grid: (grid // 2 == grid[:, :1] // 2).all(axis=1), "max")
            assert jc.prob_all_equal() == pytest.approx(pair.value, abs=1e-9)
            assert jc.prob_x_equal() == pytest.approx(xdiag.value, abs=1e-9)
            for i, j in enumerate(joints):
                assert np.abs(jc.bivariate_marginal(i) - j).max() <= 1e-10

    def test_identical_x_marginals_distinct_conditionals(self):
        j1 = np.array([[0.3, 0.2], [0.1, 0.4]])
        j2 = np.array([[0.2, 0.3], [0.4, 0.1]])
        jc = db.simultaneous_joint_coupling([j1, j2])
        assert jc.prob_x_equal() == pytest.approx(1.0, abs=1e-12)
        assert jc.prob_all_equal() == pytest.approx(
            float(np.minimum(j1, j2).sum()), abs=1e-12
        )
        assert jc.prob_all_equal() < 1.0

    def test_prob_x_equal_builds_no_coupling(self):
        j1, j2 = np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([[0.4, 0.1], [0.2, 0.3]])
        jc = db.simultaneous_joint_coupling([j1, j2])
        with mock.patch.object(db.Coupling, "__post_init__", side_effect=AssertionError("a Coupling was built")):
            assert jc.prob_x_equal() == pytest.approx(0.8, abs=1e-12)

    def test_equal_totals_with_distinct_joints(self):
        # Total pair overlap equals total X overlap yet the joints differ;
        # the zero-weight middle component must simply drop out.
        j1 = np.array([[0.1, 0.1], [0.4, 0.4]])
        j2 = np.array([[0.2, 0.3], [0.25, 0.25]])
        jc = db.simultaneous_joint_coupling([j1, j2])
        assert jc.prob_all_equal() == pytest.approx(0.7, abs=1e-12)
        assert jc.prob_x_equal() == pytest.approx(0.7, abs=1e-12)
        for i, j in enumerate([j1, j2]):
            assert np.abs(jc.bivariate_marginal(i) - j).max() <= 1e-10

    def test_mismatched_shapes(self):
        with pytest.raises(db.AlphabetMismatchError):
            db.simultaneous_joint_coupling([np.full((2, 2), 0.25), np.full((1, 4), 0.25)])

    def test_nan_entry_rejected(self):
        bad = np.full((2, 2), 0.25)
        bad[0, 1] = np.nan
        with pytest.raises(db.ValidationError, match="joint distribution row 1 contains non-finite"):
            db.simultaneous_joint_coupling([np.full((2, 2), 0.25), bad])

    def test_complex_entry_rejected(self):
        bad = np.full((2, 2), 0.25, dtype=complex)
        bad[0, 1] += 1j
        with pytest.raises(db.ValidationError, match="joint distribution 1 is not a numeric table: entries of type complex"):
            db.simultaneous_joint_coupling([np.full((2, 2), 0.25), bad])

    def test_ragged_table_rejected(self):
        with pytest.raises(db.ValidationError, match="joint distribution 0"):
            db.simultaneous_joint_coupling([[[0.5, 0.5], [0.0]], np.full((2, 2), 0.25)])

    def test_flat_table_rejected(self):
        with pytest.raises(db.ValidationError, match="joint distributions must be 2-D tables"):
            db.simultaneous_joint_coupling([np.full((2, 2), 0.25), np.full(4, 0.25)])

    def test_one_joint_rejected(self):
        with pytest.raises(db.ValidationError, match="need at least two joint distributions"):
            db.simultaneous_joint_coupling([np.full((2, 2), 0.25)])

    def test_pool_past_cap_refused_before_allocation(self):
        # Two 10,000 x 1 tables: a (10,002, 2, 10,000, 1) free-factor pool,
        # 1.49 GiB, for 160 kB of input.
        joints = [np.full((10_000, 1), 1e-4)] * 2
        tracemalloc.start()
        try:
            with pytest.raises(ExpansionCapError, match="joint factor pool needs 200040000 entries"):
                db.simultaneous_joint_coupling(joints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


@st.composite
def joint_families(draw, min_n=2, max_n=5, max_xs=3, max_ys=4):
    """n bivariate tables on one xs x ys alphabet, from integer weights so
    that zero cells and exact ties (equal X-marginals, equal totals) occur."""
    n = draw(st.integers(min_n, max_n))
    xs, ys = draw(st.integers(1, max_xs)), draw(st.integers(1, max_ys))
    tables = []
    for _ in range(n):
        w = draw(
            st.lists(st.integers(0, 6), min_size=xs * ys, max_size=xs * ys).filter(lambda v: sum(v) > 0)
        )
        tables.append(np.array(w, dtype=float).reshape(xs, ys) / sum(w))
    return tables


def _table_x_equal(table: dict) -> float:
    return sum(mass for key, mass in table.items() if len({xy[0] for xy in key}) == 1)


class TestJointAgainstExpandedReference:
    """Masses and marginals read from the product-alphabet mixture against
    the coupling expanded by plain loops in ``helpers.joint_coupling_table``."""

    @settings(max_examples=40, deadline=None)
    @given(joint_families())
    def test_masses_and_marginals(self, joints):
        jc = db.simultaneous_joint_coupling(joints)
        ref = joint_coupling_table(joints)
        xs, ys = joints[0].shape
        assert jc.prob_all_equal() == pytest.approx(table_diag_mass(ref), abs=1e-12)
        assert jc.prob_x_equal() == pytest.approx(_table_x_equal(ref), abs=1e-12)
        flat = {tuple(x * ys + y for x, y in key): mass for key, mass in ref.items()}
        for i in range(len(joints)):
            expected = table_marginal(flat, i, xs * ys).reshape(xs, ys)
            assert np.abs(jc.bivariate_marginal(i) - expected).max() <= 1e-12
        for key in set(ref) | set(jc.table):
            assert jc.table.get(key, 0.0) == pytest.approx(ref.get(key, 0.0), abs=1e-12)

    def test_eight_tables_past_the_cap(self):
        # 12^8 product tuples: far past the cap, read from the mixture alone.
        rng = np.random.default_rng(46)
        joints = rng.dirichlet(np.ones(12), size=8).reshape(8, 3, 4)
        jc = db.simultaneous_joint_coupling(list(joints))
        assert 12**8 > DEFAULT_EXPANSION_CAP
        with pytest.raises(ExpansionCapError):
            jc.to_dict()
        assert jc.prob_all_equal() == pytest.approx(joints.min(axis=0).sum(), abs=1e-12)
        assert jc.prob_x_equal() == pytest.approx(joints.sum(axis=2).min(axis=0).sum(), abs=1e-12)
        for i, j in enumerate(joints):
            assert np.abs(jc.bivariate_marginal(i) - j).max() <= 1e-12
        assert jc.coupling.weight_sum() == pytest.approx(1.0, abs=1e-12)
        records = jc.to_dict(include_table=False)["components"]
        assert records[0]["glued"] == list(range(8))
        assert all(r["glued"] == [] for r in records[1:])


# ---------------------------------------------------------------------------
# Verification report
# ---------------------------------------------------------------------------


def _joint_coupling():
    j1 = np.array([[0.1, 0.2], [0.3, 0.4]])
    j2 = np.array([[0.25, 0.05], [0.4, 0.3]])
    return db.simultaneous_joint_coupling([j1, j2]).coupling


@pytest.mark.parametrize(
    "build",
    [
        lambda: db.maximal_coupling(TRIO),
        lambda: db.minimal_coupling_max(TRIO),
        lambda: db.minimal_coupling_max(SYM08),
        _joint_coupling,
    ],
    ids=["maximal", "minimal", "minimal_n3", "joint"],
)
def test_shared_is_every_glued_factor(build):
    c = build()
    assert np.issubdtype(c.index.dtype, np.integer) and c.index.shape == c.glued.shape
    for rows, glued in zip(c.index, c.glued):
        if glued.any():
            assert len(set(rows[glued].tolist())) == 1


def test_glued_coordinates_with_different_factors_rejected():
    # Otherwise marginal(1) would read [0, 1] while expand() and
    # diagonal_mass() read the first glued row alone.
    with pytest.raises(db.ValidationError, match="one shared pool row"):
        db.Coupling(np.array([1.0]), np.eye(2), np.array([[0, 1]]), np.array([[True, True]]))


class TestCoordinateChecks:
    """Every read that takes coordinates rejects a value that names none of
    them, and a coordinate named twice, with ValidationError."""

    @pytest.mark.parametrize("coord", [-1, 3, 1.0, True, "1", None])
    def test_marginal(self, coord):
        # -1 would wrap to the last coordinate; 3 would index past the pool.
        with pytest.raises(db.ValidationError, match="coupling coordinates"):
            db.maximal_coupling(TRIO).marginal(coord)

    @pytest.mark.parametrize("coords", [[0, 5], [-1, 0], [0, 0], [0, 1.0], [[0, 1]], 2])
    def test_intersection_mass(self, coords):
        # [0, 0] would square coordinate 0's factor: 0.85 on the trio, where
        # P(X_0 = X_0) summed over the symbols is 1.
        with pytest.raises(db.ValidationError, match="coupling coordinates"):
            db.maximal_coupling(TRIO).intersection_mass(coords)

    @pytest.mark.parametrize("i", [-1, 2, 0.0])
    def test_bivariate_marginal(self, i):
        jc = db.simultaneous_joint_coupling([np.array([[0.1, 0.2], [0.3, 0.4]])] * 2)
        with pytest.raises(db.ValidationError, match="coupling coordinates"):
            jc.bivariate_marginal(i)

    def test_numpy_integers_accepted(self):
        c = db.maximal_coupling(TRIO)
        assert c.marginal(np.int64(2)).tobytes() == c.marginal(2).tobytes()
        assert c.intersection_mass(np.arange(2)) == c.intersection_mass((0, 1))


@pytest.mark.parametrize(
    "build",
    [
        lambda: db.maximal_coupling(TRIO),
        lambda: db.minimal_coupling_max(TRIO),
        lambda: db.minimal_coupling_max(SYM08),
        _joint_coupling,
    ],
    ids=["maximal", "minimal", "minimal_n3", "joint"],
)
def test_expansion_keys_in_row_major_order(build):
    # The exports list the table as expand() holds it, unsorted.
    c = build()
    keys = list(c.expand())
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert [tuple(e["tuple"]) for e in c.to_dict(True)["expanded"]] == keys


def test_joint_table_and_lp_witness_keys_in_row_major_order():
    jc = db.simultaneous_joint_coupling([np.array([[0.1, 0.2, 0.1], [0.3, 0.2, 0.1]]), np.full((2, 3), 1 / 6)])
    keys = list(jc.table)
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert [tuple(map(tuple, e["tuple"])) for e in jc.to_dict()["table"]] == keys
    witness = list(lp.coupling_diag_opt(TRIO, "max").witness)
    assert witness == sorted(witness) and len(set(witness)) == len(witness)


def test_expansion_holds_only_the_support():
    # 176 cells of 10^6: a dense float buffer and hit mask would take 9 MB.
    c = db.minimal_coupling_max(list(feasible_minimal_instance(np.random.default_rng(43), 6, 10)))
    tracemalloc.start()
    try:
        table = c.expand()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 176
    assert peak < 1e6


def test_overlapping_supports_merged_early():
    # 400 components on the full 1,000-cell table: about 280,000 support
    # cells (4.5 MB) in all, held to a few thousand by merging as they come;
    # each cell still sums its masses in component order, as the dense table does.
    rng = np.random.default_rng(59)
    K, n, m = 400, 3, 10
    glued = np.zeros((K, n), dtype=bool)
    glued[::3, :2] = True
    index = np.arange(K * n).reshape(K, n)
    index[glued] = np.repeat(index[glued[:, 0], 0], 2)
    c = db.Coupling(rng.dirichlet(np.ones(K)), rng.dirichlet(np.ones(m), size=K * n), index, glued)
    tracemalloc.start()
    try:
        table = c.expand()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == m**n
    assert repr(table) == repr(DenseCoupling(c.weights, dense_view(c), c.glued).expand())
    assert peak < 1e6


def test_replace_recomputes_expansion():
    # The expansion memo belongs to one instance: a copy with other factors
    # expands its own table.
    c = db.maximal_coupling([[0.5, 0.5], [0.2, 0.8]])
    c.expand()
    swapped = dataclasses.replace(c, pool=c.pool[:, ::-1])
    assert swapped.expanded is None
    assert swapped.expand() == table_from_components(swapped.to_dict())
    assert swapped.expand() != c.expand()


class TestVerifyCoupling:
    def test_clean_coupling_passes(self):
        rng = np.random.default_rng(40)
        pmfs = [random_pmf(rng, 3) for _ in range(3)]
        rep = db.verify_coupling(db.maximal_coupling(pmfs), pmfs)
        assert max(rep.marginal_residuals) < 1e-10
        assert rep.weight_residual < 1e-12
        assert rep.orthogonal_components

    def test_corrupted_coupling_detected(self):
        pmfs = [np.array(p) for p in TRIO]
        c = db.maximal_coupling(pmfs)
        assert c.glued[0].all()
        # Move 3e-3 of the diagonal factor's mass from symbol 1 to symbol 0
        # on every glued coordinate: the weights still sum to one, only the
        # marginals are off.
        shift = np.array([3e-3, -3e-3, 0.0])
        pool = c.pool.copy()
        pool[c.index[0, 0]] = db.Pmf(c.pool[c.index[0, 0]] + shift).probs
        corrupted = dataclasses.replace(c, pool=pool)
        rep = db.verify_coupling(corrupted, pmfs)
        assert rep.weight_residual < 1e-12
        assert max(rep.marginal_residuals) >= 5e-4

    def test_intersection_masses_reported(self):
        c = db.minimal_coupling_max(TRIO)
        rep = db.verify_coupling(c, TRIO)
        assert rep.intersection_masses[(0, 1)] == pytest.approx(0.7, abs=1e-10)
        assert rep.intersection_masses[(0, 1, 2)] == pytest.approx(0.6, abs=1e-10)

    def test_past_cap_reads_every_mass(self):
        # Nine marginals on six symbols: 6^9 tuples, past the expansion cap.
        # Six sharp peaks plus three copies of q put tau_max2 exactly at one.
        peaks = 0.94 * np.eye(6) + 0.01
        q = np.array([0.3, 0.2, 0.2, 0.1, 0.1, 0.1])
        mats = np.vstack([peaks, q, q, q])
        assert max2_of(mats) == pytest.approx(1.0, abs=1e-12)
        c = db.minimal_coupling_max(list(mats))
        with pytest.raises(ExpansionCapError):
            c.expand()
        rep = db.verify_coupling(c, list(mats))
        assert max(rep.marginal_residuals) <= 1e-12
        assert rep.weight_residual <= 1e-12
        assert rep.diagonal_mass == pytest.approx(mats.min(axis=0).sum(), abs=1e-12)
        assert rep.union_mass == pytest.approx(mats.max(axis=0).sum(), abs=1e-12)
        assert len(rep.intersection_masses) == 2**9 - 9 - 1
        for coords, mass in rep.intersection_masses.items():
            assert mass == pytest.approx(mats[list(coords)].min(axis=0).sum(), abs=1e-12)
        assert rep.orthogonal_components == table_orthogonal(c.to_dict())

    def test_subset_table_past_cap_raises(self):
        # Twenty peaked rows build in milliseconds, but the table of all 2^20
        # coordinate subsets would hold 2^20 * K * 24 floats.
        mats = db.Channel(json.loads((FIXTURES / "peaked20.json").read_text())).matrix
        c = db.minimal_coupling_max(mats)
        with pytest.raises(ExpansionCapError):
            db.verify_coupling(c, mats)

    @pytest.mark.parametrize("targets", [TRIO[:2], [p + [0.0] for p in TRIO]])
    def test_targets_of_another_shape_rejected(self, targets):
        with pytest.raises(db.AlphabetMismatchError, match="targets do not match the coupling's shape"):
            db.verify_coupling(db.maximal_coupling(TRIO), targets)

    def test_export_roundtrip_shape(self):
        c = db.minimal_coupling_max(TRIO)
        blob = c.to_dict(include_expanded=True)
        assert blob["arity"] == 3 and blob["alphabet"] == 3
        assert {"weight", "glued", "shared_factor", "free_factors"} <= set(blob["components"][0])
        total = sum(entry["mass"] for entry in blob["expanded"])
        assert total == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Structured masses against the expanded table
# ---------------------------------------------------------------------------


def _assert_masses_match_table(c: db.Coupling):
    """Every mass read from the mixture equals its expanded-table oracle."""
    table = c.expand()
    # Same products, summed in the same order, as the loop expansion.
    assert table == table_from_components(c.to_dict())
    n, m = c.arity, c.alphabet_size
    for i in range(n):
        assert np.abs(c.marginal(i) - table_marginal(table, i, m)).max() <= 1e-12
    assert c.diagonal_mass() == pytest.approx(table_diag_mass(table), abs=1e-12)
    assert c.union_mass() == pytest.approx(table_union_mass(table), abs=1e-12)
    for size in range(1, n + 1):
        for coords in itertools.combinations(range(n), size):
            expected = table_intersection_mass(table, coords)
            assert c.intersection_mass(coords) == pytest.approx(expected, abs=1e-12)
    assert c.orthogonal_components() == table_orthogonal(c.to_dict())
    # The report reads the same masses, with every subset batched at once.
    rep = db.verify_coupling(c, [table_marginal(table, i, m) for i in range(n)])
    assert max(rep.marginal_residuals) <= 1e-12
    assert rep.diagonal_mass == pytest.approx(table_diag_mass(table), abs=1e-12)
    assert rep.union_mass == pytest.approx(table_union_mass(table), abs=1e-12)
    assert set(rep.intersection_masses) == {
        coords for size in range(2, n + 1) for coords in itertools.combinations(range(n), size)
    }
    for coords, mass in rep.intersection_masses.items():
        assert mass == pytest.approx(table_intersection_mass(table, coords), abs=1e-12)
    assert rep.orthogonal_components == table_orthogonal(c.to_dict())


def _random_factor(rng, m):
    """A PMF on a random nonempty support, so supports can miss each other."""
    support = rng.random(m) < 0.6
    support[rng.integers(m)] = True
    raw = np.where(support, rng.random(m) + 0.05, 0.0)
    return db.Pmf(raw / raw.sum()).probs


def _hand_built(rng, n, m, glue_sets):
    """The four arrays written directly: every coordinate gets its own pool
    row, then the glued ones are pointed at one new row, the shared factor."""
    K = len(glue_sets)
    weights = rng.dirichlet(np.ones(K))
    pool = [_random_factor(rng, m) for _ in range(K * n)]
    index = np.arange(K * n).reshape(K, n)
    glued = np.zeros((K, n), dtype=bool)
    for k, block in enumerate(glue_sets):
        if block:
            glued[k, list(block)] = True
            index[k, list(block)] = len(pool)
            pool.append(_random_factor(rng, m))
    return db.Coupling(weights, np.array(pool), index, glued)


class TestStructuredMasses:
    @settings(max_examples=40, deadline=None)
    @given(pmf_families(max_n=5))
    def test_maximal(self, fam):
        _assert_masses_match_table(db.maximal_coupling(fam))

    @settings(max_examples=40, deadline=None)
    @given(pmf_families(max_n=5))
    def test_minimal(self, fam):
        assume(max2_of(np.array(fam)) <= 1.0)
        _assert_masses_match_table(db.minimal_coupling_max(fam))

    @settings(max_examples=40, deadline=None)
    @given(pmf_families(min_n=3, max_n=3, min_m=3, max_m=5))
    def test_minimal_n3(self, fam):
        _assert_masses_match_table(db.minimal_coupling_max(fam))

    def test_minimal_n3_supercritical(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            c = db.minimal_coupling_max(supercritical_trio(rng, int(rng.integers(3, 6))))
            _assert_masses_match_table(c)

    @pytest.mark.parametrize(
        "glue_sets",
        [
            [(0, 1), (1, 2, 3)],  # glued blocks overlap
            [(0, 1), (2, 3)],  # disjoint blocks
            [(), ()],  # no glue at all
            [(0, 1, 2, 3), (), (0, 2)],  # full block, none, and a sub-block
            [(1,), (0, 1), (3,)],  # single-coordinate glue
        ],
    )
    def test_hand_built(self, glue_sets):
        rng = np.random.default_rng(42)
        flags = set()
        for _ in range(60):
            c = _hand_built(rng, 4, int(rng.integers(2, 4)), glue_sets)
            _assert_masses_match_table(c)
            flags.add(c.orthogonal_components())
        assert flags == {True, False}

    def test_orthogonality_of_constructions(self):
        assert db.maximal_coupling(TRIO).orthogonal_components()
        assert db.minimal_coupling_max(TRIO).orthogonal_components()
        assert db.minimal_coupling_max(SYM08).orthogonal_components()


@st.composite
def hand_built_couplings(draw):
    """:func:`_hand_built` couplings of up to five components with drawn glue
    sets, on one to four coordinates and one to three symbols, so that
    supports overlap and miss each other."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    glue_sets = draw(st.lists(st.sets(st.integers(0, n - 1)), min_size=1, max_size=5))
    return _hand_built(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, m, glue_sets)


def _orthogonal_outcomes(c: db.Coupling, cells: int) -> tuple[bool, bool, bool]:
    """orthogonal_components in blocks under a budget of ``cells`` words, the
    oracle that intersects the supports of the components' records pairwise,
    and the dense float implementation."""
    with mock.patch.object(db.coupling, "_ORTHOGONAL_BLOCK_CELLS", cells):
        blocked = c.orthogonal_components()
    dense = DenseCoupling(c.weights, dense_view(c), c.glued).orthogonal_components()
    return blocked, table_orthogonal(c.to_dict()), dense


def _two_coordinate_coupling(m, shared, free0, free1) -> db.Coupling:
    """Component 0 glues both coordinates on the uniform factor over ``shared``;
    component 1 draws them from the uniform factors over ``free0`` and ``free1``."""
    pool = np.zeros((3, m))
    for row, support in zip(pool, (shared, free0, free1)):
        row[list(support)] = 1.0 / len(support)
    glued = np.array([[True, True], [False, False]])
    return db.Coupling(np.array([0.5, 0.5]), pool, np.array([[0, 0], [1, 2]]), glued)


class TestOrthogonalComponents:
    """Supports packed in 64-bit words, compared block by block, against the
    support sets expanded one component at a time and the dense float product."""

    @settings(max_examples=200, deadline=None)
    @given(hand_built_couplings(), st.integers(1, 64))
    @example(_two_coordinate_coupling(2, [0], [1], [1]), 1)  # orthogonal
    @example(_two_coordinate_coupling(2, [0], [0], [0, 1]), 1)  # shares (0, 0)
    def test_blocks_match_oracles(self, c, cells):
        blocked, oracle, dense = _orthogonal_outcomes(c, cells)
        assert blocked == oracle == dense
        assert c.orthogonal_components() == oracle  # one block

    def test_both_outcomes_across_several_blocks(self):
        rng = np.random.default_rng(54)
        outcomes = set()
        for _ in range(40):
            c = _hand_built(rng, 4, int(rng.integers(2, 4)), [(0, 1), (1, 2, 3), (2,)])
            blocked, oracle, dense = _orthogonal_outcomes(c, 4 * 3)  # one row a per block
            assert blocked == oracle == dense
            outcomes.add(oracle)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("second, expected", [(66, False), (65, True)])
    def test_supports_in_the_second_word(self, second, expected):
        # The two components can only meet on (66, 66), past the first 64 symbols.
        c = _two_coordinate_coupling(70, [3, 66], [10, 66], [20, second])
        assert _orthogonal_outcomes(c, 1) == (expected,) * 3
        assert c.orthogonal_components() == expected

    def test_seventy_symbol_constructions(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            fam = np.zeros((3, 70))
            for row in fam:
                row[rng.choice(70, size=5, replace=False)] = rng.random(5) + 0.1
            fam /= fam.sum(axis=1, keepdims=True)
            for c in (db.maximal_coupling(fam), db.minimal_coupling_max(fam)):
                blocked, oracle, dense = _orthogonal_outcomes(c, 8)
                assert blocked == oracle == dense == c.orthogonal_components()

    def test_forty_marginals_stay_small(self):
        # The dense (n, K, K) float product would take 2.8 GB here (K = 2249).
        c = db.minimal_coupling_max(list(feasible_minimal_instance(np.random.default_rng(43), 40, 60)))
        tracemalloc.start()
        try:
            orthogonal = c.orthogonal_components()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert orthogonal
        assert peak < 50e6


# ---------------------------------------------------------------------------
# Closed-form union minimum against the LP
# ---------------------------------------------------------------------------


class TestMinimalUnionMass:
    def test_subcritical_matches_lp(self):
        rng = np.random.default_rng(43)
        for n, m in [(2, 3), (3, 3), (3, 4), (4, 3), (4, 4)]:
            mats = feasible_minimal_instance(rng, n, m)
            closed = minimal_union_mass(list(mats))
            assert closed == pytest.approx(db.max_doeblin(mats), abs=1e-12)
            assert closed == pytest.approx(lp.coupling_union_opt(list(mats)).value, abs=1e-9)

    def test_supercritical_trio_matches_lp(self):
        rng = np.random.default_rng(44)
        for m in (3, 4):
            mats = supercritical_trio(rng, m)
            closed = minimal_union_mass(list(mats))
            assert closed == pytest.approx(db.max_doeblin(mats) + max2_of(mats) - 1.0, abs=1e-12)
            assert closed == pytest.approx(lp.coupling_union_opt(list(mats)).value, abs=1e-9)

    def test_open_regime_is_none(self):
        rng = np.random.default_rng(45)
        quad = np.vstack([supercritical_trio(rng, 3), random_pmf(rng, 3)])
        assert max2_of(quad) > 1
        assert minimal_union_mass(list(quad)) is None

    @settings(max_examples=200, deadline=None)
    @given(dirichlet_families())
    @example(SYM08)
    @example(np.vstack([SYM08, SYM08[:1]]))
    @example(TRIO)
    def test_construction_exists_where_the_closed_form_does(self, fam):
        closed = minimal_union_mass(fam)
        if closed is None:
            with pytest.raises(CouplingConditionError):
                db.minimal_coupling_max(fam)
            return
        c = db.minimal_coupling_max(fam)
        assert abs(c.union_mass() - closed) <= 1e-12
        mats = db.Channel(fam).matrix
        assert max(np.abs(c.marginal(i) - p).max() for i, p in enumerate(mats)) <= 1e-12


# ---------------------------------------------------------------------------
# The factor pool against the dense reference
# ---------------------------------------------------------------------------


def _assert_same_arrays(built: db.Coupling, ref: DenseCoupling):
    """Weights, glue and the dense view of the pool equal the reference's
    arrays byte for byte."""
    for got, want in [(built.weights, ref.weights), (dense_view(built), ref.factors), (built.glued, ref.glued)]:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _outcome(method):
    """The repr of a method's result, or of the cap error it raises."""
    try:
        return repr(method())
    except ExpansionCapError as exc:
        return repr(exc)


def _assert_bit_identical(c: db.Coupling):
    """Every mass read through the pool index equals the dense reference's
    over the same factors, bit for bit."""
    ref = DenseCoupling(c.weights, dense_view(c), c.glued)
    n = c.arity
    for i in range(n):
        assert c.marginal(i).tobytes() == ref.marginal(i).tobytes()
    for size in range(1, n + 1):
        for coords in itertools.combinations(range(n), size):
            assert repr(c.intersection_mass(coords)) == repr(ref.intersection_mass(coords))
    assert repr(c.diagonal_mass()) == repr(ref.intersection_mass(range(n)))
    for name in ("union_mass", "orthogonal_components", "expand"):
        assert _outcome(getattr(c, name)) == _outcome(getattr(ref, name)), name
    assert repr(c.components) == repr(ref.components)
    # The report reads every marginal through marginal(); its residuals match too.
    targets = [ref.marginal(i) for i in range(n)]
    mats = db.Channel(targets).matrix
    residuals = tuple(float(np.abs(ref.marginal(i) - mats[i]).max()) for i in range(n))
    assert repr(_assert_report_agrees(c, targets).marginal_residuals) == repr(residuals)


def _assert_report_agrees(c: db.Coupling, targets) -> db.VerificationReport:
    """The report's masses are the per-subset methods', bit for bit and in key order."""
    rep, n = db.verify_coupling(c, targets), c.arity
    subsets = [s for size in range(2, n + 1) for s in itertools.combinations(range(n), size)]
    assert repr(rep.intersection_masses) == repr({s: c.intersection_mass(s) for s in subsets})
    assert repr(rep.diagonal_mass) == repr(c.diagonal_mass())
    assert repr(rep.union_mass) == repr(c.union_mass())
    return rep


class TestBitIdenticalToDense:
    @settings(max_examples=40, deadline=None)
    @given(pmf_families(max_n=5))
    def test_maximal(self, fam):
        _assert_bit_identical(db.maximal_coupling(fam))

    @settings(max_examples=60, deadline=None)
    @given(subcritical_integer_families())
    @example(BOUNDARY)
    def test_minimal(self, fam):
        _assert_bit_identical(db.minimal_coupling_max(fam))

    @settings(max_examples=40, deadline=None)
    @given(supercritical_integer_trios())
    def test_minimal_n3_supercritical(self, fam):
        _assert_bit_identical(db.minimal_coupling_max(fam))

    @settings(max_examples=40, deadline=None)
    @given(pmf_families(min_n=3, max_n=3, min_m=3, max_m=5))
    def test_minimal_n3(self, fam):
        _assert_bit_identical(db.minimal_coupling_max(fam))

    @settings(max_examples=40, deadline=None)
    @given(joint_families())
    def test_joint(self, joints):
        jc = db.simultaneous_joint_coupling(joints)
        _assert_bit_identical(jc.coupling)
        c, (xs, ys) = jc.coupling, joints[0].shape
        dense = dense_view(c)
        over_y = DenseCoupling(c.weights, dense.reshape(*dense.shape[:-1], xs, ys).sum(axis=-1), c.glued)
        assert repr(jc.prob_x_equal()) == repr(over_y.intersection_mass(range(c.arity)))

    def test_wide_alphabets(self):
        # Most strategies draw m <= 6; a summation order that parts from the
        # per-subset methods' shows on longer rows.
        rng = np.random.default_rng(61)
        for _ in range(60):
            n, m = int(rng.integers(2, 7)), int(rng.integers(2, 25))
            pmfs = [random_pmf(rng, m) for _ in range(n)]
            _assert_report_agrees(db.maximal_coupling(pmfs), pmfs)
            mats = list(feasible_minimal_instance(rng, n, max(m, n)))
            _assert_report_agrees(db.minimal_coupling_max(mats), mats)

    @pytest.mark.parametrize("glue_sets", [[(0, 1), (1, 2, 3)], [(), ()], [(0, 1, 2, 3), (), (0, 2)], [(1,), (3,)]])
    def test_hand_built(self, glue_sets):
        rng = np.random.default_rng(47)
        for _ in range(20):
            _assert_bit_identical(_hand_built(rng, 4, int(rng.integers(2, 4)), glue_sets))

    @pytest.mark.parametrize(
        "n, glue_sets", [(1, [(0,)] * 8), (1, [(), (0,)] * 4), (1, [()] * 8), (4, [(0, 1)]), (4, [()])]
    )
    def test_marginal_one_coordinate_or_component(self, n, glue_sets):
        # The dense column is contiguous at n = 1 and strided otherwise; both
        # are summed in component order.
        rng = np.random.default_rng(53)
        for _ in range(20):
            c = _hand_built(rng, n, int(rng.integers(2, 4)), glue_sets)
            ref = DenseCoupling(c.weights, dense_view(c), c.glued)
            for i in range(n):
                assert c.marginal(i).tobytes() == ref.marginal(i).tobytes()


@pytest.mark.parametrize(
    "weights, pool, index, glued",
    [
        ([1.0], np.eye(2), [[0, 1]], [[True, True]]),  # glued coordinates on two rows
        ([1.0], np.eye(2), [[0, 2]], [[False, False]]),  # index past the pool
        ([1.0], np.eye(2), [[-1, 0]], [[False, False]]),  # negative index
        ([1.0], np.eye(2), [[0.0, 1.0]], [[False, False]]),  # float index
        ([1.0], np.eye(2), [[0, 1, 0]], [[False, False]]),  # index and glue disagree
        ([0.5, 0.5], np.eye(2), [[0, 1]], [[False, False]]),  # two weights, one component
        ([1.0], [0.5, 0.5], [[0, 0]], [[False, False]]),  # pool is not 2-D
        ([1.0], np.eye(2), [[0, 1]], [[0, 0]]),  # glue mask is not boolean
        ([1.0], np.eye(2), [0, 1], [False, False]),  # index and glue are not 2-D
        ([1.0], np.eye(2), np.zeros((1, 0), dtype=int), np.zeros((1, 0), dtype=bool)),  # no coordinates
        ([1.0], np.eye(2) + 0j, [[0, 1]], [[False, False]]),  # complex pool; casting drops the imaginary part
        ([1.0], np.eye(2).astype(object), [[0, 1]], [[False, False]]),  # object pool
        (["1.0"], np.eye(2), [[0, 1]], [[False, False]]),  # string weights
        ([True], np.eye(2), [[0, 1]], [[False, False]]),  # boolean weights
    ],
)
def test_invalid_hand_built_coupling_rejected(weights, pool, index, glued):
    with pytest.raises(db.ValidationError):
        db.Coupling(np.array(weights), np.array(pool), np.array(index), np.array(glued))


@pytest.mark.parametrize("field", range(4))
def test_list_coupling_field_rejected(field):
    fields = [np.array([1.0]), np.eye(2), np.array([[0, 1]]), np.array([[False, False]])]
    fields[field] = fields[field].tolist()
    with pytest.raises(db.ValidationError, match="must be numpy arrays"):
        db.Coupling(*fields)


@pytest.mark.parametrize(
    "weights, pool",
    [
        ([-0.5, 1.5], [[1.0, 0.0], [1 / 3, 2 / 3]]),  # negative weight; the marginals still match
        ([np.nan, 1.0], [[1.0, 0.0], [1 / 3, 2 / 3]]),  # NaN weight
        ([np.inf, 1.0], [[1.0, 0.0], [1 / 3, 2 / 3]]),  # infinite weight
        ([0.5, 0.5], [[2.0, 5.0], [1 / 3, 2 / 3]]),  # pool row sums to 7
        ([0.5, 0.5], [[1.5, -0.5], [1 / 3, 2 / 3]]),  # negative pool entry, row sums to 1
        ([0.5, 0.5], [[np.nan, 1.0], [1 / 3, 2 / 3]]),  # NaN pool entry
        ([0.5, 0.5], [[np.inf, 0.0], [1 / 3, 2 / 3]]),  # infinite pool entry
        ([0.5, 0.5], np.zeros((2, 0))),  # no symbols
    ],
)
def test_coupling_values_checked(weights, pool):
    # Checked only, never renormalized.  The first case used to verify with
    # weight_residual 0 and marginal residuals of 2.8e-17 against [[0, 1], [0, 1]].
    index, glued = np.array([[0, 0], [1, 1]]), np.array([[False, False], [True, True]])
    with pytest.raises(db.ValidationError, match="must be finite and >= 0, pool rows sum to 1"):
        db.Coupling(np.array(weights), np.array(pool), index, glued)


def test_coupling_values_kept_as_given():
    # A pool row within VALIDATION_TOL of one is accepted as it is, not renormalized.
    pool = np.array([[0.5 + 4e-10, 0.5], [1 / 3, 2 / 3]])
    c = db.Coupling(np.array([0.5, 0.5]), pool, np.array([[0, 0], [1, 1]]), np.array([[False, False], [True, True]]))
    assert c.pool is pool


def test_all_zero_factor_row_rejected():
    with pytest.raises(db.ValidationError, match="cannot normalize an all-zero factor"):
        db.coupling._normalized(np.array([[0.5, 0.5], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: db.maximal_coupling(TRIO),
        lambda: db.minimal_coupling_max(TRIO),
        lambda: db.minimal_coupling_max(SYM08),
        lambda: db.simultaneous_joint_coupling([np.full((2, 3), 1 / 6), np.eye(2, 3) / 2]),
    ],
    ids=["maximal", "minimal", "minimal_three_marginals", "joint"],
)
def test_each_construction_builds_one_read_only_coupling(monkeypatch, build):
    built = []
    check = db.Coupling.__post_init__
    monkeypatch.setattr(db.Coupling, "__post_init__", lambda self: built.append(self) or check(self))
    build()
    assert len(built) == 1
    assert not built[0].pool.flags.writeable


@pytest.mark.parametrize(
    "build",
    [lambda: db.maximal_coupling(TRIO), lambda: db.minimal_coupling_max(TRIO), _joint_coupling],
    ids=["maximal", "minimal", "joint"],
)
def test_component_records_share_no_list(build):
    records = build().components
    lists = [r["glued"] for r in records] + [r["shared_factor"] for r in records if r["shared_factor"]]
    lists += [f for r in records for f in r["free_factors"].values()]
    assert len({id(x) for x in lists}) == len(lists)
    before = copy.deepcopy(records)
    for factor in [records[0]["shared_factor"] or [], *records[0]["free_factors"].values()]:
        factor[0] = -1.0
    assert records[1:] == before[1:]


def test_forty_marginal_pool_stays_small():
    # A dense (K, n, m) factor array would take 43 MB here, and its copies on
    # the way several times that.
    mats = feasible_minimal_instance(np.random.default_rng(43), 40, 60)
    tracemalloc.start()
    try:
        c = db.minimal_coupling_max(list(mats))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert len(c.pool) <= c.arity + len(c.weights)
