"""Independent linear-programming oracle for the extremal values.

Every closed-form extremum in this toolkit (diagonal mass of the maximal
coupling, union mass of the minimal coupling, optimal guessing probability)
is re-derivable as a small dense linear program over the coupling polytope
or the row-stochastic polytope.  This module solves those programs from
scratch with a two-phase tableau simplex using Bland's rule, which cannot
cycle, so termination is guaranteed.  Problems are desk-scale (at most 1e5
variables), so no external solver is needed.

Float mode pivots on one float tableau that holds the constraint rows, the
right-hand side as its last column and the reduced costs as its last row:
each pivot costs one rank-1 update of the rows that are nonzero in the pivot
column (the coupling tableaus are sparse, so most rows are skipped), so the
reduced costs are carried through the pivots rather than recomputed from the
basis.  Phase 1 reads only the constraints, so the tableau after phase 1 of
the last program solved is kept, and a program with the same constraints
(another objective over the same coupling polytope) starts at phase 2; the
pivot count still covers the whole path, phase 1 included.  Exact mode, for
when float pivoting is in doubt, runs the same pivot rule without rounding
on an integer tableau with one shared denominator: every float input is a
dyadic rational, so scaling the columns by powers of two makes the tableau
integral, and fraction-free (Edmonds-Bareiss) pivots keep it integral with
exact divisions and no gcd.  Column scaling changes neither the sign of a
reduced cost nor the order of the ratios, so both modes take the pivots of
the rational tableau; ``tests/helpers.reference_simplex`` is the row-loop
``Fraction`` tableau that holds them to that, bit for bit.

The solver reports the dual vector alongside the primal optimum; the two
must agree (strong duality), which serves as a built-in self-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import _as_float_array, _family, as_channel
from .exceptions import ExpansionCapError, InfeasibilityError, ValidationError

VARIABLE_CAP = 10**5
_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-8
_MAX_ITER = 200_000
_phase1: tuple = (None, None)  # (key, state) of the last phase 1 solved; see solve


@dataclass(frozen=True)
class LpProblem:
    """min/max  objective . x  subject to  eq_matrix x = eq_rhs,  x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    sense: str  # "min" | "max"

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValidationError('sense must be "min" or "max"')
        for name in ("objective", "eq_matrix", "eq_rhs"):
            arr = _as_float_array(getattr(self, name), f"LP {name}")
            if not np.isfinite(arr).all():
                raise ValidationError(f"LP {name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if self.eq_matrix.ndim != 2:
            raise ValidationError("LP eq_matrix must be two-dimensional")
        k, nv = self.eq_matrix.shape
        if self.objective.shape != (nv,) or self.eq_rhs.shape != (k,):
            raise ValidationError("LP dimensions are inconsistent")


@dataclass(frozen=True)
class LpSolution:
    value: float
    x: np.ndarray
    duals: np.ndarray
    max_residual: float
    duality_gap: float
    dual_feasibility_margin: float
    iterations: int


def solve(problem: LpProblem, exact: bool = False) -> LpSolution:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    Phase 1 minimizes the sum of k artificial variables, which then leave
    the basis wherever their row has a structural entry; phase 2 optimizes
    the objective.  In each phase the entering column is the smallest index
    whose reduced cost is below ``-tol`` among the nonbasic columns, and the
    leaving row attains the minimum ratio ``rhs / column`` over the column's
    entries above ``tol``, ties going to the smallest basic variable index.
    The reduced costs are the last row of the tableau and the right-hand
    side its last column; the reduced costs are computed from the basis once
    per phase and then updated by each pivot, and a pivot touches only the
    rows whose entry in the pivot column is nonzero.  ``tol`` is ``1e-10``.

    The state after phase 1 and the drive-out is kept for the last ``(A, b)``
    solved (one entry; a phase 1 that raises is not kept); a program with the
    same ``A`` and ``b`` resumes from a copy.  ``iterations`` (the traced
    pivot count) still counts the whole path, phase 1 included.

    ``exact=True`` takes the same pivots with ``tol`` zero on an integer
    tableau and no rounding anywhere; see :func:`_solve_integer`.

    Raises :class:`InfeasibilityError` when the program is infeasible or
    unbounded, or past ``_MAX_ITER`` pivots.
    """
    sign = 1.0 if problem.sense == "min" else -1.0
    if exact:
        return _solve_integer(problem, sign)
    c = sign * problem.objective
    A = problem.eq_matrix
    b = problem.eq_rhs
    key = (A.shape, A.tobytes(), b.tobytes())

    k, nv = A.shape
    # Standard form wants a nonnegative right-hand side.
    row_signs = np.where(b < 0.0, -1.0, 1.0)
    A = A * row_signs[:, None]
    b = b * row_signs

    def pivot(r: int, j: int) -> None:
        nonlocal iterations
        T[r] /= T[r, j]
        # Rows already zero in the pivot column (the reduced-cost row among
        # them) are left alone; the rest take one rank-1 update.
        rows = (T[:, j] != 0.0).nonzero()[0]
        rows = rows[rows != r]
        T[rows] -= T[rows, j, None] * T[r]
        in_basis[basis[r]] = False
        in_basis[j] = True
        basis[r] = j
        iterations += 1

    def run_phase(cost: np.ndarray, allow: int) -> None:
        """Drive reduced costs nonnegative over the first ``allow`` columns."""
        T[k, :-1] = cost - cost[basis] @ T[:k, :-1]
        while True:
            if iterations > _MAX_ITER:
                raise InfeasibilityError("simplex iteration cap exceeded")
            # Bland: the smallest eligible index enters ...
            eligible = ((T[k, :allow] < -_PIVOT_TOL) & ~in_basis[:allow]).nonzero()[0]
            if not eligible.size:
                return
            entering = eligible[0]
            col = T[:k, entering]
            rows = (col > _PIVOT_TOL).nonzero()[0]
            if not rows.size:
                raise InfeasibilityError("LP is unbounded")
            # ... and the minimum-ratio row leaves, ties to the smallest basic index.
            ratios = T[rows, -1] / col[rows]
            tied = rows[ratios == ratios.min()]
            pivot(tied[basis[tied].argmin()], entering)

    global _phase1
    memo_key, state = _phase1
    if memo_key == key:
        T, basis, in_basis = (a.copy() for a in state[:3])
        iterations = state[3]
    else:
        # Rows: k constraints, then the reduced costs.  Columns: nv structural
        # variables, k artificials, then the right-hand side.
        T = np.zeros((k + 1, nv + k + 1))
        T[:k] = np.concatenate([A, np.eye(k), b[:, None]], axis=1)
        basis = np.arange(nv, nv + k)
        in_basis = np.zeros(nv + k, dtype=bool)
        in_basis[nv:] = True
        iterations = 0
        phase1_cost = np.concatenate([np.zeros(nv), np.ones(k)])
        run_phase(phase1_cost, nv + k)
        infeas = phase1_cost[basis] @ T[:k, -1].copy()  # a strided dot may sum in another order
        if infeas > _FEAS_TOL:
            raise InfeasibilityError(f"LP infeasible (phase-1 objective {float(infeas)!r})")
        # Swap any artificial still in the basis for a structural column when
        # its row has one; an all-zero row is a redundant constraint and stays inert.
        for r in np.flatnonzero(basis >= nv):
            candidates = np.flatnonzero((abs(T[r, :nv]) > _PIVOT_TOL) & ~in_basis[:nv])
            if candidates.size:
                pivot(r, candidates[0])
        _phase1 = (key, (T.copy(), basis.copy(), in_basis.copy(), iterations))

    cost = np.concatenate([c, np.zeros(k)])
    run_phase(cost, nv)

    x = np.zeros(nv)
    structural = basis < nv
    x[basis[structural]] = T[:k, -1][structural]
    duals = cost[basis] @ T[:k, nv:-1]
    value_min = cost[:nv] @ x
    # ``argmin`` keeps the first of equal entries, as the builtin ``min`` does,
    # so a zero margin keeps its sign; ``.min()`` may pick a later signed zero.
    reduced = cost[:nv] - duals @ A
    margin = reduced[reduced.argmin()] if nv else 0.0
    gap = abs(value_min - duals @ b)
    residual = abs(A @ x - b).max() if k else 0.0

    duals_out = duals * row_signs * sign  # report against the original rows/sense
    return LpSolution(
        value=float(sign * value_min),
        x=x,
        duals=duals_out,
        max_residual=float(residual),
        duality_gap=float(gap),
        dual_feasibility_margin=float(margin),
        iterations=iterations,
    )


def _dyadic(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Integer numerators of ``values`` over their common denominator.

    Every float is a dyadic rational, so the common denominator is the largest
    of the power-of-two denominators of the entries (1 when there are none).
    """
    ratios = [v.as_integer_ratio() for v in values.ravel().tolist()]
    den = max((q for _, q in ratios), default=1)
    nums = np.empty(len(ratios), dtype=object)
    nums[:] = [p * (den // q) for p, q in ratios]
    return nums.reshape(values.shape), den


def _solve_integer(problem: LpProblem, sign: float) -> LpSolution:
    """Exact mode of :func:`solve`: fraction-free pivoting on Python integers.

    With ``Da``, ``Db`` and ``Dc`` the powers of two that clear the
    denominators of the matrix, the right-hand side and the objective, the
    tableau starts as ``M = [Da*A | I | Db*b]`` (rows sign-corrected so that
    ``b >= 0``) with the shared denominator ``d = 1``.  Scaling a column by a
    positive constant scales its reduced cost by the same constant and every
    ratio of the minimum-ratio test by one common factor, so signs, ratios and
    ties are those of the rational tableau and Bland's rule takes the same
    pivots.  A pivot on ``(r, j)`` with ``p = M[r, j]`` replaces every other
    row by ``(M[i]*p - M[i, j]*M[r]) // d`` and then sets ``d = p`` (Edmonds;
    Bareiss): ``M`` stays ``adj(B) M0`` and ``d`` stays ``det(B)`` for the
    basis ``B``, so each division is exact and no gcd is ever taken.  When an
    artificial leaves on a negative pivot, ``M``, the reduced costs and ``d``
    change sign together, which keeps ``d > 0``.  The reduced-cost row takes
    the same update and is ``d`` times the reduced costs of the scaled
    program.  The certificates are integer numerators over known
    denominators, each converted to a float once, by correctly rounded
    integer division, as ``float(Fraction)`` rounds.
    """
    a_num, Da = _dyadic(problem.eq_matrix)
    b_num, Db = _dyadic(problem.eq_rhs)
    c_num, Dc = _dyadic(problem.objective)
    k, nv = a_num.shape
    row_signs = np.array([-1 if v < 0 else 1 for v in b_num], dtype=object)
    A = a_num * row_signs[:, None]
    b = b_num * row_signs
    c = c_num * int(sign)

    M = np.concatenate([A, np.eye(k, dtype=object), b[:, None]], axis=1)
    width = nv + k  # the reduced costs span every column but the rhs
    d = 1
    basis = np.arange(nv, nv + k)
    in_basis = np.zeros(width, dtype=bool)
    in_basis[nv:] = True
    red = np.zeros(width, dtype=object)
    iterations = 0

    def pivot(r: int, j: int) -> None:
        nonlocal M, d, iterations
        p = M[r, j]
        prow = M[r]
        M_next = (M * p - np.outer(M[:, j], prow)) // d
        M_next[r] = prow
        red[:] = (red * p - red[j] * prow[:width]) // d
        if p < 0:
            M_next = -M_next
            red[:] = -red
        M, d = M_next, abs(p)
        in_basis[basis[r]] = False
        in_basis[j] = True
        basis[r] = j
        iterations += 1

    def run_phase(cost: np.ndarray, allow: int) -> None:
        """Drive reduced costs nonnegative over the first ``allow`` columns."""
        red[:] = d * cost - cost[basis] @ M[:, :width]
        while True:
            if iterations > _MAX_ITER:
                raise InfeasibilityError("simplex iteration cap exceeded")
            eligible = np.flatnonzero((red[:allow] < 0) & ~in_basis[:allow])
            if not eligible.size:
                return
            entering = eligible[0]
            col = M[:, entering]
            rows = np.flatnonzero(col > 0)
            if not rows.size:
                raise InfeasibilityError("LP is unbounded")
            # Ratios compared by cross-multiplication over positive entries.
            best = rows[0]
            for i in rows[1:]:
                lhs, rhs = M[i, -1] * col[best], M[best, -1] * col[i]
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
            pivot(best, entering)

    phase1_cost = np.array([0] * nv + [1] * k, dtype=object)
    run_phase(phase1_cost, width)
    infeas = sum(M[basis >= nv, -1])
    if infeas > 0:
        raise InfeasibilityError(f"LP infeasible (phase-1 objective {infeas / (d * Db)!r})")

    for r in np.flatnonzero(basis >= nv):
        candidates = np.flatnonzero((M[r, :nv] != 0) & ~in_basis[:nv])
        if candidates.size:
            pivot(r, candidates[0])

    run_phase(np.concatenate([c, np.zeros(k, dtype=object)]), nv)

    # x = Da*xn/(d*Db), duals = Da*yn/(d*Dc), the min-form value Da*vn/(d*Db*Dc).
    structural = basis < nv
    xn = np.zeros(nv, dtype=object)
    xn[basis[structural]] = M[structural, -1]
    yn = c[basis[structural]] @ M[structural, nv:width]
    vn = c @ xn
    margin = min(d * c - yn @ A) if nv else 0
    gap = abs(vn - yn @ b) * Da
    residual = max(abs(A @ xn - d * b)) if k else 0
    # Signed zeros follow ``Fraction * float``, as in the reference tableau:
    # the value is sign * float(value_min), a dual float(y * row_sign) * sign.
    duals = [Da * y * s / (d * Dc) * sign for y, s in zip(yn, row_signs)]
    return LpSolution(
        value=sign * (Da * vn / (d * Db * Dc)),
        x=np.array([Da * v / (d * Db) for v in xn], dtype=np.float64),
        duals=np.array(duals, dtype=np.float64),
        max_residual=residual / (d * Db),
        duality_gap=gap / (d * Db * Dc),
        dual_feasibility_margin=margin / (d * Dc),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# The coupling polytope
# ---------------------------------------------------------------------------


def _coupling_program(mats: np.ndarray, grid: np.ndarray, objective: np.ndarray, sense: str) -> LpProblem:
    """The coupling LP over the tuples ``grid`` (one row per variable)."""
    n, m = mats.shape
    # One equality family per coordinate; each sums to the total mass, so each
    # after the first drops a redundant row, its last positive symbol's: a zero
    # cell's implied mass would be a gap of two rounded totals, maybe negative.
    keep = np.ones((n, m), dtype=bool)
    keep[np.arange(1, n), m - 1 - (mats[1:, ::-1] > 0).argmax(axis=1)] = False
    rows = (grid.T[:, None, :] == np.arange(m)[:, None])[keep]
    return LpProblem(
        objective=objective,
        eq_matrix=rows.astype(np.float64),
        eq_rhs=mats[keep],
        sense=sense,
    )


@dataclass(frozen=True)
class OracleResult:
    """An LP optimum over the coupling polytope with feasibility diagnostics."""

    value: float
    witness: dict
    max_marginal_residual: float
    min_mass: float
    duality_gap: float
    solution: LpSolution


def coupling_opt(pmfs: Sequence, objective: Callable, sense: str, exact: bool = False) -> OracleResult:
    """Optimize a per-tuple objective over all couplings of the given PMFs.

    The variables are the ``m**n`` output tuples in row-major order (last
    coordinate fastest, as ``itertools.product`` lists them), the rows of one
    ``(m**n, n)`` integer grid; ``objective`` is called once, on that grid, and
    returns one value per tuple.  The witness keeps that order.
    """
    mats = _family(pmfs, "coupling problems need at least two marginals").matrix
    n, m = mats.shape
    if m**n > VARIABLE_CAP:
        raise ExpansionCapError(f"coupling LP would need {m ** n} variables (cap {VARIABLE_CAP})")
    grid = np.indices((m,) * n).reshape(n, -1).T
    grid.setflags(write=False)  # the objective may not reorder the LP's variables
    sol = solve(_coupling_program(mats, grid, objective(grid), sense), exact=exact)
    support = np.flatnonzero(sol.x > 1e-15)
    # Each (i, y) mass is its own row's ``sum``: a 2-D ``sum(axis=1)`` may round differently.
    cube = sol.x.reshape((m,) * n)
    pushed = [[row.sum() for row in np.moveaxis(cube, i, 0).reshape(m, -1)] for i in range(n)]
    return OracleResult(
        value=sol.value,
        witness=dict(zip(map(tuple, grid[support].tolist()), sol.x[support].tolist())),
        max_marginal_residual=float(np.abs(np.array(pushed) - mats).max()),
        min_mass=float(sol.x.min()),
        duality_gap=sol.duality_gap,
        solution=sol,
    )


def _all_equal(grid: np.ndarray) -> np.ndarray:
    return (grid == grid[:, :1]).all(axis=1).astype(np.float64)


def _distinct_count(grid: np.ndarray) -> np.ndarray:
    return 1 + (np.diff(np.sort(grid, axis=1), axis=1) != 0).sum(axis=1)


def coupling_diag_opt(pmfs: Sequence, sense: str = "max", exact: bool = False) -> OracleResult:
    """Optimize the probability that all coordinates coincide."""
    return coupling_opt(pmfs, _all_equal, sense, exact=exact)


def coupling_union_opt(pmfs: Sequence, sense: str = "min", exact: bool = False) -> OracleResult:
    """Optimize the summed union mass: one unit per distinct symbol of a tuple."""
    return coupling_opt(pmfs, _distinct_count, sense, exact=exact)


# ---------------------------------------------------------------------------
# The row-stochastic estimator polytope
# ---------------------------------------------------------------------------


def estimator_opt(channel, sense: str, exact: bool = False) -> tuple[float, np.ndarray]:
    """Optimal guessing probability Tr(P W)/n under a uniform prior.

    Solves the row-stochastic program with :func:`solve`: one variable
    ``P[j, i] >= 0`` per output j and input i, one constraint
    ``sum_i P[j, i] = 1`` per output, objective ``sum_{j,i} P[j, i] W[i, j]``.
    It is kept apart from the column-wise closed forms
    (:func:`~doeblin.channel.min_trace`, :func:`~doeblin.channel.max_trace`)
    so that it can check them.  ``exact`` pivots in rational arithmetic, as
    in :func:`solve`.  Returns the value and an optimal ``m x n`` kernel P as
    an array; wrap it in :class:`~doeblin.channel.Channel` to validate it.
    """
    W = as_channel(channel).matrix
    n, m = W.shape
    problem = LpProblem(
        objective=W.T.reshape(-1),
        eq_matrix=np.kron(np.eye(m), np.ones(n)),
        eq_rhs=np.ones(m),
        sense=sense,
    )
    sol = solve(problem, exact=exact)
    return sol.value / n, sol.x.reshape(m, n)
