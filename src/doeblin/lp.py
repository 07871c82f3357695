"""Independent linear-programming oracle for the extremal values.

Every closed-form extremum in this toolkit (diagonal mass of the maximal
coupling, union mass of the minimal coupling, optimal guessing probability)
is re-derivable as a small dense linear program over the coupling polytope
or the row-stochastic polytope.  This module solves those programs from
scratch with a two-phase tableau simplex using Bland's rule, which cannot
cycle, so termination is guaranteed.  Problems are desk-scale (at most 1e5
variables), so no external solver is needed.  Exact rational arithmetic is
available behind a flag for when float pivoting is in doubt; both modes run
the same code on numpy arrays of floats or of ``Fraction`` objects.

Each pivot costs one rank-1 update of the tableau rows that are nonzero in
the pivot column (the coupling tableaus are sparse, so most rows are
skipped), and the reduced-cost row is carried through the pivots rather than
recomputed from the basis.  Neither changes which pivots are taken.

The solver reports the dual vector alongside the primal optimum; the two
must agree (strong duality), which serves as a built-in self-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .channel import Channel, _as_float_array, _family, as_channel
from .exceptions import InfeasibilityError, ValidationError

VARIABLE_CAP = 10**5
_PIVOT_TOL = 1e-10
_FEAS_TOL = 1e-8
_MAX_ITER = 200_000


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
    The reduced-cost row is computed from the basis once per phase and then
    updated by each pivot; a pivot touches only the rows whose entry in the
    pivot column is nonzero.  ``tol`` is ``1e-10`` in float mode and zero in
    exact mode, where every entry is a ``Fraction``.

    Raises :class:`InfeasibilityError` when the program is infeasible or
    unbounded, or past ``_MAX_ITER`` pivots.
    """
    sign = 1.0 if problem.sense == "min" else -1.0
    if exact:
        conv = np.vectorize(lambda v: Fraction(float(v)), otypes=[object])
        c = conv(problem.objective) * Fraction(int(sign))
        A = conv(problem.eq_matrix)
        b = conv(problem.eq_rhs)
        zero, one = Fraction(0), Fraction(1)
        piv_tol = feas_tol = zero
    else:
        c = sign * problem.objective
        A = problem.eq_matrix
        b = problem.eq_rhs
        zero, one = 0.0, 1.0
        piv_tol, feas_tol = _PIVOT_TOL, _FEAS_TOL

    k, nv = A.shape
    # Standard form wants a nonnegative right-hand side.
    row_signs = np.where(b < zero, -one, one)
    A = A * row_signs[:, None]
    b = b * row_signs

    # Tableau columns: nv structural variables then k artificials.
    T = np.concatenate([A, np.eye(k, dtype=A.dtype) * one], axis=1)
    rhs = b.copy()
    basis = np.arange(nv, nv + k)
    in_basis = np.zeros(nv + k, dtype=bool)
    in_basis[nv:] = True
    red = np.full(nv + k, zero, dtype=T.dtype)  # reduced costs, set per phase
    iterations = 0

    def pivot(r: int, j: int) -> None:
        nonlocal iterations
        piv = T[r, j]
        T[r] = T[r] / piv
        rhs[r] = rhs[r] / piv
        # Rows already zero in the pivot column are left alone; the rest take
        # one rank-1 update across the full width.
        rows = np.flatnonzero(T[:, j] != zero)
        rows = rows[rows != r]
        f = T[rows, j]
        T[rows] -= np.outer(f, T[r])
        rhs[rows] -= f * rhs[r]
        red[:] -= red[j] * T[r]
        in_basis[basis[r]] = False
        in_basis[j] = True
        basis[r] = j
        iterations += 1

    def run_phase(cost: np.ndarray, allow: int) -> None:
        """Drive reduced costs nonnegative over the first ``allow`` columns."""
        red[:] = cost - cost[basis] @ T
        while True:
            if iterations > _MAX_ITER:
                raise InfeasibilityError("simplex iteration cap exceeded")
            # Bland: the smallest eligible index enters ...
            eligible = np.flatnonzero((red[:allow] < -piv_tol) & ~in_basis[:allow])
            if not eligible.size:
                return
            entering = eligible[0]
            col = T[:, entering]
            rows = np.flatnonzero(col > piv_tol)
            if not rows.size:
                raise InfeasibilityError("LP is unbounded")
            # ... and the minimum-ratio row leaves, ties to the smallest basic index.
            ratios = rhs[rows] / col[rows]
            tied = rows[ratios == ratios.min()]
            pivot(tied[np.argmin(basis[tied])], entering)

    phase1_cost = np.concatenate([np.full(nv, zero, dtype=T.dtype), np.full(k, one, dtype=T.dtype)])
    run_phase(phase1_cost, nv + k)
    infeas = phase1_cost[basis] @ rhs
    if infeas > feas_tol:
        raise InfeasibilityError(f"LP infeasible (phase-1 objective {float(infeas)!r})")

    # Swap any artificial still in the basis for a structural column when its
    # row has one; an all-zero row is a redundant constraint and stays inert.
    for r in np.flatnonzero(basis >= nv):
        candidates = np.flatnonzero((abs(T[r, :nv]) > piv_tol) & ~in_basis[:nv])
        if candidates.size:
            pivot(r, candidates[0])

    cost = np.concatenate([c, np.full(k, zero, dtype=T.dtype)])
    run_phase(cost, nv)

    x = np.full(nv, zero, dtype=T.dtype)
    structural = basis < nv
    x[basis[structural]] = rhs[structural]
    duals = cost[basis] @ T[:, nv:]
    value_min = cost[:nv] @ x
    margin = min(cost[:nv] - duals @ A) if nv else zero
    gap = abs(value_min - duals @ b)
    residual = max(abs(A @ x - b)) if k else zero

    duals_out = duals * row_signs * sign  # report against the original rows/sense
    return LpSolution(
        value=float(sign * value_min),
        x=np.asarray(x, dtype=np.float64),
        duals=np.asarray(duals_out, dtype=np.float64),
        max_residual=float(residual),
        duality_gap=float(gap),
        dual_feasibility_margin=float(margin),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# The coupling polytope
# ---------------------------------------------------------------------------


def coupling_tuples(n: int, m: int) -> list[tuple[int, ...]]:
    """All output n-tuples in row-major order (last coordinate fastest)."""
    return list(itertools.product(range(m), repeat=n))


def _coupling_program(mats: np.ndarray, coords: np.ndarray, objective: np.ndarray, sense: str) -> LpProblem:
    """The coupling LP over the tuples ``coords`` (one row per variable)."""
    n, m = mats.shape
    nvars = len(coords)
    # One equality family per coordinate; each family's constraints sum to the
    # total-mass constraint, so beyond the first family the last symbol's row
    # is redundant and dropped to keep the basis nonsingular.
    rows = []
    rhs = []
    for i in range(n):
        symbols = range(m) if i == 0 else range(m - 1)
        for y in symbols:
            row = np.zeros(nvars)
            row[coords[:, i] == y] = 1.0
            rows.append(row)
            rhs.append(mats[i, y])
    return LpProblem(
        objective=objective,
        eq_matrix=np.array(rows),
        eq_rhs=np.array(rhs),
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


def coupling_opt(pmfs: Sequence, objective_of_tuple: Callable, sense: str, exact: bool = False) -> OracleResult:
    """Optimize a per-tuple objective over all couplings of the given PMFs."""
    mats = _family(pmfs, "coupling problems need at least two marginals").matrix
    n, m = mats.shape
    if m**n > VARIABLE_CAP:
        raise ValidationError(f"coupling LP would need {m ** n} variables (cap {VARIABLE_CAP})")
    tuples = coupling_tuples(n, m)
    coords = np.array(tuples)  # nvars x n
    objective = np.array([float(objective_of_tuple(t)) for t in tuples])
    sol = solve(_coupling_program(mats, coords, objective, sense), exact=exact)
    witness = {t: float(v) for t, v in zip(tuples, sol.x) if v > 1e-15}
    worst = 0.0
    for i in range(n):
        for y in range(m):
            worst = max(worst, abs(float(sol.x[coords[:, i] == y].sum()) - mats[i, y]))
    return OracleResult(
        value=sol.value,
        witness=witness,
        max_marginal_residual=worst,
        min_mass=float(sol.x.min()),
        duality_gap=sol.duality_gap,
        solution=sol,
    )


def coupling_diag_opt(pmfs: Sequence, sense: str = "max", exact: bool = False) -> OracleResult:
    """Optimize the probability that all coordinates coincide."""
    return coupling_opt(pmfs, lambda t: 1.0 if len(set(t)) == 1 else 0.0, sense, exact=exact)


def coupling_union_opt(pmfs: Sequence, sense: str = "min", exact: bool = False) -> OracleResult:
    """Optimize the summed union mass; a tuple contributes one unit per
    distinct symbol it contains."""
    return coupling_opt(pmfs, lambda t: float(len(set(t))), sense, exact=exact)


# ---------------------------------------------------------------------------
# The row-stochastic estimator polytope
# ---------------------------------------------------------------------------


def estimator_opt(channel, sense: str, exact: bool = False) -> tuple[float, Channel]:
    """Optimal guessing probability Tr(P W)/n under a uniform prior.

    Solves the row-stochastic program with :func:`solve`: one variable
    ``P[j, i] >= 0`` per output j and input i, one constraint
    ``sum_i P[j, i] = 1`` per output, objective ``sum_{j,i} P[j, i] W[i, j]``.
    It is kept apart from the column-wise closed forms
    (:func:`~doeblin.channel.min_trace`, :func:`~doeblin.channel.max_trace`)
    so that it can check them.  ``exact`` pivots in rational arithmetic, as
    in :func:`solve`.  Returns the value and an optimal ``m x n`` kernel P.
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
    return sol.value / n, Channel(sol.x.reshape(m, n))
