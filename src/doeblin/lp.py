"""Independent linear-programming oracle for the extremal values.

Every closed-form extremum in this toolkit (diagonal mass of the maximal
coupling, union mass of the minimal coupling, optimal guessing probability)
is re-derivable as a small dense linear program over the coupling polytope
or the row-stochastic polytope.  This module solves those programs from
scratch with a two-phase tableau simplex using Bland's rule, which cannot
cycle, so termination is guaranteed.  Problems are desk-scale (at most 1e5
variables), so no external solver is needed.  Exact rational arithmetic is
available behind a flag for when float pivoting is in doubt.

The solver reports the dual vector alongside the primal optimum; the two
must agree (strong duality), which serves as a built-in self-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .channel import Channel, as_channel, stack_pmfs
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
    """Two-phase dense simplex with Bland's anti-cycling rule."""
    sign = 1.0 if problem.sense == "min" else -1.0
    if exact:
        conv = np.vectorize(lambda v: Fraction(float(v)), otypes=[object])
        c = conv(problem.objective) * Fraction(int(sign))
        A = conv(problem.eq_matrix)
        b = conv(problem.eq_rhs)
        zero, one = Fraction(0), Fraction(1)
        piv_tol = feas_tol = zero
    else:
        c = sign * problem.objective.astype(np.float64)
        A = problem.eq_matrix.astype(np.float64)
        b = problem.eq_rhs.astype(np.float64)
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
    basis = list(range(nv, nv + k))
    iterations = 0

    def pivot(r: int, j: int) -> None:
        nonlocal iterations
        piv = T[r, j]
        T[r, :] = T[r, :] / piv
        rhs[r] = rhs[r] / piv
        for i in range(k):
            if i != r and T[i, j] != zero:
                f = T[i, j]
                T[i, :] = T[i, :] - f * T[r, :]
                rhs[i] = rhs[i] - f * rhs[r]
        basis[r] = j
        iterations += 1

    def run_phase(cost: np.ndarray, allow: int) -> None:
        """Drive reduced costs nonnegative over the first ``allow`` columns."""
        nonlocal iterations
        while True:
            if iterations > _MAX_ITER:
                raise InfeasibilityError("simplex iteration cap exceeded")
            cb = cost[basis]
            red = cost[:allow] - cb @ T[:, :allow]
            entering = -1
            for j in range(allow):  # Bland: smallest eligible index enters
                if red[j] < -piv_tol and basis.count(j) == 0:
                    entering = j
                    break
            if entering < 0:
                return
            leaving, best_ratio, best_var = -1, None, None
            for r in range(k):
                t = T[r, entering]
                if t > piv_tol:
                    ratio = rhs[r] / t
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < best_var)
                    ):
                        leaving, best_ratio, best_var = r, ratio, basis[r]
            if leaving < 0:
                raise InfeasibilityError("LP is unbounded")
            pivot(leaving, entering)

    phase1_cost = np.concatenate([np.full(nv, zero, dtype=T.dtype), np.full(k, one, dtype=T.dtype)])
    run_phase(phase1_cost, nv + k)
    infeas = phase1_cost[basis] @ rhs
    if infeas > feas_tol:
        raise InfeasibilityError(f"LP infeasible (phase-1 objective {float(infeas)!r})")

    # Swap any artificial still in the basis for a structural column when its
    # row has one; an all-zero row is a redundant constraint and stays inert.
    for r in range(k):
        if basis[r] >= nv:
            for j in range(nv):
                if abs(T[r, j]) > piv_tol and basis.count(j) == 0:
                    pivot(r, j)
                    break

    cost = np.concatenate([c, np.full(k, zero, dtype=T.dtype)])
    run_phase(cost, nv)

    x = np.full(nv, zero, dtype=T.dtype)
    for r in range(k):
        if basis[r] < nv:
            x[basis[r]] = rhs[r]
    cb = cost[basis]
    duals = cb @ T[:, nv:]
    value_min = cost[:nv] @ x
    red = cost[:nv] - duals @ A
    margin = min(red) if nv else zero
    gap = abs(value_min - duals @ b)
    residual = max(abs(A @ x - b)) if k else zero

    duals_out = duals * row_signs * sign  # report against the original rows/sense
    if exact:
        xf = np.array([float(v) for v in x])
        return LpSolution(
            value=float(sign * value_min),
            x=xf,
            duals=np.array([float(v) for v in duals_out]),
            max_residual=float(residual),
            duality_gap=float(gap),
            dual_feasibility_margin=float(margin),
            iterations=iterations,
        )
    return LpSolution(
        value=float(sign * value_min),
        x=x,
        duals=duals_out,
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


def _coupling_program(mats: np.ndarray, objective: np.ndarray, sense: str):
    n, m = mats.shape
    nvars = m**n
    tuples = coupling_tuples(n, m)
    coords = np.array(tuples)  # nvars x n
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
    problem = LpProblem(
        objective=objective,
        eq_matrix=np.array(rows),
        eq_rhs=np.array(rhs),
        sense=sense,
    )
    return problem, tuples


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
    mats = stack_pmfs(pmfs).matrix
    n, m = mats.shape
    if n < 2:
        raise ValidationError("coupling problems need at least two marginals")
    if m**n > VARIABLE_CAP:
        raise ValidationError(f"coupling LP would need {m ** n} variables (cap {VARIABLE_CAP})")
    tuples = coupling_tuples(n, m)
    objective = np.array([float(objective_of_tuple(t)) for t in tuples])
    problem, tuples = _coupling_program(mats, objective, sense)
    sol = solve(problem, exact=exact)
    witness = {t: float(v) for t, v in zip(tuples, sol.x) if v > 1e-15}
    coords = np.array(tuples)
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


def estimator_opt(channel, sense: str) -> tuple[float, Channel]:
    """Optimal guessing probability Tr(P W)/n under a uniform prior.

    Solves the row-stochastic program with :func:`solve`: one variable
    ``P[j, i] >= 0`` per output j and input i, one constraint
    ``sum_i P[j, i] = 1`` per output, objective ``sum_{j,i} P[j, i] W[i, j]``.
    It is kept apart from the column-wise closed forms
    (:func:`~doeblin.channel.min_trace`, :func:`~doeblin.channel.max_trace`)
    so that it can check them.  Returns the value and an optimal ``m x n``
    kernel P.
    """
    W = as_channel(channel).matrix
    n, m = W.shape
    problem = LpProblem(
        objective=W.T.reshape(-1),
        eq_matrix=np.kron(np.eye(m), np.ones(n)),
        eq_rhs=np.ones(m),
        sense=sense,
    )
    sol = solve(problem)
    return sol.value / n, Channel(sol.x.reshape(m, n))
