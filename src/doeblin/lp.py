"""Independent linear-programming oracle for the extremal values.

Every closed-form extremum in this toolkit (diagonal mass of the maximal
coupling, union mass of the minimal coupling, optimal guessing probability)
is re-derivable as a small dense linear program over the coupling polytope
or the row-stochastic polytope.  This module solves those programs from
scratch with a two-phase tableau simplex using Bland's rule, which cannot
cycle, so termination is guaranteed.  Problems are desk-scale (at most 1e5
variables and 1e7 tableau cells), so no external solver is needed.

One driver, :func:`solve`, runs the simplex in float or in exact (integer)
arithmetic.  The mode is chosen once per call and fixes the tableau's
entries, the pivot update, the leaving-row comparison and the conversion of
the certificates to floats, and nothing else: both modes take the pivots of
the rational tableau, and ``tests/helpers.reference_simplex`` is the row-loop
tableau that holds them to that, bit for bit.  A float pivot is one
full-width numpy update in which a row zero in the pivot column subtracts
``+0.0``, so that row keeps every bit, signed zeros included, as it does in
the row loop.  Phase 1 reads only the constraints, so the tableau after
phase 1 of the last program solved is kept with its mode, and a program with
the same constraints in the same mode (another objective over the same
coupling polytope) starts at phase 2.

The solver reports the dual vector alongside the primal optimum; the two
must agree (strong duality), which serves as a built-in self-check.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channel import _as_float_array, _family, as_channel
from .exceptions import ExpansionCapError, InfeasibilityError, ValidationError

VARIABLE_CAP = 10**5
TABLEAU_CELL_CAP = 10**7
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


class _Float:
    """Float arithmetic: the entries are the values (``d`` stays 1) and round."""

    tol, feas_tol = 1e-10, 1e-8
    numerators = staticmethod(lambda values: (values, 1))
    to_float = staticmethod(lambda num, den: num)

    @staticmethod
    def pivot(T: np.ndarray, d: int, r: int, j: int) -> tuple[np.ndarray, int]:
        row, col = T[r] / T[r, j], T[:, j]
        step = col[:, None] * row
        # A row zero in column j subtracts +0.0, which keeps every bit (see
        # solve); a loop over the rows costs less than a boolean-mask write.
        for i, t in enumerate(col.tolist()):
            if not t:
                step[i] = 0.0
        T -= step
        T[r] = row
        return T, d

    @staticmethod
    def leaving(T: np.ndarray, k: int, j: int, basis: np.ndarray) -> int:
        col, rhs = T[:k, j].tolist(), T[:k, -1].tolist()
        best, low = -1, 0.0
        for i, t in enumerate(col):
            if t > _Float.tol:
                ratio = rhs[i] / t  # rounds as numpy's division; -0.0 == 0.0 ties
                if best < 0 or ratio < low or (ratio == low and basis[i] < basis[best]):
                    best, low = i, ratio
        return best


class _Exact:
    """Exact arithmetic: integer numerators over ``d``, no rounding anywhere."""

    tol = feas_tol = 0
    # Integer division is correctly rounded, as ``float(Fraction)`` rounds.
    to_float = staticmethod(operator.truediv)

    @staticmethod
    def numerators(values: np.ndarray) -> tuple[np.ndarray, int]:
        """Integer numerators of ``values`` over their common denominator.

        Every float is a dyadic rational, so the common denominator is the
        largest of the power-of-two denominators of the entries (1 when there
        are none).
        """
        ratios = [v.as_integer_ratio() for v in values.ravel().tolist()]
        den = max((q for _, q in ratios), default=1)
        nums = np.empty(len(ratios), dtype=object)
        nums[:] = [p * (den // q) for p, q in ratios]
        return nums.reshape(values.shape), den

    @staticmethod
    def pivot(T: np.ndarray, d: int, r: int, j: int) -> tuple[np.ndarray, int]:
        # Edmonds-Bareiss: T stays adj(B) T0 and d stays det(B), up to one
        # sign that is flipped to keep d > 0, so every division is exact.
        p = T[r, j]
        nxt = (T * p - np.outer(T[:, j], T[r])) // d
        nxt[r] = T[r]
        return (-nxt, -p) if p < 0 else (nxt, p)

    @staticmethod
    def leaving(T: np.ndarray, k: int, j: int, basis: np.ndarray) -> int:
        col, rhs = T[:k, j].tolist(), T[:k, -1].tolist()
        best = -1
        for i, t in enumerate(col):
            # Ratios compared by cross-multiplication over positive entries.
            if t > 0 and (best < 0 or (rhs[i] * col[best], basis[i]) < (rhs[best] * t, basis[best])):
                best = i
        return best


def _check_size(k: int, nv: int, what: str) -> None:
    """Raise ExpansionCapError before a program of ``k`` rows and ``nv`` variables is built."""
    if nv > VARIABLE_CAP:
        raise ExpansionCapError(f"{what} would need {nv} variables (cap {VARIABLE_CAP})")
    if (cells := (k + 1) * (nv + k + 1)) > TABLEAU_CELL_CAP:
        raise ExpansionCapError(f"{what} tableau would need {cells} cells (cap {TABLEAU_CELL_CAP})")


def solve(problem: LpProblem, exact: bool = False) -> LpSolution:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    Phase 1 minimizes the sum of k artificial variables, which then leave
    the basis wherever their row has a structural entry; phase 2 optimizes
    the objective.  In each phase the entering column is the smallest index
    whose reduced cost is below ``-tol``, and the leaving row attains the
    minimum ratio ``rhs / column`` over the column's entries above ``tol``,
    ties going to the smallest basic variable index.  A basic column is
    exactly ``d`` times a unit vector, so it never enters (its reduced cost
    is zero) and its entry in any other basic variable's row is zero.
    The tableau is the constraint rows (sign-corrected so that ``b >= 0``),
    then the reduced costs as the last row, with the right-hand side as the
    last column; every entry is a numerator over one shared denominator
    ``d``.  The last row is computed from the basis once per phase and then
    updated by each pivot.  The mode fixes four things:

    - The entries.  Float mode (``tol`` ``1e-10``) keeps ``d = 1``.  Exact
      mode (``tol`` zero) starts from ``[Da*A | I | Db*b]`` over ``d = 1``,
      ``Da`` and ``Db`` (and ``Dc`` for the objective) being the powers of
      two that clear the float denominators.  Scaling a column by a positive
      constant scales its reduced cost by that constant and every ratio of
      the minimum-ratio test by one common factor, so signs, ratios and ties
      are those of the rational tableau.
    - The pivot on ``(r, j)``, with ``p = T[r, j]``.  In float mode row ``r``
      becomes ``T[r] / p`` and every other row takes ``T[i, j] * (T[r] / p)``
      off in one full-width update, except that the step of a row zero in
      column ``j`` is set to ``+0.0``.  ``x - (+0.0)`` is ``x`` bit for bit,
      ``-0.0`` included, whereas ``-0.0 - (0.0 * -1.0)`` is ``+0.0``; so such
      a row keeps its signed zeros, which reach ``x``, the duals and the
      ratio test, as the rational tableau leaves the row alone.  In exact
      mode every other row becomes ``(T[i]*p - T[i, j]*T[r]) // d``, then
      ``d = p`` (Edmonds; Bareiss), both negated when ``p < 0``.
    - The leaving-row comparison, over Python numbers read off column ``j``
      and the right-hand side: float division (Python and numpy round it
      alike), or integer cross-multiplication.
    - The certificates: read off the float tableau, or each integer numerator
      over its known denominator converted to a float once, as
      ``float(Fraction)`` rounds.

    The state after phase 1 and the drive-out is kept for the last
    ``(mode, A, b)`` solved (one entry; a phase 1 that raises is not kept);
    a program with the same mode, ``A`` and ``b`` resumes from a copy.
    ``iterations`` (the traced pivot count) still counts the whole path,
    phase 1 included.

    Raises :class:`InfeasibilityError` when the program is infeasible or
    unbounded, or past ``_MAX_ITER`` pivots, and :class:`ExpansionCapError`
    past ``VARIABLE_CAP`` variables or ``TABLEAU_CELL_CAP`` tableau cells.
    """
    k, nv = problem.eq_matrix.shape
    _check_size(k, nv, "LP")
    sign = 1 if problem.sense == "min" else -1
    arith = _Exact if exact else _Float
    A, Da = arith.numerators(problem.eq_matrix)
    b, Db = arith.numerators(problem.eq_rhs)
    c, Dc = arith.numerators(problem.objective)
    key = (exact, A.shape, problem.eq_matrix.tobytes(), problem.eq_rhs.tobytes())

    # Standard form wants a nonnegative right-hand side.
    row_signs = np.where(b < 0, -1, 1)
    A = A * row_signs[:, None]
    b = b * row_signs
    c = c * sign

    def pivot(r: int, j: int) -> None:
        nonlocal T, d, iterations
        T, d = arith.pivot(T, d, r, j)
        basis[r] = j
        iterations += 1

    def run_phase(cost: np.ndarray, allow: int) -> None:
        """Drive reduced costs nonnegative over the first ``allow`` columns."""
        T[k, :-1] = d * cost - cost[basis] @ T[:k, :-1]
        T[k, -1] = -(cost[basis] @ T[:k, -1])  # -d * objective: exact pivots divide it exactly
        while allow:  # no columns, nothing to enter
            if iterations > _MAX_ITER:
                raise InfeasibilityError("simplex iteration cap exceeded")
            # Bland: the smallest eligible index enters ...
            eligible = T[k, :allow] < -arith.tol
            entering = eligible.argmax()
            if not eligible[entering]:
                return
            # ... and the minimum-ratio row leaves, ties to the smallest basic index.
            leaving = arith.leaving(T, k, entering, basis)
            if leaving < 0:
                raise InfeasibilityError("LP is unbounded")
            pivot(leaving, entering)

    global _phase1
    memo_key, state = _phase1
    if memo_key == key:
        T, basis, d, iterations = state[0].copy(), state[1].copy(), *state[2:]
    else:
        # Rows: k constraints, then the reduced costs.  Columns: nv structural
        # variables, k artificials, then the right-hand side.
        T = np.zeros((k + 1, nv + k + 1), dtype=A.dtype)
        T[:k] = np.concatenate([A, np.eye(k, dtype=A.dtype), b[:, None]], axis=1)
        d = 1
        basis = np.arange(nv, nv + k)
        iterations = 0
        phase1_cost = np.concatenate([np.zeros(nv, dtype=A.dtype), np.ones(k, dtype=A.dtype)])
        run_phase(phase1_cost, nv + k)
        infeas = phase1_cost[basis] @ T[:k, -1].copy()  # a strided dot may sum in another order
        if infeas > arith.feas_tol:
            infeas = float(arith.to_float(infeas, d * Db))
            raise InfeasibilityError(f"LP infeasible (phase-1 objective {infeas!r})")
        # Swap any artificial still in the basis for a structural column when
        # its row has one; an all-zero row is a redundant constraint and stays inert.
        for r in np.flatnonzero(basis >= nv):
            candidates = np.flatnonzero(abs(T[r, :nv]) > arith.tol)
            if candidates.size:
                pivot(r, candidates[0])
        _phase1 = (key, (T.copy(), basis.copy(), d, iterations))

    cost = np.concatenate([c, np.zeros(k, dtype=A.dtype)])
    run_phase(cost, nv)

    # Numerators of the row-signed minimization: x is Da*x/(d*Db), a dual
    # Da*y/(d*Dc) and the value Da*v/(d*Db*Dc); every scale is 1 in float mode.
    x = np.zeros(nv, dtype=A.dtype)
    structural = basis < nv
    x[basis[structural]] = T[:k, -1][structural]
    duals = cost[basis] @ T[:k, nv:-1]
    value_min = cost[:nv] @ x
    # ``argmin`` keeps the first of equal entries, as the builtin ``min`` does,
    # so a zero margin keeps its sign; ``.min()`` may pick a later signed zero.
    reduced = d * cost[:nv] - duals @ A
    margin = reduced[reduced.argmin()] if nv else 0
    gap = abs(value_min - duals @ b) * Da
    residual = abs(A @ x - d * b).max() if k else 0

    # Report against the original rows and sense; signed zeros follow
    # ``Fraction * float``, as in the reference tableau.
    to_float = arith.to_float
    return LpSolution(
        value=float(sign * to_float(Da * value_min, d * Db * Dc)),
        x=np.asarray(to_float(Da * x, d * Db), dtype=np.float64),
        duals=np.asarray(to_float(Da * duals * row_signs, d * Dc) * sign, dtype=np.float64),
        max_residual=float(to_float(residual, d * Db)),
        duality_gap=float(to_float(gap, d * Db * Dc)),
        dual_feasibility_margin=float(to_float(margin, d * Dc)),
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
    _check_size(n * m - n + 1, m**n, "coupling LP")
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
    Programs past the caps of :func:`solve` raise ExpansionCapError.
    """
    W = as_channel(channel).matrix
    n, m = W.shape
    _check_size(m, n * m, "estimator LP")
    problem = LpProblem(
        objective=W.T.reshape(-1),
        eq_matrix=np.kron(np.eye(m), np.ones(n)),
        eq_rhs=np.ones(m),
        sense=sense,
    )
    sol = solve(problem, exact=exact)
    return sol.value / n, sol.x.reshape(m, n)
