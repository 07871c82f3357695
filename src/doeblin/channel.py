"""Finite-alphabet PMFs, row-stochastic channels, and their scalar coefficients.

A channel is an ``n x m`` row-stochastic matrix whose rows are conditional
PMFs over a common output alphabet.  This module provides the four scalar
coefficients attached to such a matrix (the column-minimum mass ``tau``, the
column-maximum mass ``tau_max``, the column-second-largest mass ``tau_max2``,
and the Dobrushin total-variation coefficient ``eta_tv``), the extremal trace
characterizations of ``tau`` and ``tau_max``, the minorization split
``W_ij = alpha * mu_j + (1 - alpha) * residual_ij``, the equivalent
erasure-channel degradation, and channel algebra (composition, Kronecker
product).

A family of PMFs enters every module as the rows of a channel, through
:func:`as_channel` alone: a :class:`Channel` passes through, and a 2-D array
or a sequence of rows (Pmfs, lists or arrays, mixed) is validated once.  Each
row is normalized once, where it enters: a :class:`Pmf` row is taken as it is,
and a family of Pmfs alone is stacked without being checked again.

All values are immutable after construction and every operation is a pure
function, so everything here can be shared freely across threads.
Alphabets are index sets ``0..m-1``; labels are cosmetic only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import AlphabetMismatchError, DegradationError, ValidationError

# Input validation absorbs text-format rounding; reconstruction identities
# hold at double precision on desk-scale matrices.
VALIDATION_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-12


def _is_int(x) -> bool:
    """Whether x is a Python or numpy integer; bools are not counts."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_float_array(values, what: str) -> np.ndarray:
    """Coerce to a float array; ragged, missing, non-numeric, complex or huge entries are invalid."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in "USc":  # casting complex to float would drop the imaginary part
            raise TypeError(f"entries of type {arr.dtype} are not real numbers")
        return arr.astype(np.float64, order="C", copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} is not a numeric table: {exc}") from exc


def _json(text: str, what: str):
    """The value of the JSON ``text``; ``what`` names it when it does not parse or an array holds a boolean."""
    try:
        value = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"{what} is not valid JSON: {exc}") from exc
    stack = [value] if "true" in text or "false" in text else []
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            if any(x is True or x is False for x in v):
                raise ValidationError(f"{what} holds a boolean in an array; JSON booleans are not numbers")
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
    return value


def _labels(labels, count: int, what: str) -> tuple[str, ...] | None:
    """None, or the list or tuple ``labels`` of ``count`` labels as a tuple
    of their ``str``; any other value is invalid."""
    if labels is None:
        return None
    if not isinstance(labels, (list, tuple)) or len(labels) != count:
        raise ValidationError(f"{what} must be a list or tuple of {count} labels")
    return tuple(str(s) for s in labels)


def _as_prob_vector(values, *, what: str = "pmf") -> np.ndarray:
    """Coerce to probability vectors along the last axis, normalized exactly.

    Every row along the last axis (the input itself, if 1-D) is checked and
    normalized in one pass: finite, no entry below ``-RECONSTRUCTION_TOL``
    (smaller negatives clamp to zero), sum within ``VALIDATION_TOL`` of one.
    The first failing row is named ``what``, or ``f"{what} row {i}"`` in a table.
    """
    arr = _as_float_array(values, what)
    if arr.ndim < 1 or arr.size < 1:
        raise ValidationError(f"{what} must be a nonempty sequence")
    clamped = np.maximum(arr, 0.0)
    totals = clamped.sum(axis=-1, keepdims=True)
    valid = arr.min() >= -RECONSTRUCTION_TOL and totals.min() >= 1.0 - VALIDATION_TOL
    if not (valid and totals.max() <= 1.0 + VALIDATION_TOL):  # false on any non-finite entry
        for i, (row, total) in enumerate(zip(arr.reshape(-1, arr.shape[-1]), totals.flat)):
            name = what if arr.ndim == 1 else f"{what} row {i}"
            if not np.all(np.isfinite(row)):
                raise ValidationError(f"{name} contains non-finite entries")
            if row.min() < -RECONSTRUCTION_TOL:
                raise ValidationError(f"{name} has a negative entry: {row.min()!r}")
            if abs(total - 1.0) > VALIDATION_TOL:
                total = float(total)
                raise ValidationError(f"{name} entries sum to {total!r}, not 1 within {VALIDATION_TOL}")
    out = clamped / totals
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Pmf:
    """A probability vector on a finite alphabet of size ``m``.

    Entries are nonnegative and sum to one; the constructor renormalizes
    exactly after checking the sum is within ``1e-9`` of one.  ``labels``
    is None or a list or tuple of one label per entry (each kept as its str).
    """

    probs: np.ndarray
    labels: tuple[str, ...] | None = None

    def __init__(self, probs, labels: Sequence[str] | None = None):
        arr = _as_prob_vector(probs)
        if arr.ndim != 1:
            raise ValidationError("pmf must be a nonempty 1-D sequence")
        object.__setattr__(self, "probs", arr)
        object.__setattr__(self, "labels", _labels(labels, arr.size, "labels"))

    @property
    def size(self) -> int:
        return int(self.probs.size)

    def __len__(self) -> int:
        return self.size

    def to_list(self) -> list[float]:
        return self.probs.tolist()


@dataclass(frozen=True, eq=False)
class Channel:
    """An ``n x m`` row-stochastic matrix; rows are conditional PMFs.  Each
    label set is None or a list or tuple of n (input) or m (output) labels.

    A family whose every row is a :class:`Pmf`, or a Channel, passes
    through: its rows are stacked as they are, with no second validation."""

    matrix: np.ndarray
    input_labels: tuple[str, ...] | None = None
    output_labels: tuple[str, ...] | None = None

    def __init__(self, rows, input_labels=None, output_labels=None):
        # Rows of a Pmf or a Channel keep their bits and, when all rows are
        # such, are not validated again; other rows are validated in one pass
        # and normalized here.
        table, normalized = _table(rows)
        if normalized and len(normalized) == len(table):
            mat = table
            mat.setflags(write=False)
        else:
            mat = _as_prob_vector(table, what="channel")
            if mat.ndim != 2:
                raise ValidationError("channel must be a nonempty 2-D matrix")
            if normalized:
                mat = mat.copy()
                mat[normalized] = table[normalized]
                mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "input_labels", _labels(input_labels, mat.shape[0], "input_labels"))
        object.__setattr__(self, "output_labels", _labels(output_labels, mat.shape[1], "output_labels"))

    @property
    def n(self) -> int:
        """Number of inputs (rows)."""
        return int(self.matrix.shape[0])

    @property
    def m(self) -> int:
        """Output alphabet size (columns)."""
        return int(self.matrix.shape[1])

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "Channel":
        """Parse ``{"rows": [[...], ...], "input_labels"?, "output_labels"?}``."""
        return cls(*_json_fields(text))

    @classmethod
    def from_csv(cls, text: str) -> "Channel":
        """Parse one comma-separated row per line; an optional header is discarded."""
        return cls(_csv_table(text))

    def to_dict(self) -> dict:
        out: dict = {"rows": self.matrix.tolist()}
        if self.input_labels is not None:
            out["input_labels"] = list(self.input_labels)
        if self.output_labels is not None:
            out["output_labels"] = list(self.output_labels)
        return out


def _json_fields(text: str) -> tuple:
    """The parsed rows, input labels and output labels of a channel JSON object."""
    obj = _json(text, "channel")
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValidationError('channel JSON must be an object with a "rows" key')
    return _parsed_table(obj["rows"]), obj.get("input_labels"), obj.get("output_labels")


def _csv_table(text: str) -> np.ndarray:
    """The parsed rows of a channel CSV, one per line; a header line is discarded."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    rows = []
    for idx, line in enumerate(lines):
        fields = [f.strip() for f in line.split(",")]
        try:
            row = [float(f) for f in fields]
        except ValueError:
            if idx == 0:
                continue  # header line
            raise ValidationError(f"non-numeric CSV entry on line {idx + 1}")
        rows.append(row)
    return _parsed_table(rows)


def _parsed_table(rows) -> np.ndarray:
    # Parsers are strict: any negative entry is rejected outright.
    arr = _as_float_array(rows, "channel")
    if (arr < 0).any():
        raise ValidationError(f"negative entry {float(arr[arr < 0][0])!r} in parsed channel")
    return arr


def _table(rows):
    """A Channel's matrix, an array as it is, or a sequence of rows (Pmfs,
    lists or arrays, mixed) stacked once their lengths agree; with it, the
    indices of the rows normalized already (a Channel's or a Pmf's)."""
    if isinstance(rows, Channel):
        return rows.matrix, list(range(rows.n))
    if not isinstance(rows, (list, tuple)) or not rows:
        return rows, []
    vectors = [r.probs if isinstance(r, Pmf) else _as_float_array(r, f"channel row {i}")
               for i, r in enumerate(rows)]
    if any(v.shape != vectors[0].shape for v in vectors):
        raise AlphabetMismatchError("PMFs must share one alphabet")
    return np.stack(vectors), [i for i, r in enumerate(rows) if isinstance(r, Pmf)]


def as_channel(obj) -> Channel:
    """The family ``obj`` as a channel, one PMF per row: a Channel passes
    through; a 2-D array, or a sequence of Pmfs, lists or arrays in any mix,
    is validated once.  Rows of unequal length raise AlphabetMismatchError."""
    return obj if isinstance(obj, Channel) else Channel(obj)


def _family(obj, complaint: str) -> Channel:
    """:func:`as_channel`, raising ``ValidationError(complaint)`` when the
    family has fewer than two members."""
    ch = as_channel(obj)
    if ch.n < 2:
        raise ValidationError(complaint)
    return ch


# ---------------------------------------------------------------------------
# Scalar coefficients
# ---------------------------------------------------------------------------


def doeblin(channel) -> float:
    """Doeblin coefficient: the total column-minimum mass, in [0, 1]."""
    W = as_channel(channel).matrix
    return float(W.min(axis=0).sum())


def max_doeblin(channel) -> float:
    """Max-Doeblin coefficient: the total column-maximum mass, in [1, n]."""
    W = as_channel(channel).matrix
    return float(W.max(axis=0).sum())


def max2_doeblin(channel) -> float:
    """Total column second-largest mass.

    Where several rows tie for a column's maximum, the second-largest value
    equals that maximum.  Undefined for a single row.
    """
    W = _family(channel, "max2_doeblin requires at least two rows").matrix
    ordered = np.sort(W, axis=0)  # ascending per column
    return float(ordered[-2, :].sum())


def dobrushin_tv(channel) -> float:
    """Dobrushin coefficient: the largest pairwise total-variation distance."""
    W = _family(channel, "dobrushin_tv requires at least two rows").matrix
    best = 0.0
    for i in range(W.shape[0] - 1):
        diffs = 0.5 * np.abs(W[i + 1 :] - W[i]).sum(axis=1)
        best = max(best, float(diffs.max()))
    return best


def tv_distance(p, q) -> float:
    """Total variation distance between two PMFs (half the L1 distance),
    validated as the two-row family ``[p, q]``."""
    return dobrushin_tv([p, q])


@dataclass(frozen=True)
class CoefficientReport:
    """The six scalar coefficients of one channel."""

    tau: float
    gamma: float
    tau_max: float
    gamma_max: float
    tau_max2: float
    eta_tv: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def report(channel) -> CoefficientReport:
    """Compute all six coefficients of a channel with at least two rows."""
    ch = _family(channel, "report requires at least two rows")
    tau = doeblin(ch)
    tmax = max_doeblin(ch)
    return CoefficientReport(
        tau=tau,
        gamma=1.0 - tau,
        tau_max=tmax,
        gamma_max=(tmax - 1.0) / (ch.n - 1),
        tau_max2=max2_doeblin(ch),
        eta_tv=dobrushin_tv(ch),
    )


# ---------------------------------------------------------------------------
# Trace characterizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceResult:
    value: float
    kernel: Channel  # deterministic m x n estimation kernel attaining the value


def _trace_extremum(M: np.ndarray, pick) -> TraceResult:
    """The extremal trace of Tr(P M) over row-stochastic ``m x n`` matrices P,
    for any nonnegative ``n x m`` matrix M: ``pick`` (np.argmin or np.argmax)
    chooses one row per column, the smallest attaining index on ties, and
    the kernel is the deterministic ``m x n`` 0/1 matrix putting unit mass
    there.  On a channel's matrix this is the trace characterization of the
    (max-)Doeblin coefficient; on the prior-weighted matrix lambda_i W_i(y)
    it is the Bayes rule behind the min-/max-DeGroot estimators."""
    n, m = M.shape
    choice = pick(M, axis=0)
    value = float(M[choice, np.arange(m)].sum())
    P = np.zeros((m, n))
    P[np.arange(m), choice] = 1.0
    return TraceResult(value=value, kernel=Channel(P))


def min_trace(channel) -> TraceResult:
    """Minimum of Tr(P W) over row-stochastic ``m x n`` matrices P.

    The value is the Doeblin coefficient; the minimizer puts unit mass, in
    row j, on the smallest row index attaining the column-j minimum.
    """
    return _trace_extremum(as_channel(channel).matrix, np.argmin)


def max_trace(channel) -> TraceResult:
    """Maximum of Tr(P W); dual to :func:`min_trace` with column maxima."""
    return _trace_extremum(as_channel(channel).matrix, np.argmax)


# ---------------------------------------------------------------------------
# Minorization and erasure degradation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinorizationSplit:
    """Decomposition ``W_ij = alpha * mu_j + (1 - alpha) * residual_ij``.

    ``alpha`` is the Doeblin coefficient.  When ``alpha`` is 0 (``mu``
    undefined) or 1 (residual undefined) the undefined part is filled with
    uniform distributions and ``degenerate`` is set.
    """

    alpha: float
    mu: Pmf
    residual: Channel
    degenerate: bool = False


def _minorize(W: np.ndarray, epsilon: float, tau: float) -> tuple[np.ndarray, np.ndarray | None]:
    """``(mu, body)`` with ``W = epsilon * mu + (1 - epsilon) * body`` for
    ``0 < epsilon <= tau = doeblin(W)``; body is None when its rows carry no
    mass.  Each row subtracts ``(epsilon / tau) * colmin`` (exactly ``colmin``
    at ``epsilon = tau``) and is divided by its own sum, not by ``1 - epsilon``,
    which would magnify the subtraction's rounding as ``epsilon`` nears one."""
    colmin = W.min(axis=0)
    body = np.maximum(W - (epsilon / tau) * colmin[None, :], 0.0)
    mass = body.sum(axis=1)
    return colmin / tau, (body / mass[:, None] if float(mass.max()) > RECONSTRUCTION_TOL else None)


def minorization_split(channel) -> MinorizationSplit:
    ch = as_channel(channel)
    W = ch.matrix
    n, m = W.shape
    alpha = doeblin(ch)
    if alpha <= 0.0:
        mu, residual = None, W / W.sum(axis=1)[:, None]
    else:
        mu, residual = _minorize(W, alpha, alpha)
    return MinorizationSplit(
        alpha=alpha,
        mu=Pmf(np.full(m, 1.0 / m) if mu is None else mu),
        residual=Channel(np.full((n, m), 1.0 / m) if residual is None else residual),
        degenerate=mu is None or residual is None,
    )


def _check_erasure_rate(epsilon) -> None:
    """An erasure probability is a real number in [0, 1]."""
    real = isinstance(epsilon, (int, float, np.integer, np.floating)) and not isinstance(epsilon, bool)
    if not (real and 0.0 <= epsilon <= 1.0):
        raise ValidationError(f"erasure probability must be a number in [0, 1], got {epsilon!r}")


def erasure_channel(r: int, epsilon: float) -> Channel:
    """The ``r``-input erasure channel: keep the input w.p. ``1 - epsilon``,
    emit the erasure symbol (last column) w.p. ``epsilon``."""
    if not (_is_int(r) and r > 0):
        raise ValidationError(f"an erasure channel needs a positive integer input count, got {r!r}")
    _check_erasure_rate(epsilon)
    E = np.hstack([(1.0 - epsilon) * np.eye(r), np.full((r, 1), epsilon)])
    return Channel(E)


def erasure_degradation(channel, epsilon: float) -> Channel:
    """A kernel P through which the epsilon-erasure channel reproduces W.

    Returns an ``(n+1) x m`` channel (rows: the n non-erased inputs, then
    the erasure symbol) with ``W = E_epsilon @ P`` entrywise.  Feasible
    exactly when ``epsilon <= doeblin(W)``; at equality the erasure row is
    the minorizing distribution.
    """
    ch = as_channel(channel)
    W = ch.matrix
    n, m = W.shape
    _check_erasure_rate(epsilon)
    tau = doeblin(ch)
    if epsilon > tau + RECONSTRUCTION_TOL:
        raise DegradationError(
            f"no degradation at erasure rate {epsilon!r}: it exceeds the "
            f"Doeblin coefficient {tau!r}"
        )
    epsilon = min(epsilon, tau)
    if epsilon == 0.0:
        rows = np.vstack([W, np.full((1, m), 1.0 / m)])
        return Channel(rows)
    mu, body = _minorize(W, epsilon, tau)
    if body is None:  # tau = epsilon = 1: all rows equal, the non-erased rows carry no mass
        body = np.full((n, m), 1.0 / m)
    return Channel(np.vstack([body, mu[None, :]]))


# ---------------------------------------------------------------------------
# Channel algebra
# ---------------------------------------------------------------------------


def compose(first, second) -> Channel:
    """Matrix product of channels (apply ``first``, then ``second``)."""
    V = as_channel(first).matrix
    W = as_channel(second).matrix
    if V.shape[1] != W.shape[0]:
        raise ValidationError(
            f"inner dimensions disagree: {V.shape[1]} outputs vs {W.shape[0]} inputs"
        )
    return Channel(V @ W)  # renormalizes the rounding in the row sums


def tensor(first, second) -> Channel:
    """Kronecker product; both coefficients multiply across it."""
    V = as_channel(first).matrix
    W = as_channel(second).matrix
    return Channel(np.kron(V, W))
