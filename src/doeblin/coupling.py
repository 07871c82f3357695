"""Extremal couplings with verifiable marginal guarantees.

Three constructions live here:

* :func:`maximal_coupling` glues all coordinates on a shared diagonal
  component whose total mass is the Doeblin coefficient (the largest
  achievable probability that every coordinate coincides), plus one product
  component for the leftover mass.
* :func:`minimal_coupling_max` minimizes the summed union mass: down to the
  max-Doeblin coefficient when the column-second-largest mass is at most
  one, gluing the entries above each positive gap of a sorted column; past
  that, for three marginals, to ``tau_max + (tau_max2 - 1)`` with corrected
  free factors and no full-product component.
* :func:`simultaneous_joint_coupling` couples bivariate distributions so the
  all-pairs-equal probability and the first-coordinate-equal probability are
  both maximal at once; it is a coupling over the product alphabet.

Every coupling has one form (:class:`Coupling`): a weighted mixture of
components, each gluing a block of coordinates on one shared factor and
drawing every other coordinate from its own.  Each factor is one row of a
pool, which an integer index names for every coordinate; the glued ones of a
component all name its shared row.  Masses are read through the index in
closed form, and orthogonality from supports packed in 64-bit words, block
by block; the sparse joint table is expanded, under a cap, only for export
and tests.  Zero-weight components, and the rows only they name, are dropped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .channel import VALIDATION_TOL, _as_float_array, _as_prob_vector, _family, _is_int, max2_doeblin, max_doeblin
from .exceptions import (
    AlphabetMismatchError,
    CouplingConditionError,
    ExpansionCapError,
    ValidationError,
)

DEFAULT_EXPANSION_CAP = 10**6
_ORTHOGONAL_BLOCK_CELLS = 1 << 18  # support words held by one block of orthogonal_components

# Components below this weight carry no verifiable mass at double precision;
# they are dropped so their factor normalizers (possibly 0/0) never run.
_ZERO_WEIGHT = 1e-14

# The gap mixture needs tau_max2 <= 1, up to this threshold.  Past it
# minimal_coupling_max builds the three-marginal mixture or raises, and
# minimal_union_mass adds tau_max2 - 1 or has no closed form.
_MAX2_LIMIT = 1.0 + 1e-12

_MARGINALS = "couplings need at least two marginals"


def _normalized(raw: np.ndarray) -> np.ndarray:
    """Each row along the last axis divided by its sum."""
    totals = raw.sum(axis=-1, keepdims=True)
    if not (totals > 0.0).all():
        raise ValidationError("cannot normalize an all-zero factor")
    return raw / totals


@dataclass(eq=False)
class Coupling:
    """A joint distribution over n-tuples on m symbols, stored as a mixture of
    K components.  Component k draws its glued coordinates as one symbol from
    its shared factor and every other coordinate i independently from
    ``pool[index[k, i]]``.

    Arrays: ``weights`` (K,), the factor pool ``pool`` (F, m), the integer
    ``index`` (K, n) into it and the glue mask ``glued`` (K, n).  The glued
    coordinates of a component all name one row, its shared factor.
    ``expanded`` stays ``None`` until :meth:`expand` fills it, and is not
    copied by ``dataclasses.replace``.
    """

    weights: np.ndarray
    pool: np.ndarray
    index: np.ndarray
    glued: np.ndarray
    expanded: dict | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not all(isinstance(a, np.ndarray) for a in (self.weights, self.pool, self.index, self.glued)):
            raise ValidationError("coupling weights, pool, index and glued must be numpy arrays")
        shape, index = self.glued.shape, self.index
        if not (len(shape) == 2 and 0 not in shape and self.weights.shape == shape[:1] and index.shape == shape
                and self.pool.ndim == 2 and self.glued.dtype == bool):
            raise ValidationError("a coupling needs weights (K,), pool (F, m), index and boolean glued (K, n)")
        if not (index.dtype.kind in "iu" and 0 <= index.min() and index.max() < len(self.pool)):
            raise ValidationError(f"coupling index must hold integers in [0, {len(self.pool)})")
        if not (index == self._shared_rows[:, None])[self.glued].all():
            raise ValidationError("glued coordinates of a component must name one shared pool row")
        if not self.weights.dtype.kind == self.pool.dtype.kind == "f":
            raise ValidationError("coupling weights and pool must be float arrays")
        if not (0.0 <= self.weights.min() and self.weights.sum() < np.inf  # false on NaN and inf
                and np.abs(self.pool.sum(axis=1) - 1.0).max() <= VALIDATION_TOL and 0.0 <= self.pool.min()):
            raise ValidationError("coupling weights and pool entries must be finite and >= 0, pool rows sum to 1")

    @property
    def arity(self) -> int:
        return self.glued.shape[1]

    @property
    def alphabet_size(self) -> int:
        return self.pool.shape[1]

    @cached_property
    def _shared_rows(self) -> np.ndarray:  # (K,): each component's first glued row
        return self.index[np.arange(len(self.glued)), self.glued.argmax(axis=1)]

    @property
    def components(self) -> list[dict]:
        """One record per component, as :meth:`to_dict` emits it; no two share a list."""
        rows = self.pool.tolist()
        return [
            {
                "weight": w,
                "glued": [i for i, gi in enumerate(g) if gi],
                "shared_factor": list(rows[s]) if any(g) else None,
                "free_factors": {str(i): list(rows[j]) for i, (j, gi) in enumerate(zip(f, g)) if not gi},
            }
            for w, s, f, g in zip(*(a.tolist() for a in (self.weights, self._shared_rows, self.index, self.glued)))
        ]

    def weight_sum(self) -> float:
        return float(self.weights.sum())

    def _coords(self, coords: Sequence[int]) -> list[int]:
        """``coords`` as a list, each an integer in ``0..n-1`` named once; else ValidationError."""
        try:
            coords = list(coords)
        except TypeError as exc:
            raise ValidationError(f"coupling coordinates must be a sequence: {exc}") from exc
        n = self.arity
        if not (all(_is_int(c) and 0 <= c < n for c in coords) and len(set(coords)) == len(coords)):
            raise ValidationError(f"coupling coordinates must be distinct integers in 0..{n - 1}, got {coords}")
        return coords

    def marginal(self, coord: int) -> np.ndarray:
        """Coordinate marginal: the weighted sum of that coordinate's factors.  For n > 1
        the rows are read at a row stride of 2m, like a column of the (K, n, m) factor
        view: BLAS rounds a contiguous operand differently in the last bit."""
        (coord,) = self._coords([coord])
        rows = self.pool[self.index[:, coord]]
        if self.arity > 1:
            rows = rows.repeat(2, axis=0)[::2]
        return self.weights @ rows

    def expand(self) -> dict:
        """Materialize the sparse joint table (memoized), for export and tests.

        Each component visits only its support: the glued block's symbols,
        then each free coordinate's, at their row-major cell numbers.  Only
        supports are held, merged whenever they pass m**n cells; each cell
        sums from 0.0 in component order, and the keys come out in row-major
        order.  More than DEFAULT_EXPANSION_CAP cells (m**n) raise ExpansionCapError."""
        if self.expanded is not None:
            return self.expanded
        n, m = self.arity, self.alphabet_size
        if m**n > DEFAULT_EXPANSION_CAP:
            raise ExpansionCapError(f"expansion needs {m ** n} entries (cap {DEFAULT_EXPANSION_CAP})")
        place = m ** np.arange(n - 1, -1, -1)
        pieces, held = [], 0
        for w, s, rows, g in zip(self.weights, self._shared_rows, self.index, self.glued):
            cells, mass = np.zeros(1, dtype=np.int64), np.ones(1)
            block = [(self.pool[s], place[g].sum())] if g.any() else []  # the glued block as one coordinate
            for f, step in block + list(zip(self.pool[rows[~g]], place[~g])):
                ys = np.flatnonzero(f > 0.0)
                cells = (cells[:, None] + ys * step).ravel()
                mass = (mass[:, None] * f[ys]).ravel()
            pieces.append((cells, w * mass))
            held += len(cells)
            if held > m**n:  # merged early, so the pieces never hold more than 3 m**n cells
                pieces, held = [_merged(pieces)], 0
        cells, mass = _merged(pieces)
        keys = np.stack(np.unravel_index(cells, (m,) * n), axis=1).tolist()
        self.expanded = {tuple(key): v for key, v in zip(keys, mass.tolist())}
        return self.expanded

    def diagonal_mass(self) -> float:
        """Probability that every coordinate takes the same symbol."""
        return self.intersection_mass(range(self.arity))

    def union_mass(self) -> float:
        """Summed over symbols y, the probability that some coordinate hits y.
        A component misses y with probability (1 - s(y)) prod_i (1 - f_i(y))."""
        shared_miss = np.where(self.glued.any(axis=1)[:, None], 1.0 - self.pool[self._shared_rows], 1.0)
        miss = shared_miss * np.where(self.glued[:, :, None], 1.0, (1.0 - self.pool)[self.index]).prod(axis=1)
        return float(self.weights @ (self.alphabet_size - miss.sum(axis=1)))

    def intersection_mass(self, coords: Sequence[int]) -> float:
        """Summed over y, the probability that all the given coordinates hit y:
        per component sum_y s(y) prod_{free i in coords} f_i(y), with s = 1
        when no glued coordinate is among them."""
        return self._intersection_over(self.pool, self._coords(coords))

    def _intersection_over(self, pool: np.ndarray, coords: list[int]) -> float:
        """:meth:`intersection_mass` with each factor read from the same row of
        ``pool``, which may hold them pushed forward to another alphabet."""
        in_glue = self.glued[:, coords]
        prod = np.where(in_glue[:, :, None], 1.0, pool[self.index[:, coords]]).prod(axis=1)
        head = np.where(in_glue.any(axis=1)[:, None], pool[self._shared_rows], 1.0)
        return float(self.weights @ (head * prod).sum(axis=1))

    def intersection_masses(self) -> dict[tuple[int, ...], float]:
        """:meth:`intersection_mass` of every subset of two or more coordinates, built one
        coordinate at a time from one gather of the free factors; row ``mask`` holds the
        subset of its bits.  Raises ExpansionCapError when 2^n * K * m > DEFAULT_EXPANSION_CAP."""
        shared, glued = self.pool[self._shared_rows], self.glued  # shared: unread without glue
        rows = 1 << self.arity
        if rows * shared.size > DEFAULT_EXPANSION_CAP:
            raise ExpansionCapError(f"subset table needs {rows * shared.size} entries (cap {DEFAULT_EXPANSION_CAP})")
        free = np.where(glued[:, :, None], 1.0, self.pool[self.index])
        prod = np.empty((rows, *shared.shape))  # free factors' product over the subset
        prod[0] = 1.0
        for i in range(self.arity):
            np.multiply(prod[: 1 << i], free[:, i], out=prod[1 << i : 2 << i])
        hit = (np.arange(rows)[:, None] & (glued @ (1 << np.arange(self.arity)))) > 0  # subset meets the glue
        sums = np.where(hit, np.einsum("km,skm->sk", shared, prod), prod.sum(axis=2))
        keys, masks = _subsets(self.arity)
        return dict(zip(keys, (sums @ self.weights)[masks].tolist()))

    def orthogonal_components(self) -> bool:
        """Whether no two components share a tuple of positive mass.

        Components a and b share one iff every block of coordinates forced
        equal has a symbol all factors of a and b on it allow.  The blocks
        are the union of the two glued sets when they meet, each glued set
        when they do not, and every coordinate free in both.  Supports are
        packed into ceil(m / 64) 64-bit words, and the pairs (a, b > a) compared
        in blocks of rows a, each intermediate held to _ORTHOGONAL_BLOCK_CELLS
        words (or to one row a's).
        """
        glued = self.glued
        support = np.zeros((len(self.pool), -self.alphabet_size // 64 * -64), dtype=bool)
        support[:, : self.alphabet_size] = self.pool > 0.0
        bits = np.packbits(support, axis=1).view(np.uint64)[self.index].transpose(1, 2, 0).copy()  # (n, words, K)
        free = np.where(glued.T, np.uint64(0), ~np.uint64(0))[:, None]  # all ones on a free coordinate
        step = max(1, _ORTHOGONAL_BLOCK_CELLS // bits.size)  # rows a per block
        for lo in range(0, len(glued) - 1, step):
            a, b = slice(lo, lo + step), slice(lo + 1, None)
            both = bits[..., a, None] & bits[..., None, b]  # symbols a and b both allow, per coordinate
            # The symbols each one's glued block allows, allowed by the other too (all without glue).
            own = np.bitwise_and.reduce(both | free[..., a, None], axis=0)
            other = np.bitwise_and.reduce(both | free[..., None, b], axis=0)
            glued_ok = np.where(glued[a] @ glued[b].T, (own & other).any(axis=0), own.any(axis=0) & other.any(axis=0))
            # A coordinate free in both needs one symbol both factors allow.
            lone_ok = (both.any(axis=1) | glued.T[:, a, None] | glued.T[:, None, b]).all(axis=0)
            if np.triu(glued_ok & lone_ok).any():
                return False
        return True

    def to_dict(self, include_expanded: bool = False) -> dict:
        out = {"arity": self.arity, "alphabet": self.alphabet_size, "components": self.components}
        if include_expanded:
            out["expanded"] = [{"tuple": list(key), "mass": mass} for key, mass in self.expand().items()]
        return out


@lru_cache(maxsize=16)
def _subsets(n: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Every subset of two or more of n coordinates, by size then lexicographically, and its bit mask."""
    keys = tuple(c for size in range(2, n + 1) for c in itertools.combinations(range(n), size))
    masks = np.array([sum(1 << i for i in c) for c in keys], dtype=np.intp)
    masks.setflags(write=False)  # shared by every caller
    return keys, masks


def _merged(pieces: list) -> tuple[np.ndarray, np.ndarray]:
    """(cells, masses) pieces as one: the distinct cells ascending, each mass summed from 0.0 in piece order."""
    cells, inverse = np.unique(np.concatenate([c for c, _ in pieces]), return_inverse=True)
    return cells, np.bincount(inverse, np.concatenate([v for _, v in pieces]))


def _mixture(weights, shared, free, glued) -> Coupling:
    """A :class:`Coupling` pooling unnormalized ``shared`` (K, m) and ``free`` (n, m) or (K, n, m)
    rows; glued coordinates name their shared row.  Components of weight at most ``_ZERO_WEIGHT``
    are dropped first, with the rows only they name; each row left is normalized; Coupling validates."""
    (K, m), n = shared.shape, glued.shape[1]
    raw = np.concatenate([shared, free.reshape(-1, m)])
    keep = weights > _ZERO_WEIGHT
    index = np.where(glued, np.arange(K)[:, None], np.arange(K, len(raw)).reshape(-1, n))[keep]
    used = np.bincount(index.ravel(), minlength=len(raw)) > 0
    pool = _normalized(_normalized(raw[used]))  # the second division sets the last bits
    pool.setflags(write=False)
    return Coupling(weights[keep], pool, (used.cumsum() - 1)[index], glued[keep])


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def maximal_coupling(pmfs: Sequence) -> Coupling:
    """Coupling maximizing the probability that all coordinates coincide.

    The diagonal component carries exactly the column-minimum mass at every
    symbol, so the all-equal probability equals the Doeblin coefficient.
    """
    mats = _family(pmfs, _MARGINALS).matrix
    n, m = mats.shape
    colmin = mats.min(axis=0)
    c = float(colmin.sum())
    return _mixture(
        weights=np.array([c, 1.0 - c]),
        shared=np.stack([colmin, np.zeros(m)]),
        free=np.maximum(mats - colmin, 0.0),
        glued=np.repeat([[True], [False]], n, axis=1),
    )


def minimal_coupling_max(pmfs: Sequence) -> Coupling:
    """Coupling minimizing the summed union mass, attaining
    :func:`minimal_union_mass`.  Past a column-second-largest mass of one it
    builds three marginals only; any other family there raises
    CouplingConditionError, pointing at the LP oracle.

    Gluing a set G of coordinates puts mass ``(min over G - max off G)_+`` on
    each symbol, positive only when G holds the |G| largest entries of the
    column with a strict gap below them; the mass is then that gap.  So
    there are at most m components per size |G| = 2..n, and ``m (n - 1) + 1``
    with the full product of the strict-maximum excess factors, weighing
    ``1 - tau_max2``.  Every coordinate subset then meets with its
    column-minimum mass, so the all-equal probability is maximal too.
    """
    mats = _family(pmfs, _MARGINALS).matrix
    n, m = mats.shape
    ordered = np.sort(mats, axis=0)
    tau_max2 = float(ordered[-2, :].sum())
    if tau_max2 > _MAX2_LIMIT:
        if n == 3:
            return _minimal_trio(mats, tau_max2)
        raise CouplingConditionError(
            f"column-second-largest mass {tau_max2!r} exceeds 1; past it the union-minimal "
            f"mixture is known only for three marginals, not {n}. "
            "The LP oracle still yields an empirical minimum."
        )
    colmax = ordered[-1]
    # Strict-maximum excess of each marginal over the others' pointwise max.
    excess = np.where(mats == colmax, colmax - ordered[-2], 0.0)
    # Row k: each column's gap below its k + 2 largest entries, that glue set's mass.
    gaps = ordered[-2::-1] - np.vstack([ordered[-3::-1], np.zeros(m)])
    ks, ys = np.nonzero(gaps > 0.0)
    free = n - 2 - ks  # free-set size; ordered[free] is the smallest glued entry
    # Sorted by free-set size, then glue mask (False first); the full product comes last.
    keys = np.vstack([np.column_stack([free, mats[:, ys].T >= ordered[free, ys, None]]), [n] + [0] * n])
    order = np.lexsort(keys.T[::-1])  # rows ascending, the first column first
    first = np.concatenate([[True], (keys[order[1:]] != keys[order[:-1]]).any(axis=1)])
    glued = keys[order[first], 1:] > 0
    shared = np.zeros((len(glued), m))
    shared[(first.cumsum() - 1)[order.argsort()][:-1], ys] = gaps[ks, ys]  # each row's component
    weights = shared.sum(axis=1)
    # The components leaving coordinate a free, the full product included,
    # weigh its excess mass in all.  A coordinate that is never a strict
    # column maximum has none, so those weights (tau_max2 - 1 and 1 - tau_max2)
    # are rounding or tolerance, and are dropped.
    leaves_idle = (~glued & ~excess.any(axis=1)).any(axis=1)
    weights[leaves_idle] = 0.0
    weights[-1] = 0.0 if leaves_idle[-1] else 1.0 - weights[weights > _ZERO_WEIGHT].sum()
    return _mixture(weights, shared, excess, glued)


def _minimal_trio(mats: np.ndarray, tau_max2: float) -> Coupling:
    """Union-minimal coupling of three marginals (3, m) past the threshold.
    Each free factor gains a correction proportional to ``(tau_max2 - 1)/3``
    spread over the two pair-overlap factors touching its coordinate, and
    there is no full-product component; the union mass is
    ``tau_max + (tau_max2 - 1)``."""
    pmin = mats.min(axis=0)
    # Row i is the overlap of the pair that leaves coordinate i out.  Its
    # excess over the triple overlap is positive here: a pair overlap equal
    # to the triple one forces the second-largest mass down to 1 or below.
    pair_min = np.minimum(mats[[1, 0, 0]], mats[[2, 2, 1]])
    pair_excess = np.maximum(pair_min - pmin, 0.0)
    pair_glue = _normalized(pair_excess)
    # Coordinate i is touched by the pairs leaving out touch_a[i] and touch_b[i].
    touch_a, touch_b = [2, 2, 1], [1, 0, 0]
    bump = (tau_max2 - 1.0) / 3.0
    correction = bump * (pair_glue[touch_a] + pair_glue[touch_b])
    raw = np.maximum(mats + pmin - pair_min[touch_a] - pair_min[touch_b] + correction, 0.0)
    # Component 0 glues all three on the triple overlap; component i + 1
    # glues the other two on their pair excess and leaves i free on raw[i].
    return _mixture(
        weights=np.concatenate([[pmin.sum()], raw.sum(axis=1)]),
        shared=np.vstack([pmin, pair_excess]),
        free=raw,
        glued=~np.eye(4, 3, k=-1, dtype=bool),
    )


def minimal_union_mass(pmfs: Sequence) -> float | None:
    """Closed-form minimum of the summed union mass over all couplings:
    ``tau_max`` when ``tau_max2 <= 1``, ``tau_max + (tau_max2 - 1)`` for three
    marginals, otherwise ``None`` (no closed form is known).  These are
    exactly the families that :func:`minimal_coupling_max` builds."""
    ch = _family(pmfs, _MARGINALS)
    tmax, tmax2 = max_doeblin(ch), max2_doeblin(ch)
    if tmax2 <= _MAX2_LIMIT:
        return tmax
    if ch.n == 3:
        return tmax + (tmax2 - 1.0)
    return None


# ---------------------------------------------------------------------------
# Simultaneously maximal coupling of bivariate distributions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class JointCoupling:
    """Coupling of n bivariate (X, Y) distributions: a :class:`Coupling` over
    the product alphabet, in which the pair (x, y) is the symbol
    ``x * y_size + y``.

    Every mass and marginal is read from that mixture.  ``table`` is its
    expansion under the cap, keyed by n-tuples of (x, y) index pairs.
    """

    x_size: int
    y_size: int
    coupling: Coupling

    @property
    def arity(self) -> int:
        return self.coupling.arity

    @cached_property
    def table(self) -> dict:
        return {tuple(divmod(s, self.y_size) for s in key): mass for key, mass in self.coupling.expand().items()}

    def bivariate_marginal(self, i: int) -> np.ndarray:
        return self.coupling.marginal(i).reshape(self.x_size, self.y_size)

    def prob_all_equal(self) -> float:
        """Probability that the X block and the Y block each coincide."""
        return self.coupling.diagonal_mass()

    def prob_x_equal(self) -> float:
        """Probability that the X block coincides: the diagonal mass of the
        mixture pushed forward to X, which keeps the glue and sums each
        factor over y."""
        c = self.coupling
        x_pool = c.pool.reshape(-1, self.x_size, self.y_size).sum(axis=-1)
        return c._intersection_over(x_pool, list(range(c.arity)))

    def to_dict(self, include_table: bool = True) -> dict:
        """The expanded table, or with ``include_table=False`` the mixture's
        components over the product alphabet."""
        out = {"arity": self.arity, "x_alphabet": self.x_size, "y_alphabet": self.y_size}
        if include_table:
            out["table"] = [{"tuple": [list(xy) for xy in key], "mass": mass} for key, mass in self.table.items()]
        else:
            out["components"] = self.coupling.components
        return out


def simultaneous_joint_coupling(joints: Sequence) -> JointCoupling:
    """Couple bivariate targets so that both the all-pairs-equal probability
    and the X-coordinates-equal probability are simultaneously maximal
    (each equal to the corresponding column-minimum mass).  The tables'
    count and shapes, and the size of the free-factor pool they need, are
    checked first, then their values in one pass.

    Three kinds of component, over the product alphabet:

    * all glued on the pointwise minimum of the tables;
    * for each x, weight ``x_min(x) - s(x)`` (the X-overlap left at x once
      the diagonal mass ``s(x)`` is used), every X_i = x and each Y_i drawn
      from its leftover conditional at x;
    * weight ``1 - c_x``, each (X_i, Y_i) drawn from its own leftover X
      mass times that leftover conditional.
    """
    tables = [_as_float_array(j, f"joint distribution {i}") for i, j in enumerate(joints)]
    if len(tables) < 2:
        raise ValidationError("need at least two joint distributions")
    if any(t.ndim != 2 for t in tables):
        raise ValidationError("joint distributions must be 2-D tables")
    if any(t.shape != tables[0].shape for t in tables):
        raise AlphabetMismatchError("joint distributions must share X and Y alphabets")
    n, (xs, ys) = len(tables), tables[0].shape
    if (entries := (xs + 2) * n * xs * ys) > DEFAULT_EXPANSION_CAP:  # the free factors below
        raise ExpansionCapError(f"joint factor pool needs {entries} entries (cap {DEFAULT_EXPANSION_CAP})")
    stackd = _as_prob_vector(np.reshape(tables, (n, -1)), what="joint distribution").reshape(n, xs, ys)
    pmin = stackd.min(axis=0)  # pointwise over (x, y)
    x_marg = stackd.sum(axis=2)  # (n, xs)
    x_min = x_marg.min(axis=0)
    s = pmin.sum(axis=1)  # per x, the mass already used on the full diagonal
    # Leftover conditional of Y_i at x once the diagonal mass is removed.
    left = np.maximum(stackd - pmin, 0.0)
    denom = (x_marg - s)[:, :, None]
    cond = np.divide(left, denom, out=np.zeros_like(left), where=denom > 0.0)

    # Free factors, one row per component: none glued; component x puts every
    # X_i on x; the all-free one weighs each conditional by the leftover X mass.
    free = np.zeros((xs + 2, n, xs, ys))
    free[np.arange(1, xs + 1), :, np.arange(xs)] = cond.transpose(1, 0, 2)
    free[-1] = (x_marg - x_min)[:, :, None] * cond
    coupling = _mixture(
        weights=np.concatenate([[pmin.sum()], x_min - s, [1.0 - x_min.sum()]]),
        shared=np.concatenate([pmin.reshape(1, -1), np.zeros((xs + 1, xs * ys))]),
        free=free,
        glued=np.repeat([[True]] + [[False]] * (xs + 1), n, axis=1),
    )
    return JointCoupling(xs, ys, coupling)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Residuals and structural checks for a coupling against its targets."""

    weight_residual: float
    marginal_residuals: tuple[float, ...]
    diagonal_mass: float
    union_mass: float
    intersection_masses: dict  # subset (tuple of coords) -> mass
    orthogonal_components: bool

    @property
    def max_marginal_residual(self) -> float:
        return max(self.marginal_residuals)

    def to_dict(self) -> dict:
        return {
            "weight_residual": self.weight_residual,
            "marginal_residuals": list(self.marginal_residuals),
            "diagonal_mass": self.diagonal_mass,
            "union_mass": self.union_mass,
            "orthogonal_components": self.orthogonal_components,
            "intersection_masses": {
                ",".join(map(str, k)): v for k, v in sorted(self.intersection_masses.items())
            },
        }


def verify_coupling(coupling: Coupling, targets: Sequence) -> VerificationReport:
    """Report marginal residuals, diagonal/union/intersection masses, and
    component orthogonality, all read from the mixture without expansion.
    Raises ExpansionCapError when 2^n * K * m > DEFAULT_EXPANSION_CAP (the subset table)."""
    mats = _family(targets, _MARGINALS).matrix
    n, m = mats.shape
    if n != coupling.arity or m != coupling.alphabet_size:
        raise AlphabetMismatchError("targets do not match the coupling's shape")
    intersections = coupling.intersection_masses()
    # Each marginal from one gather of the (K, n, m) factor view, strided as marginal() reads it.
    marginals = np.array([coupling.weights @ f for f in coupling.pool[coupling.index].transpose(1, 0, 2)])
    return VerificationReport(
        weight_residual=abs(coupling.weight_sum() - 1.0),
        marginal_residuals=tuple(np.abs(marginals - mats).max(axis=1).tolist()),
        diagonal_mass=intersections[tuple(range(n))],
        union_mass=coupling.union_mass(),
        intersection_masses=intersections,
        orthogonal_components=coupling.orthogonal_components(),
    )
