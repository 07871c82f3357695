"""Extremal couplings with verifiable marginal guarantees.

Four constructions live here:

* :func:`maximal_coupling` glues all coordinates on a shared diagonal
  component whose total mass is the Doeblin coefficient (the largest
  achievable probability that every coordinate coincides), plus one product
  component for the leftover mass.
* :func:`minimal_coupling_max` minimizes the summed union mass down to the
  max-Doeblin coefficient.  It mixes one component per subset A of
  coordinates left free: the complement of A is glued on a shared factor and
  each free coordinate follows its own "strict-maximum excess" factor.  The
  construction is valid exactly when the column-second-largest mass is at
  most one.
* :func:`minimal_coupling_max_n3` covers three marginals unconditionally;
  past the validity threshold it switches to corrected free factors and
  drops the full-product component, attaining
  ``tau_max + (tau_max2 - 1)_+``.
* :func:`simultaneous_joint_coupling` couples bivariate distributions so the
  all-pairs-equal probability and the first-coordinate-equal probability are
  both maximal at once.

Couplings are stored structured-first: a weighted mixture of glue-pattern
components, each a product of independent factors, from which every mass
is read in closed form at any size.  The sparse joint table is expanded,
under a cap, only for ``couple --expand`` export and as the test oracle.
Components with zero weight are dropped before their factors are
normalized, so the 0/0 corner cases are never evaluated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import Pmf, _as_float_array, _as_prob_vector, max2_doeblin, max_doeblin, stack_pmfs
from .exceptions import (
    AlphabetMismatchError,
    CouplingConditionError,
    ExpansionCapError,
    ValidationError,
)

DEFAULT_EXPANSION_CAP = 10**6

# Components below this weight carry no verifiable mass at double precision;
# they are dropped so their factor normalizers (possibly 0/0) never run.
_ZERO_WEIGHT = 1e-14


def _gather(pmfs: Sequence) -> np.ndarray:
    mats = stack_pmfs(pmfs).matrix
    if mats.shape[0] < 2:
        raise ValidationError("couplings need at least two marginals")
    return mats


def _normalized(raw: np.ndarray) -> np.ndarray:
    total = float(raw.sum())
    if total <= 0.0:
        raise ValidationError("cannot normalize an all-zero factor")
    return raw / total


@dataclass(frozen=True)
class GluePattern:
    """Coordinates forced equal (sharing one factor) vs. free coordinates."""

    glued: tuple[int, ...]
    free: tuple[int, ...]

    def __post_init__(self):
        if set(self.glued) | set(self.free) != set(range(len(self.glued) + len(self.free))):
            raise ValidationError("glued and free must partition the coordinates")
        if set(self.glued) & set(self.free):
            raise ValidationError("glued and free overlap")


@dataclass(frozen=True, eq=False)
class Component:
    """One mixture component: weight, glue pattern, and its factors."""

    weight: float
    pattern: GluePattern
    shared_factor: Pmf | None  # distribution of the glued block (None if no glue)
    free_factors: tuple[tuple[int, Pmf], ...]  # (coordinate, factor), sorted


def _component(weight, glued, shared, free) -> Component:
    glued = tuple(sorted(glued))
    free_coords = tuple(sorted(free))
    pattern = GluePattern(glued=glued, free=free_coords)
    factors = tuple((c, Pmf(_normalized(free[c]))) for c in free_coords)
    shared_pmf = Pmf(_normalized(shared)) if glued else None
    return Component(weight=float(weight), pattern=pattern, shared_factor=shared_pmf, free_factors=factors)


@dataclass(eq=False)
class Coupling:
    """A joint distribution over n-tuples stored as a mixture of components."""

    arity: int
    alphabet_size: int
    components: tuple[Component, ...]
    expanded: dict | None = field(default=None, repr=False)

    def weight_sum(self) -> float:
        return float(sum(c.weight for c in self.components))

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Weights (K,), shared factors (K, m; zero without glue), the factor
        on each coordinate (K, n, m) and the glue mask (K, n)."""
        K, n, m = len(self.components), self.arity, self.alphabet_size
        weights = np.array([c.weight for c in self.components])
        shared = np.zeros((K, m))
        factors = np.zeros((K, n, m))
        glued = np.zeros((K, n), dtype=bool)
        for k, comp in enumerate(self.components):
            if comp.pattern.glued:
                glued[k, list(comp.pattern.glued)] = True
                shared[k] = factors[k, list(comp.pattern.glued)] = comp.shared_factor.probs
            for c, f in comp.free_factors:
                factors[k, c] = f.probs
        return weights, shared, factors, glued

    def marginal(self, coord: int) -> np.ndarray:
        """Coordinate marginal: the weighted sum of that coordinate's factors."""
        weights, _, factors, _ = self._stacked
        return weights @ factors[:, coord]

    def expand(self, cap: int = DEFAULT_EXPANSION_CAP) -> dict:
        """Materialize the sparse joint table (memoized), for export and tests."""
        if self.expanded is not None:
            return self.expanded
        if self.alphabet_size**self.arity > cap:
            raise ExpansionCapError(
                f"expansion needs {self.alphabet_size ** self.arity} entries (cap {cap})"
            )
        table: dict[tuple[int, ...], float] = {}
        for comp in self.components:
            for key, mass in _expand_component(comp, self.arity):
                table[key] = table.get(key, 0.0) + comp.weight * mass
        self.expanded = table
        return table

    def diagonal_mass(self) -> float:
        """Probability that every coordinate takes the same symbol."""
        return self.intersection_mass(range(self.arity))

    def union_mass(self) -> float:
        """Summed over symbols y, the probability that some coordinate hits y.
        A component misses y with probability (1 - s(y)) prod_i (1 - f_i(y))."""
        weights, shared, factors, glued = self._stacked
        miss = (1.0 - shared) * np.where(glued[:, :, None], 1.0, 1.0 - factors).prod(axis=1)
        return float(weights @ (self.alphabet_size - miss.sum(axis=1)))

    def intersection_mass(self, coords: Sequence[int]) -> float:
        """Summed over y, the probability that all the given coordinates hit y:
        per component sum_y s(y) prod_{free i in coords} f_i(y), with s = 1
        when no glued coordinate is among them."""
        coords = list(coords)
        weights, shared, factors, glued = self._stacked
        in_glue = glued[:, coords]
        prod = np.where(in_glue[:, :, None], 1.0, factors[:, coords]).prod(axis=1)
        head = np.where(in_glue.any(axis=1)[:, None], shared, 1.0)
        return float(weights @ (head * prod).sum(axis=1))

    def intersection_masses(self) -> dict[tuple[int, ...], float]:
        """:meth:`intersection_mass` of every subset of two or more coordinates,
        built one coordinate at a time; row ``mask`` holds the subset of its bits."""
        weights, shared, factors, glued = self._stacked
        K, m = shared.shape
        prod = np.empty((1 << self.arity, K, m))  # free factors' product over the subset
        hit = np.zeros((1 << self.arity, K), dtype=bool)  # subset meets the glued block
        prod[0] = 1.0
        for i in range(self.arity):
            half = 1 << i
            free_i = np.where(glued[:, i, None], 1.0, factors[:, i])
            np.multiply(prod[:half], free_i, out=prod[half : 2 * half])
            hit[half : 2 * half] = hit[:half] | glued[:, i]
        sums = np.where(hit, np.einsum("km,skm->sk", shared, prod), prod.sum(axis=2))
        masses = sums @ weights
        return {
            coords: float(masses[sum(1 << i for i in coords)])
            for size in range(2, self.arity + 1)
            for coords in itertools.combinations(range(self.arity), size)
        }

    def orthogonal_components(self) -> bool:
        """Whether no two components share a tuple of positive mass.

        Components a and b share one iff every block of coordinates forced
        equal has a symbol all factors of a and b on it allow.  The blocks
        are the union of the two glued sets when they meet, each glued set
        when they do not, and every coordinate free in both.
        """
        _, shared, factors, glued = self._stacked
        allowed = (factors > 0.0).astype(float)
        g = glued.astype(float)
        # Symbols a's glued block allows; every symbol when a has no glue.
        block = np.where(glued.any(axis=1)[:, None], shared > 0.0, True)
        # covers[a, b, y]: b allows y on every glued coordinate of a.
        covers = np.tensordot(g, 1.0 - allowed, axes=([1], [1])) == 0.0
        own = block[:, None, :] & covers  # a's block, allowed by a and b
        other = own.transpose(1, 0, 2)  # b's block, allowed by b and a
        meet = (g @ g.T) > 0.0
        glued_ok = np.where(meet, (own & other).any(axis=2), own.any(axis=2) & other.any(axis=2))
        # A coordinate free in both needs one symbol both factors allow.
        common = np.matmul(allowed.transpose(1, 0, 2), allowed.transpose(1, 2, 0))  # (n, K, K)
        lone_fail = ((common == 0.0) & ~glued.T[:, :, None] & ~glued.T[:, None, :]).any(axis=0)
        return not np.triu(glued_ok & ~lone_fail, 1).any()

    def to_dict(self, include_expanded: bool = False) -> dict:
        comps = []
        for comp in self.components:
            comps.append(
                {
                    "weight": comp.weight,
                    "glued": list(comp.pattern.glued),
                    "shared_factor": comp.shared_factor.to_list() if comp.shared_factor else None,
                    "free_factors": {str(c): f.to_list() for c, f in comp.free_factors},
                }
            )
        out = {"arity": self.arity, "alphabet": self.alphabet_size, "components": comps}
        if include_expanded:
            table = self.expand()
            out["expanded"] = [
                {"tuple": list(key), "mass": mass} for key, mass in sorted(table.items())
            ]
        return out


def _expand_component(comp: Component, arity: int):
    """Yield (tuple, mass) pairs for one component, masses summing to one."""
    glued = comp.pattern.glued
    free = comp.free_factors
    free_supports = [
        [(y, float(p)) for y, p in enumerate(f.probs) if p > 0.0] for _, f in free
    ]
    if glued:
        shared = [(y, float(p)) for y, p in enumerate(comp.shared_factor.probs) if p > 0.0]
    else:
        shared = [(None, 1.0)]
    for y, py in shared:
        for picks in itertools.product(*free_supports):
            key = [0] * arity
            for g in glued:
                key[g] = y
            for (c, _), (val, _) in zip(free, picks):
                key[c] = val
            mass = py
            for _, pv in picks:
                mass *= pv
            yield tuple(key), mass


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------


def maximal_coupling(pmfs: Sequence) -> Coupling:
    """Coupling maximizing the probability that all coordinates coincide.

    The diagonal component carries exactly the column-minimum mass at every
    symbol, so the all-equal probability equals the Doeblin coefficient.
    """
    mats = _gather(pmfs)
    n, m = mats.shape
    colmin = mats.min(axis=0)
    c = float(colmin.sum())
    components = []
    if c > _ZERO_WEIGHT:
        components.append(_component(c, glued=range(n), shared=colmin, free={}))
    if 1.0 - c > _ZERO_WEIGHT:
        leftovers = {i: np.maximum(mats[i] - colmin, 0.0) for i in range(n)}
        components.append(_component(1.0 - c, glued=(), shared=None, free=leftovers))
    return Coupling(arity=n, alphabet_size=m, components=tuple(components))


def minimal_coupling_max(pmfs: Sequence) -> Coupling:
    """Coupling minimizing the summed union mass, down to the column-maximum
    mass.  Valid when the column-second-largest mass is at most one;
    otherwise raises, pointing at the three-marginal variant or the LP
    oracle.

    Components are enumerated over the free subset A by size then
    lexicographically: the complement of A is glued on the shared factor
    ``max(min over A-complement, max over A) - max over A`` and each free
    coordinate a follows the strict-maximum excess factor of its marginal.
    The leftover weight ``1 - tau_max2`` goes to the full product of those
    excess factors.  Under this mixture the intersection mass of every
    coordinate subset equals its column-minimum sum, which also makes the
    coupling simultaneously maximal for the all-equal probability.
    """
    mats = _gather(pmfs)
    n, m = mats.shape
    ordered = np.sort(mats, axis=0)
    tau_max2 = float(ordered[-2, :].sum())
    if tau_max2 > 1.0 + 1e-12:
        raise CouplingConditionError(
            f"column-second-largest mass {tau_max2!r} exceeds 1; the union-minimal "
            "mixture is only valid up to 1. For n = 3 use minimal_coupling_max_n3; "
            "otherwise the LP oracle still yields an empirical minimum."
        )
    colmax = mats.max(axis=0)
    # Strict-maximum excess of each marginal over the others' pointwise max.
    excess = {}
    for a in range(n):
        others = np.max(np.delete(mats, a, axis=0), axis=0)
        excess[a] = np.maximum(colmax - others, 0.0)

    components = []
    assigned = 0.0
    for k in range(0, n - 1):
        for free_set in itertools.combinations(range(n), k):
            comp_rows = [i for i in range(n) if i not in free_set]
            pmin_comp = mats[comp_rows].min(axis=0)
            pmax_free = mats[list(free_set)].max(axis=0) if free_set else np.zeros(m)
            shared_raw = np.maximum(pmin_comp, pmax_free) - pmax_free
            weight = float(shared_raw.sum())
            if weight <= _ZERO_WEIGHT:
                continue
            components.append(
                _component(
                    weight,
                    glued=comp_rows,
                    shared=shared_raw,
                    free={a: excess[a] for a in free_set},
                )
            )
            assigned += weight
    residual = 1.0 - assigned
    if residual > _ZERO_WEIGHT:
        components.append(
            _component(residual, glued=(), shared=None, free={a: excess[a] for a in range(n)})
        )
    return Coupling(arity=n, alphabet_size=m, components=tuple(components))


def minimal_coupling_max_n3(p1, p2, p3) -> Coupling:
    """Union-minimal coupling of exactly three marginals, all regimes.

    Below the validity threshold this is :func:`minimal_coupling_max`.
    Above it, each free factor gains a correction proportional to
    ``(tau_max2 - 1)/3`` spread over the two pair-overlap factors touching
    its coordinate, the full-product component disappears, and the attained
    union mass is ``tau_max + (tau_max2 - 1)``.
    """
    mats = _gather([p1, p2, p3])
    if mats.shape[0] != 3:
        raise ValidationError("minimal_coupling_max_n3 takes exactly three marginals")
    ordered = np.sort(mats, axis=0)
    tau_max2 = float(ordered[-2, :].sum())
    if tau_max2 <= 1.0 + 1e-12:
        return minimal_coupling_max([mats[0], mats[1], mats[2]])

    n, m = mats.shape
    pmin = mats.min(axis=0)
    tau = float(pmin.sum())
    pair_min = {}
    pair_glue = {}
    for i, j in itertools.combinations(range(3), 2):
        pm = np.minimum(mats[i], mats[j])
        pair_min[(i, j)] = pm
        # tau_ij > tau strictly here: a pair overlap equal to the triple
        # overlap forces the second-largest mass down to 1 or below.
        pair_glue[(i, j)] = _normalized(np.maximum(pm - pmin, 0.0))

    def pairs_with(i):
        return [tuple(sorted((i, j))) for j in range(3) if j != i]

    bump = (tau_max2 - 1.0) / 3.0
    components = []
    if tau > _ZERO_WEIGHT:
        components.append(_component(tau, glued=(0, 1, 2), shared=pmin, free={}))
    for i in range(3):
        pa, pb = pairs_with(i)
        others = [j for j in range(3) if j != i]
        raw = (
            mats[i]
            + pmin
            - pair_min[pa]
            - pair_min[pb]
            + bump * (pair_glue[pa] + pair_glue[pb])
        )
        raw = np.maximum(raw, 0.0)
        weight = float(raw.sum())
        if weight <= _ZERO_WEIGHT:
            continue
        glue_pair = tuple(sorted(others))
        components.append(
            _component(
                weight,
                glued=others,
                shared=np.maximum(pair_min[glue_pair] - pmin, 0.0),
                free={i: raw},
            )
        )
    return Coupling(arity=3, alphabet_size=m, components=tuple(components))


def minimal_union_mass(pmfs: Sequence) -> float | None:
    """Closed-form minimum of the summed union mass over all couplings:
    ``tau_max`` when ``tau_max2 <= 1``, ``tau_max + (tau_max2 - 1)`` for three
    marginals, otherwise ``None`` (no closed form is known)."""
    ch = stack_pmfs(pmfs)
    tmax, tmax2 = max_doeblin(ch), max2_doeblin(ch)
    if tmax2 <= 1.0 + 1e-12:
        return tmax
    if ch.n == 3:
        return tmax + (tmax2 - 1.0)
    return None


# ---------------------------------------------------------------------------
# Simultaneously maximal coupling of bivariate distributions
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class JointCoupling:
    """Coupling of n bivariate (X, Y) distributions, stored expanded.

    Keys of ``table`` are n-tuples of (x, y) index pairs.
    """

    arity: int
    x_size: int
    y_size: int
    table: dict
    targets: tuple[np.ndarray, ...]

    def bivariate_marginal(self, i: int) -> np.ndarray:
        out = np.zeros((self.x_size, self.y_size))
        for key, mass in self.table.items():
            x, y = key[i]
            out[x, y] += mass
        return out

    def prob_all_equal(self) -> float:
        """Probability that the X block and the Y block each coincide."""
        return sum(mass for key, mass in self.table.items() if len(set(key)) == 1)

    def prob_x_equal(self) -> float:
        return sum(
            mass for key, mass in self.table.items() if len({xy[0] for xy in key}) == 1
        )

    def to_dict(self) -> dict:
        entries = [
            {"tuple": [list(xy) for xy in key], "mass": mass}
            for key, mass in sorted(self.table.items())
        ]
        return {
            "arity": self.arity,
            "x_alphabet": self.x_size,
            "y_alphabet": self.y_size,
            "table": entries,
        }


def simultaneous_joint_coupling(joints: Sequence) -> JointCoupling:
    """Couple bivariate targets so that both the all-pairs-equal probability
    and the X-coordinates-equal probability are simultaneously maximal
    (each equal to the corresponding column-minimum mass)."""
    tables = [_as_float_array(j, f"joint distribution {i}") for i, j in enumerate(joints)]
    if any(t.ndim != 2 for t in tables):
        raise ValidationError("joint distributions must be 2-D tables")
    mats = [
        _as_prob_vector(t.ravel(), what=f"joint distribution {i}").reshape(t.shape)
        for i, t in enumerate(tables)
    ]
    if len(mats) < 2:
        raise ValidationError("need at least two joint distributions")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise AlphabetMismatchError("joint distributions must share X and Y alphabets")
    n = len(mats)
    xs, ys = shape
    stackd = np.stack(mats)
    pmin = stackd.min(axis=0)  # pointwise over (x, y)
    c_xy = float(pmin.sum())
    x_marg = stackd.sum(axis=2)  # n x xs
    x_min = x_marg.min(axis=0)
    c_x = float(x_min.sum())
    s = pmin.sum(axis=1)  # per x, the mass already used on the full diagonal

    table: dict = {}

    def add(key, mass):
        if mass > 0.0:
            table[key] = table.get(key, 0.0) + mass

    # Fully diagonal block: everything equal, mass = pointwise minimum.
    for x in range(xs):
        for y in range(ys):
            add(((x, y),) * n, pmin[x, y])

    def cond_y(i, x):
        """Leftover conditional of Y_i at x once the diagonal mass is removed."""
        denom = x_marg[i, x] - s[x]
        raw = np.maximum(mats[i][x] - pmin[x], 0.0)
        return raw / denom

    # X glued, Y free: weight density (x_min - s)(x), Y_i independent leftovers.
    for x in range(xs):
        head = x_min[x] - s[x]
        if head <= 0.0:
            continue
        conds = [cond_y(i, x) for i in range(n)]
        for ytuple in itertools.product(range(ys), repeat=n):
            mass = head
            for i, y in enumerate(ytuple):
                mass *= conds[i][y]
            add(tuple((x, y) for y in ytuple), mass)

    # Everything free: per-coordinate leftover of X, then leftover Y given X.
    # Weight guards keep the zero-weight blocks (equal totals, equal
    # X-marginals) out entirely, so no 0/0 factor is ever formed.
    if 1.0 - c_x > 0.0:
        leftover_x = x_marg - x_min[None, :]  # n x xs
        supports = []
        for i in range(n):
            support_i = []
            for x in range(xs):
                fx = leftover_x[i, x]
                if fx <= 0.0:
                    continue
                conds = cond_y(i, x)
                for y in range(ys):
                    if conds[y] > 0.0:
                        support_i.append(((x, y), fx * conds[y]))
            supports.append(support_i)
        for picks in itertools.product(*supports):
            mass = 1.0 / (1.0 - c_x) ** (n - 1)
            key = []
            for xy, w in picks:
                key.append(xy)
                mass *= w
            add(tuple(key), mass)

    return JointCoupling(n, xs, ys, table, tuple(mats))


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
    component orthogonality, all read from the mixture without expansion."""
    mats = _gather(targets)
    n, m = mats.shape
    if n != coupling.arity or m != coupling.alphabet_size:
        raise AlphabetMismatchError("targets do not match the coupling's shape")
    intersections = coupling.intersection_masses()
    return VerificationReport(
        weight_residual=abs(coupling.weight_sum() - 1.0),
        marginal_residuals=tuple(float(np.abs(coupling.marginal(i) - mats[i]).max()) for i in range(n)),
        diagonal_mass=intersections[tuple(range(n))],
        union_mass=coupling.union_mass(),
        intersection_masses=intersections,
        orthogonal_components=coupling.orthogonal_components(),
    )
