"""Shared generators and independent oracles for the test suite.

Everything here recomputes quantities from first principles (plain sums over
expanded tables, full-joint enumeration, survival-configuration sweeps, a
row-by-row simplex tableau) so that library code is never checked against
itself.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from doeblin import BayesNet, CouplingConditionError, ExpansionCapError, InfeasibilityError, Node, ValidationError
from doeblin import bayesnet
from doeblin.channel import (
    RECONSTRUCTION_TOL,
    Channel,
    MinorizationSplit,
    Pmf,
    _as_prob_vector,
    _family,
    as_channel,
)
from doeblin.coupling import _MARGINALS, _MAX2_LIMIT, _ZERO_WEIGHT, DEFAULT_EXPANSION_CAP, Coupling
from doeblin.lp import VARIABLE_CAP, LpSolution, OracleResult, _coupling_program, solve

# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------


def random_pmf(rng, m, alpha=1.0):
    return rng.dirichlet(np.full(m, alpha))


def random_channel(rng, n, m, alpha=1.0):
    return np.stack([random_pmf(rng, m, alpha) for _ in range(n)])


def random_positive_channel(rng, n, m):
    W = random_channel(rng, n, m) + 0.05
    return W / W.sum(axis=1, keepdims=True)


def rowwise_normalized(W) -> np.ndarray:
    """Each row clamped at zero and divided by its own sum, one row at a time."""
    rows = []
    for row in np.asarray(W, dtype=np.float64):
        clamped = np.maximum(row, 0.0)
        rows.append(clamped / clamped.sum())
    return np.array(rows)


def max2_of(mats: np.ndarray) -> float:
    return float(np.sort(mats, axis=0)[-2, :].sum())


def feasible_minimal_instance(rng, n, m):
    """PMFs with column-second-largest total at most one.

    For m >= n, rejection-sample peaked-at-distinct-symbols rows.  For
    n > m the condition has empty interior (whenever some row is never a
    column argmax the second-largest total is at least one), so those cells
    use exact-boundary constructions.
    """
    if n == 2:
        return np.stack([random_pmf(rng, m) for _ in range(n)])
    if m >= n:
        for sharp in (0.25, 0.15, 0.08, 0.04, 0.02, 0.0):
            peaks = rng.permutation(m)[:n]
            rows = []
            for i in range(n):
                base = np.zeros(m)
                base[peaks[i]] = 1.0
                rows.append((1.0 - sharp) * base + sharp * random_pmf(rng, m))
            mats = np.stack(rows)
            if max2_of(mats) <= 1.0:
                return mats
        raise AssertionError("sampler failed to hit the feasible region")
    if m == 2:
        # Second-largest total is 1 + (middle gap); tie the middle stats.
        heads = np.sort(rng.random(n))
        mid = heads[n // 2]
        heads[1:-1] = mid
        rows = np.stack([np.array([h, 1.0 - h]) for h in heads])
        return rng.permutation(rows)
    # n = 4, m = 3: disjoint indicator rows plus one arbitrary row sits
    # exactly on the boundary.
    rows = list(np.eye(m)[rng.permutation(m)])
    rows.append(random_pmf(rng, m))
    return rng.permutation(np.stack(rows))


def supercritical_trio(rng, m):
    """Three PMFs on m >= 3 symbols with column-second-largest total above one."""
    while True:
        delta = rng.uniform(1.0 - 1.0 / m + 0.05, 0.95)
        base = np.full((3, m), delta / (m - 1))
        for i in range(3):
            base[i, i % m] = 1.0 - delta
        noise = rng.dirichlet(np.ones(m), size=3)
        s = rng.uniform(0.0, 0.25)
        mats = (1.0 - s) * base + s * noise
        mats = mats[:, rng.permutation(m)]
        if max2_of(mats) > 1.0 + 1e-6:
            return mats


def minimal_n3_components(mats: np.ndarray):
    """Raw component arrays ``(weights, shared, factors, glued)`` of the
    supercritical three-marginal union-minimal coupling, before zero weights
    are dropped and factors normalized: one pair overlap at a time, in plain
    loops over coordinates.  Component 0 glues all three on the triple
    overlap; component i + 1 glues the other two on their pair overlap's
    excess and leaves i free."""
    tau_max2 = max2_of(mats)
    m = mats.shape[1]
    pmin = mats.min(axis=0)
    pair_min = {}
    pair_glue = {}
    for i, j in itertools.combinations(range(3), 2):
        pm = np.minimum(mats[i], mats[j])
        pair_min[(i, j)] = pm
        excess = np.maximum(pm - pmin, 0.0)
        pair_glue[(i, j)] = excess / excess.sum()

    bump = (tau_max2 - 1.0) / 3.0
    weights, shared, factors = [float(pmin.sum())], [pmin], [mats]
    for i in range(3):
        pair = tuple(j for j in range(3) if j != i)
        pa, pb = (tuple(sorted((i, j))) for j in pair)
        raw = (
            mats[i]
            + pmin
            - pair_min[pa]
            - pair_min[pb]
            + bump * (pair_glue[pa] + pair_glue[pb])
        )
        raw = np.maximum(raw, 0.0)
        weights.append(float(raw.sum()))
        shared.append(np.maximum(pair_min[pair] - pmin, 0.0))
        factors.append(np.broadcast_to(raw, (3, m)))
    glued = np.ones((4, 3), dtype=bool)
    for i in range(3):
        glued[i + 1, i] = False
    return np.array(weights), np.array(shared), np.array(factors), glued


def reference_minimal_coupling_max(pmfs) -> "DenseCoupling":
    """The union-minimal coupling built over every glue set, one component per
    subset of coordinates left free, most of them of zero weight.  Kept as
    the oracle that the column-gap construction of
    ``coupling.minimal_coupling_max`` is held to byte for byte.

    Coupling minimizing the summed union mass, down to the column-maximum
    mass.  Valid when the column-second-largest mass is at most one;
    otherwise raises.

    Components are enumerated over the free subset A by size then
    lexicographically: the complement of A is glued on the shared factor
    ``max(min over A-complement, max over A) - max over A`` and each free
    coordinate a follows the strict-maximum excess factor of its marginal.
    The leftover weight ``1 - tau_max2`` goes to the full product of those
    excess factors.  Under this mixture the intersection mass of every
    coordinate subset equals its column-minimum sum, which also makes the
    coupling simultaneously maximal for the all-equal probability.
    """
    mats = _family(pmfs, _MARGINALS).matrix
    n, m = mats.shape
    ordered = np.sort(mats, axis=0)
    tau_max2 = float(ordered[-2, :].sum())
    if tau_max2 > _MAX2_LIMIT:
        raise CouplingConditionError(f"column-second-largest mass {tau_max2!r} exceeds 1")
    colmax = ordered[-1]
    # Strict-maximum excess of each marginal over the others' pointwise max.
    excess = np.where(mats == colmax, colmax - ordered[-2], 0.0)
    free_sets = [a for k in range(n - 1) for a in itertools.combinations(range(n), k)]
    glued = np.ones((len(free_sets) + 1, n), dtype=bool)
    for row, free_set in zip(glued, free_sets):
        row[list(free_set)] = False
    glued[-1] = False  # the full product of the excess factors
    pmin_glued = np.where(glued[:-1, :, None], mats, np.inf).min(axis=1)
    pmax_free = np.where(glued[:-1, :, None], 0.0, mats).max(axis=1)
    shared = np.maximum(pmin_glued, pmax_free) - pmax_free
    weights = shared.sum(axis=1)
    # The components leaving coordinate a free, the full product included,
    # weigh its excess mass in all.  A coordinate that is never a strict
    # column maximum has none, so those weights (tau_max2 - 1 and 1 - tau_max2)
    # are rounding or tolerance, and are dropped.
    leaves_idle = (~glued & ~excess.any(axis=1)).any(axis=1)
    weights[leaves_idle[:-1]] = 0.0
    residual = 0.0 if leaves_idle[-1] else 1.0 - weights[weights > _ZERO_WEIGHT].sum()
    return reference_mixture(
        weights=np.append(weights, residual),
        shared=np.vstack([shared, np.zeros(m)]),
        factors=np.broadcast_to(excess, (len(glued), n, m)),
        glued=glued,
    )


# ---------------------------------------------------------------------------
# Dense coupling reference
# ---------------------------------------------------------------------------


def dense_view(c: Coupling) -> np.ndarray:
    """The (K, n, m) factor array of a pooled coupling, read through its
    index: every glued coordinate names the component's shared row, every
    free one its own."""
    return c.pool[c.index]


def reference_mixture(weights, shared, factors, glued) -> "DenseCoupling":
    """The dense mixture from raw component arrays.  Components of weight at
    most ``_ZERO_WEIGHT`` are dropped first; each glued coordinate takes the
    unnormalized shared factor; then every factor is normalized and validated
    in one pass."""
    keep = weights > _ZERO_WEIGHT
    raw = np.where(glued[keep][:, :, None], shared[keep][:, None, :], factors[keep])
    totals = raw.sum(axis=-1, keepdims=True)
    if not (totals > 0.0).all():
        raise ValidationError("cannot normalize an all-zero factor")
    return DenseCoupling(weights[keep], _as_prob_vector(raw / totals, what="coupling factor"), glued[keep])


@dataclass(eq=False)
class DenseCoupling:
    """A mixture stored densely: ``weights`` (K,), ``factors`` (K, n, m; every
    glued coordinate holds the shared factor) and the glue mask ``glued``
    (K, n).  The mass bodies are the dense implementation's, unchanged, so
    that the pooled :class:`Coupling` is held to them bit for bit."""

    weights: np.ndarray
    factors: np.ndarray
    glued: np.ndarray
    expanded: dict | None = field(default=None, init=False, repr=False)

    @property
    def arity(self) -> int:
        return self.glued.shape[1]

    @property
    def alphabet_size(self) -> int:
        return self.factors.shape[2]

    @cached_property
    def shared(self) -> np.ndarray:
        """(K, m): each component's first glued factor, zero without glue."""
        first_glued = self.factors[np.arange(len(self.glued)), self.glued.argmax(axis=1)]
        return np.where(self.glued.any(axis=1)[:, None], first_glued, 0.0)

    @property
    def components(self) -> list[dict]:
        """One record per component, as :meth:`to_dict` emits it."""
        arrays = (self.weights, self.shared, self.factors, self.glued)
        return [
            {
                "weight": w,
                "glued": [i for i, gi in enumerate(g) if gi],
                "shared_factor": s if any(g) else None,
                "free_factors": {str(i): fi for i, (fi, gi) in enumerate(zip(f, g)) if not gi},
            }
            for w, s, f, g in zip(*(a.tolist() for a in arrays))
        ]

    def marginal(self, coord: int) -> np.ndarray:
        """Coordinate marginal: the weighted sum of that coordinate's factors."""
        return (self.weights[:, None] * self.factors[:, coord]).sum(axis=0)

    def expand(self) -> dict:
        """Materialize the sparse joint table (memoized), for export and tests.

        Each component visits only its support: the glued block's symbols,
        then each free coordinate's in order, in row-major positions of a
        dense table of m**n cells.  More than DEFAULT_EXPANSION_CAP cells
        raise ExpansionCapError."""
        if self.expanded is not None:
            return self.expanded
        n, m = self.arity, self.alphabet_size
        if m**n > DEFAULT_EXPANSION_CAP:
            raise ExpansionCapError(f"expansion needs {m ** n} entries (cap {DEFAULT_EXPANSION_CAP})")
        place = m ** np.arange(n - 1, -1, -1)
        dense = np.zeros(m**n)
        hit = np.zeros(m**n, dtype=bool)
        for w, s, f, g in zip(self.weights, self.shared, self.factors, self.glued):
            cells, mass = np.zeros(1, dtype=np.int64), np.ones(1)
            if g.any():
                ys = np.flatnonzero(s > 0.0)
                cells, mass = ys * place[g].sum(), s[ys]
            for i in np.flatnonzero(~g):
                ys = np.flatnonzero(f[i] > 0.0)
                cells = (cells[:, None] + ys * place[i]).ravel()
                mass = (mass[:, None] * f[i, ys]).ravel()
            dense[cells] += w * mass
            hit[cells] = True
        cells = np.flatnonzero(hit)
        keys = np.stack(np.unravel_index(cells, (m,) * n), axis=1).tolist()
        self.expanded = {tuple(key): float(v) for key, v in zip(keys, dense[cells])}
        return self.expanded

    def union_mass(self) -> float:
        """Summed over symbols y, the probability that some coordinate hits y.
        A component misses y with probability (1 - s(y)) prod_i (1 - f_i(y))."""
        miss = (1.0 - self.shared) * np.where(self.glued[:, :, None], 1.0, 1.0 - self.factors).prod(axis=1)
        return float((self.weights * (self.alphabet_size - miss.sum(axis=1))).sum())

    def intersection_mass(self, coords: Sequence[int]) -> float:
        """Summed over y, the probability that all the given coordinates hit y:
        per component sum_y s(y) prod_{free i in coords} f_i(y), with s = 1
        when no glued coordinate is among them."""
        coords = list(coords)
        in_glue = self.glued[:, coords]
        prod = np.where(in_glue[:, :, None], 1.0, self.factors[:, coords]).prod(axis=1)
        head = np.where(in_glue.any(axis=1)[:, None], self.shared, 1.0)
        return float((self.weights * (head * prod).sum(axis=1)).sum())

    def orthogonal_components(self) -> bool:
        """Whether no two components share a tuple of positive mass.

        Components a and b share one iff every block of coordinates forced
        equal has a symbol all factors of a and b on it allow.  The blocks
        are the union of the two glued sets when they meet, each glued set
        when they do not, and every coordinate free in both.
        """
        shared, glued = self.shared, self.glued
        allowed = (self.factors > 0.0).astype(float)
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


# ---------------------------------------------------------------------------
# Expanded-table oracles (plain dict arithmetic, no library calls)
# ---------------------------------------------------------------------------


def table_marginal(table: dict, coord: int, m: int) -> np.ndarray:
    out = np.zeros(m)
    for key, mass in table.items():
        out[key[coord]] += mass
    return out


def table_diag_mass(table: dict) -> float:
    return sum(mass for key, mass in table.items() if len(set(key)) == 1)


def table_union_mass(table: dict) -> float:
    return sum(mass * len(set(key)) for key, mass in table.items())


def table_intersection_mass(table: dict, coords) -> float:
    coords = tuple(coords)
    return sum(mass for key, mass in table.items() if len({key[c] for c in coords}) == 1)


def dobrushin_table(p: np.ndarray, q: np.ndarray) -> dict:
    """Closed-form two-marginal maximal coupling."""
    mn = np.minimum(p, q)
    c = float(mn.sum())
    table = {}
    for y, v in enumerate(mn):
        if v > 0:
            table[(y, y)] = float(v)
    if 1.0 - c > 1e-15:
        rp = (p - mn) / (1.0 - c)
        rq = (q - mn) / (1.0 - c)
        for y1, a in enumerate(rp):
            for y2, b in enumerate(rq):
                mass = (1.0 - c) * a * b
                if mass > 0:
                    table[(y1, y2)] = table.get((y1, y2), 0.0) + float(mass)
    return table


def joint_coupling_table(joints) -> dict:
    """The simultaneously maximal coupling of bivariate tables, expanded by
    plain loops: keys are n-tuples of (x, y) pairs.

    Three blocks: every pair equal on the pointwise minimum; every X equal
    to x with weight ``x_min(x) - s(x)`` and each Y_i drawn from its leftover
    conditional at x; and everything free, each (X_i, Y_i) drawn from its
    leftover X mass times that conditional, with weight ``1 - c_x``.
    """
    mats = [np.asarray(j, dtype=np.float64) for j in joints]
    n = len(mats)
    xs, ys = mats[0].shape
    stackd = np.stack(mats)
    pmin = stackd.min(axis=0)
    x_marg = stackd.sum(axis=2)
    x_min = x_marg.min(axis=0)
    c_x = float(x_min.sum())
    s = pmin.sum(axis=1)
    table: dict = {}

    def add(key, mass):
        if mass > 0.0:
            table[key] = table.get(key, 0.0) + mass

    for x in range(xs):
        for y in range(ys):
            add(((x, y),) * n, pmin[x, y])

    def cond_y(i, x):
        return np.maximum(mats[i][x] - pmin[x], 0.0) / (x_marg[i, x] - s[x])

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

    if 1.0 - c_x > 0.0:
        leftover_x = x_marg - x_min[None, :]
        supports = []
        for i in range(n):
            support_i = []
            for x in range(xs):
                if leftover_x[i, x] <= 0.0:
                    continue
                conds = cond_y(i, x)
                for y in range(ys):
                    if conds[y] > 0.0:
                        support_i.append(((x, y), leftover_x[i, x] * conds[y]))
            supports.append(support_i)
        for picks in itertools.product(*supports):
            mass = 1.0 / (1.0 - c_x) ** (n - 1)
            for _, w in picks:
                mass *= w
            add(tuple(xy for xy, _ in picks), mass)
    return table


def mutual_information_nats(joint: np.ndarray) -> float:
    """I(X; Y) by direct summation, natural log."""
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    total = 0.0
    for x in range(joint.shape[0]):
        for y in range(joint.shape[1]):
            p = joint[x, y]
            if p > 0:
                total += p * math.log(p / (px[x] * py[y]))
    return total


# ---------------------------------------------------------------------------
# Reference minorization split (one shared shortfall per row)
# ---------------------------------------------------------------------------


def reference_minorization_split(channel) -> MinorizationSplit:
    """``W = alpha * mu + (1 - alpha) * residual`` with ``alpha`` the total
    column-minimum mass: each row of ``W - colmin`` over its own sum, and
    uniform fills where ``mu`` or the residual is undefined."""
    W = as_channel(channel).matrix
    n, m = W.shape
    colmin = W.min(axis=0)
    alpha = float(colmin.sum())
    degenerate = False
    if alpha <= 0.0:
        mu = np.full(m, 1.0 / m)
        degenerate = True
    else:
        mu = colmin / alpha
    raw = W - colmin[None, :]
    shortfall = raw.sum(axis=1)  # each equals 1 - alpha exactly in real arithmetic
    if float(shortfall.max()) <= RECONSTRUCTION_TOL:
        residual = np.full((n, m), 1.0 / m)
        degenerate = True
    else:
        residual = np.maximum(raw, 0.0) / shortfall[:, None]
    return MinorizationSplit(alpha=alpha, mu=Pmf(mu), residual=Channel(residual), degenerate=degenerate)


# ---------------------------------------------------------------------------
# Bayesian-network oracles
# ---------------------------------------------------------------------------


def random_net(rng, max_nodes=6, max_alphabet=3, max_parents=2) -> BayesNet:
    n_nodes = int(rng.integers(2, max_nodes + 1))
    nodes = [Node("X", int(rng.integers(2, max_alphabet + 1)), (), None)]
    for i in range(1, n_nodes):
        k = int(rng.integers(2, max_alphabet + 1))
        n_par = int(rng.integers(1, min(i, max_parents) + 1))
        parents = tuple(sorted(rng.choice(i, size=n_par, replace=False).tolist()))
        rows = int(np.prod([nodes[p].alphabet for p in parents]))
        if rng.random() < 0.2:
            cpt = np.tile(rng.dirichlet(np.ones(k)), (rows, 1))  # constant node
        else:
            cpt = rng.dirichlet(np.ones(k), size=rows)
        nodes.append(Node(f"U{i}", k, parents, cpt))
    return BayesNet(nodes=tuple(nodes), source=0)


def brute_force_composite(net: BayesNet, targets) -> np.ndarray:
    """Channel from the source to joint target states by summing the full
    factored joint over every non-source node (no ancestor pruning)."""
    V = tuple(sorted(set(targets)))
    src = net.source
    others = [i for i in range(net.size) if i != src]
    v_sizes = [net.nodes[u].alphabet for u in V]
    out = np.zeros((net.nodes[src].alphabet, int(np.prod(v_sizes))))
    for x in range(net.nodes[src].alphabet):
        for combo in itertools.product(*[range(net.nodes[u].alphabet) for u in others]):
            assign = {src: x}
            assign.update(zip(others, combo))
            prob = 1.0
            for u in others:
                node = net.nodes[u]
                row = 0
                for p in node.parents:
                    row = row * net.nodes[p].alphabet + assign[p]
                prob *= node.cpt[row, assign[u]]
            col = 0
            for u, size in zip(V, v_sizes):
                col = col * size + assign[u]
            out[x, col] += prob
    return out


def _children(net: BayesNet) -> list[list[int]]:
    """Each node's children by node index, read from the nodes' parent lists."""
    return [[c for c in range(net.size) if u in net.nodes[c].parents] for u in range(net.size)]


def brute_force_percolation(net: BayesNet, targets, taus: dict) -> float:
    """Sum over all survival configurations of the non-source nodes."""
    V = set(targets)
    children = _children(net)
    src = net.source
    if src in V:
        return 1.0
    others = [i for i in range(net.size) if i != src]
    total = 0.0
    for alive_mask in itertools.product((False, True), repeat=len(others)):
        prob = 1.0
        alive = {src}
        for u, a in zip(others, alive_mask):
            t = taus[u]
            prob *= (1.0 - t) if a else t
            if a:
                alive.add(u)
        if prob == 0.0:
            continue
        # Directed reachability over surviving nodes.
        reached = {src}
        frontier = [src]
        hit = False
        while frontier and not hit:
            cur = frontier.pop()
            for c in children[cur]:
                if c in alive and c not in reached:
                    if c in V:
                        hit = True
                        break
                    reached.add(c)
                    frontier.append(c)
        if hit:
            total += prob
    return total


def reference_descendants(net: BayesNet, u: int) -> frozenset[int]:
    """Nodes with a directed path from u, by a depth-first stack over children."""
    children = _children(net)
    seen = set()
    stack = [u]
    while stack:
        cur = stack.pop()
        for c in children[cur]:
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return frozenset(seen)


def reference_ancestors(net: BayesNet, targets) -> frozenset[int]:
    """The targets and every node with a directed path into them, by a
    depth-first stack over parents."""
    seen = set(targets)
    stack = list(seen)
    while stack:
        cur = stack.pop()
        for p in net.nodes[cur].parents:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return frozenset(seen)


def reference_elimination_plan(scopes, sizes: dict, keep: tuple) -> list[tuple[int, tuple]]:
    """The greedy elimination planner that rescans every scope at each step,
    kept verbatim as the oracle for ``bayesnet._elimination_plan``; the cap
    is read from the module at call time, so a monkeypatched cap applies.

    Greedy order for summing out every label not in ``keep``: each step
    removes the label whose merged factor (the union of the scopes holding
    it, minus the label) has the fewest entries.  Returns (label, merged
    scope) per step.  Raises ExpansionCapError when a merged factor or the
    final factor over ``keep`` has more than COMPOSITE_STATE_CAP entries."""

    def volume(scope) -> int:
        return math.prod(sizes[lab] for lab in scope)

    scopes = [frozenset(s) for s in scopes]
    hidden = set().union(*scopes) - set(keep)
    plan = []
    while hidden:
        merged = {v: frozenset().union(*(s for s in scopes if v in s)) - {v} for v in hidden}
        v = min(hidden, key=lambda lab: (volume(merged[lab]), lab))
        scopes = [s for s in scopes if v not in s] + [merged[v]]
        hidden.remove(v)
        plan.append((v, tuple(sorted(merged[v]))))
    cap = bayesnet.COMPOSITE_STATE_CAP
    if max(volume(scope) for scope in [keep, *(scope for _, scope in plan)]) > cap:
        raise ExpansionCapError(f"composite channel needs a factor of more than {cap} entries")
    return plan


def table_tau(W: np.ndarray) -> float:
    """Doeblin coefficient as the sum of column minima of a row-stochastic table."""
    return float(np.asarray(W).min(axis=0).sum())


def subset_filter_paths(net: BayesNet, targets) -> list[tuple[int, ...]]:
    """Shortcut-free source-to-target paths by the definition: enumerate
    every directed path from the source to a target, in depth-first order
    over children by node index, then keep those whose node set has no
    other such path's node set as a strict subset (O(P^2))."""
    V = set(targets)
    src = net.source
    if src in V:
        return [(src,)]
    children = _children(net)
    paths: list[tuple[int, ...]] = []

    def extend(path):
        for c in children[path[-1]]:
            new = path + (c,)
            if c in V:
                paths.append(new)
            extend(new)

    extend((src,))
    sets = [frozenset(p) for p in paths]
    return [
        path
        for i, path in enumerate(paths)
        if not any(j != i and sets[j] < sets[i] for j in range(len(paths)))
    ]


def reference_percolation(net: BayesNet, targets, mode="exact", samples=None, seed=None):
    """The set-based percolation that ``bayesnet.percolation`` replaced, kept
    verbatim as its bit-for-bit oracle; the caps and block size are read from
    the module at call time.

    Exact mode conditions on the topologically last node of the set,
    memoized on frozensets; Monte Carlo mode draws each block's
    (trials x relevant nodes) survival matrix from the stream keyed by
    (seed, block) and propagates reachability one node column at a time."""
    V = frozenset(bayesnet._targets(net, targets))
    src = net.source
    reach_src = reference_descendants(net, src)
    relevant = reach_src & reference_ancestors(net, V)  # non-source nodes on a source-to-target path

    if mode == "exact":
        if len(relevant) > bayesnet.EXACT_PERCOLATION_NODE_CAP:
            raise ExpansionCapError(
                f"exact percolation supports at most {bayesnet.EXACT_PERCOLATION_NODE_CAP} relevant nodes"
            )

        @lru_cache(maxsize=None)
        def perc_set(S: frozenset) -> float:
            if src in S:
                return 1.0
            S = frozenset(u for u in S if u in reach_src)
            if not S:
                return 0.0
            u = max(S)  # topologically last: no path from u to the rest
            rest = S - {u}
            tau_u = net.taus[u]
            up = frozenset(rest | set(net.nodes[u].parents))
            return tau_u * perc_set(frozenset(rest)) + (1.0 - tau_u) * perc_set(up)

        return bayesnet.PercolationResult(probability=perc_set(V), method="exact")

    order = sorted(relevant)
    col = {u: j for j, u in enumerate(order)}
    survive_prob = np.array([1.0 - net.taus[u] for u in order])
    # Per node: whether the source feeds it, and the columns of the relevant
    # parents that do.  Every relevant node has at least one of the two.
    feeds = [
        (src in net.nodes[u].parents, [col[p] for p in net.nodes[u].parents if p in col])
        for u in order
    ]
    hit_cols = [col[v] for v in V if v in col]
    hits = 0
    for block, start in enumerate(range(0, samples, bayesnet.MC_BLOCK_SIZE)):
        trials = min(bayesnet.MC_BLOCK_SIZE, samples - start)
        if src in V:  # the source always survives
            hits += trials
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        # Column j turns from "survives" into "survives and is reached".
        reached = rng.random((trials, len(order))) < survive_prob
        for j, (from_src, parent_cols) in enumerate(feeds):
            if not from_src:
                reached[:, j] &= reached[:, parent_cols].any(axis=1)
        hits += int(reached[:, hit_cols].any(axis=1).sum())
    p_hat = hits / samples
    std_error = float(np.sqrt(p_hat * (1.0 - p_hat) / samples))
    return bayesnet.PercolationResult(
        probability=p_hat, method="monte_carlo", samples=samples, seed=seed, std_error=std_error
    )


def reference_shortcut_free_bound(net: BayesNet, targets) -> tuple[float, list[tuple[int, ...]]]:
    """The set-based depth-first path search that ``bayesnet.shortcut_free_bound``
    replaced, kept verbatim as its bit-for-bit oracle; the path cap is read
    from the module at call time."""
    V = frozenset(bayesnet._targets(net, targets))
    src = net.source
    towards_v = reference_ancestors(net, V)  # nodes with a directed route into the targets, with their parents
    children: dict[int, list[int]] = {u: [] for u in towards_v | {src}}
    for c in sorted(towards_v):  # one pass in index order, so each list is in index order
        for u in net.nodes[c].parents:
            children[u].append(c)
    kept: list[tuple[int, ...]] = []
    total = 0.0
    # Paths still to visit, each with the nodes before its last and its weight;
    # children go on in reverse, so the top of the stack is the next path in order.
    stack = [((src,), frozenset(), 1.0)]
    while stack:
        path, before, weight = stack.pop()
        u = path[-1]
        if u in V:
            kept.append(path)
            total += weight
            if len(kept) > bayesnet.PATH_CAP:
                raise ExpansionCapError(f"more than {bayesnet.PATH_CAP} shortcut-free source-to-target paths")
            continue
        after = before | {u}
        for c in reversed(children[u]):
            if not before.intersection(net.nodes[c].parents):
                stack.append((path + (c,), after, weight * (1.0 - net.taus[c])))
    return total, kept


def component_cells(comp: dict, n: int):
    """Yield (tuple, mass) over the support of one ``Coupling.to_dict()``
    component: the glued coordinates take one symbol from the shared
    factor's support, every free coordinate ranges over its own factor's
    support, and the mass is the shared probability times the free ones in
    coordinate order."""
    glued = set(comp["glued"])
    shared = [(y, p) for y, p in enumerate(comp["shared_factor"] or [1.0]) if p > 0.0]
    free = [
        (i, [(y, p) for y, p in enumerate(comp["free_factors"][str(i)]) if p > 0.0])
        for i in range(n)
        if i not in glued
    ]
    for y, py in shared:
        for picks in itertools.product(*(support for _, support in free)):
            key = [y] * n
            mass = py
            for (i, _), (v, pv) in zip(free, picks):
                key[i] = v
                mass *= pv
            yield tuple(key), mass


def table_from_components(blob: dict) -> dict:
    """The joint table of ``Coupling.to_dict()``, expanded by plain loops."""
    table: dict = {}
    for comp in blob["components"]:
        for key, mass in component_cells(comp, blob["arity"]):
            table[key] = table.get(key, 0.0) + comp["weight"] * mass
    return table


def table_orthogonal(blob: dict) -> bool:
    """Whether no two components of ``Coupling.to_dict()`` share a tuple,
    with each component's support enumerated in full."""
    supports = [{key for key, _ in component_cells(comp, blob["arity"])} for comp in blob["components"]]
    return all(
        not (supports[a] & supports[b])
        for a in range(len(supports))
        for b in range(a + 1, len(supports))
    )


# ---------------------------------------------------------------------------
# Reference simplex (row loops, recomputed reduced costs)
# ---------------------------------------------------------------------------


def reference_simplex(problem, exact: bool = False):
    """Two-phase Bland-rule tableau simplex, one row and one column at a time.

    The pivot rule is the one ``lp.solve`` documents: the smallest-index
    column with a negative reduced cost enters, the minimum-ratio row leaves
    with ties to the smallest basic index, and each reduced-cost row is
    recomputed from the basis at every iteration.  Returns an
    ``lp.LpSolution`` with the same fields and conversions, so a faster
    ``lp.solve`` can be held to it bit for bit.
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
        c = sign * problem.objective.astype(np.float64)
        A = problem.eq_matrix.astype(np.float64)
        b = problem.eq_rhs.astype(np.float64)
        zero, one = 0.0, 1.0
        piv_tol, feas_tol = 1e-10, 1e-8

    k, nv = A.shape
    row_signs = np.where(b < zero, -one, one)
    A = A * row_signs[:, None]
    b = b * row_signs
    T = np.concatenate([A, np.eye(k, dtype=A.dtype) * one], axis=1)
    rhs = b.copy()
    basis = list(range(nv, nv + k))
    iterations = 0

    def pivot(r, j):
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

    def run_phase(cost, allow):
        while True:
            if iterations > 200_000:
                raise InfeasibilityError("simplex iteration cap exceeded")
            red = cost[:allow] - cost[basis] @ T[:, :allow]
            entering = -1
            for j in range(allow):
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
                    if best_ratio is None or ratio < best_ratio or (ratio == best_ratio and basis[r] < best_var):
                        leaving, best_ratio, best_var = r, ratio, basis[r]
            if leaving < 0:
                raise InfeasibilityError("LP is unbounded")
            pivot(leaving, entering)

    phase1_cost = np.concatenate([np.full(nv, zero, dtype=T.dtype), np.full(k, one, dtype=T.dtype)])
    run_phase(phase1_cost, nv + k)
    infeas = phase1_cost[basis] @ rhs
    if infeas > feas_tol:
        raise InfeasibilityError(f"LP infeasible (phase-1 objective {float(infeas)!r})")
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
    duals = (cost[basis][:, None] * T[:, nv:]).sum(axis=0)
    value_min = (cost[:nv] * x).sum()
    margin = min(cost[:nv] - (duals[:, None] * A).sum(axis=0)) if nv else zero
    gap = abs(value_min - (duals * b).sum())
    residual = max(abs((A * x).sum(axis=1) - b)) if k else zero
    duals_out = duals * row_signs * sign
    if exact:
        x = np.array([float(v) for v in x])
        duals_out = np.array([float(v) for v in duals_out])
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
# Reference coupling oracle (one tuple at a time)
# ---------------------------------------------------------------------------


def reference_coupling_opt(pmfs, objective_of_tuple, sense: str, exact: bool = False) -> OracleResult:
    """``lp.coupling_opt`` one tuple at a time: the objective called on each
    tuple of ``itertools.product``, the witness zipped tuple by tuple and each
    marginal summed under its own boolean mask.  Kept as the oracle that the
    grid version is held to bit for bit."""
    mats = _family(pmfs, "coupling problems need at least two marginals").matrix
    n, m = mats.shape
    if m**n > VARIABLE_CAP:
        raise ValidationError(f"coupling LP would need {m ** n} variables (cap {VARIABLE_CAP})")
    tuples = list(itertools.product(range(m), repeat=n))
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


# ---------------------------------------------------------------------------
# Reference JSON emitter (one recursive call per value)
# ---------------------------------------------------------------------------


def _reference_format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError("refusing to emit a non-finite number")
    return format(float(x), ".17g")


def reference_dumps(obj, indent: int = 0) -> str:
    """The CLI's JSON text, one ``isinstance`` chain and one recursive call
    per value, so a faster ``cli.dumps`` can be held to it byte for byte."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None or isinstance(obj, bool) or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _reference_format_float(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [reference_dumps(v, indent + 1) for v in obj]
        if all("\n" not in it and len(it) < 20 for it in items) and len(items) <= 12:
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            json.dumps(str(k)) + ": " + reference_dumps(v, indent + 1) for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(inner + p for p in parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")
