"""Discrete Bayesian networks and their information-contraction bounds.

A network is a DAG of finite-alphabet nodes, each non-source node carrying a
conditional probability table over its parents; exactly one source node X
has no table.  Variable elimination realizes the composite channel from X
to any node subset V.  Four bounds relate the composite channel's
Doeblin coefficient to the per-node coefficients:

* the one-step recursion lower bound over V union {u};
* the site-percolation upper bound on 1 - tau, where node u is removed
  independently with probability tau_u and the source always survives;
* the shortcut-free path-sum bound, a union-bound relaxation of
  percolation;
* the memoryless-stage bound that averages marginal coefficients over
  random coordinate subsets drawn from the per-letter erasure rates.

Each table is validated once, when the network is built (in code or from
JSON); the network keeps it normalized, with its Doeblin coefficient.  Every
node's parents precede it, so node index order is a topological order, and
reachability is one pass over the nodes: forward for descendants, backward
for ancestors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .channel import Channel, _as_float_array, _is_int, _json, as_channel, doeblin
from .exceptions import ExpansionCapError, ValidationError

COMPOSITE_STATE_CAP = 10**7  # entries of the largest factor variable elimination creates
EXACT_PERCOLATION_NODE_CAP = 25
PATH_CAP = 10**6
MC_BLOCK_SIZE = 4096  # Monte Carlo trials per RNG stream


@dataclass(frozen=True)
class Node:
    name: str
    alphabet: int
    parents: tuple[int, ...]
    cpt: np.ndarray | None  # rows: parent assignments in row-major order


@dataclass(frozen=True, eq=False)
class BayesNet:
    nodes: tuple[Node, ...]  # after construction, each table is normalized
    source: int
    taus: tuple[float | None, ...] = field(init=False, repr=False)  # None for the source

    def __post_init__(self):
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValidationError("node names must be unique")
        if not 0 <= self.source < len(self.nodes):
            raise ValidationError("source index out of range")
        nodes, taus = list(self.nodes), [None] * len(self.nodes)
        for idx, node in enumerate(self.nodes):
            if not (_is_int(node.alphabet) and node.alphabet >= 1):
                raise ValidationError(
                    f"node {node.name}: alphabet must be a positive integer, got {node.alphabet!r}"
                )
            parents = node.parents
            if not (isinstance(parents, (tuple, list)) and all(_is_int(p) and 0 <= p < idx for p in parents)):
                raise ValidationError(
                    f"node {node.name}: parents must be indices of nodes that precede it "
                    f"(cycle or bad order), got {parents!r}"
                )
            if len(set(parents)) != len(parents):
                raise ValidationError(f"node {node.name}: parents must be distinct, got {parents!r}")
            if idx == self.source:
                if node.cpt is not None:
                    raise ValidationError(f"source node {node.name} must not carry a cpt")
                continue
            if node.cpt is None:
                raise ValidationError(
                    f"node {node.name} lacks a cpt but is not the source "
                    "(networks have exactly one source)"
                )
            try:
                table = Channel(node.cpt)
            except ValidationError as exc:
                raise ValidationError(f"node {node.name}: {exc}") from exc
            shape = (int(np.prod([self.nodes[p].alphabet for p in node.parents])), node.alphabet)
            if table.matrix.shape != shape:
                raise ValidationError(f"node {node.name}: cpt shape {table.matrix.shape} != {shape}")
            nodes[idx] = replace(node, cpt=table.matrix)
            taus[idx] = doeblin(table)
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "taus", tuple(taus))

    @property
    def size(self) -> int:
        return len(self.nodes)

    def index_of(self, name: str) -> int:
        for i, node in enumerate(self.nodes):
            if node.name == name:
                return i
        raise ValidationError(f"unknown node name {name!r}")

    def descendants(self, u: int) -> frozenset[int]:
        """Nodes with a directed path from u, in one forward pass."""
        seen = set(_targets(self, [u]))
        for i in range(u + 1, self.size):
            if seen.intersection(self.nodes[i].parents):
                seen.add(i)
        return frozenset(seen - {u})

    def ancestors(self, targets: Iterable[int]) -> frozenset[int]:
        """The targets and their ancestors, in one backward pass."""
        seen = set(_targets(self, targets))
        for i in reversed(range(self.size)):
            if i in seen:
                seen.update(self.nodes[i].parents)
        return frozenset(seen)

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "BayesNet":
        obj = _json(text, "network")
        if not isinstance(obj, dict) or not isinstance(obj.get("nodes"), list) or "source" not in obj:
            raise ValidationError('network JSON needs a "nodes" list and a "source"')
        name_to_idx: dict[str, int] = {}
        nodes: list[Node] = []
        for k, spec in enumerate(obj["nodes"]):
            if not (isinstance(spec, dict) and type(spec.get("name")) is str and type(spec.get("alphabet")) is int):
                raise ValidationError(f"node spec {k} needs a string name and an integer alphabet")
            name = spec["name"]
            parents = spec.get("parents", [])
            if not isinstance(parents, list):
                raise ValidationError(f"node {name!r}: parents must be a list of node names")
            parent_idx = []
            for pname in parents:
                if not isinstance(pname, str) or pname not in name_to_idx:
                    raise ValidationError(
                        f"node {name!r}: parent {pname!r} not declared earlier "
                        "(nodes must be listed in topological order; cycles are invalid)"
                    )
                parent_idx.append(name_to_idx[pname])
            name_to_idx[name] = len(nodes)
            nodes.append(Node(name, spec["alphabet"], tuple(parent_idx), spec.get("cpt")))
        source_name = obj["source"]
        if type(source_name) is not str or source_name not in name_to_idx:
            raise ValidationError(f"source {source_name!r} is not a declared node")
        return cls(nodes=tuple(nodes), source=name_to_idx[source_name])

    def to_dict(self) -> dict:
        out_nodes = []
        for node in self.nodes:
            spec: dict = {
                "name": node.name,
                "alphabet": node.alphabet,
                "parents": [self.nodes[p].name for p in node.parents],
            }
            if node.cpt is not None:
                spec["cpt"] = node.cpt.tolist()
            out_nodes.append(spec)
        return {"nodes": out_nodes, "source": self.nodes[self.source].name}


def _targets(net: BayesNet, targets: Iterable[int]) -> tuple[int, ...]:
    """The target set as sorted node indices; an index that names no node
    of the network is invalid input."""
    try:
        S = {v if type(v) is int else int(v) if _is_int(v) else None for v in targets}  # None: not an index
    except TypeError as exc:
        raise ValidationError(f"node indices must be integers: {exc}") from exc
    if None in S:
        raise ValidationError("node indices must be integers, not booleans or other values")
    V = tuple(sorted(S))
    for v in V:
        if not 0 <= v < net.size:
            raise ValidationError(f"node index {v} is outside the network's {net.size} nodes")
    return V


def node_tau(net: BayesNet, u: int) -> float:
    """Doeblin coefficient of u's table, viewed as a channel from joint
    parent assignments to u's alphabet (computed when the network was built)."""
    (u,) = _targets(net, [u])
    if u == net.source:
        raise ValidationError("the source node has no conditional table")
    return net.taus[u]


def _elimination_plan(scopes, sizes: dict, keep: tuple) -> list[tuple[int, tuple]]:
    """Greedy order for summing out every label not in ``keep``: each step
    removes the label whose merged factor (the union of the scopes holding
    it, minus the label) has the fewest entries.  Returns (label, merged
    scope) per step.  Raises ExpansionCapError when a merged factor or the
    final factor over ``keep`` has more than COMPOSITE_STATE_CAP entries.

    Planned on the interaction graph: a label's neighbours are its merged
    scope, and summing out v joins v's neighbours to one another and changes
    no other label's, so a step costs in v's neighbours only."""

    def volume(scope) -> int:
        return math.prod(map(sizes.__getitem__, scope))

    nbrs: dict = {}
    for scope in scopes:
        for lab in scope:
            nbrs.setdefault(lab, set()).update(scope)
    for lab, around in nbrs.items():
        around.discard(lab)
    key = {v: (volume(nbrs[v]), v) for v in nbrs.keys() - set(keep)}
    largest, plan = volume(keep), []
    while key:
        size, v = min(key.values())
        del key[v]
        merged = nbrs.pop(v)
        for lab in merged:
            around = nbrs[lab]
            around |= merged
            around -= {lab, v}
            if lab in key:
                key[lab] = (volume(around), lab)
        largest = max(largest, size)
        plan.append((v, tuple(sorted(merged))))
    if largest > COMPOSITE_STATE_CAP:
        raise ExpansionCapError(f"composite channel needs a factor of more than {COMPOSITE_STATE_CAP} entries")
    return plan


def _contract(factors, out_labels) -> np.ndarray:
    """Sum over every label not in ``out_labels`` of the product of the
    (array, labels) factors: one einsum, labels renumbered from zero."""
    letter: dict = {}
    args: list = []
    for array, labels in factors:
        args += [array, [letter.setdefault(lab, len(letter)) for lab in labels]]
    args.append([letter[lab] for lab in out_labels])
    return np.einsum(*args)


def composite_channel(net: BayesNet, targets: Iterable[int]) -> Channel:
    """The channel from the source alphabet to the joint alphabet of the
    target set, by variable elimination over the targets' ancestors.

    Each ancestor's table is a factor over its parents and itself, and a
    vector of ones over the source gives every source letter its row.  The
    non-target ancestors are summed out one at a time, each by one einsum
    over the factors that hold it, in the greedy order of smallest merged
    factor.  The whole order is planned first, on the interaction graph of
    the factors, where a step costs in the eliminated label's neighbours.
    COMPOSITE_STATE_CAP bounds every factor the plan creates, the output
    included, so a request past the cap raises ExpansionCapError before
    anything is allocated.

    Columns are joint target states in row-major order over the targets
    sorted by node index (last target fastest).  An empty target set gives
    the trivial one-output channel.
    """
    V = _targets(net, targets)
    src = net.source
    k_src = net.nodes[src].alphabet
    # Labels are node indices.  The source as a target needs a label of its
    # own, net.size, tied to the row label by an identity factor.
    sizes = {u: net.nodes[u].alphabet for u in net.ancestors(V) | {src}}
    factors = [(np.ones(k_src), (src,))]
    for u in sorted(sizes.keys() - {src}):
        labels = (*net.nodes[u].parents, u)
        factors.append((net.nodes[u].cpt.reshape([sizes[lab] for lab in labels]), labels))
    if src in V:
        sizes[net.size] = k_src
        factors.append((np.eye(k_src), (src, net.size)))
    out_labels = (src, *(net.size if v == src else v for v in V))
    for v, scope in _elimination_plan([labels for _, labels in factors], sizes, out_labels):
        inside = [f for f in factors if v in f[1]]
        factors = [f for f in factors if v not in f[1]]
        factors.append((_contract(inside, scope), scope))
    return Channel(_contract(factors, out_labels).reshape(k_src, -1))


def recursion_bound(net: BayesNet, targets: Iterable[int], u: int) -> float:
    """One-step lower bound on tau of the composite channel to V union {u}:
    tau_u * tau(V | X) + (1 - tau_u) * tau(V union parents(u) | X).

    Requires that u has no directed path into V.
    """
    V = _targets(net, targets)
    (u,) = _targets(net, [u])
    if u == net.source:
        raise ValidationError("u must not be the source")
    if u in net.ancestors(V):
        raise ValidationError("u must have no directed path into the target set")
    tau_u = net.taus[u]
    tau_v = doeblin(composite_channel(net, V))
    tau_vpa = doeblin(composite_channel(net, set(V) | set(net.nodes[u].parents)))
    return tau_u * tau_v + (1.0 - tau_u) * tau_vpa


@dataclass(frozen=True)
class PercolationResult:
    probability: float
    method: str  # "exact" | "monte_carlo"
    samples: int | None = None
    seed: int | None = None
    std_error: float | None = None

    def to_dict(self) -> dict:
        """The fields that are set; the Monte Carlo ones are None on exact results."""
        return {k: v for k, v in vars(self).items() if v is not None}


def percolation(
    net: BayesNet,
    targets: Iterable[int],
    mode: str = "exact",
    samples: int | None = None,
    seed: int | None = None,
) -> PercolationResult:
    """Probability that an open directed path from the source reaches the
    target set when node u is removed independently with probability tau_u
    (the source always survives).

    Exact mode evaluates the survival process by conditioning on the
    topologically last target, node by node, with memoization; this equals
    enumerating all survival configurations of the relevant nodes, and more
    than EXACT_PERCOLATION_NODE_CAP of them raise ExpansionCapError.  Monte
    Carlo mode splits the trials into blocks of MC_BLOCK_SIZE.  Block b draws
    a (trials x relevant nodes) survival matrix from the stream keyed by
    (seed, b), and reachability is propagated through it one node column at
    a time in topological order.  Results do not depend on how blocks are
    scheduled.
    """
    V = frozenset(_targets(net, targets))
    src = net.source
    reach_src = net.descendants(src)
    relevant = reach_src & net.ancestors(V)  # non-source nodes on a source-to-target path

    if mode == "exact":
        if len(relevant) > EXACT_PERCOLATION_NODE_CAP:
            raise ExpansionCapError(
                f"exact percolation supports at most {EXACT_PERCOLATION_NODE_CAP} relevant nodes"
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

        return PercolationResult(probability=perc_set(V), method="exact")

    if mode != "mc":
        raise ValidationError('mode must be "exact" or "mc"')
    if samples is None or seed is None:
        raise ValidationError("Monte Carlo percolation needs samples and seed")
    if not (_is_int(samples) and _is_int(seed)):
        raise ValidationError(
            f"Monte Carlo samples and seed must be integers, got {samples!r} and {seed!r}"
        )
    samples, seed = int(samples), int(seed)
    if samples <= 0:
        raise ValidationError(f"Monte Carlo percolation needs a positive sample count, got {samples}")
    if seed < 0:
        raise ValidationError(f"Monte Carlo percolation needs a non-negative seed, got {seed}")
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
    for block, start in enumerate(range(0, samples, MC_BLOCK_SIZE)):
        trials = min(MC_BLOCK_SIZE, samples - start)
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
    return PercolationResult(
        probability=p_hat, method="monte_carlo", samples=samples, seed=seed, std_error=std_error
    )


def shortcut_free_bound(net: BayesNet, targets: Iterable[int]) -> tuple[float, list[tuple[int, ...]]]:
    """Path-sum upper bound on 1 - tau of the composite channel.

    Sums the products of (1 - tau_u) over the non-source nodes of every
    shortcut-free source-to-target path: one such that no other
    source-to-target path's node set is a strict subset of its own.  A path
    is shortcut-free iff no interior node is a target and no node has a
    parent on the path other than its predecessor (a chord, which a shorter
    path could skip along).  Both properties pass to every extension, so the
    depth-first search never extends a path across a chord or past a
    target, and visits only the paths it keeps, in order of node index at
    each branch.  More than PATH_CAP such paths raise ExpansionCapError.
    """
    V = frozenset(_targets(net, targets))
    src = net.source
    towards_v = net.ancestors(V)  # nodes with a directed route into the targets, with their parents
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
            if len(kept) > PATH_CAP:
                raise ExpansionCapError(f"more than {PATH_CAP} shortcut-free source-to-target paths")
            continue
        after = before | {u}
        for c in reversed(children[u]):
            if not before.intersection(net.nodes[c].parents):
                stack.append((path + (c,), after, weight * (1.0 - net.taus[c])))
    return total, kept


def samorodnitsky_bound(prior_channel, letter_sizes: Sequence[int], letter_taus: Sequence[float]) -> float:
    """Lower bound on tau after a memoryless stage with per-letter Doeblin
    coefficients: average tau of the coordinate-subset marginals, each
    subset T drawn by keeping letter i independently with probability
    1 - tau_i.  The empty subset's marginal is a one-point channel, whose
    coefficient is one.
    """
    ch = as_channel(prior_channel)
    sizes = tuple(letter_sizes)
    if not all(_is_int(s) and s > 0 for s in sizes):
        raise ValidationError(f"letter sizes must be positive integers, got {sizes}")
    sizes = tuple(int(s) for s in sizes)
    n = len(sizes)
    if int(np.prod(sizes)) != ch.m:
        raise ValidationError(
            f"output alphabet {ch.m} does not factorize into letters {sizes}"
        )
    taus = _as_float_array(letter_taus, "letter coefficients")
    if taus.shape != (n,) or not ((0.0 <= taus) & (taus <= 1.0)).all():
        raise ValidationError("need one letter coefficient in [0, 1] per letter")
    taus = taus.tolist()
    tensorized = ch.matrix.reshape((ch.n, *sizes))
    total = 0.0
    for keep_mask in itertools.product((False, True), repeat=n):
        weight = 1.0
        for keep, t in zip(keep_mask, taus):
            weight *= (1.0 - t) if keep else t
        if weight == 0.0:
            continue
        drop_axes = tuple(i + 1 for i, keep in enumerate(keep_mask) if not keep)
        marg = tensorized.sum(axis=drop_axes).reshape((ch.n, -1))
        total += weight * float(marg.min(axis=0).sum())
    return total
