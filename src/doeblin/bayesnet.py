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
node's parents precede it, so node index order is a topological order.  Node
sets are integer bitmasks (bit u is node u); the network records each node's
parent and ancestor masks when it is built, and every bound reads them.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

import numpy as np

from .channel import Channel, _as_float_array, _is_int, _json, as_channel, doeblin
from .exceptions import ExpansionCapError, ValidationError

COMPOSITE_STATE_CAP = 10**7  # entries of the largest factor variable elimination creates
EXACT_PERCOLATION_NODE_CAP = 25
PATH_CAP = 10**6
MC_BLOCK_SIZE = 4096  # Monte Carlo trials per RNG stream
MC_DRAW_CAP = 10**9  # Monte Carlo survival draws: trials times relevant nodes
LETTER_SUBSET_CAP = 2**16  # letter subsets the memoryless-stage bound averages over


@dataclass(frozen=True)
class Node:
    name: str
    alphabet: int
    parents: tuple[int, ...]
    cpt: np.ndarray | None  # rows: parent assignments in row-major order


@dataclass(frozen=True, eq=False)
class BayesNet:
    """Construction validates each table once and records per node its
    coefficient, parent mask, ancestor mask (node included) and factor: the
    table viewed, not copied, over the alphabets of its labels (parents, node)."""

    nodes: tuple[Node, ...]  # after construction, each table is normalized
    source: int
    taus: tuple[float | None, ...] = field(init=False, repr=False)  # None for the source
    parent_masks: tuple[int, ...] = field(init=False, repr=False)
    ancestor_masks: tuple[int, ...] = field(init=False, repr=False)
    factors: tuple[tuple[np.ndarray, tuple[int, ...]] | None, ...] = field(init=False, repr=False)
    reachable: int = field(init=False, repr=False)  # mask of the source's descendants

    def __post_init__(self):
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValidationError("node names must be unique")
        if not (_is_int(self.source) and 0 <= self.source < len(self.nodes)):
            raise ValidationError("source index out of range")
        object.__setattr__(self, "source", int(self.source))
        nodes, taus, factors = list(self.nodes), [None] * len(self.nodes), [None] * len(self.nodes)
        parent_masks, ancestor_masks = [], []
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
            labels = (*map(int, parents), idx)
            parent_masks.append(_mask(labels[:-1]))
            ancestor_masks.append(reduce(or_, map(ancestor_masks.__getitem__, labels[:-1]), 1 << idx))
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
            shape = (math.prod(self.nodes[p].alphabet for p in node.parents), node.alphabet)
            if table.matrix.shape != shape:
                raise ValidationError(f"node {node.name}: cpt shape {table.matrix.shape} != {shape}")
            nodes[idx] = replace(node, cpt=table.matrix)
            taus[idx] = doeblin(table)
            factors[idx] = (table.matrix.reshape([self.nodes[p].alphabet for p in labels]), labels)
        for name, value in [("nodes", nodes), ("taus", taus), ("factors", factors),
                            ("parent_masks", parent_masks), ("ancestor_masks", ancestor_masks)]:
            object.__setattr__(self, name, tuple(value))
        object.__setattr__(self, "reachable", _mask(self.descendants(self.source)))

    @property
    def size(self) -> int:
        return len(self.nodes)

    def index_of(self, name: str) -> int:
        for i, node in enumerate(self.nodes):
            if node.name == name:
                return i
        raise ValidationError(f"unknown node name {name!r}")

    def descendants(self, u: int) -> frozenset[int]:
        """Nodes with a directed path from u: those that have u as an ancestor."""
        (u,) = _targets(self, [u])
        return frozenset(w for w in range(u + 1, self.size) if self.ancestor_masks[w] >> u & 1)

    def ancestors(self, targets: Iterable[int]) -> frozenset[int]:
        """The targets and their ancestors."""
        return frozenset(_nodes(self._ancestor_mask(_targets(self, targets))))

    def _ancestor_mask(self, V: Iterable[int]) -> int:
        """Mask of the nodes V (valid indices) and their ancestors."""
        return reduce(or_, map(self.ancestor_masks.__getitem__, V), 0)

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


def _mask(indices: Iterable[int]) -> int:
    """The bitmask with bit i set for each index i."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _nodes(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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

    Planned on the interaction graph: a label's neighbour mask is its merged
    scope, summing out v joins v's neighbours and changes no other label's,
    and keys sit on a heap, so a step costs in v's neighbours only."""

    def volume(mask) -> int:
        out = 1
        while mask:
            low = mask & -mask
            out *= sizes[low.bit_length() - 1]
            mask ^= low
        return out

    nbrs: dict = {}
    for scope in scopes:
        mask = _mask(scope)
        for lab in scope:
            nbrs[lab] = nbrs.get(lab, 0) | mask & ~(1 << lab)
    key = {v: (volume(nbrs[v]), v) for v in nbrs.keys() - set(keep)}
    heap = sorted(key.values())
    largest, plan = math.prod(map(sizes.__getitem__, keep)), []
    while key:
        size, v = entry = heapq.heappop(heap)
        if key.get(v) != entry:
            continue
        del key[v]
        merged = nbrs.pop(v)
        scope = _nodes(merged)
        for lab in scope:
            nbrs[lab] = around = (nbrs[lab] | merged) & ~(1 << lab | 1 << v)
            if lab in key:
                key[lab] = entry = (volume(around), lab)
                heapq.heappush(heap, entry)
        largest = max(largest, size)
        plan.append((v, tuple(scope)))
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
    included, so a request past the cap raises ExpansionCapError before any
    factor is allocated, the source's included.

    Columns are joint target states in row-major order over the targets
    sorted by node index (last target fastest).  An empty target set gives
    the trivial one-output channel.
    """
    V = _targets(net, targets)
    src = net.source
    k_src = net.nodes[src].alphabet
    # Labels are node indices.  The source as a target needs a label of its
    # own, net.size, tied to the row label by an identity factor.
    inside = _nodes(net._ancestor_mask(V) | 1 << src)
    sizes = {u: net.nodes[u].alphabet for u in inside}
    # The source's own factors are placeholders until the plan has passed the cap.
    factors = [(None, (src,)), *(net.factors[u] for u in inside if u != src)]
    if src in V:
        sizes[net.size] = k_src
        factors.append((None, (src, net.size)))
    out_labels = (src, *(net.size if v == src else v for v in V))
    plan = _elimination_plan([labels for _, labels in factors], sizes, out_labels)
    factors[0] = (np.ones(k_src), (src,))
    if src in V:
        factors[-1] = (np.eye(k_src), (src, net.size))
    # Live factors by id, and each label's factor ids (consumed ones skipped).
    live = dict(enumerate(factors))
    held: list[list[int]] = [[] for _ in range(net.size + 1)]
    for i, (_, labels) in live.items():
        for lab in labels:
            held[lab].append(i)
    for new, (v, scope) in enumerate(plan, start=len(live)):
        live[new] = (_contract([live.pop(i) for i in held[v] if i in live], scope), scope)
        for lab in scope:
            held[lab].append(new)
    return Channel(_contract(live.values(), out_labels).reshape(k_src, -1))


def recursion_bound(net: BayesNet, targets: Iterable[int], u: int) -> float:
    """One-step lower bound on tau of the composite channel to V union {u}:
    tau_u * tau(V | X) + (1 - tau_u) * tau(V union parents(u) | X).

    Requires that u has no directed path into V.
    """
    V = _targets(net, targets)
    (u,) = _targets(net, [u])
    if u == net.source:
        raise ValidationError("u must not be the source")
    if net._ancestor_mask(V) >> u & 1:
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

    Exact mode conditions on the topologically last node of the set (its
    highest bit), memoized on the set's mask; this equals enumerating all
    survival configurations of the relevant nodes, and more than
    EXACT_PERCOLATION_NODE_CAP of them raise ExpansionCapError.  Monte Carlo
    mode splits the trials into blocks of MC_BLOCK_SIZE.  Block b draws a
    (trials x relevant nodes) survival matrix from the stream keyed by
    (seed, b), held as one row of trials per node, and reachability is
    propagated through it one node at a time in topological order.  Results
    do not depend on how blocks are scheduled.  More than MC_DRAW_CAP draws
    (samples times relevant nodes, at least one) raise ExpansionCapError.
    """
    V = _targets(net, targets)
    src = net.source
    reach_src = net.reachable
    relevant = reach_src & net._ancestor_mask(V)  # non-source nodes on a source-to-target path

    if mode == "exact":
        if relevant.bit_count() > EXACT_PERCOLATION_NODE_CAP:
            raise ExpansionCapError(
                f"exact percolation supports at most {EXACT_PERCOLATION_NODE_CAP} relevant nodes"
            )
        memo = {0: 0.0}  # probability by node-set mask
        def perc_set(S: int) -> float:
            if S >> src & 1:
                return 1.0
            S &= reach_src
            if S not in memo:
                u = S.bit_length() - 1  # topologically last: no path from u to the rest
                rest, tau_u = S ^ 1 << u, net.taus[u]
                memo[S] = tau_u * perc_set(rest) + (1.0 - tau_u) * perc_set(rest | net.parent_masks[u])
            return memo[S]

        return PercolationResult(probability=perc_set(_mask(V)), method="exact")

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
    if (draws := samples * max(1, relevant.bit_count())) > MC_DRAW_CAP:
        raise ExpansionCapError(f"Monte Carlo percolation needs {draws} draws (cap {MC_DRAW_CAP})")
    order = _nodes(relevant)
    row = {u: j for j, u in enumerate(order)}
    survive_prob = np.array([1.0 - net.taus[u] for u in order])[:, None]
    # The relevant nodes the source does not feed, each with the rows of its
    # relevant parents; every relevant node has the source or such a parent.
    feeds = [(j, [row[p] for p in net.nodes[u].parents if p in row])
             for j, u in enumerate(order) if not net.parent_masks[u] >> src & 1]
    hit_rows = [row[v] for v in V if v in row]
    hits = 0
    for block, start in enumerate(range(0, samples, MC_BLOCK_SIZE)):
        trials = min(MC_BLOCK_SIZE, samples - start)
        if src in V:  # the source always survives
            hits += trials
            continue
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
        # Row j turns from "survives" into "survives and is reached".
        reached = np.less(rng.random((trials, len(order))).T, survive_prob, order="C")
        for j, parent_rows in feeds:
            reached[j] &= reduce(np.logical_or, map(reached.__getitem__, parent_rows))
        hits += int(np.count_nonzero(reduce(np.logical_or, map(reached.__getitem__, hit_rows), False)))
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
    towards_v = net._ancestor_mask(V)  # nodes with a directed route into the targets, with their parents
    children: dict[int, list] = {u: [] for u in _nodes(towards_v | 1 << src)}
    for c in reversed(_nodes(towards_v & ~(1 << src))):  # decreasing: the stack top is the next path
        for u in net.nodes[c].parents:
            children[u].append((c, net.parent_masks[c], 1.0 - net.taus[c]))
    kept: list[tuple[int, ...]] = []
    total = 0.0
    # Paths still to visit, each with the mask of the nodes before its last and its weight.
    stack = [((src,), 0, 1.0)]
    while stack:
        path, before, weight = stack.pop()
        u = path[-1]
        if u in V:
            kept.append(path)
            total += weight
            if len(kept) > PATH_CAP:
                raise ExpansionCapError(f"more than {PATH_CAP} shortcut-free source-to-target paths")
            continue
        after = before | 1 << u
        for c, parents, survive in children[u]:
            if not before & parents:
                stack.append((path + (c,), after, weight * survive))
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
    if math.prod(sizes) != ch.m:
        raise ValidationError(f"output alphabet {ch.m} does not factorize into letters {sizes}")
    taus = _as_float_array(letter_taus, "letter coefficients")
    if taus.shape != (n,) or not ((0.0 <= taus) & (taus <= 1.0)).all():
        raise ValidationError("need one letter coefficient in [0, 1] per letter")
    if 2**n > LETTER_SUBSET_CAP:
        raise ExpansionCapError(f"{n} letters have 2**{n} subsets, more than {LETTER_SUBSET_CAP}")
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
