"""Discrete Bayesian networks and their information-contraction bounds.

A network is a DAG of finite-alphabet nodes, each non-source node carrying a
conditional probability table over its parents; exactly one source node X
has no table.  Exact small-scale inference realizes the composite channel
from X to any node subset V.  Four bounds relate the composite channel's
Doeblin coefficient to the per-node coefficients:

* the one-step recursion lower bound over V union {u};
* the site-percolation upper bound on 1 - tau, where node u is removed
  independently with probability tau_u and the source always survives;
* the shortcut-free path-sum bound, a union-bound relaxation of
  percolation;
* the memoryless-stage bound that averages marginal coefficients over
  random coordinate subsets drawn from the per-letter erasure rates.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .channel import Channel, as_channel, doeblin
from .exceptions import ExpansionCapError, ValidationError

COMPOSITE_STATE_CAP = 10**7
EXACT_PERCOLATION_NODE_CAP = 25
PATH_CAP = 10**6


@dataclass(frozen=True)
class Node:
    name: str
    alphabet: int
    parents: tuple[int, ...]
    cpt: np.ndarray | None  # rows: parent assignments in row-major order


@dataclass(frozen=True, eq=False)
class BayesNet:
    nodes: tuple[Node, ...]
    source: int

    def __post_init__(self):
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise ValidationError("node names must be unique")
        if not 0 <= self.source < len(self.nodes):
            raise ValidationError("source index out of range")
        for idx, node in enumerate(self.nodes):
            if node.alphabet < 1:
                raise ValidationError(f"node {node.name}: alphabet must be positive")
            if any(p >= idx for p in node.parents):
                raise ValidationError(
                    f"node {node.name}: parents must precede it (cycle or bad order)"
                )
            if idx == self.source:
                if node.cpt is not None:
                    raise ValidationError(f"source node {node.name} must not carry a cpt")
                continue
            if node.cpt is None:
                raise ValidationError(
                    f"node {node.name} lacks a cpt but is not the source "
                    "(networks have exactly one source)"
                )
            expected_rows = int(np.prod([self.nodes[p].alphabet for p in node.parents]))
            if node.cpt.shape != (expected_rows, node.alphabet):
                raise ValidationError(
                    f"node {node.name}: cpt shape {node.cpt.shape} != "
                    f"({expected_rows}, {node.alphabet})"
                )

    @property
    def size(self) -> int:
        return len(self.nodes)

    def index_of(self, name: str) -> int:
        for i, node in enumerate(self.nodes):
            if node.name == name:
                return i
        raise ValidationError(f"unknown node name {name!r}")

    def children(self, u: int) -> tuple[int, ...]:
        return tuple(i for i, node in enumerate(self.nodes) if u in node.parents)

    def descendants(self, u: int) -> frozenset[int]:
        seen = set()
        stack = [u]
        while stack:
            cur = stack.pop()
            for c in self.children(cur):
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        return frozenset(seen)

    def ancestors(self, targets: Iterable[int]) -> frozenset[int]:
        seen = set(targets)
        stack = list(seen)
        while stack:
            cur = stack.pop()
            for p in self.nodes[cur].parents:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return frozenset(seen)

    # -- serialization ----------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "BayesNet":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid network JSON: {exc}") from exc
        if not isinstance(obj, dict) or "nodes" not in obj or "source" not in obj:
            raise ValidationError('network JSON needs "nodes" and "source"')
        name_to_idx: dict[str, int] = {}
        nodes: list[Node] = []
        for spec in obj["nodes"]:
            name = str(spec["name"])
            if name in name_to_idx:
                raise ValidationError(f"duplicate node name {name!r}")
            parent_idx = []
            for pname in spec.get("parents", []):
                if pname not in name_to_idx:
                    raise ValidationError(
                        f"node {name!r}: parent {pname!r} not declared earlier "
                        "(nodes must be listed in topological order; cycles are invalid)"
                    )
                parent_idx.append(name_to_idx[pname])
            cpt = spec.get("cpt")
            if cpt is not None:
                cpt = np.array(
                    [Channel([row]).matrix[0] for row in cpt], dtype=np.float64
                )
            name_to_idx[name] = len(nodes)
            nodes.append(
                Node(name=name, alphabet=int(spec["alphabet"]), parents=tuple(parent_idx), cpt=cpt)
            )
        source_name = str(obj["source"])
        if source_name not in name_to_idx:
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
                spec["cpt"] = [[float(v) for v in row] for row in node.cpt]
            out_nodes.append(spec)
        return {"nodes": out_nodes, "source": self.nodes[self.source].name}


def _parent_row(net: BayesNet, node: Node, assignment: dict[int, int]) -> int:
    idx = 0
    for p in node.parents:
        idx = idx * net.nodes[p].alphabet + assignment[p]
    return idx


def node_tau(net: BayesNet, u: int) -> float:
    """Doeblin coefficient of u's table, viewed as a channel from joint
    parent assignments to u's alphabet."""
    if u == net.source:
        raise ValidationError("the source node has no conditional table")
    return doeblin(Channel(net.nodes[u].cpt))


def composite_channel(net: BayesNet, targets: Iterable[int], cap: int = COMPOSITE_STATE_CAP) -> Channel:
    """The channel from the source alphabet to the joint alphabet of the
    target set, by exact enumeration over the targets' ancestors.

    Columns are joint target states in row-major order over the targets
    sorted by node index (last target fastest).  An empty target set gives
    the trivial one-output channel.
    """
    V = tuple(sorted(set(targets)))
    src = net.source
    k_src = net.nodes[src].alphabet
    if not V:
        return Channel(np.ones((k_src, 1)))
    relevant = tuple(sorted(u for u in net.ancestors(V) if u != src))
    states = k_src
    for u in relevant:
        states *= net.nodes[u].alphabet
        if states > cap:
            raise ExpansionCapError(f"composite channel needs more than {cap} joint states")
    v_sizes = [net.nodes[u].alphabet for u in V]
    n_cols = int(np.prod(v_sizes))
    out = np.zeros((k_src, n_cols))
    alphabets = [range(net.nodes[u].alphabet) for u in relevant]
    for x in range(k_src):
        for combo in itertools.product(*alphabets):
            assignment = {src: x}
            assignment.update(zip(relevant, combo))
            prob = 1.0
            for u in relevant:
                node = net.nodes[u]
                prob *= node.cpt[_parent_row(net, node, assignment), assignment[u]]
                if prob == 0.0:
                    break
            if prob == 0.0:
                continue
            col = 0
            for u, size in zip(V, v_sizes):
                col = col * size + assignment[u]
            out[x, col] += prob
    return Channel(out)


def recursion_bound(net: BayesNet, targets: Iterable[int], u: int, cap: int = COMPOSITE_STATE_CAP) -> float:
    """One-step lower bound on tau of the composite channel to V union {u}:
    tau_u * tau(V | X) + (1 - tau_u) * tau(V union parents(u) | X).

    Requires that u has no directed path into V.
    """
    V = tuple(sorted(set(targets)))
    if u == net.source:
        raise ValidationError("u must not be the source")
    if u in V or net.descendants(u) & set(V):
        raise ValidationError("u must have no directed path into the target set")
    tau_u = node_tau(net, u)
    tau_v = doeblin(composite_channel(net, V, cap))
    tau_vpa = doeblin(composite_channel(net, set(V) | set(net.nodes[u].parents), cap))
    return tau_u * tau_v + (1.0 - tau_u) * tau_vpa


@dataclass(frozen=True)
class PercolationResult:
    probability: float
    method: str  # "exact" | "monte_carlo"
    samples: int | None = None
    seed: int | None = None
    std_error: float | None = None

    def to_dict(self) -> dict:
        out: dict = {"probability": self.probability, "method": self.method}
        if self.method == "monte_carlo":
            out.update(samples=self.samples, seed=self.seed, std_error=self.std_error)
        return out


def _relevant_nodes(net: BayesNet, V: frozenset[int]) -> frozenset[int]:
    """Non-source nodes lying on some directed source-to-target path."""
    reach_src = net.descendants(net.source) | {net.source}
    reach_v = net.ancestors(V)
    return frozenset((reach_src & reach_v) - {net.source})


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
    enumerating all survival configurations of the relevant nodes.  Monte
    Carlo mode averages the path-existence indicator over per-trial RNG
    streams keyed by (seed, trial), so results do not depend on how trials
    are scheduled.
    """
    V = frozenset(targets)
    src = net.source
    taus = {u: node_tau(net, u) for u in _relevant_nodes(net, V)}
    reach_src = net.descendants(src) | {src}

    if mode == "exact":
        if len(taus) > EXACT_PERCOLATION_NODE_CAP:
            raise ValidationError(
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
            tau_u = taus.get(u)
            if tau_u is None:
                tau_u = node_tau(net, u)
            up = frozenset(rest | set(net.nodes[u].parents))
            return tau_u * perc_set(frozenset(rest)) + (1.0 - tau_u) * perc_set(up)

        return PercolationResult(probability=perc_set(V), method="exact")

    if mode != "mc":
        raise ValidationError('mode must be "exact" or "mc"')
    if samples is None or seed is None:
        raise ValidationError("Monte Carlo percolation needs samples and seed")
    if samples <= 0:
        raise ValidationError(f"Monte Carlo percolation needs a positive sample count, got {samples}")
    order = sorted(taus)
    survive_prob = np.array([1.0 - taus[u] for u in order])
    children = {u: [c for c in net.children(u) if c in taus] for u in [src, *order]}
    hits = 0
    for trial in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(trial,)))
        alive = rng.random(len(order)) < survive_prob
        alive_set = {u for u, a in zip(order, alive) if a}
        if src in V:
            hits += 1
            continue
        stack = [src]
        seen = {src}
        found = False
        while stack:
            cur = stack.pop()
            for c in children[cur]:
                if c in alive_set and c not in seen:
                    if c in V:
                        found = True
                        stack.clear()
                        break
                    seen.add(c)
                    stack.append(c)
        hits += found
    p_hat = hits / samples
    std_error = float(np.sqrt(p_hat * (1.0 - p_hat) / samples))
    return PercolationResult(
        probability=p_hat, method="monte_carlo", samples=samples, seed=seed, std_error=std_error
    )


def shortcut_free_bound(
    net: BayesNet, targets: Iterable[int], path_cap: int = PATH_CAP
) -> tuple[float, list[tuple[int, ...]]]:
    """Path-sum upper bound on 1 - tau of the composite channel.

    Enumerates every directed path from the source to the target set, keeps
    the shortcut-free ones (no other such path's node set is a strict
    subset), and sums the products of (1 - tau_u) over each kept path's
    non-source nodes.  Inclusion is judged on node sets; in a DAG distinct
    paths always have distinct node sets.
    """
    V = frozenset(targets)
    src = net.source
    if src in V:
        return 1.0, [(src,)]
    towards_v = net.ancestors(V)  # nodes with a directed route into the targets
    paths: list[tuple[int, ...]] = []

    def extend(path: tuple[int, ...]) -> None:
        for c in net.children(path[-1]):
            if c not in towards_v:
                continue
            new = path + (c,)
            if c in V:
                paths.append(new)
                if len(paths) > path_cap:
                    raise ValidationError(f"more than {path_cap} source-to-target paths")
            extend(new)

    extend((src,))
    sets = [frozenset(p) for p in paths]
    kept: list[tuple[int, ...]] = []
    total = 0.0
    for i, path in enumerate(paths):
        if any(j != i and sets[j] < sets[i] for j in range(len(paths))):
            continue
        kept.append(path)
        weight = 1.0
        for u in path[1:]:
            weight *= 1.0 - node_tau(net, u)
        total += weight
    return total, kept


def samorodnitsky_bound(prior_channel, letter_sizes: Sequence[int], letter_taus: Sequence[float]) -> float:
    """Lower bound on tau after a memoryless stage with per-letter Doeblin
    coefficients: average tau of the coordinate-subset marginals, each
    subset T drawn by keeping letter i independently with probability
    1 - tau_i.  The empty subset's marginal is a one-point channel, whose
    coefficient is one.
    """
    ch = as_channel(prior_channel)
    sizes = tuple(int(s) for s in letter_sizes)
    n = len(sizes)
    if int(np.prod(sizes)) != ch.m:
        raise ValidationError(
            f"output alphabet {ch.m} does not factorize into letters {sizes}"
        )
    taus = [float(t) for t in letter_taus]
    if len(taus) != n or any(not 0.0 <= t <= 1.0 for t in taus):
        raise ValidationError("need one letter coefficient in [0, 1] per letter")
    tensorized = ch.matrix.reshape((ch.n, *sizes))
    total = 0.0
    for keep_mask in itertools.product((False, True), repeat=n):
        weight = 1.0
        for keep, t in zip(keep_mask, taus):
            weight *= (1.0 - t) if keep else t
        if weight == 0.0:
            continue
        drop_axes = tuple(i + 1 for i, keep in enumerate(keep_mask) if not keep)
        marg = tensorized.sum(axis=drop_axes) if drop_axes else tensorized
        marg = marg.reshape((ch.n, -1))
        total += weight * float(marg.min(axis=0).sum())
    return total
