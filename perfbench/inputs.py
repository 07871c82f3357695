"""Seeded input pools for the four workloads.

Each workload has a fixed round: a schedule of request shapes in which the
request classes interleave.  A pool is several rounds; the seed draws the
numbers inside each shape (and, for random DAGs, the graph).  Pools are large
enough that the instance-to-instance spread of request cost averages out
within one run.  This module uses numpy alone and does not import ``doeblin``.
"""

from __future__ import annotations

import json

import numpy as np

WORKLOADS = ("couple_verify", "lp_oracle", "net_bounds", "desk_small")

# One round of couple_verify: 6 minimal (5-8 ms at n=6, 12 ms at n=7), 3 joint
# (~12 ms), 3 maximal at n=5, m=5 (~23 ms) and 4 maximal at n=5, m=6 or n=6,
# m=4 (~60 ms).  The median then falls among the joint and n=7 minimal
# requests and the 90th percentile inside the most expensive class, away from
# the boundary between two classes.
COUPLE_ROUND = (
    ("min", 6, 6), ("max", 5, 5), ("min", 6, 7), ("joint", 4, 3, 4),
    ("max", 5, 6), ("min", 6, 8), ("max", 6, 4), ("min", 7, 7),
    ("joint", 4, 3, 4), ("max", 5, 5), ("min", 6, 7), ("max", 5, 6),
    ("joint", 4, 3, 4), ("min", 7, 7), ("max", 6, 4), ("max", 5, 5),
)
COUPLE_ROUNDS = 4

# One round of lp_oracle: six float requests (~20 ms) and two exact-rational
# requests (~90 ms), so the 90th percentile lies inside the exact class.  Pivot
# counts vary from instance to instance, so the pool holds 128 instances.
LP_ROUND = (
    ("float", 4, 4), ("float", 3, 6), ("exact", 3, 3), ("float", 5, 3),
    ("float", 4, 4), ("exact", 3, 3), ("float", 3, 6), ("float", 5, 3),
)
LP_ROUNDS = 16

# One round of net_bounds: four k=10 ladders (~77 ms), eight random DAGs
# (~80 ms) and four k=11 ladders (~130 ms).
NET_ROUND = (
    ("ladder", 10), ("dag",), ("dag",), ("ladder", 11),
    ("dag",), ("ladder", 10), ("dag",), ("ladder", 11),
    ("ladder", 10), ("dag",), ("dag",), ("ladder", 11),
    ("dag",), ("ladder", 10), ("dag",), ("ladder", 11),
)
# Accepted range of a random DAG's enumeration work (see enumeration_work):
# a little above the k=10 ladder's 38,912 and below the k=11 ladder's 86,016.
DAG_WORK = (40_000, 48_000)
NET_ROUNDS = 2
MC_SAMPLES = 1000

# desk_small: sixteen (n, m) shapes, four rounds; every eighth request is
# also checked against a HiGHS solve of the row-stochastic trace LP.
DESK_SHAPES = (
    (2, 2), (3, 5), (4, 8), (5, 3), (2, 6), (3, 3), (4, 4), (5, 7),
    (2, 4), (3, 8), (4, 2), (5, 5), (2, 8), (3, 6), (4, 6), (5, 2),
)
DESK_ROUNDS = 4
DESK_HIGHS_EVERY = 8


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), WORKLOADS.index(workload)]))


def _dirichlet_rows(rng, n, m):
    return rng.dirichlet(np.ones(m), size=n)


def second_largest_mass(mats: np.ndarray) -> float:
    return float(np.sort(mats, axis=0)[-2, :].sum())


def _peaked_rows(rng, n, m):
    """Rows peaked at distinct symbols with column-second-largest mass <= 0.98
    (the validity condition of the union-minimal construction, with margin)."""
    for sharp in (0.35, 0.25, 0.15, 0.08, 0.04):
        for _ in range(20):
            peaks = rng.permutation(m)[:n]
            rows = np.zeros((n, m))
            rows[np.arange(n), peaks] = 1.0
            rows = (1.0 - sharp) * rows + sharp * _dirichlet_rows(rng, n, m)
            if second_largest_mass(rows) <= 0.98:
                return rows
    raise RuntimeError(f"no peaked instance found at n={n}, m={m}")


def _couple(rng):
    pool = []
    for _ in range(COUPLE_ROUNDS):
        for shape in COUPLE_ROUND:
            kind = shape[0]
            if kind == "max":
                pool.append({"kind": "max", "pmfs": _dirichlet_rows(rng, shape[1], shape[2])})
            elif kind == "min":
                pool.append({"kind": "min", "pmfs": _peaked_rows(rng, shape[1], shape[2])})
            else:
                n, xs, ys = shape[1:]
                joints = rng.dirichlet(np.ones(xs * ys), size=n).reshape(n, xs, ys)
                pool.append({"kind": "joint", "joints": joints})
    return pool


def _lp(rng):
    return [
        {"kind": kind, "pmfs": _dirichlet_rows(rng, n, m)}
        for _ in range(LP_ROUNDS)
        for kind, n, m in LP_ROUND
    ]


def ancestors(parents, targets) -> set[int]:
    """The targets and every node with a directed path into one of them."""
    seen = set(targets)
    stack = list(seen)
    while stack:
        for p in parents[stack.pop()]:
            if p not in seen:
                seen.add(p)
                stack.append(p)
    return seen


def _cpts(rng, alphabets, parents):
    cpts = [None]
    for i in range(1, len(alphabets)):
        rows = int(np.prod([alphabets[p] for p in parents[i]]))
        cpts.append(rng.dirichlet(np.ones(alphabets[i]), size=rows))
    return cpts


def _ladder(rng, k):
    """Binary ladder X=L0 -> L1 -> ... -> Lk where L_i has parents L_{i-2}, L_{i-1}."""
    alphabets = [2] * (k + 1)
    parents = [()] + [(0,)] + [(i - 2, i - 1) for i in range(2, k + 1)]
    return {"kind": "ladder", "alphabets": alphabets, "parents": parents,
            "cpts": _cpts(rng, alphabets, parents), "targets": [k - 1, k]}


def enumeration_work(alphabets, parents, targets) -> int:
    """Joint states times nodes visited by the three composite channels of a
    request (to V, and the two inside the recursion bound at u = max V); an
    ancestor-product proxy for the request's cost."""
    u = max(targets)
    rest = [v for v in targets if v != u]
    work = 0
    for V in (targets, rest, rest + list(parents[u])):
        relevant = ancestors(parents, V) - {0}
        work += alphabets[0] * int(np.prod([alphabets[v] for v in relevant])) * len(relevant)
    return work


def _dag(rng):
    """Random DAG, 10-12 nodes, alphabets 2-3, at most 3 parents chosen among
    the four preceding nodes; the targets are the last two nodes, reachable
    from the source, and the enumeration work lies in DAG_WORK."""
    lo, hi = DAG_WORK
    while True:
        size = int(rng.integers(10, 13))
        alphabets = [int(a) for a in rng.choice([2, 3], size=size, p=[0.8, 0.2])]
        parents = [()]
        for i in range(1, size):
            cand = np.arange(max(0, i - 4), i)
            k = int(rng.integers(1, min(i, 3) + 1))
            parents.append(tuple(sorted(int(p) for p in rng.choice(cand, size=k, replace=False))))
        targets = [size - 2, size - 1]
        if 0 in ancestors(parents, targets) and lo <= enumeration_work(alphabets, parents, targets) <= hi:
            return {"kind": "dag", "alphabets": alphabets, "parents": parents,
                    "cpts": _cpts(rng, alphabets, parents), "targets": targets}


def _net(rng):
    pool = []
    for shape in NET_ROUND * NET_ROUNDS:
        spec = _ladder(rng, shape[1]) if shape[0] == "ladder" else _dag(rng)
        spec["mc_seed"] = int(rng.integers(0, 2**31))
        pool.append(spec)
    return pool


def _channel_text(W: np.ndarray, fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": W.tolist()})
    header = ",".join(f"y{j}" for j in range(W.shape[1]))
    return "\n".join([header] + [",".join(repr(float(v)) for v in row) for row in W]) + "\n"


def _desk(rng):
    pool = []
    for r in range(DESK_ROUNDS):
        for idx, (n, m) in enumerate(DESK_SHAPES):
            W = _dirichlet_rows(rng, n, m)
            fmt = "json" if (idx + r) % 2 == 0 else "csv"
            pool.append({
                "kind": fmt,
                "W": W,
                "text": _channel_text(W, fmt),
                "prior": rng.dirichlet(np.ones(n)),
                # erasure rate: a share of the Doeblin coefficient, so feasible
                "epsilon": float(rng.uniform(0.2, 0.9)) * float(W.min(axis=0).sum()),
                "highs": len(pool) % DESK_HIGHS_EVERY == 0,
            })
    return pool


ROUND_LENGTH = {
    "couple_verify": len(COUPLE_ROUND),
    "lp_oracle": len(LP_ROUND),
    "net_bounds": len(NET_ROUND),
    "desk_small": len(DESK_SHAPES),
}

_MAKERS = {"couple_verify": _couple, "lp_oracle": _lp, "net_bounds": _net, "desk_small": _desk}


def make_pool(workload: str, seed: int) -> list[dict]:
    """The ordered request pool of one workload: whole rounds, back to back."""
    return _MAKERS[workload](_rng(workload, seed))
