"""Reference values computed apart from the program.

Everything here is plain loops, numpy broadcasting or a HiGHS solve of a
linear program that this file builds itself; nothing imports ``doeblin``.
The orchestrator computes these once per run, before the workload process
starts, and hands them over in a pickle, so scipy never enters the measured
process and its resident set.
"""

from __future__ import annotations

import itertools

import numpy as np

from inputs import ancestors

# ---------------------------------------------------------------------------
# Column statistics by explicit loops
# ---------------------------------------------------------------------------


def column_stats(W) -> dict:
    """tau, tau_max, tau_max2 and eta_TV of a row-stochastic matrix."""
    rows = [[float(v) for v in row] for row in W]
    n, m = len(rows), len(rows[0])
    tau = tau_max = tau_max2 = 0.0
    for y in range(m):
        col = sorted(rows[i][y] for i in range(n))
        tau += col[0]
        tau_max += col[-1]
        tau_max2 += col[-2] if n > 1 else 0.0
    eta = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            eta = max(eta, 0.5 * sum(abs(rows[i][y] - rows[j][y]) for y in range(m)))
    return {"tau": tau, "tau_max": tau_max, "tau_max2": tau_max2, "eta_tv": eta}


def subset_min_sums(P) -> dict:
    """For every coordinate subset of size >= 2, the sum over y of the
    column minimum over the subset."""
    n, m = P.shape
    out = {}
    for size in range(2, n + 1):
        for coords in itertools.combinations(range(n), size):
            out[coords] = sum(min(float(P[i, y]) for i in coords) for y in range(m))
    return out


# ---------------------------------------------------------------------------
# Linear programs solved by HiGHS
# ---------------------------------------------------------------------------


def _highs(c, A_eq, b_eq) -> float:
    from scipy.optimize import linprog

    res = linprog(c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return float(res.fun)


def coupling_lp_values(P) -> dict:
    """Maximal all-equal mass and minimal union mass over all couplings of
    the rows of P, from one marginal constraint per (coordinate, symbol)."""
    n, m = P.shape
    tuples = list(itertools.product(range(m), repeat=n))
    A = np.zeros((n * m, len(tuples)))
    for col, t in enumerate(tuples):
        for i, y in enumerate(t):
            A[i * m + y, col] = 1.0
    b = P.reshape(-1)
    diag = np.array([1.0 if len(set(t)) == 1 else 0.0 for t in tuples])
    union = np.array([float(len(set(t))) for t in tuples])
    return {"diag_max": -_highs(-diag, A, b), "union_min": _highs(union, A, b)}


def min_trace_lp(W) -> float:
    """min Tr(P W) over row-stochastic m x n matrices P; variable P[j, i] at j*n + i."""
    n, m = W.shape
    c = np.array([W[i, j] for j in range(m) for i in range(n)])
    A = np.zeros((m, m * n))
    for j in range(m):
        A[j, j * n:(j + 1) * n] = 1.0
    return _highs(c, A, np.ones(m))


# ---------------------------------------------------------------------------
# Bayesian networks: full joint, survival configurations, path counts
# ---------------------------------------------------------------------------


def full_joint_composite(spec) -> np.ndarray:
    """Channel from the source to the joint target states, from the full
    joint table over every node (no ancestor pruning)."""
    alph, parents, cpts = spec["alphabets"], spec["parents"], spec["cpts"]
    letters = "abcdefghijklmnopqrstuvwxyz"
    joint = np.ones(alph[0])  # conditional on the source symbol: axis 0 is x
    for u in range(1, len(alph)):
        table = cpts[u].reshape([alph[p] for p in parents[u]] + [alph[u]])
        sub_table = "".join(letters[p] for p in parents[u]) + letters[u]
        joint = np.einsum(f"{letters[:u]},{sub_table}->{letters[:u + 1]}", joint, table)
    targets = sorted(spec["targets"])
    drop = tuple(u for u in range(1, len(alph)) if u not in targets)
    return joint.sum(axis=drop).reshape(alph[0], -1)


def node_taus(spec) -> dict:
    return {u: column_stats(spec["cpts"][u])["tau"] for u in range(1, len(spec["alphabets"]))}


def children_of(parents) -> list[list[int]]:
    kids = [[] for _ in parents]
    for u, ps in enumerate(parents):
        for p in ps:
            kids[p].append(u)
    return kids


def survival_percolation(spec, taus) -> float:
    """Sum over every survival configuration of the non-source nodes of the
    probability that a surviving directed path reaches a target."""
    kids = children_of(spec["parents"])
    V = set(spec["targets"])
    others = list(range(1, len(spec["alphabets"])))
    total = 0.0
    for mask in itertools.product((False, True), repeat=len(others)):
        prob = 1.0
        alive = {0}
        for u, a in zip(others, mask):
            prob *= (1.0 - taus[u]) if a else taus[u]
            if a:
                alive.add(u)
        if prob == 0.0:
            continue
        seen, stack = {0}, [0]
        while stack:
            cur = stack.pop()
            if cur in V:
                total += prob
                break
            for c in kids[cur]:
                if c in alive and c not in seen:
                    seen.add(c)
                    stack.append(c)
    return total


def count_paths(spec) -> int:
    """Directed paths from the source that end at a target; a path through
    one target that goes on to another counts once for each."""
    kids = children_of(spec["parents"])
    V = set(spec["targets"])

    def walk(u):
        return sum((c in V) + walk(c) for c in kids[u])

    return walk(0)


def ancestor_states(spec) -> int:
    seen = ancestors(spec["parents"], spec["targets"])
    alph = spec["alphabets"]
    return alph[0] * int(np.prod([alph[u] for u in seen if u != 0]))


# ---------------------------------------------------------------------------
# Per-workload reference tables
# ---------------------------------------------------------------------------


def _couple(spec):
    if spec["kind"] == "max":
        return {"diag": float(spec["pmfs"].min(axis=0).sum())}
    if spec["kind"] == "min":
        return {"union": column_stats(spec["pmfs"])["tau_max"], "inter": subset_min_sums(spec["pmfs"])}
    J = spec["joints"]
    return {
        "pair_diag": float(J.min(axis=0).sum()),
        "x_diag": float(J.sum(axis=2).min(axis=0).sum()),
    }


def _lp(spec):
    P = spec["pmfs"]
    out = coupling_lp_values(P)
    st = column_stats(P)
    out["diag_closed"] = st["tau"]
    n = P.shape[0]
    if st["tau_max2"] <= 1.0 + 1e-12:
        out["union_closed"] = st["tau_max"]
    elif n == 3:
        out["union_closed"] = st["tau_max"] + (st["tau_max2"] - 1.0)
    else:
        out["union_closed"] = None  # no closed form beyond three marginals
    return out


def _net(spec):
    comp = full_joint_composite(spec)
    taus = node_taus(spec)
    return {
        "composite": comp,
        "tau": column_stats(comp)["tau"],
        "percolation": survival_percolation(spec, taus),
        "paths_total": count_paths(spec),
        "ancestor_states": ancestor_states(spec),
    }


def _desk(spec):
    W = spec["W"]
    st = column_stats(W)
    lam = [float(v) for v in spec["prior"]]
    n, m = W.shape
    weighted = [[lam[i] * float(W[i, y]) for y in range(m)] for i in range(n)]
    st["min_degroot"] = min(lam) - sum(min(weighted[i][y] for i in range(n)) for y in range(m))
    st["max_degroot"] = sum(max(weighted[i][y] for i in range(n)) for y in range(m)) - max(lam)
    colmin = np.array([min(float(W[i, y]) for i in range(n)) for y in range(m)])
    st["fused"] = colmin / colmin.sum()
    if spec["highs"]:
        st["trace_lp"] = min_trace_lp(W)
    return st


_ORACLES = {"couple_verify": _couple, "lp_oracle": _lp, "net_bounds": _net, "desk_small": _desk}


def compute(workload: str, pool: list[dict]) -> list[dict]:
    return [_ORACLES[workload](spec) for spec in pool]
