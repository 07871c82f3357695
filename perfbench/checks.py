"""Per-request correctness checks.

Each ``check_<workload>`` takes a request's input spec, its reference values
from :mod:`oracles` and the plain-data output the workload process extracted
from the program's answer, and returns the names of the checks that failed
(an empty list when the answer is right).  The checks use numpy and the
standard library only.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import MC_SAMPLES

TIGHT = 1e-12  # identities that hold at double precision on desk-scale inputs
LP_TOL = 1e-9  # simplex and HiGHS optima, and LP witness marginals
MC_SIGMAS = 4.0


def _close(a, b, tol=TIGHT) -> bool:
    return a is not None and b is not None and abs(float(a) - float(b)) <= tol


def component_marginals(components, n: int, m: int) -> np.ndarray:
    """Coordinate marginals of a mixture given as ``Coupling.to_dict()`` components."""
    marg = np.zeros((n, m))
    for comp in components:
        glued = set(comp["glued"])
        for i in range(n):
            factor = comp["shared_factor"] if i in glued else comp["free_factors"][str(i)]
            marg[i] += comp["weight"] * np.asarray(factor)
    return marg


def witness_marginals(witness: dict, n: int, m: int) -> np.ndarray:
    marg = np.zeros((n, m))
    for key, mass in witness.items():
        for i, y in enumerate(key):
            marg[i, y] += mass
    return marg


def check_couple_verify(spec, ref, out, first=False) -> list[str]:
    bad = []
    if spec["kind"] == "joint":
        J = spec["joints"]
        if not _close(out["pair_diag"], ref["pair_diag"]):
            bad.append("joint.pair_diagonal_mass")
        if not _close(out["x_diag"], ref["x_diag"]):
            bad.append("joint.x_diagonal_mass")
        margs = out["marginals"]
        if len(margs) != len(J) or any(
            np.abs(np.asarray(g) - t).max() > TIGHT for g, t in zip(margs, J)
        ):
            bad.append("joint.marginals")
        return bad
    P = spec["pmfs"]
    if np.abs(component_marginals(out["components"], *P.shape) - P).max() > TIGHT:
        bad.append(f"{spec['kind']}.marginals")
    if spec["kind"] == "max":
        if not _close(out["diag_mass"], ref["diag"]):
            bad.append("max.diagonal_mass")
        return bad
    if not _close(out["union_mass"], ref["union"]):
        bad.append("min.union_mass")
    inter = out["inter"] or {}
    if set(inter) != set(ref["inter"]) or any(
        not _close(inter[s], v) for s, v in ref["inter"].items()
    ):
        bad.append("min.intersection_masses")
    return bad


def check_lp_oracle(spec, ref, out, first=False) -> list[str]:
    bad = []
    P = spec["pmfs"]
    if not _close(out["diag"], ref["diag_max"], LP_TOL):
        bad.append("lp.diag_vs_highs")
    if not _close(out["union"], ref["union_min"], LP_TOL):
        bad.append("lp.union_vs_highs")
    if not _close(out["diag"], ref["diag_closed"], LP_TOL):
        bad.append("lp.diag_closed_form")
    if ref["union_closed"] is not None and not _close(out["union"], ref["union_closed"], LP_TOL):
        bad.append("lp.union_closed_form")
    for key in ("diag_witness", "union_witness"):
        if np.abs(witness_marginals(out[key], *P.shape) - P).max() > LP_TOL:
            bad.append(f"lp.{key}_marginals")
    return bad


def check_net_bounds(spec, ref, out, first=False) -> list[str]:
    bad = []
    if first and (
        out["matrix"].shape != ref["composite"].shape
        or np.abs(out["matrix"] - ref["composite"]).max() > TIGHT
    ):
        bad.append("net.composite_vs_full_joint")
    if not _close(out["tau"], ref["tau"]):
        bad.append("net.tau")
    perc = out["perc"]
    if not _close(perc, ref["percolation"]):
        bad.append("net.percolation_vs_survival_sum")
    if not (1.0 - ref["tau"] <= perc + TIGHT and perc <= out["sf"] + TIGHT):
        bad.append("net.percolation_sandwich")
    if not out["recursion"] <= ref["tau"] + TIGHT:
        bad.append("net.recursion_bound")
    p, n = ref["percolation"], MC_SAMPLES
    if out["mc_samples"] != n or not abs(out["mc"] - p) <= MC_SIGMAS * math.sqrt(p * (1.0 - p) / n) + TIGHT:
        bad.append("net.monte_carlo")
    parents, targets = spec["parents"], set(spec["targets"])
    for path in out["kept"]:
        if (
            len(path) < 2
            or path[0] != 0
            or path[-1] not in targets
            or any(a not in parents[b] for a, b in zip(path, path[1:]))
        ):
            bad.append("net.kept_paths")
            break
    return bad


def check_desk_small(spec, ref, out, first=False) -> list[str]:
    bad = []
    pay = out["payload"]
    coef = pay["coefficients"]
    if any(not _close(coef[k], ref[k]) for k in ("tau", "tau_max", "tau_max2", "eta_tv")):
        bad.append("desk.coefficients")
    (id_prior, id_bayes), (co_prior, co_bayes) = pay["risks"]["identity"], pay["risks"]["complement"]
    if not (
        _close(id_prior - id_bayes, pay["min_degroot"])
        and _close(co_prior - co_bayes, pay["max_degroot"])
        and _close(pay["min_degroot"], ref["min_degroot"])
        and _close(pay["max_degroot"], ref["max_degroot"])
    ):
        bad.append("desk.degroot")
    W = spec["W"]
    n = W.shape[0]
    eps = spec["epsilon"]
    D = np.asarray(pay["degradation"])
    if (
        D.shape != (n + 1, W.shape[1])
        or D.min() < 0.0
        or np.abs(D.sum(axis=1) - 1.0).max() > TIGHT
        or np.abs((1.0 - eps) * D[:n] + eps * D[n] - W).max() > TIGHT
    ):
        bad.append("desk.erasure_degradation")
    if np.abs(np.asarray(pay["fused"]) - ref["fused"]).max() > TIGHT or not _close(
        pay["agreement"], ref["tau"]
    ):
        bad.append("desk.fusion")
    if json.loads(out["text"]) != pay:
        bad.append("desk.dumps_roundtrip")
    if "trace_lp" in ref and not _close(coef["tau"], ref["trace_lp"], LP_TOL):
        bad.append("desk.min_trace_vs_highs")
    return bad


CHECKS = {
    "couple_verify": check_couple_verify,
    "lp_oracle": check_lp_oracle,
    "net_bounds": check_net_bounds,
    "desk_small": check_desk_small,
}
