"""Self-test of the correctness checks; run it from the repository root:

    python3 perfbench/selftest.py

For one request of every class it runs the program, confirms that the
checks pass on the true answer, then perturbs the answer once per check and
confirms that the check names the perturbation.  Exits 1 if any check
accepts a perturbed answer or rejects a true one.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

# Perturbations exceed each check's tolerance: NUDGE for the 1e-12 identities,
# 100 * NUDGE for the 1e-9 comparisons of LP optima and witnesses.
NUDGE = 1e-9


def _bump(key, by=NUDGE):
    def apply(out):
        out[key] += by
    return apply


def _bump_last_component(out):
    comp = out["components"][-1]
    factor = next(iter(comp["free_factors"].values()), comp["shared_factor"])
    factor[0] += NUDGE / comp["weight"]


def _bump_intersection(out):
    key = next(iter(out["inter"]))
    out["inter"][key] += NUDGE


def _bump_joint_marginal(out):
    out["marginals"][0] = out["marginals"][0] + NUDGE


def _bump_witness(key):
    def apply(out):
        first = next(iter(out[key]))
        out[key][first] += 100 * NUDGE
    return apply


def _shift_matrix(out):
    out["matrix"] = out["matrix"].copy()
    out["matrix"][0, 0] += NUDGE
    out["matrix"][0, 1] -= NUDGE


def _sf_below_perc(out):
    out["sf"] = out["perc"] - 1e-6


def _recursion_above_tau(out):
    out["recursion"] = out["tau"] + 1e-6


def _mc_far(out):
    out["mc"] = min(1.0, out["perc"] + 0.2) if out["perc"] < 0.8 else out["perc"] - 0.2


def _mc_few_samples(out):
    """A far estimate that a one-sample error window would let through."""
    _mc_far(out)
    out["mc_samples"] = 1


def _bad_path(out):
    out["kept"] = list(out["kept"]) + [tuple(reversed(out["kept"][0]))]


def _payload(fn):
    def apply(out):
        fn(out["payload"])
    return apply


def _coef(key, by=NUDGE):
    def apply(pay):
        pay["coefficients"][key] += by
    return apply


def _degradation(pay):
    pay["degradation"][0][0] += NUDGE


def _fused(pay):
    pay["fused"][0] += NUDGE


def _text(out):
    out["text"] = json.dumps(dict(out["payload"], agreement=out["payload"]["agreement"] + 1e-12))


# workload -> (spec kind, check name, perturbation)
PERTURBATIONS = {
    "couple_verify": [
        ("max", "max.marginals", _bump_last_component),
        ("max", "max.diagonal_mass", _bump("diag_mass")),
        ("min", "min.marginals", _bump_last_component),
        ("min", "min.union_mass", _bump("union_mass")),
        ("min", "min.intersection_masses", _bump_intersection),
        ("joint", "joint.pair_diagonal_mass", _bump("pair_diag")),
        ("joint", "joint.x_diagonal_mass", _bump("x_diag")),
        ("joint", "joint.marginals", _bump_joint_marginal),
    ],
    "lp_oracle": [
        ("float", "lp.diag_vs_highs", _bump("diag", 100 * NUDGE)),
        ("float", "lp.diag_closed_form", _bump("diag", 100 * NUDGE)),
        ("float", "lp.union_vs_highs", _bump("union", 100 * NUDGE)),
        ("float", "lp.union_closed_form", _bump("union", 100 * NUDGE)),
        ("float", "lp.diag_witness_marginals", _bump_witness("diag_witness")),
        ("float", "lp.union_witness_marginals", _bump_witness("union_witness")),
        ("exact", "lp.diag_vs_highs", _bump("diag", 100 * NUDGE)),
        ("exact", "lp.union_vs_highs", _bump("union", 100 * NUDGE)),
    ],
    "net_bounds": [
        ("ladder", "net.composite_vs_full_joint", _shift_matrix),
        ("dag", "net.composite_vs_full_joint", _shift_matrix),
        ("dag", "net.tau", _bump("tau")),
        ("dag", "net.percolation_vs_survival_sum", _bump("perc")),
        ("dag", "net.percolation_sandwich", _sf_below_perc),
        ("dag", "net.recursion_bound", _recursion_above_tau),
        ("dag", "net.monte_carlo", _mc_far),
        ("dag", "net.monte_carlo", _mc_few_samples),
        ("dag", "net.kept_paths", _bad_path),
    ],
    "desk_small": [
        ("json", "desk.coefficients", _payload(_coef("eta_tv"))),
        ("csv", "desk.coefficients", _payload(_coef("tau_max2"))),
        ("json", "desk.degroot", _payload(_bump("min_degroot"))),
        ("json", "desk.erasure_degradation", _payload(_degradation)),
        ("json", "desk.fusion", _payload(_fused)),
        ("json", "desk.dumps_roundtrip", _text),
        ("json", "desk.min_trace_vs_highs", _payload(_coef("tau", 100 * NUDGE))),
    ],
}


def _sample(workload):
    """One request per class, the first of its kind in the seed-0 pool.  For
    lp_oracle the float sample has three marginals, so both closed forms
    apply; for desk_small the first JSON request carries the HiGHS flag."""
    picked = {}
    for spec in inputs.make_pool(workload, 0):
        if workload == "lp_oracle" and spec["kind"] == "float" and len(spec["pmfs"]) != 3:
            continue
        picked.setdefault(spec["kind"], spec)
    return picked


def main() -> int:
    bad = 0
    for workload, cases in PERTURBATIONS.items():
        build, request, extract = workloads.WORKLOADS[workload]
        check = checks.CHECKS[workload]
        samples = _sample(workload)
        answers = {}
        for kind, spec in samples.items():
            ref = oracles.compute(workload, [spec])[0]
            out = extract(spec, request(build(spec)))
            clean = check(spec, ref, out, first=True)
            if clean:
                print(f"FAIL {workload}/{kind}: true answer rejected by {clean}")
                bad += 1
            answers[kind] = (spec, ref, out)
        for kind, name, perturb in cases:
            spec, ref, out = answers[kind]
            wrong = copy.deepcopy(out)
            perturb(wrong)
            names = check(spec, ref, wrong, first=True)
            ok = name in names
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload}/{kind}: {name} {'rejects' if ok else 'accepts'} "
                  f"the perturbed answer")
    print("all checks reject their perturbations" if not bad else f"{bad} failures")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
