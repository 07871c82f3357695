"""What one request of each workload asks of the program.

``build`` turns a spec from :mod:`inputs` into program objects with the
program's own constructors (this is part of set-up), ``request`` is the timed
call sequence, and ``extract`` copies the answer into plain data for
:mod:`checks` outside the timed region.  Every program function is looked up
on its module at call time, so the tracer's wrappers see each call.
"""

from __future__ import annotations

import doeblin as dl
from doeblin import bayesnet as bn
from doeblin import channel, cli
from doeblin import coupling as cp
from doeblin import degroot as dg
from doeblin import fusion, lp

from inputs import MC_SAMPLES

# -- couple_verify ------------------------------------------------------------


def build_couple(spec):
    if spec["kind"] == "joint":
        return {"kind": "joint", "joints": list(spec["joints"])}
    return {"kind": spec["kind"], "pmfs": [dl.Pmf(row) for row in spec["pmfs"]]}


def request_couple(obj):
    if obj["kind"] == "joint":
        jc = cp.simultaneous_joint_coupling(obj["joints"])
        return jc.prob_all_equal(), jc.prob_x_equal(), [jc.bivariate_marginal(i) for i in range(jc.arity)]
    if obj["kind"] == "max":
        built = cp.maximal_coupling(obj["pmfs"])
    else:
        built = cp.minimal_coupling_max(obj["pmfs"])
    report = cp.verify_coupling(built, obj["pmfs"])
    return report, built.to_dict()


def extract_couple(spec, ans):
    if spec["kind"] == "joint":
        pair, x, margs = ans
        return {"pair_diag": pair, "x_diag": x, "marginals": margs}
    report, as_dict = ans
    return {
        "components": as_dict["components"],
        "diag_mass": report.diagonal_mass,
        "union_mass": report.union_mass,
        "inter": report.intersection_masses,
    }


# -- lp_oracle ----------------------------------------------------------------


def build_lp(spec):
    return {"exact": spec["kind"] == "exact", "pmfs": [dl.Pmf(row) for row in spec["pmfs"]]}


def request_lp(obj):
    diag = lp.coupling_diag_opt(obj["pmfs"], "max", exact=obj["exact"])
    union = lp.coupling_union_opt(obj["pmfs"], "min", exact=obj["exact"])
    return diag, union


def extract_lp(spec, ans):
    diag, union = ans
    return {"diag": diag.value, "union": union.value,
            "diag_witness": diag.witness, "union_witness": union.witness}


# -- net_bounds ---------------------------------------------------------------


def build_net(spec):
    nodes = [bn.Node("X", spec["alphabets"][0], (), None)]
    for u in range(1, len(spec["alphabets"])):
        nodes.append(bn.Node(f"U{u}", spec["alphabets"][u], tuple(spec["parents"][u]), spec["cpts"][u]))
    return {"net": bn.BayesNet(nodes=tuple(nodes), source=0), "targets": list(spec["targets"]),
            "mc_seed": spec["mc_seed"]}


def request_net(obj):
    """What ``doeblin bayesnet --bound all`` computes, plus Monte Carlo percolation."""
    net, V = obj["net"], obj["targets"]
    comp = bn.composite_channel(net, V)
    tau = channel.doeblin(comp)
    u = max(V)
    rest = [v for v in V if v != u]
    bn.node_tau(net, u)
    recursion = bn.recursion_bound(net, rest, u)
    perc = bn.percolation(net, V, mode="exact")
    sf, kept = bn.shortcut_free_bound(net, V)
    mc = bn.percolation(net, V, mode="mc", samples=MC_SAMPLES, seed=obj["mc_seed"])
    return comp, tau, recursion, perc, sf, kept, mc


def extract_net(spec, ans):
    comp, tau, recursion, perc, sf, kept, mc = ans
    return {"matrix": comp.matrix, "tau": tau, "recursion": recursion, "perc": perc.probability,
            "sf": sf, "kept": kept, "mc": mc.probability, "mc_samples": mc.samples}


# -- desk_small ---------------------------------------------------------------


def build_desk(spec):
    return {"kind": spec["kind"], "text": spec["text"], "prior": dl.Pmf(spec["prior"]),
            "epsilon": spec["epsilon"]}


def request_desk(obj):
    if obj["kind"] == "json":
        ch = dl.Channel.from_json(obj["text"])
    else:
        ch = dl.Channel.from_csv(obj["text"])
    rep = channel.report(ch)
    prior, n = obj["prior"], ch.n
    risks = {}
    for kind, loss in (("identity", dg.identity_loss(n)), ("complement", dg.complement_loss(n))):
        est = dg.optimal_estimator(prior, ch, kind)
        risks[kind] = [dg.prior_risk(prior, n, kind), dg.risk(prior, ch, loss, est)]
    fused = fusion.fuse_min(ch.matrix)
    degraded = channel.erasure_degradation(ch, obj["epsilon"])
    payload = {
        "coefficients": rep.to_dict(),
        "min_degroot": dg.min_degroot(prior, ch),
        "max_degroot": dg.max_degroot(prior, ch),
        "risks": risks,
        "fused": fused.fused.to_list(),
        "agreement": fused.agreement,
        "degradation": degraded.to_dict()["rows"],
    }
    return payload, cli.dumps(payload)


def extract_desk(spec, ans):
    payload, text = ans
    return {"payload": payload, "text": text}


WORKLOADS = {
    "couple_verify": (build_couple, request_couple, extract_couple),
    "lp_oracle": (build_lp, request_lp, extract_lp),
    "net_bounds": (build_net, request_net, extract_net),
    "desk_small": (build_desk, request_desk, extract_desk),
}
