"""Command-line surface: machine-readable JSON on stdout, notes on stderr.

Subcommands: coef, couple, degroot, bayesnet, fuse, verify.  Exit code 0 on
success, 1 on parse/validation errors (the message names the failing
invariant), 2 on infeasible requests (no consensus, coupling condition
violated).  Output is byte-identical for identical inputs and seeds, on every
CPU: no printed number goes through BLAS, whose summation order is the kernel's.

Inputs: every subcommand that reads PMFs reads them one way, through
:func:`load_pmfs` (a JSON object, a JSON array or CSV, told apart by
content).  A bound whose computation passes its cap becomes a ``note``.

Output layout: every float is printed as ``format(x, ".17g")`` (17
significant digits, so values round-trip exactly); a non-finite float is
refused.  Strings and dict keys are quoted as ``json.dumps`` quotes them,
with non-ASCII text escaped.  A list goes on one line, ``[a, b, c]``, when
it has at most 12 items and every item's text is under 20 characters with
no newline; otherwise it prints one item per line.  A non-empty dict prints
one key per line.  Nested lines indent by two spaces per level.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from . import bayesnet as bn
from . import coupling as cp
from . import degroot as dg
from . import lp
from .channel import Channel, Pmf, _csv_table, _json, _json_fields, _parsed_table, doeblin, max_doeblin, report
from .exceptions import ExpansionCapError, InfeasibilityError, ValidationError
from .fusion import fuse_min


# ---------------------------------------------------------------------------
# Deterministic JSON with round-trip-safe floats
# ---------------------------------------------------------------------------


_NON_FINITE = "refusing to emit a non-finite number"


def _texts(values, indent: int) -> list:
    """The text of each value, at ``indent``.  Exact floats, strings and ints
    are formatted here; containers and every other scalar go through
    :func:`dumps`."""
    out = []
    append = out.append
    for v in values:
        t = type(v)
        if t is float:
            if v - v:  # nan for inf and nan, 0.0 for every finite float
                raise ValueError(_NON_FINITE)
            append(format(v, ".17g"))
        elif t is str:
            append(_quote(v))
        elif t is int:
            append(str(v))
        else:
            append(dumps(v, indent))
    return out


def dumps(obj, indent: int = 0) -> str:
    """The JSON text of ``obj`` nested ``indent`` levels deep, laid out as
    the module docstring states."""
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = _texts(obj, indent + 1)
        if len(items) <= 12:
            line = ", ".join(items)
            if "\n" not in line and max(map(len, items)) < 20:
                return "[" + line + "]"
        inner = "\n" + "  " * (indent + 1)
        return "[" + inner + ("," + inner).join(items) + "\n" + "  " * indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = _texts(obj.values(), indent + 1)
        inner = "\n" + "  " * (indent + 1)
        parts = [_quote(k if type(k) is str else str(k)) + ": " + it for k, it in zip(obj, items)]
        return "{" + inner + ("," + inner).join(parts) + "\n" + "  " * indent + "}"
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _texts([float(obj)], indent)[0]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(obj) -> None:
    sys.stdout.write(dumps(obj) + "\n")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def load_pmfs(paths) -> Channel:
    """The PMFs of every path, in order, as the rows of one channel.  Each
    path holds, by content, a JSON object ``{"rows": ..., "input_labels"?,
    "output_labels"?}``, a JSON array of PMFs or one PMF, or CSV with one PMF
    per line and an optional header.  Labels are kept when one path is read.
    The rows are validated and normalized once, as one channel."""
    rows: list = []
    for path in paths:
        text = _read(path)
        head = text.lstrip()[:1]
        if head == "{":
            table, *labels = _json_fields(text)
        elif head == "[":
            table, labels = np.atleast_2d(_parsed_table(_json(text, f"PMF file {path}"))), ()
        else:
            table, labels = _csv_table(text), ()
        if len(paths) == 1:
            return Channel(table, *labels)
        if table.ndim != 2:
            raise ValidationError(f"channel in {path} must be a nonempty 2-D matrix")
        rows.extend(table)
    return Channel(rows)


# ---------------------------------------------------------------------------
# Subcommand bodies: each returns the payload that run() emits
# ---------------------------------------------------------------------------


def _cmd_coef(args) -> dict:
    ch = load_pmfs([args.channel])
    return {"n": ch.n, "m": ch.m, **report(ch).to_dict()}


def _cmd_couple(args) -> dict:
    if args.kind == "joint":
        if len(args.inputs) != 1:
            raise ValidationError(f"--kind joint reads one file of joints, got {len(args.inputs)}")
        obj = _json(_read(args.inputs[0]), "joints file")
        if not isinstance(obj, dict) or not isinstance(obj.get("joints"), list):
            raise ValidationError('joint coupling input must be {"joints": [...]}')
        jc = cp.simultaneous_joint_coupling(obj["joints"])
        return {
            "kind": "joint",
            "arity": jc.arity,
            "achieved": {
                "pair_diagonal_mass": jc.prob_all_equal(),
                "x_diagonal_mass": jc.prob_x_equal(),
            },
            "coupling": _expanded_if_under_cap(jc.to_dict, True),
        }

    ch = load_pmfs(args.inputs)
    if args.kind == "max":
        built = cp.maximal_coupling(ch)
        achieved = {"diagonal_mass": doeblin(ch)}
    else:
        built = cp.minimal_coupling_max(ch)
        achieved = {"union_mass": cp.minimal_union_mass(ch)}
    return {
        "kind": args.kind,
        "arity": built.arity,
        "alphabet": built.alphabet_size,
        "achieved": achieved,
        "coupling": _expanded_if_under_cap(built.to_dict, args.expand),
    }


def _expanded_if_under_cap(to_dict, expand: bool) -> dict:
    """``to_dict(expand)``; past the expansion cap, a note and the mixture's
    components alone."""
    try:
        return to_dict(expand)
    except ExpansionCapError:
        _note(f"expansion skipped: table would exceed the cap of {cp.DEFAULT_EXPANSION_CAP} entries")
        return to_dict(False)


# Each --loss key with its library loss kind and loss matrix.
_LOSSES = {"id": ("identity", dg.identity_loss), "complement": ("complement", dg.complement_loss)}


def _cmd_degroot(args) -> dict:
    ch = load_pmfs([args.channel])
    prior = Pmf(_json(args.prior, "--prior"))
    out = {"min_degroot": dg.min_degroot(prior, ch), "max_degroot": dg.max_degroot(prior, ch), "risks": []}
    for key in [args.loss] if args.loss else _LOSSES:
        kind, loss = _LOSSES[key]
        est = dg.optimal_estimator(prior, ch, kind)
        out["risks"].append(
            {
                "loss": key,
                "prior_risk": dg.prior_risk(prior, ch.n, kind),
                "bayes_risk": dg.risk(prior, ch, loss(ch.n), est),
            }
        )
    return out


def _cmd_bayesnet(args) -> dict:
    net = bn.BayesNet.from_json(_read(args.net))
    targets = sorted({net.index_of(name.strip()) for name in args.target.split(",")})
    names = [net.nodes[i].name for i in targets]
    out: dict = {"target": names}
    try:
        tau = doeblin(bn.composite_channel(net, targets))
        out["tau"] = tau
        out["gamma"] = 1.0 - tau
    except ExpansionCapError:
        out["tau"] = None
        out["gamma"] = None
        _note("composite channel exceeds the enumeration cap; bounds only")
    bounds = out["bounds"] = {}
    if args.bound in ("recursion", "all"):
        bounds["recursion"] = _noted(_recursion_report, net, targets)
    if args.bound in ("perc", "all"):
        bounds["percolation"] = _noted(_percolation_report, net, targets, args.mc)
    if args.bound in ("sfpaths", "all"):
        bounds["shortcut_free"] = _noted(_shortcut_free_report, net, targets)
    return out


def _noted(report, *args) -> dict:
    """``report(*args)``; past a cap, a note naming the cap in its place."""
    try:
        return report(*args)
    except ExpansionCapError as exc:
        return {"note": str(exc)}


def _recursion_report(net, targets) -> dict:
    """Apply the one-step recursion at the topologically last target."""
    candidates = [u for u in targets if u != net.source]
    if not candidates:
        return {"note": "no non-source target to recurse on"}
    u = max(candidates)
    value = bn.recursion_bound(net, [v for v in targets if v != u], u)
    return {
        "u": net.nodes[u].name,
        "tau_u": bn.node_tau(net, u),
        "lower_bound_on_tau": value,
    }


def _percolation_report(net, targets, mc) -> dict:
    """Exact percolation, or Monte Carlo with ``mc = (samples, seed)``."""
    samples, seed = mc or (None, None)
    return bn.percolation(net, targets, "exact" if mc is None else "mc", samples, seed).to_dict()


def _shortcut_free_report(net, targets) -> dict:
    value, paths = bn.shortcut_free_bound(net, targets)
    return {"bound": value, "paths": [[net.nodes[u].name for u in p] for p in paths]}


def _cmd_fuse(args) -> dict:
    result = fuse_min(load_pmfs(args.pmfs))
    return {"fused": result.fused.to_list(), "agreement": result.agreement}


def _cmd_verify(args) -> dict:
    ch = load_pmfs(args.inputs)
    sense = args.sense or ("max" if args.problem == "diag" else "min")
    res = None
    if args.problem == "estimator":
        value, kernel = lp.estimator_opt(ch, sense, exact=args.exact)
        closed = (doeblin(ch) if sense == "min" else max_doeblin(ch)) / ch.n
    elif args.problem == "diag":
        res = lp.coupling_diag_opt(ch, sense, exact=args.exact)
        closed = doeblin(ch) if sense == "max" else None
    else:  # union; argparse admits no other problem
        res = lp.coupling_union_opt(ch, sense, exact=args.exact)
        closed = cp.minimal_union_mass(ch) if sense == "min" else None
        if sense == "min" and closed is None:
            _note("no closed form is known for this regime; the reported value is the LP optimum only")
    if res is not None:
        value = res.value
    out = {
        "problem": args.problem,
        "sense": sense,
        "value": value,
        "closed_form": closed,
        "gap": None if closed is None else abs(value - closed),
        "paper_backed": closed is not None,
    }
    if res is not None:  # the coupling LPs report their residuals
        out["residuals"] = {
            "max_marginal": res.max_marginal_residual,
            "min_mass": res.min_mass,
            "duality_gap": res.duality_gap,
        }
    if args.witness:
        out["witness"] = (
            Channel(kernel).to_dict() if res is None
            else [{"tuple": list(t), "mass": mass} for t, mass in res.witness.items()]
        )
    return out


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="doeblin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("coef", help="coefficient report for one channel")
    p.add_argument("channel")
    p.set_defaults(func=_cmd_coef)

    p = sub.add_parser("couple", help="build an extremal coupling")
    p.add_argument("--kind", required=True, choices=["max", "min", "joint"])
    p.add_argument("--expand", action="store_true", help="include the expanded table")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_couple)

    p = sub.add_parser("degroot", help="DeGroot distances and Bayes risks")
    p.add_argument("--prior", required=True, help="inline JSON array")
    p.add_argument("--loss", choices=["id", "complement"], default=None)
    p.add_argument("channel")
    p.set_defaults(func=_cmd_degroot)

    p = sub.add_parser("bayesnet", help="contraction bounds over a network")
    p.add_argument("net")
    p.add_argument("--target", required=True, help="comma-separated node names")
    p.add_argument("--bound", choices=["recursion", "perc", "sfpaths", "all"], default="all")
    p.add_argument("--mc", nargs=2, type=int, metavar=("SAMPLES", "SEED"), default=None)
    p.set_defaults(func=_cmd_bayesnet)

    p = sub.add_parser("fuse", help="min-rule fusion of PMFs")
    p.add_argument("pmfs", nargs="+")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("verify", help="LP-oracle check of an extremal value")
    p.add_argument("--problem", required=True, choices=["diag", "union", "estimator"])
    p.add_argument("--sense", choices=["min", "max"], default=None)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--exact", action="store_true", help="exact rational pivoting")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
    except InfeasibilityError as exc:
        _note(f"infeasible: {exc}")
        return 2
    except ValidationError as exc:
        _note(f"invalid input: {exc}")
        return 1
    _emit(out)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
