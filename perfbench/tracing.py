"""Spans and counters around the program's public functions, from outside.

:class:`Tracer` replaces every public function of the seven layer modules,
at every module attribute that binds it (so ``lp.solve`` called from inside
``coupling_union_opt`` and ``composite_channel`` called from inside
``recursion_bound`` get spans of their own), plus a few public methods.  A
span records its name, start, end, parent span and request id; spans stay
in memory until :meth:`Tracer.write`.  Nothing under ``src/`` changes and
:meth:`Tracer.uninstall` restores every binding.

Each ``*_ms`` metric is the self time of the spans it names, where a span's
self time is its duration minus its child spans.  The self time of a child
span that names no metric (a helper such as ``node_tau`` or ``stack_pmfs``)
goes to its nearest ancestor that does, and that of a top-level span that
names none (``lp.coupling_opt``, ``channel.erasure_degradation``) to its
layer's ``<layer>.other_ms``, so no self time goes uncounted.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("channel", "coupling", "lp", "bayesnet", "degroot", "fusion", "cli")

# Public methods that are operations of their layer (accessors stay unwrapped).
METHODS = {
    "channel": {"Channel": ("from_json", "from_csv")},
    "coupling": {
        "Coupling": ("expand", "marginal", "diagonal_mass", "union_mass", "intersection_mass", "to_dict"),
        "JointCoupling": ("bivariate_marginal", "prob_all_equal", "prob_x_equal", "to_dict"),
    },
    "bayesnet": {"BayesNet": ("from_json", "to_dict")},
}

# Span name -> per-layer metric that its self time counts towards.
TIME_METRICS = {
    "channel.Channel.from_json": "channel.parse_ms",
    "channel.Channel.from_csv": "channel.parse_ms",
    "channel.report": "channel.report_ms",
    "coupling.maximal_coupling": "coupling.build_ms",
    "coupling.minimal_coupling_max": "coupling.build_ms",
    "coupling.minimal_coupling_max_n3": "coupling.build_ms",
    "coupling.verify_coupling": "coupling.verify_ms",
    "coupling.simultaneous_joint_coupling": "coupling.joint_ms",
    "coupling.JointCoupling.prob_all_equal": "coupling.joint_ms",
    "coupling.JointCoupling.prob_x_equal": "coupling.joint_ms",
    "coupling.JointCoupling.bivariate_marginal": "coupling.joint_ms",
    "lp.solve[float]": "lp.solve_ms.float",
    "lp.solve[exact]": "lp.solve_ms.exact",
    "bayesnet.composite_channel": "bayesnet.composite_ms",
    "bayesnet.recursion_bound": "bayesnet.recursion_ms",
    "bayesnet.percolation[exact]": "bayesnet.perc_exact_ms",
    "bayesnet.percolation[mc]": "bayesnet.perc_mc_ms",
    "bayesnet.shortcut_free_bound": "bayesnet.sfpaths_ms",
    "fusion.fuse_min": "fusion.ms",
    "cli.dumps": "cli.dumps_ms",
}
DEGROOT_METRIC = "degroot.ms"  # every public degroot function
OTHER_METRICS = {layer: f"{layer}.other_ms" for layer in LAYERS}  # unnamed top-level spans
TIME_METRIC_NAMES = sorted(set(TIME_METRICS.values()) | {DEGROOT_METRIC} | set(OTHER_METRICS.values()))


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Span-name suffixes that split one function by mode.
VARIANTS = {
    "lp.solve": lambda a, k: "[exact]" if _arg(a, k, 1, "exact", False) else "[float]",
    "bayesnet.percolation": lambda a, k: f"[{_arg(a, k, 2, 'mode', 'exact')}]",
}


def _count_components(counts, args, kwargs, out):
    counts["coupling.components"] += len(out.components)


def _count_expanded(counts, args, kwargs, out):
    counts["coupling.table_cells"] += len(args[0].expanded or ())


def _count_joint(counts, args, kwargs, out):
    counts["coupling.table_cells"] += len(out.table)


def _count_solve(counts, args, kwargs, out):
    counts["lp.variables"] += args[0].eq_matrix.shape[1]
    counts["lp.pivots"] += out.iterations


def _count_percolation(counts, args, kwargs, out):
    if out.samples:
        counts["bayesnet.mc_trials"] += out.samples


def _count_paths(counts, args, kwargs, out):
    counts["bayesnet.paths_kept"] += len(out[1])


def _count_bytes(counts, args, kwargs, out):
    counts["cli.bytes_emitted"] += len(out.encode())


# Per-request counters the hooks and counting wrappers feed.
COUNT_METRIC_NAMES = (
    "channel.construct_calls", "channel.rows_validated", "coupling.components",
    "coupling.table_cells", "lp.variables", "lp.pivots", "bayesnet.paths_kept",
    "cli.bytes_emitted",
)

HOOKS = {
    "coupling.maximal_coupling": _count_components,
    "coupling.minimal_coupling_max": _count_components,
    "coupling.minimal_coupling_max_n3": _count_components,
    "coupling.verify_coupling": _count_expanded,
    "coupling.simultaneous_joint_coupling": _count_joint,
    "lp.solve": _count_solve,
    "bayesnet.percolation": _count_percolation,
    "bayesnet.shortcut_free_bound": _count_paths,
    "cli.dumps": _count_bytes,
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label_of = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.request = -1
        self._stack: list[tuple[int, object]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._bound: list[tuple[object, str, object]] | None = None

    # -- recording ----------------------------------------------------------

    def _label(self, name: str) -> int:
        lid = self._label_ids.get(name)
        if lid is None:
            lid = self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return lid

    def _wrap(self, fn, name):
        variant, hook, stack = VARIANTS.get(name), HOOKS.get(name), self._stack

        def traced(*args, **kwargs):
            if stack and stack[-1][1] is fn:  # recursion: one span for the outermost call
                return fn(*args, **kwargs)
            sid = len(self.start)
            self.label_of.append(self._label(name + variant(args, kwargs) if variant else name))
            self.parent.append(stack[-1][0] if stack else -1)
            self.request_of.append(self.request)
            self.end.append(0.0)
            stack.append((sid, fn))
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counts, args, kwargs, out)
            return out

        return traced

    def _counting(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def _bindings(self) -> list[tuple[object, str, object]]:
        """(owner, attribute, replacement) for every binding to wrap."""
        channel = sys.modules["doeblin.channel"]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"doeblin.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        # Row validation runs once per channel row and per Pmf.
        wrappers[channel._as_prob_vector] = self._counting(channel._as_prob_vector, "channel.rows_validated")
        out = []
        for name, mod in list(sys.modules.items()):
            if name == "doeblin" or name.startswith("doeblin."):
                out += [(mod, attr, wrappers[obj]) for attr, obj in vars(mod).items()
                        if inspect.isfunction(obj) and obj in wrappers]
        for layer, classes in METHODS.items():
            mod = sys.modules[f"doeblin.{layer}"]
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        out.append((cls, meth, classmethod(self._wrap(raw.__func__, name))))
                    else:
                        out.append((cls, meth, self._wrap(raw, name)))
        init = channel.Channel.__dict__["__init__"]
        out.append((channel.Channel, "__init__", self._counting(init, "channel.construct_calls")))
        return out

    def install(self) -> None:
        if self._bound is None:
            self._bound = self._bindings()
        for owner, attr, value in self._bound:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per metric, with unnamed child spans folded
        into their nearest ancestor that names a metric and unnamed top-level
        spans into their layer's ``other_ms``."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        owner_metric: list[str] = [""] * n
        totals: defaultdict[str, float] = defaultdict(float)
        for i in range(n):
            label = self.labels[self.label_of[i]]
            metric = TIME_METRICS.get(label)
            if metric is None and label.startswith("degroot."):
                metric = DEGROOT_METRIC
            if metric is None:
                p = self.parent[i]
                metric = owner_metric[p] if p >= 0 else OTHER_METRICS[label.split(".", 1)[0]]
            owner_metric[i] = metric
            totals[metric] += self.end[i] - self.start[i] - child[i]
        return totals

    def write(self, path) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{self.request_of[i]}\t{self.labels[self.label_of[i]]}"
                    f"\t{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
