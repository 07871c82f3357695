"""The workload process: one interpreter, one thread, one caller in a closed loop.

    worker.py setup --workload W --inputs FILE
        Import doeblin, build the program's objects from the pickled input
        pool, print ``READY <import_ms>`` and exit; the orchestrator times
        this from process start to that line.
    worker.py run --workload W --inputs FILE --refs FILE --seconds T [--spans FILE]
        Build the same objects, run checked warm-up rounds, then whole
        rounds through the pool (wrapping around) until T seconds have gone,
        checking every answer outside the timed region.  With --spans,
        untraced and traced rounds alternate.  The last stdout line is a JSON
        summary.

Run it through ``run.py``, which generates the inputs and the reference
values and sets the environment (PYTHONPATH, one BLAS/OpenMP thread).
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import sys
from collections import Counter
from time import perf_counter

# Untimed, checked rounds before timing.  On a shared host a CPU loop can run
# faster for the first seconds after an idle spell; the warm-up absorbs that,
# and lazy set-up inside numpy and the program.
WARMUP_S = 2.0


def _build(workload: str, inputs_path: str):
    t0 = perf_counter()
    import doeblin  # noqa: F401  (timed: the import is part of set-up)

    import_ms = (perf_counter() - t0) * 1e3
    import workloads

    build, request, extract = workloads.WORKLOADS[workload]
    with open(inputs_path, "rb") as fh:
        specs = pickle.load(fh)
    return import_ms, specs, [build(s) for s in specs], request, extract


class Runner:
    """Closed loop over whole rounds of the pool, with per-request checks."""

    def __init__(self, workload, specs, objs, request, extract, refs):
        import checks
        import inputs

        self.round_length = inputs.ROUND_LENGTH[workload]
        self.specs, self.objs, self.refs = specs, objs, refs
        self.seen: set[int] = set()
        self.request, self.extract = request, extract
        self.check = checks.CHECKS[workload]
        self.failures: Counter = Counter()
        self.failed = 0
        self.errors: list[str] = []
        self.tracer = None
        self.traced_indices: list[int] = []
        self.requests = 0

    def one_round(self, latencies):
        for _ in range(self.round_length):
            i = self.requests % len(self.objs)
            if self.tracer is not None:
                self.tracer.request = self.requests
                self.traced_indices.append(i)
            self.requests += 1
            t0 = perf_counter()
            try:
                ans = self.request(self.objs[i])
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"request {i}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(perf_counter() - t0)
            spec = self.specs[i]
            first = i not in self.seen
            self.seen.add(i)
            for name in self.check(spec, self.refs[i], self.extract(spec, ans), first=first):
                self.failures[name] += 1

    def run_for(self, seconds):
        """Whole rounds until ``seconds`` of wall time have gone; returns the
        latencies (s) of the requests that succeeded."""
        latencies: list[float] = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            self.one_round(latencies)
        return latencies


def _latency_metrics(latencies):
    ms = [v * 1e3 for v in latencies]
    return {
        "jobs_per_s": len(ms) / (sum(ms) / 1e3),
        "p50_ms": statistics.median(ms),
        "p90_ms": statistics.quantiles(ms, n=10)[8],
    }


def _peak_rss_mb() -> float:
    """This process's peak resident set in MiB: ``VmHWM``, which belongs to
    the memory map and starts afresh at exec.  (``ru_maxrss`` would carry
    over the peak of the process that forked this one, the orchestrator.)"""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _per_layer(tracer, n_req, refs, traced_indices):
    """Per-request self times and counts, rates, and the counts computed
    from the inputs of the traced requests."""
    import tracing

    times = tracer.self_times()
    c = tracer.counts
    per = 1.0 / n_req
    out = {m: times.get(m, 0.0) * 1e3 * per for m in tracing.TIME_METRIC_NAMES}
    out.update((m, c.get(m, 0.0) * per) for m in tracing.COUNT_METRIC_NAMES)
    solve_s = times.get("lp.solve_ms.float", 0.0) + times.get("lp.solve_ms.exact", 0.0)
    out["lp.pivots_per_s"] = c.get("lp.pivots", 0.0) / solve_s if solve_s else 0.0
    mc_s = times.get("bayesnet.perc_mc_ms", 0.0)
    out["bayesnet.mc_trials_per_s"] = c.get("bayesnet.mc_trials", 0.0) / mc_s if mc_s else 0.0
    # Computed from the inputs, not read from the program.
    nets = [refs[i] for i in traced_indices if "ancestor_states" in refs[i]]
    states = sum(r["ancestor_states"] for r in nets)
    paths = sum(r["paths_total"] for r in nets)
    out["bayesnet.ancestor_states"] = states * per
    out["bayesnet.paths_total"] = paths * per
    out["bayesnet.paths_kept_ratio"] = c.get("bayesnet.paths_kept", 0.0) / paths if paths else 0.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "run"])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--refs")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    import_ms, specs, objs, request, extract = _build(args.workload, args.inputs)
    if args.mode == "setup":
        print(f"READY {import_ms:.6f}", flush=True)
        return 0

    with open(args.refs, "rb") as fh:
        refs = pickle.load(fh)
    runner = Runner(args.workload, specs, objs, request, extract, refs)
    runner.run_for(WARMUP_S)

    result = {}
    if args.spans is None:
        latencies = runner.run_for(args.seconds)
        result["metrics"] = _latency_metrics(latencies)
        result["metrics"]["peak_rss_mb"] = _peak_rss_mb()
    else:
        import tracing

        # Untraced and traced rounds alternate, so both see the same host.
        plain, traced = [], []
        tracer = tracing.Tracer()
        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline:
            runner.one_round(plain)
            tracer.install()
            runner.tracer = tracer
            try:
                runner.one_round(traced)
            finally:
                runner.tracer = None
                tracer.uninstall()
        layer = _per_layer(tracer, len(traced), refs, runner.traced_indices)
        overhead = 1.0 - (len(traced) / sum(traced)) / (len(plain) / sum(plain))
        layer["trace.overhead_pct"] = 100.0 * overhead
        result["metrics"] = layer
        tracer.write(args.spans)
    result.update(
        attempted=runner.requests,  # warm-up rounds included
        failed=runner.failed,
        check_failures=dict(runner.failures),
        errors=runner.errors,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
