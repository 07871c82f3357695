"""Run one workload several times and print each metric's median and quartiles.

    python3 perfbench/repeat.py --workload W [--runs 10] [--first-seed 1]

Run i uses seed first-seed + i, untraced, for ``run_seconds`` of
BENCHMARK.json.  For every end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, beside the metric's bound.  The runs and the summary are
written to ``.perfbench_out/repeat_<W>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=seconds + 170,
        )
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", file=sys.stderr)

    summary = {}
    print(f"{args.workload}, {len(runs)} runs of {seconds:g} s")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
        print(f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {bounds[name]:6g}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"correct in every run: {all(r['correct'] for r in runs)}; failed shares: {sorted(shares)}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / f"repeat_{args.workload}.json").write_text(
        json.dumps({"workload": args.workload, "seconds": seconds, "runs": runs, "summary": summary}, indent=1)
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
