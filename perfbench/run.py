"""Benchmark entry point; run it from the repository root:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

It computes the reference values for the seed's inputs (numpy, scipy's
HiGHS), times set-up as the median over several fresh interpreters, then
runs the workload in one more process and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  Results and span files go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def worker_env() -> dict:
    """The program from this checkout's ``src``; one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def worker_cmd(mode, args, inputs_path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--inputs", str(inputs_path)]


def time_setup(cmd, env):
    """Seconds from process start to READY, and the import time each child
    reports, over SETUP_SAMPLES fresh interpreters."""
    walls, imports = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env,
                              cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            walls.append(perf_counter() - t0)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or not line.startswith("READY "):
                raise SystemExit(f"set-up process failed (exit {proc.returncode})")
        imports.append(float(line.split()[1]))
    return walls, imports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "doeblin" / "__init__.py").is_file():
        print("run from the repository root: src/doeblin is missing", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import inputs
    import oracles

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}_{args.seed}"
    pool = inputs.make_pool(args.workload, args.seed)
    inputs_path, refs_path = OUT / f"inputs_{stem}.pkl", OUT / f"refs_{stem}.pkl"
    with open(inputs_path, "wb") as fh:
        pickle.dump(pool, fh)
    with open(refs_path, "wb") as fh:
        pickle.dump(oracles.compute(args.workload, pool), fh)

    env = worker_env()
    setup_cmd = worker_cmd("setup", args, inputs_path)
    subprocess.run(setup_cmd, env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)  # writes bytecode caches
    walls, imports = time_setup(setup_cmd, env)

    cmd = worker_cmd("run", args, inputs_path) + ["--seconds", str(args.seconds), "--refs", str(refs_path)]
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans_{stem}.tsv")]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 120)
    if proc.returncode != 0:
        print(f"workload process failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    values = dict(report["metrics"])
    if args.trace:
        values["setup.import_ms"] = statistics.median(imports)
    else:
        values["setup_s"] = statistics.median(walls)
    for err in report["errors"]:
        print(f"failed: {err}", file=sys.stderr)
    for name, count in report["check_failures"].items():
        print(f"check {name} failed on {count} requests", file=sys.stderr)

    result = {
        "correct": not report["check_failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    line = json.dumps(result)
    (OUT / f"result_{stem}_trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
