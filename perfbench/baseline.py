"""Repeat the benchmark over several seeds and summarise its spread.

    python3 perfbench/baseline.py [--seeds 1,2,...] [--workloads a,b]
                                  [--seconds S] [--write]

For every workload, runs ``run.py --trace 0`` once per seed and prints,
for each end-to-end metric, the median over seeds and the spread: the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound from
BENCHMARK.json. Then runs ``run.py --trace 1`` once at the preset seed
for the per-layer numbers and the tracing overhead. --write stores all
of it, with the machine it ran on and the output digests per seed, in
perfbench/baseline.json, which run.py compares digests against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

from run import BASELINE, ROOT, THREAD_PINS, THREADS, WORKLOADS

PRESET_SEED = 20260814


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result object, output digests) of one run.py invocation."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    digests = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("digests: ")), None)
    return json.loads(lines[-1]), digests


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "ghostsim_threads": THREADS,
            "thread_env": THREAD_PINS}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--write", action="store_true")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    out = {"machine": machine(), "run_seconds": seconds, "seeds": seeds,
           "end_to_end": {}, "per_layer": {}, "digests": {}}
    steady = True
    for name in args.workloads.split(","):
        values, digests = {}, {}
        for seed in seeds:
            result, digest = run_once(name, seed, seconds, 0)
            if not result["correct"]:
                print(f"{name} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} runs failed")
                steady = False
            digests[str(seed)] = digest
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.5g}" for m, v in result["metrics"].items()),
                flush=True)
        summary = {}
        for metric, v in values.items():
            s = spread(v)
            summary[metric] = {"median": statistics.median(v), "spread": s,
                               "values": v}
            ok = s < bounds[metric] / 3 or metric == "setup_s"
            steady &= ok
            print(f"  {name} {metric}: median {statistics.median(v):.5g}, "
                  f"spread {s:.4f} (bound {bounds[metric]}){'' if ok else ' WIDE'}")
        out["end_to_end"][name] = summary
        out["digests"][name] = digests

        result, digest = run_once(name, PRESET_SEED, seconds, 1)
        out["per_layer"][name] = {m: v["value"] for m, v in result["metrics"].items()}
        out["digests"][name][str(PRESET_SEED)] = digest
        print(f"  {name} traced: " + ", ".join(
            f"{m} {v:.5g}" for m, v in out["per_layer"][name].items() if v),
            flush=True)

    if args.write:
        BASELINE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {BASELINE}")
    print("every spread below a third of its bound" if steady
          else "some spreads are at or above a third of their bound")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
