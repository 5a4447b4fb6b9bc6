"""ghostsim benchmark: three workloads driven through the public CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``, never from an installed copy. Each program run is
``ghostsim run <generated scenario> --threads 2`` in a fresh process
(child.py), repeated until --seconds have passed; the scenario is the
workload's copy of a bundled preset (scenarios/) with ``seed`` and
``output`` filled in. Every run's outputs go through the workload's
correctness gate.

--trace 0 reports the end-to-end metrics, medians over the runs:

    wall_s       process spawn to exit
    setup_s      spawn to the CLI's call into run_scenario (interpreter,
                 import ghostsim, parse_scenario); also sampled by
                 processes that stop at that call
    cpu_s        user + system CPU of the process
    peak_rss_mb  ru_maxrss of the process
    items_per_s  work items per second of wall_s - setup_s

--trace 1 alternates untraced and traced runs and reports the per-layer
metrics of layers.py from the traced ones; trace.overhead_s is traced
minus untraced wall time. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# BLAS/OpenMP pools would add threads beyond --threads 2 in the matrix
# products of ensemble and analytic; children inherit this environment
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402  (after the thread pins)

import layers  # noqa: E402
from child import THREADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

SETUP_SAMPLES = 5     # set-up times per untraced run, topped up by
                      # processes that stop at the call into run_scenario
RUN_LIMIT_S = 170     # program runs still going this long after a
                      # benchmark run started are killed


def _metrics_json(out: Path) -> dict:
    return json.loads((out / "metrics.json").read_text(encoding="utf-8"))


def gate_focus_mc(out: Path) -> list:
    """Criterion 3: two peaks, their separation within one detector step
    of the pinhole separation, visibility in [0.01, 0.20]."""
    separation, step = 3.66e-3, 0.25e-3
    m = _metrics_json(out)
    problems = []
    if len(m["peak_positions"]) != 2:
        problems.append(f"{len(m['peak_positions'])} peaks, expected 2")
    sep = m["peak_separation"]
    if sep is None or abs(sep - separation) > step:
        problems.append(f"peak separation {sep} not within {step} of {separation}")
    if not 0.01 <= m["visibility"] <= 0.20:
        problems.append(f"visibility {m['visibility']} outside [0.01, 0.20]")
    return problems


def gate_sweep_analytic(out: Path) -> list:
    """Criterion 2: 21 rows, the brightest within one step of z2 = z1, and
    the second moment rising strictly away from focus on both sides."""
    z1, rows = 0.3, 21
    data = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] % rows:
        return [f"{data.shape[0]} sweep.csv lines do not split into {rows} rows"]
    z2 = data[:, 0].reshape(rows, -1)[:, 0]
    x2 = data[: data.shape[0] // rows, 1]
    mat = data[:, 2].reshape(rows, -1)
    problems = []
    if np.unique(z2).size != rows:
        problems.append(f"{np.unique(z2).size} distinct z2 values, expected {rows}")
    focus = int(np.argmin(np.abs(z2 - z1)))
    brightest = int(np.argmax(mat.max(axis=1)))
    if abs(brightest - focus) > 1:
        problems.append(f"brightest row {brightest}, focus row {focus}")
    w = mat / mat.sum(axis=1, keepdims=True)
    mu = (w * x2).sum(axis=1)
    m2 = (w * (x2[None, :] - mu[:, None]) ** 2).sum(axis=1)
    if not (np.all(np.diff(m2[focus:]) > 0) and np.all(np.diff(m2[: focus + 1]) < 0)):
        problems.append("second moment does not rise strictly away from focus")
    return problems


def gate_hbt_tac(out: Path) -> list:
    """|g2(0) - 2| within 3 standard errors of the same histogram, and the
    coherence time within a factor of two of the scenario's.

    Criterion 7's 20% window on the coherence time needs the preset's 84
    batches; at 8 batches the estimate ranged from -32% to +63% over seeds
    0 to 60, so this gate catches gross errors only."""
    import ghostsim

    tau0 = 0.1e-9
    data = np.loadtxt(out / "histogram.csv", delimiter=",", skiprows=1, ndmin=2)
    centers, counts = data[:, 0], data[:, 1].astype(np.int64)
    hist = ghostsim.CoincidenceHistogram(centers[1] - centers[0], centers,
                                         counts, int(counts.sum()), 0)
    se = ghostsim.g2_zero_standard_error(hist)
    m = _metrics_json(out)
    problems = []
    if abs(m["g2_zero"] - 2.0) > 3.0 * se:
        problems.append(f"g2(0) = {m['g2_zero']:.4f}, more than 3 x {se:.4f} from 2")
    tau = m["tau_coherence_s"]
    if tau is None or not 0.5 * tau0 <= tau <= 2.0 * tau0:
        problems.append(f"coherence time {tau} not within a factor 2 of {tau0}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    items: float        # work items in one program run
    item: str
    gate: Callable[[Path], list]
    digest_files: tuple


# items per program run: realizations of fig2, z2 rows of fig3, and
# 1e6 trace samples of hbt (8 batches of 40 us at 5 ps)
WORKLOADS = {w.name: w for w in (
    Workload("focus_mc", 4096, "realization", gate_focus_mc,
             ("profile.csv", "metrics.json")),
    Workload("sweep_analytic", 21, "z2 row", gate_sweep_analytic,
             ("profile.csv", "metrics.json")),
    Workload("hbt_tac", 8 * 8.0, "million trace samples", gate_hbt_tac,
             ("histogram.csv", "metrics.json")),
)}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("items_per_s", "1/s")]


@dataclass
class ProgramRun:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    setup: Optional[float]
    record: Optional[dict]


def write_scenario(workload: Workload, seed: int, out_dir: Path) -> Path:
    lines = []
    for line in (HERE / "scenarios" / f"{workload.name}.scenario").read_text(
            encoding="utf-8").splitlines():
        key = line.split("=", 1)[0].strip()
        if key == "seed":
            line = f"seed = {seed}"
        elif key == "output":
            line = f"output = {out_dir}"
        lines.append(line)
    path = WORK / "input.scenario"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def spawn(scenario: Path, kill_at: float, *flags: str) -> ProgramRun:
    """One child.py process, killed at time.monotonic() = kill_at; wall
    time from spawn to exit, rusage of it."""
    record_path = WORK / "record.json"
    record_path.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("GHOSTSIM_THREADS", None)
    # an installed package imports from cached bytecode; so does the program
    # here once the first process has written it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, str(HERE / "child.py"), str(scenario),
           str(record_path), str(SRC), *flags]
    with open(WORK / "child.log", "w", encoding="utf-8") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=WORK, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(0.0, kill_at - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if record_path.exists():
        record = json.loads(record_path.read_text(encoding="utf-8"))
    setup = record["run_call"] - t0 if record and "run_call" in record else None
    return ProgramRun(wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss * 1024 / 1e6, proc.returncode, setup,
                      record)


def check(workload: Workload, run: ProgramRun, out_dir: Path) -> list:
    if run.rc != 0:
        log = (WORK / "child.log").read_text(encoding="utf-8", errors="replace")
        return [f"exit code {run.rc}: {log.strip()[-400:]}"]
    try:
        return workload.gate(out_dir)
    except Exception:  # a crashing gate fails the run, the benchmark goes on
        return ["gate raised: " + traceback.format_exc(limit=3)]


def digests(workload: Workload, out_dir: Path) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in workload.digest_files if (out_dir / name).exists()}


def _tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    for q in (99, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            return f"p{q} {layers.percentile(values, q):.6g}"
    return "no percentile has 10 samples beyond it"


def _start_rate(scenario: Path) -> Optional[float]:
    import ghostsim

    cfg = ghostsim.parse_scenario(scenario.read_text(encoding="utf-8"))
    return cfg.start_rate if cfg.kind == "hbt" else None


def measure(workload: Workload, seed: int, seconds: float, trace: bool):
    """Run one workload for `seconds`; returns the result object or None
    when no program run produced timings."""
    start = time.monotonic()
    deadline, kill_at = start + seconds, start + RUN_LIMIT_S
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    out_dir = WORK / "out"
    scenario = write_scenario(workload, seed, out_dir)

    # the first process writes the bytecode cache; it is not measured
    spawn(scenario, kill_at, "--setup-only")

    untraced, traced, outputs = [], [], []
    attempted = failed = 0
    while True:
        tracing = trace and attempted % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        run = spawn(scenario, kill_at, *(["--trace"] if tracing else []))
        attempted += 1
        problems = check(workload, run, out_dir)
        if problems:
            failed += 1
            print(f"FAILED {workload.name} seed {seed}: " + "; ".join(problems))
        else:
            outputs.append(digests(workload, out_dir))
        if run.rc == 0 and run.setup is not None:
            (traced if tracing else untraced).append(run)
        if (time.monotonic() + run.wall > deadline
                and (not trace or attempted >= 2)):
            break
    if not untraced or (trace and not traced):
        return None
    setups = [r.setup for r in untraced]
    while not trace and len(setups) < SETUP_SAMPLES:
        probe = spawn(scenario, kill_at, "--setup-only")
        if probe.rc != 0 or probe.setup is None:
            break
        setups.append(probe.setup)

    print(f"workload {workload.name}, seed {seed}: {attempted} program runs "
          f"at --threads {THREADS}; an item is one {workload.item}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} "
          "runs failed their exit code or correctness gate)")
    _report_digests(workload, seed, outputs)

    if trace:
        overhead = (statistics.median(r.wall for r in traced)
                    - statistics.median(r.wall for r in untraced))
        values = layers.per_layer([r.record for r in traced],
                                  _start_rate(scenario), THREADS, overhead)
        units = dict(layers.METRICS)
        print(f"per-layer metrics from {len(traced)} traced run(s):")
        for name, _ in layers.METRICS:
            print(f"  {name} = {values[name]:.6g} {units[name]}")
    else:
        samples = {
            "wall_s": [r.wall for r in untraced],
            "setup_s": setups,
            "cpu_s": [r.cpu for r in untraced],
            "peak_rss_mb": [r.rss_mb for r in untraced],
            "items_per_s": [workload.items / (r.wall - r.setup) for r in untraced],
        }
        units = dict(END_TO_END)
        values = {name: statistics.median(v) for name, v in samples.items()}
        for name, _ in END_TO_END:
            v = samples[name]
            print(f"  {name} = {values[name]:.6g} {units[name]} (median of "
                  f"{len(v)}; {_tail(v)})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def _report_digests(workload: Workload, seed: int, outputs: list) -> None:
    """Byte-stability of the outputs: not a gate, only reported."""
    if not outputs:
        return
    stable = all(d == outputs[0] for d in outputs)
    recorded = {}
    if BASELINE.exists():
        recorded = json.loads(BASELINE.read_text(encoding="utf-8"))["digests"]
    expected = recorded.get(workload.name, {}).get(str(seed))
    if expected is None:
        verdict = "no digest recorded for this seed"
    elif expected == outputs[0]:
        verdict = "matches the recorded baseline"
    else:
        verdict = "DIFFERS from the recorded baseline"
    print(f"output digests: {'identical' if stable else 'NOT identical'} across "
          f"{len(outputs)} runs; {verdict}")
    print("digests: " + json.dumps(outputs[0], sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=20260814)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated benchmark still kills and reaps its program run (spawn)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ghostsim" / "__init__.py").is_file():
        print(f"error: no ghostsim package under {SRC}; run inside a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result = measure(WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace))
            if result is None:
                print(f"error: no program run of {name} completed; see "
                      f"{WORK / 'child.log'}", file=sys.stderr)
                return 1
            results[name] = result
    finally:
        if all(results.get(n) for n in names):
            shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
