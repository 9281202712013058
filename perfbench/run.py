"""Benchmark of graft-moments: four seeded workloads, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/` and writes only under `.perfbench_work/`.  Workloads, their
generator parameters and the layers each stresses are in `workloads.json`.

--trace 0 (end-to-end metrics, tracing off):
  set-up runs SETUP_REPEATS times, each in a fresh process (interpreter,
  `import graft_moments`, generating and writing the seeded inputs), and
  `setup_s` is their median.  The last of those processes then runs the
  workload's tasks in a closed loop -- one client, single thread, the next
  task starts when the previous one returns -- for S seconds and checks
  every output.
--trace 1 (per-layer metrics):
  one process runs the workload's fixed traced task list untraced and then
  traced, which gives the tracing overhead; a second fresh process runs the
  traced list again, and every count must repeat exactly.

Before the result it prints a table with each metric's unit and the
recorded seed-commit baseline (`baseline.json`).  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
# Mean time of worker.reference_kernel on the machine the baseline was
# recorded on (2 shared x86 cores, Python 3.11).  Every time metric is scaled
# by REFERENCE_S / (mean reference time in the run), so it reads as on that
# machine at that speed; the unscaled values are printed beside it.
REFERENCE_S = 0.060
CHILD_TIMEOUT_S = 150
# Each workload's tail percentile (workloads.json) keeps at least this many
# task runs beyond it in seed-commit runs; the table flags runs with fewer.
TAIL_MIN_BEYOND = 10


def load_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def spawn(workload: str, seed: int, phase: str, work: Path, *extra: str) -> tuple[float, dict]:
    """Run one worker process; return its spawn time and its JSON result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--phase", phase, "--dir", str(work),
        *extra,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {phase} exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: a mean of all the sorted
    values, weighted by a beta density centred on the percentile's rank.

    It moves less from run to run than the nearest sorted value does where
    the values are sparse, as at the tail of a workload's task costs.
    """
    values = sorted(values)
    n = len(values)
    if n < 2:
        return values[0]
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per 1/n of the unit interval
    weights = []
    for i in range(n):
        xs = ((i + (k + 0.5) / steps) / n for k in range(steps))
        weights.append(sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) for x in xs
        ))
    return sum(w * v for w, v in zip(weights, values)) / sum(weights)


def timed_run(workload: str, seed: int, seconds: float, spec: dict) -> tuple[dict, dict]:
    setups = []  # (set-up time, reference kernel time in the same process)
    for k in range(SETUP_REPEATS - 1):
        spawned, res = spawn(workload, seed, "setup", WORK / f"{workload}-{seed}-setup{k}")
        setups.append((res["ready"] - spawned, res["setup_reference_s"]))
    spawned, res = spawn(
        workload, seed, "timed", WORK / f"{workload}-{seed}-timed", "--seconds", str(seconds)
    )
    setups.append((res["ready"] - spawned, res["setup_reference_s"]))

    latencies = res["latencies_s"]
    # The latency percentiles are Harrell-Davis estimates over the workload's
    # distinct tasks, each at the mean of its runs in this run, and the
    # throughput is that of whole passes over the task list.  Counting every
    # run would make them depend on how far the last, partial pass got, which
    # moves with the host's speed.  The mean, as for the reference kernel:
    # the host's speed flickers from one task run to the next, and the median
    # of a task's few runs jumps between the slow and the fast ones.
    runs = {}
    for index, latency in zip(res["task_index"], latencies):
        runs.setdefault(index, []).append(latency)
    task_costs = sorted(statistics.fmean(times) for times in runs.values())
    pass_s = sum(task_costs)
    tail_p = spec["tail_percentile"]
    tail = percentile(task_costs, tail_p)
    beyond = sum(latency > tail for latency in latencies)
    reference = statistics.fmean(res["reference_s"])
    scale = REFERENCE_S / reference
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "tasks_per_s": len(runs) / pass_s,
        "task_p50_ms": percentile(task_costs, 50) * 1000,
        "task_tail_ms": tail * 1000,
    }
    metrics = {name: value * scale for name, value in raw.items()}
    # Each set-up is scaled by the kernel timed in its own process.
    metrics["setup_s"] = statistics.median(s * REFERENCE_S / r for s, r in setups)
    metrics["tasks_per_s"] = raw["tasks_per_s"] / scale
    metrics["peak_rss_mb"] = res["peak_rss_kb"] / 1024
    metrics["ok_ratio"] = 1 - res["failed"] / res["attempted"]
    notes = {name: f"unscaled {value:.6g}" for name, value in raw.items()}
    notes["setup_s"] += " = median of " + ", ".join(f"{s:.3f}" for s, _ in setups)
    notes["tasks_per_s"] += (
        f" = {len(runs)} tasks per pass of {pass_s:.3f} s; "
        f"{len(latencies)} task runs in {res['wall_s']:.2f} s"
    )
    notes["task_p50_ms"] += f"; p50 of {len(task_costs)} tasks' mean times"
    notes["task_tail_ms"] += (
        f"; p{tail_p} of {len(task_costs)} tasks' mean times; "
        f"{beyond} of {len(latencies)} task runs beyond it"
    ) + (
        "" if beyond >= TAIL_MIN_BEYOND else f" (fewer than {TAIL_MIN_BEYOND})"
    )
    notes["ok_ratio"] = (
        f"fail_ratio {res['failed'] / res['attempted']:.4g} "
        f"({res['failed']} of {res['attempted']} tasks failed)"
    )
    title_note = (
        f"times scaled by {scale:.4f}: reference kernel mean {reference * 1000:.3f} ms "
        f"of {len(res['reference_s'])} runs, nominal {REFERENCE_S * 1000:.3f} ms"
    )
    return res, {"metrics": metrics, "notes": notes, "title_note": title_note}


def traced_run(workload: str, seed: int, per_layer: list[dict]) -> tuple[dict, dict]:
    stem = WORK / "spans"
    stem.mkdir(parents=True, exist_ok=True)
    _, first = spawn(workload, seed, "trace", WORK / f"{workload}-{seed}-trace",
                     "--spans", str(stem / f"{workload}-{seed}"))
    _, again = spawn(workload, seed, "retrace", WORK / f"{workload}-{seed}-retrace")
    counts = [m["name"] for m in per_layer if m["unit"] == "count"]
    drift = {
        name: (first["per_layer"][name], again["per_layer"][name])
        for name in counts
        if first["per_layer"][name] != again["per_layer"][name]
    }
    res = dict(first)
    res["attempted"] += again["attempted"]
    res["failed"] += again["failed"]
    res["errors"] += again["errors"]
    if drift:
        res["errors"].append(f"counts differ between two traced runs: {drift}")
    notes = {
        "trace.overhead": f"traced {first['traced_wall_s']:.2f} s / "
        f"untraced {first['untraced_wall_s']:.2f} s",
    }
    return res, {"metrics": first["per_layer"], "notes": notes}


def print_table(title: str, declared: list[dict], summary: dict, baseline: dict | None) -> None:
    print(title)
    if "title_note" in summary:
        print(f"  ({summary['title_note']})")
    for m in declared:
        name, unit = m["name"], m["unit"]
        value = summary["metrics"][name]
        line = f"  {name:<48} {value:>14.6g} {unit:<6}"
        if baseline and name in baseline:
            line += f"  baseline {baseline[name]:.6g}"
        note = summary["notes"].get(name)
        if note:
            line += f"  [{note}]"
        print(line)


def main(argv=None) -> int:
    # Exit through SystemExit on SIGTERM, so subprocess.run kills and reaps
    # the worker it is waiting for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graft_moments" / "__init__.py").is_file():
        print(f"error: no graft_moments source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = load_json(ROOT / "BENCHMARK.json")
    specs = load_json(BENCH / "workloads.json")["workloads"]
    if args.workload not in specs:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    baseline_path = BENCH / "baseline.json"
    baseline = load_json(baseline_path) if baseline_path.is_file() else {}

    WORK.mkdir(exist_ok=True)
    try:
        if args.trace:
            declared = config["per_layer"]
            res, summary = traced_run(args.workload, args.seed, declared)
            base = baseline.get("per_layer", {}).get(args.workload)
            title = f"{args.workload} seed {args.seed}: per-layer metrics (traced run)"
        else:
            declared = config["end_to_end"]
            res, summary = timed_run(args.workload, args.seed, args.seconds, specs[args.workload])
            base = {
                name: v["median"]
                for name, v in baseline.get("end_to_end", {}).get(args.workload, {}).items()
            }
            title = f"{args.workload} seed {args.seed}: end-to-end metrics"
    finally:
        for path in WORK.glob(f"{args.workload}-{args.seed}-*"):
            shutil.rmtree(path, ignore_errors=True)

    mismatch = {m["name"] for m in declared} ^ set(summary["metrics"])
    if mismatch:
        print(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}", file=sys.stderr)
        return 2
    print_table(title, declared, summary, base)
    for message in res["errors"]:
        print(f"  failure: {message}")
    if not res["golden_checked"]:
        print("  (no recorded digests for this seed; outputs checked by value and repeat runs)")
    correct = res["failed"] == 0 and not res["errors"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: {"value": summary["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
