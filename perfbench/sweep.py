"""Maintenance commands for the benchmark: seed sweeps, baseline, digests.

    python3 perfbench/sweep.py spread [--workloads A,B] [--seeds 1-10] [--seconds S] [--write]
        Run `run.py --trace 0` once per seed and workload, and print for every
        end-to-end metric the median, the quartiles (statistics.quantiles,
        n=4) and the spread (q3 - q1) / median against the metric's bound
        from BENCHMARK.json.  --write stores the result in baseline.json.
    python3 perfbench/sweep.py trace [--workloads A,B] [--seed N] [--write]
        Run `run.py --trace 1` per workload; --write stores the per-layer
        table in baseline.json.
    python3 perfbench/sweep.py digests
        Run every task of every workload once at the default seed and write
        their stdout digests to digests.json.  Do this only when the
        program's output is meant to change.

Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"


def load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their checks")
    return result


def write_baseline(section: str, entries: dict, meta: dict) -> None:
    baseline = load(BASELINE) if BASELINE.is_file() else {}
    baseline.setdefault(section, {}).update(entries)
    baseline.setdefault("meta", {}).update(meta)
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def cmd_spread(args, config) -> int:
    seconds = args.seconds or config["run_seconds"]
    summary = {}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in config["end_to_end"]}
        for seed in args.seeds:
            started = time.monotonic()
            metrics = run_bench(workload, seed, seconds, 0)["metrics"]
            for name in values:
                values[name].append(metrics[name]["value"])
            print(f"{workload} seed {seed} ({time.monotonic() - started:.1f} s): " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in metrics.items()), flush=True)
        summary[workload] = {}
        for m in config["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][m["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": vals,
            }
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"  {workload:<14} {m['name']:<14} median {median:<12.6g} "
                  f"spread {spread:7.4f}  bound {m['bound']:<5} ({share:.2f} of bound)")
    print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    if args.write:
        write_baseline("end_to_end", summary, {"run_seconds": seconds, "seeds": args.seeds})
    return 0


def cmd_trace(args, config) -> int:
    table = {}
    for workload in args.workloads:
        result = run_bench(workload, args.seed, config["run_seconds"], 1)
        table[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"{workload}: overhead {table[workload]['trace.overhead']:.3f}", flush=True)
    if args.write:
        write_baseline("per_layer", table, {"trace_seed": args.seed})
    return 0


def cmd_digests(args, config) -> int:
    sys.path.insert(0, str(BENCH))
    from run import spawn  # the benchmark's own worker launcher

    seed = load(BENCH / "workloads.json")["default_seed"]
    recorded = {"seed": seed, "workloads": {}}
    for workload in args.workloads:
        _, result = spawn(workload, seed, "record", ROOT / ".perfbench_work" / f"record-{workload}")
        if result["failed"]:
            raise RuntimeError(f"{workload}: {result['errors']}")
        recorded["workloads"][workload] = result["digests"]
        print(f"{workload}: {len(result['digests'])} digests", flush=True)
    (BENCH / "digests.json").write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    config = load(ROOT / "BENCHMARK.json")
    names = [w["name"] for w in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in (("spread", cmd_spread), ("trace", cmd_trace), ("digests", cmd_digests)):
        p = sub.add_parser(name)
        p.set_defaults(func=func)
        p.add_argument("--workloads", type=lambda s: s.split(","), default=names)
        if name == "spread":
            p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
            p.add_argument("--seconds", type=int, default=None)
        if name == "trace":
            p.add_argument("--seed", type=int, default=0)
        if name != "digests":
            p.add_argument("--write", action="store_true", help="store in baseline.json")
    args = parser.parse_args(argv)
    return args.func(args, config)


if __name__ == "__main__":
    sys.exit(main())
