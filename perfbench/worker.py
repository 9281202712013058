"""One workload process of the benchmark; `run.py` starts it, one per phase.

    python3 perfbench/worker.py --workload NAME --seed N --dir WORKDIR --phase PHASE [--seconds S]

Phases:
  setup    import the package, generate and write the seeded inputs, stop
  timed    set up, then run tasks in a closed loop (one client, the next task
           starts when the previous one returns) for S seconds
  trace    set up, run the workload's fixed traced task list untraced, then
           install the tracer and run the same list again
  retrace  set up, run the traced task list with the tracer only
  record   set up, run every task once and report its stdout digest

Prints one JSON object on stdout.  "ready" is time.monotonic() when set-up
ended; the parent reads the same system-wide clock just before it spawns
this process, so the difference is the set-up time including interpreter
start.  Every task's output is checked here, after the loop: exit codes,
exceptions, the workload's own check, repeat runs of a task giving the
same digest, and the digests recorded in digests.json for the default seed.
"""

import argparse
import json
import random
import resource
import sys
import time
import traceback
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import graft_moments  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
MAX_MESSAGES = 5
CALIBRATE_EVERY_S = 0.5
SETUP_REFERENCE_RUNS = 3
REFERENCE_ORDER = 500


def _reference_graph() -> list[tuple[int, ...]]:
    """A fixed tree-like graph of REFERENCE_ORDER vertices: each vertex hangs
    off one of the few vertices before it, plus a few random chords, so its
    diameter is high and its distance matrix is as large as a mid-sized
    graft product's."""
    rng = random.Random(12345)
    neighbours = [set() for _ in range(REFERENCE_ORDER)]
    edges = [(rng.randrange(max(0, v - 4), v), v) for v in range(1, REFERENCE_ORDER)]
    edges += [tuple(rng.sample(range(REFERENCE_ORDER), 2)) for _ in range(REFERENCE_ORDER // 50)]
    for u, v in edges:
        neighbours[u].add(v)
        neighbours[v].add(u)
    return [tuple(sorted(ns)) for ns in neighbours]


REFERENCE_GRAPH = _reference_graph()


def reference_kernel() -> Fraction:
    """Fixed work that shares no code with the package: BFS from every vertex
    of REFERENCE_GRAPH, each distance row kept as a tuple (a 500 x 500
    matrix, as the package's distance matrix holds), then the rows' mean
    distances summed as exact fractions.

    Its run time tracks the speed of the shared machine, which drifts by
    tens of percent over minutes; run.py scales the measured times by it.
    The kernel holds a matrix of about 2 MB because a kernel that fits in
    the first cache levels tracked the large tasks worse.
    """
    order = len(REFERENCE_GRAPH)
    rows = []
    for source in range(order):
        dist = [-1] * order
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            d = dist[u] + 1
            for w in REFERENCE_GRAPH[u]:
                if dist[w] < 0:
                    dist[w] = d
                    queue.append(w)
        rows.append(tuple(dist))
    return sum((Fraction(sum(row), order) for row in rows), Fraction(0))


def time_reference(runs: int) -> float:
    """Mean time of the reference kernel over a few runs."""
    t0 = time.perf_counter()
    for _ in range(runs):
        reference_kernel()
    return (time.perf_counter() - t0) / runs


def run_loop(kind, tasks, *, seconds=None, limit=None, calibrate=False):
    """Run tasks in order, cycling, until the time or task limit is reached.

    Returns the records (task index, latency s, digest, error), the outcome
    data of each task's first clean run, the loop's wall time, and the run
    times of the reference kernel.  With calibrate, the kernel runs between
    tasks at most every CALIBRATE_EVERY_S, and its time is left out of the
    wall time.
    """
    records = []
    data = {}
    references = []
    start = last_reference = time.perf_counter()
    i = 0
    while (limit is None or i < limit) and (
        seconds is None or time.perf_counter() - start - sum(references) < seconds
    ):
        due = not references or time.perf_counter() - last_reference >= CALIBRATE_EVERY_S
        if calibrate and due:
            t0 = time.perf_counter()
            reference_kernel()
            last_reference = time.perf_counter()
            references.append(last_reference - t0)
        task = tasks[i % len(tasks)]
        t0 = time.perf_counter()
        try:
            outcome = kind.run(task)
        except Exception:  # a failing task is counted, and the loop goes on
            outcome = workloads.Outcome(False, "", None, traceback.format_exc(limit=4))
        latency = time.perf_counter() - t0
        records.append((task.index, latency, outcome.digest, outcome.error))
        if outcome.error is None and task.index not in data:
            data[task.index] = (outcome.digest, outcome.data)
        i += 1
    return records, data, time.perf_counter() - start - sum(references), references


def count_failures(kind, tasks, records, data, golden):
    """Number of failed records, and a few messages saying why."""
    by_index = {t.index: t for t in tasks}
    verdict = {}
    for index, (_, outcome_data) in data.items():
        try:
            verdict[index] = kind.check(by_index[index], outcome_data)
        except Exception:
            verdict[index] = traceback.format_exc(limit=4)
    failed = 0
    messages = []
    for index, _, dig, error in records:
        if error is None:
            if verdict.get(index):
                error = f"task {index}: {verdict[index]}"
            elif dig != data[index][0]:
                error = f"task {index}: output differs from its first run"
            elif golden is not None and dig != golden[index]:
                error = f"task {index}: digest differs from digests.json"
        else:
            error = f"task {index}: {error}"
        if error is not None:
            failed += 1
            if len(messages) < MAX_MESSAGES and error not in messages:
                messages.append(error)
    return failed, messages


def golden_digests(workload: str, seed: int):
    if not DIGESTS_PATH.is_file():
        return None
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    if recorded["seed"] != seed:
        return None
    return recorded["workloads"].get(workload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.KINDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument(
        "--phase", required=True, choices=("setup", "timed", "trace", "retrace", "record")
    )
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--spans", default=None, help="file stem for the traced spans")
    args = parser.parse_args(argv)

    if not Path(graft_moments.__file__).resolve().is_relative_to(SRC):
        print(f"graft_moments imported from {graft_moments.__file__}, not {SRC}", file=sys.stderr)
        return 2
    params = workloads.load_params()["workloads"][args.workload]
    kind = workloads.KINDS[args.workload](params)
    work = Path(args.dir)
    work.mkdir(parents=True, exist_ok=True)
    tasks = kind.generate(args.seed, work)
    result = {"ready": time.monotonic(), "setup_reference_s": time_reference(SETUP_REFERENCE_RUNS)}
    if args.phase == "setup":
        print(json.dumps(result))
        return 0

    golden = None
    if args.phase == "timed":
        records, data, wall, references = run_loop(
            kind, tasks, seconds=args.seconds, calibrate=True
        )
        result["wall_s"] = wall
        result["latencies_s"] = [r[1] for r in records]
        result["task_index"] = [r[0] for r in records]
        result["reference_s"] = references
    elif args.phase == "record":
        records, data, _, _ = run_loop(kind, tasks, limit=len(tasks))
        result["digests"] = [r[2] for r in records]
    else:
        limit = params["traced_tasks"]
        records, data, untraced_wall = [], {}, 0.0
        if args.phase == "trace":
            records, data, untraced_wall, _ = run_loop(kind, tasks, limit=limit)
        tracer = tracing.Tracer()
        tracer.install()
        traced, traced_data, wall, _ = run_loop(kind, tasks, limit=limit)
        for index, value in traced_data.items():
            data.setdefault(index, value)
        extra = Counter()
        for index, _, _, error in traced:
            if error is None:
                extra.update(kind.layer_counts(data[index][1]))
        records += traced
        result["per_layer"] = tracer.metrics(wall, untraced_wall, extra)
        result["untraced_wall_s"] = untraced_wall
        result["traced_wall_s"] = wall
        if args.spans:
            tracer.dump(Path(args.spans))

    if args.phase != "record":
        golden = golden_digests(args.workload, args.seed)
    failed, messages = count_failures(kind, tasks, records, data, golden)
    result["attempted"] = len(records)
    result["failed"] = failed
    result["errors"] = messages
    result["golden_checked"] = golden is not None
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
