"""Seeded inputs, task runners and output checks for the benchmark workloads.

Each workload turns a seed into input files under a work directory and a
list of tasks in run order (`generate`).  `run` performs one task through
the package's public entry points -- `graft_moments.cli.main` in-process
with stdout captured, plus the library calls `graft_moment_formula` and
`family_graft_moment_formula` -- and returns an `Outcome` whose digest
covers everything the task printed or computed.  `check` compares one
outcome against values the benchmark derives on its own: exact indices from
a bit-parallel BFS written here, the paper's permutation-product formulas,
formula-equals-oracle, and the isomorphism class counts recorded in
`workloads.json`.

Generator parameters live in `workloads.json`, beside the reason each
workload exists and the layers it stresses and bypasses.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from graft_moments import cli, closed_forms, products

PARAMS_PATH = Path(__file__).resolve().parent / "workloads.json"


@dataclass
class Task:
    index: int
    argv: list[str]
    ref: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    digest: str
    data: object = None
    error: str | None = None


def load_params() -> dict:
    with open(PARAMS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """Run `graft_moments.cli.main(argv)` in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def digest(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def fmt(value: Fraction) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def bit_reversed(n: int) -> list[int]:
    """0..n-1 in bit-reversed order, so every prefix spreads over the range."""
    bits = n.bit_length() - 1
    if n != 1 << bits:
        raise ValueError(f"{n} is not a power of two")
    if bits == 0:
        return [0]
    return [int(format(i, f"0{bits}b")[::-1], 2) for i in range(n)]


def write_json(path: Path, obj: object) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def graph_json(vertices: list[int], edges: list[tuple[int, int]]) -> dict:
    return {"vertices": list(vertices), "edges": [[u, v] for u, v in edges]}


# -- independent reference: exact distance row sums --------------------------


def row_sums(vertices: list[int], edges: list[tuple[int, int]]) -> dict[int, int]:
    """Row sums of the distance matrix by bit-parallel BFS from every vertex.

    Bit s of reach[v] is set once source s has reached v; each level ORs the
    neighbours' frontiers.  Written here, apart from the package, so the
    check does not share code with what it certifies.
    """
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[index[u]].append(index[v])
        adjacency[index[v]].append(index[u])
    reach = [1 << i for i in range(n)]
    frontier = list(reach)
    sums = [0] * n
    level = 0
    while True:
        level += 1
        grown = False
        nxt = [0] * n
        for i in range(n):
            acc = 0
            for j in adjacency[i]:
                acc |= frontier[j]
            acc &= ~reach[i]
            if acc:
                nxt[i] = acc
                reach[i] |= acc
                sums[i] += level * acc.bit_count()
                grown = True
        if not grown:
            break
        frontier = nxt
    full = (1 << n) - 1
    if any(r != full for r in reach):
        raise ValueError("reference graph is disconnected")
    return {v: sums[index[v]] for v in vertices}


def degrees(vertices: list[int], edges: list[tuple[int, int]]) -> dict[int, int]:
    deg = {v: 0 for v in vertices}
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def random_rational_text(rng: random.Random) -> str:
    return f"{rng.randint(0, 20)}/{rng.randint(1, 5)}"


class Workload:
    """A task is one CLI call unless a subclass says otherwise."""

    def __init__(self, params: dict):
        self.p = params["generator"]

    def run(self, task: Task) -> Outcome:
        code, out = call_cli(task.argv)
        return Outcome(code == 0, digest(out), out, None if code == 0 else f"exit {code}")

    def layer_counts(self, data) -> dict[str, int]:
        """Per-layer counts read from a task's output (traced runs only)."""
        return {}


# -- indices-dense ---------------------------------------------------------


class IndicesDense(Workload):
    """CLI `indices` on low-diameter random graphs of order 150..600."""

    def generate(self, seed: int, work: Path) -> list[Task]:
        p = self.p
        rng = random.Random(seed)
        count, lo, hi = p["graphs"], p["order_min"], p["order_max"]
        orders = [round(lo * (hi / lo) ** ((i + 0.5) / count)) for i in range(count)]
        tasks = []
        for pos, i in enumerate(bit_reversed(count)):
            n = orders[i]
            edges = self._edges(rng, n, round(p["edges_per_vertex"] * n))
            graph_path = write_json(work / f"g{pos}.json", graph_json(range(n), edges))
            kind = p["weights"][pos % len(p["weights"])]
            values = None
            if kind == "const":
                spec = "const:" + random_rational_text(rng)
            elif kind == "file":
                values = {str(v): random_rational_text(rng) for v in range(n)}
                spec = "file:" + write_json(work / f"w{pos}.json", values)
            else:
                spec = kind
            tasks.append(
                Task(
                    pos,
                    ["indices", graph_path, "--weights", spec],
                    {"n": n, "edges": edges, "spec": spec, "values": values},
                )
            )
        return tasks

    @staticmethod
    def _edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        while len(edges) < m:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    def check(self, task: Task, out: str) -> str | None:
        ref = task.ref
        vertices = list(range(ref["n"]))
        sums = row_sums(vertices, ref["edges"])
        deg = degrees(vertices, ref["edges"])
        spec = ref["spec"]
        if spec == "unit":
            weight = {v: Fraction(1) for v in vertices}
        elif spec == "half":
            weight = {v: Fraction(1, 2) for v in vertices}
        elif spec == "degree":
            weight = {v: Fraction(deg[v]) for v in vertices}
        elif spec.startswith("const:"):
            weight = {v: Fraction(spec[len("const:"):]) for v in vertices}
        else:
            weight = {v: Fraction(ref["values"][str(v)]) for v in vertices}
        total = sum(sums.values())
        degree_distance = sum(deg[v] * sums[v] for v in vertices)
        zagreb = sum(d * d for d in deg.values())
        wiener = Fraction(total, 2)
        expected = {
            "moment": fmt(sum(weight[v] * sums[v] for v in vertices)),
            "mean_distance": fmt(Fraction(total, len(vertices) ** 2)),
            "wiener": fmt(wiener),
            "degree_distance": fmt(degree_distance),
            "zagreb1": fmt(zagreb),
            "mti": fmt(zagreb + degree_distance),
            "hyper_wiener_paper": fmt(wiener / 2 + Fraction(zagreb, 2)),
        }
        got = json.loads(out)
        if got != expected:
            return f"indices output {got} != reference {expected}"
        return None


# -- graft-long ------------------------------------------------------------


class GraftLong(Workload):
    """Graft a spec, measure the product with `indices`, compare both closed forms."""

    def generate(self, seed: int, work: Path) -> list[Task]:
        p = self.p
        rng = random.Random(seed)
        count = p["specs"]
        lo, hi = p["product_order_min"], p["product_order_max"]
        exponent = p["order_exponent"]
        targets = [
            round(lo * (hi / lo) ** (((i + 0.5) / count) ** exponent)) for i in range(count)
        ]
        tasks = []
        for pos, i in enumerate(bit_reversed(count)):
            spec, order = self._spec(rng, targets[i])
            spec_path = write_json(work / f"spec{pos}.json", spec)
            tasks.append(
                Task(
                    pos,
                    ["graft", spec_path, "--out", str(work / f"product{pos}.json")],
                    {
                        "spec": spec_path,
                        "product": str(work / f"product{pos}.json"),
                        "graph": str(work / f"graph{pos}.json"),
                        "gamma": str(work / f"gamma{pos}.json"),
                        "order": order,
                    },
                )
            )
        return tasks

    def _spec(self, rng: random.Random, target: int) -> tuple[dict, int]:
        p = self.p
        h = rng.randint(*p["host_order"])
        host_edges = {(rng.randrange(v), v) for v in range(1, h)}
        for u in range(h):
            for v in range(u + 1, h):
                if rng.random() < p["host_extra_edge_probability"]:
                    host_edges.add((u, v))
        shapes = [
            (rng.choice(p["branch_kinds"]), rng.randint(*p["branch_order"]))
            for _ in range(rng.randint(*p["distinct_branches"]))
        ]
        # Small targets shrink the branches rather than overshoot the target.
        grown = sum(k - 1 for _, k in shapes)
        if h + grown > target:
            scale = (target - h) / grown
            shapes = [(kind, max(p["branch_order"][0], round(k * scale))) for kind, k in shapes]
        branches = []
        for kind, k in shapes:
            if kind == "path":
                edges = [(i, i + 1) for i in range(k - 1)]
            elif kind == "cycle":
                edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
            else:
                edges = [(rng.randrange(v), v) for v in range(1, k)]
            branches.append(
                (graph_json(range(k), edges), rng.randrange(k), rng.choice(p["weights"]))
            )
        attachments = []
        order = h
        picks = list(range(len(branches)))
        while order < target or picks:
            b = picks.pop(0) if picks else rng.randrange(len(branches))
            graph, root, weights = branches[b]
            attachments.append(
                {"receptor": rng.randrange(h), "branch": graph, "root": root, "weights": weights}
            )
            order += len(graph["vertices"]) - 1
        spec = {
            "host": graph_json(range(h), sorted(host_edges)),
            "host_weights": rng.choice(p["weights"]),
            "attachments": attachments,
        }
        return spec, order

    def run(self, task: Task) -> Outcome:
        ref = task.ref
        code, _ = call_cli(task.argv)
        if code != 0:
            return Outcome(False, "", None, f"graft exit {code}")
        raw = Path(ref["product"]).read_bytes()
        product = json.loads(raw)
        write_json(Path(ref["graph"]), product["graph"])
        write_json(Path(ref["gamma"]), product["gamma"])
        code, out = call_cli(["indices", ref["graph"], "--weights", "file:" + ref["gamma"]])
        if code != 0:
            return Outcome(False, "", None, f"indices exit {code}")
        with open(ref["spec"], "r", encoding="utf-8") as fh:
            spec = products.graft_spec_from_json_dict(json.load(fh))
        formula = fmt(closed_forms.graft_moment_formula(spec))
        family = fmt(
            closed_forms.family_graft_moment_formula(
                spec.host, spec.host_weights, closed_forms.attachments_by_receptor(spec)
            )
        )
        data = (len(product["graph"]["vertices"]), out, formula, family)
        return Outcome(True, digest(raw, out, formula, family), data)

    def check(self, task: Task, data) -> str | None:
        order, out, formula, family = data
        if order != task.ref["order"]:
            return f"product order {order} != {task.ref['order']}"
        oracle = json.loads(out)["moment"]
        if not oracle == formula == family:
            return f"oracle {oracle}, graft_moment_formula {formula}, family form {family}"
        return None


# -- verify-sweep ----------------------------------------------------------


class VerifySweep(Workload):
    """CLI `verify` for every formula over seeded verify seeds."""

    def generate(self, seed: int, work: Path) -> list[Task]:
        p = self.p
        rng = random.Random(seed)
        seeds = [rng.randint(*p["seed_range"]) for _ in range(p["seeds_per_pass"])]
        tasks = []
        for s in seeds:
            for formula in sorted(p["counts"]):
                count = p["counts"][formula]
                argv = ["verify", formula, "--count", str(count), "--seed", str(s)]
                tasks.append(
                    Task(len(tasks), argv, {"formula": formula, "count": count, "seed": s})
                )
        write_json(work / "tasks.json", [t.argv for t in tasks])
        return tasks

    def check(self, task: Task, out: str) -> str | None:
        report = json.loads(out)
        ref = task.ref
        want = {
            "formula": ref["formula"],
            "instances": ref["count"],
            "seed": ref["seed"],
            "ok": True,
            "mismatches": [],
        }
        if report != want:
            return f"verify report {report} != {want}"
        return None


# -- isomoment-r5 ----------------------------------------------------------


class IsomomentR5(Workload):
    """CLI `isomoment` on relabelled order-5 host/branch pairs."""

    def generate(self, seed: int, work: Path) -> list[Task]:
        rng = random.Random(seed)
        tasks = []
        for pos, pair in enumerate(self.p["catalog"]):
            paths, graphs = [], []
            for role in ("host", "branch"):
                vertices, edges = self._relabel(rng, pair[role])
                graphs.append((vertices, edges))
                paths.append(write_json(work / f"{role}{pos}.json", graph_json(vertices, edges)))
            tasks.append(
                Task(
                    pos,
                    ["isomoment", paths[0], paths[1], "--weights", "unit,degree"],
                    {"host": graphs[0], "branch": graphs[1], "classes": pair["classes"]},
                )
            )
        return tasks

    @staticmethod
    def _relabel(rng: random.Random, edges: list[list[int]]):
        ids = rng.sample(range(1000), 5)
        vertices = list(ids)
        rng.shuffle(vertices)
        out = [(ids[u], ids[v]) if rng.random() < 0.5 else (ids[v], ids[u]) for u, v in edges]
        rng.shuffle(out)
        return vertices, out

    def check(self, task: Task, out: str) -> str | None:
        got = json.loads(out)
        ref = task.ref
        r = 5
        sizes = sum(c["size"] for c in got["classes"])
        shape = (got["order"], got["enumeration"], got["permutations"], sizes, len(got["classes"]))
        if shape != (r, "full", 120, 120, ref["classes"]):
            return f"isomoment (order, enumeration, permutations, sizes, classes) = {shape}"
        # Moments of every permutation product, from the factors alone
        # (unit weights, and the degree distance), with distances from the
        # reference BFS above.
        factor = {}
        for role in ("host", "branch"):
            vertices, edges = ref[role]
            sums = row_sums(vertices, edges)
            deg = degrees(vertices, edges)
            factor[role] = (
                sum(sums.values()),
                sum(deg[v] * sums[v] for v in vertices),
                len(edges),
            )
        (mh, dh, eh), (mk, dk, ek) = factor["host"], factor["branch"]
        expected = {
            "unit": fmt(r * r * mh + r * (2 * r - 1) * mk),
            "degree": fmt(r * dh + r * r * dk + 2 * r * ek * mh + 2 * (eh + (r - 1) * ek) * mk),
        }
        if not got["all_equal"] or got["moments"] != expected:
            return f"isomoment moments {got['moments']} (all_equal {got['all_equal']}) != {expected}"
        return None

    def layer_counts(self, out: str) -> dict[str, int]:
        return {"cli.isomoment.classes": len(json.loads(out)["classes"])}


KINDS = {
    "indices-dense": IndicesDense,
    "graft-long": GraftLong,
    "verify-sweep": VerifySweep,
    "isomoment-r5": IsomomentR5,
}
