"""Span tracing of the package's public functions, installed from outside.

`Tracer.install` wraps every public function of the eight modules below,
plus `Graph.__init__`, `DistanceMatrix.entry`, `WeightFunction.total` and
each `WeightFunction` subclass's `value`.  Modules bind names with
`from .graph import distance_matrix`, so the wrapper replaces the original
in the namespace of every `graft_moments` module that holds it, not only
where it is defined.  Nothing under `src/` changes.

Each call records a span (name, start, end, parent) in flat arrays kept in
memory; `dump` writes them out and `metrics` reduces them to the per-layer
table.  A span's self time is its duration minus the durations of its
direct children; calls are strictly nested because the run is
single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

from graft_moments import graph, weights

MODULES = ("graph", "weights", "moments", "products", "closed_forms", "verify", "randgen", "cli")
GRAFT_FORMS = ("closed_forms.graft_moment_formula", "closed_forms.family_graft_moment_formula")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.stack = [-1]
        self.counts: Counter[str] = Counter()
        self.factor_keys: set = set()

    def _id(self, span: str) -> int:
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        return self._ids[span]

    def wrap(self, span: str, fn, before=None, after=None):
        """Return fn recording a span per call; hooks run outside the span."""
        nid = self._id(span)
        start, end, parent, name, stack = self.start, self.end, self.parent, self.name, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            up = stack[-1]
            parent.append(up)
            name.append(nid)
            start.append(0.0)
            end.append(0.0)
            if before is not None:
                before(up, args)
            stack.append(sid)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    # -- counters taken at the layer boundaries ----------------------------

    def _distance_matrix(self, up, args) -> None:
        g = args[0]
        n = g.order
        self.counts["graph.bfs_sources"] += n
        self.counts["graph.pairs"] += n * n
        self.counts["graph.edge_scans"] += n * 2 * g.edge_count

    def _factor_moment(self, span: str):
        """Count moment calls made directly by a closed form, and their keys."""

        def before(up, args) -> None:
            if up < 0 or not self.names[self.name[up]].startswith("closed_forms."):
                return
            self.counts["closed_forms.factor_moments"] += 1
            g, w, *rest = args
            self.factor_keys.add((span, g, repr(w), tuple(rest)))

        return before

    def _isomorphic(self, result) -> None:
        self.counts["graph.are_isomorphic.hits"] += bool(result)

    def _graft(self, result) -> None:
        self.counts["products.product_vertices"] += result.graph.order

    def _verification(self, result) -> None:
        self.counts["verify.instances"] += result.instances
        self.counts["verify.mismatches"] += len(result.mismatches)

    def _permutation_graph(self, up, args) -> None:
        if up >= 0 and self.names[self.name[up]] == "cli.cmd_isomoment":
            self.counts["cli.isomoment.products"] += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "graph.distance_matrix": (self._distance_matrix, None),
            "moments.moment": (self._factor_moment("moments.moment"), None),
            "moments.moment_at": (self._factor_moment("moments.moment_at"), None),
            "graph.are_isomorphic": (None, self._isomorphic),
            "products.graft": (None, self._graft),
            "products.permutation_graph": (self._permutation_graph, None),
            "verify.run_verification": (None, self._verification),
        }
        replacement = {}
        for short in MODULES:
            module = sys.modules[f"graft_moments.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                span = f"{short}.{attr}"
                replacement[obj] = self.wrap(span, obj, *hooks.get(span, (None, None)))
        for modname, module in list(sys.modules.items()):
            if modname != "graft_moments" and not modname.startswith("graft_moments."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    setattr(module, attr, replacement[obj])

        graph.Graph.__init__ = self.wrap("graph.Graph", graph.Graph.__init__)
        graph.DistanceMatrix.entry = self.wrap("graph.entry", graph.DistanceMatrix.entry)
        weights.WeightFunction.total = self.wrap("weights.total", weights.WeightFunction.total)
        for obj in vars(weights).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, weights.WeightFunction)
                and "value" in vars(obj)
            ):
                obj.value = self.wrap("weights.value", vars(obj)["value"])

    # -- output ---------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header beside four flat binary arrays."""
        header = {"names": self.names, "spans": len(self.start), "arrays": []}
        with open(path.with_suffix(".bin"), "wb") as fh:
            for label, arr in (("start", self.start), ("end", self.end),
                               ("parent", self.parent), ("name", self.name)):
                header["arrays"].append({"field": label, "typecode": arr.typecode,
                                         "itemsize": arr.itemsize})
                arr.tofile(fh)
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")

    def metrics(self, wall_s: float, untraced_wall_s: float, extra: Counter) -> dict[str, float]:
        """Reduce the spans to the per-layer metrics named in BENCHMARK.json."""
        start, end, parent, name = self.start, self.end, self.parent, self.name
        n = len(start)
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        module_self: Counter[str] = Counter()
        under_form = [False] * n
        under_verify = [False] * n
        form_ids = {i for i, s in enumerate(self.names) if s.startswith("closed_forms.")}
        verify_id = self._ids.get("verify.run_verification", -1)
        moment_id = self._ids.get("moments.moment", -1)
        oracle_s = 0.0
        for i in range(n):
            span = self.names[name[i]]
            own = end[i] - start[i] - covered[i]
            calls[span] += 1
            self_s[span] += own
            module_self[span.split(".", 1)[0]] += own
            p = parent[i]
            if p >= 0:
                under_form[i] = under_form[p] or name[p] in form_ids
                under_verify[i] = under_verify[p] or name[p] == verify_id
            if name[i] == moment_id and under_verify[i] and not under_form[i]:
                oracle_s += end[i] - start[i]

        c = self.counts
        out: dict[str, float] = {}

        def pair(span: str) -> None:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]

        for span in ("graph.distance_matrix", "graph.bfs_distances", "graph.is_connected",
                     "graph.entry", "graph.Graph", "graph.are_isomorphic"):
            pair(span)
        out["graph.bfs_sources"] = c["graph.bfs_sources"]
        out["graph.pairs"] = c["graph.pairs"]
        dm_s = self_s["graph.distance_matrix"]
        out["graph.pairs_per_s"] = c["graph.pairs"] / dm_s if dm_s else 0.0
        out["graph.edge_scans"] = c["graph.edge_scans"]
        iso = calls["graph.are_isomorphic"]
        out["graph.are_isomorphic.hit_ratio"] = c["graph.are_isomorphic.hits"] / iso if iso else 0.0
        for span in ("weights.value", "weights.total", "weights.parse_weight_spec",
                     "moments.moment", "moments.moment_at", "moments.indices",
                     "products.graft", "products.permutation_graph",
                     "products.graft_spec_from_json_dict", *GRAFT_FORMS, "cli.main"):
            pair(span)
        out["products.product_vertices"] = c["products.product_vertices"]
        other = [s for s in calls if s.startswith("closed_forms.") and s not in GRAFT_FORMS]
        out["closed_forms.other.calls"] = sum(calls[s] for s in other)
        out["closed_forms.other.self_s"] = sum(self_s[s] for s in other)
        factor_calls = c["closed_forms.factor_moments"]
        out["closed_forms.factor_moments"] = factor_calls
        out["closed_forms.distinct_factor_ratio"] = (
            len(self.factor_keys) / factor_calls if factor_calls else 0.0
        )
        out["verify.instances"] = c["verify.instances"]
        out["verify.mismatches"] = c["verify.mismatches"]
        out["verify.oracle_s"] = oracle_s
        out["cli.isomoment.products"] = c["cli.isomoment.products"]
        out["cli.isomoment.classes"] = extra["cli.isomoment.classes"]
        for module in MODULES:
            out[f"{module}.self_s"] = module_self[module]
        out["bench.self_s"] = wall_s - sum(module_self.values())
        out["trace.spans"] = n
        out["trace.overhead"] = wall_s / untraced_wall_s if untraced_wall_s else 0.0
        return out
