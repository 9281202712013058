"""Command-line front end.

Subcommands:
  indices    index report for one graph under one weight spec
  graft      build a graft product from a spec file
  verify     run one closed-form formula against the oracle on random instances
  isomoment  enumerate permutation products, bucket by isomorphism, compare moments
  theta      tabulate cycle distance-matrix row sums against the closed form

isomoment makes one pass per root-orbit word.  Copy i of the branch K
is rooted at sigma(i), and a copy rooted at u is, as a rooted graph, the
copy rooted at any vertex of u's Aut(K) orbit; so under degree and
constant weights two sigmas with the same word (orbit of sigma(1), ...,
orbit of sigma(r)) give isomorphic products with the same moments.  The
first sigma of each word gets the pass: the product's int adjacency is
built straight from the factors' (graft's vertex numbering), one
bit-parallel BFS of all sources gives every vertex's level sizes, and
those give both the isomorphism signatures and the row sums that every
weight's moment is summed from, in ints over one denominator.  Every
later sigma with that word joins its class.  A file: weight is not
isomorphism-invariant, so with one every sigma is its own word.  Only
each class's representative becomes a Graph, to be printed.

Standard output is deterministic for fixed inputs and seed (timings go
to stderr), so runs can be diffed byte for byte.  Exit codes: 0 success,
1 verification failure, 2 unreadable/malformed input, 3 domain error
(disconnected graph, bad orders, and the like).  The seed defaults to
the GRAFT_MOMENTS_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import random
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Sequence

from .closed_forms import cycle_distance_row_sum
from .errors import GraftMomentsError, GraphFormatError, OrderMismatch
from .graph import (
    MAX_ORDER,
    Graph,
    _Classes,
    _Invariants,
    _distances,
    _int_adjacency,
    _level_signatures,
    bfs_distances,
    cycle_graph,
    graph_from_json_dict,
    graph_to_json_dict,
)
from .moments import _weighted_sum, indices
from .products import (
    _permutation_adjacencies,
    graft,
    graft_product_to_json_dict,
    graft_spec_from_json_dict,
)
from .verify import FORMULAS, run_verification
from .weights import (
    ConstantWeight,
    DegreeWeight,
    WeightFunction,
    format_rational,
    parse_weight_spec,
)

SEED_ENV_VAR = "GRAFT_MOMENTS_SEED"
FULL_ENUMERATION_MAX = 8


def _load_json_file(path: str) -> object:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"{path}: {exc}") from None


def _emit_json(obj: object, out: str | None = None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _resolve_seed(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise GraphFormatError(
                f"{SEED_ENV_VAR}={env!r} is not an integer"
            ) from None
    return 0


def cmd_indices(args: argparse.Namespace) -> int:
    graph = graph_from_json_dict(_load_json_file(args.graph))
    weights = parse_weight_spec(args.weights)
    report = indices(graph, weights)
    _emit_json(report.to_json_dict())
    return 0


def cmd_graft(args: argparse.Namespace) -> int:
    spec = graft_spec_from_json_dict(
        _load_json_file(args.spec),
        base_dir=os.path.dirname(os.path.abspath(args.spec)),
    )
    product = graft(spec)
    _emit_json(graft_product_to_json_dict(product), out=args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_verification(
        args.formula, args.count, _resolve_seed(args), args.max_size
    )
    _emit_json(report.to_json_dict())
    print(f"elapsed_seconds: {report.elapsed_seconds:.3f}", file=sys.stderr)
    return 0 if report.ok else 1


def _product_passes(
    host: Graph,
    branch: Graph,
    sigmas: Iterable[Sequence[int]],
    weight_functions: Iterable[WeightFunction],
) -> Iterator[tuple[list[list[int]], list[tuple[int, ...]], list[Fraction]]]:
    """One pass per permutation product: (adjacency, signatures, moments).

    The product's int adjacency comes straight from the factors; one
    bit-parallel pass gives every vertex's level sizes, which are its
    isomorphism signature and give its row sum; each weight's moment is
    then an int dot product with those row sums.  No Graph is built.
    """
    weight_functions = list(weight_functions)
    vertices = range(host.order * host.order)
    for adjacency in _permutation_adjacencies(host, branch, sigmas):
        signatures = _level_signatures(adjacency)
        row_sums = [sum(map(mul, sizes, range(len(sizes)))) for sizes in signatures]
        degrees = [len(nbrs) for nbrs in adjacency]
        yield adjacency, signatures, [
            _weighted_sum(weights, vertices, degrees, row_sums)
            for weights in weight_functions
        ]


def _root_orbits(branch: Graph) -> list[int]:
    """Each branch position's Aut(branch) orbit, numbered as first met.

    Rooted at u, vertex x gets the signature (dist(x, u),) followed by
    its level sizes; u is the only vertex at distance 0, so the
    isomorphisms between the rooted copies at u and at v are exactly the
    automorphisms taking u to v, and their classes are the orbits
    (individualise, then refine, as in McKay and Piperno, J. Symb.
    Comput. 60, 2014).
    """
    adjacency = _int_adjacency(branch)
    levels = _level_signatures(adjacency)
    classes = _Classes()
    return [
        classes.add(
            _Invariants(
                adjacency,
                [(d, *sizes) for d, sizes in zip(_distances(adjacency, u), levels)],
            )
        )
        for u in range(len(adjacency))
    ]


def _adjacency_graph(adjacency: list[list[int]]) -> Graph:
    """The Graph on positions 0..n-1 with these neighbour lists."""
    return Graph(
        range(len(adjacency)),
        [(u, w) for u, nbrs in enumerate(adjacency) for w in nbrs if u < w],
    )


def cmd_isomoment(args: argparse.Namespace) -> int:
    host = graph_from_json_dict(_load_json_file(args.host))
    branch = graph_from_json_dict(_load_json_file(args.branch))
    r = host.order
    if branch.order != r:
        raise OrderMismatch(
            f"host and branch must have equal order, got {r} and {branch.order}"
        )
    weight_specs = [w.strip() for w in args.weights.split(",") if w.strip()]
    if not weight_specs:
        raise GraphFormatError("no weight specs given")
    weight_functions = {w: parse_weight_spec(w) for w in weight_specs}

    if r <= FULL_ENUMERATION_MAX:
        sigmas = list(itertools.permutations(range(1, r + 1)))
        enumeration = "full"
    else:
        if args.count < 1:
            raise GraphFormatError(f"--count must be at least 1, got {args.count}")
        rng = random.Random(_resolve_seed(args))
        sigmas = [tuple(rng.sample(range(1, r + 1), r)) for _ in range(args.count)]
        enumeration = "sampled"
        print(
            f"warning: {r}! permutations is too many; "
            f"sampling {args.count} seeded permutations",
            file=sys.stderr,
        )

    # orbits only where the products can be built at all (the first pass
    # raises on the order cap) and every weight is isomorphism-invariant
    invariant = all(
        isinstance(w, (ConstantWeight, DegreeWeight)) for w in weight_functions.values()
    )
    orbit = _root_orbits(branch) if invariant and r * r <= MAX_ORDER else range(r)
    words = [tuple(orbit[s - 1] for s in sigma) for sigma in sigmas]
    first_sigma: dict[tuple[int, ...], Sequence[int]] = {}
    for word, sigma in zip(words, sigmas):
        first_sigma.setdefault(word, sigma)
    passes = _product_passes(host, branch, first_sigma.values(), weight_functions.values())

    values: dict[str, set] = {spec_name: set() for spec_name in weight_functions}
    classes = _Classes()
    class_of: dict[tuple[int, ...], int] = {}
    representatives = []
    for word in words:
        if word in class_of:
            classes.join(class_of[word])
            continue
        adjacency, signatures, moments = next(passes)
        for seen, value in zip(values.values(), moments):
            seen.add(value)
        class_of[word] = classes.add(_Invariants(adjacency, signatures))
        if class_of[word] == len(representatives):
            representatives.append(adjacency)

    all_equal = True
    moments_out: dict[str, str] = {}
    for spec_name, seen in values.items():
        if len(seen) != 1:
            all_equal = False
            moments_out[spec_name] = sorted(format_rational(v) for v in seen)
        else:
            moments_out[spec_name] = format_rational(seen.pop())

    _emit_json(
        {
            "order": r,
            "enumeration": enumeration,
            "permutations": len(sigmas),
            "classes": [
                {
                    "sigma": list(sigmas[members[0]]),
                    "size": len(members),
                    "graph": graph_to_json_dict(_adjacency_graph(adjacency)),
                }
                for adjacency, members in zip(representatives, classes.members)
            ],
            "moments": moments_out,
            "all_equal": all_equal,
        }
    )
    return 0 if all_equal else 1


def cmd_theta(args: argparse.Namespace) -> int:
    if args.max_r < 1:
        raise GraphFormatError("--max-r must be at least 1")
    failures = 0
    for r in range(1, args.max_r + 1):
        theta = cycle_distance_row_sum(r)
        cycle = cycle_graph(r)
        ok = all(
            sum(bfs_distances(cycle, v).values()) == theta for v in cycle.vertices
        )
        if not ok:
            failures += 1
        print(f"r={r} theta={theta} row_sums={'ok' if ok else 'MISMATCH'}")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="graft-moments",
        description="Weighted distance moments, graft products, and exact "
        "closed-form index formulas for connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_indices = sub.add_parser(
        "indices", help="index report for a graph JSON file"
    )
    p_indices.add_argument("graph", help="path to a graph JSON file")
    p_indices.add_argument(
        "--weights",
        default="unit",
        help="weight spec: unit | half | degree | const:p/q | file:PATH",
    )

    p_graft = sub.add_parser(
        "graft", help="build the graft product of a spec JSON file"
    )
    p_graft.add_argument("spec", help="path to a graft spec JSON file")
    p_graft.add_argument(
        "--out", default=None, help="write the product JSON here instead of stdout"
    )

    p_verify = sub.add_parser(
        "verify", help="check one closed-form formula against the oracle"
    )
    p_verify.add_argument("formula", choices=FORMULAS)
    p_verify.add_argument("--count", type=int, default=100)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument(
        "--max-size", type=int, default=None, help="cap generated graph orders"
    )

    p_iso = sub.add_parser(
        "isomoment",
        help="bucket permutation products by isomorphism; compare their moments",
    )
    p_iso.add_argument("host", help="path to the host graph JSON file")
    p_iso.add_argument("branch", help="path to the branch graph JSON file")
    p_iso.add_argument(
        "--weights",
        default="unit",
        help="comma-separated weight specs evaluated on each product",
    )
    p_iso.add_argument(
        "--count",
        type=int,
        default=100,
        help="sample size when the order exceeds the full-enumeration cap",
    )
    p_iso.add_argument("--seed", type=int, default=None)

    p_theta = sub.add_parser(
        "theta", help="tabulate cycle row sums against floor(r/2)*floor((r+1)/2)"
    )
    p_theta.add_argument("--max-r", type=int, default=16)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # looked up on every call rather than bound into the parser, which is
    # built once, so that a wrapper set on this module later runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except GraphFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraftMomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
