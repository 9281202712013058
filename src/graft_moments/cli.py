"""Command-line front end.

Subcommands:
  indices    index report for one graph under one weight spec
  graft      build a graft product from a spec file
  verify     run one closed-form formula against the oracle on random instances
  isomoment  enumerate permutation products, bucket by isomorphism, compare moments
  theta      tabulate cycle distance-matrix row sums against the closed form

Standard output is deterministic for fixed inputs and seed (timings go
to stderr), so runs can be diffed byte for byte.  It is the text of
json.dumps(obj, indent=2): every command writes it through _json_text,
but isomoment's classes bypass it, each written as it is filled into a
template, so no command holds the isomoment document.  Exit codes: 0 success,
1 verification failure, 2 unreadable/malformed input, 3 domain error
(disconnected graph, bad orders, and the like).  The seed defaults to
the GRAFT_MOMENTS_SEED environment variable, then 0.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import random
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Sequence

from .closed_forms import cycle_distance_row_sum
from .errors import GraftMomentsError, GraphFormatError, TooLarge
from .graph import bfs_distances, cycle_graph, graph_from_json_dict, read_json
from .isomoment import classify
from .moments import indices
from .products import (
    _equal_orders,
    graft,
    graft_product_to_json_dict,
    graft_spec_from_json_dict,
)
from .verify import FORMULAS, run_verification
from .weights import format_rational, parse_weight_spec

SEED_ENV_VAR = "GRAFT_MOMENTS_SEED"
FULL_ENUMERATION_MAX = 8
# theta takes about max_r**3 / 3 BFS steps: --max-r 400 ran 8.8 s and
# 750 ran 58 s (CPython 3.11, 2 shared cores); 10,000 would run for days
THETA_MAX_R = 750


_SCALARS = {str, int, float, bool, type(None)}


def _json_text(obj: object, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), exactly, for obj on a line indented as pad.

    pad is a newline and that indentation.  With an indent, json.dumps
    runs its pure-Python encoder, so the shapes printed most take a
    faster road: a list of plain ints is one join, a list of [int, int]
    pairs (edge lists; each pair a list or a tuple) fills one template,
    and any other flat container of scalars goes through the C encoder,
    given the item separator the indent would have written.  Anything
    else recurses, with keys and scalars written as json writes them.
    isomoment's classes bypass it: _write_classes fills one template,
    made here, per class shape.
    """
    if isinstance(obj, (list, tuple)):
        brackets, values = "[]", obj
    elif isinstance(obj, dict):
        brackets, values = "{}", obj.values()
    elif type(obj) is str:
        return encode_basestring_ascii(obj)
    elif type(obj) is int:
        return str(obj)
    else:
        return json.dumps(obj)
    if not obj:
        return brackets
    inner = pad + "  "
    sep = "," + inner
    is_list = values is obj
    types = set(map(type, values))
    if is_list and types == {int}:
        body = sep.join(map(str, obj))
    elif (
        is_list
        and types <= {list, tuple}
        and all(len(v) == 2 and type(v[0]) is int and type(v[1]) is int for v in obj)
    ):
        deeper = inner + "  "
        pair = f"[{deeper}%d,{deeper}%d{inner}]"
        body = sep.join([pair] * len(obj)) % tuple(itertools.chain.from_iterable(obj))
    elif types <= _SCALARS:
        body = json.dumps(obj, separators=(sep, ": "))[1:-1]
    elif is_list:
        body = sep.join([_json_text(v, inner) for v in obj])
    else:
        body = sep.join([f"{_key_text(k)}: {_json_text(v, inner)}" for k, v in obj.items()])
    return brackets[0] + inner + body + pad + brackets[1]


def _key_text(key: object) -> str:
    """A dict key as json writes it: a string, or a scalar's text quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return encode_basestring_ascii(json.dumps(key))
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {key.__class__.__name__}"
    )


def _emit_json(obj: object, out: str | None = None) -> None:
    text = _json_text(obj) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_classes(write: Callable[[str], object], kept: Iterable[Sequence]) -> None:
    """Each (sigma, adjacency, size) class, as _json_text writes it in the classes list.

    A class's text is filled into one template per shape (sigma length,
    edge count), made by _json_text from a class with "%d" for every
    number it prints but the vertices, 0 .. n-1 for n the adjacency's
    length.  Each class text is written as it is made, led by the item
    separator; none is kept.
    """
    templates: dict[tuple[int, int], str] = {}
    sep = "\n    "
    for sigma, adjacency, size in kept:
        # neighbour lists are sorted, so the edges are too
        ends = [x for u, ws in enumerate(adjacency) for w in ws if u < w for x in (u, w)]
        shape = len(sigma), len(ends)
        template = templates.get(shape)
        if template is None:
            template = templates[shape] = "%s" + _json_text(
                {
                    "sigma": ["%d"] * len(sigma),
                    "size": "%d",
                    "graph": {
                        "vertices": list(range(len(adjacency))),
                        "edges": [["%d", "%d"]] * (len(ends) // 2),
                    },
                },
                "\n    ",
            ).replace('"%d"', "%d")
        write(template % (sep, *sigma, size, *ends))
        sep = ",\n    "


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
    graph = read_json(args.graph, graph_from_json_dict)
    weights = parse_weight_spec(args.weights)
    report = indices(graph, weights)
    _emit_json(report.to_json_dict())
    return 0


def cmd_graft(args: argparse.Namespace) -> int:
    base_dir = os.path.dirname(os.path.abspath(args.spec))
    spec = read_json(args.spec, lambda obj: graft_spec_from_json_dict(obj, base_dir=base_dir))
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


def cmd_isomoment(args: argparse.Namespace) -> int:
    host = read_json(args.host, graph_from_json_dict)
    branch = read_json(args.branch, graph_from_json_dict)
    r = _equal_orders(host, branch)
    weight_specs = [w.strip() for w in args.weights.split(",") if w.strip()]
    if not weight_specs:
        raise GraphFormatError("no weight specs given")
    weight_functions = {w: parse_weight_spec(w) for w in weight_specs}

    if r <= FULL_ENUMERATION_MAX:
        sigmas: Iterable[tuple[int, ...]] = itertools.permutations(range(1, r + 1))
        enumeration = "full"
    else:
        if args.count < 1:
            raise GraphFormatError(f"--count must be at least 1, got {args.count}")
        # every sampled sigma can be a class, so a sample may hold as many
        # product vertices as full enumeration does at its largest order
        bound = math.factorial(FULL_ENUMERATION_MAX) * FULL_ENUMERATION_MAX**2
        if args.count * r * r > bound:
            raise TooLarge(
                f"--count {args.count} at order {r} asks for {args.count * r * r} "
                f"product vertices, over the {bound} of full enumeration at "
                f"order {FULL_ENUMERATION_MAX}"
            )
        rng = random.Random(_resolve_seed(args))
        sigmas = [tuple(rng.sample(range(1, r + 1), r)) for _ in range(args.count)]
        enumeration = "sampled"
        print(
            f"warning: {r}! permutations is too many; "
            f"sampling {args.count} seeded permutations",
            file=sys.stderr,
        )
    kept, values = classify(host, branch, weight_functions, sigmas)

    all_equal = all(len(seen) == 1 for seen in values.values())
    moments_out = {
        spec_name: format_rational(*seen) if len(seen) == 1 else sorted(map(format_rational, seen))
        for spec_name, seen in values.items()
    }
    # the frame through _json_text, with one null standing in for the
    # classes; the keys and values written before it hold no null
    head, _, tail = _json_text(
        {
            "order": r,
            "enumeration": enumeration,
            "permutations": sum(size for _, _, size in kept),
            "classes": [None],
            "moments": moments_out,
            "all_equal": all_equal,
        }
    ).partition("\n    null")
    write = sys.stdout.write
    write(head)
    _write_classes(write, kept)
    write(tail + "\n")
    return 0 if all_equal else 1


def cmd_theta(args: argparse.Namespace) -> int:
    if args.max_r < 1:
        raise GraphFormatError("--max-r must be at least 1")
    if args.max_r > THETA_MAX_R:
        raise TooLarge(f"--max-r {args.max_r} exceeds cap {THETA_MAX_R}")
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
    except (GraphFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraftMomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
