"""Command-line interface: output shapes, exit codes, determinism."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from collections import Counter

import pytest

from graft_moments import cli
from graft_moments import graph as graph_module
from graft_moments import isomoment as isomoment_module
from graft_moments import moments as moments_module
from graft_moments import products as products_module
from graft_moments import verify as verify_module
from graft_moments import (
    Graph,
    graph_from_json_dict,
    graph_to_json_dict,
    moment,
    parse_weight_spec,
    permutation_graph,
)
from graft_moments.cli import SEED_ENV_VAR, main
from graft_moments.graph import (
    _int_adjacency,
    _level_signatures,
    bfs_distances,
    complete_graph,
    cycle_graph,
    diamond_graph,
    path_graph,
    star_graph,
)
from graft_moments.randgen import random_connected_graph
from graft_moments.verify import FORMULAS


def write_json(path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def graph_file(tmp_path, g, name="graph.json") -> str:
    return write_json(tmp_path / name, graph_to_json_dict(g))


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- indices -------------------------------------------------------------------


def test_indices_p4_degree(tmp_path, capsys):
    path = graph_file(tmp_path, path_graph(4))
    code, out, _ = run_cli(capsys, "indices", path, "--weights", "degree")
    assert code == 0
    payload = json.loads(out)
    assert payload["moment"] == "28/1"
    assert payload["wiener"] == "10/1"
    assert payload["degree_distance"] == "28/1"
    assert payload["zagreb1"] == "10/1"
    assert payload["mti"] == "38/1"
    assert payload["mean_distance"] == "5/4"
    assert payload["hyper_wiener_paper"] == "10/1"


def test_indices_stdout_is_pinned_byte_for_byte(tmp_path, capsys):
    # K_{1,3} centred at 9 on ids out of order: every index in field order,
    # two-space indent, one trailing newline
    star = {"vertices": [7, 3, 9, 1], "edges": [[9, 7], [9, 3], [9, 1]]}
    path = write_json(tmp_path / "star.json", star)
    code, out, err = run_cli(capsys, "indices", path, "--weights", "const:2/7")
    assert (code, err) == (0, "")
    assert out == (
        '{\n  "moment": "36/7",\n  "mean_distance": "9/8",\n  "wiener": "9/1",\n'
        '  "degree_distance": "24/1",\n  "zagreb1": "12/1",\n  "mti": "36/1",\n'
        '  "hyper_wiener_paper": "21/2"\n}\n'
    )


def test_indices_rejects_a_vertex_id_that_is_not_an_int(tmp_path, capsys):
    path = write_json(tmp_path / "g.json", {"vertices": ["a"], "edges": []})
    code, out, err = run_cli(capsys, "indices", path)
    assert (code, out, err) == (2, "", f"error: {path}: vertex ids must be integers, got 'a'\n")


def test_indices_rejects_a_weight_file_key_that_is_not_an_id(tmp_path, capsys):
    path = graph_file(tmp_path, path_graph(2))
    weights = write_json(tmp_path / "w.json", {"a": "1", "0": "1"})
    code, out, err = run_cli(capsys, "indices", path, "--weights", f"file:{weights}")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {weights}: weight file keys must be integer vertex ids written plainly, got 'a'\n"
    )


def test_indices_rejects_a_weight_file_that_is_not_json(tmp_path, capsys):
    path = graph_file(tmp_path, path_graph(2))
    weights = tmp_path / "w.json"
    weights.write_text('{"0": "1",')
    with pytest.raises(json.JSONDecodeError) as parse_error:
        json.loads(weights.read_text())
    code, out, err = run_cli(capsys, "indices", path, "--weights", f"file:{weights}")
    assert (code, out) == (2, "")
    assert err == f"error: {weights}: {parse_error.value}\n"


def test_indices_single_vertex(tmp_path, capsys):
    path = write_json(tmp_path / "k1.json", {"vertices": [0], "edges": []})
    code, out, _ = run_cli(capsys, "indices", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["moment"] == "0/1"
    assert payload["mean_distance"] == "0/1"


def test_indices_diamond_unit(tmp_path, capsys):
    path = graph_file(tmp_path, diamond_graph())
    code, out, _ = run_cli(capsys, "indices", path)
    assert code == 0
    assert json.loads(out)["moment"] == "14/1"


def test_indices_disconnected_graph_is_domain_error(tmp_path, capsys):
    path = write_json(
        tmp_path / "broken.json", {"vertices": [0, 1, 2], "edges": [[0, 1]]}
    )
    code, _, err = run_cli(capsys, "indices", path)
    assert code == 3
    assert "error:" in err


def test_indices_bad_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "indices", str(path))
    assert code == 2
    assert "error:" in err


MALFORMED_FILES = {
    "not-utf8": b'{"vertices": [0, 1], "edges": [[0, 1]], "\xff": 0}',
    "nested-200000": b"[" * 200_000,
    "int-5000-digits": b"9" * 5_000,
}
JSON_READERS = {
    "indices-graph": lambda bad, good: ["indices", bad],
    "graft-spec": lambda bad, good: ["graft", bad],
    "isomoment-host": lambda bad, good: ["isomoment", bad, good],
    "weight-file": lambda bad, good: ["indices", good, "--weights", f"file:{bad}"],
}


@pytest.mark.parametrize("reader", JSON_READERS)
@pytest.mark.parametrize("content", MALFORMED_FILES)
def test_a_malformed_json_file_is_input_error(tmp_path, capsys, content, reader):
    # a decode error, a nesting too deep to parse and an int past CPython's
    # digit limit are malformed input (exit 2), not a crash
    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED_FILES[content])
    good = graph_file(tmp_path, path_graph(2))
    code, out, err = run_cli(capsys, *JSON_READERS[reader](str(bad), good))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    if content != "int-5000-digits" or hasattr(sys, "get_int_max_str_digits"):
        assert str(bad) in err  # else the int parses and the shape check rejects it


P2 = '{"vertices": [0, 1], "edges": [[0, 1]]}'
# read keeping each key's last value, as json does, every case below is
# well formed: this graph is P2, the spec's host is P2, the root is 0
GRAPH_TWICE = '{"vertices": [0, 1], "edges": [], "edges": [[0, 1]]}'


def spec_text(attachment: str) -> str:
    return f'{{"host": {P2}, "attachments": [{attachment}]}}'


# case: (the repeated key, bad.json's text, argv given bad.json, a good
# graph file and a good spec file whose one attachment weighs by bad.json)
REPEATED_KEYS = {
    "indices-graph": ("edges", GRAPH_TWICE, lambda bad, graph, spec: ["indices", bad]),
    "isomoment-host": ("edges", GRAPH_TWICE, lambda bad, graph, spec: ["isomoment", bad, graph]),
    "isomoment-branch": ("edges", GRAPH_TWICE, lambda bad, graph, spec: ["isomoment", graph, bad]),
    "spec": (
        "host",
        f'{{"host": {{"vertices": [0], "edges": []}}, "host": {P2}}}',
        lambda bad, graph, spec: ["graft", bad],
    ),
    "spec-host": ("edges", f'{{"host": {GRAPH_TWICE}}}', lambda bad, graph, spec: ["graft", bad]),
    "spec-attachment": (
        "root",
        spec_text(f'{{"receptor": 0, "branch": {P2}, "root": 5, "root": 0}}'),
        lambda bad, graph, spec: ["graft", bad],
    ),
    "spec-branch": (
        "edges",
        spec_text(f'{{"receptor": 0, "branch": {GRAPH_TWICE}, "root": 0}}'),
        lambda bad, graph, spec: ["graft", bad],
    ),
    "weight-file": (
        "1",
        '{"0": "1", "1": "2", "1": "3"}',
        lambda bad, graph, spec: ["indices", graph, "--weights", f"file:{bad}"],
    ),
    "spec-weights": ("1", '{"0": "1", "1": "2", "1": "3"}', lambda bad, graph, spec: ["graft", spec]),
}


@pytest.mark.parametrize("case", REPEATED_KEYS)
def test_a_key_repeated_in_any_input_object_is_input_error(tmp_path, capsys, case):
    # json keeps a repeated key's last value; every file the commands read
    # refuses it instead, naming the file and the key
    key, text, argv = REPEATED_KEYS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    graph = graph_file(tmp_path, path_graph(2))
    spec = tmp_path / "spec.json"
    weighed = f'{{"receptor": 0, "branch": {P2}, "root": 0, "weights": "file:bad.json"}}'
    spec.write_text(spec_text(weighed))
    code, out, err = run_cli(capsys, *argv(str(bad), graph, str(spec)))
    assert (code, out, err) == (2, "", f"error: {bad}: repeated key {key!r}\n")


# case: (bad.json's text, argv given bad.json, a good graph file and a good
# spec file whose one attachment weighs by bad.json, what is wrong with it)
SHAPE_ERRORS = {
    "indices-graph": ("[]", lambda bad, graph, spec: ["indices", bad], "graph JSON must be an object"),
    "indices-vertex-id": (
        '{"vertices": ["a"], "edges": []}',
        lambda bad, graph, spec: ["indices", bad],
        "vertex ids must be integers, got 'a'",
    ),
    # a file and Graph(...) word a bad edge alike
    "indices-edge": (
        '{"vertices": [0, 1, 2], "edges": [[0, 1, 2]]}',
        lambda bad, graph, spec: ["indices", bad],
        "edge [0, 1, 2] is not a pair",
    ),
    # two characters or two keys are no pair of endpoints
    "indices-string-edge": (
        '{"vertices": [0, 1], "edges": ["01"]}',
        lambda bad, graph, spec: ["indices", bad],
        "edge '01' is not a pair",
    ),
    "indices-object-edge": (
        '{"vertices": [0, 1], "edges": [{"0": 1, "1": 0}]}',
        lambda bad, graph, spec: ["indices", bad],
        "edge {'0': 1, '1': 0} is not a pair",
    ),
    "isomoment-host-edge": (
        '{"vertices": [0, 1], "edges": [[0, 0]]}',
        lambda bad, graph, spec: ["isomoment", bad, graph],
        "self-loop at vertex 0",
    ),
    "isomoment-branch-key": (
        '{"vertices": [0, 1], "edges": [], "extra": 1}',
        lambda bad, graph, spec: ["isomoment", graph, bad],
        "unexpected graph keys: ['extra']",
    ),
    "spec": ("[]", lambda bad, graph, spec: ["graft", bad], "graft spec JSON must be an object"),
    "spec-host": (
        '{"host": {"vertices": [0, 0], "edges": []}}',
        lambda bad, graph, spec: ["graft", bad],
        "duplicate vertex ids",
    ),
    "spec-host-weights": (
        f'{{"host": {P2}, "host_weights": "cubic"}}',
        lambda bad, graph, spec: ["graft", bad],
        "unknown weight spec 'cubic'",
    ),
    "spec-attachment": (
        spec_text(f'{{"receptor": 0, "branch": {P2}}}'),
        lambda bad, graph, spec: ["graft", bad],
        "attachment is missing ['root']",
    ),
    "spec-branch": (
        spec_text('{"receptor": 0, "branch": {"vertices": [0, 1], "edges": [[0, 2]]}, "root": 0}'),
        lambda bad, graph, spec: ["graft", bad],
        "edge (0, 2) has an unknown endpoint",
    ),
    "spec-branch-edge": (
        spec_text('{"receptor": 0, "branch": {"vertices": [0, 1, 2], "edges": [[0, 1, 2]]}, "root": 0}'),
        lambda bad, graph, spec: ["graft", bad],
        "edge [0, 1, 2] is not a pair",
    ),
    "weight-file": (
        "[1]",
        lambda bad, graph, spec: ["indices", graph, "--weights", f"file:{bad}"],
        "weight file JSON must be an object",
    ),
    "weight-file-value": (
        '{"0": 3, "1": "1"}',
        lambda bad, graph, spec: ["indices", graph, "--weights", f"file:{bad}"],
        "expected a rational string, got 3",
    ),
    "spec-weight-file": (
        '{"0": "1", "x": "1"}',
        lambda bad, graph, spec: ["graft", spec],
        "weight file keys must be integer vertex ids written plainly, got 'x'",
    ),
}


@pytest.mark.parametrize("case", SHAPE_ERRORS)
def test_a_shape_error_in_any_input_file_names_the_file(tmp_path, capsys, case):
    # a well-formed JSON file of the wrong shape is input error worded as
    # the reader words a decode error: the file, then what is wrong; a spec's
    # weight file is named itself
    text, argv, why = SHAPE_ERRORS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    graph = graph_file(tmp_path, path_graph(2))
    spec = tmp_path / "spec.json"
    weighed = f'{{"receptor": 0, "branch": {P2}, "root": 0, "weights": "file:bad.json"}}'
    spec.write_text(spec_text(weighed))
    code, out, err = run_cli(capsys, *argv(str(bad), graph, str(spec)))
    assert (code, out, err) == (2, "", f"error: {bad}: {why}\n")


def test_indices_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "indices", str(tmp_path / "absent.json"))
    assert code == 2
    assert "error:" in err


def test_indices_bad_weight_spec_is_input_error(tmp_path, capsys):
    path = graph_file(tmp_path, path_graph(3))
    code, _, err = run_cli(capsys, "indices", path, "--weights", "cubic")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "text",
    [
        # "01" is vertex 1 again; read as a map, the last value would win
        '{"0": "1/1", "1": "5/1", "01": "0/1", "2": "1/1"}',
        '{"0": "1/1", "1": "5/1", "1": "0/1", "2": "1/1"}',
        '{"0": "1/1", "+1": "5/1", "2": "1/1"}',
        '{"0": "1/1", " 1": "5/1", "2": "1/1"}',
        '{"0": "1/1", "1": "5/1", "2": "1/1", "1_0": "1/1"}',
        '{"0": "1/1", "1": "5/1", "-0": "1/1", "2": "1/1"}',
    ],
    ids=["leading-zero", "repeated", "plus-sign", "space", "underscore", "minus-zero"],
)
def test_indices_weight_file_names_each_vertex_once_plainly(tmp_path, capsys, text):
    path = graph_file(tmp_path, path_graph(3))
    (tmp_path / "w.json").write_text(text)
    code, out, err = run_cli(capsys, "indices", path, "--weights", f"file:{tmp_path / 'w.json'}")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "w.json" in err
    (tmp_path / "w.json").write_text('{"0": "1/1", "1": "0/1", "2": "1/1", "-3": "1/1"}')
    code, out, _ = run_cli(capsys, "indices", path, "--weights", f"file:{tmp_path / 'w.json'}")
    assert code == 0
    assert json.loads(out)["moment"] == "6/1"


# -- graft ---------------------------------------------------------------------


COALESCENCE_SPEC = {
    "host": {"vertices": [0, 1, 2], "edges": [[0, 1], [1, 2]]},
    "attachments": [
        {
            "receptor": 1,
            "branch": {"vertices": [0, 1], "edges": [[0, 1]]},
            "root": 0,
            "weights": "unit",
        }
    ],
    "host_weights": "unit",
}


def test_graft_builds_product(tmp_path, capsys):
    path = write_json(tmp_path / "spec.json", COALESCENCE_SPEC)
    code, out, _ = run_cli(capsys, "graft", path)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["graph"]["vertices"]) == 4
    assert len(payload["graph"]["edges"]) == 3
    assert payload["gamma"][str(payload["host_map"]["1"])] == "2/1"
    assert payload["branch_maps"][0]["0"] == payload["host_map"]["1"]


def test_graft_output_is_byte_deterministic(tmp_path, capsys):
    path = write_json(tmp_path / "spec.json", COALESCENCE_SPEC)
    _, first, _ = run_cli(capsys, "graft", path)
    _, second, _ = run_cli(capsys, "graft", path)
    assert first == second


def test_graft_out_file(tmp_path, capsys):
    path = write_json(tmp_path / "spec.json", COALESCENCE_SPEC)
    out_path = tmp_path / "product.json"
    code, out, _ = run_cli(capsys, "graft", path, "--out", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert len(payload["graph"]["vertices"]) == 4


def test_graft_no_attachments_echoes_host(tmp_path, capsys):
    spec = {"host": {"vertices": [3, 5], "edges": [[3, 5]]}}
    path = write_json(tmp_path / "spec.json", spec)
    code, out, _ = run_cli(capsys, "graft", path)
    assert code == 0
    payload = json.loads(out)
    assert len(payload["graph"]["vertices"]) == 2
    assert payload["host_map"] == {"3": 0, "5": 1}


def test_graft_weight_file_resolves_relative_to_spec(tmp_path, capsys):
    write_json(tmp_path / "w.json", {"0": "1/2", "1": "3/2", "2": "0"})
    spec = dict(COALESCENCE_SPEC, host_weights="file:w.json")
    path = write_json(tmp_path / "spec.json", spec)
    code, out, _ = run_cli(capsys, "graft", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["gamma"][str(payload["host_map"]["0"])] == "1/2"


@pytest.mark.parametrize("field", ["receptor", "root"])
def test_graft_rejects_a_bool_vertex_id(tmp_path, capsys, field):
    attachment = dict(COALESCENCE_SPEC["attachments"][0], **{field: True})
    spec = dict(COALESCENCE_SPEC, attachments=[attachment])
    path = write_json(tmp_path / "spec.json", spec)
    code, out, err = run_cli(capsys, "graft", path)
    assert (code, out) == (2, "")
    assert err == f"error: {path}: receptor and root must be integer vertex ids\n"


def test_graft_disconnected_host_is_domain_error(tmp_path, capsys):
    spec = {"host": {"vertices": [0, 1], "edges": []}}
    path = write_json(tmp_path / "spec.json", spec)
    code, _, err = run_cli(capsys, "graft", path)
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"attachments": {}}, '"attachments" must be a list'),
        ({"attachments": [1]}, "attachment must be an object"),
        (
            {"attachments": [dict(COALESCENCE_SPEC["attachments"][0], bogus=1)]},
            "unexpected attachment keys: ['bogus']",
        ),
        (
            {"attachments": [dict(COALESCENCE_SPEC["attachments"][0], weights=3)]},
            "weight spec must be a string, got 3",
        ),
    ],
    ids=[
        "attachments-not-a-list", "attachment-not-an-object", "attachment-key",
        "weights-not-a-string",
    ],
)
def test_graft_rejects_a_malformed_spec(tmp_path, capsys, change, message):
    path = write_json(tmp_path / "spec.json", dict(COALESCENCE_SPEC, **change))
    code, out, err = run_cli(capsys, "graft", path)
    assert (code, out, err) == (2, "", f"error: {path}: {message}\n")


# -- verify --------------------------------------------------------------------


def test_verify_reports_ok(capsys):
    code, out, err = run_cli(
        capsys, "verify", "theorem1", "--count", "5", "--seed", "11"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "formula": "theorem1",
        "instances": 5,
        "seed": 11,
        "ok": True,
        "mismatches": [],
    }
    assert err.startswith("elapsed_seconds:")


def test_verify_stdout_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "sigma", "--count", "4", "--seed", "9")
    _, second, _ = run_cli(capsys, "verify", "sigma", "--count", "4", "--seed", "9")
    assert first == second


def test_verify_seed_from_environment(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV_VAR, "21")
    code, out, _ = run_cli(capsys, "verify", "flower", "--count", "3")
    assert code == 0
    assert json.loads(out)["seed"] == 21
    monkeypatch.setenv(SEED_ENV_VAR, "banana")
    code, _, err = run_cli(capsys, "verify", "flower", "--count", "3")
    assert code == 2
    assert "error:" in err


def test_verify_defaults_to_seed_zero(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV_VAR, raising=False)
    code, out, _ = run_cli(capsys, "verify", "unicyclic", "--count", "2")
    assert code == 0
    assert json.loads(out)["seed"] == 0


def test_verify_rejects_max_size_below_one(capsys):
    for max_size in ("0", "-5"):
        code, out, err = run_cli(capsys, "verify", "comparison", "--count", "2", "--max-size", max_size)
        assert (code, out) == (2, "")
        assert err == f"error: max size must be at least 1, got {max_size}\n"
    code, out, _ = run_cli(capsys, "verify", "comparison", "--count", "2", "--max-size", "1")
    assert code == 0 and json.loads(out)["mismatches"] == []


def test_verify_rejects_unknown_formula(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "theorem99"])
    assert excinfo.value.code == 2  # argparse rejects bad choices itself
    capsys.readouterr()


# -- isomoment -----------------------------------------------------------------


def test_isomoment_diamond_p4(tmp_path, capsys):
    host = graph_file(tmp_path, diamond_graph(), "host.json")
    branch = graph_file(tmp_path, path_graph(4), "branch.json")
    code, out, _ = run_cli(
        capsys, "isomoment", host, branch, "--weights", "unit,degree"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    assert payload["enumeration"] == "full"
    assert payload["permutations"] == 24
    assert payload["all_equal"] is True
    assert payload["moments"]["unit"] == "784/1"
    assert payload["moments"]["degree"] == "1480/1"
    sizes = sorted(cls["size"] for cls in payload["classes"])
    assert len(payload["classes"]) >= 2  # non-isomorphic graphs, same moments
    assert sum(sizes) == 24


def test_isomoment_single_class(tmp_path, capsys):
    host = graph_file(tmp_path, cycle_graph(3), "host.json")
    branch = graph_file(tmp_path, cycle_graph(3), "branch.json")
    code, out, _ = run_cli(capsys, "isomoment", host, branch)
    assert code == 0
    payload = json.loads(out)
    assert payload["permutations"] == 6
    assert len(payload["classes"]) == 1
    assert payload["moments"]["unit"] == "144/1"


def test_isomoment_order_mismatch(tmp_path, capsys):
    host = graph_file(tmp_path, diamond_graph(), "host.json")
    branch = graph_file(tmp_path, path_graph(3), "branch.json")
    code, _, err = run_cli(capsys, "isomoment", host, branch)
    assert code == 3
    assert err == "error: permutation product needs equal orders, got 4 and 3\n"


def test_isomoment_needs_a_weight_spec(tmp_path, capsys):
    host = graph_file(tmp_path, path_graph(3), "host.json")
    branch = graph_file(tmp_path, path_graph(3), "branch.json")
    code, out, err = run_cli(capsys, "isomoment", host, branch, "--weights", ",")
    assert (code, out, err) == (2, "", "error: no weight specs given\n")


@pytest.fixture
def no_product_bfs(monkeypatch):
    """Make every BFS of a product raise: isomoment composes its products' signatures and row sums.

    The bit-parallel pass is refused outright, and a one-source BFS on an
    adjacency of the product's order r*r (r >= 2), so the factors' rows,
    of order r, are still taken.
    """

    def refuse(*args, **kwargs):
        raise AssertionError("isomoment ran a BFS of a product")

    orders = []  # r of each permutation product isomoment checks
    permutation_order = products_module._permutation_order
    distances = graph_module._distances

    def recorded_order(host, branch):
        orders.append(permutation_order(host, branch))
        return orders[-1]

    def factor_distances(adjacency, source):
        if orders and len(adjacency) == orders[-1] ** 2 > 1:
            refuse()
        return distances(adjacency, source)

    monkeypatch.setattr(graph_module, "_ball_sums", refuse)
    monkeypatch.setattr(graph_module, "_distances", factor_distances)
    monkeypatch.setattr(isomoment_module, "_permutation_order", recorded_order)


# sha256 of the stdout printed before isomorphism classes were bucketed by
# vertex signatures; class order, sigmas, sizes and graphs must not move
ISOMOMENT_GOLDEN = [
    (
        graph_to_json_dict(diamond_graph()),
        graph_to_json_dict(path_graph(4)),
        3,
        "ea56a561bbdb51dc225ec23008d4603035d483dca673ce4b1254e7e29e150f88",
    ),
    (
        {"vertices": [42, 7, 19, 3, 88], "edges": [[7, 42], [19, 7], [3, 19], [88, 3], [42, 19]]},
        {"vertices": [61, 5, 30, 12, 9], "edges": [[5, 61], [30, 5], [12, 5], [9, 12]]},
        33,
        "403d3a98843ccb5bd8034cd9f5a7de906264f64aacae25586ea562e8ddce9231",
    ),
]


@pytest.mark.usefixtures("no_product_bfs")
@pytest.mark.parametrize("host,branch,classes,digest", ISOMOMENT_GOLDEN)
def test_isomoment_stdout_is_golden(tmp_path, capsys, host, branch, classes, digest):
    host_path = write_json(tmp_path / "host.json", host)
    branch_path = write_json(tmp_path / "branch.json", branch)
    code, out, _ = run_cli(
        capsys, "isomoment", host_path, branch_path, "--weights", "unit,degree"
    )
    assert code == 0
    assert len(json.loads(out)["classes"]) == classes
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# r = 6, 720 products in 180 classes; sha256 of the stdout printed while
# every product was still built as a Graph and its moments taken by moment()
ISOMOMENT_R6_HOST = {
    "vertices": [84, 97, 65, 30, 91, 60],
    "edges": [[97, 84], [30, 84], [65, 84], [84, 91], [65, 97], [91, 97], [97, 60],
              [91, 30], [65, 60], [91, 60]],
}
ISOMOMENT_R6_BRANCH = {
    "vertices": [75, 56, 67, 96, 33, 81],
    "edges": [[75, 56], [96, 75], [75, 81], [67, 56], [96, 33], [67, 81]],
}


@pytest.mark.usefixtures("no_product_bfs")
def test_isomoment_r6_stdout_is_golden(tmp_path, capsys):
    host_path = write_json(tmp_path / "host.json", ISOMOMENT_R6_HOST)
    branch_path = write_json(tmp_path / "branch.json", ISOMOMENT_R6_BRANCH)
    code, out, _ = run_cli(
        capsys, "isomoment", host_path, branch_path,
        "--weights", "unit,half,degree,const:7/3",
    )
    assert code == 0
    assert len(json.loads(out)["classes"]) == 180
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f896168fb1683d1c9cd41ccc0fdbe7645c1a8449f83bd5f9322f2eb4c5bc356e"
    )


# r = 7, 5,040 products in 1,320 classes; sha256 of the stdout printed
# while every class still kept its member list and all sigmas were listed
# before the first product was built
ISOMOMENT_R7_HOST = {
    "vertices": list(range(7)),
    "edges": [[0, 1], [1, 2], [1, 5], [2, 3], [2, 4], [3, 6]],
}
ISOMOMENT_R7_BRANCH = {
    "vertices": list(range(7)),
    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [1, 5], [2, 4], [2, 6], [4, 5],
              [5, 6]],
}


@pytest.mark.usefixtures("no_product_bfs")
def test_isomoment_r7_stdout_is_golden(tmp_path, capsys):
    host_path = write_json(tmp_path / "host.json", ISOMOMENT_R7_HOST)
    branch_path = write_json(tmp_path / "branch.json", ISOMOMENT_R7_BRANCH)
    code, out, _ = run_cli(
        capsys, "isomoment", host_path, branch_path, "--weights", "unit,degree"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["permutations"] == 5040
    assert len(payload["classes"]) == 1320
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "923a8e63934673e8f5c0ac54b32ebaca6aa8d8360d96878d76443fd26ebbb5f4"
    )


def test_isomoment_draws_sigmas_as_it_builds_products(tmp_path, capsys, monkeypatch):
    # the first product pass must not wait for all 7! sigmas to be drawn
    host_path = write_json(tmp_path / "host.json", ISOMOMENT_R7_HOST)
    branch_path = write_json(tmp_path / "branch.json", ISOMOMENT_R7_BRANCH)
    drawn = []
    drawn_at_first_pass = []
    permutations = itertools.permutations
    permutation_products = isomoment_module._permutation_products

    def counting_permutations(*args):
        for sigma in permutations(*args):
            drawn.append(sigma)
            yield sigma

    def first_pass(host, branch):
        products = permutation_products(host, branch)

        def recording(sigma):
            if not drawn_at_first_pass:
                drawn_at_first_pass.append(len(drawn))
            return products(sigma)

        return recording

    monkeypatch.setattr(itertools, "permutations", counting_permutations)
    monkeypatch.setattr(isomoment_module, "_permutation_products", first_pass)
    code, out, _ = run_cli(
        capsys, "isomoment", host_path, branch_path, "--weights", "unit,degree"
    )
    assert code == 0
    assert json.loads(out)["permutations"] == len(drawn) == 5040
    assert drawn_at_first_pass[0] < 5040


def _random_pairs(count: int) -> list[tuple[Graph, Graph]]:
    rng = random.Random(606)
    pairs = []
    for _ in range(count):
        r = rng.randint(1, 5)
        host, branch = (_relabeled(random_connected_graph(rng, r), rng) for _ in range(2))
        pairs.append((host, branch))
    return pairs


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    ids = rng.sample(range(100), g.order)
    order = list(range(g.order))
    rng.shuffle(order)
    return Graph([ids[i] for i in order], [(ids[u], ids[v]) for u, v in g.edges()])


ISOMOMENT_PAIRS = [
    (graph_from_json_dict(host), graph_from_json_dict(branch))
    for host, branch, _, _ in ISOMOMENT_GOLDEN
] + _random_pairs(20)


def _record_product_passes(monkeypatch) -> list[tuple[tuple[int, ...], tuple, list, list]]:
    """Each product pass classify makes, in call order.

    A pass is its sigma, adjacency, signatures and row sums.
    """
    passes = []
    permutation_products = isomoment_module._permutation_products

    def recording(host, branch):
        products = permutation_products(host, branch)

        def record(sigma):
            result = products(sigma)
            passes.append((tuple(sigma), *result))
            return result

        return record

    monkeypatch.setattr(isomoment_module, "_permutation_products", recording)
    return passes


@pytest.mark.parametrize("host,branch", ISOMOMENT_PAIRS)
def test_isomoment_product_passes_match_built_products(
    tmp_path, capsys, monkeypatch, host, branch
):
    r = host.order
    rng = random.Random(r * 1000 + branch.edge_count)
    file_weights = write_json(
        tmp_path / "w.json",
        {str(v): f"{rng.randint(0, 20)}/{rng.randint(1, 5)}" for v in range(r * r)},
    )
    specs = ["unit", "half", "degree", "const:7/3", f"file:{file_weights}"]
    weight_functions = [parse_weight_spec(spec) for spec in specs]
    # each pass's sigma, adjacency, signatures and row sums, and the
    # moments summed from them
    passes = _record_product_passes(monkeypatch)
    moments: dict[int, list] = {}  # by pass
    weighted_sum = isomoment_module._weighted_sum

    def recording_sum(*args):
        value = weighted_sum(*args)
        moments.setdefault(len(passes) - 1, []).append(value)
        return value

    monkeypatch.setattr(isomoment_module, "_weighted_sum", recording_sum)
    host_path = graph_file(tmp_path, host, "host.json")
    branch_path = graph_file(tmp_path, branch, "branch.json")
    # the file: weight gives every sigma its own pass, in enumeration order
    code, _, _ = run_cli(
        capsys, "isomoment", host_path, branch_path, "--weights", ",".join(specs)
    )
    assert code in (0, 1)
    sigmas = itertools.permutations(range(1, r + 1))
    # (signature, level sizes) of every vertex of every product: all have order r*r
    pairs = set()
    for sigma, (drawn, adjacency, signatures, row_sums), values in zip(
        sigmas, passes, moments.values(), strict=True
    ):
        product = permutation_graph(host, branch, sigma).graph
        assert drawn == sigma
        assert adjacency == _int_adjacency(product)
        assert (signatures, row_sums) == _level_signatures(adjacency)
        levels = [Counter(bfs_distances(product, v).values()) for v in product.vertices]
        pairs.update(zip(signatures, (tuple(c[d] for d in range(len(c))) for c in levels)))
        assert list(row_sums) == [sum(d * size for d, size in c.items()) for c in levels]
        assert values == [moment(product, w) for w in weight_functions]
    # equal signatures exactly when the level sizes are equal
    assert len({s for s, _ in pairs}) == len({sizes for _, sizes in pairs}) == len(pairs)


def test_isomoment_builds_a_graph_only_per_class(tmp_path, capsys, monkeypatch):
    host, branch, classes, _ = ISOMOMENT_GOLDEN[1]
    host_path = write_json(tmp_path / "host.json", host)
    branch_path = write_json(tmp_path / "branch.json", branch)
    built = []
    init = graph_module.Graph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("isomoment built a product the slow way")

    monkeypatch.setattr(graph_module.Graph, "__init__", counting_init)
    for module, name in [
        (products_module, "permutation_graph"),
        (moments_module, "moment"),
        (graph_module, "distance_row_sums"),
        (graph_module, "isomorphism_classes"),
    ]:
        monkeypatch.setattr(module, name, refuse)
        for user in (cli, isomoment_module):
            monkeypatch.setattr(user, name, refuse, raising=False)
    code, out, _ = run_cli(
        capsys, "isomoment", host_path, branch_path, "--weights", "unit,degree"
    )
    assert code == 0
    assert len(json.loads(out)["classes"]) == classes
    assert len(built) <= 2  # the host and the branch; no product is a Graph


def test_isomoment_keeps_the_product_order_cap(tmp_path, capsys):
    # order-101 factors give products of order 10,201
    host = graph_file(tmp_path, path_graph(101), "host.json")
    branch = graph_file(tmp_path, cycle_graph(101), "branch.json")
    code, out, err = run_cli(capsys, "isomoment", host, branch, "--count", "3")
    assert code == 3
    assert out == ""
    assert err.endswith("error: graph order 10201 exceeds cap 10000\n")


@pytest.mark.parametrize("weights", ["unit,file:{}", "degree,file:{},unit"])
def test_isomoment_weight_file_missing_a_product_vertex(tmp_path, capsys, weights):
    host = graph_file(tmp_path, diamond_graph(), "host.json")
    branch = graph_file(tmp_path, path_graph(4), "branch.json")
    # the product has vertices 0..15; the file covers only 0..2
    w = write_json(tmp_path / "w.json", {"0": "1", "1": "2/3", "2": "1"})
    code, out, err = run_cli(
        capsys, "isomoment", host, branch, "--weights", weights.format(w)
    )
    assert code == 3
    assert out == ""
    assert err == "error: weight map has no entry for vertex 3\n"


@pytest.mark.parametrize("count", ["0", "-3"])
def test_isomoment_sampled_count_must_be_positive(tmp_path, capsys, count):
    # order 9 is past the full-enumeration cap, so --count is the sample size
    host = graph_file(tmp_path, path_graph(9), "host.json")
    branch = graph_file(tmp_path, path_graph(9), "branch.json")
    code, out, err = run_cli(capsys, "isomoment", host, branch, "--count", count)
    assert code == 2
    assert out == ""
    assert "--count" in err


def test_isomoment_caps_the_sample_at_full_enumeration_size(tmp_path, capsys, monkeypatch):
    # 40,000 products of order 81 is more than the 8! products of order 64
    # that full enumeration at order 8 holds; refused before any sigma is drawn
    host = graph_file(tmp_path, path_graph(9), "host.json")
    branch = graph_file(tmp_path, path_graph(9), "branch.json")

    def refuse(*args, **kwargs):
        raise AssertionError("isomoment drew a sigma")

    monkeypatch.setattr(cli.random, "Random", refuse)
    code, out, err = run_cli(capsys, "isomoment", host, branch, "--count", "40000")
    assert code == 3
    assert out == ""
    assert err == (
        "error: --count 40000 at order 9 asks for 3240000 product vertices, "
        "over the 2580480 of full enumeration at order 8\n"
    )


def test_isomoment_sample_budget_is_inclusive(tmp_path, capsys, monkeypatch):
    # with full enumeration up to order 4 the budget is 4! * 4**2 = 384
    # product vertices: 6 sigmas of order 8 fill it exactly, 7 go over
    monkeypatch.setattr(cli, "FULL_ENUMERATION_MAX", 4)
    host = graph_file(tmp_path, path_graph(8), "host.json")
    branch = graph_file(tmp_path, path_graph(8), "branch.json")
    code, out, err = run_cli(capsys, "isomoment", host, branch, "--count", "6")
    assert code == 0
    assert json.loads(out)["permutations"] == 6
    assert err == "warning: 8! permutations is too many; sampling 6 seeded permutations\n"
    code, out, err = run_cli(capsys, "isomoment", host, branch, "--count", "7")
    assert (code, out) == (3, "")
    assert err == (
        "error: --count 7 at order 8 asks for 448 product vertices, "
        "over the 384 of full enumeration at order 4\n"
    )


# -- isomoment by root orbits ---------------------------------------------------


def _automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every automorphism of g, as a permutation of its positions."""
    adjacency = _int_adjacency(g)
    edges = {(u, w) for u, nbrs in enumerate(adjacency) for w in nbrs}
    return [
        p for p in itertools.permutations(range(len(adjacency)))
        if all((p[u], p[w]) in edges for u, w in edges)
    ]


def _brute_force_orbits(g: Graph) -> list[int]:
    """Aut(g) orbits of g's positions, numbered as first met, from every permutation."""
    automorphisms = _automorphisms(g)
    n = g.order
    label = [-1] * n
    count = 0
    for u in range(n):
        if label[u] < 0:
            for p in automorphisms:
                label[p[u]] = count
            count += 1
    return label


# the host and branch of each isomoment-r5 benchmark pair
CATALOG_EDGES = [
    [[0, 1], [0, 2], [0, 3], [0, 4], [3, 4]],
    [[0, 1], [0, 2], [0, 4], [1, 4], [2, 3]],
    [[0, 1], [0, 2], [0, 3], [0, 4], [1, 3], [2, 4], [3, 4]],
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [1, 4], [2, 3], [3, 4]],
    [[0, 1], [0, 2], [0, 4], [1, 3]],
    [[0, 1], [0, 2], [0, 4], [1, 2], [1, 3], [1, 4], [2, 3]],
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [1, 4], [3, 4]],
    [[0, 1], [0, 2], [0, 3], [0, 4], [1, 3], [2, 3], [2, 4]],
    [[0, 1], [0, 2], [0, 3], [1, 4], [2, 3]],
    [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4]],
    [[0, 1], [0, 4], [1, 2], [1, 3], [2, 3], [3, 4]],
    [[0, 1], [0, 2], [0, 4], [1, 3], [1, 4], [2, 3], [3, 4]],
    [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3]],
    [[0, 1], [0, 3], [1, 2], [2, 4]],
    [[0, 1], [0, 4], [1, 2], [1, 3], [1, 4], [2, 3], [2, 4]],
    [[0, 1], [0, 3], [0, 4], [1, 2], [1, 3]],
]


def _orbit_cases() -> list[Graph]:
    rng = random.Random(808)
    graphs = [path_graph(n) for n in range(1, 7)]
    graphs += [cycle_graph(n) for n in range(3, 7)]
    graphs += [star_graph(leaves) for leaves in range(1, 6)]
    graphs += [diamond_graph(), complete_graph(5)]
    graphs += [Graph(range(5), map(tuple, edges)) for edges in CATALOG_EDGES]
    graphs += [host for host, _ in ISOMOMENT_PAIRS[:2]] + [b for _, b in ISOMOMENT_PAIRS[:2]]
    graphs += [_relabeled(random_connected_graph(rng, rng.randint(1, 6)), rng) for _ in range(20)]
    return graphs + [_relabeled(g, rng) for g in graphs[:15]]


@pytest.mark.parametrize("g", _orbit_cases())
def test_root_orbits_are_the_automorphism_orbits(g):
    assert isomoment_module._root_orbits(g) == _brute_force_orbits(g)


# sha256 of the stdout printed while every sigma still had its own pass;
# the branches' vertex lists are out of edge order on purpose
SYMMETRIC_GOLDEN = [
    (
        {"vertices": [77, 31, 8, 50, 5, 12],
         "edges": [[31, 5], [31, 8], [5, 77], [77, 12], [12, 50], [50, 8]]},
        1,
        "e7a8d7122a831b865f5a83cd4d20f7e57d47ffd4e9ffc8fb3d9415b2d4a86ab1",
    ),
    (
        {"vertices": [77, 31, 8, 50, 5, 12],
         "edges": [[31, 5], [31, 77], [31, 12], [31, 50], [31, 8]]},
        4,
        "9414847b887ee9216db6fd4a48193c078a823e066109722abaf46149bdd69812",
    ),
    (
        {"vertices": [77, 31, 8, 50, 5, 12],
         "edges": [[31, 5], [5, 77], [77, 12], [12, 50], [50, 8]]},
        48,
        "3fa651d7258ac2168d1d55c1cebea027570307449bbc00d199fd1005391dbb23",
    ),
]


@pytest.mark.usefixtures("no_product_bfs")
@pytest.mark.parametrize(
    "branch,classes,digest", SYMMETRIC_GOLDEN, ids=["cycle", "star", "path"]
)
def test_isomoment_symmetric_branch_stdout_is_golden(tmp_path, capsys, branch, classes, digest):
    host_path = write_json(tmp_path / "host.json", ISOMOMENT_R6_HOST)
    branch_path = write_json(tmp_path / "branch.json", branch)
    code, out, _ = run_cli(
        capsys, "isomoment", host_path, branch_path,
        "--weights", "unit,half,degree,const:7/3",
    )
    assert code == 0
    assert len(json.loads(out)["classes"]) == classes
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_isomoment_takes_one_pass_per_word(tmp_path, capsys, monkeypatch):
    # C_8 is vertex-transitive: all 8! sigmas share one word
    r = 8
    host = graph_file(tmp_path, path_graph(r), "host.json")
    branch = graph_file(tmp_path, cycle_graph(r), "branch.json")
    passes = _record_product_passes(monkeypatch)
    code, out, _ = run_cli(capsys, "isomoment", host, branch, "--weights", "unit,degree")
    assert code == 0
    payload = json.loads(out)
    assert payload["permutations"] == 40320
    assert [c["size"] for c in payload["classes"]] == [40320]
    assert len(passes) <= r


def test_isomoment_weight_file_takes_one_pass_per_sigma(tmp_path, capsys, monkeypatch):
    r = 4
    host = graph_file(tmp_path, diamond_graph(), "host.json")
    branch = graph_file(tmp_path, cycle_graph(r), "branch.json")
    w = write_json(tmp_path / "w.json", {str(v): f"{v % 3}/2" for v in range(r * r)})
    code, unit_out, _ = run_cli(capsys, "isomoment", host, branch)
    assert code == 0
    passes = _record_product_passes(monkeypatch)
    code, out, _ = run_cli(capsys, "isomoment", host, branch, "--weights", f"file:{w}")
    assert code == 0
    assert [sigma for sigma, _, _, _ in passes] == list(itertools.permutations(range(1, r + 1)))
    assert [len(signatures) for _, _, signatures, _ in passes] == [r * r] * 24
    assert json.loads(out)["classes"] == json.loads(unit_out)["classes"]


# -- isomoment by host orbits ---------------------------------------------------

# the smallest graphs whose only automorphism is the identity have 6 vertices
ASYMMETRIC_6 = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
HOST_ORBIT_PAIRS = ISOMOMENT_PAIRS + [
    (cycle_graph(5), ISOMOMENT_PAIRS[1][1]),
    (ASYMMETRIC_6, path_graph(6)),
    (cycle_graph(6), ASYMMETRIC_6),
]


@pytest.mark.parametrize(
    "branch,classes", [(path_graph(6), 11), (ASYMMETRIC_6, 60)], ids=["path", "asymmetric"]
)
def test_isomoment_takes_one_pass_per_host_orbit(tmp_path, capsys, monkeypatch, branch, classes):
    # Aut(C_6) has order 12; with an asymmetric branch every sigma has its
    # own word, and the 720 words fall into 60 orbits of 12
    host = graph_file(tmp_path, cycle_graph(6), "host.json")
    branch_path = graph_file(tmp_path, branch, "branch.json")
    passes = _record_product_passes(monkeypatch)
    code, out, _ = run_cli(capsys, "isomoment", host, branch_path, "--weights", "unit,degree")
    assert code == 0
    assert len(json.loads(out)["classes"]) == classes
    assert [len(signatures) for _, _, signatures, _ in passes] == [36] * classes


def _sampled_composition_pairs() -> list[tuple[Graph, Graph]]:
    rng = random.Random(909)
    return [
        tuple(_relabeled(random_connected_graph(rng, r), rng) for _ in range(2))
        for r in (7, 8)
    ]


@pytest.mark.parametrize(
    "host,branch",
    HOST_ORBIT_PAIRS
    + [(graph_from_json_dict(ISOMOMENT_R6_HOST), graph_from_json_dict(ISOMOMENT_R6_BRANCH))]
    + _sampled_composition_pairs(),
)
def test_product_signatures_are_the_built_products_level_signatures(host, branch):
    # every sigma up to r = 6, 300 seeded sigmas at r = 7 and 8
    r = host.order
    rng = random.Random(r)
    if r <= 6:
        sigmas = list(itertools.permutations(range(1, r + 1)))
    else:
        sigmas = [tuple(rng.sample(range(1, r + 1), r)) for _ in range(300)]
    products = isomoment_module._permutation_products(host, branch)
    for sigma in sigmas:
        adjacency, signatures, row_sums = products(sigma)
        assert adjacency == _int_adjacency(permutation_graph(host, branch, sigma).graph), sigma
        assert (signatures, row_sums) == _level_signatures(adjacency), sigma


@pytest.mark.parametrize("host,branch", HOST_ORBIT_PAIRS)
def test_orbit_labels_are_the_host_orbits_of_the_words(host, branch):
    orbit = _brute_force_orbits(branch)
    automorphisms = _automorphisms(host)
    sigmas = list(itertools.permutations(range(1, host.order + 1)))
    labels = list(isomoment_module._orbit_labels(host, branch, sigmas))
    # two words share an orbit when their least images under Aut(host) agree
    least = [
        min(tuple(orbit[sigma[i] - 1] for i in p) for p in automorphisms) for sigma in sigmas
    ]
    assert len(set(labels)) == len(set(least)) == len(set(zip(labels, least)))
    assert list(dict.fromkeys(labels)) == list(range(len(set(labels))))


@pytest.mark.parametrize("host,branch", HOST_ORBIT_PAIRS)
def test_isomoment_orbit_labels_keep_the_per_sigma_classes(tmp_path, capsys, host, branch):
    r = host.order
    host_path = graph_file(tmp_path, host, "host.json")
    branch_path = graph_file(tmp_path, branch, "branch.json")
    # a file: weight gets one pass per sigma, whatever its values
    ones = write_json(tmp_path / "w.json", {str(v): "1" for v in range(r * r)})
    code, by_label, _ = run_cli(
        capsys, "isomoment", host_path, branch_path, "--weights", "unit,degree"
    )
    assert code == 0
    code, per_sigma, _ = run_cli(
        capsys, "isomoment", host_path, branch_path, "--weights", f"file:{ones}"
    )
    assert code == 0
    assert json.loads(by_label)["classes"] == json.loads(per_sigma)["classes"]


# -- the isomoment engine as a library, against networkx ------------------------

def _networkx_classes(host: Graph, branch: Graph) -> list[list[tuple[int, ...]]]:
    """The sigmas of each class of isomorphic built products, by networkx, as first met."""
    nx = pytest.importorskip("networkx")
    classes: dict[tuple, list[tuple[object, list]]] = {}  # by degrees and neighbour degrees
    found = []
    for sigma in itertools.permutations(range(1, host.order + 1)):
        product = permutation_graph(host, branch, sigma).graph
        g = nx.Graph(product.edges())
        g.add_nodes_from(product.vertices)
        key = tuple(sorted((g.degree[v], tuple(sorted(g.degree[w] for w in g[v]))) for v in g))
        bucket = classes.setdefault(key, [])
        members = next((m for rep, m in bucket if nx.is_isomorphic(rep, g)), None)
        if members is None:
            members = []
            bucket.append((g, members))
            found.append(members)
        members.append(sigma)
    return found


@pytest.mark.parametrize("host,branch", ISOMOMENT_PAIRS)
def test_classify_partitions_the_sigmas_as_networkx_does(tmp_path, host, branch):
    r = host.order
    expected = _networkx_classes(host, branch)
    ones = write_json(tmp_path / "w.json", {str(v): "1" for v in range(r * r)})
    by_label = {"unit": parse_weight_spec("unit"), "degree": parse_weight_spec("degree")}
    per_sigma = {f"file:{ones}": parse_weight_spec(f"file:{ones}")}
    for weights in (by_label, per_sigma):
        sigmas = itertools.permutations(range(1, r + 1))
        kept, _ = isomoment_module.classify(host, branch, weights, sigmas)
        # the first sigma of each class, in enumeration order, and its size
        assert [(sigma, size) for sigma, _, size in kept] == [
            (members[0], len(members)) for members in expected
        ]
        assert sum(size for _, _, size in kept) == math.factorial(r)
    # every sigma shares a class with the first of its networkx class
    for members in expected:
        for sigma in members[1:]:
            kept, _ = isomoment_module.classify(host, branch, by_label, [members[0], sigma])
            assert [size for _, _, size in kept] == [2]


# -- JSON emit ------------------------------------------------------------------


def test_emitted_text_is_json_dumps_with_indent_2(tmp_path, capsys, monkeypatch):
    emitted = []
    emit = cli._emit_json

    def recording(obj, out=None):
        emitted.append(obj)
        emit(obj, out)

    monkeypatch.setattr(cli, "_emit_json", recording)
    rng = random.Random(1111)
    runs = [
        ["indices", graph_file(tmp_path, _relabeled(random_connected_graph(rng, n), rng)),
         "--weights", spec]
        for n, spec in [(1, "unit"), (9, "half"), (25, "degree"), (40, "const:7/3")]
    ]
    runs.append(["graft", write_json(tmp_path / "spec.json", COALESCENCE_SPEC)])
    runs += [["verify", formula, "--count", "3", "--seed", "7"] for formula in FORMULAS]
    for argv in runs:
        _, out, _ = run_cli(capsys, *argv)
        assert out == json.dumps(emitted[-1], indent=2) + "\n", argv
    # isomoment writes its classes itself, and no object reaches _emit_json
    for i, (host, branch, _, _) in enumerate(ISOMOMENT_GOLDEN):
        _, out, _ = run_cli(
            capsys, "isomoment", write_json(tmp_path / f"host{i}.json", host),
            write_json(tmp_path / f"branch{i}.json", branch), "--weights", "unit,half,degree",
        )
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    # a mismatch report carries each failing instance
    formula = verify_module.graft_moment_formula
    monkeypatch.setattr(verify_module, "graft_moment_formula", lambda spec: formula(spec) + 1)
    code, out, _ = run_cli(capsys, "verify", "theorem1", "--count", "3", "--seed", "7")
    assert code == 1
    assert [m["index"] for m in emitted[-1]["mismatches"]] == [0, 1, 2]
    assert out == json.dumps(emitted[-1], indent=2) + "\n"

    product = tmp_path / "product.json"
    run_cli(capsys, "graft", str(tmp_path / "spec.json"), "--out", str(product))
    assert product.read_text(encoding="utf-8") == json.dumps(emitted[-1], indent=2) + "\n"
    assert len(emitted) == len(runs) + 2


def _class_objects(kept) -> list[dict]:
    """Each (sigma, adjacency, size) class as the output object it prints."""
    return [
        {
            "sigma": list(sigma),
            "size": size,
            "graph": {
                "vertices": list(range(len(adjacency))),
                "edges": [[u, w] for u, ws in enumerate(adjacency) for w in ws if u < w],
            },
        }
        for sigma, adjacency, size in kept
    ]


def _isomoment_reference(host, branch, specs, count=100, seed=0) -> tuple[int, str]:
    """The exit code and stdout of isomoment as one json.dumps of the whole document."""
    r = host.order
    if r <= cli.FULL_ENUMERATION_MAX:
        sigmas, enumeration = itertools.permutations(range(1, r + 1)), "full"
    else:
        rng = random.Random(seed)
        sigmas = [tuple(rng.sample(range(1, r + 1), r)) for _ in range(count)]
        enumeration = "sampled"
    weights = {w: parse_weight_spec(w) for w in specs}
    kept, values = isomoment_module.classify(host, branch, weights, sigmas)
    all_equal = all(len(seen) == 1 for seen in values.values())
    document = {
        "order": r,
        "enumeration": enumeration,
        "permutations": sum(size for _, _, size in kept),
        "classes": _class_objects(kept),
        "moments": {
            name: cli.format_rational(*seen) if len(seen) == 1
            else sorted(map(cli.format_rational, seen))
            for name, seen in values.items()
        },
        "all_equal": all_equal,
    }
    return 0 if all_equal else 1, json.dumps(document, indent=2) + "\n"


ISOMOMENT_STREAM_CASES = [
    # r = 1: one product vertex and "edges": []
    (path_graph(1), path_graph(1), "unit,degree", (), 0),
    (path_graph(2), path_graph(2), "unit,half,degree,const:7/3", (), 0),
    (diamond_graph(), path_graph(4), "unit,degree", (), 0),
    # sampled: order 9 is past the full-enumeration cap
    (random_connected_graph(random.Random(91), 9), random_connected_graph(random.Random(92), 9),
     "unit,degree", ("--count", "3", "--seed", "5"), 0),
    # a file: weight that no two classes agree on: all_equal is false
    (diamond_graph(), cycle_graph(4), "unit,file:{dir}/w.json", (), 1),
    # weight names that need escaping, or read like the frame's own text
    (path_graph(3), cycle_graph(3), 'degree,file:{dir}/null é\\"classes": null.json', (), 0),
]


@pytest.mark.parametrize(
    "host,branch,specs,extra,code", ISOMOMENT_STREAM_CASES,
    ids=["r1", "r2", "diamond-p4", "sampled-r9", "file-unequal", "escaped-names"],
)
def test_isomoment_stdout_is_json_dumps_of_the_whole_document(
    tmp_path, capsys, host, branch, specs, extra, code
):
    for name in ("w.json", 'null é\\"classes": null.json'):
        write_json(tmp_path / name, {str(v): f"{v * v + 1}/2" for v in range(host.order**2)})
    specs = specs.format(dir=tmp_path)
    host_path = graph_file(tmp_path, host, "host.json")
    branch_path = graph_file(tmp_path, branch, "branch.json")
    got = run_cli(capsys, "isomoment", host_path, branch_path, "--weights", specs, *extra)[:2]
    count, seed = (int(extra[1]), int(extra[3])) if extra else (100, 0)
    assert got == _isomoment_reference(host, branch, specs.split(","), count, seed)
    assert got[0] == code


def test_class_writer_takes_one_template_per_shape():
    # sigma lengths 4 and 5 with 25 edges each, then 4 again with 3
    diamond, c5, p5 = diamond_graph(), cycle_graph(5), path_graph(5)
    kept = []
    for host, branch in [(diamond, diamond), (c5, p5), (diamond, diamond)]:
        sigma = tuple(range(host.order, 0, -1))
        kept += isomoment_module.classify(host, branch, {"unit": parse_weight_spec("unit")}, [sigma])[0]
    kept.append([(1, 2, 3, 4), ((1,), (0, 2), (1, 3), (2,)), 7])
    written = []
    cli._write_classes(written.append, kept)
    classes = _class_objects(kept)
    assert [len(c["graph"]["edges"]) for c in classes] == [25, 25, 25, 3]
    assert "[" + "".join(written) + "\n  ]" == json.dumps({"c": classes}, indent=2)[9:-2]


def test_isomoment_peak_memory_is_a_fraction_of_its_stdout(tmp_path, monkeypatch):
    # r = 7 golden pair: 6.7 MB of stdout; holding the whole document text
    # (and its object) peaked at 33 MB, writing class by class at 12 MB
    class Sink:
        size = 0

        def write(self, text):
            self.size += len(text)

    host_path = write_json(tmp_path / "host.json", ISOMOMENT_R7_HOST)
    branch_path = write_json(tmp_path / "branch.json", ISOMOMENT_R7_BRANCH)
    sink = Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["isomoment", host_path, branch_path, "--weights", "unit,degree"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.size > 6_000_000
    assert peak < 3 * sink.size


def test_json_text_rejects_a_bad_key_as_json_dumps_does():
    for obj in ({(1, 2): 3}, {(1, 2): [3]}):
        with pytest.raises(TypeError) as expected:
            json.dumps(obj, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json_text(obj)
        assert str(got.value) == str(expected.value)


def test_the_parser_is_built_once_and_dispatches_late(monkeypatch):
    parser = cli.build_parser()
    main(["theta", "--max-r", "1"])
    assert cli.build_parser() is parser
    # a handler replaced after the parser was built is the one that runs
    monkeypatch.setattr(cli, "cmd_theta", lambda args: 7)
    assert main(["theta"]) == 7


# -- theta ----------------------------------------------------------------------


def test_theta_table(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "theta", "--max-r", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "r=1 theta=0 row_sums=ok",
        "r=2 theta=1 row_sums=ok",
        "r=3 theta=2 row_sums=ok",
        "r=4 theta=4 row_sums=ok",
        "r=5 theta=6 row_sums=ok",
        "r=6 theta=9 row_sums=ok",
    ]
    # a wrong closed form shows on its row and in the exit code
    theta = cli.cycle_distance_row_sum
    monkeypatch.setattr(cli, "cycle_distance_row_sum", lambda r: theta(r) + (r == 5))
    code, out, _ = run_cli(capsys, "theta", "--max-r", "6")
    assert code == 1
    lines[4] = "r=5 theta=7 row_sums=MISMATCH"
    assert out.strip().splitlines() == lines


def test_theta_builds_no_distance_matrix(capsys, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("theta built a distance matrix")

    monkeypatch.setattr(graph_module.DistanceMatrix, "__init__", refuse)
    code, out, _ = run_cli(capsys, "theta", "--max-r", "12")
    assert code == 0
    assert out.count("row_sums=ok") == 12


def test_theta_rejects_bad_range(capsys):
    code, _, err = run_cli(capsys, "theta", "--max-r", "0")
    assert code == 2
    assert "error:" in err


def test_theta_caps_max_r(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "theta", "--max-r", "751")
    assert (code, out) == (3, "")
    assert err == "error: --max-r 751 exceeds cap 750\n"
    monkeypatch.setattr(cli, "THETA_MAX_R", 5)
    code, out, _ = run_cli(capsys, "theta", "--max-r", "5")
    assert code == 0
    assert out.count("row_sums=ok") == 5
    code, out, err = run_cli(capsys, "theta", "--max-r", "6")
    assert (code, out) == (3, "")
    assert err == "error: --max-r 6 exceeds cap 5\n"
