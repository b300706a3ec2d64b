"""Directed multigraph construction and queries."""

import json
import random

import pytest

from cwkms.buildings import presentation_from_spec
from cwkms.complexes import build_complex
from cwkms.errors import InputError
from cwkms.fixtures import FIG_B_SPEC
from cwkms.graphs import adjacency_counts, build_graph, graph_to_dict
from cwkms.splicing import build_amalgam

from .conftest import random_graph


def test_single_loop():
    g = build_graph({"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]})
    assert len(g.vertices) == 1 and len(g.edges) == 1
    assert adjacency_counts(g) == [[1]]


def test_figb_skeleton_counts():
    g = build_graph(FIG_B_SPEC)
    assert len(g.vertices) == 5 and len(g.edges) == 6
    # six unit entries at the prescribed positions, in vertex order u,x,y,v,z
    idx = {v: i for i, v in enumerate(g.vertices)}
    m = adjacency_counts(g)
    expected = {("u", "x"), ("x", "y"), ("y", "v"), ("v", "u"), ("u", "z"), ("z", "v")}
    ones = {(a, b) for a in g.vertices for b in g.vertices if m[idx[a]][idx[b]] == 1}
    assert ones == expected
    assert sum(sum(row) for row in m) == 6


def test_dangling_endpoint_rejected():
    with pytest.raises(InputError, match="edge 'g' has unknown target 'w'"):
        build_graph({"vertices": ["u"], "edges": [{"id": "g", "src": "u", "dst": "w"}]})


def test_duplicate_ids_rejected():
    with pytest.raises(InputError, match="duplicate vertex id 'u'"):
        build_graph({"vertices": ["u", "u"], "edges": []})
    with pytest.raises(InputError, match="duplicate edge id 'e'"):
        build_graph({
            "vertices": ["u"],
            "edges": [
                {"id": "e", "src": "u", "dst": "u"},
                {"id": "e", "src": "u", "dst": "u"},
            ],
        })


def test_edge_bundles_on_figb():
    g = build_graph(FIG_B_SPEC)
    assert set(g.out_edges("u")) == {"a", "e"}
    assert g.out_edges("x") == ("b",)


def test_sink_has_empty_bundle():
    g = build_graph({"vertices": ["w", "u"], "edges": [{"id": "e", "src": "u", "dst": "w"}]})
    assert g.out_edges("w") == () and g.is_sink("w")


def test_bundle_sizes_sum_to_edge_count():
    rng = random.Random(5)
    for _ in range(25):
        g = random_graph(rng)
        assert sum(len(g.out_edges(v)) for v in g.vertices) == len(g.edges)


def test_adjacency_row_sums_equal_bundle_sizes():
    rng = random.Random(6)
    for _ in range(25):
        g = random_graph(rng)
        m = adjacency_counts(g)
        for i, v in enumerate(g.vertices):
            assert sum(m[i]) == len(g.out_edges(v))


def test_json_roundtrip_is_identity():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng)
        g2 = build_graph(json.loads(json.dumps(graph_to_dict(g))))
        assert g2 == g
        assert g2.vertices == g.vertices and g2.edges == g.edges


def test_stable_order_preserved():
    spec = {
        "vertices": ["b", "a", "c"],
        "edges": [{"id": "e2", "src": "c", "dst": "a"}, {"id": "e1", "src": "a", "dst": "b"}],
    }
    g = build_graph(spec)
    assert g.vertices == ("b", "a", "c")
    assert g.edge_ids() == ("e2", "e1")


@pytest.mark.parametrize(
    "builder, spec",
    [
        ("graph", [1]),
        ("graph", {"vertices": ["u"], "edges": [1]}),
        ("graph", {"vertices": 5}),
        ("graph", {"vertices": [{"u": 1}]}),
        ("graph", {"vertices": ["u"], "edges": [{"id": ["e"], "src": "u", "dst": "u"}]}),
        ("graph", {"vertices": ["u"], "labels": "x"}),
        ("complex", {**FIG_B_SPEC, "faces": {"s1": ["a"]}}),
        ("complex", {**FIG_B_SPEC, "faces": [{"id": "s1", "boundary": [["a"]]}]}),
        ("amalgam", {"pieces": [1]}),
        ("amalgam", {"pieces": {"p": FIG_B_SPEC}, "residues": {"r": 0}}),
        ("amalgam", {"pieces": {"p": FIG_B_SPEC}, "attachments": [{"piece": {}, "residue": "r"}]}),
        ("presentation", {"q": 2.0, "points": [], "lines": [], "lambda": {}, "triples": []}),
        ("presentation", {"q": 2, "points": [None], "lines": [], "lambda": {}, "triples": []}),
        ("presentation", {"q": 2, "points": [], "lines": [{}], "lambda": {}, "triples": []}),
    ],
)
def test_spec_builders_reject_wrong_inner_types(builder, spec):
    build = {
        "graph": build_graph,
        "complex": build_complex,
        "amalgam": build_amalgam,
        "presentation": presentation_from_spec,
    }[builder]
    with pytest.raises(InputError):
        build(spec)
