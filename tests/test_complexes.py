"""Oriented 2-complexes and their derived graphs."""

import json

import pytest

from cwkms.complexes import (
    ShortFaceWarning,
    boundary_graph,
    build_complex,
    complex_to_dict,
    predecessor_graph,
)
from cwkms.errors import InputError
from cwkms.fixtures import FIG_B_SPEC, monogon_triangle_spec
from cwkms.graphs import adjacency_counts


def test_figb_builds(figb):
    assert len(figb.faces) == 2
    assert figb.faces[0].boundary == ("a", "b", "c", "d")
    assert figb.faces[1].boundary == ("d", "e", "f")


def test_monogon_complex_builds():
    c = build_complex(monogon_triangle_spec())
    assert len(c.faces) == 1 and len(c.skeleton.edges) == 3


def test_broken_boundary_word():
    spec = {
        "vertices": ["u", "x", "y"],
        "edges": [
            {"id": "a", "src": "u", "dst": "x"},
            {"id": "b", "src": "y", "dst": "u"},
        ],
        "faces": [{"id": "s", "boundary": ["a", "b"]}],
    }
    with pytest.raises(InputError, match="edge 'a' ends at 'x' but 'b' starts at 'y'"):
        build_complex(spec)


def test_unknown_edge_in_face():
    spec = dict(FIG_B_SPEC)
    spec["faces"] = [{"id": "s", "boundary": ["a", "nope"]}]
    with pytest.raises(InputError, match="references unknown edge 'nope'"):
        build_complex(spec)


def test_short_face_warns():
    spec = {
        "vertices": ["v"],
        "edges": [{"id": "e", "src": "v", "dst": "v"}],
        "faces": [{"id": "s", "boundary": ["e"]}],
    }
    with pytest.warns(ShortFaceWarning):
        build_complex(spec)


def test_figb_boundary_graph(figb_boundary):
    bg = figb_boundary
    assert bg.graph.vertices == ("a", "b", "c", "d", "e", "f")
    arrows = {(e.src, e.dst) for e in bg.graph.edges}
    assert arrows == {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("d", "e"), ("e", "f"), ("f", "d")}
    assert len(bg.graph.edges) == 7
    # labels identify face and position
    assert bg.labels["s1:0"] == ("s1", 0)
    assert bg.labels["s2:2"] == ("s2", 2)


def test_predecessor_graph_reverses(figb):
    pg = predecessor_graph(figb)
    arrows = {(e.src, e.dst) for e in pg.graph.edges}
    assert arrows == {("b", "a"), ("c", "b"), ("d", "c"), ("a", "d"), ("e", "d"), ("f", "e"), ("d", "f")}


def test_predecessor_is_transpose(figb, gamma_complex):
    for c in (figb, gamma_complex):
        mb = adjacency_counts(boundary_graph(c).graph)
        mp = adjacency_counts(predecessor_graph(c).graph)
        n = len(mb)
        assert all(mb[i][j] == mp[j][i] for i in range(n) for j in range(n))


def test_gamma_boundary_size(gamma_complex):
    bg = boundary_graph(gamma_complex)
    assert len(bg.graph.vertices) == 7
    assert len(bg.graph.edges) == 21


def test_no_faces_gives_empty_boundary():
    spec = {k: v for k, v in FIG_B_SPEC.items() if k != "faces"}
    c = build_complex(spec)
    bg = boundary_graph(c)
    assert len(bg.graph.vertices) == 6 and len(bg.graph.edges) == 0
    assert all(bg.graph.is_sink(v) for v in bg.graph.vertices)


def test_every_edge_in_a_face_means_no_boundary_sinks(figb, gamma_complex):
    for c in (figb, gamma_complex):
        bg = boundary_graph(c)
        used = {e for f in c.faces for e in f.boundary}
        for v in bg.graph.vertices:
            if v in used:
                assert not bg.graph.is_sink(v)


def test_roundtrip_serialization(figb):
    again = build_complex(json.loads(json.dumps(complex_to_dict(figb))))
    assert again == figb

