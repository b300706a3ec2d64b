"""Oriented finite 2-dimensional CW complexes and their derived graphs.

A complex is a directed 1-skeleton plus faces, each face carrying a cyclic
boundary word of edges in which consecutive edges chain head to tail.  The
boundary graph has one vertex per skeleton edge and one edge per consecutive
pair inside a face word; the predecessor graph is its reversal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InputError
from .graphs import DirectedGraph, Edge, build_graph, graph_to_dict, spec_fields, spec_id, spec_ids, spec_list


class ShortFaceWarning(UserWarning):
    """Raised for boundary words of length 1 or 2, which are accepted but
    uncommon enough to flag."""


@dataclass(frozen=True)
class Face:
    id: str
    boundary: tuple[str, ...]  # cyclic word of edge ids, fixed starting edge


@dataclass(frozen=True)
class Oriented2Complex:
    skeleton: DirectedGraph
    faces: tuple[Face, ...]

    @cached_property
    def _faces_by_id(self) -> dict[str, Face]:
        return {f.id: f for f in self.faces}

    def face(self, fid: str) -> Face:
        return self._faces_by_id[fid]


@dataclass(frozen=True)
class LabeledBoundaryGraph:
    """Derived graph whose vertices are the skeleton edges.

    ``labels`` maps each derived edge id to (face id, position): position k
    records that the derived edge joins word[k] to word[k+1 mod n].
    """

    graph: DirectedGraph
    labels: dict[str, tuple[str, int]] = field(compare=False, default_factory=dict)


def build_complex(spec: dict) -> Oriented2Complex:
    """Validate and build a complex from a graph spec plus face words."""
    skeleton = build_graph(spec)
    faces = []
    seen = set()
    for rec in spec_list(spec.get("faces", []), "faces"):
        fid, word = spec_fields(rec, "face record", "id", "boundary")
        spec_id(fid, "face id")
        word = tuple(spec_ids(word, f"boundary of face {fid!r}"))
        if fid in seen:
            raise InputError(f"duplicate face id {fid!r}")
        seen.add(fid)
        if not word:
            raise InputError(f"face {fid!r} has an empty boundary word")
        for eid in word:
            if not skeleton.has_edge(eid):
                raise InputError(f"face {fid!r} references unknown edge {eid!r}")
        n = len(word)
        for i in range(n):
            e_cur, e_next = word[i], word[(i + 1) % n]
            if skeleton.dst(e_cur) != skeleton.src(e_next):
                raise InputError(
                    f"face {fid!r}: edge {e_cur!r} ends at {skeleton.dst(e_cur)!r} "
                    f"but {e_next!r} starts at {skeleton.src(e_next)!r}"
                )
        if n < 3:
            warnings.warn(
                f"face {fid!r} has a boundary word of length {n}", ShortFaceWarning
            )
        faces.append(Face(fid, word))
    return Oriented2Complex(skeleton, tuple(faces))


def boundary_graph(c: Oriented2Complex) -> LabeledBoundaryGraph:
    """One vertex per skeleton edge; one derived edge e1 -> e2 for every
    instance in which e2 follows e1 inside some face word.  Edge order is by
    (face order, position), so the construction is deterministic."""
    vertices = list(c.skeleton.edge_ids())
    edges = []
    labels = {}
    for f in c.faces:
        n = len(f.boundary)
        for k in range(n):
            e1, e2 = f.boundary[k], f.boundary[(k + 1) % n]
            eid = f"{f.id}:{k}"
            edges.append(Edge(eid, e1, e2))
            labels[eid] = (f.id, k)
    return LabeledBoundaryGraph(DirectedGraph(tuple(vertices), tuple(edges)), labels)


def predecessor_graph(c: Oriented2Complex) -> LabeledBoundaryGraph:
    """The boundary graph with every edge reversed, labels preserved."""
    bg = boundary_graph(c)
    rev = tuple(Edge(e.id, e.dst, e.src) for e in bg.graph.edges)
    return LabeledBoundaryGraph(DirectedGraph(bg.graph.vertices, rev), dict(bg.labels))


def complex_to_dict(c: Oriented2Complex) -> dict:
    out = graph_to_dict(c.skeleton)
    out["faces"] = [{"id": f.id, "boundary": list(f.boundary)} for f in c.faces]
    return out
