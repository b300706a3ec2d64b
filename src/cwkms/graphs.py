"""Finite directed multigraphs with stable vertex and edge order.

Graphs are immutable after construction and every derived object (out-edge
lists, adjacency matrices, reports) uses the insertion order of the input,
so repeated runs produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InputError


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


@dataclass(frozen=True)
class DirectedGraph:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    labels: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_vset", frozenset(self.vertices))
        object.__setattr__(self, "_edge_by_id", {e.id: e for e in self.edges})
        out: dict[str, list[str]] = {v: [] for v in self.vertices}
        for e in self.edges:
            out[e.src].append(e.id)
        object.__setattr__(self, "_out", {v: tuple(ids) for v, ids in out.items()})

    def has_vertex(self, v: str) -> bool:
        return v in self._vset

    def has_edge(self, eid: str) -> bool:
        return eid in self._edge_by_id

    def src(self, eid: str) -> str:
        return self._edge_by_id[eid].src

    def dst(self, eid: str) -> str:
        return self._edge_by_id[eid].dst

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.edges)

    def out_edges(self, v: str) -> tuple[str, ...]:
        return self._out[v]

    def is_sink(self, v: str) -> bool:
        return not self._out[v]

    def non_sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self.is_sink(v))


def build_graph(spec: dict) -> DirectedGraph:
    """Build and validate a graph from its description record.

    Expected shape: ``{"vertices": [...], "edges": [{"id","src","dst"}...]}``
    with optional ``labels``.  Vertices referenced by edges must be declared.
    """
    spec_object(spec, "graph spec")
    vertices = list(spec_ids(spec.get("vertices", []), "vertices"))
    seen = set()
    for v in vertices:
        if v in seen:
            raise InputError(f"duplicate vertex id {v!r}")
        seen.add(v)
    edges = []
    eseen = set()
    for rec in spec_list(spec.get("edges", []), "edges"):
        eid, src, dst = spec_ids(spec_fields(rec, "edge record", "id", "src", "dst"), "edge record")
        if eid in eseen:
            raise InputError(f"duplicate edge id {eid!r}")
        eseen.add(eid)
        if src not in seen:
            raise InputError(f"edge {eid!r} has unknown source {src!r}")
        if dst not in seen:
            raise InputError(f"edge {eid!r} has unknown target {dst!r}")
        edges.append(Edge(eid, src, dst))
    labels = spec_object(spec.get("labels", {}), "labels")
    return DirectedGraph(tuple(vertices), tuple(edges), dict(labels))


# Shape checks shared by the spec builders: a spec read from JSON may hold
# any JSON value at any place, and a wrong one is malformed input.

def spec_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def spec_fields(record, what: str, *keys: str) -> tuple:
    """The values of the required fields ``keys`` of a spec record."""
    spec_object(record, what)
    try:
        return tuple(map(record.__getitem__, keys))
    except KeyError as exc:
        raise InputError(f"{what} has no field {exc.args[0]!r}") from None


def spec_list(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


def spec_id(value, what: str):
    """An id names a vertex, edge, face or point: a string or an integer,
    not a bool."""
    if not isinstance(value, (str, int)) or isinstance(value, bool):
        raise InputError(f"{what}: {value!r} is not a string or integer id")
    return value


def spec_ids(value, what: str) -> list:
    for v in spec_list(value, what):
        spec_id(v, what)
    return value


def spec_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def adjacency_counts(graph: DirectedGraph) -> list[list[int]]:
    """Edge multiplicity matrix m[i][j] = number of edges v_i -> v_j in the
    stable vertex order."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    n = len(graph.vertices)
    m = [[0] * n for _ in range(n)]
    for e in graph.edges:
        m[index[e.src]][index[e.dst]] += 1
    return m


def graph_to_dict(graph: DirectedGraph) -> dict:
    out = {
        "vertices": list(graph.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in graph.edges],
    }
    if graph.labels:
        out["labels"] = dict(graph.labels)
    return out
