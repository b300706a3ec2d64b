"""Splicing weights across graphs glued along a common subgraph, and across
amalgams of 2-complexes glued along shared residue graphs.

Both gluings are one colimit of graphs along attachment embeddings, with one
naming rule: a glued class that holds a residue element (for a graph splice,
an element of the shared graph) is named by its smallest residue id, and
every other element by "<piece>:<id>" (the graph splice's pieces are "1" and
"2").

The graph-level recipe: on the glued graph, g adds up on shared vertices and
restricts elsewhere, while lambda rescales by the ratio g_i(dst)/(g_1+g_2)(dst)
on edges running into the shared part (and averages with those ratios on the
shared edges themselves).  The same recipe applied to the boundary graphs of
an amalgam of complexes splices standard 2D CW weights; the resulting face
coefficients are per boundary-edge instance, not per face, which is why the
output weight carries ``eta_instances``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .complexes import Face, Oriented2Complex, build_complex
from .cwweights import MODE_STANDARD, MODE_TIGHT, Rank2Weight, verify_rank2
from .errors import InputError
from .exact import scalar_eq, scalar_sign
from .graphs import DirectedGraph, Edge, build_graph, spec_fields, spec_id, spec_ids, spec_list, spec_object
from .solver import DEFAULT_TOL, GraphWeight


@dataclass(frozen=True)
class GraphEmbedding:
    """Injective graph morphism preserving sources and targets."""

    source: DirectedGraph
    target: DirectedGraph
    vertex_map: dict
    edge_map: dict

    def validate(self) -> None:
        vm, em = self.vertex_map, self.edge_map
        if set(vm.keys()) != set(self.source.vertices):
            raise InputError("vertex map is not total on the source graph")
        if set(em.keys()) != set(self.source.edge_ids()):
            raise InputError("edge map is not total on the source graph")
        if len(set(vm.values())) != len(vm):
            raise InputError("vertex map is not injective")
        if len(set(em.values())) != len(em):
            raise InputError("edge map is not injective")
        for v, tv in vm.items():
            if not self.target.has_vertex(tv):
                raise InputError(f"vertex image {tv!r} not in target")
        for e, te in em.items():
            if not self.target.has_edge(te):
                raise InputError(f"edge image {te!r} not in target")
            if self.target.src(te) != vm[self.source.src(e)] or self.target.dst(te) != vm[self.source.dst(e)]:
                raise InputError(f"edge {e!r} does not commute with src/dst under the maps")


@dataclass
class Attachment:
    piece: str
    residue: str
    embedding: GraphEmbedding


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _colimit(pieces: dict[str, DirectedGraph], attachments: list[Attachment]) -> tuple[DirectedGraph, dict, dict]:
    """The piece graphs glued along the attachment embeddings and named by
    the module's rule: the glued graph and, per piece, its vertex and edge
    name maps.  Elements are listed piece by piece, each class where it is
    first met.  Only attachment images enter the union-find; every other
    element is named directly."""
    ufs = (_UnionFind(), _UnionFind())
    for att in attachments:
        for uf, m in zip(ufs, (att.embedding.vertex_map, att.embedding.edge_map)):
            for sid, tid in m.items():
                uf.union(("piece", att.piece, tid), ("res", att.residue, sid))
    class_names: tuple[dict, dict] = ({}, {})  # root -> smallest residue id
    image_roots: tuple[dict, dict] = ({}, {})  # piece -> image id -> root
    for uf, names, images, kind in zip(ufs, class_names, image_roots, ("vertices", "edges")):
        members: dict = {}  # (residue, root) -> the residue's element in that class
        for token in list(uf.parent):
            tag, owner, eid = token
            root = uf.find(token)
            if tag == "piece":
                images.setdefault(owner, {})[eid] = root
                continue
            if members.setdefault((owner, root), eid) != eid:
                # gluing must stay injective on each residue
                raise InputError(
                    f"residue {owner!r}: {kind} {members[(owner, root)]!r} and {eid!r} collapsed"
                )
            best = names.setdefault(root, eid)
            if type(eid) is not type(best):
                raise InputError(f"residue ids {best!r} and {eid!r} name one element")
            if eid < best:
                names[root] = eid

    vowner: dict = {}  # glued id -> its root, None if named directly
    eowner: dict = {}
    edges: list[Edge] = []
    vmaps: dict = {}
    emaps: dict = {}
    for piece, graph in pieces.items():
        vroots, eroots = image_roots[0].get(piece, {}), image_roots[1].get(piece, {})
        vmap = vmaps[piece] = {}
        for v in graph.vertices:
            root = vroots.get(v)
            name = vmap[v] = f"{piece}:{v}" if root is None else class_names[0][root]
            if name not in vowner:
                vowner[name] = root
            elif root is None or vowner[name] != root:
                raise InputError(f"distinct elements both resolve to id {name!r}")
        emap = emaps[piece] = {}
        for e in graph.edges:
            root = eroots.get(e.id)
            name = emap[e.id] = f"{piece}:{e.id}" if root is None else class_names[1][root]
            if name not in eowner:
                eowner[name] = root
                edges.append(Edge(name, vmap[e.src], vmap[e.dst]))
            elif root is None or eowner[name] != root:
                raise InputError(f"distinct elements both resolve to id {name!r}")
    return DirectedGraph(tuple(vowner), tuple(edges)), vmaps, emaps


@dataclass
class SplicedGraph:
    """Pushout of two graphs along a shared subgraph, with the renaming maps
    from each piece into the result."""

    graph: DirectedGraph
    vertex_names: tuple[dict, dict]  # piece index -> original id -> glued id
    edge_names: tuple[dict, dict]
    shared_vertices: frozenset
    shared_edges: frozenset


def glue_graphs(emb1: GraphEmbedding, emb2: GraphEmbedding) -> SplicedGraph:
    """The colimit of the shared graph, as piece "0" attached to itself by
    the identity, and the two targets, as pieces "1" and "2"."""
    if emb1.source != emb2.source:
        raise InputError("embeddings must share their source graph")
    emb1.validate()
    emb2.validate()
    gamma = emb1.source
    vertices, edge_ids = gamma.vertices, gamma.edge_ids()
    identity = GraphEmbedding(gamma, gamma, dict(zip(vertices, vertices)), dict(zip(edge_ids, edge_ids)))
    pieces = {"0": gamma, "1": emb1.target, "2": emb2.target}
    attachments = [Attachment(p, "shared", emb) for p, emb in zip(pieces, (identity, emb1, emb2))]
    try:
        graph, vmaps, emaps = _colimit(pieces, attachments)
    except InputError as exc:
        raise InputError(f"id collision while gluing: {exc}") from exc
    return SplicedGraph(
        graph=graph,
        vertex_names=(vmaps["1"], vmaps["2"]),
        edge_names=(emaps["1"], emaps["2"]),
        shared_vertices=frozenset(vertices),
        shared_edges=frozenset(edge_ids),
    )


@dataclass
class GraphSpliceResult:
    glued: SplicedGraph
    weight: GraphWeight


def splice_graph_weights(
    w1: GraphWeight,
    w2: GraphWeight,
    emb1: GraphEmbedding,
    emb2: GraphEmbedding,
) -> GraphSpliceResult:
    """Combine faithful graph weights along a shared subgraph.

    g adds on shared vertices; lambda is rescaled on edges whose head lies in
    the shared part and averaged (with g-ratio weights) on shared edges.  The
    output satisfies the weight equation exactly in rational arithmetic.
    """
    for w, emb, name in ((w1, emb1, "first"), (w2, emb2, "second")):
        if not w.is_total_on(emb.target):
            raise InputError(f"{name} weight is not total on its graph")
        if not all(scalar_sign(w.g[v]) > 0 for v in emb.target.vertices):
            raise InputError(f"{name} weight must have strictly positive g")
    for v in emb1.source.vertices:
        s1 = emb1.target.is_sink(emb1.vertex_map[v])
        s2 = emb2.target.is_sink(emb2.vertex_map[v])
        if s1 != s2:
            # a one-sided sink would leave its g contribution unmatched in
            # the glued weight equation
            raise InputError(
                f"shared vertex {v!r} is a sink in one piece but not the other"
            )
    spliced = glue_graphs(emb1, emb2)
    shared = spliced.shared_vertices
    gamma = emb1.source
    g = {v: w1.g[emb1.vertex_map[v]] + w2.g[emb2.vertex_map[v]] for v in gamma.vertices}
    lam = {
        e.id: (w1.lam[emb1.edge_map[e.id]] * w1.g[emb1.vertex_map[e.dst]]
               + w2.lam[emb2.edge_map[e.id]] * w2.g[emb2.vertex_map[e.dst]]) / g[e.dst]
        for e in gamma.edges
    }
    for w, emb, vm, em in zip((w1, w2), (emb1, emb2), spliced.vertex_names, spliced.edge_names):
        g.update((vm[v], w.g[v]) for v in emb.target.vertices if vm[v] not in shared)
        for e in emb.target.edges:
            if em[e.id] not in spliced.shared_edges:
                head = vm[e.dst]
                lam[em[e.id]] = w.lam[e.id] * w.g[e.dst] / g[head] if head in shared else w.lam[e.id]
    return GraphSpliceResult(glued=spliced, weight=GraphWeight(g=g, lam=lam))


# ---------------------------------------------------------------------------
# Amalgams of 2-complexes
# ---------------------------------------------------------------------------

@dataclass
class Amalgam:
    """Pieces glued along residue graphs via attachment embeddings, together
    with the assembled foundation complex and the renaming maps."""

    pieces: dict[str, Oriented2Complex]
    foundation: Oriented2Complex
    vertex_names: dict  # (piece, vertex) -> foundation vertex id
    edge_names: dict    # (piece, edge) -> foundation edge id
    face_names: dict    # (piece, face) -> foundation face id


def build_amalgam(spec: dict) -> Amalgam:
    """Assemble the foundation complex: the colimit of the piece skeletons
    along the residue attachments, with every piece's faces renamed
    "<piece>:<id>".  Faces are never identified (residues are
    one-dimensional).  A lone piece without attachments keeps its raw ids."""
    spec_object(spec, "amalgam spec")
    pieces = {
        name: build_complex(spec_object(cspec, f"piece {name!r}"))
        for name, cspec in spec_object(spec.get("pieces", {}), "pieces").items()
    }
    residues = {
        name: build_graph(spec_object(gspec, f"residue {name!r}"))
        for name, gspec in spec_object(spec.get("residues", {}), "residues").items()
    }
    attachments = []
    for rec in spec_list(spec.get("attachments", []), "attachments"):
        pname, rname, vertex_map, edge_map = spec_fields(
            rec, "attachment record", "piece", "residue", "vertex_map", "edge_map"
        )
        if spec_id(pname, "attachment piece") not in pieces:
            raise InputError(f"attachment references unknown piece {pname!r}")
        if spec_id(rname, "attachment residue") not in residues:
            raise InputError(f"attachment references unknown residue {rname!r}")
        vertex_map = dict(spec_object(vertex_map, "attachment vertex_map"))
        edge_map = dict(spec_object(edge_map, "attachment edge_map"))
        spec_ids((*vertex_map.values(), *edge_map.values()), "attachment map image")
        emb = GraphEmbedding(
            source=residues[rname],
            target=pieces[pname].skeleton,
            vertex_map=vertex_map,
            edge_map=edge_map,
        )
        try:
            emb.validate()
        except InputError as exc:
            raise InputError(f"attachment {pname!r}<-{rname!r}: {exc}") from exc
        attachments.append(Attachment(pname, rname, emb))

    if len(pieces) == 1 and not attachments:
        (pname, piece), = pieces.items()
        vertex_names = {(pname, v): v for v in piece.skeleton.vertices}
        edge_names = {(pname, e): e for e in piece.skeleton.edge_ids()}
        face_names = {(pname, f.id): f.id for f in piece.faces}
        return Amalgam(pieces, piece, vertex_names, edge_names, face_names)

    skeleton, vmaps, emaps = _colimit({p: c.skeleton for p, c in pieces.items()}, attachments)
    vertex_names = {(p, v): name for p, m in vmaps.items() for v, name in m.items()}
    edge_names = {(p, e): name for p, m in emaps.items() for e, name in m.items()}
    face_names = {(p, f.id): f"{p}:{f.id}" for p, c in pieces.items() for f in c.faces}
    for fname, count in Counter(face_names.values()).items():
        if count > 1:
            raise InputError(f"distinct faces both resolve to id {fname!r}")
    faces = tuple(
        Face(face_names[(p, f.id)], tuple(emaps[p][eid] for eid in f.boundary))
        for p, c in pieces.items()
        for f in c.faces
    )
    foundation = Oriented2Complex(skeleton, faces)
    return Amalgam(pieces, foundation, vertex_names, edge_names, face_names)


def splice_cw_weights(am: Amalgam, weights: dict[str, Rank2Weight], tol=DEFAULT_TOL) -> Rank2Weight:
    """Assemble a standard-mode weight on the foundation out of verified
    faithful standard-mode weights on the pieces.

    g and lam add over the copies a foundation element has in the pieces;
    the skeleton coupling then forces lt = lam / (g o dst), and each face
    instance coefficient becomes eta_p(face) * lam_p(next) / lam(next),
    which reduces to eta_p(face) away from the shared part.  Tight inputs
    are rejected: adding lam across pieces is incompatible with lam = lt.
    """
    for pname, piece in am.pieces.items():
        if pname not in weights:
            raise InputError(f"no weight supplied for piece {pname!r}")
        w = weights[pname]
        if w.mode == MODE_TIGHT:
            raise InputError("tight-mode weights cannot be spliced; the summed lambda breaks lam = lambda_tilde")
        if w.mode != MODE_STANDARD:
            raise InputError(f"piece {pname!r}: splicing requires standard-mode weights")
        report = verify_rank2(piece, w, tol)
        if not report.passed:
            raise InputError(f"piece {pname!r}: weight fails verification (max residual {report.max_residual:.3g})")
        if not report.faithful:
            raise InputError(f"piece {pname!r}: weight is not faithful")

    # matching sink structure across the copies of each foundation vertex,
    # for the same reason as in the graph splice
    sink_status: dict = {}
    for (pname, v), name in am.vertex_names.items():
        s = am.pieces[pname].skeleton.is_sink(v)
        if name in sink_status and sink_status[name] != s:
            raise InputError(
                f"foundation vertex {name!r} is a sink in one piece but not another"
            )
        sink_status[name] = s

    fd = am.foundation
    g: dict = {}
    for (pname, v), name in am.vertex_names.items():
        val = weights[pname].g[v]
        g[name] = val if name not in g else g[name] + val
    lam: dict = {}
    for (pname, e), name in am.edge_names.items():
        val = weights[pname].lam[e]
        lam[name] = val if name not in lam else lam[name] + val
    shared = {name for name, n in Counter(am.edge_names.values()).items() if n > 1}
    g_inv = {v: 1 / g[v] for v in {e.dst for e in fd.skeleton.edges}}
    lt = {e.id: lam[e.id] * g_inv[e.dst] for e in fd.skeleton.edges}

    eta_instances: dict = {}
    eta: dict = {}
    lam_inv: dict = {}  # of the shared edges met in face words
    piece_of_face = {fname: key for key, fname in am.face_names.items()}
    for f in fd.faces:
        pname, orig_fid = piece_of_face[f.id]
        orig_face = am.pieces[pname].face(orig_fid)
        w = weights[pname]
        n = len(f.boundary)
        vals = []
        for k in range(n):
            next_name = f.boundary[(k + 1) % n]
            val = w.eta_at(orig_fid, k)
            # an unshared lam[next] is the piece's own value: the ratio is 1
            if next_name in shared:
                if next_name not in lam_inv:
                    lam_inv[next_name] = 1 / lam[next_name]
                val = val * w.lam[orig_face.boundary[(k + 1) % n]] * lam_inv[next_name]
            eta_instances[(f.id, k)] = val
            vals.append(val)
        if vals and all(scalar_eq(v, vals[0]) for v in vals[1:]):
            eta[f.id] = vals[0]
    return Rank2Weight(
        g=g,
        lambda_tilde=lt,
        lam=lam,
        eta=eta,
        mode=MODE_STANDARD,
        eta_instances=eta_instances,
    )
