"""Splicing weights across graphs glued along a common subgraph, and across
amalgams of 2-complexes glued along shared residue graphs.

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
from .errors import BadEmbedding, IncompatibleAttachment, ModeError, NotFaithful
from .exact import scalar_eq, scalar_sign
from .graphs import DirectedGraph, Edge, build_graph, spec_id, spec_ids, spec_list, spec_object
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
            raise BadEmbedding("vertex map is not total on the source graph")
        if set(em.keys()) != set(self.source.edge_ids()):
            raise BadEmbedding("edge map is not total on the source graph")
        if len(set(vm.values())) != len(vm):
            raise BadEmbedding("vertex map is not injective")
        if len(set(em.values())) != len(em):
            raise BadEmbedding("edge map is not injective")
        for v, tv in vm.items():
            if not self.target.has_vertex(tv):
                raise BadEmbedding(f"vertex image {tv!r} not in target")
        for e, te in em.items():
            if not self.target.has_edge(te):
                raise BadEmbedding(f"edge image {te!r} not in target")
            if self.target.src(te) != vm[self.source.src(e)] or self.target.dst(te) != vm[self.source.dst(e)]:
                raise BadEmbedding(f"edge {e!r} does not commute with src/dst under the maps")


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
    """Union of the two targets identified along the common source graph.

    Identified elements keep the source graph's ids; everything else is
    prefixed with its piece index, which keeps output diffable."""
    if emb1.source != emb2.source:
        raise BadEmbedding("embeddings must share their source graph")
    emb1.validate()
    emb2.validate()
    gamma = emb1.source
    vertices, edges = list(gamma.vertices), list(gamma.edges)
    vmaps: list[dict] = []
    emaps: list[dict] = []
    for idx, emb in ((1, emb1), (2, emb2)):
        # the image keeps the source ids; every other element is the piece's own
        vmap = {tv: sv for sv, tv in emb.vertex_map.items()}
        for v in emb.target.vertices:
            if v not in vmap:
                vmap[v] = f"{idx}:{v}"
                vertices.append(vmap[v])
        emap = {te: se for se, te in emb.edge_map.items()}
        for e in emb.target.edges:
            if e.id not in emap:
                emap[e.id] = f"{idx}:{e.id}"
                edges.append(Edge(emap[e.id], vmap[e.src], vmap[e.dst]))
        vmaps.append(vmap)
        emaps.append(emap)
    if len(set(vertices)) != len(vertices) or len({e.id for e in edges}) != len(edges):
        raise BadEmbedding("id collision while gluing; avoid raw ids of the form '1:...'")
    graph = DirectedGraph(tuple(vertices), tuple(edges))
    return SplicedGraph(
        graph=graph,
        vertex_names=(vmaps[0], vmaps[1]),
        edge_names=(emaps[0], emaps[1]),
        shared_vertices=frozenset(gamma.vertices),
        shared_edges=frozenset(gamma.edge_ids()),
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
            raise NotFaithful(f"{name} weight is not total on its graph")
        if not all(scalar_sign(w.g[v]) > 0 for v in emb.target.vertices):
            raise NotFaithful(f"{name} weight must have strictly positive g")
    for v in emb1.source.vertices:
        s1 = emb1.target.is_sink(emb1.vertex_map[v])
        s2 = emb2.target.is_sink(emb2.vertex_map[v])
        if s1 != s2:
            # a one-sided sink would leave its g contribution unmatched in
            # the glued weight equation
            raise BadEmbedding(
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
class Attachment:
    piece: str
    residue: str
    embedding: GraphEmbedding


@dataclass
class Amalgam:
    """Pieces glued along residue graphs via attachment embeddings, together
    with the assembled foundation complex and the renaming maps."""

    pieces: dict[str, Oriented2Complex]
    residues: dict[str, DirectedGraph]
    attachments: list[Attachment]
    foundation: Oriented2Complex
    vertex_names: dict  # (piece, vertex) -> foundation vertex id
    edge_names: dict    # (piece, edge) -> foundation edge id
    face_names: dict    # (piece, face) -> foundation face id


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


def build_amalgam(spec: dict) -> Amalgam:
    """Assemble the foundation complex: disjoint union of the pieces with
    skeleton elements identified along the residue attachments.  Faces are
    never identified (residues are one-dimensional)."""
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
        spec_object(rec, "attachment record")
        pname = spec_id(rec["piece"], "attachment piece")
        rname = spec_id(rec["residue"], "attachment residue")
        if pname not in pieces:
            raise IncompatibleAttachment(f"attachment references unknown piece {pname!r}")
        if rname not in residues:
            raise IncompatibleAttachment(f"attachment references unknown residue {rname!r}")
        vertex_map, edge_map = (
            dict(spec_object(rec[key], f"attachment {key}")) for key in ("vertex_map", "edge_map")
        )
        spec_ids((*vertex_map.values(), *edge_map.values()), "attachment map image")
        emb = GraphEmbedding(
            source=residues[rname],
            target=pieces[pname].skeleton,
            vertex_map=vertex_map,
            edge_map=edge_map,
        )
        try:
            emb.validate()
        except BadEmbedding as exc:
            raise IncompatibleAttachment(f"attachment {pname!r}<-{rname!r}: {exc}") from exc
        attachments.append(Attachment(pname, rname, emb))

    single = len(pieces) == 1 and not attachments
    if single:
        (pname, piece), = pieces.items()
        vertex_names = {(pname, v): v for v in piece.skeleton.vertices}
        edge_names = {(pname, e): e for e in piece.skeleton.edge_ids()}
        face_names = {(pname, f.id): f.id for f in piece.faces}
        return Amalgam(pieces, residues, attachments, piece, vertex_names, edge_names, face_names)

    uf_v, uf_e = _UnionFind(), _UnionFind()
    for att in attachments:
        for sv, tv in att.embedding.vertex_map.items():
            uf_v.union(("piece", att.piece, tv), ("res", att.residue, sv))
        for se, te in att.embedding.edge_map.items():
            uf_e.union(("piece", att.piece, te), ("res", att.residue, se))

    # A glued class is named by the smallest residue id among its members;
    # a class with no residue member keeps "<piece>:<id>".
    res_name = {"v": _smallest_residue_ids(uf_v), "e": _smallest_residue_ids(uf_e)}
    name_owner: dict[str, dict] = {"v": {}, "e": {}}

    def class_name(uf, token, kind_key: str) -> str:
        root = uf.find(token)
        name = res_name[kind_key].get(root)
        if name is None:
            _, pname, eid = token
            name = f"{pname}:{eid}"
        owners = name_owner[kind_key]
        if owners.setdefault(name, root) != root:
            raise IncompatibleAttachment(f"distinct elements both resolve to id {name!r}")
        return name

    vertex_names: dict = {}
    edge_names: dict = {}
    face_names: dict = {}
    vertices: list[str] = []
    edges: list[Edge] = []
    faces: list[Face] = []
    seen_v: set[str] = set()
    seen_e: set[str] = set()
    for pname in pieces:
        piece = pieces[pname]
        for v in piece.skeleton.vertices:
            name = class_name(uf_v, ("piece", pname, v), "v")
            vertex_names[(pname, v)] = name
            if name not in seen_v:
                seen_v.add(name)
                vertices.append(name)
        for e in piece.skeleton.edges:
            name = class_name(uf_e, ("piece", pname, e.id), "e")
            edge_names[(pname, e.id)] = name
            if name not in seen_e:
                seen_e.add(name)
                edges.append(
                    Edge(name, vertex_names[(pname, e.src)], vertex_names[(pname, e.dst)])
                )
        for f in piece.faces:
            fname = f"{pname}:{f.id}"
            face_names[(pname, f.id)] = fname
            word = tuple(edge_names[(pname, eid)] for eid in f.boundary)
            faces.append(Face(fname, word))

    skeleton = DirectedGraph(tuple(vertices), tuple(edges))
    foundation = Oriented2Complex(skeleton, tuple(faces))
    _check_identifications(attachments, vertex_names, edge_names)
    return Amalgam(pieces, residues, attachments, foundation, vertex_names, edge_names, face_names)


def _smallest_residue_ids(uf: _UnionFind) -> dict:
    """Root of each class with a residue member -> its smallest residue id,
    in one pass over the union-find entries."""
    out: dict = {}
    for token in uf.parent:
        if token[0] == "res":
            root = uf.find(token)
            rid = token[2]
            if root not in out:
                out[root] = rid
            elif type(rid) is not type(out[root]):
                raise IncompatibleAttachment(f"residue ids {out[root]!r} and {rid!r} name one element")
            elif rid < out[root]:
                out[root] = rid
    return out


def _check_identifications(attachments, vertex_names, edge_names) -> None:
    """Gluing must stay injective on each residue: two distinct elements of
    one residue may not collapse to the same foundation element."""
    for att in attachments:
        v_targets = {}
        for sv, tv in att.embedding.vertex_map.items():
            name = vertex_names[(att.piece, tv)]
            if name in v_targets and v_targets[name] != sv:
                raise IncompatibleAttachment(
                    f"residue {att.residue!r}: vertices {v_targets[name]!r} and {sv!r} collapsed"
                )
            v_targets[name] = sv
        e_targets = {}
        for se, te in att.embedding.edge_map.items():
            name = edge_names[(att.piece, te)]
            if name in e_targets and e_targets[name] != se:
                raise IncompatibleAttachment(
                    f"residue {att.residue!r}: edges {e_targets[name]!r} and {se!r} collapsed"
                )
            e_targets[name] = se


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
            raise NotFaithful(f"no weight supplied for piece {pname!r}")
        w = weights[pname]
        if w.mode == MODE_TIGHT:
            raise ModeError("tight-mode weights cannot be spliced; the summed lambda breaks lam = lambda_tilde")
        if w.mode != MODE_STANDARD:
            raise ModeError(f"piece {pname!r}: splicing requires standard-mode weights")
        report = verify_rank2(piece, w, tol)
        if not report.passed:
            raise NotFaithful(f"piece {pname!r}: weight fails verification (max residual {report.max_residual:.3g})")
        if not report.faithful:
            raise NotFaithful(f"piece {pname!r}: weight is not faithful")

    # matching sink structure across the copies of each foundation vertex,
    # for the same reason as in the graph splice
    sink_status: dict = {}
    for (pname, v), name in am.vertex_names.items():
        s = am.pieces[pname].skeleton.is_sink(v)
        if name in sink_status and sink_status[name] != s:
            raise IncompatibleAttachment(
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
