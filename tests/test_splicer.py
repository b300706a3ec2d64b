"""Weight splicing over shared subgraphs and amalgams."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwkms.cwweights import MODE_STANDARD, MODE_TIGHT, Rank2Weight, solve_2dcw, verify_rank2
from cwkms.errors import InputError
from cwkms.fixtures import FIG_B_SPEC, fig_b_double_amalgam_spec
from cwkms.graphs import build_graph, graph_to_dict
from cwkms.solver import GraphWeight, verify_graph_weight
from cwkms.splicing import (
    GraphEmbedding,
    build_amalgam,
    glue_graphs,
    splice_cw_weights,
    splice_graph_weights,
)

from .conftest import compatible_extension_pair, identity_embedding, random_faithful_weight, random_graph


class TestGraphSplice:
    def test_shared_loop_hand_example(self):
        gamma = build_graph({"vertices": ["v"], "edges": []})
        loop = build_graph({"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]})
        emb = identity_embedding(gamma, loop)
        w = GraphWeight({"v": F(1)}, {"e": F(1)})
        res = splice_graph_weights(w, w, emb, emb)
        assert res.weight.g["v"] == 2
        assert res.weight.lam["1:e"] == F(1, 2)
        assert res.weight.lam["2:e"] == F(1, 2)
        rep = verify_graph_weight(res.glued.graph, res.weight, 0)
        assert rep.passed and rep.exact

    def test_shared_sink_vertex(self):
        gamma = build_graph({"vertices": ["w"], "edges": []})
        piece = build_graph({
            "vertices": ["w", "p"],
            "edges": [{"id": "e", "src": "p", "dst": "w"}],
        })
        emb = identity_embedding(gamma, piece)
        w1 = GraphWeight({"w": F(2), "p": F(3)}, {"e": F(3, 2)})
        w2 = GraphWeight({"w": F(5), "p": F(7)}, {"e": F(7, 5)})
        res = splice_graph_weights(w1, w2, emb, emb)
        assert res.weight.g["w"] == 7
        # lambda rescales by g_i(w) / (g_1+g_2)(w)
        assert res.weight.lam["1:e"] == F(3, 2) * F(2, 7)
        assert res.weight.lam["2:e"] == F(7, 5) * F(5, 7)
        assert verify_graph_weight(res.glued.graph, res.weight, 0).passed

    def test_g_unchanged_off_shared_part(self):
        rng = random.Random(17)
        gamma = random_graph(rng, n_max=3)
        (g1, e1), (g2, e2) = compatible_extension_pair(rng, gamma)
        w1 = random_faithful_weight(rng, g1)
        w2 = random_faithful_weight(rng, g2)
        res = splice_graph_weights(w1, w2, e1, e2)
        extras = [v for v in g1.vertices if v not in gamma.vertices]
        for v in extras:
            assert res.weight.g[f"1:{v}"] == w1.g[v]

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=50, deadline=None)
    def test_splice_closure_exact(self, seed):
        rng = random.Random(seed)
        gamma = random_graph(rng, n_max=3)
        (g1, e1), (g2, e2) = compatible_extension_pair(rng, gamma)
        w1 = random_faithful_weight(rng, g1)
        w2 = random_faithful_weight(rng, g2)
        assert verify_graph_weight(g1, w1, 0).passed
        assert verify_graph_weight(g2, w2, 0).passed
        res = splice_graph_weights(w1, w2, e1, e2)
        rep = verify_graph_weight(res.glued.graph, res.weight, 0)
        assert rep.passed and rep.exact and rep.max_residual == 0.0
        # faithfulness is preserved: strictly positive in, strictly positive out
        w, graph = res.weight, res.glued.graph
        assert all(w.g[v] > 0 for v in graph.vertices) and all(w.lam[e.id] > 0 for e in graph.edges)

    def test_symmetry_up_to_relabeling(self):
        rng = random.Random(23)
        gamma = random_graph(rng, n_max=3)
        (g1, e1), (g2, e2) = compatible_extension_pair(rng, gamma)
        w1 = random_faithful_weight(rng, g1)
        w2 = random_faithful_weight(rng, g2)
        r12 = splice_graph_weights(w1, w2, e1, e2)
        r21 = splice_graph_weights(w2, w1, e2, e1)

        def swap(name):
            if name.startswith("1:"):
                return "2:" + name[2:]
            if name.startswith("2:"):
                return "1:" + name[2:]
            return name

        assert {swap(k): v for k, v in r12.weight.g.items()} == r21.weight.g
        assert {swap(k): v for k, v in r12.weight.lam.items()} == r21.weight.lam

    def test_not_faithful_rejected(self):
        gamma = build_graph({"vertices": ["v"], "edges": []})
        loop = build_graph({"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]})
        emb = identity_embedding(gamma, loop)
        bad = GraphWeight({"v": F(0)}, {"e": F(1)})
        with pytest.raises(InputError, match="first weight must have strictly positive g"):
            splice_graph_weights(bad, bad, emb, emb)

    def test_bad_embedding(self):
        gamma = build_graph({"vertices": ["v", "w"], "edges": []})
        target = build_graph({"vertices": ["v"], "edges": []})
        emb = GraphEmbedding(gamma, target, {"v": "v", "w": "v"}, {})
        with pytest.raises(InputError, match="vertex map is not injective"):
            emb.validate()
        emb2 = GraphEmbedding(gamma, target, {"v": "v"}, {})
        with pytest.raises(InputError, match="vertex map is not total on the source graph"):
            emb2.validate()

    def test_different_sources_rejected(self):
        g1 = build_graph({"vertices": ["v"], "edges": []})
        g2 = build_graph({"vertices": ["w"], "edges": []})
        t = build_graph({"vertices": ["v", "w"], "edges": []})
        with pytest.raises(InputError, match="embeddings must share their source graph"):
            glue_graphs(identity_embedding(g1, t), identity_embedding(g2, t))

    def test_shared_id_with_a_piece_prefix_glues(self):
        # a shared id that looks like a generated name is still shared
        gamma = build_graph({"vertices": ["1:a"], "edges": []})
        t1 = build_graph({"vertices": ["1:a", "b"], "edges": []})
        t2 = build_graph({"vertices": ["1:a"], "edges": []})
        glued = glue_graphs(identity_embedding(gamma, t1), identity_embedding(gamma, t2))
        assert glued.graph.vertices == ("1:a", "1:b")
        assert glued.vertex_names == ({"1:a": "1:a", "b": "1:b"}, {"1:a": "1:a"})

    def test_generated_name_equal_to_a_shared_id_collides(self):
        gamma = build_graph({"vertices": ["1:v"], "edges": []})
        t1 = build_graph({"vertices": ["1:v", "v"], "edges": []})
        with pytest.raises(InputError, match="id collision"):
            glue_graphs(identity_embedding(gamma, t1), identity_embedding(gamma, gamma))

    def test_mismatched_sink_structure_rejected(self):
        # v is a sink in the second piece only; the glued equation at v
        # could not absorb g2(v), so the splice must refuse
        gamma = build_graph({"vertices": ["v"], "edges": []})
        active = build_graph({"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]})
        passive = build_graph({"vertices": ["v"], "edges": []})
        w_active = GraphWeight({"v": F(1)}, {"e": F(1)})
        w_passive = GraphWeight({"v": F(1)}, {})
        with pytest.raises(InputError, match="shared vertex 'v' is a sink in one piece but not the other"):
            splice_graph_weights(
                w_active,
                w_passive,
                identity_embedding(gamma, active),
                identity_embedding(gamma, passive),
            )


class TestAmalgam:
    def test_double_figb_counts(self):
        am = build_amalgam(fig_b_double_amalgam_spec())
        fd = am.foundation
        assert len(fd.skeleton.vertices) == 8
        assert len(fd.skeleton.edges) == 11
        assert len(fd.faces) == 4
        # shared edge and endpoints keep the residue ids
        assert fd.skeleton.has_edge("d")
        assert fd.skeleton.has_vertex("v") and fd.skeleton.has_vertex("u")

    def test_single_piece_identity(self, figb):
        am = build_amalgam({"pieces": {"p": FIG_B_SPEC}, "residues": {}, "attachments": []})
        assert am.foundation == figb

    def test_incompatible_attachment(self):
        spec = fig_b_double_amalgam_spec()
        spec["attachments"][0]["vertex_map"] = {"v": "v"}  # missing u
        with pytest.raises(InputError, match="attachment 'p1'<-'r': vertex map is not total"):
            build_amalgam(spec)

    def test_unknown_piece(self):
        spec = fig_b_double_amalgam_spec()
        spec["attachments"][0]["piece"] = "nope"
        with pytest.raises(InputError, match="attachment references unknown piece 'nope'"):
            build_amalgam(spec)


class TestCWSplice:
    def standard_weight(self, figb):
        return solve_2dcw(figb, MODE_STANDARD)[0].weight

    def test_double_figb_splice_exact(self, figb):
        am = build_amalgam(fig_b_double_amalgam_spec())
        w = self.standard_weight(figb)
        spliced = splice_cw_weights(am, {"p1": w, "p2": w})
        rep = verify_rank2(am.foundation, spliced)
        assert rep.passed and rep.faithful
        assert rep.max_residual == 0.0  # exact over the root's number field
        # coupling (checkrel): lambda = lambda_tilde * g(dst) holds exactly
        assert all(v == 0.0 for v in rep.coupling_residuals.values())

    def test_single_piece_splice_is_identity(self, figb):
        am = build_amalgam({"pieces": {"p": FIG_B_SPEC}, "residues": {}, "attachments": []})
        w = self.standard_weight(figb)
        spliced = splice_cw_weights(am, {"p": w})
        assert spliced.g == w.g
        assert spliced.lam == w.lam
        for f in figb.faces:
            for k in range(len(f.boundary)):
                assert spliced.eta_at(f.id, k) == w.eta_at(f.id, k)

    def test_tight_mode_rejected(self, figb):
        am = build_amalgam(fig_b_double_amalgam_spec())
        tight = solve_2dcw(figb, MODE_TIGHT)[0].weight
        with pytest.raises(InputError, match="tight-mode weights cannot be spliced"):
            splice_cw_weights(am, {"p1": tight, "p2": tight})

    def test_unfaithful_rejected(self, figb):
        am = build_amalgam(fig_b_double_amalgam_spec())
        w = self.standard_weight(figb)
        broken = Rank2Weight(
            g=dict(w.g),
            lambda_tilde=dict(w.lambda_tilde),
            lam=dict(w.lam),
            eta=dict(w.eta),
            mode=MODE_STANDARD,
        )
        broken.g["x"] = broken.g["x"] * 2
        with pytest.raises(InputError, match="piece 'p1': weight fails verification"):
            splice_cw_weights(am, {"p1": broken, "p2": w})

    def test_three_pieces_fold(self, figb):
        spec = fig_b_double_amalgam_spec()
        spec["pieces"]["p3"] = dict(FIG_B_SPEC)
        spec["attachments"].append({
            "piece": "p3",
            "residue": "r",
            "vertex_map": {"v": "v", "u": "u"},
            "edge_map": {"d": "d"},
        })
        am = build_amalgam(spec)
        assert len(am.foundation.skeleton.vertices) == 11
        assert len(am.foundation.skeleton.edges) == 16
        w = self.standard_weight(figb)
        spliced = splice_cw_weights(am, {"p1": w, "p2": w, "p3": w})
        rep = verify_rank2(am.foundation, spliced)
        assert rep.passed and rep.max_residual == 0.0
        assert float(spliced.g["v"]) == pytest.approx(3 * float(w.g["v"]))

    def test_eta_instances_shape(self, figb):
        am = build_amalgam(fig_b_double_amalgam_spec())
        w = self.standard_weight(figb)
        spliced = splice_cw_weights(am, {"p1": w, "p2": w})
        # the face coefficient is halved exactly on instances feeding into
        # the shared edge d, and untouched elsewhere
        eta0 = float(w.eta["s1"])
        for (fid, pos), val in spliced.eta_instances.items():
            fval = float(val)
            face = next(f for f in am.foundation.faces if f.id == fid)
            nxt = face.boundary[(pos + 1) % len(face.boundary)]
            if nxt == "d":
                assert fval == pytest.approx(eta0 / 2)
            else:
                assert fval == pytest.approx(eta0)


def _glued_amalgam_spec(form: str, k: int) -> dict:
    """k figB pieces glued along v -> u by the edge d.  Every residue names
    the shared elements differently, so the smallest residue id decides."""
    names = [f"p{i:02d}" for i in range(k)]

    def residue(i):
        vs = [f"w{(k - 1 - i):02d}", f"t{i:02d}"]
        return {"vertices": vs, "edges": [{"id": f"d{(7 * i) % k:02d}", "src": vs[0], "dst": vs[1]}]}

    def attach(piece, i):
        r = residue(i)
        return {
            "piece": piece,
            "residue": f"r{i}",
            "vertex_map": {r["vertices"][0]: "v", r["vertices"][1]: "u"},
            "edge_map": {r["edges"][0]["id"]: "d"},
        }

    if form == "star":
        residues = {"r0": residue(0)}
        attachments = [attach(p, 0) for p in names]
    else:
        residues = {f"r{i}": residue(i) for i in range(k - 1)}
        attachments = [attach(p, i) for i in range(k - 1) for p in (names[i], names[i + 1])]
    return {"pieces": {p: FIG_B_SPEC for p in names}, "residues": residues, "attachments": attachments}


def _reference_names(spec: dict, kind: str) -> dict:
    """The naming rule, class by class: the smallest residue id among the
    elements glued together, else "<piece>:<id>"."""
    map_key = "vertex_map" if kind == "v" else "edge_map"
    links: dict = {}
    for att in spec["attachments"]:
        for sid, tid in att[map_key].items():
            a, b = ("piece", att["piece"], tid), ("res", att["residue"], sid)
            links.setdefault(a, set()).add(b)
            links.setdefault(b, set()).add(a)
    names = {}
    for pname, cspec in spec["pieces"].items():
        ids = cspec["vertices"] if kind == "v" else [e["id"] for e in cspec["edges"]]
        for eid in ids:
            seen, todo = set(), [("piece", pname, eid)]
            while todo:
                t = todo.pop()
                if t not in seen:
                    seen.add(t)
                    todo.extend(links.get(t, ()))
            res_ids = [t[2] for t in seen if t[0] == "res"]
            names[(pname, eid)] = min(res_ids) if res_ids else f"{pname}:{eid}"
    return names


@pytest.mark.parametrize("form", ["star", "chain"])
def test_amalgam_names_follow_the_smallest_residue_rule(form):
    spec = _glued_amalgam_spec(form, 16)
    am = build_amalgam(spec)
    assert am.vertex_names == _reference_names(spec, "v")
    assert am.edge_names == _reference_names(spec, "e")
    # each class is listed where it is first met, piece by piece
    assert am.foundation.skeleton.vertices == tuple(dict.fromkeys(am.vertex_names.values()))
    shared = {am.vertex_names[(p, "v")] for p in spec["pieces"]}
    assert shared == {"w15" if form == "star" else "w01"}
    assert len(am.foundation.skeleton.vertices) == 16 * 3 + 2


def test_string_and_integer_residue_ids_in_one_class_rejected():
    spec = fig_b_double_amalgam_spec()
    spec["residues"]["r2"] = {"vertices": [1, 2], "edges": [{"id": 3, "src": 1, "dst": 2}]}
    spec["attachments"][1] = {"piece": "p2", "residue": "r2", "vertex_map": {1: "v", 2: "u"}, "edge_map": {3: "d"}}
    spec["attachments"].append({**spec["attachments"][1], "piece": "p1"})
    with pytest.raises(InputError, match="name one element"):
        build_amalgam(spec)


@pytest.mark.parametrize("seed", range(8))
def test_glue_graphs_is_the_amalgam_of_the_shared_graph_and_both_targets(seed):
    """glue_graphs names and orders like the amalgam {"0": shared graph,
    "1": first target, "2": second target}, the shared graph attached to
    every piece; some shared ids look like generated names ("1:v0"), and
    the targets list the shared elements in another order."""
    rng = random.Random(seed)
    base = random_graph(rng, n_max=4)

    def ren(x):
        return f"1:{x}" if rng.random() < 0.5 else x

    vnames = {v: ren(v) for v in base.vertices}
    gamma = build_graph({
        "vertices": list(vnames.values()),
        "edges": [{"id": ren(e.id), "src": vnames[e.src], "dst": vnames[e.dst]} for e in base.edges],
    })

    def shuffled(g):
        spec = graph_to_dict(g)
        rng.shuffle(spec["vertices"])
        rng.shuffle(spec["edges"])
        t = build_graph(spec)
        return t, identity_embedding(gamma, t)

    (t1, e1), (t2, e2) = (shuffled(t) for t, _ in compatible_extension_pair(rng, gamma))
    glued = glue_graphs(e1, e2)
    spec = {
        "pieces": {p: graph_to_dict(g) for p, g in (("0", gamma), ("1", t1), ("2", t2))},
        "attachments": [
            {"piece": p, "residue": "shared", "vertex_map": emb.vertex_map, "edge_map": emb.edge_map}
            for p, emb in (("0", identity_embedding(gamma, gamma)), ("1", e1), ("2", e2))
        ],
    }
    for kind, names, ids in (("v", glued.vertex_names, glued.graph.vertices),
                             ("e", glued.edge_names, glued.graph.edge_ids())):
        ref = _reference_names(spec, kind)
        for i, piece in enumerate(("1", "2")):
            assert names[i] == {eid: name for (p, eid), name in ref.items() if p == piece}
        assert ids == tuple(dict.fromkeys(ref.values()))


def test_residue_collapsed_by_another_residue_rejected():
    # r1 swaps v and u between the pieces; r2 then glues the two v's, so
    # r1's a and b land in one class
    spec = {
        "pieces": {"p1": FIG_B_SPEC, "p2": FIG_B_SPEC},
        "residues": {"r1": {"vertices": ["a", "b"], "edges": []}, "r2": {"vertices": ["c"], "edges": []}},
        "attachments": [
            {"piece": "p1", "residue": "r1", "vertex_map": {"a": "v", "b": "u"}, "edge_map": {}},
            {"piece": "p2", "residue": "r1", "vertex_map": {"a": "u", "b": "v"}, "edge_map": {}},
            {"piece": "p1", "residue": "r2", "vertex_map": {"c": "v"}, "edge_map": {}},
            {"piece": "p2", "residue": "r2", "vertex_map": {"c": "v"}, "edge_map": {}},
        ],
    }
    with pytest.raises(InputError, match="residue 'r1': vertices 'a' and 'b' collapsed"):
        build_amalgam(spec)


def test_residue_id_equal_to_a_generated_name_collides():
    # the class of v is named "p1:x", which is also p1's own x
    spec = fig_b_double_amalgam_spec()
    spec["residues"]["r"] = {"vertices": ["p1:x", "u"], "edges": [{"id": "d", "src": "p1:x", "dst": "u"}]}
    for att in spec["attachments"]:
        att["vertex_map"] = {"p1:x": "v", "u": "u"}
    with pytest.raises(InputError, match="distinct elements both resolve to id 'p1:x'"):
        build_amalgam(spec)


def test_face_id_equal_to_a_generated_name_collides():
    # piece "p" names its face "b:s1" as "p:b:s1", and so does piece "p:b" its s1
    renamed = {**FIG_B_SPEC, "faces": [{**FIG_B_SPEC["faces"][0], "id": "b:s1"}, FIG_B_SPEC["faces"][1]]}
    spec = {"pieces": {"p": renamed, "p:b": FIG_B_SPEC}, "residues": {}, "attachments": []}
    with pytest.raises(InputError, match="distinct faces both resolve to id 'p:b:s1'"):
        build_amalgam(spec)
