"""Projective planes, triangle presentations, sector graphs, shape lattice."""

from fractions import Fraction as F
from itertools import combinations

import pytest

from cwkms import buildings
from cwkms.buildings import (
    fano_plane,
    lattice_weight_check,
    matched_weight_search,
    presentation_complex,
    presentation_from_spec,
    sector_graphs,
)
from cwkms.errors import AmbiguousSector, InputError
from cwkms.fixtures import gamma_q2_presentation_spec
from cwkms.graphs import build_graph
from cwkms.solver import GraphWeight, solve_special_weights, verify_graph_weight


class TestFanoPlane:
    def test_counts(self):
        p = fano_plane()
        assert len(p.points) == 7 and len(p.lines) == 7

    def test_point_degrees(self):
        p = fano_plane()
        for pt in p.points:
            assert sum(1 for line in p.lines if pt in line) == 3

    def test_two_points_one_line(self):
        p = fano_plane()
        for a, b in combinations(p.points, 2):
            assert len([l for l in p.lines if a in l and b in l]) == 1

    def test_validation_rejects_broken_plane(self):
        p = fano_plane()
        from cwkms.buildings import IncidencePlane

        broken = IncidencePlane(p.points, p.lines[:6] + (frozenset({"p0", "p1", "p2"}),), 2)
        with pytest.raises(InputError):
            broken.validate()


class TestPresentation:
    def test_gamma_fixture_valid(self, gamma_presentation):
        gamma_presentation.validate()
        assert len(gamma_presentation.incident_pairs()) == 21

    def test_induced_plane_is_projective(self, gamma_presentation):
        gamma_presentation.plane.validate()

    def test_third_is_unique(self, gamma_presentation):
        for (a, b) in gamma_presentation.incident_pairs():
            z = gamma_presentation.third(a, b)
            assert b in gamma_presentation.line_of[a]
            assert z in gamma_presentation.line_of[b]

    def test_invalid_triple_rejected(self):
        spec = gamma_q2_presentation_spec()
        spec["triples"][0] = ["x0", "x1", "x2"]  # x1 not on the line of x0
        with pytest.raises(InputError, match="is not on the line of 'x0'"):
            presentation_from_spec(spec)

    def test_presentation_complex_shape(self, gamma_complex):
        assert len(gamma_complex.skeleton.vertices) == 1
        assert len(gamma_complex.skeleton.edges) == 7
        assert len(gamma_complex.faces) == 7
        # Euler-style count for the one-vertex quotient
        assert 1 - 7 + 7 == 1

    def test_faces_are_relation_classes(self, gamma_presentation, gamma_complex):
        words = {f.boundary for f in gamma_complex.faces}
        assert len(words) == 7
        for w in words:
            assert gamma_presentation.third(w[0], w[1]) == w[2]

    def test_pair_without_triple_is_ambiguous(self, gamma_presentation):
        # x1 is not on the line of x0, so no rotated triple starts (x0, x1)
        with pytest.raises(AmbiguousSector) as err:
            gamma_presentation.third("x0", "x1")
        assert err.value.vertex == ("x0", "x1")

    def test_repeated_generator_face(self, gamma_complex):
        assert ("x0", "x0", "x6") in {f.boundary for f in gamma_complex.faces}


class TestSectorGraphs:
    def test_vertex_count(self, gamma_sector_graphs):
        gp, gm = gamma_sector_graphs
        assert len(gp.vertices) == 21 and len(gm.vertices) == 21
        assert set(gp.vertices) == set(gm.vertices)

    def test_out_degree_contract(self, gamma_sector_graphs):
        gp, gm = gamma_sector_graphs
        for g in (gp, gm):
            assert all(len(g.out_edges(v)) == 4 for v in g.vertices)

    def test_targets_are_incident_pairs(self, gamma_presentation, gamma_sector_graphs):
        gp, _ = gamma_sector_graphs
        pair_ids = {f"{a}|{b}" for (a, b) in gamma_presentation.incident_pairs()}
        for e in gp.edges:
            assert e.dst in pair_ids

    def test_constant_weight_passes(self, gamma_sector_graphs):
        for g in gamma_sector_graphs:
            w = GraphWeight({v: F(1) for v in g.vertices}, {e.id: F(1, 4) for e in g.edges})
            rep = verify_graph_weight(g, w, 0)
            assert rep.passed and rep.exact

    def test_positive_only_at_the_perron_root(self, gamma_sector_graphs):
        # 4-out-regular and strongly connected, so rho = 4: 1/2 and 1/sqrt(2)
        # have two-dimensional kernels without a positive vector
        for g in gamma_sector_graphs:
            rep = solve_special_weights(g)
            got = [(round(f.eta.to_float(), 12), f.kernel.status) for f in rep.families]
            assert got == [(0.25, "positive"), (0.5, "none"), (round(2 ** -0.5, 12), "none")]

    def test_rule_reports_ambiguity(self, gamma_presentation, monkeypatch):
        plus_targets = buildings._plus_targets
        # drop one target
        monkeypatch.setattr(buildings, "_plus_targets", lambda tp, a, b: plus_targets(tp, a, b)[:-1])
        with pytest.raises(AmbiguousSector) as err:
            sector_graphs(gamma_presentation)
        assert err.value.vertex is not None


class TestMatchedSearch:
    def test_constant_pair_found(self, gamma_sector_graphs):
        gp, gm = gamma_sector_graphs
        pairs = matched_weight_search(gp, gm)
        assert len(pairs) >= 1
        best = pairs[0]
        assert best.plus.eta.rational == F(1, 4)
        assert best.minus.eta.rational == F(1, 4)
        for v in best.psi_values.values():
            assert abs(v - 0.25) < 1e-12

    def test_constant_solution_is_exact(self, gamma_sector_graphs):
        gp, _ = gamma_sector_graphs
        rep = solve_special_weights(gp)
        fams = rep.faithful_families()
        assert any(
            f.eta.rational == F(1, 4) and all(x == 1 for x in f.kernel.positive)
            for f in fams
        )

    def test_nonconstant_ratio_rejected(self):
        # the two-loop graph has the constant family (lam=1, g=(1,1)); the
        # doubled 2-cycle solves at lam=1/sqrt(2) with g = (sqrt(2), 1), so
        # the vertexwise products differ by a non-constant factor and no
        # rescaling of g can match them
        gp = build_graph({
            "vertices": ["a", "b"],
            "edges": [
                {"id": "la", "src": "a", "dst": "a"},
                {"id": "lb", "src": "b", "dst": "b"},
            ],
        })
        gm = build_graph({
            "vertices": ["a", "b"],
            "edges": [
                {"id": "e1", "src": "a", "dst": "b"},
                {"id": "e2", "src": "a", "dst": "b"},
                {"id": "f", "src": "b", "dst": "a"},
            ],
        })
        assert matched_weight_search(gp, gm) == []


class TestShapeLattice:
    def test_balanced_law_exact_zero(self):
        rep = lattice_weight_check(2, (4, 4), {"a": F(1), "b": F(3, 7)})
        assert rep.passed
        assert rep.max_residual == 0.0
        assert all(r == 0 for r in rep.residuals.values())

    def test_arbitrary_positive_bases_pass(self):
        rep = lattice_weight_check(2, (3, 3), {"x": F(17, 5), "y": F(1, 13), "z": F(2)})
        assert rep.passed

    def test_branching_factor(self):
        rep = lattice_weight_check(3, (2, 2), {"a": F(1)})
        assert rep.weights[("a", 1, 0)] == rep.weights[("a", 0, 1)] == F(1, 9)
        assert rep.passed

    def test_direction_one_only_law_fails_direction_two(self, monkeypatch):
        monkeypatch.setattr(buildings, "decay_law", lambda q: lambda m1, m2: F(1, q * q) ** m1)
        rep = lattice_weight_check(2, (3, 3), {"a": F(1)})
        assert not rep.passed
        dir1 = [r for (_, _, _, d), r in rep.residuals.items() if d == 1]
        dir2 = [r for (_, _, _, d), r in rep.residuals.items() if d == 2]
        assert all(r == 0 for r in dir1)
        assert all(r != 0 for r in dir2)

    def test_negative_bound_rejected(self):
        # a negative bound would leave an empty lattice that passes vacuously
        for bound in ((2, -1), (-1, 2)):
            with pytest.raises(InputError, match="bound must be non-negative"):
                lattice_weight_check(2, bound, {"a": F(1)})

    def test_nonpositive_base_rejected(self):
        with pytest.raises(InputError, match="base value for 'a' must be positive"):
            lattice_weight_check(2, (2, 2), {"a": F(0)})

    def test_weights_table_shape(self):
        rep = lattice_weight_check(2, (2, 2), {"a": F(1)})
        assert ("a", 0, 0) in rep.weights
        assert rep.weights[("a", 1, 1)] == F(1, 16)
