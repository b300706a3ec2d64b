"""Rank 2 / 2D CW weight verifiers and solvers."""

from fractions import Fraction as F

import pytest

from cwkms.complexes import boundary_graph, build_complex, predecessor_graph
from cwkms.cwweights import (
    MODE_STANDARD,
    MODE_TIGHT,
    Rank2Weight,
    TriangularWeight,
    _lift_tight,
    _solve_scale,
    solve_2dcw,
    solve_triangular_special,
    verify_rank2,
    verify_triangular,
)
from cwkms.errors import CWKMSError, InputError
from cwkms.exact import AlgebraicScalar, Poly, isolate_positive_roots
from cwkms.fixtures import monogon_triangle_spec
from cwkms.graphs import build_graph
from cwkms.pathalgebra import all_monomials, functional_from_graph_weight, functional_from_rank2, kms_check
from cwkms.solver import (
    DEFAULT_TOL,
    GraphWeight,
    boundary_matrix,
    det_polynomial,
    solve_special_weights,
    verify_graph_weight,
)

from .conftest import fig_b_standard_weight, fig_b_tight_weight, fig_b_two_parameter_weight

TOL = F(1, 10**10)


def bisect(f, lo: float, hi: float, steps: int = 200) -> float:
    """Plain bisection oracle, independent of the exact machinery."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if f(mid) == 0.0:
            return mid
        if (f(mid) > 0) == (flo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


ETA0 = bisect(lambda x: 1 - x**3 - x**4, 0.0, 1.0)


class TestVerifyRank2:
    def test_standard_closed_form(self, figb):
        w = fig_b_standard_weight(ETA0, c=1.0)
        rep = verify_rank2(figb, w, TOL)
        assert rep.passed and rep.faithful and rep.special
        assert rep.max_residual <= 1e-12

    def test_two_parameter_family(self, figb):
        for k in range(1, 20):
            eta1 = k / 20.0
            w = fig_b_two_parameter_weight(eta1, c=0.8)
            rep = verify_rank2(figb, w, TOL)
            assert rep.passed, f"eta1={eta1}: max residual {rep.max_residual}"
            assert rep.faithful and not rep.special

    def test_tight_closed_form(self, figb):
        cstar = bisect(lambda c: 1 - c**3 * ETA0**3 - c**4 * ETA0**6, 0.5, 2.0)
        w = fig_b_tight_weight(ETA0, cstar)
        rep = verify_rank2(figb, w, TOL)
        assert rep.passed and rep.faithful and rep.special
        assert rep.mode == MODE_TIGHT

    def test_scaling_invariance(self, figb):
        w = fig_b_standard_weight(ETA0, c=1.0)
        for c in (0.5, 2.0, 3.7):
            scaled = Rank2Weight(
                g={k: c * v for k, v in w.g.items()},
                lambda_tilde=dict(w.lambda_tilde),
                lam={k: c * v for k, v in w.lam.items()},
                eta=dict(w.eta),
                mode=MODE_STANDARD,
            )
            assert verify_rank2(figb, scaled, TOL).passed

    def test_broken_weight_fails(self, figb):
        w = fig_b_standard_weight(ETA0, c=1.0)
        w.g["x"] *= 1.01
        rep = verify_rank2(figb, w, TOL)
        assert not rep.passed

    def test_missing_value(self, figb):
        w = fig_b_standard_weight(ETA0, c=1.0)
        del w.g["x"]
        with pytest.raises(InputError, match="rank-2 weight is not total on the complex"):
            verify_rank2(figb, w, TOL)


class TestSolve2dcw:
    def test_standard_matches_closed_form(self, figb):
        fams = solve_2dcw(figb, MODE_STANDARD)
        assert len(fams) == 1
        fam = fams[0]
        assert fam.free_parameters == ["C"]
        expected = fig_b_standard_weight(ETA0, c=1.0)
        for v in figb.skeleton.vertices:
            assert abs(float(fam.weight.g[v]) - expected.g[v]) < 1e-10
        for e in figb.skeleton.edge_ids():
            assert abs(float(fam.weight.lambda_tilde[e]) - ETA0) < 1e-10
            assert abs(float(fam.weight.lam[e]) - expected.lam[e]) < 1e-10
        rep = verify_rank2(figb, fam.weight, TOL)
        assert rep.passed and rep.max_residual == 0.0  # exact arithmetic

    def test_standard_scale_freedom_samples(self, figb):
        fam = solve_2dcw(figb, MODE_STANDARD)[0]
        base = fam.weight
        for k in range(1, 11):
            c = k / 3.0
            w = Rank2Weight(
                g={key: c * float(v) for key, v in base.g.items()},
                lambda_tilde={key: float(v) for key, v in base.lambda_tilde.items()},
                lam={key: c * float(v) for key, v in base.lam.items()},
                eta={key: float(v) for key, v in base.eta.items()},
                mode=MODE_STANDARD,
            )
            assert verify_rank2(figb, w, TOL).passed

    def test_tight_solve(self, figb):
        fams = solve_2dcw(figb, MODE_TIGHT)
        assert len(fams) == 1
        fam = fams[0]
        assert fam.free_parameters == ["g"]
        cstar = bisect(lambda c: 1 - c**3 * ETA0**3 - c**4 * ETA0**6, 0.5, 2.0)
        assert abs(float(fam.scale_root) - cstar) < 1e-10
        # second determinant is +-(1 - C^3 h^3 - C^4 h^6): compare exactly
        # in the number field of the boundary root
        det = fam.scale_det
        h = fam.eta.number_field().gen()
        expected = [1, 0, 0, -(h ** 3), -(h ** 6)]
        signs = []
        for sign in (1, -1):
            signs.append(all((sign * c - e).sign() == 0 for c, e in zip(det.coeffs, expected)))
        assert any(signs)
        assert verify_rank2(figb, fam.weight, TOL).passed

    def test_no_faces_complex(self):
        spec = {"vertices": ["v"], "edges": [{"id": "e", "src": "v", "dst": "v"}]}
        c = build_complex(spec)
        fams = solve_2dcw(c, MODE_STANDARD)
        assert len(fams) == 1
        assert fams[0].weight.eta == {}
        assert float(fams[0].weight.g["v"]) == 1.0

    def test_unknown_mode(self, figb):
        with pytest.raises(InputError, match="unknown solve mode 'sideways'"):
            solve_2dcw(figb, "sideways")

    def test_scale_determinant_float_branch(self, figb):
        # float lambda values (as left by a numeric kernel fallback) are
        # read exactly and agree with the exact result
        from cwkms.cwweights import scale_determinant

        lam0 = {
            "a": ETA0**3, "b": ETA0**2, "c": ETA0,
            "d": 1.0, "e": ETA0**2, "f": ETA0,
        }
        det = scale_determinant(figb.skeleton, lam0)
        expected = [-1.0, 0.0, 0.0, ETA0**3, ETA0**6]
        assert len(det.coeffs) == len(expected)
        for got, want in zip(det.coeffs, expected):
            assert abs(got - want) < 1e-9

    def test_tight_family_is_exact(self, figb, figb_boundary):
        """The figB tight family lies in one field Q(C): zero residuals, and
        the equilibrium identity holds at tol 0 on both factors."""
        fam = solve_2dcw(figb, MODE_TIGHT)[0]
        assert isinstance(fam.scale_root, AlgebraicScalar)
        rep = verify_rank2(figb, fam.weight, 0)
        assert rep.passed and rep.max_residual == 0.0
        psi = functional_from_rank2(figb, fam.weight)
        for factor, graph in ((psi.skeleton, figb.skeleton), (psi.boundary, figb_boundary.graph)):
            monos = all_monomials(graph, 2)
            assert kms_check(factor, [(x, y) for x in monos for y in monos], 0).passed

    def test_tight_lift_of_a_float_vector(self, figb, figb_boundary):
        """A float boundary vector, as the SVD kernel fallback leaves, is read
        exactly: the family is the exact lift of the rounded data."""
        fam = solve_special_weights(figb_boundary.graph).faithful_families()[0]
        lam0 = dict(zip(figb_boundary.graph.vertices, map(float, fam.kernel.positive)))
        fams = _lift_tight(figb, fam.eta, lam0)
        assert len(fams) == 1
        assert verify_rank2(figb, fams[0].weight, DEFAULT_TOL).passed
        exact = solve_2dcw(figb, MODE_TIGHT)[0].scale_root
        assert abs(float(fams[0].scale_root) - float(exact)) < 1e-12

    def test_boundary_root_outside_the_scale_field_raises(self):
        """On a 2-cycle with lam0 = (eta, eta**3), eta = 2**(1/4), the scale
        determinant is 1 - 2 C**2: at C = 1/sqrt(2) every root of eta's
        modulus y**4 - 2 is a root, and eta does not lie in Q(C)."""
        cycle, x = _two_cycle_and_fourth_root_of_two()
        with pytest.raises(CWKMSError, match="gcd of degree 4 over Q"):
            _solve_scale(cycle, {"a": x, "b": x**3})

    def test_rational_scale_root_over_a_field(self):
        """lam0 = (eta, 1/eta) on a 2-cycle gives 1 - C**2 over Q(eta): the
        rational root C = 1 is accepted exactly, and the family stays in Q(eta)."""
        cycle, x = _two_cycle_and_fourth_root_of_two()
        _, [(root, lam, g, lift)] = _solve_scale(cycle, {"a": x, "b": 1 / x})
        assert root.rational == 1 and lam == {"a": x, "b": 1 / x}
        assert g["u"] == x * g["v"] and lift(x) == x


def _two_cycle_and_fourth_root_of_two():
    """The 2-cycle u -a-> v -b-> u, and the generator of Q(2**(1/4))."""
    (eta,) = isolate_positive_roots(Poly.from_ints([-2, 0, 0, 0, 1]))
    cycle = build_graph({
        "vertices": ["u", "v"],
        "edges": [{"id": "a", "src": "u", "dst": "v"}, {"id": "b", "src": "v", "dst": "u"}],
    })
    return cycle, eta.number_field().gen()


class TestTriangular:
    def gamma_weight(self, gamma_complex, lam=F(1, 7), eta=F(1, 3), g=F(5)):
        return TriangularWeight(
            g={"v": g},
            lambda_tilde={e.id: lam for e in gamma_complex.skeleton.edges},
            lam={e.id: lam for e in gamma_complex.skeleton.edges},
            eta_a={f.id: eta for f in gamma_complex.faces},
            eta_b={f.id: eta for f in gamma_complex.faces},
            tight=True,
        )

    def test_gamma_passes(self, gamma_complex):
        rep = verify_triangular(gamma_complex, self.gamma_weight(gamma_complex), 0)
        assert rep.passed and rep.faithful and rep.special
        assert rep.max_residual == 0.0

    def test_gamma_fails_at_wrong_eta(self, gamma_complex):
        w = self.gamma_weight(gamma_complex, eta=F(1, 2))
        rep = verify_triangular(gamma_complex, w, TOL)
        assert not rep.passed

    def test_gamma_sqrt_half_solution_is_not_faithful(self, gamma_complex):
        # the boundary system does have a kernel at 1/sqrt(2), but its
        # direction has zero and negative entries, so no faithful weight
        # comes out of that root
        import numpy as np

        from cwkms.graphs import adjacency_counts

        bg = boundary_graph(gamma_complex)
        a = np.array(adjacency_counts(bg.graph), dtype=float)
        eta = 2 ** -0.5
        m = eta * a - np.eye(7)
        _, s, vt = np.linalg.svd(m)
        assert s[-1] < 1e-12  # the root really kills the determinant
        kernel = vt[-1]
        # mixed signs: no rescaling makes this direction strictly positive
        assert kernel.min() < -1e-8 and kernel.max() > 1e-8
        lam = {v: float(kernel[i]) for i, v in enumerate(bg.graph.vertices)}
        w = TriangularWeight(
            g={"v": 1.0},
            lambda_tilde=dict(lam),
            lam=dict(lam),
            eta_a={f.id: eta for f in gamma_complex.faces},
            eta_b={f.id: eta for f in gamma_complex.faces},
            tight=True,
        )
        rep = verify_triangular(gamma_complex, w, TOL)
        assert not rep.passed  # the skeleton scale equation fails

    def test_non_triangular_rejected(self, figb):
        w = TriangularWeight(g={}, lambda_tilde={}, lam={}, eta_a={}, eta_b={}, tight=False)
        with pytest.raises(InputError, match="are not triangles"):
            verify_triangular(figb, w, TOL)
        with pytest.raises(InputError, match="are not triangles"):
            solve_triangular_special(figb)

    def test_gamma_solve(self, gamma_complex):
        fams = solve_triangular_special(gamma_complex)
        assert len(fams) == 1
        fam = fams[0]
        assert fam.eta.rational == F(1, 3)
        assert all(v == F(1, 7) for v in fam.weight.lam.values())
        assert fam.free_parameters == ["g"]
        rep = verify_triangular(gamma_complex, fam.weight, 0)
        assert rep.passed and rep.max_residual == 0.0

    def test_gamma_determinant_factors(self, gamma_complex):
        fam = solve_triangular_special(gamma_complex)[0]
        expected = (
            Poly.from_ints([-1, 3])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([1, 1, 2])
            * Poly.from_ints([-1, 0, 2])
        )
        assert fam.det == expected or fam.det == -expected

    def test_gamma_system_rank_is_six(self, gamma_complex):
        # at the surviving root the boundary system drops rank by exactly one
        from cwkms.exact import kernel_basis_exact

        bg = boundary_graph(gamma_complex)
        rows = boundary_matrix(bg.graph, F(1, 3))
        basis = kernel_basis_exact(rows)
        assert len(basis) == 1  # rank 6 out of 7

    def test_sum_identity_symbolically(self, gamma_complex):
        # summing all rows of the boundary matrix at eta gives the same
        # value 3*eta - 1 in every column, so any solution satisfies
        # sum(lam) = 3 eta sum(lam); the entries are affine in eta, so two
        # values of eta fix them as polynomials
        bg = boundary_graph(gamma_complex)
        for eta in (F(1), F(2)):
            rows = boundary_matrix(bg.graph, eta)
            for j in range(len(rows)):
                assert sum(row[j] for row in rows) == 3 * eta - 1

    def test_transpose_duality(self, gamma_complex, figb):
        for c in (gamma_complex,):
            det_a = det_polynomial(boundary_graph(c).graph)
            det_b = det_polynomial(predecessor_graph(c).graph)
            assert det_a == det_b
        # duality holds for non-triangular complexes too
        det_a = det_polynomial(boundary_graph(figb).graph)
        det_b = det_polynomial(predecessor_graph(figb).graph)
        assert det_a == det_b

    def test_monogon_triangle(self):
        c = build_complex(monogon_triangle_spec())
        fams = solve_triangular_special(c)
        assert len(fams) == 1
        fam = fams[0]
        assert fam.eta.rational == 1
        assert all(v == F(1, 3) for v in fam.weight.lam.values())
        assert fam.det == Poly.from_ints([-1, 0, 0, 1]) or fam.det == Poly.from_ints([1, 0, 0, -1])

    def test_gamma_tightness_residuals_reported(self, gamma_complex):
        w = self.gamma_weight(gamma_complex)
        w.eta_b = {f.id: F(1, 4) for f in gamma_complex.faces}
        rep = verify_triangular(gamma_complex, w, TOL)
        assert not rep.passed
        assert any(k.startswith("eta[") for k in rep.tightness_residuals)


def _tolerance_entry_points(figb, gamma_complex) -> dict:
    """Each library call that reads a residual tolerance, on input it passes."""
    tri = TestTriangular().gamma_weight(gamma_complex)
    sk = gamma_complex.skeleton
    psi = functional_from_graph_weight(sk, GraphWeight(tri.g, tri.lambda_tilde))
    monos = all_monomials(sk, 1)
    w = fig_b_standard_weight(F(3, 4), c=F(1))
    return {
        "verify_graph_weight": lambda tol: verify_graph_weight(sk, GraphWeight(tri.g, tri.lambda_tilde), tol),
        "verify_rank2": lambda tol: verify_rank2(figb, w, tol),
        "verify_triangular": lambda tol: verify_triangular(gamma_complex, tri, tol),
        "kms_check": lambda tol: kms_check(psi, [(x, y) for x in monos for y in monos], tol),
    }


@pytest.mark.parametrize(
    "tol", [float("inf"), float("-inf"), float("nan"), 10**400], ids=["inf", "-inf", "nan", "1e400"]
)
@pytest.mark.parametrize("entry", ["verify_graph_weight", "verify_rank2", "verify_triangular", "kms_check"])
def test_tolerance_a_float_cannot_hold_is_an_input_error(figb, gamma_complex, entry, tol):
    """NaN, +-inf and bounds beyond the float range raise InputError (they
    raised OverflowError or ValueError), and a negative bound is still read:
    it fails even where every residual is an exact 0."""
    call = _tolerance_entry_points(figb, gamma_complex)[entry]
    with pytest.raises(InputError, match="a float can hold"):
        call(tol)
    if entry != "verify_rank2":  # the others pass at tol = 0
        assert call(0).passed and not call(-1).passed
