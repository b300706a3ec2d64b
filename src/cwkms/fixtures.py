"""Named example fixtures used by tests and the CLI fixture registry.

``figB`` is a two-face complex on five vertices whose boundary graph has the
determinant 1 - x^3 - x^4; its derived weights appear throughout the test
suite.  The skeleton was reconstructed from the defining weight equations:

    g(u) = lt(a) g(x) + lt(e) g(z)     ->  bundle(u) = {a, e}
    g(x) = lt(b) g(y)                  ->  b: x -> y
    g(y) = lt(c) g(v)                  ->  c: y -> v
    g(v) = lt(d) g(u)                  ->  d: v -> u
    g(z) = lt(f) g(v)                  ->  f: z -> v
    coupling lt(a) g(x) fixes a: u -> x, lt(e) g(z) fixes e: u -> z

with faces attached along (a, b, c, d) and (d, e, f).

``gamma-q2`` is the one-vertex triangular complex of the order-2 triangle
presentation below (seven loop generators, seven triangular relations); its
triangle set also induces the Fano plane fixture.
"""

from __future__ import annotations

from .complexes import Oriented2Complex, build_complex
from .cwweights import MODE_STANDARD, MODE_TIGHT, Rank2Weight

FIG_B_SPEC = {
    "vertices": ["u", "x", "y", "v", "z"],
    "edges": [
        {"id": "a", "src": "u", "dst": "x"},
        {"id": "b", "src": "x", "dst": "y"},
        {"id": "c", "src": "y", "dst": "v"},
        {"id": "d", "src": "v", "dst": "u"},
        {"id": "e", "src": "u", "dst": "z"},
        {"id": "f", "src": "z", "dst": "v"},
    ],
    "faces": [
        {"id": "s1", "boundary": ["a", "b", "c", "d"]},
        {"id": "s2", "boundary": ["d", "e", "f"]},
    ],
}

# Triangle presentation of order q=2: seven generators x0..x6, one relation
# triple per row, closed under cyclic rotation.
GAMMA_Q2_TRIPLES = [
    ("x0", "x0", "x6"),
    ("x0", "x2", "x3"),
    ("x1", "x2", "x6"),
    ("x1", "x3", "x5"),
    ("x1", "x5", "x4"),
    ("x2", "x4", "x5"),
    ("x3", "x4", "x6"),
]

GAMMA_Q2_POINTS = [f"x{i}" for i in range(7)]


def gamma_q2_lines() -> dict[str, frozenset[str]]:
    """Point -> line bijection induced by the triples: the line of p is the
    set of successors of p across all rotated triples."""
    lam: dict[str, set[str]] = {p: set() for p in GAMMA_Q2_POINTS}
    for (x, y, z) in GAMMA_Q2_TRIPLES:
        for (p, q) in ((x, y), (y, z), (z, x)):
            lam[p].add(q)
    return {p: frozenset(s) for p, s in lam.items()}


def gamma_q2_presentation_spec() -> dict:
    lines = gamma_q2_lines()
    ordered_lines = [sorted(lines[p]) for p in GAMMA_Q2_POINTS]
    return {
        "q": 2,
        "points": list(GAMMA_Q2_POINTS),
        "lines": ordered_lines,
        "lambda": {p: i for i, p in enumerate(GAMMA_Q2_POINTS)},
        "triples": [list(t) for t in GAMMA_Q2_TRIPLES],
    }


def fig_b_complex() -> Oriented2Complex:
    return build_complex(FIG_B_SPEC)


def monogon_triangle_spec() -> dict:
    """One vertex, three loops, one triangular face; the smallest complex
    whose boundary graph is a 3-cycle."""
    return {
        "vertices": ["p"],
        "edges": [
            {"id": "e1", "src": "p", "dst": "p"},
            {"id": "e2", "src": "p", "dst": "p"},
            {"id": "e3", "src": "p", "dst": "p"},
        ],
        "faces": [{"id": "t", "boundary": ["e1", "e2", "e3"]}],
    }


def fig_b_double_amalgam_spec() -> dict:
    """Two copies of figB glued along the single shared edge d (a one-edge
    residue graph on the vertices v, u)."""
    residue = {
        "vertices": ["v", "u"],
        "edges": [{"id": "d", "src": "v", "dst": "u"}],
    }
    identity_attach = {"vertex_map": {"v": "v", "u": "u"}, "edge_map": {"d": "d"}}
    return {
        "pieces": {"p1": dict(FIG_B_SPEC), "p2": dict(FIG_B_SPEC)},
        "residues": {"r": residue},
        "attachments": [
            {"piece": "p1", "residue": "r", **identity_attach},
            {"piece": "p2", "residue": "r", **identity_attach},
        ],
    }


def fig_b_standard_weight(eta, c=1.0):
    """Closed-form standard-mode weight on figB at the given root value:
    g = C*(h^2, h, h, 1/h, 1) on (x,y,z,u,v), lambda = C*(h^3,h^2,h,1,h^2,h),
    constant lambda_tilde = h, face coefficient h on both faces."""
    h = eta
    return Rank2Weight(
        g={"x": c * h * h, "y": c * h, "z": c * h, "u": c / h, "v": c * (h / h)},
        lambda_tilde={k: h for k in "abcdef"},
        lam={
            "a": c * h ** 3, "b": c * h * h, "c": c * h,
            "d": c * (h / h), "e": c * h * h, "f": c * h,
        },
        eta={"s1": h, "s2": h},
        mode=MODE_STANDARD,
    )


def fig_b_two_parameter_weight(eta1: float, c: float = 1.0):
    """Faithful (non-special) weight family on figB: face coefficients
    eta1 on the square face and eta2 = (1 - eta1^4)^(1/3) on the triangle,
    with the closed-form quadruple that couples them."""
    if not 0 < eta1 < 1:
        raise ValueError("eta1 must lie in (0, 1)")
    eta2 = (1.0 - eta1 ** 4) ** (1.0 / 3.0)
    s = eta1 ** 3 + eta2 ** 2
    return Rank2Weight(
        g={"x": c * eta1 ** 2, "y": c * eta1, "z": c * eta2, "u": c * s, "v": c},
        lambda_tilde={"a": eta1, "b": eta1, "c": eta1, "d": 1.0 / s, "e": eta2, "f": eta2},
        lam={
            "a": c * eta1 ** 3, "b": c * eta1 ** 2, "c": c * eta1,
            "d": c, "e": c * eta2 ** 2, "f": c * eta2,
        },
        eta={"s1": eta1, "s2": eta2},
        mode=MODE_STANDARD,
    )


def fig_b_tight_weight(eta: float, c: float):
    """Closed-form tight-mode weight on figB: lambda = lambda_tilde =
    C*(h^3,h^2,h,1,h^2,h) at a positive root C of 1 - C^3 h^3 - C^4 h^6, and
    g the solution of the rescaled skeleton system (normalized at g(v)=1)."""
    h = eta
    lam = {
        "a": c * h ** 3, "b": c * h ** 2, "c": c * h,
        "d": c, "e": c * h ** 2, "f": c * h,
    }
    g_v = 1.0
    g_u = g_v / c                      # g(v) = C g(u)
    g_y = c * h * g_v                  # g(y) = C h g(v)
    g_x = c * h ** 2 * g_y             # g(x) = C h^2 g(y)
    g_z = c * h * g_v                  # g(z) = C h g(v)
    return Rank2Weight(
        g={"x": g_x, "y": g_y, "z": g_z, "u": g_u, "v": g_v},
        lambda_tilde=dict(lam),
        lam=dict(lam),
        eta={"s1": h, "s2": h},
        mode=MODE_TIGHT,
    )


FIXTURES = {
    "figB": lambda: FIG_B_SPEC,
    "gamma-q2": gamma_q2_presentation_spec,
    "monogon-triangle": monogon_triangle_spec,
    "figB-double": fig_b_double_amalgam_spec,
}
