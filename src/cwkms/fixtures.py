"""Named example specs behind the CLI fixture registry.

``figB`` is a two-face complex on five vertices whose boundary graph has the
determinant 1 - x^3 - x^4.  The skeleton was reconstructed from the
defining weight equations:

    g(u) = lt(a) g(x) + lt(e) g(z)     ->  bundle(u) = {a, e}
    g(x) = lt(b) g(y)                  ->  b: x -> y
    g(y) = lt(c) g(v)                  ->  c: y -> v
    g(v) = lt(d) g(u)                  ->  d: v -> u
    g(z) = lt(f) g(v)                  ->  f: z -> v
    coupling lt(a) g(x) fixes a: u -> x, lt(e) g(z) fixes e: u -> z

with faces attached along (a, b, c, d) and (d, e, f).  The paper's
closed-form figB weights (standard, two-parameter and tight) are references
that the solver is checked against, so they live with the tests, in
``tests/conftest.py``.

``gamma-q2`` is the one-vertex triangular complex of the order-2 triangle
presentation below (seven loop generators, seven triangular relations); its
triangle set also induces the Fano plane fixture.
"""

from __future__ import annotations

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


FIXTURES = {
    "figB": lambda: FIG_B_SPEC,
    "gamma-q2": gamma_q2_presentation_spec,
    "monogon-triangle": monogon_triangle_spec,
    "figB-double": fig_b_double_amalgam_spec,
}
