"""Input generators for the workloads.

Every generator returns a plain spec (the JSON-shaped dict that
``build_graph``, ``build_complex`` or ``build_amalgam`` reads), so that a
check can work from what the program was given without asking the program.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

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

# Order-2 triangle presentation (seven generators, seven relations).
GAMMA_Q2_TRIPLES = [
    ("x0", "x0", "x6"), ("x0", "x2", "x3"), ("x1", "x2", "x6"), ("x1", "x3", "x5"),
    ("x1", "x5", "x4"), ("x2", "x4", "x5"), ("x3", "x4", "x6"),
]


def gamma_q2_presentation_spec() -> dict:
    points = [f"x{i}" for i in range(7)]
    succ: dict[str, set] = {p: set() for p in points}
    for x, y, z in GAMMA_Q2_TRIPLES:
        for p, q in ((x, y), (y, z), (z, x)):
            succ[p].add(q)
    return {
        "q": 2,
        "points": points,
        "lines": [sorted(succ[p]) for p in points],
        "lambda": {p: i for i, p in enumerate(points)},
        "triples": [list(t) for t in GAMMA_Q2_TRIPLES],
    }


def adjacency(spec: dict) -> list[list[int]]:
    """Edge multiplicities in the spec's vertex order."""
    index = {v: i for i, v in enumerate(spec["vertices"])}
    n = len(index)
    a = [[0] * n for _ in range(n)]
    for e in spec["edges"]:
        a[index[e["src"]]][index[e["dst"]]] += 1
    return a


def label_prefix(seed: int) -> str:
    """A seed-dependent prefix for vertex and edge ids.  Renaming keeps every
    order, so it changes neither the arithmetic nor its cost."""
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3)) + "_"


def de_bruijn_spec(k: int, m: int, prefix: str) -> dict:
    """B(k, m): words of length m over k letters, an edge w -> w[1:]+s for
    each letter s.  Vertices stay in lexicographic order: the determinant's
    cost depends strongly on the vertex order."""
    words = ["".join(map(str, w)) for w in itertools.product(range(k), repeat=m)]
    edges = [
        {"id": f"{prefix}{w}>{s}", "src": prefix + w, "dst": prefix + w[1:] + str(s)}
        for w in words
        for s in range(k)
    ]
    return {"vertices": [prefix + w for w in words], "edges": edges}


def _cycle_plus_random(rng: random.Random, vertices: list[str], tag: str) -> list[dict]:
    """A Hamiltonian cycle through a random vertex order (so the graph is
    strongly connected) plus as many uniformly random edges (loops and
    parallel edges allowed)."""
    n = len(vertices)
    order = vertices[:]
    rng.shuffle(order)
    pairs = [(order[i], order[(i + 1) % n]) for i in range(n)]
    pairs += [(rng.choice(vertices), rng.choice(vertices)) for _ in range(n)]
    return [{"id": f"{tag}{i}", "src": a, "dst": b} for i, (a, b) in enumerate(pairs)]


def random_strong_multigraph(rng: random.Random, n: int) -> dict:
    vertices = [f"v{i}" for i in range(n)]
    return {"vertices": vertices, "edges": _cycle_plus_random(rng, vertices, "e")}


def two_cycles_spec() -> dict:
    """Two disjoint 2-cycles: the root 1 has a two-dimensional kernel, which
    sends the solver to its linear program."""
    return {
        "vertices": ["a", "b", "c", "d"],
        "edges": [
            {"id": "ab", "src": "a", "dst": "b"}, {"id": "ba", "src": "b", "dst": "a"},
            {"id": "cd", "src": "c", "dst": "d"}, {"id": "dc", "src": "d", "dst": "c"},
        ],
    }


def boundary_graph_spec(cspec: dict) -> dict:
    """One vertex per skeleton edge, one edge per consecutive pair inside a
    face's cyclic boundary word."""
    edges = []
    for f in cspec["faces"]:
        word = f["boundary"]
        for k, e in enumerate(word):
            edges.append({"id": f"{f['id']}:{k}", "src": e, "dst": word[(k + 1) % len(word)]})
    return {"vertices": [e["id"] for e in cspec["edges"]], "edges": edges}


# ---------------------------------------------------------------------------
# Amalgams of figB copies glued along the edge d
# ---------------------------------------------------------------------------

_RESIDUE_D = {"vertices": ["v", "u"], "edges": [{"id": "d", "src": "v", "dst": "u"}]}
_ATTACH_D = {"vertex_map": {"v": "v", "u": "u"}, "edge_map": {"d": "d"}}


def amalgam_spec(form: str, k: int, rng: random.Random) -> dict:
    """k figB pieces glued along d.  ``star`` attaches every piece to one
    residue; ``chain`` glues piece i to piece i+1 through residue r_i.  The
    seed shuffles the order in which pieces are listed."""
    names = [f"p{i}" for i in range(k)]
    listed = names[:]
    rng.shuffle(listed)
    pieces = {p: FIG_B_SPEC for p in listed}
    if form == "star":
        residues = {"r": _RESIDUE_D}
        attachments = [{"piece": p, "residue": "r", **_ATTACH_D} for p in names]
    else:
        residues = {f"r{i}": _RESIDUE_D for i in range(k - 1)}
        attachments = [
            {"piece": p, "residue": f"r{i}", **_ATTACH_D} for i in range(k - 1) for p in (names[i], names[i + 1])
        ]
    return {"pieces": pieces, "residues": residues, "attachments": attachments}


def positive_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 9))


# ---------------------------------------------------------------------------
# Graph pairs with exact weights for splice_graph_weights
# ---------------------------------------------------------------------------

SHARED_SPEC = {
    "vertices": ["s0", "s1", "s2"],
    "edges": [
        {"id": "t0", "src": "s0", "dst": "s1"},
        {"id": "t1", "src": "s1", "dst": "s2"},
        {"id": "t2", "src": "s2", "dst": "s0"},
    ],
}


def graph_with_shared_cycle(rng: random.Random, n: int, tag: str) -> dict:
    """Strongly connected graph on the shared 3-cycle plus n-3 own vertices."""
    vertices = list(SHARED_SPEC["vertices"]) + [f"{tag}{i}" for i in range(n - 3)]
    return {"vertices": vertices, "edges": SHARED_SPEC["edges"] + _cycle_plus_random(rng, vertices, f"{tag}e")}


def exact_graph_weight(rng: random.Random, spec: dict) -> tuple[dict, dict]:
    """Random positive rational g, and lambda that solves the weight equation
    by construction: lambda(e) = r_e g(v) / sum over e' leaving v of
    r_e' g(dst e')."""
    g = {v: positive_rational(rng) for v in spec["vertices"]}
    out: dict[str, list] = {}
    for e in spec["edges"]:
        out.setdefault(e["src"], []).append(e)
    lam = {}
    for v, es in out.items():
        r = {e["id"]: positive_rational(rng) for e in es}
        total = sum(r[e["id"]] * g[e["dst"]] for e in es)
        for e in es:
            lam[e["id"]] = r[e["id"]] * g[v] / total
    return g, lam


def sample_pairs(rng: random.Random, xs: list, count: int) -> list[tuple]:
    return [(rng.choice(xs), rng.choice(xs)) for _ in range(count)]
