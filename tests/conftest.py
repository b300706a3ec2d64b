"""Shared fixtures, reference weights and random-object helpers for the suite.

The closed-form figB weights of the source paper (standard, two-parameter
and tight) are the references the solver and the verifiers are compared
against; the package itself never builds them.

Also enforces the whole-suite runtime budget (acceptance criterion 10):
the sessionfinish hook prints its PASS/FAIL line and fails the run when the
wall time exceeds 60 seconds.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

_SESSION_START = [0.0]
SUITE_BUDGET_SECONDS = 60.0


def pytest_sessionstart(session):
    _SESSION_START[0] = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.perf_counter() - _SESSION_START[0]
    ok = elapsed < SUITE_BUDGET_SECONDS
    line = f"ACCEPTANCE 10 full suite runtime {elapsed:.1f}s < {SUITE_BUDGET_SECONDS:.0f}s: {'PASS' if ok else 'FAIL'}"
    print()
    print(line)
    if not ok and exitstatus == 0:
        session.exitstatus = 1

from cwkms.buildings import presentation_complex, presentation_from_spec, sector_graphs
from cwkms.complexes import boundary_graph, build_complex
from cwkms.cwweights import MODE_STANDARD, MODE_TIGHT, Rank2Weight
from cwkms.fixtures import FIG_B_SPEC, gamma_q2_presentation_spec
from cwkms.graphs import DirectedGraph, build_graph
from cwkms.solver import GraphWeight


@pytest.fixture(scope="session")
def figb():
    return build_complex(FIG_B_SPEC)


@pytest.fixture(scope="session")
def figb_boundary(figb):
    return boundary_graph(figb)


@pytest.fixture(scope="session")
def gamma_presentation():
    return presentation_from_spec(gamma_q2_presentation_spec())


@pytest.fixture(scope="session")
def gamma_complex(gamma_presentation):
    return presentation_complex(gamma_presentation)


@pytest.fixture(scope="session")
def gamma_sector_graphs(gamma_presentation):
    return sector_graphs(gamma_presentation)


def det_exact(rows):
    """Reference determinant of a square matrix of exact scalars (ints,
    Fractions or number-field elements) by ordinary Gaussian elimination."""
    a = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return a[0][0] * 0
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det = det * a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


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


def random_graph(rng: random.Random, n_max: int = 6, allow_sinks: bool = True) -> DirectedGraph:
    """Small random multigraph (loops and parallel edges allowed)."""
    n = rng.randint(1, n_max)
    vertices = [f"v{i}" for i in range(n)]
    edges = []
    m = rng.randint(0 if allow_sinks else n, 2 * n)
    for k in range(m):
        edges.append({
            "id": f"e{k}",
            "src": rng.choice(vertices),
            "dst": rng.choice(vertices),
        })
    if not allow_sinks:
        covered = {e["src"] for e in edges}
        for i, v in enumerate(vertices):
            if v not in covered:
                edges.append({"id": f"x{i}", "src": v, "dst": rng.choice(vertices)})
    return build_graph({"vertices": vertices, "edges": edges})


def identity_embedding(sub: DirectedGraph, sup: DirectedGraph):
    from cwkms.splicing import GraphEmbedding

    return GraphEmbedding(
        source=sub,
        target=sup,
        vertex_map={v: v for v in sub.vertices},
        edge_map={e: e for e in sub.edge_ids()},
    )


def compatible_extension_pair(rng: random.Random, gamma: DirectedGraph):
    """Two random supergraphs of gamma whose shared vertices have matching
    sink structure (the splice formulas require it): gamma sinks are either
    kept sinks in both pieces or made non-sinks in both."""
    sinks = [v for v in gamma.vertices if gamma.is_sink(v)]
    active = {v for v in sinks if rng.random() < 0.5}

    def extend(tag: str):
        spec = {
            "vertices": list(gamma.vertices),
            "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in gamma.edges],
        }
        new_vs = [f"{tag}{i}" for i in range(rng.randint(0, 3))]
        spec["vertices"] += new_vs
        allowed_src = [v for v in gamma.vertices if not gamma.is_sink(v)] + list(active) + new_vs
        all_dst = spec["vertices"]
        for k in range(rng.randint(0, 4)):
            if not allowed_src:
                break
            spec["edges"].append({
                "id": f"{tag}e{k}",
                "src": rng.choice(allowed_src),
                "dst": rng.choice(all_dst),
            })
        sup = build_graph(spec)
        missing = [v for v in active if sup.is_sink(v)]
        if missing:
            edges = spec["edges"] + [
                {"id": f"{tag}fix{i}", "src": v, "dst": rng.choice(all_dst)}
                for i, v in enumerate(missing)
            ]
            sup = build_graph({"vertices": spec["vertices"], "edges": edges})
        return sup

    g1, g2 = extend("a"), extend("b")
    return (g1, identity_embedding(gamma, g1)), (g2, identity_embedding(gamma, g2))


def random_faithful_weight(rng: random.Random, graph: DirectedGraph) -> GraphWeight:
    """Exact rational weight: pick positive g and raw positive lambdas, then
    rescale each bundle so the weight equation holds exactly."""
    g = {v: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for v in graph.vertices}
    lam = {}
    for v in graph.vertices:
        out = graph.out_edges(v)
        if not out:
            continue
        raw = {eid: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for eid in out}
        total = sum(raw[eid] * g[graph.dst(eid)] for eid in out)
        for eid in out:
            lam[eid] = raw[eid] * g[v] / total
    return GraphWeight(g=g, lam=lam)
