"""Shared fixtures and random-object helpers for the suite.

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
from cwkms.complexes import boundary_graph
from cwkms.fixtures import fig_b_complex, gamma_q2_presentation_spec
from cwkms.graphs import DirectedGraph, build_graph
from cwkms.solver import GraphWeight


@pytest.fixture(scope="session")
def figb():
    return fig_b_complex()


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
