"""splice: figB amalgams glued along the edge d, in star and chain form,
each built, spliced from exact solver weights and verified in one
operation; plus splice_graph_weights on seeded graph pairs.

The seed draws the order in which pieces are listed, the integer scale of
each piece's weight and the graph pairs.  No determinant runs while timed:
the piece weight is solved once during set-up.
"""

from __future__ import annotations

import functools
import random

import cwkms as cw

import inputs
import oracles

AMALGAM_SIZES = [16, 32, 64, 128]
GRAPH_PAIR_SIZES = [2000, 8000]


class Workload:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        figb = cw.build_complex(inputs.FIG_B_SPEC)
        base = cw.solve_2dcw(figb, "standard")[0].weight
        self.ops = []
        self.checks = {}
        for form in ("star", "chain"):
            for k in AMALGAM_SIZES:
                spec = inputs.amalgam_spec(form, k, rng)
                weights = {p: _scaled(base, rng.randint(1, 4)) for p in spec["pieces"]}
                label = f"amalgam-{form}-{k}"
                self.ops.append((label, lambda spec=spec, weights=weights: _splice_amalgam(spec, weights)))
                self.checks[label] = functools.partial(_check_amalgam, k=k)
        shared = cw.build_graph(inputs.SHARED_SPEC)
        for n in GRAPH_PAIR_SIZES:
            args = []
            for tag in ("a", "b"):
                spec = inputs.graph_with_shared_cycle(rng, n, tag)
                g, lam = inputs.exact_graph_weight(rng, spec)
                emb = cw.GraphEmbedding(
                    source=shared,
                    target=cw.build_graph(spec),
                    vertex_map={v: v for v in inputs.SHARED_SPEC["vertices"]},
                    edge_map={e["id"]: e["id"] for e in inputs.SHARED_SPEC["edges"]},
                )
                args.append((cw.GraphWeight(g, lam), emb, spec))
            (w1, e1, s1), (w2, e2, s2) = args
            label = f"graphs-{n}"
            self.ops.append((label, functools.partial(_splice_graphs, w1, w2, e1, e2)))
            self.checks[label] = functools.partial(
                _check_graphs,
                vertices=len(s1["vertices"]) + len(s2["vertices"]) - len(inputs.SHARED_SPEC["vertices"]),
                edges=len(s1["edges"]) + len(s2["edges"]) - len(inputs.SHARED_SPEC["edges"]),
            )

        # warm-up: a small amalgam and a graph splice once
        _splice_amalgam(inputs.amalgam_spec("chain", 3, random.Random(0)), {f"p{i}": base for i in range(3)})
        _splice_graphs(w1, w2, e1, e2)


def _scaled(w, c):
    """A standard weight scaled by c > 0: g and lambda scale, lambda_tilde
    and eta stay."""
    return cw.Rank2Weight(
        g={k: c * v for k, v in w.g.items()},
        lambda_tilde=dict(w.lambda_tilde),
        lam={k: c * v for k, v in w.lam.items()},
        eta=dict(w.eta),
        mode=w.mode,
    )


def _splice_graphs(w1, w2, e1, e2):
    return cw.splice_graph_weights(w1, w2, e1, e2)


def _splice_amalgam(spec: dict, weights: dict):
    am = cw.build_amalgam(spec)
    spliced = cw.splice_cw_weights(am, weights)
    return am, spliced, cw.verify_rank2(am.foundation, spliced)


def _check_amalgam(out, k: int) -> list[str]:
    """3k+2 vertices, 5k+1 edges, 2k faces; the spliced weight solves the
    standard rank-2 equations exactly."""
    am, spliced, report = out
    cspec = cw.complexes.complex_to_dict(am.foundation)
    sizes = (len(cspec["vertices"]), len(cspec["edges"]), len(cspec["faces"]))
    problems = []
    if sizes != (3 * k + 2, 5 * k + 1, 2 * k):
        problems.append(f"foundation sizes {sizes} for k={k}")
    if not report.passed:
        problems.append(f"verify_rank2 failed, max residual {report.max_residual}")
    return problems + oracles.rank2_problems(cspec, spliced, "standard")


def _check_graphs(result, vertices: int, edges: int) -> list[str]:
    spec = cw.graphs.graph_to_dict(result.glued.graph)
    problems = []
    if (len(spec["vertices"]), len(spec["edges"])) != (vertices, edges):
        problems.append(f"glued graph has {len(spec['vertices'])} vertices, {len(spec['edges'])} edges")
    return problems + oracles.graph_weight_problems(spec, result.weight.g, result.weight.lam)
