"""classify: one operation is one library solve over a fixed ladder.

The ladder is the same for every seed; the seed only renames the de Bruijn
vertices.  Costs on these inputs depend on vertex order (the determinant)
and on the graph drawn (kernels over number fields), so a seeded draw would
make the round time a property of the seed rather than of the code.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import cwkms as cw

import inputs
import oracles

DE_BRUIJN = [(3, 3), (2, 5), (5, 2), (6, 2), (7, 2), (2, 6)]
# Random strongly connected multigraphs: graph n is drawn with seed n.
RANDOM_SIZES = list(range(8, 17))
DET_POINTS = (2, 3, -5)


class Workload:
    def __init__(self, seed: int):
        prefix = inputs.label_prefix(seed)
        self.ops: list[tuple] = []
        self.checks: dict = {}
        for k, m in DE_BRUIJN:
            spec = inputs.de_bruijn_spec(k, m, prefix)
            self._solve(f"debruijn-{k}-{m}", spec, functools.partial(_check_debruijn, k=k))
        for n in RANDOM_SIZES:
            spec = inputs.random_strong_multigraph(random.Random(n), n)
            self._solve(f"random-{n}", spec, _check_strongly_connected)

        tp = cw.presentation_from_spec(inputs.gamma_q2_presentation_spec())
        q = tp.plane.q
        self._add("gamma-sectors-matched", lambda: _matched(tp), functools.partial(_check_matched, q=q))
        figb = cw.build_complex(inputs.FIG_B_SPEC)
        for mode in ("standard", "tight"):
            check = functools.partial(_check_figb, mode=mode)
            self._add(f"figB-{mode}", lambda mode=mode: cw.solve_2dcw(figb, mode), check)
        gamma = cw.presentation_complex(tp)
        check = functools.partial(_check_triangular, cspec=cw.complexes.complex_to_dict(gamma))
        self._add("gamma-triangular", lambda: cw.solve_triangular_special(gamma), check)
        self._warm_up()

    def _add(self, label: str, op, check) -> None:
        self.ops.append((label, op))
        self.checks[label] = check

    def _solve(self, label: str, spec: dict, check) -> None:
        graph = cw.build_graph(spec)
        check = functools.partial(check, adj=inputs.adjacency(spec))
        self._add(label, lambda: cw.solve_special_weights(graph), check)

    def _warm_up(self) -> None:
        """Touch every path once: rational and number-field kernels, the SVD
        fallback (gamma-q2 boundary graph), the linear program (two 2-cycles,
        whose first call imports scipy) and the float scale roots of the
        tight lift."""
        small = [
            inputs.de_bruijn_spec(2, 2, "w"),
            inputs.random_strong_multigraph(random.Random(5), 5),
            inputs.two_cycles_spec(),
        ]
        for spec in small:
            cw.solve_special_weights(cw.build_graph(spec))
        tp = cw.presentation_from_spec(inputs.gamma_q2_presentation_spec())
        gamma = cw.presentation_complex(tp)
        cw.solve_special_weights(cw.boundary_graph(gamma).graph)
        cw.solve_2dcw(cw.build_complex(inputs.FIG_B_SPEC), "tight")


def _matched(tp):
    gp, gm = cw.sector_graphs(tp)
    return gp, gm, cw.matched_weight_search(gp, gm)


def _check_debruijn(rep, k: int, adj) -> list[str]:
    """det = +-(1 - k lambda), one root 1/k, a constant positive vector."""
    problems = oracles.check_det(rep.det.coeffs, adj, DET_POINTS)
    if [Fraction(c) for c in rep.det.coeffs] not in ([1, -k], [-1, k]):
        problems.append(f"det {rep.det} is not +-(1 - {k} x)")
    if len(rep.families) != 1:
        return problems + [f"{len(rep.families)} roots, expected 1"]
    fam = rep.families[0]
    if fam.eta.rational != Fraction(1, k) or fam.kernel.status != "positive":
        problems.append(f"root {fam.eta} status {fam.kernel.status}")
    elif len(set(fam.kernel.positive)) != 1:
        problems.append("kernel vector is not constant")
    else:
        problems += oracles.kernel_problems(adj, fam.eta, fam.kernel.positive)
    return problems


def _check_strongly_connected(rep, adj) -> list[str]:
    """Exactly the root 1/rho(A) reports positive, with a positive vector
    solving (lambda A - I) v = 0; other roots report anything else."""
    problems = oracles.check_det(rep.det.coeffs, adj, DET_POINTS)
    perron = oracles.perron_root(adj)
    positive = [f for f in rep.families if f.kernel.status == "positive"]
    if len(positive) != 1:
        return problems + [f"{len(positive)} roots report positive, expected 1"]
    fam = positive[0]
    if abs(fam.eta.to_float() - perron) > oracles.FLOAT_TOL * perron:
        problems.append(f"positive root {fam.eta.to_float()} is not 1/rho = {perron}")
    return problems + oracles.kernel_problems(adj, fam.eta, fam.kernel.positive)


def _check_matched(out, q: int) -> list[str]:
    gp, gm, pairs = out
    if not pairs:
        return ["no matched sector pair"]
    problems = []
    for p in pairs:
        for graph, fam in ((gp, p.plus), (gm, p.minus)):
            if fam.eta.rational != Fraction(1, q * q):
                problems.append(f"matched root {fam.eta} is not 1/q^2")
                continue
            adj = inputs.adjacency(cw.graphs.graph_to_dict(graph))
            problems += oracles.kernel_problems(adj, fam.eta, fam.kernel.positive)
        if not p.scale > 0:
            problems.append(f"matched scale {p.scale}")
    return problems


def _check_figb(families, mode: str) -> list[str]:
    if not families:
        return [f"no {mode} family on figB"]
    problems = []
    for fam in families:
        if abs(fam.eta.to_float() - oracles.FIG_B_ETA) > 1e-12:
            problems.append(f"eta {fam.eta.to_float()} is not the root of 1 - x^3 - x^4")
        problems += oracles.rank2_problems(inputs.FIG_B_SPEC, fam.weight, mode)
    return problems


def _check_triangular(families, cspec: dict) -> list[str]:
    if not families:
        return ["no tight triangular family on gamma-q2"]
    adj = inputs.adjacency(inputs.boundary_graph_spec(cspec))
    problems = oracles.check_det(families[0].det.coeffs, adj, DET_POINTS)
    for fam in families:
        problems += oracles.triangular_problems(cspec, fam.weight)
    return problems
