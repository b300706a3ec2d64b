"""sweep: one operation is one kms_check or gauge_check call on a whole
sample.  Weights, functionals, monomials and samples are made during set-up,
so no solve runs while the sweep is timed.  The seed draws the samples.
"""

from __future__ import annotations

import functools
import random

import cwkms as cw

import inputs
import oracles

# pairs per sample: about 0.3 s each at the parent commit
FIELD_PAIRS = 400
RATIONAL_PAIRS = 8000
MIXED_MONOMIALS = 100
MIXED_PAIRS = 300
# monomials per gauge sample: about 70 ms each, so that no operation of the
# round is short enough for timer noise or the draw to set its time
GAUGE_MIXED = 2000
GAUGE_DECIMAL = 15000
GAUGE_GAMMA = 40000


class Workload:
    def __init__(self, seed: int):
        rng = random.Random(seed)
        figb = cw.build_complex(inputs.FIG_B_SPEC)
        w_field = cw.solve_2dcw(figb, "standard")[0].weight
        w_dec = _decimal_copy(w_field)
        field = cw.functional_from_rank2(figb, w_field)
        dec = cw.functional_from_rank2(figb, w_dec)
        dec_opposite = cw.functional_from_rank2(figb, w_dec, beta_sign=1)
        skeleton, boundary = figb.skeleton, cw.boundary_graph(figb).graph
        sk2, bd2 = cw.all_monomials(skeleton, 2), cw.all_monomials(boundary, 2)
        sk3, bd3 = cw.all_monomials(skeleton, 3), cw.all_monomials(boundary, 3)
        mixed = [cw.Rank2Monomial(rng.choice(sk2), rng.choice(bd2)) for _ in range(MIXED_MONOMIALS)]

        tp = cw.presentation_from_spec(inputs.gamma_q2_presentation_spec())
        gamma = cw.presentation_complex(tp)
        tri = cw.solve_triangular_special(gamma)[0].weight
        gamma_bg = cw.boundary_graph(gamma)
        eta_edges = {eid: tri.eta_a[fid] for eid, (fid, _pos) in gamma_bg.labels.items()}
        g_sk = cw.functional_from_graph_weight(gamma.skeleton, cw.GraphWeight(tri.g, tri.lambda_tilde))
        g_bd = cw.functional_from_graph_weight(gamma_bg.graph, cw.GraphWeight(tri.lam, eta_edges))
        gsk2, gbd2 = cw.all_monomials(gamma.skeleton, 2), cw.all_monomials(gamma_bg.graph, 2)

        def pairs(xs, count):
            return inputs.sample_pairs(rng, xs, count)

        kms = [
            ("kms-field-boundary-L2", field.boundary, pairs(bd2, FIELD_PAIRS), True),
            ("kms-field-skeleton-L2", field.skeleton, pairs(sk2, FIELD_PAIRS), True),
            ("kms-decimal-boundary-L3", dec.boundary, pairs(bd3, RATIONAL_PAIRS), True),
            ("kms-decimal-skeleton-L3", dec.skeleton, pairs(sk3, RATIONAL_PAIRS), True),
            ("kms-field-mixed", field, pairs(mixed, MIXED_PAIRS), True),
            ("kms-gamma-skeleton-L2", g_sk, pairs(gsk2, RATIONAL_PAIRS), True),
            ("kms-gamma-boundary-L2", g_bd, pairs(gbd2, RATIONAL_PAIRS), True),
            ("kms-opposite-sign", dec_opposite.boundary, pairs(bd3, RATIONAL_PAIRS), False),
        ]
        gauge = [
            ("gauge-field-mixed", field, [cw.Rank2Monomial(rng.choice(sk2), rng.choice(bd2)) for _ in range(GAUGE_MIXED)]),
            ("gauge-decimal-boundary-L3", dec.boundary, [rng.choice(bd3) for _ in range(GAUGE_DECIMAL)]),
            ("gauge-gamma-boundary-L2", g_bd, [rng.choice(gbd2) for _ in range(GAUGE_GAMMA)]),
        ]
        self.ops = []
        self.checks = {}
        for label, psi, sample, expect in kms:
            self.ops.append((label, lambda psi=psi, sample=sample: cw.kms_check(psi, sample)))
            self.checks[label] = functools.partial(
                oracles.kms_problems, sample_size=len(sample), expect_pass=expect
            )
        for label, psi, sample in gauge:
            self.ops.append((label, lambda psi=psi, sample=sample: cw.gauge_check(psi, sample)))
            self.checks[label] = functools.partial(_check_gauge, size=len(sample))

        # warm-up: every functional and both checkers once, on a few items
        for _label, psi, sample, _expect in kms:
            cw.kms_check(psi, sample[:10])
        for _label, psi, sample in gauge:
            cw.gauge_check(psi, sample[:10])



def _check_gauge(report, size: int) -> list[str]:
    problems = [] if report.passed else [f"gauge violations {report.violations[:3]}"]
    if report.checked != size:
        problems.append(f"gauge checked {report.checked} of {size}")
    return problems


def _decimal_copy(w):
    """The weight as the CLI reads it back: every value printed as a decimal
    string and parsed exactly."""
    def parse(d):
        return {k: cw.solver.parse_scalar(cw.solver.format_scalar(v)) for k, v in d.items()}

    return cw.Rank2Weight(
        g=parse(w.g), lambda_tilde=parse(w.lambda_tilde), lam=parse(w.lam), eta=parse(w.eta), mode=w.mode
    )
