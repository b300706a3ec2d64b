"""Spans around the calls into cwkms's public functions, installed from
outside the program for a traced run only.

Every module that imported a function holds its own name for it, so the
wrapper replaces each name that refers to the original.  The workloads look
cwkms functions up when an operation runs, never when it is made, so that
they call whatever is installed at that moment.  A span is
(name, start, end, parent, operation, phase); spans stay in memory until the
run ends.  Counts are read from the values the wrapped functions return,
never from private functions.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

import oracles

# "module.name" of every wrapped function; "module.Class.method" wraps a method.
TARGETS = [
    "exact.det_bareiss_poly",
    "exact.isolate_positive_roots",
    "exact.kernel_basis_exact",
    "exact.FieldElement.sign",
    "solver.det_polynomial",
    "solver.positive_kernel",
    "cwweights.solve_2dcw",
    "cwweights.scale_determinant",
    "cwweights.solve_triangular_special",
    "cwweights.verify_rank2",
    "buildings.sector_graphs",
    "buildings.matched_weight_search",
    "pathalgebra.all_monomials",
    "pathalgebra.kms_check",
    "pathalgebra.gauge_check",
    "splicing.build_amalgam",
    "splicing.splice_cw_weights",
    "splicing.splice_graph_weights",
    "complexes.build_complex",
    "complexes.boundary_graph",
    "graphs.build_graph",
]

SELF_TIMES = [t for t in TARGETS if t != "solver.det_polynomial"]
CALLS = ["exact.FieldElement.sign", "solver.det_polynomial", "solver.positive_kernel"]

# metric name -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {f"{t}.self_s": "s" for t in SELF_TIMES}
LAYER_METRICS.update({f"{t}.calls": "count" for t in CALLS})
LAYER_METRICS.update({
    "exact.field_degree_sum": "count",
    "solver.det.degree_sum": "count",
    "solver.det.coeff_bits_max": "bits",
    "solver.kernel.wasted_s": "s",
    "solver.kernel.float_results": "count",
    "solver.kernel.undetermined": "count",
    "cwweights.float_families": "count",
    "pathalgebra.kms.pairs": "count",
    "pathalgebra.kms.nonzero_pairs": "count",
})


def _has_float(values) -> bool:
    return any(isinstance(x, float) for x in values)


def _weight_values(w):
    for part in ("g", "lambda_tilde", "lam", "eta", "eta_a", "eta_b"):
        yield from getattr(w, part, {}).values()


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.op = -1
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.coeff_bits_max = 0
        self._restore: list[tuple] = []
        self._nonzero: dict[int, tuple] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items() if name == "cwkms" or name.startswith("cwkms.")]
        for target in TARGETS:
            modname, _, attr = target.partition(".")
            owner = sys.modules[f"cwkms.{modname}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                holders = [owner]
            else:
                holders = mods
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            for holder in holders:
                if holder.__dict__.get(attr) is original:
                    setattr(holder, attr, wrapper)
                    self._restore.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        observe = _OBSERVERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.op, self.phase]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result, (span[2] - span[1]) / 1e9)
            return result

        return wrapper

    # -- counts ---------------------------------------------------------------

    def count(self, metric: str, amount: float = 1) -> None:
        self.counts[self.phase][metric] += amount

    def nonzero_pairs(self, sample) -> int:
        hit = self._nonzero.get(id(sample))
        if hit is None:
            # keep the sample alive so its id stays unique
            hit = self._nonzero[id(sample)] = (sample, oracles.nonzero_pairs(sample))
        return hit[1]

    # -- results --------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Each figure is one set-up plus one round: set-up totals plus
        timed-phase totals divided by the number of traced rounds."""
        self_ns: dict = defaultdict(lambda: defaultdict(int))
        calls: dict = defaultdict(lambda: defaultdict(int))
        child_ns = [0] * len(self.spans)
        for name, t0, t1, parent, _op, _phase in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        for i, (name, t0, t1, _parent, _op, phase) in enumerate(self.spans):
            self_ns[phase][name] += t1 - t0 - child_ns[i]
            calls[phase][name] += 1

        def per_round(table, key):
            return table["setup"][key] + table["round"][key] / rounds

        out = {}
        for t in SELF_TIMES:
            out[f"{t}.self_s"] = per_round(self_ns, t) / 1e9
        for t in CALLS:
            out[f"{t}.calls"] = per_round(calls, t)
        for metric in LAYER_METRICS:
            if metric not in out:
                out[metric] = per_round(self.counts, metric)
        out["solver.det.coeff_bits_max"] = self.coeff_bits_max
        return out


# ---------------------------------------------------------------------------
# Observers: counts read from returned values
# ---------------------------------------------------------------------------

def _obs_det(tr: Tracer, args, det, seconds) -> None:
    tr.count("solver.det.degree_sum", max(det.degree, 0))
    for c in det.coeffs:
        c = Fraction(c)
        bits = max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        tr.coeff_bits_max = max(tr.coeff_bits_max, bits)


def _obs_kernel(tr: Tracer, args, kr, seconds) -> None:
    if kr.status != "positive":
        tr.count("solver.kernel.wasted_s", seconds)
    if kr.status == "undetermined":
        tr.count("solver.kernel.undetermined")
    if any(_has_float(vec) for vec in kr.basis):
        tr.count("solver.kernel.float_results")


def _obs_roots(tr: Tracer, args, roots, seconds) -> None:
    tr.count("exact.field_degree_sum", sum(r.poly.degree for r in roots if r.rational is None))


def _obs_families(tr: Tracer, args, families, seconds) -> None:
    tr.count("cwweights.float_families", sum(1 for f in families if _has_float(_weight_values(f.weight))))


def _obs_kms(tr: Tracer, args, report, seconds) -> None:
    tr.count("pathalgebra.kms.pairs", report.pairs_checked)
    tr.count("pathalgebra.kms.nonzero_pairs", tr.nonzero_pairs(args[1]))


_OBSERVERS = {
    "solver.det_polynomial": _obs_det,
    "solver.positive_kernel": _obs_kernel,
    "exact.isolate_positive_roots": _obs_roots,
    "cwweights.solve_2dcw": _obs_families,
    "cwweights.solve_triangular_special": _obs_families,
    "pathalgebra.kms_check": _obs_kms,
}
