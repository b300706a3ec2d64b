"""Golden CLI outputs: every subcommand on the shipped fixtures.

Each case runs ``cwkms`` in-process on the inputs under ``tests/golden/inputs``
and compares its exit code and stdout byte for byte with
``tests/golden/<case>.out`` (first line ``exit <code>``, then stdout).
Regenerate the files after a deliberate output change with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

import pytest

from cwkms.cli import _build_parser, main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# case name -> argv; "{in}" stands for the inputs directory
CASES = {
    "fixtures": ["fixtures"],
    "fixtures-figB": ["fixtures", "figB"],
    "fixtures-unknown": ["fixtures", "nope"],
    "boundary-graph-figB": ["boundary-graph", "{in}/figB.json"],
    "solve-graph-boundary-figB": ["solve-graph", "--boundary", "{in}/figB.json"],
    "solve-graph-boundary-figB-table": ["--format", "table", "solve-graph", "--boundary", "{in}/figB.json"],
    "solve-graph-boundary-gamma": ["solve-graph", "--boundary", "{in}/gamma.json"],
    "solve-graph-skeleton-monogon": ["solve-graph", "{in}/monogon-triangle.json"],
    "solve-cw-standard-figB": ["solve-cw", "--mode", "standard", "{in}/figB.json"],
    "solve-cw-tight-figB": ["solve-cw", "--mode", "tight", "{in}/figB.json"],
    "solve-cw-tight-monogon": ["solve-cw", "--mode", "tight", "{in}/monogon-triangle.json"],
    "solve-triangular-gamma": ["solve-triangular", "{in}/gamma.json"],
    "solve-triangular-monogon": ["solve-triangular", "{in}/monogon-triangle.json"],
    "verify-rank2-figB": ["verify", "{in}/figB.json", "{in}/figB-rank2.json"],
    "verify-rank2-gamma": ["verify", "{in}/gamma.json", "{in}/gamma-rank2.json"],
    "verify-rank2-gamma-as-standard": ["verify", "--mode", "standard", "{in}/gamma.json", "{in}/gamma-rank2.json"],
    "verify-triangular-gamma": ["verify", "{in}/gamma.json", "{in}/gamma-triangular.json"],
    "verify-graph-gamma": ["verify", "{in}/gamma.json", "{in}/gamma-graph.json"],
    "verify-graph-figB-boundary": ["verify", "--boundary", "{in}/figB.json", "{in}/figB-boundary-ones.json"],
    "kms-check-rank2-figB": ["kms-check", "--max-path-len", "2", "{in}/figB.json", "{in}/figB-rank2.json"],
    "kms-check-rank2-gamma": ["kms-check", "--max-path-len", "1", "{in}/gamma.json", "{in}/gamma-rank2.json"],
    "kms-check-triangular-gamma": [
        "kms-check", "--max-path-len", "1", "{in}/gamma.json", "{in}/gamma-triangular.json"
    ],
    "kms-check-graph-gamma": ["kms-check", "--max-path-len", "1", "{in}/gamma.json", "{in}/gamma-graph.json"],
    "kms-check-graph-figB-boundary": [
        "kms-check", "--boundary", "--max-path-len", "2", "{in}/figB.json", "{in}/figB-boundary-ones.json"
    ],
    "splice-figB-double": ["splice", "{in}/figB-double.json", "--weights", "{in}/weights"],
    "a2-complex-gamma-q2": ["a2", "complex", "gamma-q2"],
    "a2-sectors-gamma-q2": ["a2", "sectors", "gamma-q2"],
    "a2-sectors-matched-gamma-q2": ["a2", "sectors", "gamma-q2", "--matched"],
    "a2-lattice-check": ["a2", "lattice-check"],
    "a2-lattice-check-base": ["a2", "lattice-check", "--q", "2", "--bound", "4,4", "--base", "a=1", "--base", "b=3/7"],
}

def argv_of(case: str) -> list[str]:
    return [a.replace("{in}", str(INPUTS)) for a in CASES[case]]


def run_case(case: str) -> str:
    """Exit code line plus stdout, as stored in the golden file."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv_of(case))
    return golden_text(code, out.getvalue())


def golden_text(code: int, stdout: str) -> str:
    return f"exit {code}\n{stdout}"


def expected(case: str) -> str:
    return (GOLDEN / f"{case}.out").read_text()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    assert run_case(case) == expected(case)


def test_every_determinant_takes_the_hessenberg_body(monkeypatch):
    """Across the golden runs, each determinant of a graph without sinks
    (``pencil_determinant``) and each norm of a scale determinant (the
    ``matrix_pencil`` of a block matrix) makes one ``_hessenberg_charpoly``
    call.  Only figB's tight lift, whose scale determinant has number-field
    entries, reduces in its own arithmetic (p = None), once; its norm and
    every other determinant are reduced modulo a prime."""
    import cwkms.cwweights
    import cwkms.exact
    import cwkms.solver

    primes, dets = [], []
    body, pencil, norm = cwkms.exact._hessenberg_charpoly, cwkms.solver.pencil_determinant, cwkms.solver.matrix_pencil

    def spy_body(h, p=None):
        primes.append(p)
        return body(h, p)

    def spy_pencil(graph, lam):
        if not any(graph.is_sink(v) for v in graph.vertices):
            dets.append("det")
        return pencil(graph, lam)

    def spy_norm(rows):
        dets.append("norm")
        return norm(rows)

    monkeypatch.setattr(cwkms.exact, "_hessenberg_charpoly", spy_body)
    monkeypatch.setattr(cwkms.cwweights, "matrix_pencil", spy_norm)
    for module in (cwkms.solver, cwkms.cwweights):
        monkeypatch.setattr(module, "pencil_determinant", spy_pencil)
    over_q, norms, total = set(), {}, 0
    for case in sorted(CASES):
        primes.clear()
        dets.clear()
        assert run_case(case) == expected(case)
        assert len(primes) == len(dets), case
        total += len(dets)
        if None in primes:
            over_q.add(case)
            assert primes.count(None) == 1, case
        if "norm" in dets:
            norms[case] = [p for p, kind in zip(primes, dets) if kind == "norm"]
    assert over_q == {"solve-cw-tight-figB"}
    assert list(norms) == ["solve-cw-tight-figB"] and None not in norms["solve-cw-tight-figB"]
    assert total > len(over_q)


def test_only_the_gamma_boundary_solve_reaches_a_float_function(monkeypatch):
    """Across the golden runs, the SVD kernel fallback and a float eta value
    are reached only by ``solve-graph --boundary`` on gamma, whose
    square-free modulus is reducible."""
    import cwkms.cwweights
    import cwkms.solver

    reached = set()
    svd, eta_scalar = cwkms.solver._kernel_basis_svd, cwkms.cwweights._eta_scalar

    def spy_svd(rows):
        reached.add(case)
        return svd(rows)

    def spy_eta_scalar(eta, companions=()):
        out = eta_scalar(eta, companions)
        if isinstance(out, float):
            reached.add(case)
        return out

    monkeypatch.setattr(cwkms.solver, "_kernel_basis_svd", spy_svd)
    monkeypatch.setattr(cwkms.cwweights, "_eta_scalar", spy_eta_scalar)
    for case in sorted(CASES):
        assert run_case(case) == expected(case)
    assert reached == {"solve-graph-boundary-gamma"}


def _subcommands(parser) -> set[tuple[str, ...]]:
    """Every subcommand path of the parser, e.g. ("verify",), ("a2", "complex")."""
    paths: set[tuple[str, ...]] = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                nested = _subcommands(sub)
                paths |= {(name, *p) for p in nested} if nested else {(name,)}
    return paths


def test_every_subcommand_has_a_golden():
    parser = _build_parser()
    covered = set()
    for case, argv in CASES.items():
        args = parser.parse_args(argv)
        if (GOLDEN / f"{case}.out").exists():
            covered.add((args.command, args.a2_command) if args.command == "a2" else (args.command,))
    assert _subcommands(parser) - covered == set()


if __name__ == "__main__":
    for case in sorted(CASES):
        (GOLDEN / f"{case}.out").write_text(run_case(case))
        print(case, file=sys.stderr)
