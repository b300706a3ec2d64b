"""Command line interface.

Exit codes: 0 success / verification passed, 1 verification or search
failure, 2 malformed input.  Reports are JSON by default (deterministic:
sorted keys, scalars as decimal strings) or aligned text tables.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path as FsPath

from . import buildings, fixtures
from .complexes import boundary_graph, build_complex, complex_to_dict
from .cwweights import (
    MODE_RANK2,
    MODE_STANDARD,
    MODE_TIGHT,
    Rank2Weight,
    TriangularWeight,
    solve_2dcw,
    solve_triangular_special,
    verify_rank2,
    verify_triangular,
    weight_from_dict,
)
from .errors import AmbiguousSector, CWKMSError, InputError
from .exact import AlgebraicScalar, decimal, format_scalar
from .graphs import build_graph, graph_to_dict
from .pathalgebra import (
    Rank2Monomial,
    all_monomials,
    functional_from_graph_weight,
    functional_from_rank2,
    gauge_check,
    kms_check,
)
from .solver import DEFAULT_TOL, solve_special_weights, verify_graph_weight
from .splicing import build_amalgam, splice_cw_weights

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return FsPath(path).read_text()


def _load_json(path: str) -> tuple[dict, str]:
    """Every input file holds one JSON object; returns it and its digest."""
    text = _read_input(path)
    data = json.loads(text)
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object, got {type(data).__name__}")
    return data, hashlib.sha256(text.encode()).hexdigest()


def tolerance(text: str) -> Fraction:
    """Type of the ``--tol`` options: an exact rational bound on residuals,
    at least 0, that the reports print as a float; argparse reports a zero
    denominator like any other invalid value."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    if value > sys.float_info.max:
        raise argparse.ArgumentTypeError(f"too large for a float, got {text!r}")
    return value


def count(text: str) -> int:
    """Type of ``--max-path-len`` and of each half of ``--bound``: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text!r}")
    return value


def count_pair(text: str) -> tuple[int, int]:
    """Type of ``--bound``: two counts m1,m2."""
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two integers m1,m2, got {text!r}")
    return count(parts[0]), count(parts[1])


def base_item(text: str) -> tuple[str, str]:
    """Type of ``--base``: letter=value with a non-empty letter; the value is
    read by ``parse_scalar``."""
    letter, sep, value = text.partition("=")
    if not (letter and sep):
        raise argparse.ArgumentTypeError(f"expected letter=value, got {text!r}")
    return letter, value


def _scalar_json(x) -> dict:
    """Decimal string plus the exact form when one is available."""
    out = {"decimal": decimal(x)}
    if isinstance(x, (int, Fraction)):
        out["rational"] = format_scalar(x)
    elif isinstance(x, AlgebraicScalar):
        if x.is_rational:
            out["rational"] = format_scalar(x.rational)
        else:
            out["minimal_poly"] = [str(c) for c in x.poly.coeffs]
    return out


def _value_map_json(d: dict) -> dict:
    return {str(k): _scalar_json(v) for k, v in d.items()}


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    _emit_table(report)


def _emit_table(report: dict, indent: str = "") -> None:
    for key in sorted(report):
        val = report[key]
        if isinstance(val, dict):
            print(f"{indent}{key}:")
            _emit_table(val, indent + "  ")
        elif isinstance(val, list):
            print(f"{indent}{key}: {json.dumps(val)}")
        else:
            print(f"{indent}{key}: {val}")


def _family_json(fam) -> dict:
    out = {
        "eta": _scalar_json(fam.eta),
        "faithful": fam.faithful,
        "kernel_status": fam.kernel.status,
        "kernel_dim": fam.kernel.dim,
    }
    if fam.kernel.positive is not None:
        out["kernel"] = [decimal(v) for v in fam.kernel.positive]
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_fixtures(args) -> int:
    if args.name is None:
        print(json.dumps(sorted(fixtures.FIXTURES), indent=2))
        return EXIT_OK
    if args.name not in fixtures.FIXTURES:
        raise InputError(f"unknown fixture {args.name!r}; known: {sorted(fixtures.FIXTURES)}")
    print(json.dumps(fixtures.FIXTURES[args.name](), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_boundary_graph(args) -> int:
    data, _ = _load_json(args.input)
    c = build_complex(data)
    bg = boundary_graph(c)
    out = graph_to_dict(bg.graph)
    out["labels"] = {eid: f"{fid}:{pos}" for eid, (fid, pos) in sorted(bg.labels.items())}
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_solve_graph(args) -> int:
    data, digest = _load_json(args.input)
    if args.boundary:
        graph = boundary_graph(build_complex(data)).graph
    else:
        graph = build_graph(data)
    rep = solve_special_weights(graph)
    out = {
        "command": "solve-graph",
        "input_sha256": digest,
        "status": rep.status,
        "det": [str(c) for c in rep.det.coeffs] if rep.det is not None else None,
        "families": [_family_json(f) for f in rep.families],
        "vertices": list(rep.graph_vertices),
    }
    _emit(out, args.format)
    if rep.status == "ok" and any(f.faithful for f in rep.families):
        return EXIT_OK
    return EXIT_FAIL if rep.status == "ok" else EXIT_OK


def cmd_solve_cw(args) -> int:
    data, digest = _load_json(args.input)
    c = build_complex(data)
    fams = solve_2dcw(c, args.mode)
    out = {
        "command": "solve-cw",
        "input_sha256": digest,
        "mode": args.mode,
        "families": [
            {
                "eta": _scalar_json(f.eta),
                "g": _value_map_json(f.weight.g),
                "lambda": _value_map_json(f.weight.lam),
                "lambda_tilde": _value_map_json(f.weight.lambda_tilde),
                "free_parameters": f.free_parameters,
            }
            for f in fams
        ],
    }
    _emit(out, args.format)
    return EXIT_OK if fams else EXIT_FAIL


def cmd_solve_triangular(args) -> int:
    data, digest = _load_json(args.input)
    c = build_complex(data)
    fams = solve_triangular_special(c)
    out = {
        "command": "solve-triangular",
        "input_sha256": digest,
        "families": [
            {
                "eta": _scalar_json(f.eta),
                "lambda": _value_map_json(f.weight.lam),
                "g": _value_map_json(f.weight.g),
                "free_parameters": f.free_parameters,
                "det": [str(c) for c in f.det.coeffs],
            }
            for f in fams
        ],
    }
    _emit(out, args.format)
    return EXIT_OK if fams else EXIT_FAIL


def _graph_of(obj: dict, boundary: bool):
    """The graph a graph weight lives on: a graph file's graph, or a
    complex's skeleton, or its boundary graph when ``boundary`` is set."""
    if "faces" not in obj:
        return build_graph(obj)
    c = build_complex(obj)
    return boundary_graph(c).graph if boundary else c.skeleton


def cmd_verify(args) -> int:
    obj, digest1 = _load_json(args.object)
    wdata, digest2 = _load_json(args.weight)
    w = weight_from_dict(wdata, args.mode)
    if args.mode and not isinstance(w, Rank2Weight):
        raise InputError("verify --mode takes a rank-2 weight, not a graph or triangular one")
    if args.boundary and isinstance(w, (Rank2Weight, TriangularWeight)):
        raise InputError("verify --boundary takes a graph weight, not a rank-2 or triangular one")
    if isinstance(w, TriangularWeight):
        rep = asdict(verify_triangular(build_complex(obj), w, args.tol))
    elif isinstance(w, Rank2Weight):
        rep = asdict(verify_rank2(build_complex(obj), w, args.tol))
    else:
        rep = asdict(verify_graph_weight(_graph_of(obj, args.boundary), w, args.tol))
    out = {
        "command": "verify",
        "object_sha256": digest1,
        "weight_sha256": digest2,
        "report": rep,
    }
    _emit(out, args.format)
    return EXIT_OK if rep["passed"] else EXIT_FAIL


def cmd_kms_check(args) -> int:
    obj, digest1 = _load_json(args.object)
    wdata, digest2 = _load_json(args.weight)
    beta_sign = -1 if args.beta_sign == "-" else 1
    w = weight_from_dict(wdata)
    if isinstance(w, TriangularWeight):
        raise InputError("kms-check takes a rank-2 or graph weight, not a triangular one")
    if isinstance(w, Rank2Weight):
        if args.boundary:
            raise InputError("kms-check --boundary takes a graph weight, not a rank-2 one")
        if "faces" not in obj:
            raise InputError("a rank-2 weight needs a complex, not a graph")
        c = build_complex(obj)
        psi = functional_from_rank2(c, w, beta_sign)
        sk_monos = all_monomials(c.skeleton, args.max_path_len)
        bd_monos = all_monomials(boundary_graph(c).graph, args.max_path_len)
        rep1 = kms_check(psi.skeleton, [(x, y) for x in sk_monos for y in sk_monos], args.tol)
        rep2 = kms_check(psi.boundary, [(x, y) for x in bd_monos for y in bd_monos], args.tol)
        rng = random.Random(0)
        mixed = [Rank2Monomial(rng.choice(sk_monos), rng.choice(bd_monos)) for _ in range(100)]
        rep3 = kms_check(psi, [(rng.choice(mixed), rng.choice(mixed)) for _ in range(1000)], args.tol)
        gauge = gauge_check(psi, mixed)
        passed = rep1.passed and rep2.passed and rep3.passed and gauge.passed
        out = {
            "command": "kms-check",
            "skeleton_factor": rep1.to_dict(),
            "boundary_factor": rep2.to_dict(),
            "mixed_sample": rep3.to_dict(),
            "gauge": gauge.to_dict(),
            "passed": passed,
        }
    else:
        graph = _graph_of(obj, args.boundary)
        psi = functional_from_graph_weight(graph, w, beta_sign)
        monos = all_monomials(graph, args.max_path_len)
        rep = kms_check(psi, [(x, y) for x in monos for y in monos], args.tol)
        gauge = gauge_check(psi, monos)
        passed = rep.passed and gauge.passed
        out = {
            "command": "kms-check",
            "identity": rep.to_dict(),
            "gauge": gauge.to_dict(),
            "passed": passed,
        }
    out["object_sha256"] = digest1
    out["weight_sha256"] = digest2
    _emit(out, args.format)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_splice(args) -> int:
    data, digest = _load_json(args.input)
    am = build_amalgam(data)
    weights = {}
    for pname in am.pieces:
        wdata, _ = _load_json(str(FsPath(args.weights) / f"{pname}.json"))
        weights[pname] = weight_from_dict(wdata, MODE_STANDARD)
        if not isinstance(weights[pname], Rank2Weight):
            raise InputError(f"piece {pname!r}: splice takes rank-2 weights")
    spliced = splice_cw_weights(am, weights, args.tol)
    rep = verify_rank2(am.foundation, spliced, args.tol)
    out = {
        "command": "splice",
        "input_sha256": digest,
        "foundation": complex_to_dict(am.foundation),
        "weight": {
            "g": _value_map_json(spliced.g),
            "lambda": _value_map_json(spliced.lam),
            "lambda_tilde": _value_map_json(spliced.lambda_tilde),
            "eta_instances": {
                f"{fid}:{pos}": _scalar_json(v) for (fid, pos), v in sorted(spliced.eta_instances.items())
            },
        },
        "verification": asdict(rep),
    }
    _emit(out, args.format)
    return EXIT_OK if rep.passed else EXIT_FAIL


def _load_presentation(ref: str):
    if ref == "gamma-q2":
        return buildings.presentation_from_spec(fixtures.gamma_q2_presentation_spec()), "fixture:gamma-q2"
    data, digest = _load_json(ref)
    return buildings.presentation_from_spec(data), digest


def cmd_a2_complex(args) -> int:
    tp, _ = _load_presentation(args.presentation)
    c = buildings.presentation_complex(tp)
    print(json.dumps(complex_to_dict(c), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_a2_sectors(args) -> int:
    tp, digest = _load_presentation(args.presentation)
    try:
        gp, gm = buildings.sector_graphs(tp)
    except AmbiguousSector as exc:
        out = {
            "command": "a2 sectors",
            "status": "ambiguous",
            "diagnosis": str(exc),
            "vertex": list(exc.vertex) if exc.vertex else None,
        }
        _emit(out, args.format)
        return EXIT_FAIL
    out = {
        "command": "a2 sectors",
        "input": digest,
        "plus": graph_to_dict(gp),
        "minus": graph_to_dict(gm),
    }
    if args.matched:
        pairs = buildings.matched_weight_search(gp, gm)
        out["matched_pairs"] = [
            {
                "lambda_plus": _scalar_json(p.plus.eta),
                "lambda_minus": _scalar_json(p.minus.eta),
                "scale": decimal(p.scale),
                "psi_sample": decimal(next(iter(p.psi_values.values()))),
            }
            for p in pairs
        ]
    _emit(out, args.format)
    return EXIT_OK


def cmd_a2_lattice_check(args) -> int:
    base = dict(args.base or [("o", "1")])
    rep = buildings.lattice_weight_check(args.q, args.bound, base)
    out = {"command": "a2 lattice-check", "report": rep.to_dict()}
    _emit(out, args.format)
    return EXIT_OK if rep.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cwkms", description="graph and CW weight calculus")
    ap.add_argument("--format", choices=["json", "table"], default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fixtures", help="print a named fixture (or list them)")
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_fixtures)

    p = sub.add_parser("boundary-graph", help="derived boundary graph of a complex")
    p.add_argument("input")
    p.set_defaults(func=cmd_boundary_graph)

    p = sub.add_parser("solve-graph", help="classify constant-edge-weight solutions")
    p.add_argument("input")
    p.add_argument("--boundary", action="store_true", help="input is a complex; solve on its boundary graph")
    p.set_defaults(func=cmd_solve_graph)

    p = sub.add_parser("solve-cw", help="solve 2D CW weights on a complex")
    p.add_argument("input")
    p.add_argument("--mode", choices=[MODE_STANDARD, MODE_TIGHT], default=MODE_STANDARD)
    p.set_defaults(func=cmd_solve_cw)

    p = sub.add_parser("solve-triangular", help="solve tight triangular weights")
    p.add_argument("input")
    p.set_defaults(func=cmd_solve_triangular)

    p = sub.add_parser("verify", help="verify a weight file against an object")
    p.add_argument("object")
    p.add_argument("weight")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.add_argument("--mode", choices=[MODE_RANK2, MODE_STANDARD, MODE_TIGHT], help="override rank-2 coupling mode")
    p.add_argument("--boundary", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kms-check", help="equilibrium identity sweep")
    p.add_argument("object")
    p.add_argument("weight")
    p.add_argument("--max-path-len", type=count, default=4)
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.add_argument("--beta-sign", choices=["+", "-"], default="-")
    p.add_argument("--boundary", action="store_true")
    p.set_defaults(func=cmd_kms_check)

    p = sub.add_parser("splice", help="splice piece weights over an amalgam")
    p.add_argument("input")
    p.add_argument("--weights", required=True, help="directory with <piece>.json weight files")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_splice)

    p = sub.add_parser("a2", help="rank-2 building constructions")
    asub = p.add_subparsers(dest="a2_command", required=True)
    pc = asub.add_parser("complex")
    pc.add_argument("presentation")
    pc.set_defaults(func=cmd_a2_complex)
    ps = asub.add_parser("sectors")
    ps.add_argument("presentation")
    ps.add_argument("--matched", action="store_true")
    ps.set_defaults(func=cmd_a2_sectors)
    pl = asub.add_parser("lattice-check")
    pl.add_argument("--q", type=int, default=2)
    pl.add_argument("--bound", type=count_pair, default="4,4")
    pl.add_argument("--base", type=base_item, action="append", help="letter=value, repeatable")
    pl.set_defaults(func=cmd_a2_lattice_check)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except AmbiguousSector as exc:
        print(f"ambiguous sector rule: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (CWKMSError, OSError, json.JSONDecodeError, KeyError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
