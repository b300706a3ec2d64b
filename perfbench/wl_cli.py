"""cli: one operation is one `cwkms` subprocess; the subcommands run
round-robin on small inputs written during set-up.  Every operation pays
the interpreter and `import cwkms`; solve-graph on two 2-cycles also pays
the lazy scipy import of the linear program.  Each subprocess runs
`cwkms.cli` through cli_child.py, which samples the machine's speed in
the child.

The seed draws the vertex names of the graph inputs and the rational scale
of the weight files.
"""

from __future__ import annotations

import functools
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import cwkms as cw

import inputs
import oracles
import speed

OP_TIMEOUT_S = 120
# runs `python -m cwkms.cli ARGS` with a speed sampler in the child
CHILD = Path(__file__).resolve().parent / "cli_child.py"


class Workload:
    traced = False

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(seed)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=out_dir))
        prefix = inputs.label_prefix(seed)
        figb = cw.build_complex(inputs.FIG_B_SPEC)
        w = cw.solve_2dcw(figb, "standard")[0].weight
        scale = inputs.positive_rational(rng)
        weight = {
            "g": {k: _decimal(scale * v) for k, v in w.g.items()},
            "lambda": {k: _decimal(scale * v) for k, v in w.lam.items()},
            "lambda_tilde": {k: _decimal(v) for k, v in w.lambda_tilde.items()},
            "eta": {k: _decimal(v) for k, v in w.eta.items()},
            "mode": "standard",
        }
        tp = cw.presentation_from_spec(inputs.gamma_q2_presentation_spec())
        gamma = cw.complexes.complex_to_dict(cw.presentation_complex(tp))
        two = cw.build_graph(_renamed(inputs.two_cycles_spec(), prefix))
        files = {
            "figB.json": cw.complexes.complex_to_dict(figb),
            "figB-weight.json": weight,
            "two-cycles.json": cw.graphs.graph_to_dict(two),
            "gamma.json": gamma,
            "double.json": inputs.amalgam_spec("star", 2, rng),
            "weights/p0.json": weight,
            "weights/p1.json": weight,
        }
        for name, data in files.items():
            path = self.dir / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(data))
        d = self.dir
        commands = {
            "fixtures": (["fixtures", "figB"], _check_fixture),
            "boundary-graph": (["boundary-graph", f"{d}/figB.json"], _check_boundary),
            "solve-graph-figB": (["solve-graph", "--boundary", f"{d}/figB.json"], _check_solve_figb),
            "solve-graph-two-cycles": (["solve-graph", f"{d}/two-cycles.json"], _check_two_cycles),
            "solve-cw-standard": (["solve-cw", f"{d}/figB.json"], _check_solve_cw),
            "solve-cw-tight": (["solve-cw", "--mode", "tight", f"{d}/figB.json"], _check_solve_cw),
            "solve-triangular": (
                ["solve-triangular", f"{d}/gamma.json"], functools.partial(_check_triangular, cspec=gamma)
            ),
            "verify": (["verify", f"{d}/figB.json", f"{d}/figB-weight.json"], _check_passed),
            "kms-check": (
                ["kms-check", f"{d}/figB.json", f"{d}/figB-weight.json", "--max-path-len", "2"], _check_passed
            ),
            "splice": (["splice", f"{d}/double.json", "--weights", f"{d}/weights"], _check_splice),
            "a2-sectors": (["a2", "sectors", "gamma-q2"], _check_sectors),
            "a2-lattice-check": (["a2", "lattice-check", "--q", "2", "--bound", "4,4"], _check_lattice),
        }
        self.ops = [(label, lambda argv=argv: self._run(argv)) for label, (argv, _) in commands.items()]
        self.checks = {label: functools.partial(_check_json, check) for label, (_, check) in commands.items()}
        # the subcommand a label runs, as named in the cli.<subcommand>.p50_ms metrics
        self.subcommand = {
            label: "-".join(argv[:2]) if argv[0] == "a2" else argv[0] for label, (argv, _) in commands.items()
        }
        # warm-up: one invocation through numpy, scipy and cwkms, so the
        # files are in the page cache before the first timed operation
        self._run(commands["solve-graph-two-cycles"][0])

    def _run(self, argv: list[str]):
        cmd = [sys.executable]
        if self.traced:
            cmd += ["-X", "importtime"]
        cmd += [str(CHILD), *argv]
        # a sampler running here (set-up) would compete with the child
        sampler = speed.running()
        if sampler is not None:
            sampler.paused = True
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        finally:
            if sampler is not None:
                sampler.paused = False
        report = self.speed(proc)
        if sampler is not None and report is not None:
            sampler.merge(*report)
        if proc.returncode != 0:
            raise RuntimeError(f"cwkms {' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc

    @staticmethod
    def speed(proc) -> tuple[float, float] | None:
        """The child's sampler report: (busy seconds, mean probe seconds)."""
        return speed.parse_report(proc.stderr)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def layer_metrics(self, traced_ops: list[tuple]) -> dict[str, float]:
        """Import times read from `python -X importtime`, the median time of
        each subcommand, and how many invocations per round loaded scipy."""
        imports = {"cwkms": [], "numpy": [], "scipy.optimize": []}
        per_sub: dict[str, list] = {}
        scipy_loaded = 0
        for label, seconds, proc in traced_ops:
            per_sub.setdefault(self.subcommand[label], []).append(seconds)
            # "import time: self [us] | cumulative | module", nested modules indented
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if line.startswith("import time:") and len(parts) == 3 and parts[2].strip() in imports:
                    imports[parts[2].strip()].append(int(parts[1]) / 1e6)
                    scipy_loaded += parts[2].strip() == "scipy.optimize"
        rounds = len(traced_ops) / len(self.ops)
        out = {
            "cli.import.cwkms_s": _median(imports["cwkms"]),
            "cli.import.numpy_s": _median(imports["numpy"]),
            "cli.import.scipy_s": _median(imports["scipy.optimize"]),
            "cli.scipy_loaded": scipy_loaded / rounds,
        }
        for sub, times in per_sub.items():
            out[f"cli.{sub}.p50_ms"] = _median(times) * 1e3
        return out


SUBCOMMANDS = [
    "fixtures", "boundary-graph", "solve-graph", "solve-cw", "solve-triangular", "verify",
    "kms-check", "splice", "a2-sectors", "a2-lattice-check",
]
LAYER_METRICS = {"cli.import.cwkms_s": "s", "cli.import.numpy_s": "s", "cli.import.scipy_s": "s"}
LAYER_METRICS.update({f"cli.{sub}.p50_ms": "ms" for sub in SUBCOMMANDS})
LAYER_METRICS["cli.scipy_loaded"] = "count"


def _median(xs: list[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def _decimal(x) -> str:
    return f"{oracles.to_float(x):.15g}"


def _renamed(spec: dict, prefix: str) -> dict:
    return {
        "vertices": [prefix + v for v in spec["vertices"]],
        "edges": [
            {"id": prefix + e["id"], "src": prefix + e["src"], "dst": prefix + e["dst"]} for e in spec["edges"]
        ],
    }


# ---------------------------------------------------------------------------
# Checks on the JSON each subcommand prints
# ---------------------------------------------------------------------------

def _check_json(check, proc) -> list[str]:
    try:
        data = json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON ({exc})"]
    return check(data)


def _check_fixture(data) -> list[str]:
    return [] if data == inputs.FIG_B_SPEC else ["fixture figB differs from the figB complex"]


def _check_boundary(data) -> list[str]:
    want = inputs.boundary_graph_spec(inputs.FIG_B_SPEC)
    got_edges = sorted((e["src"], e["dst"]) for e in data["edges"])
    if sorted(data["vertices"]) != sorted(want["vertices"]) or got_edges != sorted(
        (e["src"], e["dst"]) for e in want["edges"]
    ):
        return ["boundary graph differs from the face words"]
    return []


def _eta(entry) -> float:
    return float(entry["decimal"])


def _check_solve_figb(data) -> list[str]:
    problems = []
    if [Fraction(c) for c in data["det"]] not in ([1, 0, 0, -1, -1], [-1, 0, 0, 1, 1]):
        problems.append(f"det {data['det']} is not +-(1 - x^3 - x^4)")
    faithful = [f for f in data["families"] if f["faithful"]]
    if len(faithful) != 1 or abs(_eta(faithful[0]["eta"]) - oracles.FIG_B_ETA) > 1e-12:
        problems.append("figB boundary graph: expected one faithful family at its root in (0, 1)")
    return problems


def _check_two_cycles(data) -> list[str]:
    fams = data["families"]
    if len(fams) != 1 or fams[0]["eta"].get("rational") != "1" or not fams[0]["faithful"]:
        return ["two 2-cycles: expected one faithful family at lambda = 1"]
    if any(float(x) <= 0 for x in fams[0]["kernel"]):
        return ["two 2-cycles: kernel vector is not positive"]
    return []


def _check_solve_cw(data) -> list[str]:
    if not data["families"]:
        return ["no family"]
    problems = []
    for fam in data["families"]:
        if abs(_eta(fam["eta"]) - oracles.FIG_B_ETA) > 1e-12:
            problems.append(f"eta {fam['eta']} is not the root of 1 - x^3 - x^4")
        w = cw.Rank2Weight(
            g={k: float(v["decimal"]) for k, v in fam["g"].items()},
            lambda_tilde={k: float(v["decimal"]) for k, v in fam["lambda_tilde"].items()},
            lam={k: float(v["decimal"]) for k, v in fam["lambda"].items()},
            eta={f["id"]: _eta(fam["eta"]) for f in inputs.FIG_B_SPEC["faces"]},
        )
        problems += oracles.rank2_problems(inputs.FIG_B_SPEC, w, data["mode"])
    return problems


def _check_triangular(data, cspec: dict) -> list[str]:
    if not data["families"]:
        return ["no tight triangular family"]
    problems = []
    for fam in data["families"]:
        eta = Fraction(fam["eta"]["rational"])
        lam = {k: Fraction(v["rational"]) for k, v in fam["lambda"].items()}
        w = cw.TriangularWeight(
            g={k: Fraction(v["rational"]) for k, v in fam["g"].items()},
            lambda_tilde=lam, lam=lam,
            eta_a={f["id"]: eta for f in cspec["faces"]}, eta_b={f["id"]: eta for f in cspec["faces"]},
        )
        problems += oracles.triangular_problems(cspec, w)
    return problems


def _check_passed(data) -> list[str]:
    passed = data["report"]["passed"] if "report" in data else data["passed"]
    return [] if passed else ["report did not pass"]


def _check_splice(data) -> list[str]:
    fd = data["foundation"]
    sizes = (len(fd["vertices"]), len(fd["edges"]), len(fd["faces"]))
    problems = [] if sizes == (8, 11, 4) else [f"foundation sizes {sizes}, expected (8, 11, 4)"]
    return problems + ([] if data["verification"]["passed"] else ["spliced weight fails verification"])


def _check_sectors(data) -> list[str]:
    problems = []
    for side in ("plus", "minus"):
        g = data[side]
        out = {}
        for e in g["edges"]:
            out[e["src"]] = out.get(e["src"], 0) + 1
        if len(g["vertices"]) != 21 or sorted(set(out.values())) != [4] or len(out) != 21:
            problems.append(f"{side} sector graph is not 21 vertices of out-degree q^2 = 4")
    return problems


def _check_lattice(data) -> list[str]:
    return [] if data["report"]["passed"] else ["lattice check did not pass"]
