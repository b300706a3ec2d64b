"""CLI behavior: exit codes, piping, determinism."""

import contextlib
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cwkms.cli
from cwkms.cli import main
from cwkms.cwweights import MODE_STANDARD, solve_2dcw
from cwkms.fixtures import FIG_B_SPEC, fig_b_double_amalgam_spec, gamma_q2_presentation_spec

from .test_golden import INPUTS, argv_of, expected, golden_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def figb_file(tmp_path):
    p = tmp_path / "figB.json"
    p.write_text(json.dumps(FIG_B_SPEC))
    return str(p)


def weight_dict(w, digits=17):
    return {
        "g": {k: f"{float(v):.{digits}g}" for k, v in w.g.items()},
        "lambda_tilde": {k: f"{float(v):.{digits}g}" for k, v in w.lambda_tilde.items()},
        "lambda": {k: f"{float(v):.{digits}g}" for k, v in w.lam.items()},
        "eta": {k: f"{float(v):.{digits}g}" for k, v in w.eta.items()},
        "mode": w.mode,
    }


def test_fixtures_listing(capsys):
    code, out, _ = run(capsys, "fixtures")
    assert code == 0
    names = json.loads(out)
    assert "figB" in names and "gamma-q2" in names


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "fixtures", "nope")
    assert code == 2 and "unknown fixture" in err


def test_boundary_graph_command(capsys, figb_file):
    code, out, _ = run(capsys, "boundary-graph", figb_file)
    assert code == 0
    data = json.loads(out)
    assert data["vertices"] == ["a", "b", "c", "d", "e", "f"]
    assert len(data["edges"]) == 7


def test_solve_graph_boundary(capsys, figb_file):
    code, out, _ = run(capsys, "solve-graph", "--boundary", figb_file)
    assert code == 0
    data = json.loads(out)
    fam = data["families"][0]
    assert abs(float(fam["eta"]["decimal"]) - 0.8191725133961645) < 1e-12
    assert fam["faithful"] is True


def test_solve_graph_deterministic_output(capsys, figb_file):
    _, out1, _ = run(capsys, "solve-graph", "--boundary", figb_file)
    _, out2, _ = run(capsys, "solve-graph", "--boundary", figb_file)
    assert out1 == out2


def test_solve_cw_modes(capsys, figb_file):
    for mode in ("standard", "tight"):
        code, out, _ = run(capsys, "solve-cw", "--mode", mode, figb_file)
        assert code == 0
        data = json.loads(out)
        assert len(data["families"]) == 1


def test_solve_triangular_via_a2(capsys, tmp_path):
    code, out, _ = run(capsys, "a2", "complex", "gamma-q2")
    assert code == 0
    cpath = tmp_path / "gamma.json"
    cpath.write_text(out)
    code, out, _ = run(capsys, "solve-triangular", str(cpath))
    assert code == 0
    fam = json.loads(out)["families"][0]
    assert fam["eta"]["rational"] == "1/3"
    assert fam["lambda"]["x0"]["rational"] == "1/7"


def test_verify_pass_and_fail(capsys, tmp_path, figb_file, figb):
    w = solve_2dcw(figb, MODE_STANDARD)[0].weight
    good = tmp_path / "w.json"
    good.write_text(json.dumps(weight_dict(w)))
    code, out, _ = run(capsys, "verify", figb_file, str(good))
    assert code == 0
    data = json.loads(out)
    assert data["report"]["passed"] is True

    bad_dict = weight_dict(w)
    bad_dict["g"]["x"] = "99.0"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(bad_dict))
    code, out, _ = run(capsys, "verify", figb_file, str(bad))
    assert code == 1


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/x.json", "/nonexistent/y.json")
    assert code == 2


def test_verify_graph_weight_boundary(capsys, tmp_path, figb_file):
    wdata = {
        "g": {"a": "1", "b": "1", "c": "1", "d": "1", "e": "1", "f": "1"},
        "lambda": {f"s1:{k}": "1" for k in range(4)} | {f"s2:{k}": "1" for k in range(3)},
    }
    wpath = tmp_path / "gw.json"
    wpath.write_text(json.dumps(wdata))
    code, out, _ = run(capsys, "verify", "--boundary", figb_file, str(wpath))
    assert code == 1  # constant 1 is not a boundary weight for figB


def test_kms_check_cli(capsys, tmp_path, figb_file, figb):
    w = solve_2dcw(figb, MODE_STANDARD)[0].weight
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(weight_dict(w)))
    code, out, _ = run(capsys, "kms-check", "--max-path-len", "2", figb_file, str(wpath))
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["skeleton_factor"]["passed"] and data["boundary_factor"]["passed"]


@pytest.mark.parametrize(
    "case, streamed", [("kms-check-rank2-figB", [True, True, False]), ("kms-check-graph-figB-boundary", [True])]
)
def test_kms_check_streams_its_all_pairs_sweeps(capsys, monkeypatch, case, streamed):
    """The all-pairs sweeps reach ``kms_check`` as iterators, never as
    lists of every pair; the sampled mixed sweep stays a list.  The output
    is the golden one."""
    kinds = []
    check = cwkms.cli.kms_check

    def recording(psi, sample, tol):
        kinds.append(type(sample))
        return check(psi, sample, tol)

    monkeypatch.setattr(cwkms.cli, "kms_check", recording)
    code, out, _ = run(capsys, *argv_of(case))
    assert golden_text(code, out) == expected(case)
    assert [hasattr(kind, "__next__") for kind in kinds] == streamed


def test_splice_cli(capsys, tmp_path, figb):
    am_path = tmp_path / "amalgam.json"
    am_path.write_text(json.dumps(fig_b_double_amalgam_spec()))
    w = solve_2dcw(figb, MODE_STANDARD)[0].weight
    wd = tmp_path / "weights"
    wd.mkdir()
    for name in ("p1", "p2"):
        (wd / f"{name}.json").write_text(json.dumps(weight_dict(w)))
    code, out, _ = run(capsys, "splice", str(am_path), "--weights", str(wd))
    assert code == 0
    data = json.loads(out)
    assert data["verification"]["passed"] is True
    assert len(data["foundation"]["vertices"]) == 8


def test_a2_sectors(capsys):
    code, out, _ = run(capsys, "a2", "sectors", "gamma-q2", "--matched")
    assert golden_text(code, out) == expected("a2-sectors-matched-gamma-q2")
    assert code == 0
    data = json.loads(out)
    assert len(data["plus"]["vertices"]) == 21
    assert len(data["plus"]["edges"]) == 84
    assert data["matched_pairs"][0]["lambda_plus"]["rational"] == "1/4"


def test_a2_lattice_check(capsys):
    code, out, _ = run(capsys, "a2", "lattice-check", "--q", "2", "--bound", "4,4", "--base", "a=1", "--base", "b=3/7")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["passed"] is True


def test_table_format(capsys, figb_file):
    code, out, _ = run(capsys, "--format", "table", "solve-graph", "--boundary", figb_file)
    assert code == 0
    assert "families" in out or "status" in out
    assert not out.strip().startswith("{")


def test_monogon_fixture_solves(capsys, tmp_path):
    code, out, _ = run(capsys, "fixtures", "monogon-triangle")
    assert code == 0
    p = tmp_path / "mono.json"
    p.write_text(out)
    code, out, _ = run(capsys, "solve-triangular", str(p))
    assert code == 0
    fam = json.loads(out)["families"][0]
    assert fam["eta"]["rational"] == "1"
    assert fam["lambda"]["e1"]["rational"] == "1/3"


def test_malformed_json(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "solve-graph", str(p))
    assert code == 2


WEIGHT_FIELDS = ["g", "lambda", "lambda_tilde", "eta", "eta_a", "eta_b", "eta_instances", "mode", "tight"]
GAMMA_SPEC = json.loads((INPUTS / "gamma.json").read_text())
GAMMA_TRIANGULAR = json.loads((INPUTS / "gamma-triangular.json").read_text())
GAMMA_GRAPH = json.loads((INPUTS / "gamma-graph.json").read_text())
RANK2_FIELDS = {"g": {}, "lambda": {}, "lambda_tilde": {}}


@pytest.mark.parametrize(
    "command, obj, weight, message",
    [
        ("verify", FIG_B_SPEC, {"g": [1, 2], "lambda": {}}, "field 'g' must be a JSON object"),
        ("verify", FIG_B_SPEC, [1, 2], "expected a JSON object, got list"),
        ("verify", FIG_B_SPEC, {"lambda": {}}, "weight file missing field 'g'"),
        ("verify", FIG_B_SPEC, {"g": {"u": "1/0"}, "lambda": {}}, "not a finite rational value"),
        ("verify", FIG_B_SPEC, {"g": {"u": float("inf")}, "lambda": {}}, "not a finite rational value"),
        ("verify", FIG_B_SPEC, {"g": {}, "lambda": {}, "lambda_tilde": {}, "mode": "loose"}, "unknown rank-2"),
        ("verify", [1, 2], {"g": {}, "lambda": {}}, "expected a JSON object, got list"),
        ("verify", GAMMA_SPEC, {**GAMMA_TRIANGULAR, "tight": "false"}, "field 'tight' must be a JSON boolean"),
        ("verify", GAMMA_SPEC, {**GAMMA_GRAPH, "g": {"v": True}}, "not a finite rational value: True"),
        # each value fits a float, the residual 1e200 - 7e400 does not
        ("verify", GAMMA_SPEC, {k: dict.fromkeys(v, "1e200") for k, v in GAMMA_GRAPH.items()}, "too large for a float"),
        ("kms-check", FIG_B_SPEC, {"g": [1, 2], "lambda": {}}, "field 'g' must be a JSON object"),
        ("kms-check", FIG_B_SPEC, [1, 2], "expected a JSON object, got list"),
        ("kms-check", FIG_B_SPEC, {"lambda": {}}, "weight file missing field 'g'"),
        ("kms-check", [1, 2], {"g": {}, "lambda": {}}, "expected a JSON object, got list"),
        ("verify", FIG_B_SPEC, {**RANK2_FIELDS, "eta_instances": {"s1": "1"}}, "key 's1' is not <face>:<position>"),
        ("verify", FIG_B_SPEC, {**RANK2_FIELDS, "eta_instances": {"s1:x": "1"}}, "key 's1:x' is not <face>:<position>"),
        ("verify", FIG_B_SPEC, {**RANK2_FIELDS, "eta_instances": {"1": "1"}}, "key '1' is not <face>:<position>"),
    ],
)
def test_malformed_weight_and_object_files(capsys, tmp_path, command, obj, weight, message):
    (tmp_path / "obj.json").write_text(json.dumps(obj))
    (tmp_path / "w.json").write_text(json.dumps(weight))
    code, out, err = run(capsys, command, str(tmp_path / "obj.json"), str(tmp_path / "w.json"))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "mode, weight",
    [("tight", "gamma-graph.json"), ("standard", "gamma-triangular.json"), ("rank2", "gamma-graph.json")],
)
def test_verify_mode_needs_a_rank2_weight(capsys, mode, weight):
    code, out, err = run(capsys, "verify", "--mode", mode, str(INPUTS / "gamma.json"), str(INPUTS / weight))
    assert (code, out) == (2, "")
    assert "verify --mode takes a rank-2 weight" in err


@pytest.mark.parametrize(
    "command, obj, weight",
    [
        (["verify"], "figB.json", "figB-rank2.json"),
        (["verify"], "gamma.json", "gamma-triangular.json"),
        (["kms-check", "--max-path-len", "1"], "gamma.json", "gamma-rank2.json"),
    ],
)
def test_boundary_needs_a_graph_weight(capsys, command, obj, weight):
    code, out, err = run(capsys, *command, "--boundary", str(INPUTS / obj), str(INPUTS / weight))
    assert (code, out) == (2, "")
    assert f"{command[0]} --boundary takes a graph weight" in err


@pytest.mark.parametrize("command", [["solve-graph"], ["solve-graph", "--boundary"], ["boundary-graph"]])
def test_top_level_list_object_exits_2(capsys, tmp_path, command):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    code, out, err = run(capsys, *command, str(p))
    assert (code, out) == (2, "")
    assert "expected a JSON object" in err


def test_splice_tol_reaches_the_piece_checks(capsys, tmp_path):
    wd = tmp_path / "weights"
    wd.mkdir()
    for name in ("p1", "p2"):
        w = json.loads((INPUTS / "weights" / f"{name}.json").read_text())
        if name == "p1":
            w["g"]["v"] = str(F(w["g"]["v"]) + F(1, 10**6))
        (wd / f"{name}.json").write_text(json.dumps(w))
    argv = ["splice", str(INPUTS / "figB-double.json"), "--weights", str(wd)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "piece 'p1': weight fails verification (max residual 1e-06)" in err
    code, out, _ = run(capsys, *argv, "--tol", "1e-3")
    assert code == 0 and json.loads(out)["verification"]["passed"] is True


def test_splice_rejects_graph_piece_weights(capsys, tmp_path):
    am_path = tmp_path / "amalgam.json"
    am_path.write_text(json.dumps(fig_b_double_amalgam_spec()))
    wd = tmp_path / "weights"
    wd.mkdir()
    for name in ("p1", "p2"):
        (wd / f"{name}.json").write_text(json.dumps({"g": {}, "lambda": {}}))
    code, out, err = run(capsys, "splice", str(am_path), "--weights", str(wd))
    assert (code, out) == (2, "")
    assert "splice takes rank-2 weights" in err


_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(alphabet="pq0/.:-e", max_size=6)
)
# object keys avoid figB's vertex, edge and face names, so no drawn weight is total
_json = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(alphabet="pq:0", max_size=4), inner, max_size=3),
    max_leaves=8,
)


@given(
    weight=st.one_of(_json, st.dictionaries(st.sampled_from(WEIGHT_FIELDS), _json, max_size=6)),
    command=st.sampled_from([["verify"], ["verify", "--boundary"], ["kms-check", "--max-path-len", "1"]]),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_weight_files_exit_2(tmp_path, figb_file, weight, command):
    wpath = tmp_path / "fuzz.json"
    wpath.write_text(json.dumps(weight))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, figb_file, str(wpath)])
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve-graph", "--eps", "1e-3", "FIG"], "unrecognized arguments: --eps"),
        (["solve-cw", "--eps", "1/0", "FIG"], "unrecognized arguments: --eps"),
        (["solve-triangular", "--eps=1e-40", "FIG"], "unrecognized arguments: --eps"),
        (["verify", "--tol", "abc", "FIG", "FIG"], "argument --tol: invalid rational value: 'abc'"),
        (["kms-check", "--tol", "1e", "FIG", "FIG"], "argument --tol: invalid rational value: '1e'"),
        (["splice", "FIG", "--weights", ".", "--tol", "x"], "argument --tol: invalid rational value: 'x'"),
        (["solve-cw", "--special", "FIG"], "unrecognized arguments: --special"),
        (["verify", "--mode", "bogus", "FIG", "FIG"], "argument --mode: invalid choice: 'bogus'"),
        (["a2", "lattice-check", "--bound", "2,-1"], "argument --bound: must be non-negative, got '-1'"),
        (["a2", "lattice-check", "--bound=-1,2"], "argument --bound: must be non-negative, got '-1'"),
        (["a2", "lattice-check", "--bound", "4"], "argument --bound: expected two integers m1,m2, got '4'"),
        (["a2", "lattice-check", "--bound", "4,x"], "argument --bound: invalid int value: 'x'"),
        (["a2", "lattice-check", "--base", "=3"], "argument --base: expected letter=value, got '=3'"),
        (["kms-check", "--max-path-len", "-1", "FIG", "FIG"], "argument --max-path-len: must be non-negative, got '-1'"),
    ],
)
def test_bad_options_exit_2(capsys, figb_file, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([figb_file if a == "FIG" else a for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-graph", "--boundary", "--eps", "0", "FIG"],
        ["solve-graph", "--boundary", "--eps", "-1", "FIG"],
        ["solve-cw", "--eps=-1/3", "FIG"],
        ["solve-triangular", "--eps", "0.0", "FIG"],
    ],
)
def test_nonpositive_eps_exit_2(capsys, figb_file, argv):
    # the root width is a constant, so any --eps is an unknown option
    with pytest.raises(SystemExit) as exc:
        main([figb_file if a == "FIG" else a for a in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments: --eps" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["verify", "FIG", "FIG"], ["kms-check", "FIG", "FIG"], ["splice", "FIG", "--weights", "."]],
)
@pytest.mark.parametrize(
    "tol, message",
    [("1e400", "too large for a float, got '1e400'"), ("-1", "must be non-negative, got '-1'"), ("-1/3", "must be non-negative")],
)
def test_bad_tol_exit_2(capsys, figb_file, command, tol, message):
    """A tolerance float() cannot hold, or one below 0, is rejected while
    parsing, before any input is read."""
    with pytest.raises(SystemExit) as exc:
        main([figb_file if a == "FIG" else a for a in command] + [f"--tol={tol}"])
    assert exc.value.code == 2
    assert f"argument --tol: {message}" in capsys.readouterr().err


def test_zero_tol_stays_legal(capsys):
    inputs = Path(__file__).parent / "golden" / "inputs"
    code, out, _ = run(capsys, "verify", "--tol", "0", str(inputs / "figB.json"), str(inputs / "figB-rank2.json"))
    assert code in (0, 1) and json.loads(out)["command"] == "verify"


# base specs for the spec-shape tests, one per builder the CLI reaches
SPEC_BASES = {
    "boundary-graph": FIG_B_SPEC,
    "splice": fig_b_double_amalgam_spec(),
    "a2 complex": gamma_q2_presentation_spec(),
}


def _spec_argv(command: str, path: str, tmp_path) -> list[str]:
    if command == "splice":
        return ["splice", path, "--weights", str(tmp_path)]
    return [*command.split(), path]


def _replaced(spec, path: tuple, value):
    """A deep copy of ``spec`` with the value at ``path`` replaced."""
    if not path:
        return value
    out = json.loads(json.dumps(spec))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _run_spec(tmp_path, command: str, spec) -> tuple[int, str, str]:
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(_spec_argv(command, str(p), tmp_path))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "command, spec, message",
    [
        ("solve-graph", {"vertices": ["u"], "edges": [1]}, "edge record must be a JSON object"),
        ("boundary-graph", {"vertices": 5}, "vertices must be a JSON list"),
        ("splice", {"pieces": [1]}, "pieces must be a JSON object"),
        ("solve-graph", {"vertices": "uv"}, "vertices must be a JSON list"),
        ("solve-graph", {"vertices": [["u"]]}, "vertices: ['u'] is not a string or integer id"),
        (
            "solve-graph",
            {"vertices": [True, "b"], "edges": [
                {"id": "e", "src": True, "dst": "b"}, {"id": "f", "src": "b", "dst": 1}]},
            "vertices: True is not a string or integer id",
        ),
        ("solve-graph", {"vertices": ["u"], "edges": [{"id": "e", "src": {}, "dst": "u"}]}, "edge record: {}"),
        ("solve-graph", {"vertices": ["u"], "labels": [1]}, "labels must be a JSON object"),
        ("boundary-graph", {**FIG_B_SPEC, "faces": 3}, "faces must be a JSON list"),
        ("boundary-graph", {**FIG_B_SPEC, "faces": [[]]}, "face record must be a JSON object"),
        ("boundary-graph", {**FIG_B_SPEC, "faces": [{"id": None, "boundary": []}]}, "face id: None"),
        ("boundary-graph", {**FIG_B_SPEC, "faces": [{"id": "s", "boundary": "abcd"}]}, "boundary of face 's'"),
        ("splice", {"pieces": {"p": 1}}, "piece 'p' must be a JSON object"),
        ("splice", {"residues": {"r": []}}, "residue 'r' must be a JSON object"),
        ("splice", {"attachments": {}}, "attachments must be a JSON list"),
        ("splice", {"attachments": [2]}, "attachment record must be a JSON object"),
        ("splice", _replaced(fig_b_double_amalgam_spec(), ("attachments", 0, "piece"), ["p1"]), "attachment piece"),
        ("splice", _replaced(fig_b_double_amalgam_spec(), ("attachments", 0, "vertex_map"), []), "vertex_map"),
        ("splice", _replaced(fig_b_double_amalgam_spec(), ("attachments", 1, "edge_map", "d"), [1]), "map image"),
        ("a2 complex", _replaced(gamma_q2_presentation_spec(), ("q",), "2"), "q must be an integer"),
        ("a2 complex", _replaced(gamma_q2_presentation_spec(), ("lines", 0), 7), "line must be a JSON list"),
        ("a2 complex", _replaced(gamma_q2_presentation_spec(), ("lambda",), []), "lambda must be a JSON object"),
        ("a2 complex", _replaced(gamma_q2_presentation_spec(), ("lambda", "x0"), 7), "is not a line index"),
        ("a2 complex", _replaced(gamma_q2_presentation_spec(), ("lambda", "x0"), -1), "is not a line index"),
        ("a2 complex", _replaced(gamma_q2_presentation_spec(), ("triples", 0), ["x0", "x1"]), "three points"),
        ("a2 complex", _replaced(gamma_q2_presentation_spec(), ("triples", 0, 2), "zz"), "names unknown point 'zz'"),
        ("a2 complex", _replaced(gamma_q2_presentation_spec(), ("lambda", "zz"), 0), "names unknown point 'zz'"),
        ("a2 complex", {**gamma_q2_presentation_spec(), "lambda": {}}, "no line for point 'x0'"),
    ],
)
def test_malformed_spec_shapes_exit_2(tmp_path, command, spec, message):
    code, out, err = _run_spec(tmp_path, command, spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def _required_fields():
    """(command, path to a record, field, record name) for each field of
    each edge and face record of figB, attachment record of the figB
    double and top-level key of the gamma-q2 presentation spec."""
    for command, key, record in (
        ("boundary-graph", "edges", "edge record"),
        ("boundary-graph", "faces", "face record"),
        ("splice", "attachments", "attachment record"),
    ):
        for i, rec in enumerate(SPEC_BASES[command][key]):
            yield from (pytest.param(command, (key, i), field, record, id=f"{key}-{i}-{field}") for field in rec)
    for field in SPEC_BASES["a2 complex"]:
        yield pytest.param("a2 complex", (), field, "presentation spec", id=f"presentation-{field}")


@pytest.mark.parametrize("command, path, field, record", list(_required_fields()))
def test_missing_spec_field_exits_2(tmp_path, command, path, field, record):
    spec = json.loads(json.dumps(SPEC_BASES[command]))
    node = spec
    for key in path:
        node = node[key]
    del node[field]
    code, out, err = _run_spec(tmp_path, command, spec)
    assert (code, out) == (2, "")
    assert f"error: {record} has no field {field!r}" in err


def _slots(value, path=()):
    """(path, type) of every value inside a spec, the spec itself included."""
    yield path, type(value)
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _slots(child, (*path, key))


SPEC_SLOTS = [(command, path, kind) for command, base in SPEC_BASES.items() for path, kind in _slots(base)]

_finite = st.floats(allow_nan=False, allow_infinity=False)
_small_list = st.lists(st.integers(), max_size=2)
_small_dict = st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
# per slot type, JSON values of a type that never fits there; ids are
# strings or integers, so an integer stands in for a string id legally
WRONG_VALUES = {
    dict: st.one_of(_small_list, st.text(max_size=3), st.integers(), _finite, st.none(), st.booleans()),
    list: st.one_of(_small_dict, st.text(max_size=3), st.integers(), _finite, st.none(), st.booleans()),
    str: st.one_of(_small_list, _small_dict, _finite, st.none()),
    int: st.one_of(_small_list, _small_dict, st.text(max_size=3), _finite, st.none(), st.booleans()),
}


@given(data=st.data())
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzzed_spec_shapes_exit_2(tmp_path, data):
    command, path, kind = data.draw(st.sampled_from(SPEC_SLOTS))
    spec = _replaced(SPEC_BASES[command], path, data.draw(WRONG_VALUES[kind]))
    code, out, err = _run_spec(tmp_path, command, spec)
    assert (code, out) == (2, ""), (command, path, spec)
    assert err.startswith("error: ")
