"""CLI behavior: exit codes, piping, determinism."""

import contextlib
import io
import json
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cwkms.cli import main
from cwkms.cwweights import MODE_STANDARD, solve_2dcw
from cwkms.exact import scalar_to_float
from cwkms.fixtures import FIG_B_SPEC, fig_b_double_amalgam_spec

from .test_golden import expected, golden_text


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
        "g": {k: f"{scalar_to_float(v):.{digits}g}" for k, v in w.g.items()},
        "lambda_tilde": {k: f"{scalar_to_float(v):.{digits}g}" for k, v in w.lambda_tilde.items()},
        "lambda": {k: f"{scalar_to_float(v):.{digits}g}" for k, v in w.lam.items()},
        "eta": {k: f"{scalar_to_float(v):.{digits}g}" for k, v in w.eta.items()},
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
        ("kms-check", FIG_B_SPEC, {"g": [1, 2], "lambda": {}}, "field 'g' must be a JSON object"),
        ("kms-check", FIG_B_SPEC, [1, 2], "expected a JSON object, got list"),
        ("kms-check", FIG_B_SPEC, {"lambda": {}}, "weight file missing field 'g'"),
        ("kms-check", [1, 2], {"g": {}, "lambda": {}}, "expected a JSON object, got list"),
    ],
)
def test_malformed_weight_and_object_files(capsys, tmp_path, command, obj, weight, message):
    (tmp_path / "obj.json").write_text(json.dumps(obj))
    (tmp_path / "w.json").write_text(json.dumps(weight))
    code, out, err = run(capsys, command, str(tmp_path / "obj.json"), str(tmp_path / "w.json"))
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("command", [["solve-graph"], ["solve-graph", "--boundary"], ["boundary-graph"]])
def test_top_level_list_object_exits_2(capsys, tmp_path, command):
    p = tmp_path / "list.json"
    p.write_text("[1, 2]")
    code, out, err = run(capsys, *command, str(p))
    assert (code, out) == (2, "")
    assert "expected a JSON object" in err


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
        (["solve-graph", "--eps", "tiny", "FIG"], "argument --eps: invalid rational value: 'tiny'"),
        (["solve-cw", "--eps", "1/0", "FIG"], "argument --eps: invalid rational value: '1/0'"),
        (["solve-triangular", "--eps", "", "FIG"], "argument --eps: invalid rational value: ''"),
        (["verify", "--tol", "abc", "FIG", "FIG"], "argument --tol: invalid rational value: 'abc'"),
        (["kms-check", "--tol", "1e", "FIG", "FIG"], "argument --tol: invalid rational value: '1e'"),
        (["splice", "FIG", "--weights", ".", "--tol", "x"], "argument --tol: invalid rational value: 'x'"),
        (["solve-cw", "--special", "FIG"], "unrecognized arguments: --special"),
    ],
)
def test_bad_options_exit_2(capsys, figb_file, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([figb_file if a == "FIG" else a for a in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
