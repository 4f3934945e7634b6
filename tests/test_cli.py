from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from importlib import resources

import jsonschema
import pytest

from mclab.cli import build_parser, main, parse_root_token
from mclab.rootsys import build_root_system


def run_cli(args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def load_schema(name):
    with resources.files("mclab.schemas").joinpath(f"{name}.json").open() as fh:
        return json.load(fh)


def validate_against(name, text):
    jsonschema.validate(json.loads(text), load_schema(name))


def test_rootsys_command():
    code, out = run_cli(["rootsys", "A", "3"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["root_system"]["positive_roots"]) == 6
    validate_against("rootsys", out)

    code, out = run_cli(["rootsys", "C", "2"])
    doc = json.loads(out)
    assert doc["omega"] == "21"
    validate_against("rootsys", out)

    code, out = run_cli(["rootsys", "A", "1"])
    assert len(json.loads(out)["root_system"]["positive_roots"]) == 1


def test_byte_identical_reruns():
    """Calls in one process share one parser: a rerun prints the same
    bytes, and a bad argument after good calls still exits 2."""
    assert build_parser() is build_parser()
    _, first = run_cli(["rootsys", "A", "3"])
    _, second = run_cli(["rootsys", "A", "3"])
    assert first == second
    _, a = run_cli(["mc", "C", "2", "--hessenberg", "a,b,a+b"])
    _, b = run_cli(["mc", "C", "2", "--hessenberg", "a,b,a+b"])
    assert a == b
    for bad in (["mc", "C", "2"], ["rootsys", "E", "3"],
                ["mc", "C", "2", "--hessenberg", "a", "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            run_cli(bad)
        assert exc.value.code == 2
    assert run_cli(["rootsys", "A", "3"]) == (0, first)


def test_root_token_parsing():
    c2 = build_root_system("C", 2)
    assert parse_root_token(c2, "a") == 0
    assert parse_root_token(c2, "b") == 1
    assert parse_root_token(c2, "a+b") == 2
    assert parse_root_token(c2, "2a+b") == 3
    assert parse_root_token(c2, "21") == 3
    a3 = build_root_system("A", 3)
    assert parse_root_token(a3, "110") == a3.id_of((1, 1, 0))


def test_root_aliases_reach_rank_four():
    """The aliases a-d name simple roots up to rank 4; from rank 5 on the
    error names that limit and the coefficient-string form."""
    a4 = build_root_system("A", 4)
    assert parse_root_token(a4, "c+d") == a4.id_of((0, 0, 1, 1))
    code, out = run_cli(["hess", "A", "4", "--hessenberg", "a,d"])
    assert code == 0
    assert json.loads(out)["reports"][0]["R_names"] == ["1000", "0001"]
    code, out = run_cli(["hess", "A", "5", "--hessenberg", "a"])
    assert code == 2
    assert json.loads(out)["error"] == {
        "type": "CliError",
        "message": "cannot parse root token 'a': root aliases a-d work up "
                   "to rank 4; give 5 simple-root coefficients, like "
                   "'11111'"}
    assert run_cli(["hess", "A", "5", "--hessenberg", "10000"])[0] == 0


def test_hess_command():
    code, out = run_cli(["hess", "C", "2", "--hessenberg", "a,b,a+b"])
    assert code == 0
    doc = json.loads(out)
    dims = doc["reports"][0]["dims"]
    assert dims["dim_q_mod_nC"] == 6 and dims["dim_conjecture"] == 8
    validate_against("hess", out)

    code, out = run_cli(["hess", "A", "2", "--hessenberg", "all"])
    assert len(json.loads(out)["reports"]) == 5
    validate_against("hess", out)


def test_mc_command_examples():
    code, out = run_cli(["mc", "A", "3", "--hessenberg", "type-2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["solution"]["dimension"] == 9
    assert doc["solution"]["bracket_closed"] is True
    assert doc["comparison"]["equal"] is True
    validate_against("mc", out)

    code, out = run_cli(["mc", "C", "2", "--hessenberg", "a,b,a+b"])
    doc = json.loads(out)
    assert doc["solution"]["dimension"] == 8
    assert doc["solution"]["bracket_closed"] is True
    assert doc["comparison"]["nu_dimension"] == 6
    assert doc["comparison"]["conjecture_dimension"] == 8
    validate_against("mc", out)


def test_polybasis_command():
    code, out = run_cli(["polybasis", "A", "2"])
    assert code == 0
    doc = json.loads(out)
    assert all(doc["oracle_equal"].values())
    validate_against("polybasis", out)


def test_hessdefs_command():
    code, out = run_cli(["hessdefs", "A", "3", "--H", " -1,1/2,-1/2,1",
                         "--hessenberg", "type-2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["equations"]["equations"]["111"] == \
        "-3/2*x*y*t + 1/2*x*v + 3/2*t*u - 2*z"
    assert doc["graph_map"]["111"] == "-3/4*x*y*t + 1/4*x*v + 3/4*t*u"
    assert doc["certificate"]["identity_holds"] is True
    validate_against("hessdefs", out)

    code, out = run_cli(["hessdefs", "C", "2", "--hessenberg", "a,b,a+b",
                         "--symbolic"])
    assert code == 0
    assert json.loads(out)["certificate"]["identity_holds"] is True
    validate_against("hessdefs", out)

    # sp(l >= 3) has no matrix chart; hessdefs uses the second-kind one
    code, out = run_cli(["hessdefs", "C", "3", "--hessenberg", "type-2",
                         "--symbolic"])
    assert code == 0
    assert json.loads(out)["certificate"]["identity_holds"] is True
    validate_against("hessdefs", out)


def test_hessdefs_jacobian_csv():
    code, out = run_cli(["hessdefs", "A", "3", "--hessenberg", "type-2",
                         "--H", " -1,1/2,-1/2,1", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "equation,x,y,t,u,v,z"
    assert lines[1].startswith("111,")


def test_selftest_command():
    code, out = run_cli(["selftest", "--seed", "11"])
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    validate_against("selftest", out)
    _, again = run_cli(["selftest", "--seed", "11"])
    assert out == again


def test_error_paths():
    code, out = run_cli(["rootsys", "A", "0"])
    assert code == 2
    doc = json.loads(out)
    assert "error" in doc and doc["error"]["message"]

    code, out = run_cli(["mc", "C", "2", "--hessenberg", "a+b"])
    assert code == 2
    assert "error" in json.loads(out)


def test_max_rank_env(monkeypatch):
    monkeypatch.setenv("MCLAB_MAX_RANK", "2")
    code, out = run_cli(["hess", "A", "3", "--hessenberg", "all"])
    assert code == 2
    assert "MCLAB_MAX_RANK" in json.loads(out)["error"]["message"]
    monkeypatch.setenv("MCLAB_MAX_RANK", "3")
    code, out = run_cli(["hess", "A", "3", "--hessenberg", "all"])
    assert code == 0


@pytest.mark.parametrize("value", ["x", "2.5", "", "0", "-1"])
def test_max_rank_env_rejects_bad_value(monkeypatch, value):
    monkeypatch.setenv("MCLAB_MAX_RANK", value)
    code, out = run_cli(["hess", "A", "3", "--hessenberg", "all"])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "CliError"
    assert error["message"] == (
        f"MCLAB_MAX_RANK must be a positive integer, got {value!r}")


@pytest.mark.parametrize("args, message", [
    (["--hessenberg", "type-2", "--H", "1/0,1,1"], "--H: cannot parse '1/0'"),
    (["--hessenberg", "type-2", "--H", "1,2,x"], "--H: cannot parse 'x'"),
    (["--hessenberg", "type-x"], "--hessenberg: cannot parse 'type-x'"),
])
def test_bad_number_token_is_a_cli_error(args, message):
    code, out = run_cli(["hessdefs", "A", "3", *args])
    assert code == 2
    error = json.loads(out)["error"]
    assert error == {"type": "CliError", "message": message}


def test_formats_and_out_file(tmp_path):
    code, out = run_cli(["rootsys", "A", "2", "--format", "csv"])
    assert out.splitlines()[0] == "name,height,coeffs"
    code, out = run_cli(["rootsys", "A", "2", "--format", "pretty"])
    assert "omega = 11" in out
    target = tmp_path / "roots.json"
    code, out = run_cli(["rootsys", "A", "2", "--out", str(target)])
    assert out == "" and json.loads(target.read_text())["omega"] == "11"


def test_config_round_trip():
    # replaying the recorded config passes --degree-bound, the solver's
    # verification mode, which must reproduce the default solve exactly
    _, out = run_cli(["mc", "C", "2", "--hessenberg", "a,b,a+b"])
    doc = json.loads(out)
    cfg = doc["config"]
    args = [cfg["command"], cfg["family"], cfg["rank"].__str__(),
            "--hessenberg", cfg["hessenberg"],
            "--degree-bound", str(cfg["degree_bound"]),
            "--format", cfg["format"], "--seed", str(cfg["seed"])]
    _, again = run_cli(args)
    replay = json.loads(again)
    for key in ("config", "solution", "comparison"):
        assert replay[key] == doc[key]
