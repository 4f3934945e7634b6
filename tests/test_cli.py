from __future__ import annotations

import io
import json
from contextlib import redirect_stdout
from importlib import resources

import jsonschema

from mclab.cli import main, parse_root_token
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
    _, first = run_cli(["rootsys", "A", "3"])
    _, second = run_cli(["rootsys", "A", "3"])
    assert first == second
    _, a = run_cli(["mc", "C", "2", "--hessenberg", "a,b,a+b"])
    _, b = run_cli(["mc", "C", "2", "--hessenberg", "a,b,a+b"])
    assert a == b


def test_root_token_parsing():
    c2 = build_root_system("C", 2)
    assert parse_root_token(c2, "a") == 0
    assert parse_root_token(c2, "b") == 1
    assert parse_root_token(c2, "a+b") == 2
    assert parse_root_token(c2, "2a+b") == 3
    assert parse_root_token(c2, "21") == 3
    a3 = build_root_system("A", 3)
    assert parse_root_token(a3, "110") == a3.id_of((1, 1, 0))


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
