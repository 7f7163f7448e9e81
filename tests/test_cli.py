"""End-to-end tests that drive the command line, in process and in fresh interpreters."""

import json
import os
import subprocess
import sys

import pytest

import algstat
import algstat.cli
from algstat import (
    GuardrailError,
    ideal_equal,
    parse_ideal_text,
    run,
)

HW_IDEAL_TEXT = "ring p_0..p_2\n4*p_0*p_2 - p_1^2\n"

HW_LC_TEXT = (
    "ring p_0..p_2 u_0..u_2\n"
    "order grevlex\n"
    "4*p_2*u_0 - p_1*u_1 + 2*p_2*u_1 - 2*p_1*u_2\n"
    "2*p_1*u_0 - 2*p_0*u_1 + p_1*u_1 - 4*p_0*u_2\n"
    "p_1^2 - 4*p_0*p_2\n"
)


@pytest.fixture
def hw_file(tmp_path):
    path = tmp_path / "hw.ideal"
    path.write_text(HW_IDEAL_TEXT)
    return str(path)


@pytest.fixture
def chain_json(tmp_path):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps({
        "variables": [
            {"name": "a", "arity": 2},
            {"name": "b", "arity": 2},
            {"name": "c", "arity": 2},
        ],
        "edges": [["a", "b"], ["b", "c"]],
    }))
    return str(path)


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- happy path


def test_compute_lc_text_output(capsys, hw_file):
    code, out, err = _run(capsys, "compute-lc", hw_file)
    assert code == 0
    assert out == HW_LC_TEXT
    assert err == ""


def test_compute_lc_json_output(capsys, hw_file):
    code, out, _ = _run(capsys, "compute-lc", hw_file, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ring"]["variables"] == [
        "p_0", "p_1", "p_2", "u_0", "u_1", "u_2",
    ]
    assert data["ring"]["order"] == "grevlex"
    assert data["generators"] == [
        "4*p_2*u_0 - p_1*u_1 + 2*p_2*u_1 - 2*p_1*u_2",
        "2*p_1*u_0 - 2*p_0*u_1 + p_1*u_1 - 4*p_0*u_2",
        "p_1^2 - 4*p_0*p_2",
    ]


def test_compute_lc_output_reparses_to_same_ideal(capsys, hw_file):
    _, out, _ = _run(capsys, "compute-lc", hw_file)
    back = parse_ideal_text(out)
    assert back.ring.variables == ("p_0", "p_1", "p_2", "u_0", "u_1", "u_2")
    _, again, _ = _run(capsys, "compute-lc", hw_file)
    assert ideal_equal(back, parse_ideal_text(again))


def test_groebner_output_keeps_index_spelling(capsys):
    code, out, _ = _run(
        capsys, "groebner", "--ideal", "ring p_00 p_1;p_00^2 - p_1^2", "--inline"
    )
    assert code == 0
    assert out.startswith("ring p_00 p_1\n")
    back = parse_ideal_text(out)
    assert back.ring.variables == ("p_00", "p_1")
    assert ideal_equal(back, parse_ideal_text("ring p_00 p_1\np_00^2 - p_1^2\n"))


def test_compute_lc_inline_ideal(capsys):
    code, out, _ = _run(
        capsys, "compute-lc", "--ideal", "ring p_0..p_1", "--inline"
    )
    assert code == 0
    assert out.endswith("p_1*u_0 - p_0*u_1\n")


def test_compute_lc_saturation_flag(capsys):
    src = "ring p_0..p_2;p_1^2 - p_0*p_2"
    code, toric, _ = _run(
        capsys, "compute-lc", "--matrix", "1 1 1;0 1 2", "--inline"
    )
    assert code == 0
    code, lagr, _ = _run(capsys, "compute-lc", "--ideal", src, "--inline")
    assert code == 0
    assert ideal_equal(parse_ideal_text(toric), parse_ideal_text(lagr))


def test_one_row_matrix(capsys):
    code, out, _ = _run(capsys, "ml-degree", "--matrix", "1 1 1", "--inline")
    assert code == 0
    assert out == "1\n"
    code, out, _ = _run(capsys, "compute-lc", "--matrix", "2 2", "--inline")
    assert code == 0
    assert out == "ring p_0..p_1 u_0..u_1\norder grevlex\np_0 - p_1\n"


def test_compute_lc_saturate_singular(capsys, hw_file):
    code, out, _ = _run(capsys, "compute-lc", hw_file, "--saturate-singular")
    assert code == 0
    assert out == HW_LC_TEXT


def test_compute_lc_saturate_singular_rejects_double_line(capsys):
    src = "ring p_0..p_2;p_0^2 - 2*p_0*p_1 + p_1^2"
    code, out, err = _run(
        capsys, "compute-lc", "--ideal", src, "--inline", "--saturate-singular"
    )
    assert code == 1
    assert out == ""
    assert "pass the radical" in err


def test_compute_lc_saturation_flag_is_gone(capsys, hw_file):
    code, _, err = _run(capsys, "compute-lc", hw_file, "--saturation", "full")
    assert code == 1
    assert "--saturation" in err


def test_ml_degree(capsys, hw_file):
    code, out, _ = _run(capsys, "ml-degree", hw_file)
    assert code == 0
    assert out == "1\n"


def test_ml_degree_json_and_options(capsys, hw_file):
    code, out, _ = _run(
        capsys, "ml-degree", hw_file,
        "--trials", "2", "--seed", "5", "--range", "1:50", "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"ml_degree": 1}


def test_toric_ideal_from_inline_matrix(capsys):
    code, out, _ = _run(
        capsys, "toric-ideal", "--matrix", "1 1 1 1;1 2 3 4", "--inline"
    )
    assert code == 0
    assert out == (
        "ring p_0..p_3\n"
        "order grevlex\n"
        "p_2^2 - p_1*p_3\n"
        "p_1*p_2 - p_0*p_3\n"
        "p_1^2 - p_0*p_2\n"
    )


def test_toric_ideal_from_graph_json(capsys, chain_json):
    code, out, _ = _run(capsys, "toric-ideal", chain_json)
    assert code == 0
    assert out == (
        "ring p_0..p_7\n"
        "order grevlex\n"
        "p_1*p_4 - p_0*p_5\n"
        "p_3*p_6 - p_2*p_7\n"
    )


def test_toric_ideal_matrix_file(capsys, tmp_path):
    path = tmp_path / "curve.mat"
    path.write_text("1 1 1\n0 1 2\n")
    code, out, _ = _run(capsys, "toric-ideal", str(path))
    assert code == 0
    assert "p_1^2 - p_0*p_2" in out


def test_toric_polytope(capsys):
    code, out, _ = _run(
        capsys, "toric-polytope",
        "--ideal", "ring p_0..p_2;p_1^2 - p_0*p_2", "--inline",
    )
    assert code == 0
    rows = [line.split() for line in out.strip().splitlines()]
    assert len(rows) == 2
    assert all(len(r) == 3 for r in rows)


def test_toric_polytope_json(capsys):
    code, out, _ = _run(
        capsys, "toric-polytope",
        "--ideal", "ring p_0..p_2;p_1^2 - p_0*p_2", "--inline",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert sorted(data) == ["matrix"]
    assert all(isinstance(e, str) for row in data["matrix"] for e in row)


def test_loglinear_matrix_from_graph(capsys, chain_json):
    code, out, _ = _run(capsys, "loglinear-matrix", chain_json)
    assert code == 0
    assert out == (
        "1 1 0 0 0 0 0 0\n"
        "0 0 1 1 0 0 0 0\n"
        "0 0 0 0 1 1 0 0\n"
        "0 0 0 0 0 0 1 1\n"
        "1 0 0 0 1 0 0 0\n"
        "0 1 0 0 0 1 0 0\n"
        "0 0 1 0 0 0 1 0\n"
        "0 0 0 1 0 0 0 1\n"
    )


def test_loglinear_matrix_from_generators(capsys, tmp_path, chain_json):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps({
        "variables": [
            {"name": "a", "arity": 2},
            {"name": "b", "arity": 2},
            {"name": "c", "arity": 2},
        ],
        "generators": [["a", "b"], ["b", "c"]],
    }))
    _, direct, _ = _run(capsys, "loglinear-matrix", str(path))
    _, via_graph, _ = _run(capsys, "loglinear-matrix", chain_json)
    assert direct == via_graph


def test_scroll(capsys):
    code, out, _ = _run(capsys, "scroll", "--blocks", "2,2,3")
    assert code == 0
    assert out == (
        "1 1 1 1 1 1 1\n"
        "0 0 1 1 0 0 0\n"
        "0 0 0 0 1 1 1\n"
        "0 1 0 1 0 1 2\n"
    )


def test_groebner_default_and_lex(capsys, tmp_path):
    path = tmp_path / "sys.ideal"
    path.write_text("ring x y\nx^2 + 2*x*y^2\nx*y + 2*y^3 - 1\n")
    code, out, _ = _run(capsys, "groebner", str(path), "--order", "lex")
    assert code == 0
    assert out == "ring x y\norder lex\ny^3 - 1/2\nx\n"
    code, out2, _ = _run(capsys, "groebner", str(path))
    assert code == 0
    assert "order grevlex" in out2


def test_drv_actions(capsys):
    code, out, _ = _run(
        capsys, "drv", "mean", "--arity", "3", "--pmf", "1/2,3/10,1/5"
    )
    assert code == 0
    assert out == "17/10\n"
    code, out, _ = _run(capsys, "drv", "states", "--arity", "3")
    assert out == "1 2 3\n"
    code, out, _ = _run(
        capsys, "drv", "states", "--arity", "3", "--format", "json"
    )
    assert json.loads(out) == {"states": [1, 2, 3]}
    code, out, _ = _run(
        capsys, "drv", "mean", "--arity", "3", "--pmf", "1/2,3/10,1/5",
        "--format", "json",
    )
    assert json.loads(out) == {"mean": "17/10"}


def test_drv_sample_deterministic(capsys):
    args = ("drv", "sample", "--arity", "2", "--n", "5", "--seed", "0")
    code, first, _ = _run(capsys, *args)
    assert code == 0
    assert first == "2 1 1 2 1\n"
    _, second, _ = _run(capsys, *args)
    assert first == second
    _, shifted, _ = _run(capsys, "drv", "sample", "--arity", "2",
                         "--n", "5", "--seed", "1")
    assert shifted != first


def test_reruns_are_byte_identical(capsys, hw_file, chain_json):
    for argv in (
        ("compute-lc", hw_file),
        ("ml-degree", hw_file, "--seed", "3"),
        ("toric-ideal", chain_json),
        ("scroll", "--blocks", "3,2"),
    ):
        _, first, _ = _run(capsys, *argv)
        _, second, _ = _run(capsys, *argv)
        assert first == second


def test_fresh_interpreters_print_identical_bytes(tmp_path, chain_json):
    # String hashing is salted per process, so set and dict order may
    # differ between interpreters even where reruns in one process agree.
    system = tmp_path / "sys.ideal"
    system.write_text("ring x y z\nx^2 + 2*x*y^2 - z\nx*y + 2*y^3 - 1\ny*z - x^2\n")
    cubic = "ring p_0..p_3;p_1^2 - p_0*p_2;p_1*p_2 - p_0*p_3;p_2^2 - p_1*p_3"
    src = os.path.dirname(os.path.dirname(algstat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in (
        ("compute-lc", chain_json),
        ("ml-degree", "--ideal", cubic, "--inline"),
        ("groebner", str(system)),
    ):
        outputs = [
            subprocess.run(
                [sys.executable, "-m", "algstat", *argv],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True,
                check=True,
                timeout=120,
            ).stdout
            for seed in ("0", "12345")
        ]
        assert outputs[0], argv
        assert outputs[0] == outputs[1], argv


# --------------------------------------------------------------- exit codes


def test_unknown_command_exits_one(capsys):
    code, _, err = _run(capsys, "nope")
    assert code == 1
    assert "invalid choice" in err


def test_unknown_flag_exits_one(capsys, hw_file):
    code, _, err = _run(capsys, "compute-lc", hw_file, "--wat")
    assert code == 1
    assert err != ""


def test_help_exits_zero(capsys):
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert "compute-lc" in out
    code, out, _ = _run(capsys, "compute-lc", "--help")
    assert code == 0
    assert "--saturate-singular" in out


def test_missing_file_exits_one(capsys):
    code, _, err = _run(capsys, "compute-lc", "/nonexistent/x.ideal")
    assert code == 1
    assert err.startswith("error:")


def test_unknown_extension_exits_one(capsys, tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("ring x y\n")
    code, _, err = _run(capsys, "compute-lc", str(path))
    assert code == 1
    assert "extension" in err


def test_malformed_ideal_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.ideal"
    path.write_text("ring x y\nx +\n")
    code, _, err = _run(capsys, "compute-lc", str(path))
    assert code == 1
    assert "line" in err


def test_malformed_json_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    code, _, err = _run(capsys, "toric-ideal", str(path))
    assert code == 1
    assert "JSON" in err


@pytest.mark.parametrize("fields", [
    '"variables": 5',
    '"variables": [{"name": "a", "arity": 2}], "edges": [1]',
    '"variables": [{"name": "a", "arity": 2}], "generators": [5]',
    '"variables": [{"name": "a", "arity": 2}], "generators": [[["a"]]]',
    '"variables": [{"name": "a", "arity": 2, "pmf": 5}]',
])
def test_malformed_model_fields_exit_one(capsys, fields):
    # each of these once escaped parse_model_json as a TypeError
    code, out, err = _run(capsys, "ml-degree", "--model", "{" + fields + "}", "--inline")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("variable", [
    '{"name": ["a"], "arity": 2}',
    '{"name": null, "arity": 2}',
    '{"name": "a", "arity": true}',
    '{"name": "a", "arity": 2, "pmf": [true, false]}',
    '{"name": "a", "arity": 2, "pmf": ["1/0", "1"]}',
])
def test_malformed_model_variable_exits_one(capsys, variable):
    # each of these once printed a matrix for a variable named ['a'] or
    # None, of arity True or with pmf (1, 0) read from booleans; a zero
    # denominator escaped as a ZeroDivisionError
    model = '{"variables": [' + variable + '], "edges": []}'
    code, out, err = _run(capsys, "loglinear-matrix", "--model", model, "--inline")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_model_variable_names_are_free_but_the_data(capsys):
    code, out, _ = _run(capsys, "ml-degree", "--ideal", "ring t a b;t*b - a^2", "--inline")
    assert (code, out) == (0, "2\n")
    code, out, _ = _run(capsys, "ml-degree", "--ideal", "ring u_0..u_2;u_0*u_2 - u_1^2", "--inline")
    assert (code, out) == (0, "2\n")
    # compute-lc names the data u_0..u_n in its output ring
    code, out, err = _run(
        capsys, "compute-lc", "--ideal", "ring u_0..u_2;u_0*u_2 - u_1^2", "--inline"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_conflicting_inputs_exit_one(capsys, hw_file):
    code, _, err = _run(
        capsys, "compute-lc", hw_file, "--ideal", HW_IDEAL_TEXT, "--inline"
    )
    assert code == 1
    code, _, err = _run(capsys, "compute-lc")
    assert code == 1
    assert "input" in err


def test_inline_without_slot_flag_exits_one(capsys, hw_file):
    code, _, err = _run(capsys, "compute-lc", hw_file, "--inline")
    assert code == 1


def test_wrong_input_kind_exits_one(capsys, hw_file, chain_json):
    # an ideal is not a valid toric-ideal source
    code, _, err = _run(capsys, "toric-ideal", hw_file)
    assert code == 1
    # a matrix is not a valid toric-polytope source
    code, _, err = _run(
        capsys, "toric-polytope", "--matrix", "1 1;0 1", "--inline"
    )
    assert code == 1


def test_bad_range_exits_one(capsys, hw_file):
    code, _, err = _run(capsys, "ml-degree", hw_file, "--range", "0:5")
    assert code == 1
    code, _, err = _run(capsys, "ml-degree", hw_file, "--range", "9:2")
    assert code == 1
    assert "data range" in err
    code, _, err = _run(capsys, "ml-degree", hw_file, "--range", "abc")
    assert code == 1
    code, _, err = _run(capsys, "ml-degree", hw_file, "--range", "1:2:3")
    assert code == 1
    # wider than 2^64: once looped forever in the rejection sampler
    code, _, err = _run(capsys, "ml-degree", hw_file, "--range", f"1:{10 ** 23}")
    assert code == 1
    assert "2^64" in err


def test_bad_blocks_exit_one(capsys):
    code, _, err = _run(capsys, "scroll", "--blocks", "2,0")
    assert code == 1
    code, _, err = _run(capsys, "scroll", "--blocks", "x")
    assert code == 1


def test_drv_sample_requires_n(capsys):
    code, _, err = _run(capsys, "drv", "sample", "--arity", "2")
    assert code == 1
    code, out, err = _run(capsys, "drv", "sample", "--arity", "2", "--n", "-1")
    assert (code, out) == (1, "")
    assert "nonnegative" in err


def test_drv_bad_pmf_exits_one(capsys):
    for pmf in ("1/2,1/3", "1/0,1", "x,1", "1/2,,1/2"):
        code, out, err = _run(capsys, "drv", "mean", "--arity", "2", "--pmf", pmf)
        assert (code, out) == (1, "")
        assert err.startswith("error:")


@pytest.mark.parametrize("argv, names", [
    (["drv", "mean", "--arity", "2", "--pmf", "1e-10000000,1"], "pmf entry '1e-10000000'"),
    (["loglinear-matrix", "--model",
      '{"variables":[{"name":"a","arity":2,"pmf":["1e-10000000","1"]}],"edges":[]}', "--inline"],
     "variable 'a': pmf entry '1e-10000000'"),
    (["groebner", "--ideal", "ring x;" + "7" * (sys.get_int_max_str_digits() + 1) + "*x", "--inline"],
     "line 2, column 1:"),
    (["groebner", "--ideal", "ring x;x^" + "7" * (sys.get_int_max_str_digits() + 1), "--inline"],
     "line 2, column 3:"),
])
def test_overlong_numbers_exit_one_naming_where(capsys, argv, names):
    # a decimal exponent once ran 8 s and a 4301-digit integer exited with
    # Python's bare int-conversion message; both named no entry or column
    code, out, err = _run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {names}")
    assert len(err.splitlines()) == 1


def test_guardrail_exits_two(capsys, monkeypatch, hw_file):
    def blow_up(*args, **kwargs):
        raise GuardrailError("candidate count exceeds the configured cap")

    monkeypatch.setattr(algstat.cli, "ml_degree", blow_up)
    code, _, err = _run(capsys, "ml-degree", hw_file)
    assert code == 2
    assert "cap" in err


def test_runs_share_one_parser_and_print_what_fresh_parsers_print(capsys, monkeypatch):
    # a usage error, a success, --help and another subcommand, in that
    # order, through the one parser, then each through a fresh parser
    calls = [
        ["ml-degree", "--matrix", "1 1 1;0 1 2", "--inline", "--bogus"],
        ["ml-degree", "--matrix", "1 1 1;0 1 2", "--inline"],
        ["--help"],
        ["scroll", "--blocks", "1,2"],
        ["ml-degree", "--help"],
        ["drv", "mean", "--arity", "3"],
    ]

    def outputs():
        return [_run(capsys, *argv) for argv in calls]

    shared = outputs()
    assert algstat.cli._parser() is algstat.cli._parser()
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0, 0]
    assert shared[1][1] == "2\n" and shared[2][1].startswith("usage: algstat")
    monkeypatch.setattr(algstat.cli, "_parser", algstat.cli.build_parser)
    assert outputs() == shared
