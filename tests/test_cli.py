"""Golden-file and behavior tests for the command-line interface.

Each case is run as a real subprocess; stdout must match the stored
golden byte-for-byte, twice in a row, with the advertised exit code.
Children find the package through an absolute ``src`` entry on their
``PYTHONPATH``, so the tests run from a clean checkout without an install.
"""

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nilmod import cli, modcore
from nilmod.diffop import DiffOpSeries, monomial_images
from nilmod.modcore import FDModule
from nilmod.multipoly import Poly, potential
from nilmod.polysub import PolySubmodule

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parents[1]

CASES = [
    ("validate_jordan3", ["validate", "inputs/jordan3.json"], 0),
    ("validate_noncommuting", ["validate", "inputs/noncommuting.json"], 0),
    ("socle_jordan3", ["socle", "inputs/jordan3.json"], 0),
    ("socle_identity_error", ["socle", "inputs/identity2.json"], 1),
    ("embed_jordan3", ["embed", "inputs/jordan3.json"], 0),
    ("canonical_jordan3", ["canonical", "inputs/jordan3.json"], 0),
    (
        "isomorphic_conjugates",
        ["isomorphic", "inputs/jordan2.json", "inputs/jordan2_conjugate.json"],
        0,
    ),
    (
        "isomorphic_dim_mismatch",
        ["isomorphic", "inputs/jordan3.json", "inputs/jordan2.json"],
        0,
    ),
    (
        "isomorphic_brute_force",
        [
            "isomorphic",
            "inputs/jordan2.json",
            "inputs/jordan2_conjugate.json",
            "--max-dim",
            "4",
        ],
        0,
    ),
    ("embed_general_shifted", ["embed-general", "inputs/shifted.json"], 0),
    ("embed_general_identity_error", ["embed-general", "inputs/identity2.json"], 1),
    ("extract_endo_table", ["extract-endo", "inputs/endo_table.json"], 0),
    ("aut_plane", ["aut", "inputs/plane_lambda.json"], 0),
    ("extend_iso_rescale", ["extend-iso", "inputs/extend_problem.json"], 0),
    ("gen_seed7", ["gen", "--n", "2", "--degree-bound", "2", "--seed", "7"], 0),
    ("parse_error", ["validate", "inputs/malformed.json"], 2),
]


def child_env():
    """``os.environ`` with the absolute ``src`` directory first on ``PYTHONPATH``.

    Children run with ``cwd=GOLDEN``, where a relative ``src`` entry
    inherited from the caller would no longer resolve.
    """
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([inherited] if inherited else [])
    )
    return env


def run_cli(argv, stdin=None, flags=(), timeout=None):
    return subprocess.run(
        [sys.executable, *flags, "-m", "nilmod.cli", *argv],
        capture_output=True,
        cwd=GOLDEN,
        env=child_env(),
        input=stdin,
        timeout=timeout,
    )


@functools.cache
def golden_runs(argv):
    """Two plain runs of one golden case's argv (a tuple), made once per
    session: `test_golden` and `test_acceptance`'s criterion 12 both read
    them."""
    return run_cli(argv), run_cli(argv)


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, code):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    first, second = golden_runs(tuple(argv))
    assert first.returncode == code, first.stderr.decode()
    assert first.stdout == expected, first.stderr.decode()
    # determinism, byte for byte
    assert second.stdout == first.stdout, second.stderr.decode()


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden_under_optimize(name, argv, code):
    # Load-bearing checks are explicit raises, not asserts, so `python -O`
    # gives the same bytes and exit code.
    proc = run_cli(argv, flags=["-O"])
    assert proc.returncode == code, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{name}.json").read_bytes(), proc.stderr.decode()


# [[0, 1], [0, 1]] kills e_1 alone: a joint kernel that is one line, on a
# module that is not nilpotent, so the inverse-system pass stops at its cap.
LINE_KERNEL_NOT_NILPOTENT = b'{"n": 1, "dim": 2, "matrices": [[["0", "1"], ["0", "1"]]]}'
NOT_NILPOTENT_OUTPUT = (
    b'{\n  "error": {\n    "kind": "NotNilpotent",\n'
    b'    "detail": "only nilpotent modules embed into the derivative module"\n  }\n}\n'
)


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
@pytest.mark.parametrize("command", ["embed", "canonical"])
def test_line_kernel_without_nilpotency_is_not_nilpotent(command, flags):
    proc = run_cli([command, "-"], stdin=LINE_KERNEL_NOT_NILPOTENT, flags=flags)
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stdout == NOT_NILPOTENT_OUTPUT


def large_answer_module(transpose):
    """A strictly upper-triangular 4 x 4 module in one variable, or its
    transpose, with 3000-digit entries: each literal is under Python's
    limit on printing an integer, but the embedding's coefficients are not."""
    rng = random.Random(3000)
    rows = [[str(rng.randrange(10**2999, 10**3000)) if j > i else "0" for j in range(4)] for i in range(4)]
    if transpose:
        rows = [list(column) for column in zip(*rows)]
    return json.dumps({"n": 1, "matrices": [rows]}).encode()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
@pytest.mark.parametrize("command,transpose", [("embed", False), ("embed-general", True)])
def test_an_answer_past_the_digit_limit_is_a_typed_error(command, transpose, flags):
    # The payload is built before anything is printed, so stdout holds the
    # error alone, and the limit stays in place.
    proc = run_cli([command, "-"], stdin=large_answer_module(transpose), flags=flags)
    assert proc.returncode == 1, proc.stderr.decode()
    assert b"Traceback" not in proc.stderr
    detail = f"an output number has more than {sys.get_int_max_str_digits()} digits, Python's print limit"
    assert proc.stdout == error_bytes({"kind": "DimensionTooLarge", "detail": detail})


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_an_input_literal_past_the_digit_limit_is_a_typed_error(flags):
    # A 5001-digit entry is past Python's limit on reading an integer
    # (4300 digits by default): a size bound that exits 1 and names the
    # limit, not a parse error that tells the user to lift it.
    module = json.dumps({"n": 1, "matrices": [[["0", "1" * 5001], ["0", "0"]]]}).encode()
    proc = run_cli(["validate", "-"], stdin=module, flags=flags)
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stderr == b""
    detail = f"an input number has more than {sys.get_int_max_str_digits()} digits, Python's read limit"
    assert proc.stdout == error_bytes({"kind": "DimensionTooLarge", "detail": detail})


BIG_COUNT = ('{"n": ' + "1" * 5001 + ', "matrices": []}').encode()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_a_json_number_past_the_digit_limit_is_a_typed_error(flags):
    # A JSON number, such as the variable count, is read by `json.loads`,
    # before any literal reader: its hook gives the same typed error.
    proc = run_cli(["validate", "-"], stdin=BIG_COUNT, flags=flags)
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stderr == b""
    detail = f"an input number has more than {sys.get_int_max_str_digits()} digits, Python's read limit"
    assert proc.stdout == error_bytes({"kind": "DimensionTooLarge", "detail": detail})


def test_a_json_number_past_the_digit_limit_loads_no_algebra_layer(tmp_path):
    path = tmp_path / "big_count.json"
    path.write_bytes(BIG_COUNT)
    assert loaded_modules(["validate", str(path)]) == FRONT


def test_validate_checks_nilpotency_once(monkeypatch, capsys):
    calls = []
    real = modcore.is_nilpotent

    def counting(module):
        calls.append(module)
        return real(module)

    # The handler runs modcore's `socle`, which looks `is_nilpotent` up
    # in modcore when it runs.
    monkeypatch.setattr(modcore, "is_nilpotent", counting)
    code = cli.main(["validate", str(GOLDEN / "inputs" / "jordan3.json")])
    assert code == 0
    assert len(calls) == 1
    expected = (GOLDEN / "validate_jordan3.json").read_text()
    assert capsys.readouterr().out == expected


def test_outputs_reparse_under_library_schemas():
    gen = json.loads((GOLDEN / "gen_seed7.json").read_text())
    FDModule.from_json(gen)
    canon = json.loads((GOLDEN / "canonical_jordan3.json").read_text())
    PolySubmodule.from_json(canon)
    series = json.loads((GOLDEN / "extract_endo_table.json").read_text())
    DiffOpSeries(series["n"], series["trunc"], Poly.from_json(series["coeffs"], series["n"]).terms)
    extended = json.loads((GOLDEN / "extend_iso_rescale.json").read_text())
    PolySubmodule.from_json(extended["source"])
    PolySubmodule.from_json(extended["target"])


def test_gen_pipes_into_validate_via_stdin():
    gen = run_cli(["gen", "--n", "3", "--degree-bound", "2", "--seed", "11"])
    assert gen.returncode == 0, gen.stderr.decode()
    verdict = run_cli(["validate", "-"], stdin=gen.stdout)
    assert verdict.returncode == 0, verdict.stderr.decode()
    data = json.loads(verdict.stdout)
    assert data == {"valid": True, "nilpotent": True, "socle_dim": 1}


def test_gen_degree_bound_zero_is_dim_one():
    out = run_cli(["gen", "--n", "2", "--degree-bound", "0", "--seed", "3"])
    assert out.returncode == 0, out.stderr.decode()
    data = json.loads(out.stdout)
    assert data["dim"] == 1


@pytest.mark.parametrize("n", ["0", "-1"])
def test_gen_refuses_fewer_than_one_variable(n):
    proc = run_cli(["gen", "--n", n, "--degree-bound", "2", "--seed", "1"])
    assert proc.returncode == 2, proc.stderr.decode()
    assert json.loads(proc.stdout) == {
        "error": {"kind": "ParseError", "detail": "variable count must be at least 1"}
    }
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("n,bound", [("30", "12"), ("2", "30"), ("3", "14"), ("5000", "0"), ("1", "9" * 40)])
def test_gen_refuses_a_large_module_at_once(n, bound):
    # Each ran for seconds to minutes (30 variables at degree 12 passed
    # 2 GB), and 5000 variables at degree 0 ended in a RecursionError.
    proc = run_cli(["gen", "--n", n, "--degree-bound", bound, "--seed", "1"], timeout=10)
    assert proc.returncode == 1, proc.stderr.decode()
    assert json.loads(proc.stdout) == {"error": {
        "kind": "DimensionTooLarge",
        "detail": f"random modules take at most 150 variables and monomials, not n = {n} with degree bound {bound}",
    }}


@pytest.mark.parametrize("n", [0, -1])
def test_aut_refuses_fewer_than_one_variable(n, monkeypatch, capsys):
    # As Poly does: n = 0 with the empty exponent vector is no module.
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"n": n, "indices": [[]]})))
    assert cli.main(["aut", "-"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": {"kind": "ParseError", "detail": "variable count must be at least 1"}
    }


@pytest.mark.parametrize("key", [[True], [1.0]], ids=["bool", "float"])
def test_extract_endo_refuses_a_non_integer_table_key(key, monkeypatch, capsys):
    # The key [true] used to be read as [1], and the table accepted.
    images = [
        {"exps": [0], "poly": [{"exps": [0], "coef": "1"}]},
        {"exps": key, "poly": [{"exps": [1], "coef": "1"}]},
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"n": 1, "degree": 1, "images": images})))
    assert cli.main(["extract-endo", "-"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": {"kind": "ParseError", "detail": f"bad exponent vector ({key[0]!r},) for n=1"}
    }


def test_extract_endo_refuses_an_entry_above_the_degree(monkeypatch, capsys):
    # The entry at [5] used to be neither checked nor used.
    images = [
        {"exps": [0], "poly": [{"exps": [0], "coef": "1"}]},
        {"exps": [5], "poly": [{"exps": [0], "coef": "7"}]},
        {"exps": [1], "poly": [{"exps": [1], "coef": "1"}]},
    ]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"n": 1, "degree": 1, "images": images})))
    assert cli.main(["extract-endo", "-"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": {"kind": "ParseError", "detail": "image table has monomial (5,) above degree 1"}
    }


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_deeply_nested_json_is_a_parse_error(source, flags, tmp_path):
    # 1000 open brackets exceed the decoder's recursion limit; that used
    # to end in a RecursionError traceback, exit 1 and no output.
    text = b"[" * 1000
    if source == "file":
        path = tmp_path / "deep.json"
        path.write_bytes(text)
        proc = run_cli(["validate", str(path)], flags=flags)
    else:
        proc = run_cli(["validate", "-"], stdin=text, flags=flags)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode == 2
    assert json.loads(proc.stdout) == {
        "error": {"kind": "ParseError", "detail": "input JSON is nested too deeply"}
    }


def test_extract_endo_in_many_variables_answers_in_json():
    # One degree-0 entry in 3000 variables: the monomial enumeration used
    # to recurse once per variable and end in a RecursionError traceback.
    table = {"n": 3000, "degree": 0, "images": [{"exps": [0] * 3000, "poly": []}]}
    proc = run_cli(["extract-endo", "-"], stdin=json.dumps(table).encode(), timeout=30)
    assert b"Traceback" not in proc.stderr, proc.stderr.decode()
    assert proc.returncode in (0, 1)
    json.loads(proc.stdout)


@pytest.mark.parametrize("n,bound", [("2", "-3"), ("1", "-1")])
def test_gen_refuses_a_negative_degree_bound(n, bound):
    proc = run_cli(["gen", "--n", n, "--degree-bound", bound, "--seed", "1"])
    assert proc.returncode == 2, proc.stderr.decode()
    assert json.loads(proc.stdout) == {
        "error": {"kind": "ParseError", "detail": "degree bound must be non-negative"}
    }


# Every subcommand that reads a file, once per file argument; the other
# argument of `isomorphic` is a valid module.
FILE_ARGUMENTS = [
    ["validate", "FILE"],
    ["socle", "FILE"],
    ["embed", "FILE"],
    ["canonical", "FILE"],
    ["isomorphic", "FILE", str(GOLDEN / "inputs" / "jordan2.json")],
    ["isomorphic", str(GOLDEN / "inputs" / "jordan2.json"), "FILE"],
    ["embed-general", "FILE"],
    ["extract-endo", "FILE"],
    ["aut", "FILE"],
    ["extend-iso", "FILE"],
]


@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3", "null"], ids=["list", "string", "number", "null"])
@pytest.mark.parametrize("argv", FILE_ARGUMENTS, ids=[f"{a[0]}-{a.index('FILE')}" for a in FILE_ARGUMENTS])
def test_top_level_json_must_be_an_object(argv, text, tmp_path, capsys):
    # In process, so the 40 cases cost no interpreter start each; main's
    # return value is the exit code of `python -m nilmod.cli`.
    path = tmp_path / "input.json"
    path.write_text(text)
    code = cli.main([str(path) if a == "FILE" else a for a in argv])
    assert code == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": {"kind": "ParseError", "detail": "input JSON must be an object"}
    }


@pytest.mark.parametrize(
    "argv,payload",
    [
        # Booleans are ints to Python; as exponents or as the variable count
        # they are malformed input.
        (["aut", "-"], {"n": 1, "indices": [[True], [False]]}),
        (["validate", "-"], {"n": True, "dim": 1, "matrices": [[["0"]]]}),
        (["validate", "-"], {"n": 1, "dim": True, "matrices": [[["0"]]]}),
        (["validate", "-"], {"n": 1, "dim": 1.0, "matrices": [[["0"]]]}),
        (
            ["extract-endo", "-"],
            {
                "n": 1,
                "degree": True,
                "images": [
                    {"exps": [0], "poly": [{"exps": [0], "coef": "1"}]},
                    {"exps": [1], "poly": [{"exps": [1], "coef": "1"}]},
                ],
            },
        ),
    ],
    ids=[
        "aut_bool_exponents",
        "validate_bool_n",
        "validate_bool_dim",
        "validate_float_dim",
        "extract_endo_bool_degree",
    ],
)
def test_booleans_are_not_integers(argv, payload):
    proc = run_cli(argv, stdin=json.dumps(payload).encode())
    assert proc.returncode == 2, proc.stderr.decode()
    assert json.loads(proc.stdout)["error"]["kind"] == "ParseError"


@pytest.mark.parametrize(
    "argv,payload",
    [
        (["aut", "-"], {"n": 2, "indices": [["0", "0"]]}),
        (
            ["extract-endo", "-"],
            {
                "n": 1,
                "degree": 0,
                "images": [{"exps": [0], "poly": [{"exps": ["0"], "coef": "1"}]}],
            },
        ),
    ],
    ids=["aut_string_indices", "extract_endo_string_exps"],
)
def test_string_exponents_are_parse_errors(argv, payload):
    # The exponent's type is checked before it is compared with 0, so the
    # library's own message reaches the user, not Python's TypeError.
    proc = run_cli(argv, stdin=json.dumps(payload).encode())
    assert proc.returncode == 2, proc.stderr.decode()
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "ParseError"
    assert error["detail"].startswith("bad exponent vector ('0'"), error


def poly_table(exps):
    """An `extract-endo` table whose one image has a term at [1], then one at exps."""
    poly = [{"exps": [1], "coef": "1"}, {"exps": exps, "coef": "2"}]
    return {"n": 1, "degree": 1, "images": [{"exps": [0], "poly": poly}]}


def extend_problem(side, field, value):
    """The golden `extend-iso` problem with one field of a side (of the
    problem itself, for side None) changed, or dropped when the value is
    `...`."""
    problem = json.loads((GOLDEN / "inputs" / "extend_problem.json").read_text())
    owner = problem if side is None else problem[side]
    if value is ...:
        del owner[field]
    else:
        owner[field] = value
    return problem


def term_table(term):
    """An `extract-endo` table whose one image is the one term given."""
    return {"n": 1, "degree": 0, "images": [{"exps": [0], "poly": [term]}]}


# Malformed inputs whose detail names the field or the rule, not Python's
# internals: before, "'NoneType' object is not iterable", "'n'",
# "'matrices'", "'basis'", "'indices'", "'exps'", "'coef'", "'images'",
# "'map'", "'int' object is not subscriptable", "'int' object is not
# iterable", "object of type 'int' has no len()", "duplicate exponent
# vector (True,)" and "unhashable type: 'list'".
MALFORMED = [
    ("matrices_null", ["validate", "-"], {"n": 1, "matrices": None}, 'module field "matrices" must be an array of matrices'),
    ("matrices_string", ["canonical", "-"], {"n": 1, "matrices": "x"}, 'module field "matrices" must be an array of matrices'),
    ("n_missing", ["validate", "-"], {"dim": 1, "matrices": [[["0"]]]}, 'module JSON has no field "n"'),
    ("matrices_missing", ["socle", "-"], {"n": 1, "dim": 1}, 'module JSON has no field "matrices"'),
    ("exps_bool_after_one", ["extract-endo", "-"], poly_table([True]), "bad exponent vector (True,) for n=1"),
    ("exps_float_after_one", ["extract-endo", "-"], poly_table([1.0]), "bad exponent vector (1.0,) for n=1"),
    ("exps_unhashable", ["extract-endo", "-"], poly_table([[1]]), "bad exponent vector ([1],) for n=1"),
    ("exps_a_number", ["extract-endo", "-"], {"n": 1, "degree": 0, "images": [{"exps": 0, "poly": []}]}, "bad exponent vector 0 for n=1"),
    ("aut_index_a_number", ["aut", "-"], {"n": 1, "indices": [5]}, "bad exponent vector 5 for n=1"),
    ("source_n_missing", ["extend-iso", "-"], extend_problem("source", "n", ...), 'submodule JSON has no field "n"'),
    ("target_basis_missing", ["extend-iso", "-"], extend_problem("target", "basis", ...), 'submodule JSON has no field "basis"'),
    ("source_basis_null", ["extend-iso", "-"], extend_problem("source", "basis", None), 'submodule field "basis" must be an array of polynomials'),
    ("goal_n_missing", ["extend-iso", "-"], extend_problem("goal", "n", ...), 'submodule JSON has no field "n"'),
    ("goal_indices_null", ["extend-iso", "-"], extend_problem("goal", "indices", None), 'submodule field "indices" must be an array of exponent vectors'),
    ("aut_n_missing", ["aut", "-"], {"indices": [[0]]}, 'submodule JSON has no field "n"'),
    ("aut_indices_missing", ["aut", "-"], {"n": 1}, 'submodule JSON has no field "indices"'),
    ("aut_indices_null", ["aut", "-"], {"n": 1, "indices": None}, 'submodule field "indices" must be an array of exponent vectors'),
    ("term_not_an_object", ["extract-endo", "-"], term_table(1), "polynomial term must be an object"),
    ("term_a_string", ["extract-endo", "-"], term_table("exps coef"), "polynomial term must be an object"),
    ("term_exps_missing", ["extract-endo", "-"], term_table({"coef": "1"}), 'polynomial term has no field "exps"'),
    ("term_coef_missing", ["extract-endo", "-"], term_table({"exps": [0]}), 'polynomial term has no field "coef"'),
    ("term_exps_a_number", ["extract-endo", "-"], term_table({"exps": 5, "coef": "1"}), "bad exponent vector 5 for n=1"),
    ("table_images_missing", ["extract-endo", "-"], {"n": 1, "degree": 0}, 'image table has no field "images"'),
    ("table_degree_missing", ["extract-endo", "-"], {"n": 1, "images": []}, 'image table has no field "degree"'),
    ("table_images_int", ["extract-endo", "-"], {"n": 1, "degree": 0, "images": 5}, 'image table field "images" must be an array'),
    ("table_images_object", ["extract-endo", "-"], {"n": 1, "degree": 0, "images": {"exps": [0]}}, 'image table field "images" must be an array'),
    ("entry_exps_missing", ["extract-endo", "-"], {"n": 1, "degree": 0, "images": [{"poly": []}]}, 'image table entry has no field "exps"'),
    ("entry_poly_missing", ["extract-endo", "-"], {"n": 1, "degree": 0, "images": [{"exps": [0]}]}, 'image table entry has no field "poly"'),
    ("entry_a_number", ["extract-endo", "-"], {"n": 1, "degree": 0, "images": [3]}, "image table entry must be an object"),
    ("problem_map_missing", ["extend-iso", "-"], extend_problem(None, "map", ...), 'problem has no field "map"'),
    ("problem_goal_missing", ["extend-iso", "-"], extend_problem(None, "goal", ...), 'problem has no field "goal"'),
    ("problem_map_int", ["extend-iso", "-"], extend_problem(None, "map", 3), 'problem field "map" must be an array of polynomials'),
    ("problem_map_string", ["extend-iso", "-"], extend_problem(None, "map", "xy"), 'problem field "map" must be an array of polynomials'),
]


@pytest.mark.parametrize("argv,payload,detail", [c[1:] for c in MALFORMED], ids=[c[0] for c in MALFORMED])
def test_malformed_input_names_its_field(argv, payload, detail, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(payload)))
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().out) == {"error": {"kind": "ParseError", "detail": detail}}


@pytest.mark.parametrize("n", [1, 3])
def test_extend_iso_goal_in_other_variables(n):
    problem = json.loads((GOLDEN / "inputs" / "extend_problem.json").read_text())
    problem["goal"] = {"n": n, "indices": [[0] * n]}
    proc = run_cli(["extend-iso", "-"], stdin=json.dumps(problem).encode())
    assert proc.returncode == 2, proc.stderr.decode()
    assert json.loads(proc.stdout) == {"error": {"kind": "ParseError", "detail": "variable count mismatch"}}


def test_brute_force_bound_above_ten_is_refused():
    # The oracle's cost grows about 5.5 times per two dimensions, so
    # `--max-dim` stops at 10, whatever the modules' dimension.
    proc = run_cli(["isomorphic", "inputs/jordan2.json", "inputs/jordan2_conjugate.json", "--max-dim", "11"])
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stdout == error_bytes(
        {"kind": "DimensionTooLarge", "detail": "brute-force oracle accepts max_dim up to 10, not 11"}
    )


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_a_negative_brute_force_bound_is_a_parse_error(flags):
    # `--max-dim` is read as a bound of at least 0, before any work.
    proc = run_cli(["isomorphic", "inputs/jordan2.json", "inputs/jordan2_conjugate.json", "--max-dim", "-3"], flags=flags)
    assert proc.returncode == 2, proc.stderr.decode()
    assert proc.stderr == b""
    assert proc.stdout == error_bytes(
        {"kind": "ParseError", "detail": "brute-force oracle needs a max_dim of at least 0, not -3"}
    )


# --- what each child imports ----------------------------------------------

# Calls nilmod.cli.main on its own argv and prints, as JSON, the nilmod
# modules then loaded, and which of argparse, gettext and locale are.
LOADED = """
import contextlib, io, json, sys
from nilmod import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps([
    sorted(m for m in sys.modules if m.partition(".")[0] == "nilmod"),
    [m for m in ("argparse", "gettext", "locale") if m in sys.modules],
]))
"""

FRONT = ["nilmod", "nilmod.cli", "nilmod.errors"]


def layers(*names):
    """FRONT and the named layers, as `loaded_modules` lists them."""
    return sorted(FRONT + [f"nilmod.{name}" for name in names])


MATRIX = layers("exactalg", "modcore")
POLYNOMIAL = layers("exactalg", "multipoly", "modcore", "polysub")
SERIES = layers("exactalg", "multipoly", "diffop")


def loaded_modules(argv):
    """The nilmod modules a child has loaded after `cli.main(argv)`; it
    must have loaded no argument-parsing or locale machinery."""
    proc = subprocess.run([sys.executable, "-c", LOADED, *argv], capture_output=True, cwd=GOLDEN, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    nilmod_modules, parsing_modules = json.loads(proc.stdout)
    assert parsing_modules == []
    return nilmod_modules


@pytest.mark.parametrize("argv,expected", [
    (["validate", "inputs/jordan3.json"], MATRIX),
    (["socle", "inputs/jordan3.json"], MATRIX),
    (["gen", "--n", "2"], POLYNOMIAL),
    (["embed", "inputs/jordan3.json"], sorted(POLYNOMIAL + ["nilmod.embed"])),
    (["canonical", "inputs/jordan3.json"], sorted(POLYNOMIAL + ["nilmod.embed"])),
    (["isomorphic", "inputs/jordan2.json", "inputs/jordan2_conjugate.json"], sorted(POLYNOMIAL + ["nilmod.embed"])),
    (["embed-general", "inputs/shifted.json"], sorted(POLYNOMIAL + ["nilmod.embed"])),
    (["extract-endo", "inputs/endo_table.json"], SERIES),
    (["aut", "inputs/plane_lambda.json"], SERIES),
    (["extend-iso", "inputs/extend_problem.json"], sorted(POLYNOMIAL + ["nilmod.diffop"])),
    (["validate", "inputs/malformed.json"], FRONT),
    (["socle", "inputs/no_such_file.json"], FRONT),
    (["extract-endo"], FRONT),
    (["--help"], FRONT),
], ids=["validate", "socle", "gen", "embed", "canonical", "isomorphic", "embed-general", "extract-endo",
        "aut", "extend-iso", "malformed", "missing", "usage", "help"])
def test_a_child_loads_only_the_layers_its_subcommand_runs(argv, expected):
    assert loaded_modules(argv) == expected


# --- witnesses in error JSON --------------------------------------------------

def error_bytes(error):
    return (json.dumps({"error": error}, indent=2) + "\n").encode()


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
def test_non_commuting_error_names_its_pair(flags):
    # `validate` reports the pair as a verdict; every other command that
    # reads the module fails with it, after the detail.
    proc = run_cli(["socle", "inputs/noncommuting.json"], flags=flags)
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stdout == error_bytes(
        {"kind": "NonCommuting", "detail": "matrices 1 and 2 do not commute", "witness": [1, 2]}
    )


def image_table_json(series, corrupt):
    images = monomial_images(series)
    images.update(corrupt)
    return json.dumps(
        {
            "n": series.n,
            "degree": series.trunc,
            "images": [{"exps": list(a), "poly": p.to_json()} for a, p in images.items()],
        }
    )


def test_not_an_endomorphism_error_names_derivative_and_monomial(monkeypatch, capsys):
    series = DiffOpSeries(2, 2, {(0, 0): 1, (1, 0): Fraction(1, 2), (0, 1): -3})
    bad = monomial_images(series)[(1, 1)] + Poly(2, {(1, 0): 1})
    monkeypatch.setattr(sys, "stdin", io.StringIO(image_table_json(series, {(1, 1): bad})))
    assert cli.main(["extract-endo", "-"]) == 1
    assert capsys.readouterr().out.encode() == error_bytes(
        {
            "kind": "NotAnEndomorphism",
            "detail": "map does not commute with derivative 1 at monomial (1, 1)",
            "witness": {"derivative": 1, "monomial": [1, 1]},
        }
    )
    # The table without the corruption extracts the series.
    monkeypatch.setattr(sys, "stdin", io.StringIO(image_table_json(series, {})))
    assert cli.main(["extract-endo", "-"]) == 0
    assert json.loads(capsys.readouterr().out) == series.to_json()


def test_incompatible_error_names_its_pair():
    # No subcommand reaches potential on its own input; _run serializes
    # whatever the handler raises.
    def handler(args):
        return potential([Poly(2, {(0, 1): 1}), Poly.zero(2)], 2)

    assert cli._run(argparse.Namespace(handler=handler)) == (
        1,
        {
            "error": {
                "kind": "Incompatible",
                "detail": "incompatible pair (1, 2): mixed partials differ",
                "witness": [1, 2],
            }
        },
    )


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "optimize"])
@pytest.mark.parametrize(
    "matrix,error",
    [
        (
            [["0", "-1"], ["1", "0"]],
            {
                "kind": "NonRationalEigenvalue",
                "detail": "no rational joint eigenvalue exists; the socle eigenvalues lie in a proper extension field",
                "witness": {"block": 1, "char_poly": ["1", "0", "1"]},
            },
        ),
        (
            [["1", "0"], ["0", "2"]],
            {
                "kind": "NoCommonEigenline",
                "detail": "2 distinct joint eigenvalue tuples found",
                "witness": [["1"], ["2"]],
            },
        ),
    ],
    ids=["rotation", "two-eigenlines"],
)
def test_eigenvalue_errors_name_their_witness(matrix, error, flags):
    proc = run_cli(["embed-general", "-"], stdin=json.dumps({"n": 1, "matrices": [matrix]}).encode(), flags=flags)
    assert proc.returncode == 1, proc.stderr.decode()
    assert proc.stdout == error_bytes(error)


def lower_set_json(n, degree):
    """Every exponent vector of n variables with total degree <= degree."""
    indices = [
        list(alpha)
        for alpha in itertools.product(range(degree + 1), repeat=n)
        if sum(alpha) <= degree
    ]
    return json.dumps({"n": n, "indices": indices}).encode()


def test_aut_on_a_large_lower_set_is_quick():
    # m = C(23, 3) = 1771: `aut` lists coordinates and builds no span.
    start = time.perf_counter()
    proc = run_cli(["aut", "-"], stdin=lower_set_json(3, 20))
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr.decode()
    data = json.loads(proc.stdout)
    assert data["m"] == 1771 and len(data["additive_coordinates"]) == 1770
    assert elapsed < 5.0


def test_closed_pipe_ends_without_traceback(tmp_path):
    # About 218 kB of output (m = 5456), far more than a pipe buffers: the
    # child is still writing when the reader closes after two lines.
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "nilmod.cli", "aut", "-"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=GOLDEN,
            env=child_env(),
        )
        try:
            proc.stdin.write(lower_set_json(3, 30))
            proc.stdin.close()
            assert proc.stdout.readline() == b"{\n"
            assert proc.stdout.readline() == b'  "m": 5456,\n'
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err.seek(0)
        stderr = err.read().decode()
    assert code == 1, stderr
    assert "Traceback" not in stderr, stderr
    assert "BrokenPipeError" not in stderr, stderr


def test_missing_file_is_io_error():
    proc = run_cli(["validate", "inputs/no_such_file.json"])
    assert proc.returncode == 2, proc.stderr.decode()
    assert json.loads(proc.stdout)["error"]["kind"] == "IOError"


def test_usage_error_exit_code():
    proc = run_cli([])
    assert proc.returncode == 2, proc.stderr.decode()
    proc = run_cli(["not-a-command"])
    assert proc.returncode == 2, proc.stderr.decode()


# --- the argument parser ------------------------------------------------------

def main_in_process(argv, stdin=""):
    """`cli.main` on argv in this interpreter: its code, stdout and stderr
    (bytes), with `stdin` as standard input."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue().encode(), err.getvalue().encode()


# The same, for each [argv, stdin] read as JSON from standard input, in a
# child; prints the list of [code, stdout, stderr] as JSON.
MAIN_CASES = """
import contextlib, io, json, sys
from nilmod import cli
results = []
for argv, stdin in json.loads(sys.stdin.read()):
    out, err = io.StringIO(), io.StringIO()
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def child_agrees_with_main(monkeypatch, argv, stdin=""):
    """Run argv as a `python -m nilmod.cli` child and through `cli.main` in
    process (both in GOLDEN); they must agree on code, stdout and stderr."""
    proc = run_cli(argv, stdin=stdin.encode())
    monkeypatch.chdir(GOLDEN)
    assert main_in_process(argv, stdin) == (proc.returncode, proc.stdout, proc.stderr)
    return proc


JORDAN2 = ["inputs/jordan2.json", "inputs/jordan2_conjugate.json"]

USAGE_ERRORS = {
    "no-command": [],
    "unknown-command": ["not-a-command"],
    "top-level-option": ["--max-dim", "6", "isomorphic", *JORDAN2],
    "missing-positional": ["isomorphic", JORDAN2[0]],
    "no-positional": ["validate"],
    "extra-positional": ["validate", "inputs/jordan3.json", "inputs/jordan2.json"],
    "unknown-option": ["validate", "--frobnicate", "inputs/jordan3.json"],
    "option-without-value": ["isomorphic", *JORDAN2, "--max-dim"],
    "option-before-option": ["gen", "--seed", "--n", "2"],
    "non-integer": ["gen", "--seed", "1.5"],
    "empty-value": ["gen", "--seed="],
    "past-digit-limit": ["gen", "--seed", "1" * (sys.get_int_max_str_digits() + 1)],
    "other-subcommand-option": ["validate", "inputs/jordan3.json", "--max-dim", "6"],
    "other-subcommand-option-gen": ["gen", "--max-dim", "6"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_a_usage_error_prints_usage_on_stderr_and_exits_2(argv, monkeypatch):
    proc = child_agrees_with_main(monkeypatch, argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    first, second = proc.stderr.decode().splitlines()
    assert first.startswith("usage: nilmod ")
    assert second.startswith("nilmod") and ": error: " in second


ACCEPTED = {
    "max-dim": (["isomorphic", *JORDAN2, "--max-dim", "6"], "", "isomorphic_brute_force"),
    "max-dim-equals": (["isomorphic", *JORDAN2, "--max-dim=6"], "", "isomorphic_brute_force"),
    "option-first": (["isomorphic", "--max-dim", "6", *JORDAN2], "", "isomorphic_brute_force"),
    "unique-prefix": (["isomorphic", *JORDAN2, "--max", "6"], "", "isomorphic_brute_force"),
    "prefixes-equals": (["gen", "--s=7", "--deg", "2"], "", "gen_seed7"),
    "stdin": (["validate", "-"], (GOLDEN / "inputs" / "jordan3.json").read_text(), "validate_jordan3"),
    "end-of-options": (["validate", "--", "-"], (GOLDEN / "inputs" / "jordan3.json").read_text(), "validate_jordan3"),
    "negative-value": (["gen", "--n", "2", "--degree-bound", "-1"], "", None),
}


@pytest.mark.parametrize("argv,stdin,golden", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_accepted_option_spellings(argv, stdin, golden, monkeypatch):
    proc = child_agrees_with_main(monkeypatch, argv, stdin)
    assert proc.stderr == b""
    if golden is not None:
        assert proc.returncode == 0
        assert proc.stdout == (GOLDEN / f"{golden}.json").read_bytes()
    else:
        # A negative value reaches the library, which refuses it.
        assert proc.returncode == 2
        assert proc.stdout == error_bytes({"kind": "ParseError", "detail": "degree bound must be non-negative"})


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he"]], ids=["h", "help", "prefix"])
def test_top_level_help_lists_every_subcommand(argv, monkeypatch):
    proc = child_agrees_with_main(monkeypatch, argv)
    assert proc.returncode == 0
    assert proc.stderr == b""
    listed = [line.split()[0] for line in proc.stdout.decode().partition("commands:\n")[2].split("\n\n")[0].splitlines()]
    assert listed == list(cli._COMMANDS)


@pytest.mark.parametrize("name", cli._COMMANDS)
def test_subcommand_help_names_its_arguments(name):
    _, _, positionals, options = cli._COMMANDS[name]
    for argv in ([name, "-h"], [name, *(["x"] * len(positionals)), "--help"]):
        code, out, err = main_in_process(argv)
        assert (code, err) == (0, b"")
        text = out.decode()
        assert text.startswith(f"usage: nilmod {name} [-h]")
        for word in [*positionals, *options]:
            assert f"\n  {word}" in text


@pytest.mark.parametrize("argv", [
    ["isomorphic", "--help"],
    ["gen", "--n", "2", "-h"],
    ["validate", "inputs/no_such_file.json", "-h"],
], ids=["isomorphic", "gen-after-option", "validate-after-positional"])
def test_subcommand_help_in_a_child(argv, monkeypatch):
    proc = child_agrees_with_main(monkeypatch, argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(f"usage: nilmod {argv[0]} [-h]".encode())


def test_the_parser_agrees_under_optimize(monkeypatch):
    # Every parser case above, in one `python -O` child: the parser has no
    # assert, so it gives the same codes and bytes as in process.
    cases = [[argv, ""] for argv in USAGE_ERRORS.values()]
    cases += [[argv, stdin] for argv, stdin, _ in ACCEPTED.values()]
    cases += [[["--help"], ""], [["gen", "--n", "2", "-h"], ""]]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MAIN_CASES],
        capture_output=True,
        cwd=GOLDEN,
        env=child_env(),
        input=json.dumps(cases).encode(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    monkeypatch.chdir(GOLDEN)
    expected = [list(main_in_process(argv, stdin)) for argv, stdin in cases]
    assert [[c, o.encode(), e.encode()] for c, o, e in json.loads(proc.stdout)] == expected


def test_a_prefix_of_two_options_is_a_usage_error(monkeypatch):
    summary, handler, positionals, options = cli._COMMANDS["gen"]
    monkeypatch.setitem(cli._COMMANDS, "gen", (summary, handler, positionals, {**options, "--seeds": (0, None)}))
    code, out, err = main_in_process(["gen", "--see", "1"])
    assert (code, out) == (2, b"")
    assert err.decode().splitlines()[1] == "nilmod gen: error: unrecognized arguments: --see"
    # An exact name is never ambiguous.
    assert main_in_process(["gen", "--seed", "1", "--n", "1", "--degree-bound", "1"])[0] == 0


def declared_entry_point():
    """The ``nilmod`` entry of ``[project.scripts]``, e.g. ``"nilmod.cli:main"``.

    Read from ``pyproject.toml`` with ``tomllib`` (Python >= 3.11); on
    older interpreters, from the installed distribution's metadata.
    """
    try:
        import tomllib
    except ModuleNotFoundError:
        from importlib.metadata import entry_points

        found = entry_points(group="console_scripts", name="nilmod")
        if not found:
            pytest.importorskip("tomllib")
        return next(iter(found)).value
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["nilmod"]


def test_console_script_entry_point():
    entry = declared_entry_point()
    assert entry == "nilmod.cli:main"
    module, _, func = entry.partition(":")
    # What the installed wrapper script does: import the entry point,
    # present itself as ``nilmod`` and exit with its return value.
    wrapper = (
        f"import sys; from {module} import {func}; "
        f"sys.argv[0] = 'nilmod'; sys.exit({func}())"
    )
    commands = [[sys.executable, "-c", wrapper]]
    exe = shutil.which("nilmod")
    if exe is not None:
        commands.append([exe])
    for command in commands:
        proc = subprocess.run(
            [*command, "gen", "--n", "1", "--degree-bound", "1", "--seed", "0"],
            capture_output=True,
            cwd=GOLDEN,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr.decode()
        FDModule.from_json(json.loads(proc.stdout))
