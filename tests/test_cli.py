"""Golden-file and behavior tests for the command-line interface.

Each case is run as a real subprocess; stdout must match the stored
golden byte-for-byte, twice in a row, with the advertised exit code.
Children find the package through an absolute ``src`` entry on their
``PYTHONPATH``, so the tests run from a clean checkout without an install.
"""

import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nilmod import cli, modcore
from nilmod.diffop import DiffOpSeries
from nilmod.modcore import FDModule, PolySubmodule
from nilmod.multipoly import Poly

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


def run_cli(argv, stdin=None, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "nilmod.cli", *argv],
        capture_output=True,
        cwd=GOLDEN,
        env=child_env(),
        input=stdin,
    )


@pytest.mark.parametrize("name,argv,code", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv, code):
    expected = (GOLDEN / f"{name}.json").read_bytes()
    first = run_cli(argv)
    second = run_cli(argv)
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


def test_validate_checks_nilpotency_once(monkeypatch, capsys):
    calls = []
    real = modcore.is_nilpotent

    def counting(module):
        calls.append(module)
        return real(module)

    monkeypatch.setattr(cli, "is_nilpotent", counting)
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


@pytest.mark.parametrize("n", [0, -1])
def test_aut_refuses_fewer_than_one_variable(n, monkeypatch, capsys):
    # As Poly does: n = 0 with the empty exponent vector is no module.
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"n": n, "indices": [[]]})))
    assert cli.main(["aut", "-"]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "error": {"kind": "ParseError", "detail": "variable count must be at least 1"}
    }


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
