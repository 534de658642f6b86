"""Golden-file and behavior tests for the command-line interface.

Each case is run as a real subprocess; stdout must match the stored
golden byte-for-byte, twice in a row, with the advertised exit code.
Children find the package through an absolute ``src`` entry on their
``PYTHONPATH``, so the tests run from a clean checkout without an install.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from nilmod.diffop import DiffOpSeries
from nilmod.modcore import FDModule, PolySubmodule

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


def run_cli(argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "nilmod.cli", *argv],
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


def test_outputs_reparse_under_library_schemas():
    gen = json.loads((GOLDEN / "gen_seed7.json").read_text())
    FDModule.from_json(gen)
    canon = json.loads((GOLDEN / "canonical_jordan3.json").read_text())
    PolySubmodule.from_json(canon)
    series = json.loads((GOLDEN / "extract_endo_table.json").read_text())
    DiffOpSeries.from_json(series)
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


@pytest.mark.parametrize(
    "argv,payload",
    [
        # Booleans are ints to Python; as exponents or as the variable count
        # they are malformed input.
        (["aut", "-"], {"n": 1, "indices": [[True], [False]]}),
        (["validate", "-"], {"n": True, "dim": 1, "matrices": [[["0"]]]}),
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
    ids=["aut_bool_exponents", "validate_bool_n", "extract_endo_bool_degree"],
)
def test_booleans_are_not_integers(argv, payload):
    proc = run_cli(argv, stdin=json.dumps(payload).encode())
    assert proc.returncode == 2, proc.stderr.decode()
    assert json.loads(proc.stdout)["error"]["kind"] == "ParseError"


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
