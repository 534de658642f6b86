"""The public API surface: ``nilmod.__all__`` lists each exported name
once, and every listed name resolves, so a deleted function cannot stay
exported.

The package imports its layers lazily.  `import nilmod` loads none; the
first exported name asked for loads all seven, which the benchmark's
tracer relies on when it reads each layer from ``sys.modules``.  A layer
loads only what it reads: the matrix modules, `modcore`, load no
polynomial, and the series, `diffop`, no matrix module.  Those checks
run in a fresh child, where nothing has been imported yet.
"""

import json
import subprocess
import sys

import pytest

import nilmod
from test_cli import child_env

LAYERS = ["diffop", "embed", "errors", "exactalg", "modcore", "multipoly", "polysub"]


def in_child(code):
    """What `code` (run after `import nilmod`) leaves in `result`, and
    the nilmod modules then loaded."""
    script = (
        "import json, sys\nimport nilmod\nresult = None\n" + code + "\n"
        "print(json.dumps([result, sorted(m for m in sys.modules if m.partition('.')[0] == 'nilmod')]))"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=child_env())
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout)


def test_every_exported_name_resolves():
    missing = [name for name in nilmod.__all__ if not hasattr(nilmod, name)]
    assert missing == []


def test_no_exported_name_appears_twice():
    assert len(nilmod.__all__) == len(set(nilmod.__all__))


def test_star_import_gives_exactly_the_listed_names():
    result, _ = in_child(
        "namespace = {}\nexec('from nilmod import *', namespace)\nnamespace.pop('__builtins__')\nresult = sorted(namespace)"
    )
    assert result == sorted(nilmod.__all__)


def test_importing_the_package_loads_no_layer():
    assert in_child("") == [None, ["nilmod"]]


def test_the_first_exported_name_loads_every_layer():
    result, loaded = in_child("result = nilmod.Poly.__module__")
    assert result == "nilmod.multipoly"
    assert loaded == ["nilmod"] + [f"nilmod.{layer}" for layer in LAYERS]


def test_the_matrix_layer_loads_no_polynomial():
    _, loaded = in_child("import nilmod.modcore")
    assert loaded == ["nilmod", "nilmod.errors", "nilmod.exactalg", "nilmod.modcore"]


def test_the_series_layer_loads_no_matrix_module():
    _, loaded = in_child("import nilmod.diffop")
    assert loaded == ["nilmod", "nilmod.diffop", "nilmod.errors", "nilmod.exactalg", "nilmod.multipoly"]


def test_dir_covers_every_exported_name_before_any_is_loaded():
    result, loaded = in_child("result = sorted(set(nilmod.__all__) - set(dir(nilmod)))")
    assert result == []
    assert loaded == ["nilmod"]


def test_an_unknown_name_is_the_standard_attribute_error():
    with pytest.raises(AttributeError, match="^module 'nilmod' has no attribute 'no_such_name'$"):
        nilmod.no_such_name
    assert not hasattr(nilmod, "no_such_name")
