"""A fuzz of the command line: every subcommand, in process, on generated
JSON fed through standard input.

The inputs are small (n <= 3, dim <= 4) and mix good and bad literals:
commuting modules built as polynomials in one nilpotent matrix, shifted
or not, with an entry sometimes replaced; image tables of a series,
sometimes corrupted; lower sets and arbitrary exponent lists; extension
problems whose map is a multiple of the identity or arbitrary; and JSON
that is not the object a command reads.  Every run must return 0, 1 or
2, print exactly one JSON object on standard output, an error object
exactly when it fails, write nothing to standard error, and raise
nothing.  Examples are derandomized and their number is fixed, so the
suite is deterministic.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nilmod import cli  # noqa: E402
from nilmod.diffop import DiffOpSeries, monomial_images  # noqa: E402
from nilmod.multipoly import Poly, lower_set_closure  # noqa: E402
from nilmod.polysub import submodule_from_polys  # noqa: E402

SETTINGS = settings(max_examples=25, derandomize=True, deadline=None, database=None)

GOOD = ["0", "1", "-1", "2", "1/2", "-3/4", "0/5"]
BAD = [1, 0.5, None, True, [], "1/0", "1/-2", "x", "1.5", " 1", "٣"]
literal = st.sampled_from(GOOD * 6 + BAD)


def mostly(good, *bad):
    """good, drawn eight times as often as each bad value."""
    return st.sampled_from([good] * 8 + list(bad))


class _Feed:
    """Standard input that hands out one text per read, as separate files would."""

    def __init__(self, texts):
        self.texts = list(texts)

    def read(self):
        return self.texts.pop(0) if self.texts else ""


def run(argv, texts):
    """Run the command on the texts as its inputs; check the contract and
    return the exit code and the payload."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", _Feed(texts)), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    payload = json.loads(out.getvalue())
    assert isinstance(payload, dict)
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"
    if code:
        assert list(payload) == ["error"]
        assert {"kind", "detail"} <= set(payload["error"]) <= {"kind", "detail", "witness"}
        assert (payload["error"]["kind"] in ("ParseError", "IOError")) == (code == 2)
    else:
        assert "error" not in payload
    return code, payload


def _mutate(draw, rows):
    """rows, with one entry replaced by a drawn literal now and then."""
    if rows and rows[0] and draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1))
        rows[i][j] = draw(literal)
    return rows


@st.composite
def module(draw):
    """Module JSON: M_i = a_i N + b_i N^2 + c_i I for one strictly upper
    triangular N, so the matrices commute, or arbitrary literals."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    if draw(st.integers(0, 3)):
        top = [[Fraction(draw(st.integers(-2, 2))) if j > i else Fraction(0) for j in range(d)] for i in range(d)]
        square = [[sum(top[i][k] * top[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
        matrices = []
        for _ in range(n):
            a, b = draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
            c = draw(st.sampled_from([Fraction(0)] * 3 + [Fraction(1), Fraction(-1, 2)]))
            rows = [[str(a * top[i][j] + b * square[i][j] + c * (i == j)) for j in range(d)] for i in range(d)]
            matrices.append(_mutate(draw, rows))
    else:
        matrices = [
            draw(st.lists(st.lists(literal, min_size=d, max_size=d), min_size=d, max_size=d)) for _ in range(n)
        ]
        if matrices and draw(st.booleans()):
            matrices[0] = draw(st.sampled_from([None, "x", [[]], [["0"], ["0", "0"]]]))
    data = {"n": draw(mostly(n, n + 1, 0, True, "2", None)), "matrices": matrices}
    if draw(st.booleans()):
        data["dim"] = draw(mostly(d, d + 1, "x"))
    return json.dumps(data)


# Not the JSON object a command reads.
junk = st.sampled_from(["[]", "3", '"x"', "null", "{}", "", "{", "[1, 2", "nul"])
inputs = st.one_of(module(), module(), module(), junk)


@st.composite
def exponent(draw, n, top=2):
    return [draw(st.integers(0, top)) for _ in range(n)]


@st.composite
def poly(draw, n):
    """Polynomial JSON: terms with drawn exponents and literals, now and
    then a term with a bad exponent."""
    terms = [{"exps": draw(exponent(n)), "coef": draw(literal)} for _ in range(draw(st.integers(0, 3)))]
    if draw(st.integers(0, 4)) == 0:
        terms.append({"exps": draw(st.sampled_from([5, None, [True], [-1] * n, [0] * (n + 1)])), "coef": "1"})
    return terms


@st.composite
def table(draw):
    """An `extract-endo` table: the image table of a series, now and then
    with one image replaced, or arbitrary images."""
    n, degree = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    if draw(st.integers(0, 2)):
        coeffs = {tuple(draw(exponent(n, degree))): Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
                  for _ in range(draw(st.integers(0, 3)))}
        coeffs = {a: c for a, c in coeffs.items() if sum(a) <= degree}
        images = [{"exps": list(a), "poly": p.to_json()} for a, p in monomial_images(DiffOpSeries(n, degree, coeffs)).items()]
        if draw(st.booleans()):
            images[draw(st.integers(0, len(images) - 1))]["poly"] = draw(poly(n))
    else:
        images = [{"exps": draw(exponent(n)), "poly": draw(poly(n))} for _ in range(draw(st.integers(0, 4)))]
    return json.dumps({"n": draw(mostly(n, 0, "1")), "degree": draw(mostly(degree, -1, True)), "images": images})


@st.composite
def lower_set(draw, n, top=2):
    indices = [tuple(draw(exponent(n, top))) for _ in range(draw(st.integers(0, 3)))]
    return [list(a) for a in sorted(lower_set_closure(indices + [(0,) * n]))]


@st.composite
def submodule(draw):
    """A monomial submodule: a lower set, or arbitrary exponents."""
    n = draw(st.integers(1, 3))
    if draw(st.integers(0, 2)):
        indices = draw(lower_set(n))
    else:
        indices = [draw(st.one_of(exponent(n), st.sampled_from([5, None, [True] * n, [0] * (n + 1)])))
                   for _ in range(draw(st.integers(0, 3)))]
    return json.dumps({"n": draw(mostly(n, 0, -1, True, "2", None)), "indices": indices})


@st.composite
def problem(draw):
    """An `extend-iso` problem: the identity of a generated submodule times
    a unit, or arbitrary images."""
    n = draw(st.integers(1, 2))
    gens = [Poly(n, {tuple(draw(exponent(n))): draw(st.integers(-2, 2))}) for _ in range(draw(st.integers(0, 2)))]
    source = submodule_from_polys(n, gens)
    if draw(st.integers(0, 2)):
        unit = draw(st.sampled_from([1, 2, Fraction(-1, 3)]))
        images = [p.scale(unit).to_json() for p in source.basis]
    else:
        images = [draw(poly(n)) for _ in range(draw(st.integers(0, source.dim + 1)))]
    data = {"source": source.to_json(), "target": source.to_json(), "goal": {"n": n, "indices": draw(lower_set(n, 3))},
            "map": images}
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.sampled_from(sorted(data)))
        data[field] = draw(st.sampled_from([None, 3, [], {}, {"n": n}]))
    return json.dumps(data)


MODULE_COMMANDS = ["validate", "socle", "embed", "canonical", "embed-general"]


@pytest.mark.parametrize("command", MODULE_COMMANDS)
@SETTINGS
@given(text=inputs)
def test_a_module_command_answers_every_input(command, text):
    run([command, "-"], [text])


@SETTINGS
@given(first=inputs, second=inputs, max_dim=st.sampled_from([None, None, 0, 4, -1, 11]))
def test_isomorphic_answers_every_pair(first, second, max_dim):
    argv = ["isomorphic", "-", "-"] + ([] if max_dim is None else ["--max-dim", str(max_dim)])
    run(argv, [first, second])


@SETTINGS
@given(text=st.one_of(table(), table(), table(), junk))
def test_extract_endo_answers_every_table(text):
    run(["extract-endo", "-"], [text])


@SETTINGS
@given(text=st.one_of(submodule(), submodule(), submodule(), junk))
def test_aut_answers_every_submodule(text):
    run(["aut", "-"], [text])


@SETTINGS
@given(text=st.one_of(problem(), problem(), problem(), junk))
def test_extend_iso_answers_every_problem(text):
    run(["extend-iso", "-"], [text])


@SETTINGS
@given(n=st.integers(-1, 3), degree=st.integers(-1, 5), seed=st.integers(0, 3))
def test_gen_answers_every_option(n, degree, seed):
    code, payload = run(["gen", "--n", str(n), "--degree-bound", str(degree), "--seed", str(seed)], [])
    assert code == (0 if n >= 1 and degree >= 0 else 2)
