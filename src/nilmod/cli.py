"""Command-line front end with a stable JSON wire format.

One subcommand per library entry point; every input is a JSON file (or
`-` for standard input) and every output is deterministic JSON on
standard output.  Exit codes: 0 success, 1 domain errors (and a
standard output closed before the answer was written), 2 parse or usage
errors.  An error prints {"error": {"kind", "detail"}}, plus a "witness"
where the error's `witness_json` (see `errors.py`) is set: for
NotAnEndomorphism ({"derivative", "monomial"}), TruncationTooLow
({"truncation", "degree"}), Incompatible and NonCommuting (the pair
[i, j]), NonRationalEigenvalue ({"block", "char_poly"}, the
coefficients ascending as strings) and NoCommonEigenline (the surviving
eigenvalue tuples, as "p/q" strings).  The subcommands, with their
help, handlers, positionals and integer options (each with its default
and help), are the rows of one table, `_COMMANDS`, from which `_parse`
reads a command line: `-h`/`--help` prints help and exits 0; a usage
error prints a usage line and the error on standard error and exits 2.

Each handler imports the layers it runs once its JSON input is read, so
a usage error or an unreadable or malformed file loads no algebra layer.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

from .errors import DimensionTooLarge, IncompatibleMap, NilmodError, NonCommuting, NotNilpotent


def _parse_int(literal: str) -> int:
    """A JSON integer; one past Python's digit limit, as a "p/q" literal
    in `exactalg`, is `DimensionTooLarge`."""
    try:
        return int(literal)
    except ValueError:
        raise DimensionTooLarge.past_digit_limit(reading=True) from None


def _read_json(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        data = json.loads(text, parse_int=_parse_int)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("input JSON must be an object")
    return data


def _read_module(path: str):
    data = _read_json(path)
    from .modcore import FDModule
    return FDModule.from_json(data)


def _cmd_validate(args) -> dict:
    try:
        module = _read_module(args.module)
    except NonCommuting as exc:
        return {
            "valid": False,
            "commuting": False,
            "witness": exc.witness_json,
            "detail": str(exc),
        }
    from .modcore import socle
    try:
        return {"valid": True, "nilpotent": True, "socle_dim": socle(module).dim}
    except NotNilpotent:
        return {"valid": True, "nilpotent": False}


def _cmd_socle(args) -> dict:
    module = _read_module(args.module)
    from .exactalg import format_rational
    from .modcore import socle
    space = socle(module)
    return {
        "dim": space.dim,
        "basis": [[format_rational(x) for x in row] for row in space.basis],
    }


def _cmd_embed(args) -> dict:
    module = _read_module(args.module)
    from .embed import embed_nilpotent
    return embed_nilpotent(module).to_json()


def _cmd_canonical(args) -> dict:
    module = _read_module(args.module)
    from .embed import canonical_form
    return canonical_form(module).to_json()


def _cmd_isomorphic(args) -> dict:
    first = _read_module(args.first)
    second = _read_module(args.second)
    from .embed import brute_force_isomorphic, is_isomorphic
    if args.max_dim is not None:
        verdict = brute_force_isomorphic(first, second, max_dim=args.max_dim)
    else:
        verdict = is_isomorphic(first, second)
    return {"isomorphic": verdict}


def _cmd_embed_general(args) -> dict:
    module = _read_module(args.module)
    from .embed import embed_general
    weighted, mapping = embed_general(module)
    return {**weighted.to_json(), "map": [p.to_json() for p in mapping.image_polys()]}


def _cmd_extract_endo(args) -> dict:
    data = _read_json(args.table)
    from .diffop import extract_coeffs
    from .exactalg import _fields
    from .multipoly import Poly, _exponent, _variable_count
    n, degree, table = _fields(data, "image table", "n", "degree", "images")
    n = _variable_count(n)
    if not isinstance(table, list):
        raise ValueError('image table field "images" must be an array')
    images = {}
    for item in table:
        exps, poly = _fields(item, "image table entry", "exps", "poly")
        alpha = _exponent(exps, n)
        if alpha in images:
            raise ValueError(f"duplicate monomial {alpha} in image table")
        images[alpha] = Poly.from_json(poly, n)
    return extract_coeffs(n, degree, images).to_json()


def _cmd_aut(args) -> dict:
    data = _read_json(args.submodule)
    from .diffop import MonomialSubmodule, aut_structure
    module = MonomialSubmodule.from_json(data)
    group = aut_structure(module)
    additive = [
        list(a) for a in module.monomials_descending() if any(x != 0 for x in a)
    ]
    return {
        "m": module.m,
        "unit_coordinates": group.unit_count,
        "additive_coordinates": additive,
    }


def _cmd_extend_iso(args) -> dict:
    data = _read_json(args.problem)
    from .diffop import MonomialSubmodule, extend_iso
    from .exactalg import QMatrix, _fields
    from .multipoly import Poly
    from .polysub import ModuleMap, PolySubmodule
    source, target, goal, images = _fields(data, "problem", "source", "target", "goal", "map")
    source = PolySubmodule.from_json(source)
    target = PolySubmodule.from_json(target)
    goal = MonomialSubmodule.from_json(goal)
    if not isinstance(images, list):
        raise ValueError('problem field "map" must be an array of polynomials')
    if len(images) != source.dim:
        raise IncompatibleMap("one image polynomial per source basis vector")
    columns = []
    for item in images:
        coords = target.coordinates_of(Poly.from_json(item, source.n))
        if coords is None:
            raise IncompatibleMap("an image polynomial lies outside the target")
        columns.append(coords)
    phi = ModuleMap(source, target, QMatrix.from_columns(columns, rows=target.dim))
    extended = extend_iso(source, target, phi, goal)
    return {
        "source": extended.source.to_json(),
        "target": extended.target.to_json(),
        "map": [p.to_json() for p in extended.image_polys()],
    }


def _cmd_gen(args) -> dict:
    from .polysub import random_nilpotent_module
    return random_nilpotent_module(args.n, args.degree_bound, args.seed).to_json()


# Each subcommand: its help, its handler, its positionals with their help,
# and its integer options with their default and help.
_COMMANDS = {
    "validate": ("check commutativity, nilpotency, socle", _cmd_validate, {"module": "module JSON path, or - for stdin"}, {}),
    "socle": ("basis of the socle of a nilpotent module", _cmd_socle, {"module": None}, {}),
    "embed": ("embed into the derivative module", _cmd_embed, {"module": None}, {}),
    "canonical": ("canonical polynomial submodule", _cmd_canonical, {"module": None}, {}),
    "isomorphic": ("decide isomorphism of two modules", _cmd_isomorphic, {"first": None, "second": None}, {
        "--max-dim": (None, "use the brute-force intertwiner oracle with this dimension bound (at most 10)"),
    }),
    "embed-general": ("embed a module with rational socle eigenvalues", _cmd_embed_general, {"module": None}, {}),
    "extract-endo": ("recover an operator series from monomial images", _cmd_extract_endo, {"table": None}, {}),
    "aut": ("automorphism group of a monomial submodule", _cmd_aut, {"submodule": None}, {}),
    "extend-iso": ("extend an isomorphism to cover a monomial submodule", _cmd_extend_iso, {"problem": None}, {}),
    "gen": ("seeded random nilpotent module", _cmd_gen, {}, {
        "--n": (2, "variable count"),
        "--degree-bound": (3, "total degree bound of the random polynomial"),
        "--seed": (0, "random seed"),
    }),
}


class _Stop(Exception):
    """Parsing ends without a command to run: help (code 0, on stdout) or
    a usage error (code 2, on stderr)."""

    def __init__(self, code: int, text: str):
        self.code = code
        self.text = text


def _dest(option: str) -> str:
    return option[2:].replace("-", "_")


def _metavar(option: str) -> str:
    return _dest(option).upper()


def _usage(name: str | None) -> str:
    if name is None:
        return f"usage: nilmod [-h] {{{','.join(_COMMANDS)}}} ..."
    _, _, positionals, options = _COMMANDS[name]
    words = ["[-h]", *(f"[{o} {_metavar(o)}]" for o in options), *positionals]
    return f"usage: nilmod {name} {' '.join(words)}"


def _table(title: str, rows) -> str:
    width = max(len(left) for left, _ in rows)
    lines = [f"  {left:<{width}}  {right or ''}".rstrip() for left, right in rows]
    return "\n".join([f"{title}:", *lines])


def _help(name: str | None) -> str:
    if name is None:
        summary, options = "Exact computations with modules over polynomial rings.", {}
        sections = [_table("commands", [(c, row[0]) for c, row in _COMMANDS.items()])]
    else:
        summary, _, positionals, options = _COMMANDS[name]
        sections = [_table("positional arguments", positionals.items())] if positionals else []
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(f"{o} {_metavar(o)}", text) for o, (_, text) in options.items()]
    return "\n\n".join([_usage(name), summary, *sections, _table("options", rows)])


def _error(name: str | None, message: str) -> _Stop:
    prog = "nilmod" if name is None else f"nilmod {name}"
    return _Stop(2, f"{_usage(name)}\n{prog}: error: {message}")


def _is_option(token: str) -> bool:
    """Whether a token names an option: a dash and more, but not a
    negative integer, which is a value."""
    return token.startswith("-") and token != "-" and not token[1:].isdecimal()


def _option(name: str | None, token: str, options) -> str:
    """The option a token names: exactly, or as the unique prefix of a
    long option; "--help" for help."""
    if token == "-h":
        return "--help"
    names = ["--help", *options]
    if token in names:
        return token
    long = token.startswith("--") and len(token) > 2
    found = [o for o in names if o.startswith(token)] if long else []
    if len(found) != 1:
        raise _error(name, f"unrecognized arguments: {token}")
    return found[0]


def _parse(argv: list[str]) -> SimpleNamespace:
    """The handler and arguments that one command line names, from `_COMMANDS`.

    Raises `_Stop` for help and for a usage error.
    """
    if not argv:
        raise _error(None, "the following arguments are required: command")
    name, rest = argv[0], iter(argv[1:])
    if _is_option(name):
        _option(None, name, {})  # the one top-level option is help
        raise _Stop(0, _help(None))
    if name not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise _error(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
    _, handler, positionals, options = _COMMANDS[name]
    values = {_dest(o): default for o, (default, _) in options.items()}
    words = []
    for token in rest:
        if token == "--":
            words.extend(rest)
            break
        if not _is_option(token):
            words.append(token)
            continue
        option, eq, value = token.partition("=")
        option = _option(name, option, options)
        if option == "--help":
            raise _Stop(0, _help(name))
        if not eq:
            value = next(rest, None)
            if value is None or _is_option(value):
                raise _error(name, f"argument {option}: expected one argument")
        try:
            values[_dest(option)] = int(value)
        except ValueError:
            raise _error(name, f"argument {option}: invalid int value: {value!r}") from None
    if len(words) < len(positionals):
        missing = ", ".join(list(positionals)[len(words):])
        raise _error(name, f"the following arguments are required: {missing}")
    if len(words) > len(positionals):
        raise _error(name, f"unrecognized arguments: {' '.join(words[len(positionals):])}")
    return SimpleNamespace(handler=handler, **dict(zip(positionals, words)), **values)


def _run(args) -> tuple[int, dict]:
    """The exit code and the JSON payload of one subcommand."""
    try:
        return 0, args.handler(args)
    except NilmodError as exc:
        error = {"kind": type(exc).__name__, "detail": str(exc)}
        if exc.witness_json is not None:
            error["witness"] = exc.witness_json
        return 1, {"error": error}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return 2, {"error": {"kind": "ParseError", "detail": str(exc)}}
    except OSError as exc:
        return 2, {"error": {"kind": "IOError", "detail": str(exc)}}


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Stop as stop:
        print(stop.text, file=sys.stderr if stop.code else sys.stdout)
        return stop.code
    code, payload = _run(args)
    try:
        print(json.dumps(payload, indent=2))
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (`nilmod aut big.json | head`).  As the
        # Python `signal` documentation advises, point stdout at devnull so
        # the flush at interpreter exit cannot fail again, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
