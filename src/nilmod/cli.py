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
eigenvalue tuples, as "p/q" strings).  The subcommands are the rows of
one table, `_COMMANDS`.

Each handler imports the layers it runs once its JSON input is read, so
a usage error or an unreadable or malformed file loads no algebra layer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import DimensionTooLarge, IncompatibleMap, NilmodError, NonCommuting


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
    from .modcore import _joint_kernel, is_nilpotent
    out = {"valid": True, "nilpotent": is_nilpotent(module)}
    if out["nilpotent"]:
        out["socle_dim"] = _joint_kernel(module).dim
    return out


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
    from .multipoly import Poly, _exponent, _fields, _variable_count
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
    from .exactalg import QMatrix
    from .modcore import ModuleMap, PolySubmodule
    from .multipoly import Poly, _fields
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
    from .modcore import random_nilpotent_module
    return random_nilpotent_module(args.n, args.degree_bound, args.seed).to_json()


# Each subcommand: its help, its handler and its positionals with their help.
_COMMANDS = {
    "validate": ("check commutativity, nilpotency, socle", _cmd_validate, {"module": "module JSON path, or - for stdin"}),
    "socle": ("basis of the socle of a nilpotent module", _cmd_socle, {"module": None}),
    "embed": ("embed into the derivative module", _cmd_embed, {"module": None}),
    "canonical": ("canonical polynomial submodule", _cmd_canonical, {"module": None}),
    "isomorphic": ("decide isomorphism of two modules", _cmd_isomorphic, {"first": None, "second": None}),
    "embed-general": ("embed a module with rational socle eigenvalues", _cmd_embed_general, {"module": None}),
    "extract-endo": ("recover an operator series from monomial images", _cmd_extract_endo, {"table": None}),
    "aut": ("automorphism group of a monomial submodule", _cmd_aut, {"submodule": None}),
    "extend-iso": ("extend an isomorphism to cover a monomial submodule", _cmd_extend_iso, {"problem": None}),
    "gen": ("seeded random nilpotent module", _cmd_gen, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmod",
        description="Exact computations with modules over polynomial rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, handler, positionals) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for arg, arg_help in positionals.items():
            p.add_argument(arg, help=arg_help)
        p.set_defaults(handler=handler)
    sub.choices["isomorphic"].add_argument(
        "--max-dim",
        type=int,
        default=None,
        help="use the brute-force intertwiner oracle with this dimension bound (at most 10)",
    )
    gen = sub.choices["gen"]
    gen.add_argument("--n", type=int, default=2, help="variable count")
    gen.add_argument("--degree-bound", type=int, default=3)
    gen.add_argument("--seed", type=int, default=0)
    return parser


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
    args = build_parser().parse_args(argv)
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
