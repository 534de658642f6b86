"""Command-line front end with a stable JSON wire format.

One subcommand per library entry point; every input is a JSON file (or
`-` for standard input) and every output is deterministic JSON on
standard output.  Exit codes: 0 success, 1 domain errors (and a
standard output closed before the answer was written), 2 parse or usage
errors.  An error prints {"error": {"kind", "detail"}}, plus the
structured "witness" for NotAnEndomorphism ({"derivative", "monomial"}),
Incompatible and NonCommuting (the pair [i, j]).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .diffop import (
    MonomialSubmodule,
    aut_structure,
    extend_iso,
    extract_coeffs,
)
from .embed import brute_force_isomorphic, canonical_form, embed_general, embed_nilpotent, is_isomorphic
from .errors import Incompatible, IncompatibleMap, NilmodError, NonCommuting, NotAnEndomorphism
from .exactalg import QMatrix, format_rational
from .modcore import (
    FDModule,
    ModuleMap,
    PolySubmodule,
    _joint_kernel,
    is_nilpotent,
    random_nilpotent_module,
    socle,
)
from .multipoly import Poly, _exponent, _fields, _variable_count


def _read_json(path: str):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("input JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("input JSON must be an object")
    return data


def _cmd_validate(args) -> dict:
    try:
        module = FDModule.from_json(_read_json(args.module))
    except NonCommuting as exc:
        return {
            "valid": False,
            "commuting": False,
            "witness": [exc.i, exc.j],
            "detail": str(exc),
        }
    out = {"valid": True, "nilpotent": is_nilpotent(module)}
    if out["nilpotent"]:
        out["socle_dim"] = _joint_kernel(module).dim
    return out


def _cmd_socle(args) -> dict:
    module = FDModule.from_json(_read_json(args.module))
    space = socle(module)
    return {
        "dim": space.dim,
        "basis": [[format_rational(x) for x in row] for row in space.basis],
    }


def _cmd_embed(args) -> dict:
    module = FDModule.from_json(_read_json(args.module))
    return embed_nilpotent(module).to_json()


def _cmd_canonical(args) -> dict:
    module = FDModule.from_json(_read_json(args.module))
    return canonical_form(module).to_json()


def _cmd_isomorphic(args) -> dict:
    first = FDModule.from_json(_read_json(args.first))
    second = FDModule.from_json(_read_json(args.second))
    if args.max_dim is not None:
        verdict = brute_force_isomorphic(first, second, max_dim=args.max_dim)
    else:
        verdict = is_isomorphic(first, second)
    return {"isomorphic": verdict}


def _cmd_embed_general(args) -> dict:
    module = FDModule.from_json(_read_json(args.module))
    weighted, mapping = embed_general(module)
    return {**weighted.to_json(), "map": [mapping.image_poly(j).to_json() for j in range(module.dim)]}


def _cmd_extract_endo(args) -> dict:
    n, degree, table = _fields(_read_json(args.table), "image table", "n", "degree", "images")
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
    module = MonomialSubmodule.from_json(_read_json(args.submodule))
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
    source, target, goal, images = _fields(_read_json(args.problem), "problem", "source", "target", "goal", "map")
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
        "map": [
            extended.image_poly(j).to_json() for j in range(extended.source.dim)
        ],
    }


def _cmd_gen(args) -> dict:
    return random_nilpotent_module(args.n, args.degree_bound, args.seed).to_json()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmod",
        description="Exact computations with modules over polynomial rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check commutativity, nilpotency, socle")
    p.add_argument("module", help="module JSON path, or - for stdin")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("socle", help="basis of the socle of a nilpotent module")
    p.add_argument("module")
    p.set_defaults(handler=_cmd_socle)

    p = sub.add_parser("embed", help="embed into the derivative module")
    p.add_argument("module")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("canonical", help="canonical polynomial submodule")
    p.add_argument("module")
    p.set_defaults(handler=_cmd_canonical)

    p = sub.add_parser("isomorphic", help="decide isomorphism of two modules")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument(
        "--max-dim",
        type=int,
        default=None,
        help="use the brute-force intertwiner oracle with this dimension bound (at most 10)",
    )
    p.set_defaults(handler=_cmd_isomorphic)

    p = sub.add_parser(
        "embed-general", help="embed a module with rational socle eigenvalues"
    )
    p.add_argument("module")
    p.set_defaults(handler=_cmd_embed_general)

    p = sub.add_parser(
        "extract-endo", help="recover an operator series from monomial images"
    )
    p.add_argument("table")
    p.set_defaults(handler=_cmd_extract_endo)

    p = sub.add_parser("aut", help="automorphism group of a monomial submodule")
    p.add_argument("submodule")
    p.set_defaults(handler=_cmd_aut)

    p = sub.add_parser(
        "extend-iso", help="extend an isomorphism to cover a monomial submodule"
    )
    p.add_argument("problem")
    p.set_defaults(handler=_cmd_extend_iso)

    p = sub.add_parser("gen", help="seeded random nilpotent module")
    p.add_argument("--n", type=int, default=2, help="variable count")
    p.add_argument("--degree-bound", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_gen)

    return parser


def _witness(exc: NilmodError):
    """The structured witness an error carries, or None."""
    if isinstance(exc, NotAnEndomorphism):
        return {"derivative": exc.i, "monomial": list(exc.witness)}
    if isinstance(exc, (Incompatible, NonCommuting)):
        return [exc.i, exc.j]
    return None


def _run(args) -> tuple[int, dict]:
    """The exit code and the JSON payload of one subcommand."""
    try:
        return 0, args.handler(args)
    except NilmodError as exc:
        error = {"kind": type(exc).__name__, "detail": str(exc)}
        witness = _witness(exc)
        if witness is not None:
            error["witness"] = witness
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
