"""The four seeded workloads: inputs, one round of operations, and checks.

`build(name, nm, seed, smoke, work_dir)` returns the ops of one round.  Every op carries its own deadline and a check that
runs apart from the timed call; checks use `oracle` for their arithmetic
and never compare against a stored copy of earlier output.  `nm` is the
imported nilmod package; the program itself only ever sees the generated
inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import oracle

NONZERO = (-3, -2, -1, 1, 2, 3)
# Deadlines are in reference seconds (run.py), except that a CLI child is
# also killed after CLI_DEADLINE_S of wall time.
OP_DEADLINE_S = 60.0
CLI_DEADLINE_S = 30.0
# The two named faults.  Their inputs do not depend on --seed.
CANON_FAULT_DEADLINE_S = 5.0   # n = 2, dim 25 dense conjugate: ~343 s today
EMBED_FAULT_DEADLINE_S = 1.0   # [[10000000000000061]]: ~14.5 s of trial division
SMOKE_FAULT_DEADLINE_S = 0.2
CANON_FAULT_SEED = 25
EMBED_FAULT_ENTRY = 10000000000000061


class Deadline(Exception):
    """Raised into an op whose deadline passed."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    deadline: float = OP_DEADLINE_S
    group: str = ""
    argv: tuple = ()  # CLI ops: the command line after `nilmod`


def build(name: str, nm, seed: int, smoke: bool, work_dir: Path) -> list:
    rng = random.Random(f"{name}:{seed}")
    if name == "canon-dense":
        return canon_dense(nm, rng, smoke)
    if name == "embed-general":
        return embed_general(nm, rng, smoke)
    if name == "series-aut":
        return series_aut(nm, rng, smoke)
    if name == "cli-batch":
        return cli_batch(nm, rng, smoke, work_dir)
    raise ValueError(f"unknown workload {name}")


# --- shared input generation ---------------------------------------------

def generic_dim(n: int, k: int) -> int:
    """Dimension of the derivative closure of a generic degree-k form:
    sum_j min(#monomials of degree j, #monomials of degree k - j)."""
    return sum(min(comb(j + n - 1, n - 1), comb(k - j + n - 1, n - 1)) for j in range(k + 1))


def plant(nm, n: int, k: int, rng):
    """Derivative closure of a random degree-k polynomial (all top-degree
    monomials present) whose dimension is the generic one."""
    target = generic_dim(n, k)
    for _ in range(50):
        terms = {a: rng.choice(NONZERO) for a in nm.monomials_of_degree(n, k)}
        for a in nm.monomials_up_to_degree(n, k - 1):
            if rng.random() < 0.5:
                terms[a] = rng.randint(-3, 3)
        planted = nm.submodule_from_polys(n, [nm.Poly(n, terms)])
        if planted.dim == target:
            return planted
    raise RuntimeError(f"no generic planted module for n={n}, k={k}")


def matrices_of(nm, planted):
    """The planted submodule's derivative action as an FDModule."""
    return nm.as_matrices(planted)[0]


def dense_conjugate(nm, module, rng, shift=None):
    """G (S_i + shift_i I) G^-1 for a random invertible G with entries in
    {-1, 0, 1}; the result has dense rational entries."""
    g, g_inv = oracle.random_invertible(module.dim, rng, spread=1)
    mats = []
    for i, m in enumerate(module.matrices):
        base = oracle.mat_shift(m, shift[i]) if shift else m
        mats.append(nm.QMatrix(oracle.conjugate(base, g, g_inv)))
    return nm.FDModule(module.n, mats)


def closure(nm, n: int, terms: dict):
    return nm.submodule_from_polys(n, [nm.Poly(n, terms)])


# --- canon-dense ------------------------------------------------------------

# (class, n, k): planted degree-k closures of dimension about 10, 20, 30.
CANON_CASES = [
    ("d10", 1, 9), ("d10", 2, 4), ("d10", 3, 3),
    ("d20", 1, 19), ("d20", 2, 7), ("d20", 3, 5),
    ("d30", 1, 29),
]
CANON_SMOKE = [("d10", 1, 3), ("d10", 2, 2)]
# The d10 and is_isomorphic ops run this many times a round, so the
# round's median latency sits inside a cluster of like ops.
CANON_LIGHT_REPEATS = 3


def canon_dense(nm, rng, smoke: bool) -> list:
    light, heavy = [], []
    for cls, n, k in CANON_SMOKE if smoke else CANON_CASES:
        planted = plant(nm, n, k, rng)
        plain = matrices_of(nm, planted)
        forms = [("plain", plain)]
        if cls != "d30":  # the dense d30 conjugates are left out (run time)
            forms.append(("dense", dense_conjugate(nm, plain, rng)))
        for form, module in forms:
            (light if cls == "d10" else heavy).append(Op(
                f"canonical_form n={n} dim={planted.dim} {form}",
                lambda m=module: nm.canonical_form(m),
                lambda out, p=planted: out == p,
                group=cls,
            ))

    # is_isomorphic: planted-true pairs and invariant-confirmed false pairs.
    small_a = closure(nm, 2, {(2, 0): 1, (0, 2): 1})       # dim 4
    small_b = closure(nm, 2, {(3, 0): 1})                  # dim 4, x2 acts as 0
    pairs = [(small_a, small_a, True), (small_a, small_b, False)]
    if not smoke:
        big_a = plant(nm, 2, 4, rng)                       # dim 9
        big_b = closure(nm, 2, {(2, 2): 1})                # dim 9, monomial
        pairs += [(big_a, big_a, True), (big_a, big_b, False)]
    for p, q, truth in pairs:
        first = dense_conjugate(nm, matrices_of(nm, p), rng)
        second = dense_conjugate(nm, matrices_of(nm, q), rng)
        light.append(Op(
            f"is_isomorphic dim={p.dim} {'conjugates' if truth else 'distinct'}",
            lambda a=first, b=second: nm.is_isomorphic(a, b),
            lambda out, a=first, b=second, t=truth: _check_iso_verdict(nm, out, a, b, t),
        ))

    fault_rng = random.Random(CANON_FAULT_SEED)
    if smoke:
        fault_planted, deadline = plant(nm, 2, 6, fault_rng), SMOKE_FAULT_DEADLINE_S
    else:
        fault_planted, deadline = plant(nm, 2, 8, fault_rng), CANON_FAULT_DEADLINE_S
    fault = dense_conjugate(nm, matrices_of(nm, fault_planted), fault_rng)
    return light * (1 if smoke else CANON_LIGHT_REPEATS) + heavy + [Op(
        f"canonical_form n=2 dim={fault_planted.dim} dense (named fault)",
        lambda: nm.canonical_form(fault),
        lambda out: out == fault_planted,
        deadline=deadline,
        group="fault",
    )]


def _check_iso_verdict(nm, verdict, first, second, truth) -> bool:
    if verdict is not truth:
        return False
    if not truth:
        # A False verdict needs a conjugation invariant that differs.
        if oracle.word_ranks(first.matrices) == oracle.word_ranks(second.matrices):
            return False
    if first.dim <= 5:
        return nm.brute_force_isomorphic(first, second) is truth
    return True


# --- embed-general ------------------------------------------------------------

# (n, k, eigenvalue size): dimensions 8 to 12.  "moderate" puts numerator
# 11 on x_1, whose characteristic polynomial over the whole space drives
# the root search.
EMBED_CASES = [
    (1, 9, "small"), (2, 4, "small"), (3, 3, "small"), (2, 5, "small"),
    (1, 7, "moderate"), (2, 4, "moderate"), (3, 3, "moderate"),
    (1, 11, "moderate"), (2, 5, "moderate"),
]
EMBED_SMOKE = [(1, 2, "small"), (2, 2, "moderate")]
MODERATE_NUMERATORS = (11, 7, 5)


def planted_alpha(n: int, size: str, rng) -> tuple:
    out = []
    for i in range(n):
        if size == "small":
            out.append(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
        else:
            q = rng.choice([q for q in (2, 3, 4, 5) if q % MODERATE_NUMERATORS[i]])
            out.append(Fraction(rng.choice((-1, 1)) * MODERATE_NUMERATORS[i], q))
    return tuple(out)


def embed_general(nm, rng, smoke: bool) -> list:
    ops = []
    for n, k, size in EMBED_SMOKE if smoke else EMBED_CASES:
        planted = plant(nm, n, k, rng)
        plain = matrices_of(nm, planted)
        alpha = planted_alpha(n, size, rng)
        module = dense_conjugate(nm, plain, rng, shift=alpha)
        ops.append(Op(
            f"embed_general n={n} dim={planted.dim} {size}",
            lambda m=module: nm.embed_general(m),
            lambda out, m=module, p=planted, s=plain, a=alpha: _check_embed_general(out, m, p, s, a),
            group=size,
        ))
    fault = nm.FDModule(1, [nm.QMatrix([[EMBED_FAULT_ENTRY]])])
    ops.append(Op(
        f"embed_general [[{EMBED_FAULT_ENTRY}]] (named fault)",
        lambda: nm.embed_general(fault),
        lambda out: tuple(out[0].eigenvalues) == (Fraction(EMBED_FAULT_ENTRY),),
        deadline=SMOKE_FAULT_DEADLINE_S if smoke else EMBED_FAULT_DEADLINE_S,
        group="fault",
    ))
    return ops


def _check_embed_general(out, module, planted, plain, alpha) -> bool:
    weighted, mapping = out
    if tuple(weighted.eigenvalues) != alpha or weighted.part != planted:
        return False
    # x_i acts on the image as alpha_i + d/dx_i; the planted basis is the
    # canonical one, so its derivative matrices are `plain`'s.
    target = [oracle.mat_shift(s, a) for s, a in zip(plain.matrices, alpha)]
    images = mapping.images
    return (
        oracle.rank(images) == module.dim
        and oracle.intertwines(images, module.matrices, target)
    )


# --- series-aut ---------------------------------------------------------------

# (n, T, extra, aut): every monomial of degree <= T plus `extra` random
# ones of degree T + 1, so m = C(n + T, n) + extra: 20, 30, 50 and 100.
# `aut` adds the AutGroup ops; they are left out at m = 100, where
# matrix_of and descriptor_of take about 2 s each and the benchmark's own
# reference matrix 4 s of set-up.
SERIES_SETS = [(2, 4, 5, True), (3, 3, 10, True), (2, 8, 5, True), (3, 6, 16, False)]
SERIES_SMOKE = [(2, 1, 1, True)]
EXTEND_GOAL = (2, 3, 4)        # m = 14, reached from the image of degree <= 1
EXTEND_SMOKE = (2, 1, 1)


def lower_set(nm, n: int, degree: int, extra: int, rng) -> object:
    base = list(nm.monomials_up_to_degree(n, degree))
    corners = sorted(nm.monomials_of_degree(n, degree + 1))
    return nm.MonomialSubmodule(n, base + rng.sample(corners, extra))


def small_rational(rng, nonzero=True) -> Fraction:
    return Fraction(rng.choice(NONZERO) if nonzero else rng.randint(-3, 3), rng.randint(1, 3))


def series_aut(nm, rng, smoke: bool) -> list:
    ops = []
    for n, degree, extra, aut in SERIES_SMOKE if smoke else SERIES_SETS:
        lower = lower_set(nm, n, degree, extra, rng)
        trunc = lower.max_degree
        tag = f"n={n} m={lower.m}"
        inner = [a for a in lower.indices if any(a)]
        s_coeffs = {a: small_rational(rng) for a in inner}
        s = nm.DiffOpSeries(n, trunc, s_coeffs)
        t_coeffs = dict(s_coeffs)
        t_coeffs.update({a: small_rational(rng) for a in inner if rng.random() < 0.5})
        t_coeffs[(0,) * n] = small_rational(rng)
        t = nm.DiffOpSeries(n, trunc, t_coeffs)
        exp_coeffs = oracle.series_exp(s_coeffs, n, trunc)
        exp_s = nm.DiffOpSeries(n, trunc, exp_coeffs)
        poly = nm.Poly(n, {a: small_rational(rng, nonzero=False) for a in lower.indices})

        ops += [
            Op(f"series_exp {tag}", lambda s=s: nm.series_exp(s),
               lambda out, c=exp_coeffs, d=trunc: out.trunc == d and out.coeffs == c),
            Op(f"series_log {tag}", lambda e=exp_s: nm.series_log(e),
               lambda out, s=s: out == s),
            Op(f"compose {tag}", lambda s=s, t=t: s.compose(t),
               lambda out, a=s_coeffs, b=t_coeffs, d=trunc: out.coeffs == oracle.convolve(a, b, d)),
            Op(f"apply {tag}", lambda e=exp_s, p=poly: e.apply(p),
               lambda out, c=exp_coeffs, p=poly: out.terms == oracle.apply_series(c, p.terms)),
            Op(f"monomial_images+extract_coeffs {tag}",
               lambda t=t, n=n, d=trunc: nm.extract_coeffs(n, d, nm.monomial_images(t)),
               lambda out, t=t: out == t),
        ]
        if not aut:
            continue

        group = nm.AutGroup(lower)
        order = lower.monomials_descending()
        a = nm.AutDescriptor(small_rational(rng), {x: small_rational(rng) for x in inner})
        b = nm.AutDescriptor(small_rational(rng), {x: small_rational(rng) for x in inner if rng.random() < 0.5})
        mat_a = _own_aut_matrix(a, n, trunc, order)
        mat_b = _own_aut_matrix(b, n, trunc, order)
        qmat_a = nm.QMatrix(mat_a)
        ops += [
            Op(f"AutGroup.matrix_of {tag}", lambda g=group, a=a: g.matrix_of(a),
               lambda out, m=mat_a: oracle.entries(out) == m),
            Op(f"AutGroup.compose {tag}", lambda g=group, a=a, b=b: g.compose(a, b),
               lambda out, g=group, p=oracle.mat_mul(mat_a, mat_b): oracle.entries(g.matrix_of(out)) == p),
            Op(f"AutGroup.descriptor_of {tag}", lambda g=group, m=qmat_a: g.descriptor_of(m),
               lambda out, a=a: out == a),
        ]

    n, degree, extra = EXTEND_SMOKE if smoke else EXTEND_GOAL
    goal = lower_set(nm, n, degree, extra, rng)
    source = nm.MonomialSubmodule(n, nm.monomials_up_to_degree(n, 1 if not smoke else 0)).as_poly_submodule()
    sigma = nm.DiffOpSeries(n, goal.max_degree, {
        x: c * 2 for x, c in oracle.series_exp(
            {x: small_rational(rng) for x in nm.monomials_up_to_degree(n, goal.max_degree) if any(x)},
            n, goal.max_degree).items()
    })
    images = [sigma.apply(q) for q in source.basis]
    target = nm.PolySubmodule(n, images)
    phi = nm.ModuleMap(source, target, nm.QMatrix.from_columns(
        [target.coordinates_of(p) for p in images], rows=target.dim))
    ops.append(Op(
        f"extend_iso n={n} {source.dim} -> m={goal.m}",
        lambda: nm.extend_iso(source, target, phi, goal),
        lambda out: _check_extension(out, goal),
    ))
    return ops


def _own_aut_matrix(desc, n: int, trunc: int, order) -> list:
    """unit * exp(sum t_lambda d^lambda) on the lower set, computed here."""
    series = oracle.series_exp(dict(desc.additive), n, trunc)
    return oracle.restricted_matrix({k: v * desc.unit for k, v in series.items()}, order)


def _check_extension(mapping, goal) -> bool:
    src, tgt, images = mapping.source, mapping.target, mapping.images
    if images.rows != images.cols or oracle.rank(images) != src.dim:
        return False
    if not oracle.intertwines(images, src.action_matrices(), tgt.action_matrices()):
        return False
    # Every goal monomial lies in the span of the extended source.
    support = sorted(set().union(*(p.terms for p in src.basis)) | set(goal.indices))
    rows = [[p.terms.get(x, Fraction(0)) for x in support] for p in src.basis]
    base = oracle.rank(rows)
    return all(
        oracle.rank(rows + [[Fraction(int(x == a)) for x in support]]) == base
        for a in goal.indices
    )


# --- cli-batch ------------------------------------------------------------------

def cli_batch(nm, rng, smoke: bool, work_dir: Path) -> list:
    work_dir.mkdir(parents=True, exist_ok=True)
    env = cli_env(nm)

    def put(name: str, data) -> str:
        path = work_dir / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    module = nm.random_nilpotent_module(2, 2, rng.randrange(10**6))
    conj = dense_conjugate(nm, module, rng)
    alpha = (small_rational(rng), small_rational(rng))
    shifted = dense_conjugate(nm, module, rng, shift=alpha)
    series = nm.DiffOpSeries(2, 3, {a: small_rational(rng) for a in nm.monomials_up_to_degree(2, 3)})
    table = {"n": 2, "degree": 3, "images": [
        {"exps": list(a), "poly": p.to_json()} for a, p in nm.monomial_images(series).items()]}
    bad = json.loads(json.dumps(table))
    bad["images"][-1]["poly"] = nm.Poly(2, {(0, 0): 1, (3, 0): 1}).to_json()
    lower = lower_set(nm, 2, 1, 1, rng)
    goal = lower_set(nm, 2, 2, 1, rng)
    source = nm.MonomialSubmodule(2, [(0, 0), (1, 0)]).as_poly_submodule()
    sigma = nm.series_exp(nm.DiffOpSeries(2, goal.max_degree, {(1, 0): small_rational(rng), (0, 1): small_rational(rng)}))
    target = nm.PolySubmodule(2, [sigma.apply(q) for q in source.basis])
    problem = {"source": source.to_json(), "target": target.to_json(), "goal": goal.to_json(),
               "map": [sigma.apply(q).to_json() for q in source.basis]}

    f = {
        "mod": put("mod.json", module.to_json()),
        "conj": put("conj.json", conj.to_json()),
        "shifted": put("shifted.json", shifted.to_json()),
        "identity": put("identity.json", {"n": 1, "matrices": [[["1", "0"], ["0", "1"]]]}),
        "noncomm": put("noncomm.json", {"n": 2, "matrices": [[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]]}),
        "table": put("table.json", table),
        "bad": put("bad_table.json", bad),
        "lower": put("lower.json", lower.to_json()),
        "extend": put("extend.json", problem),
        "malformed": put("malformed.json", "{not json"),
        "missing": str(work_dir / "no_such_file.json"),
    }
    # (argv, exit code, error kind or None)
    commands = [
        (["gen", "--n", "2", "--degree-bound", "2", "--seed", str(rng.randrange(10**6))], 0, None),
        (["validate", f["mod"]], 0, None),
        (["validate", f["noncomm"]], 0, None),
        (["socle", f["mod"]], 0, None),
        (["socle", f["identity"]], 1, "NotNilpotent"),
        (["embed", f["mod"]], 0, None),
        (["canonical", f["conj"]], 0, None),
        (["isomorphic", f["mod"], f["conj"]], 0, None),
        (["isomorphic", f["mod"], f["conj"], "--max-dim", "6"], 0, None),
        (["embed-general", f["shifted"]], 0, None),
        (["embed-general", f["identity"]], 1, "SocleNotOneDimensional"),
        (["extract-endo", f["table"]], 0, None),
        (["extract-endo", f["bad"]], 1, "NotAnEndomorphism"),
        (["aut", f["lower"]], 0, None),
        (["extend-iso", f["extend"]], 0, None),
        (["validate", f["malformed"]], 2, "ParseError"),
        (["validate", f["missing"]], 2, "IOError"),
        (["validate"], 2, None),  # usage error: argparse, nothing on stdout
    ]
    if smoke:
        commands = [commands[1], commands[4], commands[15]]
    ops = []
    for argv, code, kind in commands:
        ops.append(Op(
            "cli " + " ".join(a if not a.startswith(str(work_dir)) else Path(a).name for a in argv),
            lambda argv=argv: run_cli(argv, env, work_dir),
            lambda out, argv=argv, code=code, kind=kind: _check_cli(nm, out, argv, code, kind),
            deadline=CLI_DEADLINE_S,
            argv=tuple(argv),
        ))
    return ops


def cli_env(nm) -> dict:
    """The environment for CLI children: an absolute PYTHONPATH to the
    src/ directory nilmod was imported from, whatever the cwd."""
    return dict(os.environ, PYTHONPATH=str(Path(nm.__file__).resolve().parent.parent))


def run_cli(argv, env, cwd):
    """One `python -m nilmod.cli` child; waits for it to end."""
    try:
        proc = subprocess.run([sys.executable, "-m", "nilmod.cli", *argv],
                              env=env, cwd=cwd, capture_output=True, timeout=CLI_DEADLINE_S)
    except subprocess.TimeoutExpired as exc:
        raise Deadline(str(exc)) from None
    return proc.returncode, proc.stdout


def in_process_main(nm, argv):
    """nilmod.cli.main on the same argv, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = nm.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, buf.getvalue().encode()


def _check_cli(nm, out, argv, code, kind) -> bool:
    got_code, stdout = out
    if got_code != code:
        return False
    if code == 2 and kind is None:
        if stdout:
            return False
    else:
        data = json.loads(stdout)
        if kind is not None and data.get("error", {}).get("kind") != kind:
            return False
        if kind is None and "error" in data:
            return False
    return in_process_main(nm, argv) == (got_code, stdout)
