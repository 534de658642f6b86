"""The exact linear algebra against sympy, an optional test oracle.

sympy is no dependency of the package (`test_stdlib_only` keeps it out
of `src/nilmod`), so these tests skip without it.  The integer
elimination `_rref_int` and `_integer_kernel` must agree with
`sympy.Matrix.rref`.  `_rank_mod` must never exceed the exact rank, at
the real prime or a small one, and must equal it at the real prime on
random integer matrices: the certificates of `embed`, where rank d mod P
proves a map injective, rest on that lower bound.  `modcore._char_poly`
must agree with `sympy.Matrix.charpoly`.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest

sympy = pytest.importorskip("sympy")

import nilmod.embed  # noqa: E402
import nilmod.exactalg  # noqa: E402
import nilmod.modcore  # noqa: E402
from nilmod.exactalg import _integer_kernel, _rank_mod, _rref_int  # noqa: E402
from nilmod.modcore import _char_poly  # noqa: E402
from nilmod.polysub import random_nilpotent_module  # noqa: E402

SMALL_PRIMES = (2, 3, 5, 7, 11)


@contextmanager
def prime(p):
    with mock.patch.object(nilmod.exactalg, "_PRIME", p):
        yield


def random_matrix(rng):
    """An integer matrix of random shape and rank: the product of two random
    factors through an inner dimension k, with small, zero and 12-digit
    entries."""
    rows, cols, k = rng.randint(0, 7), rng.randint(1, 7), rng.randint(0, 7)
    left = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(rows)]
    entries = [0, 1, 12]  # digits of an entry: zero, one or twelve
    right = [[rng.randint(-(10**e) + 1, 10**e - 1) if e else 0 for e in rng.choices(entries, k=cols)] for _ in range(k)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k else [0] * cols for row in left], cols


def matrices(seed, count):
    rng = random.Random(seed)
    return [random_matrix(rng) for _ in range(count)]


def sympy_matrix(rows, cols):
    return sympy.Matrix(len(rows), cols, [x for row in rows for x in row])


def as_fractions(row):
    return [Fraction(int(x.p), int(x.q)) for x in row]


def sympy_rref(rows, cols):
    """(pivots, the nonzero rows of the RREF as fractions), by sympy."""
    reduced, pivots = sympy_matrix(rows, cols).rref()
    return list(pivots), [as_fractions(reduced.row(k)) for k in range(len(pivots))]


def test_rref_int_agrees_with_sympy():
    for rows, cols in matrices(7, 120):
        pivots, reduced = _rref_int(rows, cols)
        # Row k of the RREF is reduced[k] over its entry at pivots[k].
        normalized = [[Fraction(x, row[c]) for x in row] for c, row in zip(pivots, reduced)]
        assert (pivots, normalized) == sympy_rref(rows, cols)


def test_integer_kernel_agrees_with_sympy():
    for rows, cols in matrices(11, 120):
        space = _integer_kernel(rows, cols)
        null = sympy_matrix(rows, cols).nullspace()
        expected = sympy_rref([list(v) for v in null], cols)[1] if null else []
        assert [list(v) for v in space.basis] == expected


def test_rank_mod_is_a_lower_bound_that_the_real_prime_meets():
    short = 0
    for rows, cols in matrices(13, 200):
        exact = sympy_matrix(rows, cols).rank()
        assert _rank_mod(rows, cols) == exact
        for p in SMALL_PRIMES:
            with prime(p):
                rank = _rank_mod(rows, cols)
            assert rank <= exact
            short += rank < exact
    assert short >= 20, short


@pytest.mark.parametrize("p", (None,) + SMALL_PRIMES[2:])
def test_a_certified_injective_pass_has_full_exact_rank(p):
    # `embed.is_isomorphic` certifies a map by rank d mod P of pass rows;
    # whenever that holds, the rows have rank d over the rationals.
    certified = 0
    with prime(p or nilmod.exactalg._PRIME):
        for seed in range(30):
            module = random_nilpotent_module(2 + seed % 2, 3, seed)
            found = nilmod.embed._pass(module, nilmod.modcore._socle_walk(module), random.Random(seed))
            if found is not None and _rank_mod(found[1], module.dim) == module.dim:
                certified += 1
                assert sympy_matrix(found[1], module.dim).rank() == module.dim
    assert certified >= 10, certified


def unimodular(rng, d):
    """L U with integer unit-triangular factors: determinant 1, so its
    inverse has integer entries too."""
    lower = sympy.Matrix(d, d, lambda i, j: int(i == j) or (rng.randint(-2, 2) if i > j else 0))
    upper = sympy.Matrix(d, d, lambda i, j: int(i == j) or (rng.randint(-2, 2) if i < j else 0))
    return lower * upper


def char_poly_cases(seed):
    """(kind, matrix) up to d = 12: nilpotent and planted triangular
    matrices conjugated densely by unimodular ones, and random 60-bit ones."""
    rng = random.Random(seed)
    for d in range(1, 13):
        g = unimodular(rng, d)
        strict = sympy.Matrix(d, d, lambda i, j: rng.randint(-3, 3) if i < j else 0)
        planted = sympy.Matrix(d, d, lambda i, j: rng.randint(-3, 3) if i <= j else 0)
        yield "nilpotent", g * strict * g.inv()
        yield "planted", g * planted * g.inv()
        yield "60-bit", sympy.Matrix(d, d, lambda i, j: rng.randint(-(2**60), 2**60))


def test_char_poly_agrees_with_sympy():
    t = sympy.Symbol("t")
    for kind, m in char_poly_cases(17):
        rows = [[int(x) for x in m.row(i)] for i in range(m.rows)]
        coeffs = _char_poly(rows)
        assert coeffs == [int(c) for c in reversed(m.charpoly(t).all_coeffs())], (kind, rows)
        if kind == "nilpotent":
            assert coeffs == [0] * m.rows + [1]
        if kind == "60-bit" and m.rows > 1:
            assert max(abs(c) for c in coeffs) > 2**64  # past machine words
