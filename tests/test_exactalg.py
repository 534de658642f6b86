"""Tests for the exact rational linear algebra layer.

The independent oracle here is a second, deliberately naive Gaussian
eliminator (`naive_rank`, `naive_row_space_contains`) written against
plain lists so that elimination and kernel bugs cannot hide behind their
own implementation.
"""

import math
import operator
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest

import nilmod.exactalg as exactalg
from nilmod.errors import DimensionTooLarge
from nilmod.exactalg import (
    _PRIME,
    QMatrix,
    Subspace,
    _columns,
    _common_factor,
    _echelon,
    _integer_kernel,
    _integer_rows,
    _over_lcm,
    _rank_mod,
    _rref_int,
    _split_rational,
    format_rational,
    parse_rational,
)
from nilmod.multipoly import Poly


def zeros(rows, cols):
    return QMatrix([[0] * cols for _ in range(rows)], cols=cols)


def standard_basis_vector(ambient_dim, j):
    return tuple(Fraction(int(i == j)) for i in range(ambient_dim))


# --- independent oracle -------------------------------------------------

def naive_eliminate(rows):
    """Forward elimination only; returns the nonzero echelon rows."""
    rows = [list(r) for r in rows]
    out = []
    col = 0
    width = len(rows[0]) if rows else 0
    while rows and col < width:
        pivot_row = None
        for r in rows:
            if r[col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            col += 1
            continue
        rows.remove(pivot_row)
        out.append(pivot_row)
        rows = [
            [x - (r[col] / pivot_row[col]) * y for x, y in zip(r, pivot_row)]
            for r in rows
        ]
        col += 1
    return out


def naive_rank(rows):
    return len(naive_eliminate(rows))


def naive_row_space_contains(rows, v):
    return naive_rank(list(rows) + [list(v)]) == naive_rank(rows)


def random_matrix(rng, rows, cols, span=9):
    return QMatrix(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ],
        cols=cols,
    )


# --- rational wire format ----------------------------------------------

def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-7, 2)) == "-7/2"
    assert format_rational(Fraction(0)) == "0"


def test_format_rational_refuses_a_number_past_the_digit_limit():
    # Python's limit on printing an integer stays; the number past it is
    # a typed domain error that names the limit, not a ValueError.
    limit = sys.get_int_max_str_digits()
    assert format_rational(Fraction(-(10 ** (limit - 1)), 7)) == f"-1{'0' * (limit - 1)}/7"
    for x in (Fraction(10**limit), Fraction(1, 10**limit), Fraction(-(10**limit) - 1, 3)):
        with pytest.raises(DimensionTooLarge, match=f"more than {limit} digits"):
            format_rational(x)


def test_a_literal_past_the_digit_limit_is_a_typed_error():
    # The reader keeps Python's limit on reading an integer, numerator or
    # denominator, and names it: a size bound, not a malformed literal.
    limit = sys.get_int_max_str_digits()
    assert _split_rational("7" * limit + "/3") == (int("7" * limit), 3)
    for literal in ("1" * (limit + 1), "-" + "9" * (limit + 1), "1/" + "3" * (limit + 1)):
        with pytest.raises(DimensionTooLarge, match=f"^an input number has more than {limit} digits, Python's read limit$"):
            _split_rational(literal)
        with pytest.raises(DimensionTooLarge):
            Poly.from_json([{"exps": [0], "coef": literal}], 1)


def test_parse_rational_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize("bad", ["", "1/0", "1/-2", "2/4x", "1.5", "+3", "--2", "3 /2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def rational_literal_table(seed):
    """Seeded wire literals: signed zeros, leading zeros, large
    numerators and reducible p/q."""
    rng = random.Random(seed)
    table = ["0", "-0", "0/7", "-0/3", "007", "-007", "007/10", "6/4", "-10/15", "12/6", "1/1"]
    table += [str(10**40), f"-{10**50 + 1}/{2 * 10**30}", f"{3**90}/{3**40}"]
    for _ in range(200):
        num = rng.randint(0, 10 ** rng.choice([1, 3, 30]))
        den = rng.randint(1, 10 ** rng.choice([1, 2, 20])) * rng.choice([1, 1, 2, 6, num or 1])
        literal = rng.choice(["", "-"]) + "0" * rng.choice([0, 0, 0, 2]) + str(num)
        table.append(literal if rng.random() < 0.3 else f"{literal}/{den}")
    return table


@pytest.mark.parametrize("seed", [16, 17])
def test_parse_rational_matches_fraction_of_the_literal(seed):
    reducible = 0
    for s in rational_literal_table(seed):
        got, expected = parse_rational(s), Fraction(s)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator), s
        reducible += "/" in s and expected.denominator != int(s.split("/")[1])
    assert reducible >= 20


def reference_matrix_from_json(data):
    """`QMatrix.from_json` as it read literals before: one `Fraction` per
    entry, through the validating constructor."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValueError("matrix JSON must be a nested array")
    return QMatrix([[parse_rational(x) for x in row] for row in data])


def reference_poly_from_json(data, n):
    """`Poly.from_json` as it read terms before, over `Fraction`s."""
    terms = {}
    for item in data:
        alpha = tuple(item["exps"])
        if alpha in terms:
            raise ValueError(f"duplicate exponent vector {alpha}")
        c = parse_rational(item["coef"])
        if c == 0:
            raise ValueError("zero coefficient in polynomial JSON")
        terms[alpha] = c
    return Poly(n, terms)


def outcome(call, *args):
    try:
        return "ok", call(*args)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed", [16, 17])
def test_wire_readers_keep_their_values(seed):
    # Matrices and polynomials read their literals straight into integers
    # over the lcm of the literals' denominators; values and stored forms
    # are those of the Fraction route.
    table = rational_literal_table(seed)
    rng = random.Random(seed)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        data = [[rng.choice(table) for _ in range(cols)] for _ in range(rows)]
        got, expected = QMatrix.from_json(data), reference_matrix_from_json(data)
        assert got == expected and (got._den, got._ints) == (expected._den, expected._ints)
        assert got.entries == tuple(tuple(Fraction(x) for x in row) for row in data)
        terms = [{"exps": [k, rng.randint(0, 3)], "coef": c} for k, c in enumerate(rng.sample(table, 6))]
        assert outcome(Poly.from_json, terms, 2) == outcome(reference_poly_from_json, terms, 2)
    nonzero = [{"exps": [k], "coef": c} for k, c in enumerate(table) if Fraction(c) != 0]
    got = Poly.from_json(nonzero, 1)
    assert got == reference_poly_from_json(nonzero, 1)
    assert got.terms == {(k,): Fraction(c) for k, c in enumerate(table) if Fraction(c) != 0}
    assert QMatrix.from_json([]) == reference_matrix_from_json([]) == QMatrix([], cols=0)


BAD_LITERALS = ["", "1/0", "1/-2", "2/4x", "1.5", "+3", "--2", "3 /2", 3, None, ["1"], Fraction(1, 2)]
# A trailing newline, and digits outside ASCII, which `int` would read.
BAD_LITERALS += ["12\n", "0/5\n", "\u0663", "-\uff13/7"]


@pytest.mark.parametrize("bad", BAD_LITERALS, ids=repr)
def test_wire_readers_keep_their_errors(bad):
    # The same check and message, first among the reader's checks: a bad
    # literal in a ragged matrix, or at a duplicate exponent, is named as
    # a bad literal, where the reference named it too.
    message = f"not a rational literal: {bad!r}"
    for data in ([["1", bad]], [["1"], [bad, "2"]], [[bad]]):
        assert outcome(QMatrix.from_json, data) == outcome(reference_matrix_from_json, data) == ("ValueError", message)
    terms = [{"exps": [1], "coef": "1"}, {"exps": [2], "coef": bad}]
    assert outcome(Poly.from_json, terms, 1) == outcome(reference_poly_from_json, terms, 1) == ("ValueError", message)
    with pytest.raises(ValueError, match="not a rational literal"):
        parse_rational(bad)


def test_wire_readers_keep_their_shape_errors():
    for data in ([["1"], ["1", "2"]], [["1", "2"], []], [[], ["0"]]):
        assert outcome(QMatrix.from_json, data) == outcome(reference_matrix_from_json, data) == ("ValueError", "ragged rows")
    for data in (["1"], [["1"], "2"], "1", {"rows": []}):
        expected = ("ValueError", "matrix JSON must be a nested array")
        assert outcome(QMatrix.from_json, data) == outcome(reference_matrix_from_json, data) == expected
    duplicate = [{"exps": [1], "coef": "1/2"}, {"exps": [1], "coef": "0"}]
    zero = [{"exps": [1], "coef": "1/2"}, {"exps": [2], "coef": "-0/5"}]
    for terms, message in [(duplicate, "duplicate exponent vector (1,)"), (zero, "zero coefficient in polynomial JSON")]:
        assert outcome(Poly.from_json, terms, 1) == outcome(reference_poly_from_json, terms, 1) == ("ValueError", message)


# --- rref: the basis of a subspace ----------------------------------------

def test_rref_identity_fixed():
    eye = QMatrix.identity(2)
    assert Subspace(2, eye.entries).basis == eye.entries


def test_rref_rank_one_fixed():
    assert Subspace(2, [[2, 4], [1, 2]]).basis == ((1, 2),)


def is_rref_shape(rows) -> bool:
    """Nonzero rows with increasing unit pivots, each alone in its column."""
    last_pivot = -1
    for r, row in enumerate(rows):
        pivot = next((c for c, x in enumerate(row) if x != 0), None)
        if pivot is None or pivot <= last_pivot or row[pivot] != 1:
            return False
        if any(rows[r2][pivot] != 0 for r2 in range(len(rows)) if r2 != r):
            return False
        last_pivot = pivot
    return True


def test_rref_random_against_oracle():
    rng = random.Random(23)
    for _ in range(40):
        m = random_matrix(rng, 5, 5)
        r = Subspace(5, m.entries).basis
        assert is_rref_shape(r)
        assert Subspace(5, r).basis == r
        # row spaces agree both ways
        for row in m.entries:
            assert naive_row_space_contains(r, row)
        for row in r:
            assert naive_row_space_contains(m.entries, row)
        assert naive_rank(m.entries) == len(r)


# --- kernel -------------------------------------------------------------

def test_kernel_zero_matrix():
    assert zeros(3, 3).kernel() == Subspace(3, QMatrix.identity(3).entries)


def test_kernel_identity():
    assert QMatrix.identity(2).kernel() == Subspace(2, [])


def test_kernel_jordan_block():
    jordan = QMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    expected = Subspace(3, [standard_basis_vector(3, 0)])
    assert jordan.kernel() == expected
    assert jordan.kernel().dim == 1


def test_kernel_random_properties():
    rng = random.Random(5)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ker = m.kernel()
        assert ker.dim == m.cols - naive_rank(m.entries)
        for v in ker.basis:
            assert all(x == 0 for x in m.apply(v))


# --- inverse and determinant --------------------------------------------

def naive_det(m: QMatrix) -> Fraction:
    # cofactor expansion along the first row
    d = m.rows
    if d == 0:
        return Fraction(1)
    if d == 1:
        return m.entries[0][0]
    total = Fraction(0)
    for c in range(d):
        if m.entries[0][c] == 0:
            continue
        minor = QMatrix(
            [
                [m.entries[r][cc] for cc in range(d) if cc != c]
                for r in range(1, d)
            ],
            cols=d - 1,
        )
        sign = -1 if c % 2 else 1
        total += sign * m.entries[0][c] * naive_det(minor)
    return total


def test_det_against_cofactor_oracle():
    rng = random.Random(41)
    for _ in range(30):
        d = rng.randint(1, 5)
        m = random_matrix(rng, d, d, span=4)
        assert m.det() == naive_det(m)


def test_det_multiplicative():
    rng = random.Random(43)
    for _ in range(20):
        d = rng.randint(1, 4)
        a = random_matrix(rng, d, d, span=4)
        b = random_matrix(rng, d, d, span=4)
        assert (a * b).det() == a.det() * b.det()


def test_inverse_round_trip_and_singular():
    rng = random.Random(47)
    eye_cache = {}
    invertible_seen = 0
    for _ in range(40):
        d = rng.randint(1, 5)
        m = random_matrix(rng, d, d, span=5)
        inv = m.inverse()
        eye = eye_cache.setdefault(d, QMatrix.identity(d))
        if m.det() == 0:
            assert inv is None
        else:
            invertible_seen += 1
            assert inv is not None
            assert m * inv == eye
            assert inv * m == eye
    assert invertible_seen > 10


def test_inverse_requires_square():
    with pytest.raises(ValueError):
        zeros(2, 3).inverse()


# --- matrix plumbing ----------------------------------------------------

def test_matmul_shapes_and_apply():
    a = QMatrix([[1, 2, 0], [0, 1, -1]])
    b = QMatrix([[1], [0], [2]])
    assert a * b == QMatrix([[1], [-2]])
    assert a.apply([1, 0, 2]) == (Fraction(1), Fraction(-2))
    with pytest.raises(ValueError):
        b * a * b


def test_matrix_immutability():
    m = QMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3


def test_matrix_json_round_trip():
    m = QMatrix([[Fraction(1, 2), -3], [0, Fraction(7, 5)]])
    assert QMatrix.from_json(m.to_json()) == m
    with pytest.raises(ValueError):
        QMatrix.from_json([["1", "x"]])


def test_from_columns():
    m = QMatrix.from_columns([(Fraction(1), Fraction(2)), (Fraction(3), Fraction(4))])
    assert m == QMatrix([[1, 3], [2, 4]])
    assert QMatrix.from_columns([], rows=2).rows == 2


@pytest.mark.parametrize(
    "columns, rows, message",
    [
        ([(1,), (2, 3)], None, "ragged columns"),
        ([(1, 2), (3,)], None, "ragged columns"),
        ([(1, 2)], 3, "explicit row count disagrees with columns"),
    ],
    ids=["longer", "shorter", "count"],
)
def test_from_columns_refuses_ragged_columns_and_a_disagreeing_count(columns, rows, message):
    # The first case dropped the 3, the second raised IndexError and the
    # third returned a 2 x 1 matrix.
    with pytest.raises(ValueError, match=f"^{message}$"):
        QMatrix.from_columns(columns, rows=rows)


# --- subspaces ----------------------------------------------------------

def test_subspace_sum_idempotent():
    # The sum of two subspaces is the span of both bases.
    rng = random.Random(53)
    for _ in range(20):
        s = Subspace(4, [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)])
        assert Subspace(4, s.basis + s.basis) == s


def test_full_space_contains_everything():
    rng = random.Random(59)
    full = Subspace(4, QMatrix.identity(4).entries)
    for _ in range(10):
        assert full.coordinates_of([rng.randint(-9, 9) for _ in range(4)]) is not None


def test_subspace_equality_is_representation_free():
    rng = random.Random(61)
    for _ in range(25):
        vecs = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(3)]
        s = Subspace(4, vecs)
        # random invertible recombination of the spanning set
        combos = []
        for _ in range(5):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            combos.append(
                [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(4)]
            )
        t = Subspace(4, vecs + combos)
        assert s == t
        assert hash(s) == hash(t)


def test_coordinates_reconstruct():
    rng = random.Random(71)
    for _ in range(30):
        s = Subspace(
            5, [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
        )
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(s.dim)]
        v = [
            sum(c * row[i] for c, row in zip(coeffs, s.basis))
            for i in range(5)
        ]
        got = s.coordinates_of(v)
        assert got == tuple(coeffs)


def test_coordinates_of_outside_vector():
    s = Subspace(3, [[1, 0, 0]])
    assert s.coordinates_of([0, 1, 0]) is None
    assert s.coordinates_of([0, 0, 5]) is None
    assert s.coordinates_of([Fraction(-2), 0, 0]) is not None


def test_ambient_mismatch_raises():
    with pytest.raises(ValueError):
        Subspace(2, [[1, 0, 0]])
    with pytest.raises(ValueError):
        Subspace(3, [[1, 0, 0], [0, 1]])


def test_constructor_canonicalizes_its_vectors():
    line = Subspace(2, [(1, 1), (2, 2)])
    assert line.dim == 1
    assert line == Subspace(2, [(1, 1)])
    assert line.basis == ((1, 1),)
    assert line.coordinates_of((1, 1)) is not None
    assert Subspace(2, [(0, 3), (2, 0)]).basis == ((1, 0), (0, 1))


# --- the integer core against the plain-Fraction reference ---------------
#
# The reference below is the plain-Fraction Gauss-Jordan elimination and
# product the integer core replaced, kept verbatim in spirit: every
# operation on Fractions, no common denominators.

def reference_rref(rows, cols):
    m = [list(row) for row in rows]
    piv_r = 0
    for c in range(cols):
        if piv_r == len(m):
            break
        pr = next((r for r in range(piv_r, len(m)) if m[r][c] != 0), None)
        if pr is None:
            continue
        m[piv_r], m[pr] = m[pr], m[piv_r]
        inv = Fraction(1) / m[piv_r][c]
        m[piv_r] = [inv * x for x in m[piv_r]]
        for r in range(len(m)):
            if r != piv_r and m[r][c] != 0:
                factor = m[r][c]
                m[r] = [x - factor * y for x, y in zip(m[r], m[piv_r])]
        piv_r += 1
    return [tuple(row) for row in m]


def reference_pivots(reduced):
    return [next(c for c, x in enumerate(row) if x != 0) for row in reduced if any(row)]


def reference_matmul(a, b, inner, cols):
    return [
        tuple(sum((row[k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(cols))
        for row in a
    ]


def reference_kernel(rows, cols):
    reduced = reference_rref(rows, cols)
    pivots = reference_pivots(reduced)
    vectors = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][f]
        vectors.append(v)
    return [row for row in reference_rref(vectors, cols) if any(row)]


def reference_inverse(rows):
    d = len(rows)
    reduced = reference_rref(
        [list(row) + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(rows)],
        2 * d,
    )
    if any(reduced[i][i] != 1 for i in range(d)):
        return None
    return [tuple(row[d:]) for row in reduced]


def reference_det(rows):
    m = [list(row) for row in rows]
    d = len(m)
    det = Fraction(1)
    for c in range(d):
        pr = next((r for r in range(c, d) if m[r][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, d):
            factor = m[r][c] / m[c][c]
            m[r] = [x - factor * y for x, y in zip(m[r], m[c])]
    return det


def reference_coordinates(basis, v):
    pivots = reference_pivots(basis)
    coords = tuple(v[c] for c in pivots)
    residual = list(v)
    for coeff, row in zip(coords, basis):
        residual = [x - coeff * y for x, y in zip(residual, row)]
    return coords if not any(residual) else None


def big_rational(rng, bits):
    return Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 1 << bits))


def oracle_matrices(seed):
    """Seeded (rows, cols, entries) covering empty shapes, zero and
    rank-deficient matrices, duplicate rows and 60-bit entries."""
    rng = random.Random(seed)
    cases = [(0, 3, []), (3, 0, [[], [], []]), (0, 0, []), (3, 4, [[Fraction(0)] * 4] * 3)]
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        bits = rng.choice([3, 3, 60])
        m = [[big_rational(rng, bits) for _ in range(cols)] for _ in range(rows)]
        kind = rng.randrange(4)
        if kind == 1 and rows > 1:  # duplicate a row
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
        elif kind == 2:  # rank at most 2: every row a combination of two
            a, b = m[0], m[-1]
            m = [[rng.randint(-3, 3) * x + rng.randint(-3, 3) * y for x, y in zip(a, b)] for _ in m]
        elif kind == 3:  # sparse
            m = [[x if rng.random() < 0.3 else Fraction(0) for x in row] for row in m]
        cases.append((rows, cols, m))
    return cases


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_integer_core_rref_kernel_solve_match_reference(seed):
    for _, cols, entries in oracle_matrices(seed):
        reduced = tuple(row for row in reference_rref(entries, cols) if any(row))
        assert Subspace(cols, entries).basis == reduced
        assert QMatrix(entries, cols=cols).kernel().basis == tuple(reference_kernel(entries, cols))


def test_rref_int_keeps_its_contract_against_the_reference():
    # Derandomized property test of the one elimination: rows with leading
    # zeros at mixed offsets, rows that are combinations of earlier ones and
    # so vanish in the forward phase, zero rows, zero columns between pivots,
    # tall and wide shapes, one column, and entries up to 300 bits.
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    @st.composite
    def integer_rows(draw):
        cols = draw(st.integers(1, 12))
        # Entries come from a seeded generator: hypothesis keeps its own integers small.
        rng = random.Random(draw(st.integers(0, 2**32)))
        bound = 1 << rng.choice([2, 2, 8, 64, 300])
        empty = draw(st.sets(st.integers(0, cols - 1), max_size=cols // 2))
        rows = []
        for _ in range(draw(st.integers(0, 12))):
            kind = draw(st.sampled_from(["fresh", "fresh", "combination", "zero"]))
            if kind == "combination" and rows:
                pick = st.tuples(st.integers(0, len(rows) - 1), st.integers(-3, 3))
                picks = draw(st.lists(pick, min_size=1, max_size=3))
                rows.append([sum(m * rows[i][j] for i, m in picks) for j in range(cols)])
            elif kind == "zero":
                rows.append([0] * cols)
            else:
                start = draw(st.integers(0, cols))
                rows.append([0 if j < start or j in empty else rng.randint(-bound, bound) for j in range(cols)])
        return rows, cols

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(integer_rows())
    @example(([[0, 0, 0], [0, 0, 0]], 3))
    @example(([], 4))
    @example(([[5], [-3], [0]], 1))
    def check(case):
        rows, cols = case
        pivots, ints, den = _rref_int(rows, cols)
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        assert _echelon(rows, cols)[0] == pivots == reference_pivots(reference_rref(rows, cols))
        # B / E is the reference RREF entry for entry, E its least common denominator.
        expected = [row for row in reference_rref(rows, cols) if any(row)]
        assert den == math.lcm(*(x.denominator for row in expected for x in row))
        assert all(type(x) is int for row in ints for x in row)
        assert ints == [[x * den for x in row] for row in expected]

    check()


def kernel_table(seed):
    """Seeded integer matrices of n d rows and d columns, as the joint
    kernel sees them, with kernels of dimension 0, 1 and more: rows
    drawn from the span of k random vectors, some with 60-bit entries."""
    rng = random.Random(seed)
    cases = [([], 0), ([[0, 0]], 2), ([[0]], 1), ([[5]], 1)]
    for _ in range(40):
        d, n = rng.randint(1, 7), rng.randint(1, 3)
        bits = rng.choice([3, 3, 60])
        k = rng.choice([d, d - 1, d - 1, max(d - 2, 0)])
        span = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(d)] for _ in range(k)]
        rows = []
        for _ in range(n * d):
            coeffs = [rng.randint(-2, 2) for _ in span]
            rows.append([sum(c * v[j] for c, v in zip(coeffs, span)) for j in range(d)])
        cases.append((rows, d))
    return cases


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_rank_mod_bounds_the_exact_rank(seed):
    # The rank mod P never exceeds the exact rank, and on these tables,
    # with entries up to 60 bits and P near 2^30, it equals it.
    full = 0
    for rows, cols in kernel_table(seed):
        rank = cols - _integer_kernel(rows, cols).dim
        assert _rank_mod(rows, cols) == rank, (rows, cols)
        full += rank == cols > 0
    assert full >= 10, full


def test_whole_space_is_the_eliminated_identity():
    # The whole space, built with no elimination, has the integer form that
    # elimination gives the identity and a full-rank integer basis with its
    # columns divided by weights.
    rng = random.Random(16)
    for d in range(0, 31):
        whole = Subspace._whole(d)
        got = (whole.ambient_dim, whole._pivots, whole._den, whole._columns, whole._free)
        identity = [[int(i == j) for j in range(d)] for i in range(d)]
        spans = [Subspace._from_integer_rows(d, identity)]
        while d:
            rows = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            if QMatrix(rows).det() != 0:
                weights = [rng.randint(1, 6) for _ in range(d)]
                spans.append(Subspace._from_integer_rows(d, column_weighted(rows, weights, d)))
                break
        for space in spans:
            assert got == (space.ambient_dim, space._pivots, space._den, space._columns, space._free)
            assert whole == space and hash(whole) == hash(space)
        assert whole.basis == Subspace(d, identity).basis


def test_rank_mod_reads_the_rows_mod_p():
    # Entries that P divides vanish, so the rank can fall mod P, and only
    # fall: full rank mod P is full rank.
    assert _rank_mod([[0, _PRIME], [0, 0]], 2) == 0
    assert _integer_kernel([[0, _PRIME], [0, 0]], 2).dim == 1
    assert _rank_mod([[_PRIME]], 1) == 0
    assert _rank_mod([[0, _PRIME], [1, 0]], 2) == 1
    # Rows independent over Q that agree mod P.
    assert _rank_mod([[1, 1], [1, 1 + _PRIME]], 2) == 1
    assert _integer_kernel([[1, 1], [1, 1 + _PRIME]], 2).dim == 0
    # A pivot whose residue needs an inverse, and entries far above P.
    rows = [[3, 5 * _PRIME + 2], [_PRIME**3 + 6, 5]]
    assert _rank_mod(rows, 2) == 2 == 2 - _integer_kernel(rows, 2).dim
    assert _rank_mod([], 3) == 0
    assert _rank_mod([[0, 0, 0], [0, 0, 2 * _PRIME]], 3) == 0


@pytest.mark.parametrize("seed", [4, 5])
def test_integer_core_square_ops_match_reference(seed):
    rng = random.Random(seed)
    for rows, cols, entries in oracle_matrices(seed):
        if rows != cols:
            continue
        check_square_ops(entries)
    for d in range(0, 6):
        bits = rng.choice([3, 60])
        check_square_ops([[big_rational(rng, bits) for _ in range(d)] for _ in range(d)])


def check_square_ops(entries):
    m = QMatrix(entries, cols=len(entries))
    assert m.det() == reference_det(entries)
    inv = m.inverse()
    expected = reference_inverse(entries)
    assert (inv is None) == (expected is None)
    if inv is not None:
        assert inv.entries == tuple(expected)


def assert_stored_as(got, reference, cols):
    """got has the reference's entries, and equals and hashes as the
    matrix built from them: each way of building reaches one key."""
    expected = QMatrix(reference, cols=cols)
    assert got.entries == tuple(map(tuple, reference))
    assert got == expected and hash(got) == hash(expected)


# The share of nonzero entries past which a row form is dense: 1 puts
# every integer product on the sparse route, -1 every nonempty one on the
# dense route.
ROUTES = (1, -1)


@pytest.mark.parametrize("seed", [6, 7])
def test_integer_core_matmul_matches_reference(seed):
    rng = random.Random(seed)
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(20)]
    for rows, inner, cols in shapes:
        bits = rng.choice([3, 60])
        a = [[big_rational(rng, bits) for _ in range(inner)] for _ in range(rows)]
        b = [[big_rational(rng, bits) for _ in range(cols)] for _ in range(inner)]
        for share in ROUTES:
            with mock.patch.object(exactalg, "_SPARSE_SHARE", share):
                product = QMatrix(a, cols=inner) * QMatrix(b, cols=cols)
            assert (product.rows, product.cols) == (rows, cols)
            assert_stored_as(product, reference_matmul(a, b, inner, cols), cols)
        # A second factor of a's shape whose entries have other denominators.
        c = [[big_rational(rng, rng.choice([3, 60])) for _ in range(inner)] for _ in range(rows)]
        k = big_rational(rng, rng.choice([3, 60]))
        v = [big_rational(rng, bits) for _ in range(inner)]
        first, second = QMatrix(a, cols=inner), QMatrix(c, cols=inner)
        assert_stored_as(first + second, [[x + y for x, y in zip(r, s)] for r, s in zip(a, c)], inner)
        assert_stored_as(first - second, [[x - y for x, y in zip(r, s)] for r, s in zip(a, c)], inner)
        assert_stored_as(-first, [[-x for x in r] for r in a], inner)
        assert_stored_as(first.scale(k), [[k * x for x in r] for r in a], inner)
        assert_stored_as(first.scale(0), [[Fraction(0)] * inner for _ in a], inner)
        assert_stored_as(2 * first, [[2 * x for x in r] for r in a], inner)
        assert first.apply(v) == tuple(sum((x * y for x, y in zip(r, v)), Fraction(0)) for r in a)


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
def test_arithmetic_with_a_non_matrix_is_a_type_error(op):
    # Adding or subtracting a number used to fail inside the shape check
    # with "'int' object has no attribute 'rows'".
    with pytest.raises(TypeError, match="^unsupported operand type"):
        op(QMatrix([[1]]), 1)
    with pytest.raises(TypeError, match="^unsupported operand type"):
        op(1, QMatrix([[1]]))


@pytest.mark.parametrize("seed", [8, 9])
def test_integer_core_coordinates_match_reference(seed):
    rng = random.Random(seed)
    for rows, cols, entries in oracle_matrices(seed):
        space = Subspace(cols, entries)
        assert space.basis == tuple(row for row in reference_rref(entries, cols) if any(row))
        members = [
            [sum((c * row[i] for c, row in zip(coeffs, entries)), Fraction(0)) for i in range(cols)]
            for coeffs in ([big_rational(rng, 60) for _ in entries] for _ in range(3))
        ]
        others = [[big_rational(rng, rng.choice([3, 60])) for _ in range(cols)] for _ in range(3)]
        others += [list(v) for v in members[:1]]
        if cols:
            others[-1][rng.randrange(cols)] += Fraction(1, 7)
        for v in members + others:
            got = space.coordinates_of(v)
            assert got == reference_coordinates(space.basis, v)
            assert space.coordinates_of(v) == got
        for v in members:
            assert space.coordinates_of(v) is not None


def reference_integer_form(space):
    """(pivots, E, columns of B, free columns) with basis = B / E, read
    back from the Fraction basis by a pivot scan."""
    ints, den = _integer_rows(space.basis)
    pivots = tuple(next(c for c, x in enumerate(row) if x) for row in ints)
    free = sorted(set(range(space.ambient_dim)) - set(pivots))
    return pivots, den, _columns(ints, space.ambient_dim), free


def column_weighted(rows, weights, cols):
    """The rows with entry c over weights[c], all times the weights' lcm,
    built as the image of an embedding builds them: `_over_lcm` on the
    columns, read back as rows.  The rows as given for weights None."""
    if weights is None:
        return rows
    return _columns(_over_lcm(_columns(rows, cols), weights)[0], len(rows))


def integer_form_table(seed):
    """Seeded (cols, integer rows, weights or None): empty spans, zero
    and duplicate rows, and positive weights up to 9!, as the image of an
    embedding divides its columns."""
    rng = random.Random(seed)
    cases = [(0, [], None), (3, [], None), (3, [[0, 0, 0]] * 2, None), (2, [], [1, 2]), (4, [[0] * 4], [6] * 4)]
    for _ in range(40):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        bits = rng.choice([3, 3, 40])
        m = [[rng.randint(-(1 << bits), 1 << bits) for _ in range(cols)] for _ in range(rows)]
        kind = rng.randrange(3)
        if kind == 1 and rows > 1:
            m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
            m[rng.randrange(rows)] = [0] * cols
        elif kind == 2:
            m = [[x if rng.random() < 0.3 else 0 for x in row] for row in m]
        weights = None if rng.random() < 0.4 else [rng.choice([1, 2, 6, 24, 120, 5040, 362880]) for _ in range(cols)]
        cases.append((cols, m, weights))
    return cases


@pytest.mark.parametrize("seed", [13, 14])
def test_subspace_integer_form_matches_the_basis(seed):
    negative = 0
    for cols, rows, weights in integer_form_table(seed):
        space = Subspace._from_integer_rows(cols, column_weighted(rows, weights, cols))
        divided = [[Fraction(x, w) for x, w in zip(row, weights or [1] * cols)] for row in rows]
        assert space == Subspace(cols, divided)
        got = (space._pivots, space._den, space._columns, space._free)
        assert got == reference_integer_form(space)
        # The elimination's primitive rows before B / E puts E > 0 at every pivot.
        pivots, echelon = _echelon(rows, cols)
        negative += any(row[c] < 0 for c, row in zip(pivots, echelon))
    assert negative >= 5


def test_image_integer_forms_match_the_basis():
    from nilmod.embed import embed_nilpotent
    from nilmod.modcore import validate
    from nilmod.polysub import random_nilpotent_module

    rng = random.Random(15)
    for n, bound in [(1, 6), (2, 4), (3, 3)]:
        for seed in range(3):
            module = random_nilpotent_module(n, bound, seed=seed)
            d = module.dim
            upper = QMatrix([[rng.randint(-2, 2) if j > i else int(i == j) for j in range(d)] for i in range(d)])
            lower = QMatrix([[rng.randint(-2, 2) if j < i else int(i == j) for j in range(d)] for i in range(d)])
            g = upper * lower
            conjugate = validate([g * m * g.inverse() for m in module.matrices])
            for mod in (module, conjugate):
                coords = embed_nilpotent(mod).image.coords
                assert (coords._pivots, coords._den, coords._columns, coords._free) == reference_integer_form(coords)


def eager_subspace_key(cols, rows):
    """The Subspace key before the integer form: the ambient dimension
    and the RREF basis as `Fraction` rows."""
    return cols, tuple(row for row in reference_rref(rows, cols) if any(row))


def respan(rng, rows):
    """Another spanning set of the same row space: the rows in reverse,
    each times a nonzero integer, and one combination of them."""
    if not rows:
        return []
    scaled = [[rng.choice([-3, -1, 2, 5]) * x for x in row] for row in rows[::-1]]
    return scaled + [[sum(rng.randint(-2, 2) * row[j] for row in rows) for j in range(len(rows[0]))]]


@pytest.mark.parametrize("seed", [18, 19])
def test_subspace_equality_matches_the_eager_key(seed):
    rng = random.Random(seed)
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    table = integer_form_table(seed) + [
        (4, eye, None),  # the full space, and again from other rows and weights
        (4, [[1, 1, 0, 0], [0, -1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 3]], [2, 3, 5, 7]),
    ]
    spans = []
    for cols, rows, weights in table:
        for twin in (rows, respan(rng, rows)):
            divided = [[Fraction(x, w) for x, w in zip(row, weights or [1] * cols)] for row in twin]
            weighted = Subspace._from_integer_rows(cols, column_weighted(twin, weights, cols))
            spans.append((weighted, eager_subspace_key(cols, divided)))
    equal = 0
    for a, key_a in spans:
        assert a.basis == key_a[1] and a.dim == len(key_a[1])
        for b, key_b in spans:
            assert (a == b) == (key_a == key_b)
            if a == b:
                assert hash(a) == hash(b)
                equal += 1
    # Beyond a == a: every twin, the zero spaces and the full spaces.
    assert equal >= 3 * len(spans), equal


# --- integer nilpotency squaring ------------------------------------------

def conjugated(rng, matrix, bits=8):
    """P matrix P^-1 for a random invertible P with rational entries."""
    d = matrix.rows
    while True:
        p = QMatrix(
            [[Fraction(rng.randint(-(1 << bits), 1 << bits), rng.randint(1, 9)) for _ in range(d)]
             for _ in range(d)],
            cols=d,
        )
        p_inv = p.inverse()
        if p_inv is not None:
            return p * matrix * p_inv


def nilpotent_jordan(blocks):
    """Block-diagonal nilpotent Jordan matrix with the given block sizes."""
    d = sum(blocks)
    rows = [[0] * d for _ in range(d)]
    start = 0
    for size in blocks:
        for k in range(size - 1):
            rows[start + k][start + k + 1] = 1
        start += size
    return QMatrix(rows, cols=d)


def _is_nilpotent_matrix(m):
    """The integer squaring test, on a rational matrix's integer rows."""
    from nilmod.modcore import _is_nilpotent_matrix

    return _is_nilpotent_matrix(_integer_rows(m.entries)[0])


@pytest.mark.parametrize(
    "blocks", [[1], [2], [3], [5], [2, 3], [4, 1, 2], [6, 1], [3, 3, 3, 3]]
)
def test_is_nilpotent_matrix_on_dense_conjugates(blocks):
    rng = random.Random(sum(blocks) * 31 + len(blocks))
    jordan = nilpotent_jordan(blocks)
    d = jordan.rows
    for _ in range(3):
        dense = conjugated(rng, jordan)
        assert any(x.denominator != 1 for row in dense.entries for x in row) or d == 1
        assert _is_nilpotent_matrix(dense)
        i = rng.randrange(d)
        bumped = [list(row) for row in dense.entries]
        bumped[i][i] += Fraction(rng.randint(1, 5), rng.randint(1, 7))
        # A nonzero trace rules out nilpotency.
        assert not _is_nilpotent_matrix(QMatrix(bumped, cols=d))


def unstripped_is_nilpotent(power):
    """The squaring test before content stripping, kept as the
    reference: M^(2^k) = 0 for 2^k >= dim iff M is nilpotent."""
    d = len(power)
    steps = 1
    while steps < d:
        if not any(map(any, power)):
            return True
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*power)] for row in power]
        steps *= 2
    return not any(map(any, power))


def squaring_table(seed):
    """Seeded integer matrices: zero, 1x1, already primitive, a common
    factor, and dense conjugates of J_d(0) and of J_(d-1)(0) + [2]."""
    rng = random.Random(seed)
    table = [[], [[0]], [[3]], [[-1]], [[0, 0], [0, 0]], [[0] * 3] * 3]
    table += [[[0, 1], [0, 0]], [[0, 1], [1, 0]], [[2, 4], [-1, -2]], [[6, 12], [-3, -6]], [[4, 0], [0, 0]]]
    for d in (2, 3, 5, 8, 11):
        jordan = nilpotent_jordan([d])
        shifted = [list(row) for row in nilpotent_jordan([d - 1, 1]).entries]
        shifted[-1][-1] = 2
        for m in (jordan, QMatrix(shifted, cols=d)):
            table.append(_integer_rows(conjugated(rng, m).entries)[0])
    return table


@pytest.mark.parametrize("seed", [20, 21])
def test_stripped_squaring_matches_the_unstripped_reference(seed):
    from nilmod.modcore import _is_nilpotent_matrix as stripped

    expected = [unstripped_is_nilpotent(m) for m in squaring_table(seed)]
    for share in ROUTES:
        with mock.patch.object(exactalg, "_SPARSE_SHARE", share):
            verdicts = [stripped(m) for m in squaring_table(seed)]
        assert verdicts == expected
    assert verdicts.count(True) >= 8 and verdicts.count(False) >= 8


def test_is_nilpotent_matrix_edge_cases():
    assert _is_nilpotent_matrix(QMatrix([], cols=0))
    assert _is_nilpotent_matrix(zeros(3, 3))
    assert not _is_nilpotent_matrix(QMatrix.identity(3))
    assert not _is_nilpotent_matrix(QMatrix([[0, 1], [1, 0]]))
    # Index exactly the dimension, at a dimension that is not a power of two.
    assert _is_nilpotent_matrix(nilpotent_jordan([7]))


def test_common_factor_is_the_gcd_and_stops_at_one():
    rng = random.Random(701)
    for _ in range(300):
        den = rng.choice([0, 1, 2, 6, 36, 10**12])
        rows = [[rng.choice([0, 2, 3, 6, -12, 10**6]) * rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
                for _ in range(rng.randint(0, 5))]
        assert _common_factor(den, rows) == math.gcd(den, *(x for row in rows for x in row))

    def rows_then_fail():
        yield [4, 6]
        yield [3]  # the factor is 1 now
        raise AssertionError("read past the row that made the factor 1")

    assert _common_factor(12, rows_then_fail()) == 1
    assert _common_factor(1, rows_then_fail()) == 1
    # With den = 0, the content of the rows: 0 when every entry is 0.
    assert _common_factor(0, rows_then_fail()) == 1
    assert _common_factor(0, [[0, -6], [], [4, 0]]) == 2
    assert _common_factor(0, [[0, 0], []]) == _common_factor(0, []) == 0
    # The trusted constructors divide the factor out as the checked ones do.
    assert QMatrix._trusted([[2, 4], [6, 8]], 4, 2) == QMatrix([[Fraction(1, 2), 1], [Fraction(3, 2), 2]])


class CountedDen(int):
    """A den that counts the divisions of the lcm by it."""

    divisions = []

    def __rfloordiv__(self, other):
        self.divisions.append(other)
        return int(other) // int(self)


def test_over_lcm_divides_once_per_row():
    # Each row is scaled by one factor L / den, so a row of k entries costs
    # one division of L, not k (L is 399! for the map of J_400's embedding).
    rng = random.Random(702)
    big = [2**61 - 1, 2**31 - 1, 3**41, 10**20 + 39]
    cases = [([], []), ([[]], [7]), ([[0, 0, 0], [0, 0, 0]], [4, 6])]
    for _ in range(40):
        width, height = rng.randint(1, 6), rng.randint(1, 5)
        rows = [[rng.choice([0, 0, 1, -1, 5, -12, 10**30]) * rng.randint(-3, 3) for _ in range(width)]
                for _ in range(height)]
        rows[rng.randrange(height)] = [0] * width
        dens = [rng.choice([1, 2, 6, 24, 5040, rng.choice(big)]) for _ in range(height)]
        cases.append((rows, dens))
    cases.append(([[1, -2, 3], [-4, 0, 6], [0, 0, 0]], big[:3]))
    assert math.lcm(*big[:3]) > 2**64
    for rows, dens in cases:
        CountedDen.divisions.clear()
        ints, den = _over_lcm(rows, [CountedDen(d) for d in dens])
        assert len(CountedDen.divisions) == len(rows)
        assert den == math.lcm(*dens) and type(den) is int
        # The per-entry reference: each entry over its row's den, times L.
        assert ints == [[x * (den // d) for x in row] for row, d in zip(rows, dens)]
        assert all(Fraction(y, den) == Fraction(x, d) for row, out, d in zip(rows, ints, dens) for x, y in zip(row, out))
