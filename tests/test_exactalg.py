"""Tests for the exact rational linear algebra layer.

The independent oracle here is a second, deliberately naive Gaussian
eliminator (`naive_rank`, `naive_row_space_contains`) written against
plain lists so that elimination and kernel bugs cannot hide behind their
own implementation.
"""

import random
from fractions import Fraction

import pytest

from nilmod.exactalg import (
    _PRIME,
    QMatrix,
    Subspace,
    _columns,
    _integer_kernel,
    _integer_rows,
    _rref_int,
    _kernel_line_mod,
    format_rational,
    parse_rational,
    standard_basis_vector,
)


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


def test_parse_rational_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        x = Fraction(rng.randint(-500, 500), rng.randint(1, 60))
        assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize("bad", ["", "1/0", "1/-2", "2/4x", "1.5", "+3", "--2", "3 /2"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


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
    assert QMatrix.zeros(3, 3).kernel() == Subspace(3, QMatrix.identity(3).entries)


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
        QMatrix.zeros(2, 3).inverse()


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
def test_kernel_line_mod_finds_the_exact_line(seed):
    lines = 0
    for rows, cols in kernel_table(seed):
        exact = _integer_kernel(rows, cols)
        line = _kernel_line_mod(rows, cols)
        assert (line is not None) == (exact.dim == 1), (rows, cols)
        if line is None:
            continue
        lines += 1
        assert all(0 <= x < _PRIME for x in line) and any(line)
        # The exact line, read mod P, is a multiple of the residues.
        (s,), _ = _integer_rows(exact.basis)
        j = next(j for j, x in enumerate(line) if x)
        ratio = s[j] * pow(line[j], -1, _PRIME) % _PRIME
        assert [x % _PRIME for x in s] == [ratio * x % _PRIME for x in line]
    assert lines >= 10, lines


def test_kernel_line_mod_reads_the_rows_mod_p():
    # Entries that P divides vanish: the line can be missing, or appear
    # where the exact kernel is zero.
    assert _kernel_line_mod([[0, _PRIME], [0, 0]], 2) is None
    assert _integer_kernel([[0, _PRIME], [0, 0]], 2).dim == 1
    assert _kernel_line_mod([[_PRIME]], 1) == [1]
    assert _integer_kernel([[_PRIME]], 1).dim == 0
    # Socle (P, 1): the residues are (0, 1), the exact RREF pivot is 0.
    rows = [[_PRIME, -(_PRIME**2)], [1, -_PRIME]]
    assert _kernel_line_mod(rows, 2) == [0, 1]
    assert _integer_kernel(rows, 2).basis == ((1, Fraction(1, _PRIME)),)


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


@pytest.mark.parametrize("seed", [6, 7])
def test_integer_core_matmul_matches_reference(seed):
    rng = random.Random(seed)
    shapes = [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [tuple(rng.randint(1, 6) for _ in range(3)) for _ in range(20)]
    for rows, inner, cols in shapes:
        bits = rng.choice([3, 60])
        a = [[big_rational(rng, bits) for _ in range(inner)] for _ in range(rows)]
        b = [[big_rational(rng, bits) for _ in range(cols)] for _ in range(inner)]
        product = QMatrix(a, cols=inner) * QMatrix(b, cols=cols)
        assert (product.rows, product.cols) == (rows, cols)
        assert product.entries == tuple(reference_matmul(a, b, inner, cols))


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
        space = Subspace._from_integer_rows(cols, rows, weights)
        divided = [[Fraction(x, w) for x, w in zip(row, weights or [1] * cols)] for row in rows]
        assert space == Subspace(cols, divided)
        got = (space._pivots, space._den, space._columns, space._free)
        assert got == reference_integer_form(space)
        pivots, reduced = _rref_int(rows, cols)
        negative += any(row[c] < 0 for c, row in zip(pivots, reduced))
    assert negative >= 5


def test_image_integer_forms_match_the_basis():
    from nilmod.embed import embed_nilpotent
    from nilmod.modcore import random_nilpotent_module, validate

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


def test_is_nilpotent_matrix_edge_cases():
    assert _is_nilpotent_matrix(QMatrix([], cols=0))
    assert _is_nilpotent_matrix(QMatrix.zeros(3, 3))
    assert not _is_nilpotent_matrix(QMatrix.identity(3))
    assert not _is_nilpotent_matrix(QMatrix([[0, 1], [1, 0]]))
    # Index exactly the dimension, at a dimension that is not a power of two.
    assert _is_nilpotent_matrix(nilpotent_jordan([7]))
