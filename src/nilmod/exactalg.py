"""Exact linear algebra over the rationals.

Matrices, vectors and subspaces take and return `fractions.Fraction`
entries: products, ranks, kernels, inverses and determinants, and
subspaces held as canonical reduced row-echelon bases with membership
and coordinates.  A matrix is stored in integer form, its rows over the
least common denominator of its entries, and every kernel reads that
form instead of converting at each call, so no gcd is paid per multiply
or add.  One kernel, `_matmul`, makes every product of integer matrices, the
polynomial side's products with a canonical basis included: by rows of
a sparse right factor, by columns of a dense one narrower than 16, and
by Kronecker substitution from width 16 on, each row of the factor one
integer with w-bit digits and each row product one sum of them, read
back digit by digit.  Elimination is
fraction-free (Gauss-Jordan, each row kept primitive; Bareiss for
determinants).  A subspace stores only its elimination's integer form:
the pivots, the common denominator and the integer columns of the
reduced basis.  For both, equality and hashing compare the integer form,
and the `Fraction` entries or basis are a view built on first read.
Everything is exact: no floats, no tolerances.  The one piece of code
modulo a prime P lives here too: the rank mod P, a lower bound for the
rank over the rationals, which only certifies full rank.  All values are
immutable after construction and all operations are pure functions.

Both kinds of module read a few rules from here as well: the JSON
object's required fields, the variable index, and the graded-lex
monomial order with alpha!, which the matrix side's inverse-system pass
needs as much as the polynomials do.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial, gcd, lcm
from itertools import repeat
from operator import add, lshift, mul
from typing import Iterable, Optional, Sequence

from .errors import DimensionTooLarge

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")
_ZERO = Fraction(0)


def format_rational(x: Fraction) -> str:
    """Render as "p/q", or just "p" when the denominator is 1.  A number past
    Python's limit on printing an integer, kept against CVE-2020-10735,
    raises `DimensionTooLarge`."""
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise DimensionTooLarge.past_digit_limit(reading=False) from None


def parse_rational(s: str) -> Fraction:
    """Parse the "p/q" wire format (sign on the numerator only)."""
    return Fraction(*_split_rational(s))


def _split_rational(s) -> tuple[int, int]:
    """A "p/q" literal as the integers (p, q) in lowest terms, q > 0; one
    past Python's digit limit, as `format_rational`, `DimensionTooLarge`."""
    if not isinstance(s, str) or not _RATIONAL_RE.fullmatch(s):
        raise ValueError(f"not a rational literal: {s!r}")
    num, _, den = s.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError:
        raise DimensionTooLarge.past_digit_limit(reading=True) from None
    g = gcd(num, den)
    return num // g, den // g


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise ValueError(f"expected an exact rational, got the boolean {x}")
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def as_int(x) -> int:
    """An integer read from input; bools, which Python counts as ints,
    are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def _dimension(d) -> int:
    """A dimension: an integer, not a bool, at least 0."""
    d = as_int(d)
    if d < 0:
        raise ValueError("dimension must be non-negative")
    return d


def _fields(data, what: str, *names) -> list:
    """The named fields of a JSON object, each one required."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be an object")
    for name in names:
        if name not in data:
            raise ValueError(f'{what} has no field "{name}"')
    return [data[name] for name in names]


def _check_var(n: int, i) -> None:
    """A variable index: an integer, not a bool, in 1..n."""
    if not 1 <= as_int(i) <= n:
        raise IndexError(f"variable index {i} out of range 1..{n}")


class Immutable:
    """Base of the immutable types: fields are set once, in the
    constructor, through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Value(Immutable):
    """An immutable value: equal when of the same type with equal
    `_key()`, hashed by that key, each dict field of it as the frozenset
    of its items.  Fields derived from the key stay out of it."""

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(tuple(frozenset(f.items()) if isinstance(f, dict) else f for f in self._key()))


def vector(entries: Iterable) -> Vector:
    return tuple(as_fraction(x) for x in entries)


# --- monomials ---------------------------------------------------------

def grlex_key(alpha: tuple[int, ...]):
    """Sort key realizing graded lex with x_1 > x_2 > ... > x_n."""
    return (sum(alpha), alpha)


def multi_factorial(alpha: tuple[int, ...]) -> int:
    out = 1
    for a in alpha:
        out *= factorial(a)
    return out


# --- the integer core --------------------------------------------------

def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Rational rows as (integer rows, D) with rows == integer rows / D,
    where D is the least common denominator of all entries."""
    den = lcm(*{x.denominator for row in rows for x in row})
    if den == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _width(rows: Sequence[Sequence], cols: Optional[int], axes: tuple[str, str] = ("rows", "column")) -> int:
    """The rows' common length, or cols (0 if None) for no rows; a given cols
    is a dimension and must match.  The errors name the axes as given: (the
    lines, the count)."""
    cols = None if cols is None else _dimension(cols)
    width = len(rows[0]) if rows else cols or 0
    if any(len(row) != width for row in rows):
        raise ValueError(f"ragged {axes[0]}")
    if cols is not None and width != cols:
        raise ValueError(f"explicit {axes[1]} count disagrees with {axes[0]}")
    return width


def _columns(rows: Sequence[Sequence[int]], width: int) -> tuple[tuple[int, ...], ...]:
    """The columns of a matrix given by its rows (width for no rows)."""
    return tuple(zip(*rows)) if rows else ((),) * width


_SPARSE_SHARE = Fraction(1, 4)  # largest nonzero share of a sparse matrix; crossover ~0.7-1
# Narrowest dense matrix whose products are packed.  Per product, packed over dot products was 0.37 at width 16,
# 0.48 at 12 and 0.81 at 8 (56-bit entries), 0.62 at 16 and 0.84 at 12 (4-bit); a pack costs 1.2-3 dot rows,
# which below 16 a form with few products does not win back.
_PACKED_WIDTH = 16
# Largest row entry, in bits, whose product is packed.  A digit pads each entry of M to w bits, so the
# multiplications grow with the row's entries: packed over dot products, with 32- to 448-bit entries of M, was
# mostly 0.4-0.75 at 128-bit row entries, 0.70-0.90 at 192 and 0.54-1.08 at 256 (widths 20 and 80).
_PACKED_BITS = 192


class _Packs(dict):
    """A dense matrix M of width at least `_PACKED_WIDTH`, for `_row_product`: its columns and, for each
    digit width w that products ask for, a multiple of 64, the integers P_k = sum_j M[k][j] 2^(w j), one
    per row, and the bias sum_j 2^(w j + w - 1), built by the first product that asks for w and kept as
    long as the form."""

    __slots__ = ("columns", "bits")

    def __init__(self, rows: Sequence[Sequence[int]], width: int):
        self.columns, self.bits = _columns(rows, width), 0

    def product(self, row: Sequence[int]) -> list[int]:
        """row M as one sum of row[k] P_k (Kronecker substitution), or by dot products for a row with an
        entry past `_PACKED_BITS`.  With k rows, every |(row M)_j| <= k |row| |M| < 2^(w - 1), so after the
        bias each w-bit digit is (row M)_j + 2^(w - 1), read back from its bytes.  The bits of k |M|, and
        so w, are first read by a row that packs."""
        top = max(max(row), -min(row)).bit_length()
        if top > _PACKED_BITS:
            return [sum(map(mul, row, col)) for col in self.columns]
        if not self.bits:
            self.bits = max(max(max(c), -min(c)) for c in self.columns).bit_length() + len(row).bit_length() + 1
        w = -(-(top + self.bits) // 64) * 64
        packs, bias = self.get(w) or self._pack(w)
        step, half = w // 8, 1 << w - 1
        data = (sum(map(mul, row, packs)) + bias).to_bytes(len(self.columns) * step, "little")
        return [int.from_bytes(data[i : i + step], "little") - half for i in range(0, len(data), step)]

    def _pack(self, w: int) -> tuple[list[int], int]:
        """The P_k and the bias for digit width w, kept.  The P_k are built by halves, adjacent columns
        joined, then adjacent pairs, and so on, so that no entry is shifted past its half: at width 80 a
        shift and sum per entry took 3.2-4.6 dot-product rows."""
        level, span = list(self.columns), w
        while len(level) > 1:
            if len(level) % 2:
                level.append((0,) * len(level[0]))
            level = [list(map(add, lo, map(lshift, hi, repeat(span)))) for lo, hi in zip(level[::2], level[1::2])]
            span *= 2
        self[w] = pack = level[0], sum(1 << s for s in range(w - 1, w * len(self.columns), w))
        return pack


def _row_form(rows: Sequence[Sequence[int]], width: int) -> tuple:
    """The matrix M with these rows, of length width, for `_row_product`: (width, its rows as (column,
    entry) pairs) if at most `_SPARSE_SHARE` of its entries are nonzero, as in a canonical basis, else
    (None, its columns) below width `_PACKED_WIDTH`, where dot products win, and (None, its `_Packs`) from it on."""
    nonzero = sum(width - r.count(0) for r in rows)
    if nonzero * _SPARSE_SHARE.denominator > _SPARSE_SHARE.numerator * len(rows) * width:
        return None, _columns(rows, width) if width < _PACKED_WIDTH else _Packs(rows, width)
    return width, [[(j, x) for j, x in enumerate(r) if x] for r in rows]


def _row_product(row: Sequence[int], form: tuple) -> list[int]:
    """row M for the form of M from `_row_form`: a combination of M's rows at row's nonzero entries
    (Gustavson's row-by-row product), one dot product per column, or one packed sum."""
    width, parts = form
    if width is None:
        return [sum(map(mul, row, col)) for col in parts] if type(parts) is tuple else parts.product(row)
    new = [0] * width
    for x, pairs in zip(row, parts):
        for j, y in pairs if x else ():
            new[j] += x * y
    return new


def _matmul(left: Sequence[Sequence[int]], right: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """The product left right, for right's rows of length width: right's form applied to each row of left."""
    form = _row_form(right, width)
    return [_row_product(row, form) for row in left]


def _fraction_row(row: Sequence[int], den: int) -> Vector:
    return tuple(Fraction(x, den) if x else _ZERO for x in row)


def _over_lcm(rows: Sequence[Sequence[int]], dens: Sequence[int]) -> tuple[list[list[int]], int]:
    """Integer rows, row k over its own nonzero dens[k], as (integer rows,
    L) over L, the lcm of the dens: one division per row."""
    den = lcm(*dens)
    return [[x * f for x in row] for row, f in zip(rows, [den // d for d in dens])], den


def _common_factor(den: int, rows: Iterable[Sequence[int]]) -> int:
    """gcd(den, every entry of the rows) for den >= 0, folded row by row and
    stopped once it is 1, so a reduced form reads only its first rows.  With
    den = 0 it is the content of the rows, and 0 when every entry is 0."""
    for row in rows if den != 1 else ():
        den = gcd(den, *row)
        if den == 1:
            break
    return den


def _primitive_row(row: Sequence[int]) -> Optional[Sequence[int]]:
    """row divided by the gcd of its entries; None for a zero row."""
    content = gcd(*row)
    if content == 0:
        return None
    return row if content == 1 else [x // content for x in row]


def _combine(row: Sequence[int], prow: Sequence[int], c: int) -> Optional[Sequence[int]]:
    """row with its entry at column c cleared by the pivot row, made
    primitive; None when nothing is left."""
    g = gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    return _primitive_row([a * x - b * y for x, y in zip(row, prow)])


def _rref_int(rows: Sequence[Sequence[int]], cols: int) -> tuple[list[int], list[Sequence[int]]]:
    """Fraction-free Gauss-Jordan elimination on integer rows.

    Returns (pivots, reduced): reduced[k] is a primitive integer row,
    zero at every pivot column but pivots[k]; dividing it by its entry
    there gives row k of the reduced row-echelon form.
    """
    rest = [row for row in map(_primitive_row, rows) if row is not None]
    pivots: list[int] = []
    reduced: list[Sequence[int]] = []
    for c in range(cols):
        if not rest:
            break
        candidates = [k for k, row in enumerate(rest) if row[c]]
        if not candidates:
            continue
        # The smallest pivot keeps the multipliers, and so the rows, small.
        prow = rest.pop(min(candidates, key=lambda k: abs(rest[k][c])))
        rest = [
            new
            for new in (_combine(row, prow, c) if row[c] else row for row in rest)
            if new is not None
        ]
        reduced = [_combine(row, prow, c) if row[c] else row for row in reduced]
        reduced.append(prow)
        pivots.append(c)
    return pivots, reduced


# A prime below 2**30, so that every residue is one Python digit.
_PRIME = 2**30 - 35


def _rank_mod(rows: Sequence[Sequence[int]], cols: int) -> int:
    """The rank modulo _PRIME of integer rows of width cols: a lower
    bound for the rank over the rationals, since a minor nonzero mod P is
    nonzero.  Forward elimination that reduces only each leading entry
    mod P, against pivot rows kept as their tails, scaled to pivot 1."""
    p = _PRIME
    tails: dict[int, list[int]] = {}  # pivot column -> the reduced row after it
    for row in rows:
        r = list(row)
        for c in range(cols):
            f = r[c] % p
            if not f:
                continue
            tail = tails.get(c)
            if tail is None:
                inverse = pow(f, -1, p)
                tails[c] = [x * inverse % p for x in r[c + 1 :]]
                break
            r[c + 1 :] = [x - f * y for x, y in zip(r[c + 1 :], tail)]
    return len(tails)


def _integer_kernel(rows: Sequence[Sequence[int]], cols: int) -> "Subspace":
    """The solutions of rows . x = 0, for integer rows of width cols, as
    a canonical subspace."""
    pivots, reduced = _rref_int(rows, cols)
    # Free column f gives the solution with x_f = 1 and x_c = -R[k][f]
    # at each pivot c = pivots[k], scaled by the lcm of the pivot entries.
    scale = lcm(*(row[c] for c, row in zip(pivots, reduced)))
    multipliers = [scale // row[c] for c, row in zip(pivots, reduced)]
    vectors = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = scale
        for c, row, m in zip(pivots, reduced, multipliers):
            v[c] = -row[f] * m
        vectors.append(v)
    return Subspace._from_integer_rows(cols, vectors)


class QMatrix(Value):
    """Dense row-major matrix of exact rationals.

    Stored as integer rows `_ints` over `_den`, the least common
    denominator of all entries, so entry (i, j) is _ints[i][j] / _den.
    That form is canonical: equality and hashing compare it, and every
    kernel reads it.  The `Fraction` rows are a view built on first read.
    """

    __slots__ = ("rows", "cols", "_ints", "_den", "_entries")

    def __init__(self, entries: Sequence[Sequence], cols: Optional[int] = None):
        data = [[as_fraction(x) for x in row] for row in entries]
        self._store(*_integer_rows(data), _width(data, cols))

    def _store(self, ints: Sequence[Sequence[int]], den: int, cols: int) -> None:
        object.__setattr__(self, "rows", len(ints))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_ints", tuple(map(tuple, ints)))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_entries", None)

    @classmethod
    def _trusted(cls, ints: Sequence[Sequence[int]], den: int, cols: int) -> "QMatrix":
        """The matrix ints / den, for integer rows of width cols and a
        positive den, with the common factor of den and ints divided out."""
        g = _common_factor(den, ints)
        out = object.__new__(cls)
        out._store([[x // g for x in row] for row in ints] if g > 1 else ints, den // g, cols)
        return out

    @classmethod
    def identity(cls, d: int) -> "QMatrix":
        d = _dimension(d)
        return cls._trusted([[int(i == j) for j in range(d)] for i in range(d)], 1, d)

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: Optional[int] = None) -> "QMatrix":
        height = _width(columns, rows, ("columns", "row"))
        return QMatrix([[col[i] for col in columns] for i in range(height)], cols=len(columns))

    @property
    def entries(self) -> tuple[Vector, ...]:
        """The rows as `Fraction`s, built on first read."""
        if self._entries is None:
            object.__setattr__(self, "_entries", tuple(_fraction_row(row, self._den) for row in self._ints))
        return self._entries

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _key(self) -> tuple:
        return self.rows, self.cols, self._den, self._ints

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(format_rational, row)) for row in self.entries)
        return f"QMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "QMatrix") -> "QMatrix":
        if not isinstance(other, QMatrix):
            return NotImplemented
        self._check_same_shape(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        rows = [[a * x + b * y for x, y in zip(ra, rb)] for ra, rb in zip(self._ints, other._ints)]
        return QMatrix._trusted(rows, den, self.cols)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return self + (-other) if isinstance(other, QMatrix) else NotImplemented

    def __neg__(self) -> "QMatrix":
        return QMatrix._trusted([[-x for x in row] for row in self._ints], self._den, self.cols)

    def scale(self, c) -> "QMatrix":
        c = as_fraction(c)
        rows = [[c.numerator * x for x in row] for row in self._ints]
        return QMatrix._trusted(rows, self._den * c.denominator, self.cols)

    def __mul__(self, other):
        return self.matmul(other) if isinstance(other, QMatrix) else self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        return QMatrix._trusted(_matmul(self._ints, other._ints, other.cols), self._den * other._den, other.cols)

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product (column-vector convention)."""
        v = vector(v)
        if len(v) != self.cols:
            raise ValueError("vector length differs from column count")
        (w,), den = _integer_rows([v])
        return _fraction_row([sum(map(mul, row, w)) for row in self._ints], self._den * den)

    def _check_same_shape(self, other: "QMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rank(self) -> int:
        return len(_rref_int(self._ints, self.cols)[0])

    def kernel(self) -> "Subspace":
        """The solution space of m.x = 0 as a canonical subspace."""
        return _integer_kernel(self._ints, self.cols)

    def inverse(self) -> Optional["QMatrix"]:
        """Exact inverse, or None when singular."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        d, den = self.rows, self._den
        # [A | I] scaled by den; its RREF is [I | A^-1] exactly when A is
        # invertible, and otherwise has a pivot in the right half.
        aug = [[*row, *(den if i == j else 0 for j in range(d))] for i, row in enumerate(self._ints)]
        pivots, reduced = _rref_int(aug, 2 * d)
        if pivots and pivots[-1] >= d:
            return None
        return QMatrix._trusted(*_over_lcm([row[d:] for row in reduced], [row[i] for i, row in enumerate(reduced)]), d)

    def det(self) -> Fraction:
        """Exact determinant by Bareiss fraction-free elimination."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        d = self.rows
        m = [list(row) for row in self._ints]
        sign, prev = 1, 1
        for k in range(d - 1):
            if m[k][k] == 0:
                swap = next((r for r in range(k + 1, d) if m[r][k] != 0), None)
                if swap is None:
                    return _ZERO
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            pivot, prow = m[k][k], m[k]
            for r in range(k + 1, d):
                row, f = m[r], m[r][k]
                # Sylvester's identity: each quotient is an exact minor.
                m[r] = [0] * (k + 1) + [
                    (pivot * row[j] - f * prow[j]) // prev for j in range(k + 1, d)
                ]
            prev = pivot
        return Fraction(sign * m[d - 1][d - 1], self._den**d) if d else Fraction(1)

    def to_json(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, data) -> "QMatrix":
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError("matrix JSON must be a nested array")
        # Reduced literals over the lcm of their denominators need no gcd.
        pairs = [[_split_rational(x) for x in row] for row in data]
        den = lcm(*(q for row in pairs for _, q in row))
        out = cls.__new__(cls)
        out._store([[p * (den // q) for p, q in row] for row in pairs], den, _width(pairs, None))
        return out


class Subspace(Value):
    """A linear subspace of Q^n held as a canonical RREF basis, however
    its spanning vectors were given.

    The basis is stored as B / E: integer columns of B and the least
    common denominator E of the RREF.  Both are determined by the
    subspace, so two subspaces are equal as sets of vectors iff their
    (E, columns) are identical, which makes equality a structural check.
    """

    __slots__ = ("ambient_dim", "_pivots", "_den", "_columns", "_free", "_basis")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]):
        """The span of the vectors, each of length ambient_dim."""
        ambient_dim = _dimension(ambient_dim)
        rows = [vector(v) for v in vectors]
        if any(len(v) != ambient_dim for v in rows):
            raise ValueError("vector length differs from ambient dimension")
        self._store_reduced(ambient_dim, *_rref_int(_integer_rows(rows)[0], ambient_dim))

    @classmethod
    def _from_integer_rows(cls, ambient_dim: int, rows: Sequence[Sequence[int]]) -> "Subspace":
        """The span of integer rows of length ambient_dim: one elimination."""
        out = cls.__new__(cls)
        out._store_reduced(ambient_dim, *_rref_int(rows, ambient_dim))
        return out

    @classmethod
    def _whole(cls, d: int) -> "Subspace":
        """All of Q^d, with no elimination: the identity over E = 1, as elimination makes it."""
        out = cls.__new__(cls)
        out._store(d, range(d), 1, tuple((0,) * j + (1,) + (0,) * (d - 1 - j) for j in range(d)))
        return out

    def _store_reduced(self, ambient_dim: int, pivots: Sequence[int], reduced: Sequence[Sequence[int]]) -> None:
        """Keep the pivots and the primitive reduced rows that `_rref_int`
        returns as B / E with integer B: the columns of B, the pivots and
        the free columns.  A primitive reduced row r over its pivot entry
        p has least denominator |p|, so E is the lcm of the pivot entries."""
        ints, den = _over_lcm(reduced, [row[c] for c, row in zip(pivots, reduced)])
        self._store(ambient_dim, pivots, den, _columns(ints, ambient_dim))

    def _store(self, ambient_dim: int, pivots: Iterable[int], den: int, columns: tuple) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "_pivots", tuple(pivots))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_free", sorted(set(range(ambient_dim)) - set(self._pivots)))
        object.__setattr__(self, "_basis", None)

    @property
    def basis(self) -> tuple[Vector, ...]:
        """The RREF basis as `Fraction` rows, built on first read."""
        if self._basis is None:
            object.__setattr__(self, "_basis", tuple(_fraction_row(row, self._den) for row in zip(*self._columns)))
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def _key(self) -> tuple:
        return self.ambient_dim, self._den, self._columns

    def __repr__(self) -> str:
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def coordinates_of(self, v: Sequence) -> Optional[Vector]:
        """Coordinates of v in the RREF basis, or None if v is outside.

        Because the basis is RREF, the coefficient of row r is just the
        entry of v at that row's pivot column, and v lies in the span iff
        its other entries agree with that combination.
        """
        v = vector(v)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        (w,), den = _integer_rows([v])
        return self._integer_coordinates(w, den)

    def _integer_coordinates(self, w: Sequence[int], den: int) -> Optional[Vector]:
        """`coordinates_of` for the vector w / den, on integer w."""
        coeffs = self._pivot_entries(w)
        return None if coeffs is None else tuple(Fraction(x, den) for x in coeffs)

    def _pivot_entries(self, w: Sequence[int]) -> Optional[list[int]]:
        """The integer vector w's entries at the pivots, its coordinates
        times its denominator, or None if w is outside: one integer dot
        product per free column, and no `Fraction`."""
        coeffs = [w[c] for c in self._pivots]
        for j in self._free:
            if self._den * w[j] != sum(map(mul, coeffs, self._columns[j])):
                return None
        return coeffs
