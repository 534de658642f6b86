"""Exact linear algebra over the rationals.

Matrices, vectors and subspaces take and return `fractions.Fraction`
entries: products, ranks, kernels, inverses and determinants, and
subspaces held as canonical reduced row-echelon bases with membership
and coordinates.  Inside, the loops run on integer rows over one common
denominator, so no gcd is paid per multiply or add.  Elimination is
fraction-free (Gauss-Jordan, each row kept primitive; Bareiss for
determinants), and results are turned back into `Fraction`s once, at
the end.  A subspace keeps its elimination's integer form, pivots,
common denominator and integer columns, beside its `Fraction` basis, so
membership, coordinates and callers on integer rows never convert the
basis back.  Everything is exact: no floats, no tolerances.  One
elimination runs modulo a prime, and it only chooses: a caller that
builds on its answer certifies the result exactly.  All values are
immutable after construction and all operations are pure functions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")
_ZERO = Fraction(0)


def format_rational(x: Fraction) -> str:
    """Render as "p/q", or just "p" when the denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    """Parse the "p/q" wire format (sign on the numerator only)."""
    if not isinstance(s, str) or not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(s)


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


class Immutable:
    """Base of the immutable types: fields are set once, in the
    constructor, through object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Value(Immutable):
    """An immutable value: equal when of the same type with equal
    `_key()`, hashed by that key.  Fields derived from the key stay out
    of it."""

    __slots__ = ()

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def vector(entries: Iterable) -> Vector:
    return tuple(as_fraction(x) for x in entries)


# --- the integer core --------------------------------------------------

def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Rational rows as (integer rows, D) with rows == integer rows / D,
    where D is the least common denominator of all entries."""
    den = lcm(*{x.denominator for row in rows for x in row})
    if den == 1:
        return [[x.numerator for x in row] for row in rows], 1
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


def _int_matmul(rows: Sequence[Sequence[int]], columns: Sequence[Sequence[int]]) -> list[list[int]]:
    """Integer product: entry (i, j) is the dot product of rows[i] with
    columns[j], so pass the columns of the right factor."""
    return [[sum(map(mul, row, col)) for col in columns] for row in rows]


def _columns(rows: Sequence[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """The columns of a matrix given by its rows (width for no rows)."""
    return list(zip(*rows)) if rows else [()] * width


def _fraction_row(row: Sequence[int], den: int) -> Vector:
    return tuple(Fraction(x, den) if x else _ZERO for x in row)


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


def _kernel_line_mod(rows: Sequence[Sequence[int]], cols: int) -> Optional[list[int]]:
    """The solutions of rows . x = 0 modulo _PRIME, for integer rows of
    width cols: a spanning vector of residues when they form a line,
    else None.

    A primitive integer solution reduces to a nonzero one, so a line
    here bounds the exact kernel's dimension by one, and the line is the
    exact one mod P whenever that has dimension one.  Forward
    elimination until cols - 1 pivots, back-substitution for the line
    they leave, and then one dot product checks each remaining row.
    """
    p = _PRIME
    echelon: dict[int, list[int]] = {}  # pivot column -> row, 1 there and 0 before
    k = 0
    while len(echelon) < cols - 1 and k < len(rows):
        r = [x % p for x in rows[k]]
        k += 1
        for c in range(cols):
            if not r[c]:
                continue
            prow = echelon.get(c)
            if prow is None:
                inverse = pow(r[c], -1, p)
                echelon[c] = [x * inverse % p for x in r]
                break
            f = r[c]
            r[c:] = [(x - f * y) % p for x, y in zip(r[c:], prow[c:])]
    if len(echelon) != cols - 1:
        return None
    (free,) = set(range(cols)) - set(echelon)
    line = [0] * cols
    line[free] = 1
    for c in sorted(echelon, reverse=True):
        line[c] = -sum(map(mul, echelon[c][c + 1 :], line[c + 1 :])) % p
    if any(sum(map(mul, row, line)) % p for row in rows[k:]):
        return None
    return line


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
    """Dense row-major matrix of exact rationals."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence], cols: Optional[int] = None):
        data = tuple(tuple(as_fraction(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
        else:
            width = cols if cols is not None else 0
        if cols is not None and width != cols:
            raise ValueError("explicit column count disagrees with rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "entries", data)

    @classmethod
    def _trusted(cls, rows: Sequence[Vector], cols: int) -> "QMatrix":
        """A matrix of rows that are already `Fraction` tuples of width cols."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", len(rows))
        object.__setattr__(out, "cols", cols)
        object.__setattr__(out, "entries", tuple(rows))
        return out

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        zero = Fraction(0)
        return cls([[zero] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, d: int) -> "QMatrix":
        return cls(
            [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)],
            cols=d,
        )

    @classmethod
    def from_columns(cls, columns: Sequence[Vector], rows: Optional[int] = None) -> "QMatrix":
        if not columns:
            return cls([], cols=0) if rows is None else cls([[] for _ in range(rows)], cols=0)
        height = len(columns[0])
        return cls([[col[i] for col in columns] for i in range(height)], cols=len(columns))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _key(self) -> tuple:
        return self.rows, self.cols, self.entries

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(format_rational(x) for x in row) for row in self.entries
        )
        return f"QMatrix({self.rows}x{self.cols}: {body})"

    def __add__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return QMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        self._check_same_shape(other)
        return QMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            cols=self.cols,
        )

    def __neg__(self) -> "QMatrix":
        return QMatrix([[-x for x in row] for row in self.entries], cols=self.cols)

    def scale(self, c) -> "QMatrix":
        c = as_fraction(c)
        return QMatrix([[c * x for x in row] for row in self.entries], cols=self.cols)

    def __mul__(self, other):
        if isinstance(other, QMatrix):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        a, da = _integer_rows(self.entries)
        b, db = _integer_rows(other.entries)
        product = _int_matmul(a, _columns(b, other.cols))
        return QMatrix._trusted([_fraction_row(row, da * db) for row in product], other.cols)

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product (column-vector convention)."""
        v = vector(v)
        if len(v) != self.cols:
            raise ValueError("vector length differs from column count")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.entries)

    def _check_same_shape(self, other: "QMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def rank(self) -> int:
        return len(_rref_int(_integer_rows(self.entries)[0], self.cols)[0])

    def kernel(self) -> "Subspace":
        """The solution space of m.x = 0 as a canonical subspace."""
        return _integer_kernel(_integer_rows(self.entries)[0], self.cols)

    def inverse(self) -> Optional["QMatrix"]:
        """Exact inverse, or None when singular."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        d = self.rows
        ints, den = _integer_rows(self.entries)
        # [A | I] scaled by den; its RREF is [I | A^-1] exactly when A is
        # invertible, and otherwise has a pivot in the right half.
        aug = [row + [den if i == j else 0 for j in range(d)] for i, row in enumerate(ints)]
        pivots, reduced = _rref_int(aug, 2 * d)
        if pivots and pivots[-1] >= d:
            return None
        return QMatrix._trusted([_fraction_row(row[d:], row[i]) for i, row in enumerate(reduced)], d)

    def det(self) -> Fraction:
        """Exact determinant by Bareiss fraction-free elimination."""
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        d = self.rows
        m, den = _integer_rows(self.entries)
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
        return Fraction(sign * m[d - 1][d - 1], den**d) if d else Fraction(1)

    def to_json(self) -> list[list[str]]:
        return [[format_rational(x) for x in row] for row in self.entries]

    @classmethod
    def from_json(cls, data) -> "QMatrix":
        if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
            raise ValueError("matrix JSON must be a nested array")
        return cls([[parse_rational(x) for x in row] for row in data])


class Subspace(Value):
    """A linear subspace of Q^n held as a canonical RREF basis, however
    its spanning vectors were given.

    Two subspaces are equal as sets of vectors iff their stored bases are
    identical, which makes equality a structural check.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots", "_den", "_columns", "_free")

    def __init__(self, ambient_dim: int, vectors: Iterable[Sequence]):
        """The span of the vectors, each of length ambient_dim."""
        rows = [vector(v) for v in vectors]
        if any(len(v) != ambient_dim for v in rows):
            raise ValueError("vector length differs from ambient dimension")
        self._span(ambient_dim, _integer_rows(rows)[0], None)

    @classmethod
    def _from_integer_rows(
        cls, ambient_dim: int, rows: Sequence[Sequence[int]], weights: Optional[Sequence[int]] = None
    ) -> "Subspace":
        out = cls.__new__(cls)
        out._span(ambient_dim, rows, weights)
        return out

    def _span(self, ambient_dim: int, rows: Sequence[Sequence[int]], weights: Optional[Sequence[int]]) -> None:
        """The span of integer rows of length ambient_dim, entry c divided
        by the positive weights[c] if given.

        Dividing columns moves no zero, so the reduced rows divided the
        same way, each then by its pivot entry, are the RREF.  Besides
        the basis, this keeps its integer form: the basis is B / E with
        integer B, the columns of B, the pivots and the free columns.
        A primitive reduced row r over its pivot entry p has least
        denominator |p|, so E is the lcm of the pivot entries.  With
        weights, row r first becomes the integer row r[c] L / weights[c],
        L the weights' lcm, made primitive again by one gcd.
        """
        pivots, reduced = _rref_int(rows, ambient_dim)
        if weights:
            scale = lcm(*weights)
            factors = [scale // w for w in weights]
            reduced = [_primitive_row(list(map(mul, row, factors))) for row in reduced]
        den = lcm(*(row[c] for c, row in zip(pivots, reduced)))
        ints = [[x * (den // row[c]) for x in row] for c, row in zip(pivots, reduced)]
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(_fraction_row(row, row[c]) for c, row in zip(pivots, reduced)))
        object.__setattr__(self, "_pivots", tuple(pivots))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_columns", _columns(ints, ambient_dim))
        object.__setattr__(self, "_free", sorted(set(range(ambient_dim)) - set(pivots)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _key(self) -> tuple:
        return self.ambient_dim, self.basis

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
        (w,), _ = _integer_rows([v])
        coeffs = [w[c] for c in self._pivots]
        for j in self._free:
            if self._den * w[j] != sum(map(mul, coeffs, self._columns[j])):
                return None
        return tuple(v[c] for c in self._pivots)


def standard_basis_vector(ambient_dim: int, j: int) -> Vector:
    return tuple(Fraction(1 if i == j else 0) for i in range(ambient_dim))
