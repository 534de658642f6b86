"""Sparse multivariate polynomials over exact rationals.

A polynomial is a finite map from exponent multi-indices to nonzero
integer numerators over one positive denominator, coprime to them all,
as in FLINT's fmpq_poly; its rational coefficients are a view.  Every
canonical basis and serialization in the library relies on one global
monomial order, graded lexicographic with x_1 > x_2 > ... > x_n:
`exactalg.grlex_key`, which the matrix side's inverse-system pass reads
too.  Variable indices in the public API are 1-based.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import itemgetter, mul
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import Incompatible
from .exactalg import (
    Value,
    _check_var,
    _fields,
    _integer_rows,
    _split_rational,
    as_fraction,
    as_int,
    format_rational,
    grlex_key,
    multi_factorial,
)

MultiIndex = tuple[int, ...]

#: Degree of the zero polynomial.
MINUS_INFINITY = float("-inf")


def monomials_of_degree(n: int, degree: int) -> Iterator[MultiIndex]:
    """All exponent vectors of length n with total degree exactly `degree`,
    in descending lex order (none for a negative degree).  Each follows
    from the last in one step: the last entry, plus one unit from the
    rightmost other nonzero entry, moves to the entry after that one."""
    n, degree = _variable_count(n), as_int(degree)
    if degree < 0:
        return
    alpha = [degree] + [0] * (n - 1)
    while True:
        yield tuple(alpha)
        i = n - 2
        while i >= 0 and not alpha[i]:
            i -= 1
        if i < 0:
            return
        alpha[-1], alpha[i], alpha[i + 1] = 0, alpha[i] - 1, alpha[-1] + 1


def monomials_up_to_degree(n: int, bound: int) -> Iterator[MultiIndex]:
    n, bound = _variable_count(n), as_int(bound)
    for d in range(bound + 1):
        yield from monomials_of_degree(n, d)


def _box(alpha: MultiIndex) -> Iterator[MultiIndex]:
    """Every beta <= alpha componentwise, in lex order."""
    return product(*(range(a + 1) for a in alpha))


def lower_set_closure(indices: Iterable[MultiIndex]) -> set[MultiIndex]:
    """Downward closure under componentwise <=."""
    closed: set[MultiIndex] = set()
    for alpha in indices:
        closed.update(_box(alpha))
    return closed


def is_lower_set(indices: Iterable[MultiIndex]) -> bool:
    index_set = set(indices)
    for alpha in index_set:
        for i, a in enumerate(alpha):
            if a > 0 and alpha[:i] + (a - 1,) + alpha[i + 1 :] not in index_set:
                return False
    return True


class Poly(Value):
    """Sparse polynomial: nonzero integer numerators `_nums` over one
    positive denominator `_den` coprime to them, the form that equality,
    hashing and every kernel read.  `terms` is a `Fraction` view."""

    __slots__ = ("n", "_nums", "_den", "_terms")

    def __init__(self, n: int, terms: Optional[Mapping[MultiIndex, object]] = None):
        n = _variable_count(n)
        clean = {_exponent(alpha, n): as_fraction(c) for alpha, c in (terms or {}).items()}
        self._store(n, *_integer_coeffs(clean))

    def _store(self, n: int, nums: dict[MultiIndex, int], den: int) -> None:
        g = math.gcd(den, *nums.values()) if den > 1 else 1
        if g > 1 or 0 in nums.values():
            nums = {alpha: c // g for alpha, c in nums.items() if c}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den // g)
        object.__setattr__(self, "_terms", None)

    @classmethod
    def _trusted(cls, n: int, nums: dict[MultiIndex, int], den: int) -> "Poly":
        """nums / den, for integers at length-n exponents and den > 0, in a
        dict no one changes afterwards, with zeros and the common factor
        dropped.  Only library code that computed nums from checked values
        may call it; input goes through `Poly(n, terms)`."""
        out = object.__new__(cls)
        out._store(n, nums, den)
        return out

    @classmethod
    def _over_lcm(cls, n: int, terms: Mapping[MultiIndex, tuple[int, int]]) -> "Poly":
        """The polynomial with coefficient num / den at alpha, for terms
        alpha -> (num, den), den nonzero, taken over the lcm of the dens."""
        den = math.lcm(*(d for _, d in terms.values()))
        return cls._trusted(n, {alpha: c * (den // d) for alpha, (c, d) in terms.items()}, den)

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls._trusted(_variable_count(n), {}, 1)

    @classmethod
    def one(cls, n: int) -> "Poly":
        return cls(n, {(0,) * _variable_count(n): 1})

    @classmethod
    def constant(cls, n: int, c) -> "Poly":
        return cls(n, {(0,) * _variable_count(n): c})

    @classmethod
    def monomial(cls, n: int, alpha: MultiIndex) -> "Poly":
        n = _variable_count(n)
        return cls(n, {_exponent(alpha, n): 1})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        # The count before the index: n < 1 is a bad count, not an empty range.
        n = _variable_count(n)
        _check_var(n, i)
        return cls(n, {tuple(int(k == i - 1) for k in range(n)): 1})

    @property
    def terms(self) -> dict[MultiIndex, Fraction]:
        """The coefficients as `Fraction`s, built on first read."""
        if self._terms is None:
            object.__setattr__(self, "_terms", {alpha: Fraction(c, self._den) for alpha, c in self._nums.items()})
        return self._terms

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def _key(self) -> tuple:
        return self.n, self._den, self._nums

    def monomials(self) -> set[MultiIndex]:
        return set(self._nums)

    def degree_in(self, i: int):
        _check_var(self.n, i)
        if not self._nums:
            return MINUS_INFINITY
        return max(alpha[i - 1] for alpha in self._nums)

    def total_degree(self):
        if not self._nums:
            return MINUS_INFINITY
        return max(sum(alpha) for alpha in self._nums)

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        _same_count(self.n, other)
        return self._plus(1, 1, other)

    def _plus(self, num: int, den: int, other: "Poly") -> "Poly":
        """self + (num/den) other, for integers num and den != 0, over the
        lcm of the denominators (positive): integer scalars, no `Fraction`."""
        lcd = math.lcm(self._den, den * other._den)
        a, b = lcd // self._den, num * (lcd // (den * other._den))
        out = {alpha: a * c for alpha, c in self._nums.items()}
        for alpha, c in other._nums.items():
            out[alpha] = out.get(alpha, 0) + b * c
        return Poly._trusted(self.n, out, lcd)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other) if isinstance(other, Poly) else NotImplemented

    def __neg__(self) -> "Poly":
        return Poly._trusted(self.n, {alpha: -c for alpha, c in self._nums.items()}, self._den)

    def scale(self, c) -> "Poly":
        c = as_fraction(c)
        return Poly._trusted(self.n, {alpha: c.numerator * v for alpha, v in self._nums.items()}, self._den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, Poly):
            return truncated_product(self, other, self.total_degree() + other.total_degree())
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def partial(self, i: int) -> "Poly":
        """Exact partial derivative with respect to x_i (1-based)."""
        _check_var(self.n, i)
        k = i - 1
        out: dict[MultiIndex, int] = {}
        for alpha, c in self._nums.items():
            if alpha[k] == 0:
                continue
            beta = alpha[:k] + (alpha[k] - 1,) + alpha[k + 1 :]
            out[beta] = c * alpha[k]
        return Poly._trusted(self.n, out, self._den)

    def __repr__(self) -> str:
        if not self._nums:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=grlex_key, reverse=True):
            c = self.terms[alpha]
            factors = [
                f"x{i + 1}" + (f"^{a}" if a > 1 else "")
                for i, a in enumerate(alpha)
                if a > 0
            ]
            if not factors:
                parts.append(format_rational(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(format_rational(c) + "*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def to_json(self) -> list[dict]:
        return [
            {"exps": list(alpha), "coef": format_rational(self.terms[alpha])}
            for alpha in sorted(self.terms, key=grlex_key, reverse=True)
        ]

    @classmethod
    def from_json(cls, data, n: int) -> "Poly":
        n = _variable_count(n)
        if not isinstance(data, list):
            raise ValueError("polynomial JSON must be a list of terms")
        terms: dict[MultiIndex, tuple[int, int]] = {}
        for item in data:
            exps, coef = _fields(item, "polynomial term", "exps", "coef")
            alpha = _exponent(exps, n)
            if alpha in terms:
                raise ValueError(f"duplicate exponent vector {alpha}")
            num, den = _split_rational(coef)
            if num == 0:
                raise ValueError("zero coefficient in polynomial JSON")
            terms[alpha] = num, den
        return cls._over_lcm(n, terms)


def truncated_product(p: Poly, q: Poly, bound) -> Poly:
    """The terms of p * q of total degree at most `bound`, which is
    `MINUS_INFINITY` when an operand is zero.

    This is the product of K[x] and, read with x_i as d_i, the
    composition of truncated operator series.  With p = P/D_1 and
    q = Q/D_2, the integer products P_a Q_b are summed per output
    monomial, over D_1 D_2, at packed keys key(a) + key(b).  The longer
    factor's terms are visited in ascending degree, so each term of the
    other stops at the first one that overshoots the bound.
    """
    _same_count(p.n, q)
    if bound < 0:
        return Poly._trusted(p.n, {}, 1)
    if len(p._nums) > len(q._nums):
        p, q = q, p
    pack, unpack, _, _ = _packing(p.n, bound)
    qs = _by_degree(q._nums, pack, bound)
    out: dict[int, int] = {}
    for a, ca in p._nums.items():
        room = bound - sum(a)
        if room < 0:
            continue
        ka = pack(a)
        for kb, d, cb in qs:
            if d > room:
                break
            g = ka + kb
            out[g] = out.get(g, 0) + ca * cb
    return Poly._trusted(p.n, dict(zip(map(unpack, out), out.values())), p._den * q._den)


def potential(fs: Sequence[Poly], n: int) -> Poly:
    """The polynomial h with dh/dx_i = fs[i-1] for i = 1..len(fs).

    Mixed partials are checked first; the witness is the lexicographically
    first failing pair.  The output is normalized so that every term
    involves one of x_1..x_k — in particular the constant term is zero —
    which pins down the one representative of the solution class.
    """
    n, k = _variable_count(n), len(fs)
    if k > n:
        raise ValueError("more prescribed derivatives than variables")
    _same_count(n, *fs)
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if fs[i - 1].partial(j) != fs[j - 1].partial(i):
                raise Incompatible(i, j)
    # A term c x^beta of h puts beta_i c at x^(beta - e_i) in f_i, so h's
    # coefficient at beta is f_i[beta - e_i] / beta_i for the first i
    # with beta_i > 0: f_i's terms free of x_1..x_(i-1), one step up in x_i.
    terms: dict[MultiIndex, tuple[int, int]] = {}
    for i, f in enumerate(fs):
        for gamma, c in f._nums.items():
            if not any(gamma[:i]):
                terms[gamma[:i] + (gamma[i] + 1,) + gamma[i + 1 :]] = (c, f._den * (gamma[i] + 1))
    return Poly._over_lcm(n, terms)


def _integer_coeffs(coeffs: Mapping[MultiIndex, Fraction]) -> tuple[dict[MultiIndex, int], int]:
    """Rational input coefficients as (integer numerators, D) with
    coeffs == numerators / D, D the least common denominator: the one
    row of `exactalg._integer_rows`."""
    (row,), den = _integer_rows([coeffs.values()])
    return dict(zip(coeffs, row)), den


def _by_degree(terms: Mapping[MultiIndex, object], pack, bound: int) -> list[tuple[int, int, object]]:
    """(pack(alpha), |alpha|, c_alpha) for the terms up to degree bound, in
    ascending degree, so a loop up to a degree can stop at the first above."""
    return sorted([(pack(a), d, c) for a, c in terms.items() if (d := sum(a)) <= bound], key=itemgetter(1))


@lru_cache(maxsize=128)
def _packing(n: int, bound: int):
    """Keys for the exponents of length n and total degree <= bound, one
    integer each: (pack, unpack, weights, H), weights[i] = key(e_(i+1)).

    Each exponent is a field of w = bound.bit_length() + 1 bits, x_1 in
    the top one, and H is the top bit of every field.  Entries are at
    most bound < 2^(w-1), so no field carries into or borrows from the
    next, and for exponents up to the bound:
    - key(a + b) = key(a) + key(b) whenever |a + b| <= bound;
    - g <= b iff (key(b) + H - key(g)) & H == H, and then key(b - g) is
      that value minus H;
    - within one degree, key order is lex order.
    An exponent above the bound can spill into the next field and
    collide with another key, so kernels pack none.  The helpers are
    pure, so one set is kept per (n, bound).
    """
    w = bound.bit_length() + 1
    shifts = range(w * (n - 1), -1, -w)
    weights = tuple(1 << s for s in shifts)
    mask = (1 << w) - 1

    def pack(alpha: MultiIndex) -> int:
        return sum(map(mul, alpha, weights))

    def unpack(key: int) -> MultiIndex:
        alpha = []
        for s in shifts:
            alpha.append(key >> s & mask)
        return tuple(alpha)

    return pack, unpack, weights, sum(weights) << (w - 1)


def _is_image_table(series: Poly, degree: int, table: Mapping[MultiIndex, Poly], facts: Sequence[int]) -> bool:
    """Whether the table (alpha -> image in `monomials_up_to_degree` order,
    alpha! in facts) is `diffop.monomial_images` of the series c = N/D:
    each gamma in supp c is pushed onto each delta with |gamma + delta| <=
    degree, and x^(gamma + delta) must have N_gamma (gamma + delta)!/(D
    delta!) at x^delta, one cross-multiplication; a term total of
    sum_gamma C(n + degree - |gamma|, n) leaves no room for others."""
    n, nums = series.n, series._nums
    if sum(len(p._nums) for p in table.values()) != sum(math.comb(n + degree - sum(g), n) for g in nums):
        return False
    pack = _packing(n, degree)[0]
    rows = {pack(alpha): (p._nums, f * p._den) for (alpha, p), f in zip(table.items(), facts)}
    deltas = [(k, delta, series._den * f) for k, delta, f in zip(rows, table, facts)]
    for gamma, c in nums.items():
        key = pack(gamma)
        for k, delta, weight in deltas[: math.comb(n + degree - sum(gamma), n)]:
            terms, top = rows[key + k]
            if terms.get(delta, 0) * weight != c * top:
                return False
    return True


# --- the input rules: each checked here and nowhere else -----------------
# (`_fields` and `_check_var`, which the matrix side reads too, are `exactalg`'s)

def _variable_count(n) -> int:
    """A variable count: an integer, not a bool, at least 1."""
    n = as_int(n)
    if n < 1:
        raise ValueError("variable count must be at least 1")
    return n


def _same_count(n: int, *values) -> None:
    """Every value (anything with an `n`) has the variable count n."""
    for value in values:
        if value.n != n:
            raise ValueError("variable count mismatch")


def _exponent(alpha, n: int) -> MultiIndex:
    """An exponent vector in N^n: a sequence of n integers, none a bool or
    negative."""
    try:
        alpha = tuple(alpha)
        bad = len(alpha) != n or any(isinstance(a, bool) or not isinstance(a, int) or a < 0 for a in alpha)
    except TypeError:  # no sequence
        bad = True
    if bad:
        raise ValueError(f"bad exponent vector {alpha} for n={n}")
    return alpha


def _truncation(trunc) -> int:
    """A truncation degree: an integer, not a bool, at least 0."""
    trunc = as_int(trunc)
    if trunc < 0:
        raise ValueError("truncation degree must be non-negative")
    return trunc
