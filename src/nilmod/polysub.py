"""Polynomial submodules of T_n, the polynomials in n variables with x_i
acting as d/dx_i, and their maps.

The polynomials form a module over K[d], x_i acting as d_i, and the
submodule generated by g is K[d] g: the span of the d^beta g with beta
in the lower-set closure of g's exponents, every other d^beta g being 0.

A derivative-closed subspace is built by one core on integer rows over
its monomials: an elimination and a pivot at the origin.  The closure
pass, where d_i shifts columns, checks outside input once, in the
public constructor; the library's own spans are closed by construction.
Every product with the integer basis B, the closure check's and the
image polynomials', runs through the one integer product, `_matmul`;
one member, from `from_coordinates` or `image_poly`, is one row product
on B's stored columns, with no row form built.

This layer also holds what joins the two kinds of module: the
exponentially weighted copies that `embed_general` lands in, maps
between modules of either kind, the matrix module of a submodule's
derivative action, and seeded random generators for tests.  The matrix
side, `modcore`, loads none of it.
"""

from __future__ import annotations

import random
from math import comb
from typing import Optional, Sequence, Union

from .errors import DimensionTooLarge
from .exactalg import (
    Immutable,
    QMatrix,
    Subspace,
    Value,
    Vector,
    _columns,
    _fields,
    _integer_rows,
    _matmul,
    _row_product,
    as_int,
    format_rational,
    grlex_key,
    vector,
)
from .modcore import FDModule, twist
from .multipoly import (
    MultiIndex,
    Poly,
    _same_count,
    _variable_count,
    monomials_up_to_degree,
)


class PolySubmodule(Value):
    """A derivative-closed subspace of polynomials containing the constants.

    Stored canonically: the list of monomials occurring in any member
    (descending monomial order) and the RREF basis of coefficient
    vectors over that list.  Equality of the stored data is equality of
    the subspaces.  There are two ways in, and both run one core on
    integer rows over that list, `_span`, which eliminates them: the
    public constructor, and so `from_json`, which then runs the closure
    check, and `_trusted`, for spans that are closed by construction,
    the extension's rows included.  The basis polynomials are a view of
    `coords`' integer form, built on first read.
    """

    __slots__ = ("n", "monomial_list", "coords", "_position", "_basis")

    def __init__(self, n: int, polys: Sequence[Poly]):
        polys = tuple(polys)
        _same_count(n, *polys)
        self._span(n, *_poly_rows(polys))
        # The closure check, run on outside input only (see `_derivatives`).
        den, columns, free = self.coords._den, self.coords._columns, self.coords._free
        for at_pivots, moved in self._derivatives():
            for f, span in zip(free, _matmul([columns[f] for f in free], at_pivots, self.dim) if free else ()):
                if span != [den * x for x in moved[f]]:
                    raise ValueError("subspace is not closed under differentiation")

    @classmethod
    def _trusted(cls, n, monomial_list, rows) -> "PolySubmodule":
        """The span of integer rows (None: of all the monomials) that is closed
        under differentiation by construction: `_span` without the closure check."""
        out = cls.__new__(cls)
        out._span(n, tuple(monomial_list), rows)
        return out

    def _span(self, n, monomial_list, rows) -> None:
        """The core: the span of the integer rows, row[c] being the
        coefficient at monomial_list[c], a descending list of monomials
        each nonzero in some row, or rows None for all of their span.  One
        elimination (none for rows None), then the constants check."""
        width = len(monomial_list)
        coords = Subspace._whole(width) if rows is None else Subspace._from_integer_rows(width, rows)
        object.__setattr__(self, "n", _variable_count(n))
        object.__setattr__(self, "monomial_list", monomial_list)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_position", {alpha: c for c, alpha in enumerate(monomial_list)})
        object.__setattr__(self, "_basis", None)
        # The origin is the least monomial: 1 is inside iff the last column is a pivot.
        pivots = coords._pivots
        if not pivots or any(monomial_list[pivots[-1]]):
            raise ValueError("a polynomial submodule must contain the constants")

    @property
    def basis(self) -> tuple[Poly, ...]:
        """The canonical basis B / E as polynomials, built on first read."""
        if self._basis is None:
            den = self.coords._den
            basis = tuple(
                Poly._trusted(self.n, dict(zip(self.monomial_list, row)), den) for row in zip(*self.coords._columns)
            )
            object.__setattr__(self, "_basis", basis)
        return self._basis

    @property
    def dim(self) -> int:
        return self.coords.dim

    def _key(self) -> tuple:
        return self.n, self.monomial_list, self.coords

    def __repr__(self) -> str:
        return f"PolySubmodule(n={self.n}, dim={self.dim})"

    def coordinates_of(self, p: Poly) -> Optional[Vector]:
        """Coordinates of p over the canonical basis, or None if outside."""
        _same_count(self.n, p)
        if not p._nums.keys() <= self._position.keys():
            return None
        return self.coords._integer_coordinates([p._nums.get(alpha, 0) for alpha in self.monomial_list], p._den)

    def contains(self, p: Poly) -> bool:
        return self.coordinates_of(p) is not None

    def from_coordinates(self, coords: Sequence) -> Poly:
        """The member with coordinates N / D over the basis B / E, as
        N B over D E."""
        coords = vector(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length differs from dimension")
        nums, den = _integer_rows([coords])
        return _combinations(self, nums, den)[0]

    def action_matrices(self) -> tuple[QMatrix, ...]:
        """Matrices of the partial derivatives in the canonical basis."""
        return tuple(QMatrix._trusted(at_pivots, self.coords._den, self.dim) for at_pivots, _ in self._derivatives())

    def _derivatives(self) -> list[tuple[list, list]]:
        """For each d/dx_i, E times its matrix in the canonical basis, as
        integer rows, and B's columns moved by it.

        With the basis B / E over integer B, d/dx_i moves B's column at
        alpha to alpha - e_i, times alpha_i.  The moved columns at the
        pivots, as rows, are E times the matrix, and the moved rows lie in
        the span iff E times each moved free column is B's, as a row, times
        that matrix: the public constructor's closure check, one
        `exactalg._matmul` per variable, none without a free column (a
        lower set's span).  A trusted span is closed by construction, so
        `action_matrices` and `as_matrices` only read the matrices.  Raises
        ValueError when some alpha - e_i is not in the monomial list.
        """
        pivots, columns = self.coords._pivots, self.coords._columns
        out = []
        for i in range(self.n):
            moved = [(0,) * self.dim] * len(columns)
            for alpha, column in zip(self.monomial_list, columns):
                if alpha[i]:
                    target = self._position.get(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :])
                    if target is None:
                        raise ValueError("subspace is not closed under differentiation")
                    moved[target] = [alpha[i] * x for x in column]
            out.append(([moved[c] for c in pivots], moved))
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "basis": [p.to_json() for p in self.basis]}

    @classmethod
    def from_json(cls, data) -> "PolySubmodule":
        n, basis = _fields(data, "submodule JSON", "n", "basis")
        if not isinstance(basis, list):
            raise ValueError('submodule field "basis" must be an array of polynomials')
        return cls(n, [Poly.from_json(p, n) for p in basis])


def _poly_rows(polys: Sequence[Poly]) -> tuple[tuple[MultiIndex, ...], list[list[int]]]:
    """The monomials occurring in the polynomials, in descending order,
    and each polynomial times its denominator as an integer row over
    them: rows with the same span."""
    monomial_list = tuple(sorted(set().union(*(p._nums for p in polys)), key=grlex_key, reverse=True))
    return monomial_list, [[p._nums.get(alpha, 0) for alpha in monomial_list] for p in polys]


def submodule_from_polys(n: int, gens: Sequence[Poly]) -> PolySubmodule:
    """Smallest derivative-closed subspace containing the generators and 1.

    That is K[d] g_1 + ... + K[d] g_k + K: it is spanned by 1 and every
    d^beta g with beta in the lower-set closure of g's support, and every
    other d^beta g is zero.  Each d^beta g is reached once, as d_i of its
    parent d^(beta - e_i) g, i the last variable in beta; a zero one is
    dropped.  The span is closed by construction: d_i d^beta g is
    d^(beta + e_i) g or 0.  At n = 1 those of a g of degree t have degrees
    t, ..., 0: the span is all of degree at most the top one, written down
    with no elimination.
    """
    n, gens = _variable_count(n), tuple(gens)
    _same_count(n, *gens)
    if n == 1:
        return _degree_span(max((alpha[0] for g in gens for alpha in g._nums), default=0))
    work = [(g, 0) for g in gens]
    for p, last in work:
        work += [(derived, i) for i in range(last, n) if (derived := p.partial(i + 1))]
    return PolySubmodule._trusted(n, *_poly_rows([Poly.one(n)] + [p for p, _ in work]))


def _degree_span(top: int) -> PolySubmodule:
    """Every polynomial in one variable of degree at most top, the whole
    space over x^top, ..., 1, with no elimination."""
    return PolySubmodule._trusted(1, [(k,) for k in range(top, -1, -1)], None)


class ExpSubmodule(Value):
    """A polynomial submodule shifted by an exponential weight.

    Models exp(a . x) * W: the action of x_i on coordinates is
    a_i * I + D_i where D_i differentiates the polynomial part.
    """

    __slots__ = ("eigenvalues", "part")

    def __init__(self, eigenvalues: Sequence, part: PolySubmodule):
        eigenvalues = vector(eigenvalues)
        if len(eigenvalues) != part.n:
            raise ValueError("eigenvalue count differs from the variable count")
        object.__setattr__(self, "eigenvalues", eigenvalues)
        object.__setattr__(self, "part", part)

    @property
    def n(self) -> int:
        return self.part.n

    @property
    def dim(self) -> int:
        return self.part.dim

    def _key(self) -> tuple:
        return self.eigenvalues, self.part

    def action_matrices(self) -> tuple[QMatrix, ...]:
        return twist(as_matrices(self.part)[0], [-a for a in self.eigenvalues]).matrices

    def to_json(self) -> dict:
        return {
            "eigenvalues": [format_rational(a) for a in self.eigenvalues],
            "part": self.part.to_json(),
        }


ModuleLike = Union[FDModule, PolySubmodule, ExpSubmodule]


def action_matrices(module: ModuleLike) -> tuple[QMatrix, ...]:
    """The variable-action matrices of any module-like object, in its
    canonical basis."""
    if isinstance(module, FDModule):
        return module.matrices
    return module.action_matrices()


class ModuleMap(Immutable):
    """A linear map between modules, stored as exact coordinates.

    Column j of `images` holds the coordinates (in the target's
    canonical basis) of the image of the source's j-th basis vector.
    Construction does not check the intertwining identity; call
    is_intertwining / is_isomorphism where the contract requires it.
    """

    __slots__ = ("source", "target", "images")

    def __init__(self, source: ModuleLike, target: ModuleLike, images: QMatrix):
        if images.cols != source.dim or images.rows != target.dim:
            raise ValueError("image matrix shape disagrees with the modules")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", images)

    def is_intertwining(self) -> bool:
        """Whether map(x_i . v) = x_i . map(v) for all i, as matrices."""
        src = action_matrices(self.source)
        tgt = action_matrices(self.target)
        if len(src) != len(tgt):
            return False
        return all(self.images * s == t * self.images for s, t in zip(src, tgt))

    def rank(self) -> int:
        return self.images.rank()

    def is_isomorphism(self) -> bool:
        images = self.images
        return images.is_square() and self.rank() == images.rows and self.is_intertwining()

    def apply_coords(self, v: Sequence) -> Vector:
        return self.images.apply(v)

    def image_poly(self, j: int) -> Poly:
        """The image of source basis vector j, an integer, not a bool, in
        0..source.dim - 1, as a polynomial (Poly targets)."""
        if not 0 <= as_int(j) < self.source.dim:
            raise IndexError(f"basis index {j} out of range 0..{self.source.dim - 1}")
        return _combinations(self.target, [[row[j] for row in self.images._ints]], self.images._den)[0]

    def image_polys(self) -> tuple[Poly, ...]:
        """The image polynomial of each source basis vector, in order, from one product."""
        images = self.images
        return _combinations(self.target, _columns(images._ints, images.cols), images._den)


def _combinations(target: ModuleLike, nums: Sequence[Sequence[int]], den: int) -> tuple[Poly, ...]:
    """The members of a polynomial target, or of an exponential one's
    polynomial part, with the integer coordinates nums[k] over den > 0, as
    N B over D E: one product of the rows of N with B's rows, or for one
    row, which would pay for B's row form alone, its dot products with B's
    stored columns, the dense column form."""
    if isinstance(target, ExpSubmodule):
        target = target.part
    if not isinstance(target, PolySubmodule):
        raise TypeError("target does not have a polynomial basis")
    monomial_list, coords = target.monomial_list, target.coords
    if len(nums) == 1:
        rows = [_row_product(nums[0], (None, coords._columns))]
    else:
        rows = _matmul(nums, list(zip(*coords._columns)), len(monomial_list))
    return tuple(Poly._trusted(target.n, dict(zip(monomial_list, row)), den * coords._den) for row in rows)


def as_matrices(module: PolySubmodule) -> tuple[FDModule, ModuleMap]:
    """The matrix module of the derivative action on a polynomial
    submodule, plus the identifying map onto it."""
    blocks = [at_pivots for at_pivots, _ in module._derivatives()]
    fd = FDModule._trusted(module.n, module.dim, blocks, module.coords._den)
    return fd, ModuleMap(fd, module, QMatrix.identity(module.dim))


def random_poly(n: int, degree_bound: int, rng: random.Random) -> Poly:
    """A random polynomial with small integer coefficients, deterministic
    in the rng state."""
    terms = {}
    for alpha in monomials_up_to_degree(n, degree_bound):
        if rng.random() < 0.55:
            terms[alpha] = rng.randint(-5, 5)
    return Poly(n, terms)


# The most variables, and monomials C(n + d, n) of degree at most d, that
# `random_nilpotent_module` builds on; the slowest case, n = 1, takes ~1 s.
GEN_LIMIT = 150


def random_nilpotent_module(n: int, degree_bound: int, seed: int) -> FDModule:
    """Seeded generator: the derivative module of a random polynomial.

    Always nilpotent with one-dimensional socle, by construction.  Past
    GEN_LIMIT it raises DimensionTooLarge before enumerating anything.
    """
    degree_bound = as_int(degree_bound)
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    # C(n + d, n) > GEN_LIMIT for every d >= GEN_LIMIT, so the min keeps comb small.
    if _variable_count(n) > GEN_LIMIT or comb(n + min(degree_bound, GEN_LIMIT), n) > GEN_LIMIT:
        raise DimensionTooLarge(f"random modules take at most {GEN_LIMIT} variables and monomials, "
                                f"not n = {n} with degree bound {degree_bound}")
    rng = random.Random(seed)
    p = random_poly(n, degree_bound, rng)
    fd, _ = as_matrices(submodule_from_polys(n, [p]))
    return fd
