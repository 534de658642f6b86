"""Finite-dimensional modules over a polynomial ring in n variables.

A module is a rational vector space together with n pairwise-commuting
matrices giving the action of the variables.  This layer owns
validation, nilpotency, socles, twisting by a rational shift of the
variables, the socle's joint eigenvalues, the bridge to
derivative-closed polynomial subspaces, and seeded random generators
for tests.

Squaring decides nilpotency.  The exact socle walk, M^alpha e_1, and
the inverse-system pass, the rows lambda S^alpha of the embedding's map,
certify it: on a nilpotent module both vanish past |alpha| = dim - 1.

A derivative-closed subspace is built by one core on integer rows over
its monomials: an elimination and a pivot at the origin.  The closure
pass, where d_i shifts columns, checks outside input once, in the
public constructor; the library's own spans are closed by construction.

The polynomials form a module over K[d], x_i acting as d_i, and the
submodule generated by g is K[d] g: the span of the d^beta g with beta
in the lower-set closure of g's exponents, every other d^beta g being 0.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from math import comb, gcd, lcm
from operator import mul
from typing import Optional, Sequence, Union

from .errors import (
    DimensionTooLarge,
    NoCommonEigenline,
    NonCommuting,
    NonRationalEigenvalue,
    NotNilpotent,
)
from .exactalg import (
    Immutable,
    QMatrix,
    Subspace,
    Value,
    Vector,
    _columns,
    _common_factor,
    _int_matmul,
    _integer_kernel,
    _integer_rows,
    _primitive_row,
    _rref_int,
    as_int,
    format_rational,
    vector,
)
from .multipoly import (
    MultiIndex,
    Poly,
    _check_var,
    _fields,
    _same_count,
    _variable_count,
    grlex_key,
    lower_set_closure,
    monomials_up_to_degree,
    multi_factorial,
)


class FDModule(Value):
    """n pairwise-commuting d x d matrices; commutativity is checked.

    Stored once, as the read-only integer blocks `_blocks`, M_1, ..., M_n
    with S_i = M_i / `_den` over the least common denominator of all
    entries: the form that equality, hashing and every integer kernel
    read.  S_i S_j = S_j S_i iff M_i M_j = M_j M_i, so commutativity is
    checked on the blocks.  `matrices` is a view built on first read.
    """

    __slots__ = ("n", "dim", "_blocks", "_den", "_matrices")

    def __init__(self, n: int, matrices: Sequence[QMatrix]):
        n, matrices = as_int(n), tuple(matrices)
        if n < 1 or len(matrices) != n:
            raise ValueError("need one action matrix per variable")
        dim = matrices[0].rows
        for m in matrices:
            if not m.is_square() or m.rows != dim:
                raise ValueError("action matrices must be square and equal-sized")
        den = lcm(*(m._den for m in matrices))
        scaled = [(m._ints, den // m._den) for m in matrices]
        blocks = tuple(tuple(row if k == 1 else tuple(k * x for x in row) for row in ints) for ints, k in scaled)
        columns = [_columns(block, dim) for block in blocks]
        for i in range(n):
            for j in range(i + 1, n):
                if _int_matmul(blocks[i], columns[j]) != _int_matmul(blocks[j], columns[i]):
                    raise NonCommuting(i + 1, j + 1)
        self._store(n, dim, blocks, den, matrices)

    def _store(self, n: int, dim: int, blocks: tuple, den: int, matrices: Optional[tuple]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_blocks", blocks)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_matrices", matrices)

    @classmethod
    def _trusted(cls, n: int, dim: int, blocks: Sequence[Sequence[Sequence[int]]], den: int) -> "FDModule":
        """The module S_i = blocks[i] / den of n integer d x d blocks that commute by
        construction, den > 0, the common factor divided out; checks nothing."""
        g = _common_factor(den, (row for block in blocks for row in block))
        blocks = [[[x // g for x in row] for row in block] for block in blocks] if g > 1 else blocks
        out = object.__new__(cls)
        out._store(n, dim, tuple(tuple(map(tuple, block)) for block in blocks), den // g, None)
        return out

    @property
    def matrices(self) -> tuple[QMatrix, ...]:
        """The action matrices, built on first read."""
        if self._matrices is None:
            object.__setattr__(self, "_matrices", tuple(QMatrix._trusted(b, self._den, self.dim) for b in self._blocks))
        return self._matrices

    def _key(self) -> tuple:
        return self.n, self.dim, self._den, self._blocks

    def __repr__(self) -> str:
        return f"FDModule(n={self.n}, dim={self.dim})"

    def action(self, i: int) -> QMatrix:
        """Matrix of x_i (1-based)."""
        _check_var(self.n, i)
        return self.matrices[i - 1]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "matrices": [m.to_json() for m in self.matrices],
        }

    @classmethod
    def from_json(cls, data) -> "FDModule":
        n, matrices = _fields(data, "module JSON", "n", "matrices")
        if not isinstance(matrices, list):
            raise ValueError('module field "matrices" must be an array of matrices')
        mod = cls(n, [QMatrix.from_json(m) for m in matrices])
        if "dim" in data and as_int(data["dim"]) != mod.dim:
            raise ValueError("declared dim disagrees with the matrices")
        return mod


def validate(matrices: Sequence[QMatrix]) -> FDModule:
    """Build an FDModule from candidate matrices, checking commutativity."""
    return FDModule(len(matrices), matrices)


def _is_nilpotent_matrix(power: Sequence[Sequence[int]]) -> bool:
    """Whether the square integer matrix with these rows is nilpotent.

    S is nilpotent iff c S is, for any nonzero c, so this also decides a
    rational matrix.  Square: M^(2^k) = 0 for 2^k >= dim iff M is
    nilpotent.  Each power is divided by its content before squaring,
    which keeps a conjugate's powers from carrying ever larger powers of
    a common factor.
    """
    d = len(power)
    steps = 1
    while True:
        content = 0
        for row in power:
            content = gcd(content, *row)
            if content == 1:
                break
        if content == 0:
            return True
        if steps >= d:
            return False
        if content > 1:
            power = [[x // content for x in row] for row in power]
        power = _int_matmul(power, _columns(power, d))
        steps *= 2


def is_nilpotent(module: FDModule) -> bool:
    """True iff every action matrix is nilpotent.

    For commuting matrices this is equivalent to every zero-constant
    polynomial acting nilpotently.
    """
    return all(map(_is_nilpotent_matrix, module._blocks))


_SPARSE_SHARE = Fraction(1, 4)  # largest nonzero share of a sparse block; crossover ~0.7-1


def _row_form(block: Sequence[Sequence[int]], d: int) -> tuple:
    """M for `_row_product`: (True, its rows as (column, entry) pairs) if at most `_SPARSE_SHARE`
    of its d * d entries are nonzero, as in a canonical basis, else (False, its columns): on dense
    conjugates, combining rows was no faster than the dot products."""
    nonzero = sum(d - r.count(0) for r in block)
    if nonzero * _SPARSE_SHARE.denominator > _SPARSE_SHARE.numerator * d * d:
        return False, _columns(block, d)
    return True, [[(j, x) for j, x in enumerate(r) if x] for r in block]


def _row_product(row: Sequence[int], form: tuple) -> list[int]:
    """row M for the form of M from `_row_form`: a combination of M's rows
    at row's nonzero entries, or one dot product per column."""
    sparse, parts = form
    if not sparse:
        return [sum(map(mul, row, col)) for col in parts]
    new = [0] * len(row)
    for x, pairs in zip(row, parts):
        for j, y in pairs if x else ():
            new[j] += x * y
    return new


def _inverse_system(module: FDModule, lam: Sequence[int]) -> Optional[tuple]:
    """phi(e_j) = sum over alpha of (lam S^alpha)[j] x^alpha / alpha!, as
    integer rows with their weights.

    The S_i = M_i / D come as the module's integer blocks M_1, ..., M_n
    over one denominator D, and lam is an integer row, so the pass starts
    from lam over scale 1.  It returns the alpha with lam S^alpha nonzero,
    in descending order, primitive integer rows and their weights:
    lam S^alpha = row / scale, the weight is scale alpha!, and
    coefficient j of x^alpha is row[j] / weight.  Breadth-first over
    alpha, lam S^(alpha + e_i) = (row M_i) / (scale D), with the common
    factor of the new row and scale divided out, so the rows carry no
    power of D that lam S^alpha does not need.
    The action commutes, so one row per alpha suffices; a zero row has
    only zero successors and is not extended.  A nonzero row at |alpha| = d
    returns None: commuting nilpotent d x d matrices kill every product of
    d of them, so the module is not nilpotent.  So does a pass past
    4 d (floor(log2 d) + 1) row products on a module that `is_nilpotent`
    refuses, checked once.  Each block is prepared once, by `_row_form`.
    """
    d, den = len(lam), module._den
    forms = [_row_form(m, d) for m in module._blocks]
    zero = (0,) * module.n
    rows: dict[MultiIndex, list[int]] = {zero: list(lam)}
    scale = {zero: 1}
    budget, products = 4 * d * d.bit_length(), 0
    queue = deque([zero])
    while queue:
        alpha = queue.popleft()
        row = rows[alpha]
        capped = sum(alpha) + 1 == d
        for i, form in enumerate(forms):
            beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            if beta in rows:
                continue
            new = _row_product(row, form)
            products += 1
            if products == budget + 1 and not is_nilpotent(module):
                return None
            if not any(new):
                rows[beta] = new
                continue
            if capped:
                return None
            s = scale[alpha] * den
            g = gcd(s, *new)
            rows[beta] = [x // g for x in new] if g > 1 else new
            scale[beta] = s // g
            queue.append(beta)
    monomials = sorted(scale, key=grlex_key, reverse=True)
    weights = [scale[a] * multi_factorial(a) for a in monomials]
    return monomials, [rows[a] for a in monomials], weights


def _socle_walk(module: FDModule) -> Optional[tuple[list[int], int]]:
    """(w, k): a primitive integer vector w that every block kills, a
    multiple of M^alpha e_1 with |alpha| = k.  From e_1, apply M_1 until
    the product vanishes, then M_2, and so on, each vector's content
    divided out, by `_row_product` on each block's columns.  The blocks
    commute, so M_i w stays 0 once it is, and w spans the joint kernel
    when that is a line.  Past d - 1 steps |alpha| = d: the module is not
    nilpotent, and the walk returns None.  In one variable k = d - 1 makes
    the module one Jordan block, as e_1, ..., M^(d-1) e_1 are a basis (a
    relation with lowest index k, times M^(d-1-k), would leave a nonzero
    multiple of M^(d-1) e_1) that M^d kills."""
    d = module.dim
    w, steps = [int(j == 0) for j in range(d)], 0
    for block in module._blocks:
        form = _row_form(_columns(block, d), d)
        while True:
            product = _primitive_row(_row_product(w, form))
            if product is None:
                break
            steps += 1
            if steps == d:
                return None
            w = product
    return w, steps


def _functional(w: Sequence, rng: Optional[random.Random]) -> list[int]:
    """A functional that is nonzero on the vector w, as an integer row:
    lambda has denominator 1.

    Without an rng: the coordinate at the first nonzero entry of w, which
    for w on the socle line is the pivot of the line's RREF basis vector.
    With one: small random integers, redrawn until the value on w is
    nonzero.
    """
    if rng is None:
        pivot = next(j for j, x in enumerate(w) if x)
        return [int(j == pivot) for j in range(len(w))]
    while True:
        lam = [rng.randint(-4, 4) for _ in w]
        if sum(map(mul, lam, w)):
            return lam


def socle(module: FDModule) -> Subspace:
    """Intersection of the kernels of all action matrices."""
    if not is_nilpotent(module):
        raise NotNilpotent("socle is only computed for nilpotent modules")
    return _joint_kernel(module)


def _joint_kernel(module: FDModule) -> Subspace:
    """Common kernel of the action matrices: the kernel of their blocks' stack."""
    return _integer_kernel([row for block in module._blocks for row in block], module.dim)


def twist(module: FDModule, shift: Sequence) -> FDModule:
    """Replace the action of x_i by S_i - shift_i * I (substitution twist)."""
    shift = vector(shift)
    if len(shift) != module.n:
        raise ValueError("shift length differs from the variable count")
    # S_i = M_i / D and shift_i = p_i / q_i: (L/D M_i - p_i L/q_i I) / L, L = lcm(D, q_1, ..., q_n).
    den = lcm(module._den, *(a.denominator for a in shift))
    k = den // module._den
    blocks = [[[k * x for x in row] for row in block] for block in module._blocks]
    for block, a in zip(blocks, shift):
        for i, row in enumerate(block):
            row[i] -= a.numerator * (den // a.denominator)
    return FDModule._trusted(module.n, module.dim, blocks, den)


class PolySubmodule(Value):
    """A derivative-closed subspace of polynomials containing the constants.

    Stored canonically: the list of monomials occurring in any member
    (descending monomial order) and the RREF basis of coefficient
    vectors over that list.  Equality of the stored data is equality of
    the subspaces.  Every instance comes from one core on integer rows
    over that list, `_span`.  The public constructor, and so `from_json`,
    then runs the closure check; `_trusted` serves spans that are closed
    by construction.  The basis polynomials are a view of `coords`'
    integer form, built on first read.
    """

    __slots__ = ("n", "monomial_list", "coords", "_position", "_basis")

    def __init__(self, n: int, polys: Sequence[Poly]):
        _same_count(n, *polys)
        self._span(n, *_poly_rows(polys), None)
        self._closure_pass()

    @classmethod
    def _trusted(cls, n, monomial_list, rows, weights) -> "PolySubmodule":
        """The span of integer rows that is closed under differentiation by
        construction: `_span` without the closure check."""
        out = cls.__new__(cls)
        out._span(n, tuple(monomial_list), rows, weights)
        return out

    @classmethod
    def _reduced(cls, n: int, rows: dict[MultiIndex, Poly]) -> "PolySubmodule":
        """The span of a reduced echelon form that is closed by
        construction: rows[pi] monic at its leading monomial pi and zero
        at every other pi.  The rows are its canonical basis, so nothing
        is eliminated."""
        leads = sorted(rows, key=grlex_key, reverse=True)
        monomial_list, ints = _poly_rows([rows[pi] for pi in leads])
        position = {alpha: c for c, alpha in enumerate(monomial_list)}
        out = cls.__new__(cls)
        out._store(n, monomial_list, Subspace._from_reduced(len(monomial_list), [position[pi] for pi in leads], ints))
        return out

    def _span(self, n, monomial_list, rows, weights) -> None:
        """The core: the span of the integer rows, row[c] / weights[c]
        (or row[c]) being the coefficient at monomial_list[c], a
        descending list of monomials each nonzero in some row, or rows None
        for all of their span.  One elimination (none for rows None), then
        the constants check."""
        width = len(monomial_list)
        coords = Subspace._whole(width) if rows is None else Subspace._from_integer_rows(width, rows, weights)
        self._store(n, monomial_list, coords)

    def _store(self, n, monomial_list, coords: Subspace) -> None:
        n = _variable_count(n)
        object.__setattr__(self, "n", n)
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
        (nums,), den = _integer_rows([coords])
        return self._combination(nums, den)

    def _combination(self, nums: Sequence[int], den: int) -> Poly:
        """`from_coordinates` for the integer coordinates nums over den > 0."""
        terms = {alpha: sum(map(mul, nums, column)) for alpha, column in zip(self.monomial_list, self.coords._columns)}
        return Poly._trusted(self.n, terms, den * self.coords._den)

    def action_matrices(self) -> tuple[QMatrix, ...]:
        """Matrices of the partial derivatives in the canonical basis."""
        return tuple(QMatrix._trusted(at_pivots, self.coords._den, self.dim) for at_pivots in self._closure_pass())

    def _closure_pass(self) -> list[list[list[int]]]:
        """For each d/dx_i, E times its matrix in the canonical basis, as
        integer rows.

        With the basis B / E over integer B, d/dx_i moves B's column at
        alpha to alpha - e_i, times alpha_i.  Entry (k, l) is moved row l
        at pivot k, over E, and the moved rows lie in the span iff every
        free column is that combination of B's.  The public constructor
        runs this pass as its closure check: it raises ValueError when
        some derivative of a basis member lies outside.  On a trusted span
        it only reads the matrices, for `action_matrices` and `as_matrices`.
        """
        coords = self.coords
        pivots, den, columns, free = coords._pivots, coords._den, coords._columns, coords._free
        out = []
        for i in range(self.n):
            moved = [(0,) * self.dim] * len(columns)
            for alpha, column in zip(self.monomial_list, columns):
                if alpha[i]:
                    target = self._position.get(alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :])
                    if target is None:
                        raise ValueError("subspace is not closed under differentiation")
                    moved[target] = [alpha[i] * x for x in column]
            at_pivots = [moved[c] for c in pivots]
            for f in free:
                # Canonical bases are mostly zeros: combine only the free column's nonzero entries.
                support = [k for k, x in enumerate(columns[f]) if x]
                coeffs = [columns[f][k] for k in support]
                span = [sum(map(mul, coeffs, row)) for row in zip(*(at_pivots[k] for k in support))]
                if span != [den * x for x in moved[f]]:
                    raise ValueError("subspace is not closed under differentiation")
            out.append(at_pivots)
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
    other d^beta g is zero.  Each d^beta g is one partial derivative of a
    d^beta' g of lower degree, taken in ascending degree.  The span is
    closed by construction: d_i d^beta g is d^(beta + e_i) g or 0.  At
    n = 1 those of a g of degree t have degrees t, ..., 0: the span is all
    of degree at most the top one, written down with no elimination.
    """
    members = [Poly.one(n)]
    _same_count(n, *gens)
    if n == 1:
        return _degree_span(max((alpha[0] for g in gens for alpha in g._nums), default=0))
    for g in gens:
        derived = {(0,) * n: g}
        for beta in sorted(lower_set_closure(g.monomials()), key=sum)[1:]:
            i = next(k for k, b in enumerate(beta) if b)
            derived[beta] = derived[beta[:i] + (beta[i] - 1,) + beta[i + 1 :]].partial(i + 1)
        members += derived.values()
    return PolySubmodule._trusted(n, *_poly_rows(members), None)


def _degree_span(top: int) -> PolySubmodule:
    """Every polynomial in one variable of degree at most top, the whole
    space over x^top, ..., 1, with no elimination."""
    return PolySubmodule._trusted(1, [(k,) for k in range(top, -1, -1)], None, None)


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
        """The image of source basis vector j as a polynomial (Poly targets)."""
        target = self.target
        if isinstance(target, ExpSubmodule):
            target = target.part
        if not isinstance(target, PolySubmodule):
            raise TypeError("target does not have a polynomial basis")
        images = self.images
        return target._combination([row[j] for row in images._ints], images._den)

    def image_polys(self) -> tuple[Poly, ...]:
        """The image polynomial of each source basis vector, in order."""
        return tuple(self.image_poly(j) for j in range(self.images.cols))


def as_matrices(module: PolySubmodule) -> tuple[FDModule, ModuleMap]:
    """The matrix module of the derivative action on a polynomial
    submodule, plus the identifying map onto it."""
    fd = FDModule._trusted(module.n, module.dim, module._closure_pass(), module.coords._den)
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


# --- socle eigenvalues -------------------------------------------------

def _char_poly(m: Sequence[Sequence[int]]) -> list[int]:
    """Coefficients c_0..c_d (ascending) of det(tI - M), monic, for the
    square integer matrix M with these rows.

    Faddeev-LeVerrier: with B_1 = M, c_(d-k) = -tr(B_k) / k and
    B_(k+1) = (B_k + c_(d-k) I) M.  Each c is an integer, so each
    division by k is exact.
    """
    d = len(m)
    coeffs = [0] * d + [1]
    columns = _columns(m, d)
    power = m
    for k in range(1, d + 1):
        c = -sum(row[i] for i, row in enumerate(power)) // k
        coeffs[d - k] = c
        if k < d:
            shifted = [row[:i] + [row[i] + c] + row[i + 1 :] for i, row in enumerate(power)]
            power = _int_matmul(shifted, columns)
    return coeffs


def _evaluate(p: Sequence[int], x: int) -> int:
    value = 0
    for c in reversed(p):
        value = value * x + c
    return value


def _root_floors(g: Sequence[int]) -> list[int]:
    """Increasing integers among which is the floor of every real root
    of the integer polynomial g (ascending, nonzero leading coefficient).

    g is monotone between consecutive real roots of g', so it is on each
    stretch from one floor of those roots, found the same way, plus 1, to
    the next: such a stretch holds at most one root of g, and bisecting
    on the sign of g finds its floor.  The floors of g' stay candidates,
    because two roots of g can share a unit interval with a root of g'.
    """
    k = len(g) - 1
    if k == 0:
        return []
    # Every root has |u| < 2^e once 2^(e i) > k |g_(k-i)| for i = 1..k, the
    # power-of-two form of Cauchy's bound max_i (k |g_(k-i) / g_k|)^(1/i).
    e = max(-(-(abs(c).bit_length() + k.bit_length()) // (k - j)) for j, c in enumerate(g[:-1]))
    bound = 1 << e
    critical = _root_floors([j * c for j, c in enumerate(g)][1:])
    edges = [-bound] + [c for c in critical if abs(c) < bound] + [bound]
    floors = set(edges)
    for lo, hi in zip(edges, edges[1:]):
        lo += 1
        low = _evaluate(g, lo)
        if low and (low > 0) == (_evaluate(g, hi) > 0):
            continue
        # A root lies in [lo, hi); g(lo) keeps the sign of low.
        while low and hi - lo > 1:
            mid = (lo + hi) // 2
            value = _evaluate(g, mid)
            if value == 0 or (value > 0) == (low > 0):
                lo, low = mid, value
            else:
                hi = mid
        floors.add(lo)
    return sorted(floors)


def _integer_roots(g: Sequence[int]) -> list[int]:
    """The distinct integer roots, in increasing order, of an integer
    polynomial (ascending, nonzero leading coefficient)."""
    return [u for u in _root_floors(g) if _evaluate(g, u) == 0]


def socle_eigenvalues(module: FDModule) -> tuple[Fraction, ...]:
    """The joint eigenvalue tuple on the unique common eigenline.

    With S_k = M_k / D over the integer blocks, the characteristic
    polynomial of M_k is monic over the integers, so its rational roots
    are integers u and the candidates for a_k are u / D.  Tuples grow
    one variable at a time, and a prefix (a_1, ..., a_k) survives while
    the stacked M_j - u_j I, j <= k, whose kernels are those of
    S_j - a_j I, have a nonzero common kernel.  Exactly one tuple must
    survive.  When none does, some characteristic polynomial does not
    split over the rationals: otherwise every commuting matrix has an
    eigenvector on each nonzero joint eigenspace of the ones before it.
    The first block that leaves none, with its characteristic
    polynomial, is the witness, and so are the tuples when several
    survive; a number past Python's digit limit in either gives
    `DimensionTooLarge`, as `format_rational` does.
    """
    d = module.dim
    if d == 0:
        raise NoCommonEigenline("the zero module has no eigenline")
    survivors: list[tuple[tuple[Fraction, ...], list]] = [((), [])]
    for k, block in enumerate(module._blocks, 1):
        ints = [list(row) for row in block]
        char_poly = _char_poly(ints)
        roots = _integer_roots(char_poly)
        extended = []
        for values, rows in survivors:
            for u in roots:
                stacked = rows + [row[:i] + [row[i] - u] + row[i + 1 :] for i, row in enumerate(ints)]
                if len(_rref_int(stacked, d)[0]) < d:
                    extended.append((values + (Fraction(u, module._den),), stacked))
        survivors = extended
        if not survivors:
            raise NonRationalEigenvalue(
                "no rational joint eigenvalue exists; the socle eigenvalues "
                "lie in a proper extension field", k, list(map(format_rational, char_poly))
            )
    if len(survivors) > 1:
        raise NoCommonEigenline(
            f"{len(survivors)} distinct joint eigenvalue tuples found",
            [list(map(format_rational, values)) for values, _ in survivors],
        )
    return survivors[0][0]
