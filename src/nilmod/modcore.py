"""Finite-dimensional modules over a polynomial ring in n variables.

A module is a rational vector space together with n pairwise-commuting
matrices giving the action of the variables.  This layer owns
validation, nilpotency, socles, twisting by a rational shift of the
variables, the bridge to derivative-closed polynomial subspaces, and
seeded random generators for tests.

A derivative-closed subspace is checked by one core on integer rows
over its monomials, whoever builds it: an elimination, a pivot at the
origin, and the closure pass, where d_i shifts columns.

The polynomials form a module over K[d], x_i acting as d_i, and the
submodule generated by g is K[d] g: the span of the d^beta g with beta
in the lower-set closure of g's exponents, every other d^beta g being 0.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence, Union

from .errors import (
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
    _fraction_row,
    _int_matmul,
    _integer_rows,
    as_int,
    format_rational,
    vector,
)
from .multipoly import (
    MultiIndex,
    Poly,
    grlex_key,
    lower_set_closure,
    monomials_up_to_degree,
    vector_to_poly,
)


class FDModule(Value):
    """n pairwise-commuting d x d matrices; commutativity is checked."""

    __slots__ = ("n", "dim", "matrices")

    def __init__(self, n: int, matrices: Sequence[QMatrix]):
        matrices = tuple(matrices)
        if n < 1 or len(matrices) != n:
            raise ValueError("need one action matrix per variable")
        dim = matrices[0].rows
        for m in matrices:
            if not m.is_square() or m.rows != dim:
                raise ValueError("action matrices must be square and equal-sized")
        for i in range(n):
            for j in range(i + 1, n):
                if matrices[i] * matrices[j] != matrices[j] * matrices[i]:
                    raise NonCommuting(i + 1, j + 1)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrices", matrices)

    def _key(self) -> tuple:
        return self.n, self.matrices

    def __repr__(self) -> str:
        return f"FDModule(n={self.n}, dim={self.dim})"

    def action(self, i: int) -> QMatrix:
        """Matrix of x_i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"variable index {i} out of range 1..{self.n}")
        return self.matrices[i - 1]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "matrices": [m.to_json() for m in self.matrices],
        }

    @classmethod
    def from_json(cls, data) -> "FDModule":
        n = as_int(data["n"])
        matrices = [QMatrix.from_json(m) for m in data["matrices"]]
        mod = cls(n, matrices)
        if "dim" in data and as_int(data["dim"]) != mod.dim:
            raise ValueError("declared dim disagrees with the matrices")
        return mod


def validate(matrices: Sequence[QMatrix]) -> FDModule:
    """Build an FDModule from candidate matrices, checking commutativity."""
    return FDModule(len(matrices), matrices)


def _is_nilpotent_matrix(power: Sequence[Sequence[int]]) -> bool:
    """Whether the square integer matrix with these rows is nilpotent.

    S is nilpotent iff D S is, for its common denominator D, so this
    also decides a rational matrix.  Square: M^(2^k) = 0 for
    2^k >= dim iff M is nilpotent."""
    d = len(power)
    steps = 1
    while steps < d:
        if not any(map(any, power)):
            return True
        power = _int_matmul(power, _columns(power, d))
        steps *= 2
    return not any(map(any, power))


def is_nilpotent(module: FDModule) -> bool:
    """True iff every action matrix is nilpotent.

    For commuting matrices this is equivalent to every zero-constant
    polynomial acting nilpotently.
    """
    return all(_is_nilpotent_matrix(_integer_rows(m.entries)[0]) for m in module.matrices)


def socle(module: FDModule) -> Subspace:
    """Intersection of the kernels of all action matrices."""
    if not is_nilpotent(module):
        raise NotNilpotent("socle is only computed for nilpotent modules")
    return _joint_kernel(module)


def _joint_kernel(module: FDModule) -> Subspace:
    """Common kernel of the action matrices: the kernel of their stack."""
    stacked = [row for m in module.matrices for row in m.entries]
    return QMatrix(stacked, cols=module.dim).kernel()


def twist(module: FDModule, shift: Sequence) -> FDModule:
    """Replace the action of x_i by S_i - shift_i * I (substitution twist)."""
    shift = vector(shift)
    if len(shift) != module.n:
        raise ValueError("shift length differs from the variable count")
    eye = QMatrix.identity(module.dim)
    return FDModule(
        module.n,
        [m - eye.scale(a) for m, a in zip(module.matrices, shift)],
    )


class PolySubmodule(Value):
    """A derivative-closed subspace of polynomials containing the constants.

    Stored canonically: the list of monomials occurring in any member
    (descending monomial order) and the RREF basis of coefficient
    vectors over that list.  Equality of the stored data is equality of
    the subspaces.  Every instance comes from one checked core on
    integer rows over that list, `_span`.
    """

    __slots__ = ("n", "monomial_list", "coords", "basis", "_position")

    def __init__(self, n: int, polys: Sequence[Poly]):
        support: set[MultiIndex] = set()
        for p in polys:
            if p.n != n:
                raise ValueError("variable count mismatch")
            support |= p.monomials()
        monomial_list = tuple(sorted(support, key=grlex_key, reverse=True))
        rows = [[p.terms.get(alpha, 0) for alpha in monomial_list] for p in polys]
        self._span(n, monomial_list, _integer_rows(rows)[0], None)

    @classmethod
    def _from_integer_rows(cls, n, monomial_list, rows, weights) -> "PolySubmodule":
        out = cls.__new__(cls)
        out._span(n, tuple(monomial_list), rows, weights)
        return out

    def _span(self, n, monomial_list, rows, weights) -> None:
        """The checked core: the span of the integer rows, row[c] /
        weights[c] (or row[c]) being the coefficient at monomial_list[c],
        a descending list of monomials each nonzero in some row.  One
        elimination, then the constants check and the closure pass."""
        if n < 1:
            raise ValueError("variable count must be at least 1")
        coords = Subspace._from_integer_rows(len(monomial_list), rows, weights)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "monomial_list", monomial_list)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "basis", tuple(vector_to_poly(v, monomial_list, n) for v in coords.basis))
        object.__setattr__(self, "_position", {alpha: c for c, alpha in enumerate(monomial_list)})
        # The origin is the least monomial: 1 is inside iff the last column is a pivot.
        pivots = coords._pivots
        if not pivots or any(monomial_list[pivots[-1]]):
            raise ValueError("a polynomial submodule must contain the constants")
        self._closure_pass()

    @property
    def dim(self) -> int:
        return self.coords.dim

    def _key(self) -> tuple:
        return self.n, self.monomial_list, self.coords

    def __repr__(self) -> str:
        return f"PolySubmodule(n={self.n}, dim={self.dim})"

    def coordinates_of(self, p: Poly) -> Optional[Vector]:
        """Coordinates of p over the canonical basis, or None if outside."""
        if p.n != self.n:
            raise ValueError("variable count mismatch")
        if not p.terms.keys() <= self._position.keys():
            return None
        zero = Fraction(0)
        return self.coords.coordinates_of([p.terms.get(alpha, zero) for alpha in self.monomial_list])

    def contains(self, p: Poly) -> bool:
        return self.coordinates_of(p) is not None

    def from_coordinates(self, coords: Sequence) -> Poly:
        coords = vector(coords)
        if len(coords) != self.dim:
            raise ValueError("coordinate length differs from dimension")
        out = Poly.zero(self.n)
        for c, p in zip(coords, self.basis):
            if c != 0:
                out = out + p.scale(c)
        return out

    def action_matrices(self) -> tuple[QMatrix, ...]:
        """Matrices of the partial derivatives in the canonical basis."""
        return tuple(
            QMatrix._trusted([_fraction_row(row, self.coords._den) for row in at_pivots], self.dim)
            for at_pivots in self._closure_pass()
        )

    def _closure_pass(self) -> list[list[list[int]]]:
        """For each d/dx_i, E times its matrix in the canonical basis, as
        integer rows.

        With the basis B / E over integer B, d/dx_i moves B's column at
        alpha to alpha - e_i, times alpha_i.  Entry (k, l) is moved row l
        at pivot k, over E, and the moved rows lie in the span iff every
        free column is that combination of B's.  This pass is the
        constructor's closure check: it raises ValueError when some
        derivative of a basis member lies outside.
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
            spans = _int_matmul([columns[f] for f in free], _columns(at_pivots, self.dim))
            if any(row != [den * x for x in moved[f]] for f, row in zip(free, spans)):
                raise ValueError("subspace is not closed under differentiation")
            out.append(at_pivots)
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "basis": [p.to_json() for p in self.basis]}

    @classmethod
    def from_json(cls, data) -> "PolySubmodule":
        n = as_int(data["n"])
        return cls(n, [Poly.from_json(p, n) for p in data["basis"]])


def submodule_from_polys(n: int, gens: Sequence[Poly]) -> PolySubmodule:
    """Smallest derivative-closed subspace containing the generators and 1.

    That is K[d] g_1 + ... + K[d] g_k + K: it is spanned by 1 and every
    d^beta g with beta in the lower-set closure of g's support, and every
    other d^beta g is zero.  Each d^beta g is one partial derivative of a
    d^beta' g of lower degree, taken in ascending degree.
    """
    members = [Poly.one(n)]
    for g in gens:
        if g.n != n:
            raise ValueError("variable count mismatch")
        derived = {(0,) * n: g}
        for beta in sorted(lower_set_closure(g.monomials()), key=sum)[1:]:
            i = next(k for k, b in enumerate(beta) if b)
            derived[beta] = derived[beta[:i] + (beta[i] - 1,) + beta[i + 1 :]].partial(i + 1)
        members += derived.values()
    return PolySubmodule(n, members)


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
        eye = QMatrix.identity(self.part.dim)
        return tuple(
            d + eye.scale(a)
            for d, a in zip(self.part.action_matrices(), self.eigenvalues)
        )

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
        return (
            self.images.is_square()
            and self.images.inverse() is not None
            and self.is_intertwining()
        )

    def apply_coords(self, v: Sequence) -> Vector:
        return self.images.apply(v)

    def image_poly(self, j: int) -> Poly:
        """The image of source basis vector j as a polynomial (Poly targets)."""
        target = self.target
        if isinstance(target, ExpSubmodule):
            target = target.part
        if not isinstance(target, PolySubmodule):
            raise TypeError("target does not have a polynomial basis")
        return target.from_coordinates(self.images.column(j))


def as_matrices(module: PolySubmodule) -> tuple[FDModule, ModuleMap]:
    """The matrix module of the derivative action on a polynomial
    submodule, plus the identifying map onto it."""
    fd = FDModule(module.n, module.action_matrices())
    return fd, ModuleMap(fd, module, QMatrix.identity(module.dim))


def random_poly(n: int, degree_bound: int, rng: random.Random) -> Poly:
    """A random polynomial with small integer coefficients, deterministic
    in the rng state."""
    terms = {}
    for alpha in monomials_up_to_degree(n, degree_bound):
        if rng.random() < 0.55:
            terms[alpha] = rng.randint(-5, 5)
    return Poly(n, terms)


def random_nilpotent_module(n: int, degree_bound: int, seed: int) -> FDModule:
    """Seeded generator: the derivative module of a random polynomial.

    Always nilpotent with one-dimensional socle, by construction.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be non-negative")
    rng = random.Random(seed)
    p = random_poly(n, degree_bound, rng)
    fd, _ = as_matrices(submodule_from_polys(n, [p]))
    return fd


# --- socle eigenvalues -------------------------------------------------

def _char_poly(m: QMatrix) -> list[Fraction]:
    """Coefficients c_0..c_d (ascending) of det(tI - m), monic."""
    d = m.rows
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    mk = QMatrix.zeros(d, d)
    eye = QMatrix.identity(d)
    last = Fraction(1)
    for k in range(1, d + 1):
        mk = m * mk + eye.scale(last)
        am = m * mk
        trace = sum(am.entries[i][i] for i in range(d))
        last = -trace / k
        coeffs[d - k] = last
    return coeffs


def _primitive(coeffs: Sequence) -> list[int]:
    """The primitive integer multiple of a nonzero rational polynomial
    (ascending coefficients, trailing zeros dropped) with a positive
    leading coefficient."""
    (ints,), _ = _integer_rows([coeffs])
    while ints[-1] == 0:
        ints.pop()
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return [c // content for c in ints]


def _poly_divmod(a: Sequence, b: Sequence) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of rational polynomials (ascending, b with
    a nonzero leading coefficient); the remainder has no trailing zeros."""
    rem = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        q = rem[-1] / lead
        quot[shift] = q
        for k, c in enumerate(b):
            rem[shift + k] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def _derivative(f: Sequence) -> list:
    return [k * c for k, c in enumerate(f)][1:]


def _squarefree_part(f: list[int]) -> list[int]:
    """f / gcd(f, f') as a primitive integer polynomial."""
    # Euclid with each remainder made primitive, which keeps the
    # coefficients from growing (the primitive remainder sequence).
    g, h = f, (_primitive(_derivative(f)) if len(f) > 1 else [])
    while h:
        rem = _poly_divmod(g, h)[1]
        g, h = h, (_primitive(rem) if rem else [])
    return _primitive(_poly_divmod(f, g)[0])


def _evaluate(p: Sequence[int], x: int) -> int:
    value = 0
    for c in reversed(p):
        value = value * x + c
    return value


def _integer_root_in(g: list[int], lo: int, hi: int) -> Optional[int]:
    """The integer root of g in (lo, hi], if any, where g has a single
    simple root there or hi = lo + 1.  In the first case g has one sign
    on (root, hi] and the other on (lo, root), so bisecting on the sign
    of g alone finds the root."""
    high = _evaluate(g, hi)
    if high == 0:
        return hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        value = _evaluate(g, mid)
        if value == 0:
            return mid
        if (value > 0) == (high > 0):
            hi = mid
        else:
            lo = mid
    return None


def _integer_roots(g: list[int]) -> list[int]:
    """The integer roots of a squarefree monic integer polynomial.

    A Sturm sequence counts the distinct real roots in (lo, hi] as the
    drop in sign changes from lo to hi.  Bisecting the Cauchy interval
    over the integers splits it into pieces holding one root each, and
    bisecting such a piece on the sign of g ends at the root when it is
    an integer.  The cost is polynomial in the bit size of g.
    """
    sturm = [g, _derivative(g)]
    while len(sturm[-1]) > 1:
        rem = _poly_divmod(sturm[-2], sturm[-1])[1]
        # Positive rescaling keeps every sign, and so every count.
        sturm.append([-c for c in _primitive(rem)] if rem[-1] > 0 else _primitive(rem))
    changes: dict[int, int] = {}

    def count(x: int) -> int:
        """Sign changes, zeros dropped, of the Sturm sequence at x."""
        if x not in changes:
            signs = [v > 0 for v in (_evaluate(p, x) for p in sturm) if v]
            changes[x] = sum(a != b for a, b in zip(signs, signs[1:]))
        return changes[x]

    # Every root has |u| < 2^e once 2^(e i) > k |g_(k-i)| for i = 1..k, the
    # power-of-two form of Cauchy's bound max_i (k |g_(k-i)|)^(1/i).
    k = len(g) - 1
    e = max(-(-(abs(c).bit_length() + k.bit_length()) // (k - j)) for j, c in enumerate(g[:-1]))
    roots = []
    stack = [(-(1 << e), 1 << e)]
    while stack:
        lo, hi = stack.pop()
        inside = count(lo) - count(hi)
        if inside > 1 and hi - lo > 1:
            mid = (lo + hi) // 2
            stack += [(lo, mid), (mid, hi)]
        elif inside:
            root = _integer_root_in(g, lo, hi)
            if root is not None:
                roots.append(root)
    return roots


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """Distinct rational roots of a nonzero rational polynomial, in
    increasing order.

    With f the squarefree part, primitive of degree k and leading
    coefficient a, the substitution t = u / a makes
    g(u) = a^(k-1) f(u / a) monic with integer coefficients, so the
    rational roots of f are the integer roots of g divided by a.
    """
    f = _squarefree_part(_primitive(coeffs))
    k, a = len(f) - 1, f[-1]
    if k == 0:
        return []
    g = [c * a ** (k - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    return sorted(Fraction(u, a) for u in _integer_roots(g))


def socle_eigenvalues(module: FDModule) -> tuple[Fraction, ...]:
    """The joint eigenvalue tuple on the unique common eigenline.

    Candidates for a_k are the rational roots of the characteristic
    polynomial of S_k.  Tuples grow one variable at a time, and a prefix
    (a_1, ..., a_k) survives while the stacked S_j - a_j I, j <= k, have
    a nonzero common kernel.  Exactly one tuple must survive.  When none
    does, some characteristic polynomial does not split over the
    rationals: otherwise every commuting matrix has an eigenvector on
    each nonzero joint eigenspace of the ones before it.
    """
    d = module.dim
    if d == 0:
        raise NoCommonEigenline("the zero module has no eigenline")
    eye = QMatrix.identity(d)
    survivors: list[tuple[tuple[Fraction, ...], list]] = [((), [])]
    for m in module.matrices:
        roots = _rational_roots(_char_poly(m))
        extended = []
        for values, rows in survivors:
            for a in roots:
                stacked = rows + list((m - eye.scale(a)).entries)
                if QMatrix(stacked, cols=d).rank() < d:
                    extended.append((values + (a,), stacked))
        survivors = extended
    if not survivors:
        raise NonRationalEigenvalue(
            "no rational joint eigenvalue exists; the socle eigenvalues "
            "lie in a proper extension field"
        )
    if len(survivors) > 1:
        raise NoCommonEigenline(
            f"{len(survivors)} distinct joint eigenvalue tuples found"
        )
    return survivors[0][0]
