"""Truncated differential-operator series and what they do to submodules.

Every endomorphism of the derivative module is a (formal) series
sum c_alpha d^alpha, an element of the power series ring in d; truncating
at a total degree D leaves a polynomial in d of degree <= D, so sums,
composition (the product, cut at D) and JSON are those of `Poly`.  This
module implements application, coefficient extraction from monomial-image
tables, composition, formal exp/log, isomorphism extension between
polynomial submodules, and the automorphism groups of monomial submodules.

On a polynomial submodule M the series give every endomorphism: M
contains 1 and is closed under d, so its socle is the constants and M is
the Matlis dual of A = K[d]/Ann(M), whence End(M) = A and
dim End(M) = dim M (Eisenbud, Commutative Algebra, 21.2).

The series layer rests on three closed forms:

- application: d^gamma x^beta = beta!/(beta-gamma)! x^(beta-gamma);
- exp and log: the grading derivation theta, which scales the
  coefficient at gamma by |gamma|, satisfies theta E = (theta s) E for
  E = exp(s), which gives one pass in ascending degree:
  |gamma| E_gamma = sum_(0<beta<=gamma) |beta| s_beta E_(gamma-beta), and
  |gamma| L_gamma = |gamma| e_gamma - sum_(0<delta<gamma)
  |gamma-delta| L_(gamma-delta) e_delta for L = log(e);
- restriction to a lower set: the entry in row x^beta and column
  x^alpha is c_(alpha-beta) alpha!/beta!.

An isomorphism between polynomial submodules grows one monomial at a
time.  Each step adjoins the graded-lex least monomial x^kappa missing
from the source, whose partials lie inside, and maps it to the potential
of their images.  One search finds kappa: among the goal's exponents, or
among all exponents up to one above the top degree of the source's
support, since every monomial above that degree is missing.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import add, sub
from typing import Callable, Container, Mapping, Optional

from .errors import (
    IncompatibleMap,
    NothingToExtend,
    NotAnEndomorphism,
    TruncationTooLow,
    WrongConstantTerm,
)
from .exactalg import QMatrix, Value, as_fraction, as_int
from .modcore import ModuleMap, PolySubmodule
from .multipoly import (
    MultiIndex,
    Poly,
    grlex_key,
    is_lower_set,
    monomials_up_to_degree,
    multi_factorial,
    truncated_product,
)


class DiffOpSeries(Value):
    """sum c_alpha d^alpha with all |alpha| <= trunc; zeros not stored.

    A truncated element of K[d]: read as a polynomial in d, its sums,
    products and JSON are those of `Poly`.
    """

    __slots__ = ("n", "trunc", "coeffs")

    def __init__(self, n: int, trunc: int, coeffs: Optional[Mapping[MultiIndex, object]] = None):
        n, trunc = as_int(n), as_int(trunc)
        clean = Poly(n, coeffs).terms
        if trunc < 0:
            raise ValueError("truncation degree must be non-negative")
        for alpha in clean:
            if sum(alpha) > trunc:
                raise ValueError(f"index {alpha} exceeds truncation {trunc}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def identity(cls, n: int, trunc: int) -> "DiffOpSeries":
        return cls(n, trunc, {(0,) * n: 1})

    @classmethod
    def derivative(cls, n: int, trunc: int, i: int) -> "DiffOpSeries":
        alpha = tuple(1 if k == i - 1 else 0 for k in range(n))
        return cls(n, trunc, {alpha: 1})

    @property
    def _poly(self) -> Poly:
        """The coefficients as a polynomial in d_1, ..., d_n."""
        return Poly(self.n, self.coeffs)

    @property
    def unit(self) -> Fraction:
        """The constant-operator coefficient c_(0,...,0)."""
        return self.coeffs.get((0,) * self.n, Fraction(0))

    def is_automorphism(self) -> bool:
        return self.unit != 0

    def _key(self) -> tuple:
        return self.n, self.trunc, self.coeffs

    def __hash__(self) -> int:
        return hash((self.n, self.trunc, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"DiffOpSeries(n={self.n}, trunc={self.trunc}, {len(self.coeffs)} terms)"

    def __add__(self, other: "DiffOpSeries") -> "DiffOpSeries":
        trunc = min(self.trunc, other.trunc)
        total = (self._poly + other._poly).terms
        return DiffOpSeries(self.n, trunc, {a: c for a, c in total.items() if sum(a) <= trunc})

    def __neg__(self) -> "DiffOpSeries":
        return self.scale(-1)

    def __sub__(self, other: "DiffOpSeries") -> "DiffOpSeries":
        return self + (-other)

    def scale(self, c) -> "DiffOpSeries":
        return DiffOpSeries(self.n, self.trunc, self._poly.scale(c).terms)

    def compose(self, other: "DiffOpSeries") -> "DiffOpSeries":
        """Operator composition: the product in K[d], truncated at the
        lower of the two truncations (commutative)."""
        trunc = min(self.trunc, other.trunc)
        return DiffOpSeries(self.n, trunc, truncated_product(self._poly, other._poly, trunc).terms)

    def apply(self, p: Poly) -> Poly:
        """sum c_gamma d^gamma p; refuses polynomials beyond the truncation.

        A series truncated at D only determines an operator on
        polynomials of total degree <= D, so higher-degree input is an
        error rather than a silent approximation.

        Closed form: d^gamma x^beta = beta!/(beta-gamma)! x^(beta-gamma)
        when gamma <= beta, else 0.  The terms landing on x^delta are
        summed times delta! and divided by delta! once at the end.
        """
        if p.n != self.n:
            raise ValueError("variable count mismatch")
        deg = p.total_degree()
        if isinstance(deg, int) and deg > self.trunc:
            raise TruncationTooLow(
                f"polynomial degree {deg} exceeds truncation {self.trunc}"
            )
        scaled: dict[MultiIndex, Fraction] = {}
        for beta, b in p.terms.items():
            b_fact = b * multi_factorial(beta)
            for gamma, c in self.coeffs.items():
                delta = tuple(map(sub, beta, gamma))
                if min(delta) >= 0:
                    scaled[delta] = scaled.get(delta, 0) + c * b_fact
        return Poly(
            self.n, {delta: v / multi_factorial(delta) for delta, v in scaled.items()}
        )

    def to_json(self) -> dict:
        return {"n": self.n, "trunc": self.trunc, "coeffs": self._poly.to_json()}


def _graded_solve(
    trunc: int,
    within: Optional[Container[MultiIndex]],
    seed: Mapping[MultiIndex, Fraction],
    step: Mapping[MultiIndex, Fraction],
    weight: Callable[[int], int],
) -> dict[MultiIndex, Fraction]:
    """The nonzero X_g, 0 < |g| <= trunc, of the graded recurrence

        |g| X_g = seed_g + sum_(a + b = g, a != 0) weight(|a|) X_a step_b.

    Every exponent in `step` has positive degree, so the right side only
    uses X_a of lower degree, and one pass in ascending degree solves it.
    Each solved X_a is pushed onto a + b for every b in `step`, so the
    pass visits only sums of seed and step exponents, never the whole
    C(n + trunc, n) monomials.  With `within` (a lower set), only its
    monomials are computed; they never need one outside it.
    """
    terms = sorted(((b, sum(b), c) for b, c in step.items()), key=lambda t: t[1])
    pending: list[dict[MultiIndex, Fraction]] = [{} for _ in range(trunc + 1)]
    for g, c in seed.items():
        d = sum(g)
        if d <= trunc and (within is None or g in within):
            pending[d][g] = c
    out: dict[MultiIndex, Fraction] = {}
    for d in range(1, trunc + 1):
        for g, total in pending[d].items():
            if not total:
                continue
            x = total / d
            out[g] = x
            w = weight(d) * x
            for b, b_deg, c in terms:
                e = d + b_deg
                if e > trunc:
                    break
                h = tuple(map(add, g, b))
                if within is None or h in within:
                    bucket = pending[e]
                    bucket[h] = bucket.get(h, 0) + w * c
    return out


def _exp_coeffs(
    s: Mapping[MultiIndex, Fraction],
    n: int,
    trunc: int,
    within: Optional[Container[MultiIndex]] = None,
) -> dict[MultiIndex, Fraction]:
    """exp(s) for s without constant term, by
    |g| E_g = sum_(0<b<=g) |b| s_b E_(g-b)."""
    weighted = {b: sum(b) * c for b, c in s.items()}
    out = {(0,) * n: Fraction(1)}
    out.update(_graded_solve(trunc, within, weighted, weighted, lambda d: 1))
    return out


def _log_coeffs(
    e: Mapping[MultiIndex, Fraction],
    trunc: int,
    within: Optional[Container[MultiIndex]] = None,
) -> dict[MultiIndex, Fraction]:
    """log(e) for e with constant term one, by
    |g| L_g = |g| e_g - sum_(0<b<g) |g-b| L_(g-b) e_b."""
    step = {b: c for b, c in e.items() if any(b)}
    seed = {b: sum(b) * c for b, c in step.items()}
    return _graded_solve(trunc, within, seed, step, lambda d: -d)


def series_exp(s: DiffOpSeries) -> DiffOpSeries:
    """Formal exponential; needs zero constant term.

    Closed form from theta E = (theta s) E, where theta scales the
    coefficient at gamma by |gamma|:
    |gamma| E_gamma = sum_(0<beta<=gamma) |beta| s_beta E_(gamma-beta),
    one pass in ascending degree over the sums of support exponents.
    """
    if s.unit != 0:
        raise WrongConstantTerm("exp needs a zero constant term")
    return DiffOpSeries(s.n, s.trunc, _exp_coeffs(s.coeffs, s.n, s.trunc))


def series_log(s: DiffOpSeries) -> DiffOpSeries:
    """Formal logarithm; needs constant term one.  Inverse of series_exp.

    Closed form from theta e = (theta L) e for L = log(e):
    |gamma| L_gamma = |gamma| e_gamma
    - sum_(0<delta<gamma) |gamma-delta| L_(gamma-delta) e_delta,
    one pass in ascending degree over the sums of support exponents.
    """
    if s.unit != 1:
        raise WrongConstantTerm("log needs constant term one")
    return DiffOpSeries(s.n, s.trunc, _log_coeffs(s.coeffs, s.trunc))


def monomial_images(s: DiffOpSeries, degree: Optional[int] = None) -> dict[MultiIndex, Poly]:
    """The table alpha -> s(x^alpha) for all |alpha| <= degree, each
    entry by the closed form of `DiffOpSeries.apply`."""
    if degree is None:
        degree = s.trunc
    return {
        alpha: s.apply(Poly.monomial(s.n, alpha))
        for alpha in monomials_up_to_degree(s.n, degree)
    }


def extract_coeffs(
    n: int, degree: int, images: Mapping[MultiIndex, Poly]
) -> DiffOpSeries:
    """Recover the series from a monomial-image table.

    The table must cover every monomial of total degree <= degree and
    commute with each partial derivative wherever both sides stay
    inside the table; that check is exactly what makes the coefficient
    formula c_alpha = image(x^alpha)(0)/alpha! reproduce the whole map.
    """
    table: dict[MultiIndex, Poly] = {}
    for alpha in monomials_up_to_degree(n, degree):
        if alpha not in images:
            raise ValueError(f"image table is missing monomial {alpha}")
        p = images[alpha]
        if p.n != n:
            raise ValueError("variable count mismatch in image table")
        table[alpha] = p
    for alpha in sorted(table, key=grlex_key):
        for i in range(1, n + 1):
            lowered = (
                table[alpha[: i - 1] + (alpha[i - 1] - 1,) + alpha[i:]].scale(alpha[i - 1])
                if alpha[i - 1] >= 1
                else Poly.zero(n)
            )
            if table[alpha].partial(i) != lowered:
                raise NotAnEndomorphism(i, alpha)
    coeffs = {
        alpha: table[alpha].eval_zero() / multi_factorial(alpha) for alpha in table
    }
    return DiffOpSeries(n, degree, coeffs)


class MonomialSubmodule(Value):
    """A submodule of the derivative module spanned by monomials.

    The exponent set is a lower set: closed downward under the
    componentwise order and containing the origin.
    """

    __slots__ = ("n", "indices", "_span")

    def __init__(self, n: int, indices):
        n = as_int(n)
        if n < 1:
            raise ValueError("variable count must be at least 1")
        indices = frozenset(tuple(a) for a in indices)
        if not indices:
            raise ValueError("a monomial submodule needs at least the origin")
        for alpha in indices:
            if len(alpha) != n or any(
                isinstance(a, bool) or not isinstance(a, int) or a < 0 for a in alpha
            ):
                raise ValueError(f"bad exponent vector {alpha}")
        if not is_lower_set(indices):
            raise ValueError("the exponent set is not a lower set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_span", None)

    @property
    def m(self) -> int:
        return len(self.indices)

    @property
    def max_degree(self) -> int:
        return max(sum(a) for a in self.indices)

    def monomials_descending(self) -> tuple[MultiIndex, ...]:
        return tuple(sorted(self.indices, key=grlex_key, reverse=True))

    def as_poly_submodule(self) -> PolySubmodule:
        """The span of the monomials, built on the first call."""
        if self._span is None:
            monomials = [Poly.monomial(self.n, a) for a in self.monomials_descending()]
            object.__setattr__(self, "_span", PolySubmodule(self.n, monomials))
        return self._span

    def _key(self) -> tuple:
        return self.n, self.indices

    def __repr__(self) -> str:
        return f"MonomialSubmodule(n={self.n}, m={self.m})"

    def to_json(self) -> dict:
        return {"n": self.n, "indices": [list(a) for a in self.monomials_descending()]}

    @classmethod
    def from_json(cls, data) -> "MonomialSubmodule":
        return cls(data["n"], data["indices"])


def restrict(s: DiffOpSeries, module: MonomialSubmodule) -> ModuleMap:
    """The action of the series on the monomial basis, as a module map.

    Closed form: d^gamma x^alpha = alpha!/(alpha-gamma)! x^(alpha-gamma),
    so the entry in row x^beta and column x^alpha is
    c_(alpha-beta) alpha!/beta! when beta <= alpha componentwise, and 0
    otherwise.  Lower sets are closed under taking derivatives, so the
    matrix depends only on the coefficients c_lambda with lambda in the set.
    """
    if s.n != module.n:
        raise ValueError("variable count mismatch")
    if s.trunc < module.max_degree:
        raise TruncationTooLow(
            f"series truncation {s.trunc} below the submodule degree "
            f"{module.max_degree}"
        )
    matrix = _restriction_matrix(s.coeffs, module.monomials_descending())
    space = module.as_poly_submodule()
    return ModuleMap(space, space, matrix)


def _restriction_matrix(
    coeffs: Mapping[MultiIndex, Fraction], order: tuple[MultiIndex, ...]
) -> QMatrix:
    """The matrix of sum c_gamma d^gamma on the monomials `order` of a
    lower set: row x^beta, column x^alpha holds c_(alpha-beta) alpha!/beta!,
    which is 0 unless beta <= alpha."""
    zero = Fraction(0)
    facts = [(a, multi_factorial(a)) for a in order]
    rows = []
    for beta, beta_fact in facts:
        row = []
        for alpha, alpha_fact in facts:
            c = coeffs.get(tuple(map(sub, alpha, beta)))
            row.append(c * alpha_fact / beta_fact if c else zero)
        rows.append(tuple(row))
    return QMatrix._trusted(rows, len(order))


# --- extension of isomorphisms between polynomial submodules -----------

def _check_iso(source: PolySubmodule, target: PolySubmodule, phi: ModuleMap) -> None:
    if phi.source != source or phi.target != target:
        raise IncompatibleMap("map endpoints disagree with the given submodules")
    if not phi.is_isomorphism():
        raise IncompatibleMap("map is not an intertwining bijection")


def _least_missing_monomial(
    module: PolySubmodule, within: Optional[MonomialSubmodule]
) -> Optional[MultiIndex]:
    """The grlex-least exponent whose monomial lies outside the
    submodule, or None when there is none.

    The candidates are within's exponents, or else every exponent up to
    one above the top degree of the submodule's support: every monomial
    above that degree is missing, so the least missing one is among them.
    """
    n = module.n
    if within is not None:
        candidates = within.indices
    else:
        candidates = monomials_up_to_degree(n, sum(module.monomial_list[0]) + 1)
    ordered = sorted(candidates, key=grlex_key)
    return next((a for a in ordered if not module.contains(Poly.monomial(n, a))), None)


def extend_iso_step(
    source: PolySubmodule,
    target: PolySubmodule,
    phi: ModuleMap,
    within: Optional[MonomialSubmodule] = None,
) -> tuple[PolySubmodule, PolySubmodule, ModuleMap]:
    """Extend an isomorphism by one dimension.

    Adjoins the least missing monomial x^kappa of minimal total degree
    to the source; its image is the potential of the images of its
    derivatives, which lands outside the target.  With `within`, the
    monomial is chosen among that submodule's exponents only.

    The extended map is B A^-1, where the columns of A are the new
    source coordinates of the old basis and x^kappa, and those of B are
    the new target coordinates of their images.
    """
    _check_iso(source, target, phi)
    kappa = _least_missing_monomial(source, within)
    if kappa is None:
        raise NothingToExtend("the target monomials are already covered")
    extended = _extend_iso_step(phi, kappa)
    return extended.source, extended.target, extended


def _extend_iso_step(phi: ModuleMap, kappa: MultiIndex) -> ModuleMap:
    """phi, an isomorphism between polynomial submodules, extended to
    x^kappa, the least monomial missing from its source."""
    from .embed import potential

    source, target = phi.source, phi.target
    n = source.n

    def coordinates(space: PolySubmodule, p: Poly, invariant: str) -> tuple:
        coords = space.coordinates_of(p)
        if coords is None:
            raise AssertionError(invariant)
        return coords

    def phi_of(p: Poly) -> Poly:
        coords = coordinates(source, p, "phi is only applied inside the source")
        return target.from_coordinates(phi.apply_coords(coords))

    new_monomial = Poly.monomial(n, kappa)
    # kappa has minimal degree among missing monomials, so its partials
    # (one degree lower) all lie inside the source.
    gs = [phi_of(new_monomial.partial(i)) for i in range(1, n + 1)]
    g = potential(gs, n)
    if target.contains(g):
        raise AssertionError("the extension image must be new")

    new_source = PolySubmodule(n, list(source.basis) + [new_monomial])
    new_target = PolySubmodule(n, list(target.basis) + [g])
    images = [phi.image_poly(r) for r in range(source.dim)] + [g]
    a = QMatrix.from_columns(
        [
            coordinates(new_source, p, "the new source holds the old basis and x^kappa")
            for p in list(source.basis) + [new_monomial]
        ]
    )
    b = QMatrix.from_columns(
        [coordinates(new_target, q, "every image lies in the new target") for q in images]
    )
    a_inverse = a.inverse()
    if a_inverse is None:
        raise AssertionError("the old basis and x^kappa are a basis of the new source")
    return ModuleMap(new_source, new_target, b * a_inverse)


def extend_iso(
    source: PolySubmodule,
    target: PolySubmodule,
    phi: ModuleMap,
    goal: MonomialSubmodule,
) -> ModuleMap:
    """Extend an isomorphism until its domain contains the goal's span.

    Each step adjoins the least goal monomial missing from the source,
    found by one search, so the loop ends after at most m steps.  The
    caller's map is checked once: every later map is built by a step
    from a checked one.
    """
    _check_iso(source, target, phi)
    while (kappa := _least_missing_monomial(phi.source, goal)) is not None:
        phi = _extend_iso_step(phi, kappa)
    return phi


# --- automorphism groups of monomial submodules -------------------------

class AutDescriptor(Value):
    """Coordinates for an automorphism of a monomial submodule.

    One nonzero unit (the scale) and one additive coordinate per
    non-origin exponent, living in logarithmic coordinates where
    composition is plain addition.
    """

    __slots__ = ("unit", "additive")

    def __init__(self, unit, additive: Optional[Mapping[MultiIndex, object]] = None):
        unit = as_fraction(unit)
        if unit == 0:
            raise ValueError("the unit coordinate must be nonzero")
        clean: dict[MultiIndex, Fraction] = {}
        for alpha, c in (additive or {}).items():
            alpha = tuple(alpha)
            if all(a == 0 for a in alpha):
                raise ValueError("the origin is not an additive coordinate")
            c = as_fraction(c)
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "additive", clean)

    def _key(self) -> tuple:
        return self.unit, self.additive

    def __hash__(self) -> int:
        return hash((self.unit, frozenset(self.additive.items())))

    def __repr__(self) -> str:
        return f"AutDescriptor(unit={self.unit}, {len(self.additive)} additive terms)"


class AutGroup:
    """The automorphism group of a monomial submodule.

    The group is the direct product of the nonzero rationals (units) and
    m-1 additive lines: a descriptor (u, t) maps to the restriction of
    u * exp(sum t_lambda d^lambda), and the group law in descriptor
    coordinates is (u, t) . (u', t') = (u u', t + t').  Restriction to a
    lower set is an algebra map, so everything here is exact.

    A lower set holds gamma - beta with every gamma >= beta in it, so
    exp and log run on its m coefficients alone, by the recurrences of
    series_exp and series_log, and the matrix is written down entry by
    entry: row x^beta, column x^alpha holds c_(alpha-beta) alpha!/beta!.
    """

    def __init__(self, module: MonomialSubmodule):
        self.module = module
        self._order = self.module.monomials_descending()

    @property
    def space(self) -> PolySubmodule:
        """The submodule as a PolySubmodule, built when a map first needs it."""
        return self.module.as_poly_submodule()

    @property
    def unit_count(self) -> int:
        return 1

    @property
    def additive_count(self) -> int:
        return self.module.m - 1

    def identity(self) -> AutDescriptor:
        return AutDescriptor(1)

    def compose(self, a: AutDescriptor, b: AutDescriptor) -> AutDescriptor:
        """The group law: units multiply, additive coordinates add."""
        self._check_descriptor(a)
        self._check_descriptor(b)
        n = self.module.n
        total = Poly(n, a.additive) + Poly(n, b.additive)
        return AutDescriptor(a.unit * b.unit, total.terms)

    def inverse(self, a: AutDescriptor) -> AutDescriptor:
        self._check_descriptor(a)
        return AutDescriptor(1 / a.unit, {k: -v for k, v in a.additive.items()})

    def _check_descriptor(self, desc: AutDescriptor) -> None:
        for alpha in desc.additive:
            if alpha not in self.module.indices:
                raise ValueError(f"additive coordinate {alpha} outside the submodule")

    def parametrize(self, desc: AutDescriptor) -> ModuleMap:
        """The automorphism of the submodule named by a descriptor."""
        return ModuleMap(self.space, self.space, self.matrix_of(desc))

    def matrix_of(self, desc: AutDescriptor) -> QMatrix:
        """The matrix of u * exp(sum t_lambda d^lambda) on the submodule."""
        self._check_descriptor(desc)
        module = self.module
        series = _exp_coeffs(desc.additive, module.n, module.max_degree, module.indices)
        return _restriction_matrix(
            {alpha: desc.unit * c for alpha, c in series.items()}, self._order
        )

    def descriptor_of(self, automorphism) -> AutDescriptor:
        """Inverse of parametrize; accepts the map or its matrix.

        The coefficient c_lambda of the underlying series is read off
        the constant-monomial row, then the unit is split off and the
        rest moved to logarithmic coordinates.
        """
        matrix = automorphism.images if isinstance(automorphism, ModuleMap) else automorphism
        module = self.module
        if matrix.rows != module.m or matrix.cols != module.m:
            raise ValueError("matrix size disagrees with the submodule")
        # The origin is the least monomial, so its row is the last one.
        origin_row = matrix.entries[-1]
        unit = origin_row[-1]
        if unit == 0:
            raise ValueError("not an automorphism: zero unit coefficient")
        normalized = {
            alpha: c / (unit * multi_factorial(alpha))
            for alpha, c in zip(self._order, origin_row)
            if c != 0
        }
        logs = _log_coeffs(normalized, module.max_degree, module.indices)
        desc = AutDescriptor(unit, logs)
        if self.matrix_of(desc) != matrix:
            raise ValueError("matrix is not the restriction of any series")
        return desc


def aut_structure(module: MonomialSubmodule) -> AutGroup:
    return AutGroup(module)


def restriction_kernel_dim(module: MonomialSubmodule, trunc: int) -> int:
    """Dimension of the kernel of series restriction at a truncation.

    The quotient description of the automorphism group of a submodule
    comes with this kernel.  Closed form: comb(n + trunc, n) - m.  The
    series truncated at trunc have one basis operator d^gamma per
    exponent with |gamma| <= trunc.  On a lower set, d^gamma is nonzero
    exactly when gamma is in the set (it sends x^gamma to gamma!), and
    the matrices of distinct d^gamma have disjoint supports (the entry
    at (x^beta, x^alpha) belongs to gamma = alpha - beta alone), so the
    restriction has rank m.
    """
    if trunc < module.max_degree:
        raise TruncationTooLow(
            f"truncation {trunc} below the submodule degree {module.max_degree}"
        )
    return comb(module.n + trunc, module.n) - module.m
