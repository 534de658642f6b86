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

A series stores its polynomial in d, which stores integer numerators
over one denominator.  The kernels built on these forms (application,
composition, exp and log, the monomial-image table and its check in
`extract_coeffs`, the restriction matrix and isomorphism extension)
read and write that form, as the linear algebra of `exactalg` does: the
loops add and multiply integers, and a result whose terms carry their
own denominators takes each over their lcm (`Poly._over_lcm`).  exp and
log solve for the integers X_g D^|g| |g|! when s = N/D, so their pass
divides nothing.  A table passes the check of `extract_coeffs` when it
is the image table of the series its constant terms name, compared in
one pass of integer cross-multiplications.  Results go through
`Poly._trusted` and `DiffOpSeries._trusted`; input goes through the
validating constructors.

Composition, exp and log, application, the image table and its check
run on the packed keys of `multipoly._packing`, one integer per
exponent: a sum of exponents is one add and gamma <= beta one mask test.

An isomorphism between polynomial submodules grows one monomial at a
time, as FGLM grows its basis: each step adds the graded-lex least
monomial x^kappa missing from the source as one echelon row, and maps
it to the potential of the images of its partials, which lie inside.

The series and the monomial submodules need only polynomials.  The
submodules and maps of `polysub`, and through it the matrix modules of
`modcore`, are imported by the five places that build or read one:
`MonomialSubmodule.as_poly_submodule`, `restrict`, the extension, and
`AutGroup.parametrize` and `descriptor_of`.  So reading a table or a
monomial submodule loads no matrix module.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import sub
from typing import TYPE_CHECKING, Container, Iterable, Mapping, Optional, Sized

from .errors import (
    IncompatibleMap,
    NothingToExtend,
    NotAnEndomorphism,
    TruncationTooLow,
    WrongConstantTerm,
)
from .exactalg import QMatrix, Value, _columns, _fields, _over_lcm, as_fraction, grlex_key, multi_factorial
from .multipoly import (
    MultiIndex,
    Poly,
    _box,
    _by_degree,
    _exponent,
    _is_image_table,
    _packing,
    _same_count,
    _truncation,
    _variable_count,
    is_lower_set,
    monomials_up_to_degree,
    potential,
    truncated_product,
)

if TYPE_CHECKING:
    from .polysub import ModuleMap, PolySubmodule


class DiffOpSeries(Value):
    """sum c_alpha d^alpha with all |alpha| <= trunc; zeros not stored.

    A truncated element of K[d], stored as that polynomial in d: its
    sums, products and JSON are those of `Poly`.
    """

    __slots__ = ("n", "trunc", "_poly")

    def __init__(self, n: int, trunc: int, coeffs: Optional[Mapping[MultiIndex, object]] = None):
        poly = Poly(n, coeffs)
        trunc = _truncation(trunc)
        for alpha in poly._nums:
            if sum(alpha) > trunc:
                raise ValueError(f"index {alpha} exceeds truncation {trunc}")
        self._store(trunc, poly)

    def _store(self, trunc: int, poly: Poly) -> None:
        object.__setattr__(self, "n", poly.n)
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_poly", poly)

    @classmethod
    def _trusted(cls, trunc: int, poly: Poly) -> "DiffOpSeries":
        """The series of a polynomial in d of total degree <= trunc that
        code of this module computed from checked series, polynomials or
        tables; input goes through `DiffOpSeries(n, trunc, coeffs)`."""
        out = object.__new__(cls)
        out._store(trunc, poly)
        return out

    @classmethod
    def identity(cls, n: int, trunc: int) -> "DiffOpSeries":
        return cls(n, trunc, {(0,) * _variable_count(n): 1})

    @classmethod
    def derivative(cls, n: int, trunc: int, i: int) -> "DiffOpSeries":
        return cls(n, trunc, dict.fromkeys(Poly.variable(n, i).monomials(), 1))

    @property
    def coeffs(self) -> dict[MultiIndex, Fraction]:
        """The coefficients as `Fraction`s: the polynomial's view."""
        return self._poly.terms

    @property
    def unit(self) -> Fraction:
        """The constant-operator coefficient c_(0,...,0)."""
        return Fraction(self._poly._nums.get((0,) * self.n, 0), self._poly._den)

    def is_automorphism(self) -> bool:
        return self.unit != 0

    def _key(self) -> tuple:
        return self.trunc, self._poly

    def __repr__(self) -> str:
        return f"DiffOpSeries(n={self.n}, trunc={self.trunc}, {len(self._poly._nums)} terms)"

    def __add__(self, other: "DiffOpSeries") -> "DiffOpSeries":
        if not isinstance(other, DiffOpSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        total = self._poly + other._poly
        nums = {a: c for a, c in total._nums.items() if sum(a) <= trunc}
        return DiffOpSeries._trusted(trunc, Poly._trusted(self.n, nums, total._den))

    def __neg__(self) -> "DiffOpSeries":
        return self.scale(-1)

    def __sub__(self, other: "DiffOpSeries") -> "DiffOpSeries":
        return self + (-other) if isinstance(other, DiffOpSeries) else NotImplemented

    def scale(self, c) -> "DiffOpSeries":
        return DiffOpSeries._trusted(self.trunc, self._poly.scale(c))

    def compose(self, other: "DiffOpSeries") -> "DiffOpSeries":
        """Operator composition: the product in K[d], truncated at the
        lower of the two truncations (commutative)."""
        trunc = min(self.trunc, other.trunc)
        return DiffOpSeries._trusted(trunc, truncated_product(self._poly, other._poly, trunc))

    def apply(self, p: Poly) -> Poly:
        """sum c_gamma d^gamma p; refuses polynomials beyond the truncation.

        A series truncated at D only determines an operator on
        polynomials of total degree <= D, so higher-degree input is an
        error rather than a silent approximation.

        Closed form: d^gamma x^beta = beta!/(beta-gamma)! x^(beta-gamma)
        when gamma <= beta, else 0.  With c_gamma = N_gamma/D and
        b_beta = P_beta/D_p, the integers N_gamma P_beta beta! landing
        on x^delta are summed, and the sum is over D D_p delta!.  Each
        beta looks up the packed cells of its box when it has no more of
        them than the series has terms, and otherwise tests the support
        up to degree |beta|, so a one-term series stays cheap.
        """
        _same_count(self.n, p)
        deg = p.total_degree()
        if isinstance(deg, int) and deg > self.trunc:
            raise TruncationTooLow(f"polynomial degree {deg} exceeds truncation {self.trunc}", self.trunc, deg)
        nums = self._poly._nums
        pack, unpack, weights, high = _packing(self.n, self.trunc)
        gammas = _by_degree(nums, pack, self.trunc)
        table = {k: c for k, _, c in gammas}
        sums: dict[int, int] = {}
        for beta, b in p._nums.items():
            b *= multi_factorial(beta)
            key, room = pack(beta), sum(beta)
            # A box has at least |beta| + 1 cells.
            if room < len(nums) and prod(a + 1 for a in beta) <= len(nums):
                box = [0]
                for a, weight in zip(beta, weights):
                    box = [k + j for k in box for j in range(0, (a + 1) * weight, weight)]
                for k in box:
                    if k in table:
                        sums[key - k] = sums.get(key - k, 0) + table[k] * b
                continue
            for k, d, c in gammas:
                if d > room:
                    break
                if (key + high - k) & high == high:
                    sums[key - k] = sums.get(key - k, 0) + c * b
        deltas = list(map(unpack, sums))
        facts = list(map(multi_factorial, deltas))
        top = lcm(*facts)
        out = {delta: v * (top // f) for delta, v, f in zip(deltas, sums.values(), facts)}
        return Poly._trusted(self.n, out, self._poly._den * p._den * top)

    def to_json(self) -> dict:
        return {"n": self.n, "trunc": self.trunc, "coeffs": self._poly.to_json()}


def _graded_solve(s: Poly, trunc: int, within: Optional[Container[MultiIndex]], log: bool) -> Poly:
    """exp(s), or log(1 + s) when `log`, up to degree trunc, for s the
    non-constant terms of the given polynomial: X_0 = 1 for exp and 0
    for log, and for 0 < |g| <= trunc

        |g| X_g = |g| s_g + sum_(a + b = g, a != 0) w X_a s_b,

    with w = |b| for exp and w = -|a| for log.  Every b has positive
    degree, so the right side only uses X_a of lower degree, and one
    pass in ascending degree solves it.  With s = N/D, the pass runs on
    the integers F_g = X_g D^|g| |g|!:

        F_h = |h|! N_h D^(|h|-1)
              + sum_(a + b = h, a != 0) w N_b D^(|b|-1) (|h|-1)!/|a|! F_a,

    and each F_g is taken over D^|g| |g|!.  Each solved F_a is pushed
    onto a + b for every b in the support, so the pass visits only sums
    of support exponents, never the whole C(n + trunc, n) monomials.
    With `within` (a lower set), only its monomials are computed; they
    never need one outside it.
    """
    den = s._den
    pack, unpack, _, _ = _packing(s.n, trunc)
    fact = [factorial(k) for k in range(trunc + 1)]
    terms = [(b, d, c * den ** (d - 1)) for b, d, c in _by_degree(s._nums, pack, trunc) if d]
    if within is not None:
        within = {pack(a) for a in within if sum(a) <= trunc}
    pending: list[dict[int, int]] = [{} for _ in range(trunc + 1)]
    for b, d, c in terms:
        if within is None or b in within:
            pending[d][b] = fact[d] * c
    if not log:
        terms = [(b, d, d * c) for b, d, c in terms]
    out = {} if log else {(0,) * s.n: (1, 1)}
    for d in range(1, trunc + 1):
        scale = den**d * fact[d]
        pushes = [
            (b, d + k, c * (fact[d + k - 1] // fact[d])) for b, k, c in terms if d + k <= trunc
        ]
        for g, f in pending[d].items():
            if not f:
                continue
            out[unpack(g)] = (f, scale)
            w = -d * f if log else f
            for b, e, c in pushes:
                h = g + b
                if within is None or h in within:
                    bucket = pending[e]
                    bucket[h] = bucket.get(h, 0) + w * c
    return Poly._over_lcm(s.n, out)


def series_exp(s: DiffOpSeries) -> DiffOpSeries:
    """Formal exponential; needs zero constant term.

    Closed form from theta E = (theta s) E, where theta scales the
    coefficient at gamma by |gamma|:
    |gamma| E_gamma = sum_(0<beta<=gamma) |beta| s_beta E_(gamma-beta),
    one pass in ascending degree over the sums of support exponents.
    """
    if s.unit != 0:
        raise WrongConstantTerm("exp needs a zero constant term")
    return DiffOpSeries._trusted(s.trunc, _graded_solve(s._poly, s.trunc, None, log=False))


def series_log(s: DiffOpSeries) -> DiffOpSeries:
    """Formal logarithm; needs constant term one.  Inverse of series_exp.

    Closed form from theta e = (theta L) e for L = log(e):
    |gamma| L_gamma = |gamma| e_gamma
    - sum_(0<delta<gamma) |gamma-delta| L_(gamma-delta) e_delta,
    one pass in ascending degree over the sums of support exponents.
    """
    if s.unit != 1:
        raise WrongConstantTerm("log needs constant term one")
    return DiffOpSeries._trusted(s.trunc, _graded_solve(s._poly, s.trunc, None, log=True))


def monomial_images(s: DiffOpSeries) -> dict[MultiIndex, Poly]:
    """The table alpha -> s(x^alpha) for all |alpha| up to the truncation.

    By the closed form of `DiffOpSeries.apply`, with c_gamma = N_gamma/D
    over one common denominator, the image of x^alpha has the term
    N_gamma alpha!/(alpha-gamma)! / D at x^(alpha-gamma) for every
    gamma <= alpha; distinct gamma give distinct monomials, so nothing
    is summed.  Each support term gamma is pushed onto every delta with
    |gamma + delta| <= trunc, the first C(n + trunc - |gamma|, n) of the
    monomials in ascending degree, and finds the image of x^(gamma +
    delta) by packed key: only contributing pairs are visited.
    """
    n, trunc = s.n, s.trunc
    pack, _, _, _ = _packing(n, trunc)
    alphas = list(monomials_up_to_degree(n, trunc))
    facts = list(map(multi_factorial, alphas))
    rows = {pack(alpha): (fact, {}) for alpha, fact in zip(alphas, facts)}
    deltas = list(zip(rows, alphas, facts))
    for gamma, c in s._poly._nums.items():
        key = pack(gamma)
        for k, delta, fact in deltas[: comb(n + trunc - sum(gamma), n)]:
            top, row = rows[key + k]
            row[delta] = c * (top // fact)
    return {alpha: Poly._trusted(n, row, s._poly._den) for alpha, (_, row) in zip(alphas, rows.values())}


def extract_coeffs(
    n: int, degree: int, images: Mapping[MultiIndex, Poly]
) -> DiffOpSeries:
    """Recover the series from a monomial-image table.

    The table must cover every monomial of total degree <= degree, hold
    none above it, and be the image table of the series c_alpha =
    image(x^alpha)(0)/alpha!, which is what commuting with each d_i
    means; `multipoly._is_image_table` checks that in one pass.  The
    witness (i, alpha) of a failure is the first alpha in grlex order
    whose image differs, x_i the first variable in the difference: every
    lower image agrees, so d_i s(x^alpha) == alpha_i s(x^(alpha - e_i))
    first fails there, and it is d_i of a difference with no constant term.
    """
    n, degree = _variable_count(n), _truncation(degree)
    table: dict[MultiIndex, Poly] = {}
    for alpha in monomials_up_to_degree(n, degree):
        if alpha not in images:
            raise ValueError(f"image table is missing monomial {alpha}")
        p = images[alpha]
        if p.n != n:
            raise ValueError("variable count mismatch in image table")
        table[alpha] = p
    if len(images) > len(table):
        alpha = min((_exponent(a, n) for a in images if a not in table), key=grlex_key)
        raise ValueError(f"image table has monomial {alpha} above degree {degree}")
    origin = (0,) * n
    facts = list(map(multi_factorial, table))
    series = DiffOpSeries._trusted(degree, Poly._over_lcm(n, {
        alpha: (p._nums[origin], p._den * f) for (alpha, p), f in zip(table.items(), facts) if origin in p._nums
    }))
    if not _is_image_table(series._poly, degree, table, facts):
        expected = monomial_images(series)
        alpha = min((a for a, p in table.items() if p != expected[a]), key=grlex_key)
        i = min(next(k for k, e in enumerate(delta) if e) for delta in (table[alpha] - expected[alpha])._nums)
        raise NotAnEndomorphism(i + 1, alpha)
    return series


class MonomialSubmodule(Value):
    """A submodule of the derivative module spanned by monomials.

    The exponent set is a lower set: closed downward under the
    componentwise order and containing the origin.
    """

    __slots__ = ("n", "indices", "_span", "_pairs")

    def __init__(self, n: int, indices):
        n = _variable_count(n)
        indices = frozenset(_exponent(a, n) for a in indices)
        if not indices:
            raise ValueError("a monomial submodule needs at least the origin")
        if not is_lower_set(indices):
            raise ValueError("the exponent set is not a lower set")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_span", None)
        object.__setattr__(self, "_pairs", None)

    @property
    def m(self) -> int:
        return len(self.indices)

    @property
    def max_degree(self) -> int:
        return max(sum(a) for a in self.indices)

    def monomials_descending(self) -> tuple[MultiIndex, ...]:
        return tuple(sorted(self.indices, key=grlex_key, reverse=True))

    def as_poly_submodule(self) -> PolySubmodule:
        """The whole space over the monomials, built on the first call with
        no elimination.  A lower set's span is closed by construction:
        d_i x^alpha is a multiple of x^(alpha - e_i), in the set."""
        if self._span is None:
            from .polysub import PolySubmodule
            object.__setattr__(self, "_span", PolySubmodule._trusted(self.n, self.monomials_descending(), None))
        return self._span

    def _comparable_pairs(self) -> list:
        """(i, j, alpha - beta, alpha!/beta!) per beta <= alpha, listed once."""
        if self._pairs is None:
            order = self.monomials_descending()
            index = {alpha: i for i, alpha in enumerate(order)}
            facts = [multi_factorial(alpha) for alpha in order]
            pairs = []
            for j, alpha in enumerate(order):
                for beta in _box(alpha):
                    i = index[beta]
                    gamma = order[index[tuple(map(sub, alpha, beta))]]
                    pairs.append((i, j, gamma, facts[j] // facts[i]))
            object.__setattr__(self, "_pairs", pairs)
        return self._pairs

    def _restriction_matrix(self, series: Poly) -> QMatrix:
        """The matrix of sum c_gamma d^gamma, the polynomial in d given,
        on `monomials_descending()`: row x^beta, column x^alpha holds
        c_(alpha-beta) alpha!/beta!, 0 unless beta <= alpha.  With
        c = N/D, a nonzero entry is the integer N (alpha!/beta!) over D."""
        nums = series._nums
        m = self.m
        rows = [[0] * m for _ in range(m)]
        for i, j, gamma, ratio in self._comparable_pairs():
            c = nums.get(gamma)
            if c:
                rows[i][j] = c * ratio
        return QMatrix._trusted(rows, series._den, m)

    def _key(self) -> tuple:
        return self.n, self.indices

    def __repr__(self) -> str:
        return f"MonomialSubmodule(n={self.n}, m={self.m})"

    def to_json(self) -> dict:
        return {"n": self.n, "indices": [list(a) for a in self.monomials_descending()]}

    @classmethod
    def from_json(cls, data) -> "MonomialSubmodule":
        n, indices = _fields(data, "submodule JSON", "n", "indices")
        if not isinstance(indices, list):
            raise ValueError('submodule field "indices" must be an array of exponent vectors')
        return cls(n, indices)


def restrict(s: DiffOpSeries, module: MonomialSubmodule) -> ModuleMap:
    """The action of the series on the monomial basis, as a module map.

    Closed form: d^gamma x^alpha = alpha!/(alpha-gamma)! x^(alpha-gamma),
    so the entry in row x^beta and column x^alpha is
    c_(alpha-beta) alpha!/beta! when beta <= alpha componentwise, and 0
    otherwise.  Lower sets are closed under taking derivatives, so the
    matrix depends only on the coefficients c_lambda with lambda in the set.
    """
    from .polysub import ModuleMap
    _same_count(s.n, module)
    if s.trunc < module.max_degree:
        raise TruncationTooLow(
            f"series truncation {s.trunc} below the submodule degree {module.max_degree}", s.trunc, module.max_degree
        )
    matrix = module._restriction_matrix(s._poly)
    space = module.as_poly_submodule()
    return ModuleMap(space, space, matrix)


# --- extension of isomorphisms between polynomial submodules -----------

def _check_iso(source: PolySubmodule, target: PolySubmodule, phi: ModuleMap) -> None:
    if phi.source != source or phi.target != target:
        raise IncompatibleMap("map endpoints disagree with the given submodules")
    if not phi.is_isomorphism():
        raise IncompatibleMap("map is not an intertwining bijection")


def _extend(phi: ModuleMap, candidates: Iterable[MultiIndex], limit: Optional[int]) -> ModuleMap:
    """phi extended to at most `limit` missing candidates, least first in
    grlex order, or phi when none is missing.  rows[pi], the source's
    echelon row led by pi, is monic there and zero at the other leads,
    with image images[pi], both combined by integer scalars: x^alpha is
    inside iff rows[alpha] is x^alpha.  The new source is the span of the
    rows, whose elimination combines none of them and only makes each
    primitive; the map's column k is row k's image's target pivot entries."""
    from .polysub import ModuleMap, PolySubmodule, _poly_rows
    source, target, n = phi.source, phi.target, phi.source.n
    leads = [source.monomial_list[c] for c in source.coords._pivots]
    rows = dict(zip(leads, source.basis))
    images = dict(zip(leads, phi.image_polys()))
    zero, news = Poly._trusted(n, {}, 1), []

    def inside(alpha: MultiIndex) -> bool:
        return alpha in rows and len(rows[alpha]._nums) == 1

    for kappa in sorted(candidates, key=grlex_key):
        if len(news) == limit:
            break
        if inside(kappa):
            continue
        gs = []
        for i, k in enumerate(kappa):
            beta = kappa[:i] + (k - 1,) + kappa[i + 1 :]
            if k and not inside(beta):
                raise AssertionError("phi is only applied inside the source")
            gs.append(zero._plus(k, 1, images[beta]) if k else zero)
        news.append(potential(gs, n))
        new, image = Poly._trusted(n, {kappa: 1}, 1), news[-1]
        if kappa in rows:
            new, image = new._plus(-1, 1, rows[kappa]), image._plus(-1, 1, images[kappa])
        lead = max(new._nums, key=grlex_key)
        c = new._nums[lead]  # new / (c / D) is monic at lead
        new, image = zero._plus(new._den, c, new), zero._plus(new._den, c, image)
        for pi, row in rows.items():
            f = row._nums.get(lead)
            if f:
                rows[pi], images[pi] = row._plus(-f, row._den, new), images[pi]._plus(-f, row._den, image)
        rows[lead], images[lead] = new, image
    if not news:
        return phi
    # Both spans are closed by construction: d_i x^kappa is k x^beta with
    # x^beta inside, and d_i g = k phi(x^beta), checked by `potential`.
    new_source = PolySubmodule._trusted(n, *_poly_rows(list(rows.values())))
    if new_source.dim != len(rows):
        raise AssertionError("one source dimension per row")
    new_target = PolySubmodule._trusted(n, *_poly_rows(list(target.basis) + news))
    if new_target.dim != len(rows):
        raise AssertionError("the extension image must be new")
    order = [images[new_source.monomial_list[c]] for c in new_source.coords._pivots]
    columns = [new_target.coords._pivot_entries([p._nums.get(a, 0) for a in new_target.monomial_list]) for p in order]
    if None in columns:
        raise AssertionError("every image lies in the new target")
    ints, den = _over_lcm(columns, [p._den for p in order])
    return ModuleMap(new_source, new_target, QMatrix._trusted(_columns(ints, len(rows)), den, len(rows)))


def extend_iso_step(
    source: PolySubmodule,
    target: PolySubmodule,
    phi: ModuleMap,
    within: Optional[MonomialSubmodule] = None,
) -> tuple[PolySubmodule, PolySubmodule, ModuleMap]:
    """Extend an isomorphism by one dimension: `extend_iso` with one step.

    Adjoins the least missing monomial x^kappa to the source; its image,
    the potential of its partials' images, lands outside the target.
    With `within`, kappa is among its exponents.
    """
    if within is not None:
        _same_count(source.n, within)
    _check_iso(source, target, phi)
    # Every monomial one degree above the support's top is missing.
    top = sum(source.monomial_list[0]) + 1
    extended = _extend(phi, monomials_up_to_degree(source.n, top) if within is None else within.indices, 1)
    if extended is phi:
        raise NothingToExtend("the target monomials are already covered")
    return extended.source, extended.target, extended


def extend_iso(
    source: PolySubmodule,
    target: PolySubmodule,
    phi: ModuleMap,
    goal: MonomialSubmodule,
) -> ModuleMap:
    """Extend an isomorphism until its domain contains the goal's span.

    One grlex pass over the goal adds each least missing monomial as one
    echelon row.  Each side's span is built once, the source's on the
    rows and the target's on its basis and the new images, and column k
    of the map is the image of basis vector k: nothing is inverted.
    phi, checked once, comes back if none is missing.
    """
    _same_count(source.n, goal)
    _check_iso(source, target, phi)
    return _extend(phi, goal.indices, None)


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
        additive = additive or {}
        # Every exponent has the first one's length; one with no length is
        # read against n = 1.
        first = next(iter(additive), ())
        n = len(first) if isinstance(first, Sized) else 1
        for alpha, c in additive.items():
            alpha = _exponent(alpha, n)
            if all(a == 0 for a in alpha):
                raise ValueError("the origin is not an additive coordinate")
            c = as_fraction(c)
            if c != 0:
                clean[alpha] = c
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "additive", clean)

    @classmethod
    def _trusted(cls, unit: Fraction, additive: dict[MultiIndex, Fraction]) -> "AutDescriptor":
        """A descriptor on a nonzero `Fraction` unit and nonzero `Fraction`s
        at non-origin exponents, that `AutGroup` computed from checked input."""
        out = object.__new__(cls)
        object.__setattr__(out, "unit", unit)
        object.__setattr__(out, "additive", additive)
        return out

    def _key(self) -> tuple:
        return self.unit, self.additive

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
    series_exp and series_log, and the matrix is written down from the
    submodule's comparable pairs beta <= alpha, listed once: row x^beta,
    column x^alpha holds c_(alpha-beta) alpha!/beta!.
    """

    def __init__(self, module: MonomialSubmodule):
        self.module = module
        self._order = module.monomials_descending()

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
        total = dict(a.additive)
        for alpha, c in b.additive.items():
            c += total.get(alpha, 0)
            if c:
                total[alpha] = c
            else:
                del total[alpha]
        return AutDescriptor._trusted(a.unit * b.unit, total)

    def inverse(self, a: AutDescriptor) -> AutDescriptor:
        self._check_descriptor(a)
        return AutDescriptor._trusted(1 / a.unit, {k: -v for k, v in a.additive.items()})

    def _check_descriptor(self, desc: AutDescriptor) -> None:
        for alpha in desc.additive:
            if alpha not in self.module.indices:
                raise ValueError(f"additive coordinate {alpha} outside the submodule")

    def parametrize(self, desc: AutDescriptor) -> ModuleMap:
        """The automorphism of the submodule named by a descriptor."""
        from .polysub import ModuleMap
        return ModuleMap(self.space, self.space, self.matrix_of(desc))

    def matrix_of(self, desc: AutDescriptor) -> QMatrix:
        """The matrix of u * exp(sum t_lambda d^lambda) on the submodule,
        from the descriptor's checked coefficients, not validated again."""
        self._check_descriptor(desc)
        module = self.module
        additive = Poly._over_lcm(module.n, {a: (c.numerator, c.denominator) for a, c in desc.additive.items()})
        series = _graded_solve(additive, module.max_degree, module.indices, log=False)
        return module._restriction_matrix(series.scale(desc.unit))

    def descriptor_of(self, automorphism) -> AutDescriptor:
        """Inverse of parametrize; accepts the map or its matrix.

        The coefficients c_lambda of the underlying series are read off
        the constant-monomial row, and the matrix must be the restriction
        of that series c.  Then the unit is split off and the rest moved
        to logarithmic coordinates; on a lower set exp(log(c/u)) is c/u
        exactly, so the descriptor names the same matrix.
        """
        from .polysub import ModuleMap
        matrix = automorphism.images if isinstance(automorphism, ModuleMap) else automorphism
        module = self.module
        if matrix.rows != module.m or matrix.cols != module.m:
            raise ValueError("matrix size disagrees with the submodule")
        ints = matrix._ints
        # The origin's row x is the last: c_gamma = x_gamma / (D gamma!).
        x = ints[-1]
        if x[-1] == 0:
            raise ValueError("not an automorphism: zero unit coefficient")
        series = {alpha: (c, multi_factorial(alpha)) for alpha, c in zip(self._order, x)}
        pairs = module._comparable_pairs()
        nonzero = sum(len(row) - row.count(0) for row in ints)
        if nonzero != sum(1 for i, j, _, _ in pairs if ints[i][j]) or any(
            ints[i][j] * series[g][1] != series[g][0] * ratio for i, j, g, ratio in pairs
        ):
            raise ValueError("matrix is not the restriction of any series")
        normalized = Poly._over_lcm(module.n, {alpha: (c, fact * x[-1]) for alpha, (c, fact) in series.items()})
        logs = _graded_solve(normalized, module.max_degree, module.indices, log=True)
        return AutDescriptor._trusted(Fraction(x[-1], matrix._den), logs.terms)


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
    trunc = _truncation(trunc)
    if trunc < module.max_degree:
        raise TruncationTooLow(
            f"truncation {trunc} below the submodule degree {module.max_degree}", trunc, module.max_degree
        )
    return comb(module.n + trunc, module.n) - module.m
