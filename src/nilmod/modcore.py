"""Finite-dimensional modules over a polynomial ring in n variables.

A module is a rational vector space together with n pairwise-commuting
matrices giving the action of the variables.  This layer owns
validation, nilpotency, socles, twisting by a rational shift of the
variables and the socle's joint eigenvalues.  It reads only `errors`
and `exactalg`: a command that needs matrix modules alone loads no
polynomial.  The submodules of the polynomials, and the maps and
generators that join the two kinds of module, are `polysub`'s.

Squaring decides nilpotency, by `exactalg`'s one integer product, which
reads plain blocks by rows and packs dense ones of width 16 and up into
one integer per row.  The exact socle walk, M^alpha e_1, and the
inverse-system pass, the rows lambda S^alpha of the embedding's map,
certify it: on a nilpotent module both vanish past |alpha| = dim - 1.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .errors import (
    NoCommonEigenline,
    NonCommuting,
    NonRationalEigenvalue,
    NotNilpotent,
)
from .exactalg import (
    QMatrix,
    Subspace,
    Value,
    _check_var,
    _columns,
    _common_factor,
    _echelon,
    _fields,
    _integer_kernel,
    _matmul,
    _primitive_row,
    _row_form,
    _row_product,
    as_int,
    format_rational,
    grlex_key,
    multi_factorial,
    vector,
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
        forms = [_row_form(block, dim) for block in blocks] if n > 1 else ()
        for i in range(n):
            for j in range(i + 1, n):
                if [_row_product(r, forms[j]) for r in blocks[i]] != [_row_product(r, forms[i]) for r in blocks[j]]:
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
        content = _common_factor(0, power)
        if content == 0:
            return True
        if steps >= d:
            return False
        if content > 1:
            power = [[x // content for x in row] for row in power]
        power = _matmul(power, power, d)
        steps *= 2


def is_nilpotent(module: FDModule) -> bool:
    """True iff every action matrix is nilpotent.

    For commuting matrices this is equivalent to every zero-constant
    polynomial acting nilpotently.
    """
    return all(map(_is_nilpotent_matrix, module._blocks))


def _inverse_system(module: FDModule, lam: Sequence[int]) -> Optional[tuple]:
    """phi(e_j) = sum over alpha of (lam S^alpha)[j] x^alpha / alpha!, as
    integer rows with their weights.

    The S_i = M_i / D come as the module's integer blocks M_1, ..., M_n
    over one denominator D, and lam is an integer row, so the pass starts
    from lam over scale 1.  It returns the alpha with lam S^alpha nonzero,
    in descending order, primitive integer rows and their weights:
    lam S^alpha = row / scale, the weight is scale alpha!, and
    coefficient j of x^alpha is row[j] / weight.  lam S^(alpha + e_i) is
    (row M_i) / (scale D), its common factor with the scale divided out, so
    no row carries a power of D that lam S^alpha does not need.  The action
    commutes, so each alpha is reached once, from alpha minus its last
    variable: alpha is extended by the i from its last nonzero entry on, and
    a zero row, whose successors are zero, is dropped.  A nonzero row at
    |alpha| = d returns None: commuting nilpotent d x d matrices kill every
    product of d of them, so the module is not nilpotent.  So does a pass
    past 4 d (floor(log2 d) + 1) row products on a module that `is_nilpotent`
    refuses, checked once.  Each block is prepared once, by `_row_form`.
    """
    d, den = len(lam), module._den
    forms = [_row_form(m, d) for m in module._blocks]
    zero = (0,) * module.n
    found: dict[tuple[int, ...], tuple[list[int], int]] = {zero: (list(lam), 1)}
    budget, products = 4 * d * d.bit_length(), 0
    work = [(zero, 0)]
    for alpha, last in work:
        row, scale = found[alpha]
        for i in range(last, module.n):
            new = _row_product(row, forms[i])
            products += 1
            if products == budget + 1 and not is_nilpotent(module):
                return None
            if not any(new):
                continue
            if sum(alpha) + 1 == d:
                return None
            s = scale * den
            g = gcd(s, *new)
            beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            found[beta] = ([x // g for x in new] if g > 1 else new, s // g)
            work.append((beta, i))
    monomials = sorted(found, key=grlex_key, reverse=True)
    return monomials, [found[a][0] for a in monomials], [found[a][1] * multi_factorial(a) for a in monomials]


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
    form = _row_form(m, d)
    power = m
    for k in range(1, d + 1):
        c = -sum(row[i] for i, row in enumerate(power)) // k
        coeffs[d - k] = c
        if k < d:
            shifted = [row[:i] + [row[i] + c] + row[i + 1 :] for i, row in enumerate(power)]
            power = [_row_product(row, form) for row in shifted]
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
                if len(_echelon(stacked, d)[0]) < d:
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
