"""Embedding nilpotent modules into the derivative module of polynomials.

The polynomial space in n variables is a module where x_i acts as
d/dx_i.  Every finite-dimensional nilpotent module whose socle is a
single line embeds into it, the image is unique, and equality of images
decides isomorphism.

The embedding is Macaulay's inverse-system map.  Pick a functional
lambda that is nonzero on the socle line; then

    phi(v) = sum over alpha of lambda(S^alpha v) x^alpha / alpha!

satisfies d/dx_i phi(v) = phi(S_i v).  It is injective because every
nonzero submodule contains the socle line.  Its image is the set of
polynomials killed by every operator f(d/dx) with f(S) = 0, which does
not depend on lambda.  The row vectors lambda S^alpha come from one
breadth-first pass over the exponents alpha, so nothing is restricted,
inverted or integrated, and they stay primitive integer rows from the
action matrices to the image's one elimination.

By default lambda reads the first nonzero coordinate of the socle line
mod P, which is the pivot of the socle's RREF basis vector unless P
divides its entry there.  The line comes from one elimination modulo
the prime P, and only chooses: an injective phi certifies the choice
exactly.  The exact joint kernel is computed only when the line mod P
is missing or the embedding fails.

The pass certifies nilpotency: a nonzero row at degree dim stops it,
and an injective phi gives phi(S^N v) = d^N phi(v) = 0 past the top
degree.  Squaring the matrices only names the error of a failed
embedding, and bounds the pass: past a budget of row products of the
order of the squaring test, it runs once and stops a pass that cannot
succeed.

Modules with a rational joint eigenvalue tuple reduce to the nilpotent
case by twisting and land in an exponentially weighted copy instead.
A nilpotent twist has trace zero, so a_i = tr(S_i) / d is the only
candidate, and with S_i = M_i / D the twist is written on the stacked
integer rows in closed form, S_i - a_i I = (d M_i - tr(M_i) I) / (d D).
Both embeddings enter one core on those rows, and `Fraction`s appear
only in the map it hands out.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import (
    DimensionTooLarge,
    Incompatible,
    NotNilpotent,
    SocleNotOneDimensional,
)
from .exactalg import (
    _PRIME,
    Immutable,
    QMatrix,
    Vector,
    _columns,
    _fraction_row,
    _int_matmul,
    _integer_kernel,
    _integer_rows,
    _kernel_line_mod,
    standard_basis_vector,
)
from .modcore import (
    ExpSubmodule,
    FDModule,
    ModuleMap,
    PolySubmodule,
    _is_nilpotent_matrix,
    socle_eigenvalues,
)
from .multipoly import MultiIndex, Poly, grlex_key, multi_factorial


class EmbeddingResult(Immutable):
    """An isomorphism from a matrix module onto a polynomial submodule."""

    __slots__ = ("image", "map")

    def __init__(self, image: PolySubmodule, map: ModuleMap):
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "map", map)

    def image_polys(self) -> tuple[Poly, ...]:
        """Image polynomial of each source basis vector, in order."""
        return tuple(
            self.map.image_poly(j) for j in range(self.map.images.cols)
        )

    def to_json(self) -> dict:
        return {
            "image": self.image.to_json(),
            "map": [p.to_json() for p in self.image_polys()],
        }


def potential(fs: Sequence[Poly], n: int) -> Poly:
    """The polynomial h with dh/dx_i = fs[i-1] for i = 1..len(fs).

    Mixed partials are checked first; the witness is the lexicographically
    first failing pair.  The output is normalized so that every term
    involves one of x_1..x_k — in particular the constant term is zero —
    which pins down the one representative of the solution class.
    """
    k = len(fs)
    if k > n:
        raise ValueError("more prescribed derivatives than variables")
    for f in fs:
        if f.n != n:
            raise ValueError("variable count mismatch")
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if fs[i - 1].partial(j) != fs[j - 1].partial(i):
                raise Incompatible(i, j)
    h = Poly.zero(n)
    for i in range(1, k + 1):
        h = h + (fs[i - 1] - h.partial(i)).integrate(i)
    return h


def _functional(s: Sequence, rng: Optional[random.Random], modulus: Optional[int] = None) -> Vector:
    """A functional that is nonzero on the socle vector s, modulo the
    modulus when one is given (s then holds residues).

    Without an rng: the coordinate at the first nonzero entry of s.
    With one: small random integers, redrawn until the value on s is
    nonzero.
    """
    if rng is None:
        pivot = next(j for j, x in enumerate(s) if x != 0)
        return standard_basis_vector(len(s), pivot)
    while True:
        lam = tuple(Fraction(rng.randint(-4, 4)) for _ in s)
        value = sum(a * b for a, b in zip(lam, s))
        if (value if modulus is None else value % modulus) != 0:
            return lam


def _inverse_system(stack: list[list[int]], den: int, lam: Vector) -> Optional[tuple]:
    """phi(e_j) = sum over alpha of (lam S^alpha)[j] x^alpha / alpha!, as
    integer rows with their weights.

    The S_i = M_i / D come stacked, integer rows M_1, ..., M_n over one
    denominator D.  The pass returns the alpha with lam S^alpha nonzero,
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
    4 d (floor(log2 d) + 1) row products whose matrices are not all
    nilpotent, checked once by squaring.
    """
    d = len(lam)
    n = len(stack) // d
    matrices = [stack[i * d : (i + 1) * d] for i in range(n)]
    columns = [_columns(m, d) for m in matrices]
    (start,), lam_den = _integer_rows([lam])
    zero = (0,) * n
    rows: dict[MultiIndex, list[int]] = {zero: start}
    scale = {zero: lam_den}
    budget = 4 * d * d.bit_length()
    products = 0
    queue = deque([zero])
    while queue:
        alpha = queue.popleft()
        row = rows[alpha]
        capped = sum(alpha) + 1 == d
        for i, cols in enumerate(columns):
            beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            if beta in rows:
                continue
            (new,) = _int_matmul([row], cols)
            products += 1
            if products == budget + 1 and not all(map(_is_nilpotent_matrix, matrices)):
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


def _embed(n: int, d: int, stack: list[list[int]], den: int, rng: Optional[random.Random]) -> tuple:
    """The embedding of the module whose S_i = M_i / D come stacked,
    integer rows M_1, ..., M_n over one denominator D: (image, images),
    images holding the map's coordinates.  Raises the typed error that
    says why the module does not embed.

    The kernel and the pass share the stack, and the pass's rows are
    eliminated as they are.  The map's coordinates are the phi(e_j)'s
    entries at the image's pivots.  Only a failure squares the
    matrices, to name its error.
    """
    line = _kernel_line_mod(stack, d)
    space = None
    if line is not None:
        lam = _functional(line, rng, _PRIME)
    else:
        space = _integer_kernel(stack, d)
        lam = _functional(space.basis[0], rng) if space.dim == 1 else None
    if lam is not None:
        found = _inverse_system(stack, den, lam)
        if found is None:
            raise NotNilpotent("only nilpotent modules embed into the derivative module")
        monomials, rows, weights = found
        image = PolySubmodule._from_integer_rows(n, monomials, _columns(rows, d), weights)
        if image.dim == d:
            images = QMatrix._trusted([_fraction_row(rows[c], weights[c]) for c in image.coords._pivots], d)
            return image, images
    if not all(_is_nilpotent_matrix(stack[i * d : (i + 1) * d]) for i in range(n)):
        raise NotNilpotent("only nilpotent modules embed into the derivative module")
    if d == 0:
        raise SocleNotOneDimensional("the zero module has no socle line")
    if space is None:
        space = _integer_kernel(stack, d)
    if space.dim != 1:
        raise SocleNotOneDimensional(f"socle has dimension {space.dim}, not 1")
    raise AssertionError("the embedding must be injective")


def embed_nilpotent(
    module: FDModule, rng: Optional[random.Random] = None
) -> EmbeddingResult:
    """Embed a nilpotent module with one-dimensional socle.

    Basis vector e_j maps to sum over alpha of lambda(S^alpha e_j)
    x^alpha / alpha!, Macaulay's inverse-system map.  By default lambda
    reads the first nonzero coordinate of the socle line mod P, which is
    the pivot of the socle's RREF basis vector unless P divides its
    entry there.  An rng draws lambda with small random integer entries
    instead (redrawn until it is nonzero on the socle line mod P); the
    map changes with lambda, the image does not.

    A line mod P bounds the socle's dimension by one, and lambda is
    nonzero on it, so an injective phi certifies the choice.  Without a
    line mod P the exact joint kernel takes its place, with the pivot
    functional of its RREF basis vector.  The action matrices become
    integer rows once.
    """
    stack, den = _integer_rows([row for m in module.matrices for row in m.entries])
    image, images = _embed(module.n, module.dim, stack, den, rng)
    return EmbeddingResult(image, ModuleMap(module, image, images))


def canonical_form(
    module: FDModule, rng: Optional[random.Random] = None
) -> PolySubmodule:
    """The unique polynomial submodule isomorphic to the module.

    A complete isomorphism invariant: two modules are isomorphic exactly
    when their canonical forms are equal.
    """
    return embed_nilpotent(module, rng).image


def is_isomorphic(first: FDModule, second: FDModule) -> bool:
    if first.n != second.n:
        raise ValueError("variable count mismatch")
    if first.dim != second.dim:
        return False
    return canonical_form(first) == canonical_form(second)


def _intertwiner_space(first: FDModule, second: FDModule) -> list[QMatrix]:
    """Basis of {P : P S_i = T_i P for all i} as d x d matrices, from the
    kernel of the linear system in the d^2 entries of P, row by row."""
    d = first.dim
    rows = []
    for s, t in zip(first.matrices, second.matrices):
        for a in range(d):
            for c in range(d):
                row = [Fraction(0)] * (d * d)
                for b in range(d):
                    row[a * d + b] += s.entries[b][c]
                    row[b * d + c] -= t.entries[a][b]
                rows.append(row)
    kernel = QMatrix(rows, cols=d * d).kernel()
    return [
        QMatrix([v[r * d : (r + 1) * d] for r in range(d)], cols=d)
        for v in kernel.basis
    ]


def _symbolic_det(mats: list[QMatrix], d: int) -> Poly:
    """det(sum t_m B_m) as a polynomial in the t_m, by memoized Laplace
    expansion along columns."""
    k = len(mats)
    entry = [
        [
            Poly(
                k,
                {
                    tuple(1 if v == m else 0 for v in range(k)): mats[m].entries[r][c]
                    for m in range(k)
                },
            )
            for c in range(d)
        ]
        for r in range(d)
    ]
    memo: dict[tuple[int, ...], Poly] = {}

    def minor(rows: tuple[int, ...]) -> Poly:
        if not rows:
            return Poly.one(k)
        cached = memo.get(rows)
        if cached is not None:
            return cached
        col = d - len(rows)
        total = Poly.zero(k)
        for pos, r in enumerate(rows):
            e = entry[r][col]
            if e.is_zero():
                continue
            term = e * minor(rows[:pos] + rows[pos + 1 :])
            total = total + (term if pos % 2 == 0 else -term)
        memo[rows] = total
        return total

    return minor(tuple(range(d)))


def brute_force_isomorphic(
    first: FDModule, second: FDModule, max_dim: int = 6
) -> bool:
    """Ground-truth isomorphism test by solving the intertwiner system.

    The solution space is computed exactly; an invertible element exists
    iff the determinant, as a polynomial on that space, is nonzero —
    over the rationals that is decided by symbolic expansion.  Intended
    as an oracle at small dimensions.
    """
    if first.n != second.n:
        raise ValueError("variable count mismatch")
    if max(first.dim, second.dim) > max_dim:
        raise DimensionTooLarge(
            f"brute-force oracle is limited to dimension {max_dim}"
        )
    if first.dim != second.dim:
        return False
    if first.dim == 0:
        return True
    basis = _intertwiner_space(first, second)
    if not basis:
        return False
    return not _symbolic_det(basis, first.dim).is_zero()


def embed_general(
    module: FDModule, rng: Optional[random.Random] = None
) -> tuple[ExpSubmodule, ModuleMap]:
    """Embed a module with a unique rational joint eigenvalue tuple.

    Twisting by the socle eigenvalues reduces to the nilpotent case; the
    image lives in the exponentially weighted module, where x_i acts as
    eigenvalue_i + d/dx_i, and the returned map intertwines exactly that
    action.
    """
    n, d = module.n, module.dim
    if d > 0:
        # S_i - a_i I nilpotent forces trace zero, so a_i = tr(S_i) / d is
        # the only candidate; embedding the twist decides.  With
        # S_i = M_i / D, S_i - a_i I = (d M_i - tr(M_i) I) / (d D).
        stack, den = _integer_rows([row for m in module.matrices for row in m.entries])
        traces = [sum(stack[i * d + k][k] for k in range(d)) for i in range(n)]
        twisted = [[d * x for x in row] for row in stack]
        for r, row in enumerate(twisted):
            row[r % d] -= traces[r // d]
        # Dividing out the common factor leaves the twist's least common
        # denominator, so the rows are the twist's own, and so is the
        # socle line mod P that chooses the functional.
        g = gcd(d * den, *(x for row in twisted for x in row))
        try:
            image, images = _embed(n, d, [[x // g for x in row] for row in twisted], d * den // g, rng)
        except NotNilpotent:
            pass
        else:
            weighted = ExpSubmodule([Fraction(t, d * den) for t in traces], image)
            return weighted, ModuleMap(module, weighted, images)
    # socle_eigenvalues raises the typed error that says why.  If it finds
    # one rational tuple anyway, its twist is not nilpotent: a nilpotent
    # twist would have been the trace candidate above.
    socle_eigenvalues(module)
    raise SocleNotOneDimensional(
        "the action is not nilpotent after twisting by the socle eigenvalues"
    )
