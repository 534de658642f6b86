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
pass over the exponents alpha, `modcore`'s inverse-system pass, which
reaches each alpha once, from alpha minus its last variable.  So nothing
is restricted, inverted or integrated, and they stay primitive integer
rows, with weights, up to the image's elimination, when it needs one,
which takes them over the lcm of their weights.

Lambda is nonzero on the vector w of `modcore`'s socle walk: from e_1,
apply S_1 until the result vanishes, then S_2, and so on, each vector's
content divided out.  The walk is exact, so every S_i kills w, and on a
nilpotent module with a line socle w spans that line: lambda(w) != 0
makes phi injective, with no second pass.  Without an rng lambda reads
w's first nonzero entry, the pivot of the socle's RREF basis vector.
Only a failure computes the exact joint kernel, to name its error.
When the pass leaves d monomials with independent rows, the image is
their whole span and needs no elimination; fewer mean phi is not
injective.  At n = 1, one Jordan block, that is every polynomial of
degree < d; at n >= 2 rank d mod P, a lower bound for the exact rank,
certifies independence.

The walk and the pass certify nilpotency: a walk past d - 1 steps or a
nonzero row at degree dim stops the embedding, and an injective phi
gives phi(S^N v) = d^N phi(v) = 0 past the top degree.  Squaring the
matrices only names the error of a failed embedding, and bounds the
pass.

Modules with a rational joint eigenvalue tuple reduce to the nilpotent
case by twisting and land in an exponentially weighted copy instead.
A nilpotent twist has trace zero, so a_i = tr(S_i) / d is the only
candidate, and `twist` builds that module on the integer blocks,
without checking commutativity again.

Every path enters one core on a module, which reads the module's
integer blocks M_i, S_i = M_i / D, and hands back the image.  Only
`embed_nilpotent` builds a map, from the pass's rows at the image's
pivots over the lcm of their weights; `embed_general` embeds the twist
through it, and `canonical_form` and `is_isomorphic` build none.  As the
image does not depend on lambda, `canonical_form` takes no functional.

At n >= 2 `is_isomorphic` walks and passes each module once, and the
core builds each image it needs from that pass.  An injective phi's
monomials are its image's, an invariant: two maps certified injective
(rows of rank d mod P) with different monomials are not isomorphic, with
no elimination.  Otherwise the core builds the first image, and with
equal monomials the second map is certified one way: its rows at that
image's pivots have rank d mod P.  Then each phi_2(e_j) is tested
against the first image exactly, on integers: all inside is isomorphic,
one outside is not.  Any other outcome has the core build the second
image and compares the two.  Each image is the module's canonical form,
so the errors and their order are those of `canonical_form`.

In one variable `canonical_form` reads the walk alone when it can: a
walk of d - 1 steps, M^(d-1) e_1 != 0 and M^d e_1 = 0, makes the module
one Jordan block, whose image is every polynomial of degree < d, with no
pass.  Any other walk goes on to the core, which does not walk again.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .errors import DimensionTooLarge, NotNilpotent, SocleNotOneDimensional
from .exactalg import Immutable, QMatrix, _columns, _over_lcm, _rank_mod, as_int
from .modcore import (
    FDModule,
    _functional,
    _inverse_system,
    _joint_kernel,
    _socle_walk,
    is_nilpotent,
    socle_eigenvalues,
    twist,
)
from .multipoly import Poly, _same_count
from .polysub import ExpSubmodule, ModuleMap, PolySubmodule, _degree_span

_NOT_NILPOTENT = "only nilpotent modules embed into the derivative module"


class EmbeddingResult(Immutable):
    """An isomorphism from a matrix module onto a polynomial submodule."""

    __slots__ = ("image", "map")

    def __init__(self, image: PolySubmodule, map: ModuleMap):
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "map", map)

    def image_polys(self) -> tuple[Poly, ...]:
        """Image polynomial of each source basis vector, in order."""
        return self.map.image_polys()

    def to_json(self) -> dict:
        return {
            "image": self.image.to_json(),
            "map": [p.to_json() for p in self.image_polys()],
        }


def _pass(module: FDModule, walk: Optional[tuple], rng: Optional[random.Random]) -> Optional[tuple]:
    """The inverse-system pass of a functional nonzero on the walk's vector
    (drawn with the rng, if given): (monomials, rows, weights), or None at
    dimension 0 and when the walk or the pass shows that the module is not
    nilpotent."""
    return None if walk is None or not module.dim else _inverse_system(module, _functional(walk[0], rng))


def _image(module: FDModule, monomials, rows, weights) -> Optional[PolySubmodule]:
    """The image of phi from the pass's monomials, rows and weights, or None
    when phi is not injective.  The image is closed by construction, as
    d_i phi(v) = phi(S_i v), so it takes the trusted constructor.  Fewer
    than d monomials give None, and d with independent rows (at n = 1
    always, else of rank d mod P) the whole space over them, with no
    elimination.  Only the rest is eliminated, over the weights' lcm."""
    n, d = module.n, module.dim
    if len(monomials) < d:
        return None
    # At n = 1 the rows lam S^k, k < d, are nonzero and lam S^d = 0: a relation with
    # lowest index k, times S^(d-1-k), would leave a nonzero multiple of lam S^(d-1).
    if len(monomials) == d and (n == 1 or _rank_mod(rows, d) == d):
        return PolySubmodule._trusted(n, monomials, None)
    image = PolySubmodule._trusted(n, monomials, _columns(_over_lcm(rows, weights)[0], d))
    return image if image.dim == d else None


def _embed(module: FDModule, found: Optional[tuple]) -> PolySubmodule:
    """The image of the module's embedding, from its pass, or the typed
    error that says why it does not embed.  Only a failure squares the
    matrices and computes the exact joint kernel, to name its error: the
    walk's w lies in that kernel, so on a nilpotent module with a line
    socle phi is injective, and the check that it is stays as a safety net.
    """
    if found is not None:
        image = _image(module, *found)
        if image is not None:
            return image
    elif module.dim:
        raise NotNilpotent(_NOT_NILPOTENT)
    if not is_nilpotent(module):
        raise NotNilpotent(_NOT_NILPOTENT)
    if module.dim == 0:
        raise SocleNotOneDimensional("the zero module has no socle line")
    space = _joint_kernel(module)
    if space.dim != 1:
        raise SocleNotOneDimensional(f"socle has dimension {space.dim}, not 1")
    raise AssertionError("the embedding must be injective")


def embed_nilpotent(module: FDModule, rng: Optional[random.Random] = None) -> EmbeddingResult:
    """Embed a nilpotent module with one-dimensional socle.

    Basis vector e_j maps to sum over alpha of lambda(S^alpha e_j)
    x^alpha / alpha!, Macaulay's inverse-system map.  By default lambda
    reads the first nonzero coordinate of the walk's vector w, which every
    block kills exactly, so it spans the socle line, and lambda reads the
    pivot of the socle's RREF basis vector.  An rng draws lambda with
    small random integer entries instead (redrawn until it is nonzero on
    w); the map changes with lambda, the image does not.
    """
    found = _pass(module, _socle_walk(module), rng)
    image = _embed(module, found)
    pivots = image.coords._pivots
    images = _over_lcm([found[1][c] for c in pivots], [found[2][c] for c in pivots])
    return EmbeddingResult(image, ModuleMap(module, image, QMatrix._trusted(*images, image.dim)))


def canonical_form(module: FDModule) -> PolySubmodule:
    """The unique polynomial submodule isomorphic to the module.

    A complete isomorphism invariant: two modules are isomorphic exactly
    when their canonical forms are equal.  The image of
    `embed_nilpotent`, without building its map.

    In one variable a module whose walk takes d - 1 steps is one Jordan
    block of length d, with the image of every polynomial of degree < d,
    and takes no pass; any other walk (e_1 in the image of S, or
    S^d e_1 != 0) goes on to the embedding's core, which does not walk
    again.
    """
    walk = _socle_walk(module)
    if module.n == 1 and walk is not None and walk[1] == module.dim - 1:
        return _degree_span(module.dim - 1)
    return _embed(module, _pass(module, walk, None))


def is_isomorphic(first: FDModule, second: FDModule) -> bool:
    """Whether the two modules are isomorphic, that is, whether their
    canonical forms are equal; a module without one raises its typed
    error, the first module's before the second's.

    Modules of different dimensions are not isomorphic.  In one variable
    or at dimension 0 the two canonical forms are compared.  At n >= 2
    each module is walked and passed once.  An injective phi's image is
    the canonical form, and rows of rank d mod P certify phi injective:
    two certified maps with different monomials are not isomorphic.
    Otherwise `_embed` builds the first image from its pass, or raises the
    first module's error.  With equal monomials, the second map's rows at
    that image's pivots certify it, and then the modules are isomorphic
    exactly when every phi_2(e_j) lies in that image, tested exactly, on
    integers.  Any other outcome builds the second image from its pass
    and compares the two canonical forms.
    """
    _same_count(first.n, second)
    if first.dim != second.dim:
        return False
    if first.n == 1 or not first.dim:
        return canonical_form(first) == canonical_form(second)
    d = first.dim
    found = _pass(first, _socle_walk(first), None)
    other = None if found is None else _pass(second, _socle_walk(second), None)
    same = other is not None and found[0] == other[0]
    if other is not None and not same and _rank_mod(found[1], d) == d and _rank_mod(other[1], d) == d:
        return False
    image = _embed(first, found)
    if same and _rank_mod([other[1][c] for c in image.coords._pivots], d) == d:
        # phi_2(e_j) has coefficient rows[c][j] / weights[c] at monomial c.
        return all(image.coords._pivot_entries(v) is not None for v in _columns(_over_lcm(other[1], other[2])[0], d))
    return image == _embed(second, other)


def _intertwiner_space(first: FDModule, second: FDModule) -> tuple:
    """Basis of {P : P S_i = T_i P for all i}, each P read row by row as
    a vector of its d^2 entries, from the kernel of the linear system in
    those entries.  With S_i = M_i / E and T_i = N_i / D on the two
    modules' blocks, the system is D P M_i = E N_i P."""
    d, e, f = first.dim, first._den, second._den
    rows = []
    for s, t in zip(first._blocks, second._blocks):
        for a in range(d):
            for c in range(d):
                row = [0] * (d * d)
                for b in range(d):
                    row[a * d + b] += f * s[b][c]
                    row[b * d + c] -= e * t[a][b]
                rows.append(row)
    return QMatrix._trusted(rows, 1, d * d).kernel().basis


def _symbolic_det(vectors: Sequence[Sequence], d: int) -> Poly:
    """det(sum t_m B_m) as a polynomial in the t_m, by memoized Laplace
    expansion along columns; B_m has the entries of vectors[m], row by
    row."""
    k = len(vectors)
    units = [tuple(int(v == m) for v in range(k)) for m in range(k)]
    entry = [[Poly(k, {u: v[r * d + c] for u, v in zip(units, vectors)}) for c in range(d)] for r in range(d)]
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
    as an oracle at small dimensions: its cost grows about 5.5 times per
    two dimensions, so a max_dim above 10 is refused before any work,
    as is one that is not an integer of at least 0 (with ValueError).
    """
    max_dim = as_int(max_dim)
    if max_dim < 0:
        raise ValueError(f"brute-force oracle needs a max_dim of at least 0, not {max_dim}")
    if max_dim > 10:
        raise DimensionTooLarge(f"brute-force oracle accepts max_dim up to 10, not {max_dim}")
    _same_count(first.n, second)
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


def embed_general(module: FDModule) -> tuple[ExpSubmodule, ModuleMap]:
    """Embed a module with a unique rational joint eigenvalue tuple.

    `embed_nilpotent` embeds the twist by the socle eigenvalues; the
    image lives in the exponentially weighted module, where x_i acts as
    eigenvalue_i + d/dx_i, and the returned map intertwines exactly that
    action.
    """
    d = module.dim
    if d > 0:
        # S_i - a_i I nilpotent forces trace zero, so a_i = tr(S_i) / d =
        # tr(M_i) / (d D) is the only candidate; embedding the twist decides.
        eigenvalues = [Fraction(sum(row[k] for k, row in enumerate(block)), d * module._den) for block in module._blocks]
        try:
            result = embed_nilpotent(twist(module, eigenvalues))
        except NotNilpotent:
            pass
        else:
            weighted = ExpSubmodule(eigenvalues, result.image)
            return weighted, ModuleMap(module, weighted, result.map.images)
    # socle_eigenvalues raises the typed error that says why.  If it finds
    # one rational tuple anyway, its twist is not nilpotent: a nilpotent
    # twist would have been the trace candidate above.
    socle_eigenvalues(module)
    raise SocleNotOneDimensional(
        "the action is not nilpotent after twisting by the socle eigenvalues"
    )
