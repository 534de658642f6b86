"""Tests for embeddings into polynomial and exponential-polynomial spaces.

The key cross-checks here are an evaluation oracle for potentials, a
conjugation oracle for canonical forms, and the determinant-based
isomorphism decision procedure run against the constructive one.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

import pytest
from timing import time_limit

from nilmod.embed import (
    EmbeddingResult,
    _image,
    _pass,
    brute_force_isomorphic,
    canonical_form,
    embed_general,
    embed_nilpotent,
    is_isomorphic,
)
from nilmod.errors import (
    DimensionTooLarge,
    Incompatible,
    NilmodError,
    NoCommonEigenline,
    NonRationalEigenvalue,
    NotNilpotent,
    SocleNotOneDimensional,
)
from nilmod.exactalg import _PRIME, QMatrix, Subspace, _rank_mod, _row_form
from nilmod.modcore import (
    FDModule,
    _functional,
    _inverse_system,
    _joint_kernel,
    _socle_walk,
    is_nilpotent,
    socle_eigenvalues,
    twist,
    validate,
)
from nilmod.multipoly import Poly, monomials_of_degree, monomials_up_to_degree, multi_factorial, potential
from nilmod.polysub import (
    ExpSubmodule,
    ModuleMap,
    PolySubmodule,
    action_matrices,
    as_matrices,
    random_nilpotent_module,
    submodule_from_polys,
)

def zeros(rows, cols):
    return QMatrix([[0] * cols for _ in range(rows)], cols=cols)


X1 = Poly.variable(2, 1)
X2 = Poly.variable(2, 2)


def random_normalized_poly(rng, n, k, degree):
    """A polynomial whose every term uses one of the first k variables,
    i.e. already in the normal form the potential constructor produces."""
    terms = {}
    for _ in range(6):
        alpha = tuple(rng.randint(0, degree) for _ in range(n))
        if all(alpha[i] == 0 for i in range(k)):
            continue
        terms[alpha] = Fraction(rng.randint(-4, 4))
    return Poly(n, terms)


def random_invertible(rng, d):
    while True:
        g = QMatrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        if g.det() != 0:
            return g


def conjugate(module, g):
    ginv = g.inverse()
    return validate([g * m * ginv for m in module.matrices])


# --- potentials -----------------------------------------------------------

def integrate(p, i):
    """The antiderivative of p in x_i that vanishes at x_i = 0."""
    k = i - 1
    return Poly(p.n, {a[:k] + (a[k] + 1,) + a[k + 1 :]: c / (a[k] + 1) for a, c in p.terms.items()})


def reference_potential(fs, n):
    """The potential by k rounds of integrate-and-correct, as the library
    computed it before the closed form."""
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
        h = h + integrate(fs[i - 1] - h.partial(i), i)
    return h


def assert_canonical_poly(p):
    """Nonzero integer numerators over a positive denominator coprime to
    them all, at exponent tuples of length n, the same polynomial as the
    validated constructor gives."""
    assert p._den > 0 and all(type(c) is int and c != 0 for c in p._nums.values()), (p._den, p._nums)
    assert gcd(p._den, *p._nums.values()) == 1, (p._den, p._nums)
    assert all(isinstance(c, Fraction) and c != 0 for c in p.terms.values()), p.terms
    assert all(len(a) == p.n for a in p.terms)
    assert p == Poly(p.n, p.terms)

def test_potential_bilinear_example():
    h = potential([X2, X1], 2)
    assert h == Poly(2, {(1, 1): 1})


def test_potential_single_variable():
    h = potential([Poly(1, {(2,): 1})], 1)
    assert h == Poly(1, {(3,): Fraction(1, 3)})


def test_potential_zero_fields():
    assert potential([Poly.zero(2), Poly.zero(2)], 2) == Poly.zero(2)


def test_potential_round_trip_is_exact():
    rng = random.Random(307)
    for _ in range(40):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        h = random_normalized_poly(rng, n, k, 3)
        fs = [h.partial(i) for i in range(1, k + 1)]
        assert potential(fs, n) == h


def test_potential_partial_count_short_of_n():
    # only d/dx1 prescribed in two variables
    h = potential([X2], 2)
    assert h == Poly(2, {(1, 1): 1})
    assert h.partial(1) == X2


def test_integrate_and_potential_validate_no_polynomial(monkeypatch):
    rng = random.Random(353)
    cases = [(Poly.zero(2), [Poly.zero(2), Poly.zero(2)], 2)]
    for _ in range(20):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        h = random_normalized_poly(rng, n, k, 3)
        cases.append((h, [h.partial(i) for i in range(1, k + 1)], n))
    built = []
    real = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *args: built.append(1) or real(self, *args))
    results = [potential(fs, n) for _, fs, n in cases]
    monkeypatch.undo()
    assert built == []
    for (h, _, _), got in zip(cases, results):
        assert got == h
        assert_canonical_poly(got)


def test_potential_output_is_normalized():
    rng = random.Random(311)
    for _ in range(20):
        n = rng.randint(2, 3)
        k = rng.randint(1, n - 1)
        h = random_normalized_poly(rng, n, k, 2)
        fs = [h.partial(i) for i in range(1, k + 1)]
        result = potential(fs, n)
        for alpha in result.monomials():
            assert any(alpha[i] > 0 for i in range(k))


def test_potential_incompatible_witness_simple():
    # d/dx2 of x2 is 1, d/dx1 of 0 is 0
    with pytest.raises(Incompatible) as info:
        potential([X2, Poly.zero(2)], 2)
    assert (info.value.i, info.value.j) == (1, 2)


def test_potential_incompatible_first_pair_in_scan_order():
    rng = random.Random(313)
    x2sq = Poly(3, {(0, 2, 0): 1})
    for _ in range(10):
        h = random_normalized_poly(rng, 3, 3, 2)
        fs = [h.partial(i) for i in range(1, 4)]
        # corrupt f3 with x2^2: d/dx1 of it vanishes, d/dx2 does not,
        # so (1,2) and (1,3) stay clean and (2,3) is the first failure
        fs[2] = fs[2] + x2sq
        with pytest.raises(Incompatible) as info:
            potential(fs, 3)
        assert (info.value.i, info.value.j) == (2, 3)


def test_potential_agrees_with_reverse_construction_order():
    # integrating the prescribed derivatives back-to-front yields another
    # valid normalized potential, which must coincide exactly
    rng = random.Random(349)
    for _ in range(25):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        h = random_normalized_poly(rng, n, k, 3)
        fs = [h.partial(i) for i in range(1, k + 1)]
        reverse = Poly.zero(n)
        for i in range(k, 0, -1):
            reverse = reverse + integrate(fs[i - 1] - reverse.partial(i), i)
        assert reverse == potential(fs, n)


def potential_outcome(call, fs, n):
    """("ok", terms) for a potential, (kind, message, witness) for an error."""
    try:
        return "ok", call(fs, n).terms
    except (Incompatible, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "i", None), getattr(exc, "j", None)


# Coprime denominators near 10^4, so common denominators are their products.
LARGE_DENOMINATORS = [Fraction(1, 10007), Fraction(-3, 10009), Fraction(7, 10037), Fraction(1, 9973)]


def potential_table():
    """(fields, n) for the closed form against the reference loop: every
    k = 0..n, zero fields, large coprime denominators, terms with and
    without x_1..x_k, gradients and their corruptions, and misshapen
    input."""
    rng = random.Random(419)
    cases = [([], 1), ([Poly.zero(1)], 1), ([Poly.zero(3)] * 3, 3), ([Poly.one(2)], 2)]
    for n in (1, 2, 3, 4):
        for k in range(n + 1):
            for _ in range(12):
                terms = {}
                for _ in range(rng.randint(0, 6)):
                    alpha = tuple(rng.randint(0, 4) for _ in range(n))
                    terms[alpha] = rng.choice(LARGE_DENOMINATORS) * rng.randint(1, 5)
                h = Poly(n, terms)
                fs = [h.partial(i) for i in range(1, k + 1)]
                cases.append((fs, n))
                if k:
                    # a field free of x_1..x_k, or a term off the gradient
                    bad = list(fs)
                    j = rng.randrange(k)
                    alpha = tuple(rng.randint(0, 2) for _ in range(n))
                    bad[j] = bad[j] + Poly(n, {alpha: rng.choice(LARGE_DENOMINATORS)})
                    cases.append((bad, n))
                    cases.append(([Poly.zero(n)] * (k - 1) + [fs[-1]], n))
    cases += [([X1, X2, X1], 2), ([X1, Poly.one(3)], 2), ([Poly.one(3)], 2)]
    return cases


def test_potential_matches_the_integrate_and_correct_loop():
    outcomes = set()
    for fs, n in potential_table():
        got = potential_outcome(potential, fs, n)
        assert got == potential_outcome(reference_potential, fs, n), (fs, n)
        if got[0] == "ok":
            assert_canonical_poly(potential(fs, n))
        outcomes.add(got[0])
    assert outcomes == {"ok", "Incompatible", "ValueError"}


def test_potential_length_checks():
    # no constraints pin the zero representative; too many is an error
    assert potential([], 2) == Poly.zero(2)
    with pytest.raises(ValueError):
        potential([X1, X2, X1], 2)


# --- nilpotent embedding ----------------------------------------------------

def test_embed_dim_one():
    result = embed_nilpotent(validate([zeros(1, 1)]))
    assert result.image == submodule_from_polys(1, [])
    assert result.map.images == QMatrix.identity(1)


def test_embed_jordan_three():
    jordan = QMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    result = embed_nilpotent(validate([jordan]))
    assert result.image == submodule_from_polys(1, [Poly(1, {(2,): 1})])
    polys = result.image_polys()
    assert polys[0] == Poly.one(1)
    assert polys[1] == Poly.variable(1, 1)
    assert polys[2] == Poly(1, {(2,): Fraction(1, 2)})


def test_embed_requires_nilpotent():
    with pytest.raises(NotNilpotent):
        embed_nilpotent(validate([QMatrix.identity(2)]))


def test_embed_requires_simple_socle():
    with pytest.raises(SocleNotOneDimensional):
        embed_nilpotent(validate([zeros(2, 2)]))


def test_embed_random_modules_give_isomorphisms():
    for seed in range(25):
        mod = random_nilpotent_module(2, 2, seed=seed)
        result = embed_nilpotent(mod)
        assert result.image.dim == mod.dim
        assert result.map.source is mod
        assert result.map.is_intertwining()
        assert result.map.is_isomorphism()


def test_embed_intertwining_unpacked_by_hand():
    # phi(S_i v) must equal d/dx_i phi(v) for every basis vector
    mod = random_nilpotent_module(2, 3, seed=31)
    result = embed_nilpotent(mod)
    polys = result.image_polys()
    for i in range(1, mod.n + 1):
        s = mod.action(i)
        for j in range(mod.dim):
            mapped = result.image.from_coordinates(
                result.map.apply_coords([row[j] for row in s.entries])
            )
            assert mapped == polys[j].partial(i)


def test_embed_accepts_rng():
    mod = random_nilpotent_module(2, 2, seed=8)
    result = embed_nilpotent(mod, rng=random.Random(99))
    assert result.map.is_isomorphism()
    assert result.image == canonical_form(mod)


def test_embedding_result_json():
    mod = random_nilpotent_module(1, 3, seed=2)
    blob = embed_nilpotent(mod).to_json()
    assert set(blob) == {"image", "map"}
    assert len(blob["map"]) == mod.dim


# Planted generators at n = 1, 2, 3 whose derivative closures have
# dimension 10, 9 and 8.
PLANTED = [
    (1, {(9,): 1, (4,): -3, (1,): 2}),
    (2, {(4, 0): 1, (3, 1): -2, (2, 2): 3, (1, 3): 1, (0, 4): -1, (1, 1): 2}),
    (3, {(3, 0, 0): 1, (1, 1, 1): 2, (0, 2, 1): -1, (0, 0, 3): 3, (1, 0, 1): 1}),
]


@pytest.mark.parametrize("n, terms", PLANTED, ids=["n=1", "n=2", "n=3"])
def test_embed_dense_conjugate_of_planted_module(n, terms):
    planted = submodule_from_polys(n, [Poly(n, terms)])
    assert 8 <= planted.dim <= 12
    plain, _ = as_matrices(planted)
    dense = conjugate(plain, random_invertible(random.Random(n), planted.dim))
    assert sum(x != 0 for m in dense.matrices for row in m.entries for x in row) > (
        planted.dim**2 // 2
    )
    result = embed_nilpotent(dense)
    assert result.image == planted
    assert canonical_form(dense) == planted
    assert result.map.is_isomorphism()


def reference_inverse_system(module, lam):
    """The inverse-system polynomials by plain Fraction arithmetic: the
    rows lam S^alpha by repeated vector-matrix products, each weighed by
    1 / alpha!."""
    from collections import deque

    n, d = module.n, module.dim
    zero = (0,) * n
    rows = {zero: list(lam)}
    queue = deque([zero])
    while queue:
        alpha = queue.popleft()
        for i, m in enumerate(module.matrices):
            beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
            if beta not in rows:
                rows[beta] = [
                    sum((rows[alpha][k] * m.entries[k][j] for k in range(d)), Fraction(0))
                    for j in range(d)
                ]
                if any(rows[beta]):
                    queue.append(beta)
    weight = {a: Fraction(1, multi_factorial(a)) for a in rows}
    return [Poly(n, {a: row[j] * weight[a] for a, row in rows.items()}) for j in range(d)]


def inverse_system(module, lam):
    """The integer pass on the module's integer blocks, read back as
    polynomials; None when the pass stops at its cap."""
    found = _inverse_system(module, lam)
    if found is None:
        return None
    monomials, rows, weights = found
    return [
        Poly(module.n, {a: Fraction(row[j], w) for a, row, w in zip(monomials, rows, weights)})
        for j in range(module.dim)
    ]


@pytest.mark.parametrize("n, terms", PLANTED, ids=["n=1", "n=2", "n=3"])
def test_inverse_system_matches_fraction_reference(n, terms):
    # Rational conjugates exercise the matrices' common denominator, and
    # an integer functional starts the pass over scale 1.
    plain, _ = as_matrices(submodule_from_polys(n, [Poly(n, terms)]))
    rng = random.Random(10 + n)
    g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(plain.dim)]
                 for _ in range(plain.dim)])
    while g.det() == 0:
        g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(plain.dim)]
                     for _ in range(plain.dim)])
    dense = conjugate(plain, g)
    lam = tuple(rng.randint(-5, 5) for _ in range(dense.dim))
    polys = inverse_system(dense, lam)
    assert polys == reference_inverse_system(dense, lam)
    # d/dx_i phi(e_j) = phi(S_i e_j) = sum_k S_i[k][j] phi(e_k).
    for i, m in enumerate(dense.matrices, start=1):
        for j, p in enumerate(polys):
            image = Poly.zero(n)
            for k in range(dense.dim):
                image = image + polys[k].scale(m.entries[k][j])
            assert p.partial(i) == image


@pytest.mark.parametrize("n, terms", PLANTED, ids=["n=1", "n=2", "n=3"])
def test_pass_rows_share_no_factor_with_their_scale(n, terms):
    # lam S^alpha = row / scale with weight = scale alpha!: the pass
    # divides out every common factor, so no power of the matrices'
    # denominator D builds up in the rows.
    plain, _ = as_matrices(submodule_from_polys(n, [Poly(n, terms)]))
    rng = random.Random(20 + n)
    g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(plain.dim)]
                 for _ in range(plain.dim)])
    while g.det() == 0:
        g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(plain.dim)]
                     for _ in range(plain.dim)])
    dense = conjugate(plain, g)
    assert dense._den > 1
    lam = tuple(rng.randint(-5, 5) for _ in range(dense.dim))
    monomials, rows, weights = _inverse_system(dense, lam)
    assert len(monomials) >= dense.dim
    for alpha, row, weight in zip(monomials, rows, weights):
        scale, rest = divmod(weight, multi_factorial(alpha))
        assert rest == 0 and gcd(scale, *row) == 1, alpha


def in_both_forms(module, lam):
    """The pass of lam and the canonical form (or its typed error), once
    with every block in the sparse form and once with every block in the
    dense form."""
    import nilmod.exactalg

    out = []
    for share in (1, -1):
        with mock.patch.object(nilmod.exactalg, "_SPARSE_SHARE", share):
            found = _inverse_system(module, lam)
            try:
                form = canonical_form(module)
            except NilmodError as exc:
                form = type(exc).__name__, str(exc)
        out.append((found, form))
    return out


def planted_closures():
    """(planted, plain): closures of seeded polynomials at n = 1, 2, 3,
    dimensions 8-30, and their action matrices."""
    rng = random.Random(6)
    polys = [Poly(n, terms) for n, terms in PLANTED]
    for n, degree in [(1, 19), (1, 29), (2, 7), (3, 5)]:
        terms = {a: rng.choice([-3, -2, -1, 1, 2, 3]) for a in monomials_of_degree(n, degree)}
        terms.update({a: rng.randint(-3, 3) for a in monomials_up_to_degree(n, degree - 1) if rng.random() < 0.5})
        polys.append(Poly(n, terms))
    planted = [submodule_from_polys(p.n, [p]) for p in polys]
    return [(p, as_matrices(p)[0]) for p in planted]


def test_sparse_and_dense_row_products_agree_on_planted_closures():
    rng = random.Random(7)
    for planted, plain in planted_closures():
        for module in (plain, conjugate(plain, random_invertible(rng, plain.dim))):
            lam = [rng.randint(-4, 4) for _ in range(module.dim)]
            sparse, dense = in_both_forms(module, lam)
            assert sparse == dense
            assert sparse[0] is not None and sparse[1] == planted


def test_the_three_row_forms_agree_on_planted_closures():
    # Every block sparse; every block dense on its columns' dot products;
    # every block dense and packed, whatever its width.
    import nilmod.exactalg as exactalg

    forms = [(1, exactalg._PACKED_WIDTH), (-1, 10**9), (-1, 1)]
    real, packed = exactalg._Packs._pack, []

    def pack(packs, w):
        packed.append(w)
        return real(packs, w)

    rng = random.Random(9)
    for planted, plain in planted_closures():
        for module in (plain, conjugate(plain, random_invertible(rng, plain.dim))):
            lam = [rng.randint(-4, 4) for _ in range(module.dim)]
            outs = []
            for share, width in forms:
                with mock.patch.object(exactalg, "_SPARSE_SHARE", share), \
                        mock.patch.object(exactalg, "_PACKED_WIDTH", width), \
                        mock.patch.object(exactalg._Packs, "_pack", pack):
                    outs.append((_inverse_system(module, lam), _socle_walk(module), is_nilpotent(module),
                                 canonical_form(module)))
            assert outs[0] == outs[1] == outs[2]
            assert outs[0][3] == planted
    assert packed


def test_plain_blocks_are_sparse_and_dense_conjugates_dense():
    rng = random.Random(8)
    for _, plain in planted_closures():
        d = plain.dim
        assert all(_row_form(block, d)[0] for block in plain._blocks)
        dense = conjugate(plain, random_invertible(rng, d))
        assert not any(_row_form(block, d)[0] for block in dense._blocks)


def test_a_block_at_the_threshold_is_sparse():
    # At most a quarter of the entries nonzero is sparse: 4 of 16 is, 5 is
    # not.  The sparse form carries its width, the dense form None.
    block = [[1, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 0], [0, 0, 0, -1]]
    assert _row_form(block, 4) == (4, [[(0, 1), (1, 2)], [(2, 3)], [], [(3, -1)]])
    block[2][0] = 5
    assert _row_form(block, 4) == (None, tuple(zip(*block)))
    assert _row_form([[0, 1], [0, 0]], 2)[0] == 2
    assert _row_form([[0, 1], [1, 0]], 2)[0] is None
    # A rectangular matrix: the share is taken over rows x width, 2 of 8.
    assert _row_form([[0, 0, 7, 0], [0, 0, 0, 1]], 4) == (4, [[(2, 7)], [(3, 1)]])
    assert _row_form([[0, 0, 7, 0], [0, 2, 0, 1]], 4)[0] is None


def test_embedding_converts_the_action_matrices_once(monkeypatch):
    # The matrices already hold integer rows: the constructor scales them
    # into blocks without converting, and every integer kernel on the
    # module reads the blocks it stored, so no matrix's rows are
    # converted at all.
    import nilmod.exactalg
    import nilmod.polysub
    from nilmod.modcore import socle

    plain, _ = as_matrices(submodule_from_polys(2, [Poly(2, PLANTED[1][1])]))
    dense = conjugate(plain, random_invertible(random.Random(5), plain.dim))
    shifted = twist(dense, [Fraction(1, 2), Fraction(-3)])
    real = nilmod.exactalg._integer_rows
    for module in (plain, dense, shifted):
        stack = [row for m in module.matrices for row in m.entries]
        calls = []

        def counting(rows):
            # Any call that converts some row of a matrix, or all of them.
            rows = [tuple(row) for row in rows]
            if any(row in stack for row in rows):
                calls.append(rows)
            return real(rows)

        for owner in (nilmod.exactalg, nilmod.polysub):
            monkeypatch.setattr(owner, "_integer_rows", counting)
        built = FDModule(module.n, module.matrices)
        assert built._blocks == tuple(tuple(tuple(x * built._den for x in row) for row in m.entries) for m in module.matrices)
        weighted, general = embed_general(built)
        assert is_nilpotent(built) is (module is not shifted)
        if module is shifted:
            eigenvalues = socle_eigenvalues(built)
        else:
            result = embed_nilpotent(built)
            form = canonical_form(built)
            assert is_isomorphic(built, built)
            assert socle(built).dim == 1
        assert calls == []
        monkeypatch.undo()
        assert general.is_intertwining()
        if module is shifted:
            assert eigenvalues == weighted.eigenvalues == (Fraction(-1, 2), Fraction(3))
        else:
            assert result.map.is_isomorphism() and form == result.image == weighted.part


def test_canonical_form_builds_no_fraction_row_and_no_poly(monkeypatch):
    import nilmod.exactalg

    real_row, real_init = nilmod.exactalg._fraction_row, Poly.__init__
    for n, terms in PLANTED:
        planted = submodule_from_polys(n, [Poly(n, terms)])
        dense = conjugate(as_matrices(planted)[0], random_invertible(random.Random(n + 20), planted.dim))
        built = []
        monkeypatch.setattr(nilmod.exactalg, "_fraction_row", lambda *args: built.append("row") or real_row(*args))
        monkeypatch.setattr(Poly, "__init__", lambda self, *args: built.append("poly") or real_init(self, *args))
        form = canonical_form(dense)
        same = is_isomorphic(dense, dense)
        monkeypatch.undo()
        assert built == []
        assert form == planted and same


def test_embed_rng_changes_the_map_not_the_image():
    mod = random_nilpotent_module(2, 3, seed=12)
    default = embed_nilpotent(mod)
    maps = set()
    for seed in range(5):
        result = embed_nilpotent(mod, rng=random.Random(seed))
        assert result.image == default.image
        assert result.map.is_isomorphism()
        maps.add(result.map.images)
    assert maps - {default.map.images}


# e_1 spans the joint kernel, and lam S^k = (0, 1) for every k >= 1.
LINE_KERNEL_NOT_NILPOTENT = validate([QMatrix([[0, 1], [0, 1]])])


def assert_capped():
    """Fail within a second if the pass has no degree cap.  Without one it
    never ends on a non-nilpotent module whose kernel is a line, and its
    rows fill memory; the tests call this before any such module."""
    with time_limit(1):
        assert inverse_system(LINE_KERNEL_NOT_NILPOTENT, (1, 0)) is None


def test_one_nilpotency_check_per_embedding(monkeypatch):
    # The inverse-system pass certifies nilpotency, so a success squares
    # no matrix, and neither does a walk past d - 1 steps or a pass
    # stopped at its degree cap.  The core squares the module's blocks
    # once, through is_nilpotent, only to name the error, when the image
    # falls short; every failure here has one variable, so one naming is
    # one call.
    import nilmod.modcore

    calls = []
    original = nilmod.modcore._is_nilpotent_matrix

    def counting(rows):
        calls.append(rows)
        return original(rows)

    def count(call, module):
        calls.clear()
        try:
            call(module)
        except NilmodError:
            pass
        return len(calls)

    monkeypatch.setattr(nilmod.modcore, "_is_nilpotent_matrix", counting)
    for seed in range(4):
        mod = random_nilpotent_module(2, 2, seed=seed)
        assert count(embed_nilpotent, mod) == 0
        assert count(canonical_form, mod) == 0
        assert count(lambda m: is_isomorphic(m, m), mod) == 0
        assert count(embed_general, twist(mod, [Fraction(-2), Fraction(1, 3)])) == 0
    assert_capped()
    assert count(embed_nilpotent, LINE_KERNEL_NOT_NILPOTENT) == 0
    # Short image: the pass ends, but phi(e_2) = 0.
    assert count(embed_nilpotent, validate([QMatrix([[0, 0], [0, 1]])])) == 1
    # A walk that never vanishes proves non-nilpotency itself.
    assert count(embed_nilpotent, validate([QMatrix.identity(2)])) == 0
    # No line: a kernel of dimension 2 and 0 (the zero module).
    assert count(embed_nilpotent, validate([zeros(2, 2)])) == 1
    assert count(embed_nilpotent, FDModule(1, [QMatrix([], cols=0)])) == 1
    assert count(embed_general, validate([QMatrix.identity(2)])) == 1


def test_embed_general_builds_no_module_for_its_twist(monkeypatch):
    # The twist is `twist`'s trusted module, written on the integer
    # blocks: the validating FDModule constructor never runs, so there is
    # no second commutativity check.  Its blocks are those of the
    # untwisted nilpotent module, so the map is the one embed_nilpotent
    # gives that module.  For DIVISIBLE_SOCLE shifted by 1/P the blocks
    # come back as P M over P; the walk and the pass divide out each
    # vector's content, so that factor moves neither lambda nor the map.
    rng = random.Random(13)
    modules = [(DIVISIBLE_SOCLE, [Fraction(-1, _PRIME)])]
    for n, bound in [(1, 4), (2, 3), (3, 2)]:
        for seed in range(2):
            mod = random_nilpotent_module(n, bound, seed=seed)
            shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            modules.append((conjugate(mod, random_invertible(rng, mod.dim)), shift))
    cases = [(twist(mod, shift), shift, embed_nilpotent(mod).map.images) for mod, shift in modules]
    built = []
    original = FDModule.__init__
    monkeypatch.setattr(FDModule, "__init__", lambda self, *args: built.append(1) or original(self, *args))
    for module, shift, images in cases:
        weighted, bridge = embed_general(module)
        assert built == []
        assert weighted.eigenvalues == tuple(-a for a in shift)
        assert bridge.images == images
        assert bridge.is_intertwining()


def test_exact_kernel_only_on_failures(monkeypatch):
    # The walk's vector chooses the functional, and an injective map
    # certifies it, so a success computes no exact joint kernel, and
    # neither does the zero module.  Any other failure computes it at
    # most once, to name the error.
    import nilmod.embed

    calls = []
    original = nilmod.embed._joint_kernel

    def counting(module):
        calls.append(module.dim)
        return original(module)

    monkeypatch.setattr(nilmod.embed, "_joint_kernel", counting)
    counts = {"ok": set(), "NotNilpotent": set(), "SocleNotOneDimensional": set(), "zero": set()}
    for module in comparison_table():
        calls.clear()
        kind = outcome(embed_nilpotent, module, None)[0]
        counts["zero" if module.dim == 0 else kind].add(len(calls))
    assert counts["ok"] == {0}
    assert counts["zero"] == {0}
    # A walk or pass that proves non-nilpotency, or a short image of a
    # non-nilpotent module, needs no socle; a socle that is not a line does.
    assert counts["NotNilpotent"] <= {0, 1}
    assert counts["SocleNotOneDimensional"] == {1}


# The kernel mod P is larger than the exact one in these three modules,
# and the line mod P moves in the fourth.  Mod P the first and third
# are zero, so a walk mod P would stop at e_1: in the first that is the
# exact socle, in the third it misses the socle e_2.  The exact walk ends
# on the socle in all of them.
UNLUCKY_PRIME = validate([QMatrix([[0, _PRIME], [0, 0]])])
DIVISIBLE_SOCLE = validate([QMatrix([[_PRIME, -(_PRIME**2)], [1, -_PRIME]])])
MISSED_SOCLE = validate([QMatrix([[0, 0], [_PRIME, 0]])])
# In two variables: S_1 e_2 = P e_3 and S_2 e_1 = e_3, the module of
# span{x_1, x_2, 1} with x_1 scaled by P.  Every pass row lam S_1 is a
# multiple of P, so the rows of its three monomials have rank 2 mod P.
SHORT_RANK = validate(
    [QMatrix([[0, 0, 0], [0, 0, 0], [0, _PRIME, 0]]), QMatrix([[0, 0, 0], [0, 0, 0], [1, 0, 0]])]
)


def count_calls(monkeypatch, names):
    """Patch each named function of nilmod.embed to record its calls;
    returns the dict of call lists by name."""
    import nilmod.embed

    calls = {name: [] for name in names}
    for name in names:
        original = getattr(nilmod.embed, name)
        monkeypatch.setattr(
            nilmod.embed, name, lambda *args, _f=original, _c=calls[name]: _c.append(args) or _f(*args)
        )
    return calls


def test_unlucky_prime_embeds_through_the_exact_kernel(monkeypatch):
    # The matrix kills e_1, so the walk stops there, on the exact kernel:
    # the embedding needs no exact kernel.  The pass rows [[0, P], [1, 0]]
    # have rank 1 mod P, but at n = 1 two monomials have independent rows,
    # so no rank is read.
    assert _socle_walk(UNLUCKY_PRIME) == ([1, 0], 0)
    calls = count_calls(monkeypatch, ["_joint_kernel", "_inverse_system", "_rank_mod"])
    for seed in (None, 3):
        for found in calls.values():
            found.clear()
        got = outcome(embed_nilpotent, UNLUCKY_PRIME, seed)
        assert got == outcome(reference_embed_nilpotent, UNLUCKY_PRIME, seed)
        assert calls["_joint_kernel"] == []
        assert len(calls["_inverse_system"]) == 1
        assert calls["_rank_mod"] == []
    assert embed_nilpotent(UNLUCKY_PRIME).map.is_isomorphism()
    assert canonical_form(UNLUCKY_PRIME) == submodule_from_polys(1, [Poly(1, {(1,): 1})])


def test_rank_short_mod_p_leaves_the_image_to_the_exact_elimination(monkeypatch):
    # At n = 2 rank d mod P is the certificate: the pass rows of SHORT_RANK's
    # three monomials have rank 2 mod P, so the image's exact elimination
    # decides, and finds rank 3.
    assert _socle_walk(SHORT_RANK) == ([0, 0, 1], 1)
    calls = count_calls(monkeypatch, ["_joint_kernel", "_inverse_system", "_rank_mod"])
    for seed in (None, 3):
        for found in calls.values():
            found.clear()
        got = outcome(embed_nilpotent, SHORT_RANK, seed)
        assert got == outcome(reference_embed_nilpotent, SHORT_RANK, seed)
        assert calls["_joint_kernel"] == []
        assert len(calls["_inverse_system"]) == 1
        ((rows, cols),) = calls["_rank_mod"]
        assert _rank_mod(rows, cols) == 2 and len(rows) == cols == 3
        if seed is None:
            assert rows == [[0, _PRIME, 0], [1, 0, 0], [0, 0, 1]]
    assert embed_nilpotent(SHORT_RANK).map.is_isomorphism()
    assert canonical_form(SHORT_RANK) == PolySubmodule(2, [X1, X2, Poly.one(2)])


def test_missed_socle_takes_one_pass_and_no_exact_kernel(monkeypatch):
    # Mod P the matrix is zero, so a walk mod P would stop at e_1 and miss
    # the socle e_2.  The exact walk goes on to M e_1 = P e_2, divides out
    # P, and stops on the socle: lambda = e_2, one pass, and no exact kernel.
    assert _socle_walk(MISSED_SOCLE) == ([0, 1], 1)
    assert _joint_kernel(MISSED_SOCLE).basis == ((0, 1),)
    calls = count_calls(monkeypatch, ["_joint_kernel", "_inverse_system"])
    result = embed_nilpotent(MISSED_SOCLE)
    assert calls["_joint_kernel"] == []
    assert [args[1] for args in calls["_inverse_system"]] == [[0, 1]]
    assert result.map.is_isomorphism()
    assert result.image_polys() == (Poly(1, {(1,): _PRIME}), Poly.one(1))
    # Seed 3 draws lambda = (-1, 4), nonzero on e_2.  Seed 4 draws (-1, 0)
    # first, which is zero on e_2, and draws again.
    for seed in (None, 3, 4):
        calls["_inverse_system"].clear()
        drawn = outcome(embed_nilpotent, MISSED_SOCLE, seed)
        assert drawn == outcome(reference_embed_nilpotent, MISSED_SOCLE, seed)
        assert len(calls["_inverse_system"]) == 1
        assert drawn[1]["image"] == result.image.to_json()
    assert calls["_joint_kernel"] == []


def test_socle_walk_ends_in_the_exact_socle():
    # The walk ends on a nonzero primitive integer vector that every block
    # kills exactly, so it spans the joint kernel whenever that is a line;
    # a walk past d - 1 steps, which returns None, proves the module not
    # nilpotent, and in one variable d - 1 steps prove one Jordan block.
    # Without an rng, lambda is then the pivot of the socle's RREF basis
    # vector, as in the reference, however P divides the socle's entries.
    modules = comparison_table() + success_table() + [m for m, _ in single_variable_table()]
    lines = stopped = blocks = 0
    for module in modules:
        d, walk = module.dim, _socle_walk(module)
        if walk is None:
            assert not is_nilpotent(module)
            stopped += 1
            continue
        w, k = walk
        if d == 0:
            assert walk == ([], 0)
            continue
        assert any(w) and gcd(*w) == 1 and 0 <= k < d
        assert all(sum(x * y for x, y in zip(row, w)) == 0 for block in module._blocks for row in block)
        space = _joint_kernel(module)
        if space.dim == 1:
            lines += 1
            assert space == Subspace(d, [w])
        if module.n == 1 and k == d - 1:
            blocks += 1
            assert is_nilpotent(module) and space.dim == 1
    assert lines >= 100 and stopped >= 20 and blocks >= 45, (lines, stopped, blocks)
    for module in modules + [UNLUCKY_PRIME, DIVISIBLE_SOCLE, MISSED_SOCLE, SHORT_RANK]:
        assert outcome(embed_nilpotent, module, None) == outcome(reference_embed_nilpotent, module, None)


def count_eliminations(monkeypatch):
    """Patch `_rref_int` where the library calls it to record its calls;
    returns the list of calls."""
    import nilmod.exactalg
    import nilmod.modcore

    calls = []
    original = nilmod.exactalg._rref_int
    for layer in (nilmod.exactalg, nilmod.modcore):
        monkeypatch.setattr(layer, "_rref_int", lambda *args: calls.append(args) or original(*args))
    return calls


def test_monomial_images_skip_the_exact_elimination(monkeypatch):
    # When the pass leaves d monomials with independent rows, the image is
    # the whole space over them and nothing is eliminated.  That covers
    # every n = 1 success, and the lower-set closures of one monomial at
    # n = 2 and 3, plain and densely conjugated.
    rng = random.Random(31)
    cases = [validate([jordan_block(d)]) for d in (1, 2, 5, 12)]
    cases += [as_matrices(submodule_from_polys(1, [Poly(1, PLANTED[0][1])]))[0]]
    for n, alpha in [(2, (3, 2)), (2, (0, 4)), (3, (1, 2, 1)), (3, (2, 0, 2))]:
        cases.append(as_matrices(submodule_from_polys(n, [Poly(n, {alpha: 1})]))[0])
    cases += [conjugate(m, random_invertible(rng, m.dim)) for m in cases]
    calls = count_eliminations(monkeypatch)
    for module in cases:
        d = module.dim
        calls.clear()
        result = embed_nilpotent(module)
        form = canonical_form(module)
        assert calls == []
        assert result.map.is_isomorphism()
        assert len(result.image.monomial_list) == d and form == result.image
        assert outcome(embed_nilpotent, module, None) == outcome(reference_embed_nilpotent, module, None)


@pytest.mark.parametrize("p", [None, 5, 7, 11])
def test_single_variable_images_take_no_rank_and_no_elimination(monkeypatch, p):
    # In one variable a nilpotent module with a line socle is one Jordan
    # block, so its image is span{x^k : k < d}, at the real prime and at
    # small ones.  Its one pass reads no rank mod P and eliminates
    # nothing, and the map is the reference's at every prime.
    import nilmod.exactalg

    rng = random.Random(53)
    cases = []
    for d in (1, 2, 3, 7, 16):
        block = validate([jordan_block(d)])
        while True:
            g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)])
            if g.det() != 0:
                break
        cases += [block, conjugate(block, g)]
    if p is not None:
        monkeypatch.setattr(nilmod.exactalg, "_PRIME", p)
    expected = [PolySubmodule(1, [Poly.monomial(1, (k,)) for k in range(m.dim)]) for m in cases]
    references = [[outcome(reference_embed_nilpotent, m, seed) for seed in (None, 3)] for m in cases]
    calls = count_calls(monkeypatch, ["_rank_mod", "_inverse_system"])
    eliminations = count_eliminations(monkeypatch)
    for module, image, reference in zip(cases, expected, references):
        for seed, want in zip((None, 3), reference):
            for found in (calls["_rank_mod"], calls["_inverse_system"], eliminations):
                found.clear()
            result = embed_nilpotent(module, None if seed is None else random.Random(seed))
            assert calls["_rank_mod"] == [] and eliminations == []
            assert len(calls["_inverse_system"]) == 1
            assert result.image == image == canonical_form(module)
            assert ("ok", result.to_json()) == want
            assert want[1]["image"] == image.to_json() and result.map.is_isomorphism()


def test_a_short_pass_is_refused_before_any_elimination(monkeypatch):
    # Fewer monomials than d cannot hold an image of dimension d.
    calls = count_eliminations(monkeypatch)
    summed = block_sum(validate([jordan_block(3)]), validate([jordan_block(2)]))
    for module, lam in [(MISSED_SOCLE, [1, 0]), (SHORT_RANK, [1, 0, 0]), (summed, [0, 0, 1, 0, 1])]:
        assert _image(module, *_inverse_system(module, lam)) is None
    assert calls == []


def test_socle_entry_divisible_by_p_keeps_the_pivot_functional():
    # The socle is the line of (P, 1), whose residues mod P are (0, 1).
    # The exact walk ends on (P, 1) itself, so lambda = e_1, the pivot of
    # the RREF basis vector, as in the reference.  The image is the same.
    assert _socle_walk(DIVISIBLE_SOCLE) == ([_PRIME, 1], 1)
    reference = reference_embed_nilpotent(DIVISIBLE_SOCLE)
    result = embed_nilpotent(DIVISIBLE_SOCLE)
    assert result.to_json() == reference.to_json()
    assert result.image == reference.image == submodule_from_polys(1, [Poly(1, {(1,): 1})])
    assert result.map.is_isomorphism()
    # lambda = e_1: phi(e_1) = 1 + P x and phi(e_2) = -P^2 x, in the basis (x, 1).
    assert result.image_polys() == (Poly(1, {(1,): _PRIME, (0,): 1}), Poly(1, {(1,): -(_PRIME**2)}))
    assert result.map.images == QMatrix([[_PRIME, -(_PRIME**2)], [1, 0]])
    for seed in range(4):
        drawn = embed_nilpotent(DIVISIBLE_SOCLE, rng=random.Random(seed))
        assert ("ok", drawn.to_json()) == outcome(reference_embed_nilpotent, DIVISIBLE_SOCLE, seed)
        assert drawn.image == reference.image
        assert drawn.map.is_isomorphism()


def test_unlucky_primes_under_optimize_flag():
    # The modules whose entries P divides keep their answers under `python -O`.
    code = "\n".join(
        [
            "import json, random",
            "from nilmod.embed import embed_nilpotent",
            "from nilmod.exactalg import _PRIME, QMatrix",
            "from nilmod.modcore import validate",
            "print(__debug__)",
            "for m in ([[0, _PRIME], [0, 0]], [[_PRIME, -_PRIME**2], [1, -_PRIME]], [[0, 0], [_PRIME, 0]]):",
            "    module = validate([QMatrix(m)])",
            "    for rng in (None, random.Random(3)):",
            "        result = embed_nilpotent(module, rng)",
            "        print(json.dumps(result.to_json()), result.map.is_isomorphism())",
        ]
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    expected = ["False"]
    for module in (UNLUCKY_PRIME, DIVISIBLE_SOCLE, MISSED_SOCLE):
        for rng in (None, random.Random(3)):
            expected.append(f"{json.dumps(embed_nilpotent(module, rng).to_json())} True")
    assert proc.stdout.splitlines() == expected


def pass_budget(d):
    """Row products the pass makes before it checks nilpotency once."""
    return 4 * d * d.bit_length()


def count_pass_products(monkeypatch):
    """Patch the pass, where `embed` calls it, to record the row products
    of each call, which the walk's products do not enter; returns the list
    of counts, one per pass."""
    import nilmod.embed
    import nilmod.modcore

    products, passes = [], []
    product, inverse_system = nilmod.modcore._row_product, nilmod.embed._inverse_system

    def counted(*args):
        start = len(products)
        try:
            return inverse_system(*args)
        finally:
            passes.append(len(products) - start)

    monkeypatch.setattr(nilmod.modcore, "_row_product", lambda r, f: products.append(1) or product(r, f))
    monkeypatch.setattr(nilmod.embed, "_inverse_system", counted)
    return passes


def success_table():
    """Seeded nilpotent modules with a line socle at dimension 3 and up,
    plain and densely conjugated, as the embedding benchmarks draw them:
    planted closures and random modules in one to three variables."""
    rng = random.Random(77)
    cases = []
    for n, terms in PLANTED:
        plain, _ = as_matrices(submodule_from_polys(n, [Poly(n, terms)]))
        cases += [plain, conjugate(plain, random_invertible(rng, plain.dim))]
    for n, bound in [(1, 6), (2, 4), (3, 3)]:
        for seed in range(3):
            mod = random_nilpotent_module(n, bound, seed=seed)
            cases += [mod, conjugate(mod, random_invertible(rng, mod.dim))]
    return [m for m in cases if m.dim >= 3]


def test_no_success_reaches_the_pass_budget(monkeypatch):
    # Below the budget the pass never squares a matrix.  The seeded
    # successes stay under half of it.
    import nilmod.modcore

    checks = []
    nilpotent = nilmod.modcore._is_nilpotent_matrix
    passes = count_pass_products(monkeypatch)
    monkeypatch.setattr(nilmod.modcore, "_is_nilpotent_matrix", lambda m: checks.append(1) or nilpotent(m))
    worst = 0
    for module in success_table():
        passes.clear()
        assert embed_nilpotent(module).map.is_isomorphism()
        (products,) = passes
        worst = max(worst, products / pass_budget(module.dim))
    assert checks == []
    assert 0 < worst < 0.5, worst


def test_small_successes_square_nothing(monkeypatch):
    # Dimensions 1 and 2 in up to three variables: the pass makes at most
    # n(n + 3)/2 products, below the budget, so a success never squares.
    import nilmod.modcore

    checks = []
    nilpotent = nilmod.modcore._is_nilpotent_matrix
    monkeypatch.setattr(nilmod.modcore, "_is_nilpotent_matrix", lambda m: checks.append(1) or nilpotent(m))
    rng = random.Random(12)
    seen = set()
    for n in (1, 2, 3):
        for bound in (0, 1):
            for seed in range(3):
                mod = random_nilpotent_module(n, bound, seed=seed)
                for module in (mod, conjugate(mod, random_invertible(rng, mod.dim))):
                    assert embed_nilpotent(module).map.is_isomorphism()
                    seen.add((n, module.dim))
    assert checks == []
    assert seen == {(n, d) for n in (1, 2, 3) for d in (1, 2)}


def test_non_nilpotent_line_kernel_stops_at_the_budget(monkeypatch):
    # K[d](x_1 + x_2 + x_3)^20, where every x_i acts by one Jordan block,
    # plus a line where every x_i acts by 2: dimension 22, and the joint
    # kernel is a line.  Densely conjugated, e_1 has a part on the
    # eigenvalue-2 line, so the walk never vanishes and stops the
    # embedding before any pass.
    block = block_sum(validate([jordan_block(21)] * 3), validate([QMatrix([[2]])] * 3))
    dense = conjugate(block, random_invertible(random.Random(22), 22))
    passes = count_pass_products(monkeypatch)
    assert _socle_walk(dense) is None
    with time_limit(10):
        with pytest.raises(NotNilpotent):
            embed_nilpotent(dense)
    assert passes == []
    # Conjugated by G^-1 instead, where G e_1 has no part on that line,
    # the walk reaches a kernel vector.  The seeded lambda is nonzero on
    # G^-1 e_22, the eigenvector for 2, so lambda S^alpha never vanishes,
    # and the pass stops one product past its budget, not at degree 22.
    rng = random.Random(22)
    while True:
        g = random_invertible(rng, 22)
        g = QMatrix([[0 if (r, c) == (21, 0) else x for c, x in enumerate(row)] for r, row in enumerate(g.entries)])
        if g.det() != 0:
            break
    module = conjugate(block, g.inverse())
    w, _ = _socle_walk(module)
    assert all(sum(x * y for x, y in zip(row, w)) == 0 for block in module._blocks for row in block)
    lam = _functional(w, random.Random(4))
    assert sum(a * b for a, b in zip(lam, (row[21] for row in g.inverse().entries))) != 0
    with time_limit(10):
        with pytest.raises(NotNilpotent):
            embed_nilpotent(module, random.Random(4))
    assert passes == [pass_budget(22) + 1]


def last_variable(alpha):
    """The index of alpha's last nonzero entry, 0 at the origin."""
    return max((i for i, a in enumerate(alpha) if a), default=0)


def counted_pass(monkeypatch, module):
    """The pass with the default lambda, and the row products it made."""
    import nilmod.modcore

    w, _ = _socle_walk(module)
    products, product = [], nilmod.modcore._row_product
    monkeypatch.setattr(nilmod.modcore, "_row_product", lambda r, f: products.append(1) or product(r, f))
    result = _inverse_system(module, _functional(w, None))
    monkeypatch.undo()
    return result, len(products)


def test_the_pass_reaches_each_exponent_once(monkeypatch):
    # alpha is extended only by the variables i >= last(alpha), so each
    # exponent comes from its one parent, alpha minus its last variable,
    # and the pass makes sum(n - last(alpha)) row products over the alpha
    # it returns.  A breadth-first pass with a visited set makes one per
    # distinct successor alpha + e_i, which is never fewer.
    for module in success_table():
        (monomials, _, _), products = counted_pass(monkeypatch, module)
        n = module.n
        successors = {a[:i] + (a[i] + 1,) + a[i + 1 :] for a in monomials for i in range(n)}
        assert products == sum(n - last_variable(a) for a in monomials) <= len(successors)
    # K[d](x_1^2 + x_2^2) has dimension 4 and its pass 5 monomials: 1, x_1,
    # x_2, x_1^2 and x_2^2.  Their 9 successors cost 8 products, for
    # x_1 x_2 is reached from x_1 alone.
    plain, _ = as_matrices(submodule_from_polys(2, [Poly(2, {(2, 0): 1, (0, 2): 1})]))
    assert plain.dim == 4
    rng = random.Random(45)
    for module in [plain] + [conjugate(plain, random_invertible(rng, 4)) for _ in range(2)]:
        (monomials, _, _), products = counted_pass(monkeypatch, module)
        assert sorted(monomials) == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)]
        assert products == 8


def reference_embed_nilpotent(module, rng=None):
    """The embedding with nilpotency decided first by squaring, then the
    socle line, then the inverse-system pass."""
    if not is_nilpotent(module):
        raise NotNilpotent("only nilpotent modules embed into the derivative module")
    if module.dim == 0:
        raise SocleNotOneDimensional("the zero module has no socle line")
    space = _joint_kernel(module)
    if space.dim != 1:
        raise SocleNotOneDimensional(f"socle has dimension {space.dim}, not 1")
    polys = reference_inverse_system(module, _functional(space.basis[0], rng))
    image = PolySubmodule(module.n, polys)
    if image.dim != module.dim:
        raise AssertionError("the embedding must be injective")
    images = QMatrix.from_columns([image.coordinates_of(p) for p in polys], rows=image.dim)
    return EmbeddingResult(image, ModuleMap(module, image, images))


def reference_embed_general(module):
    """embed_general with its own nilpotency check of the trace twist."""
    d = module.dim
    if d > 0:
        alpha = tuple(sum(m.entries[k][k] for k in range(d)) / d for m in module.matrices)
        twisted = twist(module, alpha)
        if is_nilpotent(twisted):
            result = reference_embed_nilpotent(twisted)
            weighted = ExpSubmodule(alpha, result.image)
            return weighted, ModuleMap(module, weighted, result.map.images)
    socle_eigenvalues(module)
    raise SocleNotOneDimensional(
        "the action is not nilpotent after twisting by the socle eigenvalues"
    )


def outcome(call, module, seed):
    """("ok", JSON) for a result, (kind, message) for a typed error."""
    try:
        result = call(module) if seed is None else call(module, random.Random(seed))
    except NilmodError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, EmbeddingResult):
        return "ok", result.to_json()
    weighted, bridge = result
    return "ok", weighted.to_json(), [bridge.image_poly(j).to_json() for j in range(module.dim)]


def block_sum(first, second):
    """The direct sum of two modules in the same variables."""
    d, e = first.dim, second.dim
    return validate(
        [
            QMatrix(
                [list(r) + [0] * e for r in a.entries] + [[0] * d + list(r) for r in b.entries],
                cols=d + e,
            )
            for a, b in zip(first.matrices, second.matrices)
        ]
    )


def jordan_block(d):
    return QMatrix([[int(c == r + 1) for c in range(d)] for r in range(d)])


def comparison_table():
    """Seeded modules for every outcome of the embedding: nilpotent ones
    with a line socle, twists, non-nilpotent ones whose joint kernel is a
    line (the pass stops at the cap, or ends with a short image), and
    ones whose kernel is not a line."""
    rng = random.Random(409)
    cases = []
    for n, bound in [(1, 5), (2, 3), (3, 2)]:
        for seed in range(3):
            mod = random_nilpotent_module(n, bound, seed=seed)
            cases += [mod, conjugate(mod, random_invertible(rng, mod.dim))]
            shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
            cases.append(twist(cases[-1], shift))
    for n, terms in PLANTED:
        plain, _ = as_matrices(submodule_from_polys(n, [Poly(n, terms)]))
        cases.append(conjugate(plain, random_invertible(rng, plain.dim)))
        for _ in range(2):
            c = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n)]
            planted_plus_c = block_sum(plain, validate([QMatrix([[x]]) for x in c]))
            cases.append(conjugate(planted_plus_c, random_invertible(rng, plain.dim + 1)))
        cases.append(block_sum(plain, validate([zeros(1, 1)] * n)))
    jordan_next_to_invertible = block_sum(
        validate([jordan_block(3)]), validate([QMatrix([[2, 1], [1, 1]])])
    )
    cases += [
        validate([QMatrix([[0, 0], [0, 1]])]),
        jordan_next_to_invertible,
        conjugate(jordan_next_to_invertible, random_invertible(rng, 5)),
        validate([QMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])]),
        FDModule(1, [QMatrix([], cols=0)]),
        FDModule(2, [QMatrix([], cols=0)] * 2),
        validate([QMatrix.identity(2)]),
        validate([QMatrix([[0, 1], [-1, 0]])]),
        validate([jordan_block(7)]),
        validate([jordan_block(7), zeros(7, 7)]),
    ]
    return cases


def test_embedding_matches_the_nilpotency_first_reference():
    assert_capped()
    results = {"embed": set(), "general": set()}
    capped = short = 0
    for k, module in enumerate(comparison_table()):
        for seed in (None, 500 + k):
            got = outcome(embed_nilpotent, module, seed)
            assert got == outcome(reference_embed_nilpotent, module, seed), k
            results["embed"].add(got[0])
        got = outcome(embed_general, module, None)
        assert got == outcome(reference_embed_general, module, None), k
        results["general"].add(got[0])
        space = _joint_kernel(module)
        if space.dim == 1 and not is_nilpotent(module):
            if inverse_system(module, _functional(space.basis[0], None)) is None:
                capped += 1
            else:
                short += 1
    # Both ways a line kernel can fail, and every error kind.
    assert capped >= 3 and short >= 2, (capped, short)
    assert results["embed"] == {"ok", "NotNilpotent", "SocleNotOneDimensional"}
    assert results["general"] == {
        "ok",
        "SocleNotOneDimensional",
        "NoCommonEigenline",
        "NonRationalEigenvalue",
    }


@pytest.mark.parametrize("d", [1, 2, 7])
def test_jordan_block_of_full_length_embeds(d):
    # lam S^(d-1) is the last nonzero row: a cap at degree d - 1 refuses it.
    result = embed_nilpotent(validate([jordan_block(d)]))
    assert result.image == submodule_from_polys(1, [Poly(1, {(d - 1,): 1})])
    assert result.map.is_isomorphism()


def test_line_kernel_without_nilpotency_stops_at_the_cap():
    # Without the cap the pass never ends on this module.  The child's
    # timeout and memory limit turn that hang into a failure.
    code = "\n".join(
        [
            "import resource",
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))",
            "from nilmod.embed import canonical_form, embed_general, embed_nilpotent",
            "from nilmod.errors import NilmodError",
            "from nilmod.exactalg import QMatrix",
            "from nilmod.modcore import _inverse_system, validate",
            "module = validate([QMatrix([[0, 1], [0, 1]])])",
            "print(_inverse_system(module, (1, 0)))",
            "for call in (embed_nilpotent, canonical_form, embed_general):",
            "    try:",
            "        call(module)",
            "    except NilmodError as exc:",
            "        print(type(exc).__name__, exc)",
        ]
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "None",
        "NotNilpotent only nilpotent modules embed into the derivative module",
        "NotNilpotent only nilpotent modules embed into the derivative module",
        "NoCommonEigenline 2 distinct joint eigenvalue tuples found",
    ]


# --- canonical forms ----------------------------------------------------------

def test_canonical_form_conjugation_invariant():
    rng = random.Random(317)
    for seed in range(15):
        mod = random_nilpotent_module(2, 2, seed=seed)
        g = random_invertible(rng, mod.dim)
        assert canonical_form(conjugate(mod, g)) == canonical_form(mod)


def test_canonical_form_rng_invariant():
    for seed in range(10):
        mod = random_nilpotent_module(2, 3, seed=seed)
        base = canonical_form(mod)
        assert embed_nilpotent(mod, rng=random.Random(seed)).image == base
        assert embed_nilpotent(mod, rng=random.Random(seed + 1000)).image == base


def test_canonical_form_fixed_point():
    # embedding the matrix module of a canonical form returns it unchanged
    mod = random_nilpotent_module(2, 2, seed=3)
    form = canonical_form(mod)
    from nilmod.polysub import as_matrices

    fd, _ = as_matrices(form)
    assert canonical_form(fd) == form


# --- the walk's certificate in one variable -------------------------------------

def subdiagonal_jordan(d):
    """S e_k = e_(k+1): e_1 is cyclic, so the walk certifies the block."""
    return QMatrix([[int(r == c + 1) for c in range(d)] for r in range(d)], cols=d)


def rational_invertible(rng, d, corner=None):
    """An invertible matrix of small fractions, with entry (1, 1) the
    corner if one is given."""
    while True:
        rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)]
        if corner is not None:
            rows[0][0] = corner
        h = QMatrix(rows, cols=d)
        if h.det() != 0:
            return h


def single_variable_table():
    """(module, whether the walk certifies it): seeded modules in one
    variable of dimension 0 to 12.  Both Jordan blocks, and dense
    conjugates H^-1 J H of the subdiagonal one: e_1 lies in the image of
    H^-1 J H iff H e_1 lies in that of J, iff H's entry (1, 1) is 0, and
    then the walk stops early.  Sums of two blocks, whose walk from e_1
    stops early, and modules that are not nilpotent, whose walk stops
    early or never vanishes."""
    rng = random.Random(1193)
    cases = [(FDModule(1, [QMatrix([], cols=0)]), False)]
    for d in range(1, 13):
        cases += [(validate([subdiagonal_jordan(d)]), True), (validate([jordan_block(d)]), d == 1)]
        for corner in (1, 0) if d > 1 else (1,):
            h = rational_invertible(rng, d, corner)
            cases.append((conjugate(validate([subdiagonal_jordan(d)]), h.inverse()), corner == 1))
    for seed in range(6):
        planted = random_nilpotent_module(1, rng.randint(1, 11), seed=seed)
        cases += [(planted, True), (conjugate(planted, rational_invertible(rng, planted.dim)), None)]
    for a, b in [(1, 1), (2, 1), (1, 3), (4, 4), (6, 5)]:
        two = block_sum(validate([subdiagonal_jordan(a)]), validate([subdiagonal_jordan(b)]))
        cases += [(two, False), (conjugate(two, rational_invertible(rng, a + b)), False)]
    for d, c in [(1, 3), (3, 2), (7, -1), (11, Fraction(1, 2))]:
        beside = block_sum(validate([subdiagonal_jordan(d)]), validate([QMatrix([[c]])]))
        cases += [(beside, False), (conjugate(beside, rational_invertible(rng, d + 1)), False)]
    cases += [
        (validate([QMatrix([[3]])]), False),
        (validate([QMatrix.identity(4)]), False),
        (LINE_KERNEL_NOT_NILPOTENT, False),
        (validate([QMatrix([[0, 1], [-1, 0]])]), False),
    ]
    return cases


def test_the_chain_certificate_matches_the_embedding_core(monkeypatch):
    # Where the walk's d - 1 steps certify one Jordan block, canonical_form
    # returns the span of x^(d-1), ..., 1 without entering the core, and
    # the core gives the same form; anywhere else it runs the core on that
    # walk, and the form or the error's kind and message is the core's.
    import nilmod.embed

    def attempt(call):
        try:
            return call()
        except NilmodError as exc:
            return type(exc).__name__, str(exc)

    core = nilmod.embed._embed
    entered = []
    monkeypatch.setattr(nilmod.embed, "_embed", lambda *args: entered.append(1) or core(*args))
    outcomes = {True: set(), False: set()}
    dims = set()
    for k, (module, certified) in enumerate(single_variable_table()):
        walk = _socle_walk(module)
        chain = walk is not None and walk[1] == module.dim - 1
        if certified is not None:
            assert chain is certified, k
        reference = attempt(lambda: core(module, _pass(module, walk, None)))
        entered.clear()
        assert attempt(lambda: canonical_form(module)) == reference, k
        assert entered == ([] if chain else [1]), k
        if chain:
            assert reference == submodule_from_polys(1, [Poly.monomial(1, (module.dim - 1,))])
        outcomes[chain].add(reference[0] if isinstance(reference, tuple) else "ok")
        dims.add(module.dim)
    assert dims == set(range(13))
    assert outcomes == {True: {"ok"}, False: {"ok", "NotNilpotent", "SocleNotOneDimensional"}}


def test_canonical_form_walks_each_module_once(monkeypatch):
    # The superdiagonal block kills e_1: the walk stops there, with k = 0,
    # and the core runs its one pass from that walk, not from a second
    # one.  Every other module, in one variable or more, is walked once
    # too, whatever the outcome.
    calls = count_calls(monkeypatch, ["_socle_walk", "_inverse_system"])
    superdiagonal = validate([jordan_block(50)])
    assert _socle_walk(superdiagonal) == ([1] + [0] * 49, 0)
    assert canonical_form(superdiagonal) == submodule_from_polys(1, [Poly.monomial(1, (49,))])
    assert len(calls["_socle_walk"]) == len(calls["_inverse_system"]) == 1
    for module in [m for m, _ in single_variable_table()] + comparison_table():
        for found in calls.values():
            found.clear()
        try:
            canonical_form(module)
        except NilmodError:
            pass
        assert len(calls["_socle_walk"]) == 1 and len(calls["_inverse_system"]) <= 1


# --- isomorphism decisions -----------------------------------------------------

def test_is_isomorphic_axis_swap_modules_differ():
    first = validate([QMatrix([[0, 1], [0, 0]]), zeros(2, 2)])
    second = validate([zeros(2, 2), QMatrix([[0, 1], [0, 0]])])
    assert not is_isomorphic(first, second)
    assert is_isomorphic(first, first)


def test_is_isomorphic_conjugation():
    rng = random.Random(331)
    for seed in range(10):
        mod = random_nilpotent_module(2, 2, seed=seed)
        g = random_invertible(rng, mod.dim)
        assert is_isomorphic(mod, conjugate(mod, g))


def test_is_isomorphic_dim_mismatch_is_false():
    a = validate([zeros(1, 1)])
    b = validate([QMatrix([[0, 1], [0, 0]])])
    assert not is_isomorphic(a, b)


def test_is_isomorphic_variable_count_mismatch_raises():
    a = validate([zeros(1, 1)])
    b = validate([zeros(1, 1), zeros(1, 1)])
    with pytest.raises(ValueError):
        is_isomorphic(a, b)


def closure_module(n, terms):
    """The derivative action on the closure of one polynomial."""
    return as_matrices(submodule_from_polys(n, [Poly(n, terms)]))[0]


SUM_OF_SQUARES = closure_module(2, {(2, 0): 1, (0, 2): 1})  # five monomials, dimension 4
WEIGHTED_SQUARES = closure_module(2, {(2, 0): 1, (0, 2): 2})  # the same monomials, another image
CUBE = closure_module(2, {(3, 0): 1})  # dimension 4, four monomials


def verdict(first, second):
    """("ok", the verdict of is_isomorphic), or (kind, message) for a typed error."""
    try:
        return "ok", is_isomorphic(first, second)
    except NilmodError as exc:
        return type(exc).__name__, str(exc)


def conjugates(module, seed, count=2):
    rng = random.Random(seed)
    return [conjugate(module, random_invertible(rng, module.dim)) for _ in range(count)]


def test_a_true_verdict_at_two_or_more_variables_costs_one_elimination(monkeypatch):
    # The pass of each module is run once; only the first image, whose
    # monomials outnumber its dimension, is eliminated, and every
    # phi_2(e_j) is tested against it on integers.
    squares3 = closure_module(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    cases = [SUM_OF_SQUARES, squares3, closure_module(*PLANTED[1]), closure_module(*PLANTED[2])]
    for seed, module in enumerate(cases):
        first, second = conjugates(module, seed + 350)
        passes = count_calls(monkeypatch, ["_inverse_system"])["_inverse_system"]
        calls = count_eliminations(monkeypatch)
        assert is_isomorphic(first, second)
        assert len(calls) == 1 and [args[0] for args in passes] == [first, second]
        monkeypatch.undo()


def test_a_support_mismatch_costs_no_elimination(monkeypatch):
    # Different monomials under two certified maps decide False at once.
    pairs = [(SUM_OF_SQUARES, CUBE), (CUBE, SUM_OF_SQUARES)]
    pairs.append((closure_module(3, {(1, 1, 1): 1}), closure_module(3, {(7, 0, 0): 1})))
    for seed, (p, q) in enumerate(pairs):
        first, second = conjugates(p, seed + 360)[0], conjugates(q, seed + 370)[0]
        calls = count_eliminations(monkeypatch)
        assert not is_isomorphic(first, second)
        assert calls == []
        monkeypatch.undo()


def test_equal_supports_with_different_images_cost_one_elimination(monkeypatch):
    # x^2 + y^2 and x^2 + 2 y^2 have the same monomials: the first image
    # is eliminated, and a phi_2(e_j) outside it decides False.
    first, second = conjugates(SUM_OF_SQUARES, 380)[0], conjugates(WEIGHTED_SQUARES, 381)[0]
    calls = count_eliminations(monkeypatch)
    assert not is_isomorphic(first, second)
    assert len(calls) == 1


def test_a_forced_fallback_gives_the_same_verdict_or_error(monkeypatch):
    # The first three pairs are decided by the passes; each other pair
    # builds its images from the passes, the first module's error first.
    # Among them, a second module with two socle lines whose phi_2(e_j) all
    # lie in the first image (the whole space over x^2, y^2, x, y, 1), and
    # one whose phi_2(e_j) do not, as (x + y)^2 is outside the closure of
    # x^2 + xy + y^2.  With every rank mod P read as 0 nothing is
    # certified, and every pair builds and compares its images.  Each
    # verdict or error is that of the two canonical forms, computed apart
    # from the call, plainly and with the rank forced to 0.
    import nilmod.embed

    zero_line = validate([zeros(1, 1)] * 2)
    not_nilpotent = block_sum(SUM_OF_SQUARES, validate([QMatrix([[1]]), QMatrix([[0]])]))
    two_lines = block_sum(SUM_OF_SQUARES, zero_line)
    squares_apart = as_matrices(submodule_from_polys(2, [X1 * X1, X2 * X2]))[0]
    square_of_sum = block_sum(closure_module(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}), zero_line)
    pairs = [
        (SUM_OF_SQUARES, conjugates(SUM_OF_SQUARES, 390)[0]),
        (conjugates(SUM_OF_SQUARES, 391)[0], WEIGHTED_SQUARES),
        (CUBE, conjugates(SUM_OF_SQUARES, 392)[0]),
        (not_nilpotent, two_lines),
        (two_lines, not_nilpotent),
        (closure_module(2, {(4, 0): 1}), not_nilpotent),
        (squares_apart, two_lines),
        (closure_module(2, {(2, 0): 1, (1, 1): 1, (0, 2): 1}), square_of_sum),
    ]

    def by_forms(first, second):
        try:
            return "ok", first.dim == second.dim and canonical_form(first) == canonical_form(second)
        except NilmodError as exc:
            return type(exc).__name__, str(exc)

    routed, forms = [verdict(*pair) for pair in pairs], [by_forms(*pair) for pair in pairs]
    monkeypatch.setattr(nilmod.embed, "_rank_mod", lambda rows, cols: 0)
    forced, forced_forms = [verdict(*pair) for pair in pairs], [by_forms(*pair) for pair in pairs]
    no_line = ("SocleNotOneDimensional", "socle has dimension 2, not 1")
    refused = ("NotNilpotent", "only nilpotent modules embed into the derivative module")
    expected = [("ok", True), ("ok", False), ("ok", False), refused, no_line, refused, no_line, no_line]
    assert routed == forms == forced == forced_forms == expected


def test_brute_force_matches_constructive_decision():
    rng = random.Random(337)
    mods = [random_nilpotent_module(2, 2, seed=s) for s in range(12)]
    mods = [m for m in mods if m.dim <= 4]
    pairs = 0
    for a in mods:
        for b in mods:
            if a.dim != b.dim:
                continue
            pairs += 1
            assert brute_force_isomorphic(a, b) == is_isomorphic(a, b)
    assert pairs >= 10
    # conjugated pairs as positives
    for seed in range(6):
        mod = random_nilpotent_module(2, 2, seed=seed)
        if mod.dim > 4:
            continue
        g = random_invertible(rng, mod.dim)
        assert brute_force_isomorphic(mod, conjugate(mod, g))


def test_brute_force_handles_modules_without_simple_socle():
    # the constructive route cannot embed these, brute force still decides
    a = validate([zeros(2, 2)])
    b = validate([QMatrix([[0, 1], [0, 0]])])
    assert brute_force_isomorphic(a, a)
    assert not brute_force_isomorphic(a, b)


def test_brute_force_dimension_guard():
    big = validate([zeros(7, 7)])
    with pytest.raises(DimensionTooLarge):
        brute_force_isomorphic(big, big)
    # the bound is adjustable
    assert brute_force_isomorphic(big, big, max_dim=7)


def test_brute_force_refuses_a_bound_above_ten(monkeypatch):
    # The bound is checked before any work: before the variable counts
    # are compared and before the intertwiner system is built.
    import nilmod.embed

    monkeypatch.setattr(nilmod.embed, "_intertwiner_space", lambda *args: pytest.fail("built the system"))
    one, two = validate([zeros(1, 1)]), validate([zeros(1, 1)] * 2)
    for first, second in [(one, one), (one, two)]:
        with pytest.raises(DimensionTooLarge, match="accepts max_dim up to 10, not 11"):
            brute_force_isomorphic(first, second, max_dim=11)
    monkeypatch.undo()
    assert brute_force_isomorphic(one, one, max_dim=10)


def test_brute_force_reads_max_dim_as_an_integer_bound(monkeypatch):
    # max_dim is input: a bool, a non-integer and a negative value are
    # refused with ValueError, before the variable counts are compared
    # and before the intertwiner system is built.
    import nilmod.embed

    monkeypatch.setattr(nilmod.embed, "_intertwiner_space", lambda *args: pytest.fail("built the system"))
    one, two = validate([zeros(1, 1)]), validate([zeros(1, 1)] * 2)
    refusals = [
        (True, "expected an integer, got True"),
        (2.5, "expected an integer, got 2.5"),
        (-3, "brute-force oracle needs a max_dim of at least 0, not -3"),
    ]
    for first, second in [(one, one), (one, two)]:
        for bound, message in refusals:
            with pytest.raises(ValueError) as caught:
                brute_force_isomorphic(first, second, max_dim=bound)
            assert str(caught.value) == message
    with pytest.raises(DimensionTooLarge, match="limited to dimension 0"):
        brute_force_isomorphic(one, one, max_dim=0)


# --- exponential embeddings ------------------------------------------------------

def test_embed_general_shifted_jordan():
    mod = validate([QMatrix([[5, 1], [0, 5]])])
    image, bridge = embed_general(mod)
    assert image.eigenvalues == (Fraction(5),)
    assert image.part == submodule_from_polys(1, [Poly.variable(1, 1)])
    assert bridge.is_intertwining()
    assert bridge.is_isomorphism()


def test_embed_general_nilpotent_reduces_to_plain_embedding():
    mod = random_nilpotent_module(2, 2, seed=17)
    image, bridge = embed_general(mod)
    assert image.eigenvalues == (Fraction(0), Fraction(0))
    assert image.part == canonical_form(mod)
    assert bridge.is_intertwining()


def test_embed_general_action_identity_by_hand():
    # phi(S_i v) = alpha_i * phi(v) + d/dx_i phi(v), checked on polynomials
    rng = random.Random(347)
    for seed in range(8):
        base = random_nilpotent_module(2, 2, seed=seed)
        alpha = [Fraction(rng.randint(-3, 3)) for _ in range(2)]
        mod = twist(base, [-a for a in alpha])
        image, bridge = embed_general(mod)
        assert image.eigenvalues == tuple(alpha)
        polys = [bridge.image_poly(j) for j in range(mod.dim)]
        for i in range(1, 3):
            s = mod.action(i)
            for j in range(mod.dim):
                mapped = image.part.from_coordinates(
                    bridge.apply_coords([row[j] for row in s.entries])
                )
                expected = polys[j].scale(alpha[i - 1]) + polys[j].partial(i)
                assert mapped == expected


def test_embed_general_large_prime_eigenvalue():
    p = 10000000000000061
    image, bridge = embed_general(validate([QMatrix([[p]])]))
    assert image.eigenvalues == (Fraction(p),)
    assert image.dim == 1
    assert bridge.is_isomorphism()


def test_embed_general_rotation_fails():
    with pytest.raises(NonRationalEigenvalue):
        embed_general(validate([QMatrix([[0, 1], [-1, 0]])]))


def test_embed_general_mixed_spectrum_fails():
    # unique rational eigenline, but the twisted module is not nilpotent
    mixed = QMatrix([[5, 0, 0], [0, 0, 1], [0, -1, 0]])
    with pytest.raises(SocleNotOneDimensional):
        embed_general(validate([mixed]))


def test_embed_general_socle_too_big_fails():
    with pytest.raises(SocleNotOneDimensional):
        embed_general(validate([zeros(2, 2)]))


def shifted_jordan_block(d, a):
    return QMatrix([[a if c == r else int(c == r + 1) for c in range(d)] for r in range(d)])


def two_jordan_blocks():
    """J_12(2/3) + J_12(-5/2): two rational eigenlines."""
    return block_sum(
        validate([shifted_jordan_block(12, Fraction(2, 3))]),
        validate([shifted_jordan_block(12, Fraction(-5, 2))]),
    )


def rotation_beside_jordan():
    """A rotation + J_18(3): one rational eigenline, a twist that is not
    nilpotent."""
    return block_sum(validate([QMatrix([[0, 1], [-1, 0]])]), validate([shifted_jordan_block(18, 3)]))


def nine_rotations():
    """Nine copies of [[0, 1], [-2, 0]], whose eigenvalues are +-i sqrt(2)."""
    m = [[0] * 18 for _ in range(18)]
    for b in range(0, 18, 2):
        m[b][b + 1], m[b + 1][b] = 1, -2
    return validate([QMatrix(m)])


@pytest.mark.parametrize(
    "build, kind, message",
    [
        (two_jordan_blocks, NoCommonEigenline, "2 distinct joint eigenvalue tuples found"),
        (
            rotation_beside_jordan,
            SocleNotOneDimensional,
            "the action is not nilpotent after twisting by the socle eigenvalues",
        ),
        (
            nine_rotations,
            NonRationalEigenvalue,
            "no rational joint eigenvalue exists; the socle eigenvalues lie in a proper extension field",
        ),
    ],
    ids=["two_jordan_blocks", "rotation_beside_jordan", "nine_rotations"],
)
def test_failure_naming_is_bounded_at_large_dims(build, kind, message):
    # Dense conjugates at dim 24, 20 and 18: embed_general names each
    # failure kind, with its message, in bounded time.
    plain = build()
    module = conjugate(plain, random_invertible(random.Random(plain.dim), plain.dim))
    with time_limit(10):
        with pytest.raises(kind) as info:
            embed_general(module)
    # NoCommonEigenline subclasses SocleNotOneDimensional.
    assert info.type is kind
    assert str(info.value) == message


def test_injectivity_check_survives_optimize_flag():
    # The check is an explicit raise, not an assert, so `python -O` keeps
    # it.  A rank-deficient inverse system is patched in to trip it.
    code = "\n".join(
        [
            "import nilmod.embed as embed",
            "from nilmod.exactalg import QMatrix",
            "from nilmod.modcore import FDModule",
            "print(__debug__)",
            "embed._inverse_system = lambda module, lam: ([(0,)], [[1] * len(lam)], [1])",
            "try:",
            "    embed.embed_nilpotent(FDModule(1, [QMatrix([[0, 1], [0, 0]])]))",
            "except AssertionError as exc:",
            "    print(exc)",
        ]
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "the embedding must be injective"]
