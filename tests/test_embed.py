"""Tests for embeddings into polynomial and exponential-polynomial spaces.

The key cross-checks here are an evaluation oracle for potentials, a
conjugation oracle for canonical forms, and the determinant-based
isomorphism decision procedure run against the constructive one.
"""

import json
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from nilmod.embed import (
    EmbeddingResult,
    _functional,
    _inverse_system,
    brute_force_isomorphic,
    canonical_form,
    embed_general,
    embed_nilpotent,
    is_isomorphic,
    potential,
)
from nilmod.errors import (
    DimensionTooLarge,
    Incompatible,
    NilmodError,
    NonRationalEigenvalue,
    NotNilpotent,
    SocleNotOneDimensional,
)
from nilmod.exactalg import _PRIME, QMatrix, _integer_rows, _kernel_line_mod, standard_basis_vector
from nilmod.modcore import (
    ExpSubmodule,
    FDModule,
    ModuleMap,
    PolySubmodule,
    _joint_kernel,
    action_matrices,
    as_matrices,
    is_nilpotent,
    random_nilpotent_module,
    socle_eigenvalues,
    submodule_from_polys,
    twist,
    validate,
)
from nilmod.multipoly import Poly, multi_factorial

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
            reverse = reverse + (fs[i - 1] - reverse.partial(i)).integrate(i)
        assert reverse == potential(fs, n)


def test_potential_length_checks():
    # no constraints pin the zero representative; too many is an error
    assert potential([], 2) == Poly.zero(2)
    with pytest.raises(ValueError):
        potential([X1, X2, X1], 2)


# --- nilpotent embedding ----------------------------------------------------

def test_embed_dim_one():
    result = embed_nilpotent(validate([QMatrix.zeros(1, 1)]))
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
        embed_nilpotent(validate([QMatrix.zeros(2, 2)]))


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
                result.map.apply_coords(s.column(j))
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
    """The integer pass on the module's stacked action matrices, read
    back as polynomials; None when the pass stops at its cap."""
    stack, den = _integer_rows([row for m in module.matrices for row in m.entries])
    found = _inverse_system(stack, den, lam)
    if found is None:
        return None
    monomials, rows, weights = found
    return [
        Poly(module.n, {a: Fraction(row[j], w) for a, row, w in zip(monomials, rows, weights)})
        for j in range(module.dim)
    ]


@pytest.mark.parametrize("n, terms", PLANTED, ids=["n=1", "n=2", "n=3"])
def test_inverse_system_matches_fraction_reference(n, terms):
    # Rational conjugates and a functional with denominators exercise both
    # common denominators of the integer rows.
    plain, _ = as_matrices(submodule_from_polys(n, [Poly(n, terms)]))
    rng = random.Random(10 + n)
    g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(plain.dim)]
                 for _ in range(plain.dim)])
    while g.det() == 0:
        g = QMatrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(plain.dim)]
                     for _ in range(plain.dim)])
    dense = conjugate(plain, g)
    lam = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(dense.dim))
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
    stack, den = _integer_rows([row for m in dense.matrices for row in m.entries])
    assert den > 1
    lam = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(dense.dim))
    monomials, rows, weights = _inverse_system(stack, den, lam)
    assert len(monomials) >= dense.dim
    for alpha, row, weight in zip(monomials, rows, weights):
        scale, rest = divmod(weight, multi_factorial(alpha))
        assert rest == 0 and gcd(scale, *row) == 1, alpha


def test_embedding_converts_the_action_matrices_once(monkeypatch):
    # The joint kernel and the inverse-system pass share one conversion.
    import nilmod.exactalg
    import nilmod.modcore

    plain, _ = as_matrices(submodule_from_polys(2, [Poly(2, PLANTED[1][1])]))
    dense = conjugate(plain, random_invertible(random.Random(5), plain.dim))
    real = nilmod.exactalg._integer_rows
    for module in (plain, dense):
        stack = [row for m in module.matrices for row in m.entries]
        calls = []

        def counting(rows):
            if [tuple(row) for row in rows] == stack:
                calls.append(rows)
            return real(rows)

        for owner in (nilmod.exactalg, nilmod.modcore, nilmod.embed):
            monkeypatch.setattr(owner, "_integer_rows", counting)
        result = embed_nilpotent(module)
        assert len(calls) == 1
        assert result.map.is_isomorphism()


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


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the block after the given wall-clock time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def assert_capped():
    """Fail within a second if the pass has no degree cap.  Without one it
    never ends on a non-nilpotent module whose kernel is a line, and its
    rows fill memory; the tests call this before any such module."""
    with time_limit(1):
        assert inverse_system(LINE_KERNEL_NOT_NILPOTENT, (1, 0)) is None


def test_one_nilpotency_check_per_embedding(monkeypatch):
    # The inverse-system pass certifies nilpotency, so a success squares
    # no matrix, and neither does a pass stopped at its degree cap.  The
    # core squares the stack's blocks once, only to name the error, when
    # the joint kernel is not a line or the image falls short; every
    # failure here has one variable, so one naming is one call.
    import nilmod.embed

    calls = []
    original = nilmod.embed._is_nilpotent_matrix

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

    monkeypatch.setattr(nilmod.embed, "_is_nilpotent_matrix", counting)
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
    # No line: a kernel of dimension 0, 2 and 0 (the zero module).
    assert count(embed_nilpotent, validate([QMatrix.identity(2)])) == 1
    assert count(embed_nilpotent, validate([QMatrix.zeros(2, 2)])) == 1
    assert count(embed_nilpotent, FDModule(1, [QMatrix([], cols=0)])) == 1
    assert count(embed_general, validate([QMatrix.identity(2)])) == 1


def test_embed_general_builds_no_module_for_its_twist(monkeypatch):
    # The twist is written down on the stacked integer rows in closed
    # form: no FDModule, so no second commutativity check.  Its rows are
    # those of the untwisted nilpotent module, so the map is the one
    # embed_nilpotent gives that module.  For DIVISIBLE_SOCLE shifted by
    # 1/P the rows over d D are 0 mod P until their common factor is
    # divided out, which would move the functional off the line mod P.
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
    # The socle line mod P chooses the functional, and an injective map
    # certifies it, so a success computes no exact joint kernel.  A
    # failure computes it at most once, to name the error.
    import nilmod.embed

    calls = []
    original = nilmod.embed._integer_kernel

    def counting(rows, cols):
        calls.append(cols)
        return original(rows, cols)

    monkeypatch.setattr(nilmod.embed, "_integer_kernel", counting)
    counts = {"ok": set(), "NotNilpotent": set(), "SocleNotOneDimensional": set()}
    for module in comparison_table():
        calls.clear()
        kind = outcome(embed_nilpotent, module, None)[0]
        counts[kind].add(len(calls))
    assert counts["ok"] == {0}
    # A pass stopped at its cap, or a short image of a non-nilpotent
    # module, needs no socle; a socle that is not a line does.
    assert counts["NotNilpotent"] <= {0, 1}
    assert counts["SocleNotOneDimensional"] == {1}


# The mod-P line misses or moves in these two modules.  Without a line
# mod P the exact kernel chooses, and a socle entry divisible by P moves
# the functional off the RREF pivot.
UNLUCKY_PRIME = validate([QMatrix([[0, _PRIME], [0, 0]])])
DIVISIBLE_SOCLE = validate([QMatrix([[_PRIME, -(_PRIME**2)], [1, -_PRIME]])])


def test_unlucky_prime_embeds_through_the_exact_kernel(monkeypatch):
    # Mod P the matrix is zero, so the kernel is all of K^2; the exact
    # kernel is the line of e_1.
    import nilmod.embed

    assert _kernel_line_mod(_integer_rows(UNLUCKY_PRIME.matrices[0].entries)[0], 2) is None
    calls = []
    original = nilmod.embed._integer_kernel
    monkeypatch.setattr(
        nilmod.embed, "_integer_kernel", lambda rows, cols: calls.append(cols) or original(rows, cols)
    )
    for seed in (None, 3):
        calls.clear()
        got = outcome(embed_nilpotent, UNLUCKY_PRIME, seed)
        assert got == outcome(reference_embed_nilpotent, UNLUCKY_PRIME, seed)
        assert calls == [2]
    assert embed_nilpotent(UNLUCKY_PRIME).map.is_isomorphism()


def test_socle_entry_divisible_by_p_moves_the_functional():
    # The socle is the line of (P, 1): the exact RREF pivot is 0, its
    # residues (0, 1) put lambda on coordinate 1.  The image is the same.
    assert _kernel_line_mod(_integer_rows(DIVISIBLE_SOCLE.matrices[0].entries)[0], 2) == [0, 1]
    reference = reference_embed_nilpotent(DIVISIBLE_SOCLE)
    result = embed_nilpotent(DIVISIBLE_SOCLE)
    assert result.image == reference.image == submodule_from_polys(1, [Poly(1, {(1,): 1})])
    assert result.map.is_isomorphism()
    # lambda = e_2: phi(e_1) = x and phi(e_2) = 1 - P x, in the basis (x, 1).
    assert result.image_polys() == (Poly(1, {(1,): 1}), Poly(1, {(1,): -_PRIME, (0,): 1}))
    assert result.map.images == QMatrix([[1, -_PRIME], [0, 1]])
    for seed in range(4):
        drawn = embed_nilpotent(DIVISIBLE_SOCLE, rng=random.Random(seed))
        assert drawn.image == reference.image
        assert drawn.map.is_isomorphism()


def test_unlucky_primes_under_optimize_flag():
    # Both fallbacks keep their answers under `python -O`.
    code = "\n".join(
        [
            "import json, random",
            "from nilmod.embed import embed_nilpotent",
            "from nilmod.exactalg import _PRIME, QMatrix",
            "from nilmod.modcore import validate",
            "print(__debug__)",
            "for m in ([[0, _PRIME], [0, 0]], [[_PRIME, -_PRIME**2], [1, -_PRIME]]):",
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
    for module in (UNLUCKY_PRIME, DIVISIBLE_SOCLE):
        for rng in (None, random.Random(3)):
            expected.append(f"{json.dumps(embed_nilpotent(module, rng).to_json())} True")
    assert proc.stdout.splitlines() == expected


def pass_budget(d):
    """Row products the pass makes before it checks nilpotency once."""
    return 4 * d * d.bit_length()


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
    import nilmod.embed

    products, checks = [], []
    matmul, nilpotent = nilmod.embed._int_matmul, nilmod.embed._is_nilpotent_matrix
    monkeypatch.setattr(nilmod.embed, "_int_matmul", lambda r, c: products.append(1) or matmul(r, c))
    monkeypatch.setattr(nilmod.embed, "_is_nilpotent_matrix", lambda m: checks.append(1) or nilpotent(m))
    worst = 0
    for module in success_table():
        products.clear()
        assert embed_nilpotent(module).map.is_isomorphism()
        worst = max(worst, len(products) / pass_budget(module.dim))
    assert checks == []
    assert 0 < worst < 0.5, worst


def test_small_successes_square_nothing(monkeypatch):
    # Dimensions 1 and 2 in up to three variables: the pass makes at most
    # n(n + 3)/2 products, below the budget, so a success never squares.
    import nilmod.embed

    checks = []
    nilpotent = nilmod.embed._is_nilpotent_matrix
    monkeypatch.setattr(nilmod.embed, "_is_nilpotent_matrix", lambda m: checks.append(1) or nilpotent(m))
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
    # plus a line where every x_i acts by 2, densely conjugated: dimension
    # 22, the joint kernel is a line, and lambda S^alpha never vanishes.
    # The pass stops one product past its budget, not at degree 22.
    import nilmod.embed

    plain = validate([jordan_block(21)] * 3)
    module = conjugate(block_sum(plain, validate([QMatrix([[2]])] * 3)), random_invertible(random.Random(22), 22))
    products = []
    matmul = nilmod.embed._int_matmul
    monkeypatch.setattr(nilmod.embed, "_int_matmul", lambda r, c: products.append(1) or matmul(r, c))
    with time_limit(10):
        with pytest.raises(NotNilpotent):
            embed_nilpotent(module)
    assert len(products) == pass_budget(22) + 1


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


def reference_embed_general(module, rng=None):
    """embed_general with its own nilpotency check of the trace twist."""
    d = module.dim
    if d > 0:
        alpha = tuple(sum(m.entries[k][k] for k in range(d)) / d for m in module.matrices)
        twisted = twist(module, alpha)
        if is_nilpotent(twisted):
            result = reference_embed_nilpotent(twisted, rng)
            weighted = ExpSubmodule(alpha, result.image)
            return weighted, ModuleMap(module, weighted, result.map.images)
    socle_eigenvalues(module)
    raise SocleNotOneDimensional(
        "the action is not nilpotent after twisting by the socle eigenvalues"
    )


def outcome(call, module, seed):
    """("ok", JSON) for a result, (kind, message) for a typed error."""
    rng = None if seed is None else random.Random(seed)
    try:
        result = call(module, rng)
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
        cases.append(block_sum(plain, validate([QMatrix.zeros(1, 1)] * n)))
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
        validate([jordan_block(7), QMatrix.zeros(7, 7)]),
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
            got = outcome(embed_general, module, seed)
            assert got == outcome(reference_embed_general, module, seed), k
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
            "from nilmod.embed import _inverse_system, canonical_form, embed_general, embed_nilpotent",
            "from nilmod.errors import NilmodError",
            "from nilmod.exactalg import QMatrix, _integer_rows",
            "from nilmod.modcore import validate",
            "module = validate([QMatrix([[0, 1], [0, 1]])])",
            "print(_inverse_system(*_integer_rows(module.matrices[0].entries), (1, 0)))",
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
        assert canonical_form(mod, rng=random.Random(seed)) == base
        assert canonical_form(mod, rng=random.Random(seed + 1000)) == base


def test_canonical_form_fixed_point():
    # embedding the matrix module of a canonical form returns it unchanged
    mod = random_nilpotent_module(2, 2, seed=3)
    form = canonical_form(mod)
    from nilmod.modcore import as_matrices

    fd, _ = as_matrices(form)
    assert canonical_form(fd) == form


# --- isomorphism decisions -----------------------------------------------------

def test_is_isomorphic_axis_swap_modules_differ():
    first = validate([QMatrix([[0, 1], [0, 0]]), QMatrix.zeros(2, 2)])
    second = validate([QMatrix.zeros(2, 2), QMatrix([[0, 1], [0, 0]])])
    assert not is_isomorphic(first, second)
    assert is_isomorphic(first, first)


def test_is_isomorphic_conjugation():
    rng = random.Random(331)
    for seed in range(10):
        mod = random_nilpotent_module(2, 2, seed=seed)
        g = random_invertible(rng, mod.dim)
        assert is_isomorphic(mod, conjugate(mod, g))


def test_is_isomorphic_dim_mismatch_is_false():
    a = validate([QMatrix.zeros(1, 1)])
    b = validate([QMatrix([[0, 1], [0, 0]])])
    assert not is_isomorphic(a, b)


def test_is_isomorphic_variable_count_mismatch_raises():
    a = validate([QMatrix.zeros(1, 1)])
    b = validate([QMatrix.zeros(1, 1), QMatrix.zeros(1, 1)])
    with pytest.raises(ValueError):
        is_isomorphic(a, b)


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
    a = validate([QMatrix.zeros(2, 2)])
    b = validate([QMatrix([[0, 1], [0, 0]])])
    assert brute_force_isomorphic(a, a)
    assert not brute_force_isomorphic(a, b)


def test_brute_force_dimension_guard():
    big = validate([QMatrix.zeros(7, 7)])
    with pytest.raises(DimensionTooLarge):
        brute_force_isomorphic(big, big)
    # the bound is adjustable
    assert brute_force_isomorphic(big, big, max_dim=7)


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
                    bridge.apply_coords(s.column(j))
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
        embed_general(validate([QMatrix.zeros(2, 2)]))


def test_injectivity_check_survives_optimize_flag():
    # The check is an explicit raise, not an assert, so `python -O` keeps
    # it.  A rank-deficient inverse system is patched in to trip it.
    code = "\n".join(
        [
            "import nilmod.embed as embed",
            "from nilmod.exactalg import QMatrix",
            "from nilmod.modcore import FDModule",
            "print(__debug__)",
            "embed._inverse_system = lambda stack, den, lam: ([(0,)], [[1] * len(lam)], [1])",
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
