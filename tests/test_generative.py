"""Generative differential tests of the embedding at small primes.

Hypothesis draws nilpotent modules in one to three variables, some of
them summed with a second module (two socle lines) or with a line where
the variables act invertibly (not nilpotent), and conjugates them by
rational matrices.  Each module is checked against the exact reference
of `test_embed`, which decides nilpotency by squaring and the socle by
exact elimination.  The prime P is patched to 5, 7 or 11 in `exactalg`,
the one module that holds it, so at n >= 2 the pass rows often lose
rank mod P (the image's exact elimination then decides).  The socle walk
is exact, so P never moves lambda, and the map is the reference's.  The canonical form is also
drawn against conjugation by rational matrices with large entries, at the
real prime.  `is_isomorphic` is drawn against the comparison of the two
canonical forms, at the real prime and at the small ones, where its
certificates often fail and it falls back, and up to dimension 6 against
`brute_force_isomorphic`, which builds no canonical form.  Integer
blocks on both sides of the sparse share's threshold give the same
products and nilpotency verdicts with every row form sparse and with
every one dense.  Examples are derandomized and their number is fixed,
so the suite is deterministic.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import nilmod.embed  # noqa: E402
import nilmod.exactalg  # noqa: E402
from nilmod.embed import brute_force_isomorphic, canonical_form, embed_nilpotent, is_isomorphic  # noqa: E402
from nilmod.errors import NilmodError  # noqa: E402
from nilmod.exactalg import QMatrix, _matmul, _row_form  # noqa: E402
from nilmod.modcore import _is_nilpotent_matrix, validate  # noqa: E402
from nilmod.multipoly import Poly, monomials_up_to_degree  # noqa: E402
from nilmod.polysub import as_matrices, submodule_from_polys  # noqa: E402
from test_embed import block_sum, in_both_forms, reference_embed_nilpotent  # noqa: E402

PRIMES = (5, 7, 11)
# Degree bounds per variable count: modules of dimension up to about 10,
# up to about 17 with a second summand.
BOUNDS = {1: 6, 2: 3, 3: 2}


@contextmanager
def prime(p):
    with mock.patch.object(nilmod.exactalg, "_PRIME", p):
        yield


def closure(n, coeffs):
    """The matrix module of K[d] g, where g has these coefficients on the
    first monomials of degree at most BOUNDS[n], in the order that
    `monomials_up_to_degree` lists them."""
    monomials = list(monomials_up_to_degree(n, BOUNDS[n]))[: len(coeffs)]
    return as_matrices(submodule_from_polys(n, [Poly(n, dict(zip(monomials, coeffs)))]))[0]


def conjugate(module, g):
    g_inverse = g.inverse()
    return validate([g * m * g_inverse for m in module.matrices])


def dense_conjugate(module, seed):
    """G S G^-1 for G = L U, with L unit lower triangular and U upper
    triangular with a nonzero diagonal, entries small fractions."""
    d, rng = module.dim, random.Random(seed)

    def entry(r, c):
        if r == c:
            return Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

    lower = QMatrix([[entry(r, c) if c < r else int(c == r) for c in range(d)] for r in range(d)], cols=d)
    upper = QMatrix([[entry(r, c) if c >= r else 0 for c in range(d)] for r in range(d)], cols=d)
    return conjugate(module, lower * upper)


def scaled_conjugate(module, p, seed):
    """G S G^-1 for G a permutation times a diagonal of powers p^e,
    e in {-1, 0, 1}: many entries turn into multiples of p, and the
    socle line stays on one coordinate."""
    d, rng = module.dim, random.Random(seed)
    order = rng.sample(range(d), d)
    g = QMatrix([[Fraction(p) ** rng.randint(-1, 1) if c == order[r] else 0 for c in range(d)] for r in range(d)])
    return conjugate(module, g)


def build(n, coeffs, extra, form, p, seed):
    """A module from drawn parameters: the closure of one polynomial,
    maybe summed with a second closure or with a line on which x_i acts
    by extra[i], then left plain or conjugated."""
    module = closure(n, coeffs)
    if extra == "second":
        module = block_sum(module, closure(n, coeffs[:4]))
    elif extra is not None:
        module = block_sum(module, validate([QMatrix([[c]]) for c in extra]))
    if form == "dense":
        return dense_conjugate(module, seed)
    if form == "scaled":
        return scaled_conjugate(module, p, seed)
    return module


@st.composite
def modules(draw, n=None):
    """(module, p): a drawn module in n variables (drawn too if None), and
    the prime its scaled conjugates use."""
    n = draw(st.integers(1, 3)) if n is None else n
    size = len(list(monomials_up_to_degree(n, BOUNDS[n])))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=size))
    extra = draw(
        st.one_of(
            st.none(),
            st.just("second"),
            st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any),
        )
    )
    p = draw(st.sampled_from(PRIMES))
    form = draw(st.sampled_from(["plain", "dense", "scaled"]))
    return build(n, coeffs, extra, form, p, draw(st.integers(0, 10**6))), p


def attempt(call):
    """The result, or (kind, message) for a typed error."""
    try:
        return call()
    except NilmodError as exc:
        return type(exc).__name__, str(exc)


def check_against_reference(module, p, seed):
    """canonical_form and embed_nilpotent (default and seeded lambda) at
    the prime p agree with the exact reference: the same image and map, an
    isomorphism onto it, or the same error."""
    references = [attempt(lambda: reference_embed_nilpotent(module, rng)) for rng in (None, random.Random(seed))]
    with prime(p):
        form = attempt(lambda: canonical_form(module))
        results = [attempt(lambda: embed_nilpotent(module, rng)) for rng in (None, random.Random(seed))]
    if isinstance(references[0], tuple):
        assert form == references[0]
        assert results == references
        return
    assert form == references[0].image
    for result, reference in zip(results, references):
        assert result.to_json() == reference.to_json()
        assert result.map.is_isomorphism()


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(drawn=modules(), seed=st.integers(0, 99))
def test_embedding_at_small_primes_matches_the_exact_reference(drawn, seed):
    check_against_reference(*drawn, seed)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(drawn=modules(), seed=st.integers(0, 99))
def test_sparse_and_dense_row_products_agree(drawn, seed):
    # The pass's two forms of row product give the same monomials, rows
    # and weights, and the same canonical form or error.
    module = drawn[0]
    rng = random.Random(seed)
    sparse, dense = in_both_forms(module, [rng.randint(-4, 4) for _ in range(module.dim)])
    assert sparse == dense


@st.composite
def threshold_blocks(draw):
    """(block, width, nilpotent): an integer block with exactly
    floor(rows width / 4) nonzero entries, the most that the default share
    reads as sparse, or with one more.  A square block is drawn half the
    time; from dimension 3 on it may be strictly upper triangular with its
    rows and columns permuted alike, so nilpotent."""
    rows = draw(st.integers(1, 9))
    width = rows if draw(st.booleans()) else draw(st.integers(1, 9))
    nilpotent = rows == width >= 3 and draw(st.booleans())
    label = draw(st.permutations(range(rows)))
    cells = [(label[r], label[c]) if nilpotent else (r, c)
             for r in range(rows) for c in range(width) if c > r or not nilpotent]
    block = [[0] * width for _ in range(rows)]
    for r, c in draw(st.permutations(cells))[: rows * width // 4 + draw(st.integers(0, 1))]:
        block[r][c] = draw(st.integers(-9, 9).filter(bool))
    return block, width, nilpotent


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(drawn=threshold_blocks(), data=st.data())
def test_row_forms_agree_at_the_sparse_threshold(drawn, data):
    block, width, nilpotent = drawn
    rows = len(block)
    left = data.draw(st.lists(st.lists(st.integers(-9, 9), min_size=rows, max_size=rows), max_size=4))
    expected = [[sum(x * row[j] for x, row in zip(line, block)) for j in range(width)] for line in left]
    nonzero = sum(map(bool, sum(block, [])))
    assert nonzero - rows * width // 4 in (0, 1)
    assert (_row_form(block, width)[0] is None) == (nonzero > rows * width // 4)
    products, verdicts = [], []
    for share in (1, -1):
        with mock.patch.object(nilmod.exactalg, "_SPARSE_SHARE", share):
            products.append(_matmul(left, block, width))
            if rows == width:
                verdicts.append(_is_nilpotent_matrix(block))
    assert products == [expected, expected]
    assert len(set(verdicts)) <= 1 and (not nilpotent or verdicts == [True, True])


def test_small_primes_reach_the_rank_fallback_in_one_pass(monkeypatch):
    # On seeded scaled conjugates at P = 5, pass rows of d monomials fall
    # short of rank d mod P several times, and no embedding runs its pass
    # twice; every answer still matches the reference.  The modules have
    # n >= 2: at n = 1, d monomials have independent rows, and no rank
    # mod P is read.
    runs, short = [], []
    inverse_system, rank_mod = nilmod.embed._inverse_system, nilmod.embed._rank_mod

    def counting_rank(rows, cols):
        rank = rank_mod(rows, cols)
        short.append(rank < cols)
        return rank

    monkeypatch.setattr(nilmod.embed, "_inverse_system", lambda *args: runs.append(1) or inverse_system(*args))
    monkeypatch.setattr(nilmod.embed, "_rank_mod", counting_rank)
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 3)
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        module = build(n, coeffs, None, "scaled", 5, rng.randint(0, 10**6))
        with prime(5):
            runs.clear()
            embed_nilpotent(module)
        assert len(runs) == 1
        check_against_reference(module, 5, rng.randint(0, 99))
    assert sum(short) >= 5, sum(short)


@st.composite
def large_conjugators(draw, d):
    """An invertible d x d matrix of fractions whose numerators reach 10^12
    and denominators 10^6."""
    entries = st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6)
    g = QMatrix(draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d)), cols=d)
    hypothesis.assume(g.det() != 0)
    return g


@pytest.mark.parametrize("n", [1, 2, 3])
@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_canonical_form_is_invariant_under_large_rational_conjugation(n, data):
    # canonical_form(G S G^-1) == canonical_form(S), or the same error; at
    # n = 1 the chain certifies most of the forms that exist.
    module, _ = data.draw(modules(n))
    g = data.draw(large_conjugators(module.dim))
    assert attempt(lambda: canonical_form(conjugate(module, g))) == attempt(lambda: canonical_form(module))


# --- is_isomorphic against the canonical forms ------------------------------

PAIR_KINDS = ("conjugates", "same support", "other support", "faulty")


def monomial_closure(n, d):
    """The closure of x_1^(d-1): a module of dimension d with a line socle."""
    return as_matrices(submodule_from_polys(n, [Poly.monomial(n, (d - 1,) + (0,) * (n - 1))]))[0]


def iso_pair(n, kind, rng, p=None):
    """Two modules in n variables of one kind: conjugates of one closure;
    closures of two polynomials with the same support, so with the same
    monomials; a closure and the closure of a monomial of the same
    dimension; or a module that is not nilpotent or has two socle lines,
    with a module of the same dimension.  Their order is shuffled, and
    each is left plain or conjugated by a rational matrix, dense or
    scaled by the prime p (drawn from PRIMES if None)."""
    size = len(list(monomials_up_to_degree(n, BOUNDS[n])))
    coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, size))]
    if kind == "conjugates":
        pair = [closure(n, coeffs)] * 2
    elif kind == "same support":
        support = [c != 0 for c in coeffs]
        pair = [closure(n, [rng.choice([-3, -2, -1, 1, 2, 3]) if s else 0 for s in support]) for _ in "ab"]
    elif kind == "other support":
        module = closure(n, coeffs)
        pair = [module, monomial_closure(n, module.dim)]
    else:
        module = closure(n, coeffs)
        line = [rng.randint(-2, 2) for _ in range(n)]
        line[rng.randrange(n)] = rng.choice([-2, -1, 1, 2])
        faulty = [
            block_sum(module, validate([QMatrix([[c]]) for c in line])),
            block_sum(module, validate([QMatrix([[0]])] * n)),
        ]
        pair = [rng.choice(faulty), rng.choice(faulty + [monomial_closure(n, module.dim + 1)])]
    rng.shuffle(pair)
    forms = {"plain": lambda m: m, "dense": lambda m: dense_conjugate(m, rng.randint(0, 10**6))}
    forms["scaled"] = lambda m: scaled_conjugate(m, p or rng.choice(PRIMES), rng.randint(0, 10**6))
    return [forms[rng.choice(sorted(forms))](module) for module in pair]


def canonical_verdict(first, second):
    """is_isomorphic by its definition: False on different dimensions,
    else the comparison of the two canonical forms, the first module's
    error first."""
    return first.dim == second.dim and canonical_form(first) == canonical_form(second)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(n=st.integers(2, 3), kind=st.sampled_from(PAIR_KINDS), seed=st.integers(0, 10**6))
def test_is_isomorphic_matches_the_canonical_forms(n, kind, seed):
    # The same verdict, or the same error kind and message, at the real
    # prime and at each small one.
    first, second = iso_pair(n, kind, random.Random(seed))
    reference = attempt(lambda: canonical_verdict(first, second))
    assert attempt(lambda: is_isomorphic(first, second)) == reference
    for p in PRIMES:
        with prime(p):
            assert attempt(lambda: is_isomorphic(first, second)) == reference


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(n=st.integers(2, 3), kind=st.sampled_from(PAIR_KINDS[:3]), seed=st.integers(0, 10**6))
def test_is_isomorphic_matches_the_intertwiner_oracle(n, kind, seed):
    # An oracle that never builds a canonical form: an invertible solution
    # of P S_i = T_i P, at the real prime and at each small one.  Its
    # symbolic determinant stays cheap up to dimension 6.
    first, second = iso_pair(n, kind, random.Random(seed))
    hypothesis.assume(max(first.dim, second.dim) <= 6)
    expected = brute_force_isomorphic(first, second)
    assert is_isomorphic(first, second) == expected
    for p in PRIMES:
        with prime(p):
            assert is_isomorphic(first, second) == expected


def pass_route(events, answer):
    """The route of one `is_isomorphic` call at n >= 2 from its answer and
    the outcomes of its `_pass` and `_image` calls, in order."""
    passes = [out for name, _, out in events if name == "_pass"]
    images = [out for name, _, out in events if name == "_image"]
    if None in passes:
        return "no pass"
    if passes[0][0] != passes[1][0]:
        return "other support, uncertified" if images else "other support"
    if images[0] is None:
        return "first not injective"
    if len(images) == 2:
        return "rank short"
    return "inside" if answer is True else "outside"


def test_every_route_of_is_isomorphic_is_reached(monkeypatch):
    # On seeded pairs of every kind, at the real prime and at P = 5, 7 and
    # 11, each route of the passes occurs, and every answer matches the
    # canonical forms.  Each module is walked and passed at most once, in
    # order, and no canonical form is built at n >= 2.
    events = []

    def spy(name):
        original = getattr(nilmod.embed, name)

        def recorded(*args):
            out = original(*args)
            events.append((name, args, out))
            return out

        monkeypatch.setattr(nilmod.embed, name, recorded)

    for name in ("_pass", "_image", "_socle_walk", "_inverse_system", "canonical_form"):
        spy(name)
    rng = random.Random(41)
    routes = {}
    for p in (None,) + PRIMES:
        for kind in PAIR_KINDS:
            for _ in range(40):
                first, second = iso_pair(rng.randint(2, 3), kind, rng, p)
                reference = attempt(lambda: canonical_verdict(first, second))
                events.clear()
                with prime(p or nilmod.exactalg._PRIME):
                    answer = attempt(lambda: is_isomorphic(first, second))
                assert answer == reference
                for name in ("_socle_walk", "_inverse_system"):
                    modules = [args[0] for called, args, _ in events if called == name]
                    assert len(modules) <= 2 and all(a is b for a, b in zip(modules, (first, second))), name
                assert not any(called == "canonical_form" for called, _, _ in events)
                if any(called == "_pass" for called, _, _ in events):
                    route = pass_route(events, answer)
                    routes[route] = routes.get(route, 0) + 1
    expected = {
        "inside", "outside", "other support", "no pass", "other support, uncertified",
        "first not injective", "rank short",
    }
    assert set(routes) == expected and min(routes.values()) >= 2, sorted(routes.items())
