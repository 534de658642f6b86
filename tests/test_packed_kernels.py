"""Property tests of the series kernels that run on packed exponent keys.

`truncated_product` (with `Poly.__mul__` and `DiffOpSeries.compose`),
`_graded_solve` (with `series_exp`, `series_log` and a `within` lower
set), `DiffOpSeries.apply` and `monomial_images` each pack exponents
into one integer with `multipoly._packing`.  Each is compared here with
a plain reference on tuple-keyed `Fraction` dicts, written in this file.
Truncations sit on both sides of each step of the field width
w = D.bit_length() + 1 (D = 3/4, 7/8, 15/16), and at D = 600 with six
variables the keys pass 64 bits.  Examples are derandomized and their
number is fixed, so the suite is deterministic.
"""

from fractions import Fraction
from math import comb
from operator import add, sub

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from nilmod import diffop  # noqa: E402
from nilmod.diffop import DiffOpSeries, monomial_images, series_exp, series_log  # noqa: E402
from nilmod.multipoly import (  # noqa: E402
    MINUS_INFINITY,
    Poly,
    _packing,
    lower_set_closure,
    monomials_up_to_degree,
    multi_factorial,
    truncated_product,
)

# Both sides of each field-width step, and one width past 64-bit keys at n = 6.
TRUNCS = (0, 1, 3, 4, 7, 8, 15, 16, 600)
SETTINGS = settings(max_examples=60, derandomize=True, deadline=None, database=None)


@st.composite
def exponent(draw, n, low, top):
    """An exponent vector in N^n of total degree in [low, top]."""
    d = draw(st.integers(low, top))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=n - 1, max_size=n - 1)))
    ends = [0, *cuts, d]
    return tuple(b - a for a, b in zip(ends, ends[1:]))


coefficient = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))


def terms(n, low, top, size=6):
    return st.dictionaries(exponent(n, low, top), coefficient, max_size=size)


@st.composite
def shape(draw):
    """(n, trunc, low): sparse terms at trunc 600 sit at degree >= 200,
    so their powers leave the truncation after a few steps."""
    n = draw(st.integers(1, 6))
    trunc = draw(st.sampled_from(TRUNCS))
    return n, trunc, trunc // 3 if trunc > 16 else 0


# --- plain references on tuple-keyed Fraction dicts -------------------------------

def nonzero(out):
    return {a: c for a, c in out.items() if c}


def ref_product(p, q, bound):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            g = tuple(map(add, a, b))
            if sum(g) <= bound:
                out[g] = out.get(g, 0) + x * y
    return nonzero(out)


def ref_apply(s, p):
    """d^gamma x^beta = beta!/(beta-gamma)! x^(beta-gamma) for gamma <= beta."""
    out = {}
    for g, c in s.items():
        for b, x in p.items():
            d = tuple(map(sub, b, g))
            if min(d) >= 0:
                out[d] = out.get(d, 0) + c * x * Fraction(multi_factorial(b), multi_factorial(d))
    return nonzero(out)


def ref_exp(s, n, trunc):
    """sum_k s^k / k! for s without a constant term, cut at trunc."""
    one = {(0,) * n: Fraction(1)}
    out, power = dict(one), one
    for k in range(1, trunc + 1):
        power = {a: c / k for a, c in ref_product(power, s, trunc).items()}
        if not power:
            break
        for a, c in power.items():
            out[a] = out.get(a, 0) + c
    return nonzero(out)


def ref_log(e, n, trunc):
    """sum_k (-1)^(k+1) u^k / k for e = 1 + u, cut at trunc."""
    u = {a: c for a, c in e.items() if any(a)}
    out, power = {}, {(0,) * n: Fraction(1)}
    for k in range(1, trunc + 1):
        power = ref_product(power, u, trunc)
        if not power:
            break
        for a, c in power.items():
            out[a] = out.get(a, 0) + c * Fraction((-1) ** (k + 1), k)
    return nonzero(out)


# --- the keys ---------------------------------------------------------------------

@SETTINGS
@given(st.data())
def test_keys_add_compare_and_order_as_the_exponents(data):
    n = data.draw(st.integers(1, 6))
    bound = data.draw(st.sampled_from(TRUNCS))
    pack, unpack, weights, high = _packing(n, bound)
    assert weights == tuple(pack(tuple(int(i == k) for i in range(n))) for k in range(n))
    a = data.draw(exponent(n, 0, bound))
    b = data.draw(exponent(n, 0, bound - sum(a)))
    assert unpack(pack(a)) == a
    assert pack(a) + pack(b) == pack(tuple(map(add, a, b)))
    g = data.draw(st.one_of(exponent(n, 0, bound), st.just(b)))
    below = all(x <= y for x, y in zip(g, a))
    shifted = pack(a) + high - pack(g)
    assert (shifted & high == high) == below
    if below:
        assert shifted - high == pack(tuple(map(sub, a, g)))
    # Within one degree, key order is lex order.
    c = data.draw(exponent(n, sum(a), sum(a)))
    assert (pack(a) < pack(c)) == (a < c)


def test_keys_pass_64_bits_at_six_variables():
    pack, unpack, _, _ = _packing(6, 600)
    alpha = (600, 0, 0, 0, 0, 0)
    assert pack(alpha).bit_length() > 64
    assert unpack(pack(alpha)) == alpha
    assert pack((0, 0, 0, 0, 0, 600)) < 2**11


# --- the kernels against the references ---------------------------------------------

def test_each_kernel_with_keys_past_64_bits():
    # Six variables at D = 600: fields of 11 bits, keys of 66.  (The image
    # table lists all C(606, 6) monomials there, so it is left out.)
    n, trunc = 6, 600
    high = {(300, 0, 0, 0, 0, 1): Fraction(1, 2), (0, 0, 0, 0, 200, 7): Fraction(-3)}
    s = {**high, (1, 0, 0, 0, 0, 0): Fraction(2, 7)}
    p = {(600, 0, 0, 0, 0, 0): Fraction(1), (300, 2, 0, 0, 250, 8): Fraction(5, 3), (1, 1, 1, 1, 1, 1): Fraction(-1)}
    assert truncated_product(Poly(n, p), Poly(n, s), trunc).terms == ref_product(p, s, trunc)
    assert (Poly(n, p) * Poly(n, s)).terms == ref_product(p, s, 2 * trunc)
    series = DiffOpSeries(n, trunc, s)
    assert series.apply(Poly(n, p)).terms == ref_apply(s, p)
    assert series.compose(series).coeffs == ref_product(s, s, trunc)
    exp = series_exp(DiffOpSeries(n, trunc, high))
    assert exp.coeffs == ref_exp(high, n, trunc)
    assert series_log(exp).coeffs == high



@SETTINGS
@given(st.data())
def test_truncated_product_matches_the_reference(data):
    n, trunc, low = data.draw(shape())
    p = data.draw(terms(n, low, trunc))
    q = data.draw(terms(n, low, trunc))
    # Bounds below p's terms drop them before they are packed.
    bound = data.draw(st.integers(-1, trunc))
    P, Q = Poly(n, p), Poly(n, q)
    assert truncated_product(P, Q, bound).terms == ref_product(p, q, bound)
    assert (P * Q).terms == ref_product(p, q, 2 * trunc)
    low_trunc = data.draw(st.integers(0, trunc))
    low_q = {b: c for b, c in q.items() if sum(b) <= low_trunc}
    composed = DiffOpSeries(n, trunc, p).compose(DiffOpSeries(n, low_trunc, low_q))
    assert composed.trunc == low_trunc
    assert composed.coeffs == ref_product(p, low_q, low_trunc)


@SETTINGS
@given(st.data())
def test_apply_and_images_match_the_reference(data):
    n, trunc, low = data.draw(shape())
    s = data.draw(terms(n, low, trunc))
    if data.draw(st.booleans()):
        # Dense at low degree: small boxes take the box walk.
        s.update({a: data.draw(coefficient) for a in monomials_up_to_degree(n, min(trunc, 2))})
    p = data.draw(terms(n, 0, trunc))
    series = DiffOpSeries(n, trunc, s)
    assert series.apply(Poly(n, p)).terms == ref_apply(s, p)
    if comb(n + trunc, n) <= 500:
        table = monomial_images(series)
        assert list(table) == list(monomials_up_to_degree(n, trunc))
        assert {a: image.terms for a, image in table.items()} == {a: ref_apply(s, {a: 1}) for a in table}


@SETTINGS
@given(st.data())
def test_exp_log_and_the_within_pass_match_the_reference(data):
    n, trunc, low = data.draw(shape())
    s = data.draw(terms(n, max(low, 1), trunc, size=3)) if trunc else {}
    exp = series_exp(DiffOpSeries(n, trunc, s))
    assert exp.coeffs == ref_exp(s, n, trunc)
    assert series_log(exp).coeffs == s
    assert series_log(DiffOpSeries(n, trunc, {**s, (0,) * n: 1})).coeffs == ref_log({**s, (0,) * n: 1}, n, trunc)
    # A lower set holding exponents above trunc: only those up to trunc count.
    corners = data.draw(st.lists(exponent(n, 0, min(trunc + 2, 10)), max_size=3))
    within = lower_set_closure([(0,) * n, *corners, *(a for a in s if sum(a) <= 6)])
    inside = {a: c for a, c in s.items() if a in within}
    expected = {a: c for a, c in ref_exp(inside, n, trunc).items() if a in within}
    assert diffop._graded_solve(Poly(n, s), trunc, within, log=False).terms == expected


# --- zeros and one-term series -------------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_zero_operands(n):
    zero, p = Poly.zero(n), Poly(n, {(1,) * n: Fraction(2, 3), (0,) * n: 1})
    assert zero.total_degree() == MINUS_INFINITY
    for product in (zero * p, p * zero, zero * zero, truncated_product(p, zero, 4), truncated_product(p, p, MINUS_INFINITY)):
        assert product == zero
    series = DiffOpSeries(n, 3)
    assert series.apply(Poly(n, {(0,) * (n - 1) + (3,): 1})) == zero
    assert series.apply(zero) == DiffOpSeries.identity(n, 3).apply(zero) == zero
    assert set(monomial_images(series).values()) == {zero}
    assert series.compose(DiffOpSeries.identity(n, 3)) == series
    assert series_exp(series) == DiffOpSeries.identity(n, 3)
    assert series_log(DiffOpSeries.identity(n, 3)) == series


@pytest.mark.parametrize("n,trunc", [(3, 30), (2, 60)])
def test_a_one_term_series_at_a_high_truncation(n, trunc):
    d1 = DiffOpSeries.derivative(n, trunc, 1)
    s = {(1,) + (0,) * (n - 1): Fraction(1)}
    monomials = list(monomials_up_to_degree(n, trunc))
    p = {a: Fraction(k % 7 - 3, k % 5 + 1) for k, a in enumerate(monomials) if k % 7 != 3}
    assert d1.apply(Poly(n, p)).terms == ref_apply(s, p)
    table = monomial_images(d1)
    assert all(table[a].terms == ref_apply(s, {a: 1}) for a in monomials)
    assert table[(2,) + (0,) * (n - 1)].terms == {(1,) + (0,) * (n - 1): 2}
    assert d1.compose(d1).coeffs == {(2,) + (0,) * (n - 1): 1}
    shift = series_exp(d1)
    assert shift.coeffs == ref_exp(s, n, trunc)
    assert series_log(shift) == d1


def test_a_within_above_the_truncation_is_cut_at_it():
    # (4, 1) and (0, 5) have degree 5; the pass stops at degree 3.
    s = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3), (1, 1): Fraction(2)}
    within = lower_set_closure([(4, 1), (0, 5)])
    expected = {a: c for a, c in ref_exp(s, 2, 3).items() if a in within}
    assert (3, 1) not in expected and (1, 1) in expected
    assert diffop._graded_solve(Poly(2, s), 3, within, log=False).terms == expected
