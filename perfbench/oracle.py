"""Exact arithmetic the benchmark uses to check nilmod's answers.

Everything here is written against plain lists of `Fraction`s and dicts
of exponent tuples, so a check never trusts the library routine it is
checking.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm


def entries(m) -> list[list[Fraction]]:
    """Rows of a QMatrix (or of a nested sequence) as lists of Fractions."""
    rows = m.entries if hasattr(m, "entries") else m
    return [[Fraction(x) for x in row] for row in rows]


def mat_mul(a, b) -> list[list[Fraction]]:
    a, b = entries(a), entries(b)
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_shift(m, c) -> list[list[Fraction]]:
    """m + c * I."""
    out = entries(m)
    for i in range(len(out)):
        out[i][i] += c
    return out


def rank(rows) -> int:
    """Rank by plain Gaussian elimination over the rationals."""
    m = entries(rows)
    r = 0
    width = len(m[0]) if m else 0
    for c in range(width):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def intertwines(images, source_actions, target_actions) -> bool:
    """images . S_i == T_i . images for every i, with products formed here."""
    return all(
        mat_mul(images, s) == mat_mul(t, images)
        for s, t in zip(source_actions, target_actions)
    )


def word_ranks(actions, length: int = 2) -> list[int]:
    """Ranks of all action words x^a with 1 <= |a| <= length.

    Conjugation preserves each of them, so different lists prove two
    modules non-isomorphic.
    """
    n = len(actions)
    d = len(entries(actions[0]))
    ident = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    words = {(0,) * n: ident}
    frontier = [(0,) * n]
    for _ in range(length):
        nxt = []
        for w in frontier:
            for i in range(n):
                v = w[:i] + (w[i] + 1,) + w[i + 1 :]
                if v not in words:
                    words[v] = mat_mul(actions[i], words[w])
                    nxt.append(v)
        frontier = nxt
    return [rank(words[w]) for w in sorted(words) if any(w)]


def random_invertible(d: int, rng, spread: int = 2):
    """A random integer matrix with entries in [-spread, spread] and its
    exact inverse, by Gauss-Jordan elimination here."""
    while True:
        g = [[Fraction(rng.randint(-spread, spread)) for _ in range(d)] for _ in range(d)]
        aug = [row + [Fraction(int(i == j)) for j in range(d)] for i, row in enumerate(g)]
        ok = True
        for c in range(d):
            pivot = next((i for i in range(c, d) if aug[i][c] != 0), None)
            if pivot is None:
                ok = False
                break
            aug[c], aug[pivot] = aug[pivot], aug[c]
            inv = 1 / aug[c][c]
            aug[c] = [x * inv for x in aug[c]]
            for i in range(d):
                if i != c and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
        if ok:
            return g, [row[d:] for row in aug]


def conjugate(m, g, g_inv) -> list[list[Fraction]]:
    """g . m . g^-1, for an integer g: both factors are scaled to integer
    matrices, multiplied over the integers and divided once at the end."""
    m, g_inv = entries(m), entries(g_inv)
    den_m = lcm(*(x.denominator for row in m for x in row))
    den_i = lcm(*(x.denominator for row in g_inv for x in row))
    m_int = [[int(x * den_m) for x in row] for row in m]
    inv_int = [[int(x * den_i) for x in row] for row in g_inv]
    g_int = [[int(x) for x in row] for row in entries(g)]
    product = _int_mul(_int_mul(g_int, m_int), inv_int)
    return [[Fraction(x, den_m * den_i) for x in row] for row in product]


def _int_mul(a, b) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


# --- truncated operator series as dicts {alpha: Fraction} ---------------

def convolve(a: dict, b: dict, trunc: int) -> dict:
    out: dict = {}
    for x, cx in a.items():
        for y, cy in b.items():
            g = tuple(p + q for p, q in zip(x, y))
            if sum(g) <= trunc:
                out[g] = out.get(g, 0) + cx * cy
    return {k: v for k, v in out.items() if v != 0}


def series_exp(s: dict, n: int, trunc: int) -> dict:
    """sum_k s^k / k! for a series without constant term."""
    one = {(0,) * n: Fraction(1)}
    acc, power = dict(one), dict(one)
    for k in range(1, trunc + 1):
        power = {g: c / k for g, c in convolve(power, s, trunc).items()}
        for g, c in power.items():
            acc[g] = acc.get(g, 0) + c
    return {k: v for k, v in acc.items() if v != 0}


def falling(beta, alpha) -> int:
    """beta! / (beta - alpha)!, zero unless alpha <= beta componentwise."""
    out = 1
    for b, a in zip(beta, alpha):
        if a > b:
            return 0
        out *= factorial(b) // factorial(b - a)
    return out


def apply_series(coeffs: dict, poly: dict) -> dict:
    """sum_alpha c_alpha d^alpha p by the closed formula
    d^alpha x^beta = beta!/(beta-alpha)! x^(beta-alpha)."""
    out: dict = {}
    for alpha, c in coeffs.items():
        for beta, p in poly.items():
            f = falling(beta, alpha)
            if f:
                g = tuple(b - a for b, a in zip(beta, alpha))
                out[g] = out.get(g, 0) + c * p * f
    return {k: v for k, v in out.items() if v != 0}


def restricted_matrix(coeffs: dict, order) -> list[list[Fraction]]:
    """Matrix of a series on the monomials `order` (column j = image of
    x^order[j], row i = coefficient of x^order[i])."""
    pos = {a: i for i, a in enumerate(order)}
    m = [[Fraction(0)] * len(order) for _ in order]
    for j, beta in enumerate(order):
        for g, c in apply_series(coeffs, {beta: Fraction(1)}).items():
            m[pos[g]][j] = c
    return m
