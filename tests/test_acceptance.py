"""Acceptance suite: twelve exact, property-based criteria.

Every criterion prints one PASS/FAIL line (visible even under capture)
and enforces its runtime budget.  All comparisons are exact rational
identities — there are no tolerances anywhere in this file.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nilmod.diffop import (
    AutDescriptor,
    DiffOpSeries,
    MonomialSubmodule,
    aut_structure,
    extend_iso_step,
    extract_coeffs,
    monomial_images,
    restrict,
    series_exp,
    series_log,
)
from nilmod.embed import (
    brute_force_isomorphic,
    canonical_form,
    embed_general,
    embed_nilpotent,
    is_isomorphic,
)
from nilmod.errors import Incompatible, NonRationalEigenvalue
from nilmod.exactalg import QMatrix
from nilmod.modcore import twist, validate
from nilmod.multipoly import Poly, lower_set_closure, monomials_up_to_degree, potential
from nilmod.polysub import (
    ModuleMap,
    action_matrices,
    as_matrices,
    random_nilpotent_module,
    submodule_from_polys,
)


def _report(capsys, num, label, ok, elapsed, budget):
    if budget is None:
        timing = f"{elapsed:.1f}s"
        in_budget = True
    else:
        timing = f"{elapsed:.1f}s / budget {budget}s"
        in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:2d}] {status} — {label} ({timing})")
    assert ok, f"criterion {num} violated"
    assert in_budget, f"criterion {num} exceeded its {budget}s budget"


def random_poly(rng, n, degree, density=0.5, terms=8):
    out = {}
    for _ in range(terms):
        alpha = tuple(rng.randint(0, degree) for _ in range(n))
        if sum(alpha) <= degree and rng.random() < density:
            out[alpha] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return Poly(n, out)


def random_series(rng, n, trunc, zero_unit=False, nonzero_unit=False):
    coeffs = {}
    for alpha in monomials_up_to_degree(n, trunc):
        if rng.random() < 0.4:
            coeffs[alpha] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    origin = (0,) * n
    if zero_unit:
        coeffs.pop(origin, None)
    if nonzero_unit and not coeffs.get(origin):
        coeffs[origin] = Fraction(rng.randint(1, 5))
    return DiffOpSeries(n, trunc, coeffs)


def random_invertible(rng, d):
    while True:
        g = QMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        if g.det() != 0:
            return g


def conjugate(module, g):
    ginv = g.inverse()
    return validate([g * m * ginv for m in module.matrices])


# --- criterion 1: potentials ---------------------------------------------

def test_criterion_01_potential(capsys):
    start = time.perf_counter()
    rng = random.Random(1001)
    ok = True
    for _ in range(300):
        n = rng.randint(1, 3)
        k = rng.randint(1, n)
        h = random_poly(rng, n, 6)
        fs = [h.partial(i) for i in range(1, k + 1)]
        result = potential(fs, n)
        ok = ok and all(
            result.partial(i) == fs[i - 1] for i in range(1, k + 1)
        )
    rejected = 0
    for _ in range(100):
        n = rng.randint(2, 3)
        k = n
        h = random_poly(rng, n, 5)
        fs = [h.partial(i) for i in range(1, k + 1)]
        j0 = rng.randint(2, k)
        i0 = rng.randint(1, j0 - 1)
        # a perturbation constant in x_1..x_{i0-1} with nonzero d/dx_{i0}:
        # every pair before (i0, j0) stays compatible, that one breaks
        delta = Poly(n, {tuple(2 if t == i0 - 1 else 0 for t in range(n)): 1})
        fs[j0 - 1] = fs[j0 - 1] + delta
        try:
            potential(fs, n)
        except Incompatible as exc:
            rejected += 1 if (exc.i, exc.j) == (i0, j0) else 0
    ok = ok and rejected == 100
    _report(
        capsys, 1,
        "potential: 300 exact gradients recovered, 100 witnesses placed",
        ok, time.perf_counter() - start, 10,
    )


# --- criterion 2: embedding is a monomorphism ------------------------------

def test_criterion_02_embedding_monomorphism(capsys):
    start = time.perf_counter()
    shapes = [(1, 9), (2, 3), (3, 2)]
    ok = True
    count = 0
    seed = 0
    while count < 200:
        n, bound = shapes[count % len(shapes)]
        module = random_nilpotent_module(n, bound, seed=seed)
        seed += 1
        if module.dim > 10:
            continue
        count += 1
        result = embed_nilpotent(module)
        targets = action_matrices(result.image)
        phi = result.map.images
        ok = ok and all(
            phi * module.action(i) == targets[i - 1] * phi
            for i in range(1, n + 1)
        )
        ok = ok and result.map.rank() == module.dim
        ok = ok and all(
            result.image.contains(b.partial(i))
            for b in result.image.basis
            for i in range(1, n + 1)
        )
    _report(
        capsys, 2,
        "embed_nilpotent: 200 modules, exact intertwining + full rank",
        ok, time.perf_counter() - start, 60,
    )


# --- criterion 3: canonical-form uniqueness ----------------------------------

def test_criterion_03_canonical_uniqueness(capsys):
    start = time.perf_counter()
    rng = random.Random(3001)
    shapes = [(1, 6), (2, 2), (3, 1)]
    ok = True
    for count in range(100):
        n, bound = shapes[count % len(shapes)]
        module = random_nilpotent_module(n, bound, seed=3000 + count)
        base = canonical_form(module)
        g = random_invertible(rng, module.dim)
        ok = ok and canonical_form(conjugate(module, g)) == base
        ok = ok and embed_nilpotent(module, rng=random.Random(count)).image == base
    _report(
        capsys, 3,
        "canonical_form: invariant under conjugation and random functionals",
        ok, time.perf_counter() - start, 60,
    )


# --- criterion 4: isomorphism decision vs brute-force oracle -------------------

def test_criterion_04_isomorphism_vs_oracle(capsys):
    start = time.perf_counter()
    rng = random.Random(4001)
    pool = []
    seed = 0
    while len(pool) < 40:
        n = 1 + (seed % 2)
        module = random_nilpotent_module(n, 2 + (seed % 2), seed=4000 + seed)
        seed += 1
        if module.dim <= 4:
            pool.append(module)
    by_shape = {}
    for m in pool:
        by_shape.setdefault((m.n, m.dim), []).append(m)
    ok = True
    for count in range(200):
        shape = rng.choice(list(by_shape))
        group = by_shape[shape]
        first = rng.choice(group)
        if count % 3 == 0:
            second = conjugate(first, random_invertible(rng, first.dim))
        else:
            second = rng.choice(group)
        ok = ok and is_isomorphic(first, second) == brute_force_isomorphic(
            first, second
        )
    _report(
        capsys, 4,
        "is_isomorphic agrees with the intertwiner-determinant oracle, 200 pairs",
        ok, time.perf_counter() - start, 120,
    )


# --- criterion 5: master round trip ----------------------------------------------

def test_criterion_05_master_round_trip(capsys):
    start = time.perf_counter()
    rng = random.Random(5001)
    ok = True
    for count in range(200):
        n = 1 + count % 3
        degree = {1: 6, 2: 4, 3: 3}[n]
        gens = [random_poly(rng, n, degree) for _ in range(rng.randint(1, 2))]
        sub = submodule_from_polys(n, gens)
        fd, _ = as_matrices(sub)
        ok = ok and canonical_form(fd) == sub
    _report(
        capsys, 5,
        "canonical_form(as_matrices(M)) = M for 200 derivative-closed M",
        ok, time.perf_counter() - start, 60,
    )


# --- criteria 6 and 7: series round trip and degree non-increase -------------------

def _criterion6_work():
    rng = random.Random(6001)
    ok = True
    pairs = []
    for _ in range(200):
        n = rng.randint(1, 3)
        trunc = rng.randint(1, 5)
        s = random_series(rng, n, trunc)
        table = monomial_images(s)
        for alpha, image in table.items():
            pairs.append((Poly.monomial(n, alpha), image))
        ok = ok and extract_coeffs(n, trunc, table) == s
    for _ in range(50):
        n = rng.randint(1, 2)
        trunc = rng.randint(1, 4)
        endo = random_series(rng, n, trunc)
        table = monomial_images(endo)
        recovered = extract_coeffs(n, trunc, table)
        for alpha, image in table.items():
            rebuilt = recovered.apply(Poly.monomial(n, alpha))
            pairs.append((Poly.monomial(n, alpha), rebuilt))
            ok = ok and rebuilt == image
    return ok, pairs


_PAIRS_CACHE = []


def test_criterion_06_series_round_trip(capsys):
    start = time.perf_counter()
    ok, pairs = _criterion6_work()
    _PAIRS_CACHE.clear()
    _PAIRS_CACHE.extend(pairs)
    _report(
        capsys, 6,
        "extract_coeffs inverts apply on 200 series and 50 endo tables",
        ok, time.perf_counter() - start, 30,
    )


def test_criterion_07_degree_non_increase(capsys):
    start = time.perf_counter()
    pairs = _PAIRS_CACHE or _criterion6_work()[1]
    violations = 0
    for source, image in pairs:
        for i in range(1, source.n + 1):
            if image.degree_in(i) > source.degree_in(i):
                violations += 1
    _report(
        capsys, 7,
        f"degree never increases on {len(pairs)} applied pairs",
        violations == 0, time.perf_counter() - start, None,
    )


# --- criterion 8: exponentials -------------------------------------------------------

def test_criterion_08_exp_log(capsys):
    start = time.perf_counter()
    rng = random.Random(8001)
    ok = True
    for _ in range(100):
        n = rng.randint(1, 3)
        trunc = rng.randint(1, 4)
        a = random_series(rng, n, trunc, zero_unit=True)
        b = random_series(rng, n, trunc, zero_unit=True)
        ok = ok and series_exp(a + b) == series_exp(a).compose(series_exp(b))
        ok = ok and series_log(series_exp(a)) == a
    _report(
        capsys, 8,
        "series_exp is a group isomorphism; log inverts it, 100 pairs",
        ok, time.perf_counter() - start, 15,
    )


# --- criterion 9: automorphism groups ---------------------------------------------------

def random_lower_set(rng, n, max_size):
    indices = {(0,) * n}
    attempts = 0
    target = rng.randint(1, max_size)
    while len(indices) < target and attempts < 60:
        attempts += 1
        base = rng.choice(sorted(indices))
        i = rng.randrange(n)
        cand = tuple(b + 1 if t == i else b for t, b in enumerate(base))
        below = [
            tuple(c - 1 if t == j else c for t, c in enumerate(cand))
            for j in range(n)
            if cand[j] > 0
        ]
        if all(b in indices for b in below):
            indices.add(cand)
    return MonomialSubmodule(n, indices)


def test_criterion_09_aut_structure(capsys):
    start = time.perf_counter()
    rng = random.Random(9001)
    ok = True
    for _ in range(30):
        n = rng.randint(1, 3)
        module = random_lower_set(rng, n, 12)
        group = aut_structure(module)

        def rand_desc():
            unit = Fraction(0)
            while unit == 0:
                unit = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            additive = {
                a: Fraction(rng.randint(-3, 3))
                for a in module.indices
                if any(a) and rng.random() < 0.6
            }
            return AutDescriptor(unit, additive)

        for _ in range(3):
            a, b = rand_desc(), rand_desc()
            composed = group.compose(a, b)
            ok = ok and composed.unit == a.unit * b.unit
            ok = ok and group.matrix_of(composed) == (
                group.matrix_of(a) * group.matrix_of(b)
            )
            # injectivity: the descriptor is recoverable from the matrix
            ok = ok and group.descriptor_of(group.parametrize(a)) == a
        # surjectivity: every unit-bearing restriction carries a descriptor
        series = random_series(rng, n, module.max_degree, nonzero_unit=True)
        action = restrict(series, module)
        desc = group.descriptor_of(action)
        ok = ok and group.matrix_of(desc) == action.images
    _report(
        capsys, 9,
        "Aut(M): descriptor law = matrix law, parametrization bijective, 30 sets",
        ok, time.perf_counter() - start, 30,
    )


# --- criterion 10: isomorphism extension ---------------------------------------------------

def test_criterion_10_extension(capsys):
    start = time.perf_counter()
    rng = random.Random(10001)
    ok = True
    runs = 0
    while runs < 50:
        n = rng.randint(1, 2)
        sub = submodule_from_polys(
            n, [random_poly(rng, n, 3 if n == 2 else 5)]
        )
        closure = MonomialSubmodule(n, lower_set_closure(sub.monomial_list))
        if sub.dim >= closure.m:  # nothing proper to extend
            continue
        runs += 1
        series = random_series(rng, n, max(1, closure.max_degree), nonzero_unit=True)
        columns = [sub.coordinates_of(series.apply(b)) for b in sub.basis]
        phi = ModuleMap(sub, sub, QMatrix.from_columns(columns, rows=sub.dim))
        original = [phi.image_poly(j) for j in range(sub.dim)]
        src, tgt, cur = sub, sub, phi
        while any(
            not src.contains(Poly.monomial(n, a)) for a in closure.indices
        ):
            nsrc, ntgt, nxt = extend_iso_step(src, tgt, cur, within=closure)
            ok = ok and nsrc.dim == src.dim + 1 and ntgt.dim == tgt.dim + 1
            ok = ok and nxt.is_isomorphism()
            src, tgt, cur = nsrc, ntgt, nxt
        # the extension restricts to the original map
        for b, image in zip(sub.basis, original):
            coords = src.coordinates_of(b)
            ok = ok and tgt.from_coordinates(cur.apply_coords(coords)) == image
    _report(
        capsys, 10,
        "extend_iso_step reaches the closure, +1 dim per step, 50 starts",
        ok, time.perf_counter() - start, 30,
    )


# --- criterion 11: non-nilpotent embedding ---------------------------------------------------

def test_criterion_11_general_embedding(capsys):
    start = time.perf_counter()
    rng = random.Random(11001)
    ok = True
    for count in range(100):
        n = 1 + count % 2
        base = random_nilpotent_module(n, 2 if n == 2 else 4, seed=11000 + count)
        alpha = [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
        ]
        module = twist(base, [-a for a in alpha])
        image, bridge = embed_general(module)
        ok = ok and image.eigenvalues == tuple(alpha)
        part_actions = action_matrices(image.part)
        phi = bridge.images
        for i in range(1, n + 1):
            shifted = part_actions[i - 1] + QMatrix.identity(
                image.part.dim
            ).scale(alpha[i - 1])
            ok = ok and phi * module.action(i) == shifted * phi
    try:
        embed_general(validate([QMatrix([[0, 1], [-1, 0]])]))
        ok = False
    except NonRationalEigenvalue:
        pass
    _report(
        capsys, 11,
        "embed_general recovers 100 planted spectra; rotation rejected",
        ok, time.perf_counter() - start, 30,
    )


# --- criterion 12: CLI determinism ---------------------------------------------------

def test_criterion_12_cli_determinism(capsys):
    start = time.perf_counter()
    from test_cli import CASES, GOLDEN, golden_runs

    ok = True
    for name, argv, code in CASES:
        expected = (GOLDEN / f"{name}.json").read_bytes()
        first, second = golden_runs(tuple(argv))
        ok = ok and first.returncode == code
        ok = ok and first.stdout == expected
        ok = ok and second.stdout == expected
    _report(
        capsys, 12,
        f"CLI: {len(CASES)} golden cases byte-identical across two runs",
        ok, time.perf_counter() - start, None,
    )
