"""Seeded random generators for exercising the algebra.

Everything is driven by a caller-supplied random.Random so that test
runs and the command-line selftest are reproducible bit for bit.  All
values stay small: numerators in a narrow band, low polynomial degrees,
so exact arithmetic never explodes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .derivation import SuperDerivation, exp_nilpotent
from .grassmann import GrassmannElement, GrassmannMorphism
from .morphism import SuperMorphism, subsets_of_rank
from .sdiff import SDiffPoint
from .substitution import UnderlyingMorphism, _affine_images, _invert_matrix
from .superfn import Polynomial, Superfunction

IndexTuple = tuple[int, ...]


def random_fraction(rng: random.Random) -> Fraction:
    num = rng.randint(-3, 3)
    den = rng.choice([1, 1, 2, 3])
    return Fraction(num, den)


def random_exponents(rng: random.Random, m: int, degree: int) -> tuple[int, ...]:
    exps = [0] * m
    budget = rng.randint(0, degree)
    for _ in range(budget):
        if m == 0:
            break
        exps[rng.randrange(m)] += 1
    return tuple(exps)


def random_polynomial(
    rng: random.Random, m: int, degree: int = 2, terms: int = 2
) -> Polynomial:
    result = Polynomial.zero(m)
    for _ in range(terms):
        coeff = random_fraction(rng)
        if coeff == 0:
            continue
        mono = Polynomial(m, {random_exponents(rng, m, degree): coeff})
        result = result + mono
    return result


def _random_subset(rng: random.Random, size: int) -> IndexTuple:
    picked = [i for i in range(1, size + 1) if rng.random() < 0.5]
    return tuple(picked)


def random_superfunction(
    rng: random.Random,
    m: int,
    n: int,
    p: int,
    degree: int = 2,
    terms: int = 3,
    parity: Optional[int] = None,
) -> Superfunction:
    result = Superfunction.zero(m, n, p)
    for _ in range(terms):
        for _attempt in range(30):
            theta_key = _random_subset(rng, n)
            tau_key = _random_subset(rng, p)
            if parity is None or (len(theta_key) + len(tau_key)) % 2 == parity:
                break
        else:
            continue
        coeff = random_fraction(rng)
        if coeff == 0:
            continue
        poly = Polynomial(m, {random_exponents(rng, m, degree): coeff})
        result = result + Superfunction.monomial(m, n, p, poly, theta_key, tau_key)
    return result


def random_derivation(
    rng: random.Random,
    m: int,
    n: int,
    p: int,
    degree: int = 2,
    parity: Optional[int] = None,
) -> SuperDerivation:
    th_parity = None if parity is None else (parity + 1) % 2
    coeffs = [
        random_superfunction(
            rng, m, n, p, degree, terms=2, parity=parity if slot < m else th_parity
        )
        for slot in range(m + n)
    ]
    return SuperDerivation._of(m, n, p, coeffs)


def random_invertible_matrix(rng: random.Random, size: int) -> list[list[Fraction]]:
    while True:
        rows = [
            [random_fraction(rng) for _ in range(size)] for _ in range(size)
        ]
        if _invert_matrix(rows) is not None:
            return rows


def random_affine_body(rng: random.Random, m: int, n: int) -> UnderlyingMorphism:
    """Invertible affine substitution with its exact inverse attached."""
    matrix_x = random_invertible_matrix(rng, m)
    shift = [random_fraction(rng) for _ in range(m)]
    matrix_th = random_invertible_matrix(rng, n)
    matrix = [row + [0] * n for row in matrix_x] + [[0] * m + row for row in matrix_th]
    forward = UnderlyingMorphism._of(m, n, _affine_images(m, n, matrix, shift))
    affine = forward.affine_part()
    assert affine is not None
    return affine


def random_filtration_field(
    rng: random.Random, m: int, n: int, degree: int = 2
) -> SuperDerivation:
    """Even rank-0 field moving every coordinate up the odd filtration.

    x coefficients carry at least two odd factors, th coefficients at
    least three, so the exponential of the result is unipotent.
    """
    coeffs = []
    for slot in range(m + n):
        g = Superfunction.zero(m, n, 0)
        for theta_key in combinations(range(1, n + 1), 2 if slot < m else 3):
            coeff = random_fraction(rng)
            if coeff == 0:
                continue
            poly = Polynomial(m, {random_exponents(rng, m, degree): coeff})
            g = g + Superfunction.monomial(m, n, 0, poly, theta_key, ())
        coeffs.append(g)
    return SuperDerivation._of(m, n, 0, coeffs)


def random_body(rng: random.Random, m: int, n: int, degree: int = 2) -> UnderlyingMorphism:
    """Invertible substitution: affine part composed with a unipotent one."""
    affine = random_affine_body(rng, m, n)
    unipotent = exp_nilpotent(random_filtration_field(rng, m, n, degree))
    return unipotent.compose(affine)


def random_field_family(
    rng: random.Random,
    m: int,
    n: int,
    p: int,
    degree: int = 2,
    density: float = 0.8,
) -> dict[IndexTuple, SuperDerivation]:
    family: dict[IndexTuple, SuperDerivation] = {}
    for key in subsets_of_rank(p):
        if rng.random() > density:
            continue
        field = random_derivation(rng, m, n, 0, degree, parity=len(key) % 2)
        if field.is_zero():
            continue
        family[key] = field
    return family


def random_point(
    rng: random.Random, m: int, n: int, p: int, degree: int = 2
) -> SDiffPoint:
    body = random_body(rng, m, n, degree)
    family = random_field_family(rng, m, n, p, degree)
    return SDiffPoint.from_factored(body, family, p)


def random_grassmann(
    rng: random.Random, n: int, parity: Optional[int] = None, terms: int = 3
) -> GrassmannElement:
    result = GrassmannElement.zero(n)
    for _ in range(terms):
        for _attempt in range(30):
            key = _random_subset(rng, n)
            if parity is None or len(key) % 2 == parity:
                break
        else:
            continue
        coeff = random_fraction(rng)
        if coeff == 0:
            continue
        result = result + GrassmannElement.monomial(key, n, coeff)
    return result


def random_grassmann_morphism(
    rng: random.Random, source_n: int, target_n: int
) -> GrassmannMorphism:
    images = [
        random_grassmann(rng, target_n, parity=1) for _ in range(source_n)
    ]
    return GrassmannMorphism(source_n, target_n, images)


def random_morphism(
    rng: random.Random, m: int, n: int, p: int, degree: int = 2
) -> SuperMorphism:
    """Random invertible-bodied morphism, already expanded (not factored)."""
    return random_point(rng, m, n, p, degree).morphism
