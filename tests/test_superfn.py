import math
import random
from fractions import Fraction

import pytest

from superdiff import (
    GrassmannElement,
    Polynomial,
    Superfunction,
    map_external,
    substitute_generators,
)
from superdiff.errors import DimensionError, ParityError
from superdiff.sampling import (
    random_fraction,
    random_grassmann,
    random_grassmann_morphism,
    random_polynomial,
    random_superfunction,
)
from superdiff.superfn import _SubstitutionPlan


def sf(text_m, n, p, terms):
    return Superfunction(text_m, n, p, terms)


def x(i, m=2, n=2, p=2):
    return Superfunction.coordinate(i, m, n, p)


def th(j, m=2, n=2, p=2):
    return Superfunction.theta(j, m, n, p)


def tau(k, m=2, n=2, p=2):
    return Superfunction.tau(k, m, n, p)


# -- polynomials -------------------------------------------------------


def test_polynomial_arithmetic():
    rng = random.Random(1)
    for _ in range(100):
        a = random_polynomial(rng, 3)
        b = random_polynomial(rng, 3)
        c = random_polynomial(rng, 3)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    q = Polynomial.variable(1, 2) + Polynomial.const(1, 2)
    assert q ** 3 == q * q * q
    assert q ** 0 == Polynomial.const(1, 2)


def test_polynomial_diff_leibniz():
    rng = random.Random(2)
    for _ in range(100):
        a = random_polynomial(rng, 2)
        b = random_polynomial(rng, 2)
        i = rng.choice([1, 2])
        assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_polynomial_degree():
    assert Polynomial.zero(2).degree() == -1
    assert Polynomial.const(3, 2).degree() == 0
    assert (Polynomial.variable(1, 2) ** 4).degree() == 4


# -- superfunctions ----------------------------------------------------


def test_odd_coordinates_square_to_zero():
    assert (th(1) * th(1)).is_zero()
    assert (tau(2) * tau(2)).is_zero()


def test_koszul_sign_theta_tau():
    # odd symbols from the two layers anticommute with each other
    assert th(1) * tau(1) == -(tau(1) * th(1))
    assert th(1) * th(2) == -(th(2) * th(1))
    assert tau(1) * tau(2) == -(tau(2) * tau(1))
    # storage order keeps th before t; the product th2 * t1 * th1 needs
    # two swaps: th2 t1 th1 = -th2 th1 t1 = th1 th2 t1
    prod = th(2) * tau(1) * th(1)
    expect = th(1) * th(2) * tau(1)
    assert prod == expect


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(150):
        a = random_superfunction(rng, 2, 2, 2)
        b = random_superfunction(rng, 2, 2, 2)
        c = random_superfunction(rng, 2, 2, 2)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_supercommutativity_random():
    rng = random.Random(4)
    for _ in range(150):
        pa, pb = rng.choice([0, 1]), rng.choice([0, 1])
        a = random_superfunction(rng, 2, 2, 2, parity=pa)
        b = random_superfunction(rng, 2, 2, 2, parity=pb)
        sign = -1 if pa and pb else 1
        assert a * b == (b * a).scale(sign)


def test_even_elements_are_central():
    rng = random.Random(5)
    for _ in range(80):
        a = random_superfunction(rng, 2, 2, 2, parity=0)
        b = random_superfunction(rng, 2, 2, 2)
        assert a * b == b * a


def test_diff_theta_signs():
    # d/dth2 (th1 th2) = -th1: the operator walks past th1 first
    f = th(1) * th(2)
    assert f.diff_theta(2) == -th(1)
    assert f.diff_theta(1) == th(2)
    # t factors sit to the right and cost nothing
    g = th(1) * tau(1)
    assert g.diff_theta(1) == tau(1)


def test_diff_theta_superleibniz():
    rng = random.Random(6)
    for _ in range(120):
        pa = rng.choice([0, 1])
        a = random_superfunction(rng, 2, 2, 2, parity=pa)
        b = random_superfunction(rng, 2, 2, 2)
        j = rng.choice([1, 2])
        sign = -1 if pa else 1
        lhs = (a * b).diff_theta(j)
        rhs = a.diff_theta(j) * b + (a * b.diff_theta(j)).scale(sign)
        assert lhs == rhs


def test_diff_x_leibniz_and_commuting():
    rng = random.Random(7)
    for _ in range(100):
        a = random_superfunction(rng, 2, 2, 2)
        b = random_superfunction(rng, 2, 2, 2)
        assert (a * b).diff_x(1) == a.diff_x(1) * b + a * b.diff_x(1)
        assert a.diff_x(1).diff_x(2) == a.diff_x(2).diff_x(1)
        j = rng.choice([1, 2])
        assert a.diff_theta(j).diff_theta(j).is_zero()


def test_parity_bookkeeping():
    assert x(1).parity() == 0
    assert th(1).parity() == 1
    assert tau(1).parity() == 1
    assert (th(1) * tau(2)).parity() == 0
    assert (x(1) + th(1)).parity() is None
    assert Superfunction.zero(2, 2, 2).parity() == 0


def test_j_degree_counts_theta_only():
    assert x(1).j_degree() == 0
    assert th(1).j_degree() == 1
    assert (th(1) * th(2)).j_degree() == 2
    assert tau(1).j_degree() == 0  # external factors do not count
    assert Superfunction.zero(2, 2, 2).j_degree() == math.inf
    mixed = x(1) + th(1) * th(2)
    assert mixed.j_degree() == 0
    assert mixed.reduce_mod_j(1) == x(1)


def test_external_coefficient_reconstructs():
    rng = random.Random(8)
    for _ in range(100):
        f = random_superfunction(rng, 2, 2, 3)
        total = Superfunction.zero(2, 2, 3)
        for key in f.external_support():
            coeff = f.external_coefficient(key)
            assert coeff.p == 0
            total = total + Superfunction.monomial(
                2, 2, 3, Polynomial.const(1, 2), (), key
            ) * coeff.lift(3)
        assert total == f


def test_external_coefficient_sign():
    # th1 t1 stored as ((1,),(1,)): pulling t1 left past th1 flips sign
    f = th(1) * tau(1)
    assert f.external_coefficient((1,)) == -th(1, p=0)
    g = tau(1) * th(1)
    assert g.external_coefficient((1,)) == th(1, p=0)


def test_lift_embed_restrict():
    f = x(1, 2, 2, 1) + th(1, 2, 2, 1) * tau(1, 2, 2, 1)
    g = f.lift(3)
    assert g.p == 3 and g.external_coefficient((1,)) == f.external_coefficient((1,))
    with pytest.raises(DimensionError):
        g.lift(1)
    h = x(1, 2, 2, 3).restrict_rank(0)
    assert h.p == 0
    with pytest.raises(DimensionError):
        (th(1) * tau(2)).restrict_rank(1)
    wide = f.embed(3, 4, 2)
    assert (wide.m, wide.n, wide.p) == (3, 4, 2)
    assert wide * Superfunction.theta(4, 3, 4, 2) != Superfunction.zero(3, 4, 2)


def test_substitution_is_algebra_map():
    rng = random.Random(9)
    for _ in range(60):
        x_imgs = [random_superfunction(rng, 2, 2, 2, parity=0) for _ in range(2)]
        th_imgs = [random_superfunction(rng, 2, 2, 2, parity=1) for _ in range(2)]
        a = random_superfunction(rng, 2, 2, 2, degree=2)
        b = random_superfunction(rng, 2, 2, 2, degree=2)
        fa = substitute_generators(a, x_imgs, th_imgs)
        fb = substitute_generators(b, x_imgs, th_imgs)
        fab = substitute_generators(a * b, x_imgs, th_imgs)
        assert fab == fa * fb


def test_substitution_fixes_external_generators():
    x_imgs = [x(1, 1, 2, 2) + tau(1, 1, 2, 2) * th(1, 1, 2, 2)]
    th_imgs = [th(1, 1, 2, 2), th(2, 1, 2, 2)]
    f = tau(2, 1, 2, 2)
    assert substitute_generators(f, x_imgs, th_imgs) == f


def test_substitution_parity_checks():
    with pytest.raises(ParityError):
        substitute_generators(x(1, 1, 1, 0), [Superfunction.theta(1, 1, 1, 0)], [Superfunction.theta(1, 1, 1, 0)])
    with pytest.raises(ParityError):
        substitute_generators(
            x(1, 1, 1, 0),
            [Superfunction.coordinate(1, 1, 1, 0)],
            [Superfunction.coordinate(1, 1, 1, 0)],
        )


def test_substitution_into_a_larger_domain():
    # the image count follows f's domain (1|1), the images may live on 2|2
    f = Superfunction.coordinate(1, 1, 1, 0) ** 2 * Superfunction.theta(1, 1, 1, 0)
    x_imgs = [Superfunction.coordinate(1, 2, 2, 0)]
    result = substitute_generators(f, x_imgs, [Superfunction.theta(2, 2, 2, 0)])
    assert str(result) == "x1^2*th[2]"
    with pytest.raises(DimensionError):
        substitute_generators(f, x_imgs, [Superfunction.theta(1, 1, 1, 0)])


def _naive_substitute(f, x_imgs, th_imgs):
    """Reference substitution: each monomial rebuilt by repeated products."""
    m, n, p = x_imgs[0].m, x_imgs[0].n, x_imgs[0].p
    total = Superfunction.zero(m, n, p)
    for (theta_key, tau_key), poly in f.terms.items():
        t_block = Superfunction.monomial(m, n, p, Polynomial.const(1, m), (), tau_key)
        for exps, coeff in poly.terms.items():
            term = Superfunction.scalar(coeff, m, n, p)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = term * x_imgs[i]
            for j in theta_key:
                term = term * th_imgs[j - 1]
            total = total + term * t_block
    return total


def _random_images(rng, m, n, p, trial):
    """x-images with affine, non-affine or no body; some th-images zero."""
    x_imgs = []
    for i in range(m):
        nil = random_superfunction(rng, m, n, p, parity=0, terms=4)
        nil = nil - Superfunction.from_polynomial(nil.body_polynomial(), n, p)
        kind = (i + trial) % 3
        if kind == 0:
            body = Polynomial.variable(i + 1, m) + Polynomial.const(random_fraction(rng), m)
        elif kind == 1:
            body = Polynomial.variable(i + 1, m) ** 2 + random_polynomial(rng, m, terms=3)
        else:
            body = Polynomial.zero(m)
        x_imgs.append(Superfunction.from_polynomial(body, n, p) + nil)
    th_imgs = [
        Superfunction.zero(m, n, p)
        if (j + trial) % 4 == 0
        else random_superfunction(rng, m, n, p, parity=1, terms=3)
        for j in range(n)
    ]
    return x_imgs, th_imgs


@pytest.mark.parametrize("m, n, p", [(1, 0, 0), (1, 2, 1), (2, 2, 3), (3, 1, 2), (2, 3, 0)])
def test_substitution_matches_naive_reference(m, n, p):
    rng = random.Random(f"substitute {m}|{n};{p}")
    for trial in range(24):
        x_imgs, th_imgs = _random_images(rng, m, n, p, trial)
        f = random_superfunction(rng, m, n, p, degree=3, terms=6)
        if p:
            poly = random_polynomial(rng, m, degree=3) + Polynomial.const(1, m)
            f = f + Superfunction.monomial(m, n, p, poly, (), (p,))
        assert substitute_generators(f, x_imgs, th_imgs) == _naive_substitute(
            f, x_imgs, th_imgs
        )


def test_substitution_of_a_large_power():
    m, n = 1, 2
    th1, th2 = Superfunction.theta(1, m, n), Superfunction.theta(2, m, n)
    x_imgs = [Superfunction.coordinate(1, m, n) + th1 * th2]
    f = Superfunction.from_polynomial(Polynomial(m, {(1500,): 1}), n)
    result = substitute_generators(f, x_imgs, [th1, th2])
    assert result == Superfunction(
        m,
        n,
        0,
        {
            ((), ()): Polynomial(m, {(1500,): 1}),
            ((1, 2), ()): Polynomial(m, {(1499,): 1500}),
        },
    )
    assert str(result) == "x1^1500 + 1500*x1^1499*th[1,2]"
    # the Taylor sum stops at the nilpotency bound whatever the exponent
    plan = _SubstitutionPlan(m, n, 0, x_imgs, [th1, th2])
    assert [k for k, _, _ in plan._expansion((1500,))] == [(0,), (1,)]


def test_map_external_is_linear_over_internal():
    rng = random.Random(10)
    for _ in range(60):
        g = random_grassmann_morphism(rng, 2, 3)
        a = random_superfunction(rng, 2, 2, 2)
        b = random_superfunction(rng, 2, 2, 2)
        assert map_external(a + b, g) == map_external(a, g) + map_external(b, g)
        assert map_external(a * b, g) == map_external(a, g) * map_external(b, g)


def test_max_degree():
    f = x(1) ** 3 * th(1) + x(2)
    assert f.max_degree() == 3


# -- what every element type shares -------------------------------------


def test_public_constructors_reject_bad_input():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(TypeError):
        Polynomial(1, {(1,): 0.5})
    one = Polynomial.const(1, 2)
    with pytest.raises(ValueError):
        Superfunction(2, 2, 0, {((2, 1), ()): one})
    with pytest.raises(DimensionError):
        Superfunction(2, 2, 0, {((0,), ()): one})
    with pytest.raises(DimensionError):
        Superfunction(2, 2, 1, {((), (2,)): one})
    with pytest.raises(DimensionError):
        Superfunction(2, 2, 0, {((1,), ()): Polynomial.const(1, 3)})


def test_power_is_the_repeated_product():
    rng = random.Random(12)
    cases = [
        (lambda: random_grassmann(rng, 4), GrassmannElement.scalar(1, 4)),
        (lambda: random_polynomial(rng, 2), Polynomial.const(1, 2)),
        (lambda: random_superfunction(rng, 2, 2, 1), Superfunction.scalar(1, 2, 2, 1)),
    ]
    for draw, one in cases:
        for _ in range(5):
            a = draw()
            product = one
            for k in range(7):
                assert a ** k == product
                product = product * a


def test_large_power_of_a_coordinate():
    assert str(Superfunction.coordinate(1, 1, 2, 1) ** 1500) == "x1^1500"
