import itertools
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
from superdiff.errors import DimensionError, LimitError, ParityError
from superdiff.grassmann import (
    _blade,
    _check_limit,
    _multiply_buckets_into,
    _multiply_into,
    _reduced,
    _unpack,
    merge_indices,
)
from superdiff.sampling import (
    random_exponents,
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


def _reference_product(a, b):
    """a * b by plain Fraction arithmetic over every pair of monomials."""
    out = {}
    for (ka, ja), pa in a.terms.items():
        for (kb, jb), pb in b.terms.items():
            theta, tau = merge_indices(ka, kb), merge_indices(ja, jb)
            if theta is None or tau is None:
                continue
            # moving b's th block past a's t block
            sign = theta[0] * tau[0] * (-1) ** (len(kb) * len(ja))
            bucket = out.setdefault((theta[1], tau[1]), {})
            for ea, ca in pa.terms.items():
                for eb, cb in pb.terms.items():
                    e = tuple(i + j for i, j in zip(ea, eb))
                    bucket[e] = bucket.get(e, 0) + sign * ca * cb
    return Superfunction(
        a.m, a.n, a.p, {key: Polynomial(a.m, bucket) for key, bucket in out.items()}
    )


def _naive_substitute(f, x_imgs, th_imgs):
    """Reference substitution: each monomial rebuilt by reference products."""
    m, n, p = x_imgs[0].m, x_imgs[0].n, x_imgs[0].p
    total = Superfunction.zero(m, n, p)
    for (theta_key, tau_key), poly in f.terms.items():
        t_block = Superfunction.monomial(m, n, p, Polynomial.const(1, m), (), tau_key)
        for exps, coeff in poly.terms.items():
            term = Superfunction.scalar(coeff, m, n, p)
            for i, e in enumerate(exps):
                for _ in range(e):
                    term = _reference_product(term, x_imgs[i])
            for j in theta_key:
                term = _reference_product(term, th_imgs[j - 1])
            total = total + _reference_product(term, t_block)
    return total


def _assert_lowest_terms(f):
    """Every coefficient of f is a nonzero Fraction in lowest terms."""
    for poly in f.terms.values():
        assert poly.terms
        for c in poly.terms.values():
            assert type(c) is Fraction and c
            assert c.denominator > 0 and math.gcd(c.numerator, c.denominator) == 1


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
        result = substitute_generators(f, x_imgs, th_imgs)
        assert result == _naive_substitute(f, x_imgs, th_imgs)
        _assert_lowest_terms(result)


def _odd_block(plan, theta, memo):
    """The earlier `_SubstitutionPlan._odd_block`: F(K) for the th mask of
    K, the images of its factors multiplied from the left, by its own
    recursion and memo; kept as the reference for `grassmann._blade`."""
    found = memo.get(theta)
    if found is None:
        last = theta.bit_length() - 1
        found = plan._th[last]
        rest = theta ^ (1 << last)
        if rest:
            found = _multiply_buckets_into({}, _odd_block(plan, rest, memo), found)
            found = _check_limit(_reduced(found, 1)[0], plan.m)
        memo[theta] = found
    return found


@pytest.mark.parametrize("m, n, p", [(1, 2, 1), (2, 3, 0), (1, 4, 2), (0, 5, 1)])
def test_odd_blocks_match_the_recursive_reference(m, n, p):
    rng = random.Random(f"odd blocks {m}|{n};{p}")
    for trial in range(6):
        x_imgs, th_imgs = _random_images(rng, m, n, p, trial)
        plan = _SubstitutionPlan(m, n, p, x_imgs, th_imgs)
        memo = {}
        # every mask, from the top down, so that each one starts a new recursion
        for theta in reversed(range(1, 1 << n)):
            block = _blade(plan._odd_blocks, plan._th, theta, plan._bucket_product)
            assert block == _odd_block(plan, theta, memo)
        assert plan._odd_blocks[0] == {0: {0: 1}}


def _earlier_plan_memos(plan):
    """The earlier `_SubstitutionPlan._body_monomial` (B^e, a product of
    body powers) and `_nil_power` (M^k, one factor peeled off at a time),
    with `_body_power` (B_i^e by its own repeated squaring), each with its
    own memo and the limit-checked `_limited_product`; kept as the
    reference for `grassmann._blade` on packed exponents."""
    zero = (0,) * len(plan.x_images)
    one = {0: 1}
    powers = [{0: one, 1: body.get(0, {})} for body in plan._bodies]
    monomials = {zero: one}
    nil_powers = {zero: {0: one}}

    def limited_product(a, b):
        return _check_limit({0: _multiply_into({}, a, b)}, plan.m)[0]

    def body_power(i, e):
        found = powers[i].get(e)
        if found is None:
            half = body_power(i, e // 2)
            found = limited_product(half, half)
            if e % 2:
                found = limited_product(found, powers[i][1])
            powers[i][e] = found
        return found

    def body_monomial(exps):
        found = monomials.get(exps)
        if found is None:
            for i, e in enumerate(exps):
                if e:
                    power = body_power(i, e)
                    found = power if found is None else limited_product(found, power)
            monomials[exps] = found
        return found

    def nil_power(k):
        found = nil_powers.get(k)
        if found is None:
            i = next(i for i, j in enumerate(k) if j)
            lower = k[:i] + (k[i] - 1,) + k[i + 1 :]
            found = plan._nilpotent[i]
            if any(lower):
                found = plan._bucket_product(nil_power(lower), found)
            nil_powers[k] = found
        return found

    return body_monomial, nil_power


def _check_plan_memos(plan, exponents):
    """Each expansion and every entry of the plan's memos of B^e and M^k
    equal the earlier helpers' (whose products kept cancelled entries)."""
    body_monomial, nil_power = _earlier_plan_memos(plan)
    m = len(plan.x_images)

    def nonzero(poly):
        return {e: c for e, c in poly.items() if c}

    for exps in exponents:
        expected = []
        for k in itertools.product(*(range(min(e, plan._bound) + 1) for e in exps)):
            if sum(k) > plan._bound or any(j and not nil for j, nil in zip(k, plan._nilpotent)):
                continue
            body = body_monomial(tuple(e - j for e, j in zip(exps, k)))
            if body and nil_power(k):
                expected.append((k, nonzero(body)))
        assert [(k, body) for k, body, _ in plan._expansion(exps)] == expected
    for key, body in plan._body_monomials.items():
        assert body == ({0: nonzero(old)} if (old := body_monomial(_unpack(key, m))) else {})
    for key, nil in plan._nil_powers.items():
        assert nil == nil_power(_unpack(key, m))
    assert plan._body_monomials[0] == plan._nil_powers[0] == {0: {0: 1}}


@pytest.mark.parametrize("m, n, p", [(1, 2, 1), (2, 2, 3), (3, 1, 2)])
def test_plan_memos_match_the_earlier_helpers(m, n, p):
    rng = random.Random(f"plan memos {m}|{n};{p}")
    for trial in range(6):
        x_imgs, th_imgs = _random_images(rng, m, n, p, trial)
        plan = _SubstitutionPlan(m, n, p, x_imgs, th_imgs)
        _check_plan_memos(plan, [random_exponents(rng, m, 7) for _ in range(8)])
    # fractional bodies, a zero body, fractional nilpotent parts and odd images
    third, half = Fraction(1, 3), Fraction(1, 2)
    th1, th2 = Superfunction.theta(1, m, n, p), Superfunction.theta(n, m, n, p)
    nil = (th1 * th2 if n > 1 else th1 * Superfunction.tau(1, m, n, p)).scale(third)
    x_imgs = [Superfunction.coordinate(1, m, n, p).scale(half) + nil]
    x_imgs += [
        Superfunction.coordinate(i, m, n, p).scale(half) + Superfunction.scalar(third, m, n, p)
        for i in range(2, m)
    ]
    x_imgs += [nil] * (m > 1)
    plan = _SubstitutionPlan(m, n, p, x_imgs, [th1.scale(Fraction(2, 5))] * n)
    _check_plan_memos(plan, [(1500,) + (2,) * (m - 1), (4,) * m, (0,) * m])
    if m == 1:
        # x1^(2**31 - 1) under the nilpotent part 1/3*th[1,2]
        x_imgs = [Superfunction.coordinate(1, m, n, p) + nil]
        plan = _SubstitutionPlan(m, n, p, x_imgs, [th1, th2])
        _check_plan_memos(plan, [(2**31 - 1,)])


@pytest.mark.parametrize("m, n, p", [(1, 2, 1), (2, 2, 3), (3, 1, 2)])
def test_product_matches_reference(m, n, p):
    rng = random.Random(f"product {m}|{n};{p}")
    for _ in range(40):
        a = random_superfunction(rng, m, n, p, degree=3, terms=6)
        b = random_superfunction(rng, m, n, p, degree=3, terms=6)
        product = a * b
        assert product == _reference_product(a, b)
        _assert_lowest_terms(product)
        bodies = [Superfunction.from_polynomial(f.body_polynomial(), n, p) for f in (a, b)]
        poly_product = a.body_polynomial() * b.body_polynomial()
        assert Superfunction.from_polynomial(poly_product, n, p) == _reference_product(*bodies)


def test_substitution_with_image_denominators():
    # bodies, nilpotent parts and th-images all have denominators above 1
    m, n, p = 2, 2, 1
    c = Fraction
    x1, x2 = Polynomial.variable(1, m), Polynomial.variable(2, m)
    one = Polynomial.const(1, m)
    x_imgs = [
        Superfunction(m, n, p, {
            ((), ()): x1.scale(c(1, 2)) + one.scale(c(2, 3)),
            ((1, 2), ()): one.scale(c(3, 5)),
            ((1,), (1,)): x2.scale(c(1, 7)),
        }),
        Superfunction(m, n, p, {
            ((), ()): (x2 * x2).scale(c(1, 3)),
            ((1, 2), ()): x1.scale(c(5, 4)),
        }),
    ]
    th_imgs = [
        Superfunction(m, n, p, {
            ((1,), ()): one.scale(c(1, 3)),
            ((2,), ()): x1.scale(c(2, 9)),
            ((), (1,)): one.scale(c(1, 5)),
        }),
        Superfunction(m, n, p, {
            ((2,), ()): one.scale(c(3, 7)),
            ((1, 2), (1,)): x2.scale(c(1, 11)),
        }),
    ]
    rng = random.Random(14)
    for _ in range(20):
        f = random_superfunction(rng, m, n, p, degree=3, terms=6)
        result = substitute_generators(f, x_imgs, th_imgs)
        assert result == _naive_substitute(f, x_imgs, th_imgs)
        _assert_lowest_terms(result)


def test_one_plan_denominator_with_coprime_parts(monkeypatch):
    # body 1/3, nilpotent part 1/5, odd images 1/7: the bodies keep their
    # own denominators, the rest share D = 35, and each term of f is scaled
    # by its own powers of them
    m, n, p = 2, 2, 1
    c = Fraction
    x1, x2 = Polynomial.variable(1, m), Polynomial.variable(2, m)
    one = Polynomial.const(1, m)
    x_imgs = [
        Superfunction(m, n, p, {((), ()): x1.scale(c(1, 3)), ((1, 2), ()): one.scale(c(1, 5))}),
        Superfunction(m, n, p, {
            ((), ()): x2 + one.scale(c(2, 3)),
            ((1,), (1,)): x1.scale(c(4, 5)),
        }),
    ]
    th_imgs = [
        Superfunction(m, n, p, {((2,), ()): one.scale(c(1, 7)), ((1,), ()): x2}),
        Superfunction(m, n, p, {((1,), ()): one, ((), (1,)): x1.scale(c(3, 7))}),
    ]

    def poly(terms):
        return Polynomial(m, {e: c(*q) for e, q in terms.items()})

    f = Superfunction(m, n, p, {
        ((), ()): poly({(0, 0): (1, 2), (1, 0): (1, 1), (2, 1): (-3, 4), (0, 3): (5, 1)}),
        ((1,), ()): poly({(2, 0): (1, 2), (0, 1): (2, 9)}),
        ((2,), (1,)): poly({(1, 1): (7, 1)}),
        ((1, 2), ()): poly({(0, 0): (1, 1), (3, 0): (-1, 6)}),
        ((1, 2), (1,)): poly({(1, 2): (1, 4)}),
    })
    g = Superfunction(m, n, p, {
        ((), (1,)): poly({(1, 0): (1, 11), (4, 0): (2, 1), (0, 3): (1, 13)}),
        ((1,), ()): poly({(2, 0): (3, 1), (1, 3): (-1, 8)}),
        ((1, 2), ()): poly({(3, 0): (1, 17)}),
    })
    seen = []
    expansion = _SubstitutionPlan._expansion

    def counted(plan, exps):
        seen.append(exps)
        return expansion(plan, exps)

    monkeypatch.setattr(_SubstitutionPlan, "_expansion", counted)
    plan = _SubstitutionPlan(m, n, p, x_imgs, th_imgs)
    first = plan.substitute(f)
    assert first == _naive_substitute(f, x_imgs, th_imgs)
    _assert_lowest_terms(first)
    assert sorted(seen) == sorted({e for poly in f.terms.values() for e in poly.terms})
    seen.clear()
    second = plan.substitute(g)
    assert second == _naive_substitute(g, x_imgs, th_imgs)
    _assert_lowest_terms(second)
    # only the exponents f did not have are expanded
    assert sorted(seen) == [(1, 3), (4, 0)]
    for h, result in ((f, first), (g, second)):
        assert _SubstitutionPlan(m, n, p, x_imgs, th_imgs).substitute(h) == result
    assert plan.substitute(f) == first


def test_cancellation_and_empty_operands():
    m, n, p = 2, 2, 1
    one = Polynomial.const(1, m)
    s = th(1, m, n, p) + th(2, m, n, p)
    assert (s * s).terms == {}
    half = Superfunction.scalar(Fraction(1, 2), m, n, p)
    assert (x(1, m, n, p) + half) * (x(1, m, n, p) - half) - x(1, m, n, p) ** 2 == (
        Superfunction.scalar(Fraction(-1, 4), m, n, p)
    )
    zero = Superfunction.zero(m, n, p)
    assert (zero * s).terms == (s * zero).terms == {}
    assert (Polynomial.zero(m) * one).terms == {}
    # equal x-images make x1 - x2 vanish; equal th-images kill th1*th2
    nil = th(1, m, n, p) * th(2, m, n, p)
    x_imgs = [x(1, m, n, p) + nil, x(1, m, n, p) + nil]
    th_imgs = [th(1, m, n, p), th(1, m, n, p)]
    for f in (x(1, m, n, p) - x(2, m, n, p), nil * tau(1, m, n, p), zero):
        assert substitute_generators(f, x_imgs, th_imgs).terms == {}


def test_external_signs():
    m, n, p = 1, 2, 2
    a = th(1, m, n, p) * tau(1, m, n, p)
    b = th(2, m, n, p) * tau(2, m, n, p)
    assert str(a * b) == "-th[1,2]*t[1,2]"
    assert a * b == _reference_product(a, b)
    # t[1] stays fixed while th1 -> th2 moves past it
    f = tau(1, m, n, p) * th(1, m, n, p) * x(1, m, n, p)
    result = substitute_generators(f, [x(1, m, n, p)], [th(2, m, n, p), th(1, m, n, p)])
    assert str(result) == "-x1*th[2]*t[1]"


def test_large_common_denominators():
    m, n = 1, 2
    th12 = Superfunction.theta(1, m, n) * Superfunction.theta(2, m, n)
    base = Superfunction.coordinate(1, m, n).scale(Fraction(1, 3)) + th12
    expected = Superfunction(m, n, 0, {
        ((), ()): Polynomial(m, {(200,): Fraction(1, 3**200)}),
        ((1, 2), ()): Polynomial(m, {(199,): Fraction(200, 3**199)}),
    })
    power = base**200
    assert power == expected
    _assert_lowest_terms(power)
    by_reference = Superfunction.scalar(1, m, n)
    for _ in range(200):
        by_reference = _reference_product(by_reference, base)
    assert by_reference == expected
    f = Superfunction.from_polynomial(Polynomial(m, {(200,): 1}), n)
    result = substitute_generators(f, [base], [Superfunction.theta(j, m, n) for j in (1, 2)])
    assert result == expected
    _assert_lowest_terms(result)


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


def _sparse_draw(rng, m, n, p, terms=5):
    """`terms` random monomials with at most three th and two t factors,
    the th indices from a pool that passes 64 when n does."""
    pool = sorted({1, 2, 3, 64, 65, n} & set(range(1, n + 1)))
    f = Superfunction.zero(m, n, p)
    for _ in range(terms):
        theta_key = sorted(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
        tau_key = sorted(rng.sample(range(1, p + 1), rng.randint(0, min(2, p))))
        poly = Polynomial(m, {random_exponents(rng, m, 3): random_fraction(rng)})
        f = f + Superfunction.monomial(m, n, p, poly, theta_key, tau_key)
    return f


@pytest.mark.parametrize("m, n, p", [(1, 2, 0), (2, 2, 1), (1, 3, 3), (2, 70, 2)])
def test_one_stored_form_whatever_the_route(m, n, p):
    rng = random.Random(f"stored form {m}|{n};{p}")
    for _ in range(15):
        a, b, c = (_sparse_draw(rng, m, n, p) for _ in range(3))
        expected = _reference_product(a, b)
        product = a * b
        coefficients = {key: poly.terms for key, poly in expected.terms.items()}
        assert {key: poly.terms for key, poly in product.terms.items()} == coefficients
        _assert_lowest_terms(product)
        routes = [
            product,
            (product + c) - c,
            c.scale(0) + product,
            product.lift(p + 2).restrict_rank(p),
            product.embed(m, n, p),
            Superfunction(m, n, p, product.terms),
        ]
        for value in routes:
            assert value == expected and hash(value) == hash(expected)
        wider = Superfunction(
            m + 1, n + 1, p + 1, {key: poly.extend(m + 1) for key, poly in expected.terms.items()}
        )
        embedded = product.embed(m + 1, n + 1, p + 1)
        assert embedded == wider and hash(embedded) == hash(wider)
        assert embedded.restrict_rank(p) == wider.restrict_rank(p)


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


def test_power_of_any_exponent():
    # far past 2**950 (where a recursion per bit would stop) and past the
    # float range; each value squares to zero (a polynomial's only such is 0)
    huge = 10**400
    third = Fraction(1, 3)
    nilpotent = [
        GrassmannElement.monomial((1, 2), 4, third),
        Polynomial.const(0, 2),
        th(1, 2, 2, 1) * th(2, 2, 2, 1) * Superfunction.tau(1, 2, 2, 1).scale(third),
    ]
    for soul in nilpotent:
        one = soul._one()
        assert soul**huge == soul * 0
        assert (one + soul) ** huge == one + soul.scale(huge)
        with pytest.raises(ValueError, match="negative powers are not defined"):
            soul**-1
    with pytest.raises(LimitError, match="exceeds the limit"):
        Superfunction.coordinate(1, 1, 0, 0) ** huge


def test_large_power_of_a_coordinate():
    assert str(Superfunction.coordinate(1, 1, 2, 1) ** 1500) == "x1^1500"


# -- the exponent limit --------------------------------------------------

LIMIT = 2**31 - 1


def test_powers_up_to_the_exponent_limit():
    x1 = Superfunction.coordinate(1, 1, 0, 0)
    assert str(x1 ** 2**30) == "x1^1073741824"
    assert str(x1 ** LIMIT) == "x1^2147483647"
    with pytest.raises(LimitError, match="exponent 2147483648 exceeds the limit 2147483647"):
        x1 ** 2**31
    with pytest.raises(LimitError):
        Polynomial.variable(2, 2) ** 2**31
    top = Polynomial(2, {(LIMIT, 5): 1})
    assert (top * Polynomial(2, {(0, 7): 3})).terms == {(LIMIT, 12): 3}
    with pytest.raises(LimitError):
        top * Polynomial.variable(1, 2)


def test_exponents_past_the_limit_are_refused_as_operands():
    # an operand past the limit cannot be built, so no kernel entry sees one
    m, n = 2, 2
    for build in (
        lambda: Polynomial(m, {(2**31, 0): 1}),
        lambda: Polynomial(m, {(0, 2**40): 0}),
        lambda: Superfunction(m, n, 0, {((1,), ()): Polynomial(m, {(2**31, 0): 1})}),
        lambda: Superfunction.from_polynomial(Polynomial(m, {(1, 2**31): 1}), n),
    ):
        with pytest.raises(LimitError, match="exceeds the limit 2147483647"):
            build()
    top = Superfunction(m, n, 0, {((1,), ()): Polynomial(m, {(LIMIT, 0): 1})})
    assert top.diff_x(1) == (
        Superfunction(m, n, 0, {((1,), ()): Polynomial(m, {(LIMIT - 1, 0): LIMIT})})
    )


def test_substitution_at_the_exponent_limit():
    m, n = 1, 2
    th1, th2 = Superfunction.theta(1, m, n), Superfunction.theta(2, m, n)
    x_imgs = [Superfunction.coordinate(1, m, n) + th1 * th2]
    f = Superfunction.from_polynomial(Polynomial(m, {(LIMIT,): 1}), n)
    result = substitute_generators(f, x_imgs, [th1, th2])
    assert str(result) == "x1^2147483647 + 2147483647*x1^2147483646*th[1,2]"
    with pytest.raises(LimitError):
        substitute_generators(f, [x_imgs[0] ** 2], [th1, th2])
    # x1's body is x1 itself: a fraction in a nilpotent part, an odd image
    # or another coordinate's body is never raised to the power 2**31 - 1
    m = 2
    x1, x2 = Superfunction.coordinate(1, m, n), Superfunction.coordinate(2, m, n)
    th1, th2 = Superfunction.theta(1, m, n), Superfunction.theta(2, m, n)
    third = Fraction(1, 3)
    power = Polynomial(m, {(LIMIT, 0): 1})
    f = Superfunction(m, n, 0, {((), ()): power, ((2,), ()): power})
    for x_imgs, th_imgs, nil, odd in (
        ([x1 + (th1 * th2).scale(third), x2], [th1, th2], "2147483647/3", ""),
        ([x1 + th1 * th2, x2], [th1, th2.scale(Fraction(1, 5))], "2147483647", "1/5*"),
        ([x1 + th1 * th2, x2.scale(third)], [th1, th2], "2147483647", ""),
    ):
        assert str(substitute_generators(f, x_imgs, th_imgs)) == (
            f"x1^2147483647 + {nil}*x1^2147483646*th[1,2] + {odd}x1^2147483647*th[2]"
        )


@pytest.mark.parametrize(
    "case",
    ["body square", "body odd power", "body monomial", "nilpotent", "odd block", "block sum"],
)
def test_substitution_results_past_the_limit(case):
    # Each case makes one intermediate product with an exponent past the
    # limit that is only multiplied again, never printed, and the next
    # product would carry into the next exponent field: the check on that
    # intermediate is what turns a wrong answer into LimitError.
    m, n, p = 3, 4, 2
    x1, x2, x3 = (Polynomial.variable(i, m) for i in (1, 2, 3))
    one = Polynomial.const(1, m)

    def mono(poly, theta_key=(), tau_key=()):
        return Superfunction.monomial(m, n, p, poly, theta_key, tau_key)

    x_imgs = [mono(x1), mono(x2), mono(x3)]
    th_imgs = [mono(one, (j,)) for j in range(1, n + 1)]
    if case == "body square":  # B^4 = B^2 * B^2
        x_imgs[0] = mono(x1 ** 2**30)
        f = mono(x1**4)
    elif case == "body odd power":  # B^3 = B^2 * B
        x_imgs[0] = mono(x1**LIMIT)
        f = mono(x1**3)
    elif case == "body monomial":  # B^(1,1,1) = (B_1 * B_2) * B_3
        x_imgs = [mono(x1**LIMIT)] * 3
        f = mono(x1 * x2 * x3)
    elif case == "nilpotent":  # N^3 = N^2 * N, with no body
        block = x2**LIMIT
        x_imgs[0] = mono(block, (1, 2)) + mono(block, (3, 4)) + mono(block, (), (1, 2))
        f = mono(x1**3)
    elif case == "odd block":  # F(1,2,3) = F(1,2) * F_3
        th_imgs = [mono(x2**LIMIT, (j,)) for j in range(1, n + 1)]
        f = mono(one, (1, 2, 3))
    else:  # the sum over th[3] (x2 has no body), then times its image
        x_imgs[:2] = [mono(x1**2), mono(x1**LIMIT, (1, 2))]
        th_imgs[2] = mono(x1**LIMIT, (3,))
        f = mono(x1 * x2, (3,))
    with pytest.raises(LimitError):
        substitute_generators(f, x_imgs, th_imgs)


# -- odd indices past one machine word -------------------------------------


def test_odd_indices_above_64_beside_t_factors():
    m, n, p = 1, 70, 3
    x1, one = Polynomial.variable(1, m), Polynomial.const(1, m)

    def mono(poly, theta_key=(), tau_key=()):
        return Superfunction.monomial(m, n, p, poly, theta_key, tau_key)

    th65, t1 = mono(one, (65,)), mono(one, (), (1,))
    assert str(th65 * t1) == "th[65]*t[1]"
    assert str(t1 * th65) == "-th[65]*t[1]"
    assert (th65 * th65).is_zero() and (t1 * t1).is_zero()
    assert str(mono(x1, (2, 66, 69), (1, 3)).diff_theta(66)) == "-x1*th[2,69]*t[1,3]"
    rng = random.Random(65)
    thetas, taus = (1, 2, 63, 64, 65, 66, 69, 70), (1, 2, 3)

    def draw(parity=None, terms=4):
        f = Superfunction.zero(m, n, p)
        while f.terms == {} or len(f.terms) < terms:
            theta_key = tuple(sorted(rng.sample(thetas, rng.randint(0, 3))))
            tau_key = tuple(sorted(rng.sample(taus, rng.randint(0, 2))))
            if parity is not None and (len(theta_key) + len(tau_key)) % 2 != parity:
                continue
            poly = Polynomial(m, {(rng.randint(0, 2),): random_fraction(rng)})
            f = f + mono(poly, theta_key, tau_key)
        return f

    for _ in range(30):
        a, b = draw(), draw()
        assert a * b == _reference_product(a, b)
        assert b * a == _reference_product(b, a)
    identity = [mono(one, (j,)) for j in range(1, n + 1)]
    for _ in range(8):
        x_imgs = [mono(x1) + draw(parity=0, terms=2)]
        th_imgs = list(identity)
        for j in thetas:
            th_imgs[j - 1] = draw(parity=1, terms=2)
        f = draw()
        result = substitute_generators(f, x_imgs, th_imgs)
        assert result == _naive_substitute(f, x_imgs, th_imgs)
        _assert_lowest_terms(result)


def test_kernel_matches_reference_on_generated_shapes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def index_keys(count):
        if not count:
            return st.just(())
        indices = st.lists(st.integers(1, count), max_size=min(count, 4), unique=True)
        return indices.map(lambda indices: tuple(sorted(indices)))

    def superfunctions(data, m, n, p, parity=None):
        keys = st.tuples(index_keys(n), index_keys(p))
        if parity is not None:
            keys = keys.filter(lambda key: (len(key[0]) + len(key[1])) % 2 == parity)
        coeffs = st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * m),
            st.fractions(min_value=-4, max_value=4, max_denominator=6),
            max_size=3,
        )
        terms = data.draw(st.dictionaries(keys, coeffs, max_size=4))
        return Superfunction(m, n, p, {key: Polynomial(m, c) for key, c in terms.items()})

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        m, n, p = data.draw(
            st.sampled_from([(1, 1, 0), (1, 2, 1), (2, 1, 2), (2, 2, 1), (1, 66, 2), (2, 70, 3)])
        )
        a, b = superfunctions(data, m, n, p), superfunctions(data, m, n, p)
        product = a * b
        assert product == _reference_product(a, b)
        _assert_lowest_terms(product)
        x_imgs = [superfunctions(data, m, n, p, parity=0) for _ in range(m)]
        th_imgs = [superfunctions(data, m, n, p, parity=1) for _ in range(n)]
        result = substitute_generators(a, x_imgs, th_imgs)
        assert result == _naive_substitute(a, x_imgs, th_imgs)
        _assert_lowest_terms(result)

    check()
