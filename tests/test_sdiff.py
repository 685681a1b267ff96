import random
from fractions import Fraction

import pytest

from superdiff import (
    GrassmannMorphism,
    Polynomial,
    SDiffPoint,
    SuperDerivation,
    SuperMorphism,
    Superfunction,
    compose,
    compose_factored,
    differential_action,
    functor_map,
    invert,
    is_invertible,
    pushforward,
    recombine,
    split,
)
from superdiff import sdiff
from superdiff.errors import DimensionError, InvertibilityError
from superdiff.sampling import (
    random_derivation,
    random_field_family,
    random_grassmann_morphism,
    random_point,
)
from superdiff.substitution import UnderlyingMorphism


def test_points_need_a_certified_body():
    square = UnderlyingMorphism(1, 0, [Superfunction.coordinate(1, 1, 0) ** 2], [])
    with pytest.raises(InvertibilityError, match="constant family needs a certified body"):
        SDiffPoint.constant_family(square, 1)
    with pytest.raises(InvertibilityError, match="factored data needs a certified body"):
        SDiffPoint.from_factored(square, {}, 1)


def test_mismatched_domains_and_ranks_are_refused():
    rng = random.Random(52)
    a, b = random_point(rng, 1, 1, 1, degree=1), random_point(rng, 1, 1, 2, degree=1)
    c = random_point(rng, 2, 1, 1, degree=1)
    for outer, inner in ((a, b), (b, a), (a, c)):
        with pytest.raises(DimensionError, match="different domains or ranks"):
            compose_factored(outer, inner)
    for point, field in ((a, random_derivation(rng, 1, 1, 2)), (a, random_derivation(rng, 2, 1, 1))):
        with pytest.raises(DimensionError, match="wrong domain for this point"):
            differential_action(point, field)


def test_is_invertible_verdicts():
    m, n, p = 1, 1, 1
    x1 = Superfunction.coordinate(1, m, n, p)
    th1 = Superfunction.theta(1, m, n, p)
    good = SuperMorphism(m, n, p, [x1 + th1 * Superfunction.tau(1, m, n, p)], [th1])
    verdict = is_invertible(good)
    assert verdict.status == "invertible"
    assert verdict.body is not None
    bad = SuperMorphism(m, n, p, [x1 ** 2], [th1])
    assert is_invertible(bad).status == "unknown"


def test_constructing_uninvertible_point_raises():
    m, n, p = 1, 1, 1
    sq = Superfunction.coordinate(1, m, n, p) ** 2
    th1 = Superfunction.theta(1, m, n, p)
    with pytest.raises(InvertibilityError):
        SDiffPoint(SuperMorphism(m, n, p, [sq], [th1]))


def test_group_axioms():
    rng = random.Random(60)
    ident = SDiffPoint.identity(2, 2, 2)
    for _ in range(15):
        a = random_point(rng, 2, 2, 2, degree=1)
        b = random_point(rng, 2, 2, 2, degree=1)
        c = random_point(rng, 2, 2, 2, degree=1)
        assert compose(a, ident) == a
        assert compose(ident, a) == a
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        ai = invert(a)
        assert compose(ai, a) == ident
        assert compose(a, ai) == ident


def test_inverse_of_composite():
    rng = random.Random(61)
    for _ in range(10):
        a = random_point(rng, 2, 2, 2, degree=1)
        b = random_point(rng, 2, 2, 2, degree=1)
        assert invert(compose(a, b)) == compose(invert(b), invert(a))


@pytest.mark.parametrize(
    "m, n, p", [(1, 2, 4), (2, 2, 3), (3, 1, 2), (2, 2, 0), (1, 1, 1), (0, 2, 2), (2, 0, 2)]
)
def test_inverse_routes_agree(monkeypatch, m, n, p):
    # a point that knows its fields is inverted by exp of the negated
    # fields; one that does not, by the Neumann series of its kernel part,
    # which must give the same inverse without ever factorizing
    rng = random.Random(1000 + 100 * m + 10 * n + p)
    known = [random_point(rng, m, n, p, degree=1) for _ in range(4)]
    identity_body = UnderlyingMorphism.identity(m, n)
    known.append(SDiffPoint.from_factored(identity_body, random_field_family(rng, m, n, p, 1), p))
    closed = [invert(point) for point in known]

    def refuse(*args):
        raise AssertionError("the inverse of a point without fields factorized")

    monkeypatch.setattr(sdiff, "factorize", refuse)
    ident = SDiffPoint.identity(m, n, p)
    for point, expected in zip(known, closed):
        bare = SDiffPoint(point.morphism)
        inverse = invert(bare)
        assert bare._fields is None and inverse._fields is None
        assert inverse == expected and inverse.body == expected.body
        assert compose(inverse, bare) == ident and compose(bare, inverse) == ident


def test_compose_factored_matches():
    rng = random.Random(62)
    for _ in range(15):
        a = random_point(rng, 2, 2, 2, degree=1)
        b = random_point(rng, 2, 2, 2, degree=1)
        assert compose_factored(a, b) == compose(a, b).morphism


def test_inverse_fields_formula():
    # the components of the inverse are the negated pushforwards
    rng = random.Random(63)
    for _ in range(10):
        a = random_point(rng, 2, 2, 2, degree=1)
        b = invert(a)
        for key, field in a.fields.items():
            moved = -pushforward(a.body, field)
            if moved.is_zero():
                assert key not in b.fields
            else:
                assert b.fields[key] == moved


def test_kernel_is_normal_and_closed():
    rng = random.Random(64)
    for _ in range(10):
        g = random_point(rng, 2, 2, 2, degree=1)
        k = split(random_point(rng, 2, 2, 2, degree=1)).kernel
        k2 = split(random_point(rng, 2, 2, 2, degree=1)).kernel
        assert k.in_kernel() and k2.in_kernel()
        assert compose(k, k2).in_kernel()
        conj = compose(compose(g, k), invert(g))
        assert conj.in_kernel()


def test_split_recombine():
    rng = random.Random(65)
    for _ in range(15):
        a = random_point(rng, 2, 2, 2, degree=1)
        parts = split(a)
        assert parts.kernel.in_kernel()
        assert parts.body.images_x == a.body.images_x
        assert recombine(parts) == a


def test_split_respects_product_law():
    # (k1, g1) (k2, g2) multiplies as k1 * (g1 k2 g1^-1) on kernel parts
    rng = random.Random(66)
    for _ in range(8):
        a = random_point(rng, 2, 2, 2, degree=1)
        b = random_point(rng, 2, 2, 2, degree=1)
        pa, pb = split(a), split(b)
        pc = split(compose(a, b))
        g1 = SDiffPoint.constant_family(pa.body, 2)
        twisted = compose(compose(g1, pb.kernel), invert(g1))
        assert pc.kernel == compose(pa.kernel, twisted)
        assert pc.body == pa.body.compose(pb.body)


def test_functor_map_is_group_hom():
    rng = random.Random(67)
    for _ in range(8):
        gm = random_grassmann_morphism(rng, 3, 2)
        a = random_point(rng, 1, 2, 3, degree=1)
        b = random_point(rng, 1, 2, 3, degree=1)
        lhs = functor_map(gm, compose(a, b))
        rhs = compose(functor_map(gm, a), functor_map(gm, b))
        assert lhs == rhs
    gm = random_grassmann_morphism(rng, 3, 2)
    assert functor_map(gm, SDiffPoint.identity(1, 2, 3)) == SDiffPoint.identity(1, 2, 2)


def test_functor_map_respects_inverse():
    rng = random.Random(68)
    for _ in range(8):
        gm = random_grassmann_morphism(rng, 2, 3)
        a = random_point(rng, 2, 1, 2, degree=1)
        assert functor_map(gm, invert(a)) == invert(functor_map(gm, a))


def test_differential_action_on_kernel_free_point():
    # for a constant family the action is plain pushforward
    rng = random.Random(69)
    from superdiff.sampling import random_body

    for _ in range(10):
        body = random_body(rng, 2, 2, degree=1)
        point = SDiffPoint.constant_family(body, 2)
        Y = random_derivation(rng, 2, 2, 2, degree=1, parity=0)
        assert differential_action(point, Y) == pushforward_family(body, Y)


def pushforward_family(body, Y):
    # transport a field with external coefficients slotwise through the body
    from superdiff.substitution import UnderlyingMorphism

    m, n, p = Y.m, Y.n, Y.p
    inv = body.inverse
    coords = [Superfunction.coordinate(i, m, n) for i in range(1, m + 1)] + [
        Superfunction.theta(j, m, n) for j in range(1, n + 1)
    ]
    values = [
        inv.apply(Y.apply(body.apply(g).lift(p))) for g in coords
    ]
    return SuperDerivation(m, n, p, values[:m], values[m:])


def test_differential_action_even_linearity():
    rng = random.Random(70)
    for _ in range(12):
        point = random_point(rng, 2, 2, 2, degree=1)
        Y = random_derivation(rng, 2, 2, 2, degree=1, parity=0)
        scalar = Superfunction.monomial(
            2, 2, 2, Polynomial.const(Fraction(2, 3), 2), (), (1, 2)
        )
        lhs = differential_action(point, Y.premultiply(scalar))
        rhs = differential_action(point, Y).premultiply(scalar)
        assert lhs == rhs


def test_differential_action_of_identity():
    Y = random_derivation(random.Random(71), 2, 2, 2, degree=1, parity=0)
    ident = SDiffPoint.identity(2, 2, 2)
    assert differential_action(ident, Y) == Y


def test_relabelling_is_natural_on_generated_ranks():
    # the Λ_p-points form a functor of the Grassmann algebra: relabelling
    # along a map Λ_p -> Λ_q is a group homomorphism, and relabellings compose
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=20, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        m, n = data.draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (0, 2)]))
        p, q, r = (data.draw(st.integers(0, 3)) for _ in range(3))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        a, b = (random_point(rng, m, n, p, degree=1) for _ in range(2))
        sigma, rho = random_grassmann_morphism(rng, p, q), random_grassmann_morphism(rng, q, r)
        assert functor_map(sigma, compose(a, b)) == compose(
            functor_map(sigma, a), functor_map(sigma, b)
        )
        assert functor_map(rho.compose(sigma), a) == functor_map(rho, functor_map(sigma, a))
        assert functor_map(GrassmannMorphism.identity(p), a) == a

    check()
