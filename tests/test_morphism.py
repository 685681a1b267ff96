import random
from fractions import Fraction
from itertools import permutations

import pytest

from superdiff import (
    Polynomial,
    SuperDerivation,
    SuperMorphism,
    Superfunction,
    certify_inverse,
    expand_factored,
    factorize,
    gr_push,
    hom_apply,
    subsets_of_rank,
    symmetrize_apply,
)
from superdiff.errors import DimensionError, DomainError, InvertibilityError, ParityError
from superdiff.sampling import (
    random_body,
    random_field_family,
    random_grassmann_morphism,
    random_morphism,
    random_superfunction,
)
from superdiff.substitution import UnderlyingMorphism


def test_subsets_of_rank_order():
    assert subsets_of_rank(3) == [
        (1,),
        (2,),
        (3,),
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    ]
    assert subsets_of_rank(0) == []
    assert subsets_of_rank(2, include_empty=True)[0] == ()


def test_identity_and_validation():
    ident = SuperMorphism.identity(2, 2, 1)
    f = Superfunction.coordinate(1, 2, 2, 1) * Superfunction.theta(1, 2, 2, 1)
    assert ident.apply_extended(f) == f
    x1 = Superfunction.coordinate(1, 1, 1, 0)
    th1 = Superfunction.theta(1, 1, 1, 0)
    with pytest.raises(ParityError):
        SuperMorphism(1, 1, 0, [th1], [th1])
    with pytest.raises(ParityError):
        SuperMorphism(1, 1, 0, [x1], [x1])


def test_hom_apply_is_multiplicative():
    rng = random.Random(40)
    for _ in range(50):
        phi = random_morphism(rng, 2, 2, 2, degree=1)
        a = random_superfunction(rng, 2, 2, 2, degree=1)
        b = random_superfunction(rng, 2, 2, 2, degree=1)
        assert hom_apply(phi, a * b) == hom_apply(phi, a) * hom_apply(phi, b)
        assert hom_apply(phi, a + b) == hom_apply(phi, a) + hom_apply(phi, b)


def test_hom_apply_fixes_external():
    rng = random.Random(41)
    phi = random_morphism(rng, 2, 2, 2, degree=1)
    tau12 = Superfunction.monomial(2, 2, 2, Polynomial.const(1, 2), (), (1, 2))
    assert hom_apply(phi, tau12) == tau12


def test_known_image_of_square():
    # phi: x1 -> x1 + th1 t1 gives phi(x1^2) = x1^2 + 2 x1 th1 t1
    m = n = p = 1
    x1 = Superfunction.coordinate(1, m, n, p)
    th1 = Superfunction.theta(1, m, n, p)
    t1 = Superfunction.tau(1, m, n, p)
    phi = SuperMorphism(m, n, p, [x1 + th1 * t1], [th1])
    image = hom_apply(phi, x1 ** 2)
    assert image == x1 ** 2 + (x1 * th1 * t1).scale(2)


def test_skeleton_reconstructs():
    rng = random.Random(42)
    for _ in range(30):
        phi = random_morphism(rng, 2, 2, 2, degree=1)
        f = random_superfunction(rng, 2, 2, 0, degree=1)
        parts = phi.skeleton(f)
        total = Superfunction.zero(2, 2, 2)
        for key, coeff in parts.items():
            assert coeff.p == 0
            tau_mono = Superfunction.monomial(
                2, 2, 2, Polynomial.const(1, 2), (), key
            )
            total = total + tau_mono * coeff.lift(2)
        assert total == hom_apply(phi, f)


def test_skeleton_zero_component_is_multiplicative():
    rng = random.Random(52)
    for _ in range(30):
        phi = random_morphism(rng, 2, 2, 2, degree=1)
        a = random_superfunction(rng, 2, 2, 0, degree=1)
        b = random_superfunction(rng, 2, 2, 0, degree=1)
        base = phi.skeleton(a * b).get((), Superfunction.zero(2, 2, 0))
        pa = phi.skeleton(a).get((), Superfunction.zero(2, 2, 0))
        pb = phi.skeleton(b).get((), Superfunction.zero(2, 2, 0))
        assert base == pa * pb


def test_expand_then_factorize():
    rng = random.Random(43)
    for _ in range(30):
        body = random_body(rng, 2, 2, degree=1)
        family = random_field_family(rng, 2, 2, 2, degree=1)
        phi = expand_factored(body, family, 2)
        body2, family2 = factorize(phi)
        assert body2.images_x == body.images_x
        assert body2.images_th == body.images_th
        assert family2 == family


def test_factorize_then_expand():
    rng = random.Random(44)
    for _ in range(30):
        phi = random_morphism(rng, 2, 2, 2, degree=1)
        body, family = factorize(phi)
        again = expand_factored(body, family, 2)
        assert again == phi


def test_factorize_rank_three():
    rng = random.Random(45)
    for _ in range(10):
        body = random_body(rng, 2, 2, degree=1)
        family = random_field_family(rng, 2, 2, 3, degree=1)
        phi = expand_factored(body, family, 3)
        body2, family2 = factorize(phi)
        assert family2 == family
        assert body2.images_x == body.images_x


def test_factored_coefficients_by_hand_rank_two():
    # for each coordinate g:
    #   phi(g) = a0(g) + t1 X1(a0 g) + t2 X2(a0 g)
    #          + t12 (X12 + (X1 X2 + X2 X1)/2)(a0 g)   modulo sign bookkeeping
    rng = random.Random(46)
    for _ in range(15):
        body = random_body(rng, 2, 2, degree=1)
        family = random_field_family(rng, 2, 2, 2, degree=1)
        phi = expand_factored(body, family, 2)
        gens = [Superfunction.coordinate(i, 2, 2) for i in (1, 2)] + [
            Superfunction.theta(j, 2, 2) for j in (1, 2)
        ]
        for g in gens:
            base = body.apply(g).lift(2)
            image = hom_apply(phi, g.lift(2).embed(2, 2, 2))
            total = base
            for key in subsets_of_rank(2):
                ops = []
                for index in key:
                    if (index,) not in family:
                        break
                    prefix = Superfunction.monomial(
                        2, 2, 2, Polynomial.const(1, 2), (), (index,)
                    )
                    ops.append((prefix, family[(index,)]))
                else:
                    if len(key) == len(ops):
                        pieces = Superfunction.zero(2, 2, 2)
                        for order in permutations(range(len(ops))):
                            term = base
                            for idx in reversed(order):
                                prefix, field = ops[idx]
                                term = prefix * field.lift(2).apply(term)
                            pieces = pieces + term
                        total = total + pieces.scale(
                            Fraction(1, len(list(permutations(range(len(ops))))))
                        )
                if key in family and len(key) > 1:
                    prefix = Superfunction.monomial(
                        2, 2, 2, Polynomial.const(1, 2), (), key
                    )
                    total = total + prefix * family[key].lift(2).apply(base)
            assert image == total


def test_factorize_parity_constraint():
    # a t1 component of even parity cannot appear in a legal morphism
    m, n, p = 1, 1, 1
    x1 = Superfunction.coordinate(1, m, n, p)
    th1 = Superfunction.theta(1, m, n, p)
    t1 = Superfunction.tau(1, m, n, p)
    with pytest.raises(ParityError):
        SuperMorphism(m, n, p, [x1 + x1 * t1], [th1])


def test_gr_push_functorial():
    rng = random.Random(47)
    for _ in range(20):
        g1 = random_grassmann_morphism(rng, 2, 3)
        g2 = random_grassmann_morphism(rng, 3, 3)
        phi = random_morphism(rng, 1, 2, 2, degree=1)
        assert gr_push(g2.compose(g1), phi) == gr_push(g2, gr_push(g1, phi))
        f = random_superfunction(rng, 1, 2, 2, degree=1)
        # relabeling commutes with substitution
        from superdiff import map_external

        assert map_external(hom_apply(phi, f), g1) == hom_apply(
            gr_push(g1, phi), map_external(f, g1)
        )


# -- certification --------------------------------------------------------


def xc(i, m, n):
    return Superfunction.coordinate(i, m, n, 0)


def thc(j, m, n):
    return Superfunction.theta(j, m, n, 0)


def test_certify_identity():
    u = UnderlyingMorphism(2, 1, [xc(1, 2, 1), xc(2, 2, 1)], [thc(1, 2, 1)])
    cert = certify_inverse(u)
    assert cert is not None and cert.inverse is not None
    assert cert.inverse.is_identity()


def test_certify_affine():
    # x1 -> 2 x2 + 1, x2 -> x1 - x2, th1 -> -th2, th2 -> th1 + th2
    m, n = 2, 2
    u = UnderlyingMorphism(
        m,
        n,
        [
            xc(2, m, n).scale(2) + Superfunction.scalar(1, m, n),
            xc(1, m, n) - xc(2, m, n),
        ],
        [-thc(2, m, n), thc(1, m, n) + thc(2, m, n)],
    )
    cert = certify_inverse(u)
    assert cert is not None
    assert cert.compose(cert.inverse).is_identity()
    assert cert.inverse.compose(cert).is_identity()


def test_certify_unipotent_and_composite():
    rng = random.Random(48)
    for _ in range(20):
        body = random_body(rng, 2, 2)  # affine o unipotent, certificate attached
        bare = UnderlyingMorphism(2, 2, body.images_x, body.images_th)
        cert = certify_inverse(bare)
        assert cert is not None
        assert cert.compose(cert.inverse).is_identity()
        assert cert.inverse.compose(cert).is_identity()


def test_certify_honours_hint():
    m, n = 1, 1
    fwd = UnderlyingMorphism(m, n, [xc(1, m, n).scale(3)], [thc(1, m, n)])
    hint = UnderlyingMorphism(m, n, [xc(1, m, n).scale(Fraction(1, 3))], [thc(1, m, n)])
    cert = certify_inverse(fwd, hint)
    assert cert is not None and cert.inverse is not None
    bad_hint = UnderlyingMorphism(m, n, [xc(1, m, n)], [thc(1, m, n)])
    # wrong hint is not fatal: affine route still finds the inverse
    cert2 = certify_inverse(fwd, bad_hint)
    assert cert2 is not None


def test_certify_square_map_unknown():
    u = UnderlyingMorphism(1, 0, [xc(1, 1, 0) ** 2], [])
    assert certify_inverse(u) is None


def test_certify_theta_crossterm_unknown():
    # x-dependent theta part defeats the affine route
    m, n = 1, 1
    u = UnderlyingMorphism(m, n, [xc(1, m, n)], [xc(1, m, n) * thc(1, m, n)])
    assert certify_inverse(u) is None


def test_factorize_uninvertible_body_raises():
    m, n, p = 1, 0, 1
    sq = Superfunction.coordinate(1, m, n, p) ** 2
    phi = SuperMorphism(m, n, p, [sq], [])
    with pytest.raises(InvertibilityError):
        factorize(phi)


def test_factorize_body_mismatch_raises():
    rng = random.Random(49)
    phi = random_morphism(rng, 1, 1, 1, degree=1)
    wrong = UnderlyingMorphism.identity(1, 1)
    if phi.underlying() != wrong:
        with pytest.raises(DomainError):
            factorize(phi, wrong)


def test_factorize_with_body_certified_at_construction():
    # a certificate passed to the constructor holds both ways, so
    # factorize can transport along the inverse of the body
    rng = random.Random(50)
    phi = random_morphism(rng, 2, 2, 2, degree=1)
    body, family = factorize(phi)
    inverse = UnderlyingMorphism(2, 2, body.inverse.images_x, body.inverse.images_th)
    given = UnderlyingMorphism(2, 2, body.images_x, body.images_th, inverse=inverse)
    assert inverse.inverse is given
    assert factorize(phi, given)[1] == family


def test_plan_cache_matches_fresh_morphisms():
    rng = random.Random(41)
    body = random_body(rng, 2, 2)
    assert body.inverse is not None
    for phi in (body, body.inverse):
        for p in (0, 3, 0):
            f = random_superfunction(rng, 2, 2, p, degree=3, terms=5)
            fresh = UnderlyingMorphism(2, 2, phi.images_x, phi.images_th)
            assert phi.apply(f) == fresh.apply(f)
    outer = random_morphism(rng, 2, 2, 3, degree=1)
    for inner in (random_morphism(rng, 2, 2, 3, degree=1), outer):
        for _ in range(2):
            fresh = SuperMorphism(2, 2, 3, outer.images_x, outer.images_th)
            assert outer.compose(inner) == fresh.compose(inner)


def test_lift():
    rng = random.Random(52)
    drawn = random_morphism(rng, 2, 2, 2, degree=1)
    hint = UnderlyingMorphism.identity(2, 2)
    phi = SuperMorphism(2, 2, 2, drawn.images_x, drawn.images_th, inverse_hint=hint)
    with pytest.raises(DimensionError):
        phi.lift(1)
    assert phi.lift(2) == phi
    lifted = phi.lift(4)
    assert lifted.p == 4 and lifted.inverse_hint is hint
    assert lifted.images == tuple(g.lift(4) for g in phi.images)


def test_identity_and_unipotent_on_both_types():
    m, n = 2, 2
    x1, x2, th1, th2 = (xc(1, m, n), xc(2, m, n), thc(1, m, n), thc(2, m, n))
    cases = [
        ([x1, x2, th1, th2], True, True),
        ([x1 + th1 * th2, x2, th1, th2], False, True),
        ([x1.scale(2), x2, th1, th2], False, False),
        ([x1, x2, th1 + x1 * th2, th2], False, False),
    ]
    for images, identity, unipotent in cases:
        body = UnderlyingMorphism(m, n, images[:m], images[m:])
        for phi in (body, SuperMorphism.constant_family(body, 2)):
            assert (phi.is_identity(), phi.is_unipotent()) == (identity, unipotent)
    assert SuperMorphism.identity(m, n, 3).is_identity()
    assert UnderlyingMorphism.identity(m, n).is_identity()


def test_equality_is_per_class():
    body = UnderlyingMorphism.identity(2, 1)
    family = SuperMorphism(2, 1, 0, body.images_x, body.images_th)
    assert family.images == body.images
    assert family != body and body != family
    assert family == SuperMorphism.identity(2, 1, 0)
    assert body == UnderlyingMorphism(2, 1, family.images_x, family.images_th)
