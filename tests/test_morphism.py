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
    random_affine_body,
    random_body,
    random_field_family,
    random_fraction,
    random_grassmann_morphism,
    random_invertible_matrix,
    random_morphism,
    random_superfunction,
)
from superdiff.substitution import UnderlyingMorphism, _coordinates, _invert_matrix
from superdiff.superfn import substitute_generators


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


def test_a_body_with_an_affine_part_has_a_unipotent_remainder():
    # what certify_inverse rests on: a parity-correct body whose affine part
    # is invertible is that part plus terms of >= 2 th factors on an x and
    # >= 3 on a th, so body o affine^-1 is unipotent and the body certified
    rng = random.Random(1644)
    remainders = []
    for m, n in ((1, 1), (2, 2), (3, 1), (1, 3), (2, 3), (3, 2)):
        for _ in range(40):
            # degree 0 or 1 keeps a th image's linear part affine more often
            images = [
                g + random_superfunction(rng, m, n, 0, rng.randrange(3 - parity), 4, parity)
                for parity, g in zip([0] * m + [1] * n, _coordinates(m, n))
            ]
            body = UnderlyingMorphism._of(m, n, images)
            affine = body.affine_part()
            if affine is None:
                continue
            remainders.append(body.compose(affine.inverse))
            assert remainders[-1].is_unipotent()
            cert = certify_inverse(body)
            assert cert is not None and cert.compose(cert.inverse).is_identity()
    assert sum(not u.is_identity() for u in remainders) >= 30


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


def test_factorize_uncertified_body_raises():
    rng = random.Random(51)
    phi = random_morphism(rng, 2, 2, 2, degree=1)
    bare = UnderlyingMorphism._of(2, 2, phi.underlying().images)
    with pytest.raises(InvertibilityError, match="carries no certified inverse"):
        factorize(phi, bare)


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


# -- the image vector --------------------------------------------------------


def test_image_vector_layout_and_of_round_trip():
    rng = random.Random(15)
    for m, n, p in ((1, 1, 0), (2, 2, 3), (3, 1, 2), (0, 2, 1), (2, 0, 1)):
        phi = random_morphism(rng, m, n, p, degree=1)
        body = phi.underlying()
        for psi in (phi, body):
            assert isinstance(psi.images, tuple) and len(psi.images) == m + n
            assert psi.images == psi.images_x + psi.images_th
            assert psi.images_x == psi.images[:m] and psi.images_th == psi.images[m:]
        assert SuperMorphism._of(m, n, p, phi.images) == phi
        assert SuperMorphism._of(m, n, p, list(phi.images), body).inverse_hint is body
        assert UnderlyingMorphism._of(m, n, body.images) == body
        inverse = certify_inverse(body).inverse
        again = UnderlyingMorphism._of(m, n, body.images, inverse)
        assert again.inverse is inverse and inverse.inverse is not None


def _images_1_1():
    return Superfunction.coordinate(1, 1, 1, 0), Superfunction.theta(1, 1, 1, 0)


def _raised(construct) -> tuple[type, str]:
    with pytest.raises((DimensionError, ParityError)) as caught:
        construct()
    return type(caught.value), str(caught.value)


COUNT = "expected 1 even and 1 odd images, got {} and {}"


@pytest.mark.parametrize(
    "build, error, message, substitute_message",
    [
        (lambda x, th: ([x, x], [th]), DimensionError, COUNT.format(2, 1), None),
        (lambda x, th: ([x], []), DimensionError, COUNT.format(1, 0), None),
        (
            lambda x, th: ([x.lift(1)], [th]),
            DimensionError,
            "image of x1 lives on the wrong domain",
            # the images' ring is read from the first of them
            "image of th1 lives on the wrong domain",
        ),
        (
            lambda x, th: ([x], [th.embed(1, 2, 0)]),
            DimensionError,
            "image of th1 lives on the wrong domain",
            None,
        ),
        (lambda x, th: ([th], [th]), ParityError, "image of x1 must be even", None),
        (lambda x, th: ([x], [x]), ParityError, "image of th1 must be odd", None),
    ],
)
def test_image_errors_are_unchanged(build, error, message, substitute_message):
    x, th = _images_1_1()
    images_x, images_th = build(x, th)
    for construct in (
        lambda: UnderlyingMorphism(1, 1, images_x, images_th),
        lambda: SuperMorphism(1, 1, 0, images_x, images_th),
    ):
        assert _raised(construct) == (error, message)
    substituted = _raised(lambda: substitute_generators(x, images_x, images_th))
    assert substituted == (error, substitute_message or message)
    if len(images_x) == 1:  # a vector splits at m, so a count error reads per slot
        vector = [*images_x, *images_th]
        for construct in (
            lambda: UnderlyingMorphism._of(1, 1, vector),
            lambda: SuperMorphism._of(1, 1, 0, vector),
        ):
            assert _raised(construct) == (error, message)


def test_a_short_or_long_image_vector_is_counted_after_the_split():
    x, th = _images_1_1()
    assert _raised(lambda: UnderlyingMorphism._of(1, 1, [x, x, th])) == (
        DimensionError,
        COUNT.format(1, 2),
    )
    assert _raised(lambda: SuperMorphism._of(1, 1, 0, [])) == (DimensionError, COUNT.format(0, 0))


def test_substitute_generators_rank_error_is_unchanged():
    x, th = _images_1_1()
    with pytest.raises(DimensionError) as caught:
        substitute_generators(x, [x.lift(1)], [th.lift(1)])
    assert str(caught.value) == "external rank mismatch: element has 0, images have 1"


def _two_matrix_affine_part(phi):
    """The affine truncation read into an x matrix and a th matrix and
    built by two constructions, kept as the reference for `affine_part`."""
    m, n = phi.m, phi.n
    matrix_x = [[Fraction(0)] * m for _ in range(m)]
    shift = [Fraction(0)] * m
    for i, g in enumerate(phi.images_x):
        base = g.body_polynomial()
        if base.degree() > 1:
            return None
        for exps, coeff in base.terms.items():
            if sum(exps) == 0:
                shift[i] = coeff
            else:
                matrix_x[i][exps.index(1)] = coeff
    matrix_th = [[Fraction(0)] * n for _ in range(n)]
    for j, g in enumerate(phi.images_th):
        for (theta_key, _), poly in g.terms.items():
            if len(theta_key) != 1:
                continue
            if poly.degree() > 0:
                return None
            matrix_th[j][theta_key[0] - 1] = poly.terms.get((0,) * m, Fraction(0))
    inv_x, inv_th = _invert_matrix(matrix_x), _invert_matrix(matrix_th)
    if inv_x is None or inv_th is None:
        return None
    inv_shift = [-sum((a * s for a, s in zip(row, shift)), Fraction(0)) for row in inv_x]
    units = [tuple(1 if t == k else 0 for t in range(m)) for k in range(m)]

    def images(rows_x, consts, rows_th):
        images_x = [
            Superfunction.from_polynomial(
                Polynomial(m, {**dict(zip(units, row)), (0,) * m: const}), n
            )
            for row, const in zip(rows_x, consts)
        ]
        images_th = [
            Superfunction(
                m, n, 0, {((l + 1,), ()): Polynomial.const(c, m) for l, c in enumerate(row)}
            )
            for row in rows_th
        ]
        return images_x, images_th

    forward = UnderlyingMorphism(m, n, *images(matrix_x, shift, matrix_th))
    forward.inverse = UnderlyingMorphism(m, n, *images(inv_x, inv_shift, inv_th), forward)
    return forward


def _assert_affine_matches_reference(phi):
    found, expected = phi.affine_part(), _two_matrix_affine_part(phi)
    assert (found is None) == (expected is None)
    if found is not None:
        assert found.images == expected.images
        assert found.inverse.images == expected.inverse.images
        assert found.inverse.inverse is found
    return found


def test_affine_part_matches_two_matrix_reference_on_random_draws():
    rng = random.Random(1515)
    verdicts = set()
    for m, n in ((1, 1), (2, 2), (3, 1)):
        for _ in range(8):
            phi = random_body(rng, m, n, degree=2)
            _assert_affine_matches_reference(phi)
            # one more term in one image: linear, constant, nilpotent or not affine
            images, slot = list(phi.images), rng.randrange(m + n)
            parity = int(slot >= m)
            images[slot] += random_superfunction(rng, m, n, 0, 1, terms=1, parity=parity)
            loose = UnderlyingMorphism._of(m, n, images)
            verdicts.add(_assert_affine_matches_reference(loose) is None)
    assert verdicts == {True, False}


def test_affine_part_matches_two_matrix_reference_on_hand_cases():
    def body(m, n, images_x, images_th):
        x = [xc(i, m, n) for i in range(1, m + 1)]
        th = [thc(j, m, n) for j in range(1, n + 1)]
        return UnderlyingMorphism(
            m, n, [f(*x, *th) for f in images_x], [f(*x, *th) for f in images_th]
        )

    half = Fraction(1, 2)
    none = [
        body(1, 1, [lambda x, t: x + x * x], [lambda x, t: t]),  # x image of degree 2
        body(1, 1, [lambda x, t: x], [lambda x, t: t + x * t]),  # th coefficient has x
        body(2, 1, [lambda x, y, t: x + y] * 2, [lambda x, y, t: t]),  # singular A
        body(1, 2, [lambda x, t, u: x], [lambda x, t, u: t + u] * 2),  # singular C
    ]
    for phi in none:
        assert _assert_affine_matches_reference(phi) is None
    cubic = body(
        1,
        3,
        [lambda x, t, u, v: x.scale(3) + Superfunction.scalar(half, 1, 3, 0) + t * u],
        [
            lambda x, t, u, v: t + t * u * v,  # a 3-th term is dropped
            lambda x, t, u, v: u.scale(2) - t + x * t * u * v,
            lambda x, t, u, v: v,
        ],
    )
    affine = _assert_affine_matches_reference(cubic)
    assert affine.images_th[0] == thc(1, 1, 3)
    assert affine.images_x[0] == xc(1, 1, 3).scale(3) + Superfunction.scalar(half, 1, 3, 0)


def _chain_affine_body(rng, m, n):
    """The earlier `sampling.random_affine_body`: each image built as a
    chain of `+` over the nonzero entries of its drawn row; kept as the
    reference for the images built in one combination."""
    matrix_x = random_invertible_matrix(rng, m)
    shift = [random_fraction(rng) for _ in range(m)]
    matrix_th = random_invertible_matrix(rng, n)
    images_x = []
    for i in range(m):
        g = Superfunction.scalar(shift[i], m, n, 0)
        for k in range(m):
            if matrix_x[i][k]:
                g = g + Superfunction.coordinate(k + 1, m, n, 0).scale(matrix_x[i][k])
        images_x.append(g)
    images_th = []
    for j in range(n):
        g = Superfunction.zero(m, n, 0)
        for l in range(n):
            if matrix_th[j][l]:
                g = g + Superfunction.theta(l + 1, m, n, 0).scale(matrix_th[j][l])
        images_th.append(g)
    return UnderlyingMorphism(m, n, images_x, images_th).affine_part()


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 1), (0, 2), (2, 0)])
def test_affine_body_matches_chain_reference(m, n):
    ours, theirs = random.Random(f"affine {m}|{n}"), random.Random(f"affine {m}|{n}")
    for _ in range(10):
        found, expected = random_affine_body(ours, m, n), _chain_affine_body(theirs, m, n)
        assert found.images == expected.images
        assert found.inverse.images == expected.inverse.images
        assert found.inverse.inverse is found
        # the same draws, in the same order
        assert ours.getstate() == theirs.getstate()


def test_random_fraction_draws_are_unchanged():
    # zero is one of the draws: no caller asks for a nonzero fraction
    rng = random.Random(19)
    draws = [str(random_fraction(rng)) for _ in range(12)]
    assert draws == ["2", "3", "1", "0", "1/2", "1", "1/2", "-3/2", "0", "-1", "3/2", "-1"]
    assert rng.random() == 0.5692400158763194


def test_expand_factored_refuses_a_bad_family():
    body = UnderlyingMorphism.identity(1, 1)
    odd = SuperDerivation.d_dtheta(1, 1, 1, 0)
    even = SuperDerivation.d_dx(1, 1, 1, 0)
    for fields, error, message in [
        ({(): odd}, ValueError, "field index () must be nonempty and increasing"),
        ({(2, 1): even}, ValueError, "field index (2, 1) must be nonempty and increasing"),
        ({(3,): odd}, DimensionError, "field index (3,) out of range for rank 2"),
        ({(1,): odd.lift(1)}, DimensionError, "field for (1,) lives on the wrong domain"),
        ({(1, 2): odd}, ParityError, "field for (1, 2) must have parity 0"),
    ]:
        with pytest.raises(error) as caught:
            expand_factored(body, fields, 2)
        assert type(caught.value) is error and str(caught.value) == message
    # a zero field is dropped, not refused
    assert expand_factored(body, {(1,): SuperDerivation.zero(1, 1)}, 2) == expand_factored(
        body, {}, 2
    )


def _identity_route(body):
    """The earlier first route of `certify_inverse` for an identity body,
    kept as the reference for the affine route that replaced it."""
    return UnderlyingMorphism.identity(body.m, body.n) if body.is_identity() else None


@pytest.mark.parametrize("m, n", [(0, 0), (1, 0), (0, 2), (2, 2), (3, 1)])
def test_identity_body_certifies_as_the_identity_route_did(m, n):
    from superdiff.parser import format_underlying

    body = UnderlyingMorphism._of(m, n, _coordinates(m, n))
    assert body.inverse is None
    old, new = _identity_route(body), certify_inverse(body)
    assert new == old and new.inverse == old.inverse and new.inverse.inverse is new
    assert format_underlying(new) == format_underlying(old)
