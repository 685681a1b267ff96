import random
from fractions import Fraction
from itertools import combinations

import pytest

from superdiff import (
    GrassmannElement,
    GrassmannMorphism,
    merge_indices,
)
from superdiff.errors import DimensionError, ParityError
from superdiff.grassmann import _WIDTH, _guard
from superdiff.sampling import random_grassmann, random_grassmann_morphism


def gen(i, n=4):
    return GrassmannElement.generator(i, n)


def test_merge_disjoint_counts_transpositions():
    assert merge_indices((1,), (2,)) == (1, (1, 2))
    assert merge_indices((2,), (1,)) == (-1, (1, 2))
    assert merge_indices((), (1, 3)) == (1, (1, 3))
    # moving 2 past one remaining left entry flips the sign once
    assert merge_indices((1, 3), (2,)) == (-1, (1, 2, 3))
    assert merge_indices((2, 4), (1, 3)) == (-1, (1, 2, 3, 4))


def test_merge_overlap_is_none():
    assert merge_indices((1, 2), (2,)) is None
    assert merge_indices((3,), (3,)) is None


def test_product_matches_merge_indices_reference():
    rng = random.Random(31)
    for n in (1, 3, 5, 8):
        for _ in range(30):
            a, b = random_grassmann(rng, n, terms=5), random_grassmann(rng, n, terms=5)
            expected = {}
            for ka, ca in a.terms.items():
                for kb, cb in b.terms.items():
                    merged = merge_indices(ka, kb)
                    if merged is not None:
                        sign, key = merged
                        expected[key] = expected.get(key, 0) + sign * ca * cb
            expected = {key: c for key, c in expected.items() if c}
            product = a * b
            assert product.terms == expected
            reference = GrassmannElement(n, expected)
            assert product == reference and hash(product) == hash(reference)


def test_generators_anticommute():
    a, b = gen(1), gen(2)
    assert (a * b + b * a).is_zero()
    assert (a * a).is_zero()


def test_known_product():
    # (1 + t1)(1 + t2) = 1 + t1 + t2 + t1 t2
    one = GrassmannElement.scalar(1, 2)
    lhs = (one + gen(1, 2)) * (one + gen(2, 2))
    assert lhs.terms == {
        (): Fraction(1),
        (1,): Fraction(1),
        (2,): Fraction(1),
        (1, 2): Fraction(1),
    }


def test_sign_of_reordered_triple():
    # t2 t3 t1 = + t1 t2 t3 (two transpositions)
    lhs = gen(2) * gen(3) * gen(1)
    assert lhs == GrassmannElement.monomial((1, 2, 3), 4)
    # t3 t2 t1 = - t1 t2 t3
    assert gen(3) * gen(2) * gen(1) == -GrassmannElement.monomial((1, 2, 3), 4)


def test_ring_axioms_random():
    rng = random.Random(101)
    for _ in range(200):
        a = random_grassmann(rng, 4)
        b = random_grassmann(rng, 4)
        c = random_grassmann(rng, 4)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_supercommutativity_random():
    rng = random.Random(102)
    for _ in range(200):
        pa = rng.choice([0, 1])
        pb = rng.choice([0, 1])
        a = random_grassmann(rng, 4, parity=pa)
        b = random_grassmann(rng, 4, parity=pb)
        sign = -1 if pa and pb else 1
        assert a * b == (b * a).scale(sign)


def test_parity_and_body():
    a = GrassmannElement.scalar(Fraction(3, 2), 3) + GrassmannElement.monomial((1, 2), 3)
    assert a.parity() == 0
    assert a.body == Fraction(3, 2)
    assert a.soul() == GrassmannElement.monomial((1, 2), 3)
    mixed = a + gen(1, 3)
    assert mixed.parity() is None
    assert GrassmannElement.zero(3).parity() == 0


def test_nilpotency_of_soul():
    rng = random.Random(103)
    for _ in range(50):
        a = random_grassmann(rng, 4)
        s = a.soul()
        power = GrassmannElement.scalar(1, 4)
        for _ in range(5):
            power = power * s
        assert power.is_zero()  # 5 factors from a 4-generator algebra


def test_body_is_an_algebra_map():
    a = GrassmannElement.scalar(Fraction(-2, 7), 3) + gen(2, 3)
    assert a.body == Fraction(-2, 7)
    assert GrassmannElement.scalar(Fraction(5, 3), 3).body == Fraction(5, 3)
    assert GrassmannElement.zero(3).body == 0
    rng = random.Random(104)
    for _ in range(50):
        u = random_grassmann(rng, 3)
        v = random_grassmann(rng, 3)
        assert (u * v).body == u.body * v.body
        assert (u + v).body == u.body + v.body


def test_validation():
    with pytest.raises(DimensionError):
        GrassmannElement(2, {(3,): Fraction(1)})
    with pytest.raises(ValueError):
        GrassmannElement(3, {(2, 1): Fraction(1)})
    with pytest.raises(DimensionError):
        GrassmannElement.generator(0, 2)


def test_morphism_images_must_be_odd():
    with pytest.raises(ParityError):
        GrassmannMorphism(1, 2, [GrassmannElement.scalar(1, 2)])
    # zero image is allowed
    GrassmannMorphism(1, 2, [GrassmannElement.zero(2)])


def test_morphism_count_rank_errors_and_equality():
    with pytest.raises(DimensionError, match="expected 2 generator images, got 1"):
        GrassmannMorphism(2, 2, [gen(1, 2)])
    with pytest.raises(DimensionError, match=r"image of t\[1\] lives in the wrong algebra"):
        GrassmannMorphism(1, 2, [gen(1, 3)])
    f = GrassmannMorphism(2, 3, [gen(1, 3), gen(2, 3) + gen(1, 3) * gen(2, 3) * gen(3, 3)])
    with pytest.raises(DimensionError, match="element has 3 generators, morphism expects 2"):
        f.apply(gen(1, 3))
    with pytest.raises(DimensionError, match="inner lands in 3 generators, outer starts from 2"):
        f.compose(GrassmannMorphism.identity(3))
    assert f == GrassmannMorphism(2, 3, [gen(1, 3), f.images[1]])
    assert f != GrassmannMorphism(2, 3, [gen(1, 3), gen(2, 3)])
    assert f != GrassmannMorphism(2, 4, [gen(1, 4), gen(2, 4)])
    assert GrassmannMorphism.identity(2) != GrassmannMorphism.identity(3)
    assert f != f.images


def test_morphism_is_algebra_map():
    rng = random.Random(105)
    for _ in range(60):
        f = random_grassmann_morphism(rng, 3, 4)
        a = random_grassmann(rng, 3)
        b = random_grassmann(rng, 3)
        assert f.apply(a * b) == f.apply(a) * f.apply(b)
        assert f.apply(a + b) == f.apply(a) + f.apply(b)
    ident = GrassmannMorphism.identity(3)
    a = random_grassmann(rng, 3)
    assert ident.apply(a) == a


def test_morphism_composition():
    rng = random.Random(106)
    for _ in range(40):
        f = random_grassmann_morphism(rng, 2, 3)
        g = random_grassmann_morphism(rng, 3, 4)
        a = random_grassmann(rng, 2)
        assert g.compose(f).apply(a) == g.apply(f.apply(a))


def test_to_from_scalars():
    drop = GrassmannMorphism.to_scalars(3)
    a = GrassmannElement.scalar(4, 3) + gen(1, 3) + gen(1, 3) * gen(2, 3)
    assert drop.apply(a) == GrassmannElement.scalar(4, 0)
    raise_ = GrassmannMorphism.from_scalars(2)
    assert raise_.apply(GrassmannElement.scalar(7, 0)) == GrassmannElement.scalar(7, 2)


def _chain_apply(morphism, a):
    """The earlier `GrassmannMorphism.apply`: each term of the `.terms`
    view multiplied out as a chain of images, the terms summed with `+`;
    kept as the reference for the memoized products."""
    result = GrassmannElement.zero(morphism.target_n)
    for key, coeff in a.terms.items():
        factor = GrassmannElement.scalar(coeff, morphism.target_n)
        for i in key:
            factor = factor * morphism.images[i - 1]
            if factor.is_zero():
                break
        result = result + factor
    return result


def test_apply_matches_chain_reference():
    rng = random.Random(107)
    morphisms = [
        GrassmannMorphism.identity(3),
        GrassmannMorphism.to_scalars(3),
        GrassmannMorphism.from_scalars(2),
        # zero images, and a lone image that squares to zero
        GrassmannMorphism(3, 2, [GrassmannElement.zero(2), gen(1, 2), GrassmannElement.zero(2)]),
        GrassmannMorphism(2, 4, [gen(1) + gen(2) * gen(3) * gen(4), gen(1)]),
    ]
    # non-square maps both ways, and square ones
    morphisms += [random_grassmann_morphism(rng, s, t) for s, t in [(2, 5), (5, 2), (4, 4)] * 5]
    for f in morphisms:
        for _ in range(10):
            a = random_grassmann(rng, f.source_n, terms=6)
            expected = _chain_apply(f, a)
            assert f.apply(a) == expected
            # a second application reads the kept products
            assert f.apply(a) == expected
        assert f.apply(GrassmannElement.zero(f.source_n)) == GrassmannElement.zero(f.target_n)


def test_apply_is_multiplicative_on_generated_ranks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def elements(data, n, parity=None):
        keys = [k for r in range(n + 1) for k in combinations(range(1, n + 1), r)]
        keys = [k for k in keys if parity is None or len(k) % 2 == parity]
        if not keys:
            return GrassmannElement.zero(n)
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        terms = st.dictionaries(st.sampled_from(keys), coeffs, max_size=4)
        return GrassmannElement(n, data.draw(terms))

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        source, target = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        f = GrassmannMorphism(source, target, [elements(data, target, 1) for _ in range(source)])
        a, b = elements(data, source), elements(data, source)
        assert f.apply(a * b) == f.apply(a) * f.apply(b)
        assert f.apply(a) == _chain_apply(f, a)

    check()


def test_guard_closed_form_matches_the_sum_of_guard_bits():
    for m in range(300):
        expected = sum(1 << (_WIDTH * i + _WIDTH - 1) for i in range(m))
        assert _guard(m) == expected, m
