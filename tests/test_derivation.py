import math
import random
from fractions import Fraction

import pytest

from superdiff import (
    Polynomial,
    SuperDerivation,
    Superfunction,
    exp_nilpotent,
    log_unipotent,
    ordered_splits,
    pushforward,
    symmetrize_apply,
    unordered_partitions,
)
from superdiff.errors import DimensionError, DomainError, ParityError
from superdiff.grassmann import merge_indices
from superdiff.substitution import _coordinates
from superdiff.sampling import (
    random_body,
    random_derivation,
    random_filtration_field,
    random_superfunction,
)
from test_superfn import _assert_lowest_terms, _reference_product


def bell_numbers(count):
    # Bell triangle
    row = [1]
    yield 1
    for _ in range(count - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        yield row[0]


# -- partition enumeration ----------------------------------------------


def test_ordered_splits_count_and_order():
    for k in range(6):
        key = tuple(range(1, k + 1))
        splits = ordered_splits(key)
        assert len(splits) == 2 ** k
        # every pair is a genuine complementary split
        for left, right in splits:
            assert tuple(sorted(left + right)) == key
            assert set(left) & set(right) == set()
    assert ordered_splits((1, 2)) == [
        ((), (1, 2)),
        ((1,), (2,)),
        ((2,), (1,)),
        ((1, 2), ()),
    ]


def test_unordered_partitions_match_bell():
    bells = list(bell_numbers(6))
    for k in range(6):
        key = tuple(range(1, k + 1))
        partitions = unordered_partitions(key)
        assert len(partitions) == bells[k]
        for part in partitions:
            merged = sorted(i for block in part.blocks for i in block)
            assert tuple(merged) == key
            # blocks listed by smallest member
            firsts = [block[0] for block in part.blocks]
            assert firsts == sorted(firsts)


def test_unordered_partitions_small_shape():
    parts = unordered_partitions((1, 2))
    blocks = [p.blocks for p in parts]
    assert blocks == [((1, 2),), ((1,), (2,))]
    assert unordered_partitions(())[0].blocks == ()


# -- derivations ---------------------------------------------------------


def test_derivation_acts_by_leibniz():
    rng = random.Random(20)
    for _ in range(120):
        parity = rng.choice([0, 1])
        X = random_derivation(rng, 2, 2, 2, parity=parity)
        fpar = rng.choice([0, 1])
        f = random_superfunction(rng, 2, 2, 2, parity=fpar)
        g = random_superfunction(rng, 2, 2, 2)
        sign = -1 if parity and fpar else 1
        lhs = X.apply(f * g)
        rhs = X.apply(f) * g + (f * X.apply(g)).scale(sign)
        assert lhs == rhs


def test_coordinate_operators():
    X = SuperDerivation.d_dx(1, 2, 2, 0)
    D = SuperDerivation.d_dtheta(2, 2, 2, 0)
    f = Superfunction.coordinate(1, 2, 2) ** 2
    assert X.apply(f) == Superfunction.coordinate(1, 2, 2).scale(2)
    g = Superfunction.theta(1, 2, 2) * Superfunction.theta(2, 2, 2)
    assert D.apply(g) == -Superfunction.theta(1, 2, 2)


def test_coordinate_operator_indices_are_checked():
    assert SuperDerivation.d_dx(2, 2, 2).x_coeffs[1] == Superfunction.scalar(1, 2, 2)
    assert SuperDerivation.d_dtheta(2, 2, 2).th_coeffs[1] == Superfunction.scalar(1, 2, 2)
    for i in (0, -1, 3):
        with pytest.raises(DimensionError, match=f"variable index {i} out of range 1..2"):
            SuperDerivation.d_dx(i, 2, 2)
        with pytest.raises(DimensionError, match=f"odd coordinate index {i} out of range 1..2"):
            SuperDerivation.d_dtheta(i, 2, 2)


@pytest.mark.parametrize("m, n, p", [(1, 1, 0), (2, 2, 3), (3, 1, 2)])
def test_field_operations_match_their_definitions(m, n, p):
    # each operation acts coefficient by coefficient, d/dx slots first
    rng = random.Random(f"field operations {m}|{n};{p}")
    for _ in range(5):
        X = random_derivation(rng, m, n, p, degree=2)
        Y = random_derivation(rng, m, n, p, degree=2)
        g = random_superfunction(rng, m, n, p, degree=1, terms=3)
        c = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
        xs, ys = X.x_coeffs + X.th_coeffs, Y.x_coeffs + Y.th_coeffs
        assert len(X.x_coeffs) == m and len(X.th_coeffs) == n
        cases = [
            (X + Y, [a + b for a, b in zip(xs, ys)], p),
            (X - Y, [a - b for a, b in zip(xs, ys)], p),
            (-X, [-a for a in xs], p),
            (X.scale(c), [a.scale(c) for a in xs], p),
            (c * X, [a.scale(c) for a in xs], p),
            (X * c, [a.scale(c) for a in xs], p),
            (X.premultiply(g), [g * a for a in xs], p),
            (X.lift(p + 2), [a.lift(p + 2) for a in xs], p + 2),
        ]
        for field, expected, rank in cases:
            assert (field.m, field.n, field.p) == (m, n, rank)
            assert list(field.x_coeffs + field.th_coeffs) == expected
            assert field.x_coeffs == tuple(expected[:m])
            assert field.th_coeffs == tuple(expected[m:])
        assert X.lift(p) is X


def test_field_operations_reject_foreign_operands():
    X = SuperDerivation.d_dx(1, 1, 1)
    with pytest.raises(DimensionError, match="fields live on different domains"):
        X + SuperDerivation.d_dx(1, 1, 1, 1)
    with pytest.raises(DimensionError, match="fields live on different domains"):
        X - SuperDerivation.d_dx(1, 2, 1)
    with pytest.raises(TypeError):
        X + 1
    with pytest.raises(TypeError):
        X - 1
    with pytest.raises(TypeError, match="expected an integer or Fraction, got float"):
        X.scale(0.5)


def test_parity_and_filtration():
    th1 = Superfunction.theta(1, 1, 2)
    th12 = th1 * Superfunction.theta(2, 1, 2)
    zero = Superfunction.zero(1, 2)
    X = SuperDerivation(1, 2, 0, [th12], [zero, zero])
    assert X.parity() == 0
    assert X.filtration_degree() == 2
    Y = SuperDerivation(1, 2, 0, [th1], [zero, zero])
    assert Y.parity() == 1
    Z = SuperDerivation(1, 2, 0, [zero], [th12, zero])
    assert Z.parity() == 1
    assert Z.filtration_degree() == 1
    assert SuperDerivation.zero(1, 2).filtration_degree() == math.inf


def test_bracket_on_coordinates():
    # [d/dth1, th1 d/dx1] = d/dx1  (both odd, anticommutator)
    D = SuperDerivation.d_dtheta(1, 1, 1, 0)
    X = SuperDerivation.d_dx(1, 1, 1, 0).premultiply(Superfunction.theta(1, 1, 1))
    B = D.bracket(X)
    assert B == SuperDerivation.d_dx(1, 1, 1, 0)


def test_bracket_is_a_derivation():
    rng = random.Random(21)
    for _ in range(60):
        pa, pb = rng.choice([0, 1]), rng.choice([0, 1])
        X = random_derivation(rng, 2, 2, 0, degree=1, parity=pa)
        Y = random_derivation(rng, 2, 2, 0, degree=1, parity=pb)
        f = random_superfunction(rng, 2, 2, 0, degree=1)
        sign = -1 if pa and pb else 1
        lhs = X.bracket(Y).apply(f)
        rhs = X.apply(Y.apply(f)) - Y.apply(X.apply(f)).scale(sign)
        assert lhs == rhs


def test_bracket_graded_antisymmetry_and_jacobi():
    rng = random.Random(22)
    for _ in range(40):
        pa, pb, pc = (rng.choice([0, 1]) for _ in range(3))
        X = random_derivation(rng, 2, 2, 0, degree=1, parity=pa)
        Y = random_derivation(rng, 2, 2, 0, degree=1, parity=pb)
        Z = random_derivation(rng, 2, 2, 0, degree=1, parity=pc)
        assert X.bracket(Y) == Y.bracket(X).scale(-((-1) ** (pa * pb)))
        lhs = X.bracket(Y.bracket(Z))
        rhs = X.bracket(Y).bracket(Z) + Y.bracket(X.bracket(Z)).scale((-1) ** (pa * pb))
        assert lhs == rhs


def _coordinate_bracket(X, Y, sign):
    """The earlier `bracket`: [X, Y] assembled from its values on the
    coordinates, X(Y(gen)) - sign * Y(X(gen)); kept as the reference for
    the bracket read from the coefficient vectors."""
    m, n, p = X.m, X.n, X.p
    values = [
        X.apply(Y.apply(gen)) - Y.apply(X.apply(gen)).scale(sign)
        for gen in _coordinates(m, n, p)
    ]
    return SuperDerivation._of(m, n, p, values)


@pytest.mark.parametrize("m, n, p", [(1, 1, 0), (2, 2, 0), (2, 1, 2), (0, 3, 1), (3, 0, 1)])
def test_bracket_matches_coordinate_reference(m, n, p):
    rng = random.Random(f"bracket {m}|{n};{p}")
    for _ in range(12):
        qx, qy = rng.choice([0, 1]), rng.choice([0, 1])
        X = random_derivation(rng, m, n, p, degree=2, parity=qx)
        Y = random_derivation(rng, m, n, p, degree=2, parity=qy)
        # a field's value on each coordinate is its coefficient there
        assert [X.apply(gen) for gen in _coordinates(m, n, p)] == list(X._coeffs)
        assert X.bracket(Y) == _coordinate_bracket(X, Y, -1 if qx * qy else 1)
        # a mixed field with an even partner takes the sign 1
        mixed = X + random_derivation(rng, m, n, p, degree=2, parity=1 - qx)
        even = random_derivation(rng, m, n, p, degree=2, parity=0)
        assert mixed.bracket(even) == _coordinate_bracket(mixed, even, 1)
        assert even.bracket(mixed) == _coordinate_bracket(even, mixed, 1)


def test_bracket_rejects_double_mixed():
    x1 = Superfunction.coordinate(1, 1, 1)
    th1 = Superfunction.theta(1, 1, 1)
    mixed = SuperDerivation(1, 1, 0, [x1 + th1], [x1 + th1])
    with pytest.raises(ParityError):
        mixed.bracket(mixed)


def test_bracket_of_a_mixed_field_splits_over_its_parts():
    from superdiff.parser import parse_derivation

    even_part, odd_part = (parse_derivation(t, 1, 1) for t in ("x1*d/dx1", "d/dth1"))
    mixed = even_part + odd_part
    assert mixed.parity() is None
    partner = parse_derivation("x1^2*d/dx1 + x1*th1*d/dth1", 1, 1)
    assert partner.parity() == 0
    assert mixed.bracket(partner) == even_part.bracket(partner) + odd_part.bracket(partner)
    assert partner.bracket(mixed) == partner.bracket(even_part) + partner.bracket(odd_part)
    assert str(mixed.bracket(partner)) == "x1^2*d/dx1 + (x1 + x1*th[1])*d/dth1"
    rng = random.Random(23)
    for _ in range(20):
        even, odd, partner = (
            random_derivation(rng, 2, 2, 0, degree=1, parity=q) for q in (0, 1, 0)
        )
        mixed = even + odd
        assert mixed.bracket(partner) == even.bracket(partner) + odd.bracket(partner)
        assert partner.bracket(mixed) == partner.bracket(even) + partner.bracket(odd)


def test_bracket_of_a_mixed_field_refuses_an_odd_partner():
    from superdiff.parser import parse_derivation

    mixed = parse_derivation("x1*d/dx1 + d/dth1", 1, 1)
    odd = parse_derivation("th1*d/dx1", 1, 1)
    for left, right in ((mixed, odd), (odd, mixed)):
        with pytest.raises(ParityError, match="^bracket of a mixed field needs an even partner$"):
            left.bracket(right)


# -- the action against a plain Fraction reference ----------------------


def _reference_diff_x(f, i):
    """d/dx_i of f, one Fraction coefficient at a time."""
    terms = {}
    for key, poly in f.terms.items():
        out = {}
        for e, c in poly.terms.items():
            if e[i - 1]:
                out[e[: i - 1] + (e[i - 1] - 1,) + e[i:]] = c * e[i - 1]
        terms[key] = Polynomial(f.m, out)
    return Superfunction(f.m, f.n, f.p, terms)


def _reference_diff_theta(f, j):
    """Left d/dth_j of f: th[K] = sign * th_j * th[K - j] gives sign * th[K - j]."""
    terms = {}
    for (theta_key, tau_key), poly in f.terms.items():
        if j in theta_key:
            rest = tuple(k for k in theta_key if k != j)
            sign, merged = merge_indices((j,), rest)
            assert merged == theta_key
            terms[(rest, tau_key)] = Polynomial(f.m, {e: sign * c for e, c in poly.terms.items()})
    return Superfunction(f.m, f.n, f.p, terms)


def _reference_apply(X, f):
    """sum_i c_i * d_i(f) from reference derivatives and reference products."""
    total = Superfunction.zero(f.m, f.n, f.p)
    for i, c in enumerate(X.x_coeffs, start=1):
        total = total + _reference_product(c, _reference_diff_x(f, i))
    for j, c in enumerate(X.th_coeffs, start=1):
        total = total + _reference_product(c, _reference_diff_theta(f, j))
    return total


def _check_apply(X, f):
    result = X.apply(f)
    assert result == _reference_apply(X, f)
    _assert_lowest_terms(result)
    return result


def _with_denominators(rng, X):
    """X with each coefficient scaled by its own fraction of denominator > 1."""
    coeffs = [
        g.scale(Fraction(rng.choice([-5, -1, 1, 2, 7]), rng.choice([2, 3, 4, 9])))
        for g in X.x_coeffs + X.th_coeffs
    ]
    return SuperDerivation(X.m, X.n, X.p, coeffs[: X.m], coeffs[X.m :])


@pytest.mark.parametrize("m, n, p", [(1, 1, 0), (2, 2, 0), (1, 3, 2), (2, 2, 3), (3, 1, 2)])
def test_apply_matches_fraction_reference(m, n, p):
    rng = random.Random(f"apply {m}|{n};{p}")
    for trial in range(30):
        X = _with_denominators(rng, random_derivation(rng, m, n, p, degree=3, parity=trial % 2))
        f = random_superfunction(rng, m, n, p, degree=3, terms=6)
        if p:
            g = random_superfunction(rng, m, n, p, degree=2, terms=2)
            f = f + g * Superfunction.tau(p, m, n, p)
        _check_apply(X, f)


def test_apply_odd_theta_coefficients_and_t_factors():
    # th3 d/dth2 on th[1,2]*t[1]: d/dth2 gives -th1*t1, and th3*(-th1*t1) = th[1,3]*t[1]
    th = [Superfunction.theta(j, 1, 3, 1) for j in (1, 2, 3)]
    t1 = Superfunction.tau(1, 1, 3, 1)
    zero = Superfunction.zero(1, 3, 1)
    X = SuperDerivation(1, 3, 1, [zero], [zero, th[2], zero])
    assert str(_check_apply(X, th[0] * th[1] * t1)) == "th[1,3]*t[1]"
    # t1 d/dx1 on x1^2*th1: t1 * 2*x1*th1 = -2*x1*th1*t1
    x1 = Superfunction.coordinate(1, 1, 3, 1)
    Y = SuperDerivation(1, 3, 1, [t1.scale(Fraction(1, 3))], [zero] * 3)
    assert str(_check_apply(Y, x1 * x1 * th[0])) == "-2/3*x1*th[1]*t[1]"


def test_apply_with_zero_coefficients_and_zero_argument():
    rng = random.Random(26)
    m, n, p = 2, 2, 1
    zero = Superfunction.zero(m, n, p)
    f = random_superfunction(rng, m, n, p, degree=3, terms=6)
    for _ in range(10):
        X = random_derivation(rng, m, n, p, degree=2, parity=0)
        kept = rng.randrange(m + n)
        coeffs = [g if i == kept else zero for i, g in enumerate(X.x_coeffs + X.th_coeffs)]
        sparse = SuperDerivation(m, n, p, coeffs[:m], coeffs[m:])
        _check_apply(sparse, f)
        assert X.apply(zero).is_zero()
    assert SuperDerivation.zero(m, n, p).apply(f).is_zero()
    # a field whose only coefficient differentiates f to zero
    d_th2 = SuperDerivation.d_dtheta(2, m, n, p)
    assert d_th2.apply(Superfunction.theta(1, m, n, p)).is_zero()


def test_apply_twice_and_derived_fields():
    rng = random.Random(27)
    m, n, p = 2, 2, 2
    for _ in range(10):
        X = _with_denominators(rng, random_derivation(rng, m, n, p, degree=2, parity=1))
        f = random_superfunction(rng, m, n, p, degree=3, terms=5)
        g = random_superfunction(rng, m, n, p, degree=2, terms=4)
        # the coefficients are cleared on the first application and kept
        first = _check_apply(X, f)
        _check_apply(X, g)
        assert X.apply(f) == first
        # fields made from X after it has been applied act as themselves
        prefix = random_superfunction(rng, m, n, p, degree=1, terms=2).scale(Fraction(1, 5))
        for derived in (-X, X.scale(Fraction(-3, 2)), X.premultiply(prefix), X - X):
            _check_apply(derived, f)
        lifted = X.lift(p + 1)
        _check_apply(lifted, f.lift(p + 1) * Superfunction.tau(p + 1, m, n, p + 1))
        assert lifted.apply(f.lift(p + 1)) == first.lift(p + 1)


def test_leibniz_and_antisymmetry_on_generated_shapes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def index_keys(count):
        bits = st.lists(st.booleans(), min_size=count, max_size=count)
        return bits.map(lambda bits: tuple(i for i, bit in enumerate(bits, start=1) if bit))

    def superfunctions(data, m, n, p, parity):
        """Homogeneous elements with small fractional coefficients."""
        keys = st.tuples(index_keys(n), index_keys(p)).filter(
            lambda key: (len(key[0]) + len(key[1])) % 2 == parity
        )
        coeffs = st.dictionaries(
            st.tuples(*[st.integers(0, 2)] * m),
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            max_size=2,
        )
        terms = data.draw(st.dictionaries(keys, coeffs, max_size=3))
        return Superfunction(m, n, p, {key: Polynomial(m, c) for key, c in terms.items()})

    def fields(data, m, n, p, parity):
        coeffs = [superfunctions(data, m, n, p, parity) for _ in range(m)]
        coeffs += [superfunctions(data, m, n, p, 1 - parity) for _ in range(n)]
        return SuperDerivation(m, n, p, coeffs[:m], coeffs[m:])

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(st.data())
    def check(data):
        m, n, p = data.draw(st.sampled_from([(1, 1, 0), (1, 2, 1), (2, 1, 1), (2, 2, 0)]))
        qx, qy, qf = (data.draw(st.integers(0, 1)) for _ in range(3))
        X, Y = fields(data, m, n, p, qx), fields(data, m, n, p, qy)
        f = superfunctions(data, m, n, p, qf)
        g = superfunctions(data, m, n, p, data.draw(st.integers(0, 1)))
        # graded Leibniz rule: X(fg) = X(f) g + (-1)^(|X||f|) f X(g)
        assert X.apply(f * g) == X.apply(f) * g + (f * X.apply(g)).scale((-1) ** (qx * qf))
        # super-antisymmetry: [X, Y] = -(-1)^(|X||Y|) [Y, X]
        assert X.bracket(Y) == Y.bracket(X).scale(-((-1) ** (qx * qy)))

    check()


# -- symmetrized application --------------------------------------------


def test_symmetrize_single_is_plain_apply():
    rng = random.Random(23)
    X = random_derivation(rng, 2, 2, 0, parity=0)
    f = random_superfunction(rng, 2, 2, 0)
    assert symmetrize_apply([X], f) == X.apply(f)


def test_symmetrize_pair_without_prefix_is_its_field():
    rng = random.Random(27)
    X = random_derivation(rng, 2, 2, 1, parity=0)
    f = random_superfunction(rng, 2, 2, 1)
    assert symmetrize_apply([(None, X)], f) == X.apply(f)


def test_symmetrize_two_even_operators():
    rng = random.Random(24)
    for _ in range(40):
        X = random_derivation(rng, 2, 2, 0, degree=1, parity=0)
        Y = random_derivation(rng, 2, 2, 0, degree=1, parity=0)
        f = random_superfunction(rng, 2, 2, 0, degree=1)
        expect = (X.apply(Y.apply(f)) + Y.apply(X.apply(f))).scale(Fraction(1, 2))
        assert symmetrize_apply([X, Y], f) == expect


def test_symmetrize_order_of_prefixed_operators():
    # prefixed operators commute after symmetrization regardless of order
    rng = random.Random(25)
    for _ in range(30):
        fields = []
        for size in ((1,), (2,), (1, 2)):
            F = random_derivation(rng, 2, 2, 0, degree=1, parity=len(size) % 2)
            prefix = Superfunction.monomial(
                2, 2, 2, Polynomial.const(1, 2), (), size
            )
            fields.append((prefix, F))
        f = random_superfunction(rng, 2, 2, 2, degree=1)
        forward = symmetrize_apply(fields, f)
        backward = symmetrize_apply(list(reversed(fields)), f)
        assert forward == backward


# -- exponentials --------------------------------------------------------


def test_exp_requires_even_filtration_two():
    th1 = Superfunction.theta(1, 1, 2)
    zero = Superfunction.zero(1, 2)
    odd = SuperDerivation(1, 2, 0, [th1], [zero, zero])
    with pytest.raises(ParityError):
        exp_nilpotent(odd)
    low = SuperDerivation(1, 2, 0, [zero], [th1, zero])  # even but filtration 0
    with pytest.raises(DomainError):
        exp_nilpotent(low)


def test_exp_requires_a_field_without_external_part():
    zero = Superfunction.zero(1, 2, 1)
    th12 = Superfunction.theta(1, 1, 2, 1) * Superfunction.theta(2, 1, 2, 1)
    with pytest.raises(DomainError, match="without external part"):
        exp_nilpotent(SuperDerivation(1, 2, 1, [th12], [zero, zero]))


def test_exp_log_round_trip_2_3():
    rng = random.Random(26)
    done = 0
    for _ in range(60):
        X = random_filtration_field(rng, 2, 3)
        if X.filtration_degree() < 2:
            continue
        phi = exp_nilpotent(X)
        assert phi.inverse is not None
        assert phi.compose(phi.inverse).is_identity()
        assert log_unipotent(phi) == X
        done += 1
    assert done > 40


def test_log_exp_round_trip_on_unipotents():
    rng = random.Random(27)
    for _ in range(40):
        X = random_filtration_field(rng, 1, 3)
        if X.filtration_degree() < 2:
            continue
        phi = exp_nilpotent(X)
        Y = log_unipotent(phi)
        assert exp_nilpotent(Y) == phi


def test_exp_deep_series_terms():
    # on 1|4 the series need the quadratic term: X = th1 th2 d/dx1 + c th1 th3 th4 d/dth1
    m, n = 1, 4
    th = lambda j: Superfunction.theta(j, m, n)
    zero = Superfunction.zero(m, n)
    c = Fraction(3, 2)
    X = SuperDerivation(
        m,
        n,
        0,
        [th(1) * th(2)],
        [(th(1) * th(3) * th(4)).scale(c), zero, zero, zero],
    )
    assert X.filtration_degree() == 2
    # X(x1) = th1 th2, X(X(x1)) = X(th1) th2 = c th1 th3 th4 th2 != 0
    second = X.apply(X.apply(Superfunction.coordinate(1, m, n)))
    assert not second.is_zero()
    phi = exp_nilpotent(X)
    expect_x1 = (
        Superfunction.coordinate(1, m, n)
        + th(1) * th(2)
        + second.scale(Fraction(1, 2))
    )
    assert phi.images_x[0] == expect_x1
    assert log_unipotent(phi) == X
    assert phi.compose(phi.inverse).is_identity()


def test_log_rejects_non_unipotent():
    rng = random.Random(28)
    body = random_body(rng, 2, 2)
    shifted = body
    if shifted.is_unipotent():  # random affine part is almost surely not
        pytest.skip("degenerate draw")
    with pytest.raises(DomainError):
        log_unipotent(shifted)


# -- pushforward ----------------------------------------------------------


def test_pushforward_defining_identity():
    # X o phi = phi o dphi(X) as operators on every coordinate function
    rng = random.Random(29)
    for _ in range(40):
        body = random_body(rng, 2, 2, degree=1)
        X = random_derivation(rng, 2, 2, 0, degree=1, parity=rng.choice([0, 1]))
        Y = pushforward(body, X)
        coords = [Superfunction.coordinate(1, 2, 2), Superfunction.theta(2, 2, 2)]
        for g in coords:
            assert body.apply(Y.apply(g)) == X.apply(body.apply(g))


def test_pushforward_respects_bracket():
    rng = random.Random(30)
    for _ in range(25):
        body = random_body(rng, 2, 2, degree=1)
        pa, pb = rng.choice([0, 1]), rng.choice([0, 1])
        X = random_derivation(rng, 2, 2, 0, degree=1, parity=pa)
        Y = random_derivation(rng, 2, 2, 0, degree=1, parity=pb)
        lhs = pushforward(body, X.bracket(Y))
        rhs = pushforward(body, X).bracket(pushforward(body, Y))
        assert lhs == rhs


def test_pushforward_needs_certificate():
    from superdiff.substitution import UnderlyingMorphism
    from superdiff.errors import InvertibilityError

    bare = UnderlyingMorphism.identity(1, 1)
    stripped = UnderlyingMorphism(1, 1, bare.images_x, bare.images_th)
    X = SuperDerivation.d_dx(1, 1, 1, 0)
    with pytest.raises(InvertibilityError):
        pushforward(stripped, X)
